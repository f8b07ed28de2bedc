// advisory_fitted and advisory_churn: a closed loop of client threads
// driving the mcpd daemon in-process.
//
// Each client keeps a fixed window of sessions in flight and opens its next
// session when the last reply of an earlier one arrives.  Sessions replay a
// fixed set of tenants (one round = one session per tenant).  The daemon
// never erases a finished session, so its memory grows with every pair it
// has served; the run is therefore cut into generations of a fixed number
// of rounds, each served by a fresh daemon, and generations repeat until
// --seconds have passed.  Only the generations themselves are timed, in
// wall and in CPU time; starting and stopping daemons between them is not.
// Replies are folded per tenant (every session of one tenant must answer
// identically) and checked against the reference computations after the
// timed region.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "gen.hpp"
#include "reference.hpp"
#include "service/mcpd.hpp"
#include "service/wire_format.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using mcp::Count;
using mcp::PageId;
using mcp::RequestSet;
namespace wire = mcp::wire;
using mcp::service::Mcpd;
using mcp::service::ResponseMailbox;

/// op_tail_ms is each generation's p90 session latency.  Its p99, the
/// highest percentile with ten sessions beyond it in a 1024-session
/// generation, is reported as session_tail_ms: on a 4-vCPU VM it doubled
/// between back-to-back runs during bursts of host CPU steal, where the p90
/// moved far less.
constexpr double kTailPercentile = 90.0;
constexpr double kFarTailPercentile = 99.0;

struct Tenant {
  wire::SessionParams params;
  RequestSet trace;
  Count pairs = 0;
  /// Churn: stream as kRequestChunk pair frames (else kRequestRun frames).
  bool pair_frames = false;
};

struct Config {
  std::size_t tenants = 0;
  std::size_t parts = 1;   ///< submissions per session
  std::size_t window = 8;  ///< sessions in flight per client
  std::size_t replies = 1; ///< replies per session
};

/// Fitted tenants: one (p, K, tau) shape, shared LRU, every core's pages
/// fit its K/p share (nothing is ever evicted).
std::vector<Tenant> fitted_tenants(gen::Rng& rng, std::size_t count,
                                   std::size_t length) {
  constexpr std::uint32_t kCores = 4, kCache = 64, kTau = 8;
  std::vector<Tenant> tenants(count);
  for (std::size_t t = 0; t < count; ++t) {
    Tenant& tenant = tenants[t];
    tenant.params = {kCores, kCache, kTau, wire::StrategyKind::kSharedLru};
    gen::Rng r = rng.fork(t);
    tenant.trace = gen::request_set(r, gen::Pattern::kUniform, kCores,
                                    kCache / kCores, length);
    tenant.pairs = tenant.trace.total_requests();
  }
  return tenants;
}

/// Churn tenants: p in {2, 4, 8} with varying K and tau, all four wire
/// strategies, and per-core page ranges four times the K/p share.
std::vector<Tenant> churn_tenants(gen::Rng& rng, std::size_t count,
                                  std::size_t pairs_per_session) {
  struct Shape {
    std::uint32_t cores, cache, tau;
  };
  static constexpr Shape kShapes[] = {{2, 8, 2},  {2, 12, 6}, {4, 12, 3},
                                      {4, 16, 10}, {8, 16, 4}, {8, 16, 12}};
  static constexpr wire::StrategyKind kKinds[] = {
      wire::StrategyKind::kSharedLru, wire::StrategyKind::kStaticEvenLru,
      wire::StrategyKind::kSharedFifo, wire::StrategyKind::kStaticEvenFifo};
  std::vector<Tenant> tenants(count);
  for (std::size_t t = 0; t < count; ++t) {
    const Shape& shape = kShapes[t % std::size(kShapes)];
    Tenant& tenant = tenants[t];
    tenant.params = {shape.cores, shape.cache, shape.tau,
                     kKinds[(t / std::size(kShapes)) % std::size(kKinds)]};
    tenant.pair_frames = (t / (std::size(kShapes) * std::size(kKinds))) % 2;
    gen::Rng r = rng.fork(t);
    tenant.trace = gen::request_set(r, gen::Pattern::kUniform, shape.cores,
                                    4 * shape.cache / shape.cores,
                                    pairs_per_session / shape.cores);
    tenant.pairs = tenant.trace.total_requests();
  }
  return tenants;
}

/// What every session of one tenant answered.
struct Outcome {
  bool seen = false;
  std::uint64_t sessions = 0;
  std::uint64_t mismatches = 0;  ///< sessions answering unlike the first
  wire::FaultCountsReply faults;
  wire::FaultCurveReply curve;
  wire::PartitionAdviceReply advice;
};

bool same(const Outcome& a, const Outcome& b) {
  return a.faults.finished == b.faults.finished &&
         a.faults.requests_served == b.faults.requests_served &&
         a.faults.per_core_faults == b.faults.per_core_faults &&
         a.faults.completion_times == b.faults.completion_times &&
         a.curve.curves == b.curve.curves &&
         a.advice.cells_per_core == b.advice.cells_per_core &&
         a.advice.predicted_faults == b.advice.predicted_faults;
}

/// Hands out the session indices of one generation.
class SessionClaims {
 public:
  SessionClaims(std::uint64_t begin, std::uint64_t end)
      : next_(begin), end_(end) {}
  std::optional<std::uint64_t> claim() {
    const std::uint64_t index = next_.fetch_add(1, std::memory_order_relaxed);
    if (index >= end_) return std::nullopt;
    return index;
  }

 private:
  std::atomic<std::uint64_t> next_;
  std::uint64_t end_;
};

struct ClientResult {
  std::vector<double> session_ms;
  /// session_ms.size() at the end of each generation.
  std::vector<std::size_t> generation_ends;
  std::vector<double> close_to_reply_ms;
  std::vector<Outcome> outcomes;
  std::uint64_t bytes_sent = 0;
  std::uint64_t pairs = 0;
  std::uint64_t sessions = 0;
  std::uint64_t failed = 0;  ///< sessions answered with an error frame
};

/// One client thread's closed loop.  The client outlives the daemons: it
/// serves each generation's daemon in turn and accumulates its results.
class Client {
 public:
  Client(const std::vector<Tenant>& tenants, const Config& config)
      : tenants_(tenants),
        config_(config),
        mailbox_(std::make_shared<ResponseMailbox>()),
        slots_(config.window) {
    result_.outcomes.resize(tenants.size());
  }

  /// Runs sessions on `daemon` until `claims` runs out.
  void run(Mcpd& daemon, SessionClaims& claims) {
    daemon_ = &daemon;
    claims_ = &claims;
    for (Slot& slot : slots_) start(slot);
    while (std::any_of(slots_.begin(), slots_.end(),
                       [](const Slot& s) { return s.active; })) {
      bool submitted = false;
      for (Slot& slot : slots_) {
        if (slot.active && slot.next_part < config_.parts) {
          submit_part(slot);
          submitted = true;
        }
      }
      if (!submitted) {
        std::vector<std::byte> doc;
        {
          trace::Span span("mcpd.reply_wait");
          doc = mailbox_->wait();
        }
        handle(doc);
      }
      while (std::optional<std::vector<std::byte>> doc = mailbox_->try_pop()) {
        handle(*doc);
      }
    }
  }

  /// Marks the end of a generation's latency samples.
  void end_generation() {
    result_.generation_ends.push_back(result_.session_ms.size());
  }

  [[nodiscard]] ClientResult take() { return std::move(result_); }

 private:
  struct Slot {
    bool active = false;
    std::uint64_t id = 0;
    std::size_t tenant = 0;
    std::size_t next_part = 0;
    std::size_t replies_left = 0;
    bool error = false;
    Clock::time_point start;
    Clock::time_point close_sent;
    std::uint32_t span = trace::kNoSpan;
    Outcome outcome;
  };

  void start(Slot& slot) {
    const std::optional<std::uint64_t> index = claims_->claim();
    slot.active = index.has_value();
    if (!slot.active) return;
    slot.id = *index + 1;  // session id 0 is reserved
    slot.tenant = *index % tenants_.size();
    slot.next_part = 0;
    slot.replies_left = config_.replies;
    slot.error = false;
    slot.outcome = Outcome{};
  }

  /// Encodes and submits the next part of the slot's session.
  void submit_part(Slot& slot) {
    const Tenant& tenant = tenants_[slot.tenant];
    const std::size_t part = slot.next_part++;
    const bool last = slot.next_part == config_.parts;
    if (part == 0) {
      slot.start = Clock::now();
      slot.span = trace::open("client.session", slot.id);
    }
    std::shared_ptr<const std::vector<std::byte>> doc;
    {
      trace::Span span("wire.encode", slot.id, slot.span);
      wire::WireWriter writer;
      if (part == 0) writer.session_open(slot.id, tenant.params);
      encode_requests(tenant, slot.id, part, writer);
      if (last) {
        if (config_.replies == 3) {
          writer.query_fault_curve(slot.id, slot.id * 4 + 1,
                                   tenant.params.cache_size);
          writer.query_partition(slot.id, slot.id * 4 + 2);
        }
        writer.query_faults(slot.id, slot.id * 4);
        writer.session_close(slot.id);
      }
      doc = std::make_shared<const std::vector<std::byte>>(
          std::move(writer).take());
    }
    result_.bytes_sent += doc->size();
    if (last) slot.close_sent = Clock::now();
    trace::Span span("mcpd.submit", slot.id, slot.span);
    daemon_->submit_document(std::move(doc), mailbox_);
  }

  /// The part's slice of every core's sequence: run frames of 1024 pages
  /// per core, or pair frames interleaving the cores 64 requests at a time.
  void encode_requests(const Tenant& tenant, std::uint64_t id,
                       std::size_t part, wire::WireWriter& writer) {
    const RequestSet& trace = tenant.trace;
    const std::size_t cores = trace.num_cores();
    const std::size_t n = trace.sequence(0).size();
    const std::size_t lo = n * part / config_.parts;
    const std::size_t hi = n * (part + 1) / config_.parts;
    if (!tenant.pair_frames) {
      for (std::size_t at = lo; at < hi; at += 1024) {
        const std::size_t len = std::min<std::size_t>(1024, hi - at);
        for (std::uint32_t j = 0; j < cores; ++j) {
          writer.request_run(id, j, trace.sequence(j).pages().subspan(at, len));
        }
      }
      return;
    }
    pairs_.clear();
    for (std::size_t at = lo; at < hi; at += 64) {
      const std::size_t len = std::min<std::size_t>(64, hi - at);
      for (std::uint32_t j = 0; j < cores; ++j) {
        const auto pages = trace.sequence(j).pages().subspan(at, len);
        for (const PageId page : pages) pairs_.push_back({j, page});
      }
    }
    for (std::size_t at = 0; at < pairs_.size(); at += 512) {
      writer.request_chunk(
          id, std::span<const wire::WirePair>(pairs_).subspan(
                  at, std::min<std::size_t>(512, pairs_.size() - at)));
    }
  }

  void handle(const std::vector<std::byte>& doc) {
    wire::FrameView frame;
    Slot* slot = nullptr;
    {
      wire::WireReader reader(doc);
      if (!reader.next(frame)) throw std::runtime_error("empty reply");
      for (Slot& s : slots_) {
        if (s.active && s.id == frame.session) slot = &s;
      }
      if (slot == nullptr) throw std::runtime_error("reply for no session");
      trace::Span span("wire.reply_decode", slot->id, slot->span);
      switch (frame.type) {
        case wire::FrameType::kFaultCounts:
          slot->outcome.faults = wire::decode_fault_counts(frame);
          break;
        case wire::FrameType::kFaultCurve:
          slot->outcome.curve = wire::decode_fault_curve(frame);
          break;
        case wire::FrameType::kPartitionAdvice:
          slot->outcome.advice = wire::decode_partition_advice(frame);
          break;
        default:
          slot->error = true;
          break;
      }
    }
    if (--slot->replies_left > 0) return;
    const Clock::time_point end = Clock::now();
    trace::close(slot->span);
    result_.session_ms.push_back(
        std::chrono::duration<double, std::milli>(end - slot->start).count());
    result_.close_to_reply_ms.push_back(
        std::chrono::duration<double, std::milli>(end - slot->close_sent)
            .count());
    ++result_.sessions;
    if (slot->error) {
      ++result_.failed;
    } else {
      result_.pairs += tenants_[slot->tenant].pairs;
      fold(result_.outcomes[slot->tenant], std::move(slot->outcome));
    }
    start(*slot);
  }

  static void fold(Outcome& into, Outcome&& session) {
    ++into.sessions;
    if (!into.seen) {
      const std::uint64_t sessions = into.sessions;
      into = std::move(session);
      into.seen = true;
      into.sessions = sessions;
    } else if (!same(into, session)) {
      ++into.mismatches;
    }
  }

  const std::vector<Tenant>& tenants_;
  const Config& config_;
  Mcpd* daemon_ = nullptr;
  SessionClaims* claims_ = nullptr;
  std::shared_ptr<ResponseMailbox> mailbox_;
  std::vector<Slot> slots_;
  std::vector<wire::WirePair> pairs_;
  ClientResult result_;
};

void check_fitted(const Tenant& tenant, Outcome& out, Report& report) {
  corruptor().apply("fitted.faults", out.faults.per_core_faults.at(0));
  corruptor().apply("fitted.completion", out.faults.completion_times.at(0));
  corruptor().apply("fitted.served", out.faults.requests_served);
  const std::size_t share = tenant.params.cache_size / tenant.params.num_cores;
  bool faults_ok = out.faults.per_core_faults.size() == tenant.trace.num_cores();
  bool times_ok = faults_ok;
  for (std::uint32_t j = 0; faults_ok && j < tenant.trace.num_cores(); ++j) {
    const auto seq = tenant.trace.sequence(j).pages();
    const ref::CoreRun alone = ref::single_core(
        seq, share, tenant.params.fault_penalty, ref::Policy::kLru);
    faults_ok = faults_ok &&
                out.faults.per_core_faults[j] == ref::cold_misses(seq) &&
                alone.faults == ref::cold_misses(seq);
    times_ok = times_ok && out.faults.completion_times[j] == alone.completion;
  }
  report.check(faults_ok, "fitted: per-core faults equal distinct pages");
  report.check(times_ok, "fitted: completion times equal n + tau*f - 1");
  report.check(out.faults.finished && out.faults.requests_served == tenant.pairs,
               "fitted: requests served equal pairs sent");
}

void check_churn(const Tenant& tenant, Outcome& out, Report& report) {
  corruptor().apply("churn.served", out.faults.requests_served);
  corruptor().apply("churn.curve", out.curve.curves.at(0).at(1));
  corruptor().apply("churn.advice", out.advice.predicted_faults);
  const wire::SessionParams& p = tenant.params;
  const bool even = p.strategy == wire::StrategyKind::kStaticEvenLru ||
                    p.strategy == wire::StrategyKind::kStaticEvenFifo;
  const ref::Policy policy = p.strategy == wire::StrategyKind::kSharedLru ||
                                     p.strategy ==
                                         wire::StrategyKind::kStaticEvenLru
                                 ? ref::Policy::kLru
                                 : ref::Policy::kFifo;
  if (even) {
    corruptor().apply("churn.even_faults", out.faults.per_core_faults.at(0));
  } else {
    corruptor().apply("churn.shared_faults", out.faults.per_core_faults.at(0),
                      Count{tenant.trace.sequence(0).size() + 1});
  }
  report.check(out.faults.finished && out.faults.requests_served == tenant.pairs,
               "churn: requests served equal pairs sent");
  const std::size_t cores = tenant.trace.num_cores();
  std::vector<std::vector<Count>> curves;
  bool faults_ok = out.faults.per_core_faults.size() == cores &&
                   out.faults.completion_times.size() == cores;
  bool curve_ok = out.curve.curves.size() == cores;
  for (std::uint32_t j = 0; j < cores; ++j) {
    const auto seq = tenant.trace.sequence(j).pages();
    curves.push_back(ref::lru_curve(seq, p.cache_size));
    curve_ok = curve_ok && out.curve.curves[j] == curves.back();
    if (!faults_ok) continue;
    if (even) {
      const ref::CoreRun alone = ref::single_core(
          seq, p.cache_size / p.num_cores, p.fault_penalty, policy);
      faults_ok = out.faults.per_core_faults[j] == alone.faults &&
                  out.faults.completion_times[j] == alone.completion;
    } else {
      faults_ok = out.faults.per_core_faults[j] >= ref::cold_misses(seq) &&
                  out.faults.per_core_faults[j] <= seq.size();
    }
  }
  report.check(faults_ok, even ? "churn: even-partition faults and completion "
                                 "times equal the single-core runs at K/p"
                               : "churn: shared faults lie between cold misses "
                                 "and requests");
  report.check(curve_ok, "churn: fault curves equal stack-distance counts");
  const Count best = ref::best_composition(curves, p.cache_size);
  const auto& cells = out.advice.cells_per_core;
  bool advice_ok = cells.size() == cores && out.advice.predicted_faults == best;
  std::size_t total = 0;
  Count attained = 0;
  for (std::size_t j = 0; advice_ok && j < cores; ++j) {
    advice_ok = cells[j] >= 1 && cells[j] <= p.cache_size;
    if (advice_ok) attained += curves[j][cells[j]];
    total += cells[j];
  }
  report.check(advice_ok && total == p.cache_size && attained == best,
               "churn: partition advice is the minimum over all compositions "
               "and attains it");
}

}  // namespace

void run_advisory(const Options& options, bool churn, Report& report) {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t shards = std::clamp<std::size_t>(nproc / 2, 1, 2);
  const std::size_t clients = std::clamp<std::size_t>(nproc - shards, 1, 2);
  Config config;
  config.tenants = churn ? 48 : 64;
  config.parts = churn ? 4 : 1;
  config.replies = churn ? 3 : 1;
  config.window = 8;
  const std::size_t length = options.smoke ? 512 : 4096;
  report.info("threads", std::to_string(shards) + " shards + " +
                             std::to_string(clients) + " clients, window " +
                             std::to_string(config.window) +
                             " sessions per client");

  // Set-up, five times: tenant generation and daemon start.  The last
  // daemon serves the first generation.
  std::vector<double> setups, setups_wall;
  std::vector<Tenant> tenants;
  std::unique_ptr<Mcpd> daemon;
  for (int rep = 0; rep < 5; ++rep) {
    daemon.reset();
    const double cpu0 = thread_cpu_s();
    const Clock::time_point t0 = Clock::now();
    gen::Rng rng(options.seed);
    tenants = churn ? churn_tenants(rng, config.tenants, length)
                    : fitted_tenants(rng, config.tenants, length);
    mcp::service::McpdConfig daemon_config;
    daemon_config.num_shards = shards;
    daemon = std::make_unique<Mcpd>(daemon_config);
    setups_wall.push_back(seconds_since(t0));
    setups.push_back(thread_cpu_s() - cpu0);
  }
  Count round_pairs = 0;
  for (const Tenant& t : tenants) round_pairs += t.pairs;
  report.info("tenants", std::to_string(tenants.size()) + " per round, " +
                             std::to_string(round_pairs) + " pairs per round");

  // Rounds per generation: at least 1024 sessions, so each generation has a
  // p99 latency with ten sessions beyond it.
  const std::uint64_t generation_rounds =
      (1024 + tenants.size() - 1) / tenants.size();
  const double seconds = options.smoke ? std::min(options.seconds, 0.3)
                                       : options.seconds;
  // Client threads persist across generations; two barrier phases bracket
  // each generation's timed region.
  std::vector<ClientResult> results(clients);
  std::vector<std::string> errors(clients);
  mcp::service::ShardStats stats;
  double wall = 0.0;
  std::vector<double> round_s, round_cpu_s;  ///< per generation
  std::uint64_t claimed = 0;
  std::size_t generations = 0;
  std::unique_ptr<SessionClaims> claims;
  bool done = false;  // read by clients only after a barrier phase
  std::barrier gate(static_cast<std::ptrdiff_t>(clients + 1));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      trace::Span span("client.loop", c);
      Client client(tenants, config);
      while (true) {
        gate.arrive_and_wait();
        if (done) break;
        try {
          client.run(*daemon, *claims);
        } catch (const std::exception& e) {
          // Keep meeting the barrier; the run fails its checks below.
          errors[c] = e.what();
        }
        client.end_generation();
        gate.arrive_and_wait();
      }
      results[c] = client.take();
    });
  }
  while (true) {
    const std::uint64_t begin = claimed;
    claimed += generation_rounds * tenants.size();
    claims = std::make_unique<SessionClaims>(begin, claimed);
    // Clients wait at the barrier and shards sleep at both ends, so the
    // process CPU clock is up to date when it is read.
    const double cpu0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    gate.arrive_and_wait();  // clients start
    gate.arrive_and_wait();  // clients finished
    const double generation_wall = seconds_since(t0);
    const double generation_cpu = process_cpu_s() - cpu0;
    wall += generation_wall;
    round_s.push_back(generation_wall / static_cast<double>(generation_rounds));
    round_cpu_s.push_back(generation_cpu /
                          static_cast<double>(generation_rounds));
    ++generations;
    daemon->stop();
    const mcp::service::ShardStats gen_stats = daemon->total_stats();
    stats.frames += gen_stats.frames;
    stats.pairs += gen_stats.pairs;
    stats.epochs += gen_stats.epochs;
    stats.batched_sessions += gen_stats.batched_sessions;
    stats.scalar_sessions += gen_stats.scalar_sessions;
    stats.lane_steps += gen_stats.lane_steps;
    stats.bad_frames += gen_stats.bad_frames;
    stats.busy_ns += gen_stats.busy_ns;
    stats.epoch_latency.merge(gen_stats.epoch_latency);
    daemon.reset();
    if (wall >= seconds) break;
    mcp::service::McpdConfig daemon_config;
    daemon_config.num_shards = shards;
    daemon = std::make_unique<Mcpd>(daemon_config);
  }
  done = true;
  gate.arrive_and_wait();
  for (std::thread& t : threads) t.join();
  const double rss = peak_rss_mb();

  // Merge the clients.
  std::vector<double> close_ms;
  std::vector<Outcome> outcomes(tenants.size());
  std::uint64_t bytes = 0, pairs = 0, sessions = 0, failed = 0;
  for (ClientResult& r : results) {
    close_ms.insert(close_ms.end(), r.close_to_reply_ms.begin(),
                    r.close_to_reply_ms.end());
    bytes += r.bytes_sent;
    pairs += r.pairs;
    sessions += r.sessions;
    failed += r.failed;
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      Outcome& o = r.outcomes[t];
      if (!o.seen) continue;
      if (!outcomes[t].seen) {
        outcomes[t] = std::move(o);
      } else {
        outcomes[t].sessions += o.sessions;
        outcomes[t].mismatches += o.mismatches;
        if (!same(outcomes[t], o)) outcomes[t].mismatches += o.sessions;
      }
    }
  }
  report.attempted = claimed;
  report.failed = failed;
  const double rounds = static_cast<double>(sessions) /
                        static_cast<double>(tenants.size());
  // Latency percentiles per generation; the run reports their medians, so
  // a burst of host noise moves a few generations, not the figure.
  std::vector<double> latency_p50, latency_tail, latency_far_tail;
  for (std::size_t g = 0; g < generations; ++g) {
    std::vector<double> latencies;
    for (const ClientResult& r : results) {
      const std::size_t begin = g == 0 ? 0 : r.generation_ends.at(g - 1);
      latencies.insert(latencies.end(), r.session_ms.begin() + begin,
                       r.session_ms.begin() + r.generation_ends.at(g));
    }
    latency_p50.push_back(median(latencies));
    latency_tail.push_back(percentile(latencies, kTailPercentile));
    latency_far_tail.push_back(percentile(latencies, kFarTailPercentile));
  }

  // Simulated results, identical on every run of one seed.
  Count fault_sum = 0, completion_sum = 0, curve_sum = 0, advice_sum = 0;
  for (const Outcome& out : outcomes) {
    for (const Count f : out.faults.per_core_faults) fault_sum += f;
    for (const mcp::Time t : out.faults.completion_times) completion_sum += t;
    for (const auto& curve : out.curve.curves) {
      for (const Count f : curve) curve_sum += f;
    }
    advice_sum += out.advice.predicted_faults;
  }
  report.info("outcome checksum",
              "faults " + std::to_string(fault_sum) + ", completion times " +
                  std::to_string(completion_sum) + ", curves " +
                  std::to_string(curve_sum) + ", advice " +
                  std::to_string(advice_sum));

  // Checks, outside the timed region.
  for (const std::string& error : errors) {
    report.check(error.empty(), "client failed: " + error);
  }
  report.check(sessions == claimed &&
                   sessions % tenants.size() == 0 && sessions > 0,
               "whole rounds of sessions completed");
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    Outcome& out = outcomes[t];
    report.check(out.seen && out.mismatches == 0,
                 "every session of a tenant answers identically");
    if (!out.seen) continue;
    if (churn) {
      check_churn(tenants[t], out, report);
    } else {
      check_fitted(tenants[t], out, report);
    }
  }

  report.info("sessions", std::to_string(sessions) + " in " +
                              std::to_string(wall) + " s (" +
                              std::to_string(rounds) + " rounds, " +
                              std::to_string(generations) + " generations)");
  report.info("op_tail", "median over generations of the p90 of " +
                             std::to_string(generation_rounds * tenants.size()) +
                             " session latencies");
  report.e2e("setup_s", median(setups));
  report.e2e("peak_rss_mb", rss);
  report.e2e("round_cpu_s", median(round_cpu_s));
  report.layer("setup_wall_s", median(setups_wall));
  report.layer("round_s", median(round_s));
  report.layer("op_p50_ms", median(latency_p50));
  report.layer("op_tail_ms", median(latency_tail));
  report.layer("pairs_per_s", static_cast<double>(pairs) / wall);
  report.layer("session_p50_ms", median(latency_p50));
  report.layer("session_tail_ms", median(latency_far_tail));

  report.layer("wire.bytes_sent", static_cast<double>(bytes));
  report.layer("mcpd.close_to_reply_ms", median(close_ms));
  report.layer("mcpd.shard_busy_ms", static_cast<double>(stats.busy_ns) * 1e-6);
  report.layer("mcpd.shard_util", static_cast<double>(stats.busy_ns) * 1e-9 /
                                      (wall * static_cast<double>(shards)));
  report.layer("mcpd.epochs", static_cast<double>(stats.epochs));
  report.layer("mcpd.epoch_p50_us",
               static_cast<double>(stats.epoch_latency.p50()) * 1e-3);
  report.layer("mcpd.epoch_p99_us",
               static_cast<double>(stats.epoch_latency.p99()) * 1e-3);
  report.layer("mcpd.batched_sessions",
               static_cast<double>(stats.batched_sessions));
  report.layer("mcpd.scalar_sessions",
               static_cast<double>(stats.scalar_sessions));
  report.layer("mcpd.lane_steps", static_cast<double>(stats.lane_steps));
  report.layer("mcpd.pairs_per_lane_step",
               stats.lane_steps == 0 ? 0.0
                                     : static_cast<double>(stats.pairs) /
                                           static_cast<double>(stats.lane_steps));
  report.check(stats.bad_frames == 0, "daemon dropped no frame");
  if (trace::enabled()) {
    report.layer("wire.encode_ms", trace::total_ms("wire.encode"));
    report.layer("wire.reply_decode_ms", trace::total_ms("wire.reply_decode"));
    report.layer("mcpd.submit_ms", trace::total_ms("mcpd.submit"));
    report.layer("mcpd.reply_wait_ms", trace::total_ms("mcpd.reply_wait"));
  }
}

}  // namespace perfbench
