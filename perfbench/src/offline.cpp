// offline: the FTF and PIF solvers at default options, in four solve sets
// run back to back as one pass.
//
// Instance shapes come from fixed base draws; --seed renames every page
// (gen::relabel).  A state space's size swings by 2x
// between random draws of one shape, so drawing the shapes from the seed
// would make the amount of work, not the speed, vary between seeds.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/thread_pool.hpp"
#include "gen.hpp"
#include "offline/ftf_solver.hpp"
#include "offline/pif_solver.hpp"
#include "offline/replay.hpp"
#include "reference.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using mcp::Count;
using mcp::OfflineInstance;
using mcp::PifInstance;
using mcp::Time;

/// Solve-time percentiles are taken per pass (50 solves: p80 is the highest
/// with ten solves beyond it) and reported as the median over passes.
constexpr double kTailPercentile = 80.0;

struct Shape {
  std::size_t cores, pages_per_core, length, cache;
  Time tau;
  std::uint64_t base_seed;
};

OfflineInstance make_instance(const Shape& shape, std::uint64_t seed) {
  gen::Rng base(0x0FF10000ULL + shape.base_seed);
  const mcp::RequestSet drawn =
      gen::request_set(base, gen::Pattern::kUniform, shape.cores,
                       shape.pages_per_core, shape.length);
  gen::Rng names(seed);
  gen::Rng rename = names.fork(shape.base_seed);
  OfflineInstance instance;
  instance.requests = gen::relabel(drawn, rename, shape.pages_per_core);
  instance.cache_size = shape.cache;
  instance.tau = shape.tau;
  return instance;
}

struct PifCase {
  PifInstance instance;
  bool expect_feasible = false;
};

/// PIF queries on `base`: bounds the even partition meets by half its
/// makespan (feasible), and bounds summing to one below the FTF optimum
/// with a deadline past every core's latest possible completion
/// (infeasible).
void add_pif_cases(const OfflineInstance& base, std::vector<PifCase>& out) {
  const std::size_t p = base.requests.num_cores();
  std::vector<ref::CoreRun> runs;
  Time makespan = 0, latest = 0;
  for (std::uint32_t j = 0; j < p; ++j) {
    const auto seq = base.requests.sequence(j).pages();
    runs.push_back(ref::single_core(seq, base.cache_size / p, base.tau,
                                    ref::Policy::kLru));
    makespan = std::max(makespan, runs.back().completion);
    latest = std::max<Time>(latest, seq.size() * (base.tau + 1));
  }
  PifCase feasible;
  feasible.instance.base = base;
  feasible.instance.deadline = makespan / 2;
  for (const ref::CoreRun& run : runs) {
    feasible.instance.bounds.push_back(static_cast<Count>(std::count_if(
        run.fault_issue_times.begin(), run.fault_issue_times.end(),
        [&](Time t) { return t < feasible.instance.deadline; })));
  }
  feasible.expect_feasible = true;
  out.push_back(std::move(feasible));

  mcp::FtfOptions serial;
  serial.workers = 1;
  const Count optimum = mcp::solve_ftf(base, serial).min_faults;
  PifCase infeasible;
  infeasible.instance.base = base;
  infeasible.instance.deadline = latest;
  for (std::size_t j = 0; j < p; ++j) {
    infeasible.instance.bounds.push_back((optimum - 1) / p +
                                         (j < (optimum - 1) % p ? 1 : 0));
  }
  out.push_back(std::move(infeasible));
}

struct Inputs {
  std::vector<OfflineInstance> small, large;
  std::vector<PifCase> pif;
};

Inputs make_inputs(const Options& options) {
  Inputs in;
  const bool smoke = options.smoke;
  // Small: 2 cores, 10^4..10^5 states each.  Large: 3 cores, 2x10^6 to
  // 3x10^6 states each, past the size where the default parallel expansion
  // stops losing to the serial one.
  const std::size_t small_count = smoke ? 4 : 40;
  for (std::size_t i = 0; i < small_count; ++i) {
    const std::size_t length = smoke ? 16 : 24 + 6 * (i % 4);
    in.small.push_back(make_instance({2, 5, length, 4, 2, 100 + i}, options.seed));
  }
  const std::vector<Shape> large =
      smoke ? std::vector<Shape>{{3, 5, 14, 3, 2, 4}}
            : std::vector<Shape>{{3, 6, 24, 6, 2, 4}, {3, 6, 24, 6, 2, 5}};
  for (const Shape& shape : large) {
    in.large.push_back(make_instance(shape, options.seed));
  }
  const std::vector<Shape> pif =
      smoke ? std::vector<Shape>{{2, 5, 16, 4, 2, 200}, {3, 4, 10, 3, 1, 300}}
            : std::vector<Shape>{{2, 5, 30, 4, 2, 200},
                                 {2, 5, 36, 4, 2, 201},
                                 {3, 4, 16, 3, 1, 300},
                                 {3, 4, 16, 6, 1, 301}};
  for (const Shape& shape : pif) {
    add_pif_cases(make_instance(shape, options.seed), in.pif);
  }
  return in;
}

/// One FTF solve: its result and wall time.
struct Solve {
  mcp::FtfResult result;
  double seconds = 0.0;
};

struct SetTotals {
  double states_stored = 0, states_expanded = 0;
  double expand_wall_ms = 0, expand_busy_ms = 0, serial_ms = 0;
  double peak_ram_mb = 0;
};

SetTotals totals(const std::vector<Solve>& solves) {
  SetTotals t;
  for (const Solve& s : solves) {
    t.states_stored += static_cast<double>(s.result.states_stored);
    t.states_expanded += static_cast<double>(s.result.states_expanded);
    const double wall_ms = static_cast<double>(s.result.expand_wall_ns) * 1e-6;
    t.expand_wall_ms += wall_ms;
    t.expand_busy_ms += static_cast<double>(s.result.expand_busy_ns) * 1e-6;
    t.serial_ms += s.seconds * 1e3 - wall_ms;
    t.peak_ram_mb = std::max(
        t.peak_ram_mb, static_cast<double>(s.result.peak_bytes_in_ram) / 1048576.0);
  }
  return t;
}

struct Pass {
  std::vector<Solve> small, large;
  Solve spill;
  std::uintmax_t checkpoint_bytes = 0;
  std::vector<mcp::PifResult> pif;
  std::vector<double> op_ms;  ///< every solve's wall time
  double small_s = 0, large_s = 0, spill_s = 0, pif_s = 0, total_s = 0;
  double total_cpu_s = 0;
};

class Runner {
 public:
  Runner(const Inputs& inputs, std::string scratch, std::uint64_t& failed)
      : in_(inputs), scratch_(std::move(scratch)), failed_(failed) {}

  Pass pass() {
    Pass pass;
    op_ms_ = &pass.op_ms;
    trace::Span span("offline.pass");
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < in_.small.size(); ++i) {
      pass.small.push_back(solve("ftf.small.solve", in_.small[i], i, {}));
    }
    const Clock::time_point t1 = Clock::now();
    for (std::size_t i = 0; i < in_.large.size(); ++i) {
      pass.large.push_back(solve("ftf.large.solve", in_.large[i], i, {}));
    }
    const Clock::time_point t2 = Clock::now();
    // The first large instance again, with a quarter of its arena in RAM
    // and checkpoints every 16 buckets.
    mcp::FtfOptions spill;
    spill.storage.ram_bytes = pass.large[0].result.arena_bytes / 4;
    spill.storage.segment_bytes = std::clamp<std::size_t>(
        spill.storage.ram_bytes / 4, 256, std::size_t{1} << 20);
    spill.storage.dir = scratch_;
    spill.checkpoint.path = scratch_ + "/ftf.ckpt";
    spill.checkpoint.every = 16;
    std::filesystem::remove(spill.checkpoint.path);
    pass.spill = solve("ftf.spill.solve", in_.large[0], 0, spill);
    std::error_code ec;
    pass.checkpoint_bytes =
        std::filesystem::file_size(spill.checkpoint.path, ec);
    if (ec) pass.checkpoint_bytes = 0;
    std::filesystem::remove(spill.checkpoint.path);
    const Clock::time_point t3 = Clock::now();
    for (std::size_t i = 0; i < in_.pif.size(); ++i) {
      trace::Span solve_span("pif.solve", i);
      mcp::PifOptions options;
      options.build_schedule = true;
      const Clock::time_point s0 = Clock::now();
      try {
        pass.pif.push_back(mcp::solve_pif(in_.pif[i].instance, options));
      } catch (const std::exception& e) {
        std::printf("PIF solve failed: %s\n", e.what());
        pass.pif.emplace_back();
        ++failed_;
      }
      op_ms_->push_back(seconds_since(s0) * 1e3);
    }
    const Clock::time_point t4 = Clock::now();
    const auto secs = [](Clock::time_point a, Clock::time_point b) {
      return std::chrono::duration<double>(b - a).count();
    };
    pass.small_s = secs(t0, t1);
    pass.large_s = secs(t1, t2);
    pass.spill_s = secs(t2, t3);
    pass.pif_s = secs(t3, t4);
    pass.total_s = secs(t0, t4);
    return pass;
  }

 private:
  Solve solve(const char* span_name, const OfflineInstance& instance,
              std::size_t id, mcp::FtfOptions options) {
    trace::Span span(span_name, id);
    options.build_schedule = true;
    Solve s;
    const Clock::time_point t0 = Clock::now();
    try {
      s.result = mcp::solve_ftf(instance, options);
    } catch (const std::exception& e) {
      std::printf("solve failed: %s\n", e.what());
      ++failed_;
    }
    s.seconds = seconds_since(t0);
    op_ms_->push_back(s.seconds * 1e3);
    return s;
  }

  const Inputs& in_;
  std::string scratch_;
  std::vector<double>* op_ms_ = nullptr;
  std::uint64_t& failed_;
};

bool same_solve(const Solve& a, const Solve& b) {
  return a.result.min_faults == b.result.min_faults &&
         a.result.schedule == b.result.schedule;
}

void check_ftf(const OfflineInstance& instance, Solve solve,
               const std::string& what, Report& report) {
  corruptor().apply("offline.ftf_bounds", solve.result.min_faults);
  const std::size_t p = instance.requests.num_cores();
  Count cold = 0, even = 0;
  for (std::uint32_t j = 0; j < p; ++j) {
    const auto seq = instance.requests.sequence(j).pages();
    cold += ref::cold_misses(seq);
    even += ref::single_core(seq, instance.cache_size / p, instance.tau,
                             ref::Policy::kLru)
                .faults;
  }
  const Count opt = solve.result.min_faults;
  report.check(cold <= opt && opt <= even,
               what + ": FTF optimum lies between cold misses and the "
                      "even-partition LRU count");
  Count replayed = opt + 1;
  try {
    replayed = mcp::replay_schedule(instance, solve.result.schedule)
                   .total_faults();
  } catch (const std::exception&) {
  }
  corruptor().apply("offline.replay", replayed);
  report.check(replayed == opt,
               what + ": replaying the FTF schedule gives the optimum");
}

}  // namespace

void run_offline(const Options& options, Report& report) {
  std::vector<double> setups, setups_wall;
  Inputs inputs;
  for (int rep = 0; rep < 5; ++rep) {
    const double cpu0 = thread_cpu_s();
    const Clock::time_point t0 = Clock::now();
    inputs = make_inputs(options);
    (void)mcp::ThreadPool::global();
    setups_wall.push_back(seconds_since(t0));
    setups.push_back(thread_cpu_s() - cpu0);
  }
  const std::size_t workers = mcp::ThreadPool::global().num_workers();
  report.info("threads", std::to_string(workers) +
                             " pool workers (library default) + caller");
  report.info("solve sets",
              std::to_string(inputs.small.size()) + " small FTF, " +
                  std::to_string(inputs.large.size()) + " large FTF, 1 spill, " +
                  std::to_string(inputs.pif.size()) + " PIF per pass");

  std::uint64_t failed = 0;
  const std::string scratch = options.scratch + "/offline-spill";
  std::filesystem::create_directories(scratch);
  Runner runner(inputs, scratch, failed);
  // A pass takes about 8 s on a quiet 4-CPU host, so --seconds / 8 passes
  // (at least 2) fill a run and every commit does the same work.  On a
  // slowed host the run stops after two passes once --seconds have passed,
  // which keeps its length bounded.
  const std::size_t pass_target =
      options.smoke ? 1
                    : std::max<std::size_t>(
                          2, static_cast<std::size_t>(options.seconds / 8.0));
  const Clock::time_point start = Clock::now();
  std::vector<Pass> passes;
  while (passes.size() < pass_target &&
         !(passes.size() >= 2 && seconds_since(start) >= options.seconds)) {
    // Pool workers are idle between passes, so the CPU clock is current.
    const double cpu0 = process_cpu_s();
    passes.push_back(runner.pass());
    passes.back().total_cpu_s = process_cpu_s() - cpu0;
  }
  const double rss = peak_rss_mb();
  std::filesystem::remove_all(scratch);
  const std::size_t per_pass = inputs.small.size() + inputs.large.size() + 1 +
                               inputs.pif.size();
  report.attempted = per_pass * passes.size();
  report.failed = failed;

  // Checks, outside the timed region.  Every pass must repeat the first.
  const Pass& first = passes.front();
  Count optima = 0;
  for (const auto* set : {&first.small, &first.large}) {
    for (const Solve& solve : *set) optima += solve.result.min_faults;
  }
  std::string answers;
  for (const mcp::PifResult& r : first.pif) answers += r.feasible ? '1' : '0';
  report.info("outcome checksum",
              "FTF optima " + std::to_string(optima) + ", spill optimum " +
                  std::to_string(first.spill.result.min_faults) +
                  ", PIF answers " + answers);
  bool repeat = true;
  for (const Pass& pass : passes) {
    for (std::size_t i = 0; i < pass.small.size(); ++i) {
      repeat = repeat && same_solve(pass.small[i], first.small[i]);
    }
    for (std::size_t i = 0; i < pass.large.size(); ++i) {
      repeat = repeat && same_solve(pass.large[i], first.large[i]);
    }
    for (std::size_t i = 0; i < pass.pif.size(); ++i) {
      repeat = repeat && pass.pif[i].feasible == first.pif[i].feasible;
    }
  }
  report.check(repeat, "every pass repeats the first pass's results");
  for (std::size_t i = 0; i < inputs.small.size(); ++i) {
    check_ftf(inputs.small[i], first.small[i], "small #" + std::to_string(i),
              report);
  }
  for (std::size_t i = 0; i < inputs.large.size(); ++i) {
    check_ftf(inputs.large[i], first.large[i], "large #" + std::to_string(i),
              report);
  }
  Solve spilled = first.spill;
  corruptor().apply("offline.spill", spilled.result.min_faults);
  report.check(same_solve(spilled, first.large[0]),
               "spill-and-checkpoint solve equals the in-RAM solve");
  report.check(first.spill.result.bytes_spilled > 0,
               "the spill solve spilled");
  for (std::size_t i = 0; i < inputs.pif.size(); ++i) {
    const PifCase& c = inputs.pif[i];
    bool feasible = first.pif[i].feasible;
    if (c.expect_feasible) {
      corruptor().apply("offline.pif_feasible", feasible);
      report.check(feasible && mcp::verify_pif_witness(
                                   c.instance, first.pif[i].schedule),
                   "PIF #" + std::to_string(i) +
                       ": even-partition bounds are feasible with a valid "
                       "witness");
    } else {
      corruptor().apply("offline.pif_infeasible", feasible);
      report.check(!feasible, "PIF #" + std::to_string(i) +
                                  ": bounds below the FTF optimum are "
                                  "infeasible");
    }
  }

  std::vector<double> small_s, large_s, spill_s, pif_s, total_s, total_cpu_s,
      op_p50, op_tail;
  for (const Pass& pass : passes) {
    op_p50.push_back(median(pass.op_ms));
    op_tail.push_back(percentile(pass.op_ms, kTailPercentile));
    small_s.push_back(pass.small_s);
    large_s.push_back(pass.large_s);
    spill_s.push_back(pass.spill_s);
    pif_s.push_back(pass.pif_s);
    total_s.push_back(pass.total_s);
    total_cpu_s.push_back(pass.total_cpu_s);
  }
  report.info("passes", std::to_string(passes.size()));
  report.info("op_tail", "median over passes of the p80 of " +
                             std::to_string(passes.front().op_ms.size()) +
                             " solve times");
  report.e2e("setup_s", median(setups));
  report.e2e("peak_rss_mb", rss);
  report.e2e("round_cpu_s", median(total_cpu_s));
  report.layer("setup_wall_s", median(setups_wall));
  report.layer("round_s", median(total_s));
  report.layer("op_p50_ms", median(op_p50));
  report.layer("op_tail_ms", median(op_tail));
  report.layer("ftf_small_s", median(small_s));
  report.layer("ftf_large_s", median(large_s));
  report.layer("ftf_spill_s", median(spill_s));
  report.layer("pif_s", median(pif_s));

  // Solver counters of the median pass (by total time).
  const auto by_total = [&] {
    std::vector<std::size_t> order(passes.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return passes[a].total_s < passes[b].total_s;
    });
    return order[(order.size() - 1) / 2];
  }();
  const Pass& mid = passes[by_total];
  for (const auto& [name, solves] :
       {std::pair<std::string, const std::vector<Solve>*>{"small", &mid.small},
        {"large", &mid.large}}) {
    const SetTotals t = totals(*solves);
    const std::string prefix = "ftf." + name + ".";
    report.layer(prefix + "states_stored", t.states_stored);
    report.layer(prefix + "states_expanded", t.states_expanded);
    report.layer(prefix + "expand_wall_ms", t.expand_wall_ms);
    report.layer(prefix + "expand_busy_ms", t.expand_busy_ms);
    report.layer(prefix + "serial_ms", t.serial_ms);
    report.layer(prefix + "expand_efficiency",
                 t.expand_wall_ms <= 0
                     ? 0.0
                     : t.expand_busy_ms /
                           (t.expand_wall_ms * static_cast<double>(workers)));
    report.layer(prefix + "peak_ram_mb", t.peak_ram_mb);
  }
  report.layer("spill.bytes_spilled",
               static_cast<double>(mid.spill.result.bytes_spilled));
  report.layer("spill.checkpoint_bytes",
               static_cast<double>(mid.checkpoint_bytes));
  double pif_expanded = 0, pif_width = 0, pif_ram = 0;
  for (const mcp::PifResult& r : mid.pif) {
    pif_expanded += static_cast<double>(r.states_expanded);
    pif_width = std::max(pif_width, static_cast<double>(r.peak_layer_width));
    pif_ram = std::max(pif_ram,
                       static_cast<double>(r.peak_bytes_in_ram) / 1048576.0);
  }
  report.layer("pif.states_expanded", pif_expanded);
  report.layer("pif.peak_layer_width", pif_width);
  report.layer("pif.peak_ram_mb", pif_ram);
}

}  // namespace perfbench
