// sweep: a lab-style grid over traces whose per-core footprints sit below,
// near and above the per-core cache share, in three parts per pass:
//   1. every static partition of K over p through SweepRunner::run_jobs
//      (the batch engine);
//   2. the shared policies the batch engine does not cover (CLOCK, LFU,
//      MARK, LRU-scan) and the Lemma-3 dynamic partition through
//      SweepRunner::run over simulate();
//   3. the partition searches from LRU and Belady fault curves.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/batch_state.hpp"
#include "core/simulator.hpp"
#include "core/sweep.hpp"
#include "gen.hpp"
#include "policies/policy_registry.hpp"
#include "reference.hpp"
#include "strategies/dynamic_partition.hpp"
#include "strategies/partition_search.hpp"
#include "strategies/shared.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using mcp::Count;
using mcp::RequestSet;
using mcp::RunStats;

/// Cell-time percentiles are taken per pass (240 scalar cells: p95 is the
/// highest with ten cells beyond it) and reported as the median over passes.
constexpr double kTailPercentile = 95.0;
constexpr std::size_t kCache = 16;
constexpr mcp::Time kTau = 4;
/// Part 2's strategies: the shared policies by registry name, then the
/// Lemma-3 dynamic partition.
const char* const kScalarPolicies[] = {"clock", "lfu", "mark", "lru-scan"};
constexpr std::size_t kScalarStrategies = std::size(kScalarPolicies) + 1;
constexpr mcp::Time kScalarTaus[] = {1, 8};

struct Trace {
  RequestSet requests;
  std::size_t pages_per_core = 0;
};

/// Patterns x footprints (half, equal to and three times the K/p share)
/// x p in {2, 4}; 8192 requests per trace.
std::vector<Trace> make_traces(std::uint64_t seed, bool smoke) {
  static constexpr gen::Pattern kPatterns[] = {
      gen::Pattern::kLoop, gen::Pattern::kWorkingSet, gen::Pattern::kZipf,
      gen::Pattern::kScan};
  gen::Rng rng(seed);
  std::vector<Trace> traces;
  for (const std::size_t cores : {std::size_t{2}, std::size_t{4}}) {
    const std::size_t share = kCache / cores;
    for (const gen::Pattern pattern : kPatterns) {
      for (const std::size_t pages : {share / 2, share, 3 * share}) {
        Trace t;
        t.pages_per_core = pages;
        gen::Rng r = rng.fork(traces.size());
        t.requests = gen::request_set(r, pattern, cores, pages,
                                      (smoke ? 1024 : 8192) / cores);
        traces.push_back(std::move(t));
      }
      if (smoke) break;
    }
  }
  return traces;
}

struct Grid {
  std::vector<mcp::SimJob> jobs;
  std::vector<std::size_t> job_trace;  ///< trace index of each job
};

Grid make_grid(const std::vector<Trace>& traces) {
  Grid grid;
  for (std::size_t t = 0; t < traces.size(); ++t) {
    const RequestSet& requests = traces[t].requests;
    mcp::SimConfig config;
    config.cache_size = kCache;
    config.fault_penalty = kTau;
    config.record_fault_timeline = false;
    ref::for_each_composition(
        kCache, requests.num_cores(),
        [&](const std::vector<std::size_t>& parts) {
          grid.jobs.push_back(
              {config, &requests,
               mcp::BatchStrategySpec::static_partition(
                   parts, mcp::BatchPolicy::kLru)});
          grid.job_trace.push_back(t);
        });
  }
  return grid;
}

struct Search {
  mcp::FaultCurves lru, belady;
  mcp::PartitionSearchResult lru_best, opt_best;
};

struct Pass {
  std::vector<RunStats> batch;
  std::vector<RunStats> scalar;
  std::vector<Search> search;
  std::vector<double> cell_ms;  ///< every scalar cell's wall time
  double batch_s = 0, scalar_s = 0, lru_s = 0, belady_s = 0, dp_s = 0,
         total_s = 0, cell_busy_s = 0;
};

std::unique_ptr<mcp::CacheStrategy> scalar_strategy(std::size_t index) {
  if (index < std::size(kScalarPolicies)) {
    return std::make_unique<mcp::SharedStrategy>(
        mcp::make_policy_factory(kScalarPolicies[index]));
  }
  return std::make_unique<mcp::Lemma3DynamicPartition>();
}

Pass run_pass(const std::vector<Trace>& traces, const Grid& grid) {
  Pass pass;
  trace::Span pass_span("sweep.pass");
  const Clock::time_point t0 = Clock::now();
  mcp::SweepRunner runner;
  {
    trace::Span span("sweep.batch");
    const Clock::time_point s = Clock::now();
    pass.batch = runner.run_jobs(grid.jobs);
    pass.batch_s = seconds_since(s);
  }
  {
    trace::Span span("sweep.scalar");
    const std::uint32_t parent = span.index();
    const std::size_t per_trace = kScalarStrategies * std::size(kScalarTaus);
    std::vector<double> times(traces.size() * per_trace);
    const Clock::time_point s = Clock::now();
    pass.scalar = runner.run(times.size(), [&](std::size_t i, mcp::Rng&) {
      trace::Span cell("sim.cell", i, parent);
      const Clock::time_point c0 = Clock::now();
      mcp::SimConfig config;
      config.cache_size = kCache;
      config.fault_penalty = kScalarTaus[i % std::size(kScalarTaus)];
      config.record_fault_timeline = false;
      const auto strategy =
          scalar_strategy((i / std::size(kScalarTaus)) % kScalarStrategies);
      RunStats stats =
          mcp::simulate(config, traces[i / per_trace].requests, *strategy);
      times[i] = seconds_since(c0);
      return stats;
    });
    pass.scalar_s = seconds_since(s);
    for (const double t : times) {
      pass.cell_ms.push_back(t * 1e3);
      pass.cell_busy_s += t;
    }
  }
  const mcp::PolicyFactory lru = mcp::make_policy_factory("lru");
  for (std::size_t t = 0; t < traces.size(); ++t) {
    Search search;
    const RequestSet& requests = traces[t].requests;
    Clock::time_point s = Clock::now();
    {
      trace::Span span("search.lru_curves", t);
      search.lru = mcp::policy_fault_curves(requests, kCache, lru);
    }
    pass.lru_s += seconds_since(s);
    s = Clock::now();
    {
      trace::Span span("search.belady_curves", t);
      search.belady = mcp::belady_fault_curves(requests, kCache);
    }
    pass.belady_s += seconds_since(s);
    s = Clock::now();
    {
      trace::Span span("search.dp", t);
      search.lru_best = mcp::optimal_partition_from_curves(search.lru, kCache);
      search.opt_best =
          mcp::optimal_partition_from_curves(search.belady, kCache);
    }
    pass.dp_s += seconds_since(s);
    pass.search.push_back(std::move(search));
  }
  pass.total_s = seconds_since(t0);
  return pass;
}

bool same_stats(const RunStats& a, const RunStats& b) {
  if (a.num_cores() != b.num_cores() || a.sim_steps != b.sim_steps ||
      a.end_time != b.end_time) {
    return false;
  }
  for (std::uint32_t j = 0; j < a.num_cores(); ++j) {
    if (a.core(j).faults != b.core(j).faults ||
        a.core(j).completion_time != b.core(j).completion_time) {
      return false;
    }
  }
  return true;
}

bool same_results(const Pass& a, const Pass& b) {
  if (a.batch.size() != b.batch.size() || a.scalar.size() != b.scalar.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.batch.size(); ++i) {
    if (!same_stats(a.batch[i], b.batch[i])) return false;
  }
  for (std::size_t i = 0; i < a.scalar.size(); ++i) {
    if (!same_stats(a.scalar[i], b.scalar[i])) return false;
  }
  for (std::size_t t = 0; t < a.search.size(); ++t) {
    if (a.search[t].lru != b.search[t].lru ||
        a.search[t].belady != b.search[t].belady ||
        a.search[t].lru_best.faults != b.search[t].lru_best.faults ||
        a.search[t].opt_best.faults != b.search[t].opt_best.faults) {
      return false;
    }
  }
  return true;
}

void check(const std::vector<Trace>& traces, const Grid& grid, Pass& pass,
           Report& report) {
  // Reference per-core LRU curves and cold misses per trace.
  std::vector<std::vector<std::vector<Count>>> curves(traces.size());
  std::vector<Count> cold(traces.size(), 0);
  for (std::size_t t = 0; t < traces.size(); ++t) {
    for (const mcp::RequestSequence& seq : traces[t].requests) {
      curves[t].push_back(ref::lru_curve(seq.pages(), kCache));
      cold[t] += ref::cold_misses(seq.pages());
    }
  }
  corruptor().apply("sweep.batch_cell", pass.batch.at(0).core(0).faults);
  std::vector<Count> grid_min(traces.size(), UINT64_MAX);
  bool cells_ok = pass.batch.size() == grid.jobs.size();
  for (std::size_t i = 0; cells_ok && i < grid.jobs.size(); ++i) {
    const std::size_t t = grid.job_trace[i];
    const auto& parts = grid.jobs[i].strategy.partition;
    Count expect = 0;
    for (std::size_t j = 0; j < parts.size(); ++j) {
      expect += curves[t][j][parts[j]];
    }
    cells_ok = pass.batch[i].total_faults() == expect;
    grid_min[t] = std::min(grid_min[t], pass.batch[i].total_faults());
  }
  report.check(cells_ok, "every run_jobs cell equals the sum of per-core "
                         "single-core LRU counts");
  corruptor().apply("sweep.lru_search", pass.search.at(0).lru_best.faults);
  corruptor().apply("sweep.belady_curve", pass.search.at(0).belady.at(0).at(1));
  if (corruptor().targets("sweep.opt_vs_lru")) {
    pass.search.at(0).opt_best.faults = pass.search.at(0).lru_best.faults + 1;
  }
  bool search_ok = true, belady_ok = true, opt_ok = true;
  for (std::size_t t = 0; t < traces.size(); ++t) {
    const Search& s = pass.search[t];
    search_ok = search_ok && s.lru_best.faults == grid_min[t];
    for (std::size_t j = 0; j < s.belady.size(); ++j) {
      for (std::size_t k = 0; k < s.belady[j].size(); ++k) {
        belady_ok = belady_ok && s.belady[j][k] <= curves[t][j][k] &&
                    (k == 0 || s.belady[j][k] <= s.belady[j][k - 1]);
      }
    }
    opt_ok = opt_ok && s.opt_best.faults <= s.lru_best.faults;
  }
  report.check(search_ok, "the LRU partition search equals the grid minimum");
  report.check(belady_ok, "Belady curves are non-increasing and never above "
                          "the LRU curve");
  report.check(opt_ok, "sP^OPT_OPT faults are at most sP^OPT_LRU faults");
  corruptor().apply("sweep.scalar_cell", pass.scalar.at(0).core(0).faults);
  const std::size_t per_trace = kScalarStrategies * std::size(kScalarTaus);
  bool scalar_ok = true;
  for (std::size_t i = 0; i < pass.scalar.size(); ++i) {
    const std::size_t t = i / per_trace;
    const Count faults = pass.scalar[i].total_faults();
    const bool fits =
        traces[t].pages_per_core * traces[t].requests.num_cores() <= kCache;
    scalar_ok = scalar_ok && faults >= cold[t] &&
                faults <= traces[t].requests.total_requests() &&
                (!fits || faults == cold[t]);
  }
  report.check(scalar_ok, "scalar cells lie between cold misses and requests, "
                          "and equal the cold misses when the footprint fits K");
}

}  // namespace

void run_sweep(const Options& options, Report& report) {
  std::vector<double> setups, setups_wall;
  std::vector<Trace> traces;
  Grid grid;
  for (int rep = 0; rep < 5; ++rep) {
    const double cpu0 = thread_cpu_s();
    const Clock::time_point t0 = Clock::now();
    traces = make_traces(options.seed, options.smoke);
    grid = make_grid(traces);
    (void)mcp::ThreadPool::global();
    setups_wall.push_back(seconds_since(t0));
    setups.push_back(thread_cpu_s() - cpu0);
  }
  const std::size_t workers = mcp::ThreadPool::global().num_workers();
  const std::size_t runners = workers + 1;
  report.info("threads", std::to_string(workers) +
                             " pool workers (library default) + caller");
  const std::size_t scalar_cells =
      traces.size() * kScalarStrategies * std::size(kScalarTaus);
  report.info("grid", std::to_string(traces.size()) + " traces, " +
                          std::to_string(grid.jobs.size()) + " batch cells, " +
                          std::to_string(scalar_cells) + " scalar cells, " +
                          std::to_string(3 * traces.size()) +
                          " searches per pass");

  // Passes repeat while another median pass fits in --seconds (at least
  // three, so per-pass figures have a median).  Only the first pass's
  // results are kept; later passes are compared with it and dropped, so
  // memory does not grow with the number of passes.
  const Clock::time_point start = Clock::now();
  Pass first;
  bool repeat = true;
  std::size_t pass_count = 0;
  std::vector<double> total_s, total_cpu_s, batch_s, scalar_s, lru_s,
      belady_s, dp_s, util, op_p50, op_tail;
  const std::size_t min_passes = options.smoke ? 1 : 3;
  while (total_s.size() < min_passes ||
         (!options.smoke &&
          seconds_since(start) + median(total_s) <= options.seconds)) {
    // Pool workers are idle between passes, so the CPU clock is current.
    const double cpu0 = process_cpu_s();
    Pass pass = run_pass(traces, grid);
    total_cpu_s.push_back(process_cpu_s() - cpu0);
    total_s.push_back(pass.total_s);
    batch_s.push_back(pass.batch_s);
    scalar_s.push_back(pass.scalar_s);
    lru_s.push_back(pass.lru_s);
    belady_s.push_back(pass.belady_s);
    dp_s.push_back(pass.dp_s);
    util.push_back(pass.cell_busy_s /
                   (pass.scalar_s * static_cast<double>(runners)));
    op_p50.push_back(median(pass.cell_ms));
    op_tail.push_back(percentile(pass.cell_ms, kTailPercentile));
    if (++pass_count == 1) {
      first = std::move(pass);
    } else {
      repeat = repeat && same_results(pass, first);
    }
  }
  const double rss = peak_rss_mb();
  report.attempted = pass_count * (grid.jobs.size() + scalar_cells +
                                   3 * traces.size());
  report.failed = 0;

  report.check(repeat, "every pass repeats the first pass's results");
  Count requests = 0, steps = 0, faults = 0, batch_requests = 0,
        scalar_requests = 0;
  for (const RunStats& s : first.batch) batch_requests += s.total_requests();
  for (const RunStats& s : first.scalar) scalar_requests += s.total_requests();
  for (const auto* cells : {&first.batch, &first.scalar}) {
    for (const RunStats& s : *cells) {
      requests += s.total_requests();
      steps += s.sim_steps;
      faults += s.total_faults();
    }
  }
  check(traces, grid, first, report);

  report.info("passes", std::to_string(pass_count));
  report.info("op_tail", "median over passes of the p95 of " +
                             std::to_string(scalar_cells) +
                             " scalar cell times");
  report.info("outcome checksum", std::to_string(requests) + " requests, " +
                                  std::to_string(steps) + " steps, " +
                                  std::to_string(faults) + " faults");
  report.e2e("setup_s", median(setups));
  report.e2e("peak_rss_mb", rss);
  report.e2e("round_cpu_s", median(total_cpu_s));
  report.layer("setup_wall_s", median(setups_wall));
  report.layer("round_s", median(total_s));
  report.layer("op_p50_ms", median(op_p50));
  report.layer("op_tail_ms", median(op_tail));
  report.layer("grid_s", median(total_s));
  report.layer("sweep.batch_ms", median(batch_s) * 1e3);
  report.layer("sweep.batch_cells", static_cast<double>(grid.jobs.size()));
  report.layer("sweep.batch_ns_per_request",
               median(batch_s) * 1e9 / static_cast<double>(batch_requests));
  report.layer("sweep.scalar_ms", median(scalar_s) * 1e3);
  report.layer("sweep.scalar_cells", static_cast<double>(scalar_cells));
  report.layer("sweep.scalar_ns_per_request",
               median(scalar_s) * 1e9 / static_cast<double>(scalar_requests));
  report.layer("sweep.pool_util", median(util));
  report.layer("sim.requests", static_cast<double>(requests));
  report.layer("sim.steps", static_cast<double>(steps));
  report.layer("sim.faults", static_cast<double>(faults));
  report.layer("search.lru_curves_ms", median(lru_s) * 1e3);
  report.layer("search.belady_curves_ms", median(belady_s) * 1e3);
  report.layer("search.dp_ms", median(dp_s) * 1e3);
}

}  // namespace perfbench
