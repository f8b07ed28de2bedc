// perfbench: one workload of the end-to-end benchmark per process.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--smoke] [--corrupt OUTPUT] [--scratch DIR]
//             [--trace-file PATH] [--commit SHA]
//
// Prints a run header, the workload's checks and metrics, and as its last
// line one JSON object {"correct","attempted","failed","metrics"}: the
// end-to-end metrics of an untraced run or the per-layer metrics of a
// traced one.  Exits 1 when a check fails, 2 on a usage error.  run.py
// builds this program and is the command users run.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

const MetricSpec* find_spec(const std::vector<MetricSpec>& specs,
                            const std::string& name) {
  for (const MetricSpec& spec : specs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

}  // namespace

Corruptor& corruptor() {
  static Corruptor instance{""};
  return instance;
}

const std::vector<std::string>& corruption_names() {
  static const std::vector<std::string> names = {
      "fitted.faults",          "fitted.completion",   "fitted.served",
      "churn.even_faults",      "churn.shared_faults", "churn.curve",
      "churn.advice",           "churn.served",        "offline.ftf_bounds",
      "offline.replay",         "offline.spill",       "offline.pif_feasible",
      "offline.pif_infeasible", "sweep.batch_cell",    "sweep.lru_search",
      "sweep.belady_curve",     "sweep.opt_vs_lru",    "sweep.scalar_cell"};
  return names;
}

const std::vector<MetricSpec>& e2e_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", "lower"},
      {"peak_rss_mb", "MB", "lower"},
      {"round_cpu_s", "s", "lower"},
  };
  return specs;
}

const std::vector<MetricSpec>& layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      // Wall-clock figures of every workload.  They follow the host's CPU
      // steal, so the CPU-time figures above are the gated ones.
      {"setup_wall_s", "s", "lower"},
      {"round_s", "s", "lower"},
      {"op_p50_ms", "ms", "lower"},
      {"op_tail_ms", "ms", "lower"},
      // Workload figures named after what they time.
      {"pairs_per_s", "pairs/s", "higher"},
      {"session_p50_ms", "ms", "lower"},
      {"session_tail_ms", "ms", "lower"},
      {"ftf_small_s", "s", "lower"},
      {"ftf_large_s", "s", "lower"},
      {"ftf_spill_s", "s", "lower"},
      {"pif_s", "s", "lower"},
      {"grid_s", "s", "lower"},
      // service/wire_format, client side.
      {"wire.encode_ms", "ms", "lower"},
      {"wire.bytes_sent", "bytes", "lower"},
      {"wire.reply_decode_ms", "ms", "lower"},
      // service/mcpd, client boundary and shards.
      {"mcpd.submit_ms", "ms", "lower"},
      {"mcpd.reply_wait_ms", "ms", "lower"},
      {"mcpd.close_to_reply_ms", "ms", "lower"},
      {"mcpd.shard_busy_ms", "ms", "lower"},
      {"mcpd.shard_util", "ratio", "lower"},
      {"mcpd.epochs", "count", "lower"},
      {"mcpd.epoch_p50_us", "us", "lower"},
      {"mcpd.epoch_p99_us", "us", "lower"},
      {"mcpd.batched_sessions", "count", "higher"},
      {"mcpd.scalar_sessions", "count", "lower"},
      {"mcpd.lane_steps", "count", "lower"},
      {"mcpd.pairs_per_lane_step", "pairs", "higher"},
      // core/batch_engine + core/sweep, core/simulator + policies,
      // core/thread_pool.
      {"sweep.batch_ms", "ms", "lower"},
      {"sweep.batch_cells", "count", "higher"},
      {"sweep.batch_ns_per_request", "ns", "lower"},
      {"sweep.scalar_ms", "ms", "lower"},
      {"sweep.scalar_cells", "count", "higher"},
      {"sweep.scalar_ns_per_request", "ns", "lower"},
      {"sweep.pool_util", "ratio", "higher"},
      // Simulated statistics: identical on every run of one seed.
      {"sim.requests", "count", "higher"},
      {"sim.steps", "count", "lower"},
      {"sim.faults", "count", "lower"},
      // policies/mattson, strategies/partition_search.
      {"search.lru_curves_ms", "ms", "lower"},
      {"search.belady_curves_ms", "ms", "lower"},
      {"search.dp_ms", "ms", "lower"},
      // offline/ftf_solver.
      {"ftf.small.states_stored", "count", "lower"},
      {"ftf.small.states_expanded", "count", "lower"},
      {"ftf.small.expand_wall_ms", "ms", "lower"},
      {"ftf.small.expand_busy_ms", "ms", "lower"},
      {"ftf.small.serial_ms", "ms", "lower"},
      {"ftf.small.expand_efficiency", "ratio", "higher"},
      {"ftf.small.peak_ram_mb", "MB", "lower"},
      {"ftf.large.states_stored", "count", "lower"},
      {"ftf.large.states_expanded", "count", "lower"},
      {"ftf.large.expand_wall_ms", "ms", "lower"},
      {"ftf.large.expand_busy_ms", "ms", "lower"},
      {"ftf.large.serial_ms", "ms", "lower"},
      {"ftf.large.expand_efficiency", "ratio", "higher"},
      {"ftf.large.peak_ram_mb", "MB", "lower"},
      // offline/spill_arena + offline/checkpoint, offline/pif_solver.
      {"spill.bytes_spilled", "bytes", "lower"},
      {"spill.checkpoint_bytes", "bytes", "lower"},
      {"pif.states_expanded", "count", "lower"},
      {"pif.peak_layer_width", "count", "lower"},
      {"pif.peak_ram_mb", "MB", "lower"},
  };
  return specs;
}

void Report::e2e(const std::string& name, double value) {
  if (find_spec(e2e_metrics(), name) == nullptr) {
    throw std::logic_error("not an end-to-end metric: " + name);
  }
  e2e_[name] = value;
}

void Report::layer(const std::string& name, double value) {
  if (find_spec(layer_metrics(), name) == nullptr) {
    throw std::logic_error("not a per-layer metric: " + name);
  }
  layer_[name] = value;
}

void Report::info(const std::string& key, const std::string& value) {
  std::printf("%-22s %s\n", (key + ":").c_str(), value.c_str());
  std::fflush(stdout);
}

void Report::check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) {
    ++check_failures_;
    if (check_failures_ <= 20) std::printf("CHECK FAILED: %s\n", what.c_str());
  }
}

void Report::print(bool traced) const {
  std::printf("checks                 %llu run, %llu failed\n",
              static_cast<unsigned long long>(checks_),
              static_cast<unsigned long long>(check_failures_));
  std::printf("operations             %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (const MetricSpec& spec : e2e_metrics()) {
    if (e2e_.count(spec.name) == 0) {
      std::printf("CHECK FAILED: end-to-end metric %s not measured\n",
                  spec.name);
    }
  }
  std::printf("%s\n", traced ? "end-to-end (traced run: includes tracing "
                               "overhead)"
                             : "end-to-end");
  for (const MetricSpec& spec : e2e_metrics()) {
    const auto it = e2e_.find(spec.name);
    std::printf("  %-30s %18.6f %s\n", spec.name,
                it == e2e_.end() ? 0.0 : it->second, spec.unit);
  }
  std::printf("per-layer%s\n", traced ? "" : " (span timings need --trace 1)");
  for (const MetricSpec& spec : layer_metrics()) {
    const auto it = layer_.find(spec.name);
    if (it != layer_.end()) {
      std::printf("  %-30s %18.6f %s\n", spec.name, it->second, spec.unit);
    }
  }
  if (traced) {
    // The traced run's own end-to-end figures, for run.py's overhead table.
    std::string e2e = "e2e_json {";
    for (const auto& [name, value] : e2e_) {
      if (e2e.size() > 10) e2e += ", ";
      e2e.append("\"").append(name).append("\": ").append(json_number(value));
    }
    std::printf("%s}\n", e2e.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct() && complete() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : traced ? layer_metrics() : e2e_metrics()) {
    const auto& values = traced ? layer_ : e2e_;
    const auto it = values.find(spec.name);
    if (!first) json += ", ";
    first = false;
    json.append("\"").append(spec.name).append("\": {\"value\": ");
    json.append(json_number(it == values.end() ? 0.0 : it->second));
    json.append(", \"unit\": \"").append(spec.unit).append("\"}");
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
  const auto index = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(index, v.size() - 1)];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

}  // namespace perfbench

namespace {

std::string format_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "{advisory_fitted,advisory_churn,offline,sweep} [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke] [--corrupt OUTPUT] "
               "[--scratch DIR] [--trace-file PATH] [--commit SHA]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") options.workload = value();
    else if (arg == "--seed") {
      const std::string text = value();
      char* end = nullptr;
      options.seed = std::strtoull(text.c_str(), &end, 10);
      if (text.empty() || *end != '\0') usage("bad number for --seed");
    }
    else if (arg == "--seconds") {
      const std::string text = value();
      char* end = nullptr;
      options.seconds = std::strtod(text.c_str(), &end);
      if (text.empty() || *end != '\0' || !(options.seconds >= 0)) {
        usage("bad number for --seconds");
      }
    }
    else if (arg == "--trace") options.trace = value() != "0";
    else if (arg == "--smoke") options.smoke = true;
    else if (arg == "--corrupt") options.corrupt = value();
    else if (arg == "--scratch") options.scratch = value();
    else if (arg == "--trace-file") options.trace_file = value();
    else if (arg == "--commit") options.commit = value();
    else if (arg == "--list-metrics") {
      for (const MetricSpec& m : e2e_metrics()) {
        std::printf("end_to_end %s %s %s\n", m.name, m.unit, m.better);
      }
      for (const MetricSpec& m : layer_metrics()) {
        std::printf("per_layer %s %s %s\n", m.name, m.unit, m.better);
      }
      return 0;
    } else if (arg == "--list-corruptions") {
      for (const std::string& name : corruption_names()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    } else usage(("unknown argument " + arg).c_str());
  }
  if (!options.corrupt.empty() &&
      std::find(corruption_names().begin(), corruption_names().end(),
                options.corrupt) == corruption_names().end()) {
    usage(("unknown corruption target " + options.corrupt).c_str());
  }
  corruptor() = Corruptor(options.corrupt);

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  Report report;
  report.info("workload", options.workload);
  report.info("seed", std::to_string(options.seed));
  report.info("seconds", format_number(options.seconds));
  report.info("mode", std::string(options.smoke ? "smoke, " : "") +
                          (options.trace ? "traced" : "untraced"));
  report.info("nproc", std::to_string(nproc));
  report.info("hardware_concurrency",
              std::to_string(std::thread::hardware_concurrency()));
  report.info("build", std::string(PERFBENCH_BUILD_TYPE) + ", " +
                           PERFBENCH_COMPILER);
  report.info("commit", options.commit);
  if (options.trace) trace::enable(std::size_t{1} << 21);
  try {
    if (options.workload == "advisory_fitted") {
      run_advisory(options, /*churn=*/false, report);
    } else if (options.workload == "advisory_churn") {
      run_advisory(options, /*churn=*/true, report);
    } else if (options.workload == "offline") {
      run_offline(options, report);
    } else if (options.workload == "sweep") {
      run_sweep(options, report);
    } else {
      usage(("unknown workload '" + options.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::printf("perfbench: %s aborted: %s\n", options.workload.c_str(),
                e.what());
    return 2;
  }
  if (!options.corrupt.empty() && !corruptor().hit()) {
    std::printf("perfbench: --corrupt %s names no output of %s\n",
                options.corrupt.c_str(), options.workload.c_str());
    return 2;
  }
  if (options.trace) {
    std::printf("per-layer spans (%zu recorded, %llu dropped)\n",
                trace::recorded(),
                static_cast<unsigned long long>(trace::dropped()));
    std::printf("  %-30s %10s %14s %14s\n", "span", "calls", "total_ms",
                "self_ms");
    for (const trace::LayerRow& row : trace::layer_table()) {
      std::printf("  %-30s %10llu %14.3f %14.3f\n", row.name.c_str(),
                  static_cast<unsigned long long>(row.calls), row.total_ms,
                  row.self_ms);
    }
    if (!options.trace_file.empty()) {
      trace::write_chrome_json(options.trace_file);
      std::printf("trace file             %s\n", options.trace_file.c_str());
    }
  }
  report.print(options.trace);
  return report.correct() && report.complete() ? 0 : 1;
}
