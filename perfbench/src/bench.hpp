// Shared plumbing of the end-to-end benchmark: run options, the metric
// report, sample statistics and the corruption hook the benchmark's own
// tests use to show that every output check fires.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Reduced sizes, every check on: checks the benchmark in seconds.
  bool smoke = false;
  /// Name of one output to corrupt before it is checked ("" = none).
  std::string corrupt;
  /// Scratch directory for spill and checkpoint files.
  std::string scratch = ".";
  /// Chrome trace-event JSON output of a traced run.
  std::string trace_file;
  std::string commit = "unknown";
};

/// A metric the benchmark reports: BENCHMARK.json lists the same names.
struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  ///< "lower" or "higher"
};
/// Reported by every workload; untraced runs' JSON carries exactly these.
[[nodiscard]] const std::vector<MetricSpec>& e2e_metrics();
/// Traced runs' JSON carries exactly these; a layer a workload does not
/// touch reads 0.
[[nodiscard]] const std::vector<MetricSpec>& layer_metrics();

/// Metrics, checks and operation counts of one workload run.  Prints the
/// human-readable report and, last, the one-line JSON result.
class Report {
 public:
  /// Sets an end-to-end metric; the name must be in e2e_metrics().
  void e2e(const std::string& name, double value);
  /// Sets a per-layer metric; the name must be in layer_metrics().
  void layer(const std::string& name, double value);
  /// Prints a header line ("key: value").
  void info(const std::string& key, const std::string& value);

  /// Records a check; a false `ok` fails the run.
  void check(bool ok, const std::string& what);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  [[nodiscard]] bool correct() const noexcept { return check_failures_ == 0; }
  /// Every end-to-end metric was measured.
  [[nodiscard]] bool complete() const noexcept {
    return e2e_.size() == e2e_metrics().size();
  }
  /// Prints the report; the last line is the JSON result holding the
  /// end-to-end metrics (untraced) or the per-layer metrics (traced).
  void print(bool traced) const;

 private:
  std::map<std::string, double> e2e_, layer_;
  std::uint64_t checks_ = 0;
  std::uint64_t check_failures_ = 0;
};

/// The benchmark's corruption hook: when `name` is the run's --corrupt
/// target, perturbs `value` so the check that reads it must fail.
class Corruptor {
 public:
  explicit Corruptor(std::string target) : target_(std::move(target)) {}
  /// True (and remembered) when `name` is the target.
  bool targets(const char* name) {
    hit_ = hit_ || target_ == name;
    return target_ == name;
  }
  /// Flips a bool, adds one to a number.
  template <typename T>
  void apply(const char* name, T& value) {
    if (!targets(name)) return;
    if constexpr (std::is_same_v<T, bool>) {
      value = !value;
    } else {
      value += 1;
    }
  }
  /// Replaces `value` (for checks that test a range, not a value).
  template <typename T>
  void apply(const char* name, T& value, T corrupted) {
    if (targets(name)) value = corrupted;
  }
  [[nodiscard]] bool hit() const noexcept { return hit_; }

 private:
  std::string target_;
  bool hit_ = false;
};

/// The run's corruption hook (the --corrupt target).
[[nodiscard]] Corruptor& corruptor();

/// Names accepted by --corrupt, one per checked output.
[[nodiscard]] const std::vector<std::string>& corruption_names();

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 100].
[[nodiscard]] double percentile(std::vector<double> v, double q);
/// Peak resident set of this process (getrusage), MB.
[[nodiscard]] double peak_rss_mb();
/// CPU seconds used so far by every thread of this process.  A guest
/// kernel with paravirtual steal accounting leaves out the time the host
/// gave the vCPU to other guests, so on a shared VM this moves far less
/// between runs than wall time does.  Read it while the process's other
/// threads are blocked: a running thread's current slice is not yet in it.
[[nodiscard]] double process_cpu_s();
/// CPU seconds used so far by the calling thread.  Unlike process_cpu_s()
/// it does not depend on whether threads the caller just started have run.
[[nodiscard]] double thread_cpu_s();

// Workload entry points.
void run_advisory(const Options& options, bool churn, Report& report);
void run_offline(const Options& options, Report& report);
void run_sweep(const Options& options, Report& report);

}  // namespace perfbench
