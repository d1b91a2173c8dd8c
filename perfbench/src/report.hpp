// Result record and small statistics helpers shared by every workload.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady clock) for timing calls from outside.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time consumed so far by the whole process / by the calling thread,
/// in ns. The kernel does not charge a task for time its virtual CPU was
/// preempted by the host, so CPU-time figures stay put on a shared machine
/// where wall-clock figures swing with the machine's CPU share.
std::int64_t process_cpu_ns();
std::int64_t thread_cpu_ns();

/// Seconds elapsed since `start_ns`.
inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// What the command line selects for one run.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// One workload run: the metrics it reports plus the correctness verdict.
/// `attempted`/`failed` count the workload's operations (trials or
/// queries); `context` records how the run was configured so every report
/// states its own conditions (nproc, threads, listeners, seed, ...).
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;  // name -> (value, unit)
  std::map<std::string, std::string> context;
  std::vector<std::string> problems;  ///< why `correct` is false, one line each

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
  void check(bool ok, const std::string& why) {
    if (!ok) fail(why);
  }
};

/// Median of `values` (copied; empty gives 0).
double median(std::vector<double> values);

/// Rank-interpolated percentile, q in [0, 1], of an already sorted vector.
double percentile_sorted(const std::vector<double>& sorted, double q);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// Online CPUs.
unsigned online_cpus();

/// The result as one JSON line {correct, attempted, failed, metrics}, printed
/// last on stdout.
std::string to_json_line(const Result& result);

/// Human-readable report (metrics with units, context, problems).
std::string to_text(const RunOptions& options, const Result& result);

}  // namespace perfbench
