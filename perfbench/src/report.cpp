#include "report.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <sstream>

namespace perfbench {

namespace {
std::int64_t clock_ns(clockid_t clock) {
  timespec t{};
  clock_gettime(clock, &t);
  return static_cast<std::int64_t>(t.tv_sec) * 1'000'000'000 + t.tv_nsec;
}
}  // namespace

std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, 0.5);
}

double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

unsigned online_cpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

}  // namespace

std::string to_json_line(const Result& result) {
  std::ostringstream out;
  out << "{\"correct\": " << (result.correct ? "true" : "false")
      << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : result.metrics) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << json_escape(name) << "\": {\"value\": " << number(entry.first)
        << ", \"unit\": \"" << json_escape(entry.second) << "\"}";
  }
  out << "}}";
  return out.str();
}

std::string to_text(const RunOptions& options, const Result& result) {
  std::ostringstream out;
  out << "workload " << options.workload << " seed " << options.seed << " seconds "
      << options.seconds << " trace " << (options.trace ? 1 : 0) << "\n";
  for (const auto& [key, value] : result.context) {
    out << "  context " << key << " = " << value << "\n";
  }
  for (const auto& [name, entry] : result.metrics) {
    out << "  " << name << " = " << number(entry.first) << " " << entry.second << "\n";
  }
  out << "  attempted " << result.attempted << " failed " << result.failed
      << " failed_frac "
      << number(result.attempted == 0 ? 0.0
                                      : static_cast<double>(result.failed) /
                                            static_cast<double>(result.attempted))
      << "\n";
  for (const auto& problem : result.problems) out << "  CHECK FAILED: " << problem << "\n";
  out << "  correct " << (result.correct ? "true" : "false") << "\n";
  return out.str();
}

}  // namespace perfbench
