// perfbench: the repository benchmark.
//
//   perfbench --workload <campaign_ripe|daemon_hot|daemon_wide> --seed <n>
//             --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with no tracing attached;
// --trace 1 is a separate run over the same inputs that reports the
// per-layer breakdown. Every run checks its outputs; the last line of
// stdout is one JSON object {correct, attempted, failed, metrics}. The exit
// code is 0 only when the run completed and every check passed.
#include <algorithm>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "campaign.hpp"
#include "daemon.hpp"
#include "report.hpp"

using namespace perfbench;

namespace {

/// Printed by every --trace 0 run.
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"}, {"ops_per_s", "1/s"}, {"p50_ms", "ms"}, {"p99_ms", "ms"},
    {"peak_rss_mb", "MiB"}};

/// Printed by every --trace 1 run; a layer a workload never reaches reads 0.
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"server.batch_fill", "ratio"},
    {"server.polls_per_query", "ratio"},
    {"server.pcache_hit_ratio", "ratio"},
    {"server.malformed", "count"},
    {"server.handler_failures", "count"},
    {"server.truncated", "count"},
    {"server.listener_share_min", "ratio"},
    {"server.cpu_us_per_query", "us"},
    {"netio.send_ns_per_query", "ns"},
    {"netio.recv_ns_per_query", "ns"},
    {"loadgen.lateness_p99_ms", "ms"},
    {"daemon.qps_at_slo", "1/s"},
    {"codec.decode_ns", "ns"},
    {"codec.encode_ns", "ns"},
    {"resolver.handle_us", "us"},
    {"resolver.handle_hit_us", "us"},
    {"resolver.handle_miss_us", "us"},
    {"resolver.upstream_per_query", "ratio"},
    {"cache.hit_ratio", "ratio"},
    {"cache.evictions_per_query", "ratio"},
    {"lpm.node_visits_per_lookup", "ratio"},
    {"auth.handle_us", "us"},
    {"topology.traceroute_us", "us"},
    {"topology.rtt_sample_us", "us"},
    {"topology.routing_trees_setup", "count"},
    {"topology.routing_trees_run", "count"},
    {"trial.resolve_cr_us", "us"},
    {"trial.traceroute_us", "us"},
    {"trial.assimilate_us", "us"},
    {"trial.measure_us", "us"},
    {"trial.dns_queries", "count"},
    {"campaign.parallel_efficiency", "ratio"},
    {"obs.trace_overhead_frac", "ratio"},
    {"unattributed_frac", "ratio"},
};

/// The layers must account for at least this share of the end-to-end cost.
constexpr double kStageSumFloor = 0.9;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <campaign_ripe|daemon_hot|daemon_wide>"
               " --seed <n> --seconds <s> --trace <0|1>\n";
  std::exit(2);
}

RunOptions parse(int argc, char** argv) {
  RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("--seed must be a non-negative integer");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(options.seconds > 0.0) || options.seconds > 600.0) {
        usage("--seconds must be a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      options.trace = value == "1";
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const RunOptions options = parse(argc, argv);
  Result result;
  result.context["nproc"] = std::to_string(online_cpus());
  result.context["seed"] = std::to_string(options.seed);
  result.context["run_seconds"] = std::to_string(options.seconds);
  try {
    if (options.workload == "campaign_ripe") {
      run_campaign(options, result);
    } else if (options.workload == "daemon_hot") {
      run_daemon(options, /*wide=*/false, result);
    } else if (options.workload == "daemon_wide") {
      run_daemon(options, /*wide=*/true, result);
    } else {
      usage("unknown workload " + options.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " aborted: " << e.what() << "\n";
    return 1;
  }

  const auto& expected = options.trace ? kPerLayer : kEndToEnd;
  for (const auto& [name, unit] : expected) {
    if (result.metrics.count(name) == 0) {
      if (!options.trace) result.fail("end-to-end metric " + name + " was not measured");
      result.metric(name, 0.0, unit);
    } else if (result.metrics[name].second != unit) {
      result.fail("metric " + name + " has unit " + result.metrics[name].second);
    }
  }
  for (auto it = result.metrics.begin(); it != result.metrics.end();) {
    const bool listed = std::any_of(expected.begin(), expected.end(),
                                    [&](const auto& m) { return m.first == it->first; });
    it = listed ? std::next(it) : result.metrics.erase(it);
  }
  if (options.trace) {
    const double unattributed = result.metrics["unattributed_frac"].first;
    result.context["stage_sum"] = unattributed <= 1.0 - kStageSumFloor
                                      ? "ok"
                                      : "FLAGGED: layers account for under 90% of the cost";
  }

  std::cout << to_text(options, result);
  std::cout << to_json_line(result) << std::endl;
  return result.correct ? 0 : 1;
}
