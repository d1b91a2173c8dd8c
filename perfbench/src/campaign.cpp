#include "campaign.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "analysis/evaluation.hpp"
#include "measure/campaign.hpp"
#include "measure/dataset.hpp"
#include "measure/testbed.hpp"
#include "obs/metrics.hpp"

#include "layers.hpp"

namespace perfbench {

using namespace drongo;

namespace {

/// Testbed constructions per run; setup_s is the median of their CPU times.
constexpr int kSetupRepeats = 15;
/// Share of the run spent on throughput passes; the rest times single trials.
constexpr double kThroughputShare = 0.6;
/// Paper parameters of the headline evaluation (§5).
constexpr double kVf = 1.0;
constexpr double kVt = 0.95;

/// The trial seed: the workload input the benchmark varies. The testbed
/// (the simulated Internet under test) stays the RIPE-style default.
std::uint64_t trial_seed(std::uint64_t seed) { return seed * 0x9E3779B97F4A7C15ULL + 0x219E; }

/// The same task list analysis::Evaluation builds: every (client,
/// provider) pair, 5 training + 5 test trials, domain pinned per pair.
std::vector<measure::CampaignTask> evaluation_tasks(std::size_t clients,
                                                    std::size_t providers) {
  const analysis::EvaluationConfig eval;
  const int total = eval.training_trials + eval.test_trials;
  std::vector<measure::CampaignTask> tasks;
  for (std::size_t c = 0; c < clients; ++c) {
    for (std::size_t p = 0; p < providers; ++p) {
      for (int t = 0; t < total; ++t) {
        tasks.push_back({c, p, static_cast<std::uint64_t>(t), t * eval.spacing_hours, c % 3});
      }
    }
  }
  return tasks;
}

/// Records of an Evaluation in task-list order.
std::vector<measure::TrialRecord> evaluation_records(const analysis::Evaluation& evaluation) {
  std::vector<measure::TrialRecord> records;
  for (std::size_t c = 0; c < evaluation.client_count(); ++c) {
    for (std::size_t p = 0; p < evaluation.providers().size(); ++p) {
      const auto& pair = evaluation.records(c, p);
      records.insert(records.end(), pair.begin(), pair.end());
    }
  }
  return records;
}

bool same_samples(const std::vector<analysis::EvalSample>& a,
                  const std::vector<analysis::EvalSample>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].provider != b[i].provider || a[i].client_index != b[i].client_index ||
        a[i].assimilated != b[i].assimilated || a[i].ratio != b[i].ratio) {
      return false;
    }
  }
  return true;
}

/// The headline numbers of §5: aggregate gain and affected-client share.
std::string headline(const std::vector<analysis::EvalSample>& samples, std::size_t clients) {
  double sum = 0.0;
  std::vector<bool> affected(clients, false);
  for (const auto& s : samples) {
    sum += s.ratio;
    if (s.assimilated) affected[s.client_index] = true;
  }
  const double gain = samples.empty() ? 0.0 : 1.0 - sum / static_cast<double>(samples.size());
  const auto hit = static_cast<double>(std::count(affected.begin(), affected.end(), true));
  std::ostringstream out;
  out << "aggregate_gain " << gain << " clients_affected "
      << (clients == 0 ? 0.0 : hit / static_cast<double>(clients));
  return out.str();
}

std::uint64_t not_ok(const std::vector<measure::TrialRecord>& records) {
  return static_cast<std::uint64_t>(
      std::count_if(records.begin(), records.end(), [](const measure::TrialRecord& r) {
        return r.outcome != measure::TrialOutcome::kOk;
      }));
}

/// Runs `tasks` on `threads` workers, each owning every `threads`-th client
/// (whole clients per worker, as ParallelCampaignRunner assigns them),
/// recording every single trial's CPU time on its worker.
std::vector<measure::TrialRecord> timed_trials(const measure::TrialRunner& runner,
                                               const std::vector<measure::CampaignTask>& tasks,
                                               int threads,
                                               std::vector<double>& trial_ms) {
  std::vector<measure::TrialRecord> records(tasks.size());
  std::vector<double> durations(tasks.size(), 0.0);
  std::vector<std::thread> workers;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(threads));
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      try {
        for (std::size_t i = 0; i < tasks.size(); ++i) {
          if (tasks[i].client_index % static_cast<std::size_t>(threads) !=
              static_cast<std::size_t>(w)) {
            continue;
          }
          const std::int64_t start = thread_cpu_ns();
          records[i] = runner.run_task(tasks[i]);
          durations[i] = static_cast<double>(thread_cpu_ns() - start) * 1e-6;
        }
      } catch (...) {
        errors[static_cast<std::size_t>(w)] = std::current_exception();
      }
    });
  }
  for (auto& worker : workers) worker.join();
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  trial_ms.insert(trial_ms.end(), durations.begin(), durations.end());
  return records;
}

double span_us_per(const obs::Snapshot& snapshot, const std::string& name, double per) {
  const auto it = snapshot.spans.find(name);
  if (it == snapshot.spans.end() || per <= 0.0) return 0.0;
  return static_cast<double>(it->second.total_ticks) / 1000.0 / per;
}

std::uint64_t counter(const obs::Snapshot& snapshot, const std::string& name) {
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

void run_end_to_end(const RunOptions& options, Result& result) {
  std::vector<double> setups;
  std::unique_ptr<measure::Testbed> testbed;
  for (int i = 0; i < kSetupRepeats; ++i) {
    testbed.reset();
    const std::int64_t start = process_cpu_ns();
    testbed = std::make_unique<measure::Testbed>(ripe_config());
    setups.push_back(static_cast<double>(process_cpu_ns() - start) * 1e-9);
  }
  result.metric("setup_s", median(setups), "s");

  const std::uint64_t seed = trial_seed(options.seed);
  const auto tasks = evaluation_tasks(testbed->clients().size(), testbed->provider_count());
  analysis::EvaluationConfig threaded;
  threaded.threads = kCampaignThreads;

  // Throughput: the paper's pipeline, campaign on the parallel runner then
  // the headline evaluation, repeated; the median pass rate is reported. A
  // pass's rate is trials per CPU second times the worker count: the
  // wall-clock rate of the workers when neither is preempted.
  const std::int64_t run_start = now_ns();
  std::vector<double> pass_rates;
  std::vector<double> wall_rates;
  std::vector<analysis::EvalSample> first_samples;
  std::uint64_t first_digest = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  while (pass_rates.empty() || seconds_since(run_start) < options.seconds * kThroughputShare) {
    const std::int64_t start = now_ns();
    const std::int64_t cpu_start = process_cpu_ns();
    auto evaluation = std::make_unique<analysis::Evaluation>(testbed.get(), seed, threaded);
    auto samples = evaluation->evaluate(kVf, kVt);
    const auto trials = static_cast<double>(tasks.size());
    pass_rates.push_back(trials * kCampaignThreads /
                         (static_cast<double>(process_cpu_ns() - cpu_start) * 1e-9));
    wall_rates.push_back(trials / seconds_since(start));
    const auto records = evaluation_records(*evaluation);
    attempted += records.size();
    failed += not_ok(records);
    const std::uint64_t digest = campaign_digest(records);
    if (pass_rates.size() == 1) {
      first_samples = std::move(samples);
      first_digest = digest;
    } else {
      result.check(digest == first_digest, "a repeated campaign pass produced different records");
      result.check(same_samples(samples, first_samples),
                   "a repeated pass produced different headline samples");
    }
  }
  result.metric("ops_per_s", median(pass_rates), "1/s");

  // Latency: every trial's CPU time on its worker, same workers and sharding.
  measure::TrialRunner runner(testbed.get(), seed);
  std::vector<double> trial_ms;
  while (trial_ms.empty() || seconds_since(run_start) < options.seconds) {
    const auto records = timed_trials(runner, tasks, kCampaignThreads, trial_ms);
    attempted += records.size();
    failed += not_ok(records);
    result.check(campaign_digest(records) == first_digest,
                 "individually timed trials differ from the parallel runner's records");
  }
  std::sort(trial_ms.begin(), trial_ms.end());
  result.metric("p50_ms", percentile_sorted(trial_ms, 0.50), "ms");
  result.metric("p99_ms", percentile_sorted(trial_ms, 0.99), "ms");
  result.context["latency_samples"] = std::to_string(trial_ms.size());
  result.context["throughput_passes"] = std::to_string(pass_rates.size());
  result.context["wall_trials_per_s"] = std::to_string(median(wall_rates));

  // Correctness: serial == threaded, record for record, and the same
  // headline evaluation at the paper's (vf, vt).
  analysis::EvaluationConfig serial_config;
  serial_config.threads = 1;
  const analysis::Evaluation serial(testbed.get(), seed, serial_config);
  const auto serial_samples = serial.evaluate(kVf, kVt);
  result.check(campaign_digest(evaluation_records(serial)) == first_digest,
               "serial campaign records differ from the 2-thread campaign");
  result.check(same_samples(serial_samples, first_samples),
               "serial headline evaluation differs from the 2-thread evaluation");
  result.check(!first_samples.empty(), "the evaluation produced no samples");
  result.context["headline"] = headline(first_samples, testbed->clients().size());
  result.context["headline_serial"] = headline(serial_samples, serial.client_count());

  result.attempted = attempted;
  result.failed = failed;
  result.metric("peak_rss_mb", peak_rss_mb(), "MiB");
}

void run_traced(const RunOptions& options, Result& result) {
  measure::Testbed testbed(ripe_config());
  const std::size_t trees_setup = testbed.world().routing().cached_destinations();
  const std::uint64_t seed = trial_seed(options.seed);
  const auto tasks = evaluation_tasks(testbed.clients().size(), testbed.provider_count());
  const auto trials = static_cast<double>(tasks.size());

  // A warm-up pass fills the lazy routing tables, then an untraced pass
  // gives the reference rate; both timed passes see the same cache state.
  measure::TrialRunner runner(&testbed, seed);
  const measure::ParallelCampaignRunner parallel(&runner, {.threads = kCampaignThreads});
  const measure::ParallelCampaignRunner serial(&runner, {.threads = 1});
  const auto warm = parallel.run(tasks);
  const std::size_t trees_run = testbed.world().routing().cached_destinations();
  std::int64_t start = now_ns();
  const auto reference = parallel.run(tasks);
  const double untraced_wall = seconds_since(start);
  const std::uint64_t digest = campaign_digest(reference);
  result.check(campaign_digest(warm) == digest,
               "a repeated campaign pass produced different records");

  // Traced pass: registry on the runner and testbed, timing decorators at
  // the resolver's and the authoritatives' addresses.
  obs::Registry registry;
  ResolverProbe resolver_probe(&testbed.resolver());
  testbed.dns_network().register_server(testbed.resolver_address(), &resolver_probe);
  const AuthoritativeProbes auth_probes(testbed);
  testbed.set_registry(&registry);
  runner.set_registry(&registry);
  start = now_ns();
  const auto traced = parallel.run(tasks);
  const double traced_wall = seconds_since(start);
  const obs::Snapshot snapshot = registry.snapshot();
  result.check(campaign_digest(traced) == digest, "traced campaign records differ");

  start = now_ns();
  const auto serial_records = serial.run(tasks);
  const double serial_wall = seconds_since(start);
  result.check(campaign_digest(serial_records) == digest,
               "serial campaign records differ from the 2-thread campaign");
  testbed.set_registry(nullptr);
  runner.set_registry(nullptr);

  const double resolve = span_us_per(snapshot, "measure.trial.resolve_cr", trials);
  const double trace = span_us_per(snapshot, "measure.trial.traceroute", trials);
  const double assimilate = span_us_per(snapshot, "measure.trial.assimilate", trials);
  const double measure_us = span_us_per(snapshot, "measure.trial.measure", trials);
  result.metric("trial.resolve_cr_us", resolve, "us");
  result.metric("trial.traceroute_us", trace, "us");
  result.metric("trial.assimilate_us", assimilate, "us");
  result.metric("trial.measure_us", measure_us, "us");
  result.metric("trial.dns_queries",
                static_cast<double>(counter(snapshot, "dns.resolver.queries")) / trials,
                "count");
  const double rate_traced = trials / traced_wall;
  const double rate_serial = trials / serial_wall;
  result.metric("campaign.parallel_efficiency",
                rate_traced / (kCampaignThreads * rate_serial), "ratio");
  result.metric("obs.trace_overhead_frac", 1.0 - untraced_wall / traced_wall, "ratio");
  // Stage sum: the measure phases against the per-trial thread time.
  const double per_trial_us = traced_wall * kCampaignThreads * 1e6 / trials;
  result.metric("unattributed_frac",
                1.0 - (resolve + trace + assimilate + measure_us) / per_trial_us, "ratio");
  result.metric("resolver.handle_us", resolver_probe.all().mean_us(), "us");
  result.metric("auth.handle_us", auth_probes.mean_us(), "us");
  result.metric("topology.routing_trees_setup", static_cast<double>(trees_setup), "count");
  result.metric("topology.routing_trees_run", static_cast<double>(trees_run), "count");

  // Topology, timed from outside on the campaign's own (client, replica)
  // pairs with the trial's own noise model.
  net::Rng rng(seed);
  auto& world = testbed.world();
  std::uint64_t trace_ns = 0;
  std::uint64_t rtt_ns = 0;
  std::uint64_t pairs = 0;
  for (const auto& record : reference) {
    for (const auto& replica : record.cr) {
      std::int64_t t0 = now_ns();
      const auto hops = world.traceroute(record.client, replica.replica, rng);
      std::int64_t t1 = now_ns();
      const double rtt = world.rtt_sample_ms(record.client, replica.replica, rng);
      const std::int64_t t2 = now_ns();
      trace_ns += static_cast<std::uint64_t>(t1 - t0);
      rtt_ns += static_cast<std::uint64_t>(t2 - t1);
      ++pairs;
      result.check(!hops.empty() && rtt > 0.0, "topology returned an empty path");
    }
  }
  const double n_pairs = std::max<double>(1.0, static_cast<double>(pairs));
  result.metric("topology.traceroute_us", static_cast<double>(trace_ns) / 1000.0 / n_pairs, "us");
  result.metric("topology.rtt_sample_us", static_cast<double>(rtt_ns) / 1000.0 / n_pairs, "us");

  // Codec on the campaign's own query and reply wires.
  std::uint64_t decode_ns = 0;
  std::uint64_t encode_ns = 0;
  std::uint64_t wires = 0;
  std::vector<std::uint8_t> wire;
  for (std::size_t i = 0; i < tasks.size(); i += 10) {
    const auto& task = tasks[i];
    const auto names = testbed.content_names(task.provider_index);
    const auto client = testbed.clients()[task.client_index];
    const auto query = dns::Message::make_query(static_cast<std::uint16_t>(i), names[0],
                                                net::IpPrefix(net::Prefix(client, 24)));
    const auto reply = testbed.resolver().handle(query, client);
    std::int64_t t0 = now_ns();
    reply.encode_to(wire);
    std::int64_t t1 = now_ns();
    const auto decoded = dns::Message::decode(wire);
    const std::int64_t t2 = now_ns();
    encode_ns += static_cast<std::uint64_t>(t1 - t0);
    decode_ns += static_cast<std::uint64_t>(t2 - t1);
    ++wires;
    result.check(decoded.header.id == reply.header.id, "codec round trip changed the id");
  }
  result.metric("codec.decode_ns", static_cast<double>(decode_ns) / static_cast<double>(wires), "ns");
  result.metric("codec.encode_ns", static_cast<double>(encode_ns) / static_cast<double>(wires), "ns");

  result.attempted = reference.size() + traced.size() + serial_records.size();
  result.failed = not_ok(reference) + not_ok(traced) + not_ok(serial_records);
}

}  // namespace

measure::TestbedConfig ripe_config() {
  measure::TestbedConfig config = measure::TestbedConfig::ripe_atlas();
  config.client_count = kCampaignClients;
  return config;
}

std::uint64_t campaign_digest(const std::vector<measure::TrialRecord>& records) {
  std::ostringstream out;
  measure::save_dataset(out, records);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : out.str()) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

void run_campaign(const RunOptions& options, Result& result) {
  result.context["threads"] = std::to_string(kCampaignThreads) + " campaign workers";
  result.context["listeners"] = "0 (no daemon)";
  result.context["sockets"] = "0 (no daemon)";
  result.context["latency_limit_ms"] = "none (closed campaign)";
  result.context["clients"] = std::to_string(kCampaignClients);
  result.context["trials_per_pass"] = std::to_string(kCampaignClients * 6 * 10);
  if (options.trace) {
    run_traced(options, result);
  } else {
    run_end_to_end(options, result);
  }
}

}  // namespace perfbench
