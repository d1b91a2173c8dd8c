#include "daemon.hpp"

#include <arpa/inet.h>
#include <linux/sock_diag.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "campaign.hpp"
#include "cdn/resolver.hpp"
#include "measure/testbed.hpp"
#include "net/rng.hpp"
#include "netio/socket.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

using namespace drongo;

namespace {

/// Testbed + daemon constructions per run; setup_s is the median of their
/// CPU times.
constexpr int kSetupRepeats = 15;
/// Client sockets tried while looking for one per listener.
constexpr int kMaxProbeSockets = 32;
/// Offered rate of the p50/p99 measurement, per workload: well below the
/// workload's qps_at_slo on a 4-core machine (about a tenth for daemon_hot,
/// a third for daemon_wide), so the latency is the serving path's, not
/// queueing near saturation.
constexpr double kHotReferenceQps = 20'000.0;
constexpr double kWideReferenceQps = 5'000.0;
/// Offered rate of the ops_per_s phase, per workload: near the workload's
/// qps_at_slo, so the listeners are busy and their batches fill.
constexpr double kHotLoadQps = 150'000.0;
constexpr double kWideLoadQps = 15'000.0;
/// Distinct (name, ECS /24) queries of daemon_hot: far below the packet
/// cache's capacity, so after the first second nearly every reply is a hit.
constexpr std::size_t kHotWorkingSet = 128;
/// daemon_wide: distinct (name, ECS /24) pairs drawn from all providers'
/// names and the world's routed space, and the length of the Zipf-drawn
/// query sequence (cycled).
constexpr std::size_t kWidePopulation = 1u << 18;
constexpr std::size_t kWideSequence = 1u << 20;
constexpr double kZipfExponent = 0.8;
/// Shares of a run: warm-up and latency at the reference rate; the rest is
/// the heavy-load phase.
constexpr double kWarmShare = 0.05;
constexpr double kLatencyShare = 0.55;
/// Capacity search of the traced run (qps_at_slo).
constexpr double kStepSeconds = 0.5;
constexpr int kMaxSearchSteps = 12;
/// The query of one correct reply in this many is replayed for the
/// byte-for-byte check (compare_in_process).
constexpr std::size_t kSampleEvery = 251;
/// Codec timing: this many of the workload's own queries.
constexpr std::size_t kCodecQueries = 20'000;

}  // namespace

dns::DaemonServerConfig daemon_config() {
  dns::DaemonServerConfig config;
  config.listeners = kListeners;
  config.enable_tcp = false;
  // Listener i on CPU i and the generator on the next one: a fixed
  // placement keeps wake-up latencies from depending on where the
  // scheduler happened to put the three threads.
  config.pin_threads = true;
  return config;
}

QueryTemplates make_templates(const std::vector<dns::DnsName>& names) {
  QueryTemplates templates;
  for (const auto& name : names) {
    auto wire = dns::Message::make_query(
                    0, name, net::IpPrefix(net::Prefix(net::Ipv4Addr(1, 2, 3, 0), 24)))
                    .encode();
    const std::size_t at = wire.size() - 3;
    if (wire[at] != 1 || wire[at + 1] != 2 || wire[at + 2] != 3) {
      throw std::runtime_error("query wire does not end in the ECS address");
    }
    std::size_t end = 12;
    while (wire[end] != 0) end += 1u + wire[end];
    templates.question_bytes.push_back(end + 1 + 4 - 12);
    templates.ecs_offset.push_back(at);
    templates.wires.push_back(std::move(wire));
  }
  return templates;
}

namespace {

/// The testbed of the daemon workloads: the resolver's scoped cache on,
/// sharded, with singleflight coalescing.
measure::TestbedConfig serving_config() {
  measure::TestbedConfig config = ripe_config();
  config.serving.enable_cache = true;
  config.serving.shards = 8;
  config.serving.coalesce = true;
  return config;
}

/// Builds the daemon workloads' testbed and fills its lazy routing tables,
/// one per destination AS. The CDNs' mapping reaches destinations all over
/// the routed space, so a cold table costs a first query milliseconds; in a
/// serving daemon that cost belongs to start-up, and it counts in setup_s.
std::unique_ptr<measure::Testbed> serving_testbed() {
  auto testbed = std::make_unique<measure::Testbed>(serving_config());
  auto& world = testbed->world();
  for (std::size_t as = 0; as < world.graph().node_count(); ++as) {
    static_cast<void>(world.routing().table_for(as));
  }
  return testbed;
}

QueryTemplates testbed_templates(const measure::Testbed& testbed) {
  std::vector<dns::DnsName> names;
  for (std::size_t p = 0; p < testbed.provider_count(); ++p) {
    for (auto& name : testbed.content_names(p)) names.push_back(std::move(name));
  }
  return make_templates(names);
}

/// /24s from the routed space of the testbed's world: a random AS block,
/// then a random /24 inside it (router, host and unassigned space alike).
std::vector<std::uint32_t> routed_subnets(measure::Testbed& testbed, std::size_t count,
                                          net::Rng& rng) {
  auto& world = testbed.world();
  const std::size_t ases = world.graph().node_count();
  std::vector<std::uint32_t> subnets;
  subnets.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t block = world.block_of(rng.index(ases)).network().to_uint();
    subnets.push_back(block | (static_cast<std::uint32_t>(rng.uniform(256)) << 8));
  }
  return subnets;
}

/// Zipf(s) sampler over ranks 0..n-1 by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t draw(net::Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform01());
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

std::vector<QueryKey> make_sequence(measure::Testbed& testbed, const QueryTemplates& templates,
                                    bool wide, std::uint64_t seed) {
  net::Rng rng(seed * 0x2545F4914F6CDD1DULL + (wide ? 0xD1DE : 0x407));
  const auto names = static_cast<std::uint32_t>(templates.wires.size());
  std::vector<QueryKey> sequence;
  if (!wide) {
    const auto subnets = routed_subnets(testbed, kHotWorkingSet, rng);
    for (std::size_t i = 0; i < kHotWorkingSet; ++i) {
      sequence.push_back({static_cast<std::uint32_t>(i % names), subnets[i]});
    }
    rng.shuffle(sequence);
    return sequence;
  }
  // The population is (name, /24) pairs: names round-robin by popularity
  // rank over every provider's content names, /24s uniform over the routed
  // space; queries then draw pairs by Zipf rank. Each provider gets a sixth
  // of the traffic at every popularity level, so the mix of provider costs
  // (mapping granularity, answer size) is the same for every seed.
  const auto subnets = routed_subnets(testbed, kWidePopulation, rng);
  std::vector<QueryKey> population;
  population.reserve(kWidePopulation);
  for (std::size_t i = 0; i < kWidePopulation; ++i) {
    population.push_back({static_cast<std::uint32_t>(i % names), subnets[i]});
  }
  const Zipf rank(population.size(), kZipfExponent);
  sequence.reserve(kWideSequence);
  for (std::size_t i = 0; i < kWideSequence; ++i) sequence.push_back(population[rank.draw(rng)]);
  return sequence;
}

/// Sends the sampled queries through a second daemon serving a cache-less
/// resolver on the same testbed, and compares each reply byte for byte with
/// that resolver's in-process answer to the same query. The measured
/// resolver cannot serve as the reference: a cached answer carries the
/// replica rotation of whichever query filled the cache (the CDN rotates by
/// query id), so only a cache-less resolver answers a query one way.
/// Returns the number of replies that differ or are missing.
std::size_t compare_in_process(measure::Testbed& testbed, const QueryTemplates& templates,
                               const std::vector<SampledQuery>& samples) {
  cdn::PublicResolver reference(&testbed.dns_network(), testbed.resolver_address());
  for (std::size_t i = 0; i < testbed.provider_count(); ++i) {
    reference.register_zone(dns::DnsName::must_parse(testbed.profile(i).zone),
                            testbed.authoritative_addresses()[i]);
  }
  dns::DaemonServerConfig config = daemon_config();
  config.listeners = 1;
  config.packet_cache_entries = 0;
  dns::DaemonServer daemon(&reference, config);
  const int fd = open_client_socket();
  std::size_t differ = 0;
  std::vector<std::uint8_t> wire;
  for (const auto& sample : samples) {
    build_query(templates, sample.key, sample.id, wire);
    const auto over_socket = exchange_once(fd, daemon.udp_port(), wire, 2000);
    const auto in_process =
        reference.handle(dns::Message::decode(wire), net::Ipv4Addr(127, 0, 0, 1)).encode();
    if (over_socket != in_process) ++differ;
  }
  ::close(fd);
  daemon.stop();
  return differ;
}

/// This process's IPv4 datagram sockets bound to `port`: the daemon's
/// listeners (DaemonServer does not expose its fds; a client socket never
/// shares their SO_REUSEPORT port).
std::vector<int> udp_sockets_on(std::uint16_t port) {
  std::vector<int> fds;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
    const int fd = std::atoi(entry.path().filename().c_str());
    int type = 0;
    socklen_t type_len = sizeof(type);
    sockaddr_in addr{};
    socklen_t addr_len = sizeof(addr);
    if (::getsockopt(fd, SOL_SOCKET, SO_TYPE, &type, &type_len) == 0 && type == SOCK_DGRAM &&
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) == 0 &&
        addr.sin_family == AF_INET && ntohs(addr.sin_port) == port) {
      fds.push_back(fd);
    }
  }
  return fds;
}

/// The smallest receive buffer among `fds`, in bytes as the kernel reports
/// it (twice the size asked for, to cover its bookkeeping).
int min_rcvbuf(const std::vector<int>& fds) {
  int low = 0;
  for (const int fd : fds) {
    int bytes = 0;
    socklen_t len = sizeof(bytes);
    if (::getsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, &len) == 0) {
      low = low == 0 ? bytes : std::min(low, bytes);
    }
  }
  return low;
}

/// Datagrams the kernel dropped at `fds` for a full receive queue.
std::uint64_t socket_drops(const std::vector<int>& fds) {
  std::uint64_t total = 0;
  for (const int fd : fds) {
    std::uint32_t info[SK_MEMINFO_VARS] = {};
    socklen_t len = sizeof(info);
    if (::getsockopt(fd, SOL_SOCKET, SO_MEMINFO, info, &len) == 0) total += info[SK_MEMINFO_DROPS];
  }
  return total;
}

double min_share(const std::vector<std::uint64_t>& per_socket) {
  std::uint64_t total = 0;
  for (const auto n : per_socket) total += n;
  if (total == 0) return 0.0;
  const auto low = *std::min_element(per_socket.begin(), per_socket.end());
  return static_cast<double>(low) / static_cast<double>(total);
}

std::string shares_text(const std::vector<std::uint64_t>& per_socket) {
  std::uint64_t total = 0;
  for (const auto n : per_socket) total += n;
  std::string out;
  for (const auto n : per_socket) {
    if (!out.empty()) out += " ";
    out += std::to_string(total == 0 ? 0.0 : static_cast<double>(n) / static_cast<double>(total));
  }
  return out;
}

void check_step(const StepResult& step, const std::string& what, Result& result) {
  if (step.wrong > 0) {
    result.fail(what + ": " + std::to_string(step.wrong) + " wrong replies (" +
                (step.problems.empty() ? std::string("?") : step.problems.front()) + ")");
  }
}

void run_end_to_end(const RunOptions& options, bool wide, Result& result) {
  std::vector<double> setups;
  std::unique_ptr<measure::Testbed> testbed;
  std::unique_ptr<ServingRig> rig;
  QueryTemplates templates;
  std::vector<QueryKey> sequence;
  for (int i = 0; i < kSetupRepeats; ++i) {
    rig.reset();
    testbed.reset();
    const std::int64_t start = process_cpu_ns();
    testbed = serving_testbed();
    const std::int64_t built = process_cpu_ns();
    if (i == 0) {
      // The inputs depend only on the seed; generating them is not set-up.
      templates = testbed_templates(*testbed);
      sequence = make_sequence(*testbed, templates, wide, options.seed);
    }
    const std::int64_t rig_start = process_cpu_ns();
    rig = std::make_unique<ServingRig>(&testbed->resolver(), daemon_config(), &templates,
                                       &sequence);
    setups.push_back(static_cast<double>((built - start) + (process_cpu_ns() - rig_start)) *
                     1e-9);
  }
  result.metric("setup_s", median(setups), "s");

  const double reference = wide ? kWideReferenceQps : kHotReferenceQps;
  StepConfig step;
  step.rate_qps = reference;
  step.seconds = options.seconds * kWarmShare;
  const StepResult warm = rig->load().run(step);
  check_step(warm, "warm-up", result);

  // Latency at the reference rate, per window of the phase: p50 is the
  // median over windows of each window's p50. A host preemption of a
  // listener's CPU lands in a window's p99, and on a shared VM such spells
  // can cover half a run, so p99 is the lower quartile over windows of each
  // window's p99: the tail of the calmer quarter of the run. A slower path
  // in the program raises it in every window.
  step.seconds = options.seconds * kLatencyShare;
  std::vector<SampledQuery> samples;
  const StepResult ref = rig->load().run(step, kSampleEvery, &samples);
  check_step(ref, "reference rate", result);
  std::vector<double> window_p99s = ref.window_p99_ms;
  std::sort(window_p99s.begin(), window_p99s.end());
  result.metric("p50_ms", ref.p50_ms, "ms");
  result.metric("p99_ms", percentile_sorted(window_p99s, 0.25), "ms");
  result.context["listener_rcvbuf_bytes"] = std::to_string(rig->listener_rcvbuf());
  const std::uint64_t listener_drops = rig->listener_drops();
  const std::uint64_t client_drops = rig->client_drops();

  // Throughput as the listeners' CPU capacity: replies per second of
  // listener CPU time under a heavy offered load, where recvmmsg batches
  // fill up. CPU time leaves out the time the host preempted the machine,
  // so unlike the highest rate meeting the SLO (reported by the traced
  // run) it does not swing with the machine's CPU share. Queries this
  // overload phase loses are not failures of the run.
  StepConfig load = step;
  load.rate_qps = wide ? kWideLoadQps : kHotLoadQps;
  load.seconds = options.seconds * (1.0 - kWarmShare - kLatencyShare);
  const std::uint64_t cpu_before = rig->listener_cpu_ns();
  const StepResult heavy = rig->load().run(load);
  const std::uint64_t cpu_ns = rig->listener_cpu_ns() - cpu_before;
  const std::uint64_t heavy_drops =
      rig->listener_drops() + rig->client_drops() - listener_drops - client_drops;
  rig->stop();
  check_step(heavy, "heavy load", result);
  result.metric("ops_per_s",
                static_cast<double>(heavy.answered) / (static_cast<double>(cpu_ns) * 1e-9), "1/s");
  result.check(cpu_ns > 0, "listener CPU time was not readable");

  const std::size_t differ = compare_in_process(*testbed, templates, samples);
  result.check(!samples.empty(), "no replies sampled for the in-process comparison");
  result.check(differ == 0, std::to_string(differ) + " of " + std::to_string(samples.size()) +
                                " sampled replies differ from the in-process resolver");
  result.check(min_share(ref.per_socket) >= 0.1, "a listener served under 10% of the replies");

  result.attempted = warm.sent + ref.sent;
  result.failed = warm.unanswered + warm.wrong + ref.unanswered + ref.wrong;
  result.metric("peak_rss_mb", peak_rss_mb(), "MiB");

  result.context["reference_qps"] = std::to_string(reference);
  result.context["latency_samples"] = std::to_string(ref.answered);
  result.context["window_p99_quartiles_ms"] =
      std::to_string(percentile_sorted(window_p99s, 0.25)) + " " +
      std::to_string(percentile_sorted(window_p99s, 0.5)) + " " +
      std::to_string(percentile_sorted(window_p99s, 0.75));
  result.context["latency_windows_on_schedule"] = std::to_string(ref.window_p99_ms.size()) +
                                                 " of " + std::to_string(ref.window_ok.size());
  result.context["socket_shares"] = shares_text(ref.per_socket);
  result.context["lateness_p99_ms"] = std::to_string(ref.lateness_p99_ms);
  // The outputs were still checked; the latency figures of a run whose
  // generator fell behind its schedule are not the daemon's.
  result.context["latency_valid"] =
      ref.lateness_p99_ms <= kLatencyLimitMs ? "yes" : "NO: the generator fell behind its schedule";
  result.context["lateness_max_ms"] = std::to_string(ref.lateness_max_ms);
  result.context["heavy_load_qps"] = std::to_string(load.rate_qps);
  result.context["heavy_load_goodput_qps"] = std::to_string(heavy.goodput_qps);
  result.context["heavy_load_kernel_drops"] = std::to_string(heavy_drops);
  // Kernel drops during warm-up and the reference rate, the phases whose
  // unanswered queries count as failed.
  result.context["kernel_drops_listeners"] = std::to_string(listener_drops);
  result.context["kernel_drops_clients"] = std::to_string(client_drops);
  result.context["compared_replies"] = std::to_string(samples.size());
}

struct Lifetime {
  dns::DaemonStats stats;
  std::uint64_t cpu_ns = 0;
  std::uint64_t kernel_drops = 0;  ///< during `step`, at either end
  int listener_rcvbuf = 0;
  StepResult step;
  CapacitySearch search;
};

/// One daemon lifetime at the reference rate; with `search`, a capacity
/// search follows (counted in neither cpu_ns nor step, but in stats).
Lifetime serve_once(dns::DnsServer* handler, const QueryTemplates& templates,
                    const std::vector<QueryKey>& sequence, double rate, double seconds,
                    obs::Registry* registry, bool search, Result& result) {
  ServingRig rig(handler, daemon_config(), &templates, &sequence, registry);
  const std::uint64_t cpu_before = rig.listener_cpu_ns();
  StepConfig step;
  step.rate_qps = rate;
  step.seconds = seconds;
  Lifetime life;
  life.step = rig.load().run(step);
  life.cpu_ns = rig.listener_cpu_ns() - cpu_before;
  life.kernel_drops = rig.listener_drops() + rig.client_drops();
  life.listener_rcvbuf = rig.listener_rcvbuf();
  if (search) {
    life.search = find_capacity(rig.load(), rate, kStepSeconds, kMaxSearchSteps);
    result.check(life.search.wrong == 0, "wrong replies during the capacity search");
  }
  rig.stop();
  life.stats = rig.daemon().stats();
  check_step(life.step, registry == nullptr ? "untraced pass" : "traced pass", result);
  return life;
}

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

void run_traced(const RunOptions& options, bool wide, Result& result) {
  const auto owned = serving_testbed();
  measure::Testbed& testbed = *owned;
  const std::size_t trees_setup = testbed.world().routing().cached_destinations();
  const QueryTemplates templates = testbed_templates(testbed);
  const std::vector<QueryKey> sequence = make_sequence(testbed, templates, wide, options.seed);
  const double rate = wide ? kWideReferenceQps : kHotReferenceQps;
  const double seconds = options.seconds * 0.3;

  // Untraced pass, then the same inputs again with the registry attached and
  // timing decorators on the resolver and the authoritatives.
  const Lifetime plain = serve_once(&testbed.resolver(), templates, sequence, rate, seconds,
                                   nullptr, /*search=*/true, result);

  obs::Registry registry;
  ResolverProbe resolver_probe(&testbed.resolver());
  const AuthoritativeProbes auth_probes(testbed);
  testbed.set_registry(&registry);
  const dns::CacheStats cache_before = testbed.resolver().cache_stats();
  const Lifetime traced =
      serve_once(&resolver_probe, templates, sequence, rate, seconds, &registry,
                 /*search=*/false, result);
  const dns::CacheStats cache_after = testbed.resolver().cache_stats();
  testbed.set_registry(nullptr);
  const obs::Snapshot snapshot = registry.snapshot();

  const auto& s = traced.stats;
  const auto queries = static_cast<double>(s.udp_queries);
  const auto lookups = static_cast<double>(s.pcache_hits + s.pcache_misses);
  const auto polls = snapshot.counters.count("netio.polls") != 0
                         ? static_cast<double>(snapshot.counters.at("netio.polls"))
                         : 0.0;
  result.metric("server.batch_fill", ratio(queries, static_cast<double>(s.udp_batches)), "ratio");
  result.metric("server.polls_per_query", ratio(polls, queries), "ratio");
  result.metric("server.pcache_hit_ratio", ratio(static_cast<double>(s.pcache_hits), lookups),
                "ratio");
  result.metric("server.malformed", static_cast<double>(s.malformed), "count");
  result.metric("server.handler_failures", static_cast<double>(s.handler_failures), "count");
  result.metric("server.truncated", static_cast<double>(s.truncated), "count");
  result.metric("server.listener_share_min", min_share(traced.step.per_socket), "ratio");
  const double cpu_ns_per_query =
      ratio(static_cast<double>(traced.cpu_ns), static_cast<double>(traced.step.answered));
  result.metric("server.cpu_us_per_query", cpu_ns_per_query / 1000.0, "us");
  result.metric("netio.send_ns_per_query", traced.step.send_ns_per_query, "ns");
  result.metric("netio.recv_ns_per_query", traced.step.recv_ns_per_query, "ns");
  result.metric("loadgen.lateness_p99_ms", traced.step.lateness_p99_ms, "ms");
  result.metric("daemon.qps_at_slo", plain.search.qps_at_slo, "1/s");
  result.metric("topology.routing_trees_setup", static_cast<double>(trees_setup), "count");
  result.metric("topology.routing_trees_run",
                static_cast<double>(testbed.world().routing().cached_destinations()), "count");

  const auto calls = static_cast<double>(resolver_probe.all().calls.load());
  result.metric("resolver.handle_us", resolver_probe.all().mean_us(), "us");
  result.metric("resolver.handle_hit_us", resolver_probe.hits().mean_us(), "us");
  result.metric("resolver.handle_miss_us", resolver_probe.misses().mean_us(), "us");
  result.metric("resolver.upstream_per_query",
                ratio(static_cast<double>(resolver_probe.upstream_calls()), calls), "ratio");
  const auto hits = static_cast<double>(cache_after.hits - cache_before.hits);
  const auto misses = static_cast<double>(cache_after.misses - cache_before.misses);
  result.metric("cache.hit_ratio", ratio(hits, hits + misses), "ratio");
  result.metric("cache.evictions_per_query",
                ratio(static_cast<double>(cache_after.evictions - cache_before.evictions), calls),
                "ratio");
  result.metric("lpm.node_visits_per_lookup",
                ratio(static_cast<double>(cache_after.lpm.node_visits - cache_before.lpm.node_visits),
                      static_cast<double>(cache_after.lpm.lookups - cache_before.lpm.lookups)),
                "ratio");
  result.metric("auth.handle_us", auth_probes.mean_us(), "us");

  // Codec, timed in-process on the workload's own query wires and replies.
  std::uint64_t decode_ns = 0;
  std::uint64_t encode_ns = 0;
  std::vector<std::uint8_t> wire;
  std::vector<std::uint8_t> out;
  const std::size_t n = std::min(kCodecQueries, sequence.size() * 8);
  for (std::size_t i = 0; i < n; ++i) {
    build_query(templates, sequence[i % sequence.size()], static_cast<std::uint16_t>(i), wire);
    std::int64_t t0 = now_ns();
    const auto query = dns::Message::decode(wire);
    std::int64_t t1 = now_ns();
    const auto reply = testbed.resolver().handle(query, net::Ipv4Addr(127, 0, 0, 1));
    const std::int64_t t2 = now_ns();
    reply.encode_to(out);
    const std::int64_t t3 = now_ns();
    decode_ns += static_cast<std::uint64_t>(t1 - t0);
    encode_ns += static_cast<std::uint64_t>(t3 - t2);
    if (reply_problem(out, templates, sequence[i % sequence.size()],
                      static_cast<std::uint16_t>(i)) != nullptr) {
      result.fail("in-process reply failed the reply check");
      break;
    }
  }
  const double decode = static_cast<double>(decode_ns) / static_cast<double>(n);
  const double encode = static_cast<double>(encode_ns) / static_cast<double>(n);
  result.metric("codec.decode_ns", decode, "ns");
  result.metric("codec.encode_ns", encode, "ns");

  // Stage sum: what the layers account for per query against the listener
  // threads' CPU time per query. The generator's own batched syscalls stand
  // in for the daemon's mirror-image recvmmsg/sendmmsg.
  const double miss_share = ratio(static_cast<double>(s.pcache_misses), lookups);
  const double attributed =
      miss_share * (decode + resolver_probe.all().mean_us() * 1000.0 + encode) +
      traced.step.send_ns_per_query + traced.step.recv_ns_per_query;
  result.metric("unattributed_frac", 1.0 - ratio(attributed, cpu_ns_per_query), "ratio");
  const double plain_cpu =
      ratio(static_cast<double>(plain.cpu_ns), static_cast<double>(plain.step.answered));
  result.metric("obs.trace_overhead_frac", 1.0 - ratio(plain_cpu, cpu_ns_per_query), "ratio");

  result.attempted = plain.step.sent + traced.step.sent;
  result.failed = plain.step.unanswered + plain.step.wrong + traced.step.unanswered +
                  traced.step.wrong;
  result.context["pcache_hit_share"] =
      std::to_string(ratio(static_cast<double>(s.pcache_hits), lookups));
  result.context["resolver_cache_hit_share"] = std::to_string(ratio(hits, hits + misses));
  result.context["socket_shares"] = shares_text(traced.step.per_socket);
  result.context["reference_qps"] = std::to_string(rate);
  result.context["kernel_drops_untraced"] = std::to_string(plain.kernel_drops);
  result.context["kernel_drops_traced"] = std::to_string(traced.kernel_drops);
  result.context["listener_rcvbuf_bytes"] = std::to_string(traced.listener_rcvbuf);
  for (std::size_t i = 0; i < plain.search.steps.size(); ++i) {
    result.context["search_step_" + std::to_string(100 + i).substr(1)] = plain.search.steps[i];
  }
}

}  // namespace

ServingRig::ServingRig(dns::DnsServer* handler, const dns::DaemonServerConfig& config,
                       const QueryTemplates* templates, const std::vector<QueryKey>* sequence,
                       obs::Registry* registry)
    : tag_(handler),
      daemon_(std::make_unique<dns::DaemonServer>(&tag_, config, net::Ipv4Addr(127, 0, 0, 1),
                                                   registry)),
      listener_fds_(udp_sockets_on(daemon_->udp_port())) {
  if (listener_fds_.size() != config.listeners) {
    daemon_->stop();
    throw std::runtime_error("found " + std::to_string(listener_fds_.size()) +
                             " daemon listener sockets, expected " +
                             std::to_string(config.listeners));
  }
  for (const int fd : listener_fds_) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &kListenerRcvbufBytes, sizeof(kListenerRcvbufBytes));
  }
  // Probe queries use 100.64.0.0/10 subnets, which no workload sequence
  // draws, so each probe misses the packet cache and reaches the handler.
  std::vector<std::uint8_t> wire;
  for (int attempt = 0; attempt < kMaxProbeSockets && tids_.size() < config.listeners;
       ++attempt) {
    const int fd = open_client_socket();
    const QueryKey probe{0, 0x64400000u + (static_cast<std::uint32_t>(attempt) << 8)};
    build_query(*templates, probe, static_cast<std::uint16_t>(0xF000 + attempt), wire);
    const auto reply = exchange_once(fd, daemon_->udp_port(), wire, 2000);
    const long tid = reply.empty() ? 0 : tag_.last_thread();
    if (tid != 0 && std::find(tids_.begin(), tids_.end(), tid) == tids_.end()) {
      tids_.push_back(tid);
      sockets_.push_back(fd);
    } else {
      ::close(fd);
    }
  }
  if (tids_.size() < config.listeners) {
    for (const int fd : sockets_) ::close(fd);
    daemon_->stop();
    throw std::runtime_error("could not reach every daemon listener from a client socket");
  }
  load_ = std::make_unique<LoadGenerator>(daemon_->udp_port(), sockets_, templates, sequence);
  netio::pin_thread_to_cpu(static_cast<unsigned>(config.listeners));
}

ServingRig::~ServingRig() {
  stop();
  for (const int fd : sockets_) ::close(fd);
}

void ServingRig::stop() {
  daemon_->stop();
  listener_fds_.clear();  // closed by the daemon; the numbers may be reused
}

std::uint64_t ServingRig::listener_drops() const { return socket_drops(listener_fds_); }

std::uint64_t ServingRig::client_drops() const { return socket_drops(sockets_); }

int ServingRig::listener_rcvbuf() const { return min_rcvbuf(listener_fds_); }

std::uint64_t ServingRig::listener_cpu_ns() const {
  std::uint64_t total = 0;
  for (const long tid : tids_) total += task_cpu_ns(tid);
  return total;
}

CapacitySearch find_capacity(LoadGenerator& load, double start_rate, double step_seconds,
                             int max_steps) {
  CapacitySearch search;
  double lo = 0.0;
  double hi = 0.0;  // 0 = no failing rate seen yet
  double rate = start_rate;
  for (int i = 0; i < max_steps; ++i) {
    StepConfig step;
    step.rate_qps = rate;
    step.seconds = step_seconds;
    StepResult result = load.run(step);
    search.wrong += result.wrong;
    bool ok = result.meets_slo();
    if (!ok) {
      // A failure must repeat: one step can land on a stall of the shared
      // machine, and a false failure would end the search too low.
      result = load.run(step);
      search.wrong += result.wrong;
      ok = result.meets_slo();
    }
    search.steps.push_back(std::to_string(static_cast<long>(rate)) + (ok ? " ok" : " FAIL") +
                           " p99_ms=" + std::to_string(result.p99_ms) +
                           " failed=" + std::to_string(result.failed_frac()) +
                           " late_p99_ms=" + std::to_string(result.lateness_p99_ms) +
                           " backlog=" + std::to_string(result.backlog));
    if (!ok) {
      // Let the daemon work off what an overloaded step left queued.
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (ok && rate > lo) {
      search.qps_at_slo = result.goodput_qps;
    }
    if (ok) {
      lo = std::max(lo, rate);
    } else {
      hi = hi == 0.0 ? rate : std::min(hi, rate);
    }
    if (hi == 0.0) {
      rate *= 1.5;
    } else if (lo == 0.0) {
      rate = hi / 1.5;
    } else if (hi / lo < 1.03) {
      break;
    } else {
      rate = std::sqrt(lo * hi);
    }
  }
  return search;
}

void run_daemon(const RunOptions& options, bool wide, Result& result) {
  result.context["threads"] =
      std::to_string(kListeners) + " listeners + 1 load generator";
  result.context["listeners"] = std::to_string(kListeners);
  result.context["sockets"] = std::to_string(kListeners);
  result.context["latency_limit_ms"] = std::to_string(kLatencyLimitMs);
  if (options.trace) {
    run_traced(options, wide, result);
  } else {
    run_end_to_end(options, wide, result);
  }
}

}  // namespace perfbench
