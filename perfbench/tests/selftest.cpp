// The benchmark's own tests: every correctness check it relies on must be
// able to fail. Each case feeds the check a known defect and expects the
// check to report it.
//
//   python3 perfbench/run.py --selftest     (exit 0 when every case passes)
#include <algorithm>
#include <chrono>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign.hpp"
#include "daemon.hpp"
#include "measure/testbed.hpp"
#include "net/error.hpp"

using namespace perfbench;
using namespace drongo;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok    " : "FAIL  ") << what << "\n";
  if (!ok) ++failures;
}

/// Answers every A query with one fixed address and the ECS echo; every
/// `drop_every`-th query fails (the daemon then answers SERVFAIL), and
/// every query first waits `delay`.
class StubServer : public dns::DnsServer {
 public:
  StubServer(int drop_every, std::chrono::microseconds delay)
      : drop_every_(drop_every), delay_(delay) {}

  dns::Message handle(const dns::Message& query, net::Ipv4Addr) override {
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    if (drop_every_ > 0 && ++count_ % static_cast<unsigned>(drop_every_) == 0) {
      throw net::TransientError("stub drops this query");
    }
    dns::Message reply = dns::Message::make_response(query, dns::Rcode::kNoError, 24);
    reply.answers.push_back(
        dns::ResourceRecord::a(query.questions.at(0).name, net::Ipv4Addr(198, 51, 100, 7), 30));
    return reply;
  }

 private:
  int drop_every_;
  std::chrono::microseconds delay_;
  std::atomic<unsigned> count_{0};
};

const std::vector<dns::DnsName>& names() {
  static const std::vector<dns::DnsName> n = {dns::DnsName::must_parse("img.stub.sim"),
                                              dns::DnsName::must_parse("static.stub.sim")};
  return n;
}

std::vector<QueryKey> sequence() {
  std::vector<QueryKey> keys;
  for (std::uint32_t i = 0; i < 4096; ++i) keys.push_back({i % 2, 0x14000000u + (i << 8)});
  return keys;
}

/// The daemon with its packet cache off, so every query reaches the stub.
dns::DaemonServerConfig uncached() {
  dns::DaemonServerConfig config = daemon_config();
  config.packet_cache_entries = 0;
  return config;
}

void reply_check_rejects_defects() {
  const QueryTemplates templates = make_templates(names());
  const QueryKey key{0, 0x14010200u};
  std::vector<std::uint8_t> wire;
  build_query(templates, key, 77, wire);
  dns::Message query = dns::Message::decode(wire);
  dns::Message good = dns::Message::make_response(query, dns::Rcode::kNoError, 24);
  good.answers.push_back(dns::ResourceRecord::a(names()[0], net::Ipv4Addr(1, 1, 1, 1), 30));
  const auto good_wire = good.encode();
  expect(reply_problem(good_wire, templates, key, 77) == nullptr, "reply check accepts a good reply");
  expect(reply_problem(good_wire, templates, key, 78) != nullptr, "reply check rejects a wrong id");
  expect(reply_problem(good_wire, templates, {0, 0x14010300u}, 77) != nullptr,
         "reply check rejects a wrong ECS echo");
  expect(reply_problem(good_wire, templates, {1, 0x14010200u}, 77) != nullptr,
         "reply check rejects a wrong qname");
  dns::Message empty = dns::Message::make_response(query, dns::Rcode::kNoError, 24);
  expect(reply_problem(empty.encode(), templates, key, 77) != nullptr,
         "reply check rejects an empty answer");
  dns::Message nx = dns::Message::make_response(query, dns::Rcode::kNxDomain, 24);
  nx.answers = good.answers;
  expect(reply_problem(nx.encode(), templates, key, 77) != nullptr,
         "reply check rejects a non-NOERROR rcode");
}

void dropping_server_reads_one_percent() {
  const QueryTemplates templates = make_templates(names());
  const auto keys = sequence();
  StubServer stub(100, std::chrono::microseconds(0));
  ServingRig rig(&stub, uncached(), &templates, &keys);
  StepConfig step;
  step.rate_qps = 5000;
  step.seconds = 1.0;
  const StepResult result = rig.load().run(step);
  const double frac = result.failed_frac();
  std::cout << "      dropping stub: failed_frac " << frac << " of " << result.sent << "\n";
  expect(frac > 0.007 && frac < 0.013, "a server failing 1% of queries reads failed_frac ~0.01");
  expect(!result.meets_slo(), "a server failing 1% of queries does not meet the SLO");
}

void delayed_server_shows_in_latency_and_capacity() {
  const QueryTemplates templates = make_templates(names());
  const auto keys = sequence();
  StubServer fast(0, std::chrono::microseconds(0));
  StubServer slow(0, std::chrono::microseconds(400));
  double p50[2] = {0, 0};
  double capacity[2] = {0, 0};
  StubServer* servers[2] = {&fast, &slow};
  for (int i = 0; i < 2; ++i) {
    ServingRig rig(servers[i], uncached(), &templates, &keys);
    StepConfig step;
    step.rate_qps = 1000;
    step.seconds = 1.0;
    p50[i] = rig.load().run(step).p50_ms;
    // The search starts above the slow stub's capacity (two listeners at
    // over 0.4 ms a query): at a few hundred queries per second a shared
    // VM's idle CPUs wake late enough to push p99 past the limit. A noisy
    // spell of the machine can only end a search too low, so the best of
    // three searches is the stub's capacity.
    for (int attempt = 0; attempt < 3; ++attempt) {
      capacity[i] =
          std::max(capacity[i], find_capacity(rig.load(), 5000, 0.3, 10).qps_at_slo);
    }
  }
  std::cout << "      p50_ms " << p50[0] << " -> " << p50[1] << ", qps_at_slo " << capacity[0]
            << " -> " << capacity[1] << "\n";
  expect(p50[1] > p50[0] + 0.3, "a 0.4 ms handler delay raises p50_ms by over 0.3 ms");
  expect(capacity[1] < capacity[0] * 0.5, "a 0.4 ms handler delay lowers qps_at_slo");
}

void perturbed_campaign_fails_digest() {
  measure::TestbedConfig config = ripe_config();
  config.client_count = 3;
  measure::Testbed testbed(config);
  const measure::TrialRunner runner(&testbed, 5);
  std::vector<measure::TrialRecord> records;
  for (std::size_t c = 0; c < 3; ++c) records.push_back(runner.run_task({c, 0, 0, 0.0, 0}));
  auto copy = records;
  expect(campaign_digest(copy) == campaign_digest(records), "equal records give equal digests");
  copy[1].cr.at(0).rtt_ms += 0.001;
  expect(campaign_digest(copy) != campaign_digest(records),
         "a perturbed record changes the campaign digest");
  copy = records;
  copy[2].hops.pop_back();
  expect(campaign_digest(copy) != campaign_digest(records),
         "a dropped hop changes the campaign digest");
}

}  // namespace

int main() {
  try {
    reply_check_rejects_defects();
    dropping_server_reads_one_percent();
    delayed_server_shows_in_latency_and_capacity();
    perturbed_campaign_fails_digest();
  } catch (const std::exception& e) {
    std::cout << "FAIL  aborted: " << e.what() << "\n";
    return 1;
  }
  std::cout << (failures == 0 ? "all checks can fail\n" : "selftest FAILED\n");
  return failures == 0 ? 0 : 1;
}
