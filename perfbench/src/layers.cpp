#include "layers.hpp"

#include <sys/syscall.h>
#include <unistd.h>

#include <fstream>
#include <string>

#include "report.hpp"

namespace perfbench {

using drongo::dns::Message;
using drongo::net::Ipv4Addr;

double LayerTime::mean_us() const {
  const std::uint64_t n = calls.load(std::memory_order_relaxed);
  return n == 0 ? 0.0
                : static_cast<double>(total_ns.load(std::memory_order_relaxed)) /
                      static_cast<double>(n) / 1000.0;
}

namespace {
/// Upstream exchanges made by the calling thread (see UpstreamServer).
thread_local std::uint64_t tls_upstream_calls = 0;
}  // namespace

Message UpstreamServer::handle(const Message& query, Ipv4Addr source) {
  ++tls_upstream_calls;
  const std::int64_t start = now_ns();
  Message reply = inner_->handle(query, source);
  time_.add(static_cast<std::uint64_t>(now_ns() - start));
  return reply;
}

AuthoritativeProbes::AuthoritativeProbes(drongo::measure::Testbed& testbed) {
  for (std::size_t i = 0; i < testbed.provider_count(); ++i) {
    servers_.push_back(std::make_unique<drongo::cdn::CdnAuthoritative>(&testbed.provider(i)));
    probes_.push_back(std::make_unique<UpstreamServer>(servers_.back().get()));
    testbed.dns_network().register_server(testbed.authoritative_addresses()[i],
                                          probes_.back().get());
  }
}

double AuthoritativeProbes::mean_us() const {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  for (const auto& probe : probes_) {
    calls += probe->time().calls.load(std::memory_order_relaxed);
    total_ns += probe->time().total_ns.load(std::memory_order_relaxed);
  }
  return calls == 0 ? 0.0 : static_cast<double>(total_ns) / static_cast<double>(calls) / 1000.0;
}

Message ResolverProbe::handle(const Message& query, Ipv4Addr source) {
  const std::uint64_t upstream_before = tls_upstream_calls;
  const std::int64_t start = now_ns();
  Message reply = inner_->handle(query, source);
  const auto ns = static_cast<std::uint64_t>(now_ns() - start);
  const std::uint64_t upstream = tls_upstream_calls - upstream_before;
  all_.add(ns);
  (upstream == 0 ? hits_ : misses_).add(ns);
  upstream_.fetch_add(upstream, std::memory_order_relaxed);
  return reply;
}

Message ThreadTagServer::handle(const Message& query, Ipv4Addr source) {
  last_.store(current_tid(), std::memory_order_release);
  return inner_->handle(query, source);
}

long current_tid() {
  thread_local const long tid = static_cast<long>(::syscall(SYS_gettid));
  return tid;
}

std::uint64_t task_cpu_ns(long tid) {
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/schedstat");
  std::uint64_t on_cpu_ns = 0;
  if (!(in >> on_cpu_ns)) return 0;
  return on_cpu_ns;
}

}  // namespace perfbench
