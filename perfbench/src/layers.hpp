// Timing decorators that measure a layer from outside: each wraps a
// dns::DnsServer and times the calls that reach it, without any tracing
// inside the library.
//
// InMemoryDnsNetwork::register_server replaces the server at an address, so
// re-registering a decorator at the resolver's or an authoritative's
// address puts it on every exchange that reaches that server.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "cdn/authoritative.hpp"
#include "dns/server.hpp"
#include "measure/testbed.hpp"

namespace perfbench {

/// Call count and total wall time of one decorated layer.
struct LayerTime {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> total_ns{0};

  void add(std::uint64_t ns) {
    calls.fetch_add(1, std::memory_order_relaxed);
    total_ns.fetch_add(ns, std::memory_order_relaxed);
  }
  [[nodiscard]] double mean_us() const;
};

/// Forwards to an authoritative, timing every call and counting it as an
/// upstream exchange of the calling thread. The resolver's upstream
/// exchange runs on the thread that called its handle(), so ResolverProbe
/// classifies each of its calls as a cache hit or miss by that thread's
/// count, even while other threads resolve concurrently.
class UpstreamServer : public drongo::dns::DnsServer {
 public:
  explicit UpstreamServer(drongo::dns::DnsServer* inner) : inner_(inner) {}

  drongo::dns::Message handle(const drongo::dns::Message& query,
                              drongo::net::Ipv4Addr source) override;

  [[nodiscard]] const LayerTime& time() const { return time_; }

 private:
  drongo::dns::DnsServer* inner_;
  LayerTime time_;
};

/// One UpstreamServer per provider, re-registered at the testbed's
/// authoritative addresses in front of an equivalent CdnAuthoritative (the
/// testbed's own are private; the server is stateless beyond its provider).
class AuthoritativeProbes {
 public:
  explicit AuthoritativeProbes(drongo::measure::Testbed& testbed);
  AuthoritativeProbes(const AuthoritativeProbes&) = delete;
  AuthoritativeProbes& operator=(const AuthoritativeProbes&) = delete;

  /// Mean time per call over every provider's authoritative.
  [[nodiscard]] double mean_us() const;

 private:
  std::vector<std::unique_ptr<drongo::cdn::CdnAuthoritative>> servers_;
  std::vector<std::unique_ptr<UpstreamServer>> probes_;
};

/// Wraps the resolver: times every call and splits the times into cache
/// hits and misses by the calling thread's upstream delta.
class ResolverProbe : public drongo::dns::DnsServer {
 public:
  explicit ResolverProbe(drongo::dns::DnsServer* inner) : inner_(inner) {}

  drongo::dns::Message handle(const drongo::dns::Message& query,
                              drongo::net::Ipv4Addr source) override;

  [[nodiscard]] const LayerTime& all() const { return all_; }
  [[nodiscard]] const LayerTime& hits() const { return hits_; }
  [[nodiscard]] const LayerTime& misses() const { return misses_; }
  [[nodiscard]] std::uint64_t upstream_calls() const {
    return upstream_.load(std::memory_order_relaxed);
  }

 private:
  drongo::dns::DnsServer* inner_;
  LayerTime all_;
  LayerTime hits_;
  LayerTime misses_;
  std::atomic<std::uint64_t> upstream_{0};
};

/// Forwards untimed, but remembers the kernel thread id of the latest caller.
/// The daemon calls its handler on the listener thread that received the
/// datagram, so sending one uncached probe query per client socket tells
/// which listener the kernel's SO_REUSEPORT hash gave that socket.
class ThreadTagServer : public drongo::dns::DnsServer {
 public:
  explicit ThreadTagServer(drongo::dns::DnsServer* inner) : inner_(inner) {}

  drongo::dns::Message handle(const drongo::dns::Message& query,
                              drongo::net::Ipv4Addr source) override;

  /// Thread id of the most recent call, or 0 before any.
  [[nodiscard]] long last_thread() const { return last_.load(std::memory_order_acquire); }

 private:
  drongo::dns::DnsServer* inner_;
  std::atomic<long> last_{0};
};

/// Kernel thread id of the caller.
long current_tid();

/// CPU time the kernel has charged to thread `tid` of this process, in ns
/// (from /proc/self/task/<tid>/schedstat); 0 if unreadable.
std::uint64_t task_cpu_ns(long tid);

}  // namespace perfbench
