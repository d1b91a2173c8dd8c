// daemon_hot and daemon_wide: open-loop UDP load against dns::DaemonServer
// serving the testbed's public resolver over loopback.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dns/daemon_server.hpp"
#include "layers.hpp"
#include "loadgen.hpp"
#include "report.hpp"

namespace perfbench {

/// Listener threads of the measured daemon.
inline constexpr std::size_t kListeners = 2;

/// The measured daemon's configuration: kListeners UDP listeners pinned to
/// CPUs 0..kListeners-1, TCP off, everything else at the daemon's defaults
/// (packet cache on).
drongo::dns::DaemonServerConfig daemon_config();

/// Receive buffer given to the measured daemon's listener sockets (the
/// kernel caps it at net.core.rmem_max). DaemonServer leaves them at the
/// kernel default, 208 KiB or about 270 small loopback datagrams, which a
/// listener fills in under 30 ms at daemon_hot's reference rate: a single
/// host preemption of its CPU that long drops queries in the kernel. A
/// deployed DNS server raises it (cf. unbound's so-rcvbuf).
inline constexpr int kListenerRcvbufBytes = 4 << 20;

/// One query template per name (see QueryTemplates).
QueryTemplates make_templates(const std::vector<drongo::dns::DnsName>& names);

/// A daemon serving `handler` plus a load generator holding one client
/// socket per listener. The sockets are chosen by probing: each candidate
/// sends one uncached query, and the handler's caller thread shows which
/// listener the kernel hashed it to; a socket is kept only if it reaches a
/// listener no kept socket reaches yet. The constructing thread, which
/// drives the load, is pinned to the CPU after the listeners'. The
/// daemon's listener sockets get kListenerRcvbufBytes of receive buffer.
class ServingRig {
 public:
  ServingRig(drongo::dns::DnsServer* handler, const drongo::dns::DaemonServerConfig& config,
             const QueryTemplates* templates, const std::vector<QueryKey>* sequence,
             drongo::obs::Registry* registry = nullptr);
  ~ServingRig();
  ServingRig(const ServingRig&) = delete;
  ServingRig& operator=(const ServingRig&) = delete;

  [[nodiscard]] LoadGenerator& load() { return *load_; }
  [[nodiscard]] drongo::dns::DaemonServer& daemon() { return *daemon_; }
  /// Kernel thread ids of the listeners, in socket order.
  [[nodiscard]] const std::vector<long>& listener_threads() const { return tids_; }
  /// CPU time charged to the listener threads so far, in ns.
  [[nodiscard]] std::uint64_t listener_cpu_ns() const;
  /// Datagrams the kernel dropped so far because a socket's receive queue
  /// was full: queries at the daemon's listeners, replies at the
  /// generator's sockets. Readable until stop().
  [[nodiscard]] std::uint64_t listener_drops() const;
  [[nodiscard]] std::uint64_t client_drops() const;
  /// The smallest listener receive buffer, as the kernel reports it.
  [[nodiscard]] int listener_rcvbuf() const;
  /// Stops the daemon (its counters are exact afterwards).
  void stop();

 private:
  ThreadTagServer tag_;
  std::unique_ptr<drongo::dns::DaemonServer> daemon_;
  std::vector<int> listener_fds_;
  std::vector<int> sockets_;
  std::vector<long> tids_;
  std::unique_ptr<LoadGenerator> load_;
};

/// The highest offered rate meeting the SLO, found by growing the rate
/// from `start_rate` by 1.5x until a step fails twice in a row and then
/// bisecting, with `step_seconds` per step, at most `max_steps` steps.
struct CapacitySearch {
  /// Replies per second actually received at the highest passing step.
  double qps_at_slo = 0.0;
  std::vector<std::string> steps;  ///< one line per step: rate, verdict, p99, failures
  std::uint64_t wrong = 0;                     ///< wrong replies over all steps
};
CapacitySearch find_capacity(LoadGenerator& load, double start_rate, double step_seconds,
                             int max_steps);

/// Runs daemon_hot (`wide` false) or daemon_wide and fills `result`.
void run_daemon(const RunOptions& options, bool wide, Result& result);

}  // namespace perfbench
