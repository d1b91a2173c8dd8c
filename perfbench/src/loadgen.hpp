// Open-loop UDP load generator for the daemon workloads.
//
// Between batches the generator sleeps in ppoll (1 ns timer slack) rather
// than busy-polling: on a machine whose CPU share is capped, a spinning
// generator takes the share the daemon needs and stalls it for milliseconds.
//
// One thread drives one client socket per daemon listener. Queries leave in
// batches (one sendmmsg per socket) on a fixed schedule: batch k is due at
// start + k * period and carries the queries the offered rate owes by then.
// Every query is timed from when its batch was due, not from when it was
// actually sent, so a stalled generator or server charges the wait to
// every query behind it; how late the generator itself ran is reported
// separately, and a step whose generator fell behind by more than the
// latency limit is invalid rather than fast.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "netio/socket.hpp"

namespace perfbench {

/// The distinct queries of a workload: one pre-encoded A query per content
/// name, whose ECS address bytes are patched per query.
struct QueryTemplates {
  /// Wire of each name's query (id 0, ECS 0.0.0.0/24).
  std::vector<std::vector<std::uint8_t>> wires;
  /// Length of the question section (name + type + class) of each wire.
  std::vector<std::size_t> question_bytes;
  /// Offset of the 3 ECS address bytes (the same in every wire: the OPT
  /// record and its ECS option close the message).
  std::vector<std::size_t> ecs_offset;
};

/// One query of the workload's sequence: a name index and an ECS /24.
struct QueryKey {
  std::uint32_t name = 0;
  std::uint32_t subnet = 0;  ///< network address of the /24, host order
};

/// Builds the wire for `key` with DNS id `id` into `out`.
void build_query(const QueryTemplates& templates, const QueryKey& key, std::uint16_t id,
                 std::vector<std::uint8_t>& out);

/// Why a reply is not a correct answer to its query; empty when it is.
/// Checks the id, QR, NOERROR, the echoed question, a non-empty answer
/// section and the ECS option's family, source length and address.
const char* reply_problem(std::span<const std::uint8_t> reply,
                          const QueryTemplates& templates, const QueryKey& key,
                          std::uint16_t id);

/// The SLO's p99 latency limit; a generator later than this is behind.
inline constexpr double kLatencyLimitMs = 2.0;

struct StepConfig {
  double rate_qps = 10'000.0;
  double seconds = 1.0;
};

/// One correctly answered query kept for an out-of-band check.
struct SampledQuery {
  QueryKey key;
  std::uint16_t id = 0;
};

struct StepResult {
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t unanswered = 0;  ///< lost, dropped at send, or never back
  std::uint64_t wrong = 0;       ///< replies that failed reply_problem()
  /// Medians of window_p50_ms and window_p99_ms, where a query's latency
  /// runs from its due time to its reply.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  /// p50 and p99 of each full window the generator kept its schedule in
  /// (of every full window, when it kept it in none).
  std::vector<double> window_p50_ms;
  std::vector<double> window_p99_ms;
  /// Per full window: p99 within the limit, under 0.1% failed, and the
  /// generator's p99 lateness within the limit.
  std::vector<bool> window_ok;
  /// How late batches left: median over windows of each window's p99.
  double lateness_p99_ms = 0.0;
  double lateness_max_ms = 0.0;
  std::uint64_t backlog = 0;  ///< queries in flight when sending stopped
  std::vector<std::uint64_t> per_socket;  ///< replies received per socket
  double send_ns_per_query = 0.0;  ///< time in UdpBatch::flush per datagram
  double recv_ns_per_query = 0.0;  ///< time in UdpBatch::receive per datagram
  /// Correct replies per second, from the first batch's due time to the
  /// last correct reply.
  double goodput_qps = 0.0;
  std::vector<std::string> problems;  ///< first few wrong-reply reasons

  [[nodiscard]] double failed_frac() const {
    return sent == 0 ? 0.0 : static_cast<double>(unanswered + wrong) / static_cast<double>(sent);
  }
  /// No wrong reply, and most windows (overall and in the final third)
  /// met the limit with the generator on schedule.
  [[nodiscard]] bool meets_slo() const;
};

class LoadGenerator {
 public:
  /// `sockets` are connected-to-nothing client sockets (one per listener)
  /// aimed at 127.0.0.1:`port`; `sequence` is cycled from a cursor that
  /// persists across steps.
  LoadGenerator(std::uint16_t port, std::vector<int> sockets,
                const QueryTemplates* templates, const std::vector<QueryKey>* sequence);

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Offers `config.rate_qps` for `config.seconds`, then waits for the
  /// stragglers. The query of every `sample_every`-th correct reply (0 =
  /// none) is kept in `samples`.
  StepResult run(const StepConfig& config, std::size_t sample_every = 0,
                 std::vector<SampledQuery>* samples = nullptr);

 private:
  struct Slot {
    std::int64_t due_ns = 0;
    QueryKey key;
    bool outstanding = false;
    /// Given up on without a reply (its late reply must not count).
    bool written_off = false;
    /// The query this id carried before, when that one was written off: a
    /// late reply to it can still arrive and must not read as wrong.
    QueryKey abandoned;
    bool has_abandoned = false;
  };

  /// Per-window tallies of the running step, by due time.
  struct Window {
    std::uint64_t sent = 0;
    std::uint64_t failed = 0;
    std::vector<double> latency_ms;
    std::vector<double> lateness_ms;
  };
  Window& window_of(std::int64_t due_ns);

  std::size_t receive_all(StepResult& result, std::size_t sample_every,
                          std::vector<SampledQuery>* samples, std::uint64_t& recv_ns);

  sockaddr_in dest_{};
  std::vector<int> sockets_;
  const QueryTemplates* templates_;
  const std::vector<QueryKey>* sequence_;
  std::size_t cursor_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t replies_seen_ = 0;
  std::vector<Slot> slots_;
  std::int64_t step_start_ = 0;
  std::int64_t last_reply_ns_ = 0;
  std::int64_t window_ns_ = 1;
  std::vector<Window> windows_;
  std::vector<std::unique_ptr<drongo::netio::UdpBatch>> send_batches_;
  drongo::netio::UdpBatch recv_batch_;
  std::vector<std::uint8_t> scratch_;
};

/// Opens a client UDP socket on loopback (nonblocking, enlarged buffers).
/// Caller owns the fd.
int open_client_socket();

/// Sends one query on `fd` and waits up to `timeout_ms` for its reply.
/// Returns the reply (empty on timeout).
std::vector<std::uint8_t> exchange_once(int fd, std::uint16_t port,
                                        std::span<const std::uint8_t> query, int timeout_ms);

}  // namespace perfbench
