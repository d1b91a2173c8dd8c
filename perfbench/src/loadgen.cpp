#include "loadgen.hpp"

#include <arpa/inet.h>
#include <poll.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "report.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kIdSpace = 1u << 16;
/// A window whose batches left at most this late (p99) is on schedule.
constexpr double kOnScheduleMs = 0.25;
/// One batch per socket leaves every 100 us.
constexpr std::int64_t kPeriodNs = 100'000;
constexpr std::size_t kBatch = 64;
constexpr std::size_t kDatagram = 1500;
/// How long a step waits for stragglers after its last batch.
constexpr std::int64_t kDrainNs = 200'000'000;
/// Windows hold at least this many queries (and last at least this long),
/// so each window's p99 has 10 samples beyond it; a shorter step is one
/// window.
constexpr double kWindowSamples = 1000.0;
constexpr double kMinWindowSeconds = 0.05;

std::uint16_t read16(std::span<const std::uint8_t> w, std::size_t at) {
  return static_cast<std::uint16_t>((w[at] << 8) | w[at + 1]);
}

/// Offset just past the (possibly compressed) name at `at`, or 0 when the
/// name runs off the end.
std::size_t skip_name(std::span<const std::uint8_t> w, std::size_t at) {
  while (at < w.size()) {
    const std::uint8_t len = w[at];
    if ((len & 0xC0) == 0xC0) return at + 2 <= w.size() ? at + 2 : 0;
    if (len == 0) return at + 1;
    at += 1u + len;
  }
  return 0;
}

}  // namespace

void build_query(const QueryTemplates& templates, const QueryKey& key, std::uint16_t id,
                 std::vector<std::uint8_t>& out) {
  const auto& wire = templates.wires[key.name];
  out.assign(wire.begin(), wire.end());
  out[0] = static_cast<std::uint8_t>(id >> 8);
  out[1] = static_cast<std::uint8_t>(id & 0xFF);
  const std::size_t at = templates.ecs_offset[key.name];
  out[at] = static_cast<std::uint8_t>(key.subnet >> 24);
  out[at + 1] = static_cast<std::uint8_t>(key.subnet >> 16);
  out[at + 2] = static_cast<std::uint8_t>(key.subnet >> 8);
}

const char* reply_problem(std::span<const std::uint8_t> reply,
                          const QueryTemplates& templates, const QueryKey& key,
                          std::uint16_t id) {
  if (reply.size() < 12) return "short reply";
  if (read16(reply, 0) != id) return "id mismatch";
  if ((reply[2] & 0x80) == 0) return "QR bit clear";
  if ((reply[3] & 0x0F) != 0) return "rcode is not NOERROR";
  if (read16(reply, 4) != 1) return "question count is not 1";
  const std::uint16_t answers = read16(reply, 6);
  if (answers == 0) return "empty answer section";
  const auto& wire = templates.wires[key.name];
  const std::size_t qbytes = templates.question_bytes[key.name];
  if (reply.size() < 12 + qbytes ||
      std::memcmp(reply.data() + 12, wire.data() + 12, qbytes) != 0) {
    return "question not echoed";
  }
  std::size_t at = 12 + qbytes;
  const std::size_t records = static_cast<std::size_t>(answers) + read16(reply, 8) +
                              read16(reply, 10);
  for (std::size_t r = 0; r < records; ++r) {
    at = skip_name(reply, at);
    if (at == 0 || at + 10 > reply.size()) return "truncated record";
    const std::uint16_t type = read16(reply, at);
    const std::uint16_t rdlen = read16(reply, at + 8);
    const std::size_t rdata = at + 10;
    if (rdata + rdlen > reply.size()) return "truncated rdata";
    if (type == 41) {  // OPT: look for the ECS option (code 8)
      std::size_t opt = rdata;
      while (opt + 4 <= rdata + rdlen) {
        const std::uint16_t code = read16(reply, opt);
        const std::uint16_t len = read16(reply, opt + 2);
        if (code == 8) {
          if (len != 7 || read16(reply, opt + 4) != 1 || reply[opt + 6] != 24) {
            return "ECS echo has the wrong family or source length";
          }
          const std::uint8_t expect[3] = {static_cast<std::uint8_t>(key.subnet >> 24),
                                          static_cast<std::uint8_t>(key.subnet >> 16),
                                          static_cast<std::uint8_t>(key.subnet >> 8)};
          if (std::memcmp(reply.data() + opt + 8, expect, 3) != 0) {
            return "ECS echo has the wrong address";
          }
          return nullptr;
        }
        opt += 4u + len;
      }
    }
    at = rdata + rdlen;
  }
  return "no ECS option echoed";
}

bool StepResult::meets_slo() const {
  // A strict majority of all windows and of the final third must pass: a
  // growing backlog fails every window after it crosses the limit.
  auto majority = [&](std::size_t from) {
    const std::size_t n = window_ok.size() - from;
    const auto good = static_cast<std::size_t>(
        std::count(window_ok.begin() + static_cast<std::ptrdiff_t>(from), window_ok.end(), true));
    return n > 0 && 2 * good > n;
  };
  return wrong == 0 && majority(0) && majority(window_ok.size() - (window_ok.size() + 2) / 3);
}

LoadGenerator::LoadGenerator(std::uint16_t port, std::vector<int> sockets,
                             const QueryTemplates* templates,
                             const std::vector<QueryKey>* sequence)
    : sockets_(std::move(sockets)),
      templates_(templates),
      sequence_(sequence),
      slots_(kIdSpace),
      recv_batch_(kBatch, kDatagram) {
  if (sockets_.empty() || sequence_->empty()) {
    throw std::invalid_argument("load generator needs sockets and queries");
  }
  dest_.sin_family = AF_INET;
  dest_.sin_port = htons(port);
  dest_.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  for (std::size_t i = 0; i < sockets_.size(); ++i) {
    send_batches_.push_back(std::make_unique<drongo::netio::UdpBatch>(kBatch, kDatagram));
  }
  // Wake-ups land on the schedule, not up to the default 50 us later.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
}

LoadGenerator::Window& LoadGenerator::window_of(std::int64_t due_ns) {
  const auto w = static_cast<std::size_t>(std::max<std::int64_t>(0, due_ns - step_start_) / window_ns_);
  return windows_[std::min(w, windows_.size() - 1)];
}

std::size_t LoadGenerator::receive_all(StepResult& result,
                                       std::size_t sample_every,
                                       std::vector<SampledQuery>* samples,
                                       std::uint64_t& recv_ns) {
  std::size_t total = 0;
  for (std::size_t s = 0; s < sockets_.size(); ++s) {
    for (;;) {
      const std::int64_t t0 = now_ns();
      const std::size_t n = recv_batch_.receive(sockets_[s]);
      const std::int64_t t1 = now_ns();
      if (n == 0) break;  // an empty poll is not a datagram's cost
      recv_ns += static_cast<std::uint64_t>(t1 - t0);
      total += n;
      for (std::size_t i = 0; i < n; ++i) {
        const auto payload = recv_batch_.payload(i);
        if (payload.size() < 2) {
          ++result.wrong;
          continue;
        }
        const std::uint16_t id = read16(payload, 0);
        Slot& slot = slots_[id];
        if (!slot.outstanding) continue;  // late reply to a query already written off
        const char* problem = reply_problem(payload, *templates_, slot.key, id);
        if (problem != nullptr && slot.has_abandoned &&
            reply_problem(payload, *templates_, slot.abandoned, id) == nullptr) {
          continue;  // the written-off query's late reply, not this one's
        }
        if (problem != nullptr) {
          ++result.wrong;
          ++window_of(slot.due_ns).failed;
          if (result.problems.size() < 5) result.problems.emplace_back(problem);
        } else {
          ++result.answered;
          ++result.per_socket[s];
          last_reply_ns_ = t1;
          window_of(slot.due_ns).latency_ms.push_back(static_cast<double>(t1 - slot.due_ns) * 1e-6);
          ++replies_seen_;
          if (samples != nullptr && sample_every > 0 && replies_seen_ % sample_every == 0) {
            samples->push_back({slot.key, id});
          }
        }
        slot.outstanding = false;
      }
    }
  }
  return total;
}

StepResult LoadGenerator::run(const StepConfig& config, std::size_t sample_every,
                              std::vector<SampledQuery>* samples) {
  StepResult result;
  result.per_socket.assign(sockets_.size(), 0);
  std::vector<std::vector<std::uint64_t>> staged_seqs(sockets_.size());
  std::vector<pollfd> fds;
  for (const int fd : sockets_) fds.push_back({fd, POLLIN, 0});
  std::uint64_t send_ns = 0;
  std::uint64_t recv_ns = 0;
  std::uint64_t sent_datagrams = 0;
  std::uint64_t received = 0;

  const double per_batch = config.rate_qps * kPeriodNs * 1e-9;
  const std::int64_t start = now_ns() + 200'000;
  const std::int64_t stop_sending = start + static_cast<std::int64_t>(config.seconds * 1e9);
  step_start_ = start;
  last_reply_ns_ = start;
  window_ns_ = static_cast<std::int64_t>(
      std::min(config.seconds,
               std::max(kMinWindowSeconds, kWindowSamples / config.rate_qps)) * 1e9);
  windows_.assign(static_cast<std::size_t>((stop_sending - start) / window_ns_) + 1, Window{});
  auto lose = [&](Slot& slot) {  // written off: counted failed, late reply ignored
    slot.outstanding = false;
    slot.written_off = true;
    ++result.unanswered;
    ++window_of(slot.due_ns).failed;
  };
  std::uint64_t batch = 0;
  bool backlog_taken = false;

  auto flush = [&](std::size_t s) {
    auto& io = *send_batches_[s];
    if (io.staged() == 0) return;
    const std::size_t staged = io.staged();
    const std::int64_t t0 = now_ns();
    const std::size_t sent = io.flush(sockets_[s]);
    send_ns += static_cast<std::uint64_t>(now_ns() - t0);
    sent_datagrams += sent;
    for (std::size_t i = sent; i < staged; ++i) {  // dropped under backpressure
      lose(slots_[staged_seqs[s][i] % kIdSpace]);
    }
    staged_seqs[s].clear();
  };

  for (;;) {
    std::int64_t now = now_ns();
    const std::int64_t due = start + static_cast<std::int64_t>(batch) * kPeriodNs;
    if (due < stop_sending && now >= due) {
      const double late_ms = static_cast<double>(now - due) * 1e-6;
      result.lateness_max_ms = std::max(result.lateness_max_ms, late_ms);
      window_of(due).lateness_ms.push_back(late_ms);
      const auto owed_after = static_cast<std::uint64_t>(per_batch * static_cast<double>(batch + 1));
      const auto owed_before = static_cast<std::uint64_t>(per_batch * static_cast<double>(batch));
      for (std::uint64_t q = owed_before; q < owed_after; ++q) {
        const std::uint64_t seq = next_seq_++;
        Slot& slot = slots_[seq % kIdSpace];
        if (slot.outstanding) lose(slot);  // id reused: the old query is written off
        const bool had_lost_query = slot.written_off;
        const QueryKey previous = slot.key;
        const std::size_t s = seq % sockets_.size();
        const QueryKey key = (*sequence_)[cursor_];
        cursor_ = (cursor_ + 1) % sequence_->size();
        build_query(*templates_, key, static_cast<std::uint16_t>(seq % kIdSpace), scratch_);
        auto& io = *send_batches_[s];
        if (io.staged() == io.batch_size()) flush(s);
        io.stage(dest_, scratch_);
        staged_seqs[s].push_back(seq);
        slot = Slot{due, key, true, false, previous, had_lost_query};
        ++result.sent;
        ++window_of(due).sent;
      }
      for (std::size_t s = 0; s < sockets_.size(); ++s) flush(s);
      ++batch;
      continue;  // catch up on any batch that is already due
    }
    received += receive_all(result, sample_every, samples, recv_ns);
    now = now_ns();
    if (now >= stop_sending) {
      std::uint64_t in_flight = 0;
      for (const Slot& slot : slots_) in_flight += slot.outstanding ? 1 : 0;
      if (!backlog_taken) {
        result.backlog = in_flight;
        backlog_taken = true;
      }
      if (in_flight == 0 || now >= stop_sending + kDrainNs) break;
    }
    const std::int64_t next = due < stop_sending ? due : now + 1'000'000;
    const std::int64_t wait = next - now_ns();
    if (wait > 0) {
      timespec timeout{static_cast<time_t>(wait / 1'000'000'000),
                       static_cast<long>(wait % 1'000'000'000)};
      ppoll(fds.data(), fds.size(), &timeout, nullptr);
    }
  }
  if (last_reply_ns_ > start) {
    result.goodput_qps = static_cast<double>(result.answered) /
                         (static_cast<double>(last_reply_ns_ - start) * 1e-9);
  }
  for (Slot& slot : slots_) {
    if (slot.outstanding) lose(slot);
  }
  // Robust figures: per full window, then the median over windows, so one
  // stall of the shared machine moves a window, not the result. Latency runs
  // from each query's due time, so a window whose generator left late
  // carries the generator's delay: its p50 and p99 are the generator's, and
  // only on-schedule windows enter them (all windows, if none was).
  const std::size_t full = windows_.size() - 1;  // the last window is partial
  std::vector<double> late99s;
  std::vector<double> p50s;
  std::vector<double> p99s;
  for (std::size_t w = 0; w < full; ++w) {
    Window& window = windows_[w];
    std::sort(window.latency_ms.begin(), window.latency_ms.end());
    std::sort(window.lateness_ms.begin(), window.lateness_ms.end());
    const double p50 = percentile_sorted(window.latency_ms, 0.50);
    const double p99 = percentile_sorted(window.latency_ms, 0.99);
    const double late99 = percentile_sorted(window.lateness_ms, 0.99);
    late99s.push_back(late99);
    result.window_ok.push_back(!window.latency_ms.empty() && p99 <= kLatencyLimitMs &&
                               window.failed * 1000 < window.sent && late99 <= kLatencyLimitMs);
    p50s.push_back(p50);
    p99s.push_back(p99);
    if (late99 <= kOnScheduleMs) {
      result.window_p50_ms.push_back(p50);
      result.window_p99_ms.push_back(p99);
    }
  }
  if (result.window_p50_ms.empty()) {
    result.window_p50_ms = p50s;
    result.window_p99_ms = p99s;
  }
  result.p50_ms = median(result.window_p50_ms);
  result.p99_ms = median(result.window_p99_ms);
  result.lateness_p99_ms = median(late99s);
  result.send_ns_per_query =
      sent_datagrams == 0 ? 0.0 : static_cast<double>(send_ns) / static_cast<double>(sent_datagrams);
  result.recv_ns_per_query =
      received == 0 ? 0.0 : static_cast<double>(recv_ns) / static_cast<double>(received);
  return result;
}

int open_client_socket() {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  const int bytes = 4 << 20;
  setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
  setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
  sockaddr_in local{};
  local.sin_family = AF_INET;
  local.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&local), sizeof(local)) != 0) {
    ::close(fd);
    throw std::runtime_error("bind() failed");
  }
  return fd;
}

std::vector<std::uint8_t> exchange_once(int fd, std::uint16_t port,
                                        std::span<const std::uint8_t> query, int timeout_ms) {
  sockaddr_in dest{};
  dest.sin_family = AF_INET;
  dest.sin_port = htons(port);
  dest.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::sendto(fd, query.data(), query.size(), 0, reinterpret_cast<const sockaddr*>(&dest),
               sizeof(dest)) < 0) {
    return {};
  }
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(timeout_ms) * 1'000'000;
  std::vector<std::uint8_t> buffer(kDatagram);
  while (now_ns() < deadline) {
    pollfd pfd{fd, POLLIN, 0};
    ::poll(&pfd, 1, 10);
    const ssize_t n = ::recv(fd, buffer.data(), buffer.size(), 0);
    if (n >= 2 && buffer[0] == query[0] && buffer[1] == query[1]) {
      buffer.resize(static_cast<std::size_t>(n));
      return buffer;
    }
  }
  return {};
}

}  // namespace perfbench
