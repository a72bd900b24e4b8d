#include "loadgen.h"

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

#include "serve/net/net_client.h"
#include "serve/net/protocol.h"

namespace cqads::e2e {

namespace {

using Clock = std::chrono::steady_clock;
using serve::net::NetClient;
using serve::net::Request;
using serve::net::Response;

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

Request MakeAsk(std::uint64_t id, const PoolQuestion& q) {
  Request request;
  request.id = id;
  request.method = q.domain.empty() ? "ask" : "ask_in_domain";
  request.domain = q.domain;
  request.question = q.text;
  return request;
}

/// Per-connection tallies, merged into the PhaseResult at the end.
struct ConnTally {
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::vector<double> latency_ms;
  std::vector<double> at_s;
  ParityLog parity;

  void Answer(const Response& response, std::uint32_t item, double ms,
              double at, const ParityScope& scope) {
    if (!response.ok()) {
      ++failed;
      return;
    }
    ++ok;
    latency_ms.push_back(ms);
    at_s.push_back(at);
    if (scope.skip_domain.empty() || response.domain != scope.skip_domain) {
      parity.Record(item, response.canonical);
    }
  }
};

void Merge(std::vector<ConnTally>* tallies, PhaseResult* out) {
  for (ConnTally& t : *tallies) {
    out->ok += t.ok;
    out->failed += t.failed;
    out->latency_ms.insert(out->latency_ms.end(), t.latency_ms.begin(),
                           t.latency_ms.end());
    out->at_s.insert(out->at_s.end(), t.at_s.begin(), t.at_s.end());
    out->parity.push_back(std::move(t.parity));
  }
}

std::vector<NetClient> Connect(const std::string& socket_path,
                               std::size_t conns) {
  std::vector<NetClient> clients;
  for (std::size_t c = 0; c < conns; ++c) {
    auto client = NetClient::ConnectUnix(socket_path);
    if (!client.ok()) {
      std::fprintf(stderr, "connect failed: %s\n",
                   client.status().ToString().c_str());
      break;
    }
    clients.push_back(std::move(client).value());
  }
  return clients;
}

}  // namespace

PhaseResult RunOpenLoop(const std::string& socket_path,
                        const std::vector<PoolQuestion>& pool,
                        const std::vector<Arrival>& schedule,
                        std::size_t conns, const ParityScope& scope) {
  PhaseResult result;
  result.attempted = schedule.size();
  std::vector<NetClient> clients = Connect(socket_path, conns);
  if (clients.size() != conns || conns == 0) {
    result.failed = schedule.size();
    return result;
  }

  std::vector<ConnTally> tallies(conns);
  // sent[c]: requests written on connection c; the receiver of c stops once
  // the sender is done and it has seen that many answers. The trailing ping
  // (id 0) wakes a receiver blocked after `done` flips.
  std::unique_ptr<std::atomic<std::size_t>[]> sent(
      new std::atomic<std::size_t>[conns]);
  for (std::size_t c = 0; c < conns; ++c) sent[c].store(0);
  std::atomic<std::size_t> received_total{0};
  std::atomic<bool> done{false};
  Clock::time_point last_answer = Clock::now();
  std::vector<Clock::time_point> last_answers(conns, last_answer);

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  auto due = [&](std::size_t k) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(schedule[k].at_s));
  };

  std::vector<std::thread> receivers;
  for (std::size_t c = 0; c < conns; ++c) {
    receivers.emplace_back([&, c] {
      std::size_t received = 0;
      for (;;) {
        if (done.load(std::memory_order_acquire) &&
            received == sent[c].load(std::memory_order_acquire)) {
          break;
        }
        auto response = clients[c].Receive();
        const Clock::time_point now = Clock::now();
        if (!response.ok()) break;  // unanswered requests count as failed
        if (response.value().id == 0) continue;  // the ping sentinel
        const std::size_t k = response.value().id - 1;
        ++received;
        received_total.fetch_add(1, std::memory_order_relaxed);
        last_answers[c] = now;
        tallies[c].Answer(response.value(), schedule[k].item,
                          MsBetween(due(k), now), schedule[k].at_s, scope);
      }
    });
  }

  // Wake the sender as close to each due time as the kernel allows (the
  // default 50 us timer slack would add up to that much to every send).
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  result.lag_ms.reserve(schedule.size());
  for (std::size_t k = 0; k < schedule.size(); ++k) {
    const Clock::time_point when = due(k);
    std::this_thread::sleep_until(when);
    result.lag_ms.push_back(MsBetween(when, Clock::now()));
    const std::size_t c = k % conns;
    // A failed send is never answered: it counts as failed below.
    if (!clients[c].Send(MakeAsk(k + 1, pool[schedule[k].item])).ok()) {
      continue;
    }
    sent[c].fetch_add(1, std::memory_order_release);
  }
  std::size_t sent_total = 0;
  for (std::size_t c = 0; c < conns; ++c) sent_total += sent[c].load();
  result.backlog_at_end =
      sent_total - std::min(sent_total, received_total.load());
  done.store(true, std::memory_order_release);
  for (std::size_t c = 0; c < conns; ++c) {
    Request ping;
    ping.method = "ping";
    (void)clients[c].Send(ping);
  }
  for (auto& receiver : receivers) receiver.join();
  for (const auto& t : last_answers) last_answer = std::max(last_answer, t);
  result.wall_s = std::chrono::duration<double>(last_answer - start).count();

  Merge(&tallies, &result);
  // Anything neither answered ok nor refused was lost in transport.
  result.failed = result.attempted - std::min(result.attempted, result.ok);
  return result;
}

PhaseResult RunClosedLoop(const std::string& socket_path,
                          const std::vector<PoolQuestion>& pool,
                          const std::vector<std::vector<std::uint32_t>>& streams,
                          double duration_s, std::size_t max_per_stream,
                          std::size_t depth, const ParityScope& scope) {
  PhaseResult result;
  const std::size_t conns = streams.size();
  std::vector<NetClient> clients = Connect(socket_path, conns);
  if (clients.size() != conns || conns == 0) {
    result.attempted = result.failed = 1;
    return result;
  }
  std::vector<ConnTally> tallies(conns);
  std::vector<std::size_t> attempted(conns, 0);
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(duration_s));
  depth = std::max<std::size_t>(1, depth);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      const std::vector<std::uint32_t>& stream = streams[c];
      // Request i goes out with id i + 1; while it is outstanding its id,
      // send time and item sit in a free slot (answers come in any order).
      std::vector<std::uint64_t> ids(depth, 0);
      std::vector<Clock::time_point> sent_at(depth);
      std::vector<std::uint32_t> items(depth);
      std::size_t next = 0, outstanding = 0;
      auto send_more = [&] {
        while (outstanding < depth && Clock::now() < stop &&
               (max_per_stream == 0 || next < max_per_stream)) {
          const std::size_t slot = static_cast<std::size_t>(
              std::find(ids.begin(), ids.end(), 0) - ids.begin());
          const std::uint32_t item = stream[next % stream.size()];
          ids[slot] = next + 1;
          sent_at[slot] = Clock::now();
          items[slot] = item;
          ++attempted[c];
          ++next;
          ++outstanding;
          if (!clients[c].Send(MakeAsk(ids[slot], pool[item])).ok()) {
            return false;
          }
        }
        return true;
      };
      bool open = send_more();
      while (open && outstanding > 0) {
        auto response = clients[c].Receive();
        const Clock::time_point now = Clock::now();
        if (!response.ok() || response.value().id == 0) break;
        const auto slot = static_cast<std::size_t>(
            std::find(ids.begin(), ids.end(), response.value().id) -
            ids.begin());
        if (slot == depth) break;
        ids[slot] = 0;
        --outstanding;
        tallies[c].Answer(response.value(), items[slot],
                          MsBetween(sent_at[slot], now),
                          MsBetween(start, now) / 1000.0, scope);
        open = send_more();
      }
      // Whatever a broken connection left unanswered failed.
      tallies[c].failed += outstanding;
    });
  }
  for (auto& thread : threads) thread.join();
  result.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  for (std::size_t a : attempted) result.attempted += a;
  Merge(&tallies, &result);
  return result;
}

}  // namespace cqads::e2e
