// Load generators over NetClient: an open loop that sends on a seeded
// Poisson schedule whatever the server does, and a closed loop where each
// connection keeps a fixed number of questions outstanding.
#ifndef CQADS_E2EBENCH_LOADGEN_H_
#define CQADS_E2EBENCH_LOADGEN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_core.h"
#include "workload.h"

namespace cqads::e2e {

/// How wire answers are checked while recording: every ok answer goes to
/// the receiver's ParityLog unless `skip_domain` names its domain (answers
/// a concurrent writer is changing cannot be held to the reference).
struct ParityScope {
  std::string skip_domain;
};

struct PhaseResult {
  std::size_t attempted = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;           ///< non-ok status or transport error
  std::vector<double> latency_ms;   ///< ok answers; open loop: from the
                                    ///< scheduled send
  std::vector<double> at_s;         ///< per latency_ms entry: open loop,
                                    ///< the scheduled send; closed loop,
                                    ///< the answer's arrival (phase time)
  std::vector<double> lag_ms;       ///< open loop: send time - schedule
  std::size_t backlog_at_end = 0;   ///< open loop: unanswered when the last
                                    ///< request was sent
  double wall_s = 0.0;              ///< until the last answer arrived
  std::vector<ParityLog> parity;    ///< one per connection
};

/// Sends `schedule` over `conns` pipelined connections (one sender thread,
/// one receiver thread per connection): request k leaves at start +
/// schedule[k].at_s on connection k % conns.
PhaseResult RunOpenLoop(const std::string& socket_path,
                        const std::vector<PoolQuestion>& pool,
                        const std::vector<Arrival>& schedule,
                        std::size_t conns, const ParityScope& scope);

/// One thread per stream, each on its own connection, sending its stream's
/// questions in order (wrapping around) with `depth` of them outstanding:
/// the next leaves when an answer arrives. Sending stops once `duration_s`
/// has passed or, when `max_per_stream` > 0, after that many; the answers
/// still outstanding are awaited. latency_ms is from each send.
PhaseResult RunClosedLoop(const std::string& socket_path,
                          const std::vector<PoolQuestion>& pool,
                          const std::vector<std::vector<std::uint32_t>>& streams,
                          double duration_s, std::size_t max_per_stream,
                          std::size_t depth, const ParityScope& scope);

}  // namespace cqads::e2e

#endif  // CQADS_E2EBENCH_LOADGEN_H_
