// The traced replay: one request taken through the same public functions
// the served path calls — request codec and framing, domain
// classification, the prepared-query cache, every stage of
// QueryPipeline::Full(), answer rendering, response codec — on the calling
// thread, with a span around each call. Nothing inside the program is
// instrumented; the spans sit in this file, around the calls.
#ifndef CQADS_E2EBENCH_TRACED_H_
#define CQADS_E2EBENCH_TRACED_H_

#include <cstddef>
#include <cstdint>

#include "bench_core.h"
#include "core/cqads_engine.h"
#include "db/executor.h"
#include "serve/net/protocol.h"
#include "serve/prepared_cache.h"
#include "workload.h"

namespace cqads::e2e {

struct TracedOutcome {
  /// The response as the client decoded it (its canonical answer must
  /// equal the wire's for the same question).
  serve::net::Response response;
  std::size_t response_frame_bytes = 0;
  std::size_t canonical_bytes = 0;
  bool cache_hit = false;
  /// Work counters of the execute and rank stages of this request.
  db::ExecStats execute;
  db::ExecStats rank;
};

/// Answers `question` against the engine's current snapshot through
/// `cache`, the way ConcurrentServer + NetServer do for one request with no
/// deadline. Spans go to `spans` when it is enabled, under request `id`.
TracedOutcome TracedAsk(const core::CqadsEngine& engine,
                        serve::PreparedQueryCache* cache, SpanRecorder* spans,
                        std::uint64_t id, const PoolQuestion& question);

}  // namespace cqads::e2e

#endif  // CQADS_E2EBENCH_TRACED_H_
