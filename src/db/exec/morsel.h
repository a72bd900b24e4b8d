// Morsel-style work-stealing scheduler for the top-k rank sweeps
// (core/pipeline.cc). Work is a range of morsel indices behind one shared
// atomic dispenser: every participating thread (the CALLER plus up to
// `parallelism - 1` helper tasks submitted to a TaskRunner) loops stealing
// the next unclaimed morsel until the dispenser is exhausted. That caller
// participation is the deadlock-freedom argument for sharing the serving
// WorkerPool: even if every pool thread is busy (or the helpers are queued
// behind the very queries that spawned them), the caller alone drains all
// morsels; late-starting helpers find the dispenser empty and exit.
//
// TaskRunner is the minimal submission hook the exec layer needs — it keeps
// db/ free of any dependency on the serving layer; serve::WorkerPool
// implements it.
#ifndef CQADS_DB_EXEC_MORSEL_H_
#define CQADS_DB_EXEC_MORSEL_H_

#include <cstddef>
#include <functional>

#include "common/deadline.h"

namespace cqads::db::exec {

/// Below this many rows, callers run their morsels inline (runner =
/// nullptr): per-request morsel submission (enqueue + completion latch)
/// costs more than sweeping a few thousand rows. This is the usual
/// morsel-sizing rule — morsel-driven engines hand out work in units of
/// tens of thousands of rows for the same reason. Policy lives with the
/// caller (the rank stage applies it); RunMorsels itself always honors
/// whatever runner it is given, so tests and benches can force pooled
/// execution on any size.
inline constexpr std::size_t kMinRowsForParallelExec = 8192;

/// Anything that can run a task on some other thread, eventually. Submit
/// must be safe from any thread, including from inside a task.
class TaskRunner {
 public:
  virtual ~TaskRunner() = default;
  virtual void Submit(std::function<void()> task) = 0;
};

/// Runs body(0..count-1), each index exactly once, stealing work from a
/// shared dispenser. Blocks until every morsel has FINISHED (not merely been
/// claimed). `body` must be safe to call concurrently for distinct indices
/// and must not throw.
///
/// With runner == nullptr or parallelism <= 1 the caller runs everything
/// inline — the serial path, no atomics contended, no tasks submitted.
///
/// Cooperative cancellation: when `control` is non-null, every participant
/// re-checks it before claiming the next morsel (the shared CancelToken
/// makes that one relaxed load once any thread saw the deadline pass).
/// After cancellation UNSTARTED morsels are skipped — their indices are
/// never passed to `body` — while already-claimed morsels finish, so the
/// call still returns only when no body invocation is in flight. Returns
/// false iff the batch was cut short this way; the caller decides what a
/// partial batch means (the rank stage keeps its best-so-far partials and
/// marks the answer degraded).
bool RunMorsels(std::size_t count, std::size_t parallelism, TaskRunner* runner,
                const std::function<void(std::size_t)>& body,
                const ExecControl* control = nullptr);

}  // namespace cqads::db::exec

#endif  // CQADS_DB_EXEC_MORSEL_H_
