// Request budgets and cooperative cancellation. The serving north star is
// an ad-tech-style 20-50 ms decision window where late answers are
// discarded: a request that misses its deadline must release its worker in
// bounded time instead of finishing a doomed scan. Three pieces:
//
//   Deadline     a steady-clock expiry instant carried by the request
//                (QueryContext, ConcurrentServer). Default-constructed it is
//                infinite and costs nothing to check — the no-deadline hot
//                path never reads the clock, which is how byte-identity with
//                the pre-deadline engine is preserved.
//   CancelToken  one shared atomic flag per request. The first checker that
//                observes an expired deadline raises it; every other thread
//                cooperating on the request (rank morsels on the
//                work-stealing scheduler) sees the flag with one relaxed
//                load instead of each paying a clock read.
//   ExecControl  the (deadline, token) pair threaded through the execution
//                layers (db/exec morsels, delta scans, pipeline stages).
//                Null/default means "run to completion" everywhere.
//
// Checking discipline: long loops call ExecControl::Expired() at natural
// batch boundaries (per rank morsel, per N-1 relaxation pass, per
// stage) — often enough that a worker is reclaimed within one morsel's
// work, rarely enough that the clock never shows up in profiles.
#ifndef CQADS_COMMON_DEADLINE_H_
#define CQADS_COMMON_DEADLINE_H_

#include <atomic>
#include <chrono>

namespace cqads {

/// An absolute steady-clock expiry instant. Copyable, trivially cheap.
/// Default-constructed = infinite (never expires, never reads the clock).
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;

  /// Never expires.
  static Deadline Infinite() { return Deadline(); }

  /// Expires `budget` from now. A zero or negative budget is already
  /// expired (useful for testing the shed/expiry paths deterministically).
  static Deadline After(Clock::duration budget) {
    return Deadline(Clock::now() + budget);
  }

  /// Expires at `when`.
  static Deadline At(Clock::time_point when) { return Deadline(when); }

  bool is_infinite() const { return infinite_; }

  /// True once the clock passed the expiry instant. Infinite deadlines
  /// return false without reading the clock.
  bool expired() const { return !infinite_ && Clock::now() >= when_; }

  /// Time left; Clock::duration::max() when infinite, never negative.
  Clock::duration remaining() const {
    if (infinite_) return Clock::duration::max();
    const auto now = Clock::now();
    return now >= when_ ? Clock::duration::zero() : when_ - now;
  }

  /// The expiry instant; Clock::time_point::max() when infinite.
  Clock::time_point time_point() const {
    return infinite_ ? Clock::time_point::max() : when_;
  }

  /// The earlier of the two deadlines.
  static Deadline Earlier(const Deadline& a, const Deadline& b) {
    if (a.infinite_) return b;
    if (b.infinite_) return a;
    return Deadline(a.when_ < b.when_ ? a.when_ : b.when_);
  }

 private:
  explicit Deadline(Clock::time_point when) : when_(when), infinite_(false) {}

  Clock::time_point when_{};
  bool infinite_ = true;
};

/// A shared request-scoped cancellation flag. Raised once (by whichever
/// thread first observes the expired deadline, or explicitly by the owner);
/// checked with one relaxed atomic load by everyone else. Never reset —
/// a token lives exactly as long as its request.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// The cancellation context threaded through execution: a deadline plus an
/// optional shared token. Value type (two words); default-constructed it
/// never stops anything. The exec layers receive `const ExecControl*` with
/// nullptr meaning the same thing, so pre-deadline call sites stay valid.
struct ExecControl {
  Deadline deadline;
  CancelToken* cancel = nullptr;

  /// The per-batch-boundary check: true when this request should stop.
  /// Reads the token first (one relaxed load — the common case once a
  /// sibling noticed expiry) and the clock only when the token is silent;
  /// on expiry it raises the token so sibling morsels stop without their
  /// own clock read.
  bool Expired() const {
    if (cancel != nullptr && cancel->cancelled()) return true;
    if (deadline.expired()) {
      if (cancel != nullptr) cancel->Cancel();
      return true;
    }
    return false;
  }

  /// Convenience for `const ExecControl*` call sites.
  static bool Expired(const ExecControl* control) {
    return control != nullptr && control->Expired();
  }
};

}  // namespace cqads

#endif  // CQADS_COMMON_DEADLINE_H_
