// The benchmark's own logic, kept apart from the serving code it drives so
// the self-tests (e2ebench/tests/selftest.cc) can pin it: the percentile
// rule, the seeded arrival and question schedules, the span recorder with
// its self-time arithmetic, and the wire-answer parity checker.
#ifndef CQADS_E2EBENCH_BENCH_CORE_H_
#define CQADS_E2EBENCH_BENCH_CORE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace cqads::e2e {

// --------------------------------------------------------------- percentiles

/// Nearest-rank quantile of `samples` (sorted in place): the value at
/// 1-based rank ceil(q * n). 0 when empty.
double Quantile(std::vector<double>* samples, double q);

/// The percentile rule: the highest quantile <= `wanted` from the fixed
/// ladder {0.999, 0.99, 0.95, 0.9, 0.75, 0.5} that leaves at least
/// `min_beyond` of `n` samples strictly above its rank. Falls back to the
/// median when even that is unsupported (fewer than 2 * min_beyond samples).
double SupportedQuantile(std::size_t n, double wanted,
                         std::size_t min_beyond = 10);

/// Median and supported tail of a latency sample.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail_q = 0.0;  ///< the quantile `tail` was taken at
  double tail = 0.0;
};
Summary Summarize(std::vector<double> samples, double wanted_tail = 0.99);

/// Mean of the middle half of `values`: the values ranked between the
/// first and third quartile (floor(n/4) dropped at each end). Robust to a
/// few outliers like a median, but moves smoothly when the sample mixes two
/// levels, where a median jumps from one to the other. 0 when empty.
double InterquartileMean(std::vector<double> values);

/// Windowed summary: the samples are split by their timestamps `at_s` into
/// `windows` equal windows over [0, span_s) (later samples go to the last
/// window), each window is summarized on its own (its tail by the
/// percentile rule), and the interquartile means of the windows' p50s and
/// tails are reported, so one stall moves one window and not the run.
/// tail_q is the lowest quantile any window had to fall back to; windows
/// with no samples are skipped.
struct WindowedSummary {
  std::size_t windows = 0;  ///< windows that had samples
  std::size_t n = 0;
  double p50 = 0.0;
  double tail_q = 0.0;
  double tail = 0.0;
};
WindowedSummary SummarizeWindows(const std::vector<double>& values,
                                 const std::vector<double>& at_s,
                                 double span_s, std::size_t windows,
                                 double wanted_tail = 0.99);

/// Interquartile mean over `windows` equal windows of [0, span_s) of the
/// event rate (events per second) in each; events at or past span_s are
/// dropped.
double WindowRate(const std::vector<double>& at_s, double span_s,
                  std::size_t windows);

/// The rate ladder's verdict.
struct LadderResult {
  double slo_qps = 0.0;      ///< see SloFromLadder
  double highest_met = 0.0;  ///< the highest rung that met the limit, or 0
};

/// `rates` ascend; `tails[i]` and `met[i]` describe rung i (a rung never
/// run has a NaN tail and is not met; the vectors can be shorter than
/// `rates`). slo_qps is the highest rung that met the limit, moved towards
/// the rung above it by linear interpolation of where the tail crosses
/// `limit` between the two (no move when the rung above missed by backlog
/// alone or by failures, or was never run). When no rung met it, the lowest
/// rung that ran, scaled down by how far its tail missed.
LadderResult SloFromLadder(const std::vector<double>& rates,
                           const std::vector<double>& tails,
                           const std::vector<bool>& met, double limit);

/// The walk of one ladder pass: from its first rung upwards while rungs
/// meet the limit, or downwards while they miss, until a rung turns the
/// other way or the ladder ends. Given the rung just run and its verdict,
/// returns the next rung, or `rungs` when the pass is over. `direction`
/// carries the walk between calls and starts at 0.
std::size_t NextRung(std::size_t rungs, std::size_t current, bool met,
                     int* direction);

/// Whether one visit to a rung at `rate_qps` meets `limit_ms`: its tail is
/// within the limit and the backlog it left when sending stopped could
/// drain within it (backlog <= rate x limit).
bool RungMeets(const Summary& tail, double backlog, double rate_qps,
               double limit_ms);


// ----------------------------------------------------------------- schedules

/// Zipf(s) over ranks 0..n-1 (rank 0 most popular), sampled by inverse CDF.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);
  std::size_t Sample(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// Which pool question a draw asks: a seeded rank -> item permutation over
/// a Zipf sampler, so the popular questions differ per seed.
class QuestionPicker {
 public:
  QuestionPicker(std::size_t pool_size, double zipf_s, std::uint64_t seed);
  std::uint32_t Pick(Rng* rng) const;

 private:
  ZipfSampler zipf_;
  std::vector<std::uint32_t> rank_to_item_;
};

/// One scheduled request: offset from the phase start and the pool item.
struct Arrival {
  double at_s = 0.0;
  std::uint32_t item = 0;
};

/// Open-loop Poisson arrivals at an absolute `rate_qps` over `duration_s`,
/// each asking picker.Pick(). Deterministic in `seed`.
std::vector<Arrival> PoissonSchedule(double rate_qps, double duration_s,
                                     const QuestionPicker& picker,
                                     std::uint64_t seed);

/// `count` picks in order (closed-loop streams and the warm-up pass).
std::vector<std::uint32_t> PickStream(const QuestionPicker& picker,
                                      std::size_t count, std::uint64_t seed);

/// Derives an independent stream seed from the run seed and a label.
std::uint64_t SubSeed(std::uint64_t seed, std::string_view label);

// --------------------------------------------------------------------- spans

/// One traced interval. `parent` indexes the recorder's span vector (-1 for
/// a root); spans of one request share `request`.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t request = 0;
};

/// Single-threaded in-memory span log. Nesting follows Begin/End order (the
/// innermost open span is the parent of the next Begin). Disabled, Begin
/// records nothing and returns -1, so the same call sites run untraced.
class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  void set_enabled(bool enabled) { enabled_ = enabled; }

  int Begin(const char* name, std::uint64_t request);
  void End(int index);

  /// Adds a finished span directly (tests and imported intervals).
  int Add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
          std::int32_t parent, std::uint64_t request);

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as one tab-separated line: index, parent, request,
  /// name, start_ns, end_ns (relative to the first span). False on I/O
  /// failure.
  bool WriteTsv(const std::string& path) const;

 private:
  std::int64_t NowNs() const;

  bool enabled_ = true;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, std::uint64_t request)
      : recorder_(recorder), index_(recorder->Begin(name, request)) {}
  ~ScopedSpan() { recorder_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its direct children (children may overlap each
/// other or stick out of the parent; only the covered part inside the
/// parent counts). Result[i] belongs to spans[i], in nanoseconds.
std::vector<std::int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Per request, the summed self time of each span name (a name that occurs
/// twice in one request adds up), in microseconds: name -> one sample per
/// request that has the name.
std::unordered_map<std::string, std::vector<double>> SelfMicrosByName(
    const std::vector<Span>& spans);

// -------------------------------------------------------------------- parity

/// What one receiver saw: per answered request the pool item and the XXH64
/// of the wire answer's bytes. Owned by one thread while recording; read
/// after the threads are joined.
class ParityLog {
 public:
  void Record(std::uint32_t item, std::string_view answer);
  const std::vector<std::pair<std::uint32_t, std::uint64_t>>& hashes() const {
    return hashes_;
  }

 private:
  std::vector<std::pair<std::uint32_t, std::uint64_t>> hashes_;
};

/// Compares every recorded answer with `expected(item)` (called once per
/// distinct item) by the XXH64 of its bytes. Returns the number of
/// mismatching answers and, when non-null, lists the distinct mismatching
/// items in ascending order.
std::size_t CountMismatches(
    const std::vector<const ParityLog*>& logs,
    const std::function<std::string(std::uint32_t)>& expected,
    std::vector<std::uint32_t>* mismatched_items = nullptr);

}  // namespace cqads::e2e

#endif  // CQADS_E2EBENCH_BENCH_CORE_H_
