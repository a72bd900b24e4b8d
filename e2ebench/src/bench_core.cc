#include "bench_core.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "snapshot/xxhash64.h"

namespace cqads::e2e {

// --------------------------------------------------------------- percentiles

double Quantile(std::vector<double>* samples, double q) {
  if (samples->empty()) return 0.0;
  std::sort(samples->begin(), samples->end());
  const std::size_t n = samples->size();
  q = std::min(1.0, std::max(0.0, q));
  const auto rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))));
  return (*samples)[std::min(rank, n) - 1];
}

double SupportedQuantile(std::size_t n, double wanted,
                         std::size_t min_beyond) {
  static constexpr double kLadder[] = {0.999, 0.99, 0.95, 0.9, 0.75, 0.5};
  for (double q : kLadder) {
    if (q > wanted + 1e-12) continue;
    const auto rank =
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    if (n >= rank && n - rank >= min_beyond) return q;
  }
  return 0.5;
}

Summary Summarize(std::vector<double> samples, double wanted_tail) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  s.p50 = Quantile(&samples, 0.5);
  s.tail_q = SupportedQuantile(s.n, wanted_tail);
  s.tail = Quantile(&samples, s.tail_q);
  return s;
}

namespace {

std::size_t WindowOf(double at, double span_s, std::size_t windows) {
  if (at <= 0.0 || span_s <= 0.0) return 0;
  const auto w = static_cast<std::size_t>(at / span_s *
                                          static_cast<double>(windows));
  return std::min(w, windows - 1);
}

}  // namespace

double InterquartileMean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t cut = values.size() / 4;
  double sum = 0.0;
  for (std::size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * cut);
}

WindowedSummary SummarizeWindows(const std::vector<double>& values,
                                 const std::vector<double>& at_s,
                                 double span_s, std::size_t windows,
                                 double wanted_tail) {
  WindowedSummary out;
  windows = std::max<std::size_t>(1, windows);
  std::vector<std::vector<double>> split(windows);
  const std::size_t n = std::min(values.size(), at_s.size());
  for (std::size_t i = 0; i < n; ++i) {
    split[WindowOf(at_s[i], span_s, windows)].push_back(values[i]);
  }
  std::vector<double> p50s, tails;
  out.tail_q = wanted_tail;
  for (auto& w : split) {
    if (w.empty()) continue;
    const Summary s = Summarize(std::move(w), wanted_tail);
    p50s.push_back(s.p50);
    tails.push_back(s.tail);
    out.tail_q = std::min(out.tail_q, s.tail_q);
    out.n += s.n;
  }
  out.windows = p50s.size();
  out.p50 = InterquartileMean(std::move(p50s));
  out.tail = InterquartileMean(std::move(tails));
  if (out.windows == 0) out.tail_q = 0.0;
  return out;
}

double WindowRate(const std::vector<double>& at_s, double span_s,
                  std::size_t windows) {
  windows = std::max<std::size_t>(1, windows);
  if (span_s <= 0.0) return 0.0;
  std::vector<double> counts(windows, 0.0);
  for (double at : at_s) {
    if (at < span_s) counts[WindowOf(at, span_s, windows)] += 1.0;
  }
  const double width = span_s / static_cast<double>(windows);
  for (double& c : counts) c /= width;
  return InterquartileMean(std::move(counts));
}

LadderResult SloFromLadder(const std::vector<double>& rates,
                           const std::vector<double>& tails,
                           const std::vector<bool>& met, double limit) {
  LadderResult out;
  const std::size_t run = std::min({rates.size(), tails.size(), met.size()});
  std::size_t h = run;
  for (std::size_t i = 0; i < run; ++i) {
    if (met[i]) h = i;
  }
  if (h == run) {
    for (std::size_t i = 0; i < run; ++i) {
      if (std::isnan(tails[i])) continue;
      out.slo_qps = rates[i] * limit / std::max(tails[i], limit);
      break;
    }
    return out;
  }
  out.highest_met = rates[h];
  out.slo_qps = rates[h];
  if (h + 1 < run && std::isfinite(tails[h + 1]) && tails[h + 1] > limit &&
      tails[h + 1] > tails[h]) {
    const double frac = (limit - tails[h]) / (tails[h + 1] - tails[h]);
    out.slo_qps += std::clamp(frac, 0.0, 1.0) * (rates[h + 1] - rates[h]);
  }
  return out;
}

std::size_t NextRung(std::size_t rungs, std::size_t current, bool met,
                     int* direction) {
  if (*direction == 0) *direction = met ? 1 : -1;
  if (*direction > 0) {
    return met && current + 1 < rungs ? current + 1 : rungs;
  }
  return !met && current > 0 ? current - 1 : rungs;
}

bool RungMeets(const Summary& tail, double backlog, double rate_qps,
               double limit_ms) {
  return tail.n > 0 && tail.tail <= limit_ms &&
         backlog <= rate_qps * limit_ms / 1000.0;
}

// ----------------------------------------------------------------- schedules

ZipfSampler::ZipfSampler(std::size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t ZipfSampler::Sample(Rng* rng) const {
  const double u = rng->UniformReal(0.0, 1.0);
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

QuestionPicker::QuestionPicker(std::size_t pool_size, double zipf_s,
                               std::uint64_t seed)
    : zipf_(pool_size, zipf_s), rank_to_item_(pool_size) {
  std::iota(rank_to_item_.begin(), rank_to_item_.end(), 0u);
  Rng rng(SubSeed(seed, "popularity"));
  rng.Shuffle(&rank_to_item_);
}

std::uint32_t QuestionPicker::Pick(Rng* rng) const {
  return rank_to_item_[zipf_.Sample(rng)];
}

std::vector<Arrival> PoissonSchedule(double rate_qps, double duration_s,
                                     const QuestionPicker& picker,
                                     std::uint64_t seed) {
  std::vector<Arrival> out;
  if (rate_qps <= 0.0 || duration_s <= 0.0) return out;
  out.reserve(static_cast<std::size_t>(rate_qps * duration_s * 1.1) + 16);
  Rng gaps(SubSeed(seed, "gaps"));
  Rng items(SubSeed(seed, "items"));
  double t = 0.0;
  for (;;) {
    t += -std::log(gaps.UniformReal(1e-12, 1.0)) / rate_qps;
    if (t >= duration_s) break;
    out.push_back(Arrival{t, picker.Pick(&items)});
  }
  return out;
}

std::vector<std::uint32_t> PickStream(const QuestionPicker& picker,
                                      std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint32_t> out(count);
  for (auto& item : out) item = picker.Pick(&rng);
  return out;
}

std::uint64_t SubSeed(std::uint64_t seed, std::string_view label) {
  return snapshot::XxHash64(label.data(), label.size(), seed);
}

// --------------------------------------------------------------------- spans

std::int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

int SpanRecorder::Begin(const char* name, std::uint64_t request) {
  if (!enabled_) return -1;
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  const int index = Add(name, NowNs(), 0, parent, request);
  open_.push_back(index);
  return index;
}

void SpanRecorder::End(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = NowNs();
  // Spans close innermost first; tolerate a mismatched End by unwinding to
  // the span it names.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

int SpanRecorder::Add(const char* name, std::int64_t start_ns,
                      std::int64_t end_ns, std::int32_t parent,
                      std::uint64_t request) {
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

bool SpanRecorder::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("index\tparent\trequest\tname\tstart_ns\tend_ns\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%d\t%llu\t%s\t%lld\t%lld\n", i, s.parent,
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<long long>(s.start_ns - base),
                 static_cast<long long>(s.end_ns - base));
  }
  return std::fclose(f) == 0;
}

std::vector<std::int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int32_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = std::max(lo, spans[i].end_ns);
    cover.clear();
    for (std::size_t c : children[i]) {
      const std::int64_t a = std::max(lo, spans[c].start_ns);
      const std::int64_t b = std::min(hi, spans[c].end_ns);
      if (b > a) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0, run_hi = 0;
    bool open = false;
    for (const auto& [a, b] : cover) {
      if (open && a <= run_hi) {
        run_hi = std::max(run_hi, b);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = a;
      run_hi = b;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::unordered_map<std::string, std::vector<double>> SelfMicrosByName(
    const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = SelfTimesNs(spans);
  // Accumulate per (request, name) in first-seen order, then emit.
  std::unordered_map<std::string, std::vector<double>> out;
  std::unordered_map<std::string, std::unordered_map<std::uint64_t, double>>
      acc;
  std::unordered_map<std::string, std::vector<std::uint64_t>> order;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& per_request = acc[spans[i].name];
    auto [it, inserted] = per_request.emplace(spans[i].request, 0.0);
    if (inserted) order[spans[i].name].push_back(spans[i].request);
    it->second += static_cast<double>(self[i]) / 1000.0;
  }
  for (const auto& [name, requests] : order) {
    auto& samples = out[name];
    for (std::uint64_t r : requests) samples.push_back(acc[name][r]);
  }
  return out;
}

// -------------------------------------------------------------------- parity

void ParityLog::Record(std::uint32_t item, std::string_view answer) {
  hashes_.emplace_back(item, snapshot::XxHash64(answer.data(), answer.size()));
}

std::size_t CountMismatches(
    const std::vector<const ParityLog*>& logs,
    const std::function<std::string(std::uint32_t)>& expected,
    std::vector<std::uint32_t>* mismatched_items) {
  std::unordered_map<std::uint32_t, std::uint64_t> want;
  std::vector<std::uint32_t> bad;
  std::size_t mismatches = 0;
  for (const ParityLog* log : logs) {
    for (const auto& [item, hash] : log->hashes()) {
      auto [it, inserted] = want.try_emplace(item, 0);
      if (inserted) {
        const std::string bytes = expected(item);
        it->second = snapshot::XxHash64(bytes.data(), bytes.size());
      }
      if (hash != it->second) {
        ++mismatches;
        bad.push_back(item);
      }
    }
  }
  if (mismatched_items != nullptr) {
    std::sort(bad.begin(), bad.end());
    bad.erase(std::unique(bad.begin(), bad.end()), bad.end());
    *mismatched_items = std::move(bad);
  }
  return mismatches;
}

}  // namespace cqads::e2e
