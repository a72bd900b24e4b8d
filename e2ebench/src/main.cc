// cqads_e2e: the serving benchmark. Boots the engine the way cqads_serverd
// does (build the world, SaveSnapshot, OpenSnapshot, NetServer::Start on a
// Unix socket with the daemon's default options) and drives one named
// workload through NetClient from this process.
//
//   cqads_e2e --config workloads.json --workload paper_zipf --seed 1
//             --seconds 25 --trace 0
//
// --trace 0 measures the end-to-end metrics: set-up time, closed-loop peak
// throughput, the highest rate on the fixed ladder that meets the latency
// limit, peak memory and write latency; it also prints the open-loop
// latency at the workload's nominal rate. --trace 1 replays the same
// requests through each layer's public functions with spans around them
// and reports the per-layer split (see traced.h). Either way every wire
// answer is checked against the reference; any mismatch makes the run
// incorrect and the exit code 1. Human-readable lines come first; the last
// line of stdout is one JSON object {"correct", "attempted", "failed",
// "metrics"}. README.md describes the workloads and every figure.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_core.h"
#include "bench_util.h"
#include "common/json.h"
#include "loadgen.h"
#include "serve/net/net_client.h"
#include "traced.h"
#include "workload.h"

namespace cqads::e2e {
namespace {

using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------------ config

// Every run is laid out the same way (README.md, "How a run is laid
// out"): kRounds rounds, each spending the workload's shares of --seconds
// on the nominal rate, on saturation, and on one pass over the rate
// ladder. A pass is planned as kRungsPerPass rungs (it walks as many as it
// needs).
constexpr std::size_t kRounds = 6;
constexpr double kRungsPerPass = 2.0;
/// Requests the closed loop keeps outstanding on each connection.
constexpr std::size_t kPeakDepth = 4;
/// The traced run: an untraced phase at the nominal rate for this share of
/// --seconds, then a replay of at most kTraceReplay of its requests for at
/// most kTraceReplayShare of --seconds.
constexpr double kTraceNominalShare = 0.4;
constexpr double kTraceReplayShare = 0.5;
constexpr std::size_t kTraceReplay = 6000;

struct WriteConfig {
  bool concurrent = false;        ///< a writer thread during the reads
  double qps = 0.0;               ///< concurrent: fixed write rate
  std::size_t compact_every = 0;  ///< a compaction every n writes
  std::size_t count = 0;          ///< idle: writes per run, over all rounds
};

struct Config {
  std::string workload;
  WorldKind world = WorldKind::kPaper;
  std::size_t fleet_rows = 0;
  std::size_t car_count = 0;
  std::size_t per_other_domain = 0;
  std::size_t fleet_questions = 0;
  double zipf_s = 0.0;
  std::size_t warmup_requests = 0;
  double nominal_qps = 0.0;
  std::vector<double> ladder_qps;
  std::size_t ladder_start = 0;  ///< the rung the first pass starts from
  double limit_p99_ms = 0.0;
  /// Shares of --seconds, summed over the rounds.
  double nominal_share = 0.0;
  double peak_share = 0.0;
  double ladder_share = 0.0;
  WriteConfig writes;
};

Result<Config> LoadConfig(const std::string& path,
                          const std::string& workload) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot read config " + path);
  std::stringstream text;
  text << in.rdbuf();
  auto parsed = JsonValue::Parse(text.str());
  if (!parsed.ok()) return parsed.status();
  const JsonValue& root = parsed.value();
  const JsonValue* all = root.Find("workloads");
  const JsonValue* w = all != nullptr ? all->Find(workload) : nullptr;
  if (w == nullptr || !w->is_object()) {
    return Status::InvalidArgument("unknown workload " + workload);
  }
  Config c;
  c.workload = workload;
  const std::string world = w->GetString("world");
  if (world != "paper" && world != "fleet") {
    return Status::InvalidArgument("world must be paper or fleet");
  }
  c.world = world == "paper" ? WorldKind::kPaper : WorldKind::kFleet;
  auto count = [](const JsonValue* v, const char* key) {
    return v == nullptr ? std::size_t{0}
                        : static_cast<std::size_t>(v->GetNumber(key));
  };
  c.fleet_rows = count(w, "fleet_rows");
  const JsonValue* pool = w->Find("pool");
  c.car_count = count(pool, "car_count");
  c.per_other_domain = count(pool, "per_other_domain");
  c.fleet_questions = count(pool, "questions");
  c.zipf_s = w->GetNumber("zipf_s");
  c.warmup_requests = count(w, "warmup_requests");
  c.nominal_qps = w->GetNumber("nominal_qps");
  c.limit_p99_ms = w->GetNumber("limit_p99_ms");
  if (const JsonValue* ladder = w->Find("ladder_qps");
      ladder != nullptr && ladder->is_array()) {
    for (const JsonValue& r : ladder->array_items()) {
      c.ladder_qps.push_back(r.number_value());
    }
  }
  if (const JsonValue* layout = w->Find("layout"); layout != nullptr) {
    c.nominal_share = layout->GetNumber("nominal");
    c.peak_share = layout->GetNumber("peak");
    c.ladder_share = layout->GetNumber("ladder");
  }
  // The first pass starts at the highest rung not above ladder_start_qps.
  const double start_qps = w->GetNumber("ladder_start_qps");
  while (c.ladder_start + 1 < c.ladder_qps.size() &&
         c.ladder_qps[c.ladder_start + 1] <= start_qps) {
    ++c.ladder_start;
  }
  const JsonValue* writes = w->Find("writes");
  if (writes == nullptr) return Status::InvalidArgument("writes missing");
  const std::string mode = writes->GetString("mode");
  if (mode != "concurrent" && mode != "idle") {
    return Status::InvalidArgument("writes mode must be concurrent or idle");
  }
  c.writes.concurrent = mode == "concurrent";
  c.writes.qps = writes->GetNumber("qps");
  c.writes.compact_every = count(writes, "compact_every");
  c.writes.count = count(writes, "count");

  const bool pool_ok = c.world == WorldKind::kPaper
                           ? c.car_count > 0 && c.per_other_domain > 0
                           : c.fleet_rows > 0 && c.fleet_questions > 0;
  const double shares = c.nominal_share + c.peak_share + c.ladder_share;
  if (!pool_ok || c.nominal_qps <= 0.0 || c.ladder_qps.empty() ||
      c.limit_p99_ms <= 0.0 || c.nominal_share <= 0.0 ||
      c.peak_share <= 0.0 || c.ladder_share <= 0.0 ||
      std::abs(shares - 1.0) > 1e-9 ||
      c.writes.compact_every == 0 ||
      (c.writes.concurrent ? c.writes.qps <= 0.0
                           : c.writes.count < kRounds)) {
    return Status::InvalidArgument("incomplete workload config");
  }
  if (!std::is_sorted(c.ladder_qps.begin(), c.ladder_qps.end())) {
    return Status::InvalidArgument("ladder_qps must ascend");
  }
  return c;
}

// ------------------------------------------------------------------ output

/// Metrics in insertion order, printed once as human lines and once in the
/// result object. Print() rows appear in the human lines and the BENCH_*
/// artifact only: figures a reader wants that are not the mode's declared
/// metrics.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    Push(name, value, unit, note, true);
  }
  void Print(const std::string& name, double value, const std::string& unit,
             const std::string& note = "") {
    Push(name, value, unit, note, false);
  }

  void PrintHuman() const {
    for (const Row& r : rows_) {
      std::printf("  %-28s %16.6f %-6s %s\n", r.name.c_str(), r.value,
                  r.unit.c_str(), r.note.c_str());
    }
  }

  void AddTo(bench::BenchJson* json) const {
    for (const Row& r : rows_) json->Add(r.name, r.value);
  }

  std::string ResultLine(bool correct, std::size_t attempted,
                         std::size_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[64];
    bool first = true;
    for (const Row& r : rows_) {
      if (!r.in_result) continue;
      std::snprintf(buf, sizeof(buf), "%.17g", r.value);
      out += (first ? "\"" : ", \"") + r.name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + r.unit + "\"}";
      first = false;
    }
    out += "}}";
    return out;
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
    std::string note;
    bool in_result;
  };

  void Push(const std::string& name, double value, const std::string& unit,
            const std::string& note, bool in_result) {
    if (!std::isfinite(value)) value = 1e12;  // JSON has no infinity
    rows_.push_back(Row{name, value, unit, note, in_result});
  }

  std::vector<Row> rows_;
};

std::string QuantileNote(const Summary& s) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "(tail at q=%.3g of n=%zu)", s.tail_q, s.n);
  return buf;
}

std::string WindowNote(const WindowedSummary& s) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "(interquartile mean of %zu windows, tail at q=%.3g, n=%zu)",
                s.windows, s.tail_q, s.n);
  return buf;
}

/// Requests per latency window: enough for a p99 with ten samples beyond.
constexpr double kWindowSamples = 1100.0;

/// How many windows of `per_window` fit in `total` (at least one).
std::size_t WindowCount(double total, double per_window) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(total / per_window));
}

double Median(std::vector<double> v) { return Quantile(&v, 0.5); }

double PeakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ------------------------------------------------------------- server stats

struct ServeCounters {
  double dequeued = 0.0;
  double total_queue_us = 0.0;
  double max_queue_us = 0.0;
  double shed = 0.0;
  double deadline_exceeded = 0.0;
  double cache_hits = 0.0;
  double cache_misses = 0.0;
  double cache_evictions = 0.0;
};

ServeCounters ReadCounters(const serve::net::NetServer& server) {
  ServeCounters c;
  auto parsed = JsonValue::Parse(server.StatsJson());
  if (!parsed.ok()) return c;
  const JsonValue& v = parsed.value();
  c.dequeued = v.GetNumber("dequeued");
  c.total_queue_us = v.GetNumber("mean_queue_age_micros") * c.dequeued;
  c.max_queue_us = v.GetNumber("max_queue_age_micros");
  c.shed = v.GetNumber("shed");
  c.deadline_exceeded = v.GetNumber("deadline_exceeded");
  c.cache_hits = v.GetNumber("cache_hits");
  c.cache_misses = v.GetNumber("cache_misses");
  c.cache_evictions = v.GetNumber("cache_evictions");
  return c;
}

// ------------------------------------------------------------------ writer

/// Drives WriteOps at a fixed rate on its own thread until Stop().
class Writer {
 public:
  Writer(WriteOps* ops, double qps) : ops_(ops), qps_(qps) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~Writer() { Stop(); }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void Loop() {
    const Clock::time_point start = Clock::now();
    for (std::uint64_t j = 0;; ++j) {
      const auto due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(static_cast<double>(j) /
                                                    qps_));
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (cv_.wait_until(lock, due, [this] { return stop_; })) return;
      }
      (void)ops_->Step(nullptr, j + 1);
    }
  }

  WriteOps* ops_;
  double qps_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  ///< guarded by mu_
  std::thread thread_;
};

// --------------------------------------------------------------------- run

struct Args {
  std::string config;
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
};

int Usage() {
  std::fprintf(stderr,
               "usage: cqads_e2e --config <workloads.json> --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

/// One run's shared state: the deployment, its pool, and the checks.
class Run {
 public:
  Run(Config config, Args args)
      : cfg_(std::move(config)),
        args_(std::move(args)),
        nproc_(std::max(1u, std::thread::hardware_concurrency())) {}

  int Main();

 private:
  /// Boots a deployment under `name` (.snap and .sock beside it) and
  /// records its boot times; nullptr on failure.
  std::unique_ptr<Deployment> BootOne(const std::string& name);
  /// Boots the served deployment and builds the question pool.
  bool Boot();
  /// A throwaway deployment, booted for a set-up time sample each round.
  /// With idle writes it takes a share of them, in chunks between the
  /// round's phases so they sample the host's speed across the round.
  struct Extra {
    std::size_t index = 0;  ///< its boot's index in boots_
    std::unique_ptr<Deployment> deploy;
    std::unique_ptr<WriteOps> ops;  ///< idle writes only
    std::size_t remaining = 0;      ///< idle writes not yet made
    std::uint64_t version = 0;      ///< snapshot version before the writes
  };
  /// Boots `extra`; false when the boot failed.
  bool StartExtra(Extra* extra);
  /// Makes up to `count` more of its idle writes (spans in `spans` when
  /// non-null).
  void IdleWrites(Extra* extra, SpanRecorder* spans, std::size_t count);
  /// Checks its rows against its write ledger, then tears it down.
  void FinishExtra(Extra* extra);
  void Warmup();
  std::vector<std::vector<std::uint32_t>> Streams(
      std::size_t conns, std::size_t length, const std::string& label) const;
  /// The concurrent writer's operations on the served engine.
  std::unique_ptr<WriteOps> MakeWriteOps();
  /// One pass over the rate ladder from rung `start` (see NextRung),
  /// judged on its own rungs; appends them to `phases`. Sets `*highest` to
  /// the highest rung it met, or the ladder's size when it met none.
  LadderResult LadderPass(std::size_t pass, std::size_t start, double rung_s,
                          std::vector<PhaseResult>* phases,
                          std::size_t* highest);
  /// `ops` is the concurrent writer's, or null.
  void Verify(const std::vector<const PhaseResult*>& phases,
              const WriteOps* ops);
  void MeasureEndToEnd(Report* report);
  void MeasureLayers(Report* report);
  const std::string& Expected(std::uint32_t item);

  /// Open-loop connections: the client may use nproc threads in all, one
  /// of which sends (and, on ingest_mix, one of which writes).
  /// The nominal rate needs few connections; fewer threads wake less.
  std::size_t NominalConns() const { return std::min<std::size_t>(2, OpenConns()); }
  std::size_t OpenConns() const {
    const std::size_t reserved = 1 + (cfg_.writes.concurrent ? 1 : 0);
    return nproc_ > reserved ? nproc_ - reserved : 1;
  }
  std::size_t ClosedConns() const {
    const std::size_t reserved = cfg_.writes.concurrent ? 1 : 0;
    return nproc_ > reserved ? nproc_ - reserved : 1;
  }
  ParityScope Scope() const {
    // Answers in the domain a concurrent writer changes cannot be held to
    // the unwritten reference; they are checked at the end instead.
    return ParityScope{cfg_.writes.concurrent ? "cars" : ""};
  }

  Config cfg_;
  Args args_;
  std::size_t nproc_;
  std::vector<BootTimes> boots_;
  std::unique_ptr<Deployment> deploy_;
  std::vector<PoolQuestion> pool_;
  std::unique_ptr<QuestionPicker> picker_;
  std::vector<std::string> expected_;
  std::vector<bool> expected_ready_;
  /// Idle writes made on the extra boots: latencies and snapshot swaps.
  std::vector<double> idle_write_us_;
  std::uint64_t idle_swaps_ = 0;

  // Check tallies.
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::size_t parity_mismatches_ = 0;
  std::size_t ledger_mismatches_ = 0;
  std::size_t probe_mismatches_ = 0;
  std::size_t trace_mismatches_ = 0;
};

const std::string& Run::Expected(std::uint32_t item) {
  if (!expected_ready_[item]) {
    expected_[item] = ReferenceAnswer(deploy_->reference(), pool_[item]);
    expected_ready_[item] = true;
  }
  return expected_[item];
}

std::unique_ptr<Deployment> Run::BootOne(const std::string& name) {
  auto booted = Deployment::Boot(cfg_.world, cfg_.fleet_rows, name + ".snap",
                                 name + ".sock");
  if (!booted.ok()) {
    std::fprintf(stderr, "boot failed: %s\n",
                 booted.status().ToString().c_str());
    return nullptr;
  }
  boots_.push_back(booted.value()->boot());
  return std::move(booted).value();
}

bool Run::StartExtra(Extra* extra) {
  extra->index = boots_.size();
  extra->deploy = BootOne("e2e_" + cfg_.workload + "_setup");
  if (extra->deploy == nullptr) return false;
  if (cfg_.writes.concurrent) return true;
  // Idle writes go to this throwaway deployment, never to the served one:
  // every write bumps the snapshot version that keys the served engine's
  // prepared cache.
  const std::string index = std::to_string(extra->index);
  extra->remaining = cfg_.writes.count / kRounds;
  extra->ops = std::make_unique<WriteOps>(
      &extra->deploy->served(),
      IngestRecords(cfg_.world, extra->remaining,
                    SubSeed(args_.seed, "idle" + index)),
      cfg_.writes.compact_every,
      SubSeed(args_.seed, "idle_ops" + index));
  extra->version = extra->deploy->served().snapshot()->version();
  return true;
}

void Run::IdleWrites(Extra* extra, SpanRecorder* spans, std::size_t count) {
  if (extra->ops == nullptr) return;
  for (count = std::min(count, extra->remaining); count > 0; --count) {
    (void)extra->ops->Step(
        spans, 1'000'000'000ull * extra->index + extra->ops->steps());
    --extra->remaining;
  }
}

void Run::FinishExtra(Extra* extra) {
  if (extra->ops != nullptr) {
    const WriteOps& ops = *extra->ops;
    idle_swaps_ += extra->deploy->served().snapshot()->version() -
                   extra->version;
    idle_write_us_.insert(idle_write_us_.end(), ops.row_writes_us().begin(),
                          ops.row_writes_us().end());
    const std::size_t ledger =
        ops.LedgerMismatches(extra->deploy->reference_cars());
    if (ledger > 0) {
      std::fprintf(stderr, "idle writes: %zu rows differ\n", ledger);
    }
    ledger_mismatches_ += ledger;
    attempted_ += ops.steps() + 1;
    failed_ += ops.failures() + (ledger > 0 ? 1 : 0);
  }
  *extra = Extra{};
}

bool Run::Boot() {
  deploy_ = BootOne("e2e_" + cfg_.workload);
  if (deploy_ == nullptr) return false;
  pool_ = cfg_.world == WorldKind::kPaper
              ? PaperPool(*deploy_->paper_world(), cfg_.car_count,
                          cfg_.per_other_domain, args_.seed)
              : FleetPool(cfg_.fleet_questions, args_.seed);
  expected_.assign(pool_.size(), std::string());
  expected_ready_.assign(pool_.size(), false);
  picker_ = std::make_unique<QuestionPicker>(pool_.size(), cfg_.zipf_s,
                                             args_.seed);
  return true;
}

std::vector<std::vector<std::uint32_t>> Run::Streams(
    std::size_t conns, std::size_t length, const std::string& label) const {
  std::vector<std::vector<std::uint32_t>> streams;
  for (std::size_t c = 0; c < conns; ++c) {
    streams.push_back(PickStream(
        *picker_, length,
        SubSeed(args_.seed, label + std::to_string(c))));
  }
  return streams;
}

void Run::Warmup() {
  // Fill the prepared cache and fault the snapshot in before timing: one
  // closed-loop pass over a seeded stream from the workload's own mix.
  const std::size_t conns = ClosedConns();
  const std::size_t per = (cfg_.warmup_requests + conns - 1) / conns;
  PhaseResult warm = RunClosedLoop(deploy_->socket_path(), pool_,
                                   Streams(conns, per, "warmup"), 120.0, per,
                                   1, ParityScope{});
  attempted_ += warm.attempted;
  failed_ += warm.failed;
}

std::unique_ptr<WriteOps> Run::MakeWriteOps() {
  // Enough fresh ads for every write the run can make; WriteOps retires and
  // compacts instead once they run out.
  const auto records =
      static_cast<std::size_t>(cfg_.writes.qps * args_.seconds * 2.0);
  return std::make_unique<WriteOps>(
      &deploy_->served(), IngestRecords(cfg_.world, records, args_.seed),
      cfg_.writes.compact_every, args_.seed);
}

void Run::Verify(const std::vector<const PhaseResult*>& phases,
                 const WriteOps* ops) {
  std::vector<const ParityLog*> logs;
  for (const PhaseResult* p : phases) {
    for (const ParityLog& log : p->parity) logs.push_back(&log);
  }
  std::vector<std::uint32_t> bad;
  parity_mismatches_ = CountMismatches(
      logs, [this](std::uint32_t item) { return Expected(item); }, &bad);
  for (std::size_t i = 0; i < std::min<std::size_t>(bad.size(), 5); ++i) {
    std::fprintf(stderr, "parity mismatch: %s\n", pool_[bad[i]].text.c_str());
  }

  if (ops != nullptr) {
    const std::size_t ledger =
        ops->LedgerMismatches(deploy_->reference_cars());
    ledger_mismatches_ += ledger;
    attempted_ += ops->steps() + 1;
    failed_ += ops->failures() + (ledger > 0 ? 1 : 0);
    if (ledger > 0) std::fprintf(stderr, "ledger: %zu rows differ\n", ledger);
  }

  // Final probe set: the wire against in-process Ask on the final served
  // snapshot, writes included.
  auto client = serve::net::NetClient::ConnectUnix(deploy_->socket_path());
  const auto probes =
      PickStream(*picker_, 200, SubSeed(args_.seed, "final_probe"));
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const PoolQuestion& q = pool_[probes[i]];
    const std::string want = ReferenceAnswer(deploy_->served(), q);
    std::string got = "transport";
    if (client.ok()) {
      serve::net::Request request;
      request.id = i + 1;
      request.method = q.domain.empty() ? "ask" : "ask_in_domain";
      request.domain = q.domain;
      request.question = q.text;
      auto response = client.value().Call(request);
      if (response.ok()) {
        got = response.value().ok()
                  ? response.value().canonical
                  : "status:" + response.value().status;
      }
    }
    if (got != want) ++probe_mismatches_;
  }
  attempted_ += probes.size();
  failed_ += parity_mismatches_ + probe_mismatches_;
}

// ---------------------------------------------------------- end-to-end run

LadderResult Run::LadderPass(std::size_t pass, std::size_t start,
                             double rung_s, std::vector<PhaseResult>* phases,
                             std::size_t* highest) {
  // A rung meets the limit when its tail (failures counting as infinitely
  // late) is within it and the backlog left when sending stops could drain
  // within it. Rungs this pass did not visit have no tail.
  const std::size_t rungs = cfg_.ladder_qps.size();
  std::vector<double> tails(rungs, std::nan(""));
  std::vector<bool> met(rungs, false);
  *highest = rungs;
  int direction = 0;
  for (std::size_t i = start; i < rungs;) {
    // Long enough, even on a low rung, that its p99 has ten answers beyond.
    const double rate = cfg_.ladder_qps[i];
    const double seconds = std::max(rung_s, kWindowSamples / rate);
    phases->push_back(RunOpenLoop(
        deploy_->socket_path(), pool_,
        PoissonSchedule(rate, seconds, *picker_,
                        SubSeed(args_.seed, "ladder" + std::to_string(pass) +
                                                "." + std::to_string(i))),
        OpenConns(), Scope()));
    const PhaseResult& r = phases->back();
    std::vector<double> lat = r.latency_ms;
    lat.insert(lat.end(), r.failed, INFINITY);
    const Summary s = Summarize(std::move(lat), 0.99);
    tails[i] = s.tail;
    met[i] = RungMeets(s, static_cast<double>(r.backlog_at_end), rate,
                       cfg_.limit_p99_ms);
    if (met[i] && (*highest == rungs || i > *highest)) *highest = i;
    std::printf("  ladder pass %zu %8.1f q/s: p50 %8.3f ms, tail %9.3f ms "
                "%s, backlog %zu -> %s\n",
                pass, rate, s.p50, s.tail, QuantileNote(s).c_str(),
                r.backlog_at_end, met[i] ? "meets" : "misses");
    i = NextRung(rungs, i, met[i], &direction);
  }
  return SloFromLadder(cfg_.ladder_qps, tails, met, cfg_.limit_p99_ms);
}

void Run::MeasureEndToEnd(Report* report) {
  const double t = args_.seconds;
  const std::string& socket = deploy_->socket_path();
  std::unique_ptr<WriteOps> ops;
  std::unique_ptr<Writer> writer;
  if (cfg_.writes.concurrent) {
    ops = MakeWriteOps();
    writer = std::make_unique<Writer>(ops.get(), cfg_.writes.qps);
  }

  // Rounds, each sampling every figure once: one more boot (taking a share
  // of the idle writes between the phases), the nominal rate (open loop),
  // saturation (closed loop), and one pass over the rate ladder. The host's
  // speed drifts within a run; spreading every figure over all rounds and
  // reporting interquartile means over windows and passes and medians over
  // boots keeps one slow stretch from deciding a figure. Each round's
  // timestamps are shifted onto one timeline per phase.
  const std::size_t rounds = kRounds;
  const std::size_t closed = ClosedConns();
  const double nominal_slice = cfg_.nominal_share * t / rounds;
  const double peak_slice = cfg_.peak_share * t / rounds;
  const double rung_s = cfg_.ladder_share * t / (rounds * kRungsPerPass);
  std::vector<PhaseResult> phases;
  std::size_t start = cfg_.ladder_start;
  std::vector<double> ask_ms, ask_at, lag_ms, peak_at, pass_slo, pass_met;
  std::size_t peak_answers = 0;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> nominal_spans;
  const std::size_t idle_chunk = cfg_.writes.count / rounds / 3;
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::string round = std::to_string(r);
    Extra extra;
    if (!StartExtra(&extra)) ++failed_;
    nominal_spans.emplace_back(Clock::now(), Clock::now());
    phases.push_back(RunOpenLoop(
        socket, pool_,
        PoissonSchedule(cfg_.nominal_qps, nominal_slice, *picker_,
                        SubSeed(args_.seed, "nominal" + round)),
        NominalConns(), Scope()));
    nominal_spans.back().second = Clock::now();
    const PhaseResult& nominal = phases.back();
    ask_ms.insert(ask_ms.end(), nominal.latency_ms.begin(),
                  nominal.latency_ms.end());
    for (double at : nominal.at_s) ask_at.push_back(at + r * nominal_slice);
    lag_ms.insert(lag_ms.end(), nominal.lag_ms.begin(), nominal.lag_ms.end());
    IdleWrites(&extra, nullptr, idle_chunk);

    phases.push_back(RunClosedLoop(socket, pool_,
                                   Streams(closed, 1 << 16, "peak" + round),
                                   peak_slice, 0, kPeakDepth, Scope()));
    const PhaseResult& peak = phases.back();
    peak_answers += peak.ok;
    for (double at : peak.at_s) {
      if (at < peak_slice) peak_at.push_back(at + r * peak_slice);
    }
    IdleWrites(&extra, nullptr, idle_chunk);

    // The next pass starts where this one found the knee.
    std::size_t highest = 0;
    const LadderResult ladder = LadderPass(r, start, rung_s, &phases, &highest);
    pass_slo.push_back(ladder.slo_qps);
    pass_met.push_back(ladder.highest_met);
    start = highest < cfg_.ladder_qps.size() ? highest : 0;

    IdleWrites(&extra, nullptr, extra.remaining);
    FinishExtra(&extra);
  }
  if (writer != nullptr) writer->Stop();

  std::vector<const PhaseResult*> checked;
  for (const PhaseResult& p : phases) {
    checked.push_back(&p);
    attempted_ += p.attempted;
    failed_ += p.failed;
  }
  Verify(checked, ops.get());

  // Latencies over windows of about kWindowSamples requests, throughput
  // over half-second windows, write latency over runs of 100 writes.
  const double nominal_s = nominal_slice * rounds;
  const WindowedSummary ask = SummarizeWindows(
      ask_ms, ask_at, nominal_s,
      WindowCount(nominal_s * cfg_.nominal_qps, kWindowSamples));
  const double peak_s = peak_slice * rounds;
  const double peak_qps = WindowRate(peak_at, peak_s, WindowCount(peak_s, 0.5));
  // A concurrent writer's latency counts while the reads run at the
  // nominal rate (as ask latency does), not under the saturation phases.
  std::vector<double> write_ms, write_index;
  if (ops != nullptr) {
    for (std::size_t i = 0; i < ops->row_writes_us().size(); ++i) {
      const Clock::time_point end = ops->row_writes_end()[i];
      const bool nominal = std::any_of(
          nominal_spans.begin(), nominal_spans.end(),
          [end](const auto& s) { return s.first <= end && end <= s.second; });
      if (nominal) write_ms.push_back(ops->row_writes_us()[i] / 1000.0);
    }
  } else {
    for (double us : idle_write_us_) write_ms.push_back(us / 1000.0);
  }
  for (std::size_t i = 0; i < write_ms.size(); ++i) {
    write_index.push_back(static_cast<double>(i));
  }
  const WindowedSummary write_windows = SummarizeWindows(
      write_ms, write_index, static_cast<double>(write_ms.size()),
      WindowCount(static_cast<double>(write_ms.size()), 100));
  const Summary write = Summarize(write_ms, 0.99);
  std::vector<double> setups;
  for (const BootTimes& b : boots_) setups.push_back(b.total_s);
  const Summary lag = Summarize(lag_ms, 0.99);

  std::string slo_note = "(interquartile mean of " +
                         std::to_string(pass_slo.size()) +
                         " passes; highest rungs met:";
  for (double met : pass_met) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %g", met);
    slo_note += buf;
  }
  slo_note += ")";

  report->Add("setup_s", Median(setups), "s",
              "(median of " + std::to_string(setups.size()) + " boots)");
  report->Add("peak_qps", peak_qps, "1/s",
              "(" + std::to_string(closed) + " connections x " +
                  std::to_string(kPeakDepth) + " outstanding, " +
                  std::to_string(peak_answers) + " answers)");
  report->Add("slo_qps", InterquartileMean(pass_slo), "1/s", slo_note);
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
  report->Add("write_p50_ms", write_windows.p50, "ms",
              WindowNote(write_windows));
  // Too unsteady on a shared host to gate a change (README.md, "Steadiness"),
  // but a reader wants them; the traced run reports them as metrics.
  report->Print("ask_p50_ms", ask.p50, "ms", WindowNote(ask));
  report->Print("ask_p99_ms", ask.tail, "ms", WindowNote(ask));
  report->Print("write_p99_ms", write.tail, "ms", QuantileNote(write));
  report->Print("fail_ratio",
                static_cast<double>(failed_) /
                    static_cast<double>(std::max<std::size_t>(1, attempted_)),
                "ratio");
  report->Print("gen.lag_p99_ms", lag.tail, "ms", QuantileNote(lag));
}

// ------------------------------------------------------------- traced run

void Run::MeasureLayers(Report* report) {
  const std::string& socket = deploy_->socket_path();
  serve::PreparedQueryCache cache;  // the server's default options
  SpanRecorder spans;
  for (std::size_t r = 0; r < kRounds; ++r) {
    Extra extra;
    if (!StartExtra(&extra)) ++failed_;
    IdleWrites(&extra, &spans, extra.remaining);
    FinishExtra(&extra);
  }

  // Warm the replay's own cache with the same stream the server saw.
  spans.set_enabled(false);
  const std::size_t closed = ClosedConns();
  const std::size_t per = (cfg_.warmup_requests + closed - 1) / closed;
  for (const auto& stream : Streams(closed, per, "warmup")) {
    for (std::uint32_t item : stream) {
      TracedAsk(deploy_->served(), &cache, &spans, 0, pool_[item]);
    }
  }
  spans.set_enabled(true);

  std::unique_ptr<WriteOps> ops;
  std::unique_ptr<Writer> writer;
  if (cfg_.writes.concurrent) {
    ops = MakeWriteOps();
    writer = std::make_unique<Writer>(ops.get(), cfg_.writes.qps);
  }
  const std::uint64_t version_before = deploy_->served().snapshot()->version();
  const ServeCounters before = ReadCounters(deploy_->server());
  const auto schedule =
      PoissonSchedule(cfg_.nominal_qps, kTraceNominalShare * args_.seconds,
                      *picker_, SubSeed(args_.seed, "nominal"));
  PhaseResult nominal =
      RunOpenLoop(socket, pool_, schedule, NominalConns(), Scope());
  const ServeCounters after = ReadCounters(deploy_->server());
  if (writer != nullptr) writer->Stop();
  attempted_ += nominal.attempted;
  failed_ += nominal.failed;

  // Replay the nominal schedule's first requests one at a time: the wire
  // answer first, then the same question through the traced path (every
  // other request untraced, for the overhead). On ingest_mix the writes
  // fall between the reads at the schedule's write rate. The replay stops
  // after kTraceReplay requests or kTraceReplayShare of the run.
  auto client = serve::net::NetClient::ConnectUnix(socket);
  const std::size_t replay = std::min(kTraceReplay, schedule.size());
  const auto replay_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kTraceReplayShare *
                                                       args_.seconds));
  std::vector<double> wire_us, traced_us, untraced_us;
  std::size_t traced = 0, hits = 0, canonical_bytes = 0, frame_bytes = 0;
  db::ExecStats exec_sum, rank_sum;
  std::size_t writes_done = 0;
  for (std::size_t k = 0;
       k < replay && client.ok() && Clock::now() < replay_end; ++k) {
    const std::uint64_t id = k + 1;
    if (cfg_.writes.concurrent) {
      const auto due_writes =
          static_cast<std::size_t>(schedule[k].at_s * cfg_.writes.qps);
      for (; writes_done < due_writes; ++writes_done) {
        (void)ops->Step(&spans, 1'000'000'000ull + writes_done);
      }
    }
    const PoolQuestion& q = pool_[schedule[k].item];
    serve::net::Request request;
    request.id = id;
    request.method = q.domain.empty() ? "ask" : "ask_in_domain";
    request.domain = q.domain;
    request.question = q.text;
    auto start = Clock::now();
    auto wire = client.value().Call(request);
    wire_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count());

    const bool trace_this = k % 2 == 0;
    spans.set_enabled(trace_this);
    start = Clock::now();
    const TracedOutcome out =
        TracedAsk(deploy_->served(), &cache, &spans, id, q);
    const double in_us =
        std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count();
    spans.set_enabled(true);
    (trace_this ? traced_us : untraced_us).push_back(in_us);
    ++attempted_;
    if (!wire.ok() || wire.value().status != out.response.status ||
        wire.value().canonical != out.response.canonical) {
      ++trace_mismatches_;
      ++failed_;
      continue;
    }
    if (!trace_this) continue;
    ++traced;
    hits += out.cache_hit ? 1 : 0;
    canonical_bytes += out.canonical_bytes;
    frame_bytes += out.response_frame_bytes;
    exec_sum += out.execute;
    rank_sum += out.rank;
  }
  if (!client.ok()) ++failed_;
  const std::uint64_t swaps =
      ops != nullptr ? deploy_->served().snapshot()->version() - version_before
                     : idle_swaps_;
  Verify({&nominal}, ops.get());

  // Boot layer.
  std::vector<double> build, save, open, start;
  for (const BootTimes& b : boots_) {
    build.push_back(b.build_s);
    save.push_back(b.save_ms);
    open.push_back(b.open_ms);
    start.push_back(b.start_ms);
  }
  report->Add("engine.build_s", InterquartileMean(build), "s");
  report->Add("snapshot.save_ms", InterquartileMean(save), "ms");
  report->Add("snapshot.open_ms", InterquartileMean(open), "ms");
  report->Add("net.start_ms", InterquartileMean(start), "ms");

  // Span self times, per layer.
  const auto self = SelfMicrosByName(spans.spans());
  static const std::pair<const char*, const char*> kLayers[] = {
      {"request", "request.us"},
      {"client.encode", "client.encode_us"},
      {"net.frame", "net.frame_us"},
      {"net.decode", "net.decode_us"},
      {"serve.ask", "serve.ask_us"},
      {"classify", "classify.us"},
      {"cache.get", "cache.get_us"},
      {"tag", "tag.us"},
      {"conditions", "conditions.us"},
      {"assemble", "assemble.us"},
      {"render_sql", "render_sql.us"},
      {"plan", "plan.us"},
      {"execute", "execute.us"},
      {"rank", "rank.us"},
      {"cache.put", "cache.put_us"},
      {"render.canonical", "render.canonical_us"},
      {"net.encode", "net.encode_us"},
      {"client.decode", "client.decode_us"},
      {"ingest", "ingest.us"},
      {"retire", "retire.us"},
      {"compact", "compact.ms"},
  };
  double root_p50 = 0.0;
  for (const auto& [span, metric] : kLayers) {
    const auto it = self.find(span);
    Summary s = it == self.end() ? Summary{} : Summarize(it->second, 0.99);
    std::string unit = "us";
    if (std::strcmp(span, "compact") == 0) {
      s.p50 /= 1000.0;
      s.tail /= 1000.0;
      unit = "ms";
    }
    if (std::strcmp(span, "request") == 0) {
      // The root's full duration, not its self time.
      std::vector<double> totals;
      const auto& all = spans.spans();
      for (const Span& sp : all) {
        if (sp.parent < 0 && std::strcmp(sp.name, "request") == 0) {
          totals.push_back(static_cast<double>(sp.end_ns - sp.start_ns) /
                           1000.0);
        }
      }
      s = Summarize(totals, 0.99);
      root_p50 = s.p50;
    }
    report->Add(std::string(metric) + ".p50", s.p50, unit);
    report->Add(std::string(metric) + ".p99", s.tail, unit, QuantileNote(s));
  }

  auto per_request = [&](std::size_t total) {
    return traced > 0 ? static_cast<double>(total) / traced : 0.0;
  };
  const double wire_p50 = Median(wire_us);
  report->Add("wire.p50_us", wire_p50, "us",
              "(sequential, n=" + std::to_string(wire_us.size()) + ")");
  report->Add("net.unattributed_us", wire_p50 - root_p50, "us");
  report->Add("net.response_bytes", per_request(frame_bytes), "bytes");
  report->Add("render.bytes", per_request(canonical_bytes), "bytes");
  report->Add("trace.overhead_ratio",
              Median(traced_us) / std::max(1e-9, Median(untraced_us)) - 1.0,
              "ratio",
              "(traced vs untraced in-process medians, n=" +
                  std::to_string(traced_us.size()) + "/" +
                  std::to_string(untraced_us.size()) + ")");
  report->Add("trace.cache_hit_ratio", per_request(hits), "ratio");

  const double dequeued = after.dequeued - before.dequeued;
  report->Add("serve.queue_wait_us",
              dequeued > 0 ? (after.total_queue_us - before.total_queue_us) /
                                 dequeued
                           : 0.0,
              "us", "(mean over the nominal phase)");
  report->Add("serve.queue_wait_max_us", after.max_queue_us, "us",
              "(max since boot)");
  report->Add("serve.shed", after.shed - before.shed, "count");
  report->Add("serve.deadline_exceeded",
              after.deadline_exceeded - before.deadline_exceeded, "count");
  const double lookups = (after.cache_hits - before.cache_hits) +
                         (after.cache_misses - before.cache_misses);
  report->Add("cache.hit_ratio",
              lookups > 0 ? (after.cache_hits - before.cache_hits) / lookups
                          : 0.0,
              "ratio", "(server, nominal phase)");
  report->Add("cache.evictions", after.cache_evictions - before.cache_evictions,
              "count", "(server, nominal phase)");

  report->Add("execute.rows_visited", per_request(exec_sum.rows_visited), "count");
  report->Add("execute.blocks_visited", per_request(exec_sum.blocks_visited), "count");
  report->Add("execute.index_lookups", per_request(exec_sum.index_lookups), "count");
  report->Add("rank.blocks_visited", per_request(rank_sum.rank_blocks_visited),
              "count");
  report->Add("rank.blocks_skipped", per_request(rank_sum.rank_blocks_skipped),
              "count");
  const std::size_t rank_blocks =
      rank_sum.rank_blocks_visited + rank_sum.rank_blocks_skipped;
  report->Add("rank.skip_ratio",
              rank_blocks > 0 ? static_cast<double>(rank_sum.rank_blocks_skipped) /
                                    static_cast<double>(rank_blocks)
                              : 0.0,
              "ratio");
  report->Add("rank.rows_pruned", per_request(rank_sum.rank_rows_pruned), "count");
  report->Add("write.snapshot_swaps", static_cast<double>(swaps), "count");
  report->Add("gen.lag_p99_ms", Summarize(nominal.lag_ms, 0.99).tail, "ms");
  // The wire latency of the untraced nominal phase, by the same windows as
  // the end-to-end run, and the write tail.
  const double nominal_s = kTraceNominalShare * args_.seconds;
  const WindowedSummary ask = SummarizeWindows(
      nominal.latency_ms, nominal.at_s, nominal_s,
      WindowCount(nominal_s * cfg_.nominal_qps, kWindowSamples));
  report->Add("ask_p50_ms", ask.p50, "ms", WindowNote(ask));
  report->Add("ask_p99_ms", ask.tail, "ms", WindowNote(ask));
  std::vector<double> write_ms =
      ops != nullptr ? ops->row_writes_us() : idle_write_us_;
  for (double& w : write_ms) w /= 1000.0;
  const Summary write = Summarize(write_ms, 0.99);
  report->Add("write_p99_ms", write.tail, "ms", QuantileNote(write));
  report->Add("fail_ratio",
              static_cast<double>(failed_) /
                  static_cast<double>(std::max<std::size_t>(1, attempted_)),
              "ratio");

  const std::string path = "spans_" + cfg_.workload + "_" +
                           std::to_string(args_.seed) + ".tsv";
  if (spans.WriteTsv(path)) {
    std::printf("  wrote %zu spans to %s\n", spans.spans().size(),
                path.c_str());
  }
}

int Run::Main() {
  std::printf("cqads_e2e workload=%s seed=%llu seconds=%g trace=%d\n",
              cfg_.workload.c_str(),
              static_cast<unsigned long long>(args_.seed), args_.seconds,
              args_.trace);
  if (!Boot()) return 1;
  const std::size_t workers = serve::ConcurrentServer::Options().num_workers;
  std::printf("  provenance: nproc=%zu workers=%zu git=%s pool=%zu\n", nproc_,
              workers, bench::BenchGitDescribe(), pool_.size());
  Warmup();

  Report report;
  if (args_.trace == 1) {
    MeasureLayers(&report);
  } else {
    MeasureEndToEnd(&report);
  }
  const bool correct = parity_mismatches_ == 0 && ledger_mismatches_ == 0 &&
                       probe_mismatches_ == 0 && trace_mismatches_ == 0 &&
                       failed_ == 0;
  std::printf("  checks: parity %zu, ledger %zu, final probe %zu, trace %zu "
              "mismatches; %zu of %zu attempts failed\n",
              parity_mismatches_, ledger_mismatches_, probe_mismatches_,
              trace_mismatches_, failed_, attempted_);
  report.PrintHuman();

  bench::BenchJson json("e2e_" + cfg_.workload +
                        (args_.trace == 1 ? "_trace" : ""));
  json.Add("nproc", nproc_);
  json.Add("workers", workers);
  json.Add("seed", static_cast<std::size_t>(args_.seed));
  json.Add("correct", std::string(correct ? "true" : "false"));
  report.AddTo(&json);
  json.Write();

  deploy_.reset();
  std::printf("%s\n", report.ResultLine(correct, attempted_, failed_).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace cqads::e2e

int main(int argc, char** argv) {
  using namespace cqads::e2e;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* v = argv[++i];
    if (arg == "--config") {
      args.config = v;
    } else if (arg == "--workload") {
      args.workload = v;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::atof(v);
    } else if (arg == "--trace") {
      args.trace = std::atoi(v);
    } else {
      return Usage();
    }
  }
  if (args.config.empty() || args.workload.empty() || args.seconds <= 0.0 ||
      (args.trace != 0 && args.trace != 1)) {
    return Usage();
  }
  auto config = LoadConfig(args.config, args.workload);
  if (!config.ok()) {
    std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
    return 2;
  }
  Run run(std::move(config).value(), args);
  return run.Main();
}
