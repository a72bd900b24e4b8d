#include "workload.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iterator>
#include <unordered_set>

#include "core/ask_types.h"
#include "datagen/ads_generator.h"
#include "datagen/domain_spec.h"
#include "db/schema.h"
#include "eval/experiments.h"
#include "qlog/ti_matrix.h"
#include "serve/net/net_client.h"
#include "serve/net/protocol.h"

namespace cqads::e2e {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ------------------------------------------------------------------- fleet

struct MakeModel {
  const char* make;
  const char* model;
};
constexpr MakeModel kPairs[] = {
    {"honda", "accord"},   {"honda", "civic"},  {"toyota", "camry"},
    {"toyota", "corolla"}, {"ford", "focus"},   {"ford", "mustang"},
    {"chevy", "malibu"},   {"bmw", "m3"},       {"mazda", "mazda3"},
    {"jeep", "cherokee"},
};
constexpr std::size_t kNumPairs = sizeof(kPairs) / sizeof(kPairs[0]);
constexpr const char* kColors[] = {"blue",   "red",   "white", "black",
                                   "silver", "green", "gold"};
constexpr const char* kFeatures[] = {"cd player;power steering",
                                     "gps;leather seats", "bluetooth;usb",
                                     "cruise control", "backup camera;sunroof"};

/// Pair p's price band is [2000 + 4000p, 6000 + 4000p).
double BandLow(std::size_t pair) {
  return 2000.0 + 4000.0 * static_cast<double>(pair);
}

db::Schema FleetSchema() {
  using db::AttrType;
  using db::Attribute;
  using db::DataKind;
  auto cat = [](std::string name, AttrType t,
                std::vector<std::string> aliases = {}) {
    Attribute a;
    a.name = std::move(name);
    a.attr_type = t;
    a.data_kind = DataKind::kCategorical;
    a.aliases = std::move(aliases);
    return a;
  };
  auto num = [](std::string name, std::vector<std::string> units,
                std::vector<std::string> aliases) {
    Attribute a;
    a.name = std::move(name);
    a.attr_type = AttrType::kTypeIII;
    a.data_kind = DataKind::kNumeric;
    a.unit_keywords = std::move(units);
    a.aliases = std::move(aliases);
    return a;
  };
  Attribute features;
  features.name = "features";
  features.attr_type = AttrType::kTypeII;
  features.data_kind = DataKind::kTextList;
  return db::Schema(
      "cars", {cat("make", AttrType::kTypeI, {"maker"}),
               cat("model", AttrType::kTypeI), num("year", {}, {"year"}),
               num("price", {"dollars", "dollar", "usd"}, {"price", "cost"}),
               num("mileage", {"miles", "mi"}, {"mileage"}),
               cat("color", AttrType::kTypeII, {"color"}),
               cat("transmission", AttrType::kTypeII),
               cat("doors", AttrType::kTypeII),
               cat("drivetrain", AttrType::kTypeII), features});
}

/// Row `i` of a group whose price sits at `price`.
db::Record FleetRecord(std::size_t pair, std::size_t i, double price,
                       Rng* rng) {
  db::Record r;
  r.push_back(db::Value::Text(kPairs[pair].make));
  r.push_back(db::Value::Text(kPairs[pair].model));
  r.push_back(
      db::Value::Real(2000.0 + static_cast<double>(rng->UniformInt(0, 12))));
  r.push_back(db::Value::Real(price));
  r.push_back(db::Value::Real(
      static_cast<double>(rng->UniformInt(10, 180)) * 1000.0));
  r.push_back(db::Value::Text(kColors[i % 7]));
  r.push_back(db::Value::Text(i % 3 == 0 ? "manual" : "automatic"));
  r.push_back(db::Value::Text(i % 2 == 0 ? "4 door" : "2 door"));
  r.push_back(
      db::Value::Text(i % 5 == 0 ? "4 wheel drive" : "2 wheel drive"));
  r.push_back(db::Value::Text(kFeatures[i % 5]));
  return r;
}

std::string WireRefusal(const Status& status) {
  return std::string("status:") + serve::net::WireStatusName(status.code());
}

std::string RecordKey(const db::Record& record) {
  std::string key;
  for (const db::Value& v : record) {
    key += v.ToSqlLiteral();
    key += '\x1f';
  }
  return key;
}

}  // namespace

db::Table BuildFleetTable(std::size_t rows) {
  db::Table table(FleetSchema());
  Rng rng(20111130);
  const std::size_t per_pair = rows / kNumPairs;
  for (std::size_t p = 0; p < kNumPairs; ++p) {
    const std::size_t n = p + 1 == kNumPairs ? rows - per_pair * p : per_pair;
    for (std::size_t i = 0; i < n; ++i) {
      const double frac = static_cast<double>(i) / static_cast<double>(n);
      // Ascending inside the band; the cents jitter keeps whole-dollar
      // targets from matching exactly.
      const double price =
          BandLow(p) + 4000.0 * frac + rng.UniformReal(0.01, 0.99);
      if (!table.Insert(FleetRecord(p, i, price, &rng)).ok()) std::abort();
    }
  }
  table.BuildIndexes();
  return table;
}

// -------------------------------------------------------------- deployment

Result<std::unique_ptr<Deployment>> Deployment::Boot(
    WorldKind kind, std::size_t fleet_rows, const std::string& snapshot_path,
    const std::string& socket_path) {
  std::unique_ptr<Deployment> d(new Deployment());
  d->snapshot_path_ = snapshot_path;
  d->socket_path_ = socket_path;
  const auto boot_start = Clock::now();

  if (kind == WorldKind::kPaper) {
    datagen::WorldOptions options;  // the paper world: 8 x 500 ads
    options.seed = 20111130;
    options.ads_per_domain = 500;
    options.sessions_per_domain = 1500;
    options.corpus_docs_per_domain = 150;
    auto world = datagen::World::Build(options);
    if (!world.ok()) return world.status();
    d->paper_ = std::move(world).value();
  } else {
    d->fleet_table_ = std::make_unique<db::Table>(BuildFleetTable(fleet_rows));
    d->fleet_engine_ = std::make_unique<core::CqadsEngine>();
    Status st = d->fleet_engine_->AddDomain(d->fleet_table_.get(),
                                            qlog::TiMatrix());
    if (!st.ok()) return st;
  }
  d->boot_.build_s = SecondsSince(boot_start);

  auto step = Clock::now();
  Status saved = d->reference().SaveSnapshot(snapshot_path);
  if (!saved.ok()) return saved;
  d->boot_.save_ms = 1000.0 * SecondsSince(step);

  step = Clock::now();
  auto opened = core::CqadsEngine::OpenSnapshot(snapshot_path);
  if (!opened.ok()) return opened.status();
  d->served_ = std::move(opened).value();
  d->boot_.open_ms = 1000.0 * SecondsSince(step);

  // The daemon's defaults: default ConcurrentServer options (4 workers,
  // 4096-entry prepared cache, no budget, unbounded queue), no TCP.
  step = Clock::now();
  serve::net::NetServer::Options options;
  options.unix_path = socket_path;
  options.tcp_port = -1;
  auto server = serve::net::NetServer::Start(d->served_.get(), options);
  if (!server.ok()) return server.status();
  d->server_ = std::move(server).value();
  d->boot_.start_ms = 1000.0 * SecondsSince(step);

  // Ready means a client gets an answer, not just that listen() returned.
  auto client = serve::net::NetClient::ConnectUnix(socket_path);
  if (!client.ok()) return client.status();
  serve::net::Request ping;
  ping.method = "ping";
  auto pong = client.value().Call(ping);
  if (!pong.ok()) return pong.status();
  d->boot_.total_s = SecondsSince(boot_start);
  return d;
}

Deployment::~Deployment() {
  if (server_ != nullptr) server_->Stop();
  server_.reset();
  served_.reset();
  if (!snapshot_path_.empty()) ::unlink(snapshot_path_.c_str());
  if (!socket_path_.empty()) ::unlink(socket_path_.c_str());
}

const core::CqadsEngine& Deployment::reference() const {
  return paper_ != nullptr ? paper_->engine() : *fleet_engine_;
}

const db::Table& Deployment::reference_cars() const {
  return paper_ != nullptr ? *paper_->table("cars") : *fleet_table_;
}

// ------------------------------------------------------------------- pools

std::vector<PoolQuestion> PaperPool(const datagen::World& world,
                                    std::size_t car_count,
                                    std::size_t per_other_domain,
                                    std::uint64_t seed) {
  const auto generated = eval::GenerateSurveyQuestions(
      world, car_count, per_other_domain, SubSeed(seed, "paper_pool"));
  std::vector<PoolQuestion> pool;
  std::unordered_set<std::string> seen;
  for (const auto& [domain, questions] : generated) {
    for (const auto& q : questions) {
      if (seen.insert(q.text).second) pool.push_back(PoolQuestion{q.text, ""});
    }
  }
  return pool;
}

std::vector<PoolQuestion> FleetPool(std::size_t count, std::uint64_t seed) {
  // Stratified, so every seed asks the same mix of costs (a lone price near
  // the top of the fleet ranks far more blocks than one near the bottom):
  // question i targets a price inside the i-th equal slice of its range,
  // and the seed only picks where inside the slice, and the colours.
  Rng rng(SubSeed(seed, "fleet_pool"));
  std::vector<PoolQuestion> pool;
  const std::size_t lone = count / 2;
  const double lo = 1000.0, hi = BandLow(kNumPairs);
  for (std::size_t i = 0; i < lone; ++i) {
    const double price =
        lo + (static_cast<double>(i) + rng.UniformReal(0.0, 1.0)) *
                 (hi - lo) / static_cast<double>(lone);
    pool.push_back(PoolQuestion{
        std::to_string(static_cast<std::int64_t>(price)) + " dollars",
        "cars"});
  }
  const std::size_t paired = count - lone;
  const std::size_t slots = (paired + kNumPairs - 1) / kNumPairs;
  for (std::size_t i = 0; i < paired; ++i) {
    const std::size_t p = i % kNumPairs;
    const std::size_t slot = i / kNumPairs;
    // Around the pair's own band, spilling into its neighbours'.
    const double price =
        BandLow(p) - 2000.0 +
        (static_cast<double>(slot) + rng.UniformReal(0.0, 1.0)) * 8000.0 /
            static_cast<double>(slots);
    std::string text = std::string(kPairs[p].make) + " " + kPairs[p].model +
                       " " + std::to_string(static_cast<std::int64_t>(price)) +
                       " dollars";
    if (slot % 3 == 0) text = kColors[rng.UniformIndex(7)] + (" " + text);
    pool.push_back(PoolQuestion{std::move(text), "cars"});
  }
  return pool;
}

std::vector<db::Record> IngestRecords(WorldKind kind, std::size_t count,
                                      std::uint64_t seed) {
  Rng rng(SubSeed(seed, "ingest"));
  std::vector<db::Record> out;
  out.reserve(count);
  if (kind == WorldKind::kFleet) {
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t p = rng.UniformIndex(kNumPairs);
      const double price =
          BandLow(p) + rng.UniformReal(0.0, 4000.0) + rng.UniformReal(0.01, 0.99);
      out.push_back(FleetRecord(p, i, price, &rng));
    }
    return out;
  }
  auto ads = datagen::GenerateAds(*datagen::FindDomainSpec("cars"), count,
                                  &rng);
  if (!ads.ok()) std::abort();
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(ads.value().row(static_cast<db::RowId>(i)));
  }
  return out;
}

std::string ReferenceAnswer(const core::CqadsEngine& engine,
                            const PoolQuestion& question) {
  auto result = question.domain.empty()
                    ? engine.Ask(question.text)
                    : engine.AskInDomain(question.domain, question.text);
  return result.ok() ? core::CanonicalAskResultString(result.value())
                     : WireRefusal(result.status());
}

// ------------------------------------------------------------------ writes

WriteOps::WriteOps(core::CqadsEngine* engine, std::vector<db::Record> records,
                   std::size_t compact_every, std::uint64_t seed)
    : engine_(engine),
      records_(std::move(records)),
      compact_every_(compact_every),
      rng_(SubSeed(seed, "writes")) {}

Status WriteOps::Step(SpanRecorder* spans, std::uint64_t request) {
  Kind kind = Kind::kIngest;
  if (compact_every_ > 0 && (steps_ + 1) % compact_every_ == 0) {
    kind = Kind::kCompact;
  } else if (!pending_.empty() && rng_.Bernoulli(0.4)) {
    kind = Kind::kRetire;
  }
  if (kind == Kind::kIngest && next_record_ >= records_.size()) {
    kind = pending_.empty() ? Kind::kCompact : Kind::kRetire;
  }
  const std::size_t slot =
      kind == Kind::kRetire ? rng_.UniformIndex(pending_.size()) : 0;
  return Apply(kind, slot, spans, request);
}

Status WriteOps::Apply(Kind kind, std::size_t slot, SpanRecorder* spans,
                       std::uint64_t request) {
  ++steps_;
  static constexpr const char* kNames[] = {"ingest", "retire", "compact"};
  const int span =
      spans != nullptr ? spans->Begin(kNames[static_cast<int>(kind)], request)
                       : -1;
  const auto start = Clock::now();
  Status status;
  switch (kind) {
    case Kind::kIngest: {
      auto row = engine_->IngestAd("cars", records_[next_record_]);
      if (row.ok()) {
        ledger_.emplace_back(next_record_, false);
        pending_.emplace_back(row.value(), ledger_.size() - 1);
      }
      status = row.status();
      ++next_record_;
      break;
    }
    case Kind::kRetire:
      status = engine_->RetireAd("cars", pending_[slot].first);
      break;
    case Kind::kCompact:
      status = engine_->CompactDomain("cars");
      break;
  }
  const Clock::time_point end = Clock::now();
  const double micros =
      std::chrono::duration<double, std::micro>(end - start).count();
  if (spans != nullptr) spans->End(span);
  if (!status.ok()) {
    ++failures_;
    return status;
  }
  if (kind != Kind::kCompact) {
    row_writes_us_.push_back(micros);
    row_writes_end_.push_back(end);
  }
  if (kind == Kind::kRetire) {
    ledger_[pending_[slot].second].second = true;
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(slot));
  } else if (kind == Kind::kCompact) {
    pending_.clear();  // RowIds are renumbered by the merge
  }
  return status;
}

std::size_t WriteOps::LedgerMismatches(const db::Table& base) const {
  std::vector<std::string> want;
  want.reserve(base.num_rows() + ledger_.size());
  for (std::size_t r = 0; r < base.num_rows(); ++r) {
    want.push_back(RecordKey(base.row(static_cast<db::RowId>(r))));
  }
  for (const auto& [index, retired] : ledger_) {
    if (!retired) want.push_back(RecordKey(records_[index]));
  }

  std::vector<std::string> have;
  const core::EngineSnapshot::Ptr snap = engine_->snapshot();
  const core::DomainRuntime* rt = snap->runtime("cars");
  if (rt == nullptr) return want.size();
  const db::DeltaStore* delta = rt->live_delta();
  for (std::size_t r = 0; r < rt->table->num_rows(); ++r) {
    const auto id = static_cast<db::RowId>(r);
    if (delta != nullptr &&
        std::binary_search(delta->retired_base().begin(),
                           delta->retired_base().end(), id)) {
      continue;
    }
    have.push_back(RecordKey(rt->table->row(id)));
  }
  if (delta != nullptr) {
    for (std::size_t i = 0; i < delta->num_rows(); ++i) {
      if (!delta->delta_retired(i)) have.push_back(RecordKey(delta->record(i)));
    }
  }

  std::sort(want.begin(), want.end());
  std::sort(have.begin(), have.end());
  std::vector<std::string> diff;
  std::set_symmetric_difference(want.begin(), want.end(), have.begin(),
                                have.end(), std::back_inserter(diff));
  return diff.size();
}

}  // namespace cqads::e2e
