// The bounded top-k rank path (the fast path's partial ranking): the morsel
// scheduler, TopK heap semantics (exact (score desc, row asc) order,
// tie-safe threshold, k = 0 degenerate, schedule-independent merge),
// RankBounds block metadata, engine-level byte-parity of pruned/parallel
// ranking against the reference path's serial full sort, score-tie
// boundaries at answer_cap, delta rows + tombstones across a compaction,
// deadline-degraded sweeps, rank counters through ExecStats and
// ConcurrentServer::StatsJson, and the TSan leg racing morsel-parallel rank
// against ingest/retire/compaction.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/cqads_engine.h"
#include "core/pipeline.h"
#include "core/rank_sim.h"
#include "datagen/domain_spec.h"
#include "datagen/question_gen.h"
#include "datagen/world.h"
#include "db/exec/morsel.h"
#include "db/exec/rank_bounds.h"
#include "db/exec/topk.h"
#include "serve/concurrent_server.h"
#include "serve/worker_pool.h"
#include "test_fixtures.h"

namespace cqads {
namespace {

using db::RowId;
using db::exec::TopK;
using db::exec::TopKEntry;

// ------------------------------------------------------------ morsels

TEST(MorselSchedulerTest, InlineWhenNoRunner) {
  std::vector<int> hits(17, 0);
  db::exec::RunMorsels(17, 4, nullptr,
                       [&](std::size_t i) { hits[i]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(MorselSchedulerTest, EveryMorselRunsExactlyOnceOnPool) {
  serve::WorkerPool pool(4);
  constexpr std::size_t kMorsels = 250;
  std::vector<std::atomic<int>> hits(kMorsels);
  for (auto& h : hits) h = 0;
  db::exec::RunMorsels(kMorsels, 4, &pool, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(MorselSchedulerTest, ZeroMorselsIsANoop) {
  serve::WorkerPool pool(2);
  db::exec::RunMorsels(0, 4, &pool, [&](std::size_t) { FAIL(); });
}

// ------------------------------------------------------------- TopK unit

TEST(TopKTest, KeepsExactlyTheFullSortPrefix) {
  // Random scores with deliberate duplicates: the heap's survivors must be
  // byte-for-byte the first k entries of the full (score desc, row asc)
  // sort.
  Rng rng(42);
  for (std::size_t k : {std::size_t{1}, std::size_t{7}, std::size_t{30}}) {
    std::vector<TopKEntry> all;
    TopK topk(k);
    for (RowId row = 0; row < 500; ++row) {
      const double score =
          static_cast<double>(rng.UniformInt(0, 24)) / 10.0;
      all.push_back(TopKEntry{score, row, 0});
      topk.Push(score, row, 0);
    }
    std::sort(all.begin(), all.end(), db::exec::TopKBetter);
    all.resize(std::min(k, all.size()));
    const std::vector<TopKEntry> got = topk.Take();
    ASSERT_EQ(got.size(), all.size()) << "k=" << k;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].score, all[i].score) << "k=" << k << " i=" << i;
      EXPECT_EQ(got[i].row, all[i].row) << "k=" << k << " i=" << i;
    }
  }
}

TEST(TopKTest, TieAtThresholdAdmitsSmallerRowOnly) {
  TopK topk(2);
  EXPECT_FALSE(topk.full());
  topk.Push(1.0, 10, 0);
  topk.Push(1.0, 20, 0);
  ASSERT_TRUE(topk.full());
  EXPECT_EQ(topk.threshold(), 1.0);
  // Equal score: admitted iff the row id is smaller than the current k-th's
  // — the reason block pruning must use bound < threshold STRICTLY.
  EXPECT_TRUE(topk.WouldAccept(1.0, 5));
  EXPECT_FALSE(topk.WouldAccept(1.0, 20));
  EXPECT_FALSE(topk.WouldAccept(1.0, 25));
  EXPECT_FALSE(topk.WouldAccept(0.999, 0));
  ASSERT_TRUE(topk.Push(1.0, 5, 0));
  const auto got = topk.Take();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].row, 5u);
  EXPECT_EQ(got[1].row, 10u);
}

TEST(TopKTest, ZeroCapacityAcceptsNothingAndPrunesEverything) {
  TopK topk(0);
  EXPECT_FALSE(topk.WouldAccept(100.0, 0));
  EXPECT_FALSE(topk.Push(100.0, 0, 0));
  EXPECT_EQ(topk.threshold(), std::numeric_limits<double>::infinity());
  EXPECT_TRUE(topk.Take().empty());
}

TEST(TopKTest, MergeIsScheduleIndependent) {
  // Split one candidate stream across W "workers" in many different ways;
  // the merged top-k must always equal the single-accumulator result.
  Rng rng(7);
  std::vector<TopKEntry> all;
  for (RowId row = 0; row < 300; ++row) {
    all.push_back(
        TopKEntry{static_cast<double>(rng.UniformInt(0, 11)) / 4.0, row, 0});
  }
  constexpr std::size_t kK = 10;
  TopK reference(kK);
  for (const auto& e : all) reference.Push(e.score, e.row, e.tag);
  const auto want = reference.Take();

  for (std::size_t workers : {std::size_t{2}, std::size_t{3}, std::size_t{8}}) {
    for (std::uint64_t salt = 0; salt < 5; ++salt) {
      Rng assign(1000 + salt);
      std::vector<TopK> locals(workers, TopK(kK));
      for (const auto& e : all) {
        locals[static_cast<std::size_t>(
                   assign.UniformInt(0, static_cast<std::int64_t>(workers) - 1))]
            .Push(e.score, e.row, e.tag);
      }
      TopK merged(kK);
      for (auto& l : locals) merged.Merge(std::move(l));
      const auto got = merged.Take();
      ASSERT_EQ(got.size(), want.size()) << workers << " " << salt;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].score, want[i].score) << workers << " " << salt;
        EXPECT_EQ(got[i].row, want[i].row) << workers << " " << salt;
      }
    }
  }
}

TEST(TopKTest, PushBatchKeepsWhatPerEntryPushKeeps) {
  // Batches with heavy score ties, larger and smaller than k, pushed into a
  // heap that is already part full: pre-selecting each batch's best k must
  // keep exactly what pushing its entries one by one keeps.
  Rng rng(99);
  for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                        std::size_t{30}}) {
    TopK batched(k), single(k);
    for (int round = 0; round < 40; ++round) {
      const auto n = static_cast<std::size_t>(rng.UniformInt(0, 90));
      std::vector<TopKEntry> batch;
      for (std::size_t i = 0; i < n; ++i) {
        // Rows are distinct (the low 12 bits are unique per entry) but
        // arrive out of order, so ties cut both ways.
        const RowId row = static_cast<RowId>(
            rng.UniformInt(0, 500) * 4096 + round * 100 +
            static_cast<std::int64_t>(i));
        const double score = static_cast<double>(rng.UniformInt(0, 6)) / 2.0;
        batch.push_back(TopKEntry{score, row, static_cast<std::uint32_t>(i)});
        single.Push(score, row, static_cast<std::uint32_t>(i));
      }
      batched.PushBatch(&batch);
      EXPECT_LE(batch.size(), k);
      ASSERT_EQ(batched.threshold(), single.threshold()) << k << " " << round;
    }
    const auto got = batched.Take();
    const auto want = single.Take();
    ASSERT_EQ(got.size(), want.size()) << "k=" << k;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].score, want[i].score) << "k=" << k << " i=" << i;
      EXPECT_EQ(got[i].row, want[i].row) << "k=" << k << " i=" << i;
      EXPECT_EQ(got[i].tag, want[i].tag) << "k=" << k << " i=" << i;
    }
  }
}

// ------------------------------------------------------- RankBounds unit

TEST(RankBoundsTest, MiniCarBlockMetadata) {
  db::Table table = testing::MiniCarTable();  // 13 rows => one block
  auto bounds = db::exec::RankBounds::Build(table);
  ASSERT_NE(bounds, nullptr);
  EXPECT_EQ(bounds->num_rows(), 13u);
  EXPECT_EQ(bounds->num_blocks(), 1u);
  EXPECT_EQ(bounds->block_end(0), 13u);

  // Attribute 0 ("make", text): one block whose code range covers every
  // row's code, with a representative row per dictionary code.
  const auto& make = bounds->attr(0);
  ASSERT_EQ(make.code_min.size(), 1u);
  ASSERT_LE(make.code_min[0], make.code_max[0]);
  const auto& codes = table.store().code_column(0);
  for (RowId r = 0; r < table.num_rows(); ++r) {
    ASSERT_GE(codes[r], make.code_min[0]);
    ASSERT_LE(codes[r], make.code_max[0]);
  }
  for (std::uint32_t c = 0; c < make.first_row_of_code.size(); ++c) {
    const RowId rep = make.first_row_of_code[c];
    if (rep == db::exec::kNoRankRow) continue;
    EXPECT_EQ(codes[rep], c);
  }

  // Attribute 2 ("year", numeric): the block's value envelope is the
  // column's true min/max.
  const auto& year = bounds->attr(2);
  ASSERT_EQ(year.val_min.size(), 1u);
  const auto& vals = table.store().numeric_column(2);
  double lo = vals[0], hi = vals[0];
  for (RowId r = 1; r < table.num_rows(); ++r) {
    lo = std::min(lo, vals[r]);
    hi = std::max(hi, vals[r]);
  }
  EXPECT_EQ(year.val_min[0], lo);
  EXPECT_EQ(year.val_max[0], hi);
}

// --------------------------------------- world-backed differential suite

class TopKRankParityTest : public ::testing::TestWithParam<std::string> {
 protected:
  static void SetUpTestSuite() {
    datagen::WorldOptions options;
    options.seed = 20111130;
    options.ads_per_domain = 120;
    options.sessions_per_domain = 200;
    options.corpus_docs_per_domain = 40;
    auto built = datagen::World::Build(options);
    ASSERT_TRUE(built.ok()) << built.status();
    world_ = built.value().release();
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static datagen::World* world_;
};

datagen::World* TopKRankParityTest::world_ = nullptr;

/// Asks every question under `on` then under `off` and requires canonical
/// byte-identity pair by pair. (The fast-vs-reference parity of this world's
/// question stream is tests/test_vector_kernels.cc's
/// AskByteIdenticalFastAndReference.)
void ExpectAskParity(core::CqadsEngine& engine, const std::string& domain,
                     const std::vector<datagen::GeneratedQuestion>& questions,
                     const core::EngineOptions& on,
                     const core::EngineOptions& off, const char* label) {
  auto canon = [&](const std::string& text) {
    auto r = engine.AskInDomain(domain, text);
    return r.ok() ? core::CanonicalAskResultString(r.value())
                  : "ERROR: " + r.status().ToString();
  };
  std::vector<std::string> on_answers;
  engine.SetOptions(on);
  for (const auto& q : questions) on_answers.push_back(canon(q.text));
  engine.SetOptions(off);
  for (std::size_t i = 0; i < questions.size(); ++i) {
    EXPECT_EQ(on_answers[i], canon(questions[i].text))
        << label << " " << domain << " q" << i << ": " << questions[i].text;
  }
  engine.SetOptions(core::EngineOptions());
}

// Partial ranking does real work on this stream, and the new ExecStats
// counters see it (blocks visited whenever the top-k sweep ran).
TEST_P(TopKRankParityTest, RankCountersAccumulate) {
  const std::string& domain = GetParam();
  const auto* spec = world_->spec(domain);
  ASSERT_NE(spec, nullptr);
  Rng rng(901);
  auto questions = datagen::GenerateQuestions(
      *spec, *world_->table(domain), 40, datagen::QuestionGenOptions(), &rng);

  auto& engine = world_->mutable_engine();
  engine.SetOptions(core::EngineOptions());
  std::size_t blocks_visited = 0;
  std::size_t ranked_questions = 0;
  for (const auto& q : questions) {
    auto r = engine.AskInDomain(domain, q.text);
    if (!r.ok()) continue;
    blocks_visited += r.value().stats.rank_blocks_visited;
    const auto& answers = r.value().answers;
    const bool has_partial =
        std::any_of(answers.begin(), answers.end(),
                    [](const core::Answer& a) { return !a.exact; });
    if (has_partial) {
      ++ranked_questions;
      EXPECT_LE(answers.size(),
                static_cast<std::size_t>(core::EngineOptions().answer_cap));
    }
  }
  if (ranked_questions > 0) {
    EXPECT_GT(blocks_visited, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDomains, TopKRankParityTest,
    ::testing::ValuesIn([] {
      std::vector<std::string> names;
      for (const auto& spec : datagen::AllDomainSpecs()) {
        names.push_back(spec.schema.domain());
      }
      return names;
    }()));

// ----------------------------------- tie boundaries + delta / tombstones

db::Record CarRecord(const char* make, const char* model, double year,
                     double price, double mileage, const char* color,
                     const char* transmission, const char* doors,
                     const char* drivetrain, const char* features) {
  db::Record r;
  r.push_back(db::Value::Text(make));
  r.push_back(db::Value::Text(model));
  r.push_back(db::Value::Real(year));
  r.push_back(db::Value::Real(price));
  r.push_back(db::Value::Real(mileage));
  r.push_back(db::Value::Text(color));
  r.push_back(db::Value::Text(transmission));
  r.push_back(db::Value::Text(doors));
  r.push_back(db::Value::Text(drivetrain));
  r.push_back(db::Value::Text(features));
  return r;
}

/// Engine over many duplicated MiniCar rows: scores tie in large groups, so
/// the answer_cap boundary lands inside a tie run — the adversarial case
/// for threshold pruning (an equal-score smaller-row candidate must still
/// displace the k-th entry).
class TieBoundaryTest : public ::testing::Test {
 protected:
  TieBoundaryTest() : table_(testing::MiniCarSchema()) {
    const db::Table proto = testing::MiniCarTable();
    for (int copy = 0; copy < 20; ++copy) {  // 260 rows, ties everywhere
      for (RowId r = 0; r < proto.num_rows(); ++r) {
        EXPECT_TRUE(table_.Insert(proto.row(r)).ok());
      }
    }
    table_.BuildIndexes();
    EXPECT_TRUE(engine_.AddDomain(&table_, qlog::TiMatrix()).ok());
    EXPECT_TRUE(engine_.TrainClassifier().ok());
  }

  std::string CanonicalAsk(const std::string& q) {
    auto r = engine_.AskInDomain("cars", q);
    return r.ok() ? core::CanonicalAskResultString(r.value())
                  : "ERROR: " + r.status().ToString();
  }

  void ExpectParity(const std::vector<std::string>& questions) {
    core::EngineOptions off;
    off.reference = true;
    std::vector<std::string> want;
    engine_.SetOptions(off);
    for (const auto& q : questions) want.push_back(CanonicalAsk(q));
    engine_.SetOptions(core::EngineOptions());
    for (std::size_t i = 0; i < questions.size(); ++i) {
      EXPECT_EQ(CanonicalAsk(questions[i]), want[i]) << questions[i];
    }
  }

  db::Table table_;
  core::CqadsEngine engine_;
};

TEST_F(TieBoundaryTest, CapFallsInsideTieRuns) {
  // Single-condition questions sweep the whole table; multi-unit questions
  // relax N-1. With 20 copies of every row, either way the 30-answer cap
  // cuts through a run of identical scores where only row ids decide.
  ExpectParity({
      "blue car",
      "honda",
      "manual transmission",
      "blue honda with cd player",
      "cheap toyota under 9000 dollars",
      "red car with leather seats",
      "4 door automatic with gps",
  });
}

TEST_F(TieBoundaryTest, DeltaRowsAndTombstonesStayByteIdentical) {
  // Grow a delta (new best-scoring candidates above base_rows), tombstone
  // base rows mid-tie-run, and re-check parity before AND after compaction:
  // the pruned path must handle live deltas, retired masks, and the
  // post-compaction rebuilt table identically to the oracle.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(engine_
                    .IngestAd("cars", CarRecord("honda", "fit", 2011, 9500,
                                                40000, "blue", "automatic",
                                                "4 door", "2 wheel drive",
                                                "cd player;bluetooth"))
                    .ok());
  }
  ASSERT_TRUE(engine_.RetireAd("cars", 0).ok());
  ASSERT_TRUE(engine_.RetireAd("cars", 13).ok());
  ASSERT_TRUE(engine_.RetireAd("cars", 26).ok());
  const std::vector<std::string> questions = {
      "blue car", "honda", "blue honda with cd player", "manual red car"};
  ExpectParity(questions);

  ASSERT_TRUE(engine_.CompactDomain("cars").ok());
  ExpectParity(questions);
}

// ------------------------------- columnar ScoreBlock vs the scalar scorer

std::uint64_t Bits(double d) {
  std::uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

core::Condition NumCond(std::size_t attr, db::CompareOp op, double lo,
                        double hi = 0.0) {
  core::Condition c;
  c.kind = core::Condition::Kind::kTypeIIIBound;
  c.attr = attr;
  c.op = op;
  c.lo = lo;
  c.hi = hi;
  return c;
}

core::Condition TextCond(core::Condition::Kind kind, std::size_t attr,
                         const std::string& value) {
  core::Condition c;
  c.kind = kind;
  c.attr = attr;
  c.value = value;
  return c;
}

core::MatchUnit MakeUnit(core::MatchUnit::Kind kind, std::size_t attr,
                         std::string value,
                         std::vector<core::Condition> conds) {
  core::MatchUnit u;
  u.kind = kind;
  u.attr = attr;
  u.value = std::move(value);
  u.conds = std::move(conds);
  return u;
}

/// The world's cars cycled out to several 1024-row blocks, with NULL cells
/// in every column and a quarter of the numerics stored as integers.
db::Table NullyCars(const db::Table& src, std::size_t rows) {
  Rng rng(4242);
  db::Table out(src.schema());
  for (std::size_t i = 0; i < rows; ++i) {
    db::Record rec = src.row(static_cast<RowId>(i % src.num_rows()));
    for (db::Value& v : rec) {
      if (rng.Bernoulli(0.08)) {
        v = db::Value::Null();
      } else if (v.is_numeric() && rng.Bernoulli(0.25)) {
        v = db::Value::Int(static_cast<std::int64_t>(v.AsDouble()));
      }
    }
    EXPECT_TRUE(out.Insert(std::move(rec)).ok());
  }
  out.BuildIndexes();
  return out;
}

class ColumnarScoreTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::WorldOptions options;
    options.seed = 20111130;
    options.ads_per_domain = 600;
    options.sessions_per_domain = 300;
    options.corpus_docs_per_domain = 40;
    options.domains = {"cars"};
    auto built = datagen::World::Build(options);
    ASSERT_TRUE(built.ok()) << built.status();
    world_ = built.value().release();
    table_ = new db::Table(NullyCars(*world_->table("cars"), 3500));
  }
  static void TearDownTestSuite() {
    delete table_;
    table_ = nullptr;
    delete world_;
    world_ = nullptr;
  }

  static std::size_t Attr(const char* name) {
    const auto a = table_->schema().IndexOf(name);
    EXPECT_TRUE(a.has_value()) << name;
    return a.value_or(0);
  }

  /// One unit per ScoreBlock path: numeric multi-condition units with
  /// kBetween targets and kNoAttr placeholders, a zero-range attribute, a
  /// numeric condition on a text column, single-attribute identities and
  /// Type II units (dense code table), and two-attribute units (pair memo).
  static std::vector<core::MatchUnit> Units() {
    using K = core::MatchUnit::Kind;
    using CK = core::Condition::Kind;
    const std::size_t price = Attr("price"), mileage = Attr("mileage"),
                      year = Attr("year"), make = Attr("make"),
                      model = Attr("model"), color = Attr("color"),
                      doors = Attr("doors"), features = Attr("features");
    std::vector<core::MatchUnit> units;
    units.push_back(MakeUnit(
        K::kTypeIII, price, "",
        {NumCond(core::kNoAttr, db::CompareOp::kLt, 9000),
         NumCond(price, db::CompareOp::kBetween, 4000, 12000),
         NumCond(mileage, db::CompareOp::kGt, 80000)}));
    units.push_back(MakeUnit(K::kAmbiguous, year, "",
                             {NumCond(year, db::CompareOp::kEq, 2005),
                              NumCond(price, db::CompareOp::kEq, 7000)}));
    units.push_back(MakeUnit(K::kTypeIII, color, "",
                             {NumCond(color, db::CompareOp::kEq, 5)}));
    units.push_back(MakeUnit(K::kIdentity, core::kNoAttr, "honda",
                             {TextCond(CK::kTypeI, make, "honda")}));
    units.push_back(MakeUnit(K::kIdentity, core::kNoAttr, "toyota camry",
                             {TextCond(CK::kTypeI, make, "toyota"),
                              TextCond(CK::kTypeI, model, "camry")}));
    units.push_back(MakeUnit(K::kTypeII, color, "navy",
                             {TextCond(CK::kTypeII, color, "navy")}));
    units.push_back(MakeUnit(K::kTypeII, features, "gps",
                             {TextCond(CK::kTypeII, features, "gps")}));
    units.push_back(MakeUnit(K::kTypeII, color, "red",
                             {TextCond(CK::kTypeII, color, "red"),
                              TextCond(CK::kTypeII, doors, "2 door")}));
    return units;
  }

  /// Similarity resources of the world's cars over `table`, with year's
  /// Eq. 4 range forced to zero.
  static core::SimilarityContext Context(const db::Table& table) {
    const auto snapshot = world_->engine().snapshot();
    const auto* rt = snapshot->runtime("cars");
    EXPECT_NE(rt, nullptr);
    core::SimilarityContext ctx = snapshot->MakeSimilarityContext(*rt);
    ctx.attr_ranges = core::ComputeAttrRanges(table);
    ctx.attr_ranges[Attr("year")] = 0.0;
    return ctx;
  }

  /// ScoreBlock (cold, and after ComputeBlockBounds warmed its dense
  /// tables) against the scalar Score and the string-keyed
  /// ScorePartialMatch, bit for bit, over random row slices of `table`.
  static void ExpectColumnarParity(const db::Table& table, const char* label) {
    const std::vector<core::MatchUnit> units = Units();
    const core::SimilarityContext ctx = Context(table);
    const auto bounds = db::exec::RankBounds::Build(table);
    Rng rng(31337);
    std::vector<RowId> rows;
    for (RowId r = 0; r < table.num_rows(); ++r) {
      if (rng.Bernoulli(0.7)) rows.push_back(r);
    }
    std::size_t null_cells_scored = 0;
    for (std::size_t dropped = 0; dropped < units.size(); ++dropped) {
      core::SimScorer reference(table.schema(), units, ctx);
      core::SimScorer cold(table.schema(), units, ctx);
      core::SimScorer warmed(table.schema(), units, ctx);
      std::vector<double> ub;
      const bool bounded =
          warmed.ComputeBlockBounds(table, *bounds, dropped, &ub);
      std::vector<double> rank(rows.size()), unit(rows.size()),
          warm_rank(rows.size()), rank_only(rows.size());
      // Uneven slices, so memo hits and misses interleave across calls.
      for (std::size_t lo = 0; lo < rows.size();) {
        const std::size_t n = std::min<std::size_t>(
            rows.size() - lo, static_cast<std::size_t>(rng.UniformInt(1, 700)));
        cold.ScoreBlock(table, rows.data() + lo, n, dropped, rank.data() + lo,
                        unit.data() + lo);
        warmed.ScoreBlock(table, rows.data() + lo, n, dropped,
                          warm_rank.data() + lo, nullptr);
        cold.ScoreBlock(table, rows.data() + lo, n, dropped,
                        rank_only.data() + lo, nullptr);
        lo += n;
      }
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const RowId r = rows[i];
        const core::PartialScore want = reference.Score(table, r, dropped);
        const core::PartialScore seed =
            core::ScorePartialMatch(table, r, units, dropped, ctx);
        ASSERT_EQ(Bits(rank[i]), Bits(want.rank_sim))
            << label << " unit " << dropped << " row " << r;
        ASSERT_EQ(Bits(unit[i]), Bits(want.unit_sim))
            << label << " unit " << dropped << " row " << r;
        ASSERT_EQ(Bits(unit[i]), Bits(seed.unit_sim))
            << label << " unit " << dropped << " row " << r;
        ASSERT_EQ(Bits(warm_rank[i]), Bits(want.rank_sim))
            << label << " unit " << dropped << " row " << r;
        ASSERT_EQ(Bits(rank_only[i]), Bits(want.rank_sim))
            << label << " unit " << dropped << " row " << r;
        if (bounded) {
          ASSERT_LE(unit[i], ub[r / db::exec::kRankBlockRows])
              << label << " unit " << dropped << " row " << r;
        }
        for (const auto& c : units[dropped].conds) {
          const std::size_t a =
              c.attr == core::kNoAttr ? units[dropped].attr : c.attr;
          if (table.store().is_null(r, a)) ++null_cells_scored;
        }
      }
    }
    EXPECT_GT(null_cells_scored, 0u) << label;
  }

  static datagen::World* world_;
  static db::Table* table_;
};

datagen::World* ColumnarScoreTest::world_ = nullptr;
db::Table* ColumnarScoreTest::table_ = nullptr;

TEST_F(ColumnarScoreTest, ScoreBlockMatchesScalarScoreOnHeapColumns) {
  ExpectColumnarParity(*table_, "heap");
}

TEST_F(ColumnarScoreTest, ScoreBlockMatchesScalarScoreOnMappedColumns) {
  // The same rows restored from a snapshot: the packed, code and null
  // columns are views into the read-only mapping. (Scoring takes its
  // similarity resources from the world, so the engine needs no log.)
  core::CqadsEngine engine;
  ASSERT_TRUE(engine.AddDomain(table_, qlog::TiMatrix()).ok());
  const std::string path = ::testing::TempDir() + "cqads_columnar_score.snap";
  ASSERT_TRUE(engine.SaveSnapshot(path).ok());
  auto loaded = core::CqadsEngine::OpenSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const auto loaded_snapshot = loaded.value()->snapshot();
  const db::Table& mapped = *loaded_snapshot->runtime("cars")->table;
  ASSERT_TRUE(mapped.store().frozen());
  ASSERT_EQ(mapped.num_rows(), table_->num_rows());
  ExpectColumnarParity(mapped, "mapped");
  std::remove(path.c_str());
}

TEST_F(ColumnarScoreTest, DenseCodeTableHoldsTheNullCode) {
  // A single-attribute unit over a column with NULL cells: the NULL rows
  // share the kNullCode slot, and each scores exactly as the scalar path.
  const std::size_t color = Attr("color");
  std::vector<RowId> null_rows, all_rows;
  for (RowId r = 0; r < table_->num_rows(); ++r) {
    all_rows.push_back(r);
    if (table_->store().is_null(r, color)) null_rows.push_back(r);
  }
  ASSERT_GT(null_rows.size(), 10u);
  const std::vector<core::MatchUnit> units = Units();
  const core::SimilarityContext ctx = Context(*table_);
  const std::size_t kColorUnit = 5;
  ASSERT_EQ(units[kColorUnit].conds[0].attr, color);
  core::SimScorer scorer(table_->schema(), units, ctx);
  core::SimScorer reference(table_->schema(), units, ctx);
  // NULL rows first (the slot fills from a NULL row), then everything.
  for (const auto* rows : {&null_rows, &all_rows}) {
    std::vector<double> rank(rows->size()), unit(rows->size());
    scorer.ScoreBlock(*table_, rows->data(), rows->size(), kColorUnit,
                      rank.data(), unit.data());
    for (std::size_t i = 0; i < rows->size(); ++i) {
      const core::PartialScore want =
          reference.Score(*table_, (*rows)[i], kColorUnit);
      ASSERT_EQ(Bits(unit[i]), Bits(want.unit_sim)) << (*rows)[i];
      ASSERT_EQ(Bits(rank[i]), Bits(want.rank_sim)) << (*rows)[i];
    }
  }
}

/// Thousands of copies of the MiniCar fleet over many 1024-row blocks:
/// every block holds the same scores, so the answer cap's k-th entry ties
/// with candidates in every block and every morsel, and only row ids
/// decide which survive each block's pre-selection.
class CrossBlockTieTest : public ::testing::Test {
 protected:
  CrossBlockTieTest() : table_(testing::MiniCarSchema()) {
    const db::Table proto = testing::MiniCarTable();
    for (int copy = 0; copy < 800; ++copy) {  // 10400 rows, 11 blocks
      for (RowId r = 0; r < proto.num_rows(); ++r) {
        EXPECT_TRUE(table_.Insert(proto.row(r)).ok());
      }
    }
    table_.BuildIndexes();
    EXPECT_TRUE(engine_.AddDomain(&table_, qlog::TiMatrix()).ok());
    EXPECT_TRUE(engine_.TrainClassifier().ok());
  }

  db::Table table_;
  core::CqadsEngine engine_;
};

TEST_F(CrossBlockTieTest, PreSelectionKeepsTiesAcrossBlocksAndMorsels) {
  std::vector<datagen::GeneratedQuestion> questions;
  for (const char* q :
       {"blue car", "honda", "manual transmission", "cars under 9000 dollars",
        "2006 car", "blue honda with cd player",
        "cheap toyota under 9000 dollars", "red car with leather seats",
        "4 door automatic with gps", "silver car with 70000 miles"}) {
    datagen::GeneratedQuestion g;
    g.text = q;
    questions.push_back(g);
  }
  serve::WorkerPool pool(4);
  core::EngineOptions parallel_on;
  parallel_on.exec_runner = &pool;
  parallel_on.exec_parallelism = 4;
  core::EngineOptions serial_on;
  core::EngineOptions serial_off;
  serial_off.reference = true;
  ExpectAskParity(engine_, "cars", questions, parallel_on, serial_off,
                  "parallel");
  ExpectAskParity(engine_, "cars", questions, serial_on, serial_off,
                  "serial");
}

// ------------------------------------------- parallel sweeps (big domain)

class BigDomainTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // One domain, enough rows that the rank sweeps clear
    // kMinRowsForParallelExec and actually fan out on the runner.
    datagen::WorldOptions options;
    options.seed = 20111130;
    options.ads_per_domain = 9000;
    options.sessions_per_domain = 300;
    options.corpus_docs_per_domain = 40;
    options.domains = {"cars"};
    auto built = datagen::World::Build(options);
    ASSERT_TRUE(built.ok()) << built.status();
    world_ = built.value().release();
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static datagen::World* world_;
};

datagen::World* BigDomainTest::world_ = nullptr;

TEST_F(BigDomainTest, MorselParallelRankMatchesSerialOracle) {
  const auto* spec = world_->spec("cars");
  ASSERT_NE(spec, nullptr);
  Rng rng(321);
  auto questions = datagen::GenerateQuestions(
      *spec, *world_->table("cars"), 25, datagen::QuestionGenOptions(), &rng);

  serve::WorkerPool pool(4);
  core::EngineOptions parallel_on;
  parallel_on.exec_runner = &pool;
  parallel_on.exec_parallelism = 4;
  core::EngineOptions serial_off;
  serial_off.reference = true;
  ExpectAskParity(world_->mutable_engine(), "cars", questions, parallel_on,
                  serial_off, "parallel");
}

// The CI TSan leg: morsel-parallel pruned ranking racing ingest, retire,
// compaction, and snapshot swaps. Each request pins its snapshot, per-worker
// scorer slots keep SimScorer single-threaded, and the shared threshold is
// the only cross-worker rank state — nothing may race.
TEST_F(BigDomainTest, ParallelRankSurvivesConcurrentMutation) {
  auto& engine = world_->mutable_engine();
  serve::WorkerPool exec_pool(3);
  core::EngineOptions options;
  options.exec_runner = &exec_pool;
  options.exec_parallelism = 3;
  engine.SetOptions(options);

  const auto* spec = world_->spec("cars");
  Rng rng(654);
  auto questions = datagen::GenerateQuestions(
      *spec, *world_->table("cars"), 12, datagen::QuestionGenOptions(), &rng);

  std::atomic<bool> stop_writer{false};
  std::thread writer([&] {
    const db::Record seed_record = world_->table("cars")->row(0);
    int iteration = 0;
    while (!stop_writer.load()) {
      auto id = engine.IngestAd("cars", seed_record);
      if (id.ok() && iteration % 2 == 0) {
        (void)engine.RetireAd("cars", id.value());
      }
      if (++iteration % 4 == 0) (void)engine.CompactDomain("cars");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  serve::ConcurrentServer::Options server_options;
  server_options.num_workers = 3;
  serve::ConcurrentServer server(&engine, server_options);
  std::atomic<int> done{0};
  std::atomic<int> errors{0};
  constexpr int kAsks = 60;
  for (int i = 0; i < kAsks; ++i) {
    server.AskAsyncInDomain("cars", questions[i % questions.size()].text,
                            Deadline::Infinite(),
                            [&](Result<core::AskResult> r) {
                              if (!r.ok()) errors.fetch_add(1);
                              done.fetch_add(1);
                            });
  }
  const auto timeout =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (done.load() < kAsks &&
         std::chrono::steady_clock::now() < timeout) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop_writer.store(true);
  writer.join();
  ASSERT_EQ(done.load(), kAsks);
  EXPECT_EQ(errors.load(), 0);
  engine.SetOptions(core::EngineOptions());
}

// -------------------------------------- degraded sweeps + server counters

TEST_F(BigDomainTest, DeadlinedSweepsDegradeOrExpireNeverError) {
  auto& engine = world_->mutable_engine();
  engine.SetOptions(core::EngineOptions());
  const auto* spec = world_->spec("cars");
  Rng rng(987);
  auto questions = datagen::GenerateQuestions(
      *spec, *world_->table("cars"), 20, datagen::QuestionGenOptions(), &rng);

  serve::ConcurrentServer server(&engine);
  std::size_t issued = 0;
  for (const auto budget :
       {std::chrono::microseconds(0), std::chrono::microseconds(80),
        std::chrono::microseconds(400), std::chrono::microseconds(5000)}) {
    for (const auto& q : questions) {
      auto r = server.AskInDomain("cars", q.text, Deadline::After(budget));
      ++issued;
      if (!r.ok()) {
        EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded) << q.text;
      } else if (!r.value().degraded) {
        // Fully answered despite the budget: the answer must obey the cap.
        EXPECT_LE(r.value().answers.size(),
                  static_cast<std::size_t>(core::EngineOptions().answer_cap));
      }
    }
  }
  const auto s = server.stats();
  EXPECT_EQ(s.answered + s.degraded + s.deadline_exceeded + s.errors, issued);
  EXPECT_EQ(s.errors, 0u);

  // Rank work surfaced through StatsJson (the fleet-scrape satellite):
  // the keys exist and the visited counter reflects the ranking above.
  const std::string json = server.StatsJson();
  EXPECT_NE(json.find("\"rank_blocks_visited\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"rank_blocks_skipped\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"rank_rows_pruned\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"rank_threshold_updates\""), std::string::npos)
      << json;
  EXPECT_EQ(s.rank_blocks_visited > 0,
            json.find("\"rank_blocks_visited\":0") == std::string::npos);
}

}  // namespace
}  // namespace cqads
