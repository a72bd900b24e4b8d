// Worlds, question pools, and writes for the serving benchmark.
//
// A Deployment is one boot the way cqads_serverd boots: build the world
// in process, SaveSnapshot, OpenSnapshot, NetServer::Start on a Unix
// socket with the daemon's default options. The built world stays alive as
// the reference the wire answers are checked against; the snapshot engine
// is what the server serves.
#ifndef CQADS_E2EBENCH_WORKLOAD_H_
#define CQADS_E2EBENCH_WORKLOAD_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_core.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/cqads_engine.h"
#include "datagen/world.h"
#include "db/table.h"
#include "serve/net/net_server.h"

namespace cqads::e2e {

enum class WorldKind { kPaper, kFleet };

/// Wall-clock of each boot step.
struct BootTimes {
  double build_s = 0.0;
  double save_ms = 0.0;
  double open_ms = 0.0;
  double start_ms = 0.0;
  double total_s = 0.0;  ///< build through the first answered ping
};

class Deployment {
 public:
  /// Boots a world of `kind` (`fleet_rows` rows for kFleet) and serves its
  /// snapshot at `socket_path`, saving the snapshot at `snapshot_path`.
  static Result<std::unique_ptr<Deployment>> Boot(
      WorldKind kind, std::size_t fleet_rows, const std::string& snapshot_path,
      const std::string& socket_path);

  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  const BootTimes& boot() const { return boot_; }
  const std::string& socket_path() const { return socket_path_; }

  /// The in-process engine the world was built with (never served).
  const core::CqadsEngine& reference() const;
  /// The reference world's `cars` table: the base rows writes start from.
  const db::Table& reference_cars() const;
  const datagen::World* paper_world() const { return paper_.get(); }

  /// The engine the server serves.
  core::CqadsEngine& served() { return *served_; }
  serve::net::NetServer& server() { return *server_; }

 private:
  Deployment() = default;

  BootTimes boot_;
  std::string snapshot_path_;
  std::string socket_path_;
  std::unique_ptr<datagen::World> paper_;
  std::unique_ptr<db::Table> fleet_table_;
  std::unique_ptr<core::CqadsEngine> fleet_engine_;  ///< reads fleet_table_
  std::unique_ptr<core::CqadsEngine> served_;
  std::unique_ptr<serve::net::NetServer> server_;  ///< serves served_
};

/// One pool question and how it goes on the wire: "ask" when `domain` is
/// empty, "ask_in_domain" otherwise.
struct PoolQuestion {
  std::string text;
  std::string domain;
};

/// The paper pool: GenerateSurveyQuestions with `car_count` car questions
/// and `per_other_domain` for each other domain, duplicates removed (first
/// occurrence kept).
std::vector<PoolQuestion> PaperPool(const datagen::World& world,
                                    std::size_t car_count,
                                    std::size_t per_other_domain,
                                    std::uint64_t seed);

/// The fleet pool: `count` cars questions asked in domain, half a lone price
/// target and half make/model (sometimes colour) plus a price, every price
/// a whole dollar amount the cents-jittered fleet never holds exactly, so
/// the exact sets are empty and every ask ranks partials over the table.
std::vector<PoolQuestion> FleetPool(std::size_t count, std::uint64_t seed);

/// The clustered fleet table (rank_scale's shape): `rows` cars ads grouped
/// by (make, model), prices ascending inside each group's band.
db::Table BuildFleetTable(std::size_t rows);

/// `count` fresh cars ads for the world's cars schema, drawn from `seed`.
std::vector<db::Record> IngestRecords(WorldKind kind, std::size_t count,
                                      std::uint64_t seed);

/// The reference answer for a pool question: the canonical answer string,
/// or "status:<wire status>" when the engine refuses it.
std::string ReferenceAnswer(const core::CqadsEngine& engine,
                            const PoolQuestion& question);

/// Deterministic write sequence into an engine's `cars` domain: ingests,
/// retirements (two in five writes, once there is something to retire) of
/// rows ingested since the last compaction, and a CompactDomain every
/// `compact_every` writes. Keeps a ledger of what was acknowledged so the
/// end state can be checked. Not thread-safe: one thread drives it.
class WriteOps {
 public:
  enum class Kind { kIngest, kRetire, kCompact };

  WriteOps(core::CqadsEngine* engine, std::vector<db::Record> records,
           std::size_t compact_every, std::uint64_t seed);

  /// Runs the next write, timing it (inside a span named after the kind
  /// when `spans` is non-null). Returns the write's status.
  Status Step(SpanRecorder* spans, std::uint64_t request);

  /// Latencies of the acknowledged ingests and retirements, in order, in
  /// microseconds (compactions are not row writes).
  const std::vector<double>& row_writes_us() const { return row_writes_us_; }
  /// When each of row_writes_us() finished.
  const std::vector<std::chrono::steady_clock::time_point>& row_writes_end()
      const {
    return row_writes_end_;
  }
  std::size_t failures() const { return failures_; }
  std::size_t steps() const { return steps_; }

  /// Checks the engine's `cars` rows (base minus tombstones plus live delta)
  /// against `base` plus every acknowledged, unretired ingest, as
  /// multisets. Returns the number of rows that differ (missing or extra).
  std::size_t LedgerMismatches(const db::Table& base) const;

 private:
  /// Runs one write of `kind`; a retirement takes pending_[slot].
  Status Apply(Kind kind, std::size_t slot, SpanRecorder* spans,
               std::uint64_t request);

  core::CqadsEngine* engine_;
  std::vector<db::Record> records_;
  std::size_t next_record_ = 0;
  std::size_t compact_every_;
  Rng rng_;
  std::size_t steps_ = 0;
  std::size_t failures_ = 0;
  /// Rows ingested since the last compaction and not retired: (RowId,
  /// ledger index).
  std::vector<std::pair<db::RowId, std::size_t>> pending_;
  /// Every acknowledged ingest (index into records_) and whether it was
  /// retired since.
  std::vector<std::pair<std::size_t, bool>> ledger_;
  std::vector<double> row_writes_us_;
  std::vector<std::chrono::steady_clock::time_point> row_writes_end_;
};

}  // namespace cqads::e2e

#endif  // CQADS_E2EBENCH_WORKLOAD_H_
