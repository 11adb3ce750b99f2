// Quickstart: create a column-store database, load a small table, and talk
// to it through api::Connection — SQL, prepared statements with `?`
// parameters, streaming cursors, and the typed plan path that sweeps all
// four materialization strategies.
//
//   build/examples/quickstart [db_dir]

#include <cstdio>
#include <string>
#include <vector>

#include "api/connection.h"
#include "db/database.h"
#include "util/random.h"

using namespace cstore;  // NOLINT

int main(int argc, char** argv) {
  std::string dir = argc > 1 ? argv[1] : "/tmp/cstore_quickstart";

  // 1. Open (or create) a database directory.
  db::Database::Options opts;
  opts.dir = dir;
  auto db_r = db::Database::Open(opts);
  if (!db_r.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 db_r.status().ToString().c_str());
    return 1;
  }
  auto db = std::move(db_r).value();

  // 2. Load a tiny two-column projection: `temperature` (sorted, so RLE
  //    compresses it well) and `sensor` (a small unsorted domain), and
  //    register them as the logical table `readings`.
  const size_t n = 100000;
  Random rng(7);
  std::vector<Value> temperature;
  std::vector<Value> sensor;
  for (size_t i = 0; i < n; ++i) {
    temperature.push_back(static_cast<Value>(i / 500));  // 0..199, sorted
    sensor.push_back(static_cast<Value>(rng.Uniform(16)));
  }
  CSTORE_CHECK_OK(
      db->CreateColumn("temperature", codec::Encoding::kRle, temperature));
  CSTORE_CHECK_OK(
      db->CreateColumn("sensor", codec::Encoding::kUncompressed, sensor));
  CSTORE_CHECK_OK(db->RegisterTable(
      "readings", {{"temperature", "temperature"}, {"sensor", "sensor"}}));

  // 3. A session handle. One Connection per client; it owns the session's
  //    settings (strategy override, priority) and snapshots the table per
  //    statement. Without a scheduler the calling thread runs each query.
  api::Connection conn(db.get());

  // 4. Plain SQL: the advisor picks the materialization strategy.
  auto r = conn.Query(
      "SELECT temperature, sensor FROM readings "
      "WHERE temperature < 40 AND sensor < 12");
  CSTORE_CHECK(r.ok()) << r.status().ToString();
  std::printf("SQL: %llu rows via %s, %.2f ms\n",
              static_cast<unsigned long long>(r->stats.output_tuples),
              StrategyName(r->strategy), r->stats.TotalMillis());

  // 5. Writes go through the same surface (and later SELECTs see them).
  auto w = conn.Query("UPDATE readings SET sensor = 0 WHERE sensor = 15");
  CSTORE_CHECK(w.ok()) << w.status().ToString();
  std::printf("UPDATE: %llu rows rewritten\n",
              static_cast<unsigned long long>(w->rows_affected));

  // 6. Prepared statement: parse/bind once, execute many times with `?`
  //    parameters — the per-query front-end cost disappears.
  auto prepared =
      conn.Prepare("SELECT COUNT(sensor) FROM readings WHERE temperature = ?");
  CSTORE_CHECK(prepared.ok()) << prepared.status().ToString();
  for (Value t : {Value{5}, Value{42}, Value{199}}) {
    auto pr = prepared->Execute({t});
    CSTORE_CHECK(pr.ok()) << pr.status().ToString();
    std::printf("prepared: temperature=%lld -> count=%lld\n",
                static_cast<long long>(t),
                static_cast<long long>(pr->tuples.value(0, 0)));
  }

  // 7. Streaming cursor: chunks flow through a bounded queue (backpressure
  //    instead of materializing the whole result). Pool workers produce
  //    while this thread consumes, so streaming takes a session over a
  //    sched::Scheduler.
  sched::Scheduler scheduler({2});
  api::Connection pooled(db.get(), &scheduler);
  auto cursor = pooled.Stream("SELECT temperature, sensor FROM readings");
  CSTORE_CHECK(cursor.ok()) << cursor.status().ToString();
  uint64_t streamed = 0;
  exec::TupleChunk chunk;
  while (true) {
    auto has = cursor->Next(&chunk);
    CSTORE_CHECK(has.ok()) << has.status().ToString();
    if (!*has) break;
    streamed += chunk.num_tuples();
  }
  std::printf("streamed %llu rows; peak buffered %llu bytes\n",
              static_cast<unsigned long long>(streamed),
              static_cast<unsigned long long>(cursor->peak_buffered_bytes()));

  // 8. The typed plan path: describe the query directly and sweep every
  //    materialization strategy of the paper (api::Connection::Query also
  //    accepts plan::PlanTemplate).
  auto temp_col = db->GetTableColumn("readings", "temperature");
  auto sensor_col = db->GetTableColumn("readings", "sensor");
  CSTORE_CHECK(temp_col.ok() && sensor_col.ok());
  plan::SelectionQuery query;
  query.columns.push_back({*temp_col, codec::Predicate::LessThan(40)});
  query.columns.push_back({*sensor_col, codec::Predicate::LessThan(12)});
  // Typed plans read the raw read store unless a snapshot is attached;
  // attach one so the sweep sees the UPDATE above, like the SQL paths do.
  plan::PlanConfig config;
  auto snapshot = db->SnapshotTable("readings");
  CSTORE_CHECK(snapshot.ok());
  config.snapshot = *snapshot;

  std::printf("\n%-14s %10s %12s %14s %12s\n", "strategy", "tuples",
              "time(ms)", "blocks-fetched", "tuples-built");
  for (plan::Strategy s : plan::kAllStrategies) {
    db->DropCaches();
    auto result = conn.Query(plan::PlanTemplate::Selection(query, s, config));
    CSTORE_CHECK(result.ok()) << result.status().ToString();
    std::printf("%-14s %10llu %12.2f %14llu %12llu\n", StrategyName(s),
                static_cast<unsigned long long>(result->stats.output_tuples),
                result->stats.TotalMillis(),
                static_cast<unsigned long long>(
                    result->stats.exec.blocks_fetched),
                static_cast<unsigned long long>(
                    result->stats.exec.tuples_constructed));
  }
  return 0;
}
