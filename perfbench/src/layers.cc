// Per-layer metrics of a traced run. Most come from the traced phase itself
// (engine counters and benchmark spans read at each call); the rest from
// short probes that call one layer's public functions from here, on the
// same database after the phase (the HTTP ones through a server started for
// them). Every probe runs on every workload, so each traced run reports
// every per-layer metric.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <thread>

#include "api/encode.h"
#include "api/statement_cache.h"
#include "bench.h"
#include "model/calibrate.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "server/client.h"
#include "server/server.h"
#include "tpch/loader.h"

namespace perfbench {

using cstore::api::Connection;
using cstore::exec::JoinRightMode;
using cstore::plan::Strategy;

namespace {

constexpr int kRepeats = 7;

double Ms(double seconds) { return seconds * 1e3; }
double Ratio(double a, double b) { return b > 0 ? a / b : 0; }

/// Strategy names as they appear in metric names.
const char* MetricName(Strategy s) {
  switch (s) {
    case Strategy::kEmPipelined: return "em_pipelined";
    case Strategy::kEmParallel: return "em_parallel";
    case Strategy::kLmPipelined: return "lm_pipelined";
    case Strategy::kLmParallel: return "lm_parallel";
  }
  return "?";
}

const char* MetricName(JoinRightMode m) {
  switch (m) {
    case JoinRightMode::kMaterialized: return "materialized";
    case JoinRightMode::kMultiColumn: return "multicolumn";
    case JoinRightMode::kSingleColumn: return "single_column";
  }
  return "?";
}

class Probes {
 public:
  Probes(Workload* w, const PhaseStats& traced,
         const std::vector<cstore::obs::TraceEvent>& events,
         std::vector<Metric>* out)
      : w_(w), e_(w->engine()), t_(traced), events_(events), out_(out),
        session_(e_.sessions[0].get()) {}

  void Add(const std::string& name, double value, const char* unit) {
    out_->push_back({name, value, unit});
  }

  /// Median client latency (ms) of `sql` pinned to `s` on session 0, plus
  /// the RunStats of its last run.
  double TimeSql(const std::string& sql, std::optional<Strategy> s,
                 cstore::plan::RunStats* stats = nullptr,
                 std::vector<double>* merge_ms = nullptr) {
    std::vector<double> ms;
    for (int i = 0; i < kRepeats; ++i) {
      const double t0 = NowSeconds();
      auto r = [&] {
        Span span("Connection::Query", "api");
        return session_->Query(sql, s);
      }();
      ms.push_back(Ms(NowSeconds() - t0));
      if (!r.ok()) {
        Fail("probe " + sql + ": " + r.status().ToString());
        continue;
      }
      if (stats != nullptr) *stats = r->stats;
      if (merge_ms != nullptr) merge_ms->push_back(r->stats.merge_wall_micros / 1e3);
    }
    return Median(ms);
  }

  /// Durations (us) of the traced phase's benchmark spans named `name`.
  std::vector<double> SpanUs(const char* name) const {
    std::vector<double> us;
    for (const cstore::obs::TraceEvent& e : events_) {
      if (IsBenchmarkSpan(e) && std::string(e.name) == name) {
        us.push_back(e.dur_ns / 1e3);
      }
    }
    return us;
  }

  void Fail(const std::string& what) {
    std::fprintf(stderr, "layer probe failed: %s\n", what.c_str());
    ++failures_;
  }

  void Storage();
  void PoolExhaustion();
  void Codec();
  void Exec();
  void Sched();
  void Write();
  void SqlApiServer();
  void Model();

  uint64_t failures() const { return failures_; }

 private:
  Workload* w_;
  Engine& e_;
  const PhaseStats& t_;
  const std::vector<cstore::obs::TraceEvent>& events_;  // the traced phase's
  std::vector<Metric>* out_;
  Connection* session_;
  uint64_t failures_ = 0;
};

// --- storage ----------------------------------------------------------------

void Probes::Storage() {
  const cstore::storage::IoStats& io = t_.io;
  const double reads = static_cast<double>(t_.read_ms.size());
  Add("storage.hit_ratio",
      Ratio(io.cache_hits, io.cache_hits + io.physical_reads), "ratio");
  Add("storage.physical_reads_per_query", Ratio(io.physical_reads, reads),
      "count");
  Add("storage.evictions_per_query", Ratio(io.evictions, reads), "count");
  double read_us = Ratio(io.physical_read_ns / 1e3, io.physical_reads);
  if (io.physical_reads == 0) {
    // Everything stayed cached: time cold block reads of one column instead.
    e_.db->DropCaches();
    auto reader = e_.db->GetTableColumn("lineitem", "quantity");
    const auto before = e_.db->pool()->stats();
    if (reader.ok()) {
      for (uint64_t b = 0; b < (*reader)->num_blocks(); ++b) {
        Span span("ColumnReader::FetchBlock", "storage");
        if (!(*reader)->FetchBlock(b).ok()) Fail("cold FetchBlock");
      }
    }
    const auto d = e_.db->pool()->stats() - before;
    read_us = Ratio(d.physical_read_ns / 1e3, d.physical_reads);
  }
  Add("storage.read_us_per_block", read_us, "us");
  Add("storage.lock_contended_share",
      Ratio(io.pool_lock_contended, io.pool_lock_acquisitions), "ratio");
  Add("storage.open_ms", e_.open_ms, "ms");
}

// Known fault: BufferPool::Fetch fails with "buffer pool exhausted" instead
// of waiting for a frame when concurrent scans and a compaction together pin
// more frames than the pool holds. A 32-frame database loaded like the
// workload's runs one of ingest's reader statements under every strategy on
// two pool workers while this thread inserts and compacts (with one worker,
// or with 40 frames or more, it showed no failure here); the failures are
// counted, not treated as probe failures.
void Probes::PoolExhaustion() {
  const std::string dir = w_->db_dir() + "-small";
  constexpr size_t kFrames = 32;
  RemoveTree(dir);
  std::filesystem::create_directories(dir);
  cstore::db::Database::Options o;
  o.dir = dir;
  o.pool_frames = kFrames;
  auto db = cstore::db::Database::Open(o);
  if (!db.ok() || !cstore::tpch::LoadLineitem(db->get(), w_->spec().scale_factor,
                                              w_->options().seed)
                       .ok()) {
    Fail("small-pool database");
    RemoveTree(dir);
    return;
  }
  uint64_t exhausted = 0;
  {
    cstore::sched::Scheduler::Options so;
    so.num_workers = 2;
    cstore::sched::Scheduler scheduler(so);
    Connection conn(db->get(), &scheduler);
    auto count = [&](const cstore::Status& st, const char* what) {
      if (st.ok()) return;
      if (st.ToString().find("buffer pool exhausted") != std::string::npos) {
        ++exhausted;
      } else {
        Fail(std::string(what) + ": " + st.ToString());
      }
    };
    std::mutex mu;  // guards `exhausted` and failures
    std::atomic<bool> done{false};
    std::thread reader([&] {
      const std::string sql =
          "SELECT linenum_plain, quantity FROM lineitem WHERE "
          "linenum_plain = 1 AND quantity > 40";
      for (size_t i = 0; !done.load(); ++i) {
        auto r = conn.Query(sql, cstore::plan::kAllStrategies[i % 4]);
        std::lock_guard<std::mutex> lock(mu);
        count(r.status(), "small-pool read");
      }
    });
    Rng rng(w_->options().seed + 5);
    for (int i = 0; i < 16; ++i) {
      WriteOp op;
      for (int r = 0; r < 64; ++r) {
        op.rows.push_back({rng.Range(0, 2), w_->DateAt((rng.Next() % 1000) / 1000.0),
                           rng.Range(1, 7), rng.Range(1, 50)});
      }
      const cstore::Status ins = (*db)->Insert("lineitem", op.StoredRows());
      const cstore::Status compact = (*db)->CompactTable("lineitem").status();
      std::lock_guard<std::mutex> lock(mu);
      count(ins, "small-pool insert");
      count(compact, "small-pool compaction");
    }
    done = true;
    reader.join();
  }
  db->reset();
  RemoveTree(dir);
  Add("storage.pool_exhausted_errors", exhausted, "count");
}

// --- codec ------------------------------------------------------------------

void Probes::Codec() {
  const std::pair<const char*, const char*> columns[] = {
      {"rle", "linenum"},
      {"bitvector", "linenum_bv"},
      {"dict", "linenum_dict"},
      {"plain", "linenum_plain"}};
  for (const auto& [encoding, column] : columns) {
    auto reader = e_.db->GetTableColumn("lineitem", column);
    if (!reader.ok()) {
      Fail(std::string("column ") + column);
      continue;
    }
    std::vector<double> ns;
    std::vector<Value> values;
    for (int i = 0; i < kRepeats; ++i) {
      values.clear();
      const double t0 = NowSeconds();
      for (uint64_t b = 0; b < (*reader)->num_blocks(); ++b) {
        Span span("ColumnReader::FetchBlock", "codec");
        auto block = (*reader)->FetchBlock(b);
        if (!block.ok()) {
          Fail("FetchBlock");
          break;
        }
        block->view.Decompress(&values);
      }
      ns.push_back((NowSeconds() - t0) * 1e9 / std::max<size_t>(1, values.size()));
    }
    if (values.size() != (*reader)->num_values()) Fail("decoded value count");
    Add(std::string("codec.decode_ns_per_value.") + encoding, Median(ns), "ns");
  }
}

// --- exec / position ----------------------------------------------------------

void Probes::Exec() {
  const std::string select =
      "SELECT shipdate, linenum FROM lineitem WHERE shipdate < " +
      std::to_string(w_->DateAt(0.1)) + " AND linenum < 7";
  const std::string agg =
      "SELECT linenum, SUM(quantity) FROM lineitem WHERE linenum < 7 AND "
      "quantity < 40 GROUP BY linenum";
  for (Strategy s : cstore::plan::kAllStrategies) {
    const std::string p = std::string("exec.") + MetricName(s) + ".";
    cstore::plan::RunStats sel_stats;
    Add(p + "select_p50_ms", TimeSql(select, s, &sel_stats), "ms");
    Add(p + "agg_p50_ms", TimeSql(agg, s), "ms");
    const cstore::exec::ExecStats& x = sel_stats.exec;
    Add(p + "predicate_evals", x.predicate_evals, "count");
    Add(p + "values_gathered", x.values_gathered, "count");
    Add(p + "tuples_constructed", x.tuples_constructed, "count");
    Add(p + "position_ands", x.position_ands, "count");
  }
  // Blocks per read of the traced phase.
  Add("codec.blocks_fetched_per_query",
      Ratio(t_.blocks_fetched, t_.inproc_reads), "count");
  Add("codec.blocks_skipped_per_query",
      Ratio(t_.blocks_skipped, t_.inproc_reads), "count");

  ReadShape join;
  join.kind = ReadShape::Kind::kJoin;
  join.conds = {{"custkey", Cond::Op::kLt,
                 static_cast<Value>(e_.customer_key->num_values() / 2)}};
  for (JoinRightMode m : {JoinRightMode::kMaterialized,
                          JoinRightMode::kMultiColumn,
                          JoinRightMode::kSingleColumn}) {
    std::vector<double> ms, build;
    for (int i = 0; i < kRepeats; ++i) {
      const double t0 = NowSeconds();
      auto r = w_->RunRead(session_, join, Strategy::kLmParallel, m);
      ms.push_back(Ms(NowSeconds() - t0));
      if (!r.ok()) {
        Fail("join probe");
        continue;
      }
      build.push_back(r->stats.build_wall_micros / 1e3);
    }
    const std::string p = std::string("exec.join.") + MetricName(m) + ".";
    Add(p + "p50_ms", Median(ms), "ms");
    Add(p + "build_ms", Median(build), "ms");
  }
  Add("exec.groupby_high_card_p50_ms",
      TimeSql("SELECT shipdate, SUM(linenum) FROM lineitem WHERE linenum < 7 "
              "GROUP BY shipdate",
              Strategy::kLmParallel),
      "ms");
  std::vector<double> merge;
  TimeSql("SELECT shipdate, quantity FROM lineitem WHERE shipdate < " +
              std::to_string(w_->DateAt(0.5)) +
              " ORDER BY quantity DESC LIMIT 100",
          Strategy::kLmParallel, nullptr, &merge);
  Add("exec.sort.merge_ms", Median(merge), "ms");
}

// --- sched (and chunk pool pressure, from the same query-log rows) -----------

void Probes::Sched() {
  // The traced phase's rows of system.query_log, read through SQL.
  auto log = session_->Query(
      "SELECT seq, queue_wait_usec, exec_usec, total_usec, "
      "chunk_pool_acquires, chunk_pool_reuses FROM system.query_log");
  std::vector<double> wait_ms;
  double exec_us = 0, total_us = 0, acquires = 0, reuses = 0;
  if (!log.ok()) Fail("system.query_log: " + log.status().ToString());
  for (size_t i = 0; log.ok() && i < log->tuples.num_tuples(); ++i) {
    const Value* row = log->tuples.tuple(i);
    const uint64_t seq = static_cast<uint64_t>(row[0]);
    if (seq < t_.log_from || seq >= t_.log_to) continue;
    wait_ms.push_back(row[1] / 1e3);
    exec_us += row[2];
    total_us += row[3];
    acquires += row[4];
    reuses += row[5];
  }
  if (wait_ms.empty()) Fail("no query-log rows from the traced phase");
  Add("sched.queue_wait_p50_ms", Quantile(wait_ms, 0.5), "ms");
  Add("sched.queue_wait_p99_ms", Quantile(wait_ms, 0.99), "ms");
  Add("sched.exec_share", Ratio(exec_us, total_us), "ratio");
  std::map<int64_t, uint64_t> morsels;
  for (const cstore::obs::TraceEvent& ev : events_) {
    const std::string name = ev.name;
    if (name != "morsel" && name != "sort_run") continue;
    for (int a = 0; a < ev.num_args; ++a) {
      if (std::string(ev.arg_keys[a]) == "query") ++morsels[ev.arg_vals[a]];
    }
  }
  uint64_t total = 0;
  for (const auto& [query, n] : morsels) total += n;
  Add("sched.morsels_per_query", Ratio(total, morsels.size()), "count");
  Add("exec.chunk_pool_alloc_share", Ratio(acquires - reuses, acquires),
      "ratio");
}

// --- write --------------------------------------------------------------------

void Probes::Write() {
  // Superseded generations left on disk by the phase's compactions: data
  // files of the written tables that no current snapshot references.
  std::set<std::string> current;
  for (const char* table : {"lineitem", "orders"}) {
    auto snap = e_.db->SnapshotTable(table);
    if (!snap.ok()) {
      Fail("SnapshotTable");
      continue;
    }
    for (const std::string& f : (*snap)->column_files()) current.insert(f);
  }
  std::vector<std::string> files;
  DirBytes(w_->db_dir(), &files);
  uint64_t superseded = 0;
  for (const std::string& f : files) {
    const bool table_file = f.rfind("lineitem.", 0) == 0 || f.rfind("orders.", 0) == 0;
    const bool meta = f.size() > 5 && f.compare(f.size() - 5, 5, ".meta") == 0;
    if (table_file && !meta && current.count(f) == 0) ++superseded;
  }
  Add("write.superseded_files", superseded, "count");

  Add("write.snapshot_us", Median(SpanUs("Database::SnapshotTable")), "us");
  Add("write.tail_rows_per_read", Ratio(t_.tail_rows, t_.snapshots), "count");

  Rng rng(w_->options().seed + 99);
  auto date = [&] { return w_->DateAt((rng.Next() % 1000) / 1000.0); };
  std::vector<double> insert_us, update_ms, delete_ms;
  for (int i = 0; i < 4 * kRepeats; ++i) {
    WriteOp op;
    op.rows.push_back({rng.Range(0, 2), date(), rng.Range(1, 7), rng.Range(1, 50)});
    const double t0 = NowSeconds();
    Span span("Connection::Query", "api");
    if (!session_->Query(op.Sql()).ok()) Fail("insert probe");
    insert_us.push_back((NowSeconds() - t0) * 1e6);
  }
  for (int i = 0; i < kRepeats; ++i) {
    const std::string where = " WHERE shipdate = " + std::to_string(date()) +
                              " AND linenum = " + std::to_string(rng.Range(1, 7));
    double t0 = NowSeconds();
    if (!session_->Query("UPDATE lineitem SET quantity = 7" + where).ok()) {
      Fail("update probe");
    }
    update_ms.push_back(Ms(NowSeconds() - t0));
    t0 = NowSeconds();
    if (!session_->Query("DELETE FROM lineitem" + where).ok()) Fail("delete probe");
    delete_ms.push_back(Ms(NowSeconds() - t0));
  }
  Add("write.insert_us", Median(insert_us), "us");
  Add("write.update_ms", Median(update_ms), "ms");
  Add("write.delete_ms", Median(delete_ms), "ms");

  std::vector<double> compact_ms = t_.compact_ms;
  std::vector<double> bytes_per_row = t_.compact_bytes_per_row;
  for (int i = 0; compact_ms.size() < 3 || bytes_per_row.empty(); ++i) {
    WriteOp op;
    for (int r = 0; r < 64; ++r) {
      op.rows.push_back({rng.Range(0, 2), date(), rng.Range(1, 7), rng.Range(1, 50)});
    }
    if (!e_.db->Insert("lineitem", op.StoredRows()).ok()) Fail("insert probe");
    const uint64_t before = DirBytes(w_->db_dir());
    const double t0 = NowSeconds();
    Span span("Database::CompactTable", "write");
    auto moved = e_.db->CompactTable("lineitem");
    compact_ms.push_back(Ms(NowSeconds() - t0));
    if (!moved.ok() || *moved == 0 || i > 5) {
      Fail("compaction probe");
      break;
    }
    bytes_per_row.push_back(static_cast<double>(DirBytes(w_->db_dir()) - before) /
                            static_cast<double>(*moved));
  }
  Add("write.compact_ms", Median(compact_ms), "ms");
  Add("write.compact_bytes_per_row_moved", Median(bytes_per_row), "B");

  // Reads that overlapped a compaction; too few in the phase (below ten
  // beyond p99 is no tail either way) are topped up by reading in a second
  // thread while this one compacts.
  std::vector<double> overlapped = t_.read_during_compaction_ms;
  if (overlapped.size() < 20) {
    std::atomic<bool> compacting{false}, done{false};
    std::atomic<int> errors{0};
    std::vector<double> probe;
    const ReadShape point = w_->PointRead(&rng);
    std::thread reader([&] {
      while (!done.load()) {
        const bool during = compacting.load();
        const double t0 = NowSeconds();
        auto r = session_->Query(point.Sql(), Strategy::kLmParallel);
        const double ms = Ms(NowSeconds() - t0);
        if (!r.ok()) ++errors;
        if (during || compacting.load()) probe.push_back(ms);
      }
    });
    for (int i = 0; i < 3; ++i) {
      WriteOp op;
      op.rows.push_back({1, date(), 1, 1});
      if (!e_.db->Insert("lineitem", op.StoredRows()).ok()) Fail("insert probe");
      compacting = true;
      if (!e_.db->CompactTable("lineitem").ok()) Fail("compaction probe");
      compacting = false;
    }
    done = true;
    reader.join();
    if (errors > 0) Fail("overlap read");
    overlapped.insert(overlapped.end(), probe.begin(), probe.end());
  }
  Add("write.read_p99_during_compaction_ms", Quantile(overlapped, 0.99), "ms");
}

// --- sql / api / server -------------------------------------------------------

void Probes::SqlApiServer() {
  Add("sql.parse_us", Median(SpanUs("sql::Parse")), "us");

  // Prepare cost, and the shared statement cache's hit ratio over the
  // phase's own statement stream.
  cstore::sched::Scheduler* pool = session_->scheduler();
  std::vector<double> prepare_us;
  {
    Connection fresh(e_.db.get(), pool);
    for (size_t i = 0; i < t_.sql_sent.size() && i < 300; ++i) {
      const double t0 = NowSeconds();
      Span span("Connection::Prepare", "api");
      if (!fresh.Prepare(t_.sql_sent[i]).ok()) Fail("prepare " + t_.sql_sent[i]);
      prepare_us.push_back((NowSeconds() - t0) * 1e6);
    }
  }
  Add("api.prepare_us", Median(prepare_us), "us");
  {
    cstore::api::StatementCache cache;
    Connection cached(e_.db.get(), pool);
    cached.set_statement_cache(&cache);
    for (const std::string& sql : t_.sql_sent) {
      if (!cached.Prepare(sql).ok()) Fail("prepare " + sql);
    }
    const auto st = cache.stats();
    Add("api.stmt_cache_hit_ratio", Ratio(st.hits, st.hits + st.misses), "ratio");
  }

  // Encoders on one fixed result.
  auto fixed = session_->Query(
      "SELECT shipdate, quantity FROM lineitem WHERE shipdate < " +
          std::to_string(w_->DateAt(0.05)),
      Strategy::kLmParallel);
  if (!fixed.ok() || fixed->tuples.num_tuples() == 0) {
    Fail("encoder input");
  } else {
    for (auto [wire, name] : {std::pair{cstore::api::Wire::kJson, "json"},
                              std::pair{cstore::api::Wire::kCsv, "csv"}}) {
      std::vector<double> ns;
      for (int i = 0; i < kRepeats; ++i) {
        const double t0 = NowSeconds();
        Span span("ResultEncoder", "api");
        cstore::api::ResultEncoder enc(wire, fixed->column_names);
        std::string body = enc.Header();
        body += enc.EncodeChunk(fixed->tuples);
        body += enc.Footer(fixed->tuples.num_tuples(), 0);
        ns.push_back((NowSeconds() - t0) * 1e9 / fixed->tuples.num_tuples());
      }
      Add(std::string("api.encode_ns_per_row.") + name, Median(ns), "ns");
    }
  }

  // The wire: one fixed point statement kept alive, on fresh connections,
  // and in process, through a server started for the probe.
  cstore::server::Server::Options so;
  so.pool_workers = 2;
  auto server = std::make_unique<cstore::server::Server>(e_.db.get(), so);
  if (!server->Start().ok()) {
    Fail("probe server");
    return;
  }
  Rng rng(w_->options().seed + 7);
  const std::string sql = w_->PointRead(&rng).Sql();
  std::vector<double> keepalive, inproc, fresh_conn, connect, first;
  {
    cstore::server::HttpClient client;
    if (!client.Connect("127.0.0.1", server->port()).ok()) Fail("connect");
    for (int i = 0; i < 20 * kRepeats; ++i) {
      const double t0 = NowSeconds();
      Span span("HttpClient::Query", "server");
      auto r = client.Query(sql, "csv");
      if (!r.ok() || r->status != 200) Fail("keep-alive query");
      if (i >= 5) keepalive.push_back(Ms(NowSeconds() - t0));
    }
  }
  // In process with the strategy the server's session picked (from the
  // query log), so the difference is the wire alone.
  std::optional<Strategy> served;
  for (const cstore::obs::QueryLogEntry& q :
       cstore::obs::QueryLog::Global().Snapshot()) {
    for (Strategy s : cstore::plan::kAllStrategies) {
      if (q.label == sql && q.strategy == cstore::plan::StrategyName(s)) served = s;
    }
  }
  if (!served) Fail("no query-log row for the keep-alive statement");
  for (int i = 0; i < 20 * kRepeats; ++i) {
    const double t0 = NowSeconds();
    Span span("Connection::Query", "api");
    if (!session_->Query(sql, served).ok()) Fail("in-process query");
    if (i >= 5) inproc.push_back(Ms(NowSeconds() - t0));
  }
  for (int i = 0; i < 4 * kRepeats; ++i) {
    cstore::server::HttpClient client;
    const double t0 = NowSeconds();
    {
      Span span("HttpClient::Connect", "server");
      if (!client.Connect("127.0.0.1", server->port()).ok()) Fail("connect");
    }
    connect.push_back(Ms(NowSeconds() - t0));
    Span span("HttpClient::Query", "server");
    auto r = client.Query(sql, "csv");
    if (!r.ok() || r->status != 200) Fail("fresh-connection query");
    fresh_conn.push_back(Ms(NowSeconds() - t0));
  }
  // A new session's first statement (it calibrates the cost model) against
  // its second.
  for (int i = 0; i < kRepeats; ++i) {
    Connection fresh(e_.db.get(), pool);
    double ms[2];
    for (double& m : ms) {
      const double t0 = NowSeconds();
      Span span("Connection::Query", "api");
      if (!fresh.Query(sql).ok()) Fail("first query");
      m = Ms(NowSeconds() - t0);
    }
    first.push_back(ms[0] - ms[1]);
  }
  {
    // The server's own view: /metrics (buffer pool, statement cache).
    cstore::server::HttpClient client;
    auto m = client.Connect("127.0.0.1", server->port()).ok()
                 ? client.Get("/metrics")
                 : cstore::Result<cstore::server::HttpResponse>(
                       cstore::Status::Unavailable("connect"));
    if (!m.ok() || m->status != 200) {
      Fail("/metrics");
    } else {
      for (const char* name : {"cstore_bufferpool_hit_ratio ",
                               "cstore_statement_cache_hit_ratio ",
                               "cstore_server_requests_total "}) {
        const size_t at = m->body.find(std::string("\n") + name);
        if (at != std::string::npos) {
          std::fprintf(stderr, "/metrics %s\n",
                       m->body.substr(at + 1, m->body.find('\n', at + 1) - at - 1).c_str());
        }
      }
    }
  }
  server->Stop();
  Add("server.keepalive_p50_ms", Median(keepalive), "ms");
  Add("server.wire_overhead_ms", Median(keepalive) - Median(inproc), "ms");
  Add("api.first_query_ms", Median(first), "ms");
  Add("server.fresh_conn_p50_ms", Median(fresh_conn), "ms");
  Add("server.connect_ms", Median(connect), "ms");
}

// --- model --------------------------------------------------------------------

void Probes::Model() {
  // The quick calibration every new session runs (Connection::Params).
  cstore::model::Calibrator::Options quick;
  quick.loop_size = 1 << 19;
  quick.repetitions = 2;
  const cstore::model::Calibrator calibrator(quick);
  std::vector<double> ms;
  std::vector<cstore::model::CostParams> params;
  for (int i = 0; i < kRepeats; ++i) {
    const double t0 = NowSeconds();
    Span span("Calibrator::Run", "model");
    params.push_back(calibrator.Run(*e_.db->disk_model()));
    ms.push_back(Ms(NowSeconds() - t0));
  }
  Add("model.calibrate_ms", Median(ms), "ms");
  double spread = 0;
  for (double cstore::model::CostParams::*c :
       {&cstore::model::CostParams::bic, &cstore::model::CostParams::tic_tup,
        &cstore::model::CostParams::tic_col, &cstore::model::CostParams::fc}) {
    double lo = params[0].*c, hi = params[0].*c;
    for (const auto& p : params) {
      lo = std::min(lo, p.*c);
      hi = std::max(hi, p.*c);
    }
    spread = std::max(spread, Ratio(hi, lo));
  }
  Add("model.calibration_spread", spread, "ratio");

  // The workload's advisor-routed statements: does the pick change from one
  // freshly calibrated session to the next, and what does it cost?
  // Besides the workload's own, two statements known to flip: the GROUP BY
  // of the motivating report and an equality select on the sorted ship date
  // whose two cheapest strategies the model ties.
  std::vector<std::string> statements = {
      "SELECT returnflag, COUNT(quantity) FROM lineitem GROUP BY returnflag",
      "SELECT shipdate, quantity FROM lineitem WHERE shipdate = " +
          std::to_string(w_->DateAt(0.5)) + " AND quantity < 40"};
  for (const ReadShape& s : w_->shapes()) {
    if ((s.kind == ReadShape::Kind::kSelect || s.kind == ReadShape::Kind::kAgg) &&
        s.cols.size() == 2) {
      statements.push_back(s.Sql());
    }
  }
  std::vector<std::set<Strategy>> picks(statements.size());
  std::vector<Strategy> first_pick(statements.size(), Strategy::kLmParallel);
  for (int k = 0; k < 5; ++k) {
    Connection fresh(e_.db.get(), session_->scheduler());
    for (size_t i = 0; i < statements.size(); ++i) {
      auto r = fresh.Query(statements[i]);
      if (!r.ok()) {
        Fail("advisor query");
        continue;
      }
      picks[i].insert(r->strategy);
      if (k == 0) first_pick[i] = r->strategy;
    }
  }
  double flips = 0;
  for (const auto& p : picks) flips += p.size() > 1;
  Add("model.strategy_flips", flips, "count");
  std::vector<double> regret;
  for (size_t i = 0; i < statements.size(); ++i) {
    std::map<Strategy, double> latency;
    for (Strategy s : cstore::plan::kAllStrategies) {
      if (s == Strategy::kLmPipelined &&
          statements[i].find("linenum_bv") != std::string::npos) {
        continue;  // not supported on bit-vector columns
      }
      latency[s] = TimeSql(statements[i], s);
    }
    double best = 1e300;
    for (const auto& [s, l] : latency) best = std::min(best, l);
    regret.push_back(Ratio(latency[first_pick[i]], best));
  }
  Add("model.regret", Median(regret), "ratio");
}

}  // namespace

uint64_t LayerProbes(Workload* w, const PhaseStats& traced,
                     const std::vector<cstore::obs::TraceEvent>& events,
                     double untraced_qps, std::vector<Metric>* metrics) {
  Probes p(w, traced, events, metrics);
  p.Storage();
  p.PoolExhaustion();
  p.Codec();
  p.Exec();
  p.Sched();
  p.Write();
  p.SqlApiServer();
  p.Model();
  const double traced_qps = traced.CpuQps();
  metrics->push_back({"obs.trace_overhead_pct",
                      100.0 * (untraced_qps - traced_qps) / untraced_qps, "%"});
  return p.failures();
}

}  // namespace perfbench
