#include "bench.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <latch>
#include <map>
#include <thread>

#include "obs/query_log.h"
#include "obs/trace.h"
#include "sql/parser.h"
#include "tpch/loader.h"

namespace perfbench {

using cstore::api::Connection;
using cstore::api::QueryResult;
using cstore::exec::JoinRightMode;
using cstore::plan::Strategy;

namespace {

// On a host whose CPUs are shared with other tenants, every thread on a
// statement's critical path is one more chance of a stall: with two
// in-process clients or two pool workers, analytics' qps and p99 moved by
// 16-40% (quartile spread) from run to run, with one of each by 4-6%.
constexpr int kPoolWorkers = 1;

constexpr JoinRightMode kModes[] = {JoinRightMode::kMaterialized,
                                    JoinRightMode::kMultiColumn,
                                    JoinRightMode::kSingleColumn};

double Ms(double seconds) { return seconds * 1e3; }

BagDigest DigestOf(const cstore::exec::TupleChunk& tuples) {
  BagDigest d;
  for (size_t i = 0; i < tuples.num_tuples(); ++i) {
    d.Add(tuples.tuple(i), tuples.width());
  }
  return d;
}

ReadShape Shape(ReadShape::Kind kind, std::vector<std::string> cols,
                std::vector<Cond> conds, bool count = false) {
  ReadShape s;
  s.kind = kind;
  s.cols = std::move(cols);
  s.conds = std::move(conds);
  s.count = count;
  return s;
}

/// LM-pipelined cannot position-filter a bit-vector column (the paper's
/// restriction too); every other strategy runs every shape.
bool Supported(const ReadShape& shape, Strategy strategy) {
  if (strategy != Strategy::kLmPipelined) return true;
  for (const Cond& c : shape.conds) {
    if (c.col == "linenum_bv") return false;
  }
  return true;
}

WorkloadSpec SpecFor(const std::string& name) {
  WorkloadSpec s;
  s.name = name;
  if (name == "analytics") {
    s.clients = 1;  // see kPoolWorkers
  } else if (name == "ingest") {
    // Well below what the writer sustains (~400 writes/s with its
    // compactions), so every run makes the same writes and compactions. At
    // 250 writes/s the writer took half a CPU (an UPDATE of lineitem takes
    // ~10 ms) and the reader's latencies moved by 15-35% from run to run.
    s.write_rate = 100;
    s.writer_reads = false;
    s.compact_every = 96;
    // Below the working set (~115 blocks of lineitem and ~20 of orders at
    // this scale, all read by compactions), so scans miss and evict. Not
    // lower: with 64 frames BufferPool::Fetch was seen now and then to fail
    // with "buffer pool exhausted" when the reader's scan and a compaction
    // pinned more frames than the pool holds (a known fault that fails only
    // on some runs, which a failed count could not repeat); the traced run's
    // storage.pool_exhausted_errors probe measures it on a smaller pool.
    s.pool_frames = 96;
  }
  return s;
}

}  // namespace

Engine::~Engine() {
  sessions.clear();
  scheduler.reset();
  db.reset();
}

Workload::Workload(const Options& options, WorkloadSpec spec)
    : options_(options), spec_(std::move(spec)) {
  db_dir_ = options_.work_dir + "/db-" + spec_.name;
  sorted_dates_ =
      cstore::tpch::GenerateLineitem(spec_.scale_factor, options_.seed).shipdate;
  std::sort(sorted_dates_.begin(), sorted_dates_.end());
  customers_ = static_cast<Value>(
      cstore::tpch::GenerateJoinTables(spec_.scale_factor, options_.seed)
          .customer_custkey.size());

  // The run's fixed statement shapes; literals come from the seed.
  Rng rng(options_.seed * 0x9e3779b97f4a7c15ULL + 17);
  auto add = [&](ReadShape s) { shapes_.push_back(std::move(s)); };
  // Seeds move literals by +-2% only, so every seed asks for the same work.
  auto jitter = [&](double f) { return f * (0.98 + 0.04 * (rng.Next() % 1000) / 1000.0); };
  using K = ReadShape::Kind;
  using O = Cond::Op;
  if (spec_.name == "analytics") {
    // Figure 11: selectivity sweep on SHIPDATE, LINENUM < 7 (96%), with
    // LINENUM read through each of its four encodings.
    const double sels[] = {0.02, 0.1, 0.3, 0.6};
    const char* linenum[] = {"linenum", "linenum_bv", "linenum_plain",
                             "linenum_dict"};
    for (int i = 0; i < 4; ++i) {
      add(Shape(K::kSelect, {"shipdate", linenum[i]},
           {{"shipdate", O::kLt, DateAt(jitter(sels[i]))},
            {linenum[i], O::kLt, 7}}));
    }
    // Figure 12: GROUP BY with 3, ~50 and ~1000 groups.
    add(Shape(K::kAgg, {"returnflag", "quantity"},
         {{"quantity", O::kLt, rng.Range(30, 32)}}, true));
    add(Shape(K::kAgg, {"quantity", "linenum_plain"},
         {{"quantity", O::kGt, rng.Range(10, 12)}}));
    add(Shape(K::kAgg, {"shipdate", "linenum"},
         {{"shipdate", O::kLt, DateAt(jitter(0.4))},
          {"linenum", O::kLt, 5}}));
    // ORDER BY ... LIMIT.
    const Value d = DateAt(jitter(0.5));
    ReadShape top = Shape(K::kSort, {"shipdate", "quantity"},
                          {{"shipdate", O::kBetween, d, d + 300}});
    top.order_col = "quantity";
    top.desc = true;
    top.limit = 100;
    add(top);
    ReadShape first =
        Shape(K::kSort, {"shipdate", "quantity"}, {{"quantity", O::kGe, 48}});
    first.order_col = "shipdate";
    first.limit = 50;
    add(first);
    // Figure 13: orders ⋈ customer, a probe-heavy and a build-dominated one.
    add(Shape(K::kJoin, {}, {{"custkey", O::kLt, customers_ / 2}}));
    add(Shape(K::kJoin, {}, {{"custkey", O::kLt, 20}}));
  } else {  // ingest
    add(Shape(K::kSelect, {"shipdate", "quantity"},
         {{"shipdate", O::kGe, DateAt(jitter(0.7))},
          {"quantity", O::kLt, 10}}));
    add(Shape(K::kSelect, {"linenum_plain", "quantity"},
         {{"linenum_plain", O::kEq, 1}, {"quantity", O::kGt, 40}}));
    // The aggregates read the last ~30% of ship dates, where the writer's
    // rows and deletes land as often as anywhere: a whole-table GROUP BY
    // took 20-27 ms, so a run held too few reads for a steady p99.
    const Value recent = DateAt(jitter(0.7));
    add(Shape(K::kAgg, {"linenum", "quantity"},
         {{"shipdate", O::kGe, recent},
          {"linenum", O::kLt, 6},
          {"quantity", O::kGt, 10}}));
    add(Shape(K::kAgg, {"returnflag", "quantity"},
         {{"shipdate", O::kGe, recent}, {"quantity", O::kLt, 25}}, true));
    add(Shape(K::kJoin, {}, {{"custkey", O::kLt, customers_ * 3 / 10}}));
  }
}

Workload::~Workload() { Teardown(); }

Value Workload::DateAt(double f) const {
  const size_t i = std::min(sorted_dates_.size() - 1,
                            static_cast<size_t>(f * sorted_dates_.size()));
  return sorted_dates_[i];
}

Value Workload::RandomDate(Rng* rng) const {
  return sorted_dates_[rng->Next() % sorted_dates_.size()];
}

ReadShape Workload::PointRead(Rng* rng) const {
  // A flag and an existing date: tens of rows, found through position
  // ranges of the two sorted RLE columns, so the engine's work is small.
  return Shape(ReadShape::Kind::kSelect, {"returnflag", "shipdate"},
               {{"returnflag", Cond::Op::kEq, rng->Range(0, 2)},
                {"shipdate", Cond::Op::kEq, RandomDate(rng)}});
}

WriteOp Workload::RandomInsert(Rng* rng, int rows) const {
  WriteOp w;
  w.kind = WriteOp::Kind::kInsert;
  for (int i = 0; i < rows; ++i) {
    w.rows.push_back({rng->Range(0, 2), RandomDate(rng), rng->Range(1, 7),
                      rng->Range(1, 50)});
  }
  return w;
}

void Workload::Teardown() { engine_.reset(); }

double Workload::ClientCpu(int client) const {
  double cpu = ProcessCpuSeconds();
  for (size_t c = 0; c < client_clocks_.size(); ++c) {
    if (static_cast<int>(c) != client) cpu -= CpuSeconds(client_clocks_[c]);
  }
  return cpu;
}

double Workload::Setup(double* wall_seconds) {
  Teardown();
  RemoveTree(db_dir_);
  reads_.clear();
  writes_.clear();
  writes_started_ = 0;
  writes_acked_ = 0;
  const double t0 = NowSeconds();
  const double cpu0 = ProcessCpuSeconds();
  auto done = [&] {
    *wall_seconds = NowSeconds() - t0;
    return ProcessCpuSeconds() - cpu0;
  };
  std::filesystem::create_directories(db_dir_);
  engine_ = std::make_unique<Engine>();
  Engine& e = *engine_;
  cstore::db::Database::Options dbo;
  dbo.dir = db_dir_;
  dbo.pool_frames = spec_.pool_frames;
  {
    Span span("Database::Open", "storage");
    const double o0 = NowSeconds();
    auto db = cstore::db::Database::Open(dbo);
    e.open_ms = Ms(NowSeconds() - o0);
    if (!db.ok()) {
      std::fprintf(stderr, "Database::Open: %s\n", db.status().ToString().c_str());
      ++setup_failures_;
      return done();
    }
    e.db = std::move(*db);
  }
  auto li = cstore::tpch::LoadLineitem(e.db.get(), spec_.scale_factor, options_.seed);
  auto jt = cstore::tpch::LoadJoinTables(e.db.get(), spec_.scale_factor, options_.seed);
  if (!li.ok() || !jt.ok()) {
    std::fprintf(stderr, "load failed: %s %s\n", li.status().ToString().c_str(),
                 jt.status().ToString().c_str());
    ++setup_failures_;
    return done();
  }
  e.customer_key = jt->customer_custkey;
  e.customer_nation = jt->customer_nationcode;

  cstore::sched::Scheduler::Options so;
  so.num_workers = kPoolWorkers;
  e.scheduler = std::make_unique<cstore::sched::Scheduler>(so);
  // One session per client; they share one cost-model cache, as sibling
  // sessions should.
  for (int c = 0; c < spec_.clients; ++c) {
    e.sessions.push_back(
        std::make_unique<Connection>(e.db.get(), e.scheduler.get()));
    if (c > 0) e.sessions[c]->ShareCostCache(*e.sessions[0]);
  }
  WarmUp();
  return done();
}

cstore::Result<QueryResult> Workload::RunRead(Connection* session,
                                              const ReadShape& shape,
                                              Strategy strategy,
                                              JoinRightMode mode) {
  if (shape.kind != ReadShape::Kind::kJoin) {
    Span span("Connection::Query", "api");
    return session->Query(shape.Sql(), strategy);
  }
  cstore::db::Database* db = engine_->db.get();
  std::shared_ptr<const cstore::write::WriteSnapshot> snap;
  {
    Span span("Database::SnapshotTable", "write");
    CSTORE_ASSIGN_OR_RETURN(snap, db->SnapshotTable("orders"));
  }
  // Readers of the snapshot's own generation (a compaction may have swapped
  // the catalog since).
  cstore::plan::JoinQuery q;
  const int key = snap->ColumnIndexForName("custkey");
  const int ship = snap->ColumnIndexForName("shipdate");
  CSTORE_ASSIGN_OR_RETURN(q.left_key, db->GetColumn(snap->column_files()[key]));
  CSTORE_ASSIGN_OR_RETURN(q.left_payload,
                          db->GetColumn(snap->column_files()[ship]));
  q.right_key = engine_->customer_key;
  q.right_payload = engine_->customer_nation;
  const Cond& c = shape.conds[0];
  q.left_pred = c.op == Cond::Op::kLt ? cstore::codec::Predicate::LessThan(c.a)
                                      : cstore::codec::Predicate::True();
  cstore::plan::PlanConfig config;
  config.snapshot = std::move(snap);
  Span span("Connection::Query", "api");
  return session->Query(cstore::plan::PlanTemplate::Join(q, mode, config));
}

void Workload::WarmUp() {
  Engine& e = *engine_;
  Connection* s = e.sessions[0].get();
  // Calibration: the advisor's first use measures the cost-model constants.
  {
    Span span("Connection::Explain", "model");
    if (!s->Explain(shapes_[0].Sql()).ok()) ++setup_failures_;
  }
  // Every fixed shape under every strategy (joins: every right mode). The
  // results must agree with each other here, and with the reference later.
  for (size_t i = 0; i < shapes_.size(); ++i) {
    const ReadShape& shape = shapes_[i];
    const bool join = shape.kind == ReadShape::Kind::kJoin;
    std::vector<std::pair<std::string, ReadRecord>> got;
    for (int k = 0; k < (join ? 3 : 4); ++k) {
      const Strategy strategy = cstore::plan::kAllStrategies[k % 4];
      if (!Supported(shape, strategy)) continue;
      const JoinRightMode mode = kModes[k % 3];
      auto r = RunRead(s, shape, strategy, mode);
      if (!r.ok()) {
        std::fprintf(stderr, "warm-up %s: %s\n", shape.Sql().c_str(),
                     r.status().ToString().c_str());
        ++setup_failures_;
        continue;
      }
      ReadRecord rec;
      rec.shape = static_cast<int>(i);
      rec.got = DigestOf(r->tuples);
      rec.what = std::string("warm-up ") +
                 (join ? cstore::exec::JoinRightModeName(mode)
                       : cstore::plan::StrategyName(strategy));
      if (shape.kind == ReadShape::Kind::kSort) {
        for (size_t t = 0; t < r->tuples.num_tuples(); ++t) {
          rec.rows.emplace_back(r->tuples.tuple(t),
                                r->tuples.tuple(t) + r->tuples.width());
        }
      }
      got.emplace_back(rec.what, std::move(rec));
    }
    for (auto& [what, rec] : got) {
      if (rec.got != got[0].second.got || rec.rows != got[0].second.rows) {
        std::fprintf(stderr, "property: %s differs from %s on %s\n",
                     what.c_str(), got[0].first.c_str(), shape.Sql().c_str());
        ++setup_failures_;
      }
    }
    for (auto& entry : got) reads_.push_back(std::move(entry.second));
  }
}

Op Workload::NextRead(Rng* rng, std::vector<Op>* round) {
  // Reads come in whole rounds, each every fixed shape under every strategy
  // (joins: every right mode) once, in a seeded order: every run makes the
  // same mix, so a percentile never moves because one run drew more of a
  // slow shape than another.
  if (round->empty()) {
    for (size_t i = 0; i < shapes_.size(); ++i) {
      const bool join = shapes_[i].kind == ReadShape::Kind::kJoin;
      for (int k = 0; k < (join ? 3 : 4); ++k) {
        Op op;
        op.shape = static_cast<int>(i);
        op.strategy = cstore::plan::kAllStrategies[k];
        op.mode = kModes[k % 3];
        if (!Supported(shapes_[i], op.strategy)) {
          op.strategy = Strategy::kLmParallel;
        }
        round->push_back(op);
      }
    }
    for (size_t i = round->size(); i > 1; --i) {
      std::swap((*round)[i - 1], (*round)[rng->Next() % i]);
    }
  }
  Op op = round->back();
  round->pop_back();
  return op;
}

Op Workload::NextWrite(Rng* rng) {
  Op op;
  op.kind = Op::Kind::kWrite;
  WriteOp& w = op.write;
  if (spec_.name == "analytics") {
    w = RandomInsert(rng, 2);
    return op;
  }
  // ingest: single- and multi-row INSERT, UPDATE and DELETE on both tables.
  auto date_line = [&] {
    return std::vector<Cond>{{"shipdate", Cond::Op::kEq, RandomDate(rng)},
                             {"linenum", Cond::Op::kEq, rng->Range(1, 7)}};
  };
  // The kinds follow a fixed cycle of 20 (only the literals are seeded), so
  // every run inserts, updates and deletes in the same proportions.
  const uint64_t r = (ingest_writes_++ % 20) * 5;
  if (r < 30) {
    w = RandomInsert(rng, 1);
  } else if (r < 45) {
    w = RandomInsert(rng, 8);
    w.typed = true;
  } else if (r < 60) {
    w.table = Table::kOrders;
    w.rows.push_back({rng->Range(1, customers_), RandomDate(rng)});
  } else if (r < 75) {
    w.kind = WriteOp::Kind::kUpdate;
    w.conds = date_line();
    w.sets = {{"quantity", rng->Range(1, 50)}};
  } else if (r < 85) {
    w.kind = WriteOp::Kind::kDelete;
    w.conds = date_line();
  } else if (r < 95) {
    w.kind = WriteOp::Kind::kDelete;
    w.table = Table::kOrders;
    w.conds = {{"custkey", Cond::Op::kEq, rng->Range(1, customers_)}};
  } else {
    w.kind = WriteOp::Kind::kUpdate;
    w.table = Table::kOrders;
    w.conds = {{"custkey", Cond::Op::kEq, rng->Range(1, customers_)}};
    w.sets = {{"shipdate", RandomDate(rng)}};
  }
  return op;
}

void Workload::ExecuteRead(int client, const Op& op, bool traced,
                           PhaseStats* st) {
  Engine& e = *engine_;
  const ReadShape& shape = shapes_[op.shape];
  ReadRecord rec;
  rec.shape = op.shape;
  const std::string sql = shape.Sql();
  if (traced) {
    if (st->sql_sent.size() < 2000 && !sql.empty()) st->sql_sent.push_back(sql);
    if (!sql.empty()) {
      Span span("sql::Parse", "sql");
      if (!cstore::sql::Parse(sql).ok()) ++st->failed;
    }
    if (shape.kind != ReadShape::Kind::kJoin) {
      Span span("Database::SnapshotTable", "write");
      auto snap = e.db->SnapshotTable("lineitem");
      if (snap.ok()) {
        ++st->snapshots;
        st->tail_rows += (*snap)->tail_rows();
      }
    }
  }
  const uint64_t c_started = compactions_started_.load();
  const uint64_t c_finished = compactions_finished_.load();
  rec.lo = writes_acked_.load();
  const double t0 = NowSeconds();
  const double cpu0 = ClientCpu(client);
  auto r = RunRead(e.sessions[client].get(), shape, op.strategy, op.mode);
  const bool ok = r.ok();
  if (ok) {
    rec.got = DigestOf(r->tuples);
    if (shape.kind == ReadShape::Kind::kSort) {
      for (size_t t = 0; t < r->tuples.num_tuples(); ++t) {
        rec.rows.emplace_back(r->tuples.tuple(t),
                              r->tuples.tuple(t) + r->tuples.width());
      }
    }
    if (traced) {
      ++st->inproc_reads;
      st->blocks_fetched += r->stats.exec.blocks_fetched;
      st->blocks_skipped += r->stats.exec.blocks_skipped;
    }
  } else {
    std::fprintf(stderr, "read failed: %s: %s\n", sql.c_str(),
                 r.status().ToString().c_str());
  }
  rec.what = shape.kind == ReadShape::Kind::kJoin
                 ? cstore::exec::JoinRightModeName(op.mode)
                 : cstore::plan::StrategyName(op.strategy);
  const double ms = Ms(NowSeconds() - t0);
  const double cpu_ms = Ms(ClientCpu(client) - cpu0);
  rec.hi = writes_started_.load();
  if (!ok) {
    ++st->failed;
    return;
  }
  st->read_ms.push_back(cpu_ms);
  st->read_wall_ms.push_back(ms);
  if (c_started != c_finished || compactions_started_.load() != c_started) {
    st->read_during_compaction_ms.push_back(ms);
  }
  std::lock_guard<std::mutex> lock(log_mu_);
  reads_.push_back(std::move(rec));
}

void Workload::ExecuteWrite(int client, const Op& op, bool traced,
                            PhaseStats* st) {
  Engine& e = *engine_;
  const WriteOp& w = op.write;
  WriteRecord rec;
  rec.op = w;
  const std::string sql = w.typed ? "" : w.Sql();
  if (traced && !sql.empty()) {
    if (st->sql_sent.size() < 2000) st->sql_sent.push_back(sql);
    Span span("sql::Parse", "sql");
    (void)cstore::sql::ParseStatement(sql);
  }
  writes_started_.fetch_add(1);
  // Writes run on the calling thread (the pool is not used), so their CPU
  // time is the thread's.
  const clockid_t clock = client_clocks_[client];
  const double t0 = NowSeconds();
  const double cpu0 = CpuSeconds(clock);
  bool ok = false;
  if (w.typed) {
    Span span("Database::Insert", "write");
    ok = e.db->Insert(w.TableName(), w.StoredRows()).ok();
    rec.affected = w.rows.size();
  } else {
    Span span("Connection::Query", "api");
    auto r = e.sessions[client]->Query(sql);
    ok = r.ok();
    if (ok) rec.affected = r->rows_affected;
    if (!ok) {
      std::fprintf(stderr, "write failed: %s: %s\n", sql.c_str(),
                   r.status().ToString().c_str());
    }
  }
  const double secs = NowSeconds() - t0;
  const double cpu = CpuSeconds(clock) - cpu0;
  rec.applied = ok;
  {
    std::lock_guard<std::mutex> lock(log_mu_);
    writes_.push_back(std::move(rec));
  }
  writes_acked_.fetch_add(1);
  if (!ok) {
    ++st->failed;
    return;
  }
  st->write_ms.push_back(Ms(cpu));
  st->write_wall_ms.push_back(Ms(secs));
  if (w.kind == WriteOp::Kind::kInsert) {
    st->insert_rows += static_cast<double>(w.rows.size());
    st->insert_cpu_seconds += cpu;
  }
}

void Workload::Compact(int client, const char* table, bool traced,
                       PhaseStats* st) {
  Engine& e = *engine_;
  const uint64_t before = traced ? DirBytes(db_dir_) : 0;
  compactions_started_.fetch_add(1);
  const double t0 = NowSeconds();
  const double cpu0 = CpuSeconds(client_clocks_[client]);
  cstore::Result<uint64_t> moved = uint64_t{0};
  {
    Span span("Database::CompactTable", "write");
    moved = e.db->CompactTable(table);
  }
  const double secs = NowSeconds() - t0;
  const double cpu = CpuSeconds(client_clocks_[client]) - cpu0;
  compactions_finished_.fetch_add(1);
  if (!moved.ok()) {
    std::fprintf(stderr, "compaction failed: %s\n",
                 moved.status().ToString().c_str());
    ++st->failed;
    return;
  }
  st->compact_ms.push_back(Ms(secs));
  st->insert_cpu_seconds += cpu;
  if (traced && *moved > 0) {
    st->compact_bytes_per_row.push_back(
        static_cast<double>(DirBytes(db_dir_) - before) /
        static_cast<double>(*moved));
  }
}

void Workload::ClientLoop(int client, double start, double deadline,
                          bool traced, PhaseStats* st) {
  // A write-only session's paced writes are not counted by qps: their rate
  // is fixed by the pacing, not by the engine.
  const bool counted = client != 0 || spec_.writer_reads;
  const double loop_cpu0 = ClientCpu(client);
  // Reads and writes come from separate seeded streams, so the write
  // sequence is the same in every run whatever the read timing.
  Rng reads(Mix64(options_.seed) ^ Mix64(client * 7919 + phase_counter_ * 104729));
  Rng writes(Mix64(options_.seed + 1) ^ Mix64(phase_counter_ * 104729));
  std::vector<Op> round;
  const bool writer = client == 0;
  // Writes fall at the middle of each 1/rate interval, so a run of a given
  // length issues the same number of writes and compactions.
  const double interval = 1.0 / spec_.write_rate;
  const uint64_t total =
      static_cast<uint64_t>((deadline - start) * spec_.write_rate);
  uint64_t written = 0;
  double now = NowSeconds();
  while (now < deadline) {
    const double due = start + (written + 0.5) * interval;
    bool write = writer && written < total && now >= due;
    if (writer && !write && !spec_.writer_reads) {
      // A write-only session waits for its next slot.
      if (written >= total) break;
      std::this_thread::sleep_for(std::chrono::duration<double>(due - now));
      now = NowSeconds();
      continue;
    }
    Op op = write ? NextWrite(&writes) : NextRead(&reads, &round);
    {
      OpScope scope;
      if (write) {
        ExecuteWrite(client, op, traced, st);
      } else {
        ExecuteRead(client, op, traced, st);
      }
    }
    ++st->ops;
    if (counted) ++st->loop_ops;
    if (write && ++written % spec_.compact_every == 0) {
      OpScope scope;
      // ingest alternates its two written tables.
      const bool orders =
          spec_.name == "ingest" && (written / spec_.compact_every) % 2 == 1;
      Compact(client, orders ? "orders" : "lineitem", traced, st);
    }
    now = NowSeconds();
  }
  if (counted) st->loop_cpu_seconds = ClientCpu(client) - loop_cpu0;
}

PhaseStats Workload::RunPhase(double seconds, bool traced) {
  ++phase_counter_;
  std::vector<PhaseStats> per(spec_.clients);
  const cstore::storage::IoStats io_before = engine_->db->pool()->stats();
  const uint64_t log_from = cstore::obs::QueryLog::Global().total_recorded();
  // Every client learns the others' CPU clocks before the phase starts, and
  // every client thread lives until all have taken their last reading (a
  // thread's CPU clock cannot be read once it has exited).
  client_clocks_.assign(spec_.clients, CLOCK_THREAD_CPUTIME_ID);
  std::latch ready(spec_.clients + 1);
  std::latch done(spec_.clients);
  double t0 = 0;
  std::vector<std::thread> threads;
  for (int c = 0; c < spec_.clients; ++c) {
    threads.emplace_back([&, c] {
      client_clocks_[c] = ThisThreadCpuClock();
      ready.arrive_and_wait();
      ClientLoop(c, t0, t0 + seconds, traced, &per[c]);
      done.arrive_and_wait();
    });
  }
  t0 = NowSeconds();
  ready.arrive_and_wait();
  for (auto& t : threads) t.join();
  client_clocks_.clear();
  PhaseStats all;
  all.seconds = NowSeconds() - t0;
  all.io = engine_->db->pool()->stats() - io_before;
  all.log_from = log_from;
  all.log_to = cstore::obs::QueryLog::Global().total_recorded();
  for (PhaseStats& p : per) {
    all.ops += p.ops;
    all.failed += p.failed;
    auto cat = [](std::vector<double>* to, const std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    cat(&all.read_ms, p.read_ms);
    cat(&all.write_ms, p.write_ms);
    cat(&all.read_wall_ms, p.read_wall_ms);
    cat(&all.write_wall_ms, p.write_wall_ms);
    cat(&all.read_during_compaction_ms, p.read_during_compaction_ms);
    cat(&all.compact_ms, p.compact_ms);
    cat(&all.compact_bytes_per_row, p.compact_bytes_per_row);
    all.insert_rows += p.insert_rows;
    all.insert_cpu_seconds += p.insert_cpu_seconds;
    all.loop_ops += p.loop_ops;
    all.loop_cpu_seconds += p.loop_cpu_seconds;
    all.inproc_reads += p.inproc_reads;
    all.blocks_fetched += p.blocks_fetched;
    all.blocks_skipped += p.blocks_skipped;
    all.snapshots += p.snapshots;
    all.tail_rows += p.tail_rows;
    all.sql_sent.insert(all.sql_sent.end(), p.sql_sent.begin(), p.sql_sent.end());
  }
  return all;
}

uint64_t Workload::Verify() {
  reference_ = std::make_unique<Reference>(
      cstore::tpch::GenerateLineitem(spec_.scale_factor, options_.seed),
      cstore::tpch::GenerateJoinTables(spec_.scale_factor, options_.seed));
  Reference& ref = *reference_;
  std::vector<int> track(shapes_.size(), -1);
  for (size_t i = 0; i < shapes_.size(); ++i) {
    if (shapes_[i].kind != ReadShape::Kind::kSort) track[i] = ref.Track(shapes_[i]);
  }
  uint64_t bad = 0;
  for (const WriteRecord& w : writes_) {
    if (!w.applied) {
      ref.Skip();
      continue;
    }
    const uint64_t expected = ref.Apply(w.op);
    if (expected != w.affected) {
      if (++bad <= 5) {
        std::fprintf(stderr, "MISMATCH write %s: %llu rows affected, expected %llu\n",
                     w.op.typed ? "typed insert" : w.op.Sql().c_str(),
                     static_cast<unsigned long long>(w.affected),
                     static_cast<unsigned long long>(expected));
      }
    }
  }
  std::map<std::pair<int, uint32_t>, std::vector<std::vector<Value>>> topn;
  for (const ReadRecord& r : reads_) {
    const ReadShape& shape = shapes_[r.shape];
    bool match = false;
    for (uint32_t v = r.lo; v <= r.hi && !match; ++v) {
      if (shape.kind == ReadShape::Kind::kSort) {
        auto key = std::make_pair(r.shape, v);
        auto it = topn.find(key);
        if (it == topn.end()) it = topn.emplace(key, ref.TopN(shape, v)).first;
        match = it->second == r.rows;
      } else {
        match = ref.Tracked(track[r.shape], v) == r.got;
      }
    }
    if (shape.kind == ReadShape::Kind::kSort) {
      // Property: the output is ordered by the sort column.
      const int key = shape.order_col == shape.cols[0] ? 0 : 1;
      for (size_t i = 1; i < r.rows.size(); ++i) {
        const Value a = r.rows[i - 1][key], b = r.rows[i][key];
        if (shape.desc ? a < b : a > b) match = false;
      }
    }
    if (!match && ++bad <= 5) {
      std::fprintf(stderr,
                   "MISMATCH read (%s) %s: %llu rows; no reference state "
                   "between write %u and %u agrees\n",
                   r.what.c_str(),
                   shape.kind == ReadShape::Kind::kJoin ? "orders join customer"
                                                        : shape.Sql().c_str(),
                   static_cast<unsigned long long>(r.got.rows), r.lo, r.hi);
    }
  }
  return bad;
}

// ---------------------------------------------------------------------------

namespace {

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::fprintf(stderr, "\n%-44s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "%-44s %16.6g  %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::fprintf(stderr, "attempted %llu, failed %llu, correct %s\n",
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed),
               correct ? "true" : "false");
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::fflush(stderr);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int RunBenchmark(const Options& options) {
  if (options.workload != "analytics" && options.workload != "ingest") {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  cstore::obs::TraceRecorder& recorder = cstore::obs::TraceRecorder::Global();
  recorder.set_max_events_per_thread(20000);
  Workload w(options, SpecFor(options.workload));
  const WorkloadSpec& spec = w.spec();
  std::vector<Metric> metrics;
  PhaseStats main;
  double untraced_qps = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> setups;
  std::vector<double> setup_walls;
  // setup_s is the median of five set-ups; the last one is kept. A traced
  // run sets up once, traced (Database::Open and the warm-up).
  const int setup_count = options.trace ? 1 : 5;
  recorder.set_enabled(options.trace);
  for (int i = 0; i < setup_count; ++i) {
    double wall = 0;
    setups.push_back(w.Setup(&wall));
    setup_walls.push_back(wall);
  }
  recorder.set_enabled(false);
  if (w.setup_failures() > 0) {
    std::fprintf(stderr, "set-up failed\n");
    w.Teardown();
    RemoveTree(w.db_dir());
    return 1;
  }
  std::vector<cstore::obs::TraceEvent> phase_events;
  if (options.trace) {
    // The same loop untraced, then traced: their throughput gap is the
    // tracing overhead.
    PhaseStats plain = w.RunPhase(options.seconds / 2, false);
    untraced_qps = plain.CpuQps();
    const uint64_t from_ns = recorder.NowNs();
    recorder.set_enabled(true);
    main = w.RunPhase(options.seconds / 2, true);
    recorder.set_enabled(false);
    phase_events = EventsBetween(from_ns, recorder.NowNs());
    attempted += plain.ops;
    failed += plain.failed;
  } else {
    main = w.RunPhase(options.seconds, false);
  }
  // Read before the check below builds the reference's copy of the data.
  const double peak_rss_mb = PeakRssMb();
  const uint64_t mismatches = w.Verify();
  attempted += main.ops;
  failed += main.failed + mismatches;
  const bool correct = mismatches == 0;

  if (!options.trace) {
    const double live_rows = static_cast<double>(w.reference().LiveRows());
    metrics.push_back({"setup_s", Median(setups), "s"});
    metrics.push_back({"qps", main.CpuQps(), "1/s"});
    metrics.push_back({"query_p50_ms", Quantile(main.read_ms, 0.5), "ms"});
    metrics.push_back({"query_p99_ms", Quantile(main.read_ms, 0.99), "ms"});
    metrics.push_back({"write_p50_ms", Quantile(main.write_ms, 0.5), "ms"});
    metrics.push_back({"ingest_rows_s",
                       main.insert_cpu_seconds > 0
                           ? main.insert_rows / main.insert_cpu_seconds
                           : 0,
                       "rows/s"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb, "MiB"});
    metrics.push_back({"disk_bytes_per_row",
                       static_cast<double>(DirBytes(w.db_dir())) / live_rows, "B"});
    std::fprintf(stderr,
                 "%s: %zu reads, %zu writes, %zu compactions (median %.1f ms) "
                 "in %.2f s\n",
                 spec.name.c_str(), main.read_ms.size(), main.write_ms.size(),
                 main.compact_ms.size(), Median(main.compact_ms), main.seconds);
    // The same figures in wall time, for comparison with the CPU-time ones.
    std::fprintf(stderr,
                 "wall time: setup %.4f s, qps %.2f, query p50 %.4f ms, "
                 "p99 %.4f ms, write p50 %.4f ms\n",
                 Median(setup_walls), main.loop_ops / main.seconds,
                 Quantile(main.read_wall_ms, 0.5),
                 Quantile(main.read_wall_ms, 0.99),
                 Quantile(main.write_wall_ms, 0.5));
  } else {
    std::fprintf(stderr, "%s traced phase: %llu ops in %.2f s; self time by layer:\n",
                 spec.name.c_str(), static_cast<unsigned long long>(main.ops),
                 main.seconds);
    for (const auto& [layer, ms] : LayerSelfTimes(phase_events)) {
      std::fprintf(stderr, "  %-16s %10.1f ms\n", layer.c_str(), ms);
    }
    std::fprintf(stderr, "engine spans, total by category:\n");
    for (const auto& [cat, ms] : EngineSpanTimes(phase_events)) {
      std::fprintf(stderr, "  %-16s %10.1f ms\n", cat.c_str(), ms);
    }
    // The catalog's view at the end of the phase: generations, write-store
    // rows and deletes per table.
    auto tables = w.engine().sessions[0]->Query(
        "SELECT generation, base_rows, ws_rows, deletes FROM system.tables");
    if (tables.ok()) {
      for (size_t i = 0; i < tables->tuples.num_tuples(); ++i) {
        const Value* r = tables->tuples.tuple(i);
        std::fprintf(stderr,
                     "system.tables: generation %lld, base_rows %lld, "
                     "ws_rows %lld, deletes %lld\n",
                     static_cast<long long>(r[0]), static_cast<long long>(r[1]),
                     static_cast<long long>(r[2]), static_cast<long long>(r[3]));
      }
    } else {
      ++failed;
    }
    recorder.set_enabled(true);
    failed += LayerProbes(&w, main, phase_events, untraced_qps, &metrics);
    recorder.set_enabled(false);
    // Set-up and probes call the layers the loop does not (Database::Open,
    // FetchBlock, the server, the calibrator).
    std::fprintf(stderr, "self time by layer, whole traced run:\n");
    const auto whole = LayerSelfTimes(EventsBetween(0, recorder.NowNs()));
    for (const auto& [layer, ms] : whole) {
      std::fprintf(stderr, "  %-16s %10.1f ms\n", layer.c_str(), ms);
    }
    const std::string path =
        options.work_dir + "/trace-" + spec.name + ".json";
    if (recorder.WriteChromeJson(path).ok()) {
      std::fprintf(stderr, "Chrome trace (Perfetto): %s\n", path.c_str());
    }
  }
  w.Teardown();
  RemoveTree(w.db_dir());
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace perfbench
