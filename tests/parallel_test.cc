// Morsel-driven parallel execution: determinism and thread-safety tests.
//
// The contract under test: for every materialization strategy, a query's
// result *bag* — output_tuples and the order-independent checksum — is
// bit-identical across 1, 2 and 4 workers, and a single worker — the
// calling thread, or a one-worker pool — emits exactly what pulling the
// full-range plan directly does, tuple order included.

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/connection.h"
#include "db/database.h"
#include "exec/morsel_source.h"
#include "plan/executor.h"
#include "plan/parallel.h"
#include "plan/planner.h"
#include "test_util.h"
#include "tpch/loader.h"

namespace cstore {
namespace {

using plan::Strategy;
using testing::TempDir;

// SF 0.1 ≈ 600 K lineitem rows ≈ 10 chunk windows: enough for one morsel
// per window across 4 workers.
constexpr double kScaleFactor = 0.1;

class ParallelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db::Database::Options opts;
    opts.dir = dir_.path();
    opts.pool_frames = 4096;
    auto db = db::Database::Open(opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
    auto li = tpch::LoadLineitem(db_.get(), kScaleFactor);
    ASSERT_TRUE(li.ok()) << li.status().ToString();
    li_ = *li;
    ASSERT_GT(li_.num_rows, 4 * kChunkPositions)
        << "need several chunk windows for a meaningful parallel test";
  }

  /// Two-predicate selection over the lineitem slice. Column encodings are
  /// RLE (sorted shipdate) + uncompressed, which every strategy supports.
  plan::SelectionQuery MidSelectivityQuery() const {
    plan::SelectionQuery q;
    Value mid = (li_.shipdate->meta().min_value +
                 li_.shipdate->meta().max_value) /
                2;
    q.columns.push_back({li_.shipdate, codec::Predicate::LessThan(mid)});
    q.columns.push_back({li_.quantity, codec::Predicate::LessThan(30)});
    return q;
  }

  /// One-window-per-morsel config so 4 workers actually run concurrently.
  static plan::PlanConfig MorselConfig() {
    plan::PlanConfig config;
    config.morsel_positions = kChunkPositions;
    return config;
  }

  /// Every output row — position, then each value — in emission order.
  static void AppendRows(const exec::TupleChunk& chunk,
                         std::vector<std::vector<Value>>* rows) {
    for (size_t i = 0; i < chunk.num_tuples(); ++i) {
      std::vector<Value> row = {static_cast<Value>(chunk.position(i))};
      for (uint32_t c = 0; c < chunk.width(); ++c) {
        row.push_back(chunk.value(i, c));
      }
      rows->push_back(std::move(row));
    }
  }

  /// Builds `tmpl`'s plan over the full position space (joins: over a hash
  /// table built here) and pulls it to completion on this thread.
  Status RunDirect(const plan::PlanTemplate& tmpl, plan::RunStats* stats,
                   std::vector<std::vector<Value>>* rows) {
    std::shared_ptr<const exec::JoinBuildTable> table;
    if (tmpl.NeedsBuildPhase()) {
      CSTORE_ASSIGN_OR_RETURN(
          exec::JoinBuildTable::Spec spec,
          plan::JoinBuildSpec(tmpl.join, tmpl.join_mode, tmpl.config));
      exec::ExecStats build_stats;
      CSTORE_ASSIGN_OR_RETURN(table,
                              exec::JoinBuildTable::Build(spec, &build_stats));
    }
    CSTORE_ASSIGN_OR_RETURN(
        std::unique_ptr<plan::Plan> plan,
        tmpl.Instantiate(exec::kFullScanRange, table.get()));
    return plan::ExecutePlan(
        plan.get(), db_->pool(), stats,
        [&](const exec::TupleChunk& chunk) { AppendRows(chunk, rows); });
  }

  TempDir dir_;
  std::unique_ptr<db::Database> db_;
  tpch::LineitemColumns li_;
};

TEST_F(ParallelTest, SelectionDeterministicAcrossWorkerCounts) {
  plan::SelectionQuery q = MidSelectivityQuery();
  for (Strategy s : plan::kAllStrategies) {
    ASSERT_OK_AND_ASSIGN(api::QueryResult serial,
                         testing::RunTemplate(
                             db_.get(),
                             plan::PlanTemplate::Selection(
                                 q, s, MorselConfig())));
    EXPECT_GT(serial.stats.output_tuples, 0u) << StrategyName(s);
    for (int workers : {2, 4}) {
      ASSERT_OK_AND_ASSIGN(
          api::QueryResult parallel,
          testing::RunTemplate(
              db_.get(),
              plan::PlanTemplate::Selection(q, s, MorselConfig()), workers));
      EXPECT_EQ(parallel.stats.output_tuples, serial.stats.output_tuples)
          << StrategyName(s) << " workers=" << workers;
      EXPECT_EQ(parallel.stats.checksum, serial.stats.checksum)
          << StrategyName(s) << " workers=" << workers;
      EXPECT_EQ(parallel.tuples.num_tuples(), serial.tuples.num_tuples())
          << StrategyName(s) << " workers=" << workers;
    }
  }
}

TEST_F(ParallelTest, SingleWorkerMatchesDirectSerialExecutor) {
  ASSERT_OK_AND_ASSIGN(tpch::JoinColumns jc,
                       tpch::LoadJoinTables(db_.get(), kScaleFactor));
  std::vector<std::pair<std::string, plan::PlanTemplate>> cases;
  const plan::SelectionQuery sel = MidSelectivityQuery();
  for (Strategy s : plan::kAllStrategies) {
    cases.emplace_back(std::string("select ") + StrategyName(s),
                       plan::PlanTemplate::Selection(sel, s));
    plan::AggQuery agg;
    agg.selection = sel;
    agg.group_index = 0;  // GROUP BY shipdate
    agg.agg_index = 1;    // SUM(quantity)
    agg.func = exec::AggFunc::kSum;
    cases.emplace_back(std::string("agg ") + StrategyName(s),
                       plan::PlanTemplate::Agg(agg, s));
    plan::SortQuery sort;
    sort.selection = sel;
    sort.sort_index = 1;  // ORDER BY quantity DESC LIMIT 1000
    sort.desc = true;
    sort.limit = 1000;
    cases.emplace_back(std::string("sort ") + StrategyName(s),
                       plan::PlanTemplate::Sort(sort, s));
  }
  plan::JoinQuery join;
  join.left_key = jc.orders_custkey;
  join.left_pred =
      codec::Predicate::LessThan(static_cast<Value>(jc.num_customers / 2));
  join.left_payload = jc.orders_shipdate;
  join.right_key = jc.customer_custkey;
  join.right_payload = jc.customer_nationcode;
  for (exec::JoinRightMode mode : {exec::JoinRightMode::kMaterialized,
                                   exec::JoinRightMode::kMultiColumn,
                                   exec::JoinRightMode::kSingleColumn}) {
    cases.emplace_back(std::string("join ") + exec::JoinRightModeName(mode),
                       plan::PlanTemplate::Join(join, mode));
  }

  sched::Scheduler one_worker({1});
  api::Connection caller(db_.get());
  api::Connection pooled(db_.get(), &one_worker);
  for (const auto& [name, tmpl] : cases) {
    plan::RunStats direct;
    std::vector<std::vector<Value>> direct_rows;
    ASSERT_OK(RunDirect(tmpl, &direct, &direct_rows));
    EXPECT_GT(direct.output_tuples, 0u) << name;
    for (api::Connection* conn : {&caller, &pooled}) {
      const char* where = conn == &caller ? " (caller)" : " (1-worker pool)";
      ASSERT_OK_AND_ASSIGN(api::QueryResult r, conn->Query(tmpl));
      EXPECT_EQ(r.stats.output_tuples, direct.output_tuples) << name << where;
      EXPECT_EQ(r.stats.checksum, direct.checksum) << name << where;
      // One worker preserves exact tuple order, not just the bag.
      std::vector<std::vector<Value>> rows;
      AppendRows(r.tuples, &rows);
      ASSERT_EQ(rows.size(), direct_rows.size()) << name << where;
      for (size_t i = 0; i < rows.size(); ++i) {
        ASSERT_EQ(rows[i], direct_rows[i]) << name << where << " row " << i;
      }
    }
  }
}

TEST_F(ParallelTest, AggregationDeterministicAcrossWorkerCounts) {
  plan::AggQuery q;
  q.selection = MidSelectivityQuery();
  q.group_index = 0;  // GROUP BY shipdate
  q.agg_index = 1;    // SUM(quantity)
  q.func = exec::AggFunc::kSum;
  for (Strategy s : plan::kAllStrategies) {
    ASSERT_OK_AND_ASSIGN(api::QueryResult serial,
                         testing::RunTemplate(
                             db_.get(),
                             plan::PlanTemplate::Agg(q, s, MorselConfig())));
    EXPECT_GT(serial.stats.output_tuples, 0u) << StrategyName(s);
    for (int workers : {2, 4}) {
      ASSERT_OK_AND_ASSIGN(api::QueryResult parallel,
                           testing::RunTemplate(
                               db_.get(),
                               plan::PlanTemplate::Agg(
                                   q, s, MorselConfig()), workers));
      EXPECT_EQ(parallel.stats.output_tuples, serial.stats.output_tuples)
          << StrategyName(s) << " workers=" << workers;
      EXPECT_EQ(parallel.stats.checksum, serial.stats.checksum)
          << StrategyName(s) << " workers=" << workers;
      // Aggregate groups are emitted sorted, so even tuple order matches.
      ASSERT_EQ(parallel.tuples.num_tuples(), serial.tuples.num_tuples());
      for (size_t i = 0; i < serial.tuples.num_tuples(); ++i) {
        ASSERT_EQ(parallel.tuples.value(i, 0), serial.tuples.value(i, 0));
        ASSERT_EQ(parallel.tuples.value(i, 1), serial.tuples.value(i, 1));
      }
    }
  }
}

TEST_F(ParallelTest, AllAggFunctionsMergeExactly) {
  using exec::AggFunc;
  for (AggFunc func : {AggFunc::kSum, AggFunc::kCount, AggFunc::kMin,
                       AggFunc::kMax, AggFunc::kAvg}) {
    plan::AggQuery q;
    q.selection = MidSelectivityQuery();
    q.group_index = 0;
    q.agg_index = 1;
    q.func = func;
    ASSERT_OK_AND_ASSIGN(
        api::QueryResult serial,
        testing::RunTemplate(
            db_.get(),
            plan::PlanTemplate::Agg(q, Strategy::kLmParallel, MorselConfig())));
    ASSERT_OK_AND_ASSIGN(
        api::QueryResult parallel,
        testing::RunTemplate(
            db_.get(),
            plan::PlanTemplate::Agg(
                q, Strategy::kLmParallel, MorselConfig()), 4));
    EXPECT_EQ(parallel.stats.checksum, serial.stats.checksum)
        << exec::AggFuncName(func);
    EXPECT_EQ(parallel.stats.output_tuples, serial.stats.output_tuples)
        << exec::AggFuncName(func);
  }
}

TEST_F(ParallelTest, GlobalAggregationMergesAcrossWorkers) {
  plan::AggQuery q;
  q.selection = MidSelectivityQuery();
  q.agg_index = 1;
  q.func = exec::AggFunc::kSum;
  q.global = true;
  ASSERT_OK_AND_ASSIGN(api::QueryResult serial,
                       testing::RunTemplate(
                           db_.get(),
                           plan::PlanTemplate::Agg(
                               q, Strategy::kEmParallel, MorselConfig())));
  ASSERT_OK_AND_ASSIGN(
      api::QueryResult parallel,
      testing::RunTemplate(
          db_.get(),
          plan::PlanTemplate::Agg(
              q, Strategy::kEmParallel, MorselConfig()), 4));
  ASSERT_EQ(serial.tuples.num_tuples(), 1u);
  ASSERT_EQ(parallel.tuples.num_tuples(), 1u);
  EXPECT_EQ(parallel.tuples.value(0, 1), serial.tuples.value(0, 1));
  EXPECT_EQ(parallel.stats.checksum, serial.stats.checksum);
}

TEST(MorselSourceTest, CoversPositionSpaceExactlyOnce) {
  exec::MorselSource source(10 * kChunkPositions + 17, kChunkPositions);
  EXPECT_EQ(source.num_morsels(), 11u);
  position::Range r;
  Position covered = 0;
  Position expected_begin = 0;
  while (source.Next(&r)) {
    EXPECT_EQ(r.begin, expected_begin);
    EXPECT_EQ(r.begin % kChunkPositions, 0u);
    covered += r.length();
    expected_begin = r.end;
  }
  EXPECT_EQ(covered, 10 * kChunkPositions + 17);
}

TEST(MorselSourceTest, RoundsMorselSizeUpToChunkAlignment) {
  exec::MorselSource source(4 * kChunkPositions, kChunkPositions + 1);
  EXPECT_EQ(source.morsel_positions(), 2 * kChunkPositions);
  EXPECT_EQ(source.num_morsels(), 2u);
}

TEST(MorselSourceTest, CancelStopsHandingOutMorsels) {
  exec::MorselSource source(100 * kChunkPositions, kChunkPositions);
  position::Range r;
  ASSERT_TRUE(source.Next(&r));
  source.Cancel();
  EXPECT_FALSE(source.Next(&r));
}

TEST(MorselSourceTest, ConcurrentClaimsAreDisjointAndComplete) {
  const Position total = 64 * kChunkPositions;
  exec::MorselSource source(total, kChunkPositions);
  std::atomic<uint64_t> claimed{0};
  std::atomic<uint64_t> morsels{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&]() {
      position::Range r;
      while (source.Next(&r)) {
        claimed.fetch_add(r.length());
        morsels.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  // fetch_add hands out each morsel exactly once, so lengths sum to the
  // whole position space.
  EXPECT_EQ(claimed.load(), total);
  EXPECT_EQ(morsels.load(), 64u);
}

TEST(BufferPoolConcurrencyTest, ConcurrentFetchesAccountEveryRequest) {
  TempDir dir;
  db::Database::Options opts;
  opts.dir = dir.path();
  opts.pool_frames = 64;
  auto db_or = db::Database::Open(opts);
  ASSERT_TRUE(db_or.ok());
  auto db = std::move(db_or).value();
  std::vector<Value> vals = testing::RunnyValues(200000, 1000, 4.0, 7);
  ASSERT_OK(db->CreateColumn("conc", codec::Encoding::kUncompressed, vals));
  ASSERT_OK_AND_ASSIGN(const codec::ColumnReader* col, db->GetColumn("conc"));

  db->pool()->ResetStats();
  const int kThreads = 8;
  const int kRounds = 4;
  std::atomic<uint64_t> fetches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      for (int round = 0; round < kRounds; ++round) {
        for (uint64_t b = 0; b < col->num_blocks(); ++b) {
          auto blk = col->FetchBlock(b);
          ASSERT_TRUE(blk.ok());
          fetches.fetch_add(1);
          // Touch the payload so pins stay alive across real work.
          volatile Value v = blk->view.ValueAt(blk->view.start_pos());
          (void)v;
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  storage::IoStats stats = db->pool()->stats();
  EXPECT_EQ(stats.cache_hits + stats.physical_reads, fetches.load());
  EXPECT_GE(stats.physical_reads, col->num_blocks());
}

}  // namespace
}  // namespace cstore
