// Join scaling: the two-phase (build barrier + morsel-parallel probe) join
// across worker counts, per inner-table representation.
//
// Three panels:
//
//  1. Probe scaling (fig=join): batches of the Section 4.3 orders ⋈
//     customer join (warm buffer pool — this measures the executor, not
//     first-touch I/O), QPS plus speedup over the serial (workers=1) run.
//
//  2. Build-dominated shapes (fig=join-build-shapes): inner ≈ outer and
//     inner > outer joins, where the hash build is the bottleneck, swept
//     over workers with radix_bits=0 (serial build — the old Amdahl floor)
//     vs radix_bits=auto (partitioned parallel build).
//
//  3. Calibration (fig=join-build-calibration): fits the effective
//     parallel-build factor from the measured per-phase wall times and
//     compares it to the cost model's prediction (partition pass +
//     ParallelCpuFactor). On hosts with >= 4 cores a prediction outside
//     the tolerance band fails the process.
//
// Self-verification: every run's checksum and output count are compared to
// the serial ground truth; any divergence fails the process, which makes
// this binary double as a CI correctness smoke for the parallel join path.
//
// Machine-readable output: BENCH_join.json (one record per table row;
// rows carry a "section" discriminator).
//
//   ./build/bench_join --sf=0.2 --workers=1,2,4 --runs=3

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "api/connection.h"
#include "bench_common.h"
#include "model/advisor.h"
#include "util/stopwatch.h"

namespace cstore {
namespace bench {
namespace {

constexpr exec::JoinRightMode kModes[] = {
    exec::JoinRightMode::kMaterialized,
    exec::JoinRightMode::kMultiColumn,
    exec::JoinRightMode::kSingleColumn,
};

/// A synthetic FK-PK join shape sized in chunk windows, so the build side's
/// weight relative to the probe side is under the bench's control (the TPC-H
/// orders ⋈ customer shape is heavily probe-dominated).
struct BuildShape {
  const char* name;  // display label
  const char* tag;   // column-name-safe identifier
  size_t outer_rows;
  size_t inner_rows;
};

/// Loads (or reuses, the bench dir persists) the two columns of one side.
const codec::ColumnReader* ShapeColumn(db::Database* db,
                                       const std::string& name,
                                       const std::vector<Value>& vals) {
  auto existing = db->GetColumn(name);
  if (existing.ok()) return *existing;
  Status st = db->CreateColumn(name, codec::Encoding::kUncompressed, vals);
  CSTORE_CHECK(st.ok()) << st.ToString();
  auto r = db->GetColumn(name);
  CSTORE_CHECK(r.ok()) << r.status().ToString();
  return *r;
}

plan::JoinQuery MakeShapeQuery(db::Database* db, const BuildShape& shape) {
  std::mt19937_64 rng(0xC57011E5u ^ shape.inner_rows);
  std::vector<Value> inner_key(shape.inner_rows);
  std::vector<Value> inner_payload(shape.inner_rows);
  for (size_t i = 0; i < shape.inner_rows; ++i) {
    inner_key[i] = static_cast<Value>(i + 1);
    inner_payload[i] = static_cast<Value>(rng() % 25);
  }
  std::vector<Value> outer_key(shape.outer_rows);
  std::vector<Value> outer_payload(shape.outer_rows);
  for (size_t i = 0; i < shape.outer_rows; ++i) {
    outer_key[i] = static_cast<Value>(rng() % shape.inner_rows + 1);
    outer_payload[i] = static_cast<Value>(rng() % 3000);
  }
  const std::string prefix = std::string("bshape_") + shape.tag + "_";
  plan::JoinQuery q;
  q.left_key = ShapeColumn(db, prefix + "lk", outer_key);
  q.left_payload = ShapeColumn(db, prefix + "lp", outer_payload);
  q.right_key = ShapeColumn(db, prefix + "rk", inner_key);
  q.right_payload = ShapeColumn(db, prefix + "rp", inner_payload);
  q.left_pred = codec::Predicate::LessThan(
      static_cast<Value>(shape.inner_rows / 2));
  return q;
}

}  // namespace
}  // namespace bench
}  // namespace cstore

int main(int argc, char** argv) {
  using namespace cstore;          // NOLINT
  using namespace cstore::bench;   // NOLINT

  BenchOptions opts = ParseArgs(argc, argv);
  // Bench-local default (same idiom as bench_readwrite): the shared 0.1
  // default is too small for a meaningful probe sweep, so it maps to 0.2
  // (~5 one-window probe morsels). Any other explicit --sf is honoured.
  if (opts.sf == 0.1) opts.sf = 0.2;
  if (opts.worker_sweep == std::vector<int>{1}) opts.worker_sweep = {1, 2, 4};
  auto db = OpenBenchDb(opts);
  auto jc = tpch::LoadJoinTables(db.get(), opts.sf);
  CSTORE_CHECK(jc.ok()) << jc.status().ToString();

  // SELECT orders.shipdate, customer.nationcode FROM orders, customer
  // WHERE orders.custkey = customer.custkey AND orders.custkey < X
  // with X at half the key domain (sf ≈ 0.5 — the Figure 13 midpoint).
  plan::JoinQuery q;
  q.left_key = jc->orders_custkey;
  q.left_pred = codec::Predicate::LessThan(
      static_cast<Value>(jc->num_customers / 2));
  q.left_payload = jc->orders_shipdate;
  q.right_key = jc->customer_custkey;
  q.right_payload = jc->customer_nationcode;

  // One-window morsels so every worker count in the sweep genuinely
  // partitions the probe (auto-sizing would also work; fixing it keeps the
  // sweep comparable across scale factors).
  const int kBatch = 8;
  // Ground truth runs on the calling thread; each sweep point runs on a
  // pool of that many workers.
  api::Connection conn(db.get());

  // Single-worker ground truth per mode (also warms the buffer pool).
  struct Truth {
    uint64_t checksum = 0;
    uint64_t tuples = 0;
  };
  std::vector<Truth> truth;
  for (exec::JoinRightMode mode : kModes) {
    auto r = conn.Query(plan::PlanTemplate::Join(q, mode));
    CSTORE_CHECK(r.ok()) << r.status().ToString();
    truth.push_back({r->stats.checksum, r->stats.output_tuples});
  }

  std::printf(
      "# fig=join two-phase join scaling (sf=%.3g, orders=%llu, "
      "customers=%llu, batch=%d, runs=%d)\n",
      opts.sf, static_cast<unsigned long long>(jc->num_orders),
      static_cast<unsigned long long>(jc->num_customers), kBatch, opts.runs);
  TablePrinter table({"mode", "workers", "wall_ms", "qps", "speedup",
                      "out_tuples"});
  BenchJson json("join");

  // Speedup baseline: the sweep's lowest worker count (workers=1 in the
  // default sweep), regardless of sweep order.
  const int base_workers =
      *std::min_element(opts.worker_sweep.begin(), opts.worker_sweep.end());

  int mismatches = 0;
  for (size_t m = 0; m < std::size(kModes); ++m) {
    const exec::JoinRightMode mode = kModes[m];
    struct Point {
      int workers;
      double best_ms;
    };
    std::vector<Point> points;
    for (int workers : opts.worker_sweep) {
      sched::Scheduler scheduler({workers});
      api::Connection pooled(db.get(), &scheduler);
      plan::PlanConfig config;
      config.morsel_positions = kChunkPositions;
      plan::PlanTemplate tmpl = plan::PlanTemplate::Join(q, mode, config);

      double best_ms = 1e100;
      for (int run = 0; run < opts.runs; ++run) {
        Stopwatch wall;
        for (int i = 0; i < kBatch; ++i) {
          auto r = pooled.Query(tmpl);
          CSTORE_CHECK(r.ok()) << r.status().ToString();
          if (r->stats.checksum != truth[m].checksum ||
              r->stats.output_tuples != truth[m].tuples) {
            std::fprintf(stderr, "MISMATCH %s workers=%d\n",
                         exec::JoinRightModeName(mode), workers);
            ++mismatches;
          }
        }
        best_ms = std::min(best_ms, wall.ElapsedMillis());
      }
      points.push_back({workers, best_ms});
    }
    double base_qps = 0;
    for (const Point& p : points) {
      if (p.workers == base_workers) base_qps = kBatch * 1000.0 / p.best_ms;
    }
    for (const Point& p : points) {
      const double qps = kBatch * 1000.0 / p.best_ms;
      const double speedup = qps / base_qps;
      table.AddRow({exec::JoinRightModeName(mode),
                    std::to_string(p.workers), Fmt(p.best_ms), Fmt(qps),
                    Fmt(speedup, 2), std::to_string(truth[m].tuples)});
      json.AddRow()
          .Str("section", "probe")
          .Str("mode", exec::JoinRightModeName(mode))
          .Int("workers", p.workers)
          .Num("wall_ms", p.best_ms)
          .Num("qps", qps)
          .Num("speedup", speedup)
          .Int("out_tuples", truth[m].tuples);
    }
  }
  table.Print();

  // --- Panel 2: build-dominated shapes, serial vs radix build --------------
  // The TPC-H shape above probes ~40x more rows than it builds; these shapes
  // make the build the bottleneck, which is exactly where radix_bits=0 (one
  // serial build task) stops scaling and the partitioned build keeps going.
  const BuildShape kShapes[] = {
      {"inner~outer", "eq", 4 * kChunkPositions, 4 * kChunkPositions},
      {"inner>outer", "gt", 2 * kChunkPositions, 6 * kChunkPositions},
  };
  const int kShapeBatch = 4;
  std::printf("\n# fig=join-build-shapes build-dominated joins, serial vs "
              "radix-partitioned build (right-materialized)\n");
  TablePrinter shapes_table({"shape", "radix", "workers", "wall_ms",
                             "build_ms", "qps", "speedup"});
  // Per shape: measured serial-build wall (for the calibration panel) and
  // the radix build walls per worker count.
  struct BuildSample {
    const BuildShape* shape;
    double serial_build_ms = 0;  // radix_bits=0 at the sweep's max workers
    std::vector<std::pair<int, double>> radix_build_ms;  // (workers, ms)
  };
  std::vector<BuildSample> samples;
  for (const BuildShape& shape : kShapes) {
    plan::JoinQuery q2 = MakeShapeQuery(db.get(), shape);
    uint64_t shape_checksum = 0;
    uint64_t shape_tuples = 0;
    {
      plan::PlanConfig config;
      config.radix_bits = 0;
      auto r = conn.Query(plan::PlanTemplate::Join(
          q2, exec::JoinRightMode::kMaterialized, config));
      CSTORE_CHECK(r.ok()) << r.status().ToString();
      shape_checksum = r->stats.checksum;
      shape_tuples = r->stats.output_tuples;
    }
    BuildSample sample;
    sample.shape = &shape;
    struct ShapePoint {
      int radix;
      int workers;
      double best_ms;
      double build_ms;
    };
    std::vector<ShapePoint> points;
    for (int radix : {0, -1}) {
      for (int workers : opts.worker_sweep) {
        sched::Scheduler scheduler({workers});
        api::Connection pooled(db.get(), &scheduler);
        plan::PlanConfig config;
        config.morsel_positions = kChunkPositions;
        config.radix_bits = radix;
        plan::PlanTemplate tmpl = plan::PlanTemplate::Join(
            q2, exec::JoinRightMode::kMaterialized, config);
        double best_ms = 1e100;
        double build_ms = 0;
        for (int run = 0; run < opts.runs; ++run) {
          Stopwatch wall;
          for (int i = 0; i < kShapeBatch; ++i) {
            auto r = pooled.Query(tmpl);
            CSTORE_CHECK(r.ok()) << r.status().ToString();
            if (r->stats.checksum != shape_checksum ||
                r->stats.output_tuples != shape_tuples) {
              std::fprintf(stderr, "MISMATCH shape=%s radix=%d workers=%d\n",
                           shape.name, radix, workers);
              ++mismatches;
            }
            build_ms = r->stats.build_wall_micros / 1000.0;
          }
          best_ms = std::min(best_ms, wall.ElapsedMillis());
        }
        points.push_back({radix, workers, best_ms, build_ms});
        if (radix == 0 && workers == opts.worker_sweep.back() && workers > 1) {
          sample.serial_build_ms = build_ms;
        }
        if (radix == -1 && workers > 1) {
          sample.radix_build_ms.emplace_back(workers, build_ms);
        }
      }
    }
    double base_qps = 0;
    for (const ShapePoint& p : points) {
      if (p.radix == 0 && p.workers == base_workers) {
        base_qps = kShapeBatch * 1000.0 / p.best_ms;
      }
    }
    for (const ShapePoint& p : points) {
      const double qps = kShapeBatch * 1000.0 / p.best_ms;
      const double speedup = base_qps > 0 ? qps / base_qps : 0;
      shapes_table.AddRow({shape.name, p.radix == 0 ? "0" : "auto",
                           std::to_string(p.workers), Fmt(p.best_ms),
                           Fmt(p.build_ms, 2), Fmt(qps), Fmt(speedup, 2)});
      json.AddRow()
          .Str("section", "build_shape")
          .Str("shape", shape.name)
          .Int("radix_auto", p.radix == -1 ? 1 : 0)
          .Int("workers", p.workers)
          .Num("wall_ms", p.best_ms)
          .Num("build_ms", p.build_ms)
          .Num("qps", qps)
          .Num("speedup", speedup);
    }
    samples.push_back(std::move(sample));
  }
  shapes_table.Print();

  // --- Panel 3: calibration of the parallel-build cost term ----------------
  // Fitted factor: measured radix build wall / measured serial build wall
  // (both inside the pooled scheduler, same snapshot machinery — only the
  // build pipeline differs). Model factor: the ratio PredictJoin charges,
  // (build + partition pass) * ParallelCpuFactor(W) over the serial build.
  std::printf("\n# fig=join-build-calibration fitted vs modelled parallel "
              "build factor\n");
  TablePrinter cal_table({"shape", "workers", "serial_build_ms",
                          "radix_build_ms", "fitted_factor", "model_factor",
                          "ok"});
  const unsigned hw_cores = std::thread::hardware_concurrency();
  // On 1-2 core hosts (CI containers) the measured "parallel" build is
  // genuinely serialised, so the band check would only measure the
  // scheduler's time-slicing; report the fit but don't enforce it.
  const bool enforce = hw_cores >= 4;
  const double kBandLo = 0.3;
  const double kBandHi = 3.0;
  int calibration_misses = 0;
  for (const BuildSample& sample : samples) {
    if (sample.serial_build_ms <= 0) continue;
    model::JoinModelInput in;
    plan::JoinQuery q2 = MakeShapeQuery(db.get(), *sample.shape);
    in.left_key = model::ColumnStats::FromMeta(q2.left_key->meta());
    in.left_payload = model::ColumnStats::FromMeta(q2.left_payload->meta());
    in.sf = 0.5;
    in.right_key = model::ColumnStats::FromMeta(q2.right_key->meta());
    in.right_payload =
        model::ColumnStats::FromMeta(q2.right_payload->meta());
    const model::CostParams params;
    model::Cost serial_build;
    model::PredictJoin(exec::JoinRightMode::kMaterialized, in, params,
                       &serial_build);
    for (const auto& [workers, radix_ms] : sample.radix_build_ms) {
      in.build_workers = workers;
      model::Cost radix_build;
      model::PredictJoin(exec::JoinRightMode::kMaterialized, in, params,
                         &radix_build);
      const double fitted = radix_ms / sample.serial_build_ms;
      const double modelled = radix_build.cpu / serial_build.cpu;
      const double ratio = fitted / modelled;
      const bool ok = !enforce || (ratio >= kBandLo && ratio <= kBandHi);
      if (!ok) ++calibration_misses;
      cal_table.AddRow({sample.shape->name, std::to_string(workers),
                        Fmt(sample.serial_build_ms, 2), Fmt(radix_ms, 2),
                        Fmt(fitted, 3), Fmt(modelled, 3), ok ? "y" : "N"});
      json.AddRow()
          .Str("section", "calibration")
          .Str("shape", sample.shape->name)
          .Int("workers", workers)
          .Num("serial_build_ms", sample.serial_build_ms)
          .Num("radix_build_ms", radix_ms)
          .Num("fitted_factor", fitted)
          .Num("model_factor", modelled)
          .Int("enforced", enforce ? 1 : 0)
          .Int("within_band", ok ? 1 : 0);
    }
  }
  cal_table.Print();

  json.WriteAndReport();
  if (mismatches > 0) {
    std::fprintf(stderr, "%d checksum mismatches\n", mismatches);
    return 1;
  }
  if (calibration_misses > 0) {
    std::fprintf(stderr,
                 "%d calibration points outside the [%.1f, %.1f] band\n",
                 calibration_misses, kBandLo, kBandHi);
    return 1;
  }
  return 0;
}
