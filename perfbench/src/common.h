// Shared helpers of the repository benchmark: seeded randomness, order-free
// result digests, quantiles, process and directory measurements, and the
// benchmark's spans (the traced run's layer attribution).

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <time.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "util/common.h"

namespace perfbench {

using cstore::Value;

/// SplitMix64: small, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [lo, hi] (inclusive).
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }

 private:
  uint64_t state_;
};

uint64_t Mix64(uint64_t x);

/// Order-independent digest of a bag of rows: rows hash individually and
/// sum with wrap-around, so any permutation of the same bag agrees.
struct BagDigest {
  uint64_t rows = 0;
  uint64_t sum = 0;

  void Add(const Value* row, size_t width, int sign = 1);
  bool operator==(const BagDigest& o) const {
    return rows == o.rows && sum == o.sum;
  }
  bool operator!=(const BagDigest& o) const { return !(*this == o); }
};

uint64_t RowHash(const Value* row, size_t width);

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 when empty.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double NowSeconds();  // steady clock

// CPU clocks. The end-to-end timings are CPU time rather than wall time:
// the kernel leaves out of it the time the hypervisor gives the vCPU to
// another tenant (steal) and the time a thread waits for a CPU, which on a
// shared host moved wall-clock figures of identical runs by 10-50%.
double ProcessCpuSeconds();  // every thread of the process, user + system
clockid_t ThisThreadCpuClock();
double CpuSeconds(clockid_t clock);

/// Peak resident set of this process, MiB.
double PeakRssMb();

/// Total bytes of regular files directly under `dir`, and their names.
uint64_t DirBytes(const std::string& dir, std::vector<std::string>* names = nullptr);
void RemoveTree(const std::string& dir);

// --- Benchmark-side tracing -------------------------------------------------
//
// Spans are recorded from the benchmark's own code around each call into a
// layer of the engine, through the engine's own obs::TraceRecorder with the
// layer as category, so both sets of spans share one clock and one Chrome
// trace. Every benchmark span carries the id of the benchmark operation that
// caused it as its "op" argument, which also tells it apart from the
// engine's spans.

/// RAII span around one call into `layer`. `name` and `layer` must be
/// string literals.
class Span {
 public:
  Span(const char* name, const char* layer);

 private:
  cstore::obs::SpanTimer timer_;
};

/// Marks the calling thread's current benchmark operation; spans opened
/// while it is alive carry its id.
class OpScope {
 public:
  OpScope();
  ~OpScope();
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  uint64_t saved_op_;
  Span span_;
};

/// Whether `e` was recorded by a benchmark Span.
bool IsBenchmarkSpan(const cstore::obs::TraceEvent& e);

/// The recorder's events that started in [from_ns, to_ns).
std::vector<cstore::obs::TraceEvent> EventsBetween(uint64_t from_ns,
                                                   uint64_t to_ns);

/// Per-layer self time (ms) of the benchmark spans among `events`: a span's
/// duration minus that of the spans nested in it on its thread.
std::vector<std::pair<std::string, double>> LayerSelfTimes(
    const std::vector<cstore::obs::TraceEvent>& events);

/// Total duration (ms) of the engine's own spans among `events`, by
/// category and name.
std::vector<std::pair<std::string, double>> EngineSpanTimes(
    const std::vector<cstore::obs::TraceEvent>& events);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
