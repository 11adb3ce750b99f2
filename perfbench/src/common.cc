#include "common.h"

#include <dirent.h>
#include <pthread.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>

#include "obs/trace.h"

namespace perfbench {

uint64_t Mix64(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rng::Next() {
  state_ += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t RowHash(const Value* row, size_t width) {
  uint64_t h = 0x51ed270b27a1f3c5ULL ^ width;
  for (size_t i = 0; i < width; ++i) {
    h = Mix64(h ^ static_cast<uint64_t>(row[i]));
  }
  return h;
}

void BagDigest::Add(const Value* row, size_t width, int sign) {
  const uint64_t h = RowHash(row, width);
  if (sign > 0) {
    ++rows;
    sum += h;
  } else {
    --rows;
    sum -= h;
  }
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double idx = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double ProcessCpuSeconds() { return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID); }

clockid_t ThisThreadCpuClock() {
  clockid_t clock = CLOCK_THREAD_CPUTIME_ID;
  pthread_getcpuclockid(pthread_self(), &clock);
  return clock;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t DirBytes(const std::string& dir, std::vector<std::string>* names) {
  uint64_t total = 0;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return 0;
  while (struct dirent* e = readdir(d)) {
    const std::string path = dir + "/" + e->d_name;
    struct stat st {};
    if (stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
      total += static_cast<uint64_t>(st.st_size);
      if (names != nullptr) names->push_back(e->d_name);
    }
  }
  closedir(d);
  return total;
}

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

// --- Tracing -----------------------------------------------------------------

namespace {

constexpr char kOpArg[] = "op";
thread_local uint64_t t_op = 0;

/// Switches the thread to a fresh operation id; returns the previous one.
uint64_t EnterOp() {
  static std::atomic<uint64_t> next{0};
  const uint64_t saved = t_op;
  t_op = next.fetch_add(1) + 1;
  return saved;
}

}  // namespace

Span::Span(const char* name, const char* layer) : timer_(name, layer) {
  timer_.Arg(kOpArg, static_cast<int64_t>(t_op));
}

// saved_op_ is initialized before span_, so the "op" span carries the new id.
OpScope::OpScope() : saved_op_(EnterOp()), span_("op", "bench") {}

OpScope::~OpScope() { t_op = saved_op_; }

bool IsBenchmarkSpan(const cstore::obs::TraceEvent& e) {
  return e.phase == 'X' && e.num_args > 0 && e.arg_keys[0] == kOpArg;
}

std::vector<cstore::obs::TraceEvent> EventsBetween(uint64_t from_ns,
                                                   uint64_t to_ns) {
  std::vector<cstore::obs::TraceEvent> out;
  for (const cstore::obs::TraceEvent& e :
       cstore::obs::TraceRecorder::Global().Snapshot()) {
    if (e.start_ns >= from_ns && e.start_ns < to_ns) out.push_back(e);
  }
  return out;
}

std::vector<std::pair<std::string, double>> LayerSelfTimes(
    const std::vector<cstore::obs::TraceEvent>& events) {
  std::vector<const cstore::obs::TraceEvent*> spans;
  for (const cstore::obs::TraceEvent& e : events) {
    if (IsBenchmarkSpan(e)) spans.push_back(&e);
  }
  // Per thread in start order (an enclosing span first), a span's parent is
  // the innermost earlier span still open when it starts.
  std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
    if (a->tid != b->tid) return a->tid < b->tid;
    if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
    return a->dur_ns > b->dur_ns;
  });
  std::vector<uint64_t> child_ns(spans.size(), 0);
  std::vector<size_t> open;
  for (size_t i = 0; i < spans.size(); ++i) {
    const cstore::obs::TraceEvent& s = *spans[i];
    while (!open.empty()) {
      const cstore::obs::TraceEvent& p = *spans[open.back()];
      if (p.tid == s.tid && s.start_ns < p.start_ns + p.dur_ns) break;
      open.pop_back();
    }
    if (!open.empty()) child_ns[open.back()] += s.dur_ns;
    open.push_back(i);
  }
  std::map<std::string, double> by_layer;
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t dur = spans[i]->dur_ns;
    by_layer[spans[i]->cat] += (dur > child_ns[i] ? dur - child_ns[i] : 0) / 1e6;
  }
  return {by_layer.begin(), by_layer.end()};
}

std::vector<std::pair<std::string, double>> EngineSpanTimes(
    const std::vector<cstore::obs::TraceEvent>& events) {
  std::map<std::string, double> by_cat;
  for (const cstore::obs::TraceEvent& e : events) {
    if (e.phase == 'X' && !IsBenchmarkSpan(e)) {
      by_cat[std::string(e.cat) + ":" + e.name] += e.dur_ns / 1e6;
    }
  }
  return {by_cat.begin(), by_cat.end()};
}

}  // namespace perfbench
