// Shared helpers of the benchmark runner: seeded RNG, timers,
// percentiles, memory high-water mark, the span tracer, the metric
// report and crash-safe dataset directories.

#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/result.h"

namespace perfbench {

using fusion::Result;
using fusion::Status;

/// splitmix64: derives independent streams from (seed, stream id).
uint64_t Mix(uint64_t seed, uint64_t stream);

/// Deterministic xorshift64* generator.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(Mix(seed, 0x5EED) | 1) {}
  uint64_t Next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 2685821657736338717ULL;
  }
  /// Uniform integer in [lo, hi].
  int64_t Uniform(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  double UniformDouble(double lo, double hi) {
    return lo + (hi - lo) * (static_cast<double>(Next() >> 11) / 9007199254740992.0);
  }

 private:
  uint64_t state_;
};

/// Zipf(s) sampler over [0, n) from a precomputed CDF.
class Zipf {
 public:
  Zipf(int64_t n, double s);
  int64_t Sample(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Timer {
 public:
  Timer() : start_(NowNs()) {}
  double Seconds() const { return static_cast<double>(NowNs() - start_) * 1e-9; }
  double Millis() const { return static_cast<double>(NowNs() - start_) * 1e-6; }

 private:
  int64_t start_;
};

double Median(std::vector<double> values);
double GeoMean(const std::vector<double>& values);

/// The highest percentile of `samples` that has at least ten samples
/// beyond it, capped at `max_level` (e.g. 99). Returns {level, value};
/// level is 0 when there are fewer than 20 samples.
std::pair<double, double> HonestTail(std::vector<double> samples, double max_level);
/// Nearest-rank percentile (level in [0, 100]).
double Percentile(std::vector<double> samples, double level);

/// Resets the process's peak-RSS counter (VmHWM) to the current RSS, so
/// a later PeakRssMb() covers only what ran in between.
void ResetPeakRss();
double PeakRssMb();

/// The machine's CPU time from the first line of /proc/stat, in ticks.
struct HostCpuTicks {
  int64_t busy = 0;   ///< user, nice, system, irq and softirq
  int64_t steal = 0;  ///< time a virtual CPU was ready but the host ran others
  static HostCpuTicks Read();
};
/// Steal between two readings as a share of busy plus steal time: the
/// part of the time this machine wanted to compute that its host took.
/// Printed beside the timings, because it moves them on a shared host.
double StealShare(const HostCpuTicks& before, const HostCpuTicks& after);

/// FNV-1a 64-bit.
uint64_t Fnv64(const std::string& data, uint64_t h = 1469598103934665603ULL);
std::string Hex64(uint64_t v);

// ---------------------------------------------------------------------
// Tracing: spans kept in memory, written as Chrome trace-event JSON.

class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    int64_t op = 0;
    int tid = 0;
  };

  /// Opens a span and returns its id; `parent` is a span id or -1.
  int Begin(std::string name, int parent, int64_t op, int tid = 0);
  void End(int id);
  /// Appends `other`'s spans (their parent ids shifted accordingly).
  void Merge(const Tracer& other);
  const std::vector<Span>& spans() const { return spans_; }
  Status WriteChromeJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int parent, int64_t op, int tid = 0)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(std::move(name), parent, op, tid) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

// ---------------------------------------------------------------------
// The result line.

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Human-readable table (one metric per line).
  std::string Table() const;
  /// The JSON object printed as the last line of standard output.
  std::string Json(bool correct, int64_t attempted, int64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// ---------------------------------------------------------------------
// Crash-safe dataset directories.

/// A generated input set: a directory whose MANIFEST lists every file
/// with its size. The directory becomes visible under its final name
/// only after every file and the MANIFEST are complete (written into a
/// temporary directory, then renamed), so an interrupted set-up never
/// leaves a truncated input that a later run would reuse.
struct Dataset {
  std::string dir;
  std::vector<std::string> files;  ///< paths, in generation order
  bool generated = false;          ///< false when reused from the cache
  double generate_s = 0;
};

/// Generator: writes its files into the given directory and returns
/// their base names.
using GenerateFn = std::function<Result<std::vector<std::string>>(const std::string& dir)>;

/// Reuses `root/key` when its MANIFEST matches the files on disk, and
/// otherwise generates it afresh through a temporary directory.
Result<Dataset> EnsureDataset(const std::string& root, const std::string& key,
                              const GenerateFn& generate);

/// Writes `contents` to `path` through a temporary file and a rename.
Status WriteFileAtomic(const std::string& path, const std::string& contents);
Result<std::string> ReadWholeFile(const std::string& path);
bool PathExists(const std::string& path);
int64_t FileSize(const std::string& path);
Status MakeDirs(const std::string& path);
/// Deletes a directory tree (best effort).
void RemoveTree(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
