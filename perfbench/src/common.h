// Shared pieces of the host-clock benchmark: clocks and order statistics,
// the correctness gate, output digests, a Chrome-trace span log, and the
// two instruments the benchmark attaches from outside the program — a
// per-launch counter on vgpu::ScopedKernelProfileHook and a forwarding
// ingest::FrameSource that times every decode.
//
// Nothing here changes what the program computes: both instruments only
// observe (and, for the sensitivity check, burn a known host delay).
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "detect/detection.h"
#include "ingest/frame_source.h"
#include "vgpu/kernel.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

/// Median (mean of the middle pair for even sizes); 0 for an empty set.
double median(std::vector<double> values);
/// Nearest-rank percentile, p in (0, 1]; 0 for an empty set.
double nearest_rank(std::vector<double> values, double p);

/// Busy-waits `us` microseconds of host time (the sensitivity check's
/// injected delay; a sleep would be too coarse).
void spin_us(double us);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Everything a run's settings say, passed from main to a workload.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cache_dir = "fdet_cache";
  std::string out_dir = ".";
  double inject_decode_us = 0.0;  ///< host delay inside every decode
  double inject_launch_us = 0.0;  ///< host delay after every kernel launch
};

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Correctness gate: every failed requirement is named on stderr and
/// makes the run exit non-zero.
class Gate {
 public:
  void require(bool ok, const std::string& failure);
  bool ok() const { return failures_.empty(); }

 private:
  std::vector<std::string> failures_;
};

/// 64-bit FNV-1a over the simulated outputs, so two commits can be
/// checked for identical detections and modeled statistics.
class Digest {
 public:
  void add_bytes(const void* data, std::size_t size);
  void add(std::int64_t value) { add_bytes(&value, sizeof value); }
  void add(double value) { add_bytes(&value, sizeof value); }
  void add(const std::vector<fdet::detect::Detection>& detections);
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// Spans recorded by benchmark code around calls into the program, kept
/// in memory and written as Chrome-trace JSON when the run ends.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  /// Records a finished span; returns its id (parents refer to it).
  std::uint64_t add(const std::string& name, const char* category,
                    Clock::time_point start, Clock::time_point end,
                    std::uint64_t parent = 0, std::string args = {});
  /// Reserves the id of a span whose children are recorded before it;
  /// close() fills it in.
  std::uint64_t open();
  void close(std::uint64_t id, const std::string& name, const char* category,
             Clock::time_point start, Clock::time_point end,
             std::uint64_t parent = 0, std::string args = {});
  std::size_t size() const { return spans_.size(); }

  /// Writes {"traceEvents": [...], "metadata": {...}}; `metadata` is a
  /// JSON object literal.
  void write(const std::string& path, const std::string& metadata) const;

 private:
  struct Span {
    std::string name;
    const char* category = "";
    double start_us = 0.0;
    double dur_us = 0.0;
    std::uint64_t parent = 0;
    std::string args;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Work counts of the launches seen by a LaunchCounter.
struct LaunchStats {
  std::int64_t launches = 0;
  std::int64_t blocks = 0;
  std::int64_t warps = 0;
  std::int64_t lane_ops = 0;  ///< alu + fma + sfu + shared + constant + texture
  std::vector<double> blocks_per_launch;
  /// Host time each launch finished, seconds since the counter's origin
  /// (recorded only when the counter was given one).
  std::vector<double> end_s;

  /// Adds the counts (not the end times) of `o`.
  LaunchStats& operator+=(const LaunchStats& o);
};

/// Counts every kernel launch through vgpu::ScopedKernelProfileHook while
/// alive, optionally burning `delay_us` of host time per launch. Only the
/// innermost hook of a thread fires, so it observes exactly the launches
/// issued inside its scope.
class LaunchCounter {
 public:
  LaunchCounter(LaunchStats& stats, double delay_us,
                std::optional<Clock::time_point> origin = std::nullopt);
  LaunchCounter(const LaunchCounter&) = delete;
  LaunchCounter& operator=(const LaunchCounter&) = delete;

 private:
  fdet::vgpu::ScopedKernelProfileHook hook_;
};

/// Shared by the DecodeTimers of a run: their settings and what they saw.
struct DecodeLog {
  explicit DecodeLog(Clock::time_point t0) : origin(t0) {}

  Clock::time_point origin;
  SpanLog* spans = nullptr;  ///< set: one span per decode (trace mode)
  double delay_us = 0.0;     ///< burned inside every decode
  std::int64_t calls = 0;
  double host_s = 0.0;  ///< Σ decode host time (trace mode only)
  /// Start time of every decode call, seconds since the log origin: the
  /// gaps between them are the per-frame host samples of serve/fleet.
  std::vector<double> starts;
  std::vector<double> ends;  ///< matching end times (trace mode only)
};

/// Forwarding FrameSource: times every decode of the wrapped source into
/// a shared DecodeLog. With the log's SpanLog set it records one span per
/// decode (trace mode); otherwise it only stamps the start time. The
/// log's delay_us burns host time inside decode (the sensitivity check).
class DecodeTimer final : public fdet::ingest::FrameSource {
 public:
  DecodeTimer(const fdet::ingest::FrameSource& inner, DecodeLog& log,
              int stream);

  const fdet::ingest::SourceInfo& info() const override {
    return inner_->info();
  }
  fdet::video::DecodedFrame decode(int index) const override;
  double decode_latency_ms(int index) const override {
    return inner_->decode_latency_ms(index);
  }
  fdet::ingest::FrameArrival arrival_kind(int index) const override {
    return inner_->arrival_kind(index);
  }
  std::optional<fdet::ingest::ByteRange> frame_bytes(
      int index) const override {
    return inner_->frame_bytes(index);
  }

 private:
  const fdet::ingest::FrameSource* inner_;
  DecodeLog* log_;
  int stream_;
};

/// Host seconds between consecutive decode starts (per decoded frame).
std::vector<double> decode_gaps(const DecodeLog& log);

/// Host seconds a serving run spent detecting, measured inside the run: a
/// detection starts when the decode that feeds it ends and lasts until its
/// last kernel launch finishes, before the next decode starts. Needs a
/// traced DecodeLog and a LaunchCounter with the same origin. (Grouping
/// and scheduling after the last launch stay outside, in serve self time.)
double detection_in_run(const DecodeLog& log, const LaunchStats& launches);

}  // namespace perfbench
