// The three workloads and the metric sets every one of them reports.
// README.md gives each workload's reason and each metric's definition.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "replay.h"
#include "train/pretrained.h"
#include "video/trailer.h"

namespace perfbench {

/// The end-to-end metrics, measured with tracing off.
struct EndToEnd {
  double setup_s = 0.0;
  double host_frames_per_s = 0.0;
  double host_frame_s_p50 = 0.0;
  double peak_rss_mb = 0.0;
  double modeled_detect_ms_p50 = 0.0;
  double modeled_latency_ms_p50 = 0.0;
  double modeled_latency_ms_p99 = 0.0;
  double served_ratio = 0.0;
  double deadline_met_ratio = 0.0;
  double recall = 0.0;
  double precision = 0.0;

  std::vector<Metric> metrics() const;
};

/// The per-layer metrics of a traced run. A layer the workload does not
/// exercise reports 0.
struct Layers {
  // Counts cover the fixed input set, so they repeat exactly for a seed;
  // host times and per-unit host rates cover every traced call.
  LaunchStats launches_fixed;
  LaunchStats launches_all;
  ReplayStats fixed;
  ReplayStats all;
  DecodeLog decode{Clock::time_point{}};  ///< decodes of the traced pass
  std::int64_t ingest_rejects = 0;
  double serve_run_s = 0.0;
  double serve_self_s = 0.0;
  std::int64_t serve_retries = 0;
  std::int64_t serve_shifts = 0;
  std::int64_t serve_quarantined = 0;
  double fleet_run_s = 0.0;
  double fleet_self_us_per_frame = 0.0;
  double fleet_reuse_ratio = 0.0;
  std::int64_t fleet_batched = 0;
  std::int64_t fleet_failovers = 0;
  std::int64_t fleet_rejected = 0;
  std::int64_t fleet_shed_steps = 0;
  double trace_overhead = 0.0;
  double unattributed_share = 0.0;

  std::vector<Metric> metrics() const;
};

/// What a workload hands back to main.
struct Outcome {
  std::int64_t attempted = 0;  ///< frames offered
  /// Frames the program mishandled: no single terminal status.
  std::int64_t failed = 0;
  EndToEnd e2e;
  Layers layers;
};

/// Loads the cascade pair committed under `dir`; throws instead of
/// training when the cache is missing or untrusted.
fdet::train::CascadePair load_committed_cascades(const std::string& dir);

/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 9;

/// Ground-truth matching through eval::associate.
struct Accuracy {
  std::int64_t faces = 0;
  std::int64_t matched = 0;
  std::int64_t detections = 0;

  void add(const std::vector<fdet::detect::Detection>& detections,
           const std::vector<fdet::video::FaceGt>& truth);
  double recall() const;
  double precision() const;
};

/// What replaying a served detection from outside a serving run needs.
struct ServedReplay {
  const fdet::vgpu::DeviceSpec* device = nullptr;
  const fdet::haar::Cascade* cascade = nullptr;
  const fdet::haar::ConstantBank* bank = nullptr;
  fdet::detect::PipelineOptions base;
  std::uint64_t seed = 0;
};

/// Replays the detection a serving run made for `luma` at ladder `level`
/// stage by stage, checks it against what the run served (detect_ms only
/// when `compare_ms`), and adds its stage times and launch counts to
/// `layers` (both the fixed and the all-calls accumulators). Returns the
/// replayed result.
fdet::detect::FrameResult replay_served(
    const ServedReplay& replay, const fdet::img::ImageU8& luma, int level,
    const std::vector<fdet::detect::Detection>& served, double served_ms,
    bool compare_ms, const std::string& label, Gate& gate, Layers& layers,
    SpanLog* spans);

/// Gate for one served frame outside the timed region: Pipeline::process
/// at the frame's ladder level and the stage replay must both reproduce
/// what the run served.
void check_served(const ServedReplay& replay, const fdet::img::ImageU8& luma,
                  int level, const std::vector<fdet::detect::Detection>& served,
                  double served_ms, const std::string& label, Gate& gate);

/// "a,b,c" of `seconds` in milliseconds, for the outcome lines.
std::string list_ms(const std::vector<double>& seconds);

/// Prints one "key=value ..." line that later commits can diff.
void print_line(const std::string& tag, const std::string& text);

Outcome run_detect_540p(const RunConfig& config, Gate& gate, SpanLog& spans);
Outcome run_serve_180p_faults(const RunConfig& config, Gate& gate,
                              SpanLog& spans);
Outcome run_fleet_shared_content(const RunConfig& config, Gate& gate,
                                 SpanLog& spans);

}  // namespace perfbench
