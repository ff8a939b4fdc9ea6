// Stage-by-stage replay of detect::Pipeline::process from its public
// parts — img::plan_pyramid, detect::scale_kernel/filter_kernel,
// integral::integral_gpu, detect::cascade_kernel, detect::group_detections
// and vgpu::schedule — with a host timer around each stage. The replay is
// the benchmark's per-layer attribution of detection time; it must agree
// with Pipeline::process byte for byte (diff_results), and it checks the
// cascade depth at a seeded sample of windows per level against
// detect::evaluate_bank, the CPU reference.
#pragma once

#include <cstdint>
#include <string>

#include "common.h"
#include "detect/pipeline.h"
#include "haar/encoding.h"

namespace perfbench {

/// Host seconds per detection stage.
struct StageTimes {
  double plan = 0.0;      ///< img::plan_pyramid
  double pyramid = 0.0;   ///< scale + filter kernels
  double integral = 0.0;  ///< integral::integral_gpu
  double cascade = 0.0;   ///< detect::cascade_kernel
  double collect = 0.0;   ///< depth-map scan into raw detections
  double grouping = 0.0;  ///< detect::group_detections (+ min-neighbors)
  double schedule = 0.0;  ///< vgpu::schedule

  double sum() const {
    return plan + pyramid + integral + cascade + collect + grouping +
           schedule;
  }
  StageTimes& operator+=(const StageTimes& o);
};

/// Work counts and times accumulated over replayed frames.
struct ReplayStats {
  StageTimes stages;
  double host_s = 0.0;  ///< replay wall time, CPU-reference check excluded
  std::int64_t frames = 0;
  std::int64_t levels = 0;
  std::int64_t integral_pixels = 0;
  std::int64_t windows = 0;
  std::int64_t stage1_rejects = 0;  ///< windows rejected by the first stage
  std::int64_t raw_in = 0;
  std::int64_t groups_out = 0;
  double cascade_cycles = 0.0;      ///< modeled service cycles, cascade
  double modeled_ms = 0.0;          ///< Σ detect_ms
  double sm_utilization_sum = 0.0;  ///< Σ per-frame timeline utilization

  ReplayStats& operator+=(const ReplayStats& o);
};

/// Everything a replay needs that Pipeline keeps private.
struct ReplayTarget {
  const fdet::vgpu::DeviceSpec* spec = nullptr;
  const fdet::haar::Cascade* cascade = nullptr;
  const fdet::haar::ConstantBank* bank = nullptr;  ///< built from *cascade
  fdet::detect::PipelineOptions options;
};

/// Replays one Pipeline::process call on `luma`. Spans go to `spans`
/// (may be null) under a "detect.replay" span with parent `parent`;
/// depth mismatches against the CPU reference fail `gate`.
fdet::detect::FrameResult replay_process(const ReplayTarget& target,
                                         const fdet::img::ImageU8& luma,
                                         std::uint64_t sample_seed,
                                         Gate& gate, ReplayStats& stats,
                                         SpanLog* spans,
                                         std::uint64_t parent);

/// The pipeline options a serving degradation-ladder level runs with —
/// the derivation StreamingService and FleetScheduler both apply.
fdet::detect::PipelineOptions options_for_level(
    const fdet::detect::PipelineOptions& base, int level);

/// Empty when `a` and `b` hold identical detections, raw detections,
/// per-scale depth histograms and modeled timeline; otherwise names the
/// first difference.
std::string diff_results(const fdet::detect::FrameResult& a,
                         const fdet::detect::FrameResult& b);

/// Same check for a served frame: detections and (when known) detect_ms.
std::string diff_served(const std::vector<fdet::detect::Detection>& served,
                        double served_detect_ms,
                        const fdet::detect::FrameResult& replayed,
                        bool compare_detect_ms);

}  // namespace perfbench
