#include "replay.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/rng.h"
#include "detect/grouping.h"
#include "detect/kernels.h"
#include "img/pyramid.h"
#include "integral/gpu.h"
#include "serve/policy.h"

namespace perfbench {

namespace fd = fdet::detect;

StageTimes& StageTimes::operator+=(const StageTimes& o) {
  plan += o.plan;
  pyramid += o.pyramid;
  integral += o.integral;
  cascade += o.cascade;
  collect += o.collect;
  grouping += o.grouping;
  schedule += o.schedule;
  return *this;
}

ReplayStats& ReplayStats::operator+=(const ReplayStats& o) {
  stages += o.stages;
  host_s += o.host_s;
  frames += o.frames;
  levels += o.levels;
  integral_pixels += o.integral_pixels;
  windows += o.windows;
  stage1_rejects += o.stage1_rejects;
  raw_in += o.raw_in;
  groups_out += o.groups_out;
  cascade_cycles += o.cascade_cycles;
  modeled_ms += o.modeled_ms;
  sm_utilization_sum += o.sm_utilization_sum;
  return *this;
}

namespace {

/// Windows per pyramid level whose depth is checked on the CPU.
constexpr int kDepthSamplesPerLevel = 8;

/// Times one stage into `slot` and, with a span log, records it.
class StageTimer {
 public:
  StageTimer(double& slot, SpanLog* spans, const char* name,
             std::uint64_t parent)
      : slot_(slot), spans_(spans), name_(name), parent_(parent),
        t0_(Clock::now()) {}
  ~StageTimer() {
    const Clock::time_point t1 = Clock::now();
    slot_ += seconds_between(t0_, t1);
    if (spans_ != nullptr) {
      spans_->add(name_, "detect", t0_, t1, parent_);
    }
  }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  double& slot_;
  SpanLog* spans_;
  const char* name_;
  std::uint64_t parent_;
  Clock::time_point t0_;
};

bool same_detections(const std::vector<fd::Detection>& a,
                     const std::vector<fd::Detection>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const fd::Detection& x, const fd::Detection& y) {
                      return x.box == y.box && x.score == y.score &&
                             x.neighbors == y.neighbors &&
                             x.scale_index == y.scale_index;
                    });
}

}  // namespace

fd::FrameResult replay_process(const ReplayTarget& target,
                               const fdet::img::ImageU8& luma,
                               std::uint64_t sample_seed, Gate& gate,
                               ReplayStats& stats, SpanLog* spans,
                               std::uint64_t parent) {
  const Clock::time_point start = Clock::now();
  const std::uint64_t self = spans != nullptr ? spans->open() : 0;
  const fdet::vgpu::DeviceSpec& spec = *target.spec;
  const fd::PipelineOptions& options = target.options;
  StageTimes t;
  ReplayStats local;
  double check_s = 0.0;

  fd::FrameResult result;
  std::vector<fdet::vgpu::Launch> launches;
  fdet::img::PyramidPlan plan;
  {
    StageTimer timer(t.plan, spans, "plan_pyramid", self);
    plan = fdet::img::plan_pyramid(luma.width(), luma.height(),
                                   options.pyramid_step,
                                   fdet::haar::kWindowSize);
  }
  const int skip = std::clamp(options.skip_finest_levels, 0,
                              static_cast<int>(plan.levels.size()) - 1);
  const int stage_count = target.cascade->stage_count();

  for (const fdet::img::PyramidLevel& level : plan.levels) {
    if (level.index < skip) {
      continue;
    }
    ++local.levels;
    const int stream = level.index;
    const std::string suffix = "_s" + std::to_string(level.index);

    fdet::img::ImageU8 level_image;
    if (level.index == 0) {
      level_image = luma;
    } else {
      StageTimer timer(t.pyramid, spans, "scale+filter", self);
      fdet::img::ImageU8 scaled(level.width, level.height);
      launches.push_back(
          {fd::scale_kernel(spec, luma, scaled, "scale" + suffix), stream});
      fdet::img::ImageU8 blurred_h(level.width, level.height);
      launches.push_back({fd::filter_kernel(spec, scaled, blurred_h, true,
                                            "filter_h" + suffix),
                          stream});
      level_image = fdet::img::ImageU8(level.width, level.height);
      launches.push_back({fd::filter_kernel(spec, blurred_h, level_image,
                                            false, "filter_v" + suffix),
                          stream});
    }

    fdet::integral::GpuIntegralResult ii;
    {
      StageTimer timer(t.integral, spans, "integral_gpu", self);
      ii = fdet::integral::integral_gpu(spec, level_image);
    }
    local.integral_pixels +=
        static_cast<std::int64_t>(level.width) * level.height;
    const char* names[4] = {"scan", "transpose", "scan2", "transpose2"};
    for (std::size_t k = 0; k < ii.launches.size(); ++k) {
      ii.launches[k].config.name = std::string(names[k]) + suffix;
      launches.push_back({std::move(ii.launches[k]), stream});
    }

    fd::CascadeKernelOutput out;
    {
      StageTimer timer(t.cascade, spans, "cascade_kernel", self);
      launches.push_back({fd::cascade_kernel(spec, *target.bank, ii.integral,
                                             out, options.kernel,
                                             "cascade" + suffix),
                          stream});
    }
    result.cascade_counters += launches.back().cost.counters;
    local.cascade_cycles += launches.back().cost.total_service_cycles;

    // CPU reference: the deepest stage at a seeded sample of windows.
    {
      const Clock::time_point c0 = Clock::now();
      fdet::core::Rng rng(fdet::core::hash_combine(
          sample_seed, static_cast<std::uint64_t>(level.index)));
      const int max_x = level.width - fdet::haar::kWindowSize;
      const int max_y = level.height - fdet::haar::kWindowSize;
      for (int k = 0; k < kDepthSamplesPerLevel; ++k) {
        const int x = rng.uniform_int(0, max_x);
        const int y = rng.uniform_int(0, max_y);
        const int expected =
            fd::evaluate_bank(*target.bank, ii.integral, x, y).depth;
        const int got = out.depth(x, y);
        if (got != expected) {
          std::ostringstream what;
          what << "cascade depth " << got << " at level " << level.index
               << " window (" << x << "," << y
               << ") differs from detect::evaluate_bank's " << expected;
          gate.require(false, what.str());
        }
      }
      check_s += seconds_since(c0);
    }

    {
      StageTimer timer(t.collect, spans, "collect", self);
      fd::ScaleStats scale;
      scale.scale_index = level.index;
      scale.factor = level.factor;
      scale.depth_histogram.assign(static_cast<std::size_t>(stage_count) + 1,
                                   0);
      for (int y = 0; y + fdet::haar::kWindowSize <= level.height; ++y) {
        for (int x = 0; x + fdet::haar::kWindowSize <= level.width; ++x) {
          const std::int32_t d = out.depth(x, y);
          ++scale.depth_histogram[static_cast<std::size_t>(d)];
          if (d == stage_count) {
            fd::Detection det;
            det.box = fdet::img::Rect{
                static_cast<int>(std::lround(x * level.factor)),
                static_cast<int>(std::lround(y * level.factor)),
                static_cast<int>(
                    std::lround(fdet::haar::kWindowSize * level.factor)),
                static_cast<int>(
                    std::lround(fdet::haar::kWindowSize * level.factor))};
            det.score = out.score(x, y);
            det.scale_index = level.index;
            result.raw_detections.push_back(det);
          }
        }
      }
      for (const std::int64_t count : scale.depth_histogram) {
        local.windows += count;
      }
      local.stage1_rejects += scale.depth_histogram[0];
      result.scales.push_back(std::move(scale));
    }
  }

  {
    StageTimer timer(t.grouping, spans, "group_detections", self);
    result.detections = fd::group_detections(result.raw_detections,
                                             options.group_eyes_threshold);
    if (options.min_neighbors > 1) {
      std::erase_if(result.detections, [&](const fd::Detection& d) {
        return d.neighbors < options.min_neighbors;
      });
    }
  }
  {
    StageTimer timer(t.schedule, spans, "vgpu::schedule", self);
    result.timeline = fdet::vgpu::schedule(spec, launches, options.mode);
  }
  result.detect_ms = result.timeline.makespan_s * 1e3;

  const Clock::time_point end = Clock::now();
  local.stages = t;
  local.host_s = seconds_between(start, end) - check_s;
  local.frames = 1;
  local.raw_in = static_cast<std::int64_t>(result.raw_detections.size());
  local.groups_out = static_cast<std::int64_t>(result.detections.size());
  local.modeled_ms = result.detect_ms;
  local.sm_utilization_sum = result.timeline.utilization();
  stats += local;
  if (spans != nullptr) {
    spans->close(self, "detect.replay", "detect", start, end, parent,
               "\"levels\":" + std::to_string(local.levels) +
                   ",\"modeled_ms\":" + std::to_string(result.detect_ms));
  }
  return result;
}

fd::PipelineOptions options_for_level(const fd::PipelineOptions& base,
                                     int level) {
  const fdet::serve::DegradationStep& step =
      fdet::serve::DegradationLadder::step_at(level);
  fd::PipelineOptions options = base;
  options.skip_finest_levels =
      base.skip_finest_levels + step.skip_finest_levels;
  options.min_neighbors = base.min_neighbors + step.min_neighbors_boost;
  if (step.serial_exec) {
    options.mode = fdet::vgpu::ExecMode::kSerial;
  }
  return options;
}

std::string diff_results(const fd::FrameResult& a, const fd::FrameResult& b) {
  if (!same_detections(a.detections, b.detections)) {
    return "grouped detections differ";
  }
  if (!same_detections(a.raw_detections, b.raw_detections)) {
    return "raw detections differ";
  }
  if (a.detect_ms != b.detect_ms) {
    std::ostringstream what;
    what.precision(17);
    what << "detect_ms differs: " << a.detect_ms << " vs " << b.detect_ms;
    return what.str();
  }
  if (a.timeline.sm_busy_s != b.timeline.sm_busy_s ||
      a.timeline.records.size() != b.timeline.records.size()) {
    return "modeled timeline differs";
  }
  if (a.scales.size() != b.scales.size()) {
    return "pyramid level count differs";
  }
  for (std::size_t i = 0; i < a.scales.size(); ++i) {
    if (a.scales[i].depth_histogram != b.scales[i].depth_histogram) {
      return "depth histogram of level " + std::to_string(i) + " differs";
    }
  }
  return {};
}

std::string diff_served(const std::vector<fd::Detection>& served,
                        double served_detect_ms,
                        const fd::FrameResult& replayed,
                        bool compare_detect_ms) {
  if (!same_detections(served, replayed.detections)) {
    return "served detections differ from the replay";
  }
  if (compare_detect_ms && served_detect_ms != replayed.detect_ms) {
    std::ostringstream what;
    what.precision(17);
    what << "served detect_ms " << served_detect_ms << " differs from the "
         << "replay's " << replayed.detect_ms;
    return what.str();
  }
  return {};
}

}  // namespace perfbench
