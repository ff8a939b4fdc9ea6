#include "workloads.h"

#include <cstdio>
#include <stdexcept>

#include "core/rng.h"
#include "eval/accuracy.h"

namespace perfbench {

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

std::vector<Metric> EndToEnd::metrics() const {
  return {
      {"setup_s", setup_s, "s"},
      {"host_frames_per_s", host_frames_per_s, "1/s"},
      {"host_frame_s_p50", host_frame_s_p50, "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"modeled_detect_ms_p50", modeled_detect_ms_p50, "ms"},
      {"modeled_latency_ms_p50", modeled_latency_ms_p50, "ms"},
      {"modeled_latency_ms_p99", modeled_latency_ms_p99, "ms"},
      {"served_ratio", served_ratio, "ratio"},
      {"deadline_met_ratio", deadline_met_ratio, "ratio"},
      {"recall", recall, "ratio"},
      {"precision", precision, "ratio"},
  };
}

std::vector<Metric> Layers::metrics() const {
  const LaunchStats& lf = launches_fixed;
  const ReplayStats& f = fixed;
  const ReplayStats& a = all;
  const double kernel_host_s =
      a.stages.pyramid + a.stages.integral + a.stages.cascade;
  const auto count = [](std::int64_t v) { return static_cast<double>(v); };
  return {
      {"vgpu.launches", count(lf.launches), "count"},
      {"vgpu.blocks", count(lf.blocks), "count"},
      {"vgpu.warps", count(lf.warps), "count"},
      {"vgpu.lane_ops", count(lf.lane_ops), "count"},
      {"vgpu.blocks_per_launch_p50", median(lf.blocks_per_launch), "count"},
      {"vgpu.host_ns_per_warp",
       ratio(kernel_host_s * 1e9, count(launches_all.warps)), "ns"},
      {"vgpu.host_s_per_modeled_ms", ratio(a.host_s, a.modeled_ms), "s/ms"},
      {"vgpu.schedule.host_s", a.stages.schedule, "s"},
      {"vgpu.modeled_sm_utilization",
       ratio(a.sm_utilization_sum, count(a.frames)), "ratio"},
      {"integral.host_s", a.stages.integral, "s"},
      {"integral.pixels", count(f.integral_pixels), "count"},
      {"integral.host_ns_per_pixel",
       ratio(a.stages.integral * 1e9, count(a.integral_pixels)), "ns"},
      {"pyramid.levels", count(f.levels), "count"},
      {"pyramid.host_s", a.stages.plan + a.stages.pyramid, "s"},
      {"cascade.host_s", a.stages.cascade, "s"},
      {"cascade.windows", count(f.windows), "count"},
      {"cascade.host_ns_per_window",
       ratio(a.stages.cascade * 1e9, count(a.windows)), "ns"},
      {"cascade.modeled_cycles", f.cascade_cycles, "cycles"},
      {"cascade.stage1_reject_ratio",
       ratio(count(f.stage1_rejects), count(f.windows)), "ratio"},
      {"collect.host_s", a.stages.collect, "s"},
      {"grouping.host_s", a.stages.grouping, "s"},
      {"grouping.raw_in", count(f.raw_in), "count"},
      {"grouping.groups_out", count(f.groups_out), "count"},
      {"ingest.decode_calls", count(decode.calls), "count"},
      {"ingest.decode_host_s", decode.host_s, "s"},
      {"ingest.host_us_per_frame",
       ratio(decode.host_s * 1e6, count(decode.calls)), "us"},
      {"ingest.rejects", count(ingest_rejects), "count"},
      {"serve.run.host_s", serve_run_s, "s"},
      {"serve.self_host_s", serve_self_s, "s"},
      {"serve.retries", count(serve_retries), "count"},
      {"serve.degradation_shifts", count(serve_shifts), "count"},
      {"serve.quarantined", count(serve_quarantined), "count"},
      {"fleet.run.host_s", fleet_run_s, "s"},
      {"fleet.self_host_us_per_frame", fleet_self_us_per_frame, "us"},
      {"fleet.detect_reuse_ratio", fleet_reuse_ratio, "ratio"},
      {"fleet.batched_frames", count(fleet_batched), "count"},
      {"fleet.failovers", count(fleet_failovers), "count"},
      {"fleet.admission_rejected", count(fleet_rejected), "count"},
      {"fleet.shed_steps", count(fleet_shed_steps), "count"},
      {"bench.trace_overhead", trace_overhead, "ratio"},
      {"bench.unattributed_share", unattributed_share, "ratio"},
  };
}

fdet::train::CascadePair load_committed_cascades(const std::string& dir) {
  std::optional<fdet::train::CascadePair> pair =
      fdet::train::load_cached_pair(dir, fdet::train::PretrainedOptions{});
  if (!pair) {
    throw std::runtime_error("no trusted cascade pair under '" + dir +
                             "'; the benchmark loads the committed "
                             "fdet_cache/ and never trains");
  }
  return std::move(*pair);
}

void Accuracy::add(const std::vector<fdet::detect::Detection>& found,
                   const std::vector<fdet::video::FaceGt>& truth) {
  std::vector<fdet::eval::GroundTruthFace> annotated;
  annotated.reserve(truth.size());
  for (const fdet::video::FaceGt& gt : truth) {
    annotated.push_back({{gt.left_eye_x, gt.left_eye_y, gt.right_eye_x,
                          gt.right_eye_y}});
  }
  for (const fdet::eval::ScoredDetection& s :
       fdet::eval::associate(found, annotated)) {
    matched += s.matched ? 1 : 0;
  }
  faces += static_cast<std::int64_t>(truth.size());
  detections += static_cast<std::int64_t>(found.size());
}

double Accuracy::recall() const {
  return ratio(static_cast<double>(matched), static_cast<double>(faces));
}

double Accuracy::precision() const {
  return ratio(static_cast<double>(matched), static_cast<double>(detections));
}

fdet::detect::FrameResult replay_served(
    const ServedReplay& replay, const fdet::img::ImageU8& luma, int level,
    const std::vector<fdet::detect::Detection>& served, double served_ms,
    bool compare_ms, const std::string& label, Gate& gate, Layers& layers,
    SpanLog* spans) {
  const ReplayTarget target{replay.device, replay.cascade, replay.bank,
                            options_for_level(replay.base, level)};
  ReplayStats stats;
  LaunchStats launches;
  fdet::detect::FrameResult result = [&] {
    const LaunchCounter counter(launches, 0.0);
    const auto sample_seed = fdet::core::hash_combine(
        replay.seed, static_cast<std::uint64_t>(layers.all.frames));
    return replay_process(target, luma, sample_seed, gate, stats, spans, 0);
  }();
  const std::string diff = diff_served(served, served_ms, result, compare_ms);
  gate.require(diff.empty(), label + ": " + diff);
  layers.fixed += stats;
  layers.all += stats;
  layers.launches_fixed += launches;
  layers.launches_all += launches;
  return result;
}

void check_served(const ServedReplay& replay, const fdet::img::ImageU8& luma,
                  int level, const std::vector<fdet::detect::Detection>& served,
                  double served_ms, const std::string& label, Gate& gate) {
  const fdet::detect::PipelineOptions options =
      options_for_level(replay.base, level);
  const fdet::detect::Pipeline pipeline(*replay.device, *replay.cascade,
                                        options);
  const std::string reprocessed =
      diff_served(served, served_ms, pipeline.process(luma), true);
  gate.require(reprocessed.empty(),
               label + ": re-processing changed the output: " + reprocessed);
  ReplayStats stats;
  const ReplayTarget target{replay.device, replay.cascade, replay.bank,
                            options};
  const std::string replayed = diff_served(
      served, served_ms,
      replay_process(target, luma, replay.seed, gate, stats, nullptr, 0),
      true);
  gate.require(replayed.empty(),
               label + ": stage replay differs: " + replayed);
}

std::string list_ms(const std::vector<double>& seconds) {
  std::string out;
  char buffer[32];
  for (const double s : seconds) {
    std::snprintf(buffer, sizeof buffer, "%s%.3f", out.empty() ? "" : ",",
                  s * 1e3);
    out += buffer;
  }
  return out;
}

void print_line(const std::string& tag, const std::string& text) {
  std::printf("perfbench %s: %s\n", tag.c_str(), text.c_str());
}

}  // namespace perfbench
