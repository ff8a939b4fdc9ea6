// detect_540p: closed loop, one detect::Pipeline::process call at a time
// on distinct 960x540 table2_trailers frames, with the "ours" cascade and
// default (concurrent) options. Host time here is all simulator: vgpu
// accounting, integral, pyramid and cascade kernels.
//
// The frames come from the opening shot of the "50/50" preset, the trailer
// of the paper's Fig. 5; the seed picks where in the shot the run starts,
// and each next frame is 7 frames on (coprime with the shot length, so
// frames stay distinct). Faces move while the background and cast stay:
// every frame costs about the same, so the per-frame median does not jump
// between scenes of different cost from run to run.
#include <algorithm>
#include <optional>
#include <sstream>

#include "core/rng.h"
#include "detect/pipeline.h"
#include "video/decoder.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kWidth = 960;
constexpr int kHeight = 540;
/// Table II preset the frames come from ("50/50").
constexpr int kPreset = 1;
/// Frames whose modeled statistics, accuracy and digest are reported: a
/// fixed set, so those numbers do not depend on host speed.
constexpr int kFixedFrames = 5;
/// Upper bound on frames one run can reach.
constexpr int kMaxFrames = 60;
/// Length of the opening shot the frames are drawn from.
constexpr int kShotFrames = 72;
/// The paper's 24 fps display deadline.
constexpr double kDeadlineMs = 40.0;
constexpr double kRecallFloor = 0.8;

}  // namespace

Outcome run_detect_540p(const RunConfig& config, Gate& gate, SpanLog& spans) {
  // Input synthesis (excluded from set-up).
  fdet::video::TrailerSpec spec = fdet::video::table2_trailers(
      kShotFrames, kWidth, kHeight)[static_cast<std::size_t>(kPreset)];
  spec.shot_frames = kShotFrames;
  const fdet::video::SyntheticTrailer trailer(spec);
  const fdet::video::MockH264Decoder decoder(trailer);
  const auto offset_of = [&](int k) {
    const std::uint64_t start =
        fdet::core::hash_combine(config.seed, kPreset) % kShotFrames;
    return static_cast<int>((start + 7 * static_cast<std::uint64_t>(k)) %
                            kShotFrames);
  };
  const fdet::vgpu::DeviceSpec device;

  // Set-up: cascade load + pipeline (which builds its constant bank),
  // repeated.
  std::vector<double> setup_samples;
  std::optional<fdet::train::CascadePair> pair;
  std::optional<fdet::detect::Pipeline> pipeline;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const Clock::time_point t0 = Clock::now();
    pair.emplace(load_committed_cascades(config.cache_dir));
    pipeline.emplace(device, pair->ours, fdet::detect::PipelineOptions{});
    setup_samples.push_back(seconds_since(t0));
  }
  // The replay's own bank (Pipeline keeps its bank private).
  const fdet::haar::ConstantBank bank =
      fdet::haar::ConstantBank::build(pipeline->cascade());
  const ReplayTarget target{&device, &pipeline->cascade(), &bank,
                            pipeline->options()};

  Outcome outcome;
  Layers& layers = outcome.layers;
  std::vector<double> host_s;       // per process() call
  std::vector<double> modeled_ms;   // fixed set: detect_ms
  std::vector<double> latency_ms;   // fixed set: decode + detect
  std::optional<fdet::detect::FrameResult> first;
  std::optional<fdet::img::ImageU8> first_luma;
  Accuracy accuracy;
  Digest det_digest;
  Digest model_digest;
  double replay_host_s = 0.0;
  double process_host_s_traced = 0.0;
  LaunchStats delayed;  // launches seen by the sensitivity delay hook

  const Clock::time_point loop0 = Clock::now();
  int frame = 0;
  while (frame < kFixedFrames ||
         (frame < kMaxFrames && seconds_since(loop0) < config.seconds)) {
    const fdet::video::DecodedFrame decoded =
        decoder.decode(offset_of(frame));
    const fdet::img::ImageU8& luma = decoded.frame.luma();
    const bool fixed = frame < kFixedFrames;

    std::optional<fdet::detect::FrameResult> result;
    const auto process = [&] {
      std::optional<LaunchCounter> delay;
      if (config.inject_launch_us > 0.0) {
        delay.emplace(delayed, config.inject_launch_us);
      }
      const Clock::time_point t0 = Clock::now();
      result = pipeline->process(luma);
      const Clock::time_point t1 = Clock::now();
      host_s.push_back(seconds_between(t0, t1));
      if (config.trace) {
        spans.add("Pipeline::process", "detect", t0, t1, 0,
                  "\"frame\":" + std::to_string(frame));
      }
    };
    // Traced arm: the same call replayed stage by stage, counted.
    ReplayStats stats;
    LaunchStats launches;
    std::optional<fdet::detect::FrameResult> replayed;
    const auto replay = [&] {
      const LaunchCounter counter(launches, 0.0);
      replayed = replay_process(target, luma,
                                fdet::core::hash_combine(config.seed, frame),
                                gate, stats, &spans, 0);
    };
    // In a traced run the two arms alternate which goes first, so neither
    // always inherits the other's warm caches.
    if (config.trace && frame % 2 == 1) {
      replay();
    }
    process();
    if (config.trace && frame % 2 == 0) {
      replay();
    }

    if (config.trace) {
      const std::string diff = diff_results(*result, *replayed);
      gate.require(diff.empty(), "frame " + std::to_string(frame) +
                                     ": stage replay differs from "
                                     "Pipeline::process: " + diff);
      replay_host_s += stats.host_s;
      process_host_s_traced += host_s.back();
      layers.all += stats;
      layers.launches_all += launches;
      if (fixed) {
        layers.fixed += stats;
        layers.launches_fixed += launches;
      }
    }

    if (fixed) {
      modeled_ms.push_back(result->detect_ms);
      latency_ms.push_back(decoded.decode_ms + result->detect_ms);
      accuracy.add(result->detections, decoded.ground_truth);
      det_digest.add(result->detections);
      model_digest.add(result->detect_ms);
      model_digest.add(result->timeline.sm_busy_s);
      for (const fdet::detect::ScaleStats& s : result->scales) {
        for (const std::int64_t c : s.depth_histogram) {
          model_digest.add(c);
        }
      }
    }
    if (frame == 0) {
      first = std::move(result);
      first_luma = luma;
    }
    ++frame;
  }

  // Correctness gate. Re-processing a frame must not change its output,
  // and the stage replay (with its CPU-reference depth samples) must
  // match Pipeline::process.
  {
    const fdet::detect::FrameResult again = pipeline->process(*first_luma);
    const std::string diff = diff_results(*first, again);
    gate.require(diff.empty(),
                 "re-processing frame 0 changed its output: " + diff);
  }
  if (!config.trace) {
    ReplayStats stats;
    const fdet::detect::FrameResult replayed = replay_process(
        target, *first_luma, fdet::core::hash_combine(config.seed, 0), gate,
        stats, nullptr, 0);
    const std::string diff = diff_results(*first, replayed);
    gate.require(diff.empty(),
                 "frame 0: stage replay differs from Pipeline::process: " +
                     diff);
  }
  gate.require(accuracy.recall() >= kRecallFloor,
               "recall " + std::to_string(accuracy.recall()) +
                   " below the floor " + std::to_string(kRecallFloor));

  const int frames = static_cast<int>(host_s.size());
  double host_total = 0.0;
  for (const double s : host_s) {
    host_total += s;
  }
  int met = 0;
  for (const double ms : latency_ms) {
    met += ms <= kDeadlineMs ? 1 : 0;
  }

  EndToEnd& e = outcome.e2e;
  e.setup_s = median(setup_samples);
  e.host_frames_per_s = frames / host_total;
  e.host_frame_s_p50 = median(host_s);
  e.modeled_detect_ms_p50 = median(modeled_ms);
  e.modeled_latency_ms_p50 = median(latency_ms);
  e.modeled_latency_ms_p99 = nearest_rank(latency_ms, 0.99);
  e.served_ratio = 1.0;  // every process() call returned (failures throw)
  e.deadline_met_ratio =
      static_cast<double>(met) / static_cast<double>(latency_ms.size());
  e.recall = accuracy.recall();
  e.precision = accuracy.precision();
  outcome.attempted = frames;

  if (config.trace) {
    layers.trace_overhead = replay_host_s / process_host_s_traced - 1.0;
    layers.unattributed_share =
        1.0 - layers.all.stages.sum() / layers.all.host_s;
  }

  std::ostringstream text;
  text << "frames=" << frames << " host_samples=" << frames
       << " fixed_frames=" << kFixedFrames << " faces=" << accuracy.faces
       << " detections=" << accuracy.detections
       << " frame_ms=" << list_ms(host_s)
       << " setup_ms=" << list_ms(setup_samples);
  print_line("outcome", text.str());
  print_line("outcome",
             "offered=" + std::to_string(frames) + " served=" +
                 std::to_string(frames) +
                 " dropped=0 failed=0 admission_rejected=0 "
                 "ingest_rejected=0 faults_injected=0");
  print_line("digest", "detections=" + det_digest.hex() +
                           " modeled=" + model_digest.hex());
  return outcome;
}

}  // namespace perfbench
