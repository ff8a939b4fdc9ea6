// serve_180p_faults: serve::StreamingService::run on one stream of 320x180
// frames from an FMJ (mjpeg-like) container, arriving open-loop in virtual
// time, under a seeded FaultPlan of launch and decode retries, corrupt
// luma and bitstream faults. The arrival rate and deadline are constants:
// a modeled-cost change shows in deadline_met_ratio instead of being
// absorbed by recalibration.
//
// The stream is a stretch of consecutive frames from the opening shot of
// the "50/50" preset (the trailer of the paper's Fig. 5); the seed picks
// where the stretch starts and moves each fault by up to one frame around
// fixed slots. One scene keeps the per-frame cost even, so the per-frame
// median does not jump between scenes of different cost from run to run.
#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>

#include "core/rng.h"
#include "ingest/mjpeg.h"
#include "ingest/registry.h"
#include "serve/service.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace fs = fdet::serve;

constexpr int kWidth = 320;
constexpr int kHeight = 180;
constexpr int kShotFrames = 72;
/// Table II preset the stream comes from ("50/50").
constexpr int kPreset = 1;
/// Frames in one pass (one StreamingService::run call).
constexpr int kFramesPerPass = 30;
constexpr double kFps = 24.0;
constexpr double kDeadlineMs = 3.0;
/// Two faults land in each block of this many frames.
constexpr int kFaultBlock = 10;
constexpr double kRecallFloor = 0.7;

struct Clip {
  std::string bytes;  ///< the FMJ container
  std::vector<std::vector<fdet::video::FaceGt>> truth;  ///< per frame
};

Clip make_clip(std::uint64_t seed) {
  fdet::video::TrailerSpec spec = fdet::video::table2_trailers(
      kShotFrames, kWidth, kHeight)[static_cast<std::size_t>(kPreset)];
  spec.shot_frames = kShotFrames;
  const fdet::video::SyntheticTrailer trailer(spec);
  const int start = static_cast<int>(
      fdet::core::hash_combine(seed, kPreset) %
      (kShotFrames - kFramesPerPass + 1));
  Clip clip;
  std::vector<fdet::img::Nv12Frame> frames;
  for (int i = start; i < start + kFramesPerPass; ++i) {
    frames.push_back(
        fdet::img::Nv12Frame::from_gray(trailer.render_luma(i)));
    clip.truth.push_back(trailer.ground_truth(i));
  }
  clip.bytes = fdet::ingest::encode_mjpeg(frames, kFps);
  return clip;
}

/// Two faults per block, cycling through a fixed kind/burst list so every
/// seed gets the same fault mix. The seed moves each fault by at most one
/// frame around fixed positions: where faults land relative to each other
/// decides how far the degradation ladder climbs, and that should not swing
/// from seed to seed.
fs::FaultPlan make_fault_plan(std::uint64_t seed) {
  struct Kind {
    fs::FaultKind kind;
    int burst;
  };
  static constexpr Kind kCycle[] = {
      {fs::FaultKind::kLaunchTransient, 1},
      {fs::FaultKind::kDecodeFail, 1},
      {fs::FaultKind::kCorruptLuma, 1},
      {fs::FaultKind::kLaunchTransient, 2},
      {fs::FaultKind::kBitstream, 1},
      {fs::FaultKind::kDecodeFail, 2},
  };
  static constexpr int kPositions[] = {2, 7};
  fdet::core::Rng rng(fdet::core::hash_combine(seed, 0xfa017));
  std::vector<fs::FaultSpec> specs;
  std::size_t next = 0;
  for (int block = 0; block < kFramesPerPass / kFaultBlock; ++block) {
    for (const int at : kPositions) {
      const Kind& k = kCycle[next++ % std::size(kCycle)];
      fs::FaultSpec spec;
      spec.kind = k.kind;
      spec.frame = block * kFaultBlock + at + rng.uniform_int(-1, 1);
      spec.burst = k.burst;
      specs.push_back(spec);
    }
  }
  return fs::FaultPlan(seed, std::move(specs));
}

std::string digest_report(const fs::ServiceReport& report) {
  Digest d;
  for (const fs::ServedFrame& f : report.frames) {
    d.add(static_cast<std::int64_t>(f.status));
    d.add(static_cast<std::int64_t>(f.degradation_level));
    d.add(static_cast<std::int64_t>(f.retries));
    d.add(f.latency_ms);
    d.add(f.decode_ms);
    d.add(f.detect_ms);
    d.add(f.backoff_ms);
    d.add(f.detections);
  }
  return d.hex();
}

bool served(const fs::ServedFrame& f) {
  return f.status == fs::FrameStatus::kOk ||
         f.status == fs::FrameStatus::kDegraded;
}

}  // namespace

Outcome run_serve_180p_faults(const RunConfig& config, Gate& gate,
                              SpanLog& spans) {
  const Clip clip = make_clip(config.seed);
  const fs::FaultPlan plan = make_fault_plan(config.seed);
  const fdet::vgpu::DeviceSpec device;
  fs::ServiceOptions options;
  options.fps = kFps;
  options.deadline_ms = kDeadlineMs;
  options.seed = fdet::core::hash_combine(config.seed, 0xba0ff);

  // Set-up: cascade load, container validation, service construction.
  std::vector<double> setup_samples;
  std::optional<fdet::train::CascadePair> pair;
  std::unique_ptr<fdet::ingest::FrameSource> source;
  std::optional<fs::StreamingService> service;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const Clock::time_point t0 = Clock::now();
    pair.emplace(load_committed_cascades(config.cache_dir));
    source = fdet::ingest::open_stream(clip.bytes);
    service.emplace(device, pair->ours, fdet::detect::PipelineOptions{},
                    options);
    setup_samples.push_back(seconds_since(t0));
  }
  const fdet::haar::ConstantBank bank =
      fdet::haar::ConstantBank::build(pair->ours);
  const ServedReplay replay{&device, &pair->ours, &bank,
                            fdet::detect::PipelineOptions{}, config.seed};

  Outcome outcome;
  Layers& layers = outcome.layers;
  DecodeLog log(Clock::now());
  log.delay_us = config.inject_decode_us;
  std::vector<double> pass_s;
  std::optional<fs::ServiceReport> first;
  std::string first_digest;
  // `in_run` (trace mode) receives the launch end times of the pass.
  const auto run_pass = [&](DecodeLog& into, LaunchStats* in_run) {
    const DecodeTimer timed(*source, into, 0);
    LaunchStats delayed;
    std::optional<LaunchCounter> counter;
    if (in_run != nullptr) {
      counter.emplace(*in_run, config.inject_launch_us, into.origin);
    } else if (config.inject_launch_us > 0.0) {
      counter.emplace(delayed, config.inject_launch_us);
    }
    const Clock::time_point t0 = Clock::now();
    fs::ServiceReport report = service->run(timed, kFramesPerPass, &plan);
    const Clock::time_point t1 = Clock::now();
    const std::string digest = digest_report(report);
    if (!first) {
      first = std::move(report);
      first_digest = digest;
    } else {
      gate.require(digest == first_digest,
                   "re-serving the stream changed its output (pass digest " +
                       digest + " vs " + first_digest + ")");
    }
    return std::make_pair(t0, t1);
  };

  // Timed region, tracing off: whole passes until the budget is spent
  // (one pass in a traced run, which then serves one more traced pass).
  const Clock::time_point loop0 = Clock::now();
  do {
    const auto [t0, t1] = run_pass(log, nullptr);
    pass_s.push_back(seconds_between(t0, t1));
  } while (!config.trace && seconds_since(loop0) < config.seconds);

  const fs::ServiceReport& report = *first;
  // Every offered frame holds exactly one terminal status, in order.
  int ok = 0, degraded = 0, dropped = 0, failed = 0, other = 0;
  bool ordered = report.frames.size() == kFramesPerPass;
  for (std::size_t i = 0; i < report.frames.size(); ++i) {
    ordered = ordered && report.frames[i].index == static_cast<int>(i);
    switch (report.frames[i].status) {
      case fs::FrameStatus::kOk: ++ok; break;
      case fs::FrameStatus::kDegraded: ++degraded; break;
      case fs::FrameStatus::kDropped: ++dropped; break;
      case fs::FrameStatus::kFailed: ++failed; break;
      default: ++other; break;
    }
  }
  gate.require(ordered, "the report does not hold one record per offered "
                        "frame, in order");
  gate.require(other == 0, std::to_string(other) +
                               " frames carry a status a single stream "
                               "cannot produce");
  gate.require(ok == report.ok && degraded == report.degraded &&
                   dropped == report.dropped && failed == report.failed &&
                   report.ok + report.degraded + report.dropped +
                           report.failed ==
                       kFramesPerPass,
               "service counters do not sum to the frames offered");

  // Modeled metrics and accuracy of the (identical) passes.
  std::vector<double> detect_ms;
  std::vector<double> latency_ms;
  int met = 0;
  Accuracy accuracy;
  Digest det_digest;
  for (const fs::ServedFrame& f : report.frames) {
    if (!served(f)) {
      continue;
    }
    detect_ms.push_back(f.detect_ms);
    latency_ms.push_back(f.latency_ms);
    met += f.latency_ms <= kDeadlineMs ? 1 : 0;
    accuracy.add(f.detections,
                 clip.truth[static_cast<std::size_t>(f.index)]);
    det_digest.add(f.detections);
  }
  gate.require(accuracy.recall() >= kRecallFloor,
               "recall " + std::to_string(accuracy.recall()) +
                   " below the floor " + std::to_string(kRecallFloor));

  // The luma a served frame was detected on (decode + injected damage).
  const auto served_luma = [&](const fs::ServedFrame& f) {
    fdet::img::ImageU8 luma = source->decode(f.index).frame.luma();
    if (plan.fires(fs::FaultKind::kCorruptLuma, f.index)) {
      fs::corrupt_luma(luma, fdet::core::hash_combine(
                                 plan.seed(),
                                 static_cast<std::uint64_t>(f.index)));
    }
    return luma;
  };

  if (config.trace) {
    // One traced pass: decode spans, then every served detection replayed
    // outside the run, stage by stage, checked against what was served.
    DecodeLog traced(log.origin);
    traced.spans = &spans;
    LaunchStats in_run;
    const auto [t0, t1] = run_pass(traced, &in_run);
    const double run_s = seconds_between(t0, t1);
    spans.add(
        "StreamingService::run", "serve", t0, t1, 0,
        "\"frames\":" + std::to_string(kFramesPerPass));
    for (const fs::ServedFrame& f : report.frames) {
      if (served(f)) {
        replay_served(replay, served_luma(f), f.degradation_level,
                      f.detections, f.detect_ms, true,
                      "frame " + std::to_string(f.index), gate, layers,
                      &spans);
      }
    }
    layers.decode = traced;
    layers.ingest_rejects = report.ingest_rejects;
    layers.serve_run_s = run_s;
    const double detect_s = detection_in_run(traced, in_run);
    layers.serve_self_s = run_s - traced.host_s - detect_s;
    layers.serve_retries = report.retries;
    layers.serve_shifts = report.degradation_shifts;
    for (const fs::ServedFrame& f : report.frames) {
      layers.serve_quarantined +=
          f.error.has_value() && f.error->cls != fs::ErrorClass::kTransient
              ? 1
              : 0;
    }
    layers.trace_overhead = run_s / pass_s.front() - 1.0;
    layers.unattributed_share =
        std::abs(detect_s - layers.all.stages.sum()) / run_s;
  } else {
    for (const fs::ServedFrame& f : report.frames) {
      if (served(f)) {
        check_served(replay, served_luma(f), f.degradation_level,
                     f.detections, f.detect_ms,
                     "frame " + std::to_string(f.index), gate);
        break;
      }
    }
  }

  double total_s = 0.0;
  for (const double s : pass_s) {
    total_s += s;
  }
  EndToEnd& e = outcome.e2e;
  e.setup_s = median(setup_samples);
  e.host_frames_per_s =
      static_cast<double>(pass_s.size()) * kFramesPerPass / total_s;
  e.host_frame_s_p50 = median(decode_gaps(log));
  e.modeled_detect_ms_p50 = median(detect_ms);
  e.modeled_latency_ms_p50 = median(latency_ms);
  e.modeled_latency_ms_p99 = nearest_rank(latency_ms, 0.99);
  e.served_ratio = static_cast<double>(ok + degraded) / kFramesPerPass;
  e.deadline_met_ratio = static_cast<double>(met) / kFramesPerPass;
  e.recall = accuracy.recall();
  e.precision = accuracy.precision();
  outcome.attempted =
      static_cast<std::int64_t>(pass_s.size()) * kFramesPerPass;
  outcome.failed = static_cast<std::int64_t>(pass_s.size()) *
                   (other + kFramesPerPass -
                    static_cast<int>(report.frames.size()));

  std::ostringstream text;
  text << "passes=" << pass_s.size() << " frames_per_pass=" << kFramesPerPass
       << " host_samples=" << decode_gaps(log).size()
       << " served_samples=" << latency_ms.size()
       << " faces=" << accuracy.faces << " detections=" << accuracy.detections
       << " retries=" << report.retries
       << " degradation_shifts=" << report.degradation_shifts
       << " breaker_trips=" << report.breaker_trips
       << " ok=" << ok << " degraded=" << degraded
       << " pass_ms=" << list_ms(pass_s)
       << " frame_ms=" << list_ms(decode_gaps(log))
       << " setup_ms=" << list_ms(setup_samples);
  print_line("outcome", text.str());
  print_line("outcome", "offered=" + std::to_string(kFramesPerPass) +
                            " served=" + std::to_string(ok + degraded) +
                            " dropped=" + std::to_string(dropped) +
                            " failed=" + std::to_string(failed) +
                            " admission_rejected=0 ingest_rejected=" +
                            std::to_string(report.ingest_rejects) +
                            " faults_injected=" +
                            std::to_string(report.faults_injected));
  print_line("digest", "detections=" + det_digest.hex() +
                           " modeled=" + first_digest);
  return outcome;
}

}  // namespace perfbench
