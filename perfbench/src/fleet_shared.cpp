// fleet_shared_content: serve::FleetScheduler over 4 virtual devices and
// 208 streams of gold, silver and best-effort tenants (best-effort behind
// an admission limit), under a seeded device lost/hang/slow schedule.
//
// Every stream owns its FrameSource, opened from one of four clips — raw,
// mjpeg, gif and h264 — that show a handful of distinct 160x96 frames. So
// decode runs for every stream and frame, while the content-keyed
// detection cache serves nearly every detection: the one workload where
// inputs share work, and where ingest, fleet scheduling and obs
// bookkeeping carry the host time.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <sstream>

#include "core/rng.h"
#include "ingest/gif.h"
#include "ingest/mjpeg.h"
#include "ingest/raw.h"
#include "ingest/registry.h"
#include "serve/fleet.h"
#include "video/decoder.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace fs = fdet::serve;

constexpr int kWidth = 160;
constexpr int kHeight = 96;
constexpr int kShotFrames = 72;
/// Distinct face frames the byte-stream clips cycle through, one from the
/// opening shot of each of the first kDistinct Table II presets.
constexpr int kDistinct = 6;
/// The seed picks each distinct frame among the first frames of its shot.
/// The window is narrow on purpose: with a handful of distinct frames, one
/// face found or missed moves recall by several percent, so the seed
/// varies how streams share the content rather than the content itself.
constexpr int kOffsetWindow = 2;
/// Frames each distinct frame is held for in a clip.
constexpr int kHold = 4;
constexpr int kFramesPerStream = 48;
constexpr int kGold = 48;
constexpr int kSilver = 64;
constexpr int kBestEffort = 96;
constexpr int kDevices = 4;
constexpr double kFps = 5.0;
constexpr double kDeadlineMs = 20.0;
/// Best-effort admission rate as a share of its offered load.
constexpr double kAdmitFraction = 0.9;
constexpr double kRecallFloor = 0.6;

enum ClipKind { kRaw, kMjpeg, kGif, kH264, kClipKinds };

struct Clips {
  std::string bytes[3];  ///< raw, mjpeg, gif containers
  std::optional<fdet::video::SyntheticTrailer> h264_trailer;
  std::optional<fdet::video::MockH264Decoder> h264;
  /// Ground truth per clip and frame (empty for the face-free h264 clip).
  std::vector<std::vector<fdet::video::FaceGt>> truth[kClipKinds];
};

void make_clips(std::uint64_t seed, Clips& clips) {
  std::vector<fdet::img::ImageU8> distinct;
  std::vector<std::vector<fdet::video::FaceGt>> distinct_truth;
  const std::vector<fdet::video::TrailerSpec> presets =
      fdet::video::table2_trailers(kShotFrames, kWidth, kHeight);
  for (int d = 0; d < kDistinct; ++d) {
    fdet::video::TrailerSpec spec =
        presets[static_cast<std::size_t>(d)];
    spec.shot_frames = kShotFrames;
    const fdet::video::SyntheticTrailer trailer(spec);
    const int offset = static_cast<int>(
        fdet::core::hash_combine(seed, static_cast<std::uint64_t>(d)) %
        kOffsetWindow);
    distinct.push_back(trailer.render_luma(offset));
    distinct_truth.push_back(trailer.ground_truth(offset));
  }
  for (int c = 0; c < 3; ++c) {
    std::vector<fdet::img::Nv12Frame> nv12;
    std::vector<fdet::img::ImageU8> luma;
    for (int i = 0; i < kFramesPerStream; ++i) {
      const std::size_t d = static_cast<std::size_t>(i / kHold + c + seed) %
                            kDistinct;
      luma.push_back(distinct[d]);
      nv12.push_back(fdet::img::Nv12Frame::from_gray(distinct[d]));
      clips.truth[c].push_back(distinct_truth[d]);
    }
    clips.bytes[c] = c == kRaw     ? fdet::ingest::encode_raw(nv12, kFps)
                     : c == kMjpeg ? fdet::ingest::encode_mjpeg(nv12, kFps)
                                   : fdet::ingest::encode_gif(luma, kFps);
  }
  // The h264 clip: one face-free static shot, the same scene for every
  // seed (its false positives would otherwise swing precision by seed).
  fdet::video::TrailerSpec spec;
  spec.title = "fleet-h264";
  spec.width = kWidth;
  spec.height = kHeight;
  spec.frames = kFramesPerStream;
  spec.fps = kFps;
  spec.shot_frames = kFramesPerStream;
  spec.face_density = 0.0;
  spec.seed = 0x4264;
  clips.h264_trailer.emplace(spec);
  clips.h264.emplace(*clips.h264_trailer);
  clips.truth[kH264].assign(kFramesPerStream, {});
}

/// The fleet chaos soak's device schedule shape — a slow window, two
/// losses, a hang long enough for the watchdog, two late losses — with
/// every onset jittered by the seed.
fs::DeviceFaultPlan make_device_plan(std::uint64_t seed) {
  fdet::core::Rng rng(fdet::core::hash_combine(seed, 0xde7));
  const double span_s = kFramesPerStream / kFps;
  const auto at = [&](double fraction) {
    return (fraction + rng.uniform(-0.01, 0.01)) * span_s;
  };
  char text[512];
  const double t[6] = {at(0.10), at(0.12), at(0.30), at(0.55), at(0.68),
                       at(0.82)};
  std::snprintf(text, sizeof text,
                "device-slow@2:%.4f+%.4f*4,device-lost@1:%.4f+%.4f,"
                "device-lost@0:%.4f+%.4f,device-hang@1:%.4f+%.4f,"
                "device-lost@2:%.4f+%.4f,device-lost@3:%.4f+%.4f",
                t[0], 0.45 * span_s, t[1], 0.06 * span_s, t[2],
                0.15 * span_s, t[3], 0.15 * span_s, t[4], 0.08 * span_s,
                t[5], 0.10 * span_s);
  return fs::DeviceFaultPlan::parse(text, seed);
}

std::string digest_report(const fs::FleetReport& report) {
  Digest d;
  for (const fs::FleetFrame& f : report.frames) {
    d.add(static_cast<std::int64_t>(f.status));
    d.add(static_cast<std::int64_t>(f.degradation_level));
    d.add(static_cast<std::int64_t>(f.device));
    d.add(static_cast<std::int64_t>(f.batch_size));
    d.add(f.latency_ms);
    d.add(f.decode_ms);
    d.add(f.detect_ms);
    d.add(f.detections);
  }
  return d.hex();
}

bool served(const fs::FleetFrame& f) {
  return f.status == fs::FrameStatus::kOk ||
         f.status == fs::FrameStatus::kDegraded;
}

std::uint64_t luma_key(const fdet::img::ImageU8& luma, int level) {
  Digest d;
  d.add_bytes(luma.pixels().data(), luma.pixels().size());
  d.add(static_cast<std::int64_t>(level));
  return d.value();
}

/// Everything set-up builds: sources, their timers, the scheduler.
struct Fleet {
  std::vector<std::unique_ptr<fdet::ingest::FrameSource>> sources;
  std::vector<std::unique_ptr<DecodeTimer>> timers;
  std::vector<int> clip_of;  ///< stream -> clip kind
  std::optional<fs::FleetScheduler> scheduler;
};

}  // namespace

Outcome run_fleet_shared_content(const RunConfig& config, Gate& gate,
                                 SpanLog& spans) {
  Clips clips;
  make_clips(config.seed, clips);
  const fs::DeviceFaultPlan device_plan = make_device_plan(config.seed);
  const fdet::vgpu::DeviceSpec device;
  fs::FleetOptions options;
  options.devices = kDevices;
  options.deadline_ms = kDeadlineMs;
  options.seed = fdet::core::hash_combine(config.seed, 0xf1ee7);
  // Stream phases: the fleet chaos soak's 17-step stagger, rotated by the
  // seed — every seed offers the same set of arrival times, and the seed
  // decides which stream arrives at which.
  std::vector<double> phases;
  for (int s = 0; s < kGold + kSilver + kBestEffort; ++s) {
    phases.push_back(static_cast<double>((s + config.seed) % 17) / 17.0 /
                     kFps);
  }

  DecodeLog log(Clock::now());
  log.delay_us = config.inject_decode_us;

  // Set-up: cascade load, every stream's container validation, scheduler
  // construction and topology.
  std::vector<double> setup_samples;
  std::optional<fdet::train::CascadePair> pair;
  std::optional<Fleet> fleet;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const Clock::time_point t0 = Clock::now();
    pair.emplace(load_committed_cascades(config.cache_dir));
    fleet.emplace();
    Fleet& f = *fleet;
    f.scheduler.emplace(device, pair->ours, fdet::detect::PipelineOptions{},
                        options);
    const struct {
      fs::QosClass cls;
      int streams;
    } tenants[] = {{fs::QosClass::kGold, kGold},
                   {fs::QosClass::kSilver, kSilver},
                   {fs::QosClass::kBestEffort, kBestEffort}};
    for (const auto& t : tenants) {
      fs::TenantSpec spec;
      spec.name = fs::qos_class_name(t.cls);
      spec.cls = t.cls;
      if (t.cls == fs::QosClass::kBestEffort) {
        spec.admission.rate_per_s = kAdmitFraction * kFps * t.streams;
        spec.admission.burst = t.streams;
      }
      const int tenant = f.scheduler->add_tenant(spec);
      for (int i = 0; i < t.streams; ++i) {
        const int s = static_cast<int>(f.sources.size());
        const int clip = s % kClipKinds;
        if (clip == kH264) {
          f.sources.push_back(
              std::make_unique<fdet::ingest::H264FrameSource>(*clips.h264));
        } else {
          f.sources.push_back(fdet::ingest::open_stream(clips.bytes[clip]));
        }
        f.timers.push_back(
            std::make_unique<DecodeTimer>(*f.sources.back(), log, s));
        f.clip_of.push_back(clip);
        f.scheduler->add_stream(tenant, *f.timers.back(), kFps,
                                kFramesPerStream,
                                phases[static_cast<std::size_t>(s)]);
      }
    }
    setup_samples.push_back(seconds_since(t0));
  }
  const fdet::haar::ConstantBank bank =
      fdet::haar::ConstantBank::build(pair->ours);
  const ServedReplay replay{&device, &pair->ours, &bank,
                            fdet::detect::PipelineOptions{}, config.seed};
  fs::FleetScheduler& scheduler = *fleet->scheduler;
  const int streams = static_cast<int>(fleet->sources.size());
  const int offered = streams * kFramesPerStream;

  Outcome outcome;
  Layers& layers = outcome.layers;
  std::vector<double> pass_s;
  std::optional<fs::FleetReport> first;
  std::string first_digest;
  // `in_run` (trace mode) receives the launch end times of the pass.
  const auto run_pass = [&](LaunchStats* in_run) {
    LaunchStats delayed;
    std::optional<LaunchCounter> counter;
    if (in_run != nullptr) {
      counter.emplace(*in_run, config.inject_launch_us, log.origin);
    } else if (config.inject_launch_us > 0.0) {
      counter.emplace(delayed, config.inject_launch_us);
    }
    const Clock::time_point t0 = Clock::now();
    fs::FleetReport report = scheduler.run(&device_plan);
    const Clock::time_point t1 = Clock::now();
    const std::string digest = digest_report(report);
    if (!first) {
      first = std::move(report);
      first_digest = digest;
    } else {
      gate.require(digest == first_digest,
                   "re-running the fleet changed its output (pass digest " +
                       digest + " vs " + first_digest + ")");
    }
    return std::make_pair(t0, t1);
  };

  // Timed region, tracing off: whole passes until the budget is spent
  // (one pass in a traced run, which then runs one more traced pass).
  const Clock::time_point loop0 = Clock::now();
  do {
    const auto [t0, t1] = run_pass(nullptr);
    pass_s.push_back(seconds_between(t0, t1));
  } while (!config.trace && seconds_since(loop0) < config.seconds);
  const std::vector<double> gaps = decode_gaps(log);

  const fs::FleetReport& report = *first;
  // Every offered frame holds exactly one terminal status.
  int ok = 0, degraded = 0, dropped = 0, failed = 0, rejected = 0;
  int unsettled = 0;
  for (const fs::FleetFrame& f : report.frames) {
    unsettled += f.settled ? 0 : 1;
    switch (f.status) {
      case fs::FrameStatus::kOk: ++ok; break;
      case fs::FrameStatus::kDegraded: ++degraded; break;
      case fs::FrameStatus::kDropped: ++dropped; break;
      case fs::FrameStatus::kFailed: ++failed; break;
      case fs::FrameStatus::kAdmissionRejected: ++rejected; break;
    }
  }
  gate.require(static_cast<int>(report.frames.size()) == offered,
               "the report does not hold one record per offered frame");
  gate.require(unsettled == 0, std::to_string(unsettled) +
                                   " offered frames never reached a "
                                   "terminal status");
  gate.require(report.stranded == 0,
               "FleetReport::stranded is " + std::to_string(report.stranded));
  gate.require(ok + degraded == report.served && dropped == report.dropped &&
                   failed == report.failed &&
                   rejected == report.admission_rejected &&
                   report.served + report.dropped + report.failed +
                           report.admission_rejected ==
                       offered,
               "fleet counters do not sum to the frames offered");

  // Modeled metrics and accuracy.
  std::vector<double> detect_ms;
  std::vector<double> latency_ms;
  int met = 0;
  int faults = 0;
  int ingest_rejects = 0;
  Accuracy accuracy;
  Digest det_digest;
  for (const fs::FleetFrame& f : report.frames) {
    faults += f.fault_injected ? 1 : 0;
    ingest_rejects += f.error.has_value() &&
                              f.error->cls == fs::ErrorClass::kMalformed
                          ? 1
                          : 0;
    if (!served(f)) {
      continue;
    }
    detect_ms.push_back(f.detect_ms);
    latency_ms.push_back(f.latency_ms);
    met += f.latency_ms <= kDeadlineMs ? 1 : 0;
    const int clip = fleet->clip_of[static_cast<std::size_t>(f.stream)];
    accuracy.add(f.detections,
                 clips.truth[clip][static_cast<std::size_t>(f.index)]);
    det_digest.add(f.detections);
  }
  gate.require(accuracy.recall() >= kRecallFloor,
               "recall " + std::to_string(accuracy.recall()) +
                   " below the floor " + std::to_string(kRecallFloor));

  // Pristine decodes per (clip, frame), outside any run.
  std::map<std::pair<int, int>, fdet::img::ImageU8> lumas;
  const auto luma_of = [&](const fs::FleetFrame& f)
      -> const fdet::img::ImageU8& {
    const int clip = fleet->clip_of[static_cast<std::size_t>(f.stream)];
    auto it = lumas.find({clip, f.index});
    if (it == lumas.end()) {
      const fdet::ingest::FrameSource& source =
          *fleet->sources[static_cast<std::size_t>(f.stream)];
      it = lumas.emplace(std::make_pair(clip, f.index),
                         source.decode(f.index).frame.luma())
               .first;
    }
    return it->second;
  };
  const auto slowed = [](const fs::FleetFrame& f) {
    return f.cause.find("device-slow") != std::string::npos;
  };

  if (config.trace) {
    // One traced pass: decode spans, then each distinct (content, ladder
    // level) detection replayed outside the run and checked against
    // every frame the run served with it.
    log.calls = 0;
    log.host_s = 0.0;
    log.starts.clear();
    log.ends.clear();
    log.spans = &spans;
    LaunchStats in_run;
    const auto [t0, t1] = run_pass(&in_run);
    const double run_s = seconds_between(t0, t1);
    log.spans = nullptr;
    spans.add("FleetScheduler::run", "serve", t0, t1, 0,
              "\"streams\":" + std::to_string(streams));
    std::map<std::uint64_t, fdet::detect::FrameResult> replayed;
    int served_frames = 0;
    for (const fs::FleetFrame& f : report.frames) {
      if (!served(f)) {
        continue;
      }
      ++served_frames;
      const fdet::img::ImageU8& luma = luma_of(f);
      const std::uint64_t key = luma_key(luma, f.degradation_level);
      const std::string label = "stream " + std::to_string(f.stream) +
                                " frame " + std::to_string(f.index);
      auto it = replayed.find(key);
      if (it == replayed.end()) {
        replayed.emplace(key, replay_served(replay, luma, f.degradation_level,
                                            f.detections, f.detect_ms,
                                            !slowed(f), label, gate, layers,
                                            &spans));
      } else {
        const std::string diff =
            diff_served(f.detections, f.detect_ms, it->second, !slowed(f));
        gate.require(diff.empty(), label + ": " + diff);
      }
    }
    layers.decode = log;
    layers.ingest_rejects = ingest_rejects;
    layers.fleet_run_s = run_s;
    const double detect_s = detection_in_run(log, in_run);
    layers.fleet_self_us_per_frame =
        (run_s - log.host_s - detect_s) / offered * 1e6;
    layers.fleet_reuse_ratio =
        1.0 - static_cast<double>(replayed.size()) / served_frames;
    layers.fleet_batched = report.batched_frames;
    layers.fleet_failovers = report.failovers;
    layers.fleet_rejected = report.admission_rejected;
    layers.fleet_shed_steps = report.shed_steps;
    layers.trace_overhead = run_s / pass_s.front() - 1.0;
    layers.unattributed_share =
        std::abs(detect_s - layers.all.stages.sum()) / run_s;
  } else {
    for (const fs::FleetFrame& f : report.frames) {
      if (served(f) && !slowed(f) && !clips.truth[fleet->clip_of[
              static_cast<std::size_t>(f.stream)]][0].empty()) {
        check_served(replay, luma_of(f), f.degradation_level, f.detections,
                     f.detect_ms,
                     "stream " + std::to_string(f.stream) + " frame " +
                         std::to_string(f.index),
                     gate);
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
  e.host_frames_per_s = static_cast<double>(pass_s.size()) * offered / total_s;
  e.host_frame_s_p50 = median(gaps);
  e.modeled_detect_ms_p50 = median(detect_ms);
  e.modeled_latency_ms_p50 = median(latency_ms);
  e.modeled_latency_ms_p99 = nearest_rank(latency_ms, 0.99);
  e.served_ratio = static_cast<double>(ok + degraded) / offered;
  e.deadline_met_ratio = static_cast<double>(met) / offered;
  e.recall = accuracy.recall();
  e.precision = accuracy.precision();
  outcome.attempted = static_cast<std::int64_t>(pass_s.size()) * offered;
  outcome.failed = static_cast<std::int64_t>(pass_s.size()) *
                   (unsettled + offered -
                    static_cast<int>(report.frames.size()));

  std::ostringstream text;
  text << "passes=" << pass_s.size() << " streams=" << streams
       << " frames_per_pass=" << offered << " host_samples=" << gaps.size()
       << " served_samples=" << latency_ms.size()
       << " faces=" << accuracy.faces << " detections=" << accuracy.detections
       << " failovers=" << report.failovers
       << " device_faults=" << report.device_faults
       << " batches=" << report.batches << " shed_steps=" << report.shed_steps
       << " recover_steps=" << report.recover_steps
       << " pass_ms=" << list_ms(pass_s)
       << " setup_ms=" << list_ms(setup_samples);
  print_line("outcome", text.str());
  print_line("outcome", "offered=" + std::to_string(offered) +
                            " served=" + std::to_string(ok + degraded) +
                            " dropped=" + std::to_string(dropped) +
                            " failed=" + std::to_string(failed) +
                            " admission_rejected=" + std::to_string(rejected) +
                            " ingest_rejected=" +
                            std::to_string(ingest_rejects) +
                            " faults_injected=" + std::to_string(faults));
  print_line("digest", "detections=" + det_digest.hex() +
                           " modeled=" + first_digest);
  return outcome;
}

}  // namespace perfbench
