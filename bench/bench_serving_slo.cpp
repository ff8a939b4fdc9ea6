// Serving SLO artifact: streams a synthetic trailer through the
// fault-tolerant serving layer under a seeded fault plan and records the
// SLO engine's view of the run — sliding-window latency percentiles,
// deadline-miss ratios, burn rates, per-stage latency and queue-depth
// quantiles — as the BENCH_serving_slo run record. The fault plan keeps
// the miss ratio nonzero so the percentile/burn series are exercised,
// exactly like a production tail-latency incident.
//
// `fdet_report slo BENCH_serving_slo.json` renders the record.
#include "bench_common.h"

#include "serve/service.h"

int main(int argc, char** argv) {
  using namespace fdet;
  int frames = 96;
  int width = 320;
  int height = 240;
  double fps = 24.0;
  double deadline_ms = 0.0;  // 0 = derive from a fault-free probe run
  std::string faults =
      "decode@6x2,corrupt@12,launch@18x2,const@26,shared@34,"
      "decode@44x3,decode@45x3,decode@46x3";
  double seed = 20120926;
  std::string cache_dir = bench::kDefaultCacheDir;
  bench::RunRecorder run("serving_slo");
  core::Cli cli("bench_serving_slo");
  cli.flag("frames", frames, "frames to stream through the service");
  cli.flag("width", width, "trailer width");
  cli.flag("height", height, "trailer height");
  cli.flag("fps", fps, "stream arrival rate");
  cli.flag("deadline-ms", deadline_ms,
           "per-frame latency budget (0 = derive from a fault-free probe)");
  cli.flag("faults", faults, "fault plan spec (see serve/faults.h)");
  cli.flag("seed", seed, "fault-plan + jitter seed");
  cli.flag("cache-dir", cache_dir, "trained-cascade cache directory");
  run.add_flags(cli);
  if (!cli.parse(argc, argv)) {
    return 1;
  }
  bench::print_header("serving SLO",
                      "burn-rate + percentile engine under a fault plan");

  const train::CascadePair pair = bench::load_cascades(cache_dir);
  const vgpu::DeviceSpec spec;

  video::TrailerSpec preset;
  preset.title = "slo";
  preset.width = width;
  preset.height = height;
  preset.frames = frames;
  preset.shot_frames = 12;
  preset.face_density = 1.5;
  preset.seed = 7;
  const video::SyntheticTrailer trailer(preset);
  const video::MockH264Decoder decoder(trailer);
  const ingest::H264FrameSource source(decoder);
  const auto plan =
      serve::FaultPlan::parse(faults, static_cast<std::uint64_t>(seed));

  serve::ServiceOptions options;
  options.fps = fps;
  options.seed = static_cast<std::uint64_t>(seed);
  // Same calibration as fdet_chaos: deadline clears the healthy and the
  // serial envelopes (so the ladder can recover) but one retry backoff
  // blows it (so the plan's faults actually burn the SLO budget).
  {
    serve::StreamingService probe(spec, pair.ours, {}, options);
    const serve::ServiceReport calib = probe.run(source, frames);
    double max_ms = 0.0;
    for (const auto& frame : calib.frames) {
      max_ms = std::max(max_ms, frame.latency_ms);
    }
    detect::PipelineOptions serial_opts;
    serial_opts.mode = vgpu::ExecMode::kSerial;
    const detect::Pipeline serial_probe(spec, pair.ours, serial_opts);
    const double serial_ms =
        serial_probe.process(decoder.decode(0).frame.luma()).detect_ms +
        decoder.decode_latency_ms(0);
    if (deadline_ms <= 0.0) {
      deadline_ms = std::max(2.0 * max_ms, serial_ms / 0.6);
    }
    options.retry.base_backoff_ms = deadline_ms;
    options.retry.max_backoff_ms = 4.0 * deadline_ms;
  }
  options.deadline_ms = deadline_ms;
  std::printf("fault plan: %s\ndeadline: %.3f ms (virtual)\n\n",
              plan.describe().c_str(), deadline_ms);

  for (int rep = 0; rep < run.repeats(); ++rep) {
    run.begin_repeat(rep);
    serve::StreamingService service(spec, pair.ours, {}, options,
                                    &run.metrics());
    const serve::ServiceReport report = service.run(source, frames, &plan);
    const obs::SloSnapshot& slo = report.slo;

    if (rep == 0) {
      core::Table table({"quantity", "value"});
      table.add_row({"frames served", std::to_string(slo.frames)});
      table.add_row({"deadline misses", std::to_string(slo.misses)});
      table.add_row({"latency p50 (ms)", core::Table::num(slo.p50_ms)});
      table.add_row({"latency p95 (ms)", core::Table::num(slo.p95_ms)});
      table.add_row({"latency p99 (ms)", core::Table::num(slo.p99_ms)});
      table.add_row({"latency p99.9 (ms)", core::Table::num(slo.p999_ms)});
      table.add_row({"miss ratio (lifetime)",
                     core::Table::num(slo.miss_ratio)});
      table.add_row({"miss ratio (window)",
                     core::Table::num(slo.window_miss_ratio)});
      table.add_row({"burn rate (fast)", core::Table::num(slo.fast_burn)});
      table.add_row({"burn rate (slow)", core::Table::num(slo.slow_burn)});
      table.add_row({"sketch error bound",
                     core::Table::num(slo.max_relative_error)});
      table.print(std::cout);
      std::printf("\nrun: ok=%d degraded=%d dropped=%d failed=%d "
                  "retries=%d trips=%d shifts=%d dumps=%zu\n",
                  report.ok, report.degraded, report.dropped, report.failed,
                  report.retries, report.breaker_trips,
                  report.degradation_shifts, report.dumps.size());
    }
    // A record without misses would leave the burn-rate series degenerate
    // and the artifact would silently stop covering the SLO engine.
    FDET_CHECK(slo.misses > 0)
        << "fault plan produced no deadline misses; the SLO artifact "
           "needs a nonzero miss ratio";
  }
  return run.finish();
}
