// Fig. 8: execution time of one GentleBoost iteration vs thread count on
// the two SMP platforms of the paper (dual Xeon E5472 and Core i7-2600K).
//
// The reproduction host may be single-core, so the figure's numbers come
// from the calibrated SMP model (Amdahl + bandwidth ceiling, see
// train/smp_model.h); the real thread-pool training loop is exercised and its
// measured wall time reported alongside for reference.
#include <thread>

#include "bench_common.h"
#include "facegen/dataset.h"
#include "haar/enumerate.h"
#include "train/boost.h"
#include "train/smp_model.h"

int main(int argc, char** argv) {
  using namespace fdet;
  int faces = 400;
  int pool = 800;
  int max_threads = 8;
  bench::RunRecorder run("fig8");
  core::Cli cli("bench_fig8_training_scalability");
  cli.flag("faces", faces, "training faces for the measured iteration");
  cli.flag("pool", pool, "hypothesis pool for the measured iteration");
  cli.flag("max-threads", max_threads, "thread sweep upper bound");
  run.add_flags(cli);
  if (!cli.parse(argc, argv)) {
    return 1;
  }
  bench::print_header("Fig. 8",
                      "one parallel GentleBoost iteration vs threads");

  const train::SmpPlatform xeon = train::dual_xeon_e5472();
  const train::SmpPlatform i7 = train::core_i7_2600k();

  std::printf("modeled iteration time (full workload: %lld hypotheses x\n"
              "11742+3500 images, as in the paper):\n\n",
              static_cast<long long>(haar::kPaperCombinations.total()));
  core::Table table({"threads", "Dual Xeon E5472 (s)", "Core i7-2600K (s)",
                     "Xeon speedup", "i7 speedup"});
  for (int t = 1; t <= max_threads; ++t) {
    table.add_row({std::to_string(t),
                   core::Table::num(xeon.iteration_seconds(t), 1),
                   core::Table::num(i7.iteration_seconds(t), 1),
                   core::Table::num(xeon.speedup(t), 2),
                   core::Table::num(i7.speedup(t), 2)});
    run.metrics()
        .gauge("train.modeled_iteration_s",
               {{"platform", "xeon_e5472"}, {"threads", std::to_string(t)}})
        .set(xeon.iteration_seconds(t));
    run.metrics()
        .gauge("train.modeled_iteration_s",
               {{"platform", "i7_2600k"}, {"threads", std::to_string(t)}})
        .set(i7.iteration_seconds(t));
  }
  table.print(std::cout);
  std::printf("\npaper: ~3.5x speedup at 8 threads on both platforms; the\n"
              "i7-2600K is ~2x faster than the dual Xeon per thread.\n");

  // Real thread-pool measurement on this host (scaled-down workload).
  std::printf("\nmeasured on this host (thread pool, %d hypotheses x %d images —\n"
              "wall time is hardware-dependent and flat on a 1-core host):\n\n",
              pool, 2 * faces);
  const facegen::TrainingSet set =
      facegen::build_training_set(faces, 40, 64, 8);
  core::Table measured({"threads", "iteration (s)"});
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  for (int t = 1; t <= std::min(max_threads, std::max(1, hw) * 2); t *= 2) {
    const double seconds = train::boosting_iteration_seconds(set, pool, t, 3);
    run.metrics()
        .gauge("train.measured_iteration_s", {{"threads", std::to_string(t)}})
        .set(seconds);
    measured.add_row({std::to_string(t), core::Table::num(seconds, 3)});
  }
  measured.print(std::cout);
  return run.finish();
}
