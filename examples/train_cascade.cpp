// Cascade training scenario: boost a cascade with either GentleBoost or
// discrete AdaBoost (paper Sec. IV), watch per-stage hit / false-positive
// rates and bootstrapping behaviour, evaluate on held-out data, and save
// the result as a portable .cascade file.
//
//   ./example_train_cascade --algorithm gentle --stages 8 --out my.cascade
#include <cstdio>

#include "core/cli.h"
#include "core/rng.h"
#include "facegen/dataset.h"
#include "haar/profile.h"
#include "integral/integral.h"
#include "train/boost.h"

int main(int argc, char** argv) {
  using namespace fdet;
  int faces = 600;
  int stages = 8;
  int pool = 600;
  int threads = 0;
  std::string algorithm = "gentle";
  std::string out = "trained.cascade";
  std::string checkpoint_dir;
  bool resume = true;
  core::Cli cli("train_cascade");
  cli.flag("faces", faces, "training faces");
  cli.flag("stages", stages, "cascade stages");
  cli.flag("pool", pool, "hypothesis pool size");
  cli.flag("threads", threads, "host threads (0 = one per CPU)");
  cli.flag("algorithm", algorithm, "'gentle' or 'ada'");
  cli.flag("out", out, "output cascade file");
  cli.flag("checkpoint-dir", checkpoint_dir,
           "persist a checkpoint after every stage into this directory "
           "(empty = off)");
  cli.flag("resume", resume,
           "resume from the newest matching checkpoint in --checkpoint-dir");
  if (!cli.parse(argc, argv)) {
    return 1;
  }

  const facegen::TrainingSet set =
      facegen::build_training_set(faces, 120, 96, /*seed=*/2012);

  train::TrainOptions options;
  // Stage sizes follow the paper's growth profile, scaled down.
  const auto reference = haar::opencv_frontal_profile();
  options.stage_sizes.assign(reference.begin(), reference.begin() + stages);
  for (int& size : options.stage_sizes) {
    size = std::max(2, size / 2);
  }
  options.algorithm = (algorithm == "ada") ? train::BoostAlgorithm::kAdaBoost
                                           : train::BoostAlgorithm::kGentleBoost;
  options.feature_pool = pool;
  options.negatives_per_stage = 600;
  options.seed = 2012;
  options.threads = threads;
  // With --checkpoint-dir, a killed run (Ctrl-C, OOM, power loss) restarts
  // from the last completed stage and still produces the byte-identical
  // cascade an uninterrupted run would have — see DESIGN.md §7.
  options.checkpoint_dir = checkpoint_dir;
  options.resume = resume;

  std::printf("training %d stages with %s on %d faces / %zu backgrounds...\n",
              stages, algorithm.c_str(), faces, set.backgrounds.size());
  const train::TrainResult result =
      train::train_cascade(set, options, "example-" + algorithm);

  std::printf("\n%-6s %-11s %-10s %-10s %-10s %s\n", "stage", "classifiers",
              "hit rate", "fp rate", "negatives", "seconds");
  for (std::size_t s = 0; s < result.stages.size(); ++s) {
    const auto& st = result.stages[s];
    std::printf("%-6zu %-11d %-10.4f %-10.4f %-10d %.1f\n", s + 1,
                st.classifiers, st.hit_rate, st.false_positive_rate,
                st.negatives_mined, st.seconds);
  }
  std::printf("total: %d classifiers in %.1f s\n",
              result.cascade.classifier_count(), result.total_seconds);

  // Held-out evaluation.
  core::Rng rng(4242);
  int face_hits = 0;
  constexpr int kHoldout = 200;
  for (int i = 0; i < kHoldout; ++i) {
    const auto face = facegen::random_training_face(rng);
    face_hits += result.cascade
                     .evaluate(integral::integral_cpu(face.image), 0, 0)
                     .accepted;
  }
  int bg_hits = 0;
  for (int i = 0; i < kHoldout; ++i) {
    const auto bg = facegen::render_background(24, 24, rng);
    bg_hits += result.cascade
                   .evaluate(integral::integral_cpu(bg), 0, 0)
                   .accepted;
  }
  std::printf("\nheld-out: faces accepted %d/%d, background windows accepted "
              "%d/%d\n", face_hits, kHoldout, bg_hits, kHoldout);

  haar::save_cascade(out, result.cascade);
  std::printf("saved to %s (reload with haar::load_cascade)\n", out.c_str());
  return 0;
}
