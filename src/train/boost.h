// Boosted-cascade training (paper Sec. IV).
//
// The trainer follows the paper's structure: one large outer loop builds
// the cascade stage by stage; inside a stage, every boosting round tests
// the whole feature pool — four parallel loops on core::ThreadPool, one per
// Haar family exactly as in Fig. 4 — against the current example weights,
// fits a stump per hypothesis on the cached response matrix (the SSE4
// data-parallel layer lives in DatasetMatrix::evaluate_terms), and keeps
// the best. A
// bootstrapping pass after each stage re-mines hard negatives: background
// windows that still pass the cascade built so far.
//
// Algorithms: GentleBoost (the paper's compact cascade) and discrete
// AdaBoost (the OpenCV-style baseline).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "facegen/dataset.h"
#include "haar/cascade.h"

namespace fdet::obs {
class Registry;
}

namespace fdet::train {

enum class BoostAlgorithm { kGentleBoost, kAdaBoost };

/// Trainer algorithm version: bump when training-time behaviour changes,
/// so disk-cached cascades (train/pretrained.h) are invalidated.
inline constexpr int kTrainerVersion = 3;

struct TrainOptions {
  std::vector<int> stage_sizes;       ///< weak classifiers per stage
  BoostAlgorithm algorithm = BoostAlgorithm::kGentleBoost;
  int feature_pool = 2000;            ///< sampled hypotheses (all families)
  int negatives_per_stage = 1500;     ///< bootstrapped negatives per stage
  double stage_hit_target = 0.995;    ///< min fraction of faces kept per stage
  /// Minimum fraction of this stage's (bootstrapped) negatives the stage
  /// must still pass — the classic Viola–Jones per-stage false-positive
  /// target that stops a stage from over-tightening to its training set
  /// and destroying generalization. The attentional filtering then comes
  /// from stage *composition*, exactly as in the paper's 25-stage design.
  double stage_fp_floor = 0.55;
  int histogram_bins = 64;
  /// Host threads for the feature loops (caller included); 0 = the
  /// process default pool (core::default_pool).
  int threads = 0;
  std::uint64_t seed = 1;

  // --- durability (train/checkpoint.h) -----------------------------------
  /// When non-empty, a checkpoint is persisted into this directory after
  /// every completed stage (atomic, CRC-framed, last-`checkpoint_keep`
  /// rotation) and — with `resume` — training continues from the newest
  /// intact checkpoint whose options digest matches. The invariant: a
  /// resumed run produces a bit-identical final cascade to an
  /// uninterrupted one, regardless of which stage a crash landed on and
  /// of thread count.
  std::string checkpoint_dir;
  int checkpoint_keep = 3;
  bool resume = true;
  /// Optional metrics sink for train.checkpoint.* counters/gauges.
  obs::Registry* metrics = nullptr;
  /// Test seam: invoked after each stage is trained and checkpointed
  /// (argument = completed-stage index). The chaos harness throws from
  /// here to simulate a crash at a stage boundary. Not part of the digest.
  std::function<void(int)> after_stage;
};

struct StageStats {
  int classifiers = 0;
  double hit_rate = 0.0;        ///< achieved on the training positives
  double false_positive_rate = 0.0;  ///< on the stage's negatives
  int negatives_mined = 0;
  double seconds = 0.0;         ///< wall time of the stage
};

struct TrainResult {
  haar::Cascade cascade;
  std::vector<StageStats> stages;
  double total_seconds = 0.0;
};

/// Trains a cascade on a synthetic training set. Deterministic given
/// options.seed, whatever options.threads is: each feature loop keeps one
/// argmin per fixed chunk and merges them in chunk order by (loss, then
/// feature index).
TrainResult train_cascade(const facegen::TrainingSet& set,
                          const TrainOptions& options,
                          const std::string& name);

/// One boosting iteration over a full hypothesis pool — the unit of work
/// Fig. 8 measures. Returns the wall seconds of the iteration.
double boosting_iteration_seconds(const facegen::TrainingSet& set,
                                  int feature_pool, int threads,
                                  std::uint64_t seed);

}  // namespace fdet::train
