#include "train/boost.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <optional>

#include "core/artifact.h"
#include "core/check.h"
#include "core/rng.h"
#include "core/stopwatch.h"
#include "core/thread_pool.h"
#include "facegen/background.h"
#include "haar/enumerate.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "train/checkpoint.h"
#include "train/dataset_matrix.h"
#include "train/stump.h"

namespace fdet::train {
namespace {

/// The hypothesis pool, grouped by family as the paper's four parallel
/// loops require.
struct FeaturePool {
  std::vector<haar::HaarFeature> features;        // grouped by type
  std::array<std::pair<int, int>, 4> type_ranges; // [first, last) per family
  std::vector<std::vector<DatasetMatrix::Term>> terms;
};

FeaturePool build_pool(int target_total, std::uint64_t seed) {
  FDET_CHECK(target_total >= 16);
  FeaturePool pool;
  // Split the budget across families proportionally to the full-grid
  // hypothesis counts (edge-heavy, like Table I).
  const std::array<haar::HaarType, 4> types = {
      haar::HaarType::kEdge, haar::HaarType::kLine,
      haar::HaarType::kCenterSurround, haar::HaarType::kDiagonal};
  std::array<std::int64_t, 4> full_counts{};
  std::int64_t full_total = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    full_counts[i] = haar::count_features(types[i]);
    full_total += full_counts[i];
  }
  for (std::size_t i = 0; i < 4; ++i) {
    const int share = std::max(
        4, static_cast<int>(target_total * full_counts[i] / full_total));
    const int first = static_cast<int>(pool.features.size());
    auto sampled = haar::sample_features(types[i], share, seed);
    pool.features.insert(pool.features.end(), sampled.begin(), sampled.end());
    pool.type_ranges[i] = {first, static_cast<int>(pool.features.size())};
  }
  pool.terms.reserve(pool.features.size());
  for (const auto& f : pool.features) {
    pool.terms.push_back(DatasetMatrix::feature_terms(f));
  }
  return pool;
}

/// Chunks per feature loop: fixed, so the per-chunk argmin partials and
/// their merge never depend on the thread count.
constexpr int kFeatureChunks = 64;

/// Host threads for the feature loops: `threads` > 1 runs chunks on a pool
/// of threads - 1 workers plus the calling thread, 1 runs serially on the
/// caller, and 0 (or less) uses the process default pool. Results never
/// depend on the choice: every loop writes per-feature or per-chunk slots
/// that are merged in chunk order.
class FeatureWorkers {
 public:
  explicit FeatureWorkers(int threads) {
    if (threads > 1) {
      own_.emplace(static_cast<std::size_t>(threads - 1));
    }
    pool_ = threads <= 0 ? &core::default_pool()
                         : (own_ ? &*own_ : nullptr);
  }

  /// Runs body(chunk, begin, end) over [0, n) cut into kFeatureChunks
  /// contiguous (possibly empty) chunks.
  void for_chunks(int n, const std::function<void(int, int, int)>& body) const {
    const auto run = [&](std::size_t first, std::size_t last) {
      for (std::size_t c = first; c < last; ++c) {
        const int chunk = static_cast<int>(c);
        body(chunk, chunk * n / kFeatureChunks,
             (chunk + 1) * n / kFeatureChunks);
      }
    };
    if (pool_ == nullptr) {
      run(0, kFeatureChunks);
    } else {
      pool_->parallel_for(kFeatureChunks, run);
    }
  }

 private:
  std::optional<core::ThreadPool> own_;
  core::ThreadPool* pool_ = nullptr;
};

/// Response cache: responses[f][j] = feature f on example j.
std::vector<std::vector<std::int32_t>> cache_responses(
    const DatasetMatrix& matrix, const FeaturePool& pool,
    const FeatureWorkers& workers) {
  std::vector<std::vector<std::int32_t>> responses(pool.features.size());
  const int n = static_cast<int>(pool.features.size());
  workers.for_chunks(n, [&](int, int begin, int end) {
    for (int f = begin; f < end; ++f) {
      responses[static_cast<std::size_t>(f)].resize(
          static_cast<std::size_t>(matrix.cols()));
      matrix.evaluate_terms(pool.terms[static_cast<std::size_t>(f)],
                            responses[static_cast<std::size_t>(f)]);
    }
  });
  return responses;
}

struct RoundBest {
  StumpFit fit;
  int feature = -1;
};

/// True when `a` beats `b`: lower loss, ties to the lower feature index.
bool better(const RoundBest& a, const RoundBest& b) {
  return a.feature >= 0 &&
         (a.fit.loss < b.fit.loss ||
          (a.fit.loss == b.fit.loss && a.feature < b.feature));
}

/// One boosting round: tests every hypothesis (four per-family parallel
/// loops, as in paper Fig. 4) and returns the global best stump.
RoundBest best_stump_round(const FeaturePool& pool,
                           const std::vector<std::vector<std::int32_t>>& responses,
                           std::span<const float> targets,
                           std::span<const double> weights,
                           BoostAlgorithm algorithm, int bins,
                           const FeatureWorkers& workers) {
  RoundBest global;
  global.fit.loss = std::numeric_limits<double>::infinity();

  for (const auto& [first, last] : pool.type_ranges) {
    std::vector<RoundBest> locals(kFeatureChunks);
    workers.for_chunks(last - first, [&](int chunk, int begin, int end) {
      RoundBest& local = locals[static_cast<std::size_t>(chunk)];
      local.fit.loss = std::numeric_limits<double>::infinity();
      for (int f = first + begin; f < first + end; ++f) {
        const auto& r = responses[static_cast<std::size_t>(f)];
        RoundBest candidate;
        candidate.fit = (algorithm == BoostAlgorithm::kGentleBoost)
                            ? fit_gentle_stump(r, targets, weights, bins)
                            : fit_discrete_stump(r, targets, weights, bins);
        candidate.feature = f;
        if (candidate.fit.valid && better(candidate, local)) {
          local = candidate;
        }
      }
    });
    // Chunk-order merge of the per-chunk argmins; the (loss, index)
    // order is total, so the winner never depends on the chunking.
    for (const RoundBest& local : locals) {
      if (better(local, global)) {
        global = local;
      }
    }
  }
  return global;
}

/// Mines negatives: background windows that the cascade-so-far still
/// accepts (the paper's bootstrapping routine). When the cascade has
/// become too selective for the sampling budget, the shortfall is filled
/// with the *hardest* rejected windows seen (deepest cascade penetration,
/// then highest final score) — deep stages keep training against
/// adversarial material instead of trivially-rejectable noise.
std::vector<img::ImageU8> mine_negatives(
    const facegen::TrainingSet& set, const haar::Cascade& cascade_so_far,
    int want, core::Rng& rng) {
  std::vector<img::ImageU8> mined;
  mined.reserve(static_cast<std::size_t>(want));

  struct Rejected {
    img::ImageU8 window;
    int depth;
    float score;
  };
  std::vector<Rejected> rejected;

  const int max_attempts = want * 200;
  for (int attempt = 0; attempt < max_attempts &&
                        static_cast<int>(mined.size()) < want;
       ++attempt) {
    const auto& bg = set.backgrounds[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(set.backgrounds.size()) - 1))];
    img::ImageU8 window = facegen::random_patch(bg, haar::kWindowSize, rng);
    if (cascade_so_far.empty()) {
      mined.push_back(std::move(window));
      continue;
    }
    const auto ii = integral::integral_cpu(window);
    const haar::CascadeResult result = cascade_so_far.evaluate(ii, 0, 0);
    if (result.accepted) {
      mined.push_back(std::move(window));
    } else {
      rejected.push_back({std::move(window), result.depth, result.score});
    }
  }

  if (static_cast<int>(mined.size()) < want) {
    const auto shortfall = static_cast<std::size_t>(
        want - static_cast<int>(mined.size()));
    std::partial_sort(rejected.begin(),
                      rejected.begin() +
                          std::min(shortfall, rejected.size()),
                      rejected.end(), [](const Rejected& a, const Rejected& b) {
                        return a.depth != b.depth ? a.depth > b.depth
                                                  : a.score > b.score;
                      });
    for (std::size_t i = 0; i < rejected.size() &&
                            static_cast<int>(mined.size()) < want;
         ++i) {
      mined.push_back(std::move(rejected[i].window));
    }
  }
  while (static_cast<int>(mined.size()) < want) {
    const auto& bg = set.backgrounds[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(set.backgrounds.size()) - 1))];
    mined.push_back(facegen::random_patch(bg, haar::kWindowSize, rng));
  }
  return mined;
}

}  // namespace

TrainResult train_cascade(const facegen::TrainingSet& set,
                          const TrainOptions& options,
                          const std::string& name) {
  FDET_CHECK(!options.stage_sizes.empty());
  FDET_CHECK(!set.faces.empty() && !set.backgrounds.empty());
  core::Stopwatch total_watch;

  const FeaturePool pool = build_pool(options.feature_pool, options.seed);
  const FeatureWorkers workers(options.threads);
  core::Rng rng(core::hash_combine(options.seed, 0xb005));

  TrainResult result;
  result.cascade = haar::Cascade(name);

  const int total_stages = static_cast<int>(options.stage_sizes.size());
  const std::string digest = train_options_digest(options, name);
  std::optional<CheckpointStore> store;
  int start_stage = 0;
  if (!options.checkpoint_dir.empty()) {
    store.emplace(options.checkpoint_dir, options.checkpoint_keep,
                  options.metrics);
    if (options.resume) {
      const obs::ScopedSpan span("train.checkpoint.resume");
      if (std::optional<TrainCheckpoint> checkpoint =
              store->load_latest(digest)) {
        result.cascade = std::move(checkpoint->cascade);
        result.cascade.set_name(name);
        result.stages = std::move(checkpoint->stats);
        rng.set_state(checkpoint->rng_state);
        start_stage = result.cascade.stage_count();
        std::fprintf(stderr,
                     "[fdet] resuming '%s' from checkpoint: %d/%d stages "
                     "already trained\n",
                     name.c_str(), start_stage, total_stages);
        if (options.metrics != nullptr) {
          options.metrics->gauge("train.checkpoint.resumed_stage")
              .set(start_stage);
        }
      }
    }
  }

  const int pos = static_cast<int>(set.faces.size());

  for (int stage_index = start_stage; stage_index < total_stages;
       ++stage_index) {
    const int stage_size =
        options.stage_sizes[static_cast<std::size_t>(stage_index)];
    const obs::ScopedSpan stage_span("train.stage" +
                                     std::to_string(stage_index));
    core::Stopwatch stage_watch;
    StageStats stats;
    stats.classifiers = stage_size;

    // Assemble this stage's example set: all faces + bootstrapped negatives.
    const std::vector<img::ImageU8> negatives = [&] {
      const obs::ScopedSpan span("train.mine_negatives");
      return mine_negatives(set, result.cascade, options.negatives_per_stage,
                            rng);
    }();
    stats.negatives_mined = static_cast<int>(negatives.size());
    const int neg = static_cast<int>(negatives.size());
    const int n = pos + neg;

    DatasetMatrix matrix(n);
    for (const auto& face : set.faces) {
      matrix.add_window(face.image);
    }
    for (const auto& window : negatives) {
      matrix.add_window(window);
    }
    const auto responses = [&] {
      const obs::ScopedSpan span("train.cache_responses");
      return cache_responses(matrix, pool, workers);
    }();

    std::vector<float> targets(static_cast<std::size_t>(n));
    std::vector<double> weights(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      targets[static_cast<std::size_t>(i)] = (i < pos) ? 1.0f : -1.0f;
      weights[static_cast<std::size_t>(i)] =
          (i < pos) ? 0.5 / pos : 0.5 / neg;
    }

    haar::Stage stage;
    std::vector<double> scores(static_cast<std::size_t>(n), 0.0);

    for (int round = 0; round < stage_size; ++round) {
      const obs::ScopedSpan round_span("train.round");
      const RoundBest best =
          best_stump_round(pool, responses, targets, weights,
                           options.algorithm, options.histogram_bins,
                           workers);
      FDET_CHECK(best.feature >= 0)
          << "no splittable hypothesis in round " << round;

      haar::WeakClassifier wc;
      wc.feature = pool.features[static_cast<std::size_t>(best.feature)];
      wc.threshold = best.fit.threshold;
      if (options.algorithm == BoostAlgorithm::kGentleBoost) {
        wc.left_vote = best.fit.left_vote;
        wc.right_vote = best.fit.right_vote;
      } else {
        // Discrete AdaBoost: vote ±alpha with alpha from the weighted error.
        const double eps = std::clamp(best.fit.loss, 1e-10, 1.0 - 1e-10);
        const auto alpha =
            static_cast<float>(0.5 * std::log((1.0 - eps) / eps));
        wc.left_vote = best.fit.left_vote * alpha;
        wc.right_vote = best.fit.right_vote * alpha;
      }

      // Update weights and running stage scores.
      const auto& r = responses[static_cast<std::size_t>(best.feature)];
      double weight_sum = 0.0;
      for (int i = 0; i < n; ++i) {
        const float h = wc.vote(r[static_cast<std::size_t>(i)]);
        scores[static_cast<std::size_t>(i)] += h;
        weights[static_cast<std::size_t>(i)] *=
            std::exp(-static_cast<double>(targets[static_cast<std::size_t>(i)]) * h);
        weight_sum += weights[static_cast<std::size_t>(i)];
      }
      FDET_CHECK(weight_sum > 0.0);
      for (double& w : weights) {
        w /= weight_sum;
      }
      stage.classifiers.push_back(wc);
    }

    // Stage threshold: keep at least stage_hit_target of the faces, and do
    // not reject more than (1 - stage_fp_floor) of this stage's negatives
    // (the Viola–Jones stage-tuning heuristic) — whichever threshold is
    // lower wins, so the hit target always holds.
    std::vector<double> pos_scores(scores.begin(), scores.begin() + pos);
    std::sort(pos_scores.begin(), pos_scores.end());
    const auto hit_cut = static_cast<std::size_t>(std::floor(
        (1.0 - options.stage_hit_target) * static_cast<double>(pos)));
    double threshold =
        pos_scores[std::min(hit_cut, pos_scores.size() - 1)] - 1e-6;
    if (neg > 0 && options.stage_fp_floor > 0.0) {
      // Stump scores are heavily tied (a handful of distinct vote sums),
      // so a plain quantile can land inside a tie block and keep far more
      // negatives than intended. Scan the distinct score values and pick
      // the threshold whose realized pass fraction is closest to the
      // floor.
      std::vector<double> neg_scores(scores.begin() + pos, scores.end());
      std::sort(neg_scores.begin(), neg_scores.end());
      double fp_threshold = neg_scores.front();
      double best_gap = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < neg_scores.size();) {
        const double value = neg_scores[i];
        const double pass_fraction =
            static_cast<double>(neg_scores.size() - i) /
            static_cast<double>(neg_scores.size());
        const double gap = std::abs(pass_fraction - options.stage_fp_floor);
        if (gap < best_gap) {
          best_gap = gap;
          fp_threshold = value;
        }
        while (i < neg_scores.size() && neg_scores[i] == value) {
          ++i;
        }
      }
      threshold = std::min(threshold, fp_threshold);
    }
    stage.threshold = static_cast<float>(threshold);

    int hits = 0;
    int false_accepts = 0;
    for (int i = 0; i < n; ++i) {
      const bool pass = scores[static_cast<std::size_t>(i)] >= stage.threshold;
      if (i < pos) {
        hits += pass;
      } else {
        false_accepts += pass;
      }
    }
    stats.hit_rate = static_cast<double>(hits) / pos;
    stats.false_positive_rate =
        neg > 0 ? static_cast<double>(false_accepts) / neg : 0.0;
    stats.seconds = stage_watch.elapsed_seconds();

    result.cascade.add_stage(std::move(stage));
    result.stages.push_back(stats);

    if (store) {
      const obs::ScopedSpan save_span("train.checkpoint.save");
      TrainCheckpoint checkpoint;
      checkpoint.options_digest = digest;
      checkpoint.name = name;
      checkpoint.rng_state = rng.state();
      checkpoint.total_stages = total_stages;
      checkpoint.cascade = result.cascade;
      checkpoint.stats = result.stages;
      checkpoint.weights = weights;
      try {
        store->save(checkpoint);
        if (options.metrics != nullptr) {
          options.metrics->counter("train.checkpoint.saved").increment();
        }
      } catch (const core::ArtifactError& error) {
        // Non-fatal by design: the atomic write left every previous
        // checkpoint intact, so training keeps going and the run stays
        // resumable from the last durable stage.
        std::fprintf(stderr,
                     "[fdet] checkpoint save after stage %d failed "
                     "(training continues): %s\n",
                     stage_index, error.what());
        if (options.metrics != nullptr) {
          options.metrics->counter("train.checkpoint.save_failed")
              .increment();
        }
      }
    }
    if (options.after_stage) {
      options.after_stage(stage_index);
    }
  }

  result.total_seconds = total_watch.elapsed_seconds();
  return result;
}

double boosting_iteration_seconds(const facegen::TrainingSet& set,
                                  int feature_pool, int threads,
                                  std::uint64_t seed) {
  const FeaturePool pool = build_pool(feature_pool, seed);
  const int pos = static_cast<int>(set.faces.size());
  core::Rng rng(core::hash_combine(seed, 0x17e2));

  DatasetMatrix matrix(pos * 2);
  for (const auto& face : set.faces) {
    matrix.add_window(face.image);
  }
  for (int i = 0; i < pos; ++i) {
    const auto& bg = set.backgrounds[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(set.backgrounds.size()) - 1))];
    matrix.add_window(facegen::random_patch(bg, haar::kWindowSize, rng));
  }
  const int n = matrix.cols();
  std::vector<float> targets(static_cast<std::size_t>(n));
  std::vector<double> weights(static_cast<std::size_t>(n), 1.0 / n);
  for (int i = 0; i < n; ++i) {
    targets[static_cast<std::size_t>(i)] = (i < pos) ? 1.0f : -1.0f;
  }

  // The measured unit: evaluate every hypothesis on every example and fit
  // its stump (response evaluation + regression, as in paper Fig. 4).
  const FeatureWorkers workers(threads);
  core::Stopwatch watch;
  const int total = static_cast<int>(pool.features.size());
  std::vector<double> losses(static_cast<std::size_t>(total), 0.0);
  workers.for_chunks(total, [&](int, int begin, int end) {
    std::vector<std::int32_t> eval(static_cast<std::size_t>(n));
    for (int f = begin; f < end; ++f) {
      matrix.evaluate_terms(pool.terms[static_cast<std::size_t>(f)], eval);
      const StumpFit fit = fit_gentle_stump(eval, targets, weights);
      losses[static_cast<std::size_t>(f)] = fit.valid ? fit.loss : 1e30;
    }
  });
  return watch.elapsed_seconds();
}

}  // namespace fdet::train
