// Crash-consistent trainer checkpoints: digest semantics, bit-exact
// (de)serialization, rotation, corrupt-fallback/quarantine, the resume
// identity invariant, and trainer determinism across thread counts (the
// precondition that lets a checkpoint taken at N threads resume at 1).
#include "train/checkpoint.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/artifact.h"
#include "facegen/dataset.h"
#include "haar/profile.h"
#include "obs/metrics.h"
#include "train/boost.h"

namespace fdet::train {
namespace {

namespace fs = std::filesystem;

std::string temp_dir(const std::string& name) {
  const std::string dir = (fs::temp_directory_path() / name).string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TrainOptions small_options() {
  TrainOptions options;
  options.stage_sizes = {2, 3};
  options.feature_pool = 80;
  options.negatives_per_stage = 60;
  options.stage_hit_target = 0.99;
  options.seed = 7;
  return options;
}

TEST(TrainOptionsDigest, StableForIdenticalOptions) {
  EXPECT_EQ(train_options_digest(small_options(), "a"),
            train_options_digest(small_options(), "a"));
}

TEST(TrainOptionsDigest, ChangesWithTrainingShapingFields) {
  const TrainOptions base = small_options();
  const std::string base_digest = train_options_digest(base, "a");

  TrainOptions variant = base;
  variant.seed += 1;
  EXPECT_NE(train_options_digest(variant, "a"), base_digest);

  variant = base;
  variant.algorithm = BoostAlgorithm::kAdaBoost;
  EXPECT_NE(train_options_digest(variant, "a"), base_digest);

  variant = base;
  variant.stage_sizes.push_back(4);
  EXPECT_NE(train_options_digest(variant, "a"), base_digest);

  variant = base;
  variant.feature_pool += 1;
  EXPECT_NE(train_options_digest(variant, "a"), base_digest);

  variant = base;
  variant.negatives_per_stage += 1;
  EXPECT_NE(train_options_digest(variant, "a"), base_digest);

  variant = base;
  variant.stage_hit_target += 0.001;
  EXPECT_NE(train_options_digest(variant, "a"), base_digest);

  EXPECT_NE(train_options_digest(base, "other-name"), base_digest);
}

TEST(TrainOptionsDigest, IgnoresExecutionOnlyFields) {
  // Thread count must not shape the digest: the trainer is deterministic
  // across thread counts (pinned below), so a checkpoint written by an
  // 8-thread run resumes under 1 thread.
  const TrainOptions base = small_options();
  TrainOptions variant = base;
  variant.threads = 8;
  variant.checkpoint_dir = "/somewhere/else";
  variant.checkpoint_keep = 99;
  variant.resume = false;
  EXPECT_EQ(train_options_digest(variant, "a"),
            train_options_digest(base, "a"));
}

TrainCheckpoint sample_checkpoint(int stages) {
  TrainCheckpoint checkpoint;
  checkpoint.options_digest = "deadbeefcafef00d";
  checkpoint.name = "roundtrip";
  checkpoint.rng_state = {0x0123456789abcdefULL, 0xfedcba9876543210ULL, 1ULL,
                          0x8000000000000000ULL};
  checkpoint.total_stages = 25;
  checkpoint.cascade = haar::build_profile_cascade(
      "roundtrip", std::vector<int>(static_cast<std::size_t>(stages), 2), 3);
  for (int s = 0; s < stages; ++s) {
    StageStats stats;
    stats.classifiers = 2;
    stats.hit_rate = 0.1 + s;  // 0.1 is not exactly representable: a
                               // decimal-formatting round trip would drift
    stats.false_positive_rate = 1.0 / 3.0;
    stats.negatives_mined = 60 + s;
    stats.seconds = 1e-9;
    checkpoint.stats.push_back(stats);
  }
  checkpoint.weights = {1.0 / 3.0, 0.1, 1e-300, 2.5e300, 0.0};
  return checkpoint;
}

TEST(Checkpoint, SerializationRoundTripsBitExactly) {
  const TrainCheckpoint original = sample_checkpoint(3);
  const std::string payload = serialize_checkpoint(original);
  const TrainCheckpoint parsed = parse_checkpoint("mem", payload);

  EXPECT_EQ(parsed.options_digest, original.options_digest);
  EXPECT_EQ(parsed.name, original.name);
  EXPECT_EQ(parsed.rng_state, original.rng_state);
  EXPECT_EQ(parsed.total_stages, original.total_stages);
  EXPECT_EQ(parsed.stages_done(), 3);
  EXPECT_EQ(haar::cascade_to_string(parsed.cascade),
            haar::cascade_to_string(original.cascade));
  ASSERT_EQ(parsed.stats.size(), original.stats.size());
  for (std::size_t s = 0; s < original.stats.size(); ++s) {
    EXPECT_EQ(parsed.stats[s].classifiers, original.stats[s].classifiers);
    // Doubles travel as hex bit patterns: exact equality is the contract.
    EXPECT_EQ(parsed.stats[s].hit_rate, original.stats[s].hit_rate);
    EXPECT_EQ(parsed.stats[s].false_positive_rate,
              original.stats[s].false_positive_rate);
    EXPECT_EQ(parsed.stats[s].negatives_mined,
              original.stats[s].negatives_mined);
    EXPECT_EQ(parsed.stats[s].seconds, original.stats[s].seconds);
  }
  EXPECT_EQ(parsed.weights, original.weights);

  // And the round trip is stable: re-serializing reproduces the bytes.
  EXPECT_EQ(serialize_checkpoint(parsed), payload);
}

TEST(Checkpoint, ParserRejectsCorruptPayloads) {
  const std::string payload = serialize_checkpoint(sample_checkpoint(2));
  EXPECT_THROW(parse_checkpoint("mem", ""), core::ArtifactError);
  EXPECT_THROW(parse_checkpoint("mem", payload.substr(0, payload.size() / 2)),
               core::ArtifactError);
  EXPECT_THROW(parse_checkpoint("mem", payload + "trailing garbage\n"),
               core::ArtifactError);
}

TEST(CheckpointStore, RotationKeepsNewestK) {
  const std::string dir = temp_dir("fdet_ckpt_rotation");
  CheckpointStore store(dir, /*keep=*/2);
  for (int stages = 1; stages <= 4; ++stages) {
    store.save(sample_checkpoint(stages));
  }
  EXPECT_EQ(store.stages_on_disk(), (std::vector<int>{3, 4}));
  fs::remove_all(dir);
}

TEST(CheckpointStore, CorruptNewestQuarantinedAndFallsBack) {
  const std::string dir = temp_dir("fdet_ckpt_corrupt");
  obs::Registry metrics;
  CheckpointStore store(dir, /*keep=*/3, &metrics);
  store.save(sample_checkpoint(1));
  store.save(sample_checkpoint(2));

  // Flip a payload byte in the newest checkpoint, bypassing the artifact
  // layer the way bit rot would.
  const std::string victim = store.path_for(2);
  std::string bytes;
  {
    std::ifstream in(victim, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = std::move(buffer).str();
  }
  ASSERT_GT(bytes.size(), 16u);
  bytes[bytes.size() - 10] ^= 0x40;
  {
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  const auto resumed = store.load_latest("deadbeefcafef00d");
  ASSERT_TRUE(resumed.has_value());
  EXPECT_EQ(resumed->stages_done(), 1);  // fell back past the corrupt one
  EXPECT_FALSE(fs::exists(victim));
  EXPECT_TRUE(fs::exists(victim + ".corrupt"));
  EXPECT_EQ(metrics.counter("train.checkpoint.corrupt_quarantined").value(),
            1.0);
  fs::remove_all(dir);
}

TEST(CheckpointStore, StaleDigestSkippedWithoutQuarantine) {
  const std::string dir = temp_dir("fdet_ckpt_stale");
  obs::Registry metrics;
  CheckpointStore store(dir, /*keep=*/3, &metrics);
  store.save(sample_checkpoint(1));

  EXPECT_FALSE(store.load_latest("a-different-digest").has_value());
  // The file is intact — just for another run — so it is skipped, not
  // quarantined: the run that owns it may still want it.
  EXPECT_TRUE(fs::exists(store.path_for(1)));
  EXPECT_EQ(metrics.counter("train.checkpoint.stale_skipped").value(), 1.0);
  fs::remove_all(dir);
}

TEST(CheckpointStore, EmptyOrMissingDirectoryYieldsNothing) {
  CheckpointStore store((fs::temp_directory_path() / "fdet_ckpt_never_made")
                            .string());
  EXPECT_FALSE(store.load_latest("any").has_value());
  EXPECT_TRUE(store.stages_on_disk().empty());
}

// ---------------------------------------------------------------------------
// End-to-end invariants on a deliberately tiny training run.

struct SimulatedCrash : std::runtime_error {
  SimulatedCrash() : std::runtime_error("simulated crash") {}
};

TEST(TrainResume, KilledRunResumesBitIdentically) {
  const facegen::TrainingSet set = facegen::build_training_set(60, 10, 48, 7);
  const std::string dir = temp_dir("fdet_ckpt_resume");

  TrainOptions reference_options = small_options();
  const std::string reference =
      haar::cascade_to_string(train_cascade(set, reference_options, "tiny")
                                  .cascade);

  TrainOptions killed = small_options();
  killed.checkpoint_dir = dir;
  killed.after_stage = [](int stage) {
    if (stage == 0) {
      throw SimulatedCrash();
    }
  };
  EXPECT_THROW(train_cascade(set, killed, "tiny"), SimulatedCrash);

  obs::Registry metrics;
  TrainOptions resumed = small_options();
  resumed.checkpoint_dir = dir;
  resumed.metrics = &metrics;
  const TrainResult result = train_cascade(set, resumed, "tiny");
  EXPECT_EQ(haar::cascade_to_string(result.cascade), reference);
  EXPECT_EQ(metrics.gauge("train.checkpoint.resumed_stage").value(), 1.0);
  fs::remove_all(dir);
}

TEST(TrainDeterminism, ThreadCountDoesNotChangeTheCascade) {
  // The satellite invariant behind excluding `threads` from the digest:
  // the feature argmin keeps one partial per fixed chunk and merges them in
  // chunk order (loss, then feature index), so any thread count
  // reproduces the same cascade.
  const facegen::TrainingSet set = facegen::build_training_set(60, 10, 48, 7);

  std::string baseline;
  for (const int threads : {1, 3}) {
    TrainOptions options = small_options();
    options.threads = threads;
    const std::string text =
        haar::cascade_to_string(train_cascade(set, options, "tiny").cascade);
    if (baseline.empty()) {
      baseline = text;
    } else {
      EXPECT_EQ(text, baseline)
          << "cascade diverged between 1 and " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace fdet::train
