// Golden cost digest: every production kernel, launched over the
// fdet_check / fdet_lint geometry sweep (the analyze/registry.h targets at
// the base and the odd-sized geometry, plus the rotated integral and one
// full Pipeline::process frame), must produce bit-for-bit the LaunchCost
// and PerfCounters recorded in tests/data/cost_digest.golden.
//
// The digest hashes the bit patterns of every field, so any change to the
// executor's accounting — reordered floating-point sums included — shows
// up here. A change that is meant to move the modeled numbers regenerates
// the golden file (the failure message prints the new lines) in its own
// commit.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/registry.h"
#include "core/rng.h"
#include "detect/pipeline.h"
#include "img/image.h"
#include "integral/rotated.h"
#include "train/pretrained.h"
#include "video/decoder.h"
#include "video/trailer.h"
#include "vgpu/kernel.h"

namespace fdet::analyze {
namespace {

/// 64-bit FNV-1a over the launches seen while alive.
class CostDigest {
 public:
  CostDigest()
      : hook_([this](const vgpu::DeviceSpec&, const vgpu::LaunchCost& cost) {
          add(cost);
        }) {}

  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }
  int launches() const { return launches_; }

 private:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h_ = (h_ ^ p[i]) * 1099511628211ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void dim(const vgpu::Dim3& d) {
    i64(d.x);
    i64(d.y);
    i64(d.z);
  }

  void add(const vgpu::LaunchCost& cost) {
    ++launches_;
    const vgpu::KernelConfig& c = cost.config;
    bytes(c.name.data(), c.name.size());
    dim(c.grid);
    dim(c.block);
    i64(c.shared_bytes);
    i64(c.regs_per_thread);
    i64(c.track_branches ? 1 : 0);
    i64(c.constant_broadcast ? 1 : 0);
    i64(c.constant_bytes);

    i64(cost.occupancy.blocks_per_sm);
    i64(cost.occupancy.warps_per_block);
    i64(cost.occupancy.resident_warps);
    f64(cost.occupancy.ratio);

    u64(cost.block_service_cycles.size());
    for (const double cycles : cost.block_service_cycles) {
      f64(cycles);
    }
    f64(cost.total_service_cycles);

    const vgpu::PerfCounters& k = cost.counters;
    for (const std::uint64_t v :
         {k.threads, k.warps, k.warp_branches, k.divergent_branches,
          k.global_read_bytes, k.global_write_bytes, k.global_transactions,
          k.alu_ops, k.fma_ops, k.sfu_ops, k.shared_accesses,
          k.constant_accesses, k.texture_fetches, k.bank_conflicts}) {
      u64(v);
    }
    for (const double v :
         {k.lane_issue_cycles, k.warp_issue_cycles, k.issue_service_cycles,
          k.stall_service_cycles, k.stall_base_cycles, k.divergence_cycles,
          k.bank_conflict_cycles}) {
      f64(v);
    }
  }

  std::uint64_t h_ = 1469598103934665603ULL;
  int launches_ = 0;
  vgpu::ScopedKernelProfileHook hook_;
};

img::ImageU8 random_image(int w, int h, std::uint64_t seed) {
  core::Rng rng(seed);
  img::ImageU8 im(w, h);
  for (auto& p : im.pixels()) {
    p = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  return im;
}

/// One "<label> <digest> <launches>" line per target, geometry and seed.
std::vector<std::string> digest_lines() {
  // fdet_check's geometry, and fdet_lint's base + odd sweep of it.
  const std::vector<std::pair<int, int>> geometries = {{96, 72}, {101, 69}};
  const std::vector<std::uint64_t> seeds = {1, 42};
  std::vector<std::string> lines;
  const auto record = [&lines](const std::string& label,
                               const CostDigest& digest) {
    lines.push_back(label + " " + digest.hex() + " " +
                    std::to_string(digest.launches()));
  };

  for (const auto& [w, h] : geometries) {
    const std::string geometry = std::to_string(w) + "x" + std::to_string(h);
    for (const std::uint64_t seed : seeds) {
      const std::string suffix = " " + geometry + " seed" + std::to_string(seed);
      for (LintTarget& target : production_targets(w, h)) {
        CostDigest digest;
        target.driver(seed);
        record(target.name + suffix, digest);
      }
      CostDigest digest;
      integral::rotated_integral_gpu(vgpu::DeviceSpec{},
                                     random_image(w, h, seed));
      record("rotated-integral" + suffix, digest);
    }
  }

  // One full frame through the production pipeline with the committed
  // cascade: deep, divergent cascade walks over a real scene.
  const std::optional<train::CascadePair> pair = train::load_cached_pair(
      std::string(FDET_SOURCE_DIR) + "/fdet_cache", train::PretrainedOptions{});
  if (!pair) {
    ADD_FAILURE() << "committed cascade cache missing from fdet_cache/";
    return lines;
  }
  const video::SyntheticTrailer trailer(video::table2_trailers(8, 320, 180)[1]);
  const video::MockH264Decoder decoder(trailer);
  const vgpu::DeviceSpec spec;
  const detect::Pipeline pipeline(spec, pair->ours, detect::PipelineOptions{});
  CostDigest digest;
  pipeline.process(decoder.decode(3).frame.luma());
  record("pipeline 320x180 frame3", digest);
  return lines;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line.front() != '#') {
      lines.push_back(line);
    }
  }
  return lines;
}

TEST(CostDigest, ProductionKernelsMatchGolden) {
  const std::string path =
      std::string(FDET_SOURCE_DIR) + "/tests/data/cost_digest.golden";
  const std::vector<std::string> actual = digest_lines();
  const std::vector<std::string> golden = read_lines(path);
  std::ostringstream dump;
  for (const std::string& line : actual) {
    dump << line << "\n";
  }
  EXPECT_EQ(actual, golden) << "LaunchCost/PerfCounters digest differs from "
                            << path << "; this build produces:\n"
                            << dump.str();
}

}  // namespace
}  // namespace fdet::analyze
