// Regression tests for the LaunchTap seam (vgpu/tap.h): the dynamic
// checker and the static analyzer's capture engine are both taps on the
// launch-observer stack, and the innermost one owns a launch. With a
// checker opened inside a capture scope the CHECKER wins — capture must
// observe nothing except a shadowed-launch notification. This precedence
// is load-bearing: fdet_check's hazard reports must not change because a
// capture scope happens to be open somewhere up the stack.
#include "vgpu/tap.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "analyze/capture.h"
#include "vgpu/checker.h"
#include "vgpu/kernel.h"

namespace fdet::analyze {
namespace {

using vgpu::CheckScope;
using vgpu::KernelConfig;
using vgpu::LaneCtx;
using vgpu::SharedMem;
using vgpu::ThreadCoord;

const vgpu::DeviceSpec kSpec;
const KernelConfig kConfig{.name = "tapped",
                           .grid = {1, 1, 1},
                           .block = {32, 1, 1},
                           .shared_bytes = 32 * 4};

void launch_once() {
  vgpu::execute_kernel(
      kSpec, kConfig,
      [](const ThreadCoord& t, LaneCtx& ctx, SharedMem& shared) {
        auto tile = shared.array<std::int32_t>(32);
        const auto lane = static_cast<std::size_t>(t.thread.x);
        tile[lane] = t.thread.x;
        ctx.shared_store_at(shared, tile[lane]);
      });
}

TEST(LaunchTap, CaptureAloneObservesTheLaunch) {
  CaptureScope scope;
  launch_once();
  EXPECT_EQ(scope.engine().captures().size(), 1u);
  EXPECT_EQ(scope.shadowed_launches(), 0);
}

TEST(LaunchTap, CheckerShadowsCapture) {
  CaptureScope capture;
  {
    // Checker opened INSIDE the capture scope: for launches under both,
    // the checker takes the tap hooks and capture only counts shadows.
    CheckScope check;
    launch_once();
    EXPECT_EQ(check.reports().size(), 1u);
    EXPECT_TRUE(check.clean());
  }
  EXPECT_EQ(capture.engine().captures().size(), 0u);
  EXPECT_EQ(capture.shadowed_launches(), 1);

  // Once the checker closes, the same capture scope sees launches again.
  launch_once();
  EXPECT_EQ(capture.engine().captures().size(), 1u);
  EXPECT_EQ(capture.shadowed_launches(), 1);
}

TEST(LaunchTap, CheckerReportsAreIdenticalUnderCapture) {
  // A hazardous kernel (same-phase write/read race) must produce the same
  // hazard count whether or not a capture scope surrounds the check —
  // the precedence rule means capture cannot perturb verification.
  const auto racy = [](const ThreadCoord& t, LaneCtx& ctx, SharedMem&) {
    const auto self = static_cast<std::size_t>(t.thread.x);
    const std::size_t next = (self + 1) % 32;
    ctx.shared_store(self * 4, 4);
    ctx.shared_load(next * 4, 4);  // neighbour's slot, no barrier between
  };

  std::size_t hazards_plain = 0;
  {
    CheckScope check;
    vgpu::execute_kernel(kSpec, kConfig, racy);
    hazards_plain = check.hazard_count();
  }
  EXPECT_GT(hazards_plain, 0u);

  std::size_t hazards_shadowed = 0;
  {
    CaptureScope capture;
    CheckScope check;
    vgpu::execute_kernel(kSpec, kConfig, racy);
    hazards_shadowed = check.hazard_count();
    EXPECT_EQ(capture.engine().captures().size(), 0u);
  }
  EXPECT_EQ(hazards_shadowed, hazards_plain);
}

TEST(LaunchTap, CaptureKernelsReportsShadowedLaunches) {
  int shadowed = 0;
  const std::vector<KernelIR> irs = capture_kernels(
      [](std::uint64_t /*seed*/) {
        CheckScope check;  // the driver itself opens a checker
        launch_once();
      },
      0x5eed0001, 0x5eed0002, CaptureOptions{}, &shadowed);
  EXPECT_TRUE(irs.empty());
  EXPECT_EQ(shadowed, 2);  // one shadowed launch per capture seed
}

TEST(LaunchTap, ScopesRestorePreviousTap) {
  CaptureScope outer;
  {
    CaptureScope inner;
    launch_once();
    EXPECT_EQ(inner.engine().captures().size(), 1u);
    EXPECT_EQ(outer.engine().captures().size(), 0u);
    EXPECT_EQ(outer.shadowed_launches(), 1);
  }
  launch_once();
  EXPECT_EQ(outer.engine().captures().size(), 1u);
}

}  // namespace
}  // namespace fdet::analyze
