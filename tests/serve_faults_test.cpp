#include "serve/faults.h"

#include <gtest/gtest.h>

#include "core/check.h"
#include "vgpu/kernel.h"
#include "vgpu/scheduler.h"

namespace fdet::serve {
namespace {

TEST(FaultPlan, ParsesEveryKindAndRoundTrips) {
  const FaultPlan plan =
      FaultPlan::parse("decode@4,corrupt@12,launch@9x2,const@17,shared@21", 1);
  ASSERT_EQ(plan.specs().size(), 5u);
  EXPECT_EQ(plan.specs()[0].kind, FaultKind::kDecodeFail);
  EXPECT_EQ(plan.specs()[0].frame, 4);
  EXPECT_EQ(plan.specs()[2].kind, FaultKind::kLaunchTransient);
  EXPECT_EQ(plan.specs()[2].burst, 2);
  EXPECT_EQ(plan.describe(),
            "decode@4,corrupt@12,launch@9x2,const@17,shared@21");
  EXPECT_EQ(plan.targeted_frames(), (std::vector<int>{4, 9, 12, 17, 21}));
}

TEST(FaultPlan, ParseNamesTheOffendingToken) {
  try {
    FaultPlan::parse("decode@4,warp@7", 1);
    FAIL() << "expected CheckError";
  } catch (const core::CheckError& error) {
    EXPECT_NE(std::string(error.what()).find("warp"), std::string::npos);
  }
  EXPECT_THROW(FaultPlan::parse("decode", 1), core::CheckError);
  EXPECT_THROW(FaultPlan::parse("decode@", 1), core::CheckError);
  EXPECT_THROW(FaultPlan::parse("decode@4x0", 1), core::CheckError);
  EXPECT_THROW(FaultPlan::parse("launch@xyz", 1), core::CheckError);
}

TEST(FaultPlan, BurstGatesRetryableKindsButNotHardOnes) {
  const FaultPlan plan = FaultPlan::parse("decode@5x2,const@5", 1);
  EXPECT_TRUE(plan.fires(FaultKind::kDecodeFail, 5, 0));
  EXPECT_TRUE(plan.fires(FaultKind::kDecodeFail, 5, 1));
  EXPECT_FALSE(plan.fires(FaultKind::kDecodeFail, 5, 2));  // retry succeeds
  EXPECT_FALSE(plan.fires(FaultKind::kDecodeFail, 6, 0));
  // Hard kinds fail every attempt: retrying cannot clear them.
  EXPECT_TRUE(plan.fires(FaultKind::kConstantOverflow, 5, 0));
  EXPECT_TRUE(plan.fires(FaultKind::kConstantOverflow, 5, 7));
}

TEST(FaultPlan, ProbabilisticFaultsAreDeterministicInSeedAndFrame) {
  const FaultPlan a = FaultPlan::parse("launch@0.25", 42);
  const FaultPlan b = FaultPlan::parse("launch@0.25", 42);
  const FaultPlan other_seed = FaultPlan::parse("launch@0.25", 43);
  int fired = 0;
  int diverged = 0;
  for (int frame = 0; frame < 2000; ++frame) {
    const bool hit = a.fires(FaultKind::kLaunchTransient, frame, 0);
    EXPECT_EQ(hit, b.fires(FaultKind::kLaunchTransient, frame, 0));
    fired += hit ? 1 : 0;
    diverged +=
        hit != other_seed.fires(FaultKind::kLaunchTransient, frame, 0) ? 1 : 0;
  }
  EXPECT_NEAR(fired, 500, 120);  // ~Binomial(2000, 0.25)
  EXPECT_GT(diverged, 0);        // a different seed is a different plan
}

TEST(CorruptLuma, IsSeededAndChangesThePlane) {
  img::ImageU8 a(64, 48, 100);
  img::ImageU8 b(64, 48, 100);
  img::ImageU8 c(64, 48, 100);
  corrupt_luma(a, 7);
  corrupt_luma(b, 7);
  corrupt_luma(c, 8);
  EXPECT_EQ(a, b);                       // deterministic in the seed
  EXPECT_NE(a, img::ImageU8(64, 48, 100));  // actually corrupted
  EXPECT_NE(a, c);
}

const vgpu::KernelConfig kProbe{
    .name = "probe", .grid = {1, 1, 1}, .block = {32, 1, 1}};

void run_probe(const vgpu::KernelConfig& config = kProbe) {
  vgpu::execute_kernel(vgpu::DeviceSpec{}, config,
                       [](const vgpu::ThreadCoord&, vgpu::LaneCtx& ctx,
                          vgpu::SharedMem&) { ctx.alu(); });
}

TEST(AttemptObserver, TransientFiresOnceAndClearsOnNextAttempt) {
  const FaultPlan plan = FaultPlan::parse("launch@3", 1);
  {
    AttemptObserver observer(&plan, 3, 0);
    const vgpu::ScopedLaunchObserver scope(observer);
    try {
      run_probe();
      FAIL() << "expected LaunchError";
    } catch (const vgpu::LaunchError& error) {
      EXPECT_TRUE(error.transient());
    }
    // The armed fault fired; the in-scope retry launches clean.
    EXPECT_NO_THROW(run_probe());
  }
  // attempt 1 is past the burst (default 1): nothing is armed.
  AttemptObserver observer(&plan, 3, 1);
  const vgpu::ScopedLaunchObserver scope(observer);
  EXPECT_NO_THROW(run_probe());
}

TEST(AttemptObserver, OverflowKindsTargetMatchingLaunchesOnly) {
  const FaultPlan plan = FaultPlan::parse("const@2,shared@2", 1);
  AttemptObserver observer(&plan, 2, 0);
  const vgpu::ScopedLaunchObserver scope(observer);

  // No constant or shared usage: the observer lets the launch through.
  EXPECT_NO_THROW(run_probe());

  vgpu::KernelConfig uses_const = kProbe;
  uses_const.name = "const_user";
  uses_const.constant_bytes = 128;
  try {
    run_probe(uses_const);
    FAIL() << "expected LaunchError";
  } catch (const vgpu::LaunchError& error) {
    EXPECT_FALSE(error.transient());
    EXPECT_NE(std::string(error.what()).find("constant"), std::string::npos);
  }
}

TEST(AttemptObserver, UntargetedFrameArmsNothing) {
  const FaultPlan plan = FaultPlan::parse("launch@3", 1);
  AttemptObserver observer(&plan, 4, 0);
  const vgpu::ScopedLaunchObserver scope(observer);
  EXPECT_NO_THROW(run_probe());
}

TEST(AttemptObserver, StampsScheduledLaunchesIntoTheFlightRecorder) {
  obs::FlightRecorder recorder(64);
  AttemptObserver observer(nullptr, 5, 0, &recorder, 1000.0);
  const vgpu::ScopedLaunchObserver scope(observer);
  vgpu::Launch launch;
  launch.cost.config = kProbe;
  launch.cost.block_service_cycles = {100.0, 100.0};
  const vgpu::Timeline timeline =
      vgpu::schedule(vgpu::DeviceSpec{}, {launch}, vgpu::ExecMode::kSerial);

  const std::vector<obs::FlightEvent> events = recorder.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, obs::FlightEventKind::kLaunch);
  EXPECT_EQ(events[0].frame, 5);
  EXPECT_STREQ(events[0].name, "probe");
  EXPECT_DOUBLE_EQ(events[0].ts_us,
                   1000.0 + timeline.records[0].start_s * 1e6);
  EXPECT_DOUBLE_EQ(events[0].value, 2.0);  // blocks
}

TEST(DeviceFaultPlan, ParsesEveryFormAndRoundTrips) {
  const DeviceFaultPlan plan = DeviceFaultPlan::parse(
      "device-lost@1:2.5+1,device-hang@2:4+0.5,device-slow@0:3+2*4,"
      "device-slow@0.05*8",
      1);
  ASSERT_EQ(plan.specs().size(), 4u);
  EXPECT_EQ(plan.specs()[0].kind, DeviceFaultKind::kDeviceLost);
  EXPECT_EQ(plan.specs()[0].device, 1);
  EXPECT_DOUBLE_EQ(plan.specs()[0].start_s, 2.5);
  EXPECT_DOUBLE_EQ(plan.specs()[0].duration_s, 1.0);
  EXPECT_EQ(plan.specs()[1].kind, DeviceFaultKind::kDeviceHang);
  EXPECT_EQ(plan.specs()[2].kind, DeviceFaultKind::kDeviceSlow);
  EXPECT_DOUBLE_EQ(plan.specs()[2].factor, 4.0);
  EXPECT_EQ(plan.specs()[3].device, -1);  // probabilistic on every device
  EXPECT_DOUBLE_EQ(plan.specs()[3].probability, 0.05);
  EXPECT_DOUBLE_EQ(plan.specs()[3].factor, 8.0);
  // describe() round-trips through parse().
  const DeviceFaultPlan again = DeviceFaultPlan::parse(plan.describe(), 1);
  EXPECT_EQ(again.describe(), plan.describe());
}

TEST(DeviceFaultPlan, ParseNamesTheOffendingToken) {
  try {
    DeviceFaultPlan::parse("device-lost@1:2+1,device-warp@2:1+1", 1);
    FAIL() << "expected CheckError";
  } catch (const core::CheckError& error) {
    EXPECT_NE(std::string(error.what()).find("device-warp"),
              std::string::npos);
  }
  EXPECT_THROW(DeviceFaultPlan::parse("device-lost", 1), core::CheckError);
  EXPECT_THROW(DeviceFaultPlan::parse("device-lost@1", 1), core::CheckError);
  EXPECT_THROW(DeviceFaultPlan::parse("device-lost@1:2", 1),
               core::CheckError);
  // Only device-slow may be probabilistic.
  EXPECT_THROW(DeviceFaultPlan::parse("device-lost@0.5", 1),
               core::CheckError);
  // Outage windows on the same device must not overlap.
  EXPECT_THROW(
      DeviceFaultPlan::parse("device-lost@1:2+2,device-hang@1:3+1", 1),
      core::CheckError);
  // Slow factors must actually slow.
  EXPECT_THROW(DeviceFaultPlan::parse("device-slow@0:1+1*0.5", 1),
               core::CheckError);
}

TEST(DeviceFaultPlan, OutagesAreSortedPerDevice) {
  const DeviceFaultPlan plan = DeviceFaultPlan::parse(
      "device-lost@0:5+1,device-hang@0:1+0.5,device-lost@1:0+1", 1);
  const auto outages = plan.outages(0);
  ASSERT_EQ(outages.size(), 2u);
  EXPECT_DOUBLE_EQ(outages[0]->start_s, 1.0);
  EXPECT_DOUBLE_EQ(outages[1]->start_s, 5.0);
  EXPECT_TRUE(plan.outages(2).empty());
  // Slow specs are not outages.
  const DeviceFaultPlan slow = DeviceFaultPlan::parse("device-slow@0:1+1", 1);
  EXPECT_TRUE(slow.outages(0).empty());
}

TEST(DeviceFaultPlan, SlowFactorWindowsAndProbabilisticFiring) {
  const DeviceFaultPlan plan =
      DeviceFaultPlan::parse("device-slow@0:2+3*4", 1);
  EXPECT_DOUBLE_EQ(plan.slow_factor(0, 0, 0, 1.0), 1.0);  // before onset
  EXPECT_DOUBLE_EQ(plan.slow_factor(0, 0, 0, 2.0), 4.0);  // active
  EXPECT_DOUBLE_EQ(plan.slow_factor(0, 0, 0, 4.9), 4.0);
  EXPECT_DOUBLE_EQ(plan.slow_factor(0, 0, 0, 5.0), 1.0);  // window end
  EXPECT_DOUBLE_EQ(plan.slow_factor(1, 0, 0, 2.0), 1.0);  // other device

  const DeviceFaultPlan prob =
      DeviceFaultPlan::parse("device-slow@0.3*2", 9);
  int fired = 0;
  for (int frame = 0; frame < 400; ++frame) {
    const double factor = prob.slow_factor(0, 0, frame, 0.0);
    EXPECT_TRUE(factor == 1.0 || factor == 2.0);
    fired += factor > 1.0 ? 1 : 0;
    // Deterministic in (seed, device, stream, frame).
    EXPECT_DOUBLE_EQ(factor, prob.slow_factor(0, 0, frame, 99.0));
  }
  EXPECT_GT(fired, 400 * 0.3 / 2);
  EXPECT_LT(fired, 400 * 0.3 * 2);
  // Different streams draw independently.
  int diverged = 0;
  for (int frame = 0; frame < 100; ++frame) {
    diverged += prob.slow_factor(0, 0, frame, 0.0) !=
                        prob.slow_factor(0, 7, frame, 0.0)
                    ? 1
                    : 0;
  }
  EXPECT_GT(diverged, 0);
}

TEST(MixedFaultPlanTest, SplitsFrameAndDeviceTokens) {
  const MixedFaultPlan mixed =
      parse_mixed_fault_plan("decode@4,device-lost@1:2+1,corrupt@7", 5);
  ASSERT_EQ(mixed.frame.specs().size(), 2u);
  EXPECT_EQ(mixed.frame.specs()[0].kind, FaultKind::kDecodeFail);
  EXPECT_EQ(mixed.frame.specs()[1].kind, FaultKind::kCorruptLuma);
  ASSERT_EQ(mixed.device.specs().size(), 1u);
  EXPECT_EQ(mixed.device.specs()[0].kind, DeviceFaultKind::kDeviceLost);
  EXPECT_EQ(mixed.frame.seed(), 5u);
  EXPECT_EQ(mixed.device.seed(), 5u);

  const MixedFaultPlan frame_only = parse_mixed_fault_plan("decode@4", 5);
  EXPECT_TRUE(frame_only.device.empty());
  const MixedFaultPlan device_only =
      parse_mixed_fault_plan("device-hang@0:1+1", 5);
  EXPECT_TRUE(device_only.frame.empty());
  const MixedFaultPlan none = parse_mixed_fault_plan("", 5);
  EXPECT_TRUE(none.frame.empty());
  EXPECT_TRUE(none.device.empty());
}

}  // namespace
}  // namespace fdet::serve
