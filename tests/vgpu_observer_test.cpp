// The launch-observer stack (vgpu/tap.h): one thread-local, ordered stack
// that fault injection, profiling, the checker and capture all push onto.
// Rules under test: the stack is per thread; every observer in scope sees
// every launch, outermost first; the innermost tap owns lane events and
// every other tap is told it was shadowed.
#include "vgpu/tap.h"

#include <gtest/gtest.h>

#include <string>
#include <future>
#include <vector>

#include "analyze/capture.h"
#include "vgpu/checker.h"
#include "vgpu/kernel.h"
#include "vgpu/scheduler.h"

namespace fdet::vgpu {
namespace {

const KernelConfig kConfig{
    .name = "observed", .grid = {2, 1, 1}, .block = {32, 1, 1}};

LaunchCost launch_once(const std::string& name = kConfig.name) {
  KernelConfig config = kConfig;
  config.name = name;
  return execute_kernel(DeviceSpec{}, config,
                        [](const ThreadCoord&, LaneCtx& ctx, SharedMem&) {
                          ctx.alu();
                        });
}

/// Appends "<tag>:<hook>" for every hook it receives to a shared log.
class LoggingObserver final : public LaunchObserver {
 public:
  LoggingObserver(std::string tag, std::vector<std::string>& log)
      : tag_(std::move(tag)), log_(&log) {}
  void before_launch(const KernelConfig&) override {
    log_->push_back(tag_ + ":before");
  }
  void after_launch(const DeviceSpec&, const LaunchCost&) override {
    log_->push_back(tag_ + ":after");
  }
  void on_scheduled(const LaunchRecord& record) override {
    log_->push_back(tag_ + ":scheduled:" + record.name);
  }

 private:
  std::string tag_;
  std::vector<std::string>* log_;
};

class ThrowingObserver final : public LaunchObserver {
 public:
  void before_launch(const KernelConfig& config) override {
    throw LaunchError("injected on '" + config.name + "'", true);
  }
};

TEST(LaunchObserverStack, ObserversAreThreadLocal) {
  // A throwing fault observer on this thread must not fail a launch that
  // another thread issues.
  ThrowingObserver failing;
  const ScopedLaunchObserver scope(failing);
  EXPECT_THROW(launch_once(), LaunchError);

  EXPECT_NO_THROW(std::async(std::launch::async, [] { launch_once(); }).get());
}

TEST(LaunchObserverStack, EveryObserverSeesEveryLaunchOutermostFirst) {
  std::vector<std::string> log;
  LoggingObserver outer("outer", log);
  const ScopedLaunchObserver outer_scope(outer);
  launch_once();
  {
    LoggingObserver inner("inner", log);
    const ScopedLaunchObserver inner_scope(inner);
    launch_once();
  }
  launch_once();
  const std::vector<std::string> expected{
      "outer:before", "outer:after",                                  //
      "outer:before", "inner:before", "outer:after", "inner:after",   //
      "outer:before", "outer:after"};
  EXPECT_EQ(log, expected);
}

TEST(LaunchObserverStack, ThrowingBeforeLaunchStopsTheLaunch) {
  std::vector<std::string> log;
  LoggingObserver outer("outer", log);
  ThrowingObserver failing;
  LoggingObserver inner("inner", log);
  const ScopedLaunchObserver outer_scope(outer);
  const ScopedLaunchObserver failing_scope(failing);
  const ScopedLaunchObserver inner_scope(inner);
  EXPECT_THROW(launch_once(), LaunchError);
  // Observers further in never hear of the failed launch; nobody gets
  // after_launch for it.
  EXPECT_EQ(log, std::vector<std::string>{"outer:before"});
}

TEST(LaunchObserverStack, ScheduleReportsEveryRecordToEveryObserver) {
  std::vector<Launch> launches(2);
  launches[0].cost = launch_once("first");
  launches[1].cost = launch_once("second");
  launches[1].stream = 1;

  std::vector<std::string> log;
  LoggingObserver outer("outer", log);
  LoggingObserver inner("inner", log);
  const ScopedLaunchObserver outer_scope(outer);
  const ScopedLaunchObserver inner_scope(inner);
  schedule(DeviceSpec{}, launches, ExecMode::kConcurrent);
  const std::vector<std::string> expected{
      "outer:scheduled:first", "inner:scheduled:first",
      "outer:scheduled:second", "inner:scheduled:second"};
  EXPECT_EQ(log, expected);
}

TEST(LaunchObserverStack, NestedProfileHooksBothObserve) {
  int outer_calls = 0;
  int inner_calls = 0;
  const ScopedKernelProfileHook outer(
      [&](const DeviceSpec&, const LaunchCost&) { ++outer_calls; });
  launch_once();
  {
    const ScopedKernelProfileHook inner(
        [&](const DeviceSpec&, const LaunchCost&) { ++inner_calls; });
    launch_once();
    // An empty hook observes nothing and mutes nobody.
    const ScopedKernelProfileHook empty(nullptr);
    launch_once();
  }
  launch_once();
  EXPECT_EQ(outer_calls, 4);
  EXPECT_EQ(inner_calls, 2);
}

TEST(LaunchObserverStack, ScopesPopOnDestruction) {
  EXPECT_TRUE(launch_observers().empty());
  {
    LaunchObserver first;
    LaunchObserver second;
    const ScopedLaunchObserver a(first);
    {
      const ScopedLaunchObserver b(second);
      ASSERT_EQ(launch_observers().size(), 2u);
      EXPECT_EQ(launch_observers()[0], &first);
      EXPECT_EQ(launch_observers()[1], &second);
    }
    ASSERT_EQ(launch_observers().size(), 1u);
    EXPECT_EQ(launch_observers()[0], &first);
  }
  EXPECT_TRUE(launch_observers().empty());
}

TEST(LaunchTapPrecedence, CaptureInsideACheckerWins) {
  // The innermost tap owns the launch. No caller nests this way today
  // (checkers sit inside capture), but the rule is symmetric: a capture
  // opened inside a checker records the launch, and the checker only
  // hears that it was shadowed.
  CheckScope check;
  {
    analyze::CaptureScope capture;
    launch_once();
    EXPECT_EQ(capture.engine().captures().size(), 1u);
    EXPECT_EQ(capture.shadowed_launches(), 0);
  }
  EXPECT_TRUE(check.reports().empty());

  // With the capture closed, the checker owns launches again.
  launch_once();
  EXPECT_EQ(check.reports().size(), 1u);
}

}  // namespace
}  // namespace fdet::vgpu
