// Launch-instrumentation seam: one thread-local, ordered stack of
// LaunchObservers that every kernel launch and every schedule() reports to.
//
// Everything that watches launches pushes an observer with one RAII
// ScopedLaunchObserver:
//
//   * the serving layer's per-attempt fault/flight observer
//     (serve/faults.h), which throws from before_launch to inject launch
//     failures and stamps scheduled launches into the flight recorder,
//   * the kernel profiler (obs/profile.h) and the callable
//     ScopedKernelProfileHook adapter (vgpu/kernel.h), via after_launch,
//   * the two LaunchTaps: the verification engine (vgpu/checker.h,
//     CheckScope) and the static analyzer's capture engine
//     (analyze/capture.h, CaptureScope), which additionally receive the
//     executor's per-block/phase/lane events.
//
// The rule: every observer on the calling thread's stack sees every
// launch issued in its scope, outermost first. Lane-level events are the
// exception — the INNERMOST tap owns them, and every other tap on the
// stack is told via on_shadowed_launch() instead, so it can account for
// the launch it did not observe rather than silently producing a partial
// result. Two taps never both receive lane events for one launch: the
// owning tap controls LaneCtx/SharedMem attribution, and dual delivery
// would double-count. (Callers today open a checker, if at all, inside
// any capture scope, so the checker owns those launches; a capture opened
// inside a checker would own them instead.)
//
// The stack is per thread: an observer installed on one thread never sees
// (or fails) a launch issued on another.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "vgpu/dim.h"

namespace fdet::vgpu {

class LaneCtx;
class LaunchTap;
struct DeviceSpec;
struct KernelConfig;
struct LaunchCost;
struct LaunchRecord;

/// Launch-level observer. All hooks default to no-ops.
class LaunchObserver {
 public:
  LaunchObserver() = default;
  LaunchObserver(const LaunchObserver&) = delete;
  LaunchObserver& operator=(const LaunchObserver&) = delete;
  virtual ~LaunchObserver() = default;

  /// execute_kernel calls this first, before validating the config or
  /// running any thread. May throw (typically LaunchError) to make the
  /// launch fail; observers further in then see nothing of it.
  virtual void before_launch(const KernelConfig& config) { (void)config; }
  /// A launch finished: its cost is final, the caller's ambient context
  /// (trace context, profile stage) still names the issuing stage.
  virtual void after_launch(const DeviceSpec& spec, const LaunchCost& cost) {
    (void)spec;
    (void)cost;
  }
  /// schedule() finalized this record (once per launch, in issue order).
  virtual void on_scheduled(const LaunchRecord& record) { (void)record; }

  /// Non-null when this observer also consumes lane-level events.
  virtual LaunchTap* as_tap() { return nullptr; }
};

/// RAII: pushes `observer` onto the calling thread's stack for the scope's
/// lifetime. Scopes must close innermost first, as nested blocks do.
class ScopedLaunchObserver {
 public:
  explicit ScopedLaunchObserver(LaunchObserver& observer);
  ~ScopedLaunchObserver();
  ScopedLaunchObserver(const ScopedLaunchObserver&) = delete;
  ScopedLaunchObserver& operator=(const ScopedLaunchObserver&) = delete;
};

/// The calling thread's observer stack, outermost first.
std::span<LaunchObserver* const> launch_observers();

/// Observer of the executor's lane-level instrumentation points. Hook
/// order per launch it owns:
///   begin_kernel
///     per block: begin_block, per phase: begin_phase,
///       per lane: begin_lane, {on_carve | on_shared |
///       on_unattributed_shared}*, end_lane,
///     end_phase (the block-wide barrier)
///   end_kernel
class LaunchTap : public LaunchObserver {
 public:
  LaunchTap* as_tap() override { return this; }

  virtual void begin_kernel(const DeviceSpec& spec,
                            const KernelConfig& config) = 0;
  virtual void begin_block(const Dim3& block_id) = 0;
  virtual void begin_phase(int phase) = 0;
  virtual void begin_lane(const Dim3& thread) = 0;
  /// SharedMem::array landed a carve at [offset, offset+bytes).
  virtual void on_carve(std::size_t offset, std::size_t bytes,
                        std::size_t alignment) = 0;
  /// Attributed shared access from LaneCtx::shared_load/shared_store.
  virtual void on_shared(std::size_t offset, std::uint32_t bytes,
                         bool store) = 0;
  /// Legacy LaneCtx::shared_access(n) — costed but address-free.
  virtual void on_unattributed_shared(std::uint32_t n) = 0;
  /// Lane finished: its LaneCtx still holds the recorded global ops and
  /// branch trace.
  virtual void end_lane(const LaneCtx& lane) = 0;
  virtual void end_phase() = 0;
  virtual void end_kernel() = 0;

  /// Called instead of the hooks above when a tap further in on the
  /// stack owns the launch and this tap will see none of its events.
  virtual void on_shadowed_launch(const KernelConfig& config) { (void)config; }

  /// Size (in bytes) the executor should give each block's SharedMem
  /// buffer instead of the declared footprint; 0 keeps the declared size.
  /// The checker returns the full per-SM capacity so escaping carves are
  /// reported rather than fatal; capture does the same so a defective
  /// kernel can still be recorded.
  virtual std::size_t shared_capacity_override() const { return 0; }

  /// True when the tap absorbs launch-time resource violations (constant
  /// memory overflow) as findings instead of letting execute_kernel throw.
  virtual bool absorbs_resource_faults() const { return false; }

  /// True to force per-lane branch tracking for the launch even when the
  /// kernel config leaves it off — capture needs outcome traces to
  /// classify branches; costs derived under a tap are discarded anyway.
  virtual bool wants_branch_tracking() const { return false; }
};

}  // namespace fdet::vgpu
