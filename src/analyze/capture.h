// Symbolic capture mode for vgpu kernels (layer 1 of the static analyzer).
//
// A CaptureScope pushes a CaptureEngine (a vgpu::LaunchTap) onto the
// thread's launch-observer stack: every execute_kernel launch until the
// scope closes is recorded — lane by
// lane, slot by slot — into a RawKernelCapture. Production kernels need no
// rewrites: the engine taps the exact instrumentation the checker already
// uses (LaneCtx attribution, SharedMem carves, the PhaseFn barrier
// structure).
//
// Capture runs the kernel's real code, but the *analysis* contract is
// static: the engine samples a handful of blocks and warps (corners of
// each grid/block axis — enough to pin every affine coefficient), fits an
// AffineForm per access slot, and verifies the fit against every
// observation. merge_captures() then combines two captures of the same
// driver under different data seeds: any slot whose addresses, branch
// outcomes or participating lanes changed with the data is flagged
// data-dependent, which is what separates geometry-determined access
// patterns (extrapolatable to every lane of every block) from indirect,
// input-driven ones (never extrapolated).
//
// Precedence (vgpu/tap.h): the innermost tap owns a launch. If a
// CheckScope is opened inside the capture scope, the checker owns its
// launches and the engine only counts them as shadowed — the resulting
// capture set is incomplete and fdet_lint reports it as such.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "analyze/ir.h"
#include "vgpu/kernel.h"
#include "vgpu/tap.h"

namespace fdet::analyze {

struct CaptureOptions {
  /// Blocks sampled per grid axis: the first `blocks_per_axis - 1` and the
  /// last block of each axis (all blocks when the axis is small). Two
  /// adjacent blocks pin the axis' affine coefficient; the last block
  /// exercises ragged guards.
  int blocks_per_axis = 3;
  /// Warps sampled per block: first two, middle, last (all when few).
  int warps_per_block = 4;
  /// Per-slot cap on stored observations (fit/verify set); beyond it the
  /// slot still tracks range/participation but new samples are not kept.
  std::size_t max_observations = 8192;
};

/// One observation of an access slot: which lane produced which value.
struct SlotObservation {
  std::int16_t tx = 0, ty = 0, tz = 0;
  std::int16_t bx = 0, by = 0, bz = 0;
  std::int64_t value = 0;
};

/// Raw per-slot accumulator (shared or global access slots).
struct RawSlot {
  bool store = false;
  bool load = false;
  std::uint32_t bytes = 0;
  std::int64_t count = 0;          ///< observations incl. beyond the cap
  std::uint64_t min_value = 0;
  std::uint64_t max_value = 0;
  std::uint64_t value_fingerprint = 0;        ///< order-independent (lane,value) hash
  std::uint64_t participant_fingerprint = 0;  ///< order-independent lane hash
  std::vector<SlotObservation> observations;
};

/// Raw per-branch-slot accumulator.
struct RawBranch {
  std::int64_t taken = 0;
  std::int64_t count = 0;
  bool divergent = false;           ///< mixed outcomes inside one warp
  std::uint64_t outcome_fingerprint = 0;
  std::uint64_t participant_fingerprint = 0;
};

struct RawPhase {
  std::vector<RawSlot> shared_slots;
  std::vector<RawSlot> global_slots;
  std::vector<RawBranch> branches;
  std::int64_t unattributed_shared = 0;
  std::int64_t lanes_sampled = 0;   ///< begin_lane calls kept for this phase
};

/// Everything recorded about one launch, before affine fitting.
struct RawKernelCapture {
  vgpu::KernelConfig config;
  vgpu::DeviceSpec device;
  std::vector<RawPhase> phases;
  std::vector<CarveRegion> carves;
  bool carve_divergence = false;
  std::vector<bool> shared_words_written;
  std::vector<bool> shared_words_read;
  int blocks_sampled = 0;
  std::int64_t blocks_total = 0;
  bool branch_tracking_forced = false;
};

/// The LaunchTap implementation. Normally driven through CaptureScope;
/// exposed so the precedence regression test can observe it directly.
class CaptureEngine : public vgpu::LaunchTap {
 public:
  explicit CaptureEngine(CaptureOptions options = {});
  ~CaptureEngine() override;

  // vgpu::LaunchTap
  void begin_kernel(const vgpu::DeviceSpec& spec,
                    const vgpu::KernelConfig& config) override;
  void begin_block(const vgpu::Dim3& block_id) override;
  void begin_phase(int phase) override;
  void begin_lane(const vgpu::Dim3& thread) override;
  void on_carve(std::size_t offset, std::size_t bytes,
                std::size_t alignment) override;
  void on_shared(std::size_t offset, std::uint32_t bytes, bool store) override;
  void on_unattributed_shared(std::uint32_t n) override;
  void end_lane(const vgpu::LaneCtx& lane) override;
  void end_phase() override;
  void end_kernel() override;
  void on_shadowed_launch(const vgpu::KernelConfig& config) override;
  std::size_t shared_capacity_override() const override;
  bool absorbs_resource_faults() const override { return true; }
  bool wants_branch_tracking() const override { return true; }

  const std::vector<RawKernelCapture>& captures() const { return captures_; }
  std::vector<RawKernelCapture> take_captures();
  /// Launches owned by a tap opened further in (tap precedence) —
  /// nonzero means the capture set is incomplete.
  int shadowed_launches() const { return shadowed_launches_; }

 private:
  struct Impl;
  CaptureOptions options_;
  std::vector<RawKernelCapture> captures_;
  int shadowed_launches_ = 0;
  Impl* impl_;  ///< in-flight launch state
};

/// RAII: pushes a CaptureEngine onto the calling thread's launch-observer
/// stack.
class CaptureScope {
 public:
  explicit CaptureScope(CaptureOptions options = {});

  CaptureEngine& engine() { return engine_; }
  std::vector<RawKernelCapture> take_captures() {
    return engine_.take_captures();
  }
  int shadowed_launches() const { return engine_.shadowed_launches(); }

 private:
  CaptureEngine engine_;
  vgpu::ScopedLaunchObserver installer_{engine_};
};

/// Condenses one raw capture into a KernelIR: affine fit + verification
/// per slot, participation classification, branch summaries. Used when
/// only one data seed is available; data-dependence flags stay false.
KernelIR condense(const RawKernelCapture& raw);

/// Merges two captures of the SAME launch sequence under different data
/// seeds into the final IR (data-dependence = any cross-seed difference).
/// Throws core::CheckError when the sequences disagree structurally
/// (different kernel name, geometry or phase count) — drivers must be
/// geometry-deterministic.
KernelIR merge_captures(const RawKernelCapture& seed_a,
                        const RawKernelCapture& seed_b);

/// Convenience harness: runs `driver` once per data seed under a capture
/// scope and returns one merged IR per launch the driver performed, in
/// launch order. `shadowed` (optional) receives the total count of
/// launches lost to tap precedence.
std::vector<KernelIR> capture_kernels(
    const std::function<void(std::uint64_t seed)>& driver,
    std::uint64_t seed_a = 0x5eed0001, std::uint64_t seed_b = 0x5eed0002,
    const CaptureOptions& options = {}, int* shadowed = nullptr);

}  // namespace fdet::analyze
