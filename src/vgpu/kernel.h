// Kernel launch description and the functional executor.
//
// A kernel is a sequence of *phases*: per-thread functors separated by
// implicit block-wide barriers (the moral equivalent of writing CUDA code
// with __syncthreads between cooperative stages). The executor runs every
// thread of every block on the host — producing the kernel's real output —
// while reducing per-lane operation counts into warp, block and launch
// costs:
//
//   lane issue cycles  = Σ op_count × cost                     (per lane)
//   warp issue cycles  = max over its 32 lanes (SIMD lockstep) +
//                        coalesced global transactions
//   block issue cycles = Σ over warps (single-issue SM frontend)
//   block service      = issue + stalls / latency-hiding(occupancy)
//
// The scheduler (scheduler.h) later places block service times onto SMs to
// obtain virtual timestamps; nothing here depends on wall-clock time.
//
// Warp reduction is slot-major over a per-warp arena (lane.h): the lanes of
// a warp record their traces into one WarpArena, then one pass per trace
// walks the slots — lanes issue their k-th access or branch together.
// Bank conflicts take a per-bank touched bitmask and dedup only within a
// bank, once per stretch of slots with an unchanged lane-delta pattern;
// coalescing dedups 128-byte segments, skipping a lane that repeats its
// neighbour's segment; divergence folds taken/not-taken per slot.
//
// Blocks are independent: an untapped launch with more than one block runs
// its blocks on core::default_pool() workers, each with its own arena and
// SharedMem, and phase functors may write only per-thread or per-block
// host state. Blocks are cut into chunks by block count alone; chunk
// counter partials and per-block cycle slots merge on the launching thread
// in chunk and block order, so the cost is byte-identical for any thread
// count and equal to the serial run that tapped launches (and single-block
// ones) take.
//
// Every launch reports to the calling thread's launch-observer stack
// (vgpu/tap.h): before_launch ahead of any check, lane events to the
// innermost tap, after_launch once the cost is final.
#pragma once

#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "vgpu/checker.h"
#include "vgpu/counters.h"
#include "vgpu/device.h"
#include "vgpu/dim.h"
#include "vgpu/lane.h"
#include "vgpu/shared_mem.h"
#include "vgpu/tap.h"

namespace fdet::vgpu {

struct KernelConfig {
  std::string name;
  Dim3 grid;
  Dim3 block;
  int shared_bytes = 0;       ///< static __shared__ footprint per block
  int regs_per_thread = 24;   ///< occupancy input; sm_20-era default
  bool track_branches = false;///< enable per-lane branch traces (divergence)
  bool constant_broadcast = true;  ///< false = serialized constant accesses
  /// Constant-memory footprint the launch depends on (the encoded cascade
  /// bank for the evaluation kernel). Enforced against
  /// DeviceSpec::constant_mem_bytes at launch: execute_kernel throws, and
  /// checked execution reports a constant-overflow hazard instead.
  int constant_bytes = 0;
};

/// Per-thread phase body. Runs the thread's real computation and reports
/// costed operations through LaneCtx. SharedMem::array views are stable
/// across lanes and phases of one block.
using PhaseFn = std::function<void(const ThreadCoord&, LaneCtx&, SharedMem&)>;

/// Launch-time failure of the virtual device — the analogue of a CUDA
/// launch error (cudaErrorLaunchFailure and friends). `transient()`
/// distinguishes glitches a caller may retry (driver hiccup, ECC retry)
/// from hard resource faults (constant/shared overflow) that will fail
/// identically on every attempt.
class LaunchError : public std::runtime_error {
 public:
  LaunchError(const std::string& what, bool transient)
      : std::runtime_error(what), transient_(transient) {}
  bool transient() const { return transient_; }

 private:
  bool transient_;
};

/// Callable adapter over the launch-observer stack (vgpu/tap.h): while
/// alive, invokes `hook` once per successful launch on the current thread
/// with the device spec and the finished LaunchCost — the after_launch
/// point. Adapters nest like every observer: each one in scope sees each
/// launch, outermost first. An empty hook observes nothing.
struct LaunchCost;
using KernelProfileHook =
    std::function<void(const DeviceSpec&, const LaunchCost&)>;

class ScopedKernelProfileHook final : private LaunchObserver {
 public:
  explicit ScopedKernelProfileHook(KernelProfileHook hook);

 private:
  void after_launch(const DeviceSpec& spec, const LaunchCost& cost) override;

  KernelProfileHook hook_;
  ScopedLaunchObserver scope_{*this};
};

/// Cost of one executed kernel launch, ready for scheduling.
struct LaunchCost {
  KernelConfig config;
  Occupancy occupancy;
  std::vector<double> block_service_cycles;  ///< indexed by flat block id
  PerfCounters counters;
  double total_service_cycles = 0.0;

  std::int64_t block_count() const {
    return static_cast<std::int64_t>(block_service_cycles.size());
  }
};

/// Executes every thread of the launch functionally and returns its cost.
/// Throws core::CheckError on invalid configuration (block too large,
/// shared memory exceeding the SM, zero occupancy).
LaunchCost execute_kernel(const DeviceSpec& spec, const KernelConfig& config,
                          std::span<const PhaseFn> phases);

/// Convenience overloads for the common one- and two-phase kernels.
LaunchCost execute_kernel(const DeviceSpec& spec, const KernelConfig& config,
                          PhaseFn phase);
LaunchCost execute_kernel(const DeviceSpec& spec, const KernelConfig& config,
                          PhaseFn phase1, PhaseFn phase2);

/// Result of one launch under verification (vgpu/checker.h): the normal
/// cost plus the hazard report.
struct CheckedExecution {
  LaunchCost cost;
  CheckReport report;
};

/// Runs the launch inside a fresh CheckScope and returns cost + report.
/// For checking a *sequence* of launches (or the production wrappers in
/// fdet::integral / fdet::detect), open a CheckScope around the calls
/// instead and read its per-launch reports.
CheckedExecution execute_kernel_checked(const DeviceSpec& spec,
                                        const KernelConfig& config,
                                        std::span<const PhaseFn> phases,
                                        CheckOptions options = {});
CheckedExecution execute_kernel_checked(const DeviceSpec& spec,
                                        const KernelConfig& config,
                                        PhaseFn phase,
                                        CheckOptions options = {});
CheckedExecution execute_kernel_checked(const DeviceSpec& spec,
                                        const KernelConfig& config,
                                        PhaseFn phase1, PhaseFn phase2,
                                        CheckOptions options = {});

}  // namespace fdet::vgpu
