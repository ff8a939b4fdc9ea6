// Racecheck/memcheck-style verification layer for virtual-GPU kernels.
//
// The functional executor (kernel.cpp) produces host-order deterministic
// results, so an entire class of CUDA porting bugs is invisible to it: a
// kernel missing a phase split (the moral __syncthreads) still computes
// the right answer on the host while racing on real hardware. The paper's
// cascade kernel is the canonical example — Sec. III-C's staging protocol
// has every thread write 4 shared-tile pixels, 3 of which are consumed by
// *other* threads' windows after the barrier.
//
// Checked execution shadows every attributed shared-memory access, every
// SharedMem carve and every recorded global operation with
// (lane, phase, byte-range, read/write) records and reports:
//
//   intra-phase race          two lanes touch overlapping shared bytes in
//                             one phase, at least one writing — a missing
//                             barrier (cuda-memcheck --tool racecheck)
//   uninitialized shared read a lane reads shared bytes no earlier phase
//                             (and no same-lane program-order write) ever
//                             wrote — __shared__ starts undefined even
//                             though the simulator zero-fills it
//   carve divergence          lanes disagree on the SharedMem::array carve
//                             sequence (offset/size/alignment); CUDA's
//                             static __shared__ layout is identical for
//                             every thread by construction
//   carve overflow            a carve escapes the declared shared_bytes
//                             (span escape past the static footprint)
//   declared-bytes mismatch   the kernel declares more shared memory than
//                             it ever carves (occupancy paid for nothing)
//   constant overflow         KernelConfig::constant_bytes exceeds
//                             DeviceSpec::constant_mem_bytes (the 64 KiB
//                             Fermi limit the re-encoding of Sec. III-B
//                             exists to satisfy)
//   global out-of-bounds      a recorded global access falls outside every
//                             registered allocation (cuda-memcheck proper)
//
// Opt-in: instantiate a CheckScope, run any kernel(s) through the normal
// execute_kernel path (directly or via the production wrappers in
// fdet::integral / fdet::detect), then inspect the per-launch reports.
// Without a tap on the launch-observer stack (vgpu/tap.h) the executor's
// hot path pays one pointer test.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "vgpu/device.h"
#include "vgpu/dim.h"
#include "vgpu/tap.h"

namespace fdet::vgpu {

class LaneCtx;
struct KernelConfig;

enum class HazardKind {
  kIntraPhaseRace,
  kUninitializedSharedRead,
  kCarveDivergence,
  kCarveOverflow,
  kSharedDeclMismatch,
  kSharedOutOfBounds,
  kConstantOverflow,
  kGlobalOutOfBounds,
};

/// Stable lowercase identifier (used in messages, metrics labels, tables).
const char* hazard_name(HazardKind kind);

/// One detected hazard. `message` is the full human-readable diagnostic
/// (kernel, phase, lane coordinates, byte offsets, suggested fix); the
/// structured fields exist so tests and tools can assert without parsing.
struct Hazard {
  HazardKind kind;
  std::string kernel;
  int phase = -1;            ///< -1 when not tied to a phase
  Dim3 block_id{0, 0, 0};
  Dim3 lane_a{0, 0, 0};      ///< thread coords of the reporting lane
  Dim3 lane_b{0, 0, 0};      ///< second lane for races (valid iff has_lane_b)
  bool has_lane_b = false;
  std::uint64_t offset = 0;  ///< shared byte offset / global address
  std::uint32_t bytes = 0;
  std::string message;
};

/// Verification verdict for one kernel launch.
struct CheckReport {
  std::string kernel;
  int phases = 0;
  std::int64_t blocks = 0;
  std::vector<Hazard> hazards;
  std::uint64_t suppressed_hazards = 0;    ///< beyond max_reports_per_kernel
  std::uint64_t shared_accesses_checked = 0;
  std::uint64_t unattributed_shared_accesses = 0;
  std::uint64_t carves_checked = 0;
  std::uint64_t global_ops_checked = 0;

  bool clean() const { return hazards.empty() && suppressed_hazards == 0; }
  /// `kernel 'x': CLEAN (...)` / `kernel 'x': N hazard(s) ...` one-liner.
  std::string summary() const;
};

/// A named [base, base+size) virtual-address range for the memcheck side.
/// Kernels use per-array byte offsets as virtual addresses (see addr_of in
/// integral/gpu.cpp), so callers typically register one range per distinct
/// array a launch touches; the check flags accesses outside all of them.
struct GlobalAllocation {
  std::string name;
  std::uint64_t base = 0;
  std::uint64_t size = 0;
};

struct CheckOptions {
  /// Hazards recorded per launch before further ones are only counted.
  int max_reports_per_kernel = 8;
  /// Registered allocations for global bounds checking; empty disables it.
  std::vector<GlobalAllocation> global_allocations;
  /// Report kernels that declare more shared bytes than they carve.
  bool check_shared_declaration = true;
};

/// The verification engine — one of the two LaunchTap implementations
/// (vgpu/tap.h; the other is the static analyzer's capture engine). The
/// executor drives it through the begin/on/end hooks while it is the
/// innermost tap of a launch; most callers never touch it directly and
/// read CheckScope::reports() instead.
class Checker : public LaunchTap {
 public:
  explicit Checker(CheckOptions options = {});

  // --- executor hooks (one kernel launch at a time) ---------------------
  void begin_kernel(const DeviceSpec& spec,
                    const KernelConfig& config) override;
  void begin_block(const Dim3& block_id) override;
  void begin_phase(int phase) override;
  void begin_lane(const Dim3& thread) override;
  /// SharedMem::array landed a carve at [offset, offset+bytes).
  void on_carve(std::size_t offset, std::size_t bytes,
                std::size_t alignment) override;
  /// Attributed shared access from LaneCtx::shared_load/shared_store.
  void on_shared(std::size_t offset, std::uint32_t bytes,
                 bool store) override;
  /// Legacy LaneCtx::shared_access(n) — costed but not race-checkable.
  void on_unattributed_shared(std::uint32_t n) override;
  /// Lane finished: memcheck its recorded global ops.
  void end_lane(const LaneCtx& lane) override;
  void end_phase() override;
  void end_kernel() override;

  /// Shared buffer size for checked blocks: the full per-SM capacity, so a
  /// carve escaping the declared footprint still lands in real storage and
  /// is reported instead of crashing.
  std::size_t checked_shared_capacity() const;
  std::size_t shared_capacity_override() const override {
    return checked_shared_capacity();
  }
  /// Resource-limit violations (constant overflow) become hazards, not
  /// throws.
  bool absorbs_resource_faults() const override { return true; }

  /// Replaces the registered allocations (between launches; fdet_check
  /// re-registers per kernel because the offset address spaces overlap).
  void set_global_allocations(std::vector<GlobalAllocation> allocations);

  const std::vector<CheckReport>& reports() const { return reports_; }
  std::vector<CheckReport> take_reports();
  bool clean() const;
  std::size_t hazard_count() const;

 private:
  struct CarveEvent {
    std::size_t offset = 0;
    std::size_t bytes = 0;
    std::size_t alignment = 0;
    bool operator==(const CarveEvent&) const = default;
  };

  /// Byte-granular shadow cell. Epoch tags make per-phase and per-block
  /// resets O(1): a tag only means something when it equals the current
  /// phase/block epoch.
  struct ByteState {
    std::uint64_t write_epoch = 0;  ///< phase epoch of the last write
    std::uint64_t read_epoch = 0;   ///< phase epoch of the last read
    std::uint64_t valid_epoch = 0;  ///< block epoch when committed written
    std::int32_t write_lane = -1;
    std::int32_t read_lane = -1;
  };

  void add_hazard(HazardKind kind, std::uint64_t offset, std::uint32_t bytes,
                  std::string message);
  void add_race(std::size_t byte, std::uint32_t bytes, bool current_is_store,
                bool other_is_store, std::int32_t other_lane);
  Dim3 lane_coords(std::int32_t flat) const;
  std::string lane_str(const Dim3& lane) const;

  CheckOptions options_;

  // Per-kernel state.
  bool in_kernel_ = false;
  std::string kernel_name_;
  const char* device_name_ = "";
  Dim3 block_dim_{1, 1, 1};
  std::size_t declared_shared_ = 0;
  std::size_t shared_capacity_ = 0;
  std::size_t max_carve_extent_ = 0;
  int phase_ = -1;
  Dim3 block_id_{0, 0, 0};
  Dim3 lane_{0, 0, 0};
  std::int32_t lane_flat_ = 0;
  std::size_t carve_index_ = 0;
  std::vector<CarveEvent> reference_carves_;

  std::vector<ByteState> shadow_;
  std::uint64_t phase_epoch_ = 0;
  std::uint64_t block_epoch_ = 0;
  /// Byte ranges written during the current phase, committed into
  /// valid_epoch at the barrier (end_phase).
  std::vector<std::pair<std::size_t, std::size_t>> phase_writes_;

  CheckReport current_;
  std::vector<CheckReport> reports_;
};

/// RAII opt-in: pushes a fresh checker onto the calling thread's launch-
/// observer stack (vgpu/tap.h), so every execute_kernel on this thread
/// until destruction runs instrumented — unless a tap opened further in
/// owns the launch (the checker is then only told it was shadowed).
/// Checked state is per-thread, so concurrent tests do not interfere.
class CheckScope {
 public:
  explicit CheckScope(CheckOptions options = {});
  CheckScope(const CheckScope&) = delete;
  CheckScope& operator=(const CheckScope&) = delete;

  Checker& checker() { return checker_; }
  void set_global_allocations(std::vector<GlobalAllocation> allocations) {
    checker_.set_global_allocations(std::move(allocations));
  }
  const std::vector<CheckReport>& reports() const { return checker_.reports(); }
  bool clean() const { return checker_.clean(); }
  std::size_t hazard_count() const { return checker_.hazard_count(); }

 private:
  Checker checker_;
  ScopedLaunchObserver scope_{checker_};
};

}  // namespace fdet::vgpu
