// Kernel profiler and performance attribution: the "why is it slow"
// half of the observability loop.
//
// A KernelProfiler is a vgpu::LaunchObserver: pushed onto the thread's
// launch-observer stack (vgpu/tap.h), it sees every kernel launch issued in
// its scope after the cost is final, and aggregates, per kernel
// *base name* (the per-scale `_s<N>` suffix stripped, so `cascade_s0`
// ... `cascade_s7` roll up into one `cascade` row):
//
//   - launch count and total service cycles,
//   - the stall taxonomy from the executor's service-cycle decomposition
//     (vgpu/counters.h): issue vs. memory stall, and within issue the
//     cycles burned on SIMD divergence and shared-memory bank-conflict
//     serialization; within stall the occupancy-limited share a fully
//     occupied SM would have hidden,
//   - achieved occupancy (cycle-weighted), branch/SIMD efficiency,
//     memory transactions, and a roofline classification (memory- vs
//     compute-bound by arithmetic intensity against the device ridge).
//
// Cycles are simultaneously attributed along two ambient axes captured at
// launch time:
//
//   stage   the innermost ProfileStageScope (detect::Pipeline installs
//           scale / integral / cascade / grouping around its launches);
//           launches outside any scope land in "(unattributed)"
//   frame   the innermost TraceContext's trace_id (obs/trace.h) — the
//           per-frame context the serving loop / bench harness installs;
//           launches outside any context land in "(no-frame)"
//
// Because every bucket sums the same LaunchCost::total_service_cycles,
// kernel totals, stage totals and frame totals each sum to the same
// grand total — the conservation property obs_profile_test asserts and
// `fdet_report profile show` surfaces as a coverage percentage.
//
// Snapshots persist as `PROFILE_<artifact>.json` (schema below, versioned
// and validated like obs/runrecord.h), and ProfileRecord::to_run_record
// projects the per-kernel / per-stage totals into a RunRecord so
// obs/compare.h can gate profile drift with the same direction-aware
// verdicts the bench records use (`fdet_report profile diff`).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"
#include "obs/runrecord.h"
#include "vgpu/device.h"
#include "vgpu/kernel.h"

namespace fdet::obs {

/// Bump when the on-disk layout changes; from_json rejects mismatches.
inline constexpr int kProfileSchemaVersion = 1;

/// Stage bucket for launches issued outside any ProfileStageScope.
inline constexpr const char* kUnattributedStage = "(unattributed)";
/// Frame bucket for launches issued outside any trace context.
inline constexpr const char* kNoFrame = "(no-frame)";

/// Strips the per-scale launch suffix: "cascade_s12" -> "cascade",
/// "scan2_s0" -> "scan2". Names without a `_s<digits>` tail pass through.
std::string kernel_base_name(std::string_view name);

/// Names the pipeline stage for cycle attribution on the current thread
/// (stack discipline — scopes nest, the innermost wins). detect::Pipeline
/// installs one per stage; tests and tools may install their own.
class ProfileStageScope {
 public:
  explicit ProfileStageScope(std::string stage);
  ~ProfileStageScope();
  ProfileStageScope(const ProfileStageScope&) = delete;
  ProfileStageScope& operator=(const ProfileStageScope&) = delete;

  /// Innermost installed stage name of this thread, or nullptr.
  static const std::string* current();

 private:
  std::string stage_;
  ProfileStageScope* prev_;
};

/// Aggregated profile of one kernel (by base name) across all launches.
struct KernelProfile {
  std::string name;
  std::uint64_t launches = 0;
  double total_cycles = 0.0;  ///< Σ LaunchCost::total_service_cycles

  // Stall taxonomy (service-cycle domain, see vgpu/counters.h):
  //   total = issue + stall
  //   divergence + bank_conflict <= issue
  //   occupancy_limited          <= stall
  double issue_cycles = 0.0;
  double stall_cycles = 0.0;
  double divergence_cycles = 0.0;
  double bank_conflict_cycles = 0.0;
  double occupancy_limited_cycles = 0.0;

  /// Σ occupancy.ratio × launch cycles; divide by total_cycles for the
  /// cycle-weighted achieved occupancy.
  double occupancy_cycles = 0.0;

  std::uint64_t bank_conflicts = 0;
  std::uint64_t global_transactions = 0;
  std::uint64_t arithmetic_ops = 0;
  std::uint64_t global_bytes = 0;
  std::uint64_t warp_branches = 0;
  std::uint64_t divergent_branches = 0;
  double lane_issue_cycles = 0.0;
  double warp_issue_cycles = 0.0;

  /// Cycle-weighted achieved occupancy in [0, 1]; 0 when no cycles.
  double achieved_occupancy() const {
    return total_cycles <= 0.0 ? 0.0 : occupancy_cycles / total_cycles;
  }
  /// Fraction of warp branches with a uniform outcome (1.0 when none).
  double branch_efficiency() const;
  /// Average fraction of lanes doing useful work (1.0 when degenerate).
  double simd_efficiency() const;
  /// Roofline arithmetic intensity in ops per global byte. A kernel with
  /// no global traffic is unboundedly compute-heavy (+inf); serialized
  /// records store ops and bytes instead of the ratio.
  double arithmetic_intensity() const;
  /// "memory" when arithmetic intensity sits below `ridge`, else
  /// "compute" (a kernel with no global traffic is compute-bound).
  const char* roofline_bound(double ridge) const;
};

/// Cycles attributed to one pipeline stage / one frame.
struct AttributionBucket {
  std::string name;
  std::uint64_t launches = 0;
  double cycles = 0.0;
};

/// One persisted profiler snapshot: `PROFILE_<artifact>.json`.
struct ProfileRecord {
  int schema_version = kProfileSchemaVersion;
  std::string artifact;             ///< bench artifact id ("fig5", ...)
  std::string variant = "default";  ///< configuration variant
  Labels labels;                    ///< run-level label set

  /// Device roofline ridge in ops per global byte: peak issue rate
  /// (ipc × 32 lanes) over peak global bandwidth (128 bytes per
  /// transaction-issue slot), both in cycles of the profiled device.
  double ridge_ops_per_byte = 0.0;

  std::uint64_t launches = 0;  ///< total launches observed
  double total_cycles = 0.0;   ///< Σ over all launches

  std::vector<KernelProfile> kernels;     ///< sorted by cycles, descending
  std::vector<AttributionBucket> stages;  ///< sorted by cycles, descending
  std::vector<AttributionBucket> frames;  ///< sorted by name (frame id)

  /// Kernel lookup by base name; nullptr when absent.
  const KernelProfile* find_kernel(std::string_view name) const;
  /// Stage lookup; nullptr when absent.
  const AttributionBucket* find_stage(std::string_view name) const;

  json::Value to_json() const;
  std::string dump() const;  ///< to_json().dump()
  /// Writes dump(); throws core::CheckError when the file cannot be
  /// written.
  void write_file(const std::string& path) const;

  /// Validating deserialization; throws core::CheckError on a missing or
  /// mistyped field or a schema_version mismatch.
  static ProfileRecord from_json(const json::Value& doc);
  static ProfileRecord parse(std::string_view text);
  static ProfileRecord load_file(const std::string& path);

  /// Projects the profile into a RunRecord (one single-sample series per
  /// quantity: profile.total_cycles, profile.kernel.* labeled kernel=N,
  /// profile.stage.cycles labeled stage=N) so obs::compare_runs can gate
  /// profile drift. Per-frame buckets are not projected — frame ids are
  /// seed-dependent and would churn the comparison identity.
  RunRecord to_run_record() const;
};

/// Collects launches into per-kernel / per-stage / per-frame aggregates.
/// Not thread-safe: install on the thread issuing the launches (the
/// launch-observer stack is thread-local anyway).
class KernelProfiler : public vgpu::LaunchObserver {
 public:
  /// Feeds one finished launch. Reads the ambient ProfileStageScope and
  /// TraceContext for attribution.
  void after_launch(const vgpu::DeviceSpec& spec,
                    const vgpu::LaunchCost& cost) override;

  std::uint64_t launches() const { return launches_; }
  double total_cycles() const { return total_cycles_; }

  /// Aggregates collected launches into a persistable record (sorted as
  /// documented on ProfileRecord). Callable repeatedly; collection
  /// continues afterwards.
  ProfileRecord snapshot(std::string artifact, std::string variant = "default",
                         Labels labels = {}) const;

  /// Discards everything collected so far.
  void reset();

 private:
  std::uint64_t launches_ = 0;
  double total_cycles_ = 0.0;
  double ridge_ops_per_byte_ = 0.0;
  std::vector<KernelProfile> kernels_;        // insertion order
  std::vector<AttributionBucket> stages_;     // insertion order
  std::vector<AttributionBucket> frames_;     // insertion order
};

/// RAII collection window: pushes a profiler onto the calling thread's
/// launch-observer stack for the scope's lifetime. Nested windows each
/// see every launch in their scope.
using ScopedProfileCollection = vgpu::ScopedLaunchObserver;

/// Canonical on-disk name: `PROFILE_<artifact>.json`.
std::string profile_record_path(const std::string& artifact);

/// Paper-style text rendering of a profile (the detection-time breakdown
/// of `fdet_report profile show`): per-kernel cycle shares with the stall
/// taxonomy, per-stage shares, and the attribution-coverage line.
std::string render_profile_text(const ProfileRecord& record);

}  // namespace fdet::obs
