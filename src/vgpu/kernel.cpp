#include "vgpu/kernel.h"

#include <algorithm>
#include <array>

#include "core/check.h"
#include "core/thread_pool.h"

namespace fdet::vgpu {
namespace {

constexpr int kWarpSize = 32;
constexpr std::uint64_t kSegmentBytes = 128;  // Fermi coalescing granularity
constexpr int kSharedBanks = 32;  // Fermi: 32 banks, 4-byte wide
/// Blocks of a launch are cut into at most this many contiguous chunks.
/// The cut depends only on the block count, never on the host thread
/// count, and each chunk keeps its own counter partials — so a launch
/// sums identically however many workers run it.
constexpr std::int64_t kLaunchChunks = 64;

/// Scratch for one warp's aggregation, reused across warps, blocks and
/// launches to avoid allocation in the hot loop (Per.14/Per.15).
struct WarpScratch {
  std::array<LaneCtx, kWarpSize> lanes;
  WarpArena arena;
  std::array<std::uint64_t, kWarpSize> segments;  // coalescing dedup buffer
  std::array<std::uint32_t, kWarpSize> words;     // one slot's shared words
};

/// What one host thread needs to run blocks: a thread-local instance per
/// worker (and per launching thread), kept across launches.
struct WorkerScratch {
  WarpScratch warp;
  SharedMem shared;
};

WorkerScratch& worker_scratch() {
  thread_local WorkerScratch scratch;
  return scratch;
}

struct WarpCost {
  double issue = 0.0;
  double stall = 0.0;
  double divergence_issue = 0.0;     ///< issue cycles lost to idle lanes
  double bank_conflict_issue = 0.0;  ///< serialized shared-memory passes
};

/// One lane's run of a trace in the warp arena.
template <typename T>
struct LaneRun {
  const T* data = nullptr;
  std::size_t size = 0;
};

/// Adds one lane's non-empty trace to runs[0..n), keeping them longest
/// first and otherwise in lane order (stable), so the lanes still issuing
/// at slot k are always a prefix.
template <typename T>
void insert_run(std::array<LaneRun<T>, kWarpSize>& runs, int& n,
                std::span<const T> trace) {
  if (trace.empty()) {
    return;
  }
  int at = n++;
  while (at > 0 && runs[static_cast<std::size_t>(at - 1)].size < trace.size()) {
    runs[static_cast<std::size_t>(at)] = runs[static_cast<std::size_t>(at - 1)];
    --at;
  }
  runs[static_cast<std::size_t>(at)] = {trace.data(), trace.size()};
}

/// Shrinks `live` to the runs still issuing at `slot` (runs are sorted
/// longest first).
template <typename T>
int live_at(const std::array<LaneRun<T>, kWarpSize>& runs, int live,
            std::size_t slot) {
  while (live > 0 && runs[static_cast<std::size_t>(live - 1)].size <= slot) {
    --live;
  }
  return live;
}

/// Conflict degree of one warp-wide shared access slot: the most distinct
/// words any one bank receives (at least 1). A bitmask marks the banks
/// touched with the first word each saw; only a word hitting a touched
/// bank with a different word is searched among that slot's other extra
/// words, so nothing is zeroed per slot.
int conflict_degree(const std::array<std::uint32_t, kWarpSize>& words,
                    int count) {
  std::array<std::uint32_t, kSharedBanks> first_word;
  std::array<int, kSharedBanks> per_bank;
  std::array<std::uint32_t, kWarpSize> extras;
  std::uint32_t touched = 0;
  int n_extra = 0;
  int degree = 1;
  for (int i = 0; i < count; ++i) {
    const std::uint32_t word = words[static_cast<std::size_t>(i)];
    const std::uint32_t bank = word % kSharedBanks;
    const std::uint32_t bit = 1u << bank;
    if ((touched & bit) == 0) {
      touched |= bit;
      first_word[bank] = word;
      per_bank[bank] = 1;
      continue;
    }
    if (first_word[bank] == word) {
      continue;
    }
    bool seen = false;
    for (int e = 0; e < n_extra; ++e) {
      if (extras[static_cast<std::size_t>(e)] == word) {
        seen = true;
        break;
      }
    }
    if (!seen) {
      extras[static_cast<std::size_t>(n_extra++)] = word;
      degree = std::max(degree, ++per_bank[bank]);
    }
  }
  return degree;
}

/// Reduces the lanes of one warp (lanes[0..active)) into cost + counters.
/// The trace passes walk the warp arena slot by slot: the lanes of a warp
/// issue their k-th access (or branch) together.
WarpCost aggregate_warp(const CostModel& cost, const KernelConfig& config,
                        WarpScratch& scratch, int active,
                        PerfCounters& counters) {
  WarpCost warp;
  double max_lane_issue = 0.0;
  double sum_lane_issue = 0.0;
  std::uint32_t max_untracked = 0;

  const double const_cost =
      config.constant_broadcast ? cost.constant_access : cost.constant_serialized;

  // One pass over the lanes: issue cost and scalar counters, plus the
  // trace views the slot passes below walk.
  struct Cursor {
    const SharedRun* run = nullptr;
    std::size_t run_end = 0;  ///< slot one past the current run
    std::size_t length = 0;   ///< the lane's addressed shared accesses
  };
  std::array<Cursor, kWarpSize> live;  // lanes issuing shared, lane order
  int n_live = 0;
  std::array<LaneRun<GlobalOp>, kWarpSize> global_runs;
  int n_global = 0;
  std::array<LaneRun<std::uint8_t>, kWarpSize> branch_runs;
  int n_branch = 0;

  for (int l = 0; l < active; ++l) {
    const LaneCtx& lane = scratch.lanes[static_cast<std::size_t>(l)];
    double issue = lane.alu_count() * cost.alu + lane.fma_count() * cost.fma +
                   lane.sfu_count() * cost.sfu +
                   lane.shared_count() * cost.shared_access +
                   lane.constant_count() * const_cost +
                   lane.texture_count() * cost.texture_fetch;
    const std::size_t branches =
        lane.branch_trace().size() + lane.untracked_branches();
    issue += static_cast<double>(branches) * cost.branch;

    counters.alu_ops += lane.alu_count();
    counters.fma_ops += lane.fma_count();
    counters.sfu_ops += lane.sfu_count();
    counters.shared_accesses += lane.shared_count();
    counters.constant_accesses += lane.constant_count();
    counters.texture_fetches += lane.texture_count();
    counters.lane_issue_cycles += issue;

    sum_lane_issue += issue;
    max_lane_issue = std::max(max_lane_issue, issue);
    max_untracked = std::max(max_untracked, lane.untracked_branches());

    if (lane.shared_word_count() > 0) {
      const SharedRun* first = lane.shared_runs().data();
      live[static_cast<std::size_t>(n_live++)] = {first, first->count,
                                                  lane.shared_word_count()};
    }
    insert_run(global_runs, n_global, lane.global_ops());
    insert_run(branch_runs, n_branch, lane.branch_trace());
  }
  for (const GlobalOp& op : scratch.arena.global_ops) {
    (op.store ? counters.global_write_bytes : counters.global_read_bytes) +=
        op.bytes;
  }
  warp.issue = max_lane_issue;
  // SIMD lockstep: the warp pays max-lane issue, so the gap between the
  // slowest lane and the lane average is issue capacity burned on idle
  // lanes (inactive tail lanes of a partial warp included).
  warp.divergence_issue =
      std::max(0.0, max_lane_issue - sum_lane_issue / kWarpSize);

  // Bank conflicts: distinct 4-byte words falling into the same of the 32
  // banks serialize; an n-way conflict costs n - 1 extra passes, and lanes
  // reading the same word broadcast for free. Lanes still issuing at a
  // slot take their words as offsets from the first of them (lane-delta
  // encoding, lane.h); the degree depends only on those offsets, so it is
  // computed once per segment of slots over which no lane ends and no
  // lane but the first changes its delta run.
  {
    std::size_t slot = 0;
    while (n_live > 1) {
      std::size_t segment_end = live[0].length;
      std::uint32_t offset = 0;
      for (int r = 0; r < n_live; ++r) {
        const Cursor& lane = live[static_cast<std::size_t>(r)];
        segment_end = std::min(segment_end, lane.length);
        if (r > 0) {
          segment_end = std::min(segment_end, lane.run_end);
          offset += lane.run->delta;
        }
        scratch.words[static_cast<std::size_t>(r)] = offset;
      }
      const int extra = conflict_degree(scratch.words, n_live) - 1;
      if (extra > 0) {
        const double serialized = extra * cost.shared_conflict;
        for (; slot < segment_end; ++slot) {
          counters.bank_conflicts += static_cast<std::uint64_t>(extra);
          warp.issue += serialized;
          warp.bank_conflict_issue += serialized;
        }
      }
      slot = segment_end;
      int kept = 0;
      for (int r = 0; r < n_live; ++r) {
        Cursor lane = live[static_cast<std::size_t>(r)];
        if (lane.length <= slot) {
          continue;
        }
        while (lane.run_end <= slot) {
          ++lane.run;
          lane.run_end += lane.run->count;
        }
        live[static_cast<std::size_t>(kept++)] = lane;
      }
      n_live = kept;
    }
  }

  // Coalescing: distinct 128-byte segments of one slot become separate
  // transactions. Neighbouring lanes mostly share a segment, so a lane
  // repeating the previous lane's segment skips the dedup search.
  for (std::size_t slot = 0; n_global > 0; ++slot) {
    int distinct = 0;
    std::uint64_t last = 0;
    for (int r = 0; r < n_global; ++r) {
      const std::uint64_t seg =
          global_runs[static_cast<std::size_t>(r)].data[slot].addr /
          kSegmentBytes;
      if (distinct > 0 && seg == last) {
        continue;
      }
      last = seg;
      bool seen = false;
      for (int s = 0; s < distinct; ++s) {
        if (scratch.segments[static_cast<std::size_t>(s)] == seg) {
          seen = true;
          break;
        }
      }
      if (!seen) {
        scratch.segments[static_cast<std::size_t>(distinct++)] = seg;
      }
    }
    counters.global_transactions += static_cast<std::uint64_t>(distinct);
    warp.issue += distinct * cost.global_transaction_issue;
    warp.stall += cost.global_latency;  // one dependent wait per slot
    n_global = live_at(global_runs, n_global, slot + 1);
  }

  // Divergence: a warp branch is divergent when participating lanes
  // disagree on the outcome at the same trace position.
  for (std::size_t slot = 0; n_branch > 0; ++slot) {
    std::uint8_t any_taken = 0;
    std::uint8_t all_taken = 1;
    for (int r = 0; r < n_branch; ++r) {
      const std::uint8_t taken =
          branch_runs[static_cast<std::size_t>(r)].data[slot];
      any_taken |= taken;
      all_taken &= taken;
    }
    ++counters.warp_branches;
    if (any_taken != all_taken) {
      ++counters.divergent_branches;
    }
    n_branch = live_at(branch_runs, n_branch, slot + 1);
  }
  // Untracked branches are uniform by construction (kernels with regular
  // control flow); count them at warp level without divergence.
  counters.warp_branches += max_untracked;

  counters.warp_issue_cycles += warp.issue;
  return warp;
}

/// Everything a block needs from its launch, shared read-only by the
/// threads running the launch's blocks.
struct BlockContext {
  const DeviceSpec& spec;
  const KernelConfig& config;
  std::span<const PhaseFn> phases;
  int threads_per_block = 0;
  int warps_per_block = 0;
  bool track_branches = false;
  LaunchTap* tap = nullptr;  ///< owning tap; non-null only on serial runs
};

/// A block's issue / stall / divergence / conflict cycles before the ipc
/// and latency-hiding divisors — its slot of the block-order merge.
struct BlockSums {
  double issue = 0.0;
  double stall = 0.0;
  double divergence = 0.0;
  double conflict = 0.0;
};

/// Runs every phase of block `b` and returns its sums; per-lane and
/// per-warp counters accumulate into `counters`.
BlockSums run_block(const BlockContext& ctx, std::int64_t b,
                    WorkerScratch& scratch, PerfCounters& counters) {
  const KernelConfig& config = ctx.config;
  LaunchTap* const tap = ctx.tap;
  ThreadCoord coord;
  coord.grid = config.grid;
  coord.block = config.block;
  coord.block_id.x = static_cast<int>(b % config.grid.x);
  coord.block_id.y = static_cast<int>((b / config.grid.x) % config.grid.y);
  coord.block_id.z = static_cast<int>(b / (static_cast<std::int64_t>(config.grid.x) * config.grid.y));

  SharedMem& shared = scratch.shared;
  WarpScratch& warp_scratch = scratch.warp;
  if (tap == nullptr) {
    shared.reset(static_cast<std::size_t>(config.shared_bytes));
  } else {
    tap->begin_block(coord.block_id);
    shared.reset_checked(static_cast<std::size_t>(config.shared_bytes), tap);
  }
  BlockSums sums;
  for (std::size_t phase = 0; phase < ctx.phases.size(); ++phase) {
    if (tap != nullptr) {
      tap->begin_phase(static_cast<int>(phase));
    }
    // Lanes run in flat thread order, x fastest: step the coordinates
    // instead of dividing per lane.
    coord.thread = Dim3{0, 0, 0};
    for (int w = 0; w < ctx.warps_per_block; ++w) {
      const int first_thread = w * kWarpSize;
      const int active =
          std::min(kWarpSize, ctx.threads_per_block - first_thread);
      warp_scratch.arena.clear();
      for (int l = 0; l < active; ++l) {
        LaneCtx& lane = warp_scratch.lanes[static_cast<std::size_t>(l)];
        lane.start(warp_scratch.arena, ctx.track_branches, tap);
        if (tap != nullptr) {
          tap->begin_lane(coord.thread);
        }
        shared.rewind();
        ctx.phases[phase](coord, lane, shared);
        lane.seal();
        if (tap != nullptr) {
          tap->end_lane(lane);
        }
        if (++coord.thread.x == config.block.x) {
          coord.thread.x = 0;
          if (++coord.thread.y == config.block.y) {
            coord.thread.y = 0;
            ++coord.thread.z;
          }
        }
      }
      const WarpCost warp = aggregate_warp(ctx.spec.cost, config,
                                           warp_scratch, active, counters);
      sums.issue += warp.issue;
      sums.stall += warp.stall;
      sums.divergence += warp.divergence_issue;
      sums.conflict += warp.bank_conflict_issue;
    }
    if (tap != nullptr) {
      tap->end_phase();  // the block-wide barrier commits writes
    }
    if (phase + 1 < ctx.phases.size()) {
      sums.issue += ctx.warps_per_block * ctx.spec.cost.sync;  // __syncthreads
    }
  }
  return sums;
}

}  // namespace

ScopedKernelProfileHook::ScopedKernelProfileHook(KernelProfileHook hook)
    : hook_(std::move(hook)) {}

void ScopedKernelProfileHook::after_launch(const DeviceSpec& spec,
                                           const LaunchCost& cost) {
  if (hook_) {
    hook_(spec, cost);
  }
}

LaunchCost execute_kernel(const DeviceSpec& spec, const KernelConfig& config,
                          std::span<const PhaseFn> phases) {
  const std::span<LaunchObserver* const> observers = launch_observers();
  for (LaunchObserver* observer : observers) {
    observer->before_launch(config);  // may throw to inject a launch failure
  }
  FDET_CHECK(!phases.empty()) << "kernel '" << config.name << "' has no phases";
  FDET_CHECK(config.grid.count() > 0 && config.block.count() > 0)
      << "kernel '" << config.name << "' has an empty launch";
  const int threads_per_block = static_cast<int>(config.block.count());
  FDET_CHECK(threads_per_block <= spec.max_threads_per_block)
      << "kernel '" << config.name << "': " << threads_per_block
      << " threads per block";

  // Opt-in instrumentation (vgpu/tap.h): the innermost tap on the stack
  // (a CheckScope's checker or a CaptureScope's engine) owns the launch's
  // lane events; every other tap is notified once and sees none of them.
  LaunchTap* tap = nullptr;
  for (auto it = observers.rbegin(); it != observers.rend() && tap == nullptr;
       ++it) {
    tap = (*it)->as_tap();
  }
  for (LaunchObserver* observer : observers) {
    LaunchTap* const other = observer->as_tap();
    if (other != nullptr && other != tap) {
      other->on_shadowed_launch(config);
    }
  }
  if (tap == nullptr || !tap->absorbs_resource_faults()) {
    FDET_CHECK(config.constant_bytes <= spec.constant_mem_bytes)
        << "kernel '" << config.name << "' needs " << config.constant_bytes
        << " bytes of constant memory but device '" << spec.name
        << "' provides " << spec.constant_mem_bytes;
  }
  if (tap != nullptr) {
    tap->begin_kernel(spec, config);
  }
  const bool track_branches =
      config.track_branches ||
      (tap != nullptr && tap->wants_branch_tracking());

  LaunchCost result;
  result.config = config;
  result.occupancy = compute_occupancy(spec, threads_per_block,
                                       config.shared_bytes,
                                       config.regs_per_thread);
  FDET_CHECK(result.occupancy.blocks_per_sm > 0)
      << "kernel '" << config.name << "' cannot be resident on an SM";

  const std::int64_t num_blocks = config.grid.count();
  result.block_service_cycles.resize(static_cast<std::size_t>(num_blocks));

  const int warps_per_block =
      (threads_per_block + kWarpSize - 1) / kWarpSize;
  // Latency hiding pool: every resident warp beyond the first helps cover
  // memory stalls.
  const double hiding =
      1.0 + spec.cost.latency_hiding_per_warp *
                std::max(0, result.occupancy.resident_warps - 1);
  // Hypothetical hiding pool of a fully occupied SM: the stall a launch
  // would still see at max occupancy. The gap between stall/hiding and
  // stall/hiding_full is the occupancy-limited loss the profiler reports.
  const double hiding_full =
      1.0 + spec.cost.latency_hiding_per_warp *
                std::max(0, spec.max_warps_per_sm - 1);

  // Blocks are independent (the checker enforces it): untapped launches
  // run their chunks on the host pool, each chunk into its own counter
  // partial and each block into its own sums slot. A tap observes lane
  // events in launch order, so tapped launches (and single-block ones)
  // run the same chunks in order on this thread.
  const BlockContext block_ctx{spec,           config,
                               phases,         threads_per_block,
                               warps_per_block, track_branches,
                               tap};
  const std::int64_t chunks = std::min(num_blocks, kLaunchChunks);
  std::vector<BlockSums> block_sums(static_cast<std::size_t>(num_blocks));
  std::vector<PerfCounters> partials(static_cast<std::size_t>(chunks));
  const auto run_chunks = [&](std::size_t first, std::size_t last) {
    WorkerScratch& scratch = worker_scratch();
    for (std::size_t c = first; c < last; ++c) {
      const std::int64_t chunk = static_cast<std::int64_t>(c);
      for (std::int64_t b = chunk * num_blocks / chunks;
           b < (chunk + 1) * num_blocks / chunks; ++b) {
        block_sums[static_cast<std::size_t>(b)] =
            run_block(block_ctx, b, scratch, partials[c]);
      }
    }
  };
  if (tap == nullptr && num_blocks > 1) {
    core::default_pool().parallel_for(static_cast<std::size_t>(chunks),
                                      run_chunks);
  } else {
    run_chunks(0, static_cast<std::size_t>(chunks));
  }

  // Merge on the launching thread, partials in chunk order and blocks in
  // block order, so the service-cycle sums add up exactly as a serial
  // block loop would.
  for (const PerfCounters& partial : partials) {
    result.counters += partial;
  }
  for (std::int64_t b = 0; b < num_blocks; ++b) {
    const BlockSums& block = block_sums[static_cast<std::size_t>(b)];
    const double service =
        block.issue / spec.cost.ipc + block.stall / hiding;
    result.block_service_cycles[static_cast<std::size_t>(b)] = service;
    result.total_service_cycles += service;

    // Service-cycle decomposition (counters.h): same ipc / hiding divisors
    // as the timing above, so issue + stall sums to total_service_cycles.
    result.counters.issue_service_cycles += block.issue / spec.cost.ipc;
    result.counters.stall_service_cycles += block.stall / hiding;
    result.counters.stall_base_cycles += block.stall / hiding_full;
    result.counters.divergence_cycles += block.divergence / spec.cost.ipc;
    result.counters.bank_conflict_cycles += block.conflict / spec.cost.ipc;
  }

  result.counters.threads =
      static_cast<std::uint64_t>(num_blocks) * threads_per_block;
  result.counters.warps = static_cast<std::uint64_t>(num_blocks) *
                          warps_per_block * phases.size();
  if (tap != nullptr) {
    tap->end_kernel();
  }
  for (LaunchObserver* observer : observers) {
    observer->after_launch(spec, result);
  }
  return result;
}

LaunchCost execute_kernel(const DeviceSpec& spec, const KernelConfig& config,
                          PhaseFn phase) {
  const std::array<PhaseFn, 1> phases{std::move(phase)};
  return execute_kernel(spec, config, std::span<const PhaseFn>(phases));
}

LaunchCost execute_kernel(const DeviceSpec& spec, const KernelConfig& config,
                          PhaseFn phase1, PhaseFn phase2) {
  const std::array<PhaseFn, 2> phases{std::move(phase1), std::move(phase2)};
  return execute_kernel(spec, config, std::span<const PhaseFn>(phases));
}

CheckedExecution execute_kernel_checked(const DeviceSpec& spec,
                                        const KernelConfig& config,
                                        std::span<const PhaseFn> phases,
                                        CheckOptions options) {
  CheckScope scope(std::move(options));
  CheckedExecution result;
  result.cost = execute_kernel(spec, config, phases);
  result.report = std::move(scope.checker().take_reports().back());
  return result;
}

CheckedExecution execute_kernel_checked(const DeviceSpec& spec,
                                        const KernelConfig& config,
                                        PhaseFn phase, CheckOptions options) {
  const std::array<PhaseFn, 1> phases{std::move(phase)};
  return execute_kernel_checked(spec, config,
                                std::span<const PhaseFn>(phases),
                                std::move(options));
}

CheckedExecution execute_kernel_checked(const DeviceSpec& spec,
                                        const KernelConfig& config,
                                        PhaseFn phase1, PhaseFn phase2,
                                        CheckOptions options) {
  const std::array<PhaseFn, 2> phases{std::move(phase1), std::move(phase2)};
  return execute_kernel_checked(spec, config,
                                std::span<const PhaseFn>(phases),
                                std::move(options));
}

}  // namespace fdet::vgpu
