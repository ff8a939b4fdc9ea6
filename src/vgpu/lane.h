// Per-lane instruction accounting.
//
// Kernels on the virtual GPU are ordinary C++ functors executed once per
// thread (lane). They do their real work on host memory and, along the way,
// report every costed operation to the LaneCtx. The executor then reduces
// lanes warp-wise (32 lanes in lockstep: the warp pays for its slowest
// lane, and early-exiting lanes idle — precisely the SIMD underutilization
// the paper attacks) and derives timing plus profiler-style counters.
//
// Scalar operations are plain per-lane counters. The three traces the
// warp reduction aligns slot by slot across lanes — global accesses,
// addressed shared words and tracked branch outcomes — live in one
// WarpArena per warp rather than in per-lane containers: the lanes of a
// warp run one after another, so each lane's records form one contiguous
// stretch of each arena vector, and a LaneCtx only remembers where its
// stretches begin and end.
//
// Shared words are the bulk of a trace (a deep cascade walk issues
// thousands per lane), so they are stored lane-delta encoded: a lane's
// k-th word is kept as its difference from the k-th word of the nearest
// earlier lane of the warp that issued a k-th access (from 0 when none
// did), run-length encoded. Lanes of a warp walking one array in lockstep
// differ by a constant, so each lane after the first costs a few runs,
// and the executor's bank-conflict pass can treat a stretch of slots over
// which no lane's delta changes as a single slot pattern.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "vgpu/tap.h"

namespace fdet::vgpu {

/// One recorded global-memory access.
struct GlobalOp {
  std::uint64_t addr;
  std::uint32_t bytes;
  bool store;
};

/// `count` consecutive shared words of a lane, each `delta` (mod 2^32)
/// above the same slot's word of the nearest earlier lane issuing it.
struct SharedRun {
  std::uint32_t delta;
  std::uint32_t count;
};

/// Trace storage shared by the lanes of one warp. The executor clears it
/// before each warp; the vectors keep their capacity, so a host worker
/// stops allocating once it has seen its largest warp.
struct WarpArena {
  std::vector<GlobalOp> global_ops;
  std::vector<SharedRun> shared_runs;
  /// Encoder reference: slot k holds the k-th shared word of the latest
  /// lane so far that issued a k-th access.
  std::vector<std::uint32_t> shared_ref;
  std::vector<std::uint8_t> branches;

  void clear() {
    global_ops.clear();
    shared_runs.clear();
    shared_ref.clear();
    branches.clear();
  }
};

class LaneCtx {
 public:
  /// Starts a lane: clears the counters and opens the lane's trace runs at
  /// the end of `arena`. `tap` is the launch's owning tap, if any (the
  /// verification engine under a CheckScope or the analyzer's capture
  /// engine, precedence in vgpu/tap.h). Called by the executor before each
  /// lane; the previous lane of the warp must have been sealed.
  void start(WarpArena& arena, bool track_branches, LaunchTap* tap) {
    n_alu_ = n_fma_ = n_sfu_ = n_shared_ = n_const_ = n_tex_ = 0;
    untracked_branches_ = 0;
    n_words_ = 0;
    track_branches_ = track_branches;
    tap_ = tap;
    arena_ = &arena;
    global_begin_ = global_end_ = arena.global_ops.size();
    shared_begin_ = shared_end_ = arena.shared_runs.size();
    branch_begin_ = branch_end_ = arena.branches.size();
  }
  /// Closes the lane's trace runs; the executor calls it when the lane's
  /// phase body returns, before the next lane of the warp starts.
  void seal() {
    global_end_ = arena_->global_ops.size();
    shared_end_ = arena_->shared_runs.size();
    branch_end_ = arena_->branches.size();
  }

  // --- arithmetic -----------------------------------------------------
  void alu(int n = 1) { n_alu_ += static_cast<std::uint32_t>(n); }
  void fma(int n = 1) { n_fma_ += static_cast<std::uint32_t>(n); }
  void sfu(int n = 1) { n_sfu_ += static_cast<std::uint32_t>(n); }

  // --- memory ---------------------------------------------------------
  /// Global-memory read of `bytes` at virtual address `addr`. Addresses are
  /// kept so the executor can derive 128-byte coalesced transactions per
  /// warp instead of trusting the kernel author.
  void global_load(std::uint64_t addr, std::uint32_t bytes) {
    arena_->global_ops.push_back({addr, bytes, /*store=*/false});
  }
  void global_store(std::uint64_t addr, std::uint32_t bytes) {
    arena_->global_ops.push_back({addr, bytes, /*store=*/true});
  }
  /// Unaddressed shared-memory access: counted and costed conflict-free.
  /// Carries no address, so checked execution cannot race-check it and
  /// the executor cannot model bank conflicts for it — prefer the
  /// addressed shared_load/shared_store below in kernels that stage data
  /// cooperatively (those feed both the race shadow and the per-warp
  /// bank-conflict model).
  void shared_access(int n = 1) {
    n_shared_ += static_cast<std::uint32_t>(n);
    if (tap_ != nullptr) {
      tap_->on_unattributed_shared(static_cast<std::uint32_t>(n));
    }
  }
  /// Addressed shared-memory read/write of `bytes` at byte `offset` within
  /// the block's buffer (SharedMem::offset_of). Costed like one
  /// shared_access() plus any bank-conflict serialization the executor
  /// derives: lanes of a warp issue their k-th shared access together, and
  /// distinct 4-byte words falling into the same of the 32 banks
  /// serialize (same-word broadcast is free). Accesses wider than a word
  /// are attributed to their first bank. Also feeds the race/memcheck
  /// shadow when a CheckScope is active.
  void shared_load(std::size_t offset, std::uint32_t bytes) {
    ++n_shared_;
    record_shared_word(static_cast<std::uint32_t>(offset / 4));
    if (tap_ != nullptr) {
      tap_->on_shared(offset, bytes, /*store=*/false);
    }
  }
  void shared_store(std::size_t offset, std::uint32_t bytes) {
    ++n_shared_;
    record_shared_word(static_cast<std::uint32_t>(offset / 4));
    if (tap_ != nullptr) {
      tap_->on_shared(offset, bytes, /*store=*/true);
    }
  }
  /// Convenience: report the access for one element of a SharedMem span,
  /// deriving offset and size from the element itself:
  ///   tile[i] = v;  ctx.shared_store_at(shared, tile[i]);
  template <typename SharedMemT, typename T>
  void shared_load_at(const SharedMemT& shared, const T& element) {
    shared_load(shared.offset_of(&element), sizeof(T));
  }
  template <typename SharedMemT, typename T>
  void shared_store_at(const SharedMemT& shared, const T& element) {
    shared_store(shared.offset_of(&element), sizeof(T));
  }
  /// Constant-cache access. The cascade kernel keeps all active lanes of a
  /// warp on the same feature record, so accesses broadcast (see paper
  /// Sec. III-C); the serialized case is exercised by the ablation bench
  /// through KernelConfig::constant_broadcast = false.
  void constant_load(int n = 1) { n_const_ += static_cast<std::uint32_t>(n); }
  /// Bilinearly interpolated texture fetch (tex2D).
  void texture_fetch(int n = 1) { n_tex_ += static_cast<std::uint32_t>(n); }

  // --- control flow ---------------------------------------------------
  /// Records the outcome of a data-dependent branch. When branch tracking
  /// is enabled the per-lane outcome sequence is compared across the warp
  /// to count divergent branches (profiler "branch efficiency").
  void branch(bool taken) {
    if (track_branches_) {
      arena_->branches.push_back(taken ? 1 : 0);
    } else {
      ++untracked_branches_;
    }
  }

  /// Branches that are uniform across the warp by construction (loop
  /// back-edges over a shared trip count, uniform guards). Real kernels
  /// execute many of these per data-dependent branch; they dominate the
  /// profiler's branch statistic, so kernels should report them to keep
  /// branch-efficiency numbers comparable to hardware counters.
  void branch_uniform(int n = 1) {
    untracked_branches_ += static_cast<std::uint32_t>(n);
  }

  // --- executor interface ----------------------------------------------
  std::uint32_t alu_count() const { return n_alu_; }
  std::uint32_t fma_count() const { return n_fma_; }
  std::uint32_t sfu_count() const { return n_sfu_; }
  std::uint32_t shared_count() const { return n_shared_; }
  std::uint32_t constant_count() const { return n_const_; }
  std::uint32_t texture_count() const { return n_tex_; }
  std::uint32_t untracked_branches() const { return untracked_branches_; }
  // The trace views below point into the warp arena: valid once the lane
  // is sealed, until the arena is cleared or the next lane appends.
  std::span<const GlobalOp> global_ops() const {
    return {arena_->global_ops.data() + global_begin_,
            global_end_ - global_begin_};
  }
  /// 4-byte word indices of the addressed shared accesses, in issue order
  /// and lane-delta encoded (file comment); the executor aligns them
  /// slot-wise across the warp to count bank conflicts. Unaddressed
  /// shared_access() calls do not appear here.
  std::span<const SharedRun> shared_runs() const {
    return {arena_->shared_runs.data() + shared_begin_,
            shared_end_ - shared_begin_};
  }
  /// Number of addressed shared accesses (the runs' total count).
  std::uint32_t shared_word_count() const { return n_words_; }
  std::span<const std::uint8_t> branch_trace() const {
    return {arena_->branches.data() + branch_begin_,
            branch_end_ - branch_begin_};
  }

 private:
  void record_shared_word(std::uint32_t word) {
    WarpArena& arena = *arena_;
    const std::size_t slot = n_words_++;
    std::uint32_t delta = word;
    if (slot < arena.shared_ref.size()) {
      delta = word - arena.shared_ref[slot];
      arena.shared_ref[slot] = word;
    } else {
      arena.shared_ref.push_back(word);
    }
    if (arena.shared_runs.size() > shared_begin_ &&
        arena.shared_runs.back().delta == delta) {
      ++arena.shared_runs.back().count;
    } else {
      arena.shared_runs.push_back({delta, 1});
    }
  }

  std::uint32_t n_alu_ = 0;
  std::uint32_t n_fma_ = 0;
  std::uint32_t n_sfu_ = 0;
  std::uint32_t n_shared_ = 0;
  std::uint32_t n_const_ = 0;
  std::uint32_t n_tex_ = 0;
  std::uint32_t untracked_branches_ = 0;
  std::uint32_t n_words_ = 0;
  bool track_branches_ = false;
  LaunchTap* tap_ = nullptr;
  WarpArena* arena_ = nullptr;
  std::size_t global_begin_ = 0;
  std::size_t global_end_ = 0;
  std::size_t shared_begin_ = 0;
  std::size_t shared_end_ = 0;
  std::size_t branch_begin_ = 0;
  std::size_t branch_end_ = 0;
};

}  // namespace fdet::vgpu
