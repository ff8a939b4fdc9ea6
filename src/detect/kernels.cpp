#include "detect/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "core/check.h"
#include "img/texture.h"

namespace fdet::detect {
namespace {

/// Deterministic virtual addresses (byte offsets within the image): one
/// warp access slot only ever touches a single array, so offsets suffice
/// for coalescing analysis and keep simulated timings reproducible.
std::uint64_t addr_of_u8(const img::ImageU8& image, int x, int y) {
  return static_cast<std::uint64_t>(y) *
             static_cast<std::uint64_t>(image.width()) +
         static_cast<std::uint64_t>(x);
}

std::uint64_t addr_of_i32(int width, int x, int y) {
  return (static_cast<std::uint64_t>(y) * static_cast<std::uint64_t>(width) +
          static_cast<std::uint64_t>(x)) *
         sizeof(std::int32_t);
}

/// Host-side pre-decoded classifier (what the GPU's registers would hold
/// after the bitwise unpack); the per-lane cost accounting still charges
/// the constant fetch + decode work per the kernel options.
struct DecodedRecord {
  struct R {
    int x, y, w, h, weight;
  };
  std::array<R, 4> rects;
  int rect_count = 0;
  float threshold = 0.0f;
  float left_vote = 0.0f;
  float right_vote = 0.0f;
  std::uint64_t const_addr = 0;  // for the global-memory ablation
};

struct DecodedCascade {
  struct Stage {
    int first = 0;
    int count = 0;
    float threshold = 0.0f;
  };
  std::vector<Stage> stages;
  std::vector<DecodedRecord> records;
};

DecodedCascade decode_bank(const haar::ConstantBank& bank) {
  DecodedCascade out;
  out.records.reserve(bank.classifiers().size());
  for (const auto& ec : bank.classifiers()) {
    DecodedRecord rec;
    rec.rect_count = ec.rect_count;
    for (int i = 0; i < ec.rect_count; ++i) {
      const haar::RectTerm r =
          haar::decode_rect(ec.rects[static_cast<std::size_t>(i)]);
      rec.rects[static_cast<std::size_t>(i)] = {r.x, r.y, r.w, r.h, r.weight};
    }
    rec.threshold =
        static_cast<float>(ec.threshold_q) * haar::kThresholdScale;
    rec.left_vote = static_cast<float>(ec.left_q) / haar::kVoteScale;
    rec.right_vote = static_cast<float>(ec.right_q) / haar::kVoteScale;
    rec.const_addr =
        static_cast<std::uint64_t>(out.records.size()) * 64;  // record slot
    out.records.push_back(rec);
  }
  for (const auto& es : bank.stages()) {
    out.stages.push_back({static_cast<int>(es.first),
                          static_cast<int>(es.count),
                          static_cast<float>(es.threshold_q) /
                              haar::kVoteScale});
  }
  return out;
}

}  // namespace

vgpu::LaunchCost scale_kernel(const vgpu::DeviceSpec& spec,
                              const img::ImageU8& source, img::ImageU8& dest,
                              const std::string& name) {
  const img::BilinearSampler<std::uint8_t> sampler(source);
  const float sx = static_cast<float>(source.width()) / dest.width();
  const float sy = static_cast<float>(source.height()) / dest.height();
  const int w = dest.width();
  const int h = dest.height();

  vgpu::KernelConfig config{
      .name = name,
      .grid = {(w + 15) / 16, (h + 15) / 16, 1},
      .block = {16, 16, 1},
      .regs_per_thread = 16,
  };
  return execute_kernel(
      spec, config,
      [&, sx, sy, w, h](const vgpu::ThreadCoord& t, vgpu::LaneCtx& ctx,
                        vgpu::SharedMem&) {
        const int x = t.block_id.x * 16 + t.thread.x;
        const int y = t.block_id.y * 16 + t.thread.y;
        ctx.alu(4);
        if (x >= w || y >= h) {
          return;
        }
        const float v = sampler.sample((static_cast<float>(x) + 0.5f) * sx,
                                       (static_cast<float>(y) + 0.5f) * sy);
        ctx.texture_fetch();
        ctx.fma(2);
        dest(x, y) = static_cast<std::uint8_t>(std::clamp(v, 0.0f, 255.0f));
        ctx.global_store(addr_of_u8(dest, x, y), 1);
      });
}

vgpu::LaunchCost filter_kernel(const vgpu::DeviceSpec& spec,
                               const img::ImageU8& source, img::ImageU8& dest,
                               bool horizontal, const std::string& name) {
  FDET_CHECK(source.width() == dest.width() &&
             source.height() == dest.height());
  const int w = source.width();
  const int h = source.height();

  vgpu::KernelConfig config{
      .name = name,
      .grid = {(w + 15) / 16, (h + 15) / 16, 1},
      .block = {16, 16, 1},
      .regs_per_thread = 12,
  };
  return execute_kernel(
      spec, config,
      [&, horizontal, w, h](const vgpu::ThreadCoord& t, vgpu::LaneCtx& ctx,
                            vgpu::SharedMem&) {
        const int x = t.block_id.x * 16 + t.thread.x;
        const int y = t.block_id.y * 16 + t.thread.y;
        ctx.alu(4);
        if (x >= w || y >= h) {
          return;
        }
        int xm = x;
        int xp = x;
        int ym = y;
        int yp = y;
        if (horizontal) {
          xm = std::max(0, x - 1);
          xp = std::min(w - 1, x + 1);
        } else {
          ym = std::max(0, y - 1);
          yp = std::min(h - 1, y + 1);
        }
        const int acc = source(xm, ym) + 2 * source(x, y) + source(xp, yp);
        ctx.global_load(addr_of_u8(source, xm, ym), 1);
        ctx.global_load(addr_of_u8(source, x, y), 1);
        ctx.global_load(addr_of_u8(source, xp, yp), 1);
        ctx.alu(4);
        dest(x, y) = static_cast<std::uint8_t>((acc + 2) / 4);
        ctx.global_store(addr_of_u8(dest, x, y), 1);
      });
}

haar::CascadeResult evaluate_bank(const haar::ConstantBank& bank,
                                  const integral::IntegralImage& ii, int wx,
                                  int wy) {
  // Reference implementation of the kernel's math (quantized thresholds),
  // against the plain integral image.
  haar::CascadeResult result;
  const DecodedCascade dc = decode_bank(bank);
  for (std::size_t s = 0; s < dc.stages.size(); ++s) {
    const auto& stage = dc.stages[s];
    float score = 0.0f;
    for (int c = 0; c < stage.count; ++c) {
      const DecodedRecord& rec =
          dc.records[static_cast<std::size_t>(stage.first + c)];
      std::int64_t response = 0;
      for (int r = 0; r < rec.rect_count; ++r) {
        const auto& rect = rec.rects[static_cast<std::size_t>(r)];
        response += static_cast<std::int64_t>(rect.weight) *
                    ii.sum(wx + rect.x, wy + rect.y, wx + rect.x + rect.w,
                           wy + rect.y + rect.h);
      }
      score += (static_cast<float>(response) < rec.threshold)
                   ? rec.left_vote
                   : rec.right_vote;
    }
    result.score = score;
    if (score < stage.threshold) {
      return result;
    }
    result.depth = static_cast<int>(s) + 1;
  }
  result.accepted = (result.depth == static_cast<int>(dc.stages.size()));
  return result;
}

vgpu::LaunchCost cascade_kernel(const vgpu::DeviceSpec& spec,
                                const haar::ConstantBank& bank,
                                const integral::IntegralImage& ii,
                                CascadeKernelOutput& out,
                                const CascadeKernelOptions& options,
                                const std::string& name) {
  const int n = options.block_dim;
  FDET_CHECK(n >= haar::kWindowSize)
      << "block dim " << n << " must cover the detection window";
  FDET_CHECK(n * n <= spec.max_threads_per_block);
  const int w = ii.width();
  const int h = ii.height();
  FDET_CHECK(w >= haar::kWindowSize && h >= haar::kWindowSize);

  out.depth = img::ImageI32(w, h, 0);
  out.score = img::ImageF32(w, h, 0.0f);

  const DecodedCascade dc = decode_bank(bank);
  const int stage_count = static_cast<int>(dc.stages.size());
  const img::ImageI32& table = ii.table();

  const int tile_dim = 2 * n;
  const std::size_t tile_elems =
      static_cast<std::size_t>(tile_dim) * static_cast<std::size_t>(tile_dim);

  vgpu::KernelConfig config{
      .name = name,
      .grid = {(w + n - 1) / n, (h + n - 1) / n, 1},
      .block = {n, n, 1},
      .shared_bytes = static_cast<int>(tile_elems * sizeof(std::int32_t)),
      .regs_per_thread = 32,
      .track_branches = true,
      // The re-encoded cascade must fit the device's constant memory
      // (Sec. III-B); execute_kernel enforces this at launch.
      .constant_bytes = options.constant_memory
                            ? static_cast<int>(bank.bytes_compressed())
                            : 0,
  };

  // Phase 1 — eqs. (1)-(4): every thread stages 4 integral pixels; the
  // tile origin is (block*n - 1) so inclusive rectangle sums read the
  // implicit zero row/column without branching.
  const auto load_phase = [&, n, tile_dim, w, h](const vgpu::ThreadCoord& t,
                                                 vgpu::LaneCtx& ctx,
                                                 vgpu::SharedMem& shared) {
    auto tile = shared.array<std::int32_t>(tile_elems);
    const int gx0 = t.block_id.x * n - 1;
    const int gy0 = t.block_id.y * n - 1;
    for (int dy = 0; dy < 2; ++dy) {
      for (int dx = 0; dx < 2; ++dx) {
        const int lx = t.thread.x + dx * n;
        const int ly = t.thread.y + dy * n;
        const int gx = gx0 + lx;
        const int gy = gy0 + ly;
        ctx.alu(4);
        std::int32_t value = 0;
        if (gx >= 0 && gx < w && gy >= 0 && gy < h) {
          value = table(gx, gy);
          ctx.global_load(addr_of_i32(w, gx, gy), 4);
        }
        auto& cell = tile[static_cast<std::size_t>(ly) * tile_dim + lx];
        cell = value;
        ctx.shared_store_at(shared, cell);
      }
    }
  };

  // Phase 2 — cascade walk for this thread's window.
  const auto eval_phase = [&, n, tile_dim, w, h, stage_count](
                              const vgpu::ThreadCoord& t, vgpu::LaneCtx& ctx,
                              vgpu::SharedMem& shared) {
    auto tile = shared.array<std::int32_t>(tile_elems);
    const int x = t.thread.x;
    const int y = t.thread.y;
    const int gx = t.block_id.x * n + x;
    const int gy = t.block_id.y * n + y;
    if (gx >= w || gy >= h) {
      return;
    }
    const bool valid =
        gx + haar::kWindowSize <= w && gy + haar::kWindowSize <= h;
    ctx.branch(valid);
    if (!valid) {
      return;  // depth stays 0; border anchors cannot host a window
    }

    // Every tile read is an attributed shared access (one per corner, the
    // same count the previous shared_access(4) bundle charged), so checked
    // execution can verify the staging protocol of eqs. (1)-(4).
    const auto tile_at = [&tile, &ctx, &shared, tile_dim](int lx, int ly) {
      const auto& cell = tile[static_cast<std::size_t>(ly) * tile_dim + lx];
      ctx.shared_load_at(shared, cell);
      return cell;
    };

    int depth = 0;
    float last_score = 0.0f;
    for (int s = 0; s < stage_count; ++s) {
      const auto& stage = dc.stages[static_cast<std::size_t>(s)];
      float score = 0.0f;
      for (int c = 0; c < stage.count; ++c) {
        const DecodedRecord& rec =
            dc.records[static_cast<std::size_t>(stage.first + c)];
        // Fetch the re-encoded record (broadcast: all active lanes of the
        // warp walk the same classifier).
        const int words = options.compressed_records
                              ? rec.rect_count + 2
                              : rec.rect_count * 5 + 3;
        if (options.constant_memory) {
          ctx.constant_load(words);
        } else {
          for (int k = 0; k < words; ++k) {
            ctx.global_load(rec.const_addr + static_cast<std::uint64_t>(k) * 4,
                            4);
          }
        }
        if (options.compressed_records) {
          ctx.alu(3 * rec.rect_count);  // bitwise unpack (masks + shifts)
        }

        std::int64_t response = 0;
        for (int r = 0; r < rec.rect_count; ++r) {
          const auto& rect = rec.rects[static_cast<std::size_t>(r)];
          const int lx = x + rect.x;
          const int ly = y + rect.y;
          response += static_cast<std::int64_t>(rect.weight) *
                      (tile_at(lx + rect.w, ly + rect.h) -
                       tile_at(lx, ly + rect.h) - tile_at(lx + rect.w, ly) +
                       tile_at(lx, ly));
          ctx.alu(6);
        }
        score += (static_cast<float>(response) < rec.threshold)
                     ? rec.left_vote
                     : rec.right_vote;
        ctx.alu(2);
        // Classifier-loop back-edge: uniform across the active lanes of
        // the warp (they all walk the same stage's classifier list).
        ctx.branch_uniform();
      }
      last_score = score;
      const bool pass = score >= stage.threshold;
      ctx.branch(pass);
      if (!pass) {
        break;
      }
      depth = s + 1;
    }
    out.depth(gx, gy) = depth;
    out.score(gx, gy) = last_score;
    ctx.global_store(addr_of_i32(w, gx, gy), 4);
    ctx.global_store(addr_of_i32(w, gx, gy), 4);
  };

  return execute_kernel(spec, config, load_phase, eval_phase);
}

vgpu::LaunchCost display_kernel(const vgpu::DeviceSpec& spec,
                                const img::ImageI32& depth, int full_depth,
                                double scale_factor, img::ImageU8& overlay,
                                const std::string& name) {
  const int w = depth.width();
  const int h = depth.height();
  vgpu::KernelConfig config{
      .name = name,
      .grid = {(w + 15) / 16, (h + 15) / 16, 1},
      .block = {16, 16, 1},
      .regs_per_thread = 16,
  };
  return execute_kernel(
      spec, config,
      [&, w, h, full_depth, scale_factor](const vgpu::ThreadCoord& t,
                                          vgpu::LaneCtx& ctx,
                                          vgpu::SharedMem&) {
        const int x = t.block_id.x * 16 + t.thread.x;
        const int y = t.block_id.y * 16 + t.thread.y;
        if (x >= w || y >= h) {
          return;
        }
        const std::int32_t d = depth(x, y);
        ctx.global_load(addr_of_i32(w, x, y), 4);
        const bool face = (d == full_depth);
        ctx.branch(face);
        if (!face) {
          return;
        }
        // Outline the window, scaled back to frame coordinates.
        const int fx = static_cast<int>(std::lround(x * scale_factor));
        const int fy = static_cast<int>(std::lround(y * scale_factor));
        const int side = static_cast<int>(
            std::lround(haar::kWindowSize * scale_factor));
        ctx.alu(6);
        // Outlines of neighbouring detections overlap, and blocks may run
        // on different host threads: mark pixels with relaxed atomic
        // stores (every writer stores the same value).
        const auto mark = [&overlay](int px, int py) {
          std::atomic_ref<std::uint8_t>(overlay(px, py))
              .store(255, std::memory_order_relaxed);
        };
        for (int i = 0; i < side; ++i) {
          const int right = std::min(overlay.width() - 1, fx + side - 1);
          const int bottom = std::min(overlay.height() - 1, fy + side - 1);
          const int cx = std::min(overlay.width() - 1, fx + i);
          const int cy = std::min(overlay.height() - 1, fy + i);
          mark(cx, std::min(overlay.height() - 1, fy));
          mark(cx, bottom);
          mark(std::min(overlay.width() - 1, fx), cy);
          mark(right, cy);
          ctx.global_store(addr_of_u8(overlay, cx, fy), 1);
          ctx.global_store(addr_of_u8(overlay, cx, bottom), 1);
        }
      });
}

}  // namespace fdet::detect
