#include "codec/frame_coding.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "runtime/executor.h"
#include "media/metrics.h"

namespace sieve::codec {

namespace {

/// Extract an 8x8 block (border-clamped) centered by `offset` into int16.
void LoadBlock(const media::Plane& p, int bx, int by, int offset,
               PixelBlock& out) {
  if (p.ContainsRect(bx, by, kBlockSize, kBlockSize)) {
    for (int y = 0; y < kBlockSize; ++y) {
      const std::uint8_t* row = p.row(by + y) + bx;
      std::int16_t* dst = out.data() + y * kBlockSize;
      for (int x = 0; x < kBlockSize; ++x) dst[x] = std::int16_t(int(row[x]) - offset);
    }
    return;
  }
  for (int y = 0; y < kBlockSize; ++y) {
    for (int x = 0; x < kBlockSize; ++x) {
      out[std::size_t(y * kBlockSize + x)] =
          std::int16_t(int(p.at_clamped(bx + x, by + y)) - offset);
    }
  }
}

/// Write an int16 block back to the plane with re-centering and clamping;
/// pixels outside the plane are dropped (edge padding).
void StoreBlock(const PixelBlock& block, int bx, int by, int offset,
                media::Plane& p) {
  if (p.ContainsRect(bx, by, kBlockSize, kBlockSize)) {
    for (int y = 0; y < kBlockSize; ++y) {
      const std::int16_t* src = block.data() + y * kBlockSize;
      std::uint8_t* row = p.row(by + y) + bx;
      for (int x = 0; x < kBlockSize; ++x) {
        row[x] = std::uint8_t(std::clamp(int(src[x]) + offset, 0, 255));
      }
    }
    return;
  }
  for (int y = 0; y < kBlockSize; ++y) {
    if (by + y >= p.height()) break;
    for (int x = 0; x < kBlockSize; ++x) {
      if (bx + x >= p.width()) break;
      const int v = int(block[std::size_t(y * kBlockSize + x)]) + offset;
      p.at(bx + x, by + y) = std::uint8_t(std::clamp(v, 0, 255));
    }
  }
}

/// Residual between a source block and a prediction block.
void LoadResidual(const media::Plane& src, const media::Plane& pred, int bx,
                  int by, PixelBlock& out) {
  if (src.ContainsRect(bx, by, kBlockSize, kBlockSize) && src.SameSize(pred)) {
    for (int y = 0; y < kBlockSize; ++y) {
      const std::uint8_t* rs = src.row(by + y) + bx;
      const std::uint8_t* rp = pred.row(by + y) + bx;
      std::int16_t* dst = out.data() + y * kBlockSize;
      for (int x = 0; x < kBlockSize; ++x) {
        dst[x] = std::int16_t(int(rs[x]) - int(rp[x]));
      }
    }
    return;
  }
  for (int y = 0; y < kBlockSize; ++y) {
    for (int x = 0; x < kBlockSize; ++x) {
      out[std::size_t(y * kBlockSize + x)] =
          std::int16_t(int(src.at_clamped(bx + x, by + y)) -
                       int(pred.at_clamped(bx + x, by + y)));
    }
  }
}

/// recon = pred + residual, clamped; clipped to plane bounds.
void StoreResidualRecon(const PixelBlock& residual, const media::Plane& pred,
                        int bx, int by, media::Plane& out) {
  if (out.ContainsRect(bx, by, kBlockSize, kBlockSize) && out.SameSize(pred)) {
    for (int y = 0; y < kBlockSize; ++y) {
      const std::uint8_t* rp = pred.row(by + y) + bx;
      std::uint8_t* ro = out.row(by + y) + bx;
      const std::int16_t* res = residual.data() + y * kBlockSize;
      for (int x = 0; x < kBlockSize; ++x) {
        ro[x] = std::uint8_t(std::clamp(int(rp[x]) + int(res[x]), 0, 255));
      }
    }
    return;
  }
  for (int y = 0; y < kBlockSize; ++y) {
    if (by + y >= out.height()) break;
    for (int x = 0; x < kBlockSize; ++x) {
      if (bx + x >= out.width()) break;
      const int v = int(pred.at_clamped(bx + x, by + y)) +
                    int(residual[std::size_t(y * kBlockSize + x)]);
      out.at(bx + x, by + y) = std::uint8_t(std::clamp(v, 0, 255));
    }
  }
}

/// Intra plane pass 1 (per-block DCT + quantization + reconstruction):
/// entropy-free, parallelizes over 8-pixel block rows — blocks read only
/// `src` and write disjoint regions of `recon` and the coefficient list.
void CodeIntraPlanePass1(const media::Plane& src, const QuantTable& q,
                         media::Plane& recon, runtime::Executor* executor,
                         std::vector<CoeffBlock>& coeffs) {
  const int blocks_x = (src.width() + kBlockSize - 1) / kBlockSize;
  const int blocks_y = (src.height() + kBlockSize - 1) / kBlockSize;
  coeffs.resize(std::size_t(blocks_x) * std::size_t(blocks_y));

  auto code_row = [&](std::size_t row) {
    PixelBlock block, rec;
    const int by = int(row) * kBlockSize;
    CoeffBlock* out = coeffs.data() + row * std::size_t(blocks_x);
    for (int i = 0; i < blocks_x; ++i) {
      const int bx = i * kBlockSize;
      LoadBlock(src, bx, by, 128, block);
      ReconstructBlock(block, q, out[i], rec);
      StoreBlock(rec, bx, by, 128, recon);
    }
  };
  if (executor != nullptr && executor->concurrency() > 1 && blocks_y > 1) {
    executor->ParallelFor(std::size_t(blocks_y), code_row);
  } else {
    for (int row = 0; row < blocks_y; ++row) code_row(std::size_t(row));
  }
}

/// Intra plane pass 2: the serial DC-predicted entropy sweep over the stored
/// coefficients in raster order (the predictor and the adaptive models are
/// sequential across the whole plane). The quantized coefficients do not
/// depend on the DC predictor (prediction happens at the entropy stage), so
/// pass 1 + pass 2 is byte-identical to a fused serial loop for every
/// executor and for any pass-1/pass-2 interleaving across planes or frames.
void CodeIntraPlaneEntropy(RangeEncoder& rc, PlaneModels& models,
                           const std::vector<CoeffBlock>& coeffs) {
  std::int32_t dc_pred = 0;
  for (const CoeffBlock& c : coeffs) {
    EncodeCoeffBlock(rc, models, c, dc_pred);
  }
}

void DecodeIntraPlane(RangeDecoder& rc, PlaneModels& models, const QuantTable& q,
                      media::Plane& out) {
  std::int32_t dc_pred = 0;
  PixelBlock rec;
  CoeffBlock coeffs;
  for (int by = 0; by < out.height(); by += kBlockSize) {
    for (int bx = 0; bx < out.width(); bx += kBlockSize) {
      DecodeCoeffBlock(rc, models, coeffs, dc_pred);
      DecodeBlock(coeffs, q, rec);
      StoreBlock(rec, bx, by, 128, out);
    }
  }
}

/// Code one residual 8x8 at (bx,by) of src against pred; writes recon.
void CodeResidualBlock(RangeEncoder& rc, PlaneModels& models,
                       const media::Plane& src, const media::Plane& pred, int bx,
                       int by, const QuantTable& q, media::Plane& recon) {
  PixelBlock residual, rec_residual;
  CoeffBlock coeffs;
  LoadResidual(src, pred, bx, by, residual);
  ReconstructBlock(residual, q, coeffs, rec_residual);
  std::int32_t zero_pred = 0;  // residual DC has no spatial prediction
  EncodeCoeffBlock(rc, models, coeffs, zero_pred);
  StoreResidualRecon(rec_residual, pred, bx, by, recon);
}

void DecodeResidualBlock(RangeDecoder& rc, PlaneModels& models,
                         const media::Plane& pred, int bx, int by,
                         const QuantTable& q, media::Plane& out) {
  PixelBlock rec_residual;
  CoeffBlock coeffs;
  std::int32_t zero_pred = 0;
  DecodeCoeffBlock(rc, models, coeffs, zero_pred);
  DecodeBlock(coeffs, q, rec_residual);
  StoreResidualRecon(rec_residual, pred, bx, by, out);
}

/// Copy a 16x16 luma MB (and the 8x8 chroma MBs) from prev to recon (SKIP).
void CopyMacroblock(const media::Frame& prev, int mbx, int mby,
                    media::Frame& recon) {
  const int lx = mbx * kMacroblockSize, ly = mby * kMacroblockSize;
  const int lw = std::min(kMacroblockSize, recon.width() - lx);
  for (int y = 0; y < kMacroblockSize && ly + y < recon.height(); ++y) {
    const std::uint8_t* src = prev.y().row(ly + y) + lx;
    std::copy(src, src + lw, recon.y().row(ly + y) + lx);
  }
  const int cx = mbx * kBlockSize, cy = mby * kBlockSize;
  const int cw = std::min(kBlockSize, recon.u().width() - cx);
  for (int y = 0; y < kBlockSize && cy + y < recon.u().height(); ++y) {
    const std::uint8_t* su = prev.u().row(cy + y) + cx;
    const std::uint8_t* sv = prev.v().row(cy + y) + cx;
    std::copy(su, su + cw, recon.u().row(cy + y) + cx);
    std::copy(sv, sv + cw, recon.v().row(cy + y) + cx);
  }
}

}  // namespace

void EncodeIntraFrame(RangeEncoder& rc, FrameModels& models,
                      const media::Frame& src, const CodingContext& ctx,
                      media::Frame& recon, runtime::Executor* executor,
                      IntraScratch* scratch) {
  IntraScratch local;
  IntraScratch& s = scratch != nullptr ? *scratch : local;
  EncodeIntraFramePass1(src, ctx, recon, executor, s);
  EncodeIntraFrameEntropy(rc, models, s);
}

void EncodeIntraFramePass1(const media::Frame& src, const CodingContext& ctx,
                           media::Frame& recon, runtime::Executor* executor,
                           IntraScratch& scratch) {
  CodeIntraPlanePass1(src.y(), ctx.luma_q, recon.y(), executor,
                      scratch.coeffs[0]);
  CodeIntraPlanePass1(src.u(), ctx.chroma_q, recon.u(), executor,
                      scratch.coeffs[1]);
  CodeIntraPlanePass1(src.v(), ctx.chroma_q, recon.v(), executor,
                      scratch.coeffs[2]);
}

void EncodeIntraFrameEntropy(RangeEncoder& rc, FrameModels& models,
                             const IntraScratch& scratch) {
  CodeIntraPlaneEntropy(rc, models.luma_intra, scratch.coeffs[0]);
  CodeIntraPlaneEntropy(rc, models.chroma_intra, scratch.coeffs[1]);
  CodeIntraPlaneEntropy(rc, models.chroma_intra, scratch.coeffs[2]);
}

void DecodeIntraFrame(RangeDecoder& rc, FrameModels& models,
                      const CodingContext& ctx, media::Frame& out) {
  DecodeIntraPlane(rc, models.luma_intra, ctx.luma_q, out.y());
  DecodeIntraPlane(rc, models.chroma_intra, ctx.chroma_q, out.u());
  DecodeIntraPlane(rc, models.chroma_intra, ctx.chroma_q, out.v());
}

namespace {

/// Pass 1 for one macroblock row: motion estimation, motion compensation,
/// residual transform + quantization, and reconstruction. Rows are
/// independent: the MV predictor resets to zero at the start of every row,
/// the searches read only `src`/`prev_recon` (immutable during pass 1), and
/// each macroblock writes disjoint regions of the shared pred/recon planes.
/// Everything here is entropy-free, which is what makes it parallel.
void ProcessMacroblockRow(const media::Frame& src,
                          const media::Frame& prev_recon,
                          const CodingContext& ctx, const InterParams& params,
                          std::uint64_t skip_threshold, int mbs_x, int mby,
                          InterMbTask* row, media::Plane& pred_y,
                          media::Plane& pred_u, media::Plane& pred_v,
                          media::Frame& recon) {
  PixelBlock residual, rec_residual;
  MotionVector predictor{0, 0};
  for (int mbx = 0; mbx < mbs_x; ++mbx) {
    const int lx = mbx * kMacroblockSize, ly = mby * kMacroblockSize;
    // Zero-motion SAD decides SKIP before any search; the scan terminates
    // early once the threshold is unreachable (decision-identical).
    const std::uint64_t zero_sad = media::RegionSadBounded(
        src.y(), lx, ly, prev_recon.y(), lx, ly, kMacroblockSize,
        kMacroblockSize, skip_threshold);
    if (zero_sad < skip_threshold) {
      row[mbx].skip = true;
      CopyMacroblock(prev_recon, mbx, mby, recon);
      predictor = MotionVector{0, 0};
      continue;
    }
    const MotionResult mr = DiamondSearch(
        src.y(), prev_recon.y(), lx, ly, kMacroblockSize, kMacroblockSize,
        params.search_range, predictor, params.lambda);
    row[mbx].skip = false;
    row[mbx].mv = mr.mv;
    predictor = mr.mv;

    // Luma prediction + residual transform (4 blocks of 8x8).
    CompensateBlock(prev_recon.y(), pred_y, lx, ly, kMacroblockSize,
                    kMacroblockSize, mr.mv);
    for (int sub = 0; sub < 4; ++sub) {
      const int bx = lx + (sub % 2) * kBlockSize;
      const int by = ly + (sub / 2) * kBlockSize;
      LoadResidual(src.y(), pred_y, bx, by, residual);
      ReconstructBlock(residual, ctx.luma_q, row[mbx].coeffs[std::size_t(sub)],
                       rec_residual);
      StoreResidualRecon(rec_residual, pred_y, bx, by, recon.y());
    }
    // Chroma: one 8x8 block per plane at half-resolution motion.
    const MotionVector cmv{mr.mv.dx / 2, mr.mv.dy / 2};
    const int cx = mbx * kBlockSize, cy = mby * kBlockSize;
    CompensateBlock(prev_recon.u(), pred_u, cx, cy, kBlockSize, kBlockSize, cmv);
    LoadResidual(src.u(), pred_u, cx, cy, residual);
    ReconstructBlock(residual, ctx.chroma_q, row[mbx].coeffs[4], rec_residual);
    StoreResidualRecon(rec_residual, pred_u, cx, cy, recon.u());
    CompensateBlock(prev_recon.v(), pred_v, cx, cy, kBlockSize, kBlockSize, cmv);
    LoadResidual(src.v(), pred_v, cx, cy, residual);
    ReconstructBlock(residual, ctx.chroma_q, row[mbx].coeffs[5], rec_residual);
    StoreResidualRecon(rec_residual, pred_v, cx, cy, recon.v());
  }
}

}  // namespace

void EncodeInterFrame(RangeEncoder& rc, FrameModels& models,
                      const media::Frame& src, const media::Frame& prev_recon,
                      const CodingContext& ctx, const InterParams& params,
                      media::Frame& recon, runtime::Executor* executor,
                      InterScratch* scratch) {
  InterScratch local;
  InterScratch& s = scratch != nullptr ? *scratch : local;
  EncodeInterFramePass1(src, prev_recon, ctx, params, recon, executor, s);
  EncodeInterFrameEntropy(rc, models, s);
}

void EncodeInterFramePass1(const media::Frame& src,
                           const media::Frame& prev_recon,
                           const CodingContext& ctx, const InterParams& params,
                           media::Frame& recon, runtime::Executor* executor,
                           InterScratch& s) {
  const int mbs_x = (src.width() + kMacroblockSize - 1) / kMacroblockSize;
  const int mbs_y = (src.height() + kMacroblockSize - 1) / kMacroblockSize;
  const std::uint64_t skip_threshold =
      std::uint64_t(params.skip_sad_per_pixel) * kMacroblockSize * kMacroblockSize;
  // skip_sad_per_pixel == 0 is resolved by the encoder before reaching here;
  // a literal 0 disables skipping entirely (every MB coded).

  // Search, compensation, transform, reconstruction — parallel over
  // macroblock rows.
  s.mbs_x = mbs_x;
  s.mbs_y = mbs_y;
  if (s.pred_y.width() != src.width() || s.pred_y.height() != src.height()) {
    s.pred_y = media::Plane(src.width(), src.height());
    s.pred_u = media::Plane(src.u().width(), src.u().height());
    s.pred_v = media::Plane(src.v().width(), src.v().height());
  }
  // Stale task contents are harmless: pass 1 always writes skip/mv, and
  // coeffs are written for exactly the macroblocks pass 2 reads them for.
  s.tasks.resize(std::size_t(mbs_x) * std::size_t(mbs_y));
  media::Plane& pred_y = s.pred_y;
  media::Plane& pred_u = s.pred_u;
  media::Plane& pred_v = s.pred_v;
  std::vector<InterMbTask>& tasks = s.tasks;
  auto process_row = [&](std::size_t mby) {
    ProcessMacroblockRow(src, prev_recon, ctx, params, skip_threshold, mbs_x,
                         int(mby), tasks.data() + mby * std::size_t(mbs_x),
                         pred_y, pred_u, pred_v, recon);
  };
  if (executor != nullptr && executor->concurrency() > 1 && mbs_y > 1) {
    executor->ParallelFor(std::size_t(mbs_y), process_row);
  } else {
    for (int mby = 0; mby < mbs_y; ++mby) process_row(std::size_t(mby));
  }
}

void EncodeInterFrameEntropy(RangeEncoder& rc, FrameModels& models,
                             const InterScratch& s) {
  // Serial: the adaptive models and the per-row MV predictor are sequential.
  for (int mby = 0; mby < s.mbs_y; ++mby) {
    MotionVector predictor{0, 0};
    for (int mbx = 0; mbx < s.mbs_x; ++mbx) {
      const InterMbTask& t =
          s.tasks[std::size_t(mby) * std::size_t(s.mbs_x) + std::size_t(mbx)];
      if (t.skip) {
        rc.EncodeBit(models.skip_flag, 1);
        predictor = MotionVector{0, 0};
        continue;
      }
      rc.EncodeBit(models.skip_flag, 0);
      rc.EncodeUnsigned(models.mv_x, ZigzagEncodeSigned(t.mv.dx - predictor.dx));
      rc.EncodeUnsigned(models.mv_y, ZigzagEncodeSigned(t.mv.dy - predictor.dy));
      predictor = t.mv;

      for (int sub = 0; sub < 4; ++sub) {
        std::int32_t zero_pred = 0;  // residual DC has no spatial prediction
        EncodeCoeffBlock(rc, models.luma_inter, t.coeffs[std::size_t(sub)],
                         zero_pred);
      }
      std::int32_t zero_u = 0, zero_v = 0;
      EncodeCoeffBlock(rc, models.chroma_inter, t.coeffs[4], zero_u);
      EncodeCoeffBlock(rc, models.chroma_inter, t.coeffs[5], zero_v);
    }
  }
}

void EncodeInterFrameReference(RangeEncoder& rc, FrameModels& models,
                               const media::Frame& src,
                               const media::Frame& prev_recon,
                               const CodingContext& ctx,
                               const InterParams& params, media::Frame& recon) {
  const int mbs_x = (src.width() + kMacroblockSize - 1) / kMacroblockSize;
  const int mbs_y = (src.height() + kMacroblockSize - 1) / kMacroblockSize;
  const std::uint64_t skip_threshold =
      std::uint64_t(params.skip_sad_per_pixel) * kMacroblockSize * kMacroblockSize;

  media::Plane pred_y(src.width(), src.height());
  media::Plane pred_u(src.u().width(), src.u().height());
  media::Plane pred_v(src.v().width(), src.v().height());

  for (int mby = 0; mby < mbs_y; ++mby) {
    MotionVector predictor{0, 0};
    for (int mbx = 0; mbx < mbs_x; ++mbx) {
      const int lx = mbx * kMacroblockSize, ly = mby * kMacroblockSize;
      const std::uint64_t zero_sad =
          media::RegionSad(src.y(), lx, ly, prev_recon.y(), lx, ly,
                           kMacroblockSize, kMacroblockSize);
      if (zero_sad < skip_threshold) {
        rc.EncodeBit(models.skip_flag, 1);
        CopyMacroblock(prev_recon, mbx, mby, recon);
        predictor = MotionVector{0, 0};
        continue;
      }
      rc.EncodeBit(models.skip_flag, 0);

      const MotionResult mr = DiamondSearchReference(
          src.y(), prev_recon.y(), lx, ly, kMacroblockSize, kMacroblockSize,
          params.search_range, predictor, params.lambda);
      rc.EncodeUnsigned(models.mv_x, ZigzagEncodeSigned(mr.mv.dx - predictor.dx));
      rc.EncodeUnsigned(models.mv_y, ZigzagEncodeSigned(mr.mv.dy - predictor.dy));
      predictor = mr.mv;

      CompensateBlock(prev_recon.y(), pred_y, lx, ly, kMacroblockSize,
                      kMacroblockSize, mr.mv);
      for (int sub = 0; sub < 4; ++sub) {
        const int bx = lx + (sub % 2) * kBlockSize;
        const int by = ly + (sub / 2) * kBlockSize;
        CodeResidualBlock(rc, models.luma_inter, src.y(), pred_y, bx, by,
                          ctx.luma_q, recon.y());
      }
      const MotionVector cmv{mr.mv.dx / 2, mr.mv.dy / 2};
      const int cx = mbx * kBlockSize, cy = mby * kBlockSize;
      CompensateBlock(prev_recon.u(), pred_u, cx, cy, kBlockSize, kBlockSize, cmv);
      CodeResidualBlock(rc, models.chroma_inter, src.u(), pred_u, cx, cy,
                        ctx.chroma_q, recon.u());
      CompensateBlock(prev_recon.v(), pred_v, cx, cy, kBlockSize, kBlockSize, cmv);
      CodeResidualBlock(rc, models.chroma_inter, src.v(), pred_v, cx, cy,
                        ctx.chroma_q, recon.v());
    }
  }
}

void DecodeInterFrame(RangeDecoder& rc, FrameModels& models,
                      const media::Frame& prev_recon, const CodingContext& ctx,
                      media::Frame& out) {
  const int mbs_x = (out.width() + kMacroblockSize - 1) / kMacroblockSize;
  const int mbs_y = (out.height() + kMacroblockSize - 1) / kMacroblockSize;

  media::Plane pred_y(out.width(), out.height());
  media::Plane pred_u(out.u().width(), out.u().height());
  media::Plane pred_v(out.v().width(), out.v().height());

  for (int mby = 0; mby < mbs_y; ++mby) {
    MotionVector predictor{0, 0};
    for (int mbx = 0; mbx < mbs_x; ++mbx) {
      if (rc.DecodeBit(models.skip_flag) != 0) {
        CopyMacroblock(prev_recon, mbx, mby, out);
        predictor = MotionVector{0, 0};
        continue;
      }
      // Corrupt streams can decode wild deltas: accumulate in 64 bits and
      // clamp far beyond any real search range, so the predictor chain and
      // CompensateBlock's coordinate math stay defined for any input.
      constexpr std::int64_t kMvLimit = 1 << 20;
      MotionVector mv;
      mv.dx = int(std::clamp<std::int64_t>(
          std::int64_t(predictor.dx) +
              ZigzagDecodeSigned(rc.DecodeUnsigned(models.mv_x)),
          -kMvLimit, kMvLimit));
      mv.dy = int(std::clamp<std::int64_t>(
          std::int64_t(predictor.dy) +
              ZigzagDecodeSigned(rc.DecodeUnsigned(models.mv_y)),
          -kMvLimit, kMvLimit));
      predictor = mv;

      const int lx = mbx * kMacroblockSize, ly = mby * kMacroblockSize;
      CompensateBlock(prev_recon.y(), pred_y, lx, ly, kMacroblockSize,
                      kMacroblockSize, mv);
      for (int sub = 0; sub < 4; ++sub) {
        const int bx = lx + (sub % 2) * kBlockSize;
        const int by = ly + (sub / 2) * kBlockSize;
        DecodeResidualBlock(rc, models.luma_inter, pred_y, bx, by, ctx.luma_q,
                            out.y());
      }
      const MotionVector cmv{mv.dx / 2, mv.dy / 2};
      const int cx = mbx * kBlockSize, cy = mby * kBlockSize;
      CompensateBlock(prev_recon.u(), pred_u, cx, cy, kBlockSize, kBlockSize, cmv);
      DecodeResidualBlock(rc, models.chroma_inter, pred_u, cx, cy, ctx.chroma_q,
                          out.u());
      CompensateBlock(prev_recon.v(), pred_v, cx, cy, kBlockSize, kBlockSize, cmv);
      DecodeResidualBlock(rc, models.chroma_inter, pred_v, cx, cy, ctx.chroma_q,
                          out.v());
    }
  }
}

}  // namespace sieve::codec
