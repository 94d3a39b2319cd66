#include "sim/accelerator.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>

#include "common/check.h"
#include "common/fixed_point.h"
#include "common/math_util.h"
#include "sim/decoded_program.h"
#include "sim/handshake.h"
#include "winograd/matrices.h"
#include "winograd/transform.h"

namespace hdnn {
namespace {

// Timing constants of the simulator alone; the DRAM transfer rate and burst
// setup are shared with the estimator (platform/fpga_spec.h).
constexpr double kCompFixedCycles = 20.0;  // PE pipeline fill per COMP
constexpr double kCtrlStartCycles = 4.0;   // 4-stage CTRL pipeline fill
constexpr double kCtrlIssueII = 1.0;       // CTRL issue rate

// --- LOAD/SAVE copy micro-kernels ----------------------------------------
//
// The functional memory datapath moves layout-aware contiguous runs between
// DRAM (int16 words) and the on-chip buffer images (int32 elements); these
// two width converters are the only per-element operations left on the bulk
// paths, and both vectorize.

/// Widening copy, DRAM word -> buffer element.
inline void WidenRun(const std::int16_t* src, std::int32_t* dst,
                     std::int64_t n) {
  std::copy_n(src, static_cast<std::size_t>(n), dst);
}

/// Narrowing copy, buffer element -> DRAM word (values are already
/// requantised into the feature width; the cast truncates like the per-word
/// path's static_cast did).
inline void NarrowRun(const std::int32_t* src, std::int16_t* dst,
                      std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    dst[i] = static_cast<std::int16_t>(src[i]);
  }
}

// --- MAC micro-kernels, specialised on the GEMM-core geometry ------------
//
// PI/PO are template parameters so the innermost reductions fully unroll
// for the common design points (both published configurations use
// PI = PO = 4); <0, 0> is the generic runtime-trip-count fallback. The
// dispatch happens once per COMP instruction, far outside the tile loops.

/// Winograd EWMM for one (kv, cvi) pair: ee GEMM-core steps, each a PI x PO
/// outer-product MAC. Weights are (((e)*PO + co)*PI + ci) within w_cv; the
/// transformed-input arena v_cv is (e*PI + ci) — both ci streams stride-1.
template <int PI, int PO>
void EwmmAccumulate(const std::int32_t* w_cv, const std::int32_t* v_cv,
                    std::int64_t* acc_kv, std::int64_t ee, int pi_rt,
                    int po_rt) {
  const int pi = PI > 0 ? PI : pi_rt;
  const int po = PO > 0 ? PO : po_rt;
  for (std::int64_t e = 0; e < ee; ++e) {
    const std::int32_t* const w_e = w_cv + e * po * pi;
    const std::int32_t* const v_e = v_cv + e * pi;
    std::int64_t* const acc_e = acc_kv + e * po;
    for (int co = 0; co < po; ++co) {
      const std::int32_t* const w_co = w_e + co * pi;
      std::int64_t acc = 0;
      for (int ci = 0; ci < pi; ++ci) {
        acc += static_cast<std::int64_t>(w_co[ci]) *
               static_cast<std::int64_t>(v_e[ci]);
      }
      acc_e[co] += acc;
    }
  }
}

/// Spatial MAC for one (position, tap, cvi) triple: PI input lanes fanned
/// out to ocv x PO accumulators, with the zero-skip of the broadcast tree.
template <int PI, int PO>
void SpatialAccumulate(const std::int32_t* in_cv, const std::int32_t* w_cv,
                       std::int64_t* acc_pos, int ocv,
                       std::int64_t kv_stride, int pi_rt, int po_rt) {
  const int pi = PI > 0 ? PI : pi_rt;
  const int po = PO > 0 ? PO : po_rt;
  for (int ci = 0; ci < pi; ++ci) {
    const std::int64_t din = in_cv[ci];
    if (din == 0) continue;
    const std::int32_t* w_kv = w_cv + ci;
    std::int64_t* acc = acc_pos;
    for (int kv = 0; kv < ocv; ++kv) {
      for (int lane = 0; lane < po; ++lane) {
        acc[lane] +=
            din * static_cast<std::int64_t>(
                      w_kv[static_cast<std::int64_t>(lane) * pi]);
      }
      acc += po;
      w_kv += kv_stride;
    }
  }
}

using EwmmFn = void (*)(const std::int32_t*, const std::int32_t*,
                        std::int64_t*, std::int64_t, int, int);
using SpatialFn = void (*)(const std::int32_t*, const std::int32_t*,
                           std::int64_t*, int, std::int64_t, int, int);

EwmmFn SelectEwmm(int pi, int po) {
  if (pi == 4 && po == 4) return &EwmmAccumulate<4, 4>;
  if (pi == 8 && po == 4) return &EwmmAccumulate<8, 4>;
  if (pi == 8 && po == 8) return &EwmmAccumulate<8, 8>;
  return &EwmmAccumulate<0, 0>;
}

SpatialFn SelectSpatial(int pi, int po) {
  if (pi == 4 && po == 4) return &SpatialAccumulate<4, 4>;
  if (pi == 8 && po == 4) return &SpatialAccumulate<8, 4>;
  if (pi == 8 && po == 8) return &SpatialAccumulate<8, 8>;
  return &SpatialAccumulate<0, 0>;
}

}  // namespace

Accelerator::Accelerator(const AccelConfig& cfg, const FpgaSpec& spec)
    : cfg_(cfg), bw_elems_per_cycle_(spec.dram_words_per_cycle(cfg.ni)) {
  cfg_.Validate();
  input_buf_.assign(
      static_cast<std::size_t>(2 * cfg_.input_buffer_vectors * cfg_.pi), 0);
  weight_buf_.assign(static_cast<std::size_t>(2 * cfg_.weight_buffer_vectors *
                                              cfg_.pi * cfg_.po),
                     0);
  output_buf_.assign(
      static_cast<std::size_t>(2 * cfg_.output_buffer_vectors * cfg_.po), 0);
  bias_buf_.assign(static_cast<std::size_t>(2 * kBiasCapacity), 0);
}

std::int16_t* Accelerator::ResidentSpan(std::int64_t addr, std::int64_t words) {
  HDNN_CHECK(addr >= 0 && words >= 0) << "negative resident-store range";
  if (resident_.empty()) {
    resident_base_ = addr;
    resident_.assign(static_cast<std::size_t>(words), 0);
  }
  if (addr < resident_base_) {
    // Extend downwards (a later fused tensor's slot below the first one).
    resident_.insert(resident_.begin(),
                     static_cast<std::size_t>(resident_base_ - addr), 0);
    resident_base_ = addr;
  }
  const std::int64_t hi = addr + words - resident_base_;
  if (hi > static_cast<std::int64_t>(resident_.size())) {
    resident_.resize(static_cast<std::size_t>(hi), 0);
  }
  return resident_.data() + static_cast<std::size_t>(addr - resident_base_);
}

void Accelerator::EnsureAccum(std::int64_t size, bool clear) {
  // Grows monotonically and is zeroed in place on accum_clear, so the
  // steady-state COMP loop never reallocates the accumulation buffer.
  if (static_cast<std::int64_t>(accum_.size()) < size) {
    accum_.assign(static_cast<std::size_t>(size), 0);
  } else if (clear) {
    std::fill_n(accum_.begin(), static_cast<std::size_t>(size), 0);
  }
}

Accelerator::ExecResult Accelerator::ExecLoadInp(const LoadFields& f,
                                                 const DramModel* dram) {
  const int cv = f.chan_vecs;
  const int slab_rows = f.pad_t + f.rows + f.pad_b;
  const int slab_cols = f.pad_l + f.cols + f.pad_r;
  const std::int64_t slab_vectors =
      static_cast<std::int64_t>(slab_rows) * slab_cols * cv;
  HDNN_CHECK(static_cast<std::int64_t>(f.buff_base) + slab_vectors <=
             cfg_.input_buffer_vectors)
      << "LOAD_INP slab overflows input buffer half";

  const std::int64_t cp = static_cast<std::int64_t>(cv) * cfg_.pi;
  const int half = f.buff_id & 1;
  const std::int64_t half_base =
      static_cast<std::int64_t>(half) * cfg_.input_buffer_vectors;

  if (dram) {
    // Slab element (r, c, ch) lives at dst0[(r*slab_cols + c)*cp + ch] with
    // ch = v*PI + lane, so each pixel is a cp-contiguous run and a full slab
    // row is slab_cols*cp-contiguous. Padding is bulk zero-fill; fetched
    // data moves as layout-aware contiguous DRAM runs (see header contract).
    // Keep-resident loads read the same addresses from the resident store
    // (same layout, same slot base) without touching the DramModel.
    const auto read_run = [&](std::int64_t addr,
                              std::int64_t n) -> const std::int16_t* {
      if (f.keep_resident) return ResidentSpan(addr, n);
      return dram->ReadRun(addr, n).data();
    };
    std::int32_t* const dst0 =
        input_buf_.data() +
        static_cast<std::size_t>((half_base + f.buff_base) * cfg_.pi);
    const std::int64_t row_elems = static_cast<std::int64_t>(slab_cols) * cp;
    const std::int64_t inner_elems = static_cast<std::int64_t>(f.cols) * cp;
    for (int r = 0; r < slab_rows; ++r) {
      std::int32_t* const dst_row = dst0 + static_cast<std::int64_t>(r) *
                                               row_elems;
      if (r < f.pad_t || r >= f.pad_t + f.rows) {
        std::fill_n(dst_row, row_elems, 0);
        continue;
      }
      const std::int64_t dr = r - f.pad_t;
      std::fill_n(dst_row, static_cast<std::int64_t>(f.pad_l) * cp, 0);
      std::fill_n(dst_row + static_cast<std::int64_t>(f.pad_l) * cp +
                      inner_elems,
                  static_cast<std::int64_t>(f.pad_r) * cp, 0);
      std::int32_t* const dst_in =
          dst_row + static_cast<std::int64_t>(f.pad_l) * cp;
      if (!f.wino) {
        // SPAT DDR layout (channel innermost): addr = base + (dr*pitch +
        // dc)*cp + ch, so the whole fmap row is one cols*cp-contiguous run
        // regardless of the column tile's pitch.
        const std::int16_t* const src =
            read_run(f.dram_base + dr * f.pitch * cp, inner_elems);
        WidenRun(src, dst_in, inner_elems);
      } else {
        // WINO DDR layout (channel outermost): per channel the fmap row is a
        // cols-contiguous run, scattered into the slab with stride cp.
        for (std::int64_t ch = 0; ch < cp; ++ch) {
          const std::int16_t* const src = read_run(
              f.dram_base + ch * f.aux * f.pitch + dr * f.pitch, f.cols);
          std::int32_t* const dst_ch = dst_in + ch;
          for (int c = 0; c < f.cols; ++c) {
            dst_ch[static_cast<std::int64_t>(c) * cp] = src[
                static_cast<std::size_t>(c)];
          }
        }
      }
    }
  }

  if (f.keep_resident) {
    // On-chip hand-off: no DRAM port transaction and no burst setup; the
    // buffer write port still absorbs the full slab (no row-ring reuse —
    // the resident store is not the line buffer), and the ring's contents
    // no longer track DRAM, so the next plain load reloads in full.
    prev_load_ = PrevLoad{};
    ExecResult res;
    res.busy_cycles = static_cast<double>(f.rows) * f.cols * cp /
                      (static_cast<double>(cfg_.pi) * cfg_.pt);
    return res;
  }

  // Line-buffer row reuse: the input buffer's fmap-row partitioning
  // (Table 1) lets consecutive overlapping windows of the same sweep keep
  // their shared rows on chip, so only newly advanced rows cross the DRAM
  // port (this is what makes Eq. 10 halo-free). Reuse applies only when the
  // new window is the previous one advanced forward within the same
  // column/channel geometry; sweep restarts (WS weight groups, column
  // tiles) reload in full.
  std::int64_t new_rows = f.rows;
  if (prev_load_.valid && prev_load_.cols == f.cols &&
      prev_load_.chan_vecs == f.chan_vecs && prev_load_.pitch == f.pitch &&
      prev_load_.aux == f.aux && prev_load_.wino == f.wino &&
      f.dram_base >= prev_load_.dram_base) {
    const std::int64_t row_words =
        f.wino ? f.pitch : static_cast<std::int64_t>(f.pitch) * cp;
    const std::int64_t delta = f.dram_base - prev_load_.dram_base;
    if (row_words > 0 && delta % row_words == 0) {
      const std::int64_t advance = delta / row_words;
      const std::int64_t overlap =
          std::min<std::int64_t>(f.rows,
                                 std::max<std::int64_t>(
                                     0, prev_load_.rows - advance));
      new_rows = f.rows - overlap;
    }
  }
  prev_load_ = PrevLoad{true,   f.dram_base, f.rows, f.cols,
                        f.chan_vecs, f.pitch, f.aux,  f.wino};

  ExecResult res;
  res.dram_words = new_rows * f.cols * cp;
  res.port_cycles = static_cast<double>(res.dram_words) / bw_elems_per_cycle_ +
                    kBurstOverheadCycles;
  // Buffer write port absorbs PI*PT elements = PT vectors per cycle; only
  // newly fetched data flows through it (ring-resident rows stay put, zero
  // padding is bank-parallel fill).
  res.busy_cycles = static_cast<double>(res.dram_words) /
                    (static_cast<double>(cfg_.pi) * cfg_.pt);
  res.uses_port = true;
  return res;
}

Accelerator::ExecResult Accelerator::ExecLoadWgt(const LoadFields& f,
                                                 const DramModel* dram) {
  const std::int64_t vectors = static_cast<std::int64_t>(f.rows) * f.cols *
                               f.chan_vecs * f.aux;
  const std::int64_t elems = vectors * cfg_.pi * cfg_.po;
  const std::int64_t cap =
      static_cast<std::int64_t>(cfg_.weight_buffer_vectors) * cfg_.pi * cfg_.po;
  const std::int64_t base_elems =
      static_cast<std::int64_t>(f.buff_base) * cfg_.pi * cfg_.po;
  HDNN_CHECK(base_elems + elems <= cap)
      << "LOAD_WGT block overflows weight buffer half: " << elems
      << " elements";

  const int half = f.buff_id & 1;
  if (dram) {
    // The compiler packs each weight block contiguously in load order, so
    // the whole LOAD_WGT is a single widening copy.
    const auto src = dram->ReadRun(f.dram_base, elems);
    WidenRun(src.data(),
             weight_buf_.data() + static_cast<std::size_t>(half * cap +
                                                           base_elems),
             elems);
  }

  ExecResult res;
  res.dram_words = elems;
  res.port_cycles = static_cast<double>(elems) / bw_elems_per_cycle_ +
                    kBurstOverheadCycles;
  res.busy_cycles = static_cast<double>(elems) /
                    (static_cast<double>(cfg_.pi) * cfg_.po * cfg_.pt);
  res.uses_port = true;
  return res;
}

Accelerator::ExecResult Accelerator::ExecLoadBias(const LoadFields& f,
                                                  const DramModel* dram) {
  const std::int64_t values = static_cast<std::int64_t>(f.aux) * cfg_.po;
  HDNN_CHECK(static_cast<std::int64_t>(f.buff_base) + values <= kBiasCapacity)
      << "LOAD_BIAS overflows bias buffer";
  const int half = f.buff_id & 1;
  if (dram) {
    // One run of little-endian word pairs, assembled into int32 bias slots.
    const auto src = dram->ReadRun(f.dram_base, 2 * values);
    std::int32_t* const dst =
        bias_buf_.data() +
        static_cast<std::size_t>(half * kBiasCapacity + f.buff_base);
    for (std::int64_t i = 0; i < values; ++i) {
      dst[i] = LoadWordPair(src.data() + 2 * i);
    }
  }
  ExecResult res;
  res.dram_words = 2 * values;
  res.port_cycles = static_cast<double>(res.dram_words) / bw_elems_per_cycle_ +
                    kBurstOverheadCycles;
  res.busy_cycles = res.port_cycles;
  res.uses_port = true;
  return res;
}

void Accelerator::CompWinograd(const CompFields& f) {
  const int pi = cfg_.pi, po = cfg_.po, pt = cfg_.pt;
  const int m = cfg_.wino_m();
  const int icv = f.ic_vecs, ocv = f.oc_vecs;
  const int tiles = f.oh_num * f.ow_num;
  const std::int64_t ee = static_cast<std::int64_t>(pt) * pt;
  const std::int64_t kk = ee;  // weight slab rc dimension for Winograd
  const std::int64_t accum_size =
      static_cast<std::int64_t>(tiles) * ocv * ee * po;
  EnsureAccum(accum_size, f.accum_clear);

  // Scratch arenas: grown once, reused across tiles and COMP instructions.
  const std::size_t v_elems =
      static_cast<std::size_t>(icv) * static_cast<std::size_t>(ee) *
      static_cast<std::size_t>(pi);
  if (wino_v_.size() < v_elems) wino_v_.resize(v_elems);
  if (wino_dtile_.size() < static_cast<std::size_t>(ee)) {
    wino_dtile_.resize(static_cast<std::size_t>(ee));
    wino_vtile_.resize(static_cast<std::size_t>(ee));
    wino_tmp_.resize(static_cast<std::size_t>(ee));
  }

  // Hoisted slab addressing: validate the whole COMP's access ranges once,
  // then walk raw base pointers inside the tile loops. The vector index is
  // monotone in (row, col, cvi), so the extremes bound every access.
  const std::int64_t max_row =
      static_cast<std::int64_t>(f.base_row) +
      static_cast<std::int64_t>(f.oh_num - 1) * m + pt - 1;
  const std::int64_t max_col =
      static_cast<std::int64_t>(f.base_col) +
      static_cast<std::int64_t>(f.ow_num - 1) * m + pt - 1;
  const std::int64_t max_vec =
      f.inp_buff_base + (max_row * f.iw_num + max_col) * icv + (icv - 1);
  HDNN_INTERNAL(max_vec < cfg_.input_buffer_vectors)
      << "input slab vector " << max_vec << " out of range";
  const std::int32_t* const in_base =
      input_buf_.data() +
      static_cast<std::size_t>(static_cast<std::int64_t>(f.inp_buff_id) *
                               cfg_.input_buffer_vectors * pi);

  const std::int64_t wgt_cap =
      static_cast<std::int64_t>(cfg_.weight_buffer_vectors) * pi * po;
  const std::int64_t wgt_lo =
      static_cast<std::int64_t>(f.wgt_buff_base) * pi * po;
  const std::int64_t wgt_hi =
      wgt_lo + static_cast<std::int64_t>(ocv) * icv * kk * po * pi;
  HDNN_INTERNAL(wgt_hi - 1 < wgt_cap)
      << "weight slab slot " << wgt_hi - 1 << " out of range";
  const std::int32_t* const wgt_base =
      weight_buf_.data() +
      static_cast<std::size_t>(
          static_cast<std::int64_t>(f.wgt_buff_id) * wgt_cap + wgt_lo);
  const EwmmFn ewmm = SelectEwmm(pi, po);

  for (int ty = 0; ty < f.oh_num; ++ty) {
    for (int tx = 0; tx < f.ow_num; ++tx) {
      // Input transforms for every channel lane, scattered into the
      // [cvi][e][ci] arena so the EWMM's ci reduction is stride-1.
      const std::int64_t row0 =
          f.base_row + static_cast<std::int64_t>(ty) * m;
      const std::int64_t col0 =
          f.base_col + static_cast<std::int64_t>(tx) * m;
      for (int cvi = 0; cvi < icv; ++cvi) {
        std::int32_t* const v_cv =
            wino_v_.data() + static_cast<std::size_t>(cvi) *
                                 static_cast<std::size_t>(ee) *
                                 static_cast<std::size_t>(pi);
        for (int ci = 0; ci < pi; ++ci) {
          for (int y = 0; y < pt; ++y) {
            const std::int32_t* const in_row =
                in_base + ((f.inp_buff_base +
                            ((row0 + y) * f.iw_num + col0) * icv + cvi) *
                           pi);
            for (int x = 0; x < pt; ++x) {
              wino_dtile_[static_cast<std::size_t>(y * pt + x)] =
                  in_row[static_cast<std::int64_t>(x) * icv * pi + ci];
            }
          }
          TransformInputTileInto(wino_dtile_, pt, wino_vtile_, wino_tmp_);
          for (std::int64_t e = 0; e < ee; ++e) {
            v_cv[e * pi + ci] = wino_vtile_[static_cast<std::size_t>(e)];
          }
        }
      }
      // EWMM accumulation: each GEMM core (element e) handles PI x PO.
      // Both operand streams of the ci reduction are now contiguous: the
      // weight slab stores (((kv*icv+cvi)*kk+e)*po+co)*pi+ci and the arena
      // stores (cvi*ee+e)*pi+ci.
      const std::int64_t tile_idx =
          static_cast<std::int64_t>(ty) * f.ow_num + tx;
      for (int kv = 0; kv < ocv; ++kv) {
        std::int64_t* const acc_kv =
            accum_.data() +
            static_cast<std::size_t>((tile_idx * ocv + kv) * ee * po);
        for (int cvi = 0; cvi < icv; ++cvi) {
          const std::int32_t* const w_cv =
              wgt_base + (static_cast<std::int64_t>(kv) * icv + cvi) * kk *
                             po * pi;
          const std::int32_t* const v_cv =
              wino_v_.data() + static_cast<std::size_t>(cvi) *
                                   static_cast<std::size_t>(ee) *
                                   static_cast<std::size_t>(pi);
          ewmm(w_cv, v_cv, acc_kv, ee, pi, po);
        }
      }
    }
  }
  macs_executed_ +=
      static_cast<std::int64_t>(tiles) * icv * ocv * ee * pi * po;
}

void Accelerator::EmitWinograd(const CompFields& f) {
  const int po = cfg_.po, pt = cfg_.pt;
  const int m = cfg_.wino_m();
  const int ocv = f.oc_vecs;
  const std::int64_t ee = static_cast<std::int64_t>(pt) * pt;
  const int slab_cols = f.ow_num * m;

  if (emit_m_.size() < static_cast<std::size_t>(ee)) {
    emit_m_.resize(static_cast<std::size_t>(ee));
  }
  if (emit_y_.size() < static_cast<std::size_t>(m * m)) {
    emit_y_.resize(static_cast<std::size_t>(m * m));
  }
  if (emit_tmp_.size() < static_cast<std::size_t>(m * pt)) {
    emit_tmp_.resize(static_cast<std::size_t>(m * pt));
  }

  // Hoisted output-slab bound: the vector index is monotone in (row, col,
  // kv), so checking the extreme access covers the whole COMP.
  const std::int64_t out_max_vec =
      f.out_buff_base +
      ((static_cast<std::int64_t>(f.oh_num) * m - 1) * slab_cols +
       static_cast<std::int64_t>(f.ow_num) * m - 1) *
          ocv +
      (ocv - 1);
  HDNN_CHECK(out_max_vec < cfg_.output_buffer_vectors)
      << "COMP output slab overflows output buffer half";
  std::int32_t* const out_base =
      output_buf_.data() +
      static_cast<std::size_t>(static_cast<std::int64_t>(f.out_buff_id) *
                               cfg_.output_buffer_vectors * po);
  const std::int32_t* const bias_base =
      bias_buf_.data() +
      static_cast<std::size_t>(f.wgt_buff_id * kBiasCapacity);

  for (int ty = 0; ty < f.oh_num; ++ty) {
    for (int tx = 0; tx < f.ow_num; ++tx) {
      const std::int64_t tile_idx =
          static_cast<std::int64_t>(ty) * f.ow_num + tx;
      for (int kv = 0; kv < ocv; ++kv) {
        const std::int64_t* const acc_kv =
            accum_.data() +
            static_cast<std::size_t>((tile_idx * ocv + kv) * ee * po);
        for (int co = 0; co < po; ++co) {
          for (std::int64_t e = 0; e < ee; ++e) {
            emit_m_[static_cast<std::size_t>(e)] = acc_kv[e * po + co];
          }
          TransformOutputTileInto(emit_m_, pt, emit_y_, emit_tmp_);
          const std::int64_t bias = bias_base[kv * po + co];
          for (int dy = 0; dy < m; ++dy) {
            for (int dx = 0; dx < m; ++dx) {
              std::int64_t q = Requantize(
                  emit_y_[static_cast<std::size_t>(dy * m + dx)] + bias,
                  f.quan, cfg_.data_width);
              if (f.relu && q < 0) q = 0;
              const std::int64_t row = static_cast<std::int64_t>(ty) * m + dy;
              const std::int64_t col = static_cast<std::int64_t>(tx) * m + dx;
              const std::int64_t vec =
                  f.out_buff_base + (row * slab_cols + col) * ocv + kv;
              out_base[vec * po + co] = static_cast<std::int32_t>(q);
            }
          }
        }
      }
    }
  }
}

void Accelerator::CompSpatial(const CompFields& f) {
  const int pi = cfg_.pi, po = cfg_.po;
  const int icv = f.ic_vecs, ocv = f.oc_vecs;
  const std::int64_t positions =
      static_cast<std::int64_t>(f.oh_num) * f.ow_num;
  const std::int64_t accum_size = positions * ocv * po;
  EnsureAccum(accum_size, f.accum_clear);
  const std::int64_t kk = static_cast<std::int64_t>(f.kh) * f.kw;

  // Hoisted slab addressing (see CompWinograd): one range check per COMP,
  // raw base pointers inside the MAC loops.
  const std::int64_t max_row =
      static_cast<std::int64_t>(f.base_row) +
      static_cast<std::int64_t>(f.oh_num - 1) * f.stride + f.kh - 1;
  const std::int64_t max_col =
      static_cast<std::int64_t>(f.base_col) +
      static_cast<std::int64_t>(f.ow_num - 1) * f.stride + f.kw - 1;
  const std::int64_t max_vec =
      f.inp_buff_base + (max_row * f.iw_num + max_col) * icv + (icv - 1);
  HDNN_INTERNAL(max_vec < cfg_.input_buffer_vectors)
      << "input slab vector " << max_vec << " out of range";
  const std::int32_t* const in_base =
      input_buf_.data() +
      static_cast<std::size_t>(static_cast<std::int64_t>(f.inp_buff_id) *
                               cfg_.input_buffer_vectors * pi);

  const std::int64_t wgt_cap =
      static_cast<std::int64_t>(cfg_.weight_buffer_vectors) * pi * po;
  const std::int64_t wgt_lo =
      static_cast<std::int64_t>(f.wgt_buff_base) * pi * po;
  const std::int64_t wgt_hi =
      wgt_lo + static_cast<std::int64_t>(ocv) * icv * kk * po * pi;
  HDNN_INTERNAL(wgt_hi - 1 < wgt_cap)
      << "weight slab slot " << wgt_hi - 1 << " out of range";
  const std::int32_t* const wgt_base =
      weight_buf_.data() +
      static_cast<std::size_t>(
          static_cast<std::int64_t>(f.wgt_buff_id) * wgt_cap + wgt_lo);

  const std::int64_t kv_stride = static_cast<std::int64_t>(icv) * kk * po * pi;
  const SpatialFn spatial = SelectSpatial(pi, po);
  for (int ro = 0; ro < f.oh_num; ++ro) {
    for (int co_pos = 0; co_pos < f.ow_num; ++co_pos) {
      const std::int64_t pos =
          static_cast<std::int64_t>(ro) * f.ow_num + co_pos;
      std::int64_t* const acc_pos =
          accum_.data() + static_cast<std::size_t>(pos * ocv * po);
      for (int r = 0; r < f.kh; ++r) {
        for (int s = 0; s < f.kw; ++s) {
          const std::int64_t row =
              f.base_row + static_cast<std::int64_t>(ro) * f.stride + r;
          const std::int64_t col =
              f.base_col + static_cast<std::int64_t>(co_pos) * f.stride + s;
          const std::int64_t rc = static_cast<std::int64_t>(r) * f.kw + s;
          const std::int32_t* const in_px =
              in_base +
              (f.inp_buff_base + (row * f.iw_num + col) * icv) * pi;
          const std::int32_t* const w_rc = wgt_base + rc * po * pi;
          for (int cvi = 0; cvi < icv; ++cvi) {
            spatial(in_px + cvi * pi,
                    w_rc + static_cast<std::int64_t>(cvi) * kk * po * pi,
                    acc_pos, ocv, kv_stride, pi, po);
          }
        }
      }
    }
  }
  macs_executed_ += positions * kk * icv * ocv * pi * po;
}

void Accelerator::EmitSpatial(const CompFields& f) {
  const int po = cfg_.po;
  const int ocv = f.oc_vecs;
  const std::int64_t positions =
      static_cast<std::int64_t>(f.oh_num) * f.ow_num;

  const std::int64_t out_max_vec =
      f.out_buff_base + (positions - 1) * ocv + (ocv - 1);
  HDNN_CHECK(out_max_vec < cfg_.output_buffer_vectors)
      << "COMP output slab overflows output buffer half";
  std::int32_t* const out_base =
      output_buf_.data() +
      static_cast<std::size_t>(
          (static_cast<std::int64_t>(f.out_buff_id) *
               cfg_.output_buffer_vectors +
           f.out_buff_base) *
          po);
  const std::int32_t* const bias_base =
      bias_buf_.data() +
      static_cast<std::size_t>(f.wgt_buff_id * kBiasCapacity);

  // Output vectors are written densely: vec = out_buff_base + pos*ocv + kv,
  // so one linear walk covers the whole emit.
  for (std::int64_t pos = 0; pos < positions; ++pos) {
    const std::int64_t* const acc_pos =
        accum_.data() + static_cast<std::size_t>(pos * ocv * po);
    std::int32_t* const out_pos = out_base + pos * ocv * po;
    for (int kv = 0; kv < ocv; ++kv) {
      const std::int32_t* const bias_kv = bias_base + kv * po;
      for (int lane = 0; lane < po; ++lane) {
        std::int64_t q = Requantize(
            acc_pos[kv * po + lane] + static_cast<std::int64_t>(bias_kv[lane]),
            f.quan, cfg_.data_width);
        if (f.relu && q < 0) q = 0;
        out_pos[static_cast<std::int64_t>(kv) * po + lane] =
            static_cast<std::int32_t>(q);
      }
    }
  }
}

Accelerator::ExecResult Accelerator::ExecComp(const CompFields& f,
                                              bool functional) {
  if (functional) {
    if (f.wino) {
      CompWinograd(f);
      if (f.accum_emit) EmitWinograd(f);
    } else {
      CompSpatial(f);
      if (f.accum_emit) EmitSpatial(f);
    }
  } else {
    const std::int64_t per_pair =
        f.wino ? static_cast<std::int64_t>(cfg_.pt) * cfg_.pt
               : static_cast<std::int64_t>(f.kh) * f.kw;
    macs_executed_ += static_cast<std::int64_t>(f.oh_num) * f.ow_num *
                      f.ic_vecs * f.oc_vecs * per_pair * cfg_.pi * cfg_.po;
  }

  // Timing: one GEMV step per cycle (paper Sec. 4.2.2). Winograd consumes
  // (icv x ocv) vector pairs per tile; Spatial consumes PT-vector channel
  // blocks per tap per position.
  ExecResult res;
  double cycles;
  if (f.wino) {
    cycles = static_cast<double>(f.oh_num) * f.ow_num * f.ic_vecs * f.oc_vecs;
    if (f.accum_emit) {
      cycles += static_cast<double>(f.oh_num) * f.ow_num * f.oc_vecs;
    }
  } else {
    cycles = static_cast<double>(f.oh_num) * f.ow_num * f.kh * f.kw *
             CeilDiv<int>(f.ic_vecs, cfg_.pt) * CeilDiv<int>(f.oc_vecs, cfg_.pt);
    if (f.accum_emit) {
      cycles += static_cast<double>(f.oh_num) * f.ow_num *
                CeilDiv<int>(f.oc_vecs, cfg_.pt);
    }
  }
  res.busy_cycles = cycles + kCompFixedCycles;
  return res;
}

Accelerator::ExecResult Accelerator::ExecSave(const SaveFields& f,
                                              DramModel* dram) {
  const bool src_wino = f.layout == SaveLayout::kWinoToSpat ||
                        f.layout == SaveLayout::kWinoToWino;
  const bool dst_wino = f.layout == SaveLayout::kSpatToWino ||
                        f.layout == SaveLayout::kWinoToWino;
  const int m = cfg_.wino_m();
  const int slab_cols =
      src_wino ? static_cast<int>(RoundUp<std::int64_t>(f.cols, m)) : f.cols;
  const int pool = std::max<int>(1, f.pool);
  HDNN_CHECK(f.rows % pool == 0 && f.cols % pool == 0)
      << "SAVE pool window " << pool << " does not tile " << int{f.rows} << "x"
      << f.cols;
  HDNN_CHECK(!f.res_add || pool == 1) << "SAVE_RES cannot fuse a max-pool";
  const int prows = f.rows / pool;
  const int pcols = f.cols / pool;
  const int half = f.buff_id & 1;
  const std::int64_t half_base =
      static_cast<std::int64_t>(half) * cfg_.output_buffer_vectors;
  // Saturation bounds of the residual sum: both operands are requantised
  // features, and the sum re-saturates to the same width before the ReLU.
  const std::int64_t feat_max = (1ll << (cfg_.data_width - 1)) - 1;
  const std::int64_t feat_min = -(1ll << (cfg_.data_width - 1));

  if (dram) {
    // Output-slab element (row, col, ch) lives at out0[(row*slab_cols +
    // col)*group_ch + ch] with ch = kv*PO + lane: per-position channel runs
    // are contiguous. The loop nest is ordered so every DRAM write is a
    // dense run in the destination layout — positions outer / channels
    // inner for SPAT (channel-innermost), channels outer / positions inner
    // for WINO (channel-outermost) — with pooling and residual adds fused
    // per run, bit-exact to the per-word path.
    const std::int64_t group_ch = static_cast<std::int64_t>(f.oc_vecs) *
                                  cfg_.po;
    const std::int32_t* const out0 =
        output_buf_.data() +
        static_cast<std::size_t>((half_base + f.buff_base) * cfg_.po);
    const std::int64_t hw = static_cast<std::int64_t>(f.out_h) * f.out_w;
    // Keep-resident SAVEs write the resident store at the same addresses a
    // plain SAVE would write DRAM; residual operands always stream from
    // DRAM (residual sources are never fused).
    const auto write_run = [&](std::int64_t addr,
                               std::int64_t n) -> std::int16_t* {
      if (f.keep_resident) return ResidentSpan(addr, n);
      return dram->WriteRun(addr, n).data();
    };
    // Saturating residual fuse shared by both layout paths (pool == 1 is
    // guaranteed for SAVE_RES, so `acc` is always the raw COMP emit).
    const auto fuse_res = [&](std::int64_t acc, std::int64_t res) {
      std::int64_t value = acc + res;
      value = std::min(feat_max, std::max(feat_min, value));
      if (f.relu && value < 0) value = 0;
      return static_cast<std::int16_t>(value);
    };

    if (!dst_wino) {
      if (static_cast<std::int64_t>(save_line_.size()) < group_ch) {
        save_line_.resize(static_cast<std::size_t>(group_ch));
      }
      for (int pr = 0; pr < prows; ++pr) {
        for (int pc = 0; pc < pcols; ++pc) {
          const std::int32_t* src;
          if (pool == 1) {
            src = out0 + (static_cast<std::int64_t>(pr) * slab_cols + pc) *
                             group_ch;
          } else {
            // Pool window reduction: channel runs stay contiguous, so the
            // max folds run-wise into the scratch line.
            std::int32_t* const line = save_line_.data();
            bool first = true;
            for (int dy = 0; dy < pool; ++dy) {
              for (int dx = 0; dx < pool; ++dx) {
                const std::int64_t row =
                    static_cast<std::int64_t>(pr) * pool + dy;
                const std::int64_t col =
                    static_cast<std::int64_t>(pc) * pool + dx;
                const std::int32_t* const w =
                    out0 + (row * slab_cols + col) * group_ch;
                if (first) {
                  std::copy_n(w, static_cast<std::size_t>(group_ch), line);
                  first = false;
                } else {
                  for (std::int64_t ch = 0; ch < group_ch; ++ch) {
                    line[ch] = std::max(line[ch], w[ch]);
                  }
                }
              }
            }
            src = line;
          }
          const std::int64_t pos = static_cast<std::int64_t>(pr) * f.out_w +
                                   pc;
          std::int16_t* const dst =
              write_run(f.dram_base + pos * f.oc_pitch, group_ch);
          if (!f.res_add) {
            NarrowRun(src, dst, group_ch);
          } else if (!f.res_wino) {
            // Residual source is channel-innermost too: one matching run.
            const auto res =
                dram->ReadRun(f.res_dram_base + pos * f.oc_pitch, group_ch);
            for (std::int64_t ch = 0; ch < group_ch; ++ch) {
              dst[ch] = fuse_res(src[ch], res[static_cast<std::size_t>(ch)]);
            }
          } else {
            // Cross-layout residual (WINO source into a SPAT write): the
            // skip operand is channel-strided, so it streams word-wise.
            for (std::int64_t ch = 0; ch < group_ch; ++ch) {
              const std::int64_t raddr = f.res_dram_base + ch * hw + pos;
              dst[ch] = fuse_res(src[ch], dram->Read(raddr));
            }
          }
        }
      }
    } else {
      for (std::int64_t ch = 0; ch < group_ch; ++ch) {
        const std::int32_t* const src_ch = out0 + ch;
        for (int pr = 0; pr < prows; ++pr) {
          const std::int64_t pos0 = static_cast<std::int64_t>(pr) * f.out_w;
          std::int16_t* const dst = write_run(f.dram_base + ch * hw + pos0,
                                              pcols);
          // Buffer source for this (channel, row): stride-group_ch gather.
          const std::int32_t* const src_row =
              src_ch + static_cast<std::int64_t>(pr) * pool * slab_cols *
                           group_ch;
          if (!f.res_add) {
            for (int pc = 0; pc < pcols; ++pc) {
              std::int32_t best;
              if (pool == 1) {
                best = src_row[static_cast<std::int64_t>(pc) * group_ch];
              } else {
                best = INT32_MIN;
                for (int dy = 0; dy < pool; ++dy) {
                  for (int dx = 0; dx < pool; ++dx) {
                    best = std::max(
                        best,
                        src_row[(static_cast<std::int64_t>(dy) * slab_cols +
                                 static_cast<std::int64_t>(pc) * pool + dx) *
                                group_ch]);
                  }
                }
              }
              dst[static_cast<std::size_t>(pc)] =
                  static_cast<std::int16_t>(best);
            }
          } else if (f.res_wino) {
            // Matching layout: the skip row is one contiguous run.
            const auto res =
                dram->ReadRun(f.res_dram_base + ch * hw + pos0, pcols);
            for (int pc = 0; pc < pcols; ++pc) {
              dst[static_cast<std::size_t>(pc)] =
                  fuse_res(src_row[static_cast<std::int64_t>(pc) * group_ch],
                           res[static_cast<std::size_t>(pc)]);
            }
          } else {
            // Cross-layout residual (SPAT source into a WINO write): the
            // skip operand is position-strided, so it streams word-wise.
            for (int pc = 0; pc < pcols; ++pc) {
              const std::int64_t raddr =
                  f.res_dram_base + (pos0 + pc) * f.oc_pitch + ch;
              dst[static_cast<std::size_t>(pc)] =
                  fuse_res(src_row[static_cast<std::int64_t>(pc) * group_ch],
                           dram->Read(raddr));
            }
          }
        }
      }
    }
  }

  ExecResult res;
  const std::int64_t group_words =
      static_cast<std::int64_t>(prows) * pcols * f.oc_vecs * cfg_.po;
  res.busy_cycles =
      static_cast<double>(f.rows) * slab_cols * f.oc_vecs / cfg_.pt;
  if (f.keep_resident) {
    // The destination stays on chip: no written words cross the port. A
    // residual operand (never fused) still streams in from DRAM with its
    // own burst setup.
    res.res_read_words = f.res_add ? group_words : 0;
    if (f.res_add) {
      res.port_cycles = static_cast<double>(res.res_read_words) /
                            bw_elems_per_cycle_ +
                        kBurstOverheadCycles;
      res.uses_port = true;
    }
    return res;
  }
  res.dram_words = group_words;
  // The residual operand streams in through the same fmap port: one extra
  // read word per written word, plus its own burst setup.
  res.res_read_words = f.res_add ? res.dram_words : 0;
  res.port_cycles =
      static_cast<double>(res.dram_words + res.res_read_words) /
          bw_elems_per_cycle_ +
      kBurstOverheadCycles * (f.res_add ? 2.0 : 1.0);
  res.uses_port = true;
  return res;
}

SimStats Accelerator::Run(const DecodedProgram& prog, DramModel* dram) {
  macs_executed_ = 0;
  // The accelerator is reusable across programs (serving runtimes hold one
  // per worker): reset per-run state so every Run is bit- and cycle-
  // identical to a run on a freshly constructed instance.
  prev_load_ = PrevLoad{};
  // Empty (not shrink) the accumulator so the first COMP's EnsureAccum
  // grows-and-zeroes exactly as on a fresh instance even when it carries
  // accum_clear=false; capacity is kept, so steady state stays
  // allocation-free.
  accum_.clear();
  // Drop the resident store so fused programs start from the same all-zero
  // mirror every inference (matching DramModel::Reset's zeroing).
  resident_.clear();
  resident_base_ = 0;
  if (dram) {
    std::fill(input_buf_.begin(), input_buf_.end(), 0);
    std::fill(weight_buf_.begin(), weight_buf_.end(), 0);
    std::fill(output_buf_.begin(), output_buf_.end(), 0);
    std::fill(bias_buf_.begin(), bias_buf_.end(), 0);
  }

  // Decode + per-module queue partitioning were hoisted into DecodedProgram
  // (built once per compiled program); per-run work starts at the scheduler.
  const std::vector<InstrFields>& decoded = prog.fields;
  const std::array<std::vector<std::uint32_t>, kNumModules>& queues =
      prog.queues;
  // CTRL dispatches one instruction per issue slot after its pipeline fill;
  // a pure function of the program position, so no per-run table is needed.
  const auto dispatch = [](std::size_t i) {
    return kCtrlStartCycles + kCtrlIssueII * static_cast<double>(i);
  };

  // One FIFO of availability times per handshake channel, seeded with its
  // initial credits (sim/handshake.h).
  std::array<std::deque<double>, kNumChannels> fifo;
  for (std::size_t c = 0; c < fifo.size(); ++c) {
    fifo[c].assign(static_cast<std::size_t>(kChannels[c].initial()), 0.0);
  }

  std::array<std::size_t, kNumModules> next{};
  std::array<double, kNumModules> module_time{};
  // Two independent memory ports per instance (fmap traffic and weight
  // traffic map to different DDR channels on multi-channel boards, which is
  // what makes the paper's Eq. 12-15 max() semantics physical).
  double fmap_port_free = 0;
  double wgt_port_free = 0;

  SimStats stats;
  stats.completion.assign(prog.size(), 0.0);
  stats.instructions = static_cast<std::int64_t>(prog.size());

  // Earliest-start-first global scheduling: among the four module heads
  // whose waits are all satisfied, execute the one with the smallest
  // possible start time. This models FCFS arbitration of the shared DRAM
  // port (a request issued earlier wins the port) and is deterministic.
  //
  // Returns true and the start time if the module-head instruction's
  // waited-on channels all hold a token.
  auto peek_start = [&](int mod, double* start_out) {
    const std::size_t m = static_cast<std::size_t>(mod);
    if (next[m] >= queues[m].size()) return false;
    const std::size_t i = queues[m][next[m]];
    const std::uint8_t dept = DeptOf(decoded[i]);
    double start = std::max(module_time[m], dispatch(i));
    for (const Handshake& h : kHandshakes[m].waits) {
      if (!(dept & h.bit)) continue;
      const std::deque<double>& q = fifo[static_cast<std::size_t>(h.channel)];
      if (q.empty()) return false;
      start = std::max(start, q.front());
    }
    *start_out = start;
    return true;
  };

  while (true) {
    int mod = -1;
    double start = 0;
    for (int head = 0; head < kNumModules; ++head) {
      double t = 0;
      if (!peek_start(head, &t)) continue;
      if (mod < 0 || t < start) {
        mod = head;
        start = t;
      }
    }
    if (mod < 0) break;

    const std::size_t m = static_cast<std::size_t>(mod);
    const std::size_t i = queues[m][next[m]];
    const InstrFields& f = decoded[i];
    const Opcode op = OpcodeOf(f);
    const std::uint8_t dept = DeptOf(f);
    for (const Handshake& h : kHandshakes[m].waits) {
      if (!(dept & h.bit)) continue;
      std::deque<double>& q = fifo[static_cast<std::size_t>(h.channel)];
      HDNN_INTERNAL(!q.empty())
          << "pop from empty handshake channel " << kChannels[h.channel].name;
      q.pop_front();
    }

    // Execute functionally and compute duration.
    ExecResult res;
    switch (op) {
      case Opcode::kLoadInp:
      case Opcode::kLoadInpKr:
        res = ExecLoadInp(std::get<LoadFields>(f), dram);
        break;
      case Opcode::kLoadWgt:
        res = ExecLoadWgt(std::get<LoadFields>(f), dram);
        break;
      case Opcode::kLoadBias:
        res = ExecLoadBias(std::get<LoadFields>(f), dram);
        break;
      case Opcode::kComp:
        res = ExecComp(std::get<CompFields>(f), dram != nullptr);
        break;
      case Opcode::kSave:
      case Opcode::kSaveRes:
      case Opcode::kSaveKr:
      case Opcode::kSaveResKr:
        res = ExecSave(std::get<SaveFields>(f), dram);
        break;
      default:
        break;
    }

    double end;
    if (res.uses_port) {
      double& port_free = mod == kModLdw ? wgt_port_free : fmap_port_free;
      const double port_start = std::max(start, port_free);
      const double done_port = port_start + res.port_cycles;
      end = port_start + std::max(res.busy_cycles, res.port_cycles);
      port_free = done_port;
      stats.port_busy += res.port_cycles;
      if (mod == kModSave) {
        stats.dram_words_written += res.dram_words;
        stats.dram_words_read += res.res_read_words;
      } else {
        stats.dram_words_read += res.dram_words;
      }
    } else {
      end = start + res.busy_cycles;
    }
    module_time[m] = end;
    stats.completion[i] = end;

    switch (mod) {
      case kModLdi:
        stats.ldi_busy += res.busy_cycles;
        break;
      case kModLdw:
        stats.ldw_busy += res.busy_cycles;
        break;
      case kModComp:
        stats.comp_busy += res.busy_cycles;
        break;
      case kModSave:
        stats.save_busy += res.busy_cycles;
        break;
    }

    for (const Handshake& h : kHandshakes[m].emits) {
      if (dept & h.bit) fifo[static_cast<std::size_t>(h.channel)].push_back(end);
    }
    ++next[m];
  }

  for (int mod = 0; mod < kNumModules; ++mod) {
    const std::size_t m = static_cast<std::size_t>(mod);
    if (next[m] < queues[m].size()) {
      throw InternalError("handshake deadlock: module " + std::to_string(mod) +
                          " stalled at queue position " +
                          std::to_string(next[m]));
    }
  }

  stats.total_cycles =
      *std::max_element(module_time.begin(), module_time.end());
  stats.macs_executed = macs_executed_;
  return stats;
}

}  // namespace hdnn
