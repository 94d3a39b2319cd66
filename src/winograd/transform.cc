#include "winograd/transform.h"

#include <cmath>

#include "common/check.h"
#include "common/fixed_point.h"

namespace hdnn {
namespace {

// out[rows x cols] = mat[rows x inner] * tile[inner x cols], generic over
// the small fixed sizes involved (pt <= 6).
template <typename M, typename T, typename Acc>
std::vector<Acc> MatTile(std::span<const M> mat, std::span<const T> tile,
                         int rows, int inner, int cols) {
  std::vector<Acc> out(static_cast<std::size_t>(rows) * cols, Acc{});
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      Acc acc{};
      for (int k = 0; k < inner; ++k) {
        acc += static_cast<Acc>(mat[static_cast<std::size_t>(i * inner + k)]) *
               static_cast<Acc>(tile[static_cast<std::size_t>(k * cols + j)]);
      }
      out[static_cast<std::size_t>(i * cols + j)] = acc;
    }
  }
  return out;
}

// out[rows x cols] = tile[rows x inner] * matT[cols x inner]^T, i.e. right-
// multiplication by the transpose of a row-major matrix.
template <typename M, typename T, typename Acc>
std::vector<Acc> TileMatT(std::span<const T> tile, std::span<const M> matT,
                          int rows, int inner, int cols) {
  std::vector<Acc> out(static_cast<std::size_t>(rows) * cols, Acc{});
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      Acc acc{};
      for (int k = 0; k < inner; ++k) {
        acc += static_cast<Acc>(tile[static_cast<std::size_t>(i * inner + k)]) *
               static_cast<Acc>(matT[static_cast<std::size_t>(j * inner + k)]);
      }
      out[static_cast<std::size_t>(i * cols + j)] = acc;
    }
  }
  return out;
}

// V = BT d B with compile-time PT, so the small fixed loops fully unroll
// (PT is 4 or 6 only).
template <int PT>
std::vector<std::int32_t> TransformInputTileT(std::span<const std::int32_t> d) {
  const auto bt = WinoBT(PT);
  // tmp = BT d.
  std::int64_t tmp[PT * PT];
  for (int i = 0; i < PT; ++i) {
    for (int j = 0; j < PT; ++j) {
      std::int64_t acc = 0;
      for (int k = 0; k < PT; ++k) {
        acc += static_cast<std::int64_t>(
                   bt[static_cast<std::size_t>(i * PT + k)]) *
               static_cast<std::int64_t>(
                   d[static_cast<std::size_t>(k * PT + j)]);
      }
      tmp[i * PT + j] = acc;
    }
  }
  // out = tmp B = tmp BT^T, narrowing with overflow check.
  std::vector<std::int32_t> out(static_cast<std::size_t>(PT * PT));
  for (int i = 0; i < PT; ++i) {
    for (int j = 0; j < PT; ++j) {
      std::int64_t acc = 0;
      for (int k = 0; k < PT; ++k) {
        acc += tmp[i * PT + k] * static_cast<std::int64_t>(
                                     bt[static_cast<std::size_t>(j * PT + k)]);
      }
      HDNN_INTERNAL(acc >= INT32_MIN && acc <= INT32_MAX)
          << "input transform overflow";
      out[static_cast<std::size_t>(i * PT + j)] =
          static_cast<std::int32_t>(acc);
    }
  }
  return out;
}

// Y = AT M A with compile-time PT (M = PT - 2).
template <int PT>
std::vector<std::int64_t> TransformOutputTileT(
    std::span<const std::int64_t> m_tile) {
  constexpr int M = PT - WinoParam::kR + 1;
  const auto at = WinoAT(PT);
  // tmp = AT M.
  std::int64_t tmp[M * PT];
  for (int i = 0; i < M; ++i) {
    for (int j = 0; j < PT; ++j) {
      std::int64_t acc = 0;
      for (int k = 0; k < PT; ++k) {
        acc += static_cast<std::int64_t>(
                   at[static_cast<std::size_t>(i * PT + k)]) *
               m_tile[static_cast<std::size_t>(k * PT + j)];
      }
      tmp[i * PT + j] = acc;
    }
  }
  // out = tmp A = tmp AT^T.
  std::vector<std::int64_t> out(static_cast<std::size_t>(M * M));
  for (int i = 0; i < M; ++i) {
    for (int j = 0; j < M; ++j) {
      std::int64_t acc = 0;
      for (int k = 0; k < PT; ++k) {
        acc += tmp[i * PT + k] * static_cast<std::int64_t>(
                                     at[static_cast<std::size_t>(j * PT + k)]);
      }
      out[static_cast<std::size_t>(i * M + j)] = acc;
    }
  }
  return out;
}

}  // namespace

std::vector<std::int32_t> TransformInputTile(std::span<const std::int32_t> d,
                                             int pt) {
  WinoParamForPt(pt);  // rejects PT outside {4, 6}
  HDNN_CHECK(static_cast<int>(d.size()) == pt * pt)
      << "input tile size " << d.size() << " != " << pt * pt;
  // V = BT d B == (BT d) B; B == BT^T so right-multiplying by B is a product
  // against BT's rows.
  return pt == 4 ? TransformInputTileT<4>(d) : TransformInputTileT<6>(d);
}

std::vector<double> TransformInputTileF(std::span<const double> d, int pt) {
  HDNN_CHECK(static_cast<int>(d.size()) == pt * pt) << "bad input tile";
  const auto bt = WinoBT(pt);
  const auto btd = MatTile<int, double, double>(bt, d, pt, pt, pt);
  return TileMatT<int, double, double>(btd, bt, pt, pt, pt);
}

std::vector<double> TransformKernelF(std::span<const double> g, int pt) {
  HDNN_CHECK(g.size() == 9) << "kernel tile must be 3x3";
  const auto gm = WinoG(pt);
  const int r = WinoParam::kR;
  // U = G g GT: (pt x 3)(3 x 3)(3 x pt).
  const auto gg = MatTile<double, double, double>(gm, g, pt, r, r);
  return TileMatT<double, double, double>(gg, gm, pt, r, pt);
}

std::vector<std::int16_t> TransformKernelQ(std::span<const std::int8_t> g,
                                           int pt, int u_shift) {
  HDNN_CHECK(g.size() == 9) << "kernel tile must be 3x3";
  HDNN_CHECK(u_shift >= 0 && u_shift <= 10) << "u_shift=" << u_shift;
  std::vector<double> gf(9);
  for (int i = 0; i < 9; ++i) gf[static_cast<std::size_t>(i)] = g[static_cast<std::size_t>(i)];
  const auto u = TransformKernelF(gf, pt);
  std::vector<std::int16_t> out(u.size());
  const double scale = static_cast<double>(std::int64_t{1} << u_shift);
  for (std::size_t i = 0; i < u.size(); ++i) {
    const double scaled = u[i] * scale;
    const double rounded =
        scaled >= 0 ? std::floor(scaled + 0.5) : std::ceil(scaled - 0.5);
    out[i] = static_cast<std::int16_t>(
        SaturateSigned(static_cast<std::int64_t>(rounded), 16));
  }
  return out;
}

std::vector<std::int64_t> TransformOutputTile(
    std::span<const std::int64_t> m_tile, int pt) {
  WinoParamForPt(pt);  // rejects PT outside {4, 6}
  HDNN_CHECK(static_cast<int>(m_tile.size()) == pt * pt) << "bad M tile";
  // Y = AT M A == (AT M) A with A == AT^T.
  return pt == 4 ? TransformOutputTileT<4>(m_tile)
                 : TransformOutputTileT<6>(m_tile);
}

std::vector<double> TransformOutputTileF(std::span<const double> m_tile,
                                         int pt) {
  HDNN_CHECK(static_cast<int>(m_tile.size()) == pt * pt) << "bad M tile";
  const auto at = WinoAT(pt);
  const int m = WinoParamForPt(pt).m;
  const auto atm = MatTile<int, double, double>(at, m_tile, m, pt, pt);
  return TileMatT<int, double, double>(atm, at, m, pt, m);
}

}  // namespace hdnn
