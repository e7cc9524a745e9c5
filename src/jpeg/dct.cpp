#include "realm/jpeg/dct.hpp"

#include <cmath>

#include "realm/multiplier.hpp"
#include "realm/numeric/fixed_point.hpp"
#include "realm/obs/counters.hpp"

namespace realm::jpeg {
namespace {

std::array<std::int16_t, 64> make_matrix() {
  std::array<std::int16_t, 64> c{};
  const double pi = std::acos(-1.0);
  for (int u = 0; u < 8; ++u) {
    const double s = (u == 0) ? std::sqrt(1.0 / 8.0) : std::sqrt(2.0 / 8.0);
    for (int k = 0; k < 8; ++k) {
      const double v = s * std::cos((2 * k + 1) * u * pi / 16.0);
      c[static_cast<std::size_t>(u * 8 + k)] =
          static_cast<std::int16_t>(std::lround(v * (1 << kDctCoeffBits)));
    }
  }
  return c;
}

// Round-to-nearest rescale by 2^-12, then clamp to the 16-bit datapath —
// the single post-accumulation step of every output.
inline std::int32_t rescale_sat(std::int64_t acc) {
  const std::int64_t rounded =
      (acc + (acc >= 0 ? (1 << (kDctCoeffBits - 1)) : -(1 << (kDctCoeffBits - 1)))) >>
      kDctCoeffBits;
  return num::sat_signed(rounded, 16);
}

// ---- panel engine -------------------------------------------------------
//
// The 2-D transform M·X·Mᵀ is one primitive applied twice: Y = M·A with the
// result stored *transposed*.  Feeding the first call's output back in gives
// (M·(M·X)ᵀ)ᵀ = M·X·Mᵀ in natural orientation.  Per (output row u, tap k)
// the coefficient is fixed across every block and every intra-block column,
// so the panel pass issues one row batch over a W·8-wide lane per (u, k) —
// 64 row-kernel calls instead of W·8·64 virtual multiplies — accumulating
// each output in k-ascending order.

constexpr std::size_t kPanelBlocks = 32;  // blocks per panel: lanes stay L1-resident
constexpr std::size_t kLane = kPanelBlocks * 8;

// One batched pass over `nb <= kPanelBlocks` blocks: out[b][j*8+u] =
// rescale_sat(Σ_k m(u,k) · in[b][k*8+j]).
//
// Each tap lane is gathered *pre-split* into sign/magnitude form — the form
// every (u, k) row batch consumes — so the decomposition (which
// signed_row_batch would re-derive 8 times per lane, once per output u)
// happens exactly once per panel.  The row batches then hit
// mul.multiply_row_batch directly and the sign is re-applied branchlessly
// inside the accumulation.
void pass_panel(const std::int16_t* in, std::int16_t* out, std::size_t nb,
                bool transpose_m, const Multiplier& mul) {
  const auto& c = dct_matrix_q12();
  const std::size_t lane_len = nb * 8;
  std::uint64_t mag[8][kLane];  // |in|, the unsigned multiplier operand
  std::int64_t neg[8][kLane];   // sign mask: -1 where in < 0, else 0
  for (std::size_t k = 0; k < 8; ++k) {
    for (std::size_t b = 0; b < nb; ++b) {
      const std::int16_t* row = in + b * 64 + k * 8;
      for (std::size_t j = 0; j < 8; ++j) {
        const std::int64_t v = row[j];
        mag[k][b * 8 + j] = static_cast<std::uint64_t>(v < 0 ? -v : v);
        neg[k][b * 8 + j] = v < 0 ? -1 : 0;
      }
    }
  }
  std::int64_t acc[kLane];
  std::uint64_t prod[kLane];
  for (std::size_t u = 0; u < 8; ++u) {
    for (std::size_t i = 0; i < lane_len; ++i) acc[i] = 0;
    for (std::size_t k = 0; k < 8; ++k) {
      const std::int32_t coeff = c[transpose_m ? k * 8 + u : u * 8 + k];
      const auto ua = static_cast<std::uint64_t>(coeff < 0 ? -coeff : coeff);
      const std::int64_t amask = coeff < 0 ? -1 : 0;
      mul.multiply_row_batch(ua, mag[k], prod, lane_len);
      for (std::size_t i = 0; i < lane_len; ++i) {
        // (p ^ m) - m negates p where m == -1 — the sign-magnitude rule.
        const std::int64_t m = neg[k][i] ^ amask;
        acc[i] += (static_cast<std::int64_t>(prod[i]) ^ m) - m;
      }
    }
    for (std::size_t b = 0; b < nb; ++b) {
      for (std::size_t j = 0; j < 8; ++j) {
        out[b * 64 + j * 8 + u] =
            static_cast<std::int16_t>(rescale_sat(acc[b * 8 + j]));
      }
    }
  }
}

void transform_panel(const std::int16_t* in, std::int16_t* out, std::size_t n_blocks,
                     bool inverse, const Multiplier& mul) {
  std::int16_t mid[kPanelBlocks * 64];
  for (std::size_t b0 = 0; b0 < n_blocks; b0 += kPanelBlocks) {
    const std::size_t nb =
        n_blocks - b0 < kPanelBlocks ? n_blocks - b0 : kPanelBlocks;
    pass_panel(in + b0 * 64, mid, nb, inverse, mul);
    pass_panel(mid, out + b0 * 64, nb, inverse, mul);
  }
  obs::counter_add(obs::Counter::kDctBlocksBatched, n_blocks);
}

}  // namespace

const std::array<std::int16_t, 64>& dct_matrix_q12() {
  static const std::array<std::int16_t, 64> c = make_matrix();
  return c;
}

void fdct_panel(const std::int16_t* blocks, std::int16_t* out, std::size_t n_blocks,
                const Multiplier& mul) {
  transform_panel(blocks, out, n_blocks, /*inverse=*/false, mul);
}

void idct_panel(const std::int16_t* coeffs, std::int16_t* out, std::size_t n_blocks,
                const Multiplier& mul) {
  transform_panel(coeffs, out, n_blocks, /*inverse=*/true, mul);
}

}  // namespace realm::jpeg
