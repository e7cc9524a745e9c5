// Fixed-point 8×8 DCT-II / IDCT with a pluggable integer multiplier.
//
// The paper implements JPEG "in 16-bit fixed-point arithmetic, using
// accurate and approximate multipliers" (§IV-D).  We realize the 2-D DCT as
// two matrix passes F = C·X·Cᵀ with the cosine coefficients quantized to
// Q12 (so coefficient magnitudes < 2^12 and pixel-domain operands < 2^11 —
// every product the datapath issues fits the 16-bit multipliers under test).
// Sign handling follows the unsigned-multiplier sign-magnitude scheme of
// num::signed_row_batch.
//
// The panel engine (fdct_panel / idct_panel) transforms W blocks per call.
// Each 1-D pass has a *fixed* coefficient per (row u, tap k), so it issues
// one multiply_row_batch per (u, k) over a W·8-wide lane of sign/magnitude-
// split inputs (decomposed once per panel), landing on the multiplier's
// row-hoisted kernels.  The scalar one-block twin the tests compare against
// (same products, same per-output k-ascending accumulation, same rescale
// and saturation) lives in tests/oracle.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace realm {
class Multiplier;
}  // namespace realm

namespace realm::jpeg {

/// Fraction bits of the DCT coefficient matrix.
inline constexpr int kDctCoeffBits = 12;

/// Forward 2-D DCT of `n_blocks` consecutive row-major, level-shifted 8×8
/// blocks (`blocks[b*64 + y*8 + x]`, inputs in [-128, 127]), batched through
/// mul.multiply_row_batch, producing coefficients in natural
/// (pre-quantization) scale.  `out` may not alias `blocks`.
void fdct_panel(const std::int16_t* blocks, std::int16_t* out, std::size_t n_blocks,
                const Multiplier& mul);

/// Inverse counterpart of fdct_panel; output is level-shifted pixel domain
/// (clamp to [-128, 127] is the caller's job when reconstructing).
void idct_panel(const std::int16_t* coeffs, std::int16_t* out, std::size_t n_blocks,
                const Multiplier& mul);

/// The Q12 coefficient matrix row-major (c[u][k] = s(u)·cos((2k+1)uπ/16)),
/// exposed for the scalar twin in tests/oracle.
[[nodiscard]] const std::array<std::int16_t, 64>& dct_matrix_q12();

}  // namespace realm::jpeg
