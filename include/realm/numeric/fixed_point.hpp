// Minimal signed fixed-point support for the application-level (JPEG)
// evaluation, which the paper runs "in 16-bit fixed-point arithmetic".
//
// Values are plain int32_t raw words interpreted in Q(frac_bits) format; the
// interesting part is that *multiplication* is routed through a pluggable
// unsigned-integer multiplier so approximate designs can be dropped into the
// DCT datapath exactly as the paper does.  Signed handling follows the
// sign-magnitude scheme of DRUM [3] ("it is straightforward to extend any
// unsigned integer multiplier for handling signed numbers"): take magnitudes,
// multiply unsigned, re-apply the XOR of the signs.
//
// Products run over contiguous spans through a Multiplier's devirtualized
// multiply_batch / multiply_row_batch kernels.  The scalar one-product-per-
// call twin the tests compare against lives in tests/oracle.

#pragma once

#include <cstddef>
#include <cstdint>

namespace realm {
class Multiplier;
}  // namespace realm

namespace realm::num {

/// Element-wise signed product over contiguous spans:
/// out[i] = ±mul.multiply(|a[i]|, |b[i]|) for i in [0, n), the sign being the
/// XOR of the operand signs, with the unsigned magnitude products formed by
/// mul.multiply_batch — one devirtualized kernel call per block instead of n
/// virtual calls.  `out` may alias neither input.
///
/// Precondition (the magnitude domain): no operand may be INT64_MIN —
/// |INT64_MIN| overflows int64_t, so its "magnitude" would wrap to itself and
/// the unsigned multiplier would see a garbage 2^63 operand.  Debug builds
/// assert (values anywhere near the 16-bit application datapath can never
/// hit it).
void signed_mul_batch(const std::int64_t* a, const std::int64_t* b, std::int64_t* out,
                      std::size_t n, const Multiplier& mul);

/// Fixed-operand signed row product: out[i] = ±mul.multiply(|a_fixed|, |b[i]|)
/// for i in [0, n), lowered onto mul.multiply_row_batch so the fixed operand's
/// data-dependent work (LOD, log fraction, segment row) is hoisted out of
/// the loop once.  This is the application datapath's dominant shape: one
/// DCT coefficient times a lane of pixels, one weight times a lane of
/// activations, one FIR tap times an image row.  `out` must not alias `b`.
/// Same magnitude-domain precondition as signed_mul_batch.
void signed_row_batch(std::int64_t a_fixed, const std::int64_t* b, std::int64_t* out,
                      std::size_t n, const Multiplier& mul);

/// Convert a double to Q(frac_bits) with round-to-nearest.
[[nodiscard]] std::int32_t to_fx(double v, int frac_bits);

/// Convert Q(frac_bits) back to double.
[[nodiscard]] double from_fx(std::int32_t v, int frac_bits);

/// Saturate to a signed n-bit range [-2^(n-1), 2^(n-1)-1].
[[nodiscard]] std::int32_t sat_signed(std::int64_t v, int n);

}  // namespace realm::num
