// Scalar reference twins of the batched application datapath.
//
// The library runs JPEG, MLP inference and FIR/Sobel filtering only on the
// batched Multiplier engine (row batches over panels, lanes and image rows).
// These twins compute the same arithmetic one product at a time through
// Multiplier::multiply(): the same sign-magnitude products, accumulated in
// the same order, with the same rescale, saturation and clamping.  The
// bit-identity tests and the bench_apps throughput ladder compare the
// engine against them.  They take no options and open no trace scopes.

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "realm/jpeg/codec.hpp"
#include "realm/jpeg/image.hpp"
#include "realm/nn/mlp.hpp"

namespace realm {
class Multiplier;
}  // namespace realm

namespace realm::oracle {

/// The exact 16-bit design ("accurate", plain a*b), built once: what "exact
/// arithmetic" means for every Multiplier-taking API.
[[nodiscard]] const Multiplier& exact();

/// Signed product via sign-magnitude: magnitudes through one m.multiply()
/// call, then the XOR of the operand signs.  Precondition: neither operand
/// is INT64_MIN (debug builds assert).
[[nodiscard]] std::int64_t signed_mul(std::int64_t a, std::int64_t b,
                                      const Multiplier& m);

/// (a * b) >> frac_bits with the product from signed_mul, truncated toward
/// zero as a hardware right-shift of the unsigned product would.
[[nodiscard]] std::int32_t fx_mul(std::int32_t a, std::int32_t b, int frac_bits,
                                  const Multiplier& m);

/// One-block forward / inverse 2-D DCT (jpeg::fdct_panel / idct_panel with
/// n_blocks = 1).
void fdct8x8(const std::array<std::int16_t, 64>& block, std::array<std::int16_t, 64>& out,
             const Multiplier& m);
void idct8x8(const std::array<std::int16_t, 64>& coeffs,
             std::array<std::int16_t, 64>& out, const Multiplier& m);

/// Approximate dequantizer, quantizer constant first (the operand
/// jpeg::dequantize_panel holds fixed).
[[nodiscard]] std::int32_t dequantize(std::int16_t level, std::uint16_t q,
                                      const Multiplier& m);

/// jpeg::encode with CodecOptions{quality, mul = &m}: level shift, DCT and
/// quantization block by block, then the library's entropy stage.
[[nodiscard]] jpeg::Compressed jpeg_encode(const jpeg::Image& img, int quality,
                                           const Multiplier& m);

/// jpeg::decode with mul = &m: the library's entropy parse, then
/// dequantization (through m when approximate_dequant, else exact), IDCT
/// and clamping block by block.
[[nodiscard]] jpeg::Image jpeg_decode(const jpeg::Compressed& c, const Multiplier& m,
                                      bool approximate_dequant = false);

/// One-sample nn::predict_fixed and the accuracy over a data set.
[[nodiscard]] int predict_fixed(const nn::Mlp::Quantized& net,
                                const std::array<double, 2>& x, const Multiplier& m);
[[nodiscard]] double accuracy_fixed(const nn::Mlp::Quantized& net,
                                    const nn::Dataset& data, const Multiplier& m);

/// Pixel-at-a-time dsp::convolve / gaussian_blur / sobel.
[[nodiscard]] jpeg::Image convolve(const jpeg::Image& img,
                                   const std::vector<double>& kernel, int size,
                                   const Multiplier& m, int frac_bits = 10);
[[nodiscard]] jpeg::Image gaussian_blur(const jpeg::Image& img, double sigma,
                                        const Multiplier& m);
[[nodiscard]] jpeg::Image sobel(const jpeg::Image& img, const Multiplier& m);

}  // namespace realm::oracle
