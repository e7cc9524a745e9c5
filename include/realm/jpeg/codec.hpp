// Grayscale JPEG-style codec with a pluggable integer multiplier
// (paper §IV-D: JPEG at quality 50 in 16-bit fixed point).
//
// Pipeline per 8×8 block: level shift → fixed-point FDCT → quantize →
// zigzag + RLE → canonical Huffman.  Decoding mirrors it; dequantization and
// the IDCT go through the same multiplier.  The bitstream is this library's
// own compact format (header with dimensions, quality, and Huffman code
// lengths), not JFIF — the paper's metric (PSNR vs the uncompressed image)
// only needs a faithful lossy pipeline.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "realm/jpeg/image.hpp"

namespace realm {
class Multiplier;
}  // namespace realm

namespace realm::jpeg {

struct CodecOptions {
  int quality = 50;
  /// Route dequantization through the multiplier under test as well.  Off by
  /// default: the dequantizer multiplies by one of 64 *known constants*,
  /// which hardware implements as shift-add constant multipliers — the
  /// design under test replaces the general-purpose MAC multipliers of the
  /// transform.  (The JPEG ablation bench exercises both settings; the
  /// frequent power-of-two quantizer constants otherwise excite the
  /// log-multipliers' x = 0 ridge coherently across stages.)
  bool approximate_dequant = false;
  /// The multiplier under test in the DCT/IDCT datapath (and, with
  /// approximate_dequant, the dequantizer).  Required: encode/decode throw
  /// std::invalid_argument when it is null; exact arithmetic means passing
  /// the `accurate` design.  The block passes run on its devirtualized
  /// multiply_row_batch kernels — W blocks per call instead of one virtual
  /// multiply per product — sharded over the persistent thread pool per
  /// `threads`.  Not owned; must outlive the call.
  const Multiplier* mul = nullptr;
  /// Parallelism of the block shards (1 = serial, 0 = all hardware
  /// threads).  Encoded bytes and decoded pixels are invariant to this by
  /// construction: the shard grid is a fixed function of the block count
  /// and shards write disjoint block-index ranges.
  int threads = 1;
};

struct Compressed {
  int width = 0;
  int height = 0;
  int quality = 50;
  std::vector<std::uint8_t> payload;          ///< entropy-coded blocks
  std::vector<std::uint8_t> dc_code_lengths;  ///< canonical Huffman header
  std::vector<std::uint8_t> ac_code_lengths;

  /// Total compressed size in bytes (payload + header tables).
  [[nodiscard]] std::size_t size_bytes() const noexcept;
};

/// Compresses `img` (dimensions must be multiples of 8; throws
/// std::invalid_argument otherwise or when opts.mul is null).
[[nodiscard]] Compressed encode(const Image& img, const CodecOptions& opts);

/// Reconstructs an image; uses the same multiplier options for the IDCT.
/// Throws std::invalid_argument when opts.mul is null.
[[nodiscard]] Image decode(const Compressed& c, const CodecOptions& opts);

/// encode + decode in one call — what the Table II evaluation runs.
[[nodiscard]] Image roundtrip(const Image& img, const CodecOptions& opts);

/// Single-blob bitstream: magic + dimensions + quality + Huffman code
/// lengths + payload, so compressed images survive a trip through a file.
/// (This library's own container, not JFIF — see the header comment.)
[[nodiscard]] std::vector<std::uint8_t> serialize(const Compressed& c);
[[nodiscard]] Compressed deserialize(const std::vector<std::uint8_t>& blob);

/// File convenience wrappers around serialize/deserialize.
void write_compressed(const Compressed& c, const std::string& path);
[[nodiscard]] Compressed read_compressed(const std::string& path);

/// The lossless entropy stage of encode: zigzag scan, run-length tokens and
/// canonical Huffman tables built from their statistics, over `levels` —
/// quantized coefficients, 64 per 8×8 block, blocks in raster order over
/// `img`.  Only img's dimensions are read; `quality` is left at its default
/// for the caller to stamp.
[[nodiscard]] Compressed entropy_encode(const Image& img,
                                        const std::vector<std::int16_t>& levels);

/// The inverse of entropy_encode: parses `c.payload` into block-major
/// quantized levels.  Throws std::runtime_error on a malformed bitstream and
/// std::invalid_argument on a malformed Huffman table.
[[nodiscard]] std::vector<std::int16_t> parse_levels(const Compressed& c);

}  // namespace realm::jpeg
