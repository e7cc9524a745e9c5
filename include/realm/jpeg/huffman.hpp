// Entropy coding: bit I/O plus canonical Huffman codes built from symbol
// statistics.  The codec stores the code lengths in the stream header
// (canonical reconstruction on decode), so round-trips are self-contained.
// Entropy coding is lossless and does not affect Table II's PSNR — it exists
// so the JPEG substrate is a complete codec with measurable bitstream sizes.

#pragma once

#include <cstdint>
#include <vector>

namespace realm::jpeg {

class BitWriter {
 public:
  /// Appends the `bits` low bits of `value`, MSB first.
  void put(std::uint32_t value, int bits);
  /// Flushes any partial byte (zero padding) and returns the buffer.
  [[nodiscard]] std::vector<std::uint8_t> finish();
  [[nodiscard]] std::size_t bit_count() const noexcept { return bit_count_; }

 private:
  std::vector<std::uint8_t> bytes_;
  std::uint32_t acc_ = 0;
  int acc_bits_ = 0;
  std::size_t bit_count_ = 0;
};

class BitReader {
 public:
  explicit BitReader(const std::vector<std::uint8_t>& bytes);
  /// Reads `bits` bits MSB-first; throws std::runtime_error past the end.
  [[nodiscard]] std::uint32_t get(int bits);
  /// Reads a single bit.
  [[nodiscard]] int get_bit();

 private:
  const std::vector<std::uint8_t>* bytes_;
  std::size_t pos_ = 0;  // bit position
};

/// Canonical Huffman code over a dense symbol alphabet [0, n).
class HuffmanCode {
 public:
  /// Builds code lengths from symbol frequencies (zero-frequency symbols get
  /// no code).  Lengths are capped at 16 bits via the JPEG-style adjustment.
  static HuffmanCode from_frequencies(const std::vector<std::uint64_t>& freq);

  /// Rebuilds the code from stored lengths (canonical assignment).  Throws
  /// std::invalid_argument on a length above 16.
  static HuffmanCode from_lengths(const std::vector<std::uint8_t>& lengths);

  [[nodiscard]] const std::vector<std::uint8_t>& lengths() const noexcept {
    return lengths_;
  }

  void encode(BitWriter& w, int symbol) const;
  [[nodiscard]] int decode(BitReader& r) const;

 private:
  void assign_codes();

  std::vector<std::uint8_t> lengths_;
  std::vector<std::uint32_t> codes_;
  // Decode tables per length: first code value, symbol-index base, and the
  // number of codes of that length.
  std::vector<std::uint32_t> first_code_;
  std::vector<std::uint32_t> first_index_;
  std::vector<std::uint32_t> len_count_;
  std::vector<int> sorted_symbols_;
};

}  // namespace realm::jpeg
