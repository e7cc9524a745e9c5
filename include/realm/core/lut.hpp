// Quantized error-reduction-factor lookup table (paper §III-C).
//
// The M² factors s_ij are rounded to q-bit fractional precision
// (round-to-nearest, LSB weight 2^-q) and stored as hardwired constants.
// For practical M ∈ {4, 8, 16} every factor lies in (0, 0.25), so the two
// top fraction bits are always zero and the physical table width is q-2
// bits — in hardware the LUT degenerates to a (q-2)-bit M²:1 multiplexer
// with constant inputs, selected by the log2(M) MSBs of each fraction.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "realm/core/segment_factors.hpp"

namespace realm::core {

/// Which analytic formulation generated the factors.
enum class Formulation {
  kMeanRelativeError,  ///< Eq. 8 of the paper (the REALM formulation).
  kMeanSquareError,    ///< the future-work variant (minimize MSE of E~rel).
};

/// Caps on the correction-table parameters, far above anything the paper or
/// the benches use: the LUT holds M^2 factors whose derivation costs O(M^2)
/// time and memory (M = 2^14 asks for gigabytes), and q past 62 overflows
/// the quantization shifts (MBM's 32-bit correction already wraps past 34).
/// Every constructor taking M or q enforces them, as does the spec parser.
inline constexpr int kMaxLutSegments = 256;
inline constexpr int kMaxCorrectionBits = 30;

class SegmentLut {
 public:
  /// Builds the table for an M×M partitioning quantized to q fraction bits.
  /// M must be a power of two in [2, kMaxLutSegments] (its log2 selects
  /// fraction MSBs); q must be in [3, kMaxCorrectionBits].  Throws
  /// std::invalid_argument otherwise.
  SegmentLut(int m, int q, Formulation f = Formulation::kMeanRelativeError);

  /// Process-wide cache of derived tables, keyed by (m, q, formulation).
  /// Deriving the factors integrates Eq. 11 (dilogarithms + adaptive
  /// quadrature cross-checks), which is far more expensive than the table
  /// itself — design-space sweeps construct the same handful of tables
  /// hundreds of times, so identical configurations share one immutable
  /// instance.  Entries are held weakly: once every user releases a table it
  /// is freed, and the next request re-derives it.  Thread-safe.
  [[nodiscard]] static std::shared_ptr<const SegmentLut> shared(
      int m, int q, Formulation f = Formulation::kMeanRelativeError);

  [[nodiscard]] int m() const noexcept { return m_; }
  [[nodiscard]] int q() const noexcept { return q_; }
  [[nodiscard]] int select_bits() const noexcept { return log2m_; }
  [[nodiscard]] Formulation formulation() const noexcept { return formulation_; }

  /// Physical storage width per entry; the 2^-1 and 2^-2 bits are implicit
  /// zeros for every formulation/M this class accepts.
  [[nodiscard]] int stored_bits() const noexcept { return q_ - 2; }

  /// Exact (unquantized) factor for segment (i, j).
  [[nodiscard]] double exact(int i, int j) const;

  /// Quantized factor in integer units of 2^-q.
  [[nodiscard]] std::uint32_t units(int i, int j) const;

  /// Quantized factor as a real value (units(i,j) · 2^-q).
  [[nodiscard]] double quantized(int i, int j) const;

  /// Row-major vector of all quantized units — the hardwired mux constants.
  [[nodiscard]] const std::vector<std::uint32_t>& all_units() const noexcept {
    return units_;
  }

  /// Largest quantization error |quantized - exact| over the table
  /// (bounded by 2^-(q+1) for round-to-nearest).
  [[nodiscard]] double max_quantization_error() const;

 private:
  int m_;
  int q_;
  int log2m_;
  Formulation formulation_;
  std::vector<double> exact_;
  std::vector<std::uint32_t> units_;
};

}  // namespace realm::core
