// AM1 / AM2 — approximate multipliers with configurable error recovery,
// Jiang et al. [15].
//
// The partial products are reduced by a tree of *approximate adders* that
// produce a carry-free sum (a XOR b) plus an error vector (a AND b, the
// dropped carries).  Error recovery re-injects the accumulated error vector
// for the `nb` most-significant product columns only:
//
//   * AM1 adds the masked error vector back with an exact adder;
//   * AM2 merges it with a cheaper OR, losing any coincident bits.
//
// Dropped carries can only shrink the product, so the error is one-sided
// negative with a heavy worst-case tail (the -61 % minima in Table I) and a
// bias that improves as nb grows.  Reimplemented from the description in the
// REALM paper and [15]'s published error profiles; see DESIGN.md §3.

#pragma once

#include "realm/datapath_multiplier.hpp"

namespace realm::mult {

enum class AmVariant { kAm1, kAm2 };

/// AM1/AM2's half of the generated batched kernels
/// (realm/datapath_multiplier.hpp): the partial-product rows reduced by a
/// fixed-depth pairwise tree in a std::array, with no heap allocation.  The
/// tree is padded with zero rows to `rows`, a power of two >= N: pairing a
/// row with a zero row passes it through unchanged with a zero error vector,
/// exactly as multiply() carries the odd row of a level, so the padded tree
/// gives the same sum and error.  Zero operands give zero rows, hence zero.
struct AmDatapath {
  static constexpr bool kZeroSafe = true;
  static constexpr std::uint64_t kMaxRows = 32;
  using Row = std::uint64_t;
  std::uint64_t rows;        ///< padded tree width: a power of two, N <= rows <= 32
  std::uint64_t recov_mask;  ///< product columns with error recovery
  std::uint64_t out_mask;    ///< the 2N-bit product bus
  bool am1;                  ///< exact (AM1) or OR (AM2) error accumulation

  [[gnu::always_inline]] inline Row prepare(std::uint64_t a) const { return a; }
  [[gnu::always_inline]] inline std::uint64_t apply(Row a, std::uint64_t b) const;
  [[gnu::always_inline]] inline void segment(Row a, int kb, std::uint64_t b_first,
                                             std::uint64_t* __restrict out,
                                             std::size_t n) const;
};

}  // namespace realm::mult

namespace realm {
extern template class DatapathMultiplier<mult::AmDatapath>;
}  // namespace realm

namespace realm::mult {

class AmMultiplier final : public DatapathMultiplier<AmDatapath> {
 public:
  /// n: operand width; nb: number of most-significant product columns with
  /// error recovery, 0 <= nb <= 2n.
  AmMultiplier(int n, int nb, AmVariant variant);

  [[nodiscard]] std::uint64_t multiply(std::uint64_t a, std::uint64_t b) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] int width() const override { return n_; }

 private:
  int n_;
  int nb_;
  AmVariant variant_;
};

}  // namespace realm::mult
