// ImpLM — improved logarithmic multiplier of Ansari et al. [10].
//
// Improves Mitchell's log approximation by choosing the power of two
// *nearest* to each operand instead of the highest one below it: for
// A = 2^k(1+x) with x >= 1/2, the operand is re-anchored as A = 2^(k+1)·m
// with mantissa offset f = m - 1 ∈ [-1/4, 0).  The fraction sum can
// therefore be negative, which makes the error double-sided with peak
// exactly ±1/9 (±11.11 %) and near-zero bias — matching the ImpLM "EA"
// (exact adder) row of Table I.

#pragma once

#include "realm/datapath_multiplier.hpp"

namespace realm::mult {

/// ImpLM's half of the generated batched kernels (realm/datapath_multiplier.hpp).
/// An operand v anchored at its nearest power of two 2^k is carried as
/// (v << w) >> k = 2^w (1 + f): v << w stays below 2^59 for N <= 30, so the
/// signed fraction needs no wider lane, and the significand 1 + fa + fb is
/// ra + rb - 2^w.
struct ImplmDatapath {
  struct Row {
    std::uint64_t r;     ///< fixed operand as 2^w (1 + fa)
    std::int64_t dbase;  ///< its anchor minus w
  };
  std::uint64_t w, one_w;

  [[gnu::always_inline]] inline Row prepare(std::uint64_t a) const;
  [[gnu::always_inline]] inline std::uint64_t apply(const Row& row, std::uint64_t b) const;
  [[gnu::always_inline]] inline void segment(const Row& row, int kb, std::uint64_t b_first,
                                             std::uint64_t* __restrict out,
                                             std::size_t n) const;

 private:
  /// out[i] = apply(row, b_first + i) for columns all anchored at 2^k.
  [[gnu::always_inline]] inline void anchored_run(const Row& row, std::uint64_t k,
                                                  std::uint64_t b_first,
                                                  std::uint64_t* __restrict out,
                                                  std::uint64_t n) const;
};

}  // namespace realm::mult

namespace realm {
extern template class DatapathMultiplier<mult::ImplmDatapath>;
}  // namespace realm

namespace realm::mult {

class ImplmMultiplier final : public DatapathMultiplier<ImplmDatapath> {
 public:
  explicit ImplmMultiplier(int n = 16);

  [[nodiscard]] std::uint64_t multiply(std::uint64_t a, std::uint64_t b) const override;
  [[nodiscard]] std::string name() const override { return "ImpLM (EA)"; }
  [[nodiscard]] int width() const override { return n_; }

 private:
  int n_;
};

}  // namespace realm::mult
