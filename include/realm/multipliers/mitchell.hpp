// cALM — Mitchell's classical approximate log-based multiplier [8].
//
// lg(A) is linearly approximated as k_a + x between consecutive powers of
// two (Eq. 1); the two approximate logs are added and the inverse
// approximation applied (Eq. 3).  The relative error is always <= 0 with
// minimum -1/9 ≈ -11.11 % at x = y = 1/2, mean |error| ≈ 3.85 %.

#pragma once

#include "realm/datapath_multiplier.hpp"

namespace realm::mult {

/// cALM's and ALM's half of the generated batched kernels
/// (realm/datapath_multiplier.hpp): normalize both operands to log
/// fractions, add them, and shift the antilog significand back.  With
/// kLowAdder the fraction adder is ALM's (alm.hpp): exact on the bits at and
/// above m, and on the low m bits either constant ones (SOA, lo_set) or
/// x OR y (MAA, lo_or) plus MAA's AND-predicted carry into bit m.  The adder
/// kind is held in those loop-invariant constants, not in a branch.
template <bool kLowAdder>
struct LogAddDatapath {
  struct Row {
    std::uint64_t xf;    ///< fixed operand's truncated log fraction
    std::int64_t dbase;  ///< ka - f
  };
  std::uint64_t w, t, f, fmask, one_f, one_w;
  std::uint64_t m = 0, lo_set = 0, lo_or = 0;      ///< low-bit adder (ALM only)
  std::uint64_t carry_shift = 0, carry_mask = 0;  ///< MAA's carry prediction

  [[gnu::always_inline]] inline Row prepare(std::uint64_t a) const;
  [[gnu::always_inline]] inline std::uint64_t apply(const Row& row, std::uint64_t b) const;
  [[gnu::always_inline]] inline void segment(const Row& row, int kb, std::uint64_t b_first,
                                             std::uint64_t* __restrict out,
                                             std::size_t n) const;

 private:
  [[gnu::always_inline]] std::uint64_t fraction_sum(std::uint64_t xf, std::uint64_t yf) const {
    if constexpr (kLowAdder) {
      const std::uint64_t carry = (xf >> carry_shift) & (yf >> carry_shift) & carry_mask;
      return (((xf >> m) + (yf >> m) + carry) << m) | lo_set | ((xf | yf) & lo_or);
    }
    return xf + yf;
  }
};

using MitchellDatapath = LogAddDatapath<false>;
using AlmDatapath = LogAddDatapath<true>;

}  // namespace realm::mult

namespace realm {
extern template class DatapathMultiplier<mult::MitchellDatapath>;
extern template class DatapathMultiplier<mult::AlmDatapath>;
}  // namespace realm

namespace realm::mult {

class MitchellMultiplier final : public DatapathMultiplier<MitchellDatapath> {
 public:
  /// n: operand width.  t: optional plain truncation of fraction LSBs
  /// (0 = the classical design; no rounding bit, unlike MBM/REALM).
  explicit MitchellMultiplier(int n = 16, int t = 0);

  [[nodiscard]] std::uint64_t multiply(std::uint64_t a, std::uint64_t b) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] int width() const override { return n_; }

 private:
  int n_;
  int t_;
};

}  // namespace realm::mult
