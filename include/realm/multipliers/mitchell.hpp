// cALM — Mitchell's classical approximate log-based multiplier [8].
//
// lg(A) is linearly approximated as k_a + x between consecutive powers of
// two (Eq. 1); the two approximate logs are added and the inverse
// approximation applied (Eq. 3).  The relative error is always <= 0 with
// minimum -1/9 ≈ -11.11 % at x = y = 1/2, mean |error| ≈ 3.85 %.

#pragma once

#include "realm/datapath_multiplier.hpp"

namespace realm::mult {

/// cALM's half of the generated batched kernels (realm/datapath_multiplier.hpp).
struct MitchellDatapath {
  struct Row {
    std::uint64_t xf;    ///< fixed operand's truncated log fraction
    std::int64_t dbase;  ///< ka - f
  };
  std::uint64_t w, t, f, fmask, one_f, one_w;

  [[gnu::always_inline]] inline Row prepare(std::uint64_t a) const;
  [[gnu::always_inline]] inline std::uint64_t apply(const Row& row, std::uint64_t b) const;
  [[gnu::always_inline]] inline void segment(const Row& row, int kb, std::uint64_t b_first,
                                             std::uint64_t* __restrict out,
                                             std::size_t n) const;
};

}  // namespace realm::mult

namespace realm {
extern template class DatapathMultiplier<mult::MitchellDatapath>;
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
