// MBM — the minimally biased multiplier of Saadat et al. [4].
//
// Mitchell's multiplier plus a *single* error-correction term for the whole
// power-of-two-interval: the average of Mitchell's absolute error over the
// interval, which normalizes to exactly 1/12 of 2^(ka+kb) (see
// realm::core::mbm_correction()).  The constant is quantized to q fraction
// bits and applied inside the antilog exactly like REALM's s_ij (REALM is
// MBM generalized to M×M per-segment factors and a relative-error
// formulation).  Shares REALM's t-LSB truncation knob with the forced-1
// rounding bit.

#pragma once

#include <cstdint>

#include "realm/datapath_multiplier.hpp"

namespace realm::mult {

/// MBM's half of the generated batched kernels (realm/datapath_multiplier.hpp).
struct MbmDatapath {
  struct Row {
    std::uint64_t xf;    ///< fixed operand's truncated log fraction
    std::int64_t dbase;  ///< ka - f
  };
  std::uint64_t w, t, f, fmask, one_w;
  std::uint64_t base0, base1;  ///< (1 << f) + the aligned correction for c_of = 0 / 1

  [[gnu::always_inline]] inline Row prepare(std::uint64_t a) const;
  [[gnu::always_inline]] inline std::uint64_t apply(const Row& row, std::uint64_t b) const;
  [[gnu::always_inline]] inline void segment(const Row& row, int kb, std::uint64_t b_first,
                                             std::uint64_t* __restrict out,
                                             std::size_t n) const;
};

}  // namespace realm::mult

namespace realm {
extern template class DatapathMultiplier<mult::MbmDatapath>;
}  // namespace realm

namespace realm::mult {

class MbmMultiplier final : public DatapathMultiplier<MbmDatapath> {
 public:
  explicit MbmMultiplier(int n = 16, int t = 0, int q = 6);

  [[nodiscard]] std::uint64_t multiply(std::uint64_t a, std::uint64_t b) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] int width() const override { return n_; }

  /// Quantized correction in units of 2^-q (round-to-nearest of 1/12).
  [[nodiscard]] std::uint32_t correction_units() const noexcept { return corr_units_; }

 private:
  int n_;
  int t_;
  int q_;
  std::uint32_t corr_units_;
};

}  // namespace realm::mult
