// DRUM — dynamic range unbiased multiplier of Hashemi et al. [3].
//
// Extracts the k-bit fragment starting at each operand's leading one,
// forces the fragment's LSB to 1 (which centers the truncation error and
// removes the bias), multiplies the fragments with an exact k×k multiplier,
// and shifts the product back.  Operands that already fit k bits pass
// through unchanged, so DRUM is exact for small inputs.

#pragma once

#include "realm/datapath_multiplier.hpp"

namespace realm::mult {

/// DRUM's half of the generated batched kernels (realm/datapath_multiplier.hpp).
struct DrumDatapath {
  struct Row {
    std::uint64_t fa;  ///< fixed operand's k-bit fragment
    std::uint64_t sa;  ///< its shift
  };
  std::uint64_t kth;  ///< k - 1: a fragment shift is needed when the leading one is above it

  [[gnu::always_inline]] inline Row prepare(std::uint64_t a) const;
  [[gnu::always_inline]] inline std::uint64_t apply(const Row& row, std::uint64_t b) const;
  [[gnu::always_inline]] inline void segment(const Row& row, int kb, std::uint64_t b_first,
                                             std::uint64_t* __restrict out,
                                             std::size_t n) const;
};

}  // namespace realm::mult

namespace realm {
extern template class DatapathMultiplier<mult::DrumDatapath>;
}  // namespace realm

namespace realm::mult {

class DrumMultiplier final : public DatapathMultiplier<DrumDatapath> {
 public:
  /// n: operand width; k: fragment width, 3 <= k <= n.
  DrumMultiplier(int n, int k);

  [[nodiscard]] std::uint64_t multiply(std::uint64_t a, std::uint64_t b) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] int width() const override { return n_; }
  [[nodiscard]] int k() const noexcept { return k_; }

 private:
  int n_;
  int k_;
};

}  // namespace realm::mult
