// Exact unsigned integer multiplier — the accuracy and cost reference of
// every experiment (the paper's accurate design is a Wallace-tree multiplier;
// its gate-level model lives in src/hw/circuits/accurate_mult.cpp).

#pragma once

#include "realm/datapath_multiplier.hpp"

namespace realm::mult {

/// The exact product as a datapath (realm/datapath_multiplier.hpp): one
/// multiply per element, the fixed operand in a register.
struct AccurateDatapath {
  using Row = std::uint64_t;

  [[gnu::always_inline]] inline Row prepare(std::uint64_t a) const { return a; }
  [[gnu::always_inline]] inline std::uint64_t apply(Row a, std::uint64_t b) const {
    return a * b;
  }
  [[gnu::always_inline]] inline void segment(Row a, int /*kb*/, std::uint64_t b_first,
                                             std::uint64_t* __restrict out,
                                             std::size_t n) const {
    for (std::size_t i = 0; i < n; ++i) out[i] = a * (b_first + i);
  }
};

}  // namespace realm::mult

namespace realm {
extern template class DatapathMultiplier<mult::AccurateDatapath>;
}  // namespace realm

namespace realm::mult {

class AccurateMultiplier final : public DatapathMultiplier<AccurateDatapath> {
 public:
  explicit AccurateMultiplier(int n = 16);

  [[nodiscard]] std::uint64_t multiply(std::uint64_t a, std::uint64_t b) const override;
  [[nodiscard]] std::string name() const override { return "Accurate"; }
  [[nodiscard]] int width() const override { return n_; }

 private:
  int n_;
};

}  // namespace realm::mult
