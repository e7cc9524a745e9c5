#include "realm/multipliers/drum.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "realm/numeric/bits.hpp"

namespace realm::mult {

// Branchless form of multiply()'s fragment extraction: the shift is
// max(k_v - (k-1), 0) and the forced-1 LSB is set only when it is nonzero.

DrumDatapath::Row DrumDatapath::prepare(std::uint64_t a) const {
  const std::uint64_t ka = datapath::leading_one(a);
  const std::uint64_t sa = ka > kth ? ka - kth : 0;
  return {(a >> sa) | static_cast<std::uint64_t>(ka > kth), sa};
}

std::uint64_t DrumDatapath::apply(const Row& row, std::uint64_t b) const {
  const Row fb = prepare(b);
  return (row.fa * fb.fa) << (row.sa + fb.sa);
}

// Constant leading one: the fragment shift and forced LSB are
// loop-invariant, leaving one multiply and one constant shift per element.
void DrumDatapath::segment(const Row& row, int kb, std::uint64_t b_first,
                           std::uint64_t* __restrict out, std::size_t n) const {
  const auto k = static_cast<std::uint64_t>(kb);
  const std::uint64_t sb = k > kth ? k - kth : 0;
  const auto force1 = static_cast<std::uint64_t>(sb != 0);
  const std::uint64_t total_shift = row.sa + sb;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = (row.fa * (((b_first + i) >> sb) | force1)) << total_shift;
  }
}

DrumMultiplier::DrumMultiplier(int n, int k) : n_{n}, k_{k} {
  if (n < 2 || n > 31) throw std::invalid_argument("DrumMultiplier: N in [2, 31]");
  if (k < 3 || k > n) throw std::invalid_argument("DrumMultiplier: k in [3, N]");
  dp_ = DrumDatapath{.kth = static_cast<std::uint64_t>(k - 1)};
}

std::uint64_t DrumMultiplier::multiply(std::uint64_t a, std::uint64_t b) const {
  assert(num::fits(a, n_) && num::fits(b, n_));
  if (a == 0 || b == 0) return 0;

  const auto fragment = [this](std::uint64_t v) -> std::pair<std::uint64_t, int> {
    const int k = num::leading_one(v);
    if (k < k_) return {v, 0};  // already fits the small multiplier
    const int shift = k - k_ + 1;
    return {(v >> shift) | 1u, shift};  // forced-1 LSB unbiases truncation
  };
  const auto [fa, sa] = fragment(a);
  const auto [fb, sb] = fragment(b);
  return (fa * fb) << (sa + sb);
}

std::string DrumMultiplier::name() const { return "DRUM (k=" + std::to_string(k_) + ")"; }

}  // namespace realm::mult

template class realm::DatapathMultiplier<realm::mult::DrumDatapath>;
