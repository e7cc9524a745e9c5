#include "realm/multipliers/accurate.hpp"

#include <cassert>
#include <stdexcept>

#include "realm/numeric/bits.hpp"

namespace realm::mult {

AccurateMultiplier::AccurateMultiplier(int n) : n_{n} {
  if (n < 1 || n > 31) throw std::invalid_argument("AccurateMultiplier: N in [1, 31]");
}

std::uint64_t AccurateMultiplier::multiply(std::uint64_t a, std::uint64_t b) const {
  assert(num::fits(a, n_) && num::fits(b, n_));
  return a * b;
}

}  // namespace realm::mult

template class realm::DatapathMultiplier<realm::mult::AccurateDatapath>;
