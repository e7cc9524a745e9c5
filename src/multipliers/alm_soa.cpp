#include "realm/multipliers/alm.hpp"

#include <cassert>
#include <stdexcept>

#include "realm/numeric/bits.hpp"

namespace realm::mult {

AlmMultiplier::AlmMultiplier(int n, int m, AlmAdder adder)
    : n_{n}, m_{m}, adder_{adder} {
  if (n < 2 || n > 31) throw std::invalid_argument("AlmMultiplier: N in [2, 31]");
  if (m < 0 || m > n - 1) throw std::invalid_argument("AlmMultiplier: m in [0, N-1]");
  const auto w = static_cast<std::uint64_t>(n - 1);
  const std::uint64_t lo_mask = num::mask(m);
  const bool soa = adder == AlmAdder::kSetOne;
  dp_ = AlmDatapath{.w = w,
                    .t = 0,
                    .f = w,
                    .fmask = num::mask(n - 1),
                    .one_f = std::uint64_t{1} << w,
                    .one_w = std::uint64_t{1} << w,
                    .m = static_cast<std::uint64_t>(m),
                    .lo_set = soa ? lo_mask : 0,
                    .lo_or = soa ? 0 : lo_mask,
                    .carry_shift = static_cast<std::uint64_t>(m > 0 ? m - 1 : 0),
                    .carry_mask = static_cast<std::uint64_t>(!soa && m > 0)};
}

std::uint64_t AlmMultiplier::multiply(std::uint64_t a, std::uint64_t b) const {
  assert(num::fits(a, n_) && num::fits(b, n_));
  if (a == 0 || b == 0) return 0;

  const int w = n_ - 1;
  const int ka = num::leading_one(a);
  const int kb = num::leading_one(b);
  const std::uint64_t xf = (a ^ (std::uint64_t{1} << ka)) << (w - ka);
  const std::uint64_t yf = (b ^ (std::uint64_t{1} << kb)) << (w - kb);

  // Approximate fraction addition: exact on the upper w-m bits, approximate
  // on the lower m bits, no carry crossing the boundary except MAA's
  // AND-based prediction.
  std::uint64_t fsum;
  if (m_ == 0) {
    fsum = xf + yf;
  } else {
    const std::uint64_t lo_mask = num::mask(m_);
    const std::uint64_t xhi = xf >> m_, yhi = yf >> m_;
    std::uint64_t lo, carry;
    if (adder_ == AlmAdder::kSetOne) {
      lo = lo_mask;  // constant ones
      carry = 0;
    } else {
      lo = (xf | yf) & lo_mask;
      carry = (xf >> (m_ - 1)) & (yf >> (m_ - 1)) & 1u;  // LOA carry prediction
    }
    fsum = ((xhi + yhi + carry) << m_) | lo;
  }

  const std::uint64_t c_of = fsum >> w;
  const std::uint64_t frac = fsum & num::mask(w);
  const int k_sum = ka + kb + static_cast<int>(c_of);

  const std::uint64_t significand = (std::uint64_t{1} << w) | frac;
  if (k_sum >= w) return significand << (k_sum - w);
  return significand >> (w - k_sum);
}

std::string AlmMultiplier::name() const {
  const char* kind = adder_ == AlmAdder::kSetOne ? "ALM-SOA" : "ALM-MAA";
  return std::string{kind} + " (m=" + std::to_string(m_) + ")";
}

}  // namespace realm::mult
