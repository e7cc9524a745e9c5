#include "realm/multipliers/mitchell.hpp"

#include <cassert>
#include <stdexcept>

#include "realm/numeric/bits.hpp"

namespace realm::mult {

// Branchless form of multiply(): the normalize step uses
// (a << (w - ka)) ^ (1 << w) — the leading one always lands on bit w, so the
// clearing mask is loop-invariant.  With f = 0 (t = N-1), mask(0) = 0 makes
// frac 0 and c_of = fsum, matching the scalar path's special case.

MitchellDatapath::Row MitchellDatapath::prepare(std::uint64_t a) const {
  const std::uint64_t ka = datapath::leading_one(a);
  return {((a << (w - ka)) ^ one_w) >> t,
          static_cast<std::int64_t>(ka) - static_cast<std::int64_t>(f)};
}

std::uint64_t MitchellDatapath::apply(const Row& row, std::uint64_t b) const {
  const std::uint64_t kb = datapath::leading_one(b);
  const std::uint64_t fsum = row.xf + (((b << (w - kb)) ^ one_w) >> t);
  const std::uint64_t c_of = fsum >> f;
  return datapath::shift(one_f | (fsum & fmask),
                         row.dbase + static_cast<std::int64_t>(kb + c_of));
}

// Constant kb: no LOD, a fixed normalize shift, and the final barrel shift
// reduced to two constant (shl, shr) pairs selected by the fraction carry.
void MitchellDatapath::segment(const Row& row, int kb, std::uint64_t b_first,
                               std::uint64_t* __restrict out, std::size_t n) const {
  const std::uint64_t norm_shift = w - static_cast<std::uint64_t>(kb);
  const auto [shl0, shr0] = datapath::shift_pair(row.dbase + kb);
  const auto [shl1, shr1] = datapath::shift_pair(row.dbase + kb + 1);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t fsum = row.xf + ((((b_first + i) << norm_shift) ^ one_w) >> t);
    const std::uint64_t significand = one_f | (fsum & fmask);
    const std::uint64_t v0 = (significand << shl0) >> shr0;
    const std::uint64_t v1 = (significand << shl1) >> shr1;
    out[i] = ((fsum >> f) != 0) ? v1 : v0;
  }
}

MitchellMultiplier::MitchellMultiplier(int n, int t) : n_{n}, t_{t} {
  if (n < 2 || n > 31) throw std::invalid_argument("MitchellMultiplier: N in [2, 31]");
  if (t < 0 || t > n - 1) throw std::invalid_argument("MitchellMultiplier: t in [0, N-1]");
  const auto w = static_cast<std::uint64_t>(n - 1);
  const int f = n - 1 - t;
  dp_ = MitchellDatapath{.w = w,
                         .t = static_cast<std::uint64_t>(t),
                         .f = static_cast<std::uint64_t>(f),
                         .fmask = num::mask(f),
                         .one_f = std::uint64_t{1} << f,
                         .one_w = std::uint64_t{1} << w};
}

std::uint64_t MitchellMultiplier::multiply(std::uint64_t a, std::uint64_t b) const {
  assert(num::fits(a, n_) && num::fits(b, n_));
  if (a == 0 || b == 0) return 0;

  const int w = n_ - 1;
  const int f = w - t_;
  const int ka = num::leading_one(a);
  const int kb = num::leading_one(b);
  const std::uint64_t xf = ((a ^ (std::uint64_t{1} << ka)) << (w - ka)) >> t_;
  const std::uint64_t yf = ((b ^ (std::uint64_t{1} << kb)) << (w - kb)) >> t_;

  // Eq. 3: both branches collapse to (1.frac) · 2^(ka+kb+carry) because
  // x + y >= 1 means x + y = 1 + frac.
  const std::uint64_t fsum = xf + yf;
  const std::uint64_t c_of = f > 0 ? (fsum >> f) : fsum;
  const std::uint64_t frac = f > 0 ? (fsum & num::mask(f)) : 0;
  const int k_sum = ka + kb + static_cast<int>(c_of);

  const std::uint64_t significand = (std::uint64_t{1} << f) | frac;
  if (k_sum >= f) return significand << (k_sum - f);
  return significand >> (f - k_sum);
}

std::string MitchellMultiplier::name() const {
  return t_ == 0 ? "cALM" : "cALM (t=" + std::to_string(t_) + ")";
}

}  // namespace realm::mult

template class realm::DatapathMultiplier<realm::mult::MitchellDatapath>;
