#include "realm/multipliers/mbm.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "realm/core/lut.hpp"
#include "realm/core/segment_factors.hpp"
#include "realm/numeric/bits.hpp"

namespace realm::mult {

// Branchless form of multiply() (see MitchellDatapath for the normalize
// step); the correction constant folds into the two carry-selected
// significand bases base0/base1.

MbmDatapath::Row MbmDatapath::prepare(std::uint64_t a) const {
  const std::uint64_t ka = datapath::leading_one(a);
  return {(((a << (w - ka)) ^ one_w) >> t) | 1u,
          static_cast<std::int64_t>(ka) - static_cast<std::int64_t>(f)};
}

std::uint64_t MbmDatapath::apply(const Row& row, std::uint64_t b) const {
  const std::uint64_t kb = datapath::leading_one(b);
  const std::uint64_t fsum = row.xf + ((((b << (w - kb)) ^ one_w) >> t) | 1u);
  const std::uint64_t c_of = fsum >> f;
  const std::uint64_t significand = ((c_of != 0) ? base1 : base0) + (fsum & fmask);
  return datapath::shift(significand, row.dbase + static_cast<std::int64_t>(kb + c_of));
}

// Constant kb: both carry cases computed with constant shift pairs and
// blended on the fraction carry.
void MbmDatapath::segment(const Row& row, int kb, std::uint64_t b_first,
                          std::uint64_t* __restrict out, std::size_t n) const {
  const std::uint64_t norm_shift = w - static_cast<std::uint64_t>(kb);
  const auto [shl0, shr0] = datapath::shift_pair(row.dbase + kb);
  const auto [shl1, shr1] = datapath::shift_pair(row.dbase + kb + 1);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t fsum =
        row.xf + (((((b_first + i) << norm_shift) ^ one_w) >> t) | 1u);
    const std::uint64_t frac = fsum & fmask;
    const std::uint64_t v0 = ((base0 + frac) << shl0) >> shr0;
    const std::uint64_t v1 = ((base1 + frac) << shl1) >> shr1;
    out[i] = ((fsum >> f) != 0) ? v1 : v0;
  }
}

MbmMultiplier::MbmMultiplier(int n, int t, int q) : n_{n}, t_{t}, q_{q}, corr_units_{0} {
  if (n < 2 || n > 31) throw std::invalid_argument("MbmMultiplier: N in [2, 31]");
  if (t < 0 || t > n - 2) throw std::invalid_argument("MbmMultiplier: t in [0, N-2]");
  if (q < 3 || q > core::kMaxCorrectionBits) {
    throw std::invalid_argument("MbmMultiplier: q in [3, 30]");
  }
  corr_units_ =
      static_cast<std::uint32_t>(std::lround(core::mbm_correction() * std::ldexp(1.0, q_)));

  const auto w = static_cast<std::uint64_t>(n - 1);
  const int f = n - 1 - t;
  const int q1 = q + 1;
  const auto align = [&](std::uint64_t s) { return f >= q1 ? s << (f - q1) : s >> (q1 - f); };
  dp_ = MbmDatapath{.w = w,
                    .t = static_cast<std::uint64_t>(t),
                    .f = static_cast<std::uint64_t>(f),
                    .fmask = num::mask(f),
                    .one_w = std::uint64_t{1} << w,
                    .base0 = (std::uint64_t{1} << f) + align(std::uint64_t{corr_units_} << 1),
                    .base1 = (std::uint64_t{1} << f) + align(corr_units_)};
}

std::uint64_t MbmMultiplier::multiply(std::uint64_t a, std::uint64_t b) const {
  assert(num::fits(a, n_) && num::fits(b, n_));
  if (a == 0 || b == 0) return 0;

  const int w = n_ - 1;
  const int f = w - t_;
  const int ka = num::leading_one(a);
  const int kb = num::leading_one(b);
  const std::uint64_t xf = (((a ^ (std::uint64_t{1} << ka)) << (w - ka)) >> t_) | 1u;
  const std::uint64_t yf = (((b ^ (std::uint64_t{1} << kb)) << (w - kb)) >> t_) | 1u;

  const std::uint64_t fsum = xf + yf;
  const std::uint64_t c_of = fsum >> f;
  const std::uint64_t frac = fsum & num::mask(f);

  // Single correction constant, halved when the fraction sum carried —
  // identical application to REALM's s_ij (Eq. 13 with M = 1).
  const int q1 = q_ + 1;
  const std::uint64_t s_units =
      (c_of != 0) ? corr_units_ : (std::uint64_t{corr_units_} << 1);
  const std::uint64_t s_aligned =
      (f >= q1) ? (s_units << (f - q1)) : (s_units >> (q1 - f));

  const std::uint64_t significand = (std::uint64_t{1} << f) + frac + s_aligned;
  const int k_sum = ka + kb + static_cast<int>(c_of);
  if (k_sum >= f) return significand << (k_sum - f);
  return significand >> (f - k_sum);
}

std::string MbmMultiplier::name() const { return "MBM (t=" + std::to_string(t_) + ")"; }

}  // namespace realm::mult

template class realm::DatapathMultiplier<realm::mult::MbmDatapath>;
