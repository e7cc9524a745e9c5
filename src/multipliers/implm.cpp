#include "realm/multipliers/implm.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "realm/numeric/bits.hpp"
#include "realm/numeric/int128.hpp"

namespace realm::mult {
namespace {

/// Nearest-one detector in a 64-bit lane: the leading one k, plus one when
/// bit k-1 is set.  Bit k-1 of v is bit k of v << 1, which is 0 for k = 0.
[[gnu::always_inline]] inline std::uint64_t nearest_one(std::uint64_t v) {
  const std::uint64_t k = datapath::leading_one(v);
  return k + (((v << 1) >> k) & 1u);
}

}  // namespace

ImplmDatapath::Row ImplmDatapath::prepare(std::uint64_t a) const {
  const std::uint64_t k = nearest_one(a);
  return {(a << w) >> k, static_cast<std::int64_t>(k) - static_cast<std::int64_t>(w)};
}

std::uint64_t ImplmDatapath::apply(const Row& row, std::uint64_t b) const {
  const std::uint64_t k = nearest_one(b);
  return datapath::shift(row.r + ((b << w) >> k) - one_w,
                         row.dbase + static_cast<std::int64_t>(k));
}

void ImplmDatapath::anchored_run(const Row& row, std::uint64_t k, std::uint64_t b_first,
                                 std::uint64_t* __restrict out, std::uint64_t n) const {
  const auto [shl, shr] = datapath::shift_pair(row.dbase + static_cast<std::int64_t>(k));
  const std::uint64_t base = row.r - one_w;
  for (std::uint64_t i = 0; i < n; ++i) {
    out[i] = ((base + (((b_first + i) << w) >> k)) << shl) >> shr;
  }
}

// Within [2^kb, 2^(kb+1)) the anchor is kb below 1.5 · 2^kb and kb + 1 from
// there on, so the segment splits into two runs with constant shifts.
void ImplmDatapath::segment(const Row& row, int kb, std::uint64_t b_first,
                            std::uint64_t* __restrict out, std::size_t n) const {
  const std::uint64_t end = b_first + n;
  const std::uint64_t upper = kb == 0 ? end : (std::uint64_t{3} << kb) >> 1;
  const std::uint64_t split = std::clamp(upper, b_first, end);
  const auto k = static_cast<std::uint64_t>(kb);
  anchored_run(row, k, b_first, out, split - b_first);
  anchored_run(row, k + 1, split, out + (split - b_first), end - split);
}

ImplmMultiplier::ImplmMultiplier(int n) : n_{n} {
  if (n < 2 || n > 30) throw std::invalid_argument("ImplmMultiplier: N in [2, 30]");
  const auto w = static_cast<std::uint64_t>(n - 1);
  dp_ = ImplmDatapath{.w = w, .one_w = std::uint64_t{1} << w};
}

std::uint64_t ImplmMultiplier::multiply(std::uint64_t a, std::uint64_t b) const {
  assert(num::fits(a, n_) && num::fits(b, n_));
  if (a == 0 || b == 0) return 0;

  // Signed fractions in Q(w) relative to the *nearest* power of two:
  // f = A/2^k_hat - 1 ∈ [-1/4, 1/2).
  const int w = n_ - 1;
  const auto frac_of = [w](std::uint64_t v) {
    const int k = num::nearest_one(v);
    // v·2^w / 2^k - 2^w, exact in 128-bit then narrowed (|f| < 2^w).
    const auto scaled = static_cast<num::int128>(v) << w;
    return std::pair{k, static_cast<std::int64_t>((scaled >> k) -
                                                  (static_cast<num::int128>(1) << w))};
  };
  const auto [ka, fa] = frac_of(a);
  const auto [kb, fb] = frac_of(b);

  // C~ = 2^(ka+kb) · (1 + fa + fb); the signed fraction sum lies in
  // [-1/2, 1), so the significand (1 + fa + fb) ∈ [1/2, 2) is always
  // positive and the final shift realizes it exactly.
  const std::int64_t significand = (std::int64_t{1} << w) + fa + fb;
  assert(significand > 0);
  const int k_sum = ka + kb;
  if (k_sum >= w) return static_cast<std::uint64_t>(significand) << (k_sum - w);
  return static_cast<std::uint64_t>(significand) >> (w - k_sum);
}

}  // namespace realm::mult

template class realm::DatapathMultiplier<realm::mult::ImplmDatapath>;
