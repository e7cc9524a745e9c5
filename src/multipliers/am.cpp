#include "realm/multipliers/am.hpp"

#include <array>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "realm/numeric/bits.hpp"

namespace realm::mult {

std::uint64_t AmDatapath::apply(Row a, std::uint64_t b) const {
  std::array<std::uint64_t, kMaxRows> layer{};
  for (std::uint64_t i = 0; i < rows; ++i) {
    layer[i] = (a << i) & (std::uint64_t{0} - ((b >> i) & 1u));
  }
  std::uint64_t err_acc = 0;
  for (std::uint64_t len = rows; len > 1; len >>= 1) {
    for (std::uint64_t i = 0; i < len / 2; ++i) {
      const std::uint64_t x = layer[2 * i], y = layer[2 * i + 1];
      layer[i] = x ^ y;
      const std::uint64_t e = ((x & y) << 1) & recov_mask;
      err_acc = am1 ? err_acc + e : err_acc | e;
    }
  }
  return (layer[0] + err_acc) & out_mask;
}

void AmDatapath::segment(Row a, int /*kb*/, std::uint64_t b_first,
                         std::uint64_t* __restrict out, std::size_t n) const {
  for (std::size_t i = 0; i < n; ++i) out[i] = apply(a, b_first + i);
}

AmMultiplier::AmMultiplier(int n, int nb, AmVariant variant)
    : n_{n}, nb_{nb}, variant_{variant} {
  if (n < 2 || n > 31) throw std::invalid_argument("AmMultiplier: N in [2, 31]");
  if (nb < 0 || nb > 2 * n) throw std::invalid_argument("AmMultiplier: nb in [0, 2N]");
  dp_ = AmDatapath{.rows = std::bit_ceil(static_cast<std::uint64_t>(n)),
                   .recov_mask = num::mask(2 * n) & ~num::mask(2 * n - nb),
                   .out_mask = num::mask(2 * n),
                   .am1 = variant == AmVariant::kAm1};
}

std::uint64_t AmMultiplier::multiply(std::uint64_t a, std::uint64_t b) const {
  assert(num::fits(a, n_) && num::fits(b, n_));
  if (a == 0 || b == 0) return 0;

  // Partial-product rows at fixed positions — zero rows participate in the
  // pairing exactly as in the RTL's fixed reduction tree.
  std::array<std::uint64_t, AmDatapath::kMaxRows> layer{};
  for (int i = 0; i < n_; ++i) {
    layer[static_cast<std::size_t>(i)] = ((b >> i) & 1u) ? (a << i) : 0;
  }

  // Approximate reduction: each adder emits a carry-free sum x^y plus an
  // error vector (x&y)<<1 — the dropped carries at their true weight.  The
  // error network differs between the variants:
  //   AM1 accumulates the masked error vectors with exact adders,
  //   AM2 merges them with OR gates (cheaper, loses coincident carries).
  // Recovery is restricted to the nb most-significant product columns.
  // Each level pairs neighbours in place; an odd last row moves up as is.
  const int lo_cols = 2 * n_ - nb_;
  const std::uint64_t recov_mask = num::mask(2 * n_) & ~num::mask(lo_cols);
  std::uint64_t err_acc = 0;
  for (auto len = static_cast<std::size_t>(n_); len > 1; len = (len + 1) / 2) {
    for (std::size_t i = 0; i + 1 < len; i += 2) {
      const std::uint64_t x = layer[i], y = layer[i + 1];
      layer[i / 2] = x ^ y;
      const std::uint64_t e = ((x & y) << 1) & recov_mask;
      if (variant_ == AmVariant::kAm1) {
        err_acc += e;
      } else {
        err_acc |= e;
      }
    }
    if (len % 2 != 0) layer[len / 2] = layer[len - 1];
  }

  // The masked error vectors are a subset of the dropped carries, so the
  // recovered sum never exceeds the exact product.
  return (layer[0] + err_acc) & num::mask(2 * n_);
}

std::string AmMultiplier::name() const {
  return std::string{variant_ == AmVariant::kAm1 ? "AM1" : "AM2"} +
         " (nb=" + std::to_string(nb_) + ")";
}

}  // namespace realm::mult

template class realm::DatapathMultiplier<realm::mult::AmDatapath>;
