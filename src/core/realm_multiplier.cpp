#include "realm/core/realm_multiplier.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "realm/numeric/bits.hpp"

namespace realm::core {

// multiply() restructured branchless for the generated kernels: the
// normalize step uses (a << (w - ka)) ^ (1 << w) — the leading one always
// lands on bit w, so the clearing mask is loop-invariant instead of the
// variable 1 << ka — and the table holds the aligned c_of = 0 value, the
// c_of = 1 value being exactly one bit lower (Eq. 13's s_ij vs s_ij >> 1
// after alignment).

RealmDatapath::Row RealmDatapath::prepare(std::uint64_t a) const {
  const std::uint64_t ka = datapath::leading_one(a);
  const std::uint64_t xf = (((a << (w - ka)) ^ one_w) >> t) | 1u;
  return {xf, (xf >> sel_shift) << sel,
          static_cast<std::int64_t>(ka) - static_cast<std::int64_t>(f)};
}

std::uint64_t RealmDatapath::apply(const Row& row, std::uint64_t b) const {
  const std::uint64_t kb = datapath::leading_one(b);
  const std::uint64_t yf = (((b << (w - kb)) ^ one_w) >> t) | 1u;
  const std::uint64_t fsum = row.xf + yf;
  const std::uint64_t c_of = fsum >> f;
  const std::uint64_t s_aligned = lut[row.lut_off + (yf >> sel_shift)] >> c_of;
  const std::uint64_t significand = one_f + (fsum & fmask) + s_aligned;
  return datapath::shift(significand, row.dbase + static_cast<std::int64_t>(kb + c_of));
}

// With kb constant the LOD vanishes, the normalize shift is fixed, and the
// final barrel shift reduces to two constant (shl, shr) pairs selected by
// the fraction carry.  significand < 2^(f+2) and shl <= ka+kb+1-f keep both
// candidates below 2^63 (the 2N+1-bit result bus), so computing the untaken
// one is safe.
void RealmDatapath::segment(const Row& row, int kb, std::uint64_t b_first,
                            std::uint64_t* __restrict out, std::size_t n) const {
  const std::uint64_t norm_shift = w - static_cast<std::uint64_t>(kb);
  const auto [shl0, shr0] = datapath::shift_pair(row.dbase + kb);
  const auto [shl1, shr1] = datapath::shift_pair(row.dbase + kb + 1);
  const std::uint64_t* lut_row = lut + row.lut_off;
  if (sel_shift == 0) {
    // t at its maximum (f == select bits): the forced-1 fraction LSB feeds
    // the column index, so the index is not derivable from b alone — keep
    // the per-element LUT lookup.
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t yf = ((((b_first + i) << norm_shift) ^ one_w) >> t) | 1u;
      const std::uint64_t fsum = row.xf + yf;
      const std::uint64_t c_of = fsum >> f;  // 0 or 1: xf, yf < 2^f
      const std::uint64_t significand = one_f + (fsum & fmask) + (lut_row[yf] >> c_of);
      const std::uint64_t v0 = (significand << shl0) >> shr0;
      const std::uint64_t v1 = (significand << shl1) >> shr1;
      out[i] = (c_of != 0) ? v1 : v0;
    }
    return;
  }
  // The normalized offset u = (b << norm_shift) - 2^w is monotone in b, and
  // for sel_shift >= 1 the column index is j = u >> (w - sel) (the forced-1
  // LSB is below the select field).  Split the segment at the <= M column
  // boundaries: within each piece the LUT value is a scalar, both
  // carry-selected significand bases fold into constants, and the loop has
  // no memory access but the store.
  const std::uint64_t col_shift = w - sel;
  const std::uint64_t last = b_first + n - 1;
  for (std::uint64_t bs = b_first; bs <= last;) {
    const std::uint64_t j = ((bs << norm_shift) - one_w) >> col_shift;
    const std::uint64_t sub_last =
        std::min(last, (one_w + ((j + 1) << col_shift) - 1) >> norm_shift);
    const std::uint64_t base0 = one_f + lut_row[j];
    const std::uint64_t base1 = one_f + (lut_row[j] >> 1);
    std::uint64_t* sub_out = out + (bs - b_first);
    const auto len = static_cast<std::size_t>(sub_last - bs + 1);
    for (std::size_t i = 0; i < len; ++i) {
      const std::uint64_t yf = ((((bs + i) << norm_shift) ^ one_w) >> t) | 1u;
      const std::uint64_t fsum = row.xf + yf;
      const std::uint64_t frac = fsum & fmask;
      const std::uint64_t v0 = ((base0 + frac) << shl0) >> shr0;
      const std::uint64_t v1 = ((base1 + frac) << shl1) >> shr1;
      sub_out[i] = ((fsum >> f) != 0) ? v1 : v0;
    }
    bs = sub_last + 1;
  }
}

RealmMultiplier::RealmMultiplier(RealmConfig cfg) : cfg_{cfg} {
  // N is capped at 31 so the widest product (2N+1 bits, special case 1)
  // still fits the uint64_t result bus.
  if (cfg_.n < 2 || cfg_.n > 31) {
    throw std::invalid_argument("RealmMultiplier: N must be in [2, 31]");
  }
  if (cfg_.t < 0) throw std::invalid_argument("RealmMultiplier: t must be >= 0");
  lut_ = SegmentLut::shared(cfg_.m, cfg_.q, cfg_.formulation);
  // The kept fraction must still contain the log2(M) segment-select MSBs.
  if (cfg_.fraction_bits() < lut_->select_bits()) {
    throw std::invalid_argument(
        "RealmMultiplier: t too large — fraction no longer addresses the LUT");
  }

  // Pre-align the LUT for the kernels: entry = (s_ij << 1) shifted to
  // the f-bit fraction (the c_of = 0 addend); the c_of = 1 addend is
  // entry >> 1 exactly, in both the widening and narrowing direction.
  const int f = cfg_.fraction_bits();
  const int q1 = cfg_.q + 1;
  const auto& units = lut_->all_units();
  auto aligned = std::make_shared<std::vector<std::uint64_t>>(units.size());
  for (std::size_t i = 0; i < units.size(); ++i) {
    const std::uint64_t doubled = std::uint64_t{units[i]} << 1;
    (*aligned)[i] = f >= q1 ? (doubled << (f - q1)) : (doubled >> (q1 - f));
  }
  batch_lut_ = std::move(aligned);

  const auto w = static_cast<std::uint64_t>(cfg_.n - 1);
  const auto sel = static_cast<std::uint64_t>(lut_->select_bits());
  dp_ = RealmDatapath{.w = w,
                      .t = static_cast<std::uint64_t>(cfg_.t),
                      .f = static_cast<std::uint64_t>(f),
                      .fmask = num::mask(f),
                      .one_f = std::uint64_t{1} << f,
                      .one_w = std::uint64_t{1} << w,
                      .sel = sel,
                      .sel_shift = static_cast<std::uint64_t>(f) - sel,
                      .lut = batch_lut_->data()};
}

std::uint64_t RealmMultiplier::multiply(std::uint64_t a, std::uint64_t b) const {
  assert(num::fits(a, cfg_.n) && num::fits(b, cfg_.n));
  if (a == 0 || b == 0) return 0;  // zero-detect bypass (special-case logic)

  const int n = cfg_.n;
  const int w = n - 1;                 // full fraction width out of the shifters
  const int f = cfg_.fraction_bits();  // kept fraction width after truncation
  const int ka = num::leading_one(a);
  const int kb = num::leading_one(b);

  // Input barrel shifters: normalize the bits below the leading one into a
  // w-bit fraction, then truncate t LSBs and force the new LSB to 1.
  const std::uint64_t xf_full = (a ^ (std::uint64_t{1} << ka)) << (w - ka);
  const std::uint64_t yf_full = (b ^ (std::uint64_t{1} << kb)) << (w - kb);
  const std::uint64_t xf = (xf_full >> cfg_.t) | 1u;
  const std::uint64_t yf = (yf_full >> cfg_.t) | 1u;

  // Fraction adder: carry-out selects between s_ij and s_ij >> 1 (Eq. 13).
  const std::uint64_t fsum = xf + yf;
  const std::uint64_t c_of = fsum >> f;
  const std::uint64_t frac = fsum & num::mask(f);

  // LUT lookup: the log2(M) MSBs of each fraction identify the segment.
  const int sel = lut_->select_bits();
  const auto i = static_cast<int>(xf >> (f - sel));
  const auto j = static_cast<int>(yf >> (f - sel));

  // Work in 2^-(q+1) units so s_ij >> 1 is exact; align to the f-bit
  // fraction, dropping bits the datapath cannot hold (hardware drops them
  // the same way when f < q+1, which happens for large t).
  const int q1 = cfg_.q + 1;
  const std::uint64_t s_units = (c_of != 0) ? lut_->units(i, j)
                                            : (std::uint64_t{lut_->units(i, j)} << 1);
  const std::uint64_t s_aligned =
      (f >= q1) ? (s_units << (f - q1)) : (s_units >> (q1 - f));

  // Antilog significand per Eq. 13.  With c_of = 0 the value is
  // 2^(ka+kb) · (1 + x + y + s); with c_of = 1 it is
  // 2^(ka+kb+1) · (x + y + s/2) = 2^(ka+kb+1) · (1 + frac + s/2).  Either
  // way the significand word is (1.frac) + s_sel, carried out to f+2 bits —
  // the final barrel shifter moves the *whole* word, so a carry out of the
  // fraction needs no special decode.
  const std::uint64_t significand = (std::uint64_t{1} << f) + frac + s_aligned;
  const int k_sum = ka + kb + static_cast<int>(c_of);

  // Final barrel shifter.  k_sum < f drops fraction bits (the paper's
  // special case 2, which shapes peak error for small products); operands
  // near 2^N - 1 reach 2N+1 result bits (special case 1) — both reproduced
  // faithfully.
  if (k_sum >= f) return significand << (k_sum - f);
  return significand >> (f - k_sum);
}

std::uint64_t RealmMultiplier::multiply_saturated(std::uint64_t a, std::uint64_t b) const {
  return num::saturate(multiply(a, b), 2 * cfg_.n);
}

std::string RealmMultiplier::name() const {
  std::string s = "REALM" + std::to_string(cfg_.m) + " (t=" + std::to_string(cfg_.t) + ")";
  if (cfg_.formulation == Formulation::kMeanSquareError) s += " [MSE]";
  return s;
}

}  // namespace realm::core

template class realm::DatapathMultiplier<realm::core::RealmDatapath>;
