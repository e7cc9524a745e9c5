// One datapath per multiplier family.
//
// Every batched entry point of every library design (REALM, cALM, ALM-SOA/
// MAA, ImpLM, IntALP, MBM, DRUM, SSM, ESSM, AM1/AM2, accurate) is generated
// here from three pieces the family writes once, as a plain value type
// `Datapath`:
//
//   Row      prepare(a)            the fixed operand's half of the datapath
//                                  (leading one, truncated fraction, LUT row,
//                                  shift base), branchless, for a != 0;
//   uint64_t apply(row, b)         the variable operand's half, the fraction
//                                  add and the final shift, branchless, for
//                                  b != 0;
//   void     segment(row, kb, b_first, out, n)
//                                  out[i] = apply(row, b_first + i) over a
//                                  column range whose leading one is the
//                                  constant kb, with kb-dependent shifts
//                                  hoisted out of the loop.
//
// prepare/apply/segment must be [[gnu::always_inline]]: the kernels below
// are compiled once per REALM_MULTIVERSION target, and a call that is not
// inlined runs the default-ISA code and stops the loop from vectorizing.
//
// DatapathMultiplier<Datapath> owns everything else, once for all families:
// the zero operands (a zero fixed operand short-circuits the row, a zero
// column is written directly, pairwise and row products run a zero operand
// through the datapath as 1 and blend the result to 0), the walk of a column
// range over its power-of-two intervals, and the multiversioned loops.  A
// family whose prepare(0) and apply(row, 0) already give the zero product
// may declare `static constexpr bool kZeroSafe = true` to drop the blends.
// Each family's scalar multiply() stays the readable reference the kernels
// are tested against.

#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>

#include "realm/multiplier.hpp"
#include "realm/numeric/bits.hpp"
#include "realm/numeric/simd.hpp"

namespace realm {
namespace datapath {

/// Leading-one position of a nonzero value, kept in a 64-bit lane so the
/// vectorizer sees one lane width (vplzcntq on the AVX-512 clone).
[[gnu::always_inline]] inline std::uint64_t leading_one(std::uint64_t v) noexcept {
  return 63u - static_cast<std::uint64_t>(std::countl_zero(v));
}

/// v · 2^d for a signed |d| < 64.  Both directions are computed at masked
/// (always in-range) amounts so the select if-converts to a blend; the
/// masking never changes the selected value.
[[gnu::always_inline]] inline std::uint64_t shift(std::uint64_t v, std::int64_t d) noexcept {
  const std::uint64_t shl = v << (static_cast<std::uint64_t>(d) & 63u);
  const std::uint64_t shr = v >> (static_cast<std::uint64_t>(-d) & 63u);
  return d >= 0 ? shl : shr;
}

/// A loop-invariant signed shift d as the pair applied `(v << shl) >> shr`.
struct ShiftPair {
  std::uint64_t shl, shr;
};

constexpr ShiftPair shift_pair(std::int64_t d) noexcept {
  return d >= 0 ? ShiftPair{static_cast<std::uint64_t>(d), 0}
                : ShiftPair{0, static_cast<std::uint64_t>(-d)};
}

template <class D>
inline constexpr bool kZeroSafe = requires { requires D::kZeroSafe; };

/// The operand fed to the datapath: zero runs through as 1 unless the
/// family is zero-safe.
template <class D>
[[gnu::always_inline]] inline std::uint64_t operand(std::uint64_t v) noexcept {
  if constexpr (kZeroSafe<D>) return v;
  return v | static_cast<std::uint64_t>(v == 0);
}

// The generated loops.  The datapath is passed by value so its constants
// are locals the compiler can keep in registers beside the restrict-
// qualified output; the zero blends are selects, so the loop bodies stay
// free of branches.

template <class D>
REALM_MULTIVERSION void pairwise_kernel(const D dp, const std::uint64_t* __restrict a,
                                        const std::uint64_t* __restrict b,
                                        std::uint64_t* __restrict out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t a0 = a[i];
    const std::uint64_t b0 = b[i];
    const std::uint64_t v = dp.apply(dp.prepare(operand<D>(a0)), operand<D>(b0));
    out[i] = (kZeroSafe<D> || ((a0 != 0) & (b0 != 0))) ? v : 0;
  }
}

template <class D>
REALM_MULTIVERSION void row_kernel(const D dp, const typename D::Row row,
                                   const std::uint64_t* __restrict b,
                                   std::uint64_t* __restrict out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t b0 = b[i];
    const std::uint64_t v = dp.apply(row, operand<D>(b0));
    out[i] = (kZeroSafe<D> || b0 != 0) ? v : 0;
  }
}

// Columns [b, b + n) with b >= 1, one segment per power-of-two interval
// [2^kb, 2^(kb+1)): within it the variable operand's leading one is kb.
template <class D>
REALM_MULTIVERSION void range_kernel(const D dp, const typename D::Row row, std::uint64_t b,
                                     std::uint64_t* __restrict out, std::size_t n) {
  const std::uint64_t last = b + n - 1;
  while (b <= last) {
    const int kb = num::leading_one(b);
    const std::uint64_t seg_last = std::min(last, (std::uint64_t{2} << kb) - 1);
    const auto len = static_cast<std::size_t>(seg_last - b + 1);
    dp.segment(row, kb, b, out, len);
    out += len;
    b = seg_last + 1;
  }
}

}  // namespace datapath

/// Multiplier whose three batched entry points are generated from the
/// family's `Datapath` (see the file comment).  The derived class supplies
/// multiply(), name() and width(), and fills dp_ in its constructor.
template <class Datapath>
class DatapathMultiplier : public Multiplier {
 public:
  void multiply_batch(const std::uint64_t* a, const std::uint64_t* b, std::uint64_t* out,
                      std::size_t n) const final;
  void multiply_row_batch(std::uint64_t a_fixed, const std::uint64_t* b, std::uint64_t* out,
                          std::size_t n) const final;
  void multiply_row_range(std::uint64_t a_fixed, std::uint64_t b0, std::uint64_t* out,
                          std::size_t n) const final;

 protected:
  Datapath dp_{};
};

template <class Datapath>
void DatapathMultiplier<Datapath>::multiply_batch(const std::uint64_t* a,
                                                  const std::uint64_t* b,
                                                  std::uint64_t* out, std::size_t n) const {
  datapath::pairwise_kernel(dp_, a, b, out, n);
}

template <class Datapath>
void DatapathMultiplier<Datapath>::multiply_row_batch(std::uint64_t a_fixed,
                                                      const std::uint64_t* b,
                                                      std::uint64_t* out, std::size_t n) const {
  assert(num::fits(a_fixed, width()));
  if (a_fixed == 0) {  // zero-detect bypass: the whole row is zero
    std::fill_n(out, n, std::uint64_t{0});
    return;
  }
  datapath::row_kernel(dp_, dp_.prepare(a_fixed), b, out, n);
}

template <class Datapath>
void DatapathMultiplier<Datapath>::multiply_row_range(std::uint64_t a_fixed, std::uint64_t b0,
                                                      std::uint64_t* out, std::size_t n) const {
  assert(num::fits(a_fixed, width()) && (n == 0 || num::fits(b0 + n - 1, width())));
  if (n == 0) return;
  if (a_fixed == 0) {
    std::fill_n(out, n, std::uint64_t{0});
    return;
  }
  if (b0 == 0) {  // the zero column
    *out++ = 0;
    if (--n == 0) return;
    b0 = 1;
  }
  datapath::range_kernel(dp_, dp_.prepare(a_fixed), b0, out, n);
}

}  // namespace realm
