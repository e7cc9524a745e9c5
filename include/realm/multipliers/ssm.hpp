// SSM / ESSM — static segment multipliers of Narayanamoorthy et al. [14].
//
// SSM(m) picks one of two static m-bit segments of each operand: the top
// segment [N-1 : N-m] whenever any of the upper bits is set, else the
// operand itself.  The m×m product is shifted back by the segment offsets.
// Dropping the low bits makes the error one-sided negative.
//
// ESSM(m) ("extended" SSM) adds a middle segment at offset (N-m)/2, halving
// the worst-case truncation; ESSM8 on 16-bit operands uses segments at
// offsets {8, 4, 0}.

#pragma once

#include "realm/datapath_multiplier.hpp"

namespace realm::mult {

/// SSM's (two segments) and ESSM's (three) half of the generated batched
/// kernels (realm/datapath_multiplier.hpp): an operand with a bit at or above
/// lo_cut takes the segment at off_mid, and with three segments one with a
/// bit at or above hi_cut takes the top segment at off_hi; otherwise the
/// operand is its own segment.  A zero operand selects the zero segment, so
/// the kernels need no zero blend.
template <bool kThreeWay>
struct StaticSegmentDatapath {
  static constexpr bool kZeroSafe = true;
  struct Row {
    std::uint64_t seg;  ///< fixed operand's segment
    std::uint64_t off;  ///< its offset
  };
  std::uint64_t lo_cut, off_mid;
  std::uint64_t hi_cut = 0, off_hi = 0;  ///< three-way only

  [[gnu::always_inline]] inline Row prepare(std::uint64_t a) const;
  [[gnu::always_inline]] inline std::uint64_t apply(const Row& row, std::uint64_t b) const;
  [[gnu::always_inline]] inline void segment(const Row& row, int kb, std::uint64_t b_first,
                                             std::uint64_t* __restrict out,
                                             std::size_t n) const;

 private:
  [[gnu::always_inline]] std::uint64_t offset(bool above_lo, bool above_hi) const {
    const std::uint64_t off = above_lo ? off_mid : 0;
    if constexpr (kThreeWay) return above_hi ? off_hi : off;
    return off;
  }
};

using SsmDatapath = StaticSegmentDatapath<false>;
using EssmDatapath = StaticSegmentDatapath<true>;

}  // namespace realm::mult

namespace realm {
extern template class DatapathMultiplier<mult::SsmDatapath>;
extern template class DatapathMultiplier<mult::EssmDatapath>;
}  // namespace realm

namespace realm::mult {

class SsmMultiplier final : public DatapathMultiplier<SsmDatapath> {
 public:
  /// n: operand width; m: segment width (m <= n).
  SsmMultiplier(int n, int m);

  [[nodiscard]] std::uint64_t multiply(std::uint64_t a, std::uint64_t b) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] int width() const override { return n_; }

 private:
  int n_;
  int m_;
};

class EssmMultiplier final : public DatapathMultiplier<EssmDatapath> {
 public:
  /// n: operand width; m: segment width; (n-m) must be even so the middle
  /// segment offset (n-m)/2 is integral.
  EssmMultiplier(int n, int m);

  [[nodiscard]] std::uint64_t multiply(std::uint64_t a, std::uint64_t b) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] int width() const override { return n_; }

 private:
  int n_;
  int m_;
};

}  // namespace realm::mult
