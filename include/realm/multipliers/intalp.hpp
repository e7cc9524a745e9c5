// IntALP — integer version of ApproxLP [11], built for comparison exactly as
// the REALM paper describes (§II, §IV-A): compute the characteristic and
// fractional parts of the integer inputs, apply a linear-plane approximation
// to the product of the mantissas (1+x)(1+y) = 1 + x + y + xy, and scale by
// the sum of the characteristics.
//
// Level 1 approximates the bilinear term xy by one plane per side of the
// x+y = 1 comparator, each chosen as the *tight upper* plane (touching xy at
// the region's tangent point), which makes the error one-sided positive with
// a +12.5 % peak — the IntALP (L=1) row of Table I.
//
// Level 2 adds a least-squares plane correction of the level-1 residual per
// (x, y) MSB quadrant; the coefficients are derived at construction by the
// numeric substrate and quantized, making the error double-sided and small
// at the cost of wider selection/mux logic (why its resource gain is poor).

#pragma once

#include <array>
#include <cstdint>

#include "realm/datapath_multiplier.hpp"

namespace realm::mult {

/// IntALP's half of the generated batched kernels
/// (realm/datapath_multiplier.hpp).  The level-1 comparator is a select; the
/// level-2 correction (ax·x + ay·y + c) >> kCoeffBits takes its plane from
/// the (x, y) MSB quadrant, so prepare() folds the fixed operand's x half
/// into one constant per y quadrant and apply() picks between the two.  The
/// plane constant is stored pre-scaled by 2^w, so no datapath multiplies it.
/// At level 1 every coefficient is zero and the correction vanishes.  The
/// significand stays below 4 · 2^w, so a 64-bit lane holds every value.
struct IntAlpDatapath {
  static constexpr int kCoeffBits = 10;  ///< Q format of the plane coefficients
  struct Plane {
    std::int64_t ax, ay;  ///< Q(kCoeffBits) fixed-point slopes
    std::int64_t cw;      ///< the Q(kCoeffBits) constant times 2^w
  };
  struct Row {
    std::uint64_t xf;               ///< fixed operand's fraction in Q(w)
    std::int64_t dbase;             ///< ka - w
    std::int64_t base_lo, base_hi;  ///< ax·x + cw for y's MSB clear / set
    std::int64_t ay_lo, ay_hi;      ///< ay for y's MSB clear / set
  };
  std::uint64_t w, one_w;
  std::array<Plane, 4> planes{};  ///< level-2 residual planes, indexed qx * 2 + qy;
                                  ///< all zero at level 1

  [[gnu::always_inline]] inline Row prepare(std::uint64_t a) const;
  [[gnu::always_inline]] inline std::uint64_t apply(const Row& row, std::uint64_t b) const;
  [[gnu::always_inline]] inline void segment(const Row& row, int kb, std::uint64_t b_first,
                                             std::uint64_t* __restrict out,
                                             std::size_t n) const;

 private:
  /// 2^w (1 + x + y + p): the significand before the final shift.
  [[gnu::always_inline]] inline std::uint64_t significand(const Row& row,
                                                          std::uint64_t yf) const;
};

}  // namespace realm::mult

namespace realm {
extern template class DatapathMultiplier<mult::IntAlpDatapath>;
}  // namespace realm

namespace realm::mult {

class IntAlpMultiplier final : public DatapathMultiplier<IntAlpDatapath> {
 public:
  /// n: operand width; level: 1 or 2 approximation levels.
  IntAlpMultiplier(int n, int level);

  [[nodiscard]] std::uint64_t multiply(std::uint64_t a, std::uint64_t b) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] int width() const override { return n_; }

 private:
  using Plane = IntAlpDatapath::Plane;
  static constexpr int kCoeffBits = IntAlpDatapath::kCoeffBits;

  int n_;
  int level_;
};

}  // namespace realm::mult
