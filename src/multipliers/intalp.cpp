#include "realm/multipliers/intalp.hpp"

#include <array>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "realm/numeric/bits.hpp"
#include "realm/numeric/int128.hpp"
#include "realm/numeric/quadrature.hpp"

namespace realm::mult {
namespace {

// Level-1 plane approximation of xy: tight upper planes per x+y comparator
// side, P1 = (x+y)/4 below the diagonal and (3(x+y) - 2)/4 above it.
double level1_plane(double x, double y) {
  const double s = x + y;
  return s < 1.0 ? 0.25 * s : 0.25 * (3.0 * s - 2.0);
}

// Least-squares plane fit of f over [x0,x1]×[y0,y1] via the 3×3 normal
// equations, solved with Cramer's rule.
std::array<double, 3> fit_plane(const num::Fn2& f, double x0, double x1, double y0,
                                double y1) {
  const auto I = [&](const num::Fn2& g) {
    return num::integrate2d(g, x0, x1, y0, y1, 1e-10);
  };
  const double sxx = I([](double x, double) { return x * x; });
  const double sxy = I([](double x, double y) { return x * y; });
  const double sx = I([](double x, double) { return x; });
  const double syy = I([](double, double y) { return y * y; });
  const double sy = I([](double, double y) { return y; });
  const double s1 = I([](double, double) { return 1.0; });
  const double rx = I([&](double x, double y) { return f(x, y) * x; });
  const double ry = I([&](double x, double y) { return f(x, y) * y; });
  const double r1 = I(f);

  const auto det3 = [](double a, double b, double c, double d, double e, double g,
                       double h, double i, double j) {
    return a * (e * j - g * i) - b * (d * j - g * h) + c * (d * i - e * h);
  };
  const double det = det3(sxx, sxy, sx, sxy, syy, sy, sx, sy, s1);
  const double da = det3(rx, sxy, sx, ry, syy, sy, r1, sy, s1);
  const double db = det3(sxx, rx, sx, sxy, ry, sy, sx, r1, s1);
  const double dc = det3(sxx, sxy, rx, sxy, syy, ry, sx, sy, r1);
  return {da / det, db / det, dc / det};
}

}  // namespace

// multiply() in 64-bit lanes: xf = (a << (w - ka)) ^ 2^w as in cALM, the
// quadrant bit is the fraction MSB, and the comparator and quadrant lookups
// are selects.

IntAlpDatapath::Row IntAlpDatapath::prepare(std::uint64_t a) const {
  const std::uint64_t ka = datapath::leading_one(a);
  const std::uint64_t xf = (a << (w - ka)) ^ one_w;
  const bool qx = ((xf >> (w - 1)) & 1u) != 0;
  const auto x = static_cast<std::int64_t>(xf);
  const auto one = static_cast<std::int64_t>(one_w);
  // Field-wise selects: selecting a Plane reference would become a gather.
  return {xf,
          static_cast<std::int64_t>(ka) - static_cast<std::int64_t>(w),
          (qx ? planes[2].ax : planes[0].ax) * x + (qx ? planes[2].c : planes[0].c) * one,
          (qx ? planes[3].ax : planes[1].ax) * x + (qx ? planes[3].c : planes[1].c) * one,
          qx ? planes[2].ay : planes[0].ay,
          qx ? planes[3].ay : planes[1].ay};
}

std::uint64_t IntAlpDatapath::significand(const Row& row, std::uint64_t yf) const {
  const std::uint64_t s = row.xf + yf;
  const std::uint64_t p = (s < one_w) ? (s >> 2) : ((3 * s - 2 * one_w) >> 2);
  const bool qy = ((yf >> (w - 1)) & 1u) != 0;
  const std::int64_t corr =
      ((qy ? row.base_hi : row.base_lo) + (qy ? row.ay_hi : row.ay_lo) *
                                              static_cast<std::int64_t>(yf)) >>
      kCoeffBits;
  return one_w + s + p + static_cast<std::uint64_t>(corr);
}

std::uint64_t IntAlpDatapath::apply(const Row& row, std::uint64_t b) const {
  const std::uint64_t kb = datapath::leading_one(b);
  return datapath::shift(significand(row, (b << (w - kb)) ^ one_w),
                         row.dbase + static_cast<std::int64_t>(kb));
}

// Constant kb: a fixed normalize shift and a fixed final shift.
void IntAlpDatapath::segment(const Row& row, int kb, std::uint64_t b_first,
                             std::uint64_t* __restrict out, std::size_t n) const {
  const std::uint64_t norm_shift = w - static_cast<std::uint64_t>(kb);
  const auto [shl, shr] = datapath::shift_pair(row.dbase + kb);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = (significand(row, ((b_first + i) << norm_shift) ^ one_w) << shl) >> shr;
  }
}

IntAlpMultiplier::IntAlpMultiplier(int n, int level) : n_{n}, level_{level} {
  if (n < 3 || n > 24) throw std::invalid_argument("IntAlpMultiplier: N in [3, 24]");
  if (level != 1 && level != 2) throw std::invalid_argument("IntAlpMultiplier: level 1 or 2");
  const auto w = static_cast<std::uint64_t>(n - 1);
  dp_ = IntAlpDatapath{.w = w, .one_w = std::uint64_t{1} << w};
  if (level_ == 2) {
    // Residual of level 1, fitted per (x, y) MSB quadrant and quantized.
    // The residual is symmetric in (x, y), so the off-diagonal quadrant
    // reuses the mirrored coefficients — this keeps the quantized design
    // commutative (independent rounding could differ by an LSB).
    const auto residual = [](double x, double y) { return x * y - level1_plane(x, y); };
    const double scale = std::ldexp(1.0, kCoeffBits);
    for (int qx = 0; qx < 2; ++qx) {
      for (int qy = 0; qy <= qx; ++qy) {
        const auto p = fit_plane(residual, 0.5 * qx, 0.5 * (qx + 1), 0.5 * qy,
                                 0.5 * (qy + 1));
        const Plane plane{static_cast<std::int64_t>(std::lround(p[0] * scale)),
                          static_cast<std::int64_t>(std::lround(p[1] * scale)),
                          static_cast<std::int64_t>(std::lround(p[2] * scale))};
        dp_.planes[static_cast<std::size_t>(qx * 2 + qy)] = plane;
        dp_.planes[static_cast<std::size_t>(qy * 2 + qx)] = {plane.ay, plane.ax, plane.c};
      }
    }
  }
}

std::uint64_t IntAlpMultiplier::multiply(std::uint64_t a, std::uint64_t b) const {
  assert(num::fits(a, n_) && num::fits(b, n_));
  if (a == 0 || b == 0) return 0;

  const int w = n_ - 1;
  const int ka = num::leading_one(a);
  const int kb = num::leading_one(b);
  const std::int64_t xf =
      static_cast<std::int64_t>((a ^ (std::uint64_t{1} << ka)) << (w - ka));
  const std::int64_t yf =
      static_cast<std::int64_t>((b ^ (std::uint64_t{1} << kb)) << (w - kb));

  // Level-1 plane, evaluated in Q(w): the comparator is the fraction-sum MSB.
  const std::int64_t s = xf + yf;
  const std::int64_t one = std::int64_t{1} << w;
  std::int64_t p = (s < one) ? (s >> 2) : ((3 * s - 2 * one) >> 2);

  if (level_ == 2) {
    const auto qx = static_cast<int>((xf >> (w - 1)) & 1);
    const auto qy = static_cast<int>((yf >> (w - 1)) & 1);
    const Plane& pl = dp_.planes[static_cast<std::size_t>(qx * 2 + qy)];
    p += (pl.ax * xf + pl.ay * yf + pl.c * one) >> kCoeffBits;
  }

  // C~ = 2^(ka+kb) · (1 + x + y + p).  The significand stays positive
  // (level-2 corrections are tiny relative to 1), widest value < 4·2^w.
  const std::int64_t significand = one + s + p;
  assert(significand > 0);
  const int k_sum = ka + kb;
  const auto sig128 = static_cast<num::uint128>(significand);
  if (k_sum >= w) return static_cast<std::uint64_t>(sig128 << (k_sum - w));
  return static_cast<std::uint64_t>(sig128 >> (w - k_sum));
}

std::string IntAlpMultiplier::name() const {
  return "IntALP (L=" + std::to_string(level_) + ")";
}

}  // namespace realm::mult

template class realm::DatapathMultiplier<realm::mult::IntAlpDatapath>;
