// IntALP gate-level model: log extraction, the x+y comparator, the level-1
// upper planes (pure shift/add), and for level 2 four per-quadrant
// constant-coefficient plane evaluators plus a result mux — the wide
// selection/correction logic that makes IntALP's area savings poor
// (Table I: 17.8 % for L=2).

#include <stdexcept>

#include "log_common.hpp"
#include "realm/hw/circuits.hpp"
#include "realm/hw/components.hpp"
#include "realm/multipliers/intalp.hpp"
#include "realm/numeric/bits.hpp"

namespace realm::hw {
namespace {

Bus sext(const Bus& in, int width) {
  Bus out(static_cast<std::size_t>(width), in.empty() ? kConst0 : in.back());
  for (std::size_t i = 0; i < in.size() && i < out.size(); ++i) out[i] = in[i];
  return out;
}

// v (unsigned) times a signed integer constant, two's complement, W bits.
Bus const_mul_signed(Module& m, const Bus& v, long long coeff, int width) {
  Bus acc = m.constant(0, width);
  unsigned long long mag = static_cast<unsigned long long>(coeff < 0 ? -coeff : coeff);
  for (int bit = 0; mag >> bit != 0; ++bit) {
    if ((mag >> bit) & 1u) {
      Bus shifted(static_cast<std::size_t>(width), kConst0);
      for (std::size_t i = 0; i + static_cast<std::size_t>(bit) <
                              static_cast<std::size_t>(width) && i < v.size(); ++i) {
        shifted[i + static_cast<std::size_t>(bit)] = v[i];
      }
      acc = ripple_add(m, acc, shifted).sum;
    }
  }
  if (coeff < 0) acc = ripple_sub(m, m.constant(0, width), acc).diff;
  return acc;
}

}  // namespace

Module build_intalp(int n, int level) {
  if (n < 3 || n > 24) throw std::invalid_argument("build_intalp: N in [3, 24]");
  if (level != 1 && level != 2) throw std::invalid_argument("build_intalp: level 1 or 2");
  constexpr int kCoeffBits = mult::IntAlpDatapath::kCoeffBits;

  Module m{"intalp" + std::to_string(n) + "_l" + std::to_string(level)};
  const Bus a = m.add_input("a", n);
  const Bus b = m.add_input("b", n);
  const int w = n - 1;

  const auto oa = detail::log_extract(m, a, 0, false);
  const auto ob = detail::log_extract(m, b, 0, false);

  // s = x + y in Q(w), w+1 bits; the comparator x+y >= 1 is the carry bit.
  const auto sadd = ripple_add(m, oa.frac, ob.frac);
  const Bus s = concat(sadd.sum, Bus{sadd.carry});
  const NetId cmp = sadd.carry;

  // Level-1 planes: s/4 below the diagonal, (3s - 2)/4 above.
  const int sw = w + 3;
  const Bus s_ext = resize(s, sw);
  const Bus s3 = ripple_add(m, s_ext, concat(Bus{kConst0}, resize(s, sw - 1))).sum;
  const Bus s3m2 = ripple_sub(m, s3, m.constant(std::uint64_t{1} << (w + 1), sw)).diff;
  const Bus p_lo = resize(slice(s_ext, sw - 1, 2), sw);   // s >> 2
  const Bus p_hi = resize(slice(s3m2, sw - 1, 2), sw);    // (3s - 2) >> 2
  Bus p1 = mux_bus(m, cmp, p_lo, p_hi);

  // significand = 2^w + s + p1 (+ level-2 residual plane), two's complement.
  Bus sig = ripple_add(m, resize(s, sw), m.constant(std::uint64_t{1} << w, sw)).sum;
  sig = ripple_add(m, sig, p1).sum;

  if (level == 2) {
    // The behavioral model's quantized planes, so the two cannot drift.
    const mult::IntAlpMultiplier model{n, level};
    const auto& planes = model.planes();
    const int pw = w + kCoeffBits + 3;
    std::array<Bus, 4> evals;
    for (std::size_t qi = 0; qi < 4; ++qi) {
      Bus e = const_mul_signed(m, oa.frac, planes[qi].ax, pw);
      e = ripple_add(m, e, const_mul_signed(m, ob.frac, planes[qi].ay, pw)).sum;
      // cw = c · 2^w is a hardwired constant (two's complement, mod 2^pw).
      const auto cterm_val = static_cast<std::uint64_t>(planes[qi].cw) & num::mask(pw);
      e = ripple_add(m, e, m.constant(cterm_val, pw)).sum;
      evals[qi] = std::move(e);
    }
    // Quadrant select: MSBs of the fractions; address qx*2 + qy.
    const NetId qx = oa.frac[static_cast<std::size_t>(w - 1)];
    const NetId qy = ob.frac[static_cast<std::size_t>(w - 1)];
    Bus sel_y0 = mux_bus(m, qx, evals[0], evals[2]);
    Bus sel_y1 = mux_bus(m, qx, evals[1], evals[3]);
    Bus plane = mux_bus(m, qy, sel_y0, sel_y1);
    // Arithmetic >> kCoeffBits, then add into the significand.
    const Bus p2 = sext(slice(plane, pw - 1, kCoeffBits), sw);
    sig = ripple_add(m, sig, p2).sum;
  }

  const auto kadd = ripple_add(m, oa.k, ob.k);
  const Bus ksum = concat(kadd.sum, Bus{kadd.carry});
  Bus p = detail::final_scale(m, resize(sig, w + 2), ksum, w, 2 * n);
  const NetId valid = m.nor2(oa.zero, ob.zero);
  m.add_output("p", detail::gate_bus(m, p, valid));
  return m;
}

}  // namespace realm::hw
