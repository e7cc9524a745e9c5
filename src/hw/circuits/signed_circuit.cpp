// Signed (two's-complement) wrapper circuit: sign-magnitude front/back end
// around any unsigned core design, per the DRUM scheme the paper references
// for signed handling (§III-C).

#include <stdexcept>

#include "realm/hw/circuits.hpp"
#include "realm/hw/components.hpp"

namespace realm::hw {

Module build_signed_circuit(const std::string& spec, int n) {
  Module core = build_circuit_unpruned(mult::DesignSpec::parse(spec), n);
  Module m{"signed_" + core.name()};
  const Bus a = m.add_input("a", n);
  const Bus b = m.add_input("b", n);

  const NetId sign_a = a[static_cast<std::size_t>(n - 1)];
  const NetId sign_b = b[static_cast<std::size_t>(n - 1)];
  const Bus mag_a = conditional_negate(m, a, sign_a);
  const Bus mag_b = conditional_negate(m, b, sign_b);

  auto outs = m.instantiate(core, {mag_a, mag_b});
  if (outs.size() != 1) throw std::logic_error("signed wrapper: core must have one output");

  // One extra bit so the negated magnitude-product is a valid two's
  // complement value even at the core's widest output.
  Bus p = resize(outs[0], static_cast<int>(outs[0].size()) + 1);
  p = conditional_negate(m, p, m.xor2(sign_a, sign_b));
  m.add_output("p", p);
  m.prune();
  return m;
}

}  // namespace realm::hw
