#include <stdexcept>

#include "realm/hw/circuits.hpp"

namespace realm::hw {

Module build_circuit(const mult::DesignSpec& spec, int n) {
  Module m = build_circuit_unpruned(spec, n);
  m.prune();
  return m;
}

Module build_circuit(const std::string& spec, int n) {
  return build_circuit(mult::DesignSpec::parse(spec), n);
}

Module build_circuit_unpruned(const mult::DesignSpec& s, int n) {
  using mult::Design;
  LogMultOptions o;
  o.n = n;
  switch (s.design) {
    case Design::kAccurate: return build_accurate(n);
    case Design::kCalm:
      o.t = s.t;
      o.fraction_adder = static_cast<AdderArch>(s.adder);
      return build_log_multiplier(o);
    case Design::kMbm:
      o.t = s.t;
      o.q = s.q;
      o.forced_one = true;
      o.mbm_correction = true;
      return build_log_multiplier(o);
    case Design::kAlmSoa:
    case Design::kAlmMaa:
      o.approx_adder_bits = s.m;
      o.approx_adder = s.design == Design::kAlmSoa ? mult::AlmAdder::kSetOne
                                                   : mult::AlmAdder::kLowerOr;
      return build_log_multiplier(o);
    case Design::kRealm: return build_realm(mult::realm_config(s, n));
    case Design::kImplm: return build_implm(n);
    case Design::kDrum: return build_drum(n, s.k);
    case Design::kSsm: return build_ssm(n, s.m);
    case Design::kEssm: return build_essm(n, s.m);
    case Design::kAm1: return build_am(n, s.nb, mult::AmVariant::kAm1);
    case Design::kAm2: return build_am(n, s.nb, mult::AmVariant::kAm2);
    case Design::kIntalp: return build_intalp(n, s.l);
  }
  throw std::invalid_argument("build_circuit: invalid design enum");
}

}  // namespace realm::hw
