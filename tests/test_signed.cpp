#include <gtest/gtest.h>

#include <vector>

#include "realm/hw/circuits.hpp"
#include "realm/hw/simulator.hpp"
#include "realm/multipliers/registry.hpp"
#include "realm/numeric/fixed_point.hpp"
#include "realm/numeric/rng.hpp"

using namespace realm;

TEST(SignedCircuit, MatchesTheBehavioralAdapter) {
  // The gate-level sign-magnitude wrapper against the library's signed
  // batch path over the same unsigned core.
  num::Xoshiro256 rng{4};
  for (const char* spec : {"accurate", "calm", "realm:m=8,t=4", "drum:k=6"}) {
    const auto core = mult::make_multiplier(spec, 16);
    const hw::Module mod = hw::build_signed_circuit(spec, 16);
    hw::Simulator sim{mod};
    const int out_bits = static_cast<int>(mod.outputs()[0].bus.size());
    std::vector<std::int64_t> a(2000), b(2000), want(2000);
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] = static_cast<std::int64_t>(rng.below(65536)) - 32768;
      b[i] = static_cast<std::int64_t>(rng.below(65536)) - 32768;
    }
    num::signed_mul_batch(a.data(), b.data(), want.data(), a.size(), *core);
    for (std::size_t i = 0; i < a.size(); ++i) {
      const std::uint64_t raw =
          sim.run({static_cast<std::uint64_t>(a[i]) & 0xFFFF,
                   static_cast<std::uint64_t>(b[i]) & 0xFFFF});
      // Two's-complement decode of the out_bits-wide product bus.
      std::int64_t got = static_cast<std::int64_t>(raw);
      if ((raw >> (out_bits - 1)) & 1u) {
        got -= std::int64_t{1} << out_bits;
      }
      ASSERT_EQ(got, want[i]) << spec << " a=" << a[i] << " b=" << b[i];
    }
  }
}
