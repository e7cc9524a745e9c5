#include "realm/obs/counters.hpp"

namespace realm::obs {

namespace detail {

PaddedAtomic g_counters[kCounterCount];
PaddedAtomic g_gauges[kGaugeCount];

}  // namespace detail

void counters_reset() noexcept {
  for (auto& c : detail::g_counters) c.v.store(0, std::memory_order_relaxed);
}

}  // namespace realm::obs
