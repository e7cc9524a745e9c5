#include "realm/obs/histogram.hpp"

#include <cmath>

namespace realm::obs {

namespace detail {

AtomicHistogram g_value_hists[kValueHistCount];

}  // namespace detail

std::uint64_t HistogramSnapshot::percentile(double q) const noexcept {
  if (count == 0) return 0;
  if (q <= 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Nearest-rank: the k-th smallest sample, k = ceil(q * count), k >= 1.
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  const std::uint64_t k = rank == 0 ? 1 : rank;
  std::uint64_t seen = 0;
  for (unsigned i = 0; i < kHistogramBuckets; ++i) {
    seen += buckets[i];
    if (seen >= k) {
      // The k-th smallest lies in bucket i; its inclusive upper edge
      // (clamped into the exactly-tracked [min, max]) upper-bounds it
      // within one log2 bucket.
      std::uint64_t est = histogram_bucket_upper(i);
      if (est > max) est = max;  // max shares the sample's bucket or a later one
      return est;
    }
  }
  return max;  // unreachable when bucket counts are consistent with count
}

void value_hist_reset() noexcept {
  for (auto& h : detail::g_value_hists) h.reset();
}

}  // namespace realm::obs
