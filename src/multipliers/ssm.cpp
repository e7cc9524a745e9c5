#include "realm/multipliers/ssm.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "realm/numeric/bits.hpp"

namespace realm::mult {

template <bool kThreeWay>
auto StaticSegmentDatapath<kThreeWay>::prepare(std::uint64_t a) const -> Row {
  const std::uint64_t off = offset((a >> lo_cut) != 0, (a >> hi_cut) != 0);
  return {a >> off, off};
}

template <bool kThreeWay>
std::uint64_t StaticSegmentDatapath<kThreeWay>::apply(const Row& row, std::uint64_t b) const {
  const Row sb = prepare(b);
  return (row.seg * sb.seg) << (row.off + sb.off);
}

// Within one power-of-two interval the b-side segment offset is constant,
// so the loop is one multiply and one fixed shift.
template <bool kThreeWay>
void StaticSegmentDatapath<kThreeWay>::segment(const Row& row, int kb, std::uint64_t b_first,
                                               std::uint64_t* __restrict out,
                                               std::size_t n) const {
  const auto k = static_cast<std::uint64_t>(kb);
  const std::uint64_t off = offset(k >= lo_cut, k >= hi_cut);
  const std::uint64_t shift = row.off + off;
  for (std::size_t i = 0; i < n; ++i) out[i] = (row.seg * ((b_first + i) >> off)) << shift;
}

SsmMultiplier::SsmMultiplier(int n, int m) : n_{n}, m_{m} {
  if (n < 2 || n > 31) throw std::invalid_argument("SsmMultiplier: N in [2, 31]");
  if (m < 1 || m > n) throw std::invalid_argument("SsmMultiplier: m in [1, N]");
  dp_ = SsmDatapath{.lo_cut = static_cast<std::uint64_t>(m),
                    .off_mid = static_cast<std::uint64_t>(n - m)};
}

std::uint64_t SsmMultiplier::multiply(std::uint64_t a, std::uint64_t b) const {
  assert(num::fits(a, n_) && num::fits(b, n_));
  const int off = n_ - m_;
  const auto segment = [&](std::uint64_t v) -> std::pair<std::uint64_t, int> {
    if (v >> m_ != 0) return {v >> off, off};  // any upper bit set -> top segment
    return {v, 0};
  };
  const auto [sa, oa] = segment(a);
  const auto [sb, ob] = segment(b);
  return (sa * sb) << (oa + ob);
}

std::string SsmMultiplier::name() const { return "SSM (m=" + std::to_string(m_) + ")"; }

EssmMultiplier::EssmMultiplier(int n, int m) : n_{n}, m_{m} {
  if (n < 2 || n > 31) throw std::invalid_argument("EssmMultiplier: N in [2, 31]");
  if (m < 1 || m > n) throw std::invalid_argument("EssmMultiplier: m in [1, N]");
  if ((n - m) % 2 != 0) {
    throw std::invalid_argument("EssmMultiplier: N-m must be even");
  }
  const auto off_hi = static_cast<std::uint64_t>(n - m);
  dp_ = EssmDatapath{.lo_cut = static_cast<std::uint64_t>(m),
                     .off_mid = off_hi / 2,
                     .hi_cut = static_cast<std::uint64_t>(m) + off_hi / 2,
                     .off_hi = off_hi};
}

std::uint64_t EssmMultiplier::multiply(std::uint64_t a, std::uint64_t b) const {
  assert(num::fits(a, n_) && num::fits(b, n_));
  const int off_hi = n_ - m_;
  const int off_mid = off_hi / 2;
  const auto segment = [&](std::uint64_t v) -> std::pair<std::uint64_t, int> {
    if (v >> (m_ + off_mid) != 0) return {v >> off_hi, off_hi};
    if (v >> m_ != 0) return {v >> off_mid, off_mid};
    return {v, 0};
  };
  const auto [sa, oa] = segment(a);
  const auto [sb, ob] = segment(b);
  return (sa * sb) << (oa + ob);
}

std::string EssmMultiplier::name() const {
  return "ESSM" + std::to_string(m_) + " (m=" + std::to_string(m_) + ")";
}

}  // namespace realm::mult

template class realm::DatapathMultiplier<realm::mult::SsmDatapath>;
template class realm::DatapathMultiplier<realm::mult::EssmDatapath>;
