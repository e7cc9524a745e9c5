// Layer-call pass (source C): the benchmark's own timing of public calls on
// a workload's inputs, away from the server.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench.hpp"
#include "realm/campaign/result_store.hpp"
#include "realm/hw/cost_model.hpp"
#include "realm/multiplier.hpp"
#include "realm/multipliers/registry.hpp"

namespace pb {
namespace {

constexpr int kWidth = 16;

/// ResultStore::get on random journal keys, one call every 50 us for
/// `seconds` (the pacing of the item-1 probe).  Returns per-call us.
Samples paced_gets(realm::campaign::ResultStore& s, const std::vector<std::string>& keys,
                   std::uint64_t seed, double seconds, Report& r) {
  Samples us;
  const auto period = std::chrono::microseconds(50);
  const auto start = Clock::now();
  auto next = start;
  for (std::uint64_t n = 0; seconds_between(start, Clock::now()) < seconds; ++n) {
    std::this_thread::sleep_until(next);
    const std::string& key = keys[mix64(seed + n) % keys.size()];
    const auto t0 = Clock::now();
    const bool hit = s.get(key).has_value();
    us.add(seconds_between(t0, Clock::now()) * 1e6);
    if (!hit) r.fail("store probe: journal key missing: " + key);
    next += period;
    if (next < Clock::now()) next = Clock::now();
  }
  return us;
}

}  // namespace

void probe_store(const std::string& journal, const std::vector<std::string>& keys,
                 const std::string& work, std::uint64_t seed, Report& r) {
  namespace cp = realm::campaign;
  const std::string path = work + "/probe.journal";
  std::vector<double> replay_s;
  for (int k = 0; k < 3; ++k) {
    copy_file(journal, path);
    const auto t0 = Clock::now();
    auto store = std::make_unique<cp::ResultStore>(path);
    replay_s.push_back(seconds_between(t0, Clock::now()));
  }
  r.layer("campaign.replay_s", median(replay_s), "s", replay_s.size(), "C");

  cp::ResultStore store{path};
  const Samples alone = paced_gets(store, keys, seed, 1.0, r);
  r.layer("campaign.get_us.alone.p50", alone.quantile(0.50), "us", alone.size(), "C");
  r.layer("campaign.get_us.alone.p99", alone.quantile(0.99), "us", alone.size(), "C");

  // The same reads while a second thread appends (put = write + fsync).
  const std::string payload = store.get(keys.front()).value_or("");
  std::atomic<bool> stop{false};
  Samples put_us;
  std::thread writer{[&] {
    for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      const std::string key =
          "perfbench-probe|" + std::to_string(seed) + "|" + std::to_string(i);
      const auto t0 = Clock::now();
      store.put(key, payload);
      put_us.add(seconds_between(t0, Clock::now()) * 1e6);
    }
  }};
  const Samples beside = paced_gets(store, keys, seed ^ 0x70757473u, 1.0, r);
  stop.store(true);
  writer.join();
  r.layer("campaign.get_us.beside_put.p50", beside.quantile(0.50), "us", beside.size(),
          "C");
  r.layer("campaign.get_us.beside_put.p99", beside.quantile(0.99), "us", beside.size(),
          "C");
  r.layer("campaign.put_us", put_us.quantile(0.50), "us", put_us.size(), "C");
}

void probe_cost_model(const std::vector<std::string>& specs, std::uint32_t cycles,
                      Report& r) {
  realm::hw::StimulusProfile profile;
  profile.cycles = cycles;
  std::vector<double> calibrate_ms;
  Samples cost_ms;
  for (int k = 0; k < 3; ++k) {
    const auto t0 = Clock::now();
    realm::hw::CostModel cm{kWidth, profile};
    calibrate_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    for (const auto& spec : specs) {
      const auto t1 = Clock::now();
      (void)cm.cost(spec);
      cost_ms.add(seconds_between(t1, Clock::now()) * 1e3);
    }
  }
  r.layer("hw.calibrate_ms", median(calibrate_ms), "ms", calibrate_ms.size(), "C");
  r.layer("hw.design_cost_ms", cost_ms.mean(), "ms", cost_ms.size(), "C");
}

void probe_row_products(const std::string& realm_spec, std::uint64_t seed, Report& r) {
  constexpr std::size_t kRow = 4096;
  constexpr std::uint64_t kMask = (std::uint64_t{1} << kWidth) - 1;
  std::vector<std::uint64_t> b(kRow), out(kRow);
  for (std::size_t i = 0; i < kRow; ++i) b[i] = mix64(seed + i) & kMask;
  const std::pair<const char*, std::string> designs[] = {{"realm", realm_spec},
                                                         {"implm", "implm"}};
  for (const auto& [name, spec] : designs) {
    const auto m = realm::mult::make_multiplier(spec, kWidth);
    std::vector<double> rates;
    for (int rep = 0; rep < 3; ++rep) {
      std::uint64_t products = 0;
      const auto t0 = Clock::now();
      double elapsed = 0.0;
      for (std::uint64_t row = 0; elapsed < 0.2; ++row) {
        m->multiply_row_batch(mix64(seed ^ row) & kMask, b.data(), out.data(), kRow);
        products += kRow;
        elapsed = seconds_between(t0, Clock::now());
      }
      rates.push_back(static_cast<double>(products) / elapsed);
    }
    r.layer(std::string{"mult.row_products_per_s."} + name, median(rates), "1/s",
            rates.size(), "C");
  }
}

}  // namespace pb
