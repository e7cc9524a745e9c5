// End-to-end flows across subsystem boundaries: the kinds of pipelines a
// downstream user actually runs, exercised as single tests.

#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "oracle/oracle.hpp"
#include "realm/core/error_analysis.hpp"
#include "realm/error/render.hpp"
#include "realm/numeric/fixed_point.hpp"
#include "realm/numeric/rng.hpp"
#include "realm/realm.hpp"

using namespace realm;

TEST(Integration, SweepProducesParseableCsv) {
  dse::SweepOptions opts;
  opts.monte_carlo.samples = 1 << 14;
  opts.stimulus.cycles = 100;
  const auto points = dse::run_sweep({"calm", "realm:m=4,t=0"}, opts);

  std::stringstream csv;
  csv << dse::design_points_csv_header() << '\n';
  for (const auto& p : points) csv << p.to_csv_row() << '\n';

  // Every row splits into the same column count as the header, and the spec
  // column round-trips through the registry.
  std::string line;
  std::getline(csv, line);
  const auto columns = [](const std::string& s) {
    return 1 + std::count(s.begin(), s.end(), ',');
  };
  const auto expected = columns(line);
  int rows = 0;
  while (std::getline(csv, line)) {
    EXPECT_EQ(columns(line), expected) << line;
    const std::string spec = line.substr(0, line.find(','));
    EXPECT_NO_THROW((void)mult::make_multiplier(spec, 16)) << spec;
    ++rows;
  }
  EXPECT_EQ(rows, 2);
}

TEST(Integration, VerilogArtifactsAreConsistentWithTheModel) {
  // Export, then re-derive expected outputs from the behavioral model and
  // confirm the testbench embeds exactly those numbers.
  const std::string spec = "realm:m=4,t=3";
  const auto model = mult::make_multiplier(spec, 16);
  hw::Module mod = hw::build_circuit(spec, 16);
  const std::string tb = hw::to_verilog_testbench(mod, 32, 99);

  // Extract "a = 16'dX; b = 16'dY; check(64'dZ);" triples and verify
  // Z == model(X, Y).
  std::stringstream ss{tb};
  std::string line;
  int checked = 0;
  while (std::getline(ss, line)) {
    const auto ap = line.find("a = 16'd");
    const auto bp = line.find("b = 16'd");
    const auto cp = line.find("check(64'd");
    if (ap == std::string::npos || bp == std::string::npos || cp == std::string::npos) {
      continue;
    }
    const std::uint64_t a = std::stoull(line.substr(ap + 8));
    const std::uint64_t b = std::stoull(line.substr(bp + 8));
    const std::uint64_t z = std::stoull(line.substr(cp + 10));
    ASSERT_EQ(z, model->multiply(a, b));
    ++checked;
  }
  EXPECT_EQ(checked, 32);
}

TEST(Integration, JpegFileRoundTripThroughDisk) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto in_path = dir / "realm_integration_in.pgm";
  const auto out_path = dir / "realm_integration_out.pgm";

  const jpeg::Image img = jpeg::synthetic_livingroom(64);
  jpeg::write_pgm(img, in_path.string());

  const jpeg::Image loaded = jpeg::read_pgm(in_path.string());
  const auto mul = mult::make_multiplier("realm:m=16,t=8", 16);
  jpeg::CodecOptions opts;
  opts.mul = mul.get();
  const jpeg::Image rec = jpeg::roundtrip(loaded, opts);
  jpeg::write_pgm(rec, out_path.string());

  const jpeg::Image back = jpeg::read_pgm(out_path.string());
  EXPECT_EQ(back.pixels(), rec.pixels());
  EXPECT_GT(jpeg::psnr(img, back), 28.0);
  std::filesystem::remove(in_path);
  std::filesystem::remove(out_path);
}

TEST(Integration, CostModelAndTimingAgreeOnWhoIsSmallAndFast) {
  hw::StimulusProfile prof;
  prof.cycles = 150;
  hw::CostModel cm{16, prof};
  // SSM8 is among the smallest designs; it must beat the accurate reference
  // on every axis the library reports.
  EXPECT_LT(cm.cost("ssm:m=8").area_um2, cm.accurate().area_um2);
  EXPECT_LT(cm.cost("ssm:m=8").power_uw, cm.accurate().power_uw);
  EXPECT_LT(hw::analyze_timing(hw::build_circuit("ssm:m=8", 16)).critical_path_ps,
            hw::analyze_timing(hw::build_circuit("accurate", 16)).critical_path_ps);
}

TEST(Integration, SignedFlowFixedPointDctMatchesAdapterSemantics) {
  // The application datapath's sign handling (num::signed_mul_batch) must
  // be sign-magnitude over the same core: one unsigned product of the
  // magnitudes, negated when the signs differ.
  const auto core_mul = mult::make_multiplier("realm:m=8,t=4", 16);
  num::Xoshiro256 rng{0x516};
  std::vector<std::int64_t> a(20000), b(20000), out(20000);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<std::int64_t>(rng.below(4000)) - 2000;
    b[i] = static_cast<std::int64_t>(rng.below(4000)) - 2000;
  }
  num::signed_mul_batch(a.data(), b.data(), out.data(), a.size(), *core_mul);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(out[i], oracle::signed_mul(a[i], b[i], *core_mul))
        << a[i] << " * " << b[i];
  }
}

TEST(Integration, PredictCharacterizeAndPaperAgreeForRealm16) {
  const core::SegmentLut lut{16, 6};
  const auto predicted = core::predict_realm_errors(lut);
  err::MonteCarloOptions opts;
  opts.samples = 1 << 20;
  const auto measured =
      err::monte_carlo(*mult::make_multiplier("realm:m=16,t=0", 16), opts);
  // Paper row: bias 0.01, mean 0.42, peaks -2.08 / +1.79.
  EXPECT_NEAR(predicted.mean_pct, 0.42, 0.02);
  EXPECT_NEAR(measured.mean, 0.42, 0.03);
  EXPECT_NEAR(predicted.min_pct, -2.08, 0.05);
  EXPECT_NEAR(measured.max, 1.79, 0.08);
}

TEST(Integration, HeatmapOfRealmIsVisiblyTighterThanMitchell) {
  const auto realm16 = mult::make_multiplier("realm:m=16,t=0", 16);
  const auto calm = mult::make_multiplier("calm", 16);
  const auto img_r =
      err::render_profile_heatmap(err::error_profile(*realm16, 64, 127), 11.2);
  const auto img_c =
      err::render_profile_heatmap(err::error_profile(*calm, 64, 127), 11.2);
  // Mean absolute deviation from mid-gray: REALM's map is near-flat.
  const auto dev = [](const jpeg::Image& im) {
    double acc = 0;
    for (const auto p : im.pixels()) acc += std::abs(static_cast<int>(p) - 128);
    return acc / static_cast<double>(im.pixels().size());
  };
  EXPECT_LT(dev(img_r), 0.15 * dev(img_c));
}
