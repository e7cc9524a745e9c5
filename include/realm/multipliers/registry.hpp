// Factory for every multiplier design evaluated in the paper, and the one
// place a design spec string is parsed.
//
// Designs are addressed by compact spec strings, e.g.:
//   "accurate"          exact multiplier
//   "realm:m=16,t=4"    REALM16 with 4 truncated bits (q defaults to 6)
//   "calm"              Mitchell's classical design ("mitchell" is an alias)
//   "mbm:t=2"           MBM with t = 2
//   "alm-soa:m=11"      ALM with set-one adder, m approximate bits
//   "alm-maa:m=9"       ALM with lower-OR (MAA-class) adder
//   "implm"             ImpLM with exact adder
//   "drum:k=6"          DRUM with 6-bit fragments
//   "ssm:m=8"           SSM, "essm:m=8" ESSM8
//   "am1:nb=9", "am2:nb=13"
//   "intalp:l=2"
//
// Grammar:  spec  := design [ ':' param { sep param } ]
//           param := name '=' value        sep := ',' | ';'
//           value := '0' | [1-9][0-9]*     (at most the parameter's cap: realm
//                                            m <= 256, realm/mbm q <= 30,
//                                            realm mse <= 1, calm adder <= 2)
// Design and parameter names are case-insensitive; parameters may come in
// any order and any parameter with a default may be omitted.
//
// Rejected with std::invalid_argument (never std::out_of_range): an unknown
// design or parameter, a duplicate or empty parameter (so a trailing or
// doubled separator), a missing required parameter, and any value that is
// not plain digits — a sign, a leading zero, whitespace or trailing text —
// or that is out of range.
//
// Canonical form (DesignSpec::to_string): the lower-case design name (aliases
// folded), then the design's parameters in schema order joined by ',';
// required parameters and realm m/t, mbm t and intalp l are always printed,
// the rest only when they differ from their default.  Every spelling the
// tables below and the benches use is already canonical, so campaign keys,
// the cost-model cache and sweep dedupe all key on this one form.
//
// table1_specs() lists the rows of Table I in paper order so the error and
// synthesis benches, the Pareto sweep, and the tests all iterate the same
// design set.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "realm/multiplier.hpp"

namespace realm::core {
struct RealmConfig;
}

namespace realm::mult {

/// Every design family the behavioral factory and the circuit builders know.
enum class Design : std::uint8_t {
  kAccurate,
  kCalm,
  kRealm,
  kMbm,
  kAlmSoa,
  kAlmMaa,
  kImplm,
  kDrum,
  kSsm,
  kEssm,
  kAm1,
  kAm2,
  kIntalp,
};

/// A parsed, validated design spec.  Build one with parse(); the fields a
/// design does not take stay 0, so two specs are equal exactly when their
/// canonical strings are.
struct DesignSpec {
  Design design = Design::kAccurate;
  int m = 0;      ///< realm: LUT segments; alm-*: approximate adder bits;
                  ///< ssm/essm: segment bits
  int t = 0;      ///< realm/calm/mbm: truncated fraction LSBs
  int q = 0;      ///< realm/mbm: correction quantization bits
  int mse = 0;    ///< realm: 1 selects the mean-square-error formulation
  int adder = 0;  ///< calm: exact fraction adder (hw::AdderArch; circuit only)
  int k = 0;      ///< drum: fragment bits
  int nb = 0;     ///< am1/am2: recovered columns
  int l = 0;      ///< intalp: level

  /// Parses and validates a spec (grammar above); throws
  /// std::invalid_argument on any rejected form.
  [[nodiscard]] static DesignSpec parse(std::string_view spec);

  /// The canonical spelling; parse(to_string()) == *this.
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const DesignSpec&, const DesignSpec&) = default;
};

/// REALM datapath configuration of a kRealm spec for n-bit operands.
[[nodiscard]] core::RealmConfig realm_config(const DesignSpec& spec, int n);

/// Constructs the design for n-bit operands.  Throws std::invalid_argument
/// on parameters the design rejects at this width.
[[nodiscard]] std::unique_ptr<Multiplier> make_multiplier(const DesignSpec& spec,
                                                          int n = 16);
/// Parses `spec`, then constructs the design.
[[nodiscard]] std::unique_ptr<Multiplier> make_multiplier(const std::string& spec,
                                                          int n = 16);

/// All approximate-design rows of Table I, in the paper's order.
[[nodiscard]] std::vector<std::string> table1_specs();

/// The subset used in the JPEG evaluation (Table II), paper order, minus the
/// accurate reference.
[[nodiscard]] std::vector<std::string> table2_specs();

/// The designs plotted in Fig. 1 (least-mean-error configurations).
[[nodiscard]] std::vector<std::string> fig1_specs();

}  // namespace realm::mult
