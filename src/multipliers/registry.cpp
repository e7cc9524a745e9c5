#include "realm/multipliers/registry.hpp"

#include <cctype>
#include <limits>
#include <span>
#include <stdexcept>

#include "realm/core/realm_multiplier.hpp"
#include "realm/multipliers/accurate.hpp"
#include "realm/multipliers/alm.hpp"
#include "realm/multipliers/am.hpp"
#include "realm/multipliers/drum.hpp"
#include "realm/multipliers/implm.hpp"
#include "realm/multipliers/intalp.hpp"
#include "realm/multipliers/mbm.hpp"
#include "realm/multipliers/mitchell.hpp"
#include "realm/multipliers/ssm.hpp"

namespace realm::mult {

namespace {

// -- the design table -------------------------------------------------------
//
// Every design name, alias, parameter name, default and required flag lives
// here once; the parser, the canonical printer, the behavioral factory and
// the circuit builders all read it (or the typed fields it fills).

enum class Presence : std::uint8_t {
  kRequired,  ///< must be given; always printed
  kPrinted,   ///< defaults when omitted; always printed
  kOptional,  ///< defaults when omitted; printed only when not at the default
};

struct Param {
  std::string_view name;
  int DesignSpec::*field;
  Presence presence;
  int fallback = 0;
  int max = std::numeric_limits<int>::max();
};

struct Schema {
  Design design;
  std::string_view name;
  std::span<const Param> params;
};

// The M and q caps are the constructors' own (core/lut.hpp), so a spec the
// parser accepts never fails on them later.
using core::kMaxCorrectionBits;
using core::kMaxLutSegments;

constexpr Param kRealmParams[] = {
    {"m", &DesignSpec::m, Presence::kPrinted, 16, kMaxLutSegments},
    {"t", &DesignSpec::t, Presence::kPrinted, 0},
    {"q", &DesignSpec::q, Presence::kOptional, 6, kMaxCorrectionBits},
    {"mse", &DesignSpec::mse, Presence::kOptional, 0, 1}};
constexpr Param kCalmParams[] = {
    {"t", &DesignSpec::t, Presence::kOptional, 0},
    {"adder", &DesignSpec::adder, Presence::kOptional, 0, 2}};
constexpr Param kMbmParams[] = {
    {"t", &DesignSpec::t, Presence::kPrinted, 0},
    {"q", &DesignSpec::q, Presence::kOptional, 6, kMaxCorrectionBits}};
constexpr Param kMParam[] = {{"m", &DesignSpec::m, Presence::kRequired}};
constexpr Param kKParam[] = {{"k", &DesignSpec::k, Presence::kRequired}};
constexpr Param kNbParam[] = {{"nb", &DesignSpec::nb, Presence::kRequired}};
constexpr Param kLParam[] = {{"l", &DesignSpec::l, Presence::kPrinted, 2}};

// Indexed by Design.
constexpr Schema kSchemas[] = {
    {Design::kAccurate, "accurate", {}},
    {Design::kCalm, "calm", kCalmParams},
    {Design::kRealm, "realm", kRealmParams},
    {Design::kMbm, "mbm", kMbmParams},
    {Design::kAlmSoa, "alm-soa", kMParam},
    {Design::kAlmMaa, "alm-maa", kMParam},
    {Design::kImplm, "implm", {}},
    {Design::kDrum, "drum", kKParam},
    {Design::kSsm, "ssm", kMParam},
    {Design::kEssm, "essm", kMParam},
    {Design::kAm1, "am1", kNbParam},
    {Design::kAm2, "am2", kNbParam},
    {Design::kIntalp, "intalp", kLParam},
};
static_assert([] {
  for (std::size_t i = 0; i < std::size(kSchemas); ++i) {
    if (static_cast<std::size_t>(kSchemas[i].design) != i) return false;
  }
  return true;
}());

[[nodiscard]] const Schema& schema_of(Design d) {
  return kSchemas[static_cast<std::size_t>(d)];
}

[[noreturn]] void reject(std::string_view spec, const std::string& why) {
  throw std::invalid_argument("design spec '" + std::string{spec} + "': " + why);
}

[[nodiscard]] std::string lower(std::string_view s) {
  std::string out{s};
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

[[nodiscard]] const Schema& lookup_design(std::string_view spec,
                                          const std::string& name) {
  for (const Schema& s : kSchemas) {
    if (s.name == name) return s;
  }
  if (name == "mitchell") return schema_of(Design::kCalm);  // the one alias
  reject(spec, "unknown design '" + name + "'");
}

/// Plain decimal digits, no leading zero, at most `max`.
[[nodiscard]] int parse_value(std::string_view spec, const Param& p, std::string_view v) {
  const bool digits_only =
      !v.empty() && v.find_first_not_of("0123456789") == std::string_view::npos;
  if (!digits_only || (v.size() > 1 && v.front() == '0')) {
    reject(spec, "parameter '" + std::string{p.name} + "' needs plain digits, got '" +
                     std::string{v} + "'");
  }
  long long value = 0;
  for (const char c : v) {
    value = value * 10 + (c - '0');
    if (value > p.max) {
      reject(spec,
             "parameter '" + std::string{p.name} + "' above " + std::to_string(p.max));
    }
  }
  return static_cast<int>(value);
}

}  // namespace

DesignSpec DesignSpec::parse(std::string_view spec) {
  const auto colon = spec.find(':');
  const Schema& schema = lookup_design(spec, lower(spec.substr(0, colon)));
  DesignSpec out;
  out.design = schema.design;

  std::uint32_t seen = 0;  // bit i: schema.params[i] given
  if (colon != std::string_view::npos) {
    std::string_view rest = spec.substr(colon + 1);
    for (;;) {
      // ';' is accepted as a parameter separator so CSV-safe specs round-trip.
      const auto sep = rest.find_first_of(",;");
      const std::string_view kv = rest.substr(0, sep);
      const auto eq = kv.find('=');
      if (eq == std::string_view::npos || eq == 0) {
        reject(spec, "malformed parameter '" + std::string{kv} + "'");
      }
      const std::string key = lower(kv.substr(0, eq));
      std::size_t i = 0;
      while (i < schema.params.size() && schema.params[i].name != key) ++i;
      if (i == schema.params.size()) {
        reject(spec, "design '" + std::string{schema.name} + "' takes no parameter '" +
                         key + "'");
      }
      if ((seen >> i) & 1u) reject(spec, "duplicate parameter '" + key + "'");
      seen |= 1u << i;
      const Param& p = schema.params[i];
      out.*p.field = parse_value(spec, p, kv.substr(eq + 1));
      if (sep == std::string_view::npos) break;
      rest = rest.substr(sep + 1);
    }
  }
  for (std::size_t i = 0; i < schema.params.size(); ++i) {
    if ((seen >> i) & 1u) continue;
    const Param& p = schema.params[i];
    if (p.presence == Presence::kRequired) {
      reject(spec, "design '" + std::string{schema.name} + "' requires parameter '" +
                       std::string{p.name} + "'");
    }
    out.*p.field = p.fallback;
  }
  return out;
}

std::string DesignSpec::to_string() const {
  const Schema& schema = schema_of(design);
  std::string out{schema.name};
  char sep = ':';
  for (const Param& p : schema.params) {
    const int v = this->*p.field;
    if (p.presence == Presence::kOptional && v == p.fallback) continue;
    out += sep;
    out += p.name;
    out += '=';
    out += std::to_string(v);
    sep = ',';
  }
  return out;
}

core::RealmConfig realm_config(const DesignSpec& s, int n) {
  core::RealmConfig cfg;
  cfg.n = n;
  cfg.m = s.m;
  cfg.t = s.t;
  cfg.q = s.q;
  cfg.formulation = s.mse != 0 ? core::Formulation::kMeanSquareError
                               : core::Formulation::kMeanRelativeError;
  return cfg;
}

std::unique_ptr<Multiplier> make_multiplier(const DesignSpec& s, int n) {
  switch (s.design) {
    case Design::kAccurate: return std::make_unique<AccurateMultiplier>(n);
    case Design::kCalm: return std::make_unique<MitchellMultiplier>(n, s.t);
    case Design::kRealm:
      return std::make_unique<core::RealmMultiplier>(realm_config(s, n));
    case Design::kMbm: return std::make_unique<MbmMultiplier>(n, s.t, s.q);
    case Design::kAlmSoa:
      return std::make_unique<AlmMultiplier>(n, s.m, AlmAdder::kSetOne);
    case Design::kAlmMaa:
      return std::make_unique<AlmMultiplier>(n, s.m, AlmAdder::kLowerOr);
    case Design::kImplm: return std::make_unique<ImplmMultiplier>(n);
    case Design::kDrum: return std::make_unique<DrumMultiplier>(n, s.k);
    case Design::kSsm: return std::make_unique<SsmMultiplier>(n, s.m);
    case Design::kEssm: return std::make_unique<EssmMultiplier>(n, s.m);
    case Design::kAm1: return std::make_unique<AmMultiplier>(n, s.nb, AmVariant::kAm1);
    case Design::kAm2: return std::make_unique<AmMultiplier>(n, s.nb, AmVariant::kAm2);
    case Design::kIntalp: return std::make_unique<IntAlpMultiplier>(n, s.l);
  }
  throw std::invalid_argument("make_multiplier: invalid design enum");
}

std::unique_ptr<Multiplier> make_multiplier(const std::string& spec, int n) {
  return make_multiplier(DesignSpec::parse(spec), n);
}

std::vector<std::string> table1_specs() {
  std::vector<std::string> specs;
  for (int m : {16, 8, 4}) {
    for (int t = 0; t <= 9; ++t) {
      specs.push_back("realm:m=" + std::to_string(m) + ",t=" + std::to_string(t));
    }
  }
  specs.emplace_back("calm");
  specs.emplace_back("implm");
  for (int t : {0, 2, 4, 6, 8, 9}) specs.push_back("mbm:t=" + std::to_string(t));
  for (int m : {3, 6, 9, 11, 12}) specs.push_back("alm-maa:m=" + std::to_string(m));
  for (int m : {3, 6, 9, 11, 12}) specs.push_back("alm-soa:m=" + std::to_string(m));
  specs.emplace_back("intalp:l=2");
  specs.emplace_back("intalp:l=1");
  for (int nb : {13, 9, 5}) specs.push_back("am1:nb=" + std::to_string(nb));
  for (int nb : {13, 9, 5}) specs.push_back("am2:nb=" + std::to_string(nb));
  for (int k : {8, 7, 6, 5, 4}) specs.push_back("drum:k=" + std::to_string(k));
  for (int m : {10, 9, 8}) specs.push_back("ssm:m=" + std::to_string(m));
  specs.emplace_back("essm:m=8");
  return specs;
}

std::vector<std::string> table2_specs() {
  return {"realm:m=16,t=8", "realm:m=8,t=8", "realm:m=4,t=8", "mbm:t=0",
          "calm",           "implm",         "intalp:l=1",    "alm-soa:m=11"};
}

std::vector<std::string> fig1_specs() {
  return {"calm", "alm-soa:m=11", "implm", "mbm:t=0", "intalp:l=1", "realm:m=16,t=0"};
}

}  // namespace realm::mult
