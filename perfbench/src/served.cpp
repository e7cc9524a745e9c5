// The two served workloads: engine-miss (every request a distinct cold key)
// and warm-under-write (warm readers beside journaling writers).  Both drive
// a realm_served child with default flags over loopback TCP from at most four
// connections of this process, time every request on the client, and check
// every reply off the clock.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "perfbench.hpp"
#include "realm/campaign/cached_eval.hpp"
#include "realm/campaign/record.hpp"
#include "realm/campaign/result_store.hpp"
#include "realm/error/monte_carlo.hpp"
#include "realm/hw/circuits.hpp"
#include "realm/hw/cost_model.hpp"
#include "realm/hw/timing.hpp"
#include "realm/multipliers/registry.hpp"
#include "realm/net/client.hpp"
#include "realm/net/protocol.hpp"

namespace pb {
namespace {

using realm::net::Client;
using realm::net::Frame;
using realm::net::MsgType;

constexpr int kWidth = 16;
constexpr int kConnections = 4;
constexpr int kCallTimeoutMs = 60000;

// Designs both served workloads rotate over; implm and alm-soa:m=11 have no
// row kernel.
const std::vector<std::string> kDesigns = {
    "realm:m=16,t=4", "realm:m=8,t=2", "mbm:t=0", "drum:k=6",
    "calm",           "ssm:m=8",       "implm",   "alm-soa:m=11"};

// engine-miss request sizes.
constexpr std::uint64_t kMissMcSamples = std::uint64_t{1} << 22;
constexpr std::uint64_t kMissExhaustiveSpan = 2048;
constexpr std::uint64_t kMissExhaustiveLoCount =
    (std::uint64_t{1} << kWidth) - kMissExhaustiveSpan + 1;
constexpr std::uint32_t kMissSynthesisCycles = 8192;

// Set-up warm-up: one small characterize_mc per design whose sample count no
// timed request or journal record uses, so its key is outside the timed set.
constexpr std::uint64_t kWarmupSamples = std::uint64_t{1} << 14;
constexpr std::uint64_t kWarmupSeed = 0xC0FFEE00u;

// warm-under-write sizes: the starting journal holds kJournalRecords
// characterize_mc results of kJournalSamples samples each.
constexpr std::uint64_t kJournalRecords = 56000;
constexpr std::uint64_t kJournalSamples = 4096;
// Writers are small enough to be fsync-bound (2^12 samples compute in ~0.04
// ms; an append with fsync takes ~0.1 ms), and each writer connection sends
// at most one request per period (think time in its closed loop).  Compute-
// bound or unpaced writers saturate all four cores, and the warm readers then
// measure the scheduler, not the store.
constexpr std::uint64_t kWriterSamples = std::uint64_t{1} << 12;
constexpr int kReaders = 2;
constexpr double kWriterPeriodS = 0.001;

// Each run is cut into two-second sessions, each on its own realm_served.
constexpr double kSessionSeconds = 2.0;

struct Req {
  MsgType type = MsgType::kPing;
  std::string spec;
  std::uint64_t samples = 0;
  std::uint64_t seed = 0;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::uint32_t cycles = 0;
};

Req mc_request(const std::string& spec, std::uint64_t samples, std::uint64_t seed) {
  Req q;
  q.type = MsgType::kCharacterizeMc;
  q.spec = spec;
  q.samples = samples;
  q.seed = seed;
  return q;
}

std::string body_of(const Req& q) {
  realm::campaign::PayloadWriter w;
  switch (q.type) {
    case MsgType::kCharacterizeMc:
      w.field_str("spec", q.spec).field("n", std::int64_t{kWidth});
      w.field("samples", q.samples).field("seed", q.seed);
      break;
    case MsgType::kCharacterizeExhaustive:
      w.field_str("spec", q.spec).field("n", std::int64_t{kWidth});
      w.field("lo", q.lo).field("hi", q.hi);
      break;
    case MsgType::kSynthesisCost:
      w.field_str("spec", q.spec).field("n", std::int64_t{kWidth});
      w.field("cycles", std::uint64_t{q.cycles});
      break;
    default:
      break;
  }
  return w.str();
}

realm::err::MonteCarloOptions mc_options(const Req& q, int threads) {
  realm::err::MonteCarloOptions o;
  o.samples = q.samples;
  o.seed = q.seed;
  o.threads = threads;
  return o;
}

class Models {
 public:
  Models() {
    for (const auto& s : kDesigns) m_.emplace(s, realm::mult::make_multiplier(s, kWidth));
  }
  [[nodiscard]] const realm::Multiplier& at(const std::string& spec) const {
    return *m_.at(spec);
  }

 private:
  std::unordered_map<std::string, std::unique_ptr<realm::Multiplier>> m_;
};

/// The library's own serialization of the computation a request asks for —
/// the bytes a correct server must reply with.
std::string direct_payload(const Req& q, const Models& models, int threads = 0) {
  namespace cp = realm::campaign;
  switch (q.type) {
    case MsgType::kCharacterizeMc:
      return cp::serialize_error_metrics(
          realm::err::monte_carlo(models.at(q.spec), mc_options(q, threads)));
    case MsgType::kCharacterizeExhaustive:
      return cp::serialize_exhaustive_report(realm::err::exhaustive_report(
          models.at(q.spec), nullptr, q.lo, q.hi, threads));
    case MsgType::kSynthesisCost: {
      realm::hw::StimulusProfile p;
      p.cycles = q.cycles;
      p.threads = threads;
      realm::hw::CostModel cm{kWidth, p};
      const realm::hw::DesignCost& cost = cm.cost(q.spec);
      cp::SynthesisResult s;
      s.area_um2 = cost.area_um2;
      s.power_uw = cost.power_uw;
      s.area_reduction_pct = cm.area_reduction_pct(q.spec);
      s.power_reduction_pct = cm.power_reduction_pct(q.spec);
      s.delay_ps = realm::hw::analyze_timing(realm::hw::build_circuit(q.spec, kWidth))
                       .critical_path_ps;
      return cp::serialize_synthesis(s);
    }
    default:
      throw std::logic_error("no direct payload for this request kind");
  }
}

/// One timed request.  Returns false (with `why`) on a transport failure or
/// a non-OK reply; the caller reconnects after a transport failure.
bool timed_call(Client& c, const Req& q, const std::string& body, std::uint64_t seq,
                double& ms, std::string& reply, std::string& why, bool& broken) {
  broken = false;
  const auto t0 = Clock::now();
  Frame f;
  try {
    f = c.call(q.type, seq, body, kCallTimeoutMs);
  } catch (const std::exception& e) {
    why = e.what();
    broken = true;
    return false;
  }
  ms = seconds_between(t0, Clock::now()) * 1e3;
  if (f.type != MsgType::kReplyOk) {
    why = "error reply to " + q.spec + ": " +
          (f.type == MsgType::kReplyError ? realm::net::parse_error(f.body).message
                                          : std::string{"unexpected type"});
    return false;
  }
  reply = std::move(f.body);
  return true;
}

/// A running realm_served plus what its start-up cost.
struct Served {
  std::unique_ptr<ServedProcess> proc;
  std::string store;
  std::string exit_doc;  ///< traced runs: the --json exit document
  std::vector<std::string> flags;
  double setup_s = 0.0;
  double client_ms = 0.0;        ///< client latency of the set-up requests
  std::uint64_t mc_samples = 0;  ///< samples of the set-up characterize_mc
};

/// Starts realm_served on a fresh copy of `journal` ("" = empty store) and
/// waits until it answered one ping and one warm-up request per design.
Served launch(const Options& o, const std::string& journal, bool traced, int tag,
              const Models& models, Report& r) {
  Served s;
  s.store = o.work + "/store-" + std::to_string(tag) + ".journal";
  std::filesystem::remove(s.store);
  if (!journal.empty()) copy_file(journal, s.store);
  s.flags.push_back("--store=" + s.store);
  if (traced) {
    s.exit_doc = o.work + "/exit-" + std::to_string(tag) + ".json";
    s.flags.push_back("--json=" + s.exit_doc);
  }
  std::vector<std::string> warm_replies;
  const auto t0 = Clock::now();
  s.proc = std::make_unique<ServedProcess>(
      o.served, s.flags, traced, o.work + "/served-" + std::to_string(tag) + ".log");
  Client c;
  c.connect_tcp(s.proc->port());
  std::uint64_t seq = 1;
  const auto tp = Clock::now();
  if (c.call(MsgType::kPing, seq++, {}, kCallTimeoutMs).type != MsgType::kReplyOk) {
    throw std::runtime_error("ping failed");
  }
  s.client_ms += seconds_between(tp, Clock::now()) * 1e3;
  for (std::size_t d = 0; d < kDesigns.size(); ++d) {
    const Req q = mc_request(kDesigns[d], kWarmupSamples, kWarmupSeed + d);
    double ms = 0.0;
    std::string reply, why;
    bool broken = false;
    if (!timed_call(c, q, body_of(q), seq++, ms, reply, why, broken)) {
      throw std::runtime_error("warm-up failed: " + why);
    }
    s.client_ms += ms;
    s.mc_samples += q.samples;
    warm_replies.push_back(std::move(reply));
  }
  s.setup_s = seconds_between(t0, Clock::now());
  c.close();
  // Off the clock: the warm-up replies are outputs too.
  for (std::size_t d = 0; d < kDesigns.size(); ++d) {
    ++r.attempted;
    const Req q = mc_request(kDesigns[d], kWarmupSamples, kWarmupSeed + d);
    if (warm_replies[d] != direct_payload(q, models)) {
      r.fail("warm-up reply differs for " + q.spec);
    }
  }
  return s;
}

void stop(Served& s, Report& r) {
  const int code = s.proc->stop();
  if (code != 0) r.fail("realm_served exited with status " + std::to_string(code));
  std::filesystem::remove(s.store);
}

std::vector<Client> connect_all(int port) {
  std::vector<Client> cs(kConnections);
  for (auto& c : cs) c.connect_tcp(port);
  return cs;
}

/// Counter deltas (the stats reply's counter.<name>) summed over sessions.
using Deltas = std::map<std::string, double>;

void add_deltas(const std::map<std::string, std::string>& before,
                const std::map<std::string, std::string>& after, Deltas& d) {
  for (const auto& [k, v] : after) {
    if (k.rfind("counter.", 0) != 0) continue;
    d[k.substr(std::strlen("counter."))] +=
        static_cast<double>(stat_u64(after, k) - stat_u64(before, k));
  }
}

/// S-source per-layer metrics common to both served workloads.
void stats_layers(const Deltas& d, Report& r) {
  const auto delta = [&](const char* name) {
    const auto it = d.find(name);
    return it == d.end() ? 0.0 : it->second;
  };
  const double requests = delta("net_requests");
  r.layer("net.requests", requests, "count", 1, "S");
  r.layer("net.warm_hit_ratio", requests == 0 ? 0.0 : delta("store_hits") / requests,
          "ratio", 1, "S");
  r.layer("net.frame_errors", delta("net_frame_errors"), "count", 1, "S");
  r.layer("net.backpressure_stalls", delta("net_backpressure_stalls"), "count", 1, "S");
  r.layer("campaign.units_computed", delta("campaign_units_computed"), "count", 1, "S");
  r.layer("campaign.bytes_written", delta("store_bytes_written"), "bytes", 1, "S");
  r.layer("error.row_fallback_batches", delta("row_fallback_batches"), "count", 1, "S");
  r.layer("core.lut_cache_misses", delta("lut_cache_misses"), "count", 1, "S");
  const double tasks = delta("pool_tasks_executed");
  r.layer("pool.tasks_executed", tasks, "count", 1, "S");
  r.layer("pool.inline_pct",
          tasks == 0 ? 0.0 : 100.0 * delta("pool_tasks_inline") / tasks, "%", 1, "S");
  r.layer("pool.queue_wait_us_per_task",
          tasks == 0 ? 0.0 : delta("pool_queue_wait_ns") / 1e3 / tasks, "us", 1, "S");
}

/// T-source per-layer metrics from a traced server's exit document.
/// `cold_client_ms` is the traced run's mean client latency of requests that
/// went to the executor.
void span_layers(const std::map<std::string, SpanTotals>& sp, double cold_client_ms,
                 double client_total_ms, Report& r) {
  const auto get = [&](const char* n) {
    const auto it = sp.find(n);
    return it == sp.end() ? SpanTotals{} : it->second;
  };
  const SpanTotals req = get("net/request"), val = get("net/validate"),
                   warm = get("net/warm_hit"), write = get("net/write"),
                   job = get("net/job"), reply = get("net/reply"),
                   unit = get("campaign/unit");
  r.layer("net.warm_hit_us", warm.mean_us(), "us", warm.count, "T");
  r.layer("net.request_self_us",
          req.count == 0 ? 0.0
                         : (req.total_us - val.total_us - warm.total_us) /
                               static_cast<double>(req.count),
          "us", req.count, "T");
  r.layer("net.write_us", write.mean_us(), "us", write.count, "T");
  r.layer("net.job_ms", job.mean_us() / 1e3, "ms", job.count, "T");
  r.layer("net.queue_wait_ms",
          job.count == 0 ? 0.0 : cold_client_ms - job.mean_us() / 1e3, "ms", job.count,
          "T");
  const double append_us =
      job.count == 0 ? 0.0
                     : (job.total_us - unit.total_us) / static_cast<double>(job.count);
  r.layer("campaign.append_us", append_us, "us", job.count, "T");
  r.layer("obs.span_coverage_pct",
          client_total_ms <= 0.0
              ? 0.0
              : 100.0 * (req.total_us + job.total_us + reply.total_us) / 1e3 /
                    client_total_ms,
          "%", req.count, "T");
}

// ============================================================ engine-miss

Req miss_request(std::uint64_t seed, std::uint64_t i) {
  const std::uint64_t salt = mix64(seed ^ 0x6d697373u);
  const std::size_t d = static_cast<std::size_t>((i / 3) % kDesigns.size());
  const std::uint64_t j = i / (3 * kDesigns.size());  // repeat of this (kind, design)
  Req q;
  q.spec = kDesigns[d];
  switch (i % 3) {
    case 0:
      return mc_request(q.spec, kMissMcSamples, mix64(salt ^ i));
    case 1:
      q.type = MsgType::kCharacterizeExhaustive;
      q.lo = (mix64(salt + d) % kMissExhaustiveLoCount + j * 97) % kMissExhaustiveLoCount;
      q.hi = q.lo + kMissExhaustiveSpan - 1;
      return q;
    default:
      q.type = MsgType::kSynthesisCost;
      // The seed moves the cycle count by < 0.2%: synthesis cost is linear in
      // it, and the workload's cost should not depend on the seed.
      q.cycles = kMissSynthesisCycles + static_cast<std::uint32_t>(salt % 16 + j);
      return q;
  }
}

const char* kind_name(MsgType t) {
  switch (t) {
    case MsgType::kCharacterizeMc: return "characterize_mc";
    case MsgType::kCharacterizeExhaustive: return "characterize_exhaustive";
    case MsgType::kSynthesisCost: return "synthesis_cost";
    default: return "other";
  }
}

// ======================================================= warm-under-write

Req journal_request(std::uint64_t seed, std::uint64_t j) {
  return mc_request(kDesigns[j % kDesigns.size()], kJournalSamples,
                    mix64(mix64(seed ^ 0x6a726e6cu) ^ j));
}

Req writer_request(std::uint64_t seed, std::uint64_t w) {
  return mc_request(kDesigns[w % kDesigns.size()], kWriterSamples,
                    mix64(mix64(seed ^ 0x77726974u) ^ w));
}

/// The starting journal: kJournalRecords characterize_mc results computed by
/// the library and appended through ResultStore::put.
struct Journal {
  std::string path;
  std::vector<std::string> keys;
  std::vector<std::string> payloads;
  std::vector<std::string> bodies;  ///< the request that reads each record
};

Journal build_journal(const Options& o, const Models& models, Report& r) {
  Journal jn;
  jn.path = o.work + "/start.journal";
  jn.keys.resize(kJournalRecords);
  jn.payloads.resize(kJournalRecords);
  jn.bodies.resize(kJournalRecords);
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  const unsigned workers = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned t = 0; t < workers; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t j = t; j < kJournalRecords; j += workers) {
        const Req q = journal_request(o.seed, j);
        jn.keys[j] = realm::campaign::monte_carlo_key(q.spec, kWidth, mc_options(q, 1));
        jn.payloads[j] = direct_payload(q, models, 1);
        jn.bodies[j] = body_of(q);
      }
    });
  }
  for (auto& t : threads) t.join();
  std::filesystem::remove(jn.path);
  {
    realm::campaign::ResultStore store{jn.path};
    for (std::uint64_t j = 0; j < kJournalRecords; ++j) {
      store.put(jn.keys[j], jn.payloads[j]);
    }
  }
  r.info["journal_records"] = std::to_string(kJournalRecords);
  r.info["journal_bytes"] = std::to_string(std::filesystem::file_size(jn.path));
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", seconds_between(t0, Clock::now()));
  r.info["journal_build_s"] = buf;
  return jn;
}

/// <prefix>rps, <prefix>p50_<unit>, <prefix>p99_<unit>; `scale` converts
/// the summary's milliseconds to `unit`.
void class_metrics(Report& r, const std::string& prefix, const Summary& s,
                   const char* unit, double scale) {
  r.e2e(prefix + "rps", s.rate, "1/s", s.n);
  r.e2e(prefix + "p50_" + unit, s.p50 * scale, unit, s.n);
  r.e2e(prefix + "p99_" + unit, s.p99 * scale, unit, s.n);
}

void stamp(const Served& s, Report& r) {
  std::string flags;
  for (const auto& f : s.flags) flags += (flags.empty() ? "" : " ") + f;
  r.info[s.exit_doc.empty() ? "served_flags" : "served_flags_traced"] = flags;
}

// ================================================================ sessions

/// One request of a timed session.
struct Op {
  Req q;
  std::string body;
  int cls = 0;                          ///< 0 or 1: which latency class
  std::uint64_t index = 0;              ///< recreates the request for checking
  bool verify_later = false;            ///< cold reply: check off the clock
  const std::string* expect = nullptr;  ///< warm reply: the stored payload
  double pace_s = 0.0;  ///< least time since this connection's previous send
};

/// What one timed session on one realm_served measured.
struct Session {
  Samples lat_ms[2];  ///< per class, with completion times
  std::map<std::string, Samples> by_kind;
  std::vector<std::pair<std::uint64_t, std::string>> replies;  ///< verify_later
  double rss_mb = 0.0;
  double client_ms = 0.0;  ///< summed latency of the timed requests
  std::uint64_t mc_samples = 0;        ///< computed (cold) characterize_mc samples
  std::uint64_t exhaustive_pairs = 0;  ///< computed exhaustive pairs
  Deltas deltas;
};

/// A closed loop on kConnections connections for `span` seconds: each
/// connection sends next(conn, n) once its previous reply arrived.
Session closed_loop(int port, double span,
                    const std::function<Op(int, std::uint64_t)>& next, Report& r) {
  Session s;
  std::vector<Client> clients = connect_all(port);
  const auto before = fetch_stats(clients[0], 1);
  std::vector<Session> per(kConnections);
  std::vector<std::vector<std::string>> errors(kConnections);
  std::vector<std::uint64_t> attempted(kConnections, 0);
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(span);
  std::vector<std::thread> threads;
  for (int k = 0; k < kConnections; ++k) {
    threads.emplace_back([&, k] {
      const auto ku = static_cast<std::size_t>(k);
      Session& me = per[ku];
      Client& c = clients[ku];
      auto last_send = start - std::chrono::hours(1);
      for (std::uint64_t n = 0; Clock::now() < deadline; ++n) {
        const Op op = next(k, n);
        if (op.pace_s > 0) {
          const auto pace = std::chrono::duration<double>(op.pace_s);
          std::this_thread::sleep_until(
              last_send + std::chrono::duration_cast<Clock::duration>(pace));
          if (Clock::now() >= deadline) break;
        }
        last_send = Clock::now();
        double ms = 0.0;
        std::string reply, why;
        bool broken = false;
        ++attempted[ku];
        if (!timed_call(c, op.q, op.body, n + 1, ms, reply, why, broken)) {
          errors[ku].push_back("request " + std::to_string(op.index) + ": " + why);
          if (broken) {
            c.close();
            try {
              c.connect_tcp(port);
            } catch (const std::exception&) {
              return;
            }
          }
          continue;
        }
        const double t = seconds_between(start, Clock::now());
        me.lat_ms[op.cls].add(ms, t);
        me.by_kind[kind_name(op.q.type)].add(ms, t);
        me.client_ms += ms;
        if (op.expect != nullptr && reply != *op.expect) {
          errors[ku].push_back("warm reply " + std::to_string(op.index) +
                               " differs from the stored payload");
        }
        if (op.verify_later) {
          if (op.q.type == MsgType::kCharacterizeMc) me.mc_samples += op.q.samples;
          if (op.q.type == MsgType::kCharacterizeExhaustive) {
            const std::uint64_t w = op.q.hi - op.q.lo + 1;
            me.exhaustive_pairs += w * w;
          }
          me.replies.emplace_back(op.index, std::move(reply));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto after = fetch_stats(clients[0], 2);
  s.rss_mb = static_cast<double>(stat_u64(after, "rss_kb")) / 1024.0;
  add_deltas(before, after, s.deltas);
  for (int k = 0; k < kConnections; ++k) {
    const auto ku = static_cast<std::size_t>(k);
    Session& me = per[ku];
    r.attempted += attempted[ku];
    for (const auto& e : errors[ku]) r.fail(e);
    for (int c = 0; c < 2; ++c) s.lat_ms[c].append(me.lat_ms[c]);
    for (auto& [kind, smp] : me.by_kind) s.by_kind[kind].append(smp);
    for (auto& rep : me.replies) s.replies.push_back(std::move(rep));
    s.client_ms += me.client_ms;
    s.mc_samples += me.mc_samples;
    s.exhaustive_pairs += me.exhaustive_pairs;
  }
  return s;
}

/// One session per kSessionSeconds of the run, each on its own realm_served
/// started on a fresh copy of `journal`.  Medians across sessions damp what
/// differs from one server process to the next; the set-up time is measured
/// on every launch.
struct Sessions {
  std::vector<Session> runs;
  std::vector<double> setup_s;
  std::map<std::string, SpanTotals> spans;  ///< traced: summed over sessions
  double warmup_client_ms = 0.0;
  std::uint64_t warmup_mc_samples = 0;

  [[nodiscard]] Summary summary(int cls) const {
    std::vector<Samples> per;
    for (const auto& s : runs) per.push_back(s.lat_ms[cls]);
    return summarize(per, kSessionSeconds);
  }
  [[nodiscard]] Samples pooled(int cls) const {
    Samples all;
    for (const auto& s : runs) all.append(s.lat_ms[cls]);
    return all;
  }
  [[nodiscard]] Deltas deltas() const {
    Deltas d;
    for (const auto& s : runs) {
      for (const auto& [k, v] : s.deltas) d[k] += v;
    }
    return d;
  }
  [[nodiscard]] double client_ms() const {
    double ms = warmup_client_ms;
    for (const auto& s : runs) ms += s.client_ms;
    return ms;
  }
};

template <class MakeNext>
Sessions run_sessions(const Options& o, const std::string& journal, bool traced,
                      const Models& models,
                      const std::function<Req(std::uint64_t)>& req_of,
                      std::map<std::uint64_t, std::string>& expected, Report& r,
                      MakeNext make_next) {
  Sessions out;
  const int sessions = std::max(1, static_cast<int>(o.seconds / kSessionSeconds));
  for (int k = 0; k < sessions; ++k) {
    Served s = launch(o, journal, traced, traced ? sessions + k : k, models, r);
    if (k == 0) stamp(s, r);
    out.setup_s.push_back(s.setup_s);
    out.warmup_client_ms += s.client_ms;
    out.warmup_mc_samples += s.mc_samples;
    out.runs.push_back(closed_loop(s.proc->port(), kSessionSeconds, make_next(), r));
    stop(s, r);
    if (traced) {
      for (const auto& [name, t] : read_spans(s.exit_doc)) {
        out.spans[name].count += t.count;
        out.spans[name].total_us += t.total_us;
      }
    }
    // Off the clock: every cold reply against the library's own computation.
    for (const auto& [i, body] : out.runs.back().replies) {
      auto it = expected.find(i);
      if (it == expected.end()) {
        it = expected.emplace(i, direct_payload(req_of(i), models)).first;
      }
      if (body != it->second) {
        r.fail("request " + std::to_string(i) +
               " reply differs from the direct computation");
      }
    }
    out.runs.back().replies.clear();
  }
  return out;
}

SpanTotals span_of(const Sessions& s, const char* name) {
  const auto it = s.spans.find(name);
  return it == s.spans.end() ? SpanTotals{} : it->second;
}

/// Whatever both served workloads report from a traced set of sessions.
void traced_layers(const Sessions& plain, const Sessions& traced, int cold_cls,
                   int headline_cls, Report& r) {
  span_layers(traced.spans, traced.pooled(cold_cls).mean(), traced.client_ms(), r);
  stats_layers(plain.deltas(), r);
  const double rate = plain.summary(headline_cls).rate;
  const double traced_rate = traced.summary(headline_cls).rate;
  r.layer("obs.trace_overhead_pct", 100.0 * (rate - traced_rate) / rate, "%",
          traced.pooled(headline_cls).size(), "T");
  const SpanTotals mc = span_of(traced, "mc/run");
  std::uint64_t mc_samples = traced.warmup_mc_samples;
  for (const auto& s : traced.runs) mc_samples += s.mc_samples;
  r.layer("error.mc_run_ms", mc.mean_us() / 1e3, "ms", mc.count, "T");
  r.layer("error.mc_samples_per_s",
          mc.total_us > 0 ? static_cast<double>(mc_samples) / (mc.total_us / 1e6) : 0.0,
          "1/s", mc.count, "T");
}

double median_rss(const Sessions& s) {
  std::vector<double> v;
  for (const auto& x : s.runs) v.push_back(x.rss_mb);
  return median(v);
}

}  // namespace

void run_engine_miss(const Options& o, Report& r) {
  const Models models;
  std::map<std::uint64_t, std::string> expected;
  const auto req_of = [&](std::uint64_t i) { return miss_request(o.seed, i); };
  const auto make_next = [&] {
    auto next = std::make_shared<std::atomic<std::uint64_t>>(0);
    return [&o, next](int, std::uint64_t) {
      const std::uint64_t i = next->fetch_add(1);
      Op op;
      op.q = miss_request(o.seed, i);
      op.body = body_of(op.q);
      op.index = i;
      op.verify_later = true;
      return op;
    };
  };
  const Sessions plain =
      run_sessions(o, "", false, models, req_of, expected, r, make_next);
  const Summary cold = plain.summary(0);
  r.e2e("setup_s", median(plain.setup_s), "s", plain.setup_s.size());
  class_metrics(r, "cold_", cold, "ms", 1.0);
  r.e2e("rss_mb", median_rss(plain), "MB", plain.runs.size());
  headline(r, cold);
  r.info["ops"] = "cold requests";
  if (o.trace == 0) return;

  // Traced sessions: same inputs, REALM_TRACE=1 on the server.
  const Sessions traced =
      run_sessions(o, "", true, models, req_of, expected, r, make_next);
  traced_layers(plain, traced, 0, 0, r);
  std::map<std::string, Samples> by_kind;
  for (const auto& s : plain.runs) {
    for (const auto& [kind, smp] : s.by_kind) by_kind[kind].append(smp);
  }
  for (const auto& [kind, smp] : by_kind) {
    r.layer("client." + kind + "_ms", smp.mean(), "ms", smp.size(), "run");
  }
  const SpanTotals ex = span_of(traced, "exhaustive/run");
  const SpanTotals pw = span_of(traced, "power/sweep");
  std::uint64_t pairs = 0;
  for (const auto& s : traced.runs) pairs += s.exhaustive_pairs;
  const Deltas traced_deltas = traced.deltas();
  r.layer("error.exhaustive_run_ms", ex.mean_us() / 1e3, "ms", ex.count, "T");
  r.layer("error.exhaustive_pairs_per_s",
          ex.total_us > 0 ? static_cast<double>(pairs) / (ex.total_us / 1e6) : 0.0, "1/s",
          ex.count, "T");
  r.layer("hw.power_sweep_ms", pw.mean_us() / 1e3, "ms", pw.count, "T");
  r.layer("hw.gate_evals_per_s",
          pw.total_us > 0 ? traced_deltas.at("gate_evals") / (pw.total_us / 1e6) : 0.0,
          "1/s", pw.count, "T");

  // Layer-call pass on this workload's own inputs.
  probe_cost_model(kDesigns, miss_request(o.seed, 2).cycles, r);
  probe_row_products(kDesigns[0], o.seed, r);
}

void run_warm_under_write(const Options& o, Report& r) {
  const Models models;
  const Journal jn = build_journal(o, models, r);
  std::map<std::uint64_t, std::string> expected;
  const auto req_of = [&](std::uint64_t w) { return writer_request(o.seed, w); };
  const auto make_next = [&] {
    auto next_write = std::make_shared<std::atomic<std::uint64_t>>(0);
    return [&o, &jn, next_write](int conn, std::uint64_t n) {
      Op op;
      if (conn < kReaders) {
        const std::uint64_t salt = mix64(o.seed ^ (std::uint64_t{0x72656164} << 8) ^
                                         static_cast<std::uint64_t>(conn));
        op.index = mix64(salt + n) % kJournalRecords;
        op.q = journal_request(o.seed, op.index);
        op.body = jn.bodies[op.index];
        op.expect = &jn.payloads[op.index];
      } else {
        op.index = next_write->fetch_add(1);
        op.q = writer_request(o.seed, op.index);
        op.body = body_of(op.q);
        op.cls = 1;
        op.verify_later = true;
        op.pace_s = kWriterPeriodS;
      }
      return op;
    };
  };
  const Sessions plain =
      run_sessions(o, jn.path, false, models, req_of, expected, r, make_next);
  const Summary warm = plain.summary(0);
  r.e2e("setup_s", median(plain.setup_s), "s", plain.setup_s.size());
  class_metrics(r, "warm_", warm, "us", 1e3);
  class_metrics(r, "cold_", plain.summary(1), "ms", 1.0);
  r.e2e("rss_mb", median_rss(plain), "MB", plain.runs.size());
  headline(r, warm);
  r.info["ops"] = "warm reads";
  if (o.trace == 0) return;

  const Sessions traced =
      run_sessions(o, jn.path, true, models, req_of, expected, r, make_next);
  traced_layers(plain, traced, 1, 0, r);
  const Samples all_plain = [&] {
    Samples a = plain.pooled(0);
    a.append(plain.pooled(1));
    return a;
  }();
  r.layer("client.characterize_mc_ms", all_plain.mean(), "ms", all_plain.size(), "run");

  probe_store(jn.path, jn.keys, o.work, o.seed, r);
  probe_row_products(kDesigns[0], o.seed, r);
}

}  // namespace pb
