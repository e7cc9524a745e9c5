// Campaign subsystem: content-addressed result store (journal format, torn-
// tail recovery, gc), canonical request keys, payload codecs, and the
// resumable runner.  The crash-recovery fuzz loop is the load-bearing test:
// it truncates a journal at *every* byte offset of the final record and
// asserts open() always recovers every prior record without crashing.
// Readers beside writers, a real short write (RLIMIT_FSIZE) and a failed
// rollback (seccomp) cover the store's concurrency and append-failure
// contract; the faults are provoked in forked children, not by hooks.

#include "realm/campaign/result_store.hpp"

#include <atomic>
#include <csignal>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>
#ifdef __linux__
#include <linux/filter.h>
#include <linux/seccomp.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#endif

#include <gtest/gtest.h>

#include "realm/campaign/cached_eval.hpp"
#include "realm/campaign/record.hpp"
#include "realm/campaign/runner.hpp"
#include "realm/error/monte_carlo.hpp"
#include "realm/multipliers/registry.hpp"
#include "realm/obs/counters.hpp"

namespace fs = std::filesystem;
using namespace realm;
using campaign::CampaignRunner;
using campaign::ResultStore;

namespace {

/// Fresh path under the system temp dir; removed on destruction.
class TempStorePath {
 public:
  explicit TempStorePath(const std::string& tag) {
    static int counter = 0;
    path_ = (fs::temp_directory_path() /
             ("realm_test_" + tag + "_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter++) + ".store"))
                .string();
    std::remove(path_.c_str());
  }
  ~TempStorePath() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& str() const noexcept { return path_; }

 private:
  std::string path_;
};

[[nodiscard]] std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Death-test child check: report `what` and exit 1 unless `ok`.
void child_require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "child check failed: %s\n", what);
    std::_Exit(1);
  }
}

/// Runs in a death-test child.  Lowers RLIMIT_FSIZE to 30 bytes past the
/// journal's end, with SIGXFSZ ignored, so the kernel writes 30 bytes of the
/// next record and fails the rest with EFBIG: a real short write, no hook
/// in the store.  Returns put()'s error message ("" if it did not throw)
/// after restoring the limit.
std::string put_past_file_size_limit(ResultStore& store, const std::string& key) {
  std::signal(SIGXFSZ, SIG_IGN);
  rlimit saved{};
  child_require(::getrlimit(RLIMIT_FSIZE, &saved) == 0, "getrlimit");
  rlimit low = saved;
  low.rlim_cur = static_cast<rlim_t>(fs::file_size(store.path()) + 30);
  child_require(::setrlimit(RLIMIT_FSIZE, &low) == 0, "lower RLIMIT_FSIZE");
  std::string error;
  try {
    store.put(key, std::string(100, 'x'));
  } catch (const std::runtime_error& e) {
    error = e.what();
  }
  child_require(::setrlimit(RLIMIT_FSIZE, &saved) == 0, "restore RLIMIT_FSIZE");
  return error;
}

}  // namespace

TEST(ResultStore, PutGetRoundTripAndPersistence) {
  TempStorePath tmp{"roundtrip"};
  {
    ResultStore store{tmp.str()};
    EXPECT_EQ(store.size(), 0u);
    EXPECT_FALSE(store.get("k1").has_value());
    store.put("k1", "payload one");
    store.put("k2", std::string("binary\0payload", 14));
    ASSERT_TRUE(store.get("k1").has_value());
    EXPECT_EQ(*store.get("k1"), "payload one");
    EXPECT_EQ(store.get("k2")->size(), 14u);
  }
  // Reopen: the journal replays to the same index.
  ResultStore reopened{tmp.str()};
  EXPECT_EQ(reopened.size(), 2u);
  EXPECT_EQ(*reopened.get("k1"), "payload one");
  EXPECT_EQ(reopened.keys(), (std::vector<std::string>{"k1", "k2"}));
}

TEST(ResultStore, LatestRecordWinsAndGcDropsSuperseded) {
  TempStorePath tmp{"latest"};
  ResultStore store{tmp.str()};
  store.put("k", "old");
  store.put("other", "x");
  store.put("k", "new");
  EXPECT_EQ(*store.get("k"), "new");
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.stats().records_replayed + store.stats().records_appended, 3u);

  const std::uint64_t dropped = store.compact();
  EXPECT_EQ(dropped, 1u);
  EXPECT_EQ(*store.get("k"), "new");
  EXPECT_EQ(store.size(), 2u);

  // The compacted journal replays clean and keeps first-seen order.
  ResultStore reopened{tmp.str(), ResultStore::Mode::kReadOnly};
  EXPECT_EQ(reopened.stats().records_replayed, 2u);
  EXPECT_EQ(reopened.stats().torn_bytes_dropped, 0u);
  EXPECT_EQ(reopened.keys(), (std::vector<std::string>{"k", "other"}));
}

TEST(ResultStore, EmptyPayloadAndEmptyKeyEdgeCases) {
  TempStorePath tmp{"edges"};
  ResultStore store{tmp.str()};
  store.put("empty-payload", "");
  ASSERT_TRUE(store.get("empty-payload").has_value());
  EXPECT_EQ(store.get("empty-payload")->size(), 0u);
  EXPECT_THROW(store.put("", "x"), std::runtime_error);
}

TEST(ResultStore, RefusesForeignFilesAndReadOnlyPuts) {
  TempStorePath tmp{"foreign"};
  write_file(tmp.str(), "definitely not a campaign store, much longer than magic");
  EXPECT_THROW(ResultStore{tmp.str()}, std::runtime_error);

  TempStorePath rw{"romode"};
  { ResultStore store{rw.str()}; store.put("k", "v"); }
  ResultStore ro{rw.str(), ResultStore::Mode::kReadOnly};
  EXPECT_EQ(*ro.get("k"), "v");
  EXPECT_THROW(ro.put("k2", "v2"), std::runtime_error);
  EXPECT_THROW(ro.compact(), std::runtime_error);
}

TEST(ResultStore, MissingFileInReadOnlyModeThrows) {
  TempStorePath tmp{"missing"};
  EXPECT_THROW((ResultStore{tmp.str(), ResultStore::Mode::kReadOnly}),
               std::runtime_error);
}

// The crash-recovery invariant: truncating the journal at ANY byte offset
// within (or after) the final record must recover every earlier record, and
// a read-write reopen must leave a clean journal that accepts new puts.
TEST(ResultStore, TornTailRecoveryAtEveryByteOffset) {
  TempStorePath tmp{"fuzz"};
  std::vector<std::pair<std::string, std::string>> records;
  for (int i = 0; i < 4; ++i) {
    records.emplace_back("key-" + std::to_string(i),
                         "payload-" + std::string(static_cast<std::size_t>(i) * 7, 'x') +
                             std::to_string(i));
  }
  std::string full;
  std::size_t prefix_end = 0;  // journal size after the first 3 records
  {
    ResultStore store{tmp.str()};
    for (std::size_t i = 0; i < records.size(); ++i) {
      store.put(records[i].first, records[i].second);
      if (i + 1 == records.size() - 1) prefix_end = fs::file_size(tmp.str());
    }
    full = read_file(tmp.str());
  }
  ASSERT_GT(prefix_end, 0u);
  ASSERT_GT(full.size(), prefix_end);

  TempStorePath cut{"fuzzcut"};
  for (std::size_t len = prefix_end; len < full.size(); ++len) {
    write_file(cut.str(), full.substr(0, len));
    {
      // Read-only: ignores the torn tail, never modifies the file.
      ResultStore ro{cut.str(), ResultStore::Mode::kReadOnly};
      EXPECT_EQ(ro.size(), records.size() - 1) << "truncated at " << len;
      EXPECT_EQ(ro.stats().torn_bytes_dropped, len - prefix_end)
          << "truncated at " << len;
      EXPECT_EQ(fs::file_size(cut.str()), len);
    }
    {
      // Read-write: truncates the torn tail and stays appendable.
      ResultStore rw{cut.str()};
      EXPECT_EQ(rw.size(), records.size() - 1) << "truncated at " << len;
      for (std::size_t i = 0; i + 1 < records.size(); ++i) {
        ASSERT_TRUE(rw.contains(records[i].first)) << "truncated at " << len;
        EXPECT_EQ(*rw.get(records[i].first), records[i].second);
      }
      EXPECT_EQ(fs::file_size(cut.str()), prefix_end);
      rw.put("appended-after-recovery", "works");
    }
    ResultStore again{cut.str(), ResultStore::Mode::kReadOnly};
    EXPECT_EQ(again.size(), records.size()) << "truncated at " << len;
    EXPECT_EQ(*again.get("appended-after-recovery"), "works");
  }
}

TEST(ResultStore, CorruptedByteInBodyDropsTheTailRecord) {
  TempStorePath tmp{"corrupt"};
  {
    ResultStore store{tmp.str()};
    store.put("a", "first payload");
    store.put("b", "second payload");
  }
  std::string bytes = read_file(tmp.str());
  bytes[bytes.size() - 3] ^= 0x40;  // flip a bit inside b's payload
  write_file(tmp.str(), bytes);

  ResultStore store{tmp.str()};
  EXPECT_EQ(store.size(), 1u);  // checksum catches the flip; b is dropped
  EXPECT_TRUE(store.contains("a"));
  EXPECT_FALSE(store.contains("b"));
  EXPECT_GT(store.stats().torn_bytes_dropped, 0u);
}

TEST(ResultStore, TornHeaderOnCreationRestartsJournal) {
  TempStorePath tmp{"tornhdr"};
  write_file(tmp.str(), "REA");  // crash mid file-magic
  ResultStore store{tmp.str()};
  EXPECT_EQ(store.size(), 0u);
  store.put("k", "v");
  ResultStore reopened{tmp.str(), ResultStore::Mode::kReadOnly};
  EXPECT_EQ(*reopened.get("k"), "v");
}

// Readers never wait on journal I/O.  The test counts instead of timing: a
// reader that queued behind every put()'s fsync would complete about one
// read per put or fewer, not ten.
TEST(ResultStore, ReadersProgressBesideAWriter) {
  TempStorePath tmp{"readers"};
  { ResultStore seed{tmp.str()}; seed.put("warm", "replayed payload"); }
  ResultStore store{tmp.str()};
  constexpr std::uint64_t kPuts = 200;
  std::atomic<bool> reader_started{false};
  std::atomic<bool> writer_done{false};
  std::uint64_t reads = 0;
  bool all_hits = true;
  std::thread reader([&] {
    reader_started.store(true);
    while (!writer_done.load()) {
      const auto payload = store.get("warm");
      all_hits = all_hits && payload && *payload == "replayed payload";
      ++reads;
    }
  });
  while (!reader_started.load()) std::this_thread::yield();
  for (std::uint64_t i = 0; i < kPuts; ++i) {
    store.put("cold-" + std::to_string(i), std::string(64, 'c'));
  }
  writer_done.store(true);
  reader.join();
  EXPECT_TRUE(all_hits);
  EXPECT_GE(reads, 10 * kPuts) << reads << " reads beside " << kPuts << " puts";
}

TEST(ResultStore, ConcurrentWritersAndReadersKeepEveryRecord) {
  TempStorePath tmp{"stress"};
  constexpr int kWriters = 4;
  constexpr int kKeysPerWriter = 200;
  const auto key_of = [](int w, int i) {
    std::string key = "w";  // appended piecewise: "w" + to_string(w) trips gcc 12's -Wrestrict
    key += std::to_string(w);
    key += "-k";
    key += std::to_string(i);
    return key;
  };
  const auto payload_of = [](const std::string& key) { return "payload of " + key; };
  {
    ResultStore store{tmp.str()};
    std::atomic<int> writers_left{kWriters};
    std::atomic<bool> wrong_payload{false};
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        for (int i = 0; i < kKeysPerWriter; ++i) {
          const std::string key = key_of(w, i);
          store.put(key, payload_of(key));
        }
        writers_left.fetch_sub(1);
      });
    }
    for (int r = 0; r < 2; ++r) {
      threads.emplace_back([&, r] {
        for (int i = r; writers_left.load() > 0; ++i) {
          const std::string key = key_of(i % kWriters, i % kKeysPerWriter);
          // A visible record is a complete one.
          const auto payload = store.get(key);
          if (payload && *payload != payload_of(key)) wrong_payload.store(true);
          (void)store.stats();
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_FALSE(wrong_payload.load());
    EXPECT_EQ(store.stats().records_appended, 800u);
  }
  ResultStore reopened{tmp.str(), ResultStore::Mode::kReadOnly};
  EXPECT_EQ(reopened.size(), 800u);
  EXPECT_EQ(reopened.stats().torn_bytes_dropped, 0u);
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kKeysPerWriter; ++i) {
      const std::string key = key_of(w, i);
      const auto payload = reopened.get(key);
      ASSERT_TRUE(payload.has_value()) << key;
      EXPECT_EQ(*payload, payload_of(key));
    }
  }
}

// A short write is rolled back: the store stays appendable, and a reopen
// replays every record but the failed one with no torn bytes.  Without the
// rollback, the next put lands after the partial record and replay drops it.
TEST(ResultStore, ShortWriteIsRolledBackAndLaterPutsSurviveReopen) {
  TempStorePath tmp{"shortwrite"};
  const auto child = [&tmp] {
    ResultStore store{tmp.str()};
    store.put("before", "kept");
    const std::uintmax_t good_end = fs::file_size(tmp.str());
    const std::uint64_t failures0 =
        obs::counter_value(obs::Counter::kStoreAppendFailures);
    const std::string error = put_past_file_size_limit(store, "failed");
    child_require(!error.empty(), "put() throws");
    child_require(obs::counter_value(obs::Counter::kStoreAppendFailures) == failures0 + 1,
                  "store_append_failures counts the failure");
    child_require(!store.contains("failed"), "the failed record is not published");
    child_require(fs::file_size(tmp.str()) == good_end, "journal cut back to its good end");
    store.put("after-1", "a1");
    store.put("after-2", "a2");

    ResultStore reopened{tmp.str(), ResultStore::Mode::kReadOnly};
    child_require(reopened.keys() == std::vector<std::string>{"before", "after-1", "after-2"},
                  "reopen replays every record but the failed one");
    child_require(reopened.stats().torn_bytes_dropped == 0, "no torn bytes");
    child_require(*reopened.get("after-2") == "a2", "later payloads intact");
    std::fprintf(stderr, "short write rolled back\n");
    std::_Exit(0);
  };
  EXPECT_EXIT(child(), ::testing::ExitedWithCode(0), "short write rolled back");
}

#ifdef __linux__
// When the rollback fails too, the store turns read-only instead of
// appending after the partial record.  A seccomp filter in the child makes
// ftruncate fail with EIO.
TEST(ResultStore, FailedRollbackTurnsTheStoreReadOnly) {
  TempStorePath tmp{"rollbackfail"};
  const auto child = [&tmp] {
    ResultStore store{tmp.str()};
    store.put("before", "kept");
    sock_filter filter[] = {
        BPF_STMT(BPF_LD | BPF_W | BPF_ABS, offsetof(seccomp_data, nr)),
        BPF_JUMP(BPF_JMP | BPF_JEQ | BPF_K, __NR_ftruncate, 0, 1),
        BPF_STMT(BPF_RET | BPF_K, SECCOMP_RET_ERRNO | EIO),
        BPF_STMT(BPF_RET | BPF_K, SECCOMP_RET_ALLOW),
    };
    sock_fprog program{static_cast<unsigned short>(std::size(filter)), filter};
    child_require(::prctl(PR_SET_NO_NEW_PRIVS, 1, 0, 0, 0) == 0, "no_new_privs");
    child_require(::prctl(PR_SET_SECCOMP, SECCOMP_MODE_FILTER, &program) == 0,
                  "install the ftruncate filter");

    const std::string error = put_past_file_size_limit(store, "failed");
    child_require(!error.empty(), "put() throws");
    std::string later;
    try {
      store.put("later", "never appended");
    } catch (const std::runtime_error& e) {
      later = e.what();
    }
    child_require(later.find("read-only") != std::string::npos,
                  "later puts are refused");
    child_require(store.get("before") == std::optional<std::string>{"kept"},
                  "reads still work");

    ResultStore reopened{tmp.str(), ResultStore::Mode::kReadOnly};
    child_require(reopened.keys() == std::vector<std::string>{"before"},
                  "nothing was appended after the partial record");
    child_require(reopened.stats().torn_bytes_dropped == 30, "the partial record is the tail");
    std::fprintf(stderr, "store turned read-only\n");
    std::_Exit(0);
  };
  EXPECT_EXIT(child(), ::testing::ExitedWithCode(0), "store turned read-only");
}
#endif

TEST(ResultStore, ContentHashIsStableAndCollisionSafeByFullKey) {
  EXPECT_EQ(campaign::content_hash_hex("").size(), 16u);
  EXPECT_EQ(campaign::fnv1a64(""), 0xcbf29ce484222325ULL);  // FNV offset basis
  EXPECT_NE(campaign::fnv1a64("a"), campaign::fnv1a64("b"));
  // Index is keyed by the full string, so equal hashes could never alias.
  TempStorePath tmp{"hash"};
  ResultStore store{tmp.str()};
  store.put("x", "1");
  store.put("y", "2");
  EXPECT_EQ(*store.get("x"), "1");
  EXPECT_EQ(*store.get("y"), "2");
}

TEST(RequestKey, CanonicalAndOrderSensitive) {
  const std::string k1 = campaign::RequestKey{"error_mc"}
                             .field("spec", "realm:m=16,t=0")
                             .field("n", 16)
                             .str();
  const std::string k2 = campaign::RequestKey{"error_mc"}
                             .field("spec", "realm:m=16,t=0")
                             .field("n", 16)
                             .str();
  EXPECT_EQ(k1, k2);
  EXPECT_NE(k1, campaign::RequestKey{"error_mc"}.field("n", 16).str());
  EXPECT_EQ(k1.rfind("realm-campaign/v1|error_mc|", 0), 0u) << k1;
}

TEST(Payload, HexFloatRoundTripIsBitExact) {
  const double values[] = {0.0,     -0.0,   1.0 / 3.0,          -123.456e-30,
                           5e-324,  1e308,  0x1.fffffffffffffp0, 42.0};
  const auto name = [](std::size_t i) {
    std::string s{"f"};
    s += std::to_string(i);
    return s;
  };
  campaign::PayloadWriter w;
  for (std::size_t i = 0; i < std::size(values); ++i) {
    w.field(name(i), values[i]);
  }
  w.field("u", std::uint64_t{0xFFFFFFFFFFFFFFFFULL});
  w.field("i", std::int64_t{-42});
  const campaign::PayloadReader r{w.str()};
  for (std::size_t i = 0; i < std::size(values); ++i) {
    const double back = r.get_double(name(i));
    EXPECT_EQ(std::memcmp(&back, &values[i], sizeof back), 0) << values[i];
  }
  EXPECT_EQ(r.get_u64("u"), 0xFFFFFFFFFFFFFFFFULL);
  EXPECT_EQ(r.get_i64("i"), -42);
  EXPECT_TRUE(r.has("u"));
  EXPECT_FALSE(r.has("nope"));
  EXPECT_THROW((void)r.get_double("nope"), std::runtime_error);
  EXPECT_THROW((void)r.get_u64("f0"), std::runtime_error);
  EXPECT_THROW(campaign::PayloadReader{"no equals sign"}, std::runtime_error);
}

TEST(Payload, ErrorMetricsSerializationIsExact) {
  err::ErrorMetrics m;
  m.bias = -0.123456789123456789;
  m.mean = 3.0303703183672249e-2;
  m.variance = 1.0 / 7.0;
  m.min = -9.87e-5;
  m.max = 2.0 / 3.0;
  m.samples = (std::uint64_t{1} << 24) + 17;
  const err::ErrorMetrics back =
      campaign::parse_error_metrics(campaign::serialize_error_metrics(m));
  EXPECT_EQ(std::memcmp(&back.bias, &m.bias, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&back.mean, &m.mean, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&back.variance, &m.variance, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&back.min, &m.min, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&back.max, &m.max, sizeof(double)), 0);
  EXPECT_EQ(back.samples, m.samples);
}

TEST(CampaignRunner, ResumeServesStoredUnitsWithoutRecompute) {
  TempStorePath tmp{"runner"};
  ResultStore store{tmp.str()};
  int computes = 0;
  const auto compute = [&] {
    ++computes;
    return std::string{"result"};
  };

  CampaignRunner cold{&store, /*resume=*/false};
  EXPECT_EQ(cold.run_unit("unit", compute), "result");
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(cold.units_computed(), 1u);
  EXPECT_EQ(cold.units_resumed(), 0u);
  // Non-resume mode recomputes even though the store has the unit.
  EXPECT_EQ(cold.run_unit("unit", compute), "result");
  EXPECT_EQ(computes, 2);

  CampaignRunner warm{&store, /*resume=*/true};
  EXPECT_EQ(warm.run_unit("unit", compute), "result");
  EXPECT_EQ(computes, 2);  // served from the journal
  EXPECT_EQ(warm.units_resumed(), 1u);
  EXPECT_EQ(warm.run_unit("other", compute), "result");
  EXPECT_EQ(computes, 3);
  EXPECT_EQ(warm.units_computed(), 1u);
}

TEST(CampaignRunner, StoreCountersTrackHitsAndMisses) {
  TempStorePath tmp{"counters"};
  ResultStore store{tmp.str()};
  const auto hits0 = obs::counter_value(obs::Counter::kStoreHits);
  const auto miss0 = obs::counter_value(obs::Counter::kStoreMisses);
  const auto written0 = obs::counter_value(obs::Counter::kStoreBytesWritten);
  (void)store.get("absent");
  store.put("k", "v");
  (void)store.get("k");
  EXPECT_EQ(obs::counter_value(obs::Counter::kStoreHits), hits0 + 1);
  EXPECT_EQ(obs::counter_value(obs::Counter::kStoreMisses), miss0 + 1);
  EXPECT_GT(obs::counter_value(obs::Counter::kStoreBytesWritten), written0);
}

TEST(CampaignRunner, CrashInjectionExitsAfterNthComputedUnit) {
  TempStorePath tmp{"crash"};
  // Death test: the child computes units until the injected _Exit fires; the
  // unit completed before the crash must already be durable in the journal.
  const auto crash_body = [&tmp] {
    setenv("REALM_CAMPAIGN_CRASH_AFTER", "1", 1);
    ResultStore store{tmp.str()};
    CampaignRunner runner{&store, false};
    (void)runner.run_unit("u1", [] { return std::string{"p1"}; });
    (void)runner.run_unit("u2", [] { return std::string{"p2"}; });
  };
  EXPECT_EXIT(crash_body(), ::testing::ExitedWithCode(campaign::kCrashExitCode),
              "injected crash");
}

TEST(CachedEval, MonteCarloMatchesDirectAndResumesExactly) {
  TempStorePath tmp{"mc"};
  const std::string spec = "realm:m=8,t=2";
  const auto model = mult::make_multiplier(spec, 16);
  err::MonteCarloOptions opts;
  opts.samples = 1 << 12;

  const err::ErrorMetrics direct = err::monte_carlo(*model, opts);
  ResultStore store{tmp.str()};
  CampaignRunner cold{&store, false};
  const err::ErrorMetrics computed =
      campaign::cached_monte_carlo(&cold, *model, spec, 16, opts);
  CampaignRunner warm{&store, true};
  const err::ErrorMetrics resumed =
      campaign::cached_monte_carlo(&warm, *model, spec, 16, opts);
  EXPECT_EQ(warm.units_resumed(), 1u);

  for (const auto* m : {&computed, &resumed}) {
    EXPECT_EQ(std::memcmp(&m->bias, &direct.bias, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&m->mean, &direct.mean, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&m->variance, &direct.variance, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&m->min, &direct.min, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&m->max, &direct.max, sizeof(double)), 0);
    EXPECT_EQ(m->samples, direct.samples);
  }

  // Thread count is not part of the key: a result computed at any
  // parallelism resumes a run at any other.
  err::MonteCarloOptions threaded = opts;
  threaded.threads = 3;
  EXPECT_EQ(campaign::monte_carlo_key(spec, 16, opts),
            campaign::monte_carlo_key(spec, 16, threaded));
  err::MonteCarloOptions other_seed = opts;
  other_seed.seed ^= 1;
  EXPECT_NE(campaign::monte_carlo_key(spec, 16, opts),
            campaign::monte_carlo_key(spec, 16, other_seed));
}

TEST(CachedEval, FaultSummaryResumesExactly) {
  TempStorePath tmp{"faults"};
  ResultStore store{tmp.str()};
  CampaignRunner cold{&store, false};
  const auto computed =
      campaign::cached_fault_impact(&cold, "calm", 8, 16, 0xFA, 64, 1);
  CampaignRunner warm{&store, true};
  const auto resumed =
      campaign::cached_fault_impact(&warm, "calm", 8, 16, 0xFA, 64, 1);
  EXPECT_EQ(warm.units_resumed(), 1u);
  EXPECT_EQ(computed.gates, resumed.gates);
  EXPECT_EQ(computed.sites_analyzed, resumed.sites_analyzed);
  EXPECT_EQ(computed.sites_undetected, resumed.sites_undetected);
  EXPECT_EQ(std::memcmp(&computed.mean_rel_error, &resumed.mean_rel_error,
                        sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&computed.worst_rel_error, &resumed.worst_rel_error,
                        sizeof(double)),
            0);
}
