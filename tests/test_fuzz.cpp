// Deterministic mutation fuzzing of the serving edge: the design-spec
// parser, the frame decoder and a loopback server.  A fixed seed and a fixed
// iteration budget make every run identical, so a failure reproduces from
// its iteration number alone; no fuzzing engine is needed.
//
//   * every spec the parser accepts round-trips through its canonical form,
//     and every rejection is std::invalid_argument;
//   * FrameDecoder never crashes on a mutated byte stream and never yields a
//     frame whose checksum does not match its bytes;
//   * the server answers or closes on every mutated frame and stays up.

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "realm/campaign/record.hpp"
#include "realm/multipliers/registry.hpp"
#include "realm/net/client.hpp"
#include "realm/net/protocol.hpp"
#include "realm/net/server.hpp"
#include "realm/numeric/rng.hpp"

using namespace realm;
using net::Frame;
using net::FrameDecoder;
using net::MsgType;

namespace {

constexpr std::uint64_t kSeed = 0x5eedf022;
constexpr int kSpecIterations = 100000;
constexpr int kDecoderIterations = 20000;
constexpr int kServerIterations = 300;

/// Byte-level mutations biased toward the characters specs and bodies are
/// made of, plus splices between corpus entries.
class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_{seed} {}

  [[nodiscard]] std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(rng_.below(n));
  }

  template <typename T>
  [[nodiscard]] const T& pick(const std::vector<T>& v) {
    return v[below(v.size())];
  }

  [[nodiscard]] std::string mutate(std::string s,
                                   const std::vector<std::string>& corpus) {
    static constexpr char kAlphabet[] = "0123456789=,;:+- \n\t.xXmMtTqkl\0\xff";
    const auto byte = [&] { return kAlphabet[below(sizeof kAlphabet - 1)]; };
    const std::size_t rounds = 1 + below(4);
    for (std::size_t r = 0; r < rounds; ++r) {
      const std::size_t pos = below(s.size() + 1);
      switch (below(6)) {
        case 0:  // flip one bit
          if (!s.empty()) s[pos % s.size()] ^= static_cast<char>(1u << below(8));
          break;
        case 1:  // insert
          s.insert(s.begin() + static_cast<std::ptrdiff_t>(pos), byte());
          break;
        case 2:  // erase up to three bytes
          if (pos < s.size()) s.erase(pos, 1 + below(3));
          break;
        case 3:  // duplicate a slice
          if (pos < s.size()) s.insert(pos, s.substr(pos, 1 + below(8)));
          break;
        case 4: {  // splice in the tail of another entry
          const std::string& other = pick(corpus);
          s = s.substr(0, pos) + other.substr(below(other.size() + 1));
          break;
        }
        default:  // overwrite
          if (!s.empty()) s[pos % s.size()] = byte();
          break;
      }
    }
    return s;
  }

 private:
  num::Xoshiro256 rng_;
};

[[nodiscard]] std::vector<std::string> spec_corpus() {
  std::vector<std::string> specs = mult::table1_specs();
  for (const auto& s : mult::table2_specs()) specs.push_back(s);
  for (const auto& s : mult::fig1_specs()) specs.push_back(s);
  for (const char* s : {"accurate", "mitchell", "calm:adder=1", "calm:adder=2",
                        "realm:m=8,t=0,q=5,mse=1", "REALM:t=2;m=8", "mbm:t=2,q=8"}) {
    specs.emplace_back(s);
  }
  return specs;
}

/// One valid request body per request kind, each cheap to serve.
[[nodiscard]] std::vector<std::pair<MsgType, std::string>> request_corpus() {
  using campaign::PayloadWriter;
  return {
      {MsgType::kPing, ""},
      {MsgType::kStats, ""},
      {MsgType::kMultiplyBatch, PayloadWriter{}
                                    .field_str("spec", "realm:m=16,t=4")
                                    .field("n", std::int64_t{16})
                                    .field_str("a", "3,5,65535")
                                    .field_str("b", "7,0,2")
                                    .str()},
      {MsgType::kCharacterizeMc, PayloadWriter{}
                                     .field_str("spec", "drum:k=6")
                                     .field("n", std::int64_t{8})
                                     .field("samples", std::uint64_t{64})
                                     .field("seed", std::uint64_t{7})
                                     .str()},
      {MsgType::kCharacterizeExhaustive, PayloadWriter{}
                                             .field_str("spec", "mbm:t=0")
                                             .field("n", std::int64_t{8})
                                             .field("lo", std::uint64_t{0})
                                             .field("hi", std::uint64_t{15})
                                             .str()},
      {MsgType::kSynthesisCost, PayloadWriter{}
                                    .field_str("spec", "calm")
                                    .field("n", std::int64_t{4})
                                    .field("cycles", std::uint64_t{16})
                                    .str()},
      {MsgType::kSijLookup, PayloadWriter{}
                                .field("m", std::int64_t{4})
                                .field("q", std::int64_t{6})
                                .str()},
  };
}

/// A loopback server with its event loop on a background thread; drained
/// and joined on destruction, so a failed assertion cannot leak the loop.
class LoopbackServer {
 public:
  explicit LoopbackServer(net::ServerOptions opts) : server_{std::move(opts)} {
    server_.start();
    loop_ = std::thread{[this] { server_.run(); }};
  }
  ~LoopbackServer() {
    server_.request_stop();
    loop_.join();
  }
  [[nodiscard]] int port() const noexcept { return server_.port(); }

 private:
  net::Server server_;
  std::thread loop_;
};

[[nodiscard]] std::vector<std::string> frame_corpus() {
  std::vector<std::string> frames;
  std::uint64_t seq = 0;
  for (const auto& [type, body] : request_corpus()) {
    frames.push_back(net::encode_frame(type, ++seq, body));
  }
  return frames;
}

}  // namespace

TEST(Fuzz, SpecParserRoundTripsOrRejectsWithInvalidArgument) {
  const std::vector<std::string> corpus = spec_corpus();
  Mutator mut{kSeed};
  int accepted = 0, folded = 0, rejected = 0;
  for (int it = 0; it < kSpecIterations; ++it) {
    const std::string input = mut.mutate(mut.pick(corpus), corpus);
    try {
      const auto spec = mult::DesignSpec::parse(input);
      const std::string canonical = spec.to_string();
      const auto again = mult::DesignSpec::parse(canonical);
      ASSERT_EQ(again, spec) << "iteration " << it << ": '" << input << "'";
      ASSERT_EQ(again.to_string(), canonical) << "iteration " << it;
      ++accepted;
      if (canonical != input) ++folded;
    } catch (const std::invalid_argument&) {
      ++rejected;
    } catch (const std::exception& e) {
      FAIL() << "iteration " << it << ": '" << input << "' threw " << e.what();
    }
  }
  // The budget must exercise both sides of the parser.
  EXPECT_GT(accepted, kSpecIterations / 100);
  EXPECT_GT(folded, 0);
  EXPECT_GT(rejected, kSpecIterations / 2);
}

TEST(Fuzz, FrameDecoderSurvivesMutatedStreams) {
  const std::vector<std::string> corpus = frame_corpus();
  constexpr std::size_t kMaxBody = 64;  // below most corpus bodies: exercises discard
  Mutator mut{kSeed + 1};
  std::size_t events[5] = {};
  for (int it = 0; it < kDecoderIterations; ++it) {
    std::string stream;
    for (std::size_t f = 1 + mut.below(3); f > 0; --f) stream += mut.pick(corpus);
    stream = mut.mutate(std::move(stream), corpus);

    FrameDecoder dec{kMaxBody};
    std::size_t fed = 0;
    bool poisoned = false;
    while (fed < stream.size() && !poisoned) {
      const std::size_t chunk = std::min(stream.size() - fed, 1 + mut.below(64));
      dec.feed(stream.data() + fed, chunk);
      fed += chunk;
      for (;;) {
        Frame f;
        const FrameDecoder::Status st = dec.next(f);
        ++events[static_cast<std::size_t>(st)];
        if (st == FrameDecoder::Status::kNeedMore) break;
        if (st == FrameDecoder::Status::kBadMagic) {
          poisoned = true;
          break;
        }
        if (st == FrameDecoder::Status::kFrame) {
          // A yielded frame re-encodes to bytes that are in the stream, so
          // its checksum matched what arrived.
          ASSERT_NE(stream.find(net::encode_frame(f.type, f.seq, f.body)),
                    std::string::npos)
              << "iteration " << it;
        }
      }
      ASSERT_LE(dec.buffered(), net::kFrameHeaderBytes + kMaxBody) << "iteration " << it;
    }
  }
  for (std::size_t s = 1; s < 5; ++s) EXPECT_GT(events[s], 0u) << "status " << s;
}

TEST(Fuzz, ServerAnswersOrClosesEveryMutatedFrame) {
  net::ServerOptions opts;
  opts.max_frame_bytes = 4096;
  opts.engine_threads = 1;
  const LoopbackServer server{std::move(opts)};

  const auto requests = request_corpus();
  const std::vector<std::string> frames = frame_corpus();
  std::vector<std::string> bodies;
  for (const auto& [type, body] : requests) bodies.push_back(body);
  Mutator mut{kSeed + 2};
  int ok = 0, errors = 0;
  for (int it = 0; it < kServerIterations; ++it) {
    // Even iterations mutate a body under a valid checksum, so the mutation
    // reaches request parsing; odd ones mutate the raw frame bytes.
    std::string bytes;
    if (it % 2 == 0) {
      const auto& [type, body] = mut.pick(requests);
      bytes = net::encode_frame(type, static_cast<std::uint64_t>(it),
                                mut.mutate(body, bodies));
    } else {
      bytes = mut.mutate(mut.pick(frames), frames);
    }
    net::Client c;
    c.connect_tcp(server.port());
    c.send_raw(bytes);
    c.shutdown_write();
    // Drain until the server closes; a timeout means it did neither.
    for (;;) {
      Frame r;
      try {
        r = c.recv_reply(60000);
      } catch (const net::TimeoutError&) {
        FAIL() << "iteration " << it << ": no reply and no close";
      } catch (const std::runtime_error&) {
        break;  // closed
      }
      (r.type == MsgType::kReplyOk ? ok : errors) += 1;
    }
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(errors, 0);

  // Still serving.
  net::Client c;
  c.connect_tcp(server.port());
  EXPECT_EQ(c.call(MsgType::kPing, 1, {}).type, MsgType::kReplyOk);
}
