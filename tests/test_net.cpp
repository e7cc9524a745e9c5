// Serving layer: frame codec round-trips, torn-stream reassembly at every
// split offset, typed rejection of oversized/corrupt/unsynchronized frames,
// and end-to-end server behavior (request kinds, warm-hit byte identity,
// error replies that keep the connection, kill-mid-request, graceful drain,
// connection limits, backpressure, idle timeout) over TCP and Unix sockets.

#include "realm/net/protocol.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "realm/campaign/cached_eval.hpp"
#include "realm/campaign/record.hpp"
#include "realm/campaign/result_store.hpp"
#include "realm/campaign/runner.hpp"
#include "realm/core/lut.hpp"
#include "realm/error/monte_carlo.hpp"
#include "realm/multipliers/registry.hpp"
#include "realm/net/client.hpp"
#include "realm/net/server.hpp"
#include "realm/obs/counters.hpp"
#include "realm/obs/slo_window.hpp"
#include "realm/obs/trace.hpp"

namespace fs = std::filesystem;
using namespace realm;
using net::ErrorCode;
using net::Frame;
using net::FrameDecoder;
using net::MsgType;

namespace {

/// Fresh path under the system temp dir; removed on destruction.
class TempPath {
 public:
  explicit TempPath(const std::string& tag) {
    static int counter = 0;
    path_ = (fs::temp_directory_path() /
             ("realm_net_" + tag + "_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter++)))
                .string();
    std::remove(path_.c_str());
  }
  ~TempPath() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& str() const noexcept { return path_; }

 private:
  std::string path_;
};

/// An in-process server on an ephemeral port (or Unix socket) with its event
/// loop on a background thread; stopped and joined on destruction.
class TestServer {
 public:
  explicit TestServer(net::ServerOptions opts) : server_{std::move(opts)} {
    server_.start();
    loop_ = std::thread{[this] { server_.run(); }};
  }
  ~TestServer() { stop(); }

  void stop() {
    if (loop_.joinable()) {
      server_.request_stop();
      loop_.join();
    }
  }

  [[nodiscard]] int port() const noexcept { return server_.port(); }
  [[nodiscard]] net::Server& server() noexcept { return server_; }

 private:
  net::Server server_;
  std::thread loop_;
};

[[nodiscard]] std::string ping_frame(std::uint64_t seq) {
  return net::encode_frame(MsgType::kPing, seq, {});
}

[[nodiscard]] std::string multiply_body(const std::string& spec, int n,
                                        const std::vector<std::uint64_t>& a,
                                        const std::vector<std::uint64_t>& b) {
  return campaign::PayloadWriter{}
      .field_str("spec", spec)
      .field("n", static_cast<std::int64_t>(n))
      .field_str("a", net::encode_u64_list(a))
      .field_str("b", net::encode_u64_list(b))
      .str();
}

[[nodiscard]] std::string mc_body(const std::string& spec, int n,
                                  std::uint64_t samples, std::uint64_t seed) {
  return campaign::PayloadWriter{}
      .field_str("spec", spec)
      .field("n", static_cast<std::int64_t>(n))
      .field("samples", samples)
      .field("seed", seed)
      .str();
}

}  // namespace

// -- codec ------------------------------------------------------------------

TEST(NetProtocol, FrameRoundTrip) {
  const std::string bytes = net::encode_frame(MsgType::kMultiplyBatch, 42, "hello");
  ASSERT_EQ(bytes.size(), net::kFrameHeaderBytes + 5);

  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  Frame f;
  ASSERT_EQ(dec.next(f), FrameDecoder::Status::kFrame);
  EXPECT_EQ(f.type, MsgType::kMultiplyBatch);
  EXPECT_EQ(f.seq, 42u);
  EXPECT_EQ(f.body, "hello");
  EXPECT_EQ(dec.next(f), FrameDecoder::Status::kNeedMore);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(NetProtocol, EmptyBodyRoundTrip) {
  const std::string bytes = ping_frame(7);
  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  Frame f;
  ASSERT_EQ(dec.next(f), FrameDecoder::Status::kFrame);
  EXPECT_EQ(f.type, MsgType::kPing);
  EXPECT_EQ(f.seq, 7u);
  EXPECT_TRUE(f.body.empty());
}

// The load-bearing reassembly test: a two-frame stream fed in two pieces,
// split at *every* byte offset, must decode to the identical frame sequence.
TEST(NetProtocol, TornReassemblyAtEverySplitOffset) {
  const std::string stream = net::encode_frame(MsgType::kCharacterizeMc, 1, "abc") +
                             net::encode_frame(MsgType::kSijLookup, 2, "defgh");
  for (std::size_t split = 0; split <= stream.size(); ++split) {
    FrameDecoder dec;
    dec.feed(stream.data(), split);
    std::vector<Frame> got;
    Frame f;
    while (dec.next(f) == FrameDecoder::Status::kFrame) got.push_back(f);
    dec.feed(stream.data() + split, stream.size() - split);
    while (dec.next(f) == FrameDecoder::Status::kFrame) got.push_back(f);
    ASSERT_EQ(got.size(), 2u) << "split at " << split;
    EXPECT_EQ(got[0].type, MsgType::kCharacterizeMc);
    EXPECT_EQ(got[0].seq, 1u);
    EXPECT_EQ(got[0].body, "abc");
    EXPECT_EQ(got[1].type, MsgType::kSijLookup);
    EXPECT_EQ(got[1].seq, 2u);
    EXPECT_EQ(got[1].body, "defgh");
  }
}

TEST(NetProtocol, ByteAtATimeFeed) {
  const std::string bytes = net::encode_frame(MsgType::kReplyOk, 9, "payload");
  FrameDecoder dec;
  Frame f;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    dec.feed(bytes.data() + i, 1);
    ASSERT_EQ(dec.next(f), FrameDecoder::Status::kNeedMore) << "byte " << i;
  }
  dec.feed(bytes.data() + bytes.size() - 1, 1);
  ASSERT_EQ(dec.next(f), FrameDecoder::Status::kFrame);
  EXPECT_EQ(f.body, "payload");
}

TEST(NetProtocol, OversizedFrameIsDiscardedAndReported) {
  FrameDecoder dec{16};  // tiny body cap
  const std::string big = net::encode_frame(MsgType::kMultiplyBatch, 5,
                                            std::string(1000, 'x'));
  const std::string after = ping_frame(6);
  dec.feed(big.data(), big.size());
  dec.feed(after.data(), after.size());
  Frame f;
  ASSERT_EQ(dec.next(f), FrameDecoder::Status::kTooLarge);
  EXPECT_EQ(f.type, MsgType::kMultiplyBatch);  // identity preserved
  EXPECT_EQ(f.seq, 5u);
  // The stream recovers: the following frame decodes normally.
  ASSERT_EQ(dec.next(f), FrameDecoder::Status::kFrame);
  EXPECT_EQ(f.seq, 6u);
}

TEST(NetProtocol, OversizedFrameTornBodyStaysBounded) {
  FrameDecoder dec{16};
  const std::string big =
      net::encode_frame(MsgType::kPing, 3, std::string(100000, 'y'));
  Frame f;
  for (std::size_t i = 0; i < big.size(); i += 7) {
    const std::size_t len = std::min<std::size_t>(7, big.size() - i);
    dec.feed(big.data() + i, len);
    EXPECT_LE(dec.buffered(), net::kFrameHeaderBytes + 16);
    (void)dec.next(f);
  }
  const std::string after = ping_frame(4);
  dec.feed(after.data(), after.size());
  ASSERT_EQ(dec.next(f), FrameDecoder::Status::kFrame);
  EXPECT_EQ(f.seq, 4u);
}

TEST(NetProtocol, BadChecksumIsReportedAndStreamContinues) {
  std::string bytes = net::encode_frame(MsgType::kSynthesisCost, 11, "body");
  bytes.back() = static_cast<char>(bytes.back() ^ 0x5a);  // corrupt the body
  const std::string after = ping_frame(12);
  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  dec.feed(after.data(), after.size());
  Frame f;
  ASSERT_EQ(dec.next(f), FrameDecoder::Status::kBadChecksum);
  EXPECT_EQ(f.type, MsgType::kSynthesisCost);
  EXPECT_EQ(f.seq, 11u);
  ASSERT_EQ(dec.next(f), FrameDecoder::Status::kFrame);
  EXPECT_EQ(f.seq, 12u);
}

TEST(NetProtocol, BadMagicPoisonsTheDecoder) {
  std::string bytes = ping_frame(1);
  bytes[0] = 'X';
  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  Frame f;
  ASSERT_EQ(dec.next(f), FrameDecoder::Status::kBadMagic);
  // Poisoned: even a pristine frame afterwards is never surfaced.
  const std::string good = ping_frame(2);
  dec.feed(good.data(), good.size());
  EXPECT_EQ(dec.next(f), FrameDecoder::Status::kBadMagic);
}

TEST(NetProtocol, ErrorReplyRoundTrip) {
  const std::string bytes =
      net::encode_error(33, ErrorCode::kFrameTooLarge, "too big");
  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  Frame f;
  ASSERT_EQ(dec.next(f), FrameDecoder::Status::kFrame);
  EXPECT_EQ(f.type, MsgType::kReplyError);
  EXPECT_EQ(f.seq, 33u);
  const net::ErrorReply err = net::parse_error(f.body);
  EXPECT_EQ(err.code, ErrorCode::kFrameTooLarge);
  EXPECT_EQ(err.message, "too big");
}

TEST(NetProtocol, ListCodecsRoundTrip) {
  const std::vector<std::uint64_t> u = {0, 1, 65535, ~std::uint64_t{0}};
  EXPECT_EQ(net::parse_u64_list(net::encode_u64_list(u)), u);
  const std::vector<double> d = {0.0, -1.5, 0.1, 3.141592653589793};
  EXPECT_EQ(net::parse_double_list(net::encode_double_list(d)), d);
  EXPECT_TRUE(net::parse_u64_list("").empty());
  EXPECT_THROW((void)net::parse_u64_list("1,x,3"), std::runtime_error);
  EXPECT_THROW((void)net::parse_double_list("1.0,,2.0"), std::runtime_error);
}

// -- end-to-end server ------------------------------------------------------

TEST(NetServer, PingOverTcp) {
  TestServer ts{net::ServerOptions{}};
  net::Client c;
  c.connect_tcp(ts.port());
  const Frame reply = c.call(MsgType::kPing, 1, {});
  EXPECT_EQ(reply.type, MsgType::kReplyOk);
  EXPECT_TRUE(reply.body.empty());
}

TEST(NetServer, PingOverUnixSocket) {
  TempPath sock{"sock"};
  net::ServerOptions opts;
  opts.unix_path = sock.str();
  TestServer ts{std::move(opts)};
  net::Client c;
  c.connect_unix(sock.str());
  const Frame reply = c.call(MsgType::kPing, 2, {});
  EXPECT_EQ(reply.type, MsgType::kReplyOk);
}

TEST(NetServer, MultiplyBatchMatchesLocalModel) {
  TestServer ts{net::ServerOptions{}};
  net::Client c;
  c.connect_tcp(ts.port());
  const std::vector<std::uint64_t> a = {0, 1, 1000, 65535, 31415};
  const std::vector<std::uint64_t> b = {0, 65535, 999, 65535, 27182};
  const Frame reply = c.call(MsgType::kMultiplyBatch, 4,
                             multiply_body("realm:m=16,t=4", 16, a, b));
  ASSERT_EQ(reply.type, MsgType::kReplyOk);
  const campaign::PayloadReader r{reply.body};
  const auto out = net::parse_u64_list(r.get_string("out"));
  const auto model = mult::make_multiplier("realm:m=16,t=4", 16);
  ASSERT_EQ(out.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(out[i], model->multiply(a[i], b[i])) << "element " << i;
  }
}

TEST(NetServer, CharacterizeMcMatchesLocalEngine) {
  TestServer ts{net::ServerOptions{}};
  net::Client c;
  c.connect_tcp(ts.port());
  const Frame reply =
      c.call(MsgType::kCharacterizeMc, 5, mc_body("calm", 16, 4096, 77), 60000);
  ASSERT_EQ(reply.type, MsgType::kReplyOk);
  const err::ErrorMetrics got = campaign::parse_error_metrics(reply.body);
  err::MonteCarloOptions opts;
  opts.samples = 4096;
  opts.seed = 77;
  const auto model = mult::make_multiplier("calm", 16);
  const err::ErrorMetrics want = err::monte_carlo(*model, opts);
  EXPECT_EQ(got.mean, want.mean);  // hex-float codec: bit-exact
  EXPECT_EQ(got.bias, want.bias);
  EXPECT_EQ(got.samples, want.samples);
}

TEST(NetServer, ExhaustiveAndSijAndSynthesis) {
  TestServer ts{net::ServerOptions{}};
  net::Client c;
  c.connect_tcp(ts.port());

  const std::string ex_body = campaign::PayloadWriter{}
                                  .field_str("spec", "realm:m=8,t=0")
                                  .field("n", std::int64_t{8})
                                  .field("lo", std::uint64_t{0})
                                  .field("hi", std::uint64_t{255})
                                  .str();
  const Frame ex = c.call(MsgType::kCharacterizeExhaustive, 6, ex_body, 60000);
  ASSERT_EQ(ex.type, MsgType::kReplyOk);
  const err::ExhaustiveReport rep = campaign::parse_exhaustive_report(ex.body);
  EXPECT_EQ(rep.pairs, 256u * 256u);

  const std::string sij_body = campaign::PayloadWriter{}
                                   .field("m", std::int64_t{4})
                                   .field("q", std::int64_t{6})
                                   .str();
  const Frame sij = c.call(MsgType::kSijLookup, 7, sij_body, 60000);
  ASSERT_EQ(sij.type, MsgType::kReplyOk);
  const campaign::PayloadReader sr{sij.body};
  EXPECT_EQ(sr.get_u64("m"), 4u);
  const auto units = net::parse_u64_list(sr.get_string("units"));
  ASSERT_EQ(units.size(), 16u);
  const auto lut = core::SegmentLut::shared(4, 6);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_EQ(units[static_cast<std::size_t>(i * 4 + j)], lut->units(i, j));
    }
  }

  const std::string syn_body = campaign::PayloadWriter{}
                                   .field_str("spec", "realm:m=8,t=0")
                                   .field("n", std::int64_t{8})
                                   .field("cycles", std::uint64_t{64})
                                   .str();
  const Frame syn = c.call(MsgType::kSynthesisCost, 8, syn_body, 120000);
  ASSERT_EQ(syn.type, MsgType::kReplyOk);
  const campaign::SynthesisResult s = campaign::parse_synthesis(syn.body);
  EXPECT_GT(s.area_um2, 0.0);
  EXPECT_GT(s.power_uw, 0.0);
  EXPECT_GT(s.delay_ps, 0.0);
}

TEST(NetServer, TypedErrorsKeepTheConnection) {
  TestServer ts{net::ServerOptions{}};
  net::Client c;
  c.connect_tcp(ts.port());

  // Unknown type.
  c.send_request(static_cast<MsgType>(60), 1, {});
  Frame r = c.recv_reply();
  ASSERT_EQ(r.type, MsgType::kReplyError);
  EXPECT_EQ(net::parse_error(r.body).code, ErrorCode::kUnknownType);

  // Malformed body.
  c.send_request(MsgType::kCharacterizeMc, 2, "not a payload");
  r = c.recv_reply();
  ASSERT_EQ(r.type, MsgType::kReplyError);
  EXPECT_EQ(net::parse_error(r.body).code, ErrorCode::kBadRequest);

  // Unknown design spec (engine-side rejection).
  c.send_request(MsgType::kCharacterizeMc, 3, mc_body("nonsense", 16, 64, 1));
  r = c.recv_reply();
  ASSERT_EQ(r.type, MsgType::kReplyError);
  EXPECT_EQ(net::parse_error(r.body).code, ErrorCode::kBadRequest);

  // Corrupt checksum.
  std::string corrupt = net::encode_frame(MsgType::kPing, 4, "zz");
  corrupt.back() = static_cast<char>(corrupt.back() ^ 0x7f);
  c.send_raw(corrupt);
  r = c.recv_reply();
  ASSERT_EQ(r.type, MsgType::kReplyError);
  EXPECT_EQ(net::parse_error(r.body).code, ErrorCode::kBadChecksum);

  // The connection survived all of the above.
  r = c.call(MsgType::kPing, 5, {});
  EXPECT_EQ(r.type, MsgType::kReplyOk);
  EXPECT_EQ(r.seq, 5u);
}

TEST(NetServer, OversizedFrameGetsTypedErrorAndConnectionSurvives) {
  net::ServerOptions opts;
  opts.max_frame_bytes = 256;
  TestServer ts{std::move(opts)};
  net::Client c;
  c.connect_tcp(ts.port());
  c.send_request(MsgType::kMultiplyBatch, 9, std::string(10000, 'a'));
  Frame r = c.recv_reply();
  ASSERT_EQ(r.type, MsgType::kReplyError);
  EXPECT_EQ(r.seq, 9u);
  EXPECT_EQ(net::parse_error(r.body).code, ErrorCode::kFrameTooLarge);
  r = c.call(MsgType::kPing, 10, {});
  EXPECT_EQ(r.type, MsgType::kReplyOk);
}

TEST(NetServer, BadMagicGetsErrorThenClose) {
  TestServer ts{net::ServerOptions{}};
  net::Client c;
  c.connect_tcp(ts.port());
  c.send_raw("garbage that is long enough to cover a whole frame header!!");
  const Frame r = c.recv_reply();
  ASSERT_EQ(r.type, MsgType::kReplyError);
  EXPECT_EQ(net::parse_error(r.body).code, ErrorCode::kBadMagic);
  // The server closes after flushing the error.
  EXPECT_THROW((void)c.recv_reply(2000), std::runtime_error);
}

TEST(NetServer, KillClientMidRequest) {
  TestServer ts{net::ServerOptions{}};
  {
    net::Client c;
    c.connect_tcp(ts.port());
    // A full 16-bit exhaustive sweep: slow enough (seconds) that the abort
    // below lands while the job is still computing.
    const std::string body = campaign::PayloadWriter{}
                                 .field_str("spec", "realm:m=16,t=0")
                                 .field("n", std::int64_t{16})
                                 .field("lo", std::uint64_t{0})
                                 .field("hi", std::uint64_t{65535})
                                 .str();
    c.send_request(MsgType::kCharacterizeExhaustive, 1, body);
    // Wait until the request is actually dispatched, then abort the
    // connection with an RST (SO_LINGER 0): the server's read fails, the
    // connection dies, and the finished job's reply has nowhere to go.
    for (int i = 0; i < 1000 && ts.server().stats().dispatched < 1; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GE(ts.server().stats().dispatched, 1u);
    struct linger lg{};
    lg.l_onoff = 1;
    lg.l_linger = 0;
    ::setsockopt(c.fd(), SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
    c.close();
  }
  // The server must finish the computation, drop the orphaned reply, and
  // keep serving.
  net::Client c2;
  c2.connect_tcp(ts.port());
  for (int i = 0; i < 600; ++i) {
    const Frame r = c2.call(MsgType::kPing, static_cast<std::uint64_t>(i), {});
    ASSERT_EQ(r.type, MsgType::kReplyOk);
    if (ts.server().stats().replies_dropped > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_GE(ts.server().stats().replies_dropped, 1u);
}

TEST(NetServer, WarmHitsServeStoredBytesWithoutDispatch) {
  TempPath store_path{"warm"};
  campaign::ResultStore store{store_path.str()};
  campaign::CampaignRunner runner{&store, true};
  net::ServerOptions opts;
  opts.campaign = &runner;
  TestServer ts{std::move(opts)};
  net::Client c;
  c.connect_tcp(ts.port());

  const std::string body = mc_body("realm:m=16,t=4", 16, 2048, 1234);
  const Frame cold = c.call(MsgType::kCharacterizeMc, 1, body, 60000);
  ASSERT_EQ(cold.type, MsgType::kReplyOk);
  const net::Server::Stats after_cold = ts.server().stats();
  EXPECT_EQ(after_cold.dispatched, 1u);
  EXPECT_EQ(after_cold.warm_hits, 0u);

  const Frame warm = c.call(MsgType::kCharacterizeMc, 2, body, 60000);
  ASSERT_EQ(warm.type, MsgType::kReplyOk);
  const net::Server::Stats after_warm = ts.server().stats();
  EXPECT_EQ(after_warm.dispatched, 1u);  // never touched the executor
  EXPECT_EQ(after_warm.warm_hits, 1u);

  // The byte-identity invariant, end to end.
  EXPECT_EQ(warm.body, cold.body);

  // And the stored payload is those same bytes.
  err::MonteCarloOptions mco;
  mco.samples = 2048;
  mco.seed = 1234;
  const auto stored =
      store.get(campaign::monte_carlo_key("realm:m=16,t=4", 16, mco));
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(*stored, cold.body);
}

// A bad design spec is rejected while the loop parses the request: an
// out-of-int value, trailing text or an unknown parameter is kBadRequest
// (never `internal: stoi`), and nothing reaches an executor.
TEST(NetServer, BadSpecIsBadRequestOnTheLoop) {
  TestServer ts{net::ServerOptions{}};
  net::Client c;
  c.connect_tcp(ts.port());
  std::uint64_t seq = 0;
  for (const char* spec :
       {"realm:m=99999999999,t=0", "realm:m=16abc,t=0", "realm:m=16,t=0,zz=7"}) {
    for (const auto& [type, body] :
         {std::pair{MsgType::kCharacterizeMc, mc_body(spec, 16, 64, 1)},
          std::pair{MsgType::kMultiplyBatch, multiply_body(spec, 16, {3}, {5})}}) {
      const Frame r = c.call(type, ++seq, body);
      ASSERT_EQ(r.type, MsgType::kReplyError) << spec;
      const net::ErrorReply e = net::parse_error(r.body);
      EXPECT_EQ(e.code, ErrorCode::kBadRequest) << spec << ": " << e.message;
    }
  }
  EXPECT_EQ(ts.server().stats().dispatched, 0u);
  EXPECT_EQ(c.call(MsgType::kPing, ++seq, {}).type, MsgType::kReplyOk);
}

// A well-formed spec whose model cannot be built (REALM's LUT factors
// overflow the stored width: SegmentLut throws std::domain_error) is the
// client's error, answered kBadRequest by the executor.
TEST(NetServer, UnbuildableSpecIsBadRequest) {
  TestServer ts{net::ServerOptions{}};
  net::Client c;
  c.connect_tcp(ts.port());
  std::uint64_t seq = 0;
  for (const auto& [type, body] :
       {std::pair{MsgType::kCharacterizeMc, mc_body("realm:m=32,t=0", 16, 64, 1)},
        std::pair{MsgType::kMultiplyBatch, multiply_body("realm:m=32,t=0", 16, {3}, {5})}}) {
    const Frame r = c.call(type, ++seq, body);
    ASSERT_EQ(r.type, MsgType::kReplyError);
    const net::ErrorReply e = net::parse_error(r.body);
    EXPECT_EQ(e.code, ErrorCode::kBadRequest) << e.message;
  }
  EXPECT_EQ(c.call(MsgType::kPing, ++seq, {}).type, MsgType::kReplyOk);
}

// Two spellings of one design share one campaign key: the second is a warm
// hit served with the first one's stored bytes.
TEST(NetServer, SpecSpellingsShareOneWarmKey) {
  TempPath store_path{"alias"};
  campaign::ResultStore store{store_path.str()};
  campaign::CampaignRunner runner{&store, true};
  net::ServerOptions opts;
  opts.campaign = &runner;
  TestServer ts{std::move(opts)};
  net::Client c;
  c.connect_tcp(ts.port());

  const Frame cold =
      c.call(MsgType::kCharacterizeMc, 1, mc_body("realm:m=16,t=0", 16, 2048, 99), 60000);
  ASSERT_EQ(cold.type, MsgType::kReplyOk);
  const Frame warm =
      c.call(MsgType::kCharacterizeMc, 2, mc_body("realm:t=0,m=16", 16, 2048, 99), 60000);
  ASSERT_EQ(warm.type, MsgType::kReplyOk);
  const net::Server::Stats st = ts.server().stats();
  EXPECT_EQ(st.dispatched, 1u);
  EXPECT_EQ(st.warm_hits, 1u);
  EXPECT_EQ(warm.body, cold.body);
  EXPECT_EQ(store.size(), 1u);
}

TEST(NetServer, GracefulDrainFlushesInFlightWork) {
  TestServer ts{net::ServerOptions{}};
  net::Client c;
  c.connect_tcp(ts.port());
  c.send_request(MsgType::kCharacterizeMc, 1,
                 mc_body("realm:m=16,t=0", 16, std::uint64_t{1} << 20, 7));
  // Begin the drain only once the request is in flight (a stop that lands
  // before the read would legitimately never answer it).
  for (int i = 0; i < 1000 && ts.server().stats().dispatched < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(ts.server().stats().dispatched, 1u);
  ts.server().request_stop();
  const Frame r = c.recv_reply(60000);
  EXPECT_EQ(r.type, MsgType::kReplyOk);
  EXPECT_EQ(r.seq, 1u);
  ts.stop();  // run() must return: drain completed
  const net::Server::Stats st = ts.server().stats();
  EXPECT_EQ(st.requests, 1u);
}

TEST(NetServer, MaxConnectionsRefusesExtras) {
  net::ServerOptions opts;
  opts.max_connections = 2;
  TestServer ts{std::move(opts)};
  net::Client a, b;
  a.connect_tcp(ts.port());
  b.connect_tcp(ts.port());
  ASSERT_EQ(a.call(MsgType::kPing, 1, {}).type, MsgType::kReplyOk);
  ASSERT_EQ(b.call(MsgType::kPing, 2, {}).type, MsgType::kReplyOk);
  net::Client extra;
  extra.connect_tcp(ts.port());
  // The refusal is a typed error followed by close.
  const Frame r = extra.recv_reply(5000);
  EXPECT_EQ(r.type, MsgType::kReplyError);
  EXPECT_EQ(net::parse_error(r.body).code, ErrorCode::kShuttingDown);
  EXPECT_THROW((void)extra.recv_reply(2000), std::runtime_error);
  // Existing connections are unaffected.
  EXPECT_EQ(a.call(MsgType::kPing, 3, {}).type, MsgType::kReplyOk);
}

TEST(NetServer, BackpressureStallsSlowReaders) {
  net::ServerOptions opts;
  opts.write_high_water = 1024;  // tiny: a few replies trip the mark
  opts.executor_threads = 1;     // FIFO completions: replies stay in order
  TestServer ts{std::move(opts)};
  net::Client c;
  c.connect_tcp(ts.port());
  // Fire many pings without reading; replies pile into the server's write
  // buffer once the socket buffer fills.  s_ij tables make fat replies.
  const std::string sij = campaign::PayloadWriter{}
                              .field("m", std::int64_t{16})
                              .field("q", std::int64_t{8})
                              .str();
  for (int i = 0; i < 200; ++i) {
    c.send_request(MsgType::kSijLookup, static_cast<std::uint64_t>(i), sij);
  }
  // Now drain every reply; all 200 must arrive intact, in order.
  for (int i = 0; i < 200; ++i) {
    const Frame r = c.recv_reply(60000);
    ASSERT_EQ(r.type, MsgType::kReplyOk);
    ASSERT_EQ(r.seq, static_cast<std::uint64_t>(i));
  }
}

TEST(NetServer, IdleTimeoutClosesQuietConnections) {
  net::ServerOptions opts;
  opts.idle_timeout_ms = 200;
  TestServer ts{std::move(opts)};
  net::Client c;
  c.connect_tcp(ts.port());
  ASSERT_EQ(c.call(MsgType::kPing, 1, {}).type, MsgType::kReplyOk);
  // Go quiet past the timeout; the server closes us.
  EXPECT_THROW((void)c.recv_reply(5000), std::runtime_error);
}

TEST(NetServer, ManyConcurrentClients) {
  TestServer ts{net::ServerOptions{}};
  constexpr int kClients = 16;
  constexpr int kRequests = 25;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      try {
        net::Client c;
        c.connect_tcp(ts.port());
        const auto model = mult::make_multiplier("calm", 16);
        for (int i = 0; i < kRequests; ++i) {
          const std::uint64_t a = static_cast<std::uint64_t>(t * 1000 + i);
          const std::uint64_t b = 65535u - (a % 65536u);
          const Frame r = c.call(
              MsgType::kMultiplyBatch, static_cast<std::uint64_t>(i),
              multiply_body("calm", 16, {a % 65536u, b}, {b, a % 65536u}), 60000);
          if (r.type != MsgType::kReplyOk) {
            ++failures;
            return;
          }
          const campaign::PayloadReader pr{r.body};
          const auto out = net::parse_u64_list(pr.get_string("out"));
          if (out.size() != 2 || out[0] != model->multiply(a % 65536u, b) ||
              out[1] != model->multiply(b, a % 65536u)) {
            ++failures;
            return;
          }
        }
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(ts.server().stats().accepted, static_cast<std::uint64_t>(kClients));
}

// -- introspection ----------------------------------------------------------

namespace {

/// Does `body` (a stats payload) carry a field named `name`?
[[nodiscard]] bool has_field(const campaign::PayloadReader& r,
                             const std::string& name) {
  for (const auto& [k, v] : r.fields()) {
    if (k == name) return true;
  }
  return false;
}

}  // namespace

TEST(NetServer, StatsCarriesFullCatalogAndSloWindows) {
  TestServer ts{net::ServerOptions{}};
  net::Client c;
  c.connect_tcp(ts.port());
  ASSERT_EQ(c.call(MsgType::kPing, 1, {}).type, MsgType::kReplyOk);

  const Frame r = c.call(MsgType::kStats, 2, {});
  ASSERT_EQ(r.type, MsgType::kReplyOk);
  const campaign::PayloadReader body{r.body};

  EXPECT_EQ(body.get_i64("proto"), 1);
  EXPECT_GE(body.get_double("uptime_s"), 0.0);
  EXPECT_TRUE(has_field(body, "rss_kb"));
  EXPECT_EQ(body.get_u64("connections"), 1u);
  EXPECT_TRUE(has_field(body, "queue_depth"));
  EXPECT_TRUE(has_field(body, "jobs_in_flight"));

  // The full counter catalog rides along, by catalog name.
  for (std::size_t i = 0; i < static_cast<std::size_t>(obs::Counter::kCount);
       ++i) {
    const std::string key =
        std::string{"counter."} + obs::counter_name(static_cast<obs::Counter>(i));
    EXPECT_TRUE(has_field(body, key)) << key;
  }
  // Both frames so far are counted (the stats frame is a request too).
  EXPECT_GE(body.get_u64("counter.net_requests"), 2u);

  // Fixed SLO schema: every request kind x every window x every column,
  // present even when the window is empty.
  for (const MsgType kind : net::kRequestKinds) {
    for (const unsigned w : obs::kSloWindowsSeconds) {
      const std::string p = std::string{"slo."} + net::request_kind_name(kind) +
                            ".w" + std::to_string(w) + ".";
      for (const char* col : {"count", "errors", "warm_hits", "bytes", "p50_us",
                              "p95_us", "p99_us", "err_pct", "warm_pct"}) {
        EXPECT_TRUE(has_field(body, p + col)) << p + col;
      }
    }
  }
  // The ping we sent is visible in its own 10 s window.
  EXPECT_GE(body.get_u64("slo.ping.w10.count"), 1u);
  EXPECT_EQ(body.get_double("slo.ping.w10.err_pct"), 0.0);
}

TEST(NetServer, StatsAnsweredOnLoopWhileExecutorsSaturated) {
  net::ServerOptions opts;
  opts.executor_threads = 1;  // one dispatcher: queued jobs serialize
  opts.engine_threads = 1;
  TestServer ts{std::move(opts)};

  // Pin the lone executor with multi-hundred-millisecond Monte-Carlo jobs
  // and stack more behind it.
  net::Client load;
  load.connect_tcp(ts.port());
  for (std::uint64_t i = 0; i < 3; ++i) {
    load.send_request(MsgType::kCharacterizeMc, i,
                      mc_body("realm:m=16,t=0", 16, std::uint64_t{1} << 22,
                              9000 + i));
  }
  for (int i = 0; i < 1000 && ts.server().stats().dispatched < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(ts.server().stats().dispatched, 1u);

  // A second client's stats request is answered on the loop thread, fast,
  // while the executor is busy: the body itself proves work was in flight.
  net::Client c;
  c.connect_tcp(ts.port());
  const auto t0 = std::chrono::steady_clock::now();
  const Frame r = c.call(MsgType::kStats, 1, {}, 5000);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_EQ(r.type, MsgType::kReplyOk);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(),
            1000);
  const campaign::PayloadReader body{r.body};
  EXPECT_GE(body.get_u64("queue_depth") + body.get_u64("jobs_in_flight"), 1u)
      << "executor was already idle; the saturation premise failed";

  // Let the queued jobs finish so the drain in ~TestServer is orderly.
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(load.recv_reply(120000).type, MsgType::kReplyOk);
  }
}

TEST(NetClient, RecvTimeoutIsTypedAndCounted) {
  TestServer ts{net::ServerOptions{}};
  net::Client c;
  c.connect_tcp(ts.port());
  // Half a frame: the server waits for the rest, the client's deadline
  // expires.  The throw must be the typed TimeoutError (so callers can
  // distinguish "slow" from "broken") and the counter must tick.
  const std::string frame = ping_frame(1);
  c.send_raw(std::string_view{frame}.substr(0, net::kFrameHeaderBytes / 2));
  const std::uint64_t before =
      obs::counter_value(obs::Counter::kNetClientTimeouts);
  EXPECT_THROW((void)c.recv_reply(100), net::TimeoutError);
  EXPECT_EQ(obs::counter_value(obs::Counter::kNetClientTimeouts), before + 1);
  // TimeoutError is a runtime_error, so legacy catch sites still work.
  c.send_raw(std::string_view{frame}.substr(net::kFrameHeaderBytes / 2));
  const Frame r = c.recv_reply(5000);
  EXPECT_EQ(r.type, MsgType::kReplyOk);
  EXPECT_EQ(r.seq, 1u);
}

namespace {

/// Every rid attached to a span named `span` in a Chrome trace export.
[[nodiscard]] std::vector<std::uint64_t> rids_for_span(const std::string& json,
                                                       const std::string& span) {
  std::vector<std::uint64_t> rids;
  const std::string name_key = "\"name\":\"" + span + "\"";
  for (std::size_t pos = json.find(name_key); pos != std::string::npos;
       pos = json.find(name_key, pos + name_key.size())) {
    const std::size_t end = json.find("\"name\":", pos + name_key.size());
    const std::size_t rid_pos = json.find("\"rid\":", pos);
    if (rid_pos != std::string::npos && (end == std::string::npos || rid_pos < end)) {
      rids.push_back(std::strtoull(json.c_str() + rid_pos + 6, nullptr, 10));
    }
  }
  return rids;
}

}  // namespace

TEST(NetServer, RequestIdRidesTraceSpansAcrossThreads) {
  obs::trace_reset();
  obs::set_tracing(true);
  {
    TestServer ts{net::ServerOptions{}};
    net::Client c;
    c.connect_tcp(ts.port());
    const Frame r = c.call(MsgType::kCharacterizeMc, 1,
                           mc_body("realm:m=16,t=0", 16, 4096, 42), 60000);
    ASSERT_EQ(r.type, MsgType::kReplyOk);
    ts.stop();  // flush completions so net/reply spans are recorded
  }
  obs::set_tracing(false);
  const std::string json = obs::chrome_trace_json();

  // The loop thread's accept/validate spans and the executor thread's job
  // span carry the same request id — one lane per request in the trace.
  const auto request_rids = rids_for_span(json, "net/request");
  const auto job_rids = rids_for_span(json, "net/job");
  const auto reply_rids = rids_for_span(json, "net/reply");
  ASSERT_FALSE(request_rids.empty()) << json.substr(0, 400);
  ASSERT_FALSE(job_rids.empty());
  ASSERT_FALSE(reply_rids.empty());
  bool shared = false;
  for (const std::uint64_t rid : request_rids) {
    if (rid == 0) continue;
    for (const std::uint64_t jr : job_rids) shared |= jr == rid;
  }
  EXPECT_TRUE(shared) << "no net/job span shares a rid with a net/request span";
  EXPECT_NE(job_rids.front(), 0u);
}
