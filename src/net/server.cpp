#include "realm/net/server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "realm/campaign/cached_eval.hpp"
#include "realm/campaign/record.hpp"
#include "realm/core/lut.hpp"
#include "realm/error/monte_carlo.hpp"
#include "realm/hw/cost_model.hpp"
#include "realm/hw/power.hpp"
#include "realm/multipliers/registry.hpp"
#include "realm/net/protocol.hpp"
#include "realm/obs/counters.hpp"
#include "realm/obs/sampler.hpp"
#include "realm/obs/slo_window.hpp"
#include "realm/obs/trace.hpp"

namespace realm::net {

namespace {

// Server-side sanity caps on request cost.  These bound what one frame can
// make the executor do; anything above them is a kBadRequest, not a hung
// serving process.
constexpr std::uint64_t kMaxMcSamplesPerRequest = std::uint64_t{1} << 26;
constexpr std::uint64_t kMaxExhaustiveRangePerRequest = std::uint64_t{1} << 16;
constexpr std::uint32_t kMaxSynthesisCycles = 1u << 20;
constexpr int kMaxSijM = 256;
constexpr int kMaxSijQ = 30;

[[nodiscard]] std::string errno_message(const char* what) {
  return std::string{what} + ": " + std::strerror(errno);
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw std::runtime_error(errno_message("fcntl(O_NONBLOCK)"));
  }
}

// -- readiness --------------------------------------------------------------

struct PollEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  bool error = false;
};

/// Level-triggered epoll readiness with explicit per-fd read/write
/// interest; the loop owns interest transitions (backpressure, drain).
class Epoll {
 public:
  Epoll() : epfd_{::epoll_create1(EPOLL_CLOEXEC)} {
    if (epfd_ < 0) throw std::runtime_error(errno_message("epoll_create1"));
  }
  ~Epoll() { ::close(epfd_); }
  Epoll(const Epoll&) = delete;
  Epoll& operator=(const Epoll&) = delete;

  void add(int fd, bool read, bool write) { ctl(EPOLL_CTL_ADD, fd, read, write); }
  void mod(int fd, bool read, bool write) { ctl(EPOLL_CTL_MOD, fd, read, write); }
  void del(int fd) {
    epoll_event ev{};
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, &ev);
  }

  void wait(int timeout_ms, std::vector<PollEvent>& out) {
    epoll_event evs[64];
    const int n = ::epoll_wait(epfd_, evs, 64, timeout_ms);
    for (int i = 0; i < n; ++i) {
      out.push_back(PollEvent{evs[i].data.fd, (evs[i].events & EPOLLIN) != 0,
                              (evs[i].events & EPOLLOUT) != 0,
                              (evs[i].events & (EPOLLERR | EPOLLHUP)) != 0});
    }
  }

 private:
  void ctl(int op, int fd, bool read, bool write) {
    epoll_event ev{};
    ev.events = (read ? EPOLLIN : 0u) | (write ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    if (::epoll_ctl(epfd_, op, fd, &ev) < 0) {
      throw std::runtime_error(errno_message("epoll_ctl"));
    }
  }

  int epfd_;
};

// -- requests ---------------------------------------------------------------

/// One decoded request; `type` selects which fields are meaningful.
struct Request {
  MsgType type = MsgType::kPing;
  std::uint64_t seq = 0;
  mult::DesignSpec spec;  ///< parsed on the loop thread
  int n = 0;
  std::uint64_t samples = 0;
  std::uint64_t seed = 0;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::uint32_t cycles = 0;
  int m = 0;
  int q = 0;
  std::vector<std::uint64_t> a, b;
};

[[nodiscard]] int parse_width(const campaign::PayloadReader& r) {
  const std::int64_t n = r.get_i64("n");
  if (n < 2 || n > 31) throw std::runtime_error("width n out of range [2,31]");
  return static_cast<int>(n);
}

/// Throws std::runtime_error on any malformed/over-budget field, and
/// std::invalid_argument on a rejected design spec; the caller turns either
/// into a kBadRequest reply, so no bad spec ever reaches an executor.
[[nodiscard]] Request parse_request(MsgType type, std::uint64_t seq,
                                    const std::string& body) {
  const campaign::PayloadReader r{body};
  Request rq;
  rq.type = type;
  rq.seq = seq;
  switch (type) {
    case MsgType::kMultiplyBatch: {
      rq.spec = mult::DesignSpec::parse(r.get_string("spec"));
      rq.n = parse_width(r);
      rq.a = parse_u64_list(r.get_string("a"));
      rq.b = parse_u64_list(r.get_string("b"));
      if (rq.a.size() != rq.b.size()) {
        throw std::runtime_error("operand lists differ in length");
      }
      if (rq.a.empty() || rq.a.size() > kMaxBatchElements) {
        throw std::runtime_error("operand count out of range");
      }
      const std::uint64_t limit = std::uint64_t{1} << rq.n;
      for (std::size_t i = 0; i < rq.a.size(); ++i) {
        if (rq.a[i] >= limit || rq.b[i] >= limit) {
          throw std::runtime_error("operand exceeds the design width");
        }
      }
      break;
    }
    case MsgType::kCharacterizeMc:
      rq.spec = mult::DesignSpec::parse(r.get_string("spec"));
      rq.n = parse_width(r);
      rq.samples = r.get_u64("samples");
      rq.seed = r.get_u64("seed");
      if (rq.samples == 0 || rq.samples > kMaxMcSamplesPerRequest) {
        throw std::runtime_error("samples out of range");
      }
      break;
    case MsgType::kCharacterizeExhaustive:
      rq.spec = mult::DesignSpec::parse(r.get_string("spec"));
      rq.n = parse_width(r);
      rq.lo = r.get_u64("lo");
      rq.hi = r.get_u64("hi");
      if (rq.lo > rq.hi || rq.hi >= (std::uint64_t{1} << rq.n) ||
          rq.hi - rq.lo + 1 > kMaxExhaustiveRangePerRequest) {
        throw std::runtime_error("exhaustive range invalid or over budget");
      }
      break;
    case MsgType::kSynthesisCost: {
      rq.spec = mult::DesignSpec::parse(r.get_string("spec"));
      rq.n = parse_width(r);
      const std::uint64_t cycles = r.get_u64("cycles");
      if (cycles == 0 || cycles > kMaxSynthesisCycles) {
        throw std::runtime_error("cycles out of range");
      }
      rq.cycles = static_cast<std::uint32_t>(cycles);
      break;
    }
    case MsgType::kSijLookup: {
      const std::int64_t m = r.get_i64("m");
      const std::int64_t q = r.get_i64("q");
      if (m < 2 || m > kMaxSijM || q < 3 || q > kMaxSijQ) {
        throw std::runtime_error("m/q out of range");
      }
      rq.m = static_cast<int>(m);
      rq.q = static_cast<int>(q);
      break;
    }
    case MsgType::kPing:
    case MsgType::kStats:
      break;
    default:
      throw std::runtime_error("not a request type");
  }
  return rq;
}

/// Index of a request kind in kRequestKinds (the per-kind SLO window slot).
/// Callers must pass a request type (is_request_type-checked).
[[nodiscard]] constexpr std::size_t kind_index(MsgType t) noexcept {
  for (std::size_t i = 0; i < kRequestKindCount; ++i) {
    if (kRequestKinds[i] == t) return i;
  }
  return 0;
}

[[nodiscard]] hw::StimulusProfile synthesis_profile(std::uint32_t cycles,
                                                    int threads) {
  hw::StimulusProfile p;  // default toggle/probability/seed: the wire contract
  p.cycles = cycles;
  p.threads = threads;
  return p;
}

/// Canonical store key for a cacheable request ("" for uncacheable kinds).
/// Shared by the loop's warm fast path and the executor's campaign units, so
/// both sides always agree on the content address.
[[nodiscard]] std::string request_key(const Request& rq, int engine_threads) {
  switch (rq.type) {
    case MsgType::kCharacterizeMc: {
      err::MonteCarloOptions opts;
      opts.samples = rq.samples;
      opts.seed = rq.seed;
      return campaign::monte_carlo_key(rq.spec, rq.n, opts);
    }
    case MsgType::kCharacterizeExhaustive:
      return campaign::exhaustive_key(rq.spec, rq.n, rq.lo, rq.hi);
    case MsgType::kSynthesisCost:
      return campaign::synthesis_key(rq.spec, rq.n,
                                     synthesis_profile(rq.cycles, engine_threads));
    default:
      return {};
  }
}

}  // namespace

// -- server impl ------------------------------------------------------------

struct Server::Impl {
  explicit Impl(ServerOptions o) : opts{std::move(o)} {}

  ServerOptions opts;

  int listen_fd = -1;
  int wake_r = -1;
  std::atomic<int> wake_w{-1};
  int bound_port = 0;
  std::unique_ptr<Epoll> poller;

  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    FrameDecoder decoder;
    std::string wbuf;
    std::size_t wpos = 0;
    int inflight = 0;
    std::uint64_t last_activity_ns = 0;
    bool stalled = false;           ///< reads off: write buffer over high water
    bool read_closed = false;       ///< EOF seen or reading abandoned
    bool close_after_flush = false; ///< poisoned stream: close once drained

    explicit Conn(std::size_t max_frame) : decoder{max_frame} {}
    [[nodiscard]] std::size_t pending() const noexcept { return wbuf.size() - wpos; }
  };

  std::unordered_map<int, std::unique_ptr<Conn>> conns;           // by fd
  std::unordered_map<std::uint64_t, Conn*> conn_by_id;
  std::uint64_t next_conn_id = 1;

  std::atomic<bool> stop_requested{false};
  bool draining = false;
  std::uint64_t drain_deadline_ns = 0;
  /// Drain safety valve: a peer that never reads its replies cannot wedge
  /// shutdown forever.
  static constexpr std::uint64_t kDrainTimeoutNs = 30ull * 1000 * 1000 * 1000;

  // -- introspection --------------------------------------------------------
  // Request ids are loop-thread-only state (like conn ids); the executor and
  // the pool see them read-only through Job/ScopedTraceContext.
  std::uint64_t next_request_id = 1;
  std::uint64_t serve_start_ns = 0;  ///< set in start(); uptime zero point
  std::array<obs::SloWindow, kRequestKindCount> slo;

  /// Folds one finished request into its kind's SLO ring; `t0` is the
  /// loop-thread timestamp taken when the frame was decoded, so dispatched
  /// requests measure queue + compute + completion, not just compute.
  void record_slo(std::size_t kind, std::uint64_t t0, std::uint64_t bytes,
                  bool error, bool warm) noexcept {
    const std::uint64_t now = obs::now_ns();
    slo[kind].record_at(now, now - t0, bytes, error, warm);
  }

  // -- executor ------------------------------------------------------------
  struct Job {
    std::uint64_t conn_id = 0;
    Request rq;
    std::uint64_t rid = 0;       ///< request id, for trace-context adoption
    std::uint64_t start_ns = 0;  ///< loop-thread decode time (SLO latency t0)
  };
  struct Completion {
    std::uint64_t conn_id = 0;
    std::string bytes;
    std::uint64_t rid = 0;
    MsgType kind = MsgType::kPing;
    std::uint64_t start_ns = 0;
    bool error = false;  ///< reply is a kReplyError frame
  };
  std::vector<std::thread> executors;
  std::deque<Job> job_queue;
  std::mutex job_mu;
  std::condition_variable job_cv;
  bool executor_stop = false;
  std::atomic<std::uint64_t> jobs_in_flight{0};
  std::vector<Completion> completions;
  std::mutex completion_mu;

  struct AtomicStats {
    std::atomic<std::uint64_t> accepted{0}, rejected{0}, requests{0}, warm_hits{0},
        dispatched{0}, frame_errors{0}, replies_dropped{0}, drained{0};
  };
  AtomicStats st;

  bool started = false;
  bool finished = false;

  // ------------------------------------------------------------------ setup

  void start() {
    if (started) throw std::runtime_error("net: Server::start() called twice");
    started = true;
    serve_start_ns = obs::now_ns();
    poller = std::make_unique<Epoll>();

    int pfds[2];
    if (::pipe(pfds) != 0) throw std::runtime_error(errno_message("pipe"));
    wake_r = pfds[0];
    set_nonblocking(wake_r);
    set_nonblocking(pfds[1]);
    wake_w.store(pfds[1], std::memory_order_release);

    if (!opts.unix_path.empty()) {
      listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (listen_fd < 0) throw std::runtime_error(errno_message("socket(AF_UNIX)"));
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      if (opts.unix_path.size() >= sizeof addr.sun_path) {
        throw std::runtime_error("net: unix socket path too long");
      }
      std::memcpy(addr.sun_path, opts.unix_path.c_str(), opts.unix_path.size() + 1);
      ::unlink(opts.unix_path.c_str());  // replace a stale socket file
      if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        throw std::runtime_error(errno_message("bind(unix)"));
      }
    } else {
      listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (listen_fd < 0) throw std::runtime_error(errno_message("socket(AF_INET)"));
      const int one = 1;
      ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(static_cast<std::uint16_t>(opts.tcp_port));
      if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        throw std::runtime_error(errno_message("bind(tcp)"));
      }
      sockaddr_in bound{};
      socklen_t len = sizeof bound;
      if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
        throw std::runtime_error(errno_message("getsockname"));
      }
      bound_port = ntohs(bound.sin_port);
    }
    set_nonblocking(listen_fd);
    if (::listen(listen_fd, 128) != 0) {
      throw std::runtime_error(errno_message("listen"));
    }

    const int n = opts.executor_threads > 0 ? opts.executor_threads : 1;
    executors.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      executors.emplace_back([this] { executor_loop(); });
    }

    poller->add(listen_fd, true, false);
    poller->add(wake_r, true, false);
  }

  void shutdown_executor() {
    {
      std::lock_guard lock{job_mu};
      executor_stop = true;
    }
    job_cv.notify_all();
    for (auto& t : executors) t.join();
    executors.clear();
  }

  ~Impl() {
    if (!executors.empty()) shutdown_executor();
    for (auto& [fd, c] : conns) ::close(fd);
    if (listen_fd >= 0) ::close(listen_fd);
    if (wake_r >= 0) ::close(wake_r);
    const int w = wake_w.load(std::memory_order_acquire);
    if (w >= 0) ::close(w);
    if (!opts.unix_path.empty()) ::unlink(opts.unix_path.c_str());
  }

  // ------------------------------------------------------------- event loop

  void run() {
    if (!started) throw std::runtime_error("net: run() before start()");
    std::vector<PollEvent> events;
    while (!finished) {
      events.clear();
      // Block indefinitely only when no timer can fire; otherwise poll the
      // timer state a few times a second (cheap next to any real traffic).
      const bool timers = draining || opts.idle_timeout_ms > 0;
      {
        REALM_TRACE_SCOPE("net/poll");
        poller->wait(timers ? 100 : -1, events);
      }
      for (const PollEvent& ev : events) {
        if (ev.fd == listen_fd) {
          accept_ready();
        } else if (ev.fd == wake_r) {
          drain_wake_pipe();
        } else {
          auto it = conns.find(ev.fd);
          if (it == conns.end()) continue;  // closed earlier this iteration
          Conn* c = it->second.get();
          if (ev.error) {
            close_conn(c);
            continue;
          }
          if (ev.writable) flush_writes(c);
          // flush_writes may close on a write error; re-check liveness.
          if (ev.readable && conns.count(ev.fd) != 0) read_ready(c);
        }
      }
      handle_completions();
      check_timers();
      if (stop_requested.load(std::memory_order_acquire) && !draining) begin_drain();
      if (draining) maybe_finish_drain();
    }
  }

  void accept_ready() {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN or a transient accept failure: try next readiness
      }
      set_nonblocking(fd);
      if (opts.unix_path.empty()) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      }
      if (conns.size() >= static_cast<std::size_t>(opts.max_connections)) {
        // Best-effort typed refusal: one small frame into a fresh socket
        // buffer virtually always fits; then close.
        const std::string err =
            encode_error(0, ErrorCode::kShuttingDown, "connection limit reached");
        (void)::send(fd, err.data(), err.size(), MSG_NOSIGNAL);
        ::close(fd);
        st.rejected.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      auto conn = std::make_unique<Conn>(opts.max_frame_bytes);
      conn->fd = fd;
      conn->id = next_conn_id++;
      conn->last_activity_ns = obs::now_ns();
      conn_by_id[conn->id] = conn.get();
      poller->add(fd, true, false);
      conns.emplace(fd, std::move(conn));
      obs::counter_add(obs::Counter::kNetAccepts, 1);
      st.accepted.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void drain_wake_pipe() {
    char buf[256];
    while (::read(wake_r, buf, sizeof buf) > 0) {
    }
  }

  void read_ready(Conn* c) {
    REALM_TRACE_SCOPE("net/read");
    char buf[1 << 16];
    while (!c->read_closed && !c->stalled) {
      const ssize_t r = ::recv(c->fd, buf, sizeof buf, 0);
      if (r > 0) {
        obs::counter_add(obs::Counter::kNetBytesIn, static_cast<std::uint64_t>(r));
        c->last_activity_ns = obs::now_ns();
        c->decoder.feed(buf, static_cast<std::size_t>(r));
        if (!pump_frames(c)) return;  // connection closed
        if (static_cast<std::size_t>(r) < sizeof buf) return;  // drained socket
        continue;
      }
      if (r == 0) {
        c->read_closed = true;
        if (c->inflight == 0 && c->pending() == 0) close_conn(c);
        return;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      close_conn(c);
      return;
    }
  }

  /// Decodes every buffered frame; returns false if the connection was
  /// closed while handling them.
  bool pump_frames(Conn* c) {
    // Sending a reply can close the connection (write error) and free *c*;
    // no accept happens inside this call chain, so the fd cannot be reused
    // and a liveness probe through the fd key is safe.
    const int fd = c->fd;
    Frame f;
    for (;;) {
      const FrameDecoder::Status s = c->decoder.next(f);
      switch (s) {
        case FrameDecoder::Status::kNeedMore:
          return true;
        case FrameDecoder::Status::kFrame:
          handle_request(c, f);
          break;
        case FrameDecoder::Status::kBadChecksum:
          send_error(c, f.seq, ErrorCode::kBadChecksum, "frame checksum mismatch");
          break;
        case FrameDecoder::Status::kTooLarge:
          send_error(c, f.seq, ErrorCode::kFrameTooLarge,
                     "frame body exceeds the server limit");
          break;
        case FrameDecoder::Status::kBadMagic:
          // Framing is unrecoverable; answer once, stop reading, flush, close.
          send_error(c, 0, ErrorCode::kBadMagic, "bad frame magic");
          if (conns.count(fd) == 0) return false;
          c->read_closed = true;
          c->close_after_flush = true;
          if (c->pending() == 0 && c->inflight == 0) close_conn(c);
          return false;
      }
      if (conns.count(fd) == 0) return false;
    }
  }

  [[nodiscard]] static bool is_request_type(MsgType t) noexcept {
    const auto v = static_cast<std::uint32_t>(t);
    return v >= static_cast<std::uint32_t>(MsgType::kPing) &&
           v <= static_cast<std::uint32_t>(MsgType::kStats);
  }

  void handle_request(Conn* c, const Frame& f) {
    // One id per accepted frame, installed before any span opens: ScopedSpan
    // stamps the thread's trace context at destruction, so every span below
    // — and every executor/pool span that adopts the id through Job and
    // ThreadPool — lands in the same per-request Chrome-trace lane.
    const std::uint64_t rid = next_request_id++;
    const std::uint64_t t0 = obs::now_ns();
    obs::ScopedTraceContext trace_ctx{rid};
    REALM_TRACE_SCOPE("net/request");
    if (!is_request_type(f.type)) {
      send_error(c, f.seq, ErrorCode::kUnknownType, "not a request type");
      return;
    }
    const std::size_t kind = kind_index(f.type);
    if (draining) {
      send_error(c, f.seq, ErrorCode::kShuttingDown, "server is draining");
      record_slo(kind, t0, 0, /*error=*/true, /*warm=*/false);
      return;
    }
    Request rq;
    try {
      REALM_TRACE_SCOPE("net/validate");
      rq = parse_request(f.type, f.seq, f.body);
    } catch (const std::exception& e) {
      send_error(c, f.seq, ErrorCode::kBadRequest, e.what());
      record_slo(kind, t0, 0, /*error=*/true, /*warm=*/false);
      return;
    }
    obs::counter_add(obs::Counter::kNetRequests, 1);
    st.requests.fetch_add(1, std::memory_order_relaxed);
    if (rq.type == MsgType::kPing) {
      std::string reply = encode_frame(MsgType::kReplyOk, rq.seq, {});
      record_slo(kind, t0, reply.size(), /*error=*/false, /*warm=*/false);
      queue_reply(c, std::move(reply));
      return;
    }
    if (rq.type == MsgType::kStats) {
      // Introspection is answered here, like ping: a monitor must get its
      // snapshot even when the executor queue and the compute pool are
      // saturated with multi-second characterization jobs.
      std::string reply = encode_frame(MsgType::kReplyOk, rq.seq, stats_body());
      record_slo(kind, t0, reply.size(), /*error=*/false, /*warm=*/false);
      queue_reply(c, std::move(reply));
      return;
    }
    // Warm fast path: answer cacheable requests from the journal index on
    // the loop thread — no executor hop, no pool, and the reply bytes are
    // the stored payload bytes.  Skipped for a non-resume runner, whose
    // contract is an authoritative recompute of every unit.
    campaign::CampaignRunner* runner = opts.campaign;
    if (runner != nullptr && runner->resume()) {
      const std::string key = request_key(rq, opts.engine_threads);
      if (!key.empty() && runner->store().contains(key)) {
        REALM_TRACE_SCOPE("net/warm_hit");
        if (const auto payload = runner->store().get(key)) {
          st.warm_hits.fetch_add(1, std::memory_order_relaxed);
          std::string reply = encode_frame(MsgType::kReplyOk, rq.seq, *payload);
          record_slo(kind, t0, reply.size(), /*error=*/false, /*warm=*/true);
          queue_reply(c, std::move(reply));
          return;
        }
      }
    }
    ++c->inflight;
    jobs_in_flight.fetch_add(1, std::memory_order_relaxed);
    st.dispatched.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard lock{job_mu};
      job_queue.push_back(Job{c->id, std::move(rq), rid, t0});
    }
    job_cv.notify_one();
  }

  /// The `stats` reply body: one flat name=value catalog a poller renders
  /// or scrapes without any schema negotiation.  Reads only loop-thread
  /// state, atomics and the SLO rings — the single lock taken (job_mu, for
  /// the queue depth) is held for one size() call.
  [[nodiscard]] std::string stats_body() {
    const std::uint64_t now = obs::now_ns();
    campaign::PayloadWriter w;
    w.field("proto", static_cast<std::uint64_t>(kNetProtocolVersion));
    w.field("uptime_s", static_cast<double>(now - serve_start_ns) / 1e9);
    w.field("rss_kb", obs::read_rss_kb());
    w.field("connections", static_cast<std::uint64_t>(conns.size()));
    std::uint64_t depth = 0;
    {
      std::lock_guard lock{job_mu};
      depth = job_queue.size();
    }
    w.field("queue_depth", depth);
    w.field("jobs_in_flight", jobs_in_flight.load(std::memory_order_relaxed));
    for (unsigned i = 0; i < obs::kCounterCount; ++i) {
      const auto c = static_cast<obs::Counter>(i);
      w.field(std::string{"counter."} + obs::counter_name(c),
              obs::counter_value(c));
    }
    for (unsigned i = 0; i < obs::kGaugeCount; ++i) {
      const auto g = static_cast<obs::Gauge>(i);
      w.field(std::string{"gauge."} + obs::gauge_name(g), obs::gauge_value(g));
    }
    // Fixed per-kind × per-window catalog: every field is always present
    // (zero/0.0 when idle), so consumers never probe for optional keys.
    for (std::size_t k = 0; k < kRequestKindCount; ++k) {
      const std::string kind_prefix =
          std::string{"slo."} + request_kind_name(kRequestKinds[k]) + ".w";
      for (const unsigned wsec : obs::kSloWindowsSeconds) {
        const obs::SloSnapshot s = slo[k].snapshot_at(now, wsec);
        const std::string p = kind_prefix + std::to_string(wsec) + ".";
        w.field(p + "count", s.count);
        w.field(p + "errors", s.errors);
        w.field(p + "warm_hits", s.warm_hits);
        w.field(p + "bytes", s.bytes);
        w.field(p + "p50_us", static_cast<double>(s.latency.percentile(0.50)) / 1e3);
        w.field(p + "p95_us", static_cast<double>(s.latency.percentile(0.95)) / 1e3);
        w.field(p + "p99_us", static_cast<double>(s.latency.percentile(0.99)) / 1e3);
        w.field(p + "err_pct", s.error_rate() * 100.0);
        w.field(p + "warm_pct", s.warm_ratio() * 100.0);
      }
    }
    return w.str();
  }

  void send_error(Conn* c, std::uint64_t seq, ErrorCode code, const char* msg) {
    obs::counter_add(obs::Counter::kNetFrameErrors, 1);
    st.frame_errors.fetch_add(1, std::memory_order_relaxed);
    queue_reply(c, encode_error(seq, code, msg));
  }

  void queue_reply(Conn* c, std::string bytes) {
    const int fd = c->fd;  // flush_writes may close and free *c
    c->wbuf += bytes;
    flush_writes(c);
    if (conns.count(fd) == 0) return;
    if (!c->stalled && c->pending() > opts.write_high_water) {
      // A slow reader stops being read until it catches up; the stall is
      // entered once per episode (the counter measures episodes, not bytes).
      c->stalled = true;
      obs::counter_add(obs::Counter::kNetBackpressureStalls, 1);
    }
    update_interest(c);
  }

  void flush_writes(Conn* c) {
    REALM_TRACE_SCOPE("net/write");
    while (c->wpos < c->wbuf.size()) {
      const std::size_t chunk = c->wbuf.size() - c->wpos;
      const ssize_t w = ::send(c->fd, c->wbuf.data() + c->wpos, chunk, MSG_NOSIGNAL);
      if (w > 0) {
        obs::counter_add(obs::Counter::kNetBytesOut, static_cast<std::uint64_t>(w));
        c->wpos += static_cast<std::size_t>(w);
        c->last_activity_ns = obs::now_ns();
        continue;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_conn(c);
      return;
    }
    if (c->wpos == c->wbuf.size()) {
      c->wbuf.clear();
      c->wpos = 0;
      if (c->close_after_flush && c->inflight == 0) {
        close_conn(c);
        return;
      }
      if (c->read_closed && c->inflight == 0 && !draining) {
        close_conn(c);
        return;
      }
    } else if (c->wpos > (std::size_t{1} << 16)) {
      c->wbuf.erase(0, c->wpos);
      c->wpos = 0;
    }
    if (c->stalled && c->pending() < opts.write_high_water / 2) {
      c->stalled = false;
    }
    update_interest(c);
  }

  void update_interest(Conn* c) {
    const bool want_read = !c->read_closed && !c->stalled && !draining;
    const bool want_write = c->pending() != 0;
    poller->mod(c->fd, want_read, want_write);
  }

  void close_conn(Conn* c) {
    poller->del(c->fd);
    ::close(c->fd);
    conn_by_id.erase(c->id);
    conns.erase(c->fd);  // destroys *c
  }

  // ------------------------------------------------------------ completions

  void handle_completions() {
    std::vector<Completion> batch;
    {
      std::lock_guard lock{completion_mu};
      batch.swap(completions);
    }
    for (Completion& done : batch) {
      jobs_in_flight.fetch_sub(1, std::memory_order_relaxed);
      // The reply leg runs under the request's trace context so the
      // accept→validate→execute→reply chain shares one id end to end.
      obs::ScopedTraceContext trace_ctx{done.rid};
      REALM_TRACE_SCOPE("net/reply");
      record_slo(kind_index(done.kind), done.start_ns, done.bytes.size(),
                 done.error, /*warm=*/false);
      auto it = conn_by_id.find(done.conn_id);
      if (it == conn_by_id.end()) {
        // The client vanished mid-request (kill-mid-request path): the
        // computation finished, the reply has nowhere to go.
        st.replies_dropped.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      Conn* c = it->second;
      --c->inflight;
      if (draining) {
        obs::counter_add(obs::Counter::kNetDrained, 1);
        st.drained.fetch_add(1, std::memory_order_relaxed);
      }
      queue_reply(c, std::move(done.bytes));
    }
  }

  // ----------------------------------------------------------------- timers

  void check_timers() {
    if (opts.idle_timeout_ms <= 0 || draining) return;
    const std::uint64_t now = obs::now_ns();
    const std::uint64_t limit =
        static_cast<std::uint64_t>(opts.idle_timeout_ms) * std::uint64_t{1'000'000};
    std::vector<Conn*> idle;
    for (auto& [fd, c] : conns) {
      if (c->inflight == 0 && c->pending() == 0 &&
          now - c->last_activity_ns > limit) {
        idle.push_back(c.get());
      }
    }
    for (Conn* c : idle) close_conn(c);
  }

  // ------------------------------------------------------------------ drain

  void begin_drain() {
    REALM_TRACE_SCOPE("net/drain");
    draining = true;
    drain_deadline_ns = obs::now_ns() + kDrainTimeoutNs;
    if (listen_fd >= 0) {
      poller->del(listen_fd);
      ::close(listen_fd);
      listen_fd = -1;
    }
    // Stop reading everywhere: requests already dispatched will finish and
    // flush; bytes a client sends from here on are never decoded.
    for (auto& [fd, c] : conns) {
      c->read_closed = true;
      update_interest(c.get());
    }
  }

  void maybe_finish_drain() {
    bool flushed = true;
    for (auto& [fd, c] : conns) {
      if (c->pending() != 0 || c->inflight != 0) {
        flushed = false;
        break;
      }
    }
    const bool jobs_done = jobs_in_flight.load(std::memory_order_relaxed) == 0;
    const bool deadline = obs::now_ns() > drain_deadline_ns;
    if ((flushed && jobs_done) || deadline) {
      while (!conns.empty()) close_conn(conns.begin()->second.get());
      shutdown_executor();
      finished = true;
    }
  }

  // --------------------------------------------------------------- executor

  void executor_loop() {
    for (;;) {
      Job job;
      {
        std::unique_lock lock{job_mu};
        job_cv.wait(lock, [&] { return executor_stop || !job_queue.empty(); });
        if (job_queue.empty()) return;  // stop and nothing left to serve
        job = std::move(job_queue.front());
        job_queue.pop_front();
      }
      // Adopt the request's trace context for the whole compute: the
      // engines below fan onto the process-wide ThreadPool, whose helpers
      // re-adopt it per region, so pool/task spans inherit the id too.
      obs::ScopedTraceContext trace_ctx{job.rid};
      REALM_TRACE_SCOPE("net/job");
      std::string reply;
      bool error = false;
      try {
        reply = encode_frame(MsgType::kReplyOk, job.rq.seq, compute_body(job.rq));
      } catch (const std::exception& e) {
        // A rejected argument and a well-formed design its model cannot
        // build (domain_error, e.g. a REALM LUT whose factors overflow the
        // stored width) are the request's fault; anything else is ours.
        const bool bad_request = dynamic_cast<const std::invalid_argument*>(&e) != nullptr ||
                                 dynamic_cast<const std::domain_error*>(&e) != nullptr;
        obs::counter_add(obs::Counter::kNetFrameErrors, 1);
        st.frame_errors.fetch_add(1, std::memory_order_relaxed);
        reply = encode_error(job.rq.seq,
                             bad_request ? ErrorCode::kBadRequest : ErrorCode::kInternal,
                             e.what());
        error = true;
      }
      {
        std::lock_guard lock{completion_mu};
        completions.push_back(Completion{job.conn_id, std::move(reply), job.rid,
                                         job.rq.type, job.start_ns, error});
      }
      wake_loop();
    }
  }

  void wake_loop() noexcept {
    const int w = wake_w.load(std::memory_order_acquire);
    if (w >= 0) {
      const char byte = 1;
      [[maybe_unused]] const ssize_t r = ::write(w, &byte, 1);
    }
  }

  /// The reply body for a dispatched request.  Cacheable kinds run through
  /// the campaign runner (compute + durable put on miss), so the body is
  /// always exactly the stored payload.  Each job builds its own model from
  /// the parsed spec (under a microsecond; REALM's LUT comes from the shared
  /// SegmentLut cache), so the server keeps no per-spec state.
  [[nodiscard]] std::string compute_body(const Request& rq) {
    // The same content address the loop's warm path looks up.
    const auto cached = [&](const auto& compute) -> std::string {
      campaign::CampaignRunner* runner = opts.campaign;
      if (runner == nullptr) return compute();
      return runner->run_unit(request_key(rq, opts.engine_threads), compute);
    };
    switch (rq.type) {
      case MsgType::kMultiplyBatch: {
        const auto model = mult::make_multiplier(rq.spec, rq.n);
        std::vector<std::uint64_t> out(rq.a.size());
        model->multiply_batch(rq.a.data(), rq.b.data(), out.data(), out.size());
        return campaign::PayloadWriter{}
            .field_str("out", encode_u64_list(out))
            .str();
      }
      case MsgType::kCharacterizeMc: {
        err::MonteCarloOptions opts_mc;
        opts_mc.samples = rq.samples;
        opts_mc.seed = rq.seed;
        opts_mc.threads = opts.engine_threads;
        const auto model = mult::make_multiplier(rq.spec, rq.n);
        return cached([&] {
          return campaign::serialize_error_metrics(err::monte_carlo(*model, opts_mc));
        });
      }
      case MsgType::kCharacterizeExhaustive: {
        const auto model = mult::make_multiplier(rq.spec, rq.n);
        return cached([&] {
          return campaign::serialize_exhaustive_report(err::exhaustive_report(
              *model, nullptr, rq.lo, rq.hi, opts.engine_threads));
        });
      }
      case MsgType::kSynthesisCost:
        return cached([&] {
          hw::CostModel cm{rq.n, synthesis_profile(rq.cycles, opts.engine_threads)};
          return campaign::serialize_synthesis(
              campaign::compute_synthesis(cm, rq.spec.to_string(), rq.n));
        });
      case MsgType::kSijLookup: {
        const auto lut = core::SegmentLut::shared(rq.m, rq.q);
        std::vector<double> exact;
        std::vector<std::uint64_t> units;
        exact.reserve(static_cast<std::size_t>(rq.m) * static_cast<std::size_t>(rq.m));
        units.reserve(exact.capacity());
        for (int i = 0; i < rq.m; ++i) {
          for (int j = 0; j < rq.m; ++j) {
            exact.push_back(lut->exact(i, j));
            units.push_back(lut->units(i, j));
          }
        }
        return campaign::PayloadWriter{}
            .field("m", static_cast<std::int64_t>(rq.m))
            .field("q", static_cast<std::int64_t>(rq.q))
            .field("stored_bits", static_cast<std::int64_t>(lut->stored_bits()))
            .field("max_quantization_error", lut->max_quantization_error())
            .field_str("exact", encode_double_list(exact))
            .field_str("units", encode_u64_list(units))
            .str();
      }
      default:
        throw std::runtime_error("net: unreachable request kind");
    }
  }
};

Server::Server(ServerOptions opts) : impl_{new Impl{std::move(opts)}} {}

Server::~Server() { delete impl_; }

void Server::start() { impl_->start(); }

int Server::port() const noexcept { return impl_->bound_port; }

void Server::run() { impl_->run(); }

void Server::request_stop() noexcept {
  impl_->stop_requested.store(true, std::memory_order_release);
  impl_->wake_loop();
}

Server::Stats Server::stats() const {
  const auto& s = impl_->st;
  Stats out;
  out.accepted = s.accepted.load(std::memory_order_relaxed);
  out.rejected = s.rejected.load(std::memory_order_relaxed);
  out.requests = s.requests.load(std::memory_order_relaxed);
  out.warm_hits = s.warm_hits.load(std::memory_order_relaxed);
  out.dispatched = s.dispatched.load(std::memory_order_relaxed);
  out.frame_errors = s.frame_errors.load(std::memory_order_relaxed);
  out.replies_dropped = s.replies_dropped.load(std::memory_order_relaxed);
  out.drained = s.drained.load(std::memory_order_relaxed);
  return out;
}

}  // namespace realm::net
