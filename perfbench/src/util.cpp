// Statistics, result documents, the realm_served child process and the
// readers for its stats reply and exit document.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "perfbench.hpp"
#include "realm/campaign/record.hpp"
#include "realm/net/client.hpp"
#include "realm/net/protocol.hpp"

namespace pb {

double Samples::quantile(double q) const {
  if (v_.empty()) return 0.0;
  if (sorted_.size() != v_.size()) {
    sorted_ = v_;
    std::sort(sorted_.begin(), sorted_.end());
  }
  // Nearest rank: the smallest sample with at least q of all samples <= it.
  const double rank = std::ceil(q * static_cast<double>(sorted_.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted_[std::min(i, sorted_.size() - 1)];
}

double Samples::sum() const { return std::accumulate(v_.begin(), v_.end(), 0.0); }

double Samples::mean() const {
  return v_.empty() ? 0.0 : sum() / static_cast<double>(v_.size());
}

std::size_t Samples::count_before(double t) const {
  return static_cast<std::size_t>(
      std::count_if(t_.begin(), t_.end(), [t](double x) { return x < t; }));
}

Summary summarize(const std::vector<Samples>& sessions, double span) {
  Summary out;
  std::vector<double> rates, p50, p95, p99;
  Samples pooled;
  bool each_large = !sessions.empty();
  for (const Samples& s : sessions) {
    out.n += s.size();
    rates.push_back(static_cast<double>(s.count_before(span)) / span);
    p50.push_back(s.quantile(0.50));
    p95.push_back(s.quantile(0.95));
    p99.push_back(s.quantile(0.99));
    pooled.append(s);
    each_large = each_large && s.size() >= 1000;
  }
  out.rate = median(rates);
  out.p50 = each_large ? median(p50) : pooled.quantile(0.50);
  out.p95 = each_large ? median(p95) : pooled.quantile(0.95);
  out.p99 = each_large ? median(p99) : pooled.quantile(0.99);
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// -- report -------------------------------------------------------------------

void Report::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

void Report::e2e(const std::string& name, double v, const char* unit, std::uint64_t n,
                 const char* source) {
  end_to_end[name] = Metric{v, unit, n, source};
}

void Report::layer(const std::string& name, double v, const char* unit,
                   std::uint64_t n, const char* source) {
  per_layer[name] = Metric{v, unit, n, source};
}

namespace {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void append_metrics(std::string& out, const char* section,
                    const std::map<std::string, Metric>& m) {
  out += ",\n \"" + std::string{section} + "\": {";
  bool first = true;
  for (const auto& [name, x] : m) {
    out += first ? "\n  " : ",\n  ";
    first = false;
    out += quote(name) + ": {\"value\": " + number(x.value) + ", \"unit\": " +
           quote(x.unit) + ", \"samples\": " + std::to_string(x.samples) +
           ", \"source\": " + quote(x.source) + "}";
  }
  out += "}";
}

}  // namespace

std::string Report::to_json() const {
  std::string out = "{\"workload\": " + quote(workload);
  out += ", \"seed\": " + std::to_string(seed);
  out += ", \"seconds\": " + std::to_string(seconds);
  out += ", \"trace\": " + std::to_string(trace);
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    out += (i == 0 ? "" : ", ") + quote(failures[i]);
  }
  out += "]";
  out += ",\n \"info\": {";
  bool first = true;
  for (const auto& [k, v] : info) {
    out += (first ? "" : ", ") + quote(k) + ": " + quote(v);
    first = false;
  }
  out += "}";
  append_metrics(out, "end_to_end", end_to_end);
  append_metrics(out, "per_layer", per_layer);
  out += "\n}\n";
  return out;
}

void headline(Report& r, const Summary& ms) {
  r.e2e("ops_per_s", ms.rate, "1/s", ms.n);
  r.e2e("op_p50_ms", ms.p50, "ms", ms.n);
  r.e2e("op_p95_ms", ms.p95, "ms", ms.n);
}

// -- realm_served child -------------------------------------------------------

ServedProcess::ServedProcess(const std::string& binary,
                             const std::vector<std::string>& args, bool traced,
                             const std::string& log_path) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const int log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (log_fd < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("cannot open " + log_path);
  }
  std::vector<std::string> argv_s{binary};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);

  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    ::close(log_fd);
    throw std::runtime_error("fork failed");
  }
  if (pid_ == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::close(log_fd);
    if (traced) {
      ::setenv("REALM_TRACE", "1", 1);
    } else {
      ::unsetenv("REALM_TRACE");
    }
    ::execv(argv[0], argv.data());
    std::_Exit(127);
  }
  ::close(fds[1]);
  ::close(log_fd);
  out_fd_ = fds[0];

  // Wait for the readiness line; journal replay happens before it.
  std::string line;
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  while (line.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    pollfd p{out_fd_, POLLIN, 0};
    if (left <= 0 || ::poll(&p, 1, static_cast<int>(left)) <= 0) break;
    char buf[256];
    const ssize_t n = ::read(out_fd_, buf, sizeof buf);
    if (n <= 0) break;
    line.append(buf, static_cast<std::size_t>(n));
  }
  const std::string tag = "listening on 127.0.0.1:";
  const auto at = line.find(tag);
  if (at == std::string::npos) {
    stop();
    throw std::runtime_error("realm_served did not become ready: '" + line + "'");
  }
  port_ = std::atoi(line.c_str() + at + tag.size());
}

ServedProcess::~ServedProcess() { stop(); }

int ServedProcess::stop() {
  if (pid_ <= 0) return 0;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const auto deadline = Clock::now() + std::chrono::seconds(40);
  pid_t r = 0;
  while ((r = ::waitpid(pid_, &status, WNOHANG)) == 0 && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (r == 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    status = -1;
  }
  pid_ = -1;
  if (out_fd_ >= 0) ::close(out_fd_);
  out_fd_ = -1;
  if (status == -1) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

std::map<std::string, std::string> fetch_stats(realm::net::Client& c,
                                               std::uint64_t seq) {
  const realm::net::Frame f = c.call(realm::net::MsgType::kStats, seq, {}, 30000);
  if (f.type != realm::net::MsgType::kReplyOk) {
    throw std::runtime_error("stats request failed");
  }
  std::map<std::string, std::string> out;
  const realm::campaign::PayloadReader reader{f.body};
  for (const auto& [k, v] : reader.fields()) out[k] = v;
  return out;
}

std::uint64_t stat_u64(const std::map<std::string, std::string>& s,
                       const std::string& name) {
  const auto it = s.find(name);
  if (it == s.end()) throw std::runtime_error("stats reply lacks " + name);
  return std::strtoull(it->second.c_str(), nullptr, 10);
}

std::map<std::string, SpanTotals> read_spans(const std::string& json_path) {
  std::ifstream in{json_path};
  if (!in) throw std::runtime_error("cannot read " + json_path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  std::map<std::string, SpanTotals> out;
  std::size_t pos = doc.find("\"spans\": {");
  if (pos == std::string::npos) return out;
  const std::size_t end = doc.find("\"value_histograms\"", pos);
  // Entries read: "name": {"count": N, "total_us": X, ...}
  while ((pos = doc.find("\": {\"count\": ", pos)) != std::string::npos && pos < end) {
    const std::size_t name_end = pos;
    const std::size_t name_begin = doc.rfind('"', name_end - 1) + 1;
    SpanTotals t;
    const char* p = doc.c_str() + pos + std::strlen("\": {\"count\": ");
    t.count = std::strtoull(p, nullptr, 10);
    const std::size_t tot = doc.find("\"total_us\": ", pos);
    t.total_us = std::strtod(doc.c_str() + tot + std::strlen("\"total_us\": "), nullptr);
    out[doc.substr(name_begin, name_end - name_begin)] = t;
    pos = tot;
  }
  return out;
}

void copy_file(const std::string& from, const std::string& to) {
  std::filesystem::copy_file(from, to, std::filesystem::copy_options::overwrite_existing);
  // Flush the copy now, so neither the server's first fsync nor background
  // writeback pays for it inside a timed phase.
  const int fd = ::open(to.c_str(), O_RDONLY);
  if (fd < 0 || ::fsync(fd) != 0) {
    if (fd >= 0) ::close(fd);
    throw std::runtime_error("cannot flush " + to);
  }
  ::close(fd);
}

}  // namespace pb
