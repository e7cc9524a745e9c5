#include "realm/campaign/result_store.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "realm/obs/counters.hpp"
#include "realm/obs/histogram.hpp"

#include <unistd.h>

namespace realm::campaign {

namespace {

constexpr char kFileMagic[8] = {'R', 'E', 'A', 'L', 'M', 'S', 'T', '1'};
constexpr std::uint32_t kRecordMagic = 0x31524352u;  // "RCR1" little-endian
constexpr std::size_t kRecordHeaderBytes = 20;
// Sanity bounds: a length field beyond these is corruption, not a record
// (campaign keys are short strings, payloads a handful of lines).
constexpr std::uint32_t kMaxKeyLen = 1u << 20;
constexpr std::uint32_t kMaxPayloadLen = 1u << 26;

void put_le32(unsigned char* p, std::uint32_t v) noexcept {
  p[0] = static_cast<unsigned char>(v);
  p[1] = static_cast<unsigned char>(v >> 8);
  p[2] = static_cast<unsigned char>(v >> 16);
  p[3] = static_cast<unsigned char>(v >> 24);
}

void put_le64(unsigned char* p, std::uint64_t v) noexcept {
  put_le32(p, static_cast<std::uint32_t>(v));
  put_le32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

[[nodiscard]] std::uint32_t get_le32(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

[[nodiscard]] std::uint64_t get_le64(const unsigned char* p) noexcept {
  return static_cast<std::uint64_t>(get_le32(p)) |
         (static_cast<std::uint64_t>(get_le32(p + 4)) << 32);
}

[[nodiscard]] std::uint64_t fnv1a64_extend(std::uint64_t h,
                                           std::string_view bytes) noexcept {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Checksum over LE(key_len) . LE(payload_len) . key . payload.
[[nodiscard]] std::uint64_t record_checksum(std::string_view key,
                                            std::string_view payload) noexcept {
  unsigned char lens[8];
  put_le32(lens, static_cast<std::uint32_t>(key.size()));
  put_le32(lens + 4, static_cast<std::uint32_t>(payload.size()));
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv1a64_extend(h, std::string_view{reinterpret_cast<const char*>(lens), 8});
  h = fnv1a64_extend(h, key);
  h = fnv1a64_extend(h, payload);
  return h;
}

/// Encodes one record (header, key, payload) into `out`, replacing its
/// contents.
void encode_record(std::string& out, std::string_view key, std::string_view payload) {
  unsigned char header[kRecordHeaderBytes];
  put_le32(header, kRecordMagic);
  put_le32(header + 4, static_cast<std::uint32_t>(key.size()));
  put_le32(header + 8, static_cast<std::uint32_t>(payload.size()));
  put_le64(header + 12, record_checksum(key, payload));
  out.clear();
  out.reserve(kRecordHeaderBytes + key.size() + payload.size());
  out.append(reinterpret_cast<const char*>(header), kRecordHeaderBytes);
  out.append(key);
  out.append(payload);
}

void fsync_file(std::FILE* f, const std::string& path) {
  if (std::fflush(f) != 0) {
    throw std::runtime_error("result store: flush failed for " + path);
  }
  if (::fsync(::fileno(f)) != 0) {
    throw std::runtime_error("result store: fsync failed for " + path);
  }
}

/// Writes all of `bytes` at `offset`, retrying short writes; false (errno
/// set) on the first write that fails or makes no progress.
[[nodiscard]] bool write_all(int fd, std::string_view bytes, std::uint64_t offset) noexcept {
  while (!bytes.empty()) {
    const ssize_t n = ::pwrite(fd, bytes.data(), bytes.size(), static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      if (n == 0) errno = EIO;
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
    offset += static_cast<std::uint64_t>(n);
  }
  return true;
}

}  // namespace

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  return fnv1a64_extend(0xcbf29ce484222325ULL, bytes);
}

std::string content_hash_hex(std::string_view key) {
  static const char* digits = "0123456789abcdef";
  std::uint64_t h = fnv1a64(key);
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[h & 0xF];
    h >>= 4;
  }
  return out;
}

ResultStore::ResultStore(std::string path, Mode mode)
    : path_{std::move(path)}, mode_{mode} {
  namespace fs = std::filesystem;
  if (mode_ == Mode::kReadWrite) {
    const fs::path parent = fs::path{path_}.parent_path();
    if (!parent.empty()) {
      std::error_code ec;
      fs::create_directories(parent, ec);  // best effort; fopen reports failure
    }
    // "a+b" creates the journal if missing and never truncates an existing
    // one; appends are positioned explicitly at end_.
    file_ = std::fopen(path_.c_str(), "a+b");
  } else {
    file_ = std::fopen(path_.c_str(), "rb");
  }
  if (file_ == nullptr) {
    throw std::runtime_error("result store: cannot open " + path_);
  }
  try {
    replay_journal();
  } catch (...) {
    std::fclose(file_);
    file_ = nullptr;
    throw;
  }
}

ResultStore::~ResultStore() {
  if (file_ != nullptr) std::fclose(file_);
}

// Runs in the constructor, before the store is shared, so it takes no lock.
void ResultStore::replay_journal() {
  std::fseek(file_, 0, SEEK_END);
  const long end_long = std::ftell(file_);
  const std::uint64_t file_size = end_long > 0 ? static_cast<std::uint64_t>(end_long) : 0;
  std::fseek(file_, 0, SEEK_SET);

  if (file_size == 0) {
    if (mode_ == Mode::kReadWrite) {
      if (std::fwrite(kFileMagic, 1, sizeof kFileMagic, file_) != sizeof kFileMagic) {
        throw std::runtime_error("result store: cannot write header to " + path_);
      }
      fsync_file(file_, path_);
      stats_.bytes_on_open = sizeof kFileMagic;
      end_ = sizeof kFileMagic;
    }
    return;
  }

  char magic[sizeof kFileMagic];
  if (file_size < sizeof kFileMagic ||
      std::fread(magic, 1, sizeof kFileMagic, file_) != sizeof kFileMagic ||
      std::memcmp(magic, kFileMagic, sizeof kFileMagic) != 0) {
    // A short file could be our own torn header, but a wrong 8-byte magic
    // means this is some other file — refuse rather than truncate it.
    if (file_size >= sizeof kFileMagic) {
      throw std::runtime_error("result store: " + path_ +
                               " is not a realm campaign store (bad magic)");
    }
    if (mode_ == Mode::kReadWrite) {
      // Torn header from a crash during creation: restart the journal.
      if (::ftruncate(::fileno(file_), 0) != 0) {
        throw std::runtime_error("result store: cannot truncate " + path_);
      }
      std::fseek(file_, 0, SEEK_SET);
      if (std::fwrite(kFileMagic, 1, sizeof kFileMagic, file_) != sizeof kFileMagic) {
        throw std::runtime_error("result store: cannot write header to " + path_);
      }
      fsync_file(file_, path_);
      stats_.torn_bytes_dropped = file_size;
    }
    stats_.bytes_on_open = sizeof kFileMagic;
    end_ = sizeof kFileMagic;
    return;
  }

  std::uint64_t good_end = sizeof kFileMagic;
  std::string key;
  std::string payload;
  while (true) {
    unsigned char header[kRecordHeaderBytes];
    const std::size_t got = std::fread(header, 1, kRecordHeaderBytes, file_);
    if (got == 0) break;  // clean EOF
    if (got < kRecordHeaderBytes) break;  // torn header
    const std::uint32_t rec_magic = get_le32(header);
    const std::uint32_t key_len = get_le32(header + 4);
    const std::uint32_t payload_len = get_le32(header + 8);
    const std::uint64_t checksum = get_le64(header + 12);
    if (rec_magic != kRecordMagic || key_len == 0 || key_len > kMaxKeyLen ||
        payload_len > kMaxPayloadLen) {
      break;  // corrupt header
    }
    key.resize(key_len);
    payload.resize(payload_len);
    if (std::fread(key.data(), 1, key_len, file_) != key_len) break;
    if (payload_len > 0 &&
        std::fread(payload.data(), 1, payload_len, file_) != payload_len) {
      break;  // torn body
    }
    if (record_checksum(key, payload) != checksum) break;  // corrupt body

    auto [it, inserted] = index_.try_emplace(key);
    if (inserted) it->second.order = next_order_++;
    it->second.payload = payload;  // latest record wins
    ++stats_.records_replayed;
    good_end += kRecordHeaderBytes + key_len + payload_len;
  }

  stats_.bytes_on_open = good_end;
  stats_.torn_bytes_dropped = file_size - good_end;
  obs::counter_add(obs::Counter::kStoreBytesRead, good_end);

  if (stats_.torn_bytes_dropped > 0 && mode_ == Mode::kReadWrite) {
    if (::ftruncate(::fileno(file_), static_cast<off_t>(good_end)) != 0) {
      throw std::runtime_error("result store: cannot truncate torn tail of " + path_);
    }
  }
  end_ = good_end;
}

std::optional<std::string> ResultStore::get(const std::string& key) {
  std::shared_lock<std::shared_mutex> lock{mu_};
  const auto it = index_.find(key);
  if (it == index_.end()) {
    obs::counter_add(obs::Counter::kStoreMisses, 1);
    return std::nullopt;
  }
  obs::counter_add(obs::Counter::kStoreHits, 1);
  return it->second.payload;
}

void ResultStore::put(const std::string& key, const std::string& payload) {
  if (key.empty()) throw std::runtime_error("result store: empty key");
  // Everything that allocates happens before the locks.
  std::string record;
  encode_record(record, key, payload);
  std::string published = payload;

  std::lock_guard<std::mutex> io{io_mu_};
  require_writable_locked("put()");
  append_record_locked(record);
  // Publishing under io_mu_ keeps the index in journal order, so a re-put
  // key can never show an older payload than the one replay would pick.
  std::unique_lock<std::shared_mutex> lock{mu_};
  auto [it, inserted] = index_.try_emplace(key);
  if (inserted) it->second.order = next_order_++;
  it->second.payload = std::move(published);
  ++stats_.records_appended;
  stats_.bytes_appended += record.size();
}

void ResultStore::require_writable_locked(const char* op) const {
  if (mode_ != Mode::kReadWrite) {
    throw std::runtime_error(std::string{"result store: "} + op +
                             " on read-only store " + path_);
  }
  if (!read_only_reason_.empty()) {
    throw std::runtime_error(std::string{"result store: "} + op + " on " + path_ +
                             ", read-only since " + read_only_reason_);
  }
}

void ResultStore::append_record_locked(const std::string& record) {
  const int fd = ::fileno(file_);
  const char* failed = nullptr;
  if (!write_all(fd, record, end_)) {
    failed = "append";
  } else if (::fsync(fd) != 0) {
    failed = "fsync";
  }
  if (failed != nullptr) {
    const int err = errno;
    const std::string what = std::string{failed} + " failed (" + std::strerror(err) + ")";
    obs::counter_add(obs::Counter::kStoreAppendFailures, 1);
    // Cut the partial record off so the next append starts at a record
    // boundary; the index never saw it.
    if (::ftruncate(fd, static_cast<off_t>(end_)) != 0) {
      const int rollback_err = errno;
      read_only_reason_ =
          what + " and its rollback failed (" + std::strerror(rollback_err) + ")";
      throw std::runtime_error("result store: " + path_ + ": " + read_only_reason_ +
                               "; the store is now read-only");
    }
    throw std::runtime_error("result store: " + path_ + ": " + what +
                             "; record rolled back");
  }
  end_ += record.size();
  obs::counter_add(obs::Counter::kStoreBytesWritten, record.size());
  // Record-size distribution: an outlier payload (schema drift, a runaway
  // histogram dump) shows up in the p99 long before it fills the journal.
  obs::value_hist_record(obs::ValueHist::kStoreRecordBytes, record.size());
}

bool ResultStore::contains(const std::string& key) const {
  std::shared_lock<std::shared_mutex> lock{mu_};
  return index_.count(key) != 0;
}

std::size_t ResultStore::size() const {
  std::shared_lock<std::shared_mutex> lock{mu_};
  return index_.size();
}

std::vector<std::string> ResultStore::keys() const {
  std::shared_lock<std::shared_mutex> lock{mu_};
  std::vector<const std::pair<const std::string, Entry>*> live;
  live.reserve(index_.size());
  for (const auto& kv : index_) live.push_back(&kv);
  std::sort(live.begin(), live.end(),
            [](const auto* a, const auto* b) { return a->second.order < b->second.order; });
  std::vector<std::string> out;
  out.reserve(live.size());
  for (const auto* kv : live) out.push_back(kv->first);
  return out;
}

ResultStore::Stats ResultStore::stats() const {
  std::shared_lock<std::shared_mutex> lock{mu_};
  Stats s = stats_;
  s.records_live = index_.size();
  return s;
}

std::uint64_t ResultStore::compact() {
  // io_mu_ stops appends, and with them publishes, for the whole rewrite;
  // readers share mu_ with the rewrite until the stats reset.
  std::lock_guard<std::mutex> io{io_mu_};
  require_writable_locked("compact()");
  const std::string tmp_path = path_ + ".compact.tmp";
  std::FILE* tmp = std::fopen(tmp_path.c_str(), "wb");
  if (tmp == nullptr) {
    throw std::runtime_error("result store: cannot create " + tmp_path);
  }
  std::uint64_t dropped = 0;
  std::uint64_t bytes = sizeof kFileMagic;
  try {
    if (std::fwrite(kFileMagic, 1, sizeof kFileMagic, tmp) != sizeof kFileMagic) {
      throw std::runtime_error("result store: cannot write header to " + tmp_path);
    }
    std::shared_lock<std::shared_mutex> lock{mu_};
    const std::uint64_t total = stats_.records_replayed + stats_.records_appended;
    dropped = total > index_.size() ? total - index_.size() : 0;
    // Stable first-seen order keeps listings and replay deterministic.
    std::vector<const std::pair<const std::string, Entry>*> live;
    live.reserve(index_.size());
    for (const auto& kv : index_) live.push_back(&kv);
    std::sort(live.begin(), live.end(), [](const auto* a, const auto* b) {
      return a->second.order < b->second.order;
    });
    std::string record;
    for (const auto* kv : live) {
      encode_record(record, kv->first, kv->second.payload);
      if (std::fwrite(record.data(), 1, record.size(), tmp) != record.size()) {
        throw std::runtime_error("result store: compact write failed for " + tmp_path);
      }
      bytes += record.size();
    }
    lock.unlock();
    fsync_file(tmp, tmp_path);
  } catch (...) {
    std::fclose(tmp);
    std::remove(tmp_path.c_str());
    throw;
  }

  std::error_code ec;
  std::filesystem::rename(tmp_path, path_, ec);
  if (ec) {
    // The original journal is untouched and still open: the store stays
    // usable as it was.
    std::fclose(tmp);
    std::remove(tmp_path.c_str());
    throw std::runtime_error("result store: rename failed for " + tmp_path + ": " +
                             ec.message());
  }
  // The renamed temp file is the journal now.  Keeping its stream instead
  // of reopening the path leaves no window without a journal to append to.
  std::fclose(file_);
  file_ = tmp;
  end_ = bytes;
  // Replayed/appended tallies now describe the compacted journal.
  std::unique_lock<std::shared_mutex> lock{mu_};
  stats_.records_replayed = index_.size();
  stats_.records_appended = 0;
  stats_.bytes_appended = 0;
  return dropped;
}

}  // namespace realm::campaign
