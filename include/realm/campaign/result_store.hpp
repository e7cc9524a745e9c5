// Content-addressed on-disk result store for long-running campaigns.
//
// A store is a single append-only journal file plus an in-memory index.
// Records are addressed by the *content* of their canonical request key
// (record.hpp): the index hashes the full key string, and the 64-bit FNV-1a
// digest of the key doubles as the short display address used by the
// `realm_campaign` CLI.  The full key is stored in every record, so hash
// collisions can never alias two different requests.
//
// Journal layout (all integers little-endian, independent of host order):
//
//   file header   8 bytes   "REALMST1"
//   record        20-byte header + key bytes + payload bytes
//     u32 magic       "RCR1" (0x31524352)
//     u32 key_len
//     u32 payload_len
//     u64 checksum    FNV-1a 64 over LE(key_len) . LE(payload_len) . key . payload
//
// Durability contract: put() appends one record and fsyncs it before
// returning — a crash (including SIGKILL) after put() returns can never lose
// that record.  A crash *during* put() leaves a torn tail: open() scans the
// journal, keeps every record that parses and checksums, and — in read-write
// mode — truncates the file at the first bad byte, so the store recovers to
// exactly the set of completed put()s.  Read-only opens never modify the
// file and simply ignore the torn tail, which also makes it safe to inspect
// a store that another process is actively appending to.
//
// Re-putting a key appends a superseding record (latest wins on replay);
// compact() drops superseded duplicates by atomically rewriting the journal
// (temp file + rename).
//
// Concurrency contract (all operations are thread-safe within a process):
//   * Readers never wait on file I/O.  get/contains/size/keys/stats take a
//     shared lock on the index alone; the journal has its own mutex, held
//     by every append, fsync, rollback and compaction.  A reader waits at
//     most for one index insert, never for a write or an fsync.
//   * A record is visible only after its fsync: put() encodes the record
//     outside any lock, writes and fsyncs it under the journal mutex, and
//     only then takes the index lock exclusively to publish it.  Publishing
//     under the journal mutex keeps index order equal to journal order.
//   * A failed append is rolled back: on a short write or a failed fsync the
//     journal is truncated to its last good end and put() throws, leaving
//     the index untouched (counted as store_append_failures).  If that
//     truncation fails too, the store turns read-only: later put()s throw
//     instead of appending after garbage, which replay would otherwise
//     truncate away together with every later record.
//   * compact() blocks appends but not readers while it writes the temp
//     journal; it takes the index lock exclusively only to reset stats.

#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace realm::campaign {

/// 64-bit FNV-1a — the content address of a canonical request key.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes) noexcept;

/// fnv1a64 rendered as 16 lowercase hex digits (the CLI's record id).
[[nodiscard]] std::string content_hash_hex(std::string_view key);

class ResultStore {
 public:
  enum class Mode {
    kReadWrite,  ///< recover (truncate) torn tails; put() allowed
    kReadOnly    ///< never modifies the file; put() throws
  };

  /// Opens (creating in read-write mode) the journal at `path` and replays
  /// it into the index.  Throws std::runtime_error if the file cannot be
  /// opened/created or carries a foreign header (never clobbers a file that
  /// is not a result store).
  explicit ResultStore(std::string path, Mode mode = Mode::kReadWrite);
  ~ResultStore();

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  /// Payload for `key`, if a completed record exists.  Counts one store hit
  /// or miss (obs counters) per call.
  [[nodiscard]] std::optional<std::string> get(const std::string& key);

  /// Durably appends (key, payload); returns once the record is fsync'd and
  /// visible to get().  Throws std::runtime_error on I/O failure (the record
  /// is rolled back) or on a read-only store.
  void put(const std::string& key, const std::string& payload);

  /// Index lookup without touching the hit/miss counters.
  [[nodiscard]] bool contains(const std::string& key) const;

  /// Unique live keys.
  [[nodiscard]] std::size_t size() const;

  /// Live keys in first-seen journal order.
  [[nodiscard]] std::vector<std::string> keys() const;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  /// The mode the store was opened in.  A failed rollback refuses later
  /// put()s without changing it.
  [[nodiscard]] Mode mode() const noexcept { return mode_; }

  struct Stats {
    std::uint64_t records_replayed = 0;   ///< records parsed on open
    std::uint64_t records_live = 0;       ///< unique keys after replay + puts
    std::uint64_t bytes_on_open = 0;      ///< journal bytes that replayed clean
    std::uint64_t torn_bytes_dropped = 0; ///< trailing bytes discarded on open
    std::uint64_t records_appended = 0;   ///< put() calls this session
    std::uint64_t bytes_appended = 0;     ///< journal bytes written this session
  };
  [[nodiscard]] Stats stats() const;

  /// Rewrites the journal keeping only the latest record per key (gc).  The
  /// rewrite is atomic: a temp journal is written, fsync'd and renamed over
  /// the store.  Read-write mode only.  Returns the number of superseded
  /// records dropped.
  std::uint64_t compact();

 private:
  struct Entry {
    std::string payload;
    std::uint64_t order = 0;  ///< first-seen sequence for stable listings
  };

  void replay_journal();
  void require_writable_locked(const char* op) const;
  void append_record_locked(const std::string& record);

  std::string path_;
  Mode mode_;
  // Journal state, guarded by io_mu_.  Appends go to the descriptor at
  // end_, the journal's last good end; replay reads through the stream.
  std::FILE* file_ = nullptr;
  std::uint64_t end_ = 0;
  std::string read_only_reason_;  ///< set when a rollback failed
  std::mutex io_mu_;
  // Index state, guarded by mu_ (shared for readers).
  std::unordered_map<std::string, Entry> index_;
  std::uint64_t next_order_ = 0;
  Stats stats_;
  mutable std::shared_mutex mu_;
};

}  // namespace realm::campaign
