// Persistent second tier of the evaluation cache: a ccache-style,
// content-addressed directory of completed EvalOutcomes, shared by
// every process pointed at the same --eval-cache-dir. The in-memory
// sharded-LRU EvalCache stays the first tier; on a memory miss the
// disk tier is consulted, and every insert is written through, so a
// repeated campaign - a new `ftune` process, a restarted `ftuned`
// daemon, a whole fleet of clients - starts warm instead of cold.
//
// Layout: one file per entry at <dir>/<shard>/<fingerprint>, where
// shard is the low byte of the key fingerprint (hex) and the filename
// its full 64-bit fingerprint (hex). The file body is a fixed little-
// endian binary encoding of (full key, outcome, modeled rerun cost)
// with a CRC-32 trailer (support/crc32, also the service layer's
// binary-crc32 trailer). The checkpoint journal's records are these
// same entries, length-prefixed (core/checkpoint).
//
// Atomicity protocol (the crash-consistency contract the fault-point
// test harness sweeps): an entry is written to a same-directory
// temp file opened O_EXCL, fully written, fsync'd, then rename(2)d
// onto its final name. Readers open final names only, so at every
// kill point they observe either no entry or a complete one - a torn
// entry is impossible to serve by construction, and the CRC trailer
// plus a full-key compare rejects anything a corrupted disk serves
// up anyway. Rejected files are quarantined to <dir>/corrupt/ (never
// re-read, kept for forensics) and counted in cache.disk.rejected.
//
// The tier is lock-free across processes: no lock file, no shared
// index. Two writers racing on one key rename byte-identical bodies
// (the measurement stack is deterministic per key), so last-rename-
// wins is harmless; readers of a concurrently-evicted entry keep
// their already-open fd. Within a process a mutex serializes only
// eviction scans.
//
// Eviction: a size budget (--eval-cache-disk-size). Inserts track an
// approximate byte total (seeded by a directory scan at attach time);
// when the budget is exceeded the evictor rescans, sorts by mtime and
// unlinks oldest-first down to 90% of the budget. Lookup hits bump
// their entry's mtime, so recency survives across processes.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>

#include "core/eval_cache.hpp"

namespace ft::core {

/// Cumulative disk-tier counters for this process (mirrored into
/// telemetry under cache.disk.*). Like the memory tier's stats they
/// are reporting-only: results never depend on them.
struct PersistentCacheStats {
  std::size_t hits = 0;        ///< entries served from disk
  std::size_t misses = 0;      ///< consults that found no usable entry
  std::size_t insertions = 0;  ///< entries written by this process
  std::size_t evictions = 0;   ///< entries unlinked by the size budget
  std::size_t rejected = 0;    ///< corrupt entries quarantined
  std::size_t bytes = 0;       ///< approximate resident on-disk bytes
  std::size_t entries = 0;     ///< approximate on-disk entry count
};

class PersistentCache {
 public:
  struct Options {
    std::string dir;
    /// Size budget in bytes; exceeding it evicts oldest-mtime entries
    /// down to 90%. 0 = kDefaultMaxBytes.
    std::size_t max_bytes = 0;
    /// Inserts between budget checks (a check is one statfs-free
    /// atomic compare; the expensive rescans happen only over budget).
    std::size_t evict_check_interval = 16;
  };

  static constexpr std::size_t kDefaultMaxBytes =
      std::size_t{256} << 20;  // 256 MiB

  /// Creates <dir> (and its corrupt/ quarantine) if missing and seeds
  /// the byte accounting from a scan. Throws std::runtime_error when
  /// the directory cannot be created or is not writable.
  explicit PersistentCache(Options options);

  PersistentCache(const PersistentCache&) = delete;
  PersistentCache& operator=(const PersistentCache&) = delete;

  /// Replays a completed evaluation from disk. False on miss; corrupt
  /// entries are quarantined and read as misses. Thread-safe and safe
  /// against concurrent writers/evictors in other processes.
  [[nodiscard]] bool lookup(const EvalCache::Key& key, EvalOutcome* out,
                            double* rerun_seconds = nullptr);

  /// Writes one completed evaluation through the temp+fsync+rename
  /// protocol. A key already present on disk is left untouched (both
  /// bodies would be byte-identical). Thread-safe.
  void insert(const EvalCache::Key& key, const EvalOutcome& outcome,
              double rerun_seconds);

  [[nodiscard]] PersistentCacheStats stats() const;
  [[nodiscard]] const std::string& dir() const noexcept {
    return options_.dir;
  }
  [[nodiscard]] std::size_t max_bytes() const noexcept {
    return max_bytes_;
  }

  /// Entry path for a key (exposed for tests/tools).
  [[nodiscard]] std::string entry_path(const EvalCache::Key& key) const;

  // --- test seams ----------------------------------------------------------

  /// Crash-injection hook, invoked with a step name at every point of
  /// the write protocol: "tmp-open", "half-write", "write", "sync",
  /// "rename", "dir-sync". The crash-consistency harness forks a
  /// writer whose hook _exit()s at one step per sweep and then asserts
  /// the directory still satisfies the all-or-nothing contract.
  using FaultHook = std::function<void(std::string_view step)>;
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }

  /// Binary entry codec (CRC trailer included), exposed so the
  /// corruption-fuzz tests can build and mutilate entries directly.
  [[nodiscard]] static std::string encode_entry(const EvalCache::Key& key,
                                                const EvalOutcome& outcome,
                                                double rerun_seconds);
  /// Validates the CRC trailer and decodes; false for any torn,
  /// truncated or corrupted body.
  [[nodiscard]] static bool decode_entry(std::string_view bytes,
                                         EvalCache::Key* key,
                                         EvalOutcome* outcome,
                                         double* rerun_seconds);

 private:
  void hook(std::string_view step) {
    if (fault_hook_) fault_hook_(step);
  }
  [[nodiscard]] std::string shard_dir(std::uint64_t fingerprint) const;
  /// Quarantines a corrupt entry file into <dir>/corrupt/.
  void quarantine(const std::string& path);
  /// Rescans, sorts by mtime and unlinks oldest entries until the
  /// total is back under 90% of the budget.
  void evict_over_budget();

  Options options_;
  std::size_t max_bytes_ = kDefaultMaxBytes;
  FaultHook fault_hook_;
  std::atomic<std::uint64_t> tmp_seq_{0};
  std::mutex evict_mutex_;
  std::atomic<std::size_t> inserts_since_check_{0};

  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};
  std::atomic<std::size_t> insertions_{0};
  std::atomic<std::size_t> evictions_{0};
  std::atomic<std::size_t> rejected_{0};
  std::atomic<std::size_t> bytes_{0};
  std::atomic<std::size_t> entries_{0};
};

}  // namespace ft::core
