#include "core/persistent_cache.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <vector>

#include "support/byte_codec.hpp"
#include "support/crc32.hpp"
#include "telemetry/metrics.hpp"

namespace ft::core {

namespace fs = std::filesystem;

namespace {

/// Disk-tier telemetry is reporting-only (hit/miss depends on what
/// other processes left behind), so every metric is non-deterministic
/// (snapshot-only, never traced).
void count_metric(const char* name, std::uint64_t n = 1) {
  if (!telemetry::enabled()) return;
  telemetry::metrics().counter(name, /*deterministic=*/false).add(n);
}

constexpr char kMagic[4] = {'F', 'T', 'C', '1'};

std::string hex(std::uint64_t value, int width) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%0*llx", width,
                static_cast<unsigned long long>(value));
  return buffer;
}

/// True for final entry names (16 hex chars) - temp and quarantine
/// files never match, so scans and eviction skip them.
bool is_entry_name(const std::string& name) {
  if (name.size() != 16) return false;
  for (const char c : name) {
    const bool ok =
        (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!ok) return false;
  }
  return true;
}

/// write(2) the whole span, tolerating partial writes and EINTR.
bool write_all(int fd, const char* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

std::string PersistentCache::encode_entry(const EvalCache::Key& key,
                                          const EvalOutcome& outcome,
                                          double rerun_seconds) {
  using support::put_f64, support::put_string, support::put_u32,
      support::put_u64, support::put_u8;
  std::string body;
  body.reserve(128 + outcome.result.loop_seconds.size() * 8);
  body.append(kMagic, sizeof(kMagic));
  put_u64(&body, key.assignment);
  put_u64(&body, key.rep_base);
  put_u64(&body, key.salt);
  put_u32(&body, static_cast<std::uint32_t>(key.repetitions));
  put_u8(&body, key.instrumented ? 1 : 0);
  put_u8(&body, static_cast<std::uint8_t>(outcome.error.kind));
  put_u32(&body, static_cast<std::uint32_t>(outcome.attempts));
  put_string(&body, outcome.error.detail);
  put_f64(&body, outcome.result.end_to_end);
  put_f64(&body, outcome.result.stddev);
  put_f64(&body, outcome.result.derived_nonloop_seconds);
  put_u32(&body,
          static_cast<std::uint32_t>(outcome.result.loop_seconds.size()));
  for (const double seconds : outcome.result.loop_seconds) {
    put_f64(&body, seconds);
  }
  put_f64(&body, rerun_seconds);
  put_u32(&body, support::crc32(body));
  return body;
}

bool PersistentCache::decode_entry(std::string_view bytes,
                                   EvalCache::Key* key, EvalOutcome* outcome,
                                   double* rerun_seconds) {
  if (bytes.size() < sizeof(kMagic) + 4) return false;
  const std::string_view body = bytes.substr(0, bytes.size() - 4);
  support::ByteReader trailer{bytes, body.size()};
  std::uint32_t declared = 0;
  if (!trailer.u32(&declared) || support::crc32(body) != declared) {
    return false;
  }
  if (std::memcmp(body.data(), kMagic, sizeof(kMagic)) != 0) return false;

  support::ByteReader in{body, sizeof(kMagic)};
  std::uint32_t repetitions = 0, attempts = 0;
  std::uint8_t instrumented = 0, fault = 0;
  EvalCache::Key decoded;
  EvalOutcome result;
  if (!in.u64(&decoded.assignment) || !in.u64(&decoded.rep_base) ||
      !in.u64(&decoded.salt) || !in.u32(&repetitions) ||
      !in.u8(&instrumented) || !in.u8(&fault) || !in.u32(&attempts)) {
    return false;
  }
  decoded.repetitions = static_cast<int>(repetitions);
  decoded.instrumented = instrumented != 0;
  if (fault > static_cast<std::uint8_t>(EvalFault::kQuarantined)) {
    return false;
  }
  result.error.kind = static_cast<EvalFault>(fault);
  result.attempts = static_cast<int>(attempts);
  if (!in.string(&result.error.detail)) return false;
  std::uint32_t loops = 0;
  // The loop count is checked against the bytes left before anything
  // is allocated, so a forged count cannot force a huge resize.
  if (!in.f64(&result.result.end_to_end) ||
      !in.f64(&result.result.stddev) ||
      !in.f64(&result.result.derived_nonloop_seconds) ||
      !in.u32(&loops) || loops > in.remaining() / 8) {
    return false;
  }
  result.result.loop_seconds.resize(loops);
  for (std::uint32_t j = 0; j < loops; ++j) {
    if (!in.f64(&result.result.loop_seconds[j])) return false;
  }
  double rerun = 0.0;
  if (!in.f64(&rerun) || in.remaining() != 0) return false;

  *key = decoded;
  *outcome = std::move(result);
  if (rerun_seconds != nullptr) *rerun_seconds = rerun;
  return true;
}

PersistentCache::PersistentCache(Options options)
    : options_(std::move(options)),
      max_bytes_(options_.max_bytes != 0 ? options_.max_bytes
                                         : kDefaultMaxBytes) {
  if (options_.dir.empty()) {
    throw std::runtime_error("persistent cache: empty directory");
  }
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  fs::create_directories(fs::path(options_.dir) / "corrupt", ec);
  if (!fs::is_directory(options_.dir)) {
    throw std::runtime_error("persistent cache: cannot create " +
                             options_.dir);
  }

  // Seed the byte accounting and sweep temp litter left by crashed
  // writers. Only stale temps (>60s old) go: a live writer's temp may
  // be mid-protocol in another process.
  const auto now = fs::file_time_type::clock::now();
  std::size_t bytes = 0, entries = 0;
  for (const auto& shard : fs::directory_iterator(options_.dir, ec)) {
    if (!shard.is_directory(ec) || shard.path().filename() == "corrupt") {
      continue;
    }
    for (const auto& file : fs::directory_iterator(shard.path(), ec)) {
      const std::string name = file.path().filename().string();
      if (is_entry_name(name)) {
        bytes += static_cast<std::size_t>(file.file_size(ec));
        ++entries;
      } else {
        const auto age = now - file.last_write_time(ec);
        if (age > std::chrono::seconds(60)) fs::remove(file.path(), ec);
      }
    }
  }
  bytes_.store(bytes, std::memory_order_relaxed);
  entries_.store(entries, std::memory_order_relaxed);
}

std::string PersistentCache::shard_dir(std::uint64_t fingerprint) const {
  return options_.dir + "/" + hex(fingerprint & 0xFF, 2);
}

std::string PersistentCache::entry_path(const EvalCache::Key& key) const {
  const std::uint64_t fingerprint = key.fingerprint();
  return shard_dir(fingerprint) + "/" + hex(fingerprint, 16);
}

void PersistentCache::quarantine(const std::string& path) {
  rejected_.fetch_add(1, std::memory_order_relaxed);
  count_metric("cache.disk.rejected");
  const std::string target = options_.dir + "/corrupt/" +
                             fs::path(path).filename().string() + "." +
                             std::to_string(::getpid()) + "." +
                             std::to_string(tmp_seq_.fetch_add(1));
  // rename keeps the bytes for forensics; if it fails (already moved
  // by a racing reader) just drop the file from the serving set.
  if (::rename(path.c_str(), target.c_str()) != 0) {
    std::error_code ec;
    fs::remove(path, ec);
  }
}

bool PersistentCache::lookup(const EvalCache::Key& key, EvalOutcome* out,
                             double* rerun_seconds) {
  const std::string path = entry_path(key);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      count_metric("cache.disk.misses");
      return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = std::move(buffer).str();
  }

  EvalCache::Key decoded;
  EvalOutcome outcome;
  double rerun = 0.0;
  if (!decode_entry(bytes, &decoded, &outcome, &rerun)) {
    quarantine(path);
    misses_.fetch_add(1, std::memory_order_relaxed);
    count_metric("cache.disk.misses");
    return false;
  }
  if (!(decoded == key)) {
    // Genuine 64-bit fingerprint collision: the entry is valid, just
    // not ours. Leave it for its owner.
    misses_.fetch_add(1, std::memory_order_relaxed);
    count_metric("cache.disk.misses");
    return false;
  }

  // Bump recency for the cross-process LRU (mtime is the eviction
  // order). Best-effort: a racing eviction may have unlinked the path.
  (void)::utimensat(AT_FDCWD, path.c_str(), nullptr, 0);
  *out = std::move(outcome);
  if (rerun_seconds != nullptr) *rerun_seconds = rerun;
  hits_.fetch_add(1, std::memory_order_relaxed);
  count_metric("cache.disk.hits");
  return true;
}

void PersistentCache::insert(const EvalCache::Key& key,
                             const EvalOutcome& outcome,
                             double rerun_seconds) {
  const std::uint64_t fingerprint = key.fingerprint();
  const std::string shard = shard_dir(fingerprint);
  const std::string path = shard + "/" + hex(fingerprint, 16);

  // Deterministic stack: an existing entry for this key is
  // byte-identical to what we would write. Skip the I/O.
  struct ::stat existing{};
  if (::stat(path.c_str(), &existing) == 0) return;

  std::error_code ec;
  fs::create_directories(shard, ec);

  const std::string body = encode_entry(key, outcome, rerun_seconds);
  const std::string tmp = shard + "/tmp-" + hex(fingerprint, 16) + "-" +
                          std::to_string(::getpid()) + "-" +
                          std::to_string(tmp_seq_.fetch_add(1));

  // temp (O_EXCL) -> write -> fsync -> rename: the all-or-nothing
  // protocol. The hook() calls are the crash-consistency test seams -
  // a forked writer _exit()s at one step per sweep.
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0) return;  // best-effort tier: never fail the evaluation
  hook("tmp-open");
  const std::size_t half = body.size() / 2;
  bool ok = write_all(fd, body.data(), half);
  if (ok) hook("half-write");
  ok = ok && write_all(fd, body.data() + half, body.size() - half);
  if (ok) hook("write");
  ok = ok && ::fsync(fd) == 0;
  if (ok) hook("sync");
  ::close(fd);
  ok = ok && ::rename(tmp.c_str(), path.c_str()) == 0;
  if (!ok) {
    ::unlink(tmp.c_str());
    return;
  }
  hook("rename");
  // Persist the rename itself: fsync the shard directory so the entry
  // survives power loss, not just process death.
  const int dirfd = ::open(shard.c_str(), O_RDONLY | O_DIRECTORY);
  if (dirfd >= 0) {
    (void)::fsync(dirfd);
    ::close(dirfd);
  }
  hook("dir-sync");

  insertions_.fetch_add(1, std::memory_order_relaxed);
  entries_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t total =
      bytes_.fetch_add(body.size(), std::memory_order_relaxed) +
      body.size();
  count_metric("cache.disk.insertions");
  if (telemetry::enabled()) {
    telemetry::metrics()
        .gauge("cache.disk.bytes", /*deterministic=*/false)
        .set(static_cast<double>(total));
  }

  if (total > max_bytes_) {
    const std::size_t since =
        inserts_since_check_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (since >= options_.evict_check_interval || total > max_bytes_ * 2) {
      evict_over_budget();
    }
  }
}

void PersistentCache::evict_over_budget() {
  std::unique_lock lock(evict_mutex_, std::try_to_lock);
  if (!lock.owns_lock()) return;  // another thread is already at it
  inserts_since_check_.store(0, std::memory_order_relaxed);

  struct Candidate {
    fs::file_time_type mtime;
    std::size_t size = 0;
    std::string path;
  };
  std::vector<Candidate> candidates;
  std::size_t total = 0;
  std::error_code ec;
  for (const auto& shard : fs::directory_iterator(options_.dir, ec)) {
    if (!shard.is_directory(ec) || shard.path().filename() == "corrupt") {
      continue;
    }
    for (const auto& file : fs::directory_iterator(shard.path(), ec)) {
      if (!is_entry_name(file.path().filename().string())) continue;
      Candidate candidate;
      candidate.size = static_cast<std::size_t>(file.file_size(ec));
      candidate.mtime = file.last_write_time(ec);
      candidate.path = file.path().string();
      total += candidate.size;
      candidates.push_back(std::move(candidate));
    }
  }

  const std::size_t target = max_bytes_ - max_bytes_ / 10;  // 90%
  if (total > target) {
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.mtime != b.mtime ? a.mtime < b.mtime
                                          : a.path < b.path;
              });
    for (const Candidate& victim : candidates) {
      if (total <= target) break;
      if (!fs::remove(victim.path, ec) || ec) continue;
      total -= std::min(total, victim.size);
      evictions_.fetch_add(1, std::memory_order_relaxed);
      entries_.fetch_sub(1, std::memory_order_relaxed);
      count_metric("cache.disk.evictions");
    }
  }
  // The rescan total is authoritative; racing processes drift the
  // running counter, this snaps it back.
  bytes_.store(total, std::memory_order_relaxed);
}

PersistentCacheStats PersistentCache::stats() const {
  PersistentCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.insertions = insertions_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.bytes = bytes_.load(std::memory_order_relaxed);
  stats.entries = entries_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace ft::core
