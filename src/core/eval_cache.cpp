#include "core/eval_cache.hpp"

#include <algorithm>

#include "core/persistent_cache.hpp"
#include "telemetry/metrics.hpp"

namespace ft::core {

namespace {

/// Cache telemetry is reporting-only: hits/misses depend on eviction
/// order and on in-batch races between duplicate evaluations, so every
/// cache.* metric is registered non-deterministic (snapshot-only,
/// never traced).
void count_metric(const char* name, std::uint64_t n = 1) {
  if (!telemetry::enabled()) return;
  telemetry::metrics().counter(name, /*deterministic=*/false).add(n);
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::size_t payload_bytes(const EvalOutcome& outcome) {
  return sizeof(EvalCache::Key) + sizeof(EvalOutcome) +
         outcome.result.loop_seconds.size() * sizeof(double) +
         outcome.error.detail.size();
}

}  // namespace

std::uint64_t EvalCache::Key::fingerprint(unsigned bits) const noexcept {
  // splitmix64-style finalization over the folded fields; the fold
  // constants keep (assignment, rep_base) and (rep_base, assignment)
  // from cancelling.
  std::uint64_t h = assignment;
  h ^= rep_base * 0x9e3779b97f4a7c15ULL;
  h ^= salt * 0xc2b2ae3d27d4eb4fULL;
  h ^= (static_cast<std::uint64_t>(static_cast<std::uint32_t>(repetitions))
        << 1) |
       static_cast<std::uint64_t>(instrumented);
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= h >> 31;
  if (bits >= 64) return h;
  return h & ((std::uint64_t{1} << bits) - 1);
}

EvalCache::EvalCache(const Options& options)
    : max_entries_(std::max<std::size_t>(options.max_entries, 1)),
      hash_bits_(options.hash_bits),
      shards_(round_up_pow2(std::max<std::size_t>(options.shards, 1))) {
  shard_mask_ = shards_.size() - 1;
  per_shard_capacity_ =
      std::max<std::size_t>(max_entries_ / shards_.size(), 1);
}

bool EvalCache::lookup(const Key& key, EvalOutcome* out,
                       double* rerun_seconds) {
  const std::uint64_t fingerprint = key.fingerprint(hash_bits_);
  Shard& shard = shard_for(fingerprint);
  {
    std::lock_guard lock(shard.mutex);
    const auto chain = shard.index.find(fingerprint);
    if (chain != shard.index.end()) {
      for (const Lru::iterator it : chain->second) {
        if (!(it->key == key)) continue;  // fingerprint collision
        *out = it->outcome;
        if (rerun_seconds != nullptr) *rerun_seconds = it->rerun_seconds;
        shard.lru.splice(shard.lru.begin(), shard.lru, it);
        hits_.fetch_add(1, std::memory_order_relaxed);
        count_metric("cache.hits");
        return true;
      }
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  count_metric("cache.misses");

  // Second tier: a disk hit is promoted into the memory tier
  // (memory-only - the entry is already on disk) so the hot key stops
  // paying file I/O.
  if (disk_ != nullptr) {
    EvalOutcome from_disk;
    double rerun = 0.0;
    if (disk_->lookup(key, &from_disk, &rerun)) {
      insert_memory(key, from_disk, rerun);
      *out = std::move(from_disk);
      if (rerun_seconds != nullptr) *rerun_seconds = rerun;
      return true;
    }
  }
  return false;
}

void EvalCache::attach_disk(std::shared_ptr<PersistentCache> disk) {
  disk_ = std::move(disk);
}

void EvalCache::insert(const Key& key, const EvalOutcome& outcome,
                       double rerun_seconds) {
  const bool fresh = insert_memory(key, outcome, rerun_seconds);
  // Write-through happens outside the shard mutex; PersistentCache
  // does its own dedupe (an on-disk entry for this key is
  // byte-identical by the determinism contract).
  if (fresh && disk_ != nullptr) disk_->insert(key, outcome, rerun_seconds);
}

bool EvalCache::insert_memory(const Key& key, const EvalOutcome& outcome,
                              double rerun_seconds) {
  const std::uint64_t fingerprint = key.fingerprint(hash_bits_);
  Shard& shard = shard_for(fingerprint);
  std::lock_guard lock(shard.mutex);

  if (const auto chain = shard.index.find(fingerprint);
      chain != shard.index.end()) {
    for (const Lru::iterator it : chain->second) {
      if (it->key == key) {
        // Duplicate insert (two workers raced on the same assignment,
        // or a resumed journal loaded a record twice):
        // the deterministic stack guarantees equal payloads, so just
        // refresh recency.
        shard.lru.splice(shard.lru.begin(), shard.lru, it);
        return false;
      }
    }
  }

  Entry entry;
  entry.key = key;
  entry.outcome = outcome;
  entry.rerun_seconds = rerun_seconds;
  entry.bytes = payload_bytes(entry.outcome);

  // Evict BEFORE touching shard.index[fingerprint]: eviction may erase
  // that exact map node (victim shares the fingerprint and its chain
  // empties), which would dangle a reference taken earlier.
  if (shard.lru.size() >= per_shard_capacity_) evict_locked(shard);
  shard.lru.push_front(std::move(entry));
  shard.index[fingerprint].push_back(shard.lru.begin());

  insertions_.fetch_add(1, std::memory_order_relaxed);
  entries_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(shard.lru.front().bytes, std::memory_order_relaxed);
  if (telemetry::enabled()) {
    telemetry::metrics()
        .gauge("cache.bytes", /*deterministic=*/false)
        .set(static_cast<double>(bytes_.load(std::memory_order_relaxed)));
    telemetry::metrics()
        .gauge("cache.entries", /*deterministic=*/false)
        .set(static_cast<double>(entries_.load(std::memory_order_relaxed)));
  }
  return true;
}

void EvalCache::evict_locked(Shard& shard) {
  const Lru::iterator victim = std::prev(shard.lru.end());
  const std::uint64_t fingerprint = victim->key.fingerprint(hash_bits_);
  const auto chain = shard.index.find(fingerprint);
  if (chain != shard.index.end()) {
    auto& entries = chain->second;
    entries.erase(std::remove(entries.begin(), entries.end(), victim),
                  entries.end());
    if (entries.empty()) shard.index.erase(chain);
  }
  bytes_.fetch_sub(victim->bytes, std::memory_order_relaxed);
  entries_.fetch_sub(1, std::memory_order_relaxed);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  count_metric("cache.evictions");
  shard.lru.erase(victim);
}

EvalCacheStats EvalCache::stats() const {
  EvalCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.insertions = insertions_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.entries = entries_.load(std::memory_order_relaxed);
  stats.bytes = bytes_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace ft::core
