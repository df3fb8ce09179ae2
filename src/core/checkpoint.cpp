#include "core/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "core/funcy_tuner.hpp"
#include "core/persistent_cache.hpp"
#include "support/byte_codec.hpp"
#include "support/crc32.hpp"
#include "support/rng.hpp"
#include "support/serialization.hpp"

namespace ft::core {

namespace {

/// %.17g round-trips every double bit-exactly, so distinct option
/// values always print (and fingerprint) differently.
std::string fmt_double(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

constexpr std::string_view kMagic = "FTJ1";
/// Magic, u32 schema version, u64 config fingerprint, u32 CRC-32.
constexpr std::size_t kHeaderBytes = 20;

std::string encode_header(std::uint64_t fingerprint) {
  std::string header(kMagic);
  support::put_u32(&header,
                   static_cast<std::uint32_t>(support::kSchemaVersion));
  support::put_u64(&header, fingerprint);
  support::put_u32(&header, support::crc32(header));
  return header;
}

std::string read_journal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read journal: " + path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// Visits the whole records that start at `reader.at`, in append
/// order, and returns the offset after the last of them. The first
/// record whose length or CRC fails, or whose salt is not
/// `fingerprint`, is the torn tail of a killed process and ends the
/// scan.
std::size_t scan_records(
    support::ByteReader reader, std::uint64_t fingerprint,
    const std::function<void(const JournalRecord&)>& visit) {
  std::size_t valid_end = reader.at;
  for (;;) {
    std::uint32_t length = 0;
    std::string_view entry;
    EvalCache::Key key;
    EvalOutcome outcome;
    double rerun_seconds = 0.0;
    if (!reader.u32(&length) || !reader.span(length, &entry) ||
        !PersistentCache::decode_entry(entry, &key, &outcome,
                                       &rerun_seconds) ||
        key.salt != fingerprint) {
      return valid_end;
    }
    visit({key.assignment, key.rep_base, key.repetitions, key.instrumented,
           std::move(outcome), rerun_seconds});
    valid_end = reader.at;
  }
}

}  // namespace

FuncyTunerOptions measurement_options(const FuncyTunerOptions& options) {
  FuncyTunerOptions measurement;
  measurement.seed = options.seed;
  measurement.noise_sigma_rel = options.noise_sigma_rel;
  measurement.attribution_sigma = options.attribution_sigma;
  measurement.faults = options.faults;
  return measurement;
}

std::uint64_t measurement_fingerprint(const FuncyTunerOptions& options) {
  const machine::FaultConfig& faults = options.faults;
  std::ostringstream oss;
  oss << options.seed << '|' << fmt_double(options.noise_sigma_rel) << '|'
      << fmt_double(options.attribution_sigma) << '|'
      << fmt_double(faults.rate) << '|' << faults.seed << '|'
      << fmt_double(faults.compile_share) << '|'
      << fmt_double(faults.crash_share) << '|'
      << fmt_double(faults.timeout_share) << '|'
      << fmt_double(faults.outlier_rate) << '|'
      << fmt_double(faults.outlier_min_scale) << '|'
      << fmt_double(faults.outlier_max_scale);
  return support::fnv1a64(oss.str());
}

std::uint64_t options_fingerprint(const FuncyTunerOptions& options) {
  std::ostringstream oss;
  oss << measurement_fingerprint(options) << '|' << options.samples << '|'
      << fmt_double(options.hot_threshold) << '|' << options.final_reps
      << '|' << options.retry.max_retries << '|'
      << fmt_double(options.retry.eval_timeout_seconds);
  // Namespaced per-algorithm knobs (top-x, patience, budgets) change
  // evaluation schedules, so they must split journals/caches.
  for (const auto& [algorithm, tokens] : options.algorithm_options) {
    oss << '|' << algorithm << ':';
    for (const std::string& token : tokens) oss << token << ',';
  }
  return support::fnv1a64(oss.str());
}

std::shared_ptr<EvalJournal> EvalJournal::create(
    const std::string& path, std::uint64_t config_fingerprint) {
  auto journal = std::shared_ptr<EvalJournal>(new EvalJournal());
  journal->path_ = path;
  journal->fingerprint_ = config_fingerprint;
  journal->open(std::ios::trunc, /*with_header=*/true);
  return journal;
}

std::shared_ptr<EvalJournal> EvalJournal::resume(
    const std::string& path, std::uint64_t config_fingerprint) {
  const std::string bytes = read_journal(path);
  auto journal = std::shared_ptr<EvalJournal>(new EvalJournal());
  journal->path_ = path;
  journal->fingerprint_ = config_fingerprint;

  const std::size_t magic_bytes = std::min(bytes.size(), kMagic.size());
  if (std::string_view(bytes).substr(0, magic_bytes) !=
      kMagic.substr(0, magic_bytes)) {
    throw std::runtime_error(
        "journal " + path +
        " is not a binary journal (JSONL journals of earlier versions "
        "cannot be resumed); refusing to resume");
  }
  // Cut inside the header: nothing was journaled yet, start afresh.
  if (bytes.size() < kHeaderBytes) {
    journal->open(std::ios::trunc, /*with_header=*/true);
    return journal;
  }

  support::ByteReader reader{bytes, kMagic.size()};
  std::uint32_t version = 0, declared = 0;
  std::uint64_t fingerprint = 0;
  (void)reader.u32(&version);
  (void)reader.u64(&fingerprint);
  (void)reader.u32(&declared);
  if (support::crc32(std::string_view(bytes).substr(0, kHeaderBytes - 4)) !=
      declared) {
    throw std::runtime_error("journal " + path + " has a corrupt header");
  }
  if (version > static_cast<std::uint32_t>(support::kSchemaVersion)) {
    throw std::runtime_error(
        "journal " + path + ": schema_version " + std::to_string(version) +
        " is newer than this binary understands (max " +
        std::to_string(support::kSchemaVersion) + "); upgrade to read it");
  }
  if (config_fingerprint != 0 && fingerprint != config_fingerprint) {
    throw std::runtime_error(
        "journal " + path +
        " was recorded under different tuning options (config " +
        std::to_string(fingerprint) + "); refusing to resume");
  }
  journal->fingerprint_ = fingerprint;

  // Every whole record before a torn tail is kept; the rest
  // re-evaluates.
  const std::size_t valid_end = scan_records(
      reader, fingerprint, [&](const JournalRecord&) { ++journal->loaded_; });
  // Cut the tail off in place; the valid prefix is never rewritten, so
  // a kill during resume cannot lose a completed record.
  if (valid_end < bytes.size()) std::filesystem::resize_file(path, valid_end);
  journal->open(std::ios::app, /*with_header=*/false);
  return journal;
}

void EvalJournal::open(std::ios::openmode mode, bool with_header) {
  out_ = std::make_unique<std::ofstream>(path_, std::ios::binary | mode);
  if (with_header) {
    const std::string header = encode_header(fingerprint_);
    out_->write(header.data(), static_cast<std::streamsize>(header.size()));
    out_->flush();
  }
  if (!*out_) {
    throw std::runtime_error("cannot write journal: " + path_);
  }
}

void EvalJournal::for_each(
    const std::function<void(const JournalRecord&)>& visit) {
  std::lock_guard lock(mutex_);
  const std::string bytes = read_journal(path_);
  if (bytes.size() < kHeaderBytes) return;
  (void)scan_records(support::ByteReader{bytes, kHeaderBytes}, fingerprint_,
                     visit);
}

void EvalJournal::record(const JournalRecord& record) {
  const std::string entry = PersistentCache::encode_entry(
      {record.key, record.rep_base, fingerprint_, record.repetitions,
       record.instrumented},
      record.outcome, record.rerun_seconds);
  std::string bytes;
  support::put_u32(&bytes, static_cast<std::uint32_t>(entry.size()));
  bytes += entry;
  std::lock_guard lock(mutex_);
  out_->write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  // Flush every record: the journal's whole point is surviving a kill.
  out_->flush();
  if (!*out_) {
    throw std::runtime_error("cannot write journal: " + path_);
  }
  ++appended_;
}

}  // namespace ft::core
