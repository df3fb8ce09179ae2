// Checkpoint/resume for long tuning campaigns: an append-only binary
// journal of completed evaluations.
//
// Every evaluation the resilient path completes (success OR classified
// failure) is appended as one record keyed by (assignment+context
// fingerprint, noise rep_base, repetitions, instrumented). Because the
// whole stack is deterministic for a fixed seed, replaying the journal
// instead of re-running reproduces bit-identical search trajectories:
// `ftune tune --resume <journal>` continues a killed campaign and lands
// on exactly the result an uninterrupted run would have produced. The
// journal is only written and scanned; replays are served by the
// Evaluator's memory tier (EvalCache), which a resume fills from it.
//
// File format (all integers little-endian):
//   header  "FTJ1", u32 schema version, u64 config fingerprint,
//           u32 CRC-32 of the 16 bytes before it
//   record  u32 length, then exactly the bytes of
//           PersistentCache::encode_entry (the disk tier's FTC1 entry,
//           CRC-32 trailer included) for the key {key, rep_base,
//           salt = config fingerprint, repetitions, instrumented}
//
// A kill can only tear the tail: resume keeps every record up to the
// first length or CRC failure, truncates the file there and appends
// after it, so the bytes of the valid prefix are never rewritten. The
// config fingerprint guards against replaying a journal recorded under
// different tuning options.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "core/evaluator.hpp"

namespace ft::core {

struct FuncyTunerOptions;

/// Stable fingerprint of every option that changes measured values or
/// the evaluation schedule (seed, samples, noise, faults, retry...).
/// Journals refuse to resume under a different fingerprint.
[[nodiscard]] std::uint64_t options_fingerprint(
    const FuncyTunerOptions& options);

/// One journaled evaluation.
struct JournalRecord {
  std::uint64_t key = 0;       ///< Evaluator::assignment_key
  std::uint64_t rep_base = 0;  ///< noise-stream offset
  int repetitions = 1;
  bool instrumented = false;
  EvalOutcome outcome;
  /// Modeled seconds a re-run of this exact evaluation would charge
  /// (link + measured run time; compile objects are already pooled).
  /// Becomes the saved side of the charged/saved overhead split when a
  /// resume loads the record into the memory tier.
  double rerun_seconds = 0.0;
};

/// A write-only log: it keeps no record in memory. A resumed run
/// replays through the Evaluator's memory tier, which set_journal
/// fills from for_each().
class EvalJournal {
 public:
  /// Starts a fresh journal at `path` (truncates). Every record is
  /// flushed as soon as it is appended, so a killed process loses at
  /// most the in-flight evaluations. Throws std::runtime_error
  /// ("cannot write journal: <path>") when the file cannot be opened
  /// or its header cannot be written and flushed.
  [[nodiscard]] static std::shared_ptr<EvalJournal> create(
      const std::string& path, std::uint64_t config_fingerprint);

  /// Validates the header of `path`, counts its whole records,
  /// truncates the file after the last of them (a torn tail, or a
  /// header cut short, is dropped) and re-opens it for appending.
  /// Throws std::runtime_error when the file is unreadable, is not a
  /// binary journal, or was recorded under a different config
  /// fingerprint (pass 0 to skip the check).
  [[nodiscard]] static std::shared_ptr<EvalJournal> resume(
      const std::string& path, std::uint64_t config_fingerprint);

  /// Decodes the file's whole records in append order, duplicates
  /// included, with the scan resume() uses. Thread-safe.
  void for_each(const std::function<void(const JournalRecord&)>& visit);

  /// Appends one completed evaluation and flushes. Throws
  /// std::runtime_error ("cannot write journal: <path>") when the write
  /// or the flush fails; that record is not counted. Thread-safe.
  void record(const JournalRecord& record);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  /// Records loaded from disk at resume time.
  [[nodiscard]] std::size_t loaded() const noexcept { return loaded_; }
  /// Records appended by this process.
  [[nodiscard]] std::size_t appended() const noexcept { return appended_; }

 private:
  EvalJournal() = default;
  /// Opens `path_` with `mode` (trunc or app); writes the header
  /// first when `with_header`.
  void open(std::ios::openmode mode, bool with_header);

  std::string path_;
  std::uint64_t fingerprint_ = 0;
  std::mutex mutex_;
  std::unique_ptr<std::ofstream> out_;
  std::size_t loaded_ = 0;
  std::size_t appended_ = 0;
};

}  // namespace ft::core
