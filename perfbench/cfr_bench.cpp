// cfr_bench - the paper-scale CFR campaign benchmark.
//
// One unit of work, the *campaign*, is FuncyTuner::run("cfr") on a
// fresh tuner for CL on Broadwell with 1000 pre-sampled CVs (about
// 2020 evaluations). Three workloads run the same campaigns through
// different layers of the program:
//
//   cfr_cold         both cache tiers off, a checkpoint journal attached:
//                    every evaluation is compiled, run and journaled.
//   cfr_disk_warm    every campaign opens a disk tier populated in
//                    set-up and is served from it entirely.
//   cfr_remote_warm  every campaign evaluates through RemoteBackend on a
//                    child ftuned whose raw-result cache set-up warmed.
//
// Load is one closed loop in one process, one campaign at a time, with
// the evaluation pool pinned to one worker. Campaign seeds come from a
// fixed pool of 16; --seed picks a list of four, and every workload
// cycles that list in whole passes, so the exact metrics (speedup_gm,
// modeled_charged_h) are identical across workloads and run lengths.
// Every campaign's serialized TuningResult is checked against
// expected_results.json.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// campaigns with a timing EvalBackend decorator and the program's
// telemetry attached and prints the per-layer split. The last line of
// stdout is the JSON result; everything else is a human report.

#include <fcntl.h>
#include <linux/fs.h>
#include <sched.h>
#include <signal.h>
#include <sys/ioctl.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/eval_cache.hpp"
#include "core/funcy_tuner.hpp"
#include "core/persistent_cache.hpp"
#include "core/serialization.hpp"
#include "machine/architecture.hpp"
#include "metrics.hpp"
#include "programs/benchmarks.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "support/json.hpp"
#include "support/options.hpp"
#include "support/rng.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace fs = std::filesystem;
using namespace ft;

namespace {

constexpr const char* kProgram = "CL";
constexpr const char* kArch = "broadwell";
constexpr std::size_t kPaperSamples = 1000;
constexpr std::size_t kSelfCheckSamples = 60;
constexpr std::uint64_t kSeedPool = 16;  ///< campaign seeds 1..16
constexpr std::size_t kSeedListSize = 4;
constexpr int kRounds = 7;  ///< set-up + timed-campaign rounds per run
constexpr double kTailQuantile = 0.75;
constexpr double kCpuDwellS = 0.25;  ///< time on one CPU of the rotation

const char* const kWorkloads[] = {"cfr_cold", "cfr_disk_warm",
                                  "cfr_remote_warm"};

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Flushes the filesystem holding `dir`, so write-back of earlier work
/// (a removed or freshly written disk tier) does not stall the next
/// measured interval. Called only between measured intervals.
void flush_filesystem(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  (void)::syncfs(fd);
  ::close(fd);
}

/// The CPUs campaigns rotate over: every CPU the process may use except
/// CPU 0, which small VMs hand most device interrupts (CPU 0 only if it
/// is the one allowed).
std::vector<int> campaign_cpus() {
  std::vector<int> cpus;
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return cpus;
  for (int cpu = 1; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.empty() && CPU_ISSET(0, &allowed)) cpus.push_back(0);
  return cpus;
}

/// Pins every thread of process `pid` to `cpu`.
void pin_process(pid_t pid, int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  std::error_code ec;
  for (const auto& task :
       fs::directory_iterator("/proc/" + std::to_string(pid) + "/task", ec)) {
    const pid_t tid = std::stoi(task.path().filename().string());
    (void)sched_setaffinity(tid, sizeof(one), &one);
  }
}

/// The four campaign seeds of a run: a seeded shuffle of the pool.
std::vector<std::uint64_t> seed_list(std::uint64_t bench_seed) {
  std::vector<std::uint64_t> pool;
  for (std::uint64_t s = 1; s <= kSeedPool; ++s) pool.push_back(s);
  support::Rng rng = support::Rng(bench_seed).fork("perfbench-seeds");
  rng.shuffle(pool);
  pool.resize(kSeedListSize);
  return pool;
}

core::FuncyTunerOptions campaign_options(std::uint64_t seed,
                                         std::size_t samples) {
  core::FuncyTunerOptions options;
  options.seed = seed;
  options.samples = samples;
  return options;
}

// --- expected results ------------------------------------------------------

struct Expected {
  std::uint64_t hash = 0;
  std::uint64_t evaluations = 0;
};

/// (samples, seed) -> fingerprint of the serialized TuningResult.
using ExpectedTable = std::map<std::pair<std::size_t, std::uint64_t>, Expected>;

ExpectedTable load_expected(const std::string& path) {
  support::JsonValue root;
  std::string error;
  if (!support::JsonValue::parse(read_file(path), &root, &error)) {
    throw std::runtime_error(path + ": " + error);
  }
  const support::JsonValue* results = root.find("results");
  if (results == nullptr || !results->is_array()) {
    throw std::runtime_error(path + ": no results array");
  }
  ExpectedTable table;
  for (const support::JsonValue& row : results->array()) {
    std::uint64_t samples = 0, seed = 0;
    Expected expected;
    if (!row.get("samples", &samples) || !row.get("seed", &seed) ||
        !row.get("hash", &expected.hash) ||
        !row.get("evaluations", &expected.evaluations)) {
      throw std::runtime_error(path + ": malformed result row");
    }
    table[{samples, seed}] = expected;
  }
  return table;
}

// --- traced run: in-memory spans around every layer call -------------------

enum class Layer : std::uint8_t {
  kCompile,
  kRunPlain,
  kRunInstrumented,
  kService,
};

/// One timed call into a layer, kept in memory until the run ends.
struct CallSpan {
  std::uint32_t campaign = 0;
  Layer layer = Layer::kCompile;
  double t0 = 0.0;
  double t1 = 0.0;
};

/// A program phase span (telemetry root span), per campaign.
struct PhaseSpan {
  std::uint32_t campaign = 0;
  std::string name;
  double seconds = 0.0;
};

/// Filled from the evaluating thread only: the pool has one worker.
struct Trace {
  std::uint32_t campaign = 0;  ///< tags every span with its campaign
  std::vector<CallSpan> calls;
  std::vector<PhaseSpan> phases;
  // Service layer (remote workload).
  std::uint64_t frames = 0;
  std::uint64_t remote_evals = 0;
  std::uint64_t daemon_cache_hits = 0;
  std::vector<double> frame_rtt_ms;
  /// The first traced campaign's batches, for re-timing the protocol
  /// codecs on the campaign's own frames (later campaigns skip the copy).
  bool capture_batches = false;
  std::vector<std::vector<core::EvalRequest>> batches;
  std::vector<std::vector<core::EvalResponse>> replies;
  std::size_t max_batch = 0;

  void add(Layer layer, double t0, double t1) {
    calls.push_back({campaign, layer, t0, t1});
  }
};

/// Telemetry sink keeping the program's root phase spans in memory.
class PhaseSink final : public telemetry::Sink {
 public:
  explicit PhaseSink(Trace& trace) : trace_(&trace) {}
  void on_span(const telemetry::SpanRecord& span) override {
    if (span.parent != 0) return;
    std::lock_guard lock(mutex_);
    trace_->phases.push_back({trace_->campaign, span.name, span.t1 - span.t0});
  }
  void on_metric(const telemetry::MetricSample&) override {}

 private:
  std::mutex mutex_;
  Trace* trace_;
};

/// Timing decorator attached through Evaluator::set_backend. Locally it
/// makes exactly the two calls Evaluator::raw_run makes (Compiler::build,
/// then ExecutionEngine::run), so results stay byte-identical. Remotely
/// it makes the Client calls RemoteBackend::run and run_many make, on
/// RemoteBackend's own Client, so the daemon's served_by stays visible.
class TracingBackend final : public core::EvalBackend {
 public:
  TracingBackend(Trace& trace, machine::ExecutionEngine& engine,
                 const ir::InputSpec& input)
      : trace_(&trace), engine_(&engine), input_(&input) {}
  TracingBackend(Trace& trace,
                 std::shared_ptr<service::RemoteBackend> remote)
      : trace_(&trace), remote_(std::move(remote)) {}

  RawResult run(const compiler::ModuleAssignment& assignment,
                const machine::RunOptions& options) override {
    if (remote_) {
      core::EvalRequest request;
      request.assignment = assignment;
      request.rep_base = options.rep_base;
      request.repetitions = options.repetitions;
      request.instrumented = options.instrumented;
      request.noise = options.noise;
      request.aggregate = options.aggregate;
      const double t0 = now_s();
      const core::EvalResponse response = remote_->client()->call(request);
      note_round_trips(t0, now_s(), 1, 1);
      return to_raw(response);
    }
    compiler::Compiler& compiler = engine_->compiler();
    const double t0 = now_s();
    const std::size_t misses_before = compiler.cache_misses();
    const compiler::Executable exe =
        compiler.build(engine_->program(), assignment);
    RawResult raw;
    raw.modules_compiled = compiler.cache_misses() - misses_before;
    const double t1 = now_s();
    raw.result = engine_->run(exe, *input_, options);
    const double t2 = now_s();
    trace_->add(Layer::kCompile, t0, t1);
    trace_->add(options.instrumented ? Layer::kRunInstrumented
                                     : Layer::kRunPlain,
                t1, t2);
    return raw;
  }

  std::vector<RawResult> run_many(
      std::span<const core::EvalRequest> requests) override {
    if (!remote_) return EvalBackend::run_many(requests);
    service::Client& client = *remote_->client();
    const double t0 = now_s();
    std::vector<core::EvalResponse> responses = client.call_many(requests);
    const std::size_t max_batch =
        client.max_batch() > 0 ? client.max_batch() : requests.size();
    note_round_trips(t0, now_s(), (requests.size() + max_batch - 1) / max_batch,
                     requests.size());
    trace_->max_batch = max_batch;
    std::vector<RawResult> results;
    results.reserve(responses.size());
    for (const core::EvalResponse& response : responses) {
      results.push_back(to_raw(response));
    }
    if (trace_->capture_batches) {
      trace_->batches.emplace_back(requests.begin(), requests.end());
      trace_->replies.push_back(std::move(responses));
    }
    return results;
  }

  bool batches_remotely() const noexcept override {
    return remote_ != nullptr;
  }

 private:
  void note_round_trips(double t0, double t1, std::size_t frames,
                        std::size_t evals) {
    trace_->add(Layer::kService, t0, t1);
    trace_->frames += frames;
    trace_->remote_evals += evals;
    for (std::size_t f = 0; f < frames; ++f) {
      trace_->frame_rtt_ms.push_back((t1 - t0) * 1e3 /
                                     static_cast<double>(frames));
    }
  }

  /// What RemoteBackend returns for a response, counting daemon hits.
  RawResult to_raw(const core::EvalResponse& response) {
    if (!response.ok()) {
      throw service::ServiceError("remote_fault",
                                  "daemon-side raw run failed: " +
                                      response.outcome.error.detail);
    }
    if (response.served_by == core::EvalServedBy::kCacheHit) {
      ++trace_->daemon_cache_hits;
    }
    return RawResult{response.outcome.result, response.modules_compiled};
  }

  Trace* trace_;
  machine::ExecutionEngine* engine_ = nullptr;
  const ir::InputSpec* input_ = nullptr;
  std::shared_ptr<service::RemoteBackend> remote_;
};

// --- the child daemon ------------------------------------------------------

/// A child ftuned process, stopped (SIGTERM, drained) and reaped on
/// destruction.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& socket_path) {
    int out[2];
    if (pipe(out) != 0) throw std::runtime_error("pipe failed");
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      dup2(out[1], STDOUT_FILENO);
      close(out[0]);
      close(out[1]);
      // --max-inflight is raised past the client's 1024-request chunk:
      // at the default 256 every 1000-evaluation batch is refused as
      // `overloaded` until the client's retries run out.
      const std::string listen = "unix:" + socket_path;
      execl(binary.c_str(), binary.c_str(), "--listen", listen.c_str(),
            "--threads", "1", "--max-inflight", "4096", "--cache-size",
            "65536", "--framing", "binary", "--idle-timeout", "0",
            static_cast<char*>(nullptr));
      _exit(127);
    }
    close(out[1]);
    out_ = fdopen(out[0], "r");
    const std::string first = read_line();
    if (first.find("listening") == std::string::npos) {
      stop();
      throw std::runtime_error("ftuned did not start: " + first);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    try {
      stop();
    } catch (...) {
    }
  }

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }

  [[nodiscard]] double cpu_seconds() const {
    return perfbench::proc_stat_cpu_seconds(
        read_file("/proc/" + std::to_string(pid_) + "/stat"),
        sysconf(_SC_CLK_TCK));
  }

  /// Peak resident set (VmHWM) in MiB.
  [[nodiscard]] double peak_rss_mb() const {
    std::istringstream status(
        read_file("/proc/" + std::to_string(pid_) + "/status"));
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::stod(line.substr(6)) / 1024.0;
      }
    }
    return 0.0;
  }

  /// Drains the daemon and returns its exit summary line.
  std::string stop() {
    if (pid_ <= 0) return exit_line_;
    kill(pid_, SIGTERM);
    std::string line;
    while (!(line = read_line()).empty()) {
      if (line.find("ftuned exiting") != std::string::npos) exit_line_ = line;
    }
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    if (out_ != nullptr) fclose(out_);
    out_ = nullptr;
    return exit_line_;
  }

  /// "N overload refusals" from the exit summary.
  static std::uint64_t overloads(const std::string& exit_line) {
    const std::size_t at = exit_line.find(" overload refusals");
    if (at == std::string::npos) return 0;
    std::size_t begin = exit_line.rfind(' ', at - 1);
    begin = begin == std::string::npos ? 0 : begin + 1;
    return std::stoull(exit_line.substr(begin, at - begin));
  }

 private:
  std::string read_line() {
    if (out_ == nullptr) return "";
    char buffer[1024];
    if (fgets(buffer, sizeof(buffer), out_) == nullptr) return "";
    return buffer;
  }

  pid_t pid_ = -1;
  FILE* out_ = nullptr;
  std::string exit_line_;
};

// --- workloads -------------------------------------------------------------

struct CampaignOutcome {
  std::string json;
  double speedup = 0.0;
  /// Modeled testbed seconds: charged plus what cache hits saved.
  double modeled_s = 0.0;
  std::uint64_t evaluations = 0;
  std::uint64_t failed = 0;
  // Per-campaign layer counters the traced report needs.
  std::uint64_t journal_records = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t disk_lookups = 0;
  std::uint64_t disk_hits = 0;
  std::uint64_t disk_rejected = 0;
  std::uint64_t disk_entries = 0;
  double memory_hit_ratio = 0.0;
  std::uint64_t engine_reps = 0;
  std::uint64_t noise_draws = 0;
  std::uint64_t module_compiles = 0;
  std::uint64_t object_hits = 0;
};

class Workload {
 public:
  Workload(std::string dir, std::size_t samples,
           std::vector<std::uint64_t> seeds)
      : dir_(std::move(dir)), samples_(samples), seeds_(std::move(seeds)) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Everything before the warm-up campaign: program construction and
  /// the workload's own state (disk tier, daemon).
  virtual void setup() {
    program_ = programs::by_name(kProgram);
    arch_ = machine::architecture_by_name(kArch);
  }
  /// Undoes setup(); a no-op before the first one.
  virtual void teardown() {}
  /// One campaign on a fresh tuner; `trace` attaches the decorator.
  virtual CampaignOutcome campaign(std::uint64_t seed, Trace* trace) = 0;
  /// CPU seconds spent outside this process (the daemon), cumulative.
  virtual double external_cpu_s() const { return 0.0; }
  virtual double external_peak_rss_mb() const { return 0.0; }
  /// The daemon process the campaigns evaluate on, if any.
  virtual pid_t helper_pid() const { return 0; }
  /// Frames a daemon refused as overloaded over the whole run.
  virtual std::uint64_t refusals() const { return 0; }

  void set_cpus(std::vector<int> cpus) { cpus_ = std::move(cpus); }
  /// Moves this process, and the daemon with it, to the next CPU of the
  /// rotation once kCpuDwellS has passed on the current one. A move can
  /// cost a millisecond (the target virtual CPU may have to be woken),
  /// so moving before every 15 ms campaign would be 8% of the timed phase.
  void next_cpu() {
    if (cpus_.empty() || now_s() - moved_at_ < kCpuDwellS) return;
    moved_at_ = now_s();
    const int cpu = cpus_[next_cpu_++ % cpus_.size()];
    pin_process(getpid(), cpu);
    if (const pid_t helper = helper_pid(); helper > 0) {
      pin_process(helper, cpu);
    }
  }

  [[nodiscard]] const std::vector<std::uint64_t>& seeds() const noexcept {
    return seeds_;
  }
  [[nodiscard]] std::size_t samples() const noexcept { return samples_; }

 protected:
  /// Runs CFR on `tuner` and fills the workload-independent outcome.
  CampaignOutcome run_cfr(core::FuncyTuner& tuner, Trace* trace) {
    if (trace != nullptr && !tuner.evaluator().backend()) {
      tuner.evaluator().set_backend(std::make_shared<TracingBackend>(
          *trace, tuner.engine(), tuner.tuning_input()));
    }
    const core::TuningResult result = tuner.run("cfr");
    CampaignOutcome outcome;
    outcome.json = core::tuning_result_json(result, tuner.space(),
                                            tuner.program());
    outcome.speedup = result.speedup;
    const core::Evaluator& evaluator = tuner.evaluator();
    outcome.modeled_s = evaluator.modeled_overhead_seconds() +
                        evaluator.saved_overhead_seconds();
    outcome.evaluations = evaluator.evaluations();
    const core::ResilienceStats stats = evaluator.resilience_stats();
    outcome.failed = stats.failed_evaluations + stats.quarantine_hits;
    return outcome;
  }

  std::string dir_;
  std::size_t samples_;
  std::vector<std::uint64_t> seeds_;
  std::optional<ir::Program> program_;
  machine::Architecture arch_;
  std::vector<int> cpus_;
  std::size_t next_cpu_ = 0;
  double moved_at_ = 0.0;
};

class ColdWorkload final : public Workload {
 public:
  using Workload::Workload;

  CampaignOutcome campaign(std::uint64_t seed, Trace* trace) override {
    const core::FuncyTunerOptions options = campaign_options(seed, samples_);
    core::FuncyTuner tuner(*program_, arch_, options);
    const std::string path = dir_ + "/journal.jsonl";
    journal_ = core::EvalJournal::create(path,
                                         core::options_fingerprint(options));
    tuner.evaluator().set_journal(journal_);
    CampaignOutcome outcome = run_cfr(tuner, trace);
    outcome.journal_records = journal_->appended();
    if (trace != nullptr) outcome.journal_bytes = fs::file_size(path);
    return outcome;
  }

  /// The last campaign's journal (re-timed by the traced report).
  [[nodiscard]] const std::shared_ptr<core::EvalJournal>& journal() const {
    return journal_;
  }

 private:
  std::shared_ptr<core::EvalJournal> journal_;
};

class DiskWarmWorkload final : public Workload {
 public:
  using Workload::Workload;

  /// Populates the tier with every evaluation of the seed list's
  /// campaigns: each seed runs once cold with a journal, and each
  /// journal record is written as the entry PersistentCache::insert
  /// would write (same codec, same path), but without the insert
  /// protocol's temp file and fsyncs: the checkout sits on a virtual
  /// disk whose fsync latency would otherwise set setup_s (5-20 s,
  /// measured), and set-up needs no crash safety.
  void setup() override {
    Workload::setup();
    cache_dir_ = fresh_tier_dir();
    core::PersistentCache layout(
        core::PersistentCache::Options{.dir = cache_dir()});
    for (const std::uint64_t seed : seeds_) {
      const core::FuncyTunerOptions options = campaign_options(seed, samples_);
      const std::uint64_t salt = core::options_fingerprint(options);
      core::FuncyTuner tuner(*program_, arch_, options);
      const auto journal =
          core::EvalJournal::create(dir_ + "/populate.jsonl", salt);
      tuner.evaluator().set_journal(journal);
      (void)tuner.run("cfr");
      journal->for_each([&](const core::JournalRecord& record) {
        const core::EvalCache::Key key{record.key, record.rep_base, salt,
                                       record.repetitions,
                                       record.instrumented};
        const fs::path path = layout.entry_path(key);
        fs::create_directories(path.parent_path());
        std::ofstream(path, std::ios::binary)
            << core::PersistentCache::encode_entry(key, record.outcome,
                                                   record.rerun_seconds);
      });
    }
  }

  CampaignOutcome campaign(std::uint64_t seed, Trace* trace) override {
    core::FuncyTunerOptions options = campaign_options(seed, samples_);
    options.eval_cache_dir = cache_dir();
    core::FuncyTuner tuner(*program_, arch_, options);
    CampaignOutcome outcome = run_cfr(tuner, trace);
    const core::EvalCacheStats memory = tuner.eval_cache()->stats();
    const core::PersistentCacheStats disk =
        tuner.eval_cache()->disk()->stats();
    outcome.disk_lookups = memory.misses;
    outcome.disk_hits = disk.hits;
    outcome.disk_rejected = disk.rejected;
    outcome.disk_entries = disk.entries;
    outcome.memory_hit_ratio = memory.hit_rate();
    // A disk miss would be computed and written: not this workload.
    outcome.failed += disk.insertions;
    return outcome;
  }

  void teardown() override {
    if (cache_dir_.empty()) return;
    std::error_code ec;
    fs::remove_all(cache_dir_, ec);
    cache_dir_.clear();
  }

  [[nodiscard]] const std::string& cache_dir() const { return cache_dir_; }

 private:
  /// A new, uniquely named directory for the next tier. ext4 without a
  /// journal will not reuse an inode freed in the last minute (five while
  /// its inode-table block is dirty), and every create in that block
  /// group scans past each such inode: populating a tier right after
  /// removing the previous one took 2.0-2.5 s instead of 0.2-0.3 s per
  /// 8000 entries, depending on when the removal happened. Tiers
  /// therefore live under a directory flagged FS_TOPDIR_FL, whose
  /// subdirectories ext4 spreads over block groups by name, so a tier
  /// does not land among the inodes its predecessor freed. Elsewhere the
  /// flag is ignored or refused, which is harmless.
  std::string fresh_tier_dir() {
    const std::string parent = dir_ + "/tiers";
    if (fs::create_directory(parent)) {
      const int fd = ::open(parent.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
      if (fd >= 0) {
        int flags = 0;
        if (ioctl(fd, FS_IOC_GETFLAGS, &flags) == 0) {
          flags |= FS_TOPDIR_FL;
          (void)ioctl(fd, FS_IOC_SETFLAGS, &flags);
        }
        ::close(fd);
      }
    }
    const auto stamp = std::chrono::system_clock::now().time_since_epoch();
    return parent + "/" + std::to_string(stamp.count()) + "-" +
           std::to_string(++tiers_made_);
  }

  std::string cache_dir_;
  std::uint64_t tiers_made_ = 0;
};

class RemoteWarmWorkload final : public Workload {
 public:
  RemoteWarmWorkload(std::string dir, std::size_t samples,
                     std::vector<std::uint64_t> seeds, std::string ftuned)
      : Workload(std::move(dir), samples, std::move(seeds)),
        ftuned_(std::move(ftuned)) {}

  void setup() override {
    Workload::setup();
    daemon_ = std::make_unique<Daemon>(ftuned_, socket_path());
    // Warm the daemon's raw-result cache with every seed of the list.
    for (const std::uint64_t seed : seeds_) (void)campaign(seed, nullptr);
  }

  void teardown() override {
    if (!daemon_) return;
    overloads_ += Daemon::overloads(daemon_->stop());
    daemon_.reset();
  }

  CampaignOutcome campaign(std::uint64_t seed, Trace* trace) override {
    const core::FuncyTunerOptions options = campaign_options(seed, samples_);
    service::ConnectOptions connect;
    connect.workspace = {kProgram, kArch, compiler::Personality::kIcc,
                         options};
    connect.framings = {service::Framing::kBinary};
    const double t0 = now_s();
    std::shared_ptr<service::Client> client = service::Client::connect(
        service::Endpoint::parse("unix:" + socket_path()), connect);
    if (trace != nullptr) trace->add(Layer::kService, t0, now_s());
    auto remote = std::make_shared<service::RemoteBackend>(client);
    core::FuncyTuner tuner(*program_, arch_, options);
    if (trace != nullptr) {
      tuner.evaluator().set_backend(
          std::make_shared<TracingBackend>(*trace, remote));
    } else {
      tuner.evaluator().set_backend(remote);
    }
    return run_cfr(tuner, trace);
  }

  double external_cpu_s() const override {
    return daemon_ ? daemon_->cpu_seconds() : 0.0;
  }
  double external_peak_rss_mb() const override {
    return daemon_ ? daemon_->peak_rss_mb() : 0.0;
  }
  pid_t helper_pid() const override { return daemon_ ? daemon_->pid() : 0; }
  std::uint64_t refusals() const override {
    return overloads_;
  }

 private:
  [[nodiscard]] std::string socket_path() const {
    return dir_ + "/ftuned.sock";
  }

  std::string ftuned_;
  std::unique_ptr<Daemon> daemon_;
  std::uint64_t overloads_ = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const std::string& dir,
                                        std::size_t samples,
                                        std::vector<std::uint64_t> seeds,
                                        const std::string& ftuned) {
  if (name == "cfr_cold") {
    return std::make_unique<ColdWorkload>(dir, samples, std::move(seeds));
  }
  if (name == "cfr_disk_warm") {
    return std::make_unique<DiskWarmWorkload>(dir, samples, std::move(seeds));
  }
  if (name == "cfr_remote_warm") {
    return std::make_unique<RemoteWarmWorkload>(dir, samples,
                                                std::move(seeds), ftuned);
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// --- the timed loop --------------------------------------------------------

struct Checker {
  const ExpectedTable* expected = nullptr;
  std::size_t samples = 0;
  /// First serialization seen per seed: the cross-workload identity
  /// check of the self-check mode compares against it.
  std::map<std::uint64_t, std::string>* seen = nullptr;

  /// Evaluations to count as failed for this campaign (0 when correct).
  std::uint64_t check(std::uint64_t seed, const CampaignOutcome& outcome,
                      std::string* why) const {
    if (outcome.failed > 0) {
      *why = std::to_string(outcome.failed) + " failed evaluations";
      return outcome.failed;
    }
    const auto it = expected->find({samples, seed});
    if (it == expected->end()) {
      *why = "no expected result for seed " + std::to_string(seed);
      return std::max<std::uint64_t>(outcome.evaluations, 1);
    }
    if (support::fnv1a64(outcome.json) != it->second.hash ||
        outcome.evaluations != it->second.evaluations) {
      *why = "seed " + std::to_string(seed) +
             ": TuningResult differs from expected_results.json";
      return std::max<std::uint64_t>(outcome.evaluations, 1);
    }
    if (seen != nullptr) {
      const auto [first, inserted] = seen->emplace(seed, outcome.json);
      if (!inserted && first->second != outcome.json) {
        *why = "seed " + std::to_string(seed) +
               ": TuningResult differs across workloads";
        return std::max<std::uint64_t>(outcome.evaluations, 1);
      }
    }
    return 0;
  }
};

struct Phase {
  std::vector<double> campaign_s;
  /// Evaluations per wall second of each whole pass over the seed list.
  std::vector<double> pass_evals_per_s;
  std::vector<CampaignOutcome> outcomes;  ///< traced phase only
  std::map<std::uint64_t, CampaignOutcome> per_seed;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double external_cpu_s = 0.0;

  /// Appends a later phase of the same run.
  void absorb(Phase&& later) {
    campaign_s.insert(campaign_s.end(), later.campaign_s.begin(),
                      later.campaign_s.end());
    pass_evals_per_s.insert(pass_evals_per_s.end(),
                            later.pass_evals_per_s.begin(),
                            later.pass_evals_per_s.end());
    outcomes.insert(outcomes.end(), later.outcomes.begin(),
                    later.outcomes.end());
    per_seed.merge(later.per_seed);
    attempted += later.attempted;
    failed += later.failed;
    errors.insert(errors.end(), later.errors.begin(), later.errors.end());
    wall_s += later.wall_s;
    cpu_s += later.cpu_s;
    external_cpu_s += later.external_cpu_s;
  }
};

/// Runs whole passes over the seed list until `seconds` have passed and
/// at least `min_campaigns` campaigns ran.
Phase timed_phase(Workload& workload, const Checker& checker, double seconds,
                  std::size_t min_campaigns, Trace* trace) {
  Phase phase;
  const double cpu0 = process_cpu_s();
  const double ext0 = workload.external_cpu_s();
  const double start = now_s();
  while (phase.campaign_s.size() < min_campaigns ||
         now_s() - start < seconds) {
    const double pass_start = now_s();
    const std::uint64_t pass_attempted = phase.attempted;
    for (const std::uint64_t seed : workload.seeds()) {
      workload.next_cpu();
      if (trace != nullptr) {
        ++trace->campaign;
        trace->capture_batches = trace->batches.empty();
        telemetry::metrics().reset();
      }
      const double t0 = now_s();
      CampaignOutcome outcome;
      std::string why;
      std::uint64_t failed = 0;
      try {
        outcome = workload.campaign(seed, trace);
        phase.campaign_s.push_back(now_s() - t0);
        failed = checker.check(seed, outcome, &why);
      } catch (const std::exception& error) {
        why = std::string("campaign failed: ") + error.what();
        const auto it = checker.expected->find({checker.samples, seed});
        failed = it != checker.expected->end() ? it->second.evaluations : 1;
        outcome.evaluations = failed;
      }
      if (trace != nullptr) {
        // Program counters of this campaign, read through the public
        // telemetry API before the next reset.
        for (const telemetry::MetricSample& sample :
             telemetry::metrics().snapshot()) {
          const auto value = static_cast<std::uint64_t>(sample.value);
          if (sample.name == "engine.reps") outcome.engine_reps = value;
          if (sample.name == "engine.noise_draws") outcome.noise_draws = value;
          if (sample.name == "compiler.cache_misses") {
            outcome.module_compiles = value;
          }
          if (sample.name == "compiler.cache_hits") outcome.object_hits = value;
        }
        outcome.json.clear();
        phase.outcomes.push_back(outcome);
      }
      phase.attempted += outcome.evaluations;
      phase.failed += failed;
      if (failed > 0) {
        phase.errors.push_back(why);
        if (phase.errors.size() >= 3) break;
      }
      phase.per_seed.emplace(seed, outcome);
    }
    if (phase.errors.size() >= 3) break;
    phase.pass_evals_per_s.push_back(
        static_cast<double>(phase.attempted - pass_attempted) /
        (now_s() - pass_start));
  }
  phase.wall_s = now_s() - start;
  phase.cpu_s = process_cpu_s() - cpu0;
  phase.external_cpu_s = workload.external_cpu_s() - ext0;
  return phase;
}

// --- output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string base;  ///< what the value is per, for the report
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
         << metrics[i].value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

void print_report(const std::string& title,
                  const std::vector<Metric>& metrics) {
  std::printf("%s\n", title.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.4f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.base.c_str());
  }
}

/// "min-max s" of a sample, for the report.
std::string seconds_range(const std::vector<double>& values) {
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  char text[64];
  std::snprintf(text, sizeof(text), "%.3f-%.3f s", *lo, *hi);
  return text;
}

double exact_speedup_gm(const Phase& phase,
                        const std::vector<std::uint64_t>& seeds) {
  std::vector<double> speedups;
  for (const std::uint64_t seed : seeds) {
    speedups.push_back(phase.per_seed.at(seed).speedup);
  }
  return perfbench::geomean(speedups);
}

double exact_modeled_h(const Phase& phase,
                       const std::vector<std::uint64_t>& seeds) {
  double total = 0.0;
  for (const std::uint64_t seed : seeds) {
    total += phase.per_seed.at(seed).modeled_s;
  }
  return total / static_cast<double>(seeds.size()) / 3600.0;
}

// --- traced report ---------------------------------------------------------

/// Median per-call microseconds of `body` (which makes `calls` calls).
template <class F>
double median_timing_us(int repeats, std::size_t calls, F&& body) {
  if (calls == 0) return 0.0;
  std::vector<double> per_call;
  for (int r = 0; r < repeats; ++r) {
    const double t0 = now_s();
    body();
    per_call.push_back((now_s() - t0) * 1e6 / static_cast<double>(calls));
  }
  return perfbench::median(per_call);
}

/// Re-times EvalJournal::record on the last campaign's own records.
double journal_append_us(core::EvalJournal& source, const std::string& dir) {
  std::vector<core::JournalRecord> records;
  source.for_each(
      [&](const core::JournalRecord& record) { records.push_back(record); });
  return median_timing_us(5, records.size(), [&] {
    const auto journal = core::EvalJournal::create(dir + "/retime.jsonl", 0);
    for (const core::JournalRecord& record : records) journal->record(record);
  });
}

struct DiskTiming {
  double open_ms = 0.0;
  double lookup_us = 0.0;
};

/// Re-times opening the populated disk tier and looking up the
/// campaign's own keys (every entry whose salt is one of `salts`).
DiskTiming disk_timing(const std::string& cache_dir,
                       const std::vector<std::uint64_t>& salts) {
  std::vector<core::EvalCache::Key> keys;
  for (const auto& shard : fs::directory_iterator(cache_dir)) {
    if (!shard.is_directory() || shard.path().filename() == "corrupt") continue;
    for (const auto& file : fs::directory_iterator(shard.path())) {
      core::EvalCache::Key key;
      core::EvalOutcome outcome;
      double rerun = 0.0;
      if (core::PersistentCache::decode_entry(read_file(file.path().string()),
                                              &key, &outcome, &rerun) &&
          std::find(salts.begin(), salts.end(), key.salt) != salts.end()) {
        keys.push_back(key);
      }
    }
  }
  DiskTiming timing;
  const core::PersistentCache::Options options{.dir = cache_dir};
  timing.open_ms =
      median_timing_us(5, 1, [&] { core::PersistentCache cache(options); }) /
      1e3;
  core::PersistentCache cache(options);
  timing.lookup_us = median_timing_us(3, keys.size(), [&] {
    core::EvalOutcome outcome;
    double rerun = 0.0;
    for (const core::EvalCache::Key& key : keys) {
      if (!cache.lookup(key, &outcome, &rerun)) {
        throw std::runtime_error("disk tier lost a campaign key");
      }
    }
  });
  return timing;
}

struct CodecTiming {
  double bytes_per_eval = 0.0;
  double encode_us_per_eval = 0.0;
  double decode_us_per_eval = 0.0;
};

/// Re-times the binary protocol codecs on the last campaign's own
/// request and reply batches, split into frames as the client sends them.
CodecTiming codec_timing(const Trace& trace) {
  struct Frame {
    std::span<const core::EvalRequest> requests;
    std::span<const core::EvalResponse> replies;
  };
  std::vector<Frame> frames;
  std::size_t evals = 0;
  for (std::size_t b = 0; b < trace.batches.size(); ++b) {
    const auto& requests = trace.batches[b];
    const auto& replies = trace.replies[b];
    for (std::size_t at = 0; at < requests.size(); at += trace.max_batch) {
      const std::size_t n = std::min(trace.max_batch, requests.size() - at);
      frames.push_back({std::span(requests).subspan(at, n),
                        std::span(replies).subspan(at, n)});
      evals += n;
    }
  }
  CodecTiming timing;
  if (evals == 0) return timing;
  const service::Framing framing = service::Framing::kBinary;
  std::vector<std::string> request_bytes(frames.size());
  std::vector<std::string> reply_bytes(frames.size());
  timing.encode_us_per_eval = median_timing_us(5, evals, [&] {
    for (std::size_t f = 0; f < frames.size(); ++f) {
      service::encode_eval_batch_frame(framing, f + 1, frames[f].requests,
                                       &request_bytes[f]);
      service::encode_result_batch_frame(framing, f + 1, frames[f].replies,
                                         &reply_bytes[f]);
    }
  });
  double bytes = 0.0;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    // Each frame travels with a 4-byte length prefix.
    bytes += static_cast<double>(request_bytes[f].size() +
                                 reply_bytes[f].size() + 8);
  }
  timing.bytes_per_eval = bytes / static_cast<double>(evals);
  service::AnyFrame decoded;
  std::string error;
  timing.decode_us_per_eval = median_timing_us(5, evals, [&] {
    for (std::size_t f = 0; f < frames.size(); ++f) {
      if (service::decode_frame(framing, request_bytes[f], &decoded,
                                &error) != service::DecodeStatus::kOk ||
          service::decode_frame(framing, reply_bytes[f], &decoded,
                                &error) != service::DecodeStatus::kOk) {
        throw std::runtime_error("re-decoding a campaign frame failed: " +
                                 error);
      }
    }
  });
  return timing;
}

std::vector<Metric> per_layer_metrics(Workload& workload, const Phase& traced,
                                      const Trace& trace,
                                      double untraced_evals_per_s,
                                      const std::string& dir) {
  const double campaigns = static_cast<double>(traced.campaign_s.size());
  double wall_s = 0.0;
  for (const double s : traced.campaign_s) wall_s += s;
  const double wall_ms = wall_s * 1e3 / campaigns;  // per campaign

  double layer_s[4] = {0, 0, 0, 0};
  double layer_calls[4] = {0, 0, 0, 0};
  for (const CallSpan& call : trace.calls) {
    layer_s[static_cast<int>(call.layer)] += call.t1 - call.t0;
    layer_calls[static_cast<int>(call.layer)] += 1;
  }
  const auto seconds_of = [&](Layer layer) {
    return layer_s[static_cast<int>(layer)];
  };
  const auto calls_of = [&](Layer layer) {
    return layer_calls[static_cast<int>(layer)];
  };
  const auto us_per_call = [&](Layer layer) {
    return calls_of(layer) > 0 ? seconds_of(layer) * 1e6 / calls_of(layer)
                               : 0.0;
  };
  const auto per_campaign = [&](double total) { return total / campaigns; };

  double reps = 0, draws = 0, module_compiles = 0, object_hits = 0;
  double records = 0, journal_bytes = 0, disk_lookups = 0, disk_hits = 0;
  double disk_rejected = 0, disk_entries = 0, memory_hit_ratio = 0;
  for (const CampaignOutcome& o : traced.outcomes) {
    reps += static_cast<double>(o.engine_reps);
    draws += static_cast<double>(o.noise_draws);
    module_compiles += static_cast<double>(o.module_compiles);
    object_hits += static_cast<double>(o.object_hits);
    records += static_cast<double>(o.journal_records);
    journal_bytes += static_cast<double>(o.journal_bytes);
    disk_lookups += static_cast<double>(o.disk_lookups);
    disk_hits += static_cast<double>(o.disk_hits);
    disk_rejected += static_cast<double>(o.disk_rejected);
    disk_entries += static_cast<double>(o.disk_entries);
    memory_hit_ratio += o.memory_hit_ratio;
  }

  // Per-call costs re-timed on the campaign's own data.
  double append_us = 0.0;
  if (const auto* cold = dynamic_cast<ColdWorkload*>(&workload);
      cold != nullptr && cold->journal()) {
    append_us = journal_append_us(*cold->journal(), dir);
  }
  DiskTiming disk;
  if (const auto* warm = dynamic_cast<DiskWarmWorkload*>(&workload)) {
    std::vector<std::uint64_t> salts;
    for (const std::uint64_t seed : workload.seeds()) {
      salts.push_back(core::options_fingerprint(
          campaign_options(seed, warm->samples())));
    }
    disk = disk_timing(warm->cache_dir(), salts);
  }
  const CodecTiming codec = codec_timing(trace);

  // Layer self-times per campaign (ms). Engine, compiler and service
  // calls are timed inline; the journal and the disk tier run inside
  // the evaluator, so their time is calls x re-timed cost per call.
  const double machine_ms =
      per_campaign(seconds_of(Layer::kRunPlain) +
                   seconds_of(Layer::kRunInstrumented)) * 1e3;
  const double compiler_ms = per_campaign(seconds_of(Layer::kCompile)) * 1e3;
  const double service_ms = per_campaign(seconds_of(Layer::kService)) * 1e3;
  const double checkpoint_ms = per_campaign(records) * append_us / 1e3;
  const double disk_ms = disk_lookups > 0
                             ? disk.open_ms + per_campaign(disk_lookups) *
                                                  disk.lookup_us / 1e3
                             : 0.0;
  const double core_ms =
      wall_ms - machine_ms - compiler_ms - service_ms - checkpoint_ms - disk_ms;

  // Phase spans of the program, and the wall time they leave uncovered.
  double collection_s = 0, search_s = 0, spans_s = 0;
  for (const PhaseSpan& span : trace.phases) {
    if (span.name == "collection") collection_s += span.seconds;
    if (span.name == "search:CFR") search_s += span.seconds;
    spans_s += span.seconds;
  }
  const double residual_ms = wall_ms - per_campaign(spans_s) * 1e3;

  const double instrumented_us = us_per_call(Layer::kRunInstrumented);
  const double plain_us = us_per_call(Layer::kRunPlain);
  const double daemon_cpu_ms_per_keval =
      trace.remote_evals > 0
          ? traced.external_cpu_s * 1e3 /
                (static_cast<double>(traced.attempted) / 1e3)
          : 0.0;
  const double traced_evals_per_s =
      static_cast<double>(traced.attempted) / traced.wall_s;
  const auto per_call_base = [&](Layer layer) {
    char text[64];
    std::snprintf(text, sizeof(text), "per call, %.0f calls per campaign",
                  per_campaign(calls_of(layer)));
    return std::string(text);
  };
  const std::string per_c = "per campaign";
  const std::string of_wall = "of campaign wall time";
  return {
      {"machine.run_instrumented_us", instrumented_us, "us",
       per_call_base(Layer::kRunInstrumented)},
      {"machine.run_plain_us", plain_us, "us",
       per_call_base(Layer::kRunPlain)},
      {"machine.share", machine_ms / wall_ms, "ratio", of_wall},
      {"machine.reps", per_campaign(reps), "count", per_c},
      {"machine.noise_draws", per_campaign(draws), "count", per_c},
      {"caliper.us_per_run",
       instrumented_us > 0 && plain_us > 0 ? instrumented_us - plain_us : 0.0,
       "us", "instrumented minus plain ExecutionEngine::run, per run"},
      {"compiler.build_us", us_per_call(Layer::kCompile), "us",
       per_call_base(Layer::kCompile)},
      {"compiler.share", compiler_ms / wall_ms, "ratio", of_wall},
      {"compiler.module_compiles", per_campaign(module_compiles), "count",
       per_c},
      {"compiler.object_hit_ratio",
       module_compiles + object_hits > 0
           ? object_hits / (module_compiles + object_hits)
           : 0.0,
       "ratio", "object-cache hits per module lookup"},
      {"checkpoint.records", per_campaign(records), "count", per_c},
      {"checkpoint.bytes_per_record",
       records > 0 ? journal_bytes / records : 0.0, "bytes",
       "journal file bytes per record"},
      {"checkpoint.append_us", append_us, "us",
       "per EvalJournal::record, re-timed on the campaign's records"},
      {"checkpoint.share", checkpoint_ms / wall_ms, "ratio",
       of_wall + " (records x append_us)"},
      {"persistent_cache.open_ms", disk.open_ms, "ms",
       "per PersistentCache open, re-timed on the campaign's directory"},
      {"persistent_cache.entries", per_campaign(disk_entries), "count",
       "entries in the tier a campaign opens"},
      {"persistent_cache.lookup_us", disk.lookup_us, "us",
       "per PersistentCache::lookup, re-timed on the campaign's keys"},
      {"persistent_cache.hits", per_campaign(disk_hits), "count", per_c},
      {"persistent_cache.rejected", per_campaign(disk_rejected), "count",
       per_c},
      {"persistent_cache.share", disk_ms / wall_ms, "ratio",
       of_wall + " (open + lookups x lookup_us)"},
      {"eval_cache.hit_ratio", per_campaign(memory_hit_ratio), "ratio",
       "memory-tier hits per lookup"},
      {"service.frames", per_campaign(static_cast<double>(trace.frames)),
       "count", per_c},
      {"service.rtt_ms_p50",
       trace.frame_rtt_ms.empty() ? 0.0
                                  : perfbench::median(trace.frame_rtt_ms),
       "ms", "per frame round trip, client side"},
      {"service.bytes_per_eval", codec.bytes_per_eval, "bytes",
       "request + reply frame bytes per evaluation"},
      {"service.encode_us_per_eval", codec.encode_us_per_eval, "us",
       "request + reply encode per evaluation, re-timed"},
      {"service.decode_us_per_eval", codec.decode_us_per_eval, "us",
       "request + reply decode per evaluation, re-timed"},
      {"service.share", service_ms / wall_ms, "ratio",
       of_wall + " (client connect + round trips)"},
      {"service.daemon_cpu_ms_per_keval", daemon_cpu_ms_per_keval, "ms",
       "daemon CPU per 1000 evaluations"},
      {"service.daemon_cache_hit_ratio",
       trace.remote_evals > 0 ? static_cast<double>(trace.daemon_cache_hits) /
                                    static_cast<double>(trace.remote_evals)
                              : 0.0,
       "ratio", "daemon raw-cache hits per remote evaluation"},
      {"core.self_share", core_ms / wall_ms, "ratio",
       of_wall + " outside every layer above"},
      {"phase.collection_ms", per_campaign(collection_s) * 1e3, "ms", per_c},
      {"phase.search_ms", per_campaign(search_s) * 1e3, "ms", per_c},
      {"trace.residual_share", residual_ms / wall_ms, "ratio",
       "campaign wall time outside every program phase span"},
      {"trace.overhead_share",
       1.0 - traced_evals_per_s / untraced_evals_per_s, "ratio",
       "evals_per_s lost to tracing (traced vs untraced)"},
      {"trace.campaign_ms", wall_ms, "ms", "traced campaign wall time"},
  };
}

// --- modes -----------------------------------------------------------------

/// Workload-start-to-first-timed-campaign time of one set-up, with the
/// warm-up campaign checked like a timed one. Whatever an earlier set-up
/// left is torn down and flushed to disk first, outside the interval.
double one_setup(Workload& workload, const Checker& checker,
                 const std::string& dir, std::uint64_t* failed) {
  workload.teardown();
  flush_filesystem(dir);
  return perfbench::timed_setup(
      now_s, [&] { workload.setup(); },
      [&] {
        const std::uint64_t seed = workload.seeds().front();
        std::string why;
        const std::uint64_t bad =
            checker.check(seed, workload.campaign(seed, nullptr), &why);
        if (bad > 0) std::cerr << "warm-up: " << why << '\n';
        *failed += bad;
      });
}

/// Set-ups and timed campaigns alternate: kRounds rounds of one full
/// set-up followed by 1/kRounds of the timed phase, so set-up time and
/// campaign time sample the same stretch of the host's (drifting) speed,
/// and every round runs on a fresh disk tier or daemon.
int run_untraced(Workload& workload, const Checker& checker, double seconds,
                 const std::string& dir) {
  std::uint64_t setup_failed = 0;
  std::vector<double> setups;
  Phase phase;
  double external_rss = 0.0;
  const std::size_t min_campaigns =
      perfbench::min_samples_for_tail(kTailQuantile);
  for (int r = 0; r < kRounds && phase.errors.empty(); ++r) {
    setups.push_back(one_setup(workload, checker, dir, &setup_failed));
    flush_filesystem(dir);
    const std::size_t rounds_left = static_cast<std::size_t>(kRounds - r);
    const std::size_t still_needed =
        min_campaigns > phase.campaign_s.size()
            ? min_campaigns - phase.campaign_s.size()
            : 0;
    Phase round = timed_phase(workload, checker, seconds / kRounds,
                              (still_needed + rounds_left - 1) / rounds_left,
                              nullptr);
    external_rss = std::max(external_rss, workload.external_peak_rss_mb());
    phase.absorb(std::move(round));
  }
  const double rss = peak_rss_mb() + external_rss;
  workload.teardown();
  const std::uint64_t failed =
      phase.failed + setup_failed + workload.refusals();
  for (const std::string& error : phase.errors) std::cerr << error << '\n';
  const bool correct = failed == 0 && phase.errors.empty();
  if (!correct) {
    print_result(false, std::max<std::uint64_t>(phase.attempted, 1),
                 std::max<std::uint64_t>(failed, 1), {});
    return 1;
  }
  std::vector<double> ms;
  for (const double s : phase.campaign_s) ms.push_back(s * 1e3);
  const std::string n = std::to_string(ms.size()) + " campaigns";
  const std::vector<Metric> metrics = {
      {"evals_per_s", perfbench::median(phase.pass_evals_per_s), "1/s",
       "median of " + std::to_string(phase.pass_evals_per_s.size()) +
           " passes over the seed list, " + n + " in " +
           std::to_string(setups.size()) + " rounds"},
      {"campaign_ms_p50", perfbench::median(ms), "ms", n},
      {"campaign_ms_p75", perfbench::tail_quantile(ms, kTailQuantile), "ms",
       n + ", " +
           std::to_string(perfbench::samples_beyond(ms.size(), kTailQuantile)) +
           " beyond"},
      {"cpu_ms_per_keval",
       perfbench::cpu_ms_per_keval(phase.cpu_s, phase.external_cpu_s,
                                   phase.attempted),
       "ms", "client + daemon CPU"},
      {"speedup_gm", exact_speedup_gm(phase, workload.seeds()), "x",
       "geometric mean over the seed list"},
      {"modeled_charged_h", exact_modeled_h(phase, workload.seeds()), "h",
       "per campaign, charged + saved by cache hits"},
      {"setup_s", perfbench::median(setups), "s",
       "median of " + std::to_string(kRounds) + " set-ups, " +
           seconds_range(setups)},
      {"peak_rss_mb", rss, "MiB", "client + daemon high-water mark"},
  };
  print_report("cfr_bench end-to-end", metrics);
  print_result(true, phase.attempted, 0, metrics);
  return 0;
}

/// Alternates untraced and traced passes over the seed list until
/// `seconds` have passed (one of each at least), so both sample the same
/// stretch of the host's speed and their evals_per_s ratio is the
/// tracing overhead.
void alternate_passes(Workload& workload, const Checker& checker,
                      double seconds, Trace& trace, Phase* plain,
                      Phase* traced) {
  const auto sink = std::make_shared<PhaseSink>(trace);
  const double start = now_s();
  do {
    plain->absorb(timed_phase(workload, checker, 0.0, 1, nullptr));
    telemetry::SinkScope scope(sink);
    traced->absorb(timed_phase(workload, checker, 0.0, 1, &trace));
  } while (now_s() - start < seconds && plain->errors.empty() &&
           traced->errors.empty());
}

int run_traced(Workload& workload, const Checker& checker, double seconds,
               const std::string& dir) {
  std::uint64_t failed = 0;
  (void)one_setup(workload, checker, dir, &failed);
  flush_filesystem(dir);
  Trace trace;
  Phase plain;
  Phase traced;
  alternate_passes(workload, checker, seconds, trace, &plain, &traced);
  const std::vector<Metric> metrics = per_layer_metrics(
      workload, traced, trace,
      static_cast<double>(plain.attempted) / plain.wall_s, dir);
  workload.teardown();
  failed += plain.failed + traced.failed + workload.refusals();
  for (const std::string& error : plain.errors) std::cerr << error << '\n';
  for (const std::string& error : traced.errors) std::cerr << error << '\n';
  const std::uint64_t attempted = plain.attempted + traced.attempted;
  if (failed > 0) {
    print_result(false, std::max<std::uint64_t>(attempted, 1), failed, {});
    return 1;
  }
  print_report("cfr_bench per-layer split (" +
                   std::to_string(traced.campaign_s.size()) +
                   " traced campaigns)",
               metrics);
  const auto value_of = [&](const std::string& name) {
    for (const Metric& m : metrics) {
      if (m.name == name) return m.value;
    }
    throw std::logic_error("no metric " + name);
  };
  const double layers =
      value_of("machine.share") + value_of("compiler.share") +
      value_of("checkpoint.share") + value_of("persistent_cache.share") +
      value_of("service.share");
  std::printf(
      "  accounting: layer self-times %.4f + core.self_share %.4f = 1 of "
      "campaign wall time (core is what the layers leave); residual %.4f "
      "of wall time lies outside every program phase span (tuner "
      "construction, disk-tier open, client connect)\n",
      layers, value_of("core.self_share"), value_of("trace.residual_share"));
  std::printf("  tracing overhead: %.4f of untraced evals_per_s\n",
              value_of("trace.overhead_share"));
  print_result(true, attempted, 0, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  support::OptionSet options;
  options.text("workload", "", "cfr_cold | cfr_disk_warm | cfr_remote_warm")
      .integer("seed", 1, "benchmark seed (picks the campaign seed list)")
      .real("seconds", 20.0, "length of the timed phase")
      .integer("trace", 0, "1 = traced run printing the per-layer split")
      .text("ftuned", "", "path of the ftuned binary")
      .text("work-dir", ".bench_run", "scratch directory for the run")
      .text("expected", "", "expected_results.json")
      .flag("self-check", false,
            "drive all three workloads at small scale and cross-check them")
      .flag("write-expected", false,
            "print expected_results.json from cold campaigns and exit")
      .flag("help", false, "print this help");
  support::OptionSet::Parsed parsed;
  try {
    parsed = options.parse(argc - 1, argv + 1);
  } catch (const std::exception& error) {
    std::cerr << "cfr_bench: " << error.what() << '\n';
    return 2;
  }
  if (parsed.flag("help")) {
    std::cout << options.help("usage: cfr_bench [options]");
    return 0;
  }
  // One evaluation worker: multi-worker scheduling is out of scope. Set
  // before the first use of the global pool.
  setenv("FT_THREADS", "1", 1);
  // The closed loop never has two runnable threads, so everything,
  // the ftuned child included, shares one CPU: client/daemon hand-offs
  // then never wait on a cross-CPU wake-up, which spread remote runs by
  // 30% unpinned. That CPU changes every kCpuDwellS, in turn over every
  // allowed CPU but 0 (Workload::next_cpu): on a VM each virtual CPU
  // runs at its own speed, which holds for seconds to minutes, so a run
  // pinned to one of them reads that speed, not the program's.
  const std::vector<int> cpus = campaign_cpus();
  if (!cpus.empty()) pin_process(getpid(), cpus.front());

  const std::string dir = parsed.text("work-dir");
  try {
    fs::remove_all(dir);
    fs::create_directories(dir);
    struct Cleanup {
      std::string dir;
      ~Cleanup() {
        std::error_code ec;
        fs::remove_all(dir, ec);
      }
    } cleanup{dir};

    if (parsed.flag("write-expected")) {
      std::cout << "{\"schema\": 1, \"program\": \"" << kProgram
                << "\", \"arch\": \"" << kArch << "\", \"results\": [\n";
      bool first = true;
      for (const std::size_t samples : {kPaperSamples, kSelfCheckSamples}) {
        ColdWorkload cold(dir, samples, {});
        cold.setup();
        for (std::uint64_t seed = 1; seed <= kSeedPool; ++seed) {
          const CampaignOutcome outcome = cold.campaign(seed, nullptr);
          if (outcome.failed > 0) {
            throw std::runtime_error("failed evaluations");
          }
          std::cout << (first ? "" : ",\n") << "  {\"samples\": " << samples
                    << ", \"seed\": " << seed << ", \"hash\": \""
                    << support::fnv1a64(outcome.json)
                    << "\", \"evaluations\": " << outcome.evaluations
                    << ", \"speedup\": " << outcome.speedup << "}";
          first = false;
        }
      }
      std::cout << "\n]}\n";
      return 0;
    }

    const ExpectedTable expected = load_expected(parsed.text("expected"));
    const std::string ftuned = parsed.text("ftuned");
    const auto seeds =
        seed_list(static_cast<std::uint64_t>(parsed.integer("seed")));

    if (parsed.flag("self-check")) {
      std::map<std::uint64_t, std::string> seen;
      const Checker checker{&expected, kSelfCheckSamples, &seen};
      int status = 0;
      for (const char* name : kWorkloads) {
        const auto workload =
            make_workload(name, dir, kSelfCheckSamples, seeds, ftuned);
        workload->set_cpus(cpus);
        std::uint64_t failed = 0;
        const double setup = one_setup(*workload, checker, dir, &failed);
        Trace trace;
        Phase plain;
        Phase traced;
        alternate_passes(*workload, checker, 0.0, trace, &plain, &traced);
        const std::vector<Metric> layers = per_layer_metrics(
            *workload, traced, trace,
            static_cast<double>(plain.attempted) / plain.wall_s, dir);
        workload->teardown();
        failed += plain.failed + traced.failed + workload->refusals();
        for (const std::string& e : plain.errors) {
          std::cerr << name << ": " << e << '\n';
        }
        for (const std::string& e : traced.errors) {
          std::cerr << name << ": " << e << '\n';
        }
        std::printf(
            "%-16s set-up %.3f s, %zu campaigns, %zu layer metrics, %s\n",
            name, setup, plain.campaign_s.size() + traced.campaign_s.size(),
            layers.size(), failed == 0 ? "ok" : "FAILED");
        if (failed > 0) status = 1;
      }
      std::printf("self-check %s: %zu seeds identical across workloads and "
                  "equal to expected_results.json\n",
                  status == 0 ? "passed" : "FAILED", seen.size());
      return status;
    }

    const std::string name = parsed.text("workload");
    const auto workload =
        make_workload(name, dir, kPaperSamples, seeds, ftuned);
    workload->set_cpus(cpus);
    const Checker checker{&expected, kPaperSamples, nullptr};
    if (parsed.integer("trace") != 0) {
      return run_traced(*workload, checker, parsed.real("seconds"), dir);
    }
    return run_untraced(*workload, checker, parsed.real("seconds"), dir);
  } catch (const std::exception& error) {
    std::cerr << "cfr_bench: " << error.what() << '\n';
    return 1;
  }
}
