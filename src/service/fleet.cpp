#include "service/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <iostream>
#include <mutex>

#include "support/rng.hpp"
#include "support/string_utils.hpp"
#include "telemetry/metrics.hpp"

namespace ft::service {

namespace {

/// A chunk bounced by `overloaded` give-ups or endpoint deaths is
/// re-dispatched at most this many times before the batch fails.
constexpr int kMaxChunkRedispatch = 8;

/// "The daemons cannot serve right now but the work itself is fine":
/// what a fleet absorbs at connect and the local rung absorbs per
/// call. Anything else (bad_request, unknown_program, remote_fault...)
/// would fail locally too, or signals a real bug that must surface.
bool degradable(const std::string& code) noexcept {
  return is_transport_code(code) || is_bounce_code(code);
}

double monotonic_seconds() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point start = clock::now();
  return std::chrono::duration<double>(clock::now() - start).count();
}

}  // namespace

std::unique_ptr<FleetBackend> FleetBackend::connect(
    const std::vector<std::string>& addresses, const ConnectOptions& options,
    const FleetOptions& fleet_options) {
  auto fleet = std::unique_ptr<FleetBackend>(new FleetBackend());
  fleet->options_ = fleet_options;
  fleet->connect_options_ = options;
  const WorkspaceSpec& workspace = options.workspace;

  for (const std::string& address : addresses) {
    auto endpoint = std::make_unique<Endpoint>();
    endpoint->address = address;
    // FleetBackend::Endpoint shadows the transport-level Endpoint.
    endpoint->dial = ::ft::service::Endpoint::parse(address);
    endpoint->jitter_state = support::fnv1a64(address);
    try {
      endpoint->wire = std::make_shared<RemoteBackend>(
          Client::connect(endpoint->dial, options));
      endpoint->alive.store(true, std::memory_order_release);
    } catch (const ServiceError& refusal) {
      const std::string code = refusal.code();
      if (code == "unsupported_architecture" ||
          code == "unknown_architecture") {
        // The heterogeneous-fleet filter: this daemon does not serve
        // the workspace's arch, so it simply is not part of THIS
        // backend. Other cells may still use it.
        continue;
      }
      if (!degradable(code)) throw;  // bad options / version skew
      // Down right now: keep it behind an open breaker, so the probe
      // adopts it once it answers.
      std::cerr << "ftune: fleet endpoint " << address
                << " unavailable: " << refusal.what() << '\n';
      fleet->open_spell_locked(*endpoint);
      ++fleet->stats_.breaker_opens;
    }
    fleet->endpoints_.push_back(std::move(endpoint));
  }
  if (fleet->alive_count() == 0) {
    const std::string what = "no usable fleet endpoint for " +
                             workspace.program + " on " + workspace.arch;
    if (!fleet_options.fallback_local) throw ServiceError("fleet", what);
    std::cerr << "ftune: " << what << "; evaluating locally\n";
  }

  // Rendezvous (highest-random-weight) home: the endpoint with the
  // highest hash of (address, workspace fingerprint). Adding or
  // removing an endpoint moves only the workspaces homed on it.
  const std::string suffix =
      '|' + std::to_string(workspace_fingerprint(workspace));
  std::uint64_t best = 0;
  for (std::size_t i = 0; i < fleet->endpoints_.size(); ++i) {
    const std::uint64_t weight =
        support::fnv1a64(fleet->endpoints_[i]->address + suffix);
    if (i == 0 || weight > best) {
      best = weight;
      fleet->home_ = i;
    }
  }

  // The probe thread runs even for a single endpoint: it is also the
  // breaker's half-open reconnect path, and a lone daemon that
  // restarts (or starts late) deserves to be adopted just as much as a
  // fleet member.
  if (fleet_options.probe_interval_seconds > 0 &&
      !fleet->endpoints_.empty()) {
    fleet->probe_thread_ = std::thread([raw = fleet.get()] {
      raw->probe_loop();
    });
  }
  return fleet;
}

FleetBackend::~FleetBackend() {
  {
    std::lock_guard lock(probe_mutex_);
    stopping_ = true;
  }
  probe_wake_.notify_all();
  if (probe_thread_.joinable()) probe_thread_.join();
}

int FleetBackend::next_alive(std::size_t start) const {
  for (std::size_t step = 0; step < endpoints_.size(); ++step) {
    const std::size_t index = (start + step) % endpoints_.size();
    if (endpoints_[index]->alive.load(std::memory_order_acquire)) {
      return static_cast<int>(index);
    }
  }
  return -1;
}

std::size_t FleetBackend::alive_count() const noexcept {
  std::size_t count = 0;
  for (const auto& endpoint : endpoints_) {
    if (endpoint->alive.load(std::memory_order_acquire)) ++count;
  }
  return count;
}

const std::string& FleetBackend::home_address() const noexcept {
  static const std::string kNone;
  return endpoints_.empty() ? kNone : endpoints_[home_]->address;
}

FleetBackend::Stats FleetBackend::stats() const {
  std::lock_guard lock(stats_mutex_);
  return stats_;
}

std::shared_ptr<RemoteBackend> FleetBackend::wire_for(std::size_t index) {
  Endpoint& endpoint = *endpoints_[index];
  std::lock_guard lock(endpoint.wire_mutex);
  return endpoint.wire;
}

void FleetBackend::drain(std::size_t index) {
  Endpoint& endpoint = *endpoints_[index];
  if (!endpoint.alive.exchange(false, std::memory_order_acq_rel)) return;
  // Wake any thread blocked on this endpoint's wire right now.
  const std::shared_ptr<RemoteBackend> wire = wire_for(index);
  if (wire) wire->client()->abort();
  std::lock_guard lock(stats_mutex_);
  ++stats_.endpoints_drained;
}

void FleetBackend::note_transport_failure(std::size_t index) {
  Endpoint& endpoint = *endpoints_[index];
  bool opened = false;
  {
    std::lock_guard lock(endpoint.breaker_mutex);
    ++endpoint.consecutive_failures;
    if (endpoint.consecutive_failures >=
        options_.breaker_failure_threshold) {
      open_spell_locked(endpoint);
      opened = true;
    } else {
      endpoint.reopen_at = 0.0;  // below threshold: retry immediately
    }
  }
  drain(index);
  if (opened) {
    std::lock_guard lock(stats_mutex_);
    ++stats_.breaker_opens;
  }
}

void FleetBackend::open_spell_locked(Endpoint& endpoint) {
  // Exponential backoff with deterministic per-endpoint jitter, so N
  // clients that watched the same daemon die do not re-dial it in
  // lockstep.
  double backoff = std::min(options_.breaker_reopen_base_seconds *
                                std::ldexp(1.0, endpoint.open_spells),
                            options_.breaker_reopen_max_seconds);
  const double u =
      static_cast<double>(support::splitmix64(endpoint.jitter_state) >>
                          11) *
      0x1.0p-53;
  backoff += backoff * 0.25 * u;
  endpoint.reopen_at = monotonic_seconds() + backoff;
  ++endpoint.open_spells;
}

void FleetBackend::note_success(std::size_t index) {
  Endpoint& endpoint = *endpoints_[index];
  std::lock_guard lock(endpoint.breaker_mutex);
  endpoint.consecutive_failures = 0;
  endpoint.open_spells = 0;
}

void FleetBackend::probe_pass() {
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    Endpoint& endpoint = *endpoints_[i];
    if (endpoint.alive.load(std::memory_order_acquire)) {
      // Do not inject probes into a wire that is mid-batch: the
      // dispatcher's own traffic already proves liveness, and a ping
      // queued behind a long eval_batch would time out spuriously.
      if (endpoint.inflight.load(std::memory_order_acquire) > 0) {
        continue;
      }
      try {
        wire_for(i)->client()->ping();
        note_success(i);
      } catch (const std::exception&) {
        {
          std::lock_guard lock(stats_mutex_);
          ++stats_.probe_failures;
        }
        note_transport_failure(i);
      }
      continue;
    }
    // Dead endpoint: honor the breaker's backoff, then go half-open -
    // ONE fresh dial+handshake+ping decides. Success re-closes the
    // breaker and republishes the wire; failure doubles the backoff.
    {
      std::lock_guard lock(endpoint.breaker_mutex);
      if (monotonic_seconds() < endpoint.reopen_at) continue;
    }
    try {
      std::shared_ptr<Client> fresh =
          Client::connect(endpoint.dial, connect_options_);
      fresh->ping();
      {
        std::lock_guard lock(endpoint.wire_mutex);
        endpoint.wire = std::make_shared<RemoteBackend>(std::move(fresh));
      }
      {
        std::lock_guard lock(endpoint.breaker_mutex);
        endpoint.consecutive_failures = 0;
        endpoint.open_spells = 0;
      }
      endpoint.alive.store(true, std::memory_order_release);
      std::lock_guard lock(stats_mutex_);
      ++stats_.breaker_recoveries;
    } catch (const std::exception&) {
      std::lock_guard lock(endpoint.breaker_mutex);
      open_spell_locked(endpoint);
    }
  }
}

void FleetBackend::probe_loop() {
  const auto interval = std::chrono::duration<double>(
      options_.probe_interval_seconds);
  std::unique_lock lock(probe_mutex_);
  // The destructor wakes the wait, so tearing a fleet down never waits
  // out a probe period.
  const auto stopping = [this] { return stopping_; };
  while (!probe_wake_.wait_for(lock, interval, stopping)) {
    lock.unlock();
    probe_pass();
    lock.lock();
  }
}

bool FleetBackend::falls_back(const ServiceError& error) const noexcept {
  return options_.fallback_local && degradable(error.code());
}

void FleetBackend::note_daemons_served() {
  if (!degraded_last_call_.exchange(false, std::memory_order_acq_rel)) return;
  {
    std::lock_guard lock(stats_mutex_);
    ++stats_.fallback_recoveries;
  }
  telemetry::metrics().counter("fleet.fallback.recoveries").add();
}

core::Evaluator& FleetBackend::local_locked() {
  if (!local_) {
    local_ = make_workspace_tuner(connect_options_.workspace);
    telemetry::metrics().counter("fleet.fallback.engines").add();
  }
  return local_->evaluator();
}

core::EvalBackend::RawResult FleetBackend::run(
    const compiler::ModuleAssignment& assignment,
    const machine::RunOptions& options) {
  try {
    RawResult result = run_on_daemons(assignment, options);
    note_daemons_served();
    return result;
  } catch (const ServiceError& error) {
    if (!falls_back(error)) throw;
  }
  degraded_last_call_.store(true, std::memory_order_release);
  {
    std::lock_guard lock(stats_mutex_);
    ++stats_.fallback_runs;
  }
  telemetry::metrics().counter("fleet.fallback.runs").add();
  std::lock_guard lock(local_mutex_);
  return local_locked().raw_run(assignment, options);
}

std::vector<core::EvalBackend::RawResult> FleetBackend::run_many(
    std::span<const core::EvalRequest> requests) {
  {
    std::lock_guard lock(stats_mutex_);
    ++stats_.batches_dispatched;
  }
  if (requests.empty()) return {};
  try {
    std::vector<RawResult> results = run_many_on_daemons(requests);
    note_daemons_served();
    return results;
  } catch (const ServiceError& error) {
    if (!falls_back(error)) throw;
  }
  // Whole-batch fallback: raw runs are deterministic, so serving the
  // batch locally yields the same bytes the daemons would have.
  degraded_last_call_.store(true, std::memory_order_release);
  {
    std::lock_guard lock(stats_mutex_);
    ++stats_.fallback_batches;
    stats_.fallback_evals += requests.size();
  }
  telemetry::metrics().counter("fleet.fallback.batches").add();
  telemetry::metrics().counter("fleet.fallback.evals").add(requests.size());
  std::lock_guard lock(local_mutex_);
  core::Evaluator& evaluator = local_locked();
  std::vector<RawResult> results;
  results.reserve(requests.size());
  for (const core::EvalRequest& request : requests) {
    results.push_back(
        evaluator.raw_run(request.assignment, request.run_options()));
  }
  return results;
}

std::vector<core::EvalBackend::RawResult> FleetBackend::run_many_on_daemons(
    std::span<const core::EvalRequest> requests) {
  // One chunk = one wire frame anywhere in the fleet, so chunks may
  // never exceed the SMALLEST advertised max_batch: any endpoint can
  // then take any chunk, which is what makes stealing and re-dispatch
  // free. Below that cap, split the batch several times finer than
  // the fleet is wide - enough granularity for stealing to spread the
  // load, coarse enough that framing overhead stays negligible.
  std::size_t chunk_limit = requests.size();
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    const std::shared_ptr<RemoteBackend> wire = wire_for(i);
    const std::size_t advertised = wire ? wire->client()->max_batch() : 0;
    if (advertised > 0) chunk_limit = std::min(chunk_limit, advertised);
  }
  const std::size_t alive = std::max<std::size_t>(alive_count(), 1);
  if (alive > 1) {
    const std::size_t spread =
        (requests.size() + 4 * alive - 1) / (4 * alive);
    chunk_limit = std::min(chunk_limit, std::max<std::size_t>(spread, 1));
  }
  if (chunk_limit == 0) chunk_limit = 1;

  struct Chunk {
    std::size_t begin = 0;
    std::size_t count = 0;
    int dispatches = 0;
  };
  std::vector<Chunk> chunks;
  for (std::size_t begin = 0; begin < requests.size();
       begin += chunk_limit) {
    chunks.push_back(
        Chunk{begin, std::min(chunk_limit, requests.size() - begin), 0});
  }

  // Shared batch state. All chunks start on the workspace's home
  // queue (consistent hashing keeps one daemon's compiled-module
  // cache hot for this workspace); idle endpoints steal from the
  // back, a dying endpoint's worker re-queues its chunks elsewhere.
  std::mutex mutex;
  std::condition_variable ready;
  std::vector<std::deque<std::size_t>> queues(endpoints_.size());
  std::size_t pending = chunks.size();
  std::exception_ptr fatal;
  std::vector<RawResult> results(requests.size());

  {
    const int home = next_alive(home_);
    if (home < 0) {
      throw ServiceError("fleet", "every fleet endpoint is drained");
    }
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      queues[static_cast<std::size_t>(home)].push_back(c);
    }
  }

  auto worker = [&](std::size_t self) {
    Endpoint& endpoint = *endpoints_[self];
    while (true) {
      std::size_t chunk_index = 0;
      {
        std::unique_lock lock(mutex);
        ready.wait(lock, [&] {
          if (pending == 0 || fatal) return true;
          if (!endpoint.alive.load(std::memory_order_acquire)) return true;
          if (!queues[self].empty()) return true;
          for (const auto& queue : queues) {
            if (!queue.empty()) return true;
          }
          return false;  // everything is inflight on other endpoints
        });
        if (pending == 0 || fatal) return;
        if (!endpoint.alive.load(std::memory_order_acquire)) return;
        if (!queues[self].empty()) {
          chunk_index = queues[self].front();
          queues[self].pop_front();
        } else {
          // Steal from the longest queue's back: those are the chunks
          // their owner would reach last anyway.
          std::size_t victim = self;
          std::size_t longest = 0;
          for (std::size_t i = 0; i < queues.size(); ++i) {
            if (queues[i].size() > longest) {
              longest = queues[i].size();
              victim = i;
            }
          }
          if (longest == 0) continue;  // re-check the wait predicate
          chunk_index = queues[victim].back();
          queues[victim].pop_back();
          std::lock_guard stats_lock(stats_mutex_);
          ++stats_.chunks_stolen;
        }
      }

      Chunk& chunk = chunks[chunk_index];
      endpoint.inflight.fetch_add(1, std::memory_order_acq_rel);
      try {
        // Snapshot the wire: a concurrent breaker reconnect swaps the
        // endpoint's wire, but THIS call finishes on the session it
        // started with.
        const std::shared_ptr<RemoteBackend> wire = wire_for(self);
        std::vector<RawResult> replies =
            wire->run_many(requests.subspan(chunk.begin, chunk.count));
        endpoint.inflight.fetch_sub(1, std::memory_order_acq_rel);
        note_success(self);
        std::lock_guard lock(mutex);
        for (std::size_t i = 0; i < replies.size(); ++i) {
          results[chunk.begin + i] = std::move(replies[i]);
        }
        if (--pending == 0) ready.notify_all();
      } catch (const ServiceError& error) {
        endpoint.inflight.fetch_sub(1, std::memory_order_acq_rel);
        const bool transport = is_transport_code(error.code());
        const bool bounced = is_bounce_code(error.code());
        if (!transport && !bounced) {
          std::lock_guard lock(mutex);
          if (!fatal) fatal = std::current_exception();
          ready.notify_all();
          return;
        }
        if (transport) note_transport_failure(self);
        std::unique_lock lock(mutex);
        // The failed chunk plus (when dying) everything still queued
        // here moves to the next alive endpoint in index order.
        std::deque<std::size_t> orphans;
        orphans.push_back(chunk_index);
        if (transport) {
          orphans.insert(orphans.end(), queues[self].begin(),
                         queues[self].end());
          queues[self].clear();
        }
        const int target = next_alive(self + 1);
        bool exhausted = target < 0;
        for (const std::size_t orphan : orphans) {
          if (++chunks[orphan].dispatches > kMaxChunkRedispatch) {
            exhausted = true;
          }
        }
        if (exhausted) {
          if (!fatal) {
            fatal = std::make_exception_ptr(ServiceError(
                "fleet",
                target < 0
                    ? "every fleet endpoint died mid-batch"
                    : "chunk re-dispatched too many times: " +
                          std::string(error.what())));
          }
          ready.notify_all();
          return;
        }
        {
          std::lock_guard stats_lock(stats_mutex_);
          stats_.redispatches += orphans.size();
        }
        for (const std::size_t orphan : orphans) {
          queues[static_cast<std::size_t>(target)].push_back(orphan);
        }
        ready.notify_all();
        if (transport) return;  // this endpoint is gone; worker exits
      } catch (...) {
        endpoint.inflight.fetch_sub(1, std::memory_order_acq_rel);
        std::lock_guard lock(mutex);
        if (!fatal) fatal = std::current_exception();
        ready.notify_all();
        return;
      }
    }
  };

  std::vector<std::thread> workers;
  workers.reserve(endpoints_.size());
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    if (endpoints_[i]->alive.load(std::memory_order_acquire)) {
      workers.emplace_back(worker, i);
    }
  }
  for (std::thread& thread : workers) thread.join();

  if (fatal) std::rethrow_exception(fatal);
  if (pending != 0) {
    throw ServiceError("fleet", "batch incomplete: no alive endpoint");
  }
  return results;
}

core::EvalBackend::RawResult FleetBackend::run_on_daemons(
    const compiler::ModuleAssignment& assignment,
    const machine::RunOptions& options) {
  // Home-first failover: walk the endpoints in index order (wrapping
  // after the last) until one answers. Any of them produces the
  // identical bits.
  int index = next_alive(home_);
  for (std::size_t attempt = 0;
       index >= 0 && attempt < endpoints_.size(); ++attempt) {
    const std::size_t self = static_cast<std::size_t>(index);
    Endpoint& endpoint = *endpoints_[self];
    endpoint.inflight.fetch_add(1, std::memory_order_acq_rel);
    try {
      RawResult result = wire_for(self)->run(assignment, options);
      endpoint.inflight.fetch_sub(1, std::memory_order_acq_rel);
      note_success(self);
      return result;
    } catch (const ServiceError& error) {
      endpoint.inflight.fetch_sub(1, std::memory_order_acq_rel);
      if (is_bounce_code(error.code())) {
        // Backpressure/deadline: the endpoint is healthy, this
        // request just needs to land somewhere with headroom.
        index = next_alive(self + 1);
        if (index == static_cast<int>(self)) break;  // nowhere else
        continue;
      }
      if (!is_transport_code(error.code())) throw;
      note_transport_failure(self);
      index = next_alive(self + 1);
    }
  }
  throw ServiceError("fleet", "every fleet endpoint is drained");
}

FleetFactory make_fleet_backend_factory(std::vector<std::string> addresses,
                                        ConnectOptions options,
                                        FleetOptions fleet_options) {
  return [addresses = std::move(addresses), options = std::move(options),
          fleet_options](const ir::Program& program,
                         const machine::Architecture& arch,
                         const core::FuncyTunerOptions& cell_options)
             -> std::shared_ptr<FleetBackend> {
    ConnectOptions cell = options;
    cell.workspace.program = program.name();
    cell.workspace.arch = arch.name;
    cell.workspace.options = cell_options;
    return FleetBackend::connect(addresses, cell, fleet_options);
  };
}

std::vector<std::string> parse_address_list(const std::string& list) {
  std::vector<std::string> addresses;
  for (const std::string& field : support::split(list, ',')) {
    std::string address = support::trim(field);
    if (!address.empty()) addresses.push_back(std::move(address));
  }
  return addresses;
}

}  // namespace ft::service
