#include "service/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <iostream>
#include <limits>
#include <mutex>

#include "core/checkpoint.hpp"
#include "support/rng.hpp"

namespace ft::service {

namespace {

/// Virtual nodes per endpoint on the hash ring. Enough to spread
/// workspace homes evenly over a handful of daemons; the exact count
/// only shifts WHERE work lands, never what it computes.
constexpr int kRingReplicas = 17;

double monotonic_seconds() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point start = clock::now();
  return std::chrono::duration<double>(clock::now() - start).count();
}

std::uint64_t workspace_hash(const std::string& program,
                             const std::string& arch,
                             const core::FuncyTunerOptions& options,
                             compiler::Personality personality) {
  std::string key = program;
  key += '|';
  key += arch;
  key += '|';
  key += personality == compiler::Personality::kGcc ? "gcc" : "icc";
  key += '|';
  key += std::to_string(core::options_fingerprint(options));
  return support::fnv1a64(key);
}

}  // namespace

std::unique_ptr<FleetBackend> FleetBackend::connect(
    const std::vector<std::string>& addresses, const std::string& program,
    const std::string& arch, const core::FuncyTunerOptions& options,
    compiler::Personality personality, const FleetOptions& fleet_options) {
  auto fleet = std::unique_ptr<FleetBackend>(new FleetBackend());
  fleet->options_ = fleet_options;
  fleet->connect_options_.workspace =
      WorkspaceSpec{program, arch, personality, options};
  fleet->connect_options_.framings = fleet_options.framings;
  fleet->connect_options_.transport = fleet_options.client;

  for (const std::string& address : addresses) {
    try {
      auto endpoint = std::make_unique<Endpoint>();
      endpoint->address = address;
      // FleetBackend::Endpoint shadows the transport-level Endpoint.
      endpoint->dial = ::ft::service::Endpoint::parse(address);
      endpoint->jitter_state = fleet_options.client.jitter_seed ^
                               support::fnv1a64(address);
      endpoint->client =
          Client::connect(endpoint->dial, fleet->connect_options_);
      fleet->endpoints_.push_back(std::move(endpoint));
    } catch (const ServiceError& refusal) {
      const std::string code = refusal.code();
      if (code == "unsupported_architecture" ||
          code == "unknown_architecture") {
        // The heterogeneous-fleet filter: this daemon does not serve
        // the workspace's arch, so it simply is not part of THIS
        // backend. Other cells may still use it.
        continue;
      }
      if (is_transport_code(code)) {
        // Down right now; the fleet exists to survive exactly this.
        std::cerr << "ftune: fleet endpoint " << address
                  << " unavailable: " << refusal.what() << '\n';
        continue;
      }
      throw;  // bad options / version skew: every endpoint would refuse
    }
  }
  if (fleet->endpoints_.empty()) {
    throw ServiceError("fleet", "no usable fleet endpoint for " + program +
                                    " on " + arch);
  }

  for (std::size_t i = 0; i < fleet->endpoints_.size(); ++i) {
    for (int replica = 0; replica < kRingReplicas; ++replica) {
      const std::string node = fleet->endpoints_[i]->address + '#' +
                               std::to_string(replica);
      fleet->ring_.emplace_back(support::fnv1a64(node), i);
    }
  }
  std::sort(fleet->ring_.begin(), fleet->ring_.end());
  fleet->home_ = fleet->ring_successor(
      workspace_hash(program, arch, options, personality));

  // The probe thread runs even for a single endpoint: it is also the
  // breaker's half-open reconnect path, and a lone daemon that
  // restarts deserves to be re-adopted just as much as a fleet member.
  if (fleet_options.probe_interval_seconds > 0) {
    fleet->probe_thread_ = std::thread([raw = fleet.get()] {
      raw->probe_loop();
    });
  }
  return fleet;
}

FleetBackend::~FleetBackend() {
  stopping_.store(true, std::memory_order_release);
  if (probe_thread_.joinable()) probe_thread_.join();
}

std::size_t FleetBackend::ring_successor(std::uint64_t key_hash) const {
  const auto it = std::upper_bound(
      ring_.begin(), ring_.end(),
      std::make_pair(key_hash, std::numeric_limits<std::size_t>::max()));
  return it == ring_.end() ? ring_.front().second : it->second;
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
  return endpoints_[home_]->address;
}

FleetBackend::Stats FleetBackend::stats() const {
  std::lock_guard lock(stats_mutex_);
  return stats_;
}

std::shared_ptr<Client> FleetBackend::client_for(std::size_t index) {
  Endpoint& endpoint = *endpoints_[index];
  std::lock_guard lock(endpoint.wire_mutex);
  return endpoint.client;
}

void FleetBackend::drain(std::size_t index) {
  Endpoint& endpoint = *endpoints_[index];
  if (!endpoint.alive.exchange(false, std::memory_order_acq_rel)) return;
  // Wake any thread blocked on this endpoint's wire right now.
  const std::shared_ptr<Client> client = client_for(index);
  if (client) client->abort();
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
        client_for(i)->ping();
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
        endpoint.client = std::move(fresh);
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
  auto next = std::chrono::steady_clock::now() + interval;
  while (!stopping_.load(std::memory_order_acquire)) {
    // Sleep in small slices so destruction never waits a full period.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    if (std::chrono::steady_clock::now() < next) continue;
    next = std::chrono::steady_clock::now() + interval;
    probe_pass();
  }
}

std::vector<core::EvalBackend::RawResult> FleetBackend::run_many(
    std::span<const core::EvalRequest> requests) {
  {
    std::lock_guard lock(stats_mutex_);
    ++stats_.batches_dispatched;
  }
  if (requests.empty()) return {};

  // One chunk = one wire frame anywhere in the fleet, so chunks may
  // never exceed the SMALLEST advertised max_batch: any endpoint can
  // then take any chunk, which is what makes stealing and re-dispatch
  // free. Below that cap, split the batch several times finer than
  // the fleet is wide - enough granularity for stealing to spread the
  // load, coarse enough that framing overhead stays negligible.
  std::size_t chunk_limit = requests.size();
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    const std::shared_ptr<Client> client = client_for(i);
    const std::size_t advertised = client ? client->max_batch() : 0;
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
  std::vector<core::EvalResponse> responses(requests.size());

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
        // endpoint's client, but THIS call finishes on the session it
        // started with.
        const std::shared_ptr<Client> wire = client_for(self);
        std::vector<core::EvalResponse> replies = wire->call_many(
            requests.subspan(chunk.begin, chunk.count));
        endpoint.inflight.fetch_sub(1, std::memory_order_acq_rel);
        note_success(self);
        std::lock_guard lock(mutex);
        for (std::size_t i = 0; i < replies.size(); ++i) {
          responses[chunk.begin + i] = std::move(replies[i]);
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
        // here moves to the next alive endpoint in ring order.
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
          if (++chunks[orphan].dispatches >
              options_.max_chunk_redispatch) {
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

  std::vector<RawResult> results;
  results.reserve(responses.size());
  for (const core::EvalResponse& response : responses) {
    if (!response.ok()) {
      throw ServiceError("remote_fault",
                         "daemon-side raw run failed: " +
                             response.outcome.error.detail);
    }
    results.push_back(
        RawResult{response.outcome.result, response.modules_compiled});
  }
  return results;
}

core::EvalBackend::RawResult FleetBackend::run(
    const compiler::ModuleAssignment& assignment,
    const machine::RunOptions& options) {
  core::EvalRequest request;
  request.assignment = assignment;
  request.rep_base = options.rep_base;
  request.repetitions = options.repetitions;
  request.instrumented = options.instrumented;
  request.noise = options.noise;
  request.aggregate = options.aggregate;

  // Home-first failover: walk the endpoints in ring order until one
  // answers. Any of them produces the identical bits.
  int index = next_alive(home_);
  for (std::size_t attempt = 0;
       index >= 0 && attempt < endpoints_.size(); ++attempt) {
    const std::size_t self = static_cast<std::size_t>(index);
    Endpoint& endpoint = *endpoints_[self];
    endpoint.inflight.fetch_add(1, std::memory_order_acq_rel);
    try {
      const std::shared_ptr<Client> wire = client_for(self);
      const core::EvalResponse response = wire->call(request);
      endpoint.inflight.fetch_sub(1, std::memory_order_acq_rel);
      note_success(self);
      if (!response.ok()) {
        throw ServiceError("remote_fault",
                           "daemon-side raw run failed: " +
                               response.outcome.error.detail);
      }
      return RawResult{response.outcome.result, response.modules_compiled};
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

std::function<std::shared_ptr<core::EvalBackend>(
    const ir::Program&, const machine::Architecture&,
    const core::FuncyTunerOptions&)>
make_fleet_backend_factory(std::vector<std::string> addresses,
                           FleetOptions options,
                           compiler::Personality personality) {
  return [addresses = std::move(addresses), options, personality](
             const ir::Program& program,
             const machine::Architecture& arch,
             const core::FuncyTunerOptions& cell_options)
             -> std::shared_ptr<core::EvalBackend> {
    return FleetBackend::connect(addresses, program.name(), arch.name,
                                 cell_options, personality, options);
  };
}

}  // namespace ft::service
