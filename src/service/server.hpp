// The ftuned evaluation daemon: an epoll event loop + small worker
// pool. ONE loop thread owns every socket (non-blocking accept and
// session fds, level-triggered epoll), runs per-session state
// machines over reusable read/write buffers, and writes replies as
// vectored sends (length prefix + payload in one sendmsg). Eval
// batches - the expensive part - execute on a worker pool OFF the
// loop thread; finished work posts back through a completion queue
// and an eventfd wakeup. Compared to the old thread-per-connection
// design this removes a thread (and its stack, wakeups and context
// switches) per client, and lets hundreds of mostly-idle sessions
// cost nothing.
//
// Per-session ordering: the wire is strictly request -> response, so
// a session has at most one job in flight ("busy"); frames arriving
// meanwhile queue in its backlog, and its EPOLLIN interest is dropped
// while busy so the kernel's receive window - not our memory -
// absorbs an overeager client.
//
// Division of labor (the bit-identity invariant): the daemon executes
// *raw* measurements only - compile + link + run on a workspace whose
// engine is constructed exactly like a local FuncyTuner's (same seed,
// noise model, attribution sigma and fault config, so engine-side
// outlier spikes reproduce too). All tuning-state bookkeeping (fault
// injection decisions, retries, quarantine, checkpoint journal, the
// client's EvalCache) stays in the *client's* Evaluator. Because the
// measurement stack is deterministic per (content, noise key), the
// daemon's answers are bit-identical to what the client's own engine
// would have produced - with or without the CRC trailer.
//
// Workspaces are keyed by (program, arch, personality, measurement
// options), so any number of clients tuning the same cell share one
// ExecutionEngine (and its compiled-module cache) and one optional
// daemon-side result cache. A batch frame becomes ONE task-group
// submission over the shared pool (request batching), results return
// in request order. Backpressure: when admitted-but-unfinished
// requests would exceed max_inflight, the frame is refused with a
// retryable "overloaded" error instead of queueing unboundedly.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/eval_cache.hpp"
#include "core/funcy_tuner.hpp"
#include "service/chaos.hpp"
#include "service/framing.hpp"
#include "service/protocol.hpp"
#include "service/socket.hpp"

namespace ft::service {

struct ServerOptions {
  std::string listen = "unix:/tmp/ftuned.sock";
  /// Exit serve() after this many seconds with no connected sessions
  /// and no frame activity; 0 = run until stop().
  double idle_timeout_seconds = 0.0;
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Admitted-but-unfinished evaluation requests across all sessions;
  /// a frame that would exceed it is refused with "overloaded".
  std::size_t max_inflight = 4096;
  /// Requests accepted per eval_batch frame (advertised in welcome).
  std::size_t max_batch = 1024;
  /// Daemon-side raw-result cache entries per workspace; 0 disables.
  /// Purely a cost optimization: replayed results are bit-identical
  /// (the reason an EvalCache may memoize at all).
  std::size_t cache_entries = 0;
  /// Directory for the persistent disk cache tier shared with other
  /// ftuned/ftune processes (core/persistent_cache.hpp). Non-empty
  /// implies a memory tier per workspace even when cache_entries is 0.
  std::string cache_dir;
  /// Size budget for cache_dir in bytes; 0 = PersistentCache default.
  std::size_t cache_disk_bytes = 0;
  /// Architectures this daemon serves (empty = all known). A hello for
  /// an unserved arch is refused with the fatal code
  /// "unsupported_architecture"; the served set is advertised in the
  /// welcome frame so heterogeneous fleets can pin campaign cells.
  std::vector<std::string> archs;
  /// Framings this daemon accepts in negotiation. binary is forced into
  /// the set (it carries the handshake); listing only {kBinary} makes
  /// a daemon without the CRC trailer, which is how mixed fleets
  /// exercise per-endpoint downgrade.
  std::vector<Framing> framings = {Framing::kBinary, Framing::kBinaryCrc};
  /// Worker threads executing eval batches off the event loop;
  /// 0 = one per hardware thread (capped at 16, floored at 2).
  std::size_t workers = 0;
  /// SIGTERM drain: after request_drain(), inflight work gets this
  /// long to finish before the daemon force-exits. New eval frames are
  /// refused with retryable "draining" the whole time.
  double drain_grace_seconds = 10.0;
  /// A job that waited in the worker queue longer than this is refused
  /// with retryable "deadline" instead of computing a result the
  /// client has likely stopped waiting for. <= 0 disables.
  double request_deadline_seconds = 0.0;
  /// Slow-loris defense: a connection that owes us bytes (never said
  /// hello, or has a partial frame parked in its inbox) and makes no
  /// read progress for this long is destroyed. Idle GREETED sessions
  /// with no partial frame are legal and never reaped. <= 0 disables.
  double read_progress_timeout_seconds = 30.0;
  /// Connection cap; at the cap a new connection evicts the
  /// oldest-idle session (not busy, nothing queued), or is dropped
  /// when every session is active. 0 = unlimited.
  std::size_t max_sessions = 0;
  /// Server-side fault injection (--chaos-seed / FT_CHAOS_SEED):
  /// torn/reset writes in the outbox flush, spurious retryable
  /// "overloaded" refusals. Disabled unless the seed is nonzero.
  chaos::ChaosConfig chaos = chaos::config_from_env();
};

class Server {
 public:
  struct Stats {
    std::size_t sessions_accepted = 0;
    std::size_t frames_served = 0;
    std::size_t evaluations = 0;
    std::size_t batch_frames = 0;
    std::size_t cache_hits = 0;
    std::size_t errors_sent = 0;
    std::size_t overloads = 0;
    std::size_t drain_refusals = 0;   ///< frames refused while draining
    std::size_t deadline_refusals = 0;  ///< request_deadline expiries
    std::size_t cancelled_jobs = 0;  ///< dead-session work skipped
    std::size_t loris_kills = 0;     ///< read-progress timeouts
    std::size_t evictions = 0;       ///< oldest-idle cap evictions
  };

  explicit Server(ServerOptions options = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listener and starts the event loop + worker pool.
  /// Throws ServiceError on bind failure.
  void start();
  /// start() + block until idle timeout or stop(). Returns 0.
  int serve();
  /// Asynchronously shuts down: wakes the loop, closes every session
  /// and the listener, joins all threads. Idempotent.
  void stop();
  /// Blocks until the event loop exits (idle timeout or stop()), then
  /// tears down the worker pool.
  void wait();
  /// SIGTERM graceful drain, async-signal-safe (an atomic store plus
  /// an eventfd write): stop accepting, let inflight work finish
  /// (bounded by drain_grace_seconds), refuse new eval frames with
  /// retryable "draining", then bye every session and exit the loop.
  /// Pair with wait() to block until the drain completes.
  void request_drain() noexcept;
  [[nodiscard]] bool draining() const noexcept {
    return draining_.load(std::memory_order_acquire);
  }

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  /// Actual bound address (tcp port 0 resolves to the ephemeral port).
  [[nodiscard]] const Address& address() const noexcept {
    return listener_.address();
  }
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const ServerOptions& options() const noexcept {
    return options_;
  }

 private:
  /// One (program, arch, personality, measurement options) evaluation
  /// context, shared by every session that greets with the same key.
  /// Workspaces are never destroyed while the server runs, so worker
  /// jobs may hold raw pointers across a session's death.
  struct Workspace {
    std::unique_ptr<core::FuncyTuner> tuner;
    std::unique_ptr<core::EvalCache> cache;  ///< optional (cache_entries)
    /// Folded into cache keys: EvalCache::Key has no aggregate/noise
    /// fields, so those request bits must live in the salt.
    std::uint64_t salt = 0;
  };

  /// One queued reply: 4-byte big-endian length prefix + payload,
  /// written as a two-entry iovec. `offset` tracks partial sends
  /// across the concatenation.
  struct OutFrame {
    unsigned char prefix[4];
    std::string payload;
    std::size_t offset = 0;
  };

  /// Per-connection state machine, owned by the loop thread.
  struct SessionState {
    std::uint64_t id = 0;
    Socket socket;
    Framing framing = Framing::kBinary;
    Workspace* workspace = nullptr;
    bool greeted = false;
    bool busy = false;     ///< one worker job in flight (ordering)
    bool closing = false;  ///< flush outbox, then close
    double last_rx = 0.0;  ///< last byte received (read-progress clock)
    std::string inbox;     ///< raw received bytes, frames extracted
    std::deque<std::string> backlog;  ///< frames parked while busy
    std::deque<OutFrame> outbox;
    std::uint32_t interest = 0;  ///< current epoll event mask
  };

  /// Work shipped to the pool. Holds no session pointer: the session
  /// may die (peer hangup) while the job runs, so workers reference it
  /// only by id and the loop drops completions for dead sessions.
  struct Job {
    std::uint64_t session_id = 0;
    bool is_hello = false;
    Framing framing = Framing::kBinary;
    Workspace* workspace = nullptr;
    std::string payload;
    double enqueued = 0.0;  ///< queue-entry time (request deadline)
  };

  /// A worker's answer, applied on the loop thread.
  struct Completion {
    std::uint64_t session_id = 0;
    std::string reply;  ///< empty = nothing to send (bye)
    bool close = false;
    /// Handshake results (is_hello jobs only):
    bool greeted = false;
    Framing framing = Framing::kBinary;
    Workspace* workspace = nullptr;
  };

  struct AtomicStats {
    std::atomic<std::size_t> sessions_accepted{0};
    std::atomic<std::size_t> frames_served{0};
    std::atomic<std::size_t> evaluations{0};
    std::atomic<std::size_t> batch_frames{0};
    std::atomic<std::size_t> cache_hits{0};
    std::atomic<std::size_t> errors_sent{0};
    std::atomic<std::size_t> overloads{0};
    std::atomic<std::size_t> drain_refusals{0};
    std::atomic<std::size_t> deadline_refusals{0};
    std::atomic<std::size_t> cancelled_jobs{0};
    std::atomic<std::size_t> loris_kills{0};
    std::atomic<std::size_t> evictions{0};
  };

  // --- loop thread ---------------------------------------------------------
  void event_loop();
  void accept_ready();
  /// The bool-returning handlers report "session still alive": false
  /// means the session was destroyed and its pointer is dead.
  bool session_readable(SessionState* session);
  bool session_writable(SessionState* session);
  /// Pulls complete frames out of the inbox and dispatches/backlogs.
  bool extract_frames(SessionState* session);
  void handle_frame(SessionState* session, std::string payload);
  void dispatch_job(SessionState* session, std::string payload);
  void apply_completions();
  /// Queues one reply and flushes as much of the outbox as the socket
  /// accepts right now (EPOLLOUT only when the kernel buffer fills).
  bool queue_reply(SessionState* session, std::string payload);
  /// sendmsg the outbox; false on a dead socket.
  bool flush_outbox(SessionState* session);
  void update_interest(SessionState* session);
  void destroy_session(SessionState* session);
  void wake_loop() noexcept;
  /// One drain-state step per loop tick (see request_drain); true
  /// means "exit the loop now".
  bool drain_step(double now);
  /// Destroys connections that owe bytes but made no read progress
  /// within read_progress_timeout_seconds (slow-loris defense).
  void sweep_stalled_sessions(double now);
  /// True while `id` still has a live connection; workers check before
  /// starting (and thus never burn a batch for) a dead session.
  [[nodiscard]] bool session_live(std::uint64_t id);

  // --- worker pool ---------------------------------------------------------
  void worker_loop();
  void run_job(Job job);
  void post(Completion completion);
  /// Encodes an error reply under `framing` into a completion.
  Completion error_completion(std::uint64_t session_id, Framing framing,
                              const ErrorFrame& error);
  Completion serve_hello(const Job& job);

  /// Serves one eval/eval_batch frame worth of requests as a single
  /// parallel submission; results are in request order.
  [[nodiscard]] std::vector<core::EvalResponse> serve_requests(
      Workspace& workspace,
      const std::vector<core::EvalRequest>& requests);
  [[nodiscard]] core::EvalResponse serve_one(
      Workspace& workspace, const core::EvalRequest& request);
  Workspace* workspace_for(const HelloFrame& hello);
  void touch() noexcept;

  ServerOptions options_;
  Listener listener_;
  std::thread loop_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  // Drain progress, owned by the loop thread:
  bool drain_initiated_ = false;
  bool drain_bye_sent_ = false;
  double drain_deadline_ = 0.0;
  std::shared_ptr<chaos::ChaosEngine> chaos_;  ///< null when disabled
  std::mutex teardown_mutex_;  ///< makes stop()/wait() idempotent

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: completions + stop() wake the loop
  std::unordered_map<int, std::unique_ptr<SessionState>> sessions_;
  std::unordered_map<std::uint64_t, SessionState*> sessions_by_id_;
  std::uint64_t next_session_id_ = 1;
  std::vector<char> read_scratch_;  ///< shared recv buffer (loop only)

  std::vector<std::thread> workers_;
  std::mutex jobs_mutex_;
  std::condition_variable jobs_ready_;
  std::deque<Job> jobs_;
  bool workers_shutdown_ = false;

  std::mutex completions_mutex_;
  std::deque<Completion> completions_;

  /// Session ids with a live connection; the loop thread maintains it,
  /// workers read it to skip evaluation work for dead sessions.
  std::mutex live_mutex_;
  std::unordered_set<std::uint64_t> live_sessions_;

  std::mutex workspaces_mutex_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Workspace>>
      workspaces_;
  /// One disk tier for every workspace (options_.cache_dir): workspace
  /// salts keep their entries disjoint inside the shared directory.
  std::shared_ptr<core::PersistentCache> disk_cache_;

  std::atomic<std::size_t> inflight_{0};
  /// Monotonic activity clock for the idle timeout (seconds).
  std::atomic<double> last_activity_{0.0};

  AtomicStats stats_;
};

}  // namespace ft::service
