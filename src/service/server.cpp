#include "service/server.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "core/persistent_cache.hpp"
#include "machine/architecture.hpp"
#include "programs/benchmarks.hpp"
#include "support/thread_pool.hpp"

namespace ft::service {

namespace {

double now_seconds() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point start = clock::now();
  return std::chrono::duration<double>(clock::now() - start).count();
}

/// Wire name of a frame kind, for "unknown frame type 'x'" errors
/// about frames a client has no business sending to a server.
const char* frame_kind_name(FrameKind kind) {
  switch (kind) {
    case FrameKind::kHello: return "hello";
    case FrameKind::kWelcome: return "welcome";
    case FrameKind::kError: return "error";
    case FrameKind::kEvalBatch: return "eval_batch";
    case FrameKind::kResultBatch: return "result_batch";
    case FrameKind::kPing: return "ping";
    case FrameKind::kPong: return "pong";
    case FrameKind::kBye: return "bye";
  }
  return "unknown";
}

std::uint32_t payload_length_be(const std::string& inbox,
                                std::size_t pos) {
  return (static_cast<std::uint32_t>(
              static_cast<unsigned char>(inbox[pos]))
          << 24) |
         (static_cast<std::uint32_t>(
              static_cast<unsigned char>(inbox[pos + 1]))
          << 16) |
         (static_cast<std::uint32_t>(
              static_cast<unsigned char>(inbox[pos + 2]))
          << 8) |
         static_cast<std::uint32_t>(
             static_cast<unsigned char>(inbox[pos + 3]));
}

}  // namespace

Server::Server(ServerOptions options) : options_(std::move(options)) {
  // Canonicalize the served set to display names up front, so the
  // handshake match and the welcome advertisement are insensitive to
  // whether `--archs` used CLI keys ("broadwell") or display names
  // ("Intel Broadwell"). Throws for unknown names - a misconfigured
  // daemon should die at startup, not refuse every client.
  for (std::string& arch : options_.archs) {
    arch = machine::architecture_by_name(arch).name;
  }
  // The disk tier is built at startup (it throws on an unusable
  // directory - a misconfigured daemon should die here, not refuse
  // every client) and shared by every workspace.
  if (!options_.cache_dir.empty()) {
    disk_cache_ = std::make_shared<core::PersistentCache>(
        core::PersistentCache::Options{
            .dir = options_.cache_dir,
            .max_bytes = options_.cache_disk_bytes});
  }
  // binary carries the handshake: a daemon may offer the CRC trailer
  // on top, never drop the baseline.
  if (std::find(options_.framings.begin(), options_.framings.end(),
                Framing::kBinary) == options_.framings.end()) {
    options_.framings.insert(options_.framings.begin(), Framing::kBinary);
  }
}

Server::~Server() { stop(); }

void Server::start() {
  // Outbox flushes use MSG_NOSIGNAL, but a peer dying between the
  // poll and the send can still raise SIGPIPE on some paths; one
  // process-wide SIG_IGN turns every such race into a plain EPIPE.
  ignore_sigpipe();
  chaos_ = chaos::make_engine(options_.chaos);
  listener_ = Listener::bind(Address::parse(options_.listen));
  listener_.set_nonblocking();
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    listener_.close();
    throw ServiceError("bind", "cannot create event loop fds: " +
                                   std::string(std::strerror(errno)));
  }
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.fd = listener_.fd();
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_.fd(), &event);
  event.data.fd = wake_fd_;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &event);

  read_scratch_.resize(256 * 1024);
  stopping_.store(false, std::memory_order_release);
  draining_.store(false, std::memory_order_release);
  drain_initiated_ = false;
  drain_bye_sent_ = false;
  workers_shutdown_ = false;
  touch();
  running_.store(true, std::memory_order_release);

  // One worker per hardware thread, floored at 2 and capped at 16.
  const std::size_t worker_count = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 2, 16);
  workers_.reserve(worker_count);
  for (std::size_t i = 0; i < worker_count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  loop_thread_ = std::thread([this] { event_loop(); });
}

int Server::serve() {
  start();
  wait();
  return 0;
}

void Server::wait() {
  std::lock_guard teardown(teardown_mutex_);
  if (loop_thread_.joinable()) loop_thread_.join();
  {
    std::lock_guard lock(jobs_mutex_);
    workers_shutdown_ = true;
  }
  jobs_ready_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  listener_.close();
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
  {
    std::lock_guard lock(completions_mutex_);
    completions_.clear();
  }
  running_.store(false, std::memory_order_release);
}

void Server::stop() {
  stopping_.store(true, std::memory_order_release);
  wake_loop();
  wait();
}

void Server::request_drain() noexcept {
  // Called from signal handlers (ftuned's SIGTERM): an atomic store
  // plus an eventfd write, both async-signal-safe. Everything
  // stateful happens on the loop thread in drain_step().
  draining_.store(true, std::memory_order_release);
  wake_loop();
}

Server::Stats Server::stats() const {
  Stats out;
  out.sessions_accepted = stats_.sessions_accepted.load();
  out.frames_served = stats_.frames_served.load();
  out.evaluations = stats_.evaluations.load();
  out.batch_frames = stats_.batch_frames.load();
  out.cache_hits = stats_.cache_hits.load();
  out.errors_sent = stats_.errors_sent.load();
  out.overloads = stats_.overloads.load();
  out.drain_refusals = stats_.drain_refusals.load();
  out.deadline_refusals = stats_.deadline_refusals.load();
  out.cancelled_jobs = stats_.cancelled_jobs.load();
  out.loris_kills = stats_.loris_kills.load();
  out.evictions = stats_.evictions.load();
  return out;
}

void Server::touch() noexcept {
  last_activity_.store(now_seconds(), std::memory_order_release);
}

void Server::wake_loop() noexcept {
  if (wake_fd_ >= 0) {
    const std::uint64_t one = 1;
    (void)!::write(wake_fd_, &one, sizeof(one));
  }
}

// --- event loop (all session state is owned by this thread) ----------------

void Server::event_loop() {
  epoll_event events[64];
  while (!stopping_.load(std::memory_order_acquire)) {
    const int ready =
        ::epoll_wait(epoll_fd_, events, 64, /*timeout_ms=*/200);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (stopping_.load(std::memory_order_acquire)) break;
    for (int i = 0; i < ready; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t drained = 0;
        (void)!::read(wake_fd_, &drained, sizeof(drained));
        continue;
      }
      if (fd == listener_.fd()) {
        accept_ready();
        continue;
      }
      // Look sessions up by fd, never by stored pointer: an earlier
      // event in this same batch may have destroyed the session.
      const auto it = sessions_.find(fd);
      if (it == sessions_.end()) continue;
      SessionState* session = it->second.get();
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        destroy_session(session);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) {
        if (!session_readable(session)) continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) {
        (void)session_writable(session);
      }
    }
    apply_completions();
    const double now = now_seconds();
    sweep_stalled_sessions(now);
    if (draining_.load(std::memory_order_acquire)) {
      if (drain_step(now)) break;
      continue;  // the drain owns shutdown; skip the idle exit
    }
    if (options_.idle_timeout_seconds > 0 && sessions_.empty() &&
        inflight_.load(std::memory_order_acquire) == 0 &&
        now - last_activity_.load(std::memory_order_acquire) >
            options_.idle_timeout_seconds) {
      break;  // idle shutdown (never mid-batch: inflight work pins us)
    }
  }
  // Close every session before the workers are joined so any client
  // blocked on a reply observes a transport error, not a stall.
  {
    std::lock_guard lock(live_mutex_);
    live_sessions_.clear();
  }
  sessions_by_id_.clear();
  sessions_.clear();
}

bool Server::drain_step(double now) {
  if (!drain_initiated_) {
    drain_initiated_ = true;
    drain_deadline_ =
        now + std::max(0.0, options_.drain_grace_seconds);
    // Stop accepting first: closing the listener makes new dials fail
    // fast (connection refused), which is what reroutes a fleet.
    if (listener_.valid()) {
      (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listener_.fd(),
                        nullptr);
      listener_.close();
    }
  }
  // Quiescent = no admitted evaluations left AND no session has a job
  // in flight (covers hellos and queued-but-unstarted jobs: a queued
  // job's session is busy until its completion applies).
  bool quiescent = inflight_.load(std::memory_order_acquire) == 0;
  if (quiescent) {
    for (const auto& [fd, session] : sessions_) {
      if (session->busy) {
        quiescent = false;
        break;
      }
    }
  }
  if ((quiescent || now >= drain_deadline_) && !drain_bye_sent_) {
    drain_bye_sent_ = true;
    std::vector<int> fds;
    fds.reserve(sessions_.size());
    for (const auto& [fd, session] : sessions_) fds.push_back(fd);
    for (const int fd : fds) {
      const auto it = sessions_.find(fd);
      if (it == sessions_.end()) continue;
      SessionState* session = it->second.get();
      if (session->closing) continue;
      std::string bye;
      encode_bye_frame(session->framing, &bye);
      session->closing = true;
      session->inbox.clear();
      session->backlog.clear();
      if (!queue_reply(session, std::move(bye))) continue;
      if (session->outbox.empty()) {
        destroy_session(session);
      } else {
        update_interest(session);
      }
    }
  }
  if (drain_bye_sent_ && sessions_.empty()) return true;  // clean exit
  return now >= drain_deadline_;  // grace expired: force the exit
}

void Server::sweep_stalled_sessions(double now) {
  if (options_.read_progress_timeout_seconds <= 0 || sessions_.empty()) {
    return;
  }
  std::vector<int> victims;
  for (const auto& [fd, session] : sessions_) {
    if (session->busy || session->closing) continue;
    // Idle greeted sessions owe us nothing; only a connection holding
    // an unfinished obligation (no hello yet, or a partial frame
    // parked in its inbox) can loris us.
    if (session->greeted && session->inbox.empty()) continue;
    if (now - session->last_rx >
        options_.read_progress_timeout_seconds) {
      victims.push_back(fd);
    }
  }
  for (const int fd : victims) {
    const auto it = sessions_.find(fd);
    if (it == sessions_.end()) continue;
    stats_.loris_kills.fetch_add(1, std::memory_order_relaxed);
    destroy_session(it->second.get());
  }
}

bool Server::session_live(std::uint64_t id) {
  std::lock_guard lock(live_mutex_);
  return live_sessions_.count(id) != 0;
}

void Server::accept_ready() {
  for (;;) {
    Socket socket = listener_.accept_nonblocking();
    if (!socket.valid()) return;
    if (options_.max_sessions > 0 &&
        sessions_.size() >= options_.max_sessions) {
      // At the cap: evict the oldest-IDLE session (no job in flight,
      // nothing queued to send) in favor of the newcomer. When every
      // session is actively working, the newcomer is the one dropped -
      // active work is never sacrificed for an unknown peer.
      SessionState* oldest = nullptr;
      for (const auto& [fd, state] : sessions_) {
        if (state->busy || !state->outbox.empty()) continue;
        if (oldest == nullptr || state->last_rx < oldest->last_rx) {
          oldest = state.get();
        }
      }
      if (oldest == nullptr) continue;  // drop the new connection
      stats_.evictions.fetch_add(1, std::memory_order_relaxed);
      destroy_session(oldest);
    }
    socket.set_nonblocking();
    auto session = std::make_unique<SessionState>();
    session->id = next_session_id_++;
    session->socket = std::move(socket);
    session->interest = EPOLLIN;
    session->last_rx = now_seconds();
    const int fd = session->socket.fd();
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) != 0) {
      continue;  // drop the connection; nothing else to do
    }
    {
      std::lock_guard lock(live_mutex_);
      live_sessions_.insert(session->id);
    }
    sessions_by_id_.emplace(session->id, session.get());
    sessions_.emplace(fd, std::move(session));
    stats_.sessions_accepted.fetch_add(1, std::memory_order_relaxed);
    touch();
  }
}

bool Server::session_readable(SessionState* session) {
  for (;;) {
    const ssize_t got = ::recv(session->socket.fd(),
                               read_scratch_.data(),
                               read_scratch_.size(), 0);
    if (got > 0) {
      session->inbox.append(read_scratch_.data(),
                            static_cast<std::size_t>(got));
      session->last_rx = now_seconds();
      if (static_cast<std::size_t>(got) < read_scratch_.size()) break;
      continue;
    }
    if (got == 0) {  // peer hung up
      destroy_session(session);
      return false;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    destroy_session(session);
    return false;
  }
  return extract_frames(session);
}

bool Server::extract_frames(SessionState* session) {
  std::size_t pos = 0;
  while (!session->closing) {
    if (session->inbox.size() - pos < 4) break;
    const std::uint32_t length = payload_length_be(session->inbox, pos);
    if (length > options_.max_frame_bytes) {
      // The stream is unsynchronized past the declared length;
      // nothing to do but refuse and hang up (flush first).
      stats_.errors_sent.fetch_add(1, std::memory_order_relaxed);
      std::string reply;
      encode_error_frame(session->framing,
                         ErrorFrame{"oversized_frame",
                                    session->greeted
                                        ? "frame exceeds max_frame_bytes"
                                        : "hello frame exceeds the cap",
                                    0, false, true},
                         &reply);
      session->closing = true;
      session->inbox.clear();
      session->backlog.clear();
      pos = 0;
      if (!queue_reply(session, std::move(reply))) return false;
      break;
    }
    if (session->inbox.size() - pos < 4 + std::size_t{length}) break;
    std::string payload = session->inbox.substr(pos + 4, length);
    pos += 4 + std::size_t{length};
    touch();
    handle_frame(session, std::move(payload));
  }
  if (pos > 0) session->inbox.erase(0, pos);
  if (session->closing && session->outbox.empty()) {
    destroy_session(session);
    return false;
  }
  update_interest(session);
  return true;
}

void Server::handle_frame(SessionState* session, std::string payload) {
  if (session->busy) {
    // Strict request -> response ordering: one job in flight per
    // session, later frames wait their turn.
    session->backlog.push_back(std::move(payload));
    return;
  }
  dispatch_job(session, std::move(payload));
}

void Server::dispatch_job(SessionState* session, std::string payload) {
  session->busy = true;
  Job job;
  job.session_id = session->id;
  job.is_hello = !session->greeted;
  job.framing = session->framing;
  job.workspace = session->workspace;
  job.payload = std::move(payload);
  job.enqueued = now_seconds();
  {
    std::lock_guard lock(jobs_mutex_);
    jobs_.push_back(std::move(job));
  }
  jobs_ready_.notify_one();
}

void Server::apply_completions() {
  std::deque<Completion> batch;
  {
    std::lock_guard lock(completions_mutex_);
    batch.swap(completions_);
  }
  for (Completion& completion : batch) {
    const auto it = sessions_by_id_.find(completion.session_id);
    if (it == sessions_by_id_.end()) continue;  // peer already gone
    SessionState* session = it->second;
    session->busy = false;
    if (completion.greeted) {
      session->greeted = true;
      session->workspace = completion.workspace;
    }
    if (!completion.reply.empty() &&
        !queue_reply(session, std::move(completion.reply))) {
      continue;  // session destroyed on a dead socket
    }
    if (completion.greeted) {
      // The welcome itself went out as plain binary (the negotiation
      // carrier); everything after it speaks the negotiated framing.
      session->framing = completion.framing;
    }
    if (completion.close) {
      session->closing = true;
      session->inbox.clear();
      session->backlog.clear();
    }
    if (session->closing) {
      if (session->outbox.empty()) {
        destroy_session(session);
        continue;
      }
    } else if (!session->backlog.empty()) {
      std::string next = std::move(session->backlog.front());
      session->backlog.pop_front();
      dispatch_job(session, std::move(next));
    }
    update_interest(session);
    touch();
  }
}

bool Server::queue_reply(SessionState* session, std::string payload) {
  OutFrame frame;
  const std::uint32_t length =
      static_cast<std::uint32_t>(payload.size());
  frame.prefix[0] = static_cast<unsigned char>(length >> 24);
  frame.prefix[1] = static_cast<unsigned char>(length >> 16);
  frame.prefix[2] = static_cast<unsigned char>(length >> 8);
  frame.prefix[3] = static_cast<unsigned char>(length);
  frame.payload = std::move(payload);
  session->outbox.push_back(std::move(frame));
  // Optimistic flush: in the common case the kernel buffer swallows
  // the whole reply and no EPOLLOUT round-trip ever happens.
  if (!flush_outbox(session)) {
    destroy_session(session);
    return false;
  }
  update_interest(session);
  return true;
}

bool Server::flush_outbox(SessionState* session) {
  // Seeded fault injection on the server's write path: a torn flush
  // (tiny chunk cap, exercising client-side reassembly) or a
  // mid-frame reset (exercising client-side kTorn handling). Drawn
  // once per flush call so a capped flush still makes progress.
  std::size_t chunk_limit = static_cast<std::size_t>(-1);
  if (chaos_ != nullptr) {
    if (chaos_->should_reset_mid_frame() && !session->outbox.empty()) {
      session->socket.shutdown_both();
      return false;
    }
    chunk_limit = chaos_->torn_chunk_limit();
  }
  while (!session->outbox.empty()) {
    // Vectored write: up to 16 frames, each as prefix + payload
    // remainders - one syscall flushes a burst of replies.
    iovec iov[32];
    int iov_count = 0;
    for (const OutFrame& frame : session->outbox) {
      if (iov_count + 2 > 32) break;
      std::size_t offset = frame.offset;
      if (offset < 4) {
        iov[iov_count].iov_base =
            const_cast<unsigned char*>(frame.prefix) + offset;
        iov[iov_count].iov_len = 4 - offset;
        ++iov_count;
        offset = 0;
      } else {
        offset -= 4;
      }
      if (offset < frame.payload.size()) {
        iov[iov_count].iov_base =
            const_cast<char*>(frame.payload.data()) + offset;
        iov[iov_count].iov_len = frame.payload.size() - offset;
        ++iov_count;
      }
    }
    if (chunk_limit != static_cast<std::size_t>(-1)) {
      std::size_t budget = chunk_limit;
      for (int i = 0; i < iov_count; ++i) {
        iov[i].iov_len = std::min(iov[i].iov_len, budget);
        budget -= iov[i].iov_len;
      }
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(iov_count);
    const ssize_t sent = ::sendmsg(session->socket.fd(), &msg,
                                   MSG_NOSIGNAL | MSG_DONTWAIT);
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return true;  // kernel buffer full; EPOLLOUT will resume
      }
      return false;  // dead socket
    }
    std::size_t remaining = static_cast<std::size_t>(sent);
    while (remaining > 0 && !session->outbox.empty()) {
      OutFrame& front = session->outbox.front();
      const std::size_t total = 4 + front.payload.size();
      const std::size_t left = total - front.offset;
      if (remaining >= left) {
        remaining -= left;
        session->outbox.pop_front();
      } else {
        front.offset += remaining;
        remaining = 0;
      }
    }
    if (chunk_limit != static_cast<std::size_t>(-1)) {
      // A genuine short write: leave the remainder for EPOLLOUT so the
      // tear is visible on the wire instead of being resent inline.
      return true;
    }
  }
  return true;
}

bool Server::session_writable(SessionState* session) {
  if (!flush_outbox(session)) {
    destroy_session(session);
    return false;
  }
  if (session->closing && session->outbox.empty()) {
    destroy_session(session);
    return false;
  }
  update_interest(session);
  return true;
}

void Server::update_interest(SessionState* session) {
  std::uint32_t desired = 0;
  // Reading pauses while a job is in flight (and while closing): the
  // kernel's receive window, not our memory, buffers an overeager
  // client - per-session TCP backpressure.
  if (!session->busy && !session->closing) desired |= EPOLLIN;
  if (!session->outbox.empty()) desired |= EPOLLOUT;
  if (desired == session->interest) return;
  epoll_event event{};
  event.events = desired;
  event.data.fd = session->socket.fd();
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, session->socket.fd(),
                    &event);
  session->interest = desired;
}

void Server::destroy_session(SessionState* session) {
  const int fd = session->socket.fd();
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  {
    std::lock_guard lock(live_mutex_);
    live_sessions_.erase(session->id);
  }
  sessions_by_id_.erase(session->id);
  sessions_.erase(fd);  // closes the socket
  touch();  // idle countdown starts when the last session leaves
}

// --- worker pool -----------------------------------------------------------

void Server::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock lock(jobs_mutex_);
      jobs_ready_.wait(lock, [this] {
        return workers_shutdown_ || !jobs_.empty();
      });
      if (workers_shutdown_) return;
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    run_job(std::move(job));
  }
}

void Server::post(Completion completion) {
  {
    std::lock_guard lock(completions_mutex_);
    completions_.push_back(std::move(completion));
  }
  wake_loop();
}

Server::Completion Server::error_completion(std::uint64_t session_id,
                                            Framing framing,
                                            const ErrorFrame& error) {
  stats_.errors_sent.fetch_add(1, std::memory_order_relaxed);
  Completion completion;
  completion.session_id = session_id;
  completion.close = error.fatal;
  encode_error_frame(framing, error, &completion.reply);
  return completion;
}

Server::Completion Server::serve_hello(const Job& job) {
  const std::uint64_t sid = job.session_id;
  // The hello is ALWAYS plain binary: it carries the negotiation that
  // decides what everything after the welcome speaks.
  static thread_local AnyFrame frame;
  std::string error;
  const DecodeStatus status =
      decode_frame(Framing::kBinary, job.payload, &frame, &error);
  // The version leads the hello, so a skewed peer is told so even when
  // the rest of its hello does not parse. A protocol-1 peer sends JSON,
  // whose first byte is '{'.
  const bool json_hello = status == DecodeStatus::kUnknownType &&
                          job.payload.front() == '{';
  if (json_hello || (frame.kind == FrameKind::kHello &&
                     frame.hello.caps.protocol != kProtocolVersion)) {
    return error_completion(
        sid, Framing::kBinary,
        ErrorFrame{"unsupported_version",
                   "server speaks protocol version " +
                       std::to_string(kProtocolVersion) +
                       " (binary frames)",
                   0, false, true});
  }
  if (status == DecodeStatus::kUnparseable) {
    return error_completion(sid, Framing::kBinary,
                            ErrorFrame{"bad_frame", error, 0, false,
                                       true});
  }
  if (frame.kind != FrameKind::kHello ||
      status == DecodeStatus::kUnknownType) {
    return error_completion(sid, Framing::kBinary,
                            ErrorFrame{"bad_request",
                                       "expected a hello frame", 0,
                                       false, true});
  }
  if (status != DecodeStatus::kOk) {
    return error_completion(sid, Framing::kBinary,
                            ErrorFrame{"bad_request", error, 0, false,
                                       true});
  }
  const WorkspaceSpec& spec = frame.hello.workspace;
  try {
    (void)programs::by_name(spec.program);
  } catch (const std::exception& reason) {
    return error_completion(sid, Framing::kBinary,
                            ErrorFrame{"unknown_program", reason.what(),
                                       0, false, true});
  }
  try {
    (void)machine::architecture_by_name(spec.arch);
  } catch (const std::exception& reason) {
    return error_completion(sid, Framing::kBinary,
                            ErrorFrame{"unknown_architecture",
                                       reason.what(), 0, false, true});
  }
  const std::string arch_display =
      machine::architecture_by_name(spec.arch).name;
  if (!options_.archs.empty() &&
      std::find(options_.archs.begin(), options_.archs.end(),
                arch_display) == options_.archs.end()) {
    // Known arch, but this daemon was started without it (e.g. it
    // only has Broadwell measurement hosts behind it). Distinct from
    // unknown_architecture so a fleet can treat the endpoint as
    // ineligible for the cell rather than the hello as malformed.
    return error_completion(
        sid, Framing::kBinary,
        ErrorFrame{"unsupported_architecture",
                   "this daemon does not serve " + spec.arch, 0, false,
                   true});
  }

  Workspace* workspace = nullptr;
  try {
    workspace = workspace_for(spec);
  } catch (const std::exception& reason) {
    return error_completion(sid, Framing::kBinary,
                            ErrorFrame{"bad_request", reason.what(), 0,
                                       false, true});
  }
  WelcomeFrame welcome;
  welcome.session = sid;
  welcome.max_batch = options_.max_batch;
  welcome.framing =
      negotiate_framing(frame.hello.caps.framings, options_.framings);
  welcome.caps.protocol = kProtocolVersion;
  welcome.caps.framings = options_.framings;
  welcome.caps.max_frame_bytes = options_.max_frame_bytes;
  if (!options_.archs.empty()) {
    welcome.caps.archs = options_.archs;
  } else {
    for (const machine::Architecture& arch :
         machine::all_architectures()) {
      welcome.caps.archs.push_back(arch.name);
    }
  }
  Completion completion;
  completion.session_id = sid;
  completion.greeted = true;
  completion.framing = welcome.framing;
  completion.workspace = workspace;
  encode_welcome_frame(Framing::kBinary, welcome, &completion.reply);
  return completion;
}

void Server::run_job(Job job) {
  if (job.is_hello) {
    if (draining_.load(std::memory_order_acquire)) {
      // A greeting mid-drain gets a retryable refusal and a hangup:
      // the client should take its workspace to another daemon.
      stats_.drain_refusals.fetch_add(1, std::memory_order_relaxed);
      post(error_completion(
          job.session_id, Framing::kBinary,
          ErrorFrame{"draining", "daemon is draining for shutdown", 0,
                     true, true}));
      return;
    }
    post(serve_hello(job));
    return;
  }
  const std::uint64_t sid = job.session_id;
  const Framing framing = job.framing;
  // thread_local: a worker reuses its decode scratch across jobs, so
  // steady-state batches don't re-grow request vectors from scratch.
  static thread_local AnyFrame frame;
  std::string error;
  const DecodeStatus status =
      decode_frame(framing, job.payload, &frame, &error);
  if (status == DecodeStatus::kUnparseable) {
    // Length framing is still synchronized, so a garbage payload
    // costs only this frame - the session survives.
    post(error_completion(sid, framing,
                          ErrorFrame{"bad_frame", error, 0, false,
                                     false}));
    return;
  }
  if (status != DecodeStatus::kOk) {
    // kUnknownType keeps the decoder's "unknown frame type N" text.
    post(error_completion(sid, framing,
                          ErrorFrame{"bad_request", error, frame.seq,
                                     false, false}));
    return;
  }
  switch (frame.kind) {
    case FrameKind::kBye: {
      Completion completion;
      completion.session_id = sid;
      completion.close = true;
      post(std::move(completion));
      return;
    }
    case FrameKind::kPing: {
      Completion completion;
      completion.session_id = sid;
      encode_pong_frame(framing, frame.seq, &completion.reply);
      stats_.frames_served.fetch_add(1, std::memory_order_relaxed);
      post(std::move(completion));
      return;
    }
    case FrameKind::kEvalBatch:
      break;
    default:
      // A decodable frame only a server may send (welcome,
      // result_batch, pong, ...) or a second hello: a protocol
      // violation, but a recoverable one.
      post(error_completion(
          sid, framing,
          ErrorFrame{"bad_request",
                     std::string("unknown frame type '") +
                         frame_kind_name(frame.kind) + "'",
                     frame.seq, false, false}));
      return;
  }

  const std::uint64_t seq = frame.seq;
  const std::vector<core::EvalRequest>& requests = frame.requests;
  if (draining_.load(std::memory_order_acquire)) {
    // Inflight work finishes; NEW evaluations are refused retryably so
    // the client reroutes (a fleet to another endpoint, a lone client
    // to its local fallback) instead of waiting on a dying daemon.
    stats_.drain_refusals.fetch_add(1, std::memory_order_relaxed);
    post(error_completion(
        sid, framing,
        ErrorFrame{"draining", "daemon is draining for shutdown", seq,
                   true, false}));
    return;
  }
  if (options_.request_deadline_seconds > 0 &&
      now_seconds() - job.enqueued > options_.request_deadline_seconds) {
    // The job aged out in the worker queue: by the time we could start
    // it, the client has likely timed out and resent elsewhere -
    // refuse retryably instead of computing an answer nobody reads.
    stats_.deadline_refusals.fetch_add(1, std::memory_order_relaxed);
    post(error_completion(
        sid, framing,
        ErrorFrame{"deadline",
                   "request exceeded the server-side deadline before "
                   "a worker could start it",
                   seq, true, false}));
    return;
  }
  if (!session_live(sid)) {
    // The peer hung up while this frame waited its turn: its reply
    // would be dropped anyway, so skip the evaluation entirely.
    stats_.cancelled_jobs.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (chaos_ != nullptr && chaos_->should_refuse_overloaded()) {
    // Injected spurious backpressure: exercises client retry/backoff
    // paths without the daemon actually being saturated.
    stats_.overloads.fetch_add(1, std::memory_order_relaxed);
    post(error_completion(
        sid, framing,
        ErrorFrame{"overloaded", "injected chaos backpressure", seq,
                   true, false}));
    return;
  }
  if (requests.empty()) {
    post(error_completion(sid, framing,
                          ErrorFrame{"bad_request", "empty batch", seq,
                                     false, false}));
    return;
  }
  if (requests.size() > options_.max_batch) {
    post(error_completion(
        sid, framing,
        ErrorFrame{"bad_request",
                   "batch exceeds the advertised max_batch", seq, false,
                   false}));
    return;
  }
  // Admission control: refuse (retryably) instead of queueing without
  // bound.
  const std::size_t admitted = requests.size();
  const std::size_t before =
      inflight_.fetch_add(admitted, std::memory_order_acq_rel);
  if (before + admitted > options_.max_inflight) {
    inflight_.fetch_sub(admitted, std::memory_order_acq_rel);
    stats_.overloads.fetch_add(1, std::memory_order_relaxed);
    post(error_completion(
        sid, framing,
        ErrorFrame{"overloaded", "max_inflight evaluations reached",
                   seq, true, false}));
    return;
  }
  Completion completion;
  completion.session_id = sid;
  try {
    const std::vector<core::EvalResponse> responses =
        serve_requests(*job.workspace, requests);
    encode_result_batch_frame(framing, seq, responses, &completion.reply);
    stats_.frames_served.fetch_add(1, std::memory_order_relaxed);
    stats_.evaluations.fetch_add(admitted, std::memory_order_relaxed);
    stats_.batch_frames.fetch_add(1, std::memory_order_relaxed);
  } catch (const std::exception& reason) {
    completion = error_completion(sid, framing,
                                  ErrorFrame{"bad_request",
                                             reason.what(), seq, false,
                                             false});
  }
  inflight_.fetch_sub(admitted, std::memory_order_acq_rel);
  post(std::move(completion));
}

// --- evaluation ------------------------------------------------------------

Server::Workspace* Server::workspace_for(const WorkspaceSpec& spec) {
  const std::uint64_t key = workspace_fingerprint(spec);
  std::lock_guard lock(workspaces_mutex_);
  auto it = workspaces_.find(key);
  if (it != workspaces_.end()) return it->second.get();

  auto workspace = std::make_unique<Workspace>();
  // The daemon never caches through the Evaluator (that cache belongs
  // to the client's bookkeeping); its own raw-result cache is separate.
  workspace->tuner = make_workspace_tuner(spec);
  if (options_.cache_entries > 0 || disk_cache_ != nullptr) {
    workspace->cache = std::make_unique<core::EvalCache>(
        options_.cache_entries > 0 ? options_.cache_entries
                                   : core::EvalCache::kDefaultMaxEntries);
    if (disk_cache_ != nullptr) workspace->cache->attach_disk(disk_cache_);
  }
  workspace->salt = key;
  Workspace* raw = workspace.get();
  workspaces_.emplace(key, std::move(workspace));
  return raw;
}

core::EvalResponse Server::serve_one(Workspace& workspace,
                                     const core::EvalRequest& request) {
  core::Evaluator& evaluator = workspace.tuner->evaluator();
  core::EvalResponse response;
  core::EvalCache::Key key;
  if (workspace.cache) {
    key.assignment = evaluator.assignment_key(request.assignment);
    key.rep_base = request.rep_base;
    // EvalCache::Key carries no aggregate/noise fields; fold them into
    // the per-workspace salt so requests differing only there can
    // never alias.
    key.salt = workspace.salt ^
               ((static_cast<std::uint64_t>(request.aggregate) * 2 +
                 (request.noise ? 1 : 0) + 1) *
                0x9e3779b97f4a7c15ull);
    key.repetitions = request.repetitions;
    key.instrumented = request.instrumented;
    core::EvalOutcome outcome;
    if (workspace.cache->lookup(key, &outcome)) {
      response.outcome = std::move(outcome);
      response.served_by = core::EvalServedBy::kCacheHit;
      response.modules_compiled = 0;
      stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
      return response;
    }
  }
  const core::EvalBackend::RawResult raw =
      evaluator.raw_run(request.assignment, request.run_options());
  response.outcome.result = raw.result;
  response.outcome.attempts = 1;
  response.served_by = core::EvalServedBy::kRun;
  response.modules_compiled = raw.modules_compiled;
  if (workspace.cache) {
    workspace.cache->insert(key, response.outcome, /*rerun_seconds=*/0.0);
  }
  return response;
}

std::vector<core::EvalResponse> Server::serve_requests(
    Workspace& workspace,
    const std::vector<core::EvalRequest>& requests) {
  std::vector<core::EvalResponse> responses(requests.size());
  // One task-group submission for the whole frame: this is the
  // "batched worker shards" half of the coalescing bargain (the client
  // coalesced N evaluations into one frame; the server fans them back
  // out across the shared pool). A frame of one runs inline.
  support::parallel_for(requests.size(), [&](std::size_t i) {
    responses[i] = serve_one(workspace, requests[i]);
  });
  return responses;
}

}  // namespace ft::service
