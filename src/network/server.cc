#include "network/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <set>
#include <utility>

#include "network/protocol.h"
#include "network/socket.h"
#include "shell/statement.h"

namespace qf {

namespace {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Replay-cache accounting charge per entry on top of the body bytes
// (map node, order entry, frame header).
constexpr std::size_t kCacheEntryOverhead = 64;

}  // namespace

// One client *session*: its private shell, its slice of the admission
// queue, its replay cache, and — while attached — its socket. The reader
// and one executor at a time touch the shell (statements of a session
// are strictly serialized by the `scheduled` flag); the write mutex
// serializes the socket between the reader's inline replies and the
// executor's results, and guards `fd` itself, which changes hands on
// resume (old connection -> -1 -> new connection). The fd is owned by
// whichever reader it is attached to: that reader closes it on exit
// after publishing fd = -1, so an executor finishing later skips the
// write instead of hitting a recycled descriptor.
struct Server::Session {
  std::uint64_t id = 0;
  SocketOps* ops = nullptr;
  // Tripped on teardown (v1 disconnect, BYE, reap, shutdown); every
  // governed statement of this session polls it via the shell's cancel
  // flag and aborts with CANCELLED. A detached v2 session keeps it
  // clear: its in-flight statements run to completion so their
  // WAL-committed effects match the replies the replay cache retains.
  std::atomic<bool> gone{false};
  Shell shell;

  // --- guarded by write_mu ---
  std::mutex write_mu;
  int fd = -1;

  // --- guarded by Server::mu_ ---
  std::uint32_t version = 1;    // negotiated protocol version
  std::uint64_t token = 0;      // resume token (v2; zero for v1)
  bool detached = false;        // v2 connection lost, awaiting RESUME
  std::chrono::steady_clock::time_point detach_time{};
  struct Pending {
    std::uint64_t request_id;
    std::string statement;
  };
  std::deque<Pending> pending;
  bool scheduled = false;  // queued in ready_ or currently executing
  // Exactly-once bookkeeping (v2): ids admitted but not yet answered,
  // and the bounded FIFO cache of already-sent replies. A replayed id is
  // always in exactly one of the two (the executor caches the reply
  // *before* sending it), so it is answered from the cache or
  // deduplicated — never re-executed.
  std::set<std::uint64_t> inflight;
  std::map<std::uint64_t, Frame> cache;
  std::deque<std::uint64_t> cache_order;
  std::size_t cache_bytes = 0;
  std::uint64_t received = 0;
  std::uint64_t executed = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;
  std::uint64_t resumes = 0;
  std::uint64_t replay_hits = 0;
  std::uint64_t exec_ns = 0;
  std::uint64_t output_bytes = 0;
  // Out-of-core counters, snapshotted from the shell by the executor
  // after each statement (the shell itself is only safe to touch while
  // the session is scheduled; STATS renders these copies instead).
  std::uint64_t spill_activations = 0;
  std::uint64_t spilled_rows = 0;
  std::uint64_t spill_bytes = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t pool_evictions = 0;
  // Learned-optimizer counters, same snapshot discipline: whether the
  // session runs in learned mode, and the shape of its outcome history.
  bool learned_optimizer = false;
  std::uint64_t learned_contexts = 0;
  std::uint64_t learned_plays = 0;

  // Covers sessions that never got a reader (accept rejection) or
  // whose server shut down before the reader released the fd.
  ~Session() {
    if (fd >= 0) CloseFd(fd);
  }

  // Serialized frame write. Returns false when the session is detached
  // (no connection to write to) or the write failed; callers that only
  // care about liveness probing (heartbeats) use the result, reply
  // paths ignore it — a lost reply is replayed from the cache later.
  bool Write(const Frame& frame) {
    std::lock_guard<std::mutex> lock(write_mu);
    if (fd < 0) return false;
    return WriteFrame(fd, frame, ops).ok();
  }
  void WriteError(std::uint64_t request_id, const Status& status) {
    Write(Frame{FrameType::kError, request_id, EncodeErrorBody(status)});
  }
};

Server::Server(ServerOptions options) : options_(std::move(options)) {
  if (options_.executors == 0) options_.executors = 1;
  std::random_device rd;
  token_rng_.seed((static_cast<std::uint64_t>(rd()) << 32) ^ rd() ^
                  static_cast<std::uint64_t>(NowNs()));
}

Result<std::unique_ptr<Server>> Server::Start(ServerOptions options) {
  std::unique_ptr<Server> server(new Server(std::move(options)));
  Result<int> listen_fd =
      TcpListen(server->options_.host, server->options_.port, /*backlog=*/128);
  if (!listen_fd.ok()) return listen_fd.status();
  server->listen_fd_ = *listen_fd;
  Result<std::uint16_t> port = LocalPort(server->listen_fd_);
  if (!port.ok()) {
    CloseFd(server->listen_fd_);
    return port.status();
  }
  server->port_ = *port;
  if (::pipe(server->wake_pipe_) != 0) {
    CloseFd(server->listen_fd_);
    return IoError("pipe: cannot create shutdown wake pipe");
  }
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  for (unsigned i = 0; i < server->options_.executors; ++i) {
    server->executor_threads_.emplace_back(
        [s = server.get()] { s->ExecutorLoop(); });
  }
  if (server->options_.resume_timeout_ms > 0) {
    server->reaper_thread_ = std::thread([s = server.get()] { s->ReaperLoop(); });
  }
  return server;
}

Server::~Server() {
  Shutdown();
  CloseFd(wake_pipe_[0]);
  CloseFd(wake_pipe_[1]);
}

void Server::AcceptLoop() {
  while (WaitReadable(listen_fd_, wake_pipe_[0])) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listening socket is gone
    }
    if (options_.idle_timeout_ms > 0) {
      // Bound mid-frame stalls too: a frame whose length prefix was
      // corrupted upward leaves the reader waiting for bytes that will
      // never come — a distributed deadlock no poll-before-read can
      // see. With kernel timeouts armed, that read fails mid-frame
      // (poisoned stream), the session detaches, and the client's
      // resume + replay make the wedge invisible.
      SetSocketTimeouts(fd, options_.idle_timeout_ms);
    }
    auto session = std::make_shared<Session>();
    session->fd = fd;
    session->ops =
        options_.socket_ops != nullptr ? options_.socket_ops : DefaultSocketOps();
    session->shell.SeedDatabase(options_.base_db);
    if (options_.session_vfs != nullptr) {
      session->shell.set_vfs(options_.session_vfs);
    }
    session->shell.set_cancel_flag(&session->gone);

    bool reject = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (draining_ || sessions_.size() >= options_.max_sessions) {
        ++stats_.sessions_shed;
        reject = true;
      } else {
        session->id = next_session_id_++;
        sessions_[session->id] = session;
        ++stats_.sessions_opened;
        reader_threads_.emplace_back(
            [this, session] { ReaderLoop(session); });
      }
    }
    if (reject) {
      // The session was never registered; answer the handshake the
      // client is about to send with a typed rejection and hang up.
      session->WriteError(0, OverloadedError("session limit reached"));
    }
  }
}

void Server::ReaderLoop(std::shared_ptr<Session> session) {
  // This reader owns the connection it was spawned for — even if a
  // RESUME swaps which Session the conversation continues on.
  const int fd = session->fd;
  SocketOps* ops = session->ops;

  // Handshake: the first frame must be a well-formed HELLO.
  ReadEvent event = ReadFrame(fd, ops);
  bool handshaken = false;
  bool clean = false;
  if (event.kind == ReadEvent::Kind::kFrame &&
      event.frame.type == FrameType::kHello) {
    Result<std::uint32_t> hello = CheckHelloBody(event.frame.body);
    if (hello.ok()) {
      Welcome welcome;
      welcome.version = *hello;
      welcome.session_id = session->id;
      {
        std::lock_guard<std::mutex> lock(mu_);
        session->version = *hello;
        if (*hello >= 2) {
          do {
            session->token = token_rng_();
          } while (session->token == 0);
          welcome.resume_token = session->token;
        }
      }
      session->Write(Frame{FrameType::kWelcome, event.frame.request_id,
                           EncodeWelcomeBody(welcome)});
      handshaken = true;
    } else {
      session->WriteError(event.frame.request_id, hello.status());
    }
  } else if (event.kind == ReadEvent::Kind::kFrame ||
             event.kind == ReadEvent::Kind::kError) {
    Status s = event.kind == ReadEvent::Kind::kError
                   ? event.status
                   : InvalidArgumentError("expected HELLO frame");
    std::uint64_t id =
        event.kind == ReadEvent::Kind::kFrame ? event.frame.request_id : 0;
    session->WriteError(id, s);
  }
  if (!handshaken && event.kind != ReadEvent::Kind::kEof) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.protocol_errors;
  }

  while (handshaken) {
    if (options_.idle_timeout_ms > 0) {
      int readable = PollReadable(fd, options_.idle_timeout_ms);
      if (readable < 0) break;
      if (readable == 0) {
        // Idle: probe the peer. TCP only reports a dead peer on a
        // write, so a quiet-but-alive client costs one heartbeat frame
        // per interval while a vanished one turns into a failed write
        // (after its RST arrives) and a detach.
        if (!session->Write(Frame{FrameType::kHeartbeat, 0, ""})) break;
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.heartbeats_sent;
        continue;
      }
    }
    event = ReadFrame(fd, ops);
    if (event.kind == ReadEvent::Kind::kEof) break;
    if (event.kind == ReadEvent::Kind::kError) {
      // Framing is lost; report (best effort) and disconnect. Socket
      // errors during our own shutdown are routine, not protocol noise.
      if (event.status.code() != StatusCode::kIoError) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.protocol_errors;
      }
      session->WriteError(0, event.status);
      break;
    }
    const Frame& frame = event.frame;
    if (frame.type == FrameType::kStmt) {
      AdmitStatement(session, frame.request_id, frame.body);
      continue;
    }
    if (frame.type == FrameType::kPing) {
      session->Write(Frame{FrameType::kPong, frame.request_id, ""});
      continue;
    }
    if (frame.type == FrameType::kHeartbeat) {
      continue;  // client-side liveness probe; nothing to answer
    }
    if (frame.type == FrameType::kResume) {
      Result<std::shared_ptr<Session>> resumed =
          ResumeSession(session, fd, frame);
      if (resumed.ok()) {
        // The conversation continues on the resumed session; the fresh
        // one was discarded by ResumeSession.
        session = *resumed;
        std::string body;
        PutU64(body, session->id);
        session->Write(Frame{FrameType::kResumed, frame.request_id, body});
      } else {
        session->WriteError(frame.request_id, resumed.status());
      }
      continue;
    }
    if (frame.type == FrameType::kStats) {
      session->Write(Frame{FrameType::kResult, frame.request_id,
                           MetricsText()});
      continue;
    }
    if (frame.type == FrameType::kBye) {
      session->Write(Frame{FrameType::kBye, frame.request_id, ""});
      clean = true;
      break;
    }
    // Server-to-client frame types (or a second HELLO) from a client are
    // protocol violations.
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.protocol_errors;
    }
    session->WriteError(frame.request_id,
                        InvalidArgumentError("unexpected frame type"));
    break;
  }

  ReaderExit(session, fd, clean);
}

void Server::ReaderExit(const std::shared_ptr<Session>& session, int fd,
                        bool clean) {
  {
    std::lock_guard<std::mutex> lock(session->write_mu);
    if (session->fd != fd) {
      // The session was resumed onto another connection while this
      // reader was waking up; the session lives on, only this (already
      // shut down) fd dies.
      CloseFd(fd);
      return;
    }
    session->fd = -1;
  }
  bool resumable = !clean && session->version >= 2 &&
                   options_.resume_timeout_ms > 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    {
      // Re-check under mu_: a RESUME can re-attach the session between
      // the fd release above and here, in which case neither detaching
      // nor tearing down is ours to do.
      std::lock_guard<std::mutex> wlock(session->write_mu);
      if (session->fd >= 0) {
        CloseFd(fd);
        return;
      }
    }
    auto it = sessions_.find(session->id);
    bool registered = it != sessions_.end() && it->second == session;
    if (resumable && registered && !draining_) {
      session->detached = true;
      session->detach_time = std::chrono::steady_clock::now();
      ++stats_.sessions_detached;
    } else {
      // Cancel whatever is running/queued and unregister. The Session
      // object stays alive until the last executor reference drops.
      session->gone.store(true, std::memory_order_relaxed);
      if (registered) sessions_.erase(it);
    }
  }
  CloseFd(fd);
}

Result<std::shared_ptr<Server::Session>> Server::ResumeSession(
    const std::shared_ptr<Session>& fresh, int fd, const Frame& frame) {
  Result<ResumeRequest> req = DecodeResumeBody(frame.body);
  if (!req.ok()) return req.status();
  std::lock_guard<std::mutex> lock(mu_);
  if (fresh->version < 2) {
    return FailedPreconditionError("RESUME requires protocol version 2");
  }
  if (fresh->scheduled || !fresh->pending.empty() || !fresh->inflight.empty()) {
    return FailedPreconditionError(
        "RESUME must precede statements on this connection");
  }
  auto it = sessions_.find(req->session_id);
  if (it == sessions_.end() || it->second == fresh ||
      it->second->version < 2 || it->second->token != req->resume_token ||
      it->second->gone.load(std::memory_order_relaxed)) {
    // One answer for every miss — unknown id, wrong token, v1 target —
    // so the error does not confirm which sessions exist.
    return NotFoundError("no resumable session " +
                         std::to_string(req->session_id));
  }
  std::shared_ptr<Session> target = it->second;
  sessions_.erase(fresh->id);
  if (target->detached) {
    target->detached = false;
  }
  ++target->resumes;
  ++stats_.sessions_resumed;
  {
    // The connection belongs to `target` now; keep the fresh session's
    // destructor (and any stray write) away from it.
    std::lock_guard<std::mutex> wlock(fresh->write_mu);
    fresh->fd = -1;
  }
  int old_fd = -1;
  {
    std::lock_guard<std::mutex> wlock(target->write_mu);
    old_fd = target->fd;
    target->fd = fd;
  }
  if (old_fd >= 0) {
    // The session was still attached elsewhere (the server had not yet
    // noticed that connection die). Shut the old connection down; its
    // reader wakes, sees the fd changed hands, and closes it.
    ::shutdown(old_fd, SHUT_RDWR);
  }
  return target;
}

void Server::AdmitStatement(const std::shared_ptr<Session>& session,
                            std::uint64_t request_id, std::string statement) {
  Status shed;
  bool replay = false;
  Frame cached_reply;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++session->received;
    ++stats_.statements_received;
    if (session->version >= 2) {
      auto hit = session->cache.find(request_id);
      if (hit != session->cache.end()) {
        // Already executed and answered (perhaps into a dead socket):
        // replay the retained reply, do not re-execute.
        ++session->replay_hits;
        ++stats_.replayed_replies;
        replay = true;
        cached_reply = hit->second;
      } else if (session->inflight.count(request_id) != 0) {
        // Still queued or executing: the reply will arrive (and be
        // cached) when it finishes. Admitting again would run the
        // statement twice.
        ++session->replay_hits;
        ++stats_.replayed_replies;
        return;
      }
    }
    if (!replay) {
      std::size_t session_load =
          session->pending.size() + (session->scheduled ? 1 : 0);
      if (draining_) {
        shed = OverloadedError("server is shutting down");
        ++stats_.shed_draining;
      } else if (queued_ >= options_.max_queue) {
        shed = OverloadedError("admission queue full (" +
                               std::to_string(options_.max_queue) +
                               " statements)");
        ++stats_.shed_queue_full;
      } else if (session_load >= options_.session_quota) {
        shed = OverloadedError("session quota exceeded (" +
                               std::to_string(options_.session_quota) +
                               " statements in flight)");
        ++stats_.shed_quota;
      } else {
        session->pending.push_back(
            Session::Pending{request_id, std::move(statement)});
        if (session->version >= 2) session->inflight.insert(request_id);
        ++queued_;
        ++stats_.statements_admitted;
        if (!session->scheduled) {
          session->scheduled = true;
          ready_.push_back(session);
          work_cv_.notify_one();
        }
        return;
      }
      ++session->shed;
    }
  }
  if (replay) {
    session->Write(cached_reply);
    return;
  }
  session->WriteError(request_id, shed);
}

void Server::ExecutorLoop() {
  while (true) {
    std::shared_ptr<Session> session;
    Session::Pending item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock,
                    [this] { return stop_executors_ || !ready_.empty(); });
      if (ready_.empty()) return;  // stop requested, queue drained
      session = ready_.front();
      ready_.pop_front();
      item = std::move(session->pending.front());
      session->pending.pop_front();
      --queued_;
      ++executing_;
    }

    if (options_.statement_hook_for_test) options_.statement_hook_for_test();

    std::string span_detail;
    if (options_.trace != nullptr) {
      span_detail = "session=" + std::to_string(session->id) +
                    " req=" + std::to_string(item.request_id);
      options_.trace->BeginSpan("stmt", span_detail, NowNs());
    }
    std::uint64_t start_ns = NowNs();
    StatementOutcome outcome;
    if (session->gone.load(std::memory_order_relaxed)) {
      // The session was torn down (not merely detached); skip the work
      // rather than mine for nobody.
      outcome.status = CancelledError("client disconnected");
    } else {
      outcome = ExecuteStatement(session->shell, item.statement);
    }
    std::uint64_t elapsed_ns = NowNs() - start_ns;
    if (options_.trace != nullptr) {
      options_.trace->EndSpan("stmt", span_detail, NowNs(),
                              outcome.ok() ? 1 : 0);
    }

    Frame reply =
        outcome.ok()
            ? Frame{FrameType::kResult, item.request_id, outcome.output}
            : Frame{FrameType::kError, item.request_id,
                    EncodeErrorBody(outcome.status)};
    {
      std::lock_guard<std::mutex> lock(mu_);
      // Count the statement as executed before its reply becomes
      // observable: a client that has the RESULT in hand must see the
      // counter already bumped (the chaos harness compares it against a
      // fault-free oracle).
      ++session->executed;
      ++stats_.statements_executed;
      if (!outcome.ok()) {
        ++session->failed;
        ++stats_.statements_failed;
      }
      if (session->version >= 2) {
        // Cache before sending: a replayed copy of this request racing
        // in from a resumed connection must find either the inflight
        // marker or this cache entry — a gap would re-execute it.
        auto [slot, inserted] = session->cache.emplace(item.request_id, reply);
        if (inserted) {
          session->cache_order.push_back(item.request_id);
          session->cache_bytes += reply.body.size() + kCacheEntryOverhead;
          while (!session->cache_order.empty() &&
                 (session->cache_order.size() > options_.resume_cache_entries ||
                  (session->cache_bytes > options_.resume_cache_bytes &&
                   session->cache_order.size() > 1))) {
            std::uint64_t victim = session->cache_order.front();
            session->cache_order.pop_front();
            auto vit = session->cache.find(victim);
            if (vit != session->cache.end()) {
              session->cache_bytes -=
                  std::min(session->cache_bytes,
                           vit->second.body.size() + kCacheEntryOverhead);
              session->cache.erase(vit);
            }
          }
        }
        session->inflight.erase(item.request_id);
      }
    }

    // Reply before releasing the session to the next statement: replies
    // of one session go out in admission order. A detached session
    // skips the write — the reply waits in the cache for the replay.
    session->Write(reply);

    {
      std::lock_guard<std::mutex> lock(mu_);
      --executing_;
      session->exec_ns += elapsed_ns;
      session->output_bytes += outcome.output.size();
      if (const SpillEnv* env = session->shell.spill_env(); env != nullptr) {
        session->spill_activations = env->stats.activations.load();
        session->spilled_rows = env->stats.spilled_rows.load();
        session->spill_bytes =
            env->stats.bytes_written.load() + env->stats.bytes_read.load();
      }
      if (const BufferPool* pool = session->shell.buffer_pool();
          pool != nullptr) {
        BufferPoolStats bp = pool->stats();
        session->pool_hits = bp.hits;
        session->pool_misses = bp.misses;
        session->pool_evictions = bp.evictions;
      }
      session->learned_optimizer = session->shell.learned_optimizer();
      const OutcomeHistory& history = session->shell.optimizer_history();
      session->learned_contexts = history.context_count();
      session->learned_plays = history.total_plays();
      if (!session->pending.empty()) {
        ready_.push_back(session);
        work_cv_.notify_one();
      } else {
        session->scheduled = false;
      }
      if (queued_ == 0 && executing_ == 0) drain_cv_.notify_all();
    }
  }
}

void Server::ReaperLoop() {
  const auto window = std::chrono::milliseconds(options_.resume_timeout_ms);
  const auto tick = std::chrono::milliseconds(
      std::clamp(options_.resume_timeout_ms / 4, 5, 250));
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_reaper_) {
    reaper_cv_.wait_for(lock, tick);
    if (stop_reaper_) break;
    auto now = std::chrono::steady_clock::now();
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      Session& s = *it->second;
      if (s.detached && now - s.detach_time >= window) {
        // The resume window expired: cancel any still-running work and
        // forget the session. A later RESUME draws NOT_FOUND.
        s.gone.store(true, std::memory_order_relaxed);
        ++stats_.sessions_reaped;
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void Server::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shut_down_) return;
    draining_ = true;
  }
  // Wake and retire the accept loop: no new sessions.
  {
    char byte = 'x';
    ssize_t ignored = ::write(wake_pipe_[1], &byte, 1);
    (void)ignored;
  }
  if (accept_thread_.joinable()) accept_thread_.join();

  // Drain: every admitted statement executes and is answered. Readers
  // keep shedding new arrivals with OVERLOADED meanwhile.
  {
    std::unique_lock<std::mutex> lock(mu_);
    drain_cv_.wait(lock, [this] { return queued_ == 0 && executing_ == 0; });
    stop_executors_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : executor_threads_) t.join();
  executor_threads_.clear();

  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_reaper_ = true;
  }
  reaper_cv_.notify_all();
  if (reaper_thread_.joinable()) reaper_thread_.join();

  // Unblock and retire the readers (detached sessions have no reader
  // and no fd; attached ones wake from read/poll on the shutdown).
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, session] : sessions_) {
      session->gone.store(true, std::memory_order_relaxed);
      std::lock_guard<std::mutex> wlock(session->write_mu);
      if (session->fd >= 0) ::shutdown(session->fd, SHUT_RDWR);
    }
    readers.swap(reader_threads_);
  }
  for (std::thread& t : readers) t.join();

  {
    std::lock_guard<std::mutex> lock(mu_);
    sessions_.clear();
    shut_down_ = true;
  }
  CloseFd(listen_fd_);
  listen_fd_ = -1;
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServerStats out = stats_;
  out.sessions_active = sessions_.size();
  return out;
}

std::string Server::MetricsText() const {
  std::lock_guard<std::mutex> lock(mu_);
  return MetricsTextLocked();
}

std::string Server::MetricsTextLocked() const {
  OpMetrics root("server", "port=" + std::to_string(port_) + " sessions=" +
                               std::to_string(sessions_.size()));
  root.rows_in = stats_.statements_received;
  root.rows_out = stats_.statements_executed;

  OpMetrics* admission = root.AddChild(
      "admission",
      "queue_limit=" + std::to_string(options_.max_queue) +
          " quota=" + std::to_string(options_.session_quota) +
          " shed_queue=" + std::to_string(stats_.shed_queue_full) +
          " shed_quota=" + std::to_string(stats_.shed_quota) +
          " shed_drain=" + std::to_string(stats_.shed_draining));
  admission->rows_in = stats_.statements_received;
  admission->rows_out = stats_.statements_admitted;

  // Opt-in, like the per-session nodes below: servers that never lost a
  // connection keep the old STATS shape.
  if (stats_.sessions_detached + stats_.sessions_resumed +
          stats_.sessions_reaped + stats_.replayed_replies +
          stats_.heartbeats_sent >
      0) {
    OpMetrics* resumption = root.AddChild(
        "resumption",
        "detached=" + std::to_string(stats_.sessions_detached) +
            " resumed=" + std::to_string(stats_.sessions_resumed) +
            " reaped=" + std::to_string(stats_.sessions_reaped) +
            " heartbeats=" + std::to_string(stats_.heartbeats_sent));
    resumption->rows_out = stats_.replayed_replies;
  }

  for (const auto& [id, session] : sessions_) {
    std::string detail = "id=" + std::to_string(id) +
                         " shed=" + std::to_string(session->shed) +
                         " errors=" + std::to_string(session->failed);
    if (session->detached) detail += " detached=1";
    if (session->resumes > 0) {
      detail += " resumes=" + std::to_string(session->resumes) +
                " replayed=" + std::to_string(session->replay_hits);
    }
    OpMetrics* node = root.AddChild("session", detail);
    node->rows_in = session->received;
    node->rows_out = session->executed;
    node->wall_ns = session->exec_ns;
    node->mem_bytes = session->output_bytes;
    // Only sessions that actually touched the out-of-core machinery get
    // the extra node; all-in-memory sessions keep the old STATS shape.
    if (session->spill_activations > 0 ||
        session->pool_hits + session->pool_misses > 0) {
      OpMetrics* ooc = node->AddChild(
          "outofcore",
          "spills=" + std::to_string(session->spill_activations) +
              " pool_hits=" + std::to_string(session->pool_hits) +
              " pool_misses=" + std::to_string(session->pool_misses) +
              " pool_evictions=" + std::to_string(session->pool_evictions));
      ooc->rows_out = session->spilled_rows;
      ooc->mem_bytes = session->spill_bytes;
    }
    // Same opt-in shape: only sessions that turned on learned mode or
    // accumulated outcome history grow the optimizer node.
    if (session->learned_optimizer || session->learned_plays > 0) {
      OpMetrics* opt = node->AddChild(
          "optimizer",
          std::string("mode=") +
              (session->learned_optimizer ? "learned" : "static") +
              " contexts=" + std::to_string(session->learned_contexts));
      opt->rows_out = session->learned_plays;
    }
  }
  return root.ToString();
}

}  // namespace qf
