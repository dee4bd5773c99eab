#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <exception>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "check/check.h"
#include "graph/graph_io.h"
#include "match/cfl_match.h"
#include "match/iterator.h"
#include "obs/clock.h"

namespace cfl::serve {

namespace {

using obs::WallTimer;

// Writes the whole buffer; MSG_NOSIGNAL so a vanished client surfaces as
// EPIPE (drop the connection) instead of killing the process.
bool WriteAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n =
        send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

std::string ErrnoText(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

// Buffered line reads from a connection; one instance per session task, so
// no locking. Forward-declared in server.h.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  // A peer that streams bytes with no newline would otherwise grow buf_
  // without bound; past this the connection is dropped as hostile. Large
  // enough for any legitimate graph body line.
  static constexpr size_t kMaxBufferedBytes = 1 << 20;

  // Next '\n'-terminated line (terminator and any '\r' stripped). False on
  // EOF, error, or overflow with no complete buffered line.
  bool ReadLine(std::string* line) {
    while (true) {
      size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        *line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        if (!line->empty() && line->back() == '\r') line->pop_back();
        return true;
      }
      if (buf_.size() > kMaxBufferedBytes) return false;
      char chunk[4096];
      ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buf_;
};

QueryServer::QueryServer(const Graph& data, const ServeOptions& options)
    : options_(options),
      dyn_(data),
      cache_(options.cache_bytes),
      scheduler_(SchedulerOptions{options.workers, options.max_quota,
                                  options.max_concurrent_queries,
                                  options.max_time_limit_seconds,
                                  options.max_embeddings}),
      session_pool_(std::make_unique<TaskPool>(options.sessions)) {}

QueryServer::~QueryServer() {
  RequestShutdown();
  ShutdownAllConnections();
  session_pool_.reset();
  if (listen_fd_ >= 0) close(listen_fd_);
  for (int fd : wake_pipe_) {
    if (fd >= 0) close(fd);
  }
}

void QueryServer::RequestShutdown() {
  if (stop_.exchange(true, std::memory_order_relaxed)) return;
  if (wake_pipe_[1] >= 0) {
    char byte = 1;
    ssize_t rc = write(wake_pipe_[1], &byte, 1);
    (void)rc;  // the poll loop also rechecks stop_; a full pipe is fine
  }
}

void QueryServer::RegisterConnection(int fd) {
  MutexLock lock(conn_mu_);
  open_fds_.insert(fd);
}

void QueryServer::UnregisterConnection(int fd) {
  MutexLock lock(conn_mu_);
  open_fds_.erase(fd);
}

void QueryServer::ShutdownAllConnections() {
  MutexLock lock(conn_mu_);
  // Socket-layer shutdown only: parked session reads observe EOF and each
  // session closes its own fd on the way out.
  for (int fd : open_fds_) shutdown(fd, SHUT_RDWR);
}

void QueryServer::CountQuery(bool stream) {
  MutexLock lock(counter_mu_);
  ++counters_.queries;
  if (stream) ++counters_.stream_queries;
}

void QueryServer::CountError() {
  MutexLock lock(counter_mu_);
  ++counters_.errors;
}

int QueryServer::Serve() {
  CFL_CHECK(session_pool_ != nullptr) << " — Serve is single-shot";
  listen_fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    last_error_ = ErrnoText("socket");
    return -1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.empty() ||
      options_.socket_path.size() >= sizeof(addr.sun_path)) {
    last_error_ = "socket path empty or longer than sun_path";
    return -1;
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);
  unlink(options_.socket_path.c_str());  // stale socket from a crashed run
  if (bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
           sizeof(addr)) < 0) {
    last_error_ = ErrnoText("bind");
    return -1;
  }
  if (listen(listen_fd_, 64) < 0) {
    last_error_ = ErrnoText("listen");
    return -1;
  }
  if (pipe(wake_pipe_) < 0) {
    last_error_ = ErrnoText("pipe");
    return -1;
  }

  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    int ready = poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      last_error_ = ErrnoText("poll");
      break;
    }
    if ((fds[1].revents & POLLIN) != 0) break;  // RequestShutdown woke us
    if ((fds[0].revents & POLLIN) != 0) {
      int fd = accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) continue;
      {
        MutexLock lock(counter_mu_);
        ++counters_.connections;
      }
      session_pool_->Submit([this, fd] { HandleConnection(fd); });
    }
  }

  close(listen_fd_);
  listen_fd_ = -1;
  unlink(options_.socket_path.c_str());
  // Unblock parked sessions, then drain and join them so a clean Serve()
  // return means no request is still in flight.
  ShutdownAllConnections();
  session_pool_.reset();
  return 0;
}

void QueryServer::HandleConnection(int fd) {
  RegisterConnection(fd);
  LineReader reader(fd);
  std::string line;
  while (!stop_.load(std::memory_order_relaxed) && reader.ReadLine(&line)) {
    if (line.empty()) continue;
    std::string parse_error;
    std::optional<RequestHeader> header =
        ParseRequestHeader(line, &parse_error);
    if (!header.has_value()) {
      CountError();
      if (!WriteAll(fd, "ERR " + parse_error + "\n")) break;
      continue;
    }
    bool keep = true;
    switch (header->kind) {
      case RequestKind::kPing:
        keep = WriteAll(fd, "PONG\n");
        break;
      case RequestKind::kStats:
        keep = HandleStats(fd);
        break;
      case RequestKind::kShutdown:
        WriteAll(fd, "BYE\n");
        RequestShutdown();
        keep = false;
        break;
      case RequestKind::kQuery:
        // Session tasks run on a TaskPool, whose boundary fails fast on
        // escaped exceptions — convert anything a request can throw (parse
        // errors throw std::runtime_error, allocation can throw) into an
        // ERR reply on this connection instead.
        try {
          keep = HandleQuery(fd, reader, *header);
        } catch (const std::exception& e) {
          CountError();
          keep = WriteAll(fd, std::string("ERR internal: ") + e.what() + "\n");
        }
        break;
      case RequestKind::kUpdate:
        try {
          keep = HandleUpdate(fd, reader);
        } catch (const std::exception& e) {
          CountError();
          keep = WriteAll(fd, std::string("ERR internal: ") + e.what() + "\n");
        }
        break;
    }
    if (!keep) break;
  }
  UnregisterConnection(fd);
  close(fd);
}

bool QueryServer::HandleQuery(int fd, LineReader& reader,
                              const RequestHeader& header) {
  // Collect the graph body (everything up to END) before parsing, so a
  // malformed graph still leaves the connection aligned on request
  // boundaries.
  std::string body;
  std::string line;
  bool saw_end = false;
  while (reader.ReadLine(&line)) {
    if (line == "END") {
      saw_end = true;
      break;
    }
    body += line;
    body += '\n';
  }
  if (!saw_end) return false;  // client vanished mid-request

  Graph query;
  try {
    std::istringstream in(body);
    query = ReadGraph(in);
  } catch (const std::exception& e) {
    CountError();
    return WriteAll(fd, std::string("ERR bad query graph: ") + e.what() +
                            "\n");
  }

  // Pin the epoch first: everything below — cache lookup, prepare,
  // enumeration — answers as of this snapshot, no matter how many updates
  // commit while the query runs.
  dyn::Snapshot snapshot = dyn_.Acquire();
  const Graph& data = snapshot.graph();

  WallTimer total_timer;
  QueryOutcome outcome;
  outcome.cache = cache_.enabled() ? QueryOutcome::Cache::kMiss
                                   : QueryOutcome::Cache::kOff;

  std::shared_ptr<const PreparedQuery> plan;
  std::vector<VertexId> remap;  // client vertex -> plan vertex; empty = id
  PlanCache::Hit hit = cache_.Find(query);
  // A hit is usable only if the plan's epoch is not newer than ours: a plan
  // inserted for epoch e+1 may depend on a batch this query (pinned at e)
  // must not see. Surviving entries from epochs <= ours are proven valid by
  // the invalidation invariant.
  if (hit.plan != nullptr && hit.epoch <= snapshot.epoch()) {
    outcome.cache = QueryOutcome::Cache::kHit;
    plan = std::move(hit.plan);
    remap = std::move(hit.remap);
  } else {
    WallTimer prepare_timer;
    PreparedQuery prepared;
    try {
      // Prepare is a pure function of (snapshot, query), so misses prepare
      // concurrently, each on its own session thread.
      prepared = CflMatcher(data).Prepare(query);
    } catch (const std::invalid_argument& e) {
      // Prepare rejects a query outside its domain (no vertices,
      // disconnected): a client error.
      CountError();
      return WriteAll(fd, std::string("ERR bad query graph: ") + e.what() +
                              "\n");
    }
    // Tagged with our epoch: the cache hands the plan back uncached if an
    // update committed since then dirtied one of the query's labels. The
    // plan stays correct for *this* query (snapshot isolation) either way.
    plan = cache_.Insert(query, std::move(prepared), snapshot.epoch());
    outcome.prepare_ms = prepare_timer.Lap() * 1e3;
  }

  if (header.mode == QueryMode::kCount) {
    uint32_t quota = 0;
    WallTimer enum_timer;
    MatchResult result =
        scheduler_.Execute(data, *plan, header.limits, &quota);
    outcome.enum_ms = enum_timer.Lap() * 1e3;
    outcome.embeddings = result.embeddings;
    outcome.reached_limit = result.reached_limit;
    outcome.timed_out = result.timed_out;
    outcome.quota = quota;
  } else {
    // Streaming pulls embeddings on this session thread (the socket is the
    // bottleneck, not enumeration) but still holds an admission slot so
    // streams count against the server's concurrency budget.
    AdmissionTicket ticket(scheduler_);
    MatchLimits limits = scheduler_.ClampLimits(header.limits);
    WallTimer enum_timer;
    EmbeddingIterator it(data, plan, limits);
    Embedding embedding;
    Embedding out;
    while (it.Next(&embedding)) {
      const Embedding* to_send = &embedding;
      if (!remap.empty()) {
        // Cached plan of an isomorphic query: embedding[] is indexed by
        // *representative* vertices; translate to the client's numbering.
        out.resize(embedding.size());
        for (VertexId u = 0; u < out.size(); ++u) {
          out[u] = embedding[remap[u]];
        }
        to_send = &out;
      }
      if (!WriteAll(fd, FormatEmbeddingLine(*to_send) + "\n")) return false;
    }
    outcome.enum_ms = enum_timer.Lap() * 1e3;
    outcome.embeddings = it.produced();
    outcome.reached_limit = it.reached_limit();
    outcome.timed_out = it.timed_out();
  }

  outcome.total_ms = total_timer.Lap() * 1e3;
  CountQuery(header.mode == QueryMode::kStream);
  return WriteAll(fd, FormatResultLine(outcome) + "\n");
}

bool QueryServer::HandleUpdate(int fd, LineReader& reader) {
  // Collect op lines up to END before parsing, so a malformed op still
  // leaves the connection aligned on request boundaries.
  std::vector<std::string> op_lines;
  std::string line;
  bool saw_end = false;
  while (reader.ReadLine(&line)) {
    if (line == "END") {
      saw_end = true;
      break;
    }
    if (!line.empty()) op_lines.push_back(line);
  }
  if (!saw_end) return false;  // client vanished mid-request

  std::vector<UpdateOp> ops;
  ops.reserve(op_lines.size());
  for (const std::string& op_line : op_lines) {
    std::string parse_error;
    std::optional<UpdateOp> op = ParseUpdateOp(op_line, &parse_error);
    if (!op.has_value()) {
      CountError();
      return WriteAll(fd, "ERR " + parse_error + "\n");
    }
    ops.push_back(*op);
  }

  // Commit (DynamicGraph::Commit) stages the batch on the current snapshot
  // and applies it with no other writer in between. The on_commit hook
  // invalidates affected plans, and records the commit's epoch against
  // their labels, before the new epoch is visible to any Acquire (see
  // PlanCache::Insert for the racing-insert half).
  dyn::ApplyResult result;
  uint64_t invalidated = 0;
  std::optional<std::string> error = dyn_.Commit(
      [&](dyn::GraphDelta& delta) {
        for (const UpdateOp& op : ops) {
          bool ok = true;
          switch (op.kind) {
            case UpdateOp::Kind::kAddVertex:
              ok = delta.AddVertex(static_cast<Label>(op.u));
              break;
            case UpdateOp::Kind::kRemoveVertex:
              ok = delta.RemoveVertex(op.u);
              break;
            case UpdateOp::Kind::kAddEdge:
              ok = delta.AddEdge(op.u, op.v);
              break;
            case UpdateOp::Kind::kRemoveEdge:
              ok = delta.RemoveEdge(op.u, op.v);
              break;
          }
          // Whole-batch rejection: nothing of a bad batch is applied.
          if (!ok) return false;
        }
        return true;
      },
      &result,
      [&](const dyn::DirtyLabels& dirty, dyn::Epoch epoch) {
        invalidated = cache_.InvalidateLabels(dirty, epoch);
      });
  if (error.has_value()) {
    CountError();
    return WriteAll(fd, "ERR " + *error + "\n");
  }

  UpdateOutcome outcome;
  outcome.epoch = result.epoch;
  outcome.added_vertices = result.added_vertices;
  outcome.removed_vertices = result.removed_vertices;
  outcome.added_edges = result.added_edges;
  outcome.removed_edges = result.removed_edges;
  outcome.dirty_labels = static_cast<uint32_t>(result.dirty.labels.size());
  outcome.invalidated = invalidated;
  outcome.retained = cache_.Stats().entries;
  {
    MutexLock lock(counter_mu_);
    ++counters_.updates;
  }
  return WriteAll(fd, FormatUpdatedLine(outcome) + "\n");
}

bool QueryServer::HandleStats(int fd) {
  ServerCounters counters;
  {
    MutexLock lock(counter_mu_);
    counters = counters_;
  }
  PlanCacheStats cache = cache_.Stats();
  obs::DynCounters dyn = dyn_.Stats();
  std::string line = "STATS";
  line += " queries=" + std::to_string(counters.queries);
  line += " stream_queries=" + std::to_string(counters.stream_queries);
  line += " updates=" + std::to_string(counters.updates);
  line += " errors=" + std::to_string(counters.errors);
  line += " connections=" + std::to_string(counters.connections);
  line += " cache_hits=" + std::to_string(cache.hits);
  line += " cache_misses=" + std::to_string(cache.misses);
  line += " cache_evictions=" + std::to_string(cache.evictions);
  line += " cache_collisions=" + std::to_string(cache.collisions);
  line += " cache_invalidations=" + std::to_string(cache.invalidations);
  line += " cache_bytes=" + std::to_string(cache.bytes);
  line += " cache_entries=" + std::to_string(cache.entries);
  line += " epoch=" + std::to_string(dyn.epoch);
  line += " folds=" + std::to_string(dyn.folds);
  line += " epochs_retired=" + std::to_string(dyn.epochs_retired);
  line += " live_epochs=" + std::to_string(dyn.live_epochs);
  line += " active=" + std::to_string(scheduler_.ActiveQueries());
  line += " workers=" + std::to_string(scheduler_.workers());
  line += "\n";
  return WriteAll(fd, line);
}

}  // namespace cfl::serve
