//===- server/Server.cpp --------------------------------------------------===//

#include "server/Server.h"

#include "server/Json.h"
#include "support/JsonEscape.h"
#include "support/ThreadPool.h"

#include <cerrno>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace fcc;

namespace {

/// Hard cap on one request line; a request larger than this is a protocol
/// error, not a unit to queue (it also bounds per-connection buffering).
constexpr size_t MaxLineBytes = 64u << 20;

} // namespace

Server::Server(Options Opts) : Opts(std::move(Opts)) {}

Server::~Server() {
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ::unlink(Opts.SocketPath.c_str());
  }
  if (PipeRd >= 0)
    ::close(PipeRd);
  if (PipeWr >= 0)
    ::close(PipeWr);
  // Pool, Service and Cache are destroyed in reverse declaration order:
  // the pool drains first, so no task can touch a dead service or cache.
}

bool Server::start(std::string &Error) {
  sockaddr_un Addr{};
  if (Opts.SocketPath.empty() ||
      Opts.SocketPath.size() >= sizeof(Addr.sun_path)) {
    Error = "bad socket path '" + Opts.SocketPath + "'";
    return false;
  }
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Opts.SocketPath.c_str(),
              Opts.SocketPath.size() + 1);

  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    Error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  ::unlink(Opts.SocketPath.c_str()); // Stale socket from a dead daemon.
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
          0 ||
      ::listen(ListenFd, 64) < 0) {
    Error = std::string("bind/listen on ") + Opts.SocketPath + ": " +
            std::strerror(errno);
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }

  int P[2];
  if (::pipe(P) < 0) {
    Error = std::string("pipe: ") + std::strerror(errno);
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }
  PipeRd = P[0];
  PipeWr = P[1];
  // The write end is used from signal handlers: it must never block.
  ::fcntl(PipeWr, F_SETFL, O_NONBLOCK);

  Cache = std::make_unique<ResultCache>(
      ResultCache::Options{Opts.CacheBytes, /*Shards=*/8});
  ServiceOptions SO = Opts.Service;
  SO.Cache = Cache.get();
  SO.WantRewritten = true; // Any request may ask for the rewritten text.
  Service = std::make_unique<CompilationService>(SO);
  Pool = std::make_unique<ThreadPool>(Opts.Jobs);
  return true;
}

void Server::sendLine(Conn &C, const std::string &Line) {
  std::lock_guard<std::mutex> L(C.WriteMu);
  std::string Framed = Line;
  Framed += '\n';
  size_t Off = 0;
  while (Off < Framed.size()) {
    ssize_t N = ::send(C.Fd, Framed.data() + Off, Framed.size() - Off,
                       MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return; // Peer gone; the reader will see EOF and wind down.
    }
    Off += static_cast<size_t>(N);
  }
}

void Server::sendError(Conn &C, int64_t Id, const std::string &Message) {
  std::string Out = "{\"id\":" + std::to_string(Id) +
                    ",\"status\":\"error\",\"error\":";
  appendJsonEscaped(Out, Message);
  Out += '}';
  sendLine(C, Out);
}

std::string Server::statsJson(int64_t Id) const {
  ResultCache::Occupancy O = Cache->occupancy();
  std::string Out = "{\"id\":" + std::to_string(Id) +
                    ",\"status\":\"ok\",\"stats\":{";
  const std::pair<const char *, uint64_t> Fields[] = {
      {"accepted", Accepted.load()}, {"rejected", Rejected.load()},
      {"hits", Hits.load()},         {"misses", Misses.load()},
      {"failed", Failed.load()},     {"cache_bytes", O.Bytes},
      {"cache_entries", O.Entries},  {"evictions", O.Evictions},
      {"insertions", O.Insertions},  {"jobs", Pool->threadCount()}};
  for (size_t I = 0; I != std::size(Fields); ++I) {
    if (I)
      Out += ',';
    appendJsonNum(Out, Fields[I].first, Fields[I].second);
  }
  Out += "}}";
  return Out;
}

Server::Counters Server::counters() const {
  Counters C;
  C.Accepted = Accepted.load();
  C.Rejected = Rejected.load();
  C.Hits = Hits.load();
  C.Misses = Misses.load();
  C.Failed = Failed.load();
  return C;
}

void Server::handleCompile(const std::shared_ptr<Conn> &C, int64_t Id,
                           std::string Name, unsigned Index,
                           std::string Source, bool WantRewritten) {
  // Admission control: bound the compiles admitted but not yet answered.
  // Rejection is immediate and explicit — the client owns the retry — so a
  // flood never queues without bound or starves stats/ping.
  unsigned Prev = AdmittedInFlight.fetch_add(1);
  if (Prev >= Opts.MaxQueue || Stopping.load()) {
    AdmittedInFlight.fetch_sub(1);
    Rejected.fetch_add(1);
    sendLine(*C, "{\"id\":" + std::to_string(Id) +
                     ",\"status\":\"overloaded\"}");
    return;
  }
  Accepted.fetch_add(1);
  {
    std::lock_guard<std::mutex> L(C->Mu);
    ++C->InFlight;
  }
  auto Unit = std::make_shared<WorkUnit>(
      WorkUnit::fromSource(std::move(Name), std::move(Source)));
  Pool->submit([this, C, Id, Index, WantRewritten, Unit] {
    UnitReport R = Service->compileOne(*Unit, Index, /*Registry=*/nullptr);
    (R.FromCache ? Hits : Misses).fetch_add(1);
    if (!R.ok())
      Failed.fetch_add(1);
    // "unit" is the last fixed member so clients can slice it verbatim off
    // the line end; "rewritten" follows only when explicitly requested.
    std::string Out = "{\"id\":" + std::to_string(Id) +
                      ",\"status\":\"ok\",\"cached\":" +
                      (R.FromCache ? "true" : "false") + ",\"unit\":";
    appendUnitJson(Out, R, /*IncludeTimings=*/false);
    if (WantRewritten) {
      Out += ",\"rewritten\":";
      appendJsonEscaped(Out, R.RewrittenText);
    }
    Out += '}';
    sendLine(*C, Out);
    AdmittedInFlight.fetch_sub(1);
    std::lock_guard<std::mutex> L(C->Mu);
    if (--C->InFlight == 0)
      C->Idle.notify_all();
  });
}

bool Server::handleLine(const std::shared_ptr<Conn> &C,
                        const std::string &Line) {
  if (Line.find_first_not_of(" \t\r") == std::string::npos)
    return true; // Blank keep-alive line.
  json::Value V;
  std::string Err;
  if (!json::parse(Line, V, Err)) {
    sendError(*C, -1, Err);
    return true;
  }
  int64_t Id = V.intOr("id", -1);
  std::string Op = V.strOr("op", "");
  if (Op == "ping") {
    sendLine(*C, "{\"id\":" + std::to_string(Id) + ",\"status\":\"ok\"}");
    return true;
  }
  if (Op == "stats") {
    sendLine(*C, statsJson(Id));
    return true;
  }
  if (Op == "shutdown") {
    sendLine(*C, "{\"id\":" + std::to_string(Id) + ",\"status\":\"ok\"}");
    GracefulStop.store(true);
    Stopping.store(true);
    // Wake serve()'s poll; 'G' drains gracefully (no cancellation).
    char B = 'G';
    (void)!::write(PipeWr, &B, 1);
    return false;
  }
  if (Op == "compile") {
    const json::Value *Src = V.find("source");
    if (!Src || Src->kind() != json::Value::Kind::Str) {
      sendError(*C, Id, "compile requires a string 'source'");
      return true;
    }
    int64_t Index = V.intOr("index", 0);
    if (Index < 0)
      Index = 0;
    handleCompile(C, Id, V.strOr("name", "unit"),
                  static_cast<unsigned>(Index), Src->str(),
                  V.boolOr("rewritten", false));
    return true;
  }
  sendError(*C, Id, "unknown op '" + Op + "'");
  return true;
}

void Server::connectionLoop(std::shared_ptr<Conn> C) {
  std::string Buf;
  char Chunk[1 << 16];
  bool Open = true;
  while (Open) {
    ssize_t N = ::recv(C->Fd, Chunk, sizeof(Chunk), 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break; // EOF, error, or serve() shut the read side down.
    Buf.append(Chunk, static_cast<size_t>(N));
    size_t Start = 0;
    for (size_t NL; (NL = Buf.find('\n', Start)) != std::string::npos;
         Start = NL + 1) {
      if (!handleLine(C, Buf.substr(Start, NL - Start))) {
        Open = false;
        break;
      }
    }
    Buf.erase(0, Start);
    if (Buf.size() > MaxLineBytes) {
      sendError(*C, -1, "request line exceeds 64 MiB");
      break;
    }
  }

  // Flush: every admitted compile for this connection writes its response
  // before the socket closes.
  {
    std::unique_lock<std::mutex> L(C->Mu);
    C->Idle.wait(L, [&] { return C->InFlight == 0; });
  }

  // Unregister before closing, so serve() never shuts down a recycled fd.
  {
    std::lock_guard<std::mutex> L(ConnMu);
    for (size_t I = 0; I != Conns.size(); ++I) {
      if (Conns[I] == C) {
        Conns.erase(Conns.begin() + I);
        break;
      }
    }
    ::close(C->Fd);
    C->Fd = -1;
    --LiveThreads;
    // Notify while still holding ConnMu: serve() may destroy the Server the
    // moment it observes LiveThreads == 0, so this thread must not touch
    // the condition variable after releasing the lock.
    ConnsDone.notify_all();
  }
}

int Server::serve() {
  pollfd Fds[2] = {{ListenFd, POLLIN, 0}, {PipeRd, POLLIN, 0}};
  while (true) {
    Fds[0].revents = Fds[1].revents = 0;
    if (::poll(Fds, 2, -1) < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (Fds[1].revents) {
      char B[16];
      ssize_t N = ::read(PipeRd, B, sizeof(B));
      bool Cancel = false;
      for (ssize_t I = 0; I < N; ++I)
        if (B[I] == 'S')
          Cancel = true;
      Stopping.store(true);
      if (Cancel && !GracefulStop.load())
        Service->cancel(); // Signal path: finish in-flight units fast.
      break;
    }
    if (Fds[0].revents) {
      int Fd = ::accept(ListenFd, nullptr, nullptr);
      if (Fd < 0)
        continue;
      auto C = std::make_shared<Conn>();
      C->Fd = Fd;
      std::lock_guard<std::mutex> L(ConnMu);
      Conns.push_back(C);
      ++LiveThreads;
      std::thread(&Server::connectionLoop, this, C).detach();
    }
  }

  // Drain: stop accepting, unblock every reader, wait for the responses to
  // flush, then let the pool finish whatever is left.
  ::close(ListenFd);
  ListenFd = -1;
  {
    std::lock_guard<std::mutex> L(ConnMu);
    for (const auto &C : Conns)
      ::shutdown(C->Fd, SHUT_RD);
  }
  {
    std::unique_lock<std::mutex> L(ConnMu);
    ConnsDone.wait(L, [&] { return LiveThreads == 0; });
  }
  Pool->wait();
  ::unlink(Opts.SocketPath.c_str());
  return 0;
}
