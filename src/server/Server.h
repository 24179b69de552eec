//===- server/Server.h - Compilation daemon over a Unix socket --*- C++ -*-===//
///
/// \file
/// The long-lived compilation server behind `fcc-served`: accepts
/// line-delimited JSON requests over a Unix domain socket, compiles units
/// on the shared ThreadPool through one CompilationService (so every
/// connection shares one ResultCache), and streams responses back as they
/// finish.
///
/// Protocol (one JSON object per line, in both directions):
///
///   -> {"op":"compile","id":I,"name":N,"index":X,"source":S
///       [,"rewritten":true]}
///   <- {"id":I,"status":"ok","cached":B,"unit":{...}[,"rewritten":T]}
///
///   -> {"op":"stats","id":I}          <- {"id":I,"status":"ok","stats":{..}}
///   -> {"op":"ping","id":I}           <- {"id":I,"status":"ok"}
///   -> {"op":"shutdown","id":I}       <- {"id":I,"status":"ok"}, then drain
///
/// The "unit" member is produced by service/BatchReport.h's appendUnitJson
/// with timings off — the same serializer fcc-batch uses — so a cached and
/// a freshly compiled response for the same unit are byte-identical, and a
/// client can splice units verbatim into a report. Responses are written in
/// completion order and correlated by "id"; the unit object is always the
/// last fixed member so clients can slice it out of the line without a
/// JSON writer ("rewritten", when requested, follows it).
///
/// Admission control is a bound on compiles admitted but not yet answered:
/// past MaxQueue the server answers {"status":"overloaded"} immediately
/// instead of queueing without bound, and the client backs off and retries.
/// Backpressure therefore never blocks the reader thread, which keeps
/// stats/ping responsive under full load.
///
/// Shutdown: a signal (SIGINT/SIGTERM via the self-pipe) cancels the
/// service — in-flight units finish fast as Cancelled — while the
/// "shutdown" op drains gracefully: admitted compiles complete and their
/// responses are flushed before serve() returns. Both paths unlink the
/// socket.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_SERVER_SERVER_H
#define FCC_SERVER_SERVER_H

#include "server/ResultCache.h"
#include "service/CompilationService.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace fcc {

class ThreadPool;

/// One daemon instance: socket, pool, service and cache.
class Server {
public:
  struct Options {
    std::string SocketPath;
    /// Pool worker threads; 0 = hardware concurrency.
    unsigned Jobs = 0;
    /// ResultCache byte budget.
    size_t CacheBytes = 256u << 20;
    /// Compiles admitted but not yet answered before new ones are
    /// rejected as overloaded.
    unsigned MaxQueue = 256;
    /// Pipeline configuration applied to every request (Cache and
    /// WantRewritten are managed by the server itself).
    ServiceOptions Service;
  };

  /// Monotonic daemon-lifetime counters, readable while serving.
  struct Counters {
    uint64_t Accepted = 0; ///< Compile requests admitted.
    uint64_t Rejected = 0; ///< Compile requests answered "overloaded".
    uint64_t Hits = 0;     ///< Admitted requests served from the cache.
    uint64_t Misses = 0;   ///< Admitted requests that compiled.
    uint64_t Failed = 0;   ///< Admitted requests whose unit was not ok.
  };

  explicit Server(Options Opts);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds and listens on SocketPath (removing any stale socket) and
  /// creates the pool, service and self-pipe. False + \p Error on failure.
  bool start(std::string &Error);

  /// Accepts and serves connections until a stop arrives, then drains and
  /// unlinks the socket. Returns 0 on a clean stop.
  int serve();

  /// Async-signal-safe stop trigger: a signal handler writes one byte to
  /// this fd to make serve() cancel in-flight work and drain. -1 before
  /// start().
  int stopFd() const { return PipeWr; }

  Counters counters() const;

private:
  /// Per-connection state, shared between the reader thread and the pool
  /// tasks writing responses for it.
  struct Conn {
    int Fd = -1;
    std::mutex WriteMu;            ///< Serializes response writes.
    std::mutex Mu;                 ///< Guards InFlight.
    std::condition_variable Idle;  ///< Signalled when InFlight hits 0.
    unsigned InFlight = 0;
  };

  void connectionLoop(std::shared_ptr<Conn> C);
  /// Handles one request line; false closes the connection.
  bool handleLine(const std::shared_ptr<Conn> &C, const std::string &Line);
  void handleCompile(const std::shared_ptr<Conn> &C, int64_t Id,
                     std::string Name, unsigned Index, std::string Source,
                     bool WantRewritten);
  static void sendLine(Conn &C, const std::string &Line);
  void sendError(Conn &C, int64_t Id, const std::string &Message);
  std::string statsJson(int64_t Id) const;

  Options Opts;
  std::unique_ptr<ResultCache> Cache;
  std::unique_ptr<CompilationService> Service;
  std::unique_ptr<ThreadPool> Pool;

  int ListenFd = -1;
  int PipeRd = -1;
  int PipeWr = -1;

  /// Live connections; registered by the accept loop, unregistered by each
  /// connection thread right before it closes its fd, so serve() can only
  /// ever shut down fds that are still open.
  std::mutex ConnMu;
  std::vector<std::shared_ptr<Conn>> Conns;
  std::condition_variable ConnsDone;
  unsigned LiveThreads = 0;

  std::atomic<bool> Stopping{false};
  std::atomic<bool> GracefulStop{false};
  std::atomic<unsigned> AdmittedInFlight{0};
  std::atomic<uint64_t> Accepted{0};
  std::atomic<uint64_t> Rejected{0};
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
  std::atomic<uint64_t> Failed{0};
};

} // namespace fcc

#endif // FCC_SERVER_SERVER_H
