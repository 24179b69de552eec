//===- tools/fcc-client.cpp - Client for the compilation daemon -----------===//
//
// Submits a corpus to a running fcc-served instance over its Unix socket
// and reassembles the responses into a deterministic report. Units are
// materialized to IR text client-side (files are read, generated routines
// are generated and printed), so the daemon only ever sees "compile"
// requests with inline sources.
//
//   fcc-client --socket=PATH [DIR|FILE...] [options]
//
//   --socket=PATH       daemon socket (required)
//   --generate=N[:SEED] append N generated routines (default seed 1)
//   --window=N          max requests in flight per round (default 16)
//   --json=PATH         write {"units":[...]} to PATH ('-' for stdout),
//                       unit objects spliced verbatim from the daemon's
//                       responses — byte-identical to fcc-batch
//                       --no-timings units for the same corpus, except
//                       that daemon units carry no "path" member (the
//                       daemon only ever sees in-memory sources)
//   --expect-all-hits   fail (exit 3) unless every unit was a cache hit
//   --shutdown          send a graceful shutdown after the corpus
//   --quiet             suppress the summary line
//
// Overloaded responses are retried with backoff; the retry loop is the
// client half of the daemon's admission control.
//
// Exit status: 0 all units ok, 1 some unit failed, 2 usage/connect error,
// 3 --expect-all-hits violated.
//
//===----------------------------------------------------------------------===//

#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "server/Json.h"
#include "service/BatchReport.h"
#include "service/WorkUnit.h"
#include "support/ArgParse.h"
#include "workload/ProgramGenerator.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace fcc;

namespace {

struct ClientOptions {
  std::string SocketPath;
  std::vector<std::string> Paths;
  unsigned GenerateCount = 0;
  uint64_t GenerateSeed = 1;
  unsigned Window = 16;
  std::string JsonPath;
  bool ExpectAllHits = false;
  bool Shutdown = false;
  bool Quiet = false;
};

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --socket=PATH [DIR|FILE...] [--generate=N[:SEED]]\n"
               "       [--window=N] [--json=PATH] [--expect-all-hits]\n"
               "       [--shutdown] [--quiet]\n",
               Argv0);
  return 2;
}

bool parseArgs(int Argc, char **Argv, ClientOptions &Opts) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--socket=", 0) == 0) {
      Opts.SocketPath = Arg.substr(std::strlen("--socket="));
    } else if (Arg.rfind("--generate=", 0) == 0) {
      if (!parseGenerateFlag(Arg, Opts.GenerateCount, Opts.GenerateSeed))
        return false;
    } else if (Arg.rfind("--window=", 0) == 0) {
      if (!parseUnsignedFlag(Arg, "--window=", Opts.Window, /*Min=*/1,
                             /*Max=*/4096))
        return false;
    } else if (Arg.rfind("--json=", 0) == 0) {
      Opts.JsonPath = Arg.substr(7);
    } else if (Arg == "--expect-all-hits") {
      Opts.ExpectAllHits = true;
    } else if (Arg == "--shutdown") {
      Opts.Shutdown = true;
    } else if (Arg == "--quiet") {
      Opts.Quiet = true;
    } else if (!Arg.empty() && Arg[0] != '-') {
      Opts.Paths.push_back(Arg);
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", Arg.c_str());
      return false;
    }
  }
  return !Opts.SocketPath.empty();
}

/// One materialized request: the unit's name and its full IR text.
struct ClientUnit {
  std::string Name;
  std::string Source;
  // Response state:
  bool Done = false;
  bool Cached = false;
  bool Ok = false;
  std::string UnitJson; ///< The "unit" object, verbatim from the wire.
  std::string Error;
};

bool materialize(const ClientOptions &Opts, std::vector<ClientUnit> &Out,
                 std::string &Error) {
  std::vector<WorkUnit> Units;
  for (const std::string &Path : Opts.Paths)
    if (!collectUnits(Path, Units, Error))
      return false;
  if (Opts.GenerateCount != 0) {
    std::vector<WorkUnit> Gen =
        generatedCorpus(Opts.GenerateCount, Opts.GenerateSeed);
    for (WorkUnit &U : Gen)
      Units.push_back(std::move(U));
  }
  for (WorkUnit &U : Units) {
    ClientUnit C;
    C.Name = U.Name;
    if (U.Generated) {
      Module M;
      generateProgram(M, U.Name, U.GenOpts);
      C.Source = printModule(M);
    } else if (!U.Path.empty()) {
      std::ifstream In(U.Path);
      if (!In) {
        Error = "cannot open " + U.Path;
        return false;
      }
      std::stringstream Buffer;
      Buffer << In.rdbuf();
      C.Source = Buffer.str();
    } else {
      C.Source = U.Source;
    }
    Out.push_back(std::move(C));
  }
  return true;
}

/// Blocking line-oriented connection to the daemon.
class Connection {
public:
  ~Connection() {
    if (Fd >= 0)
      ::close(Fd);
  }

  bool connect(const std::string &Path, std::string &Error) {
    sockaddr_un Addr{};
    if (Path.empty() || Path.size() >= sizeof(Addr.sun_path)) {
      Error = "bad socket path '" + Path + "'";
      return false;
    }
    Addr.sun_family = AF_UNIX;
    std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0) {
      Error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
        0) {
      Error = "cannot connect to " + Path + ": " + std::strerror(errno);
      return false;
    }
    return true;
  }

  bool sendLine(const std::string &Line) {
    std::string Framed = Line;
    Framed += '\n';
    size_t Off = 0;
    while (Off < Framed.size()) {
      ssize_t N = ::send(Fd, Framed.data() + Off, Framed.size() - Off,
                         MSG_NOSIGNAL);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        return false;
      }
      Off += static_cast<size_t>(N);
    }
    return true;
  }

  /// What reading the next response line produced. The protocol frames
  /// every response as one newline-terminated line, so bytes buffered at
  /// EOF are a half-written response — a protocol error distinct from a
  /// clean close, never silently discarded.
  enum class RecvStatus {
    Line,      ///< A complete line was read into the out-parameter.
    Eof,       ///< Clean close: connection ended on a line boundary.
    Truncated, ///< Close mid-line: unterminated bytes were buffered.
  };

  RecvStatus recvLine(std::string &Line) {
    while (true) {
      size_t NL = Buf.find('\n');
      if (NL != std::string::npos) {
        Line = Buf.substr(0, NL);
        Buf.erase(0, NL + 1);
        return RecvStatus::Line;
      }
      char Chunk[1 << 16];
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return Buf.empty() ? RecvStatus::Eof : RecvStatus::Truncated;
      Buf.append(Chunk, static_cast<size_t>(N));
    }
  }

  /// Bytes of an unterminated final line (valid after Truncated).
  size_t truncatedBytes() const { return Buf.size(); }

private:
  int Fd = -1;
  std::string Buf;
};

/// Builds one compile request; id doubles as the unit index so responses
/// correlate to corpus positions directly.
std::string compileRequest(unsigned Index, const ClientUnit &U) {
  std::string Out = "{\"op\":\"compile\",\"id\":" + std::to_string(Index) +
                    ",\"index\":" + std::to_string(Index) + ",\"name\":";
  appendJsonEscaped(Out, U.Name);
  Out += ",\"source\":";
  appendJsonEscaped(Out, U.Source);
  Out += '}';
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  ClientOptions Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return usage(Argv[0]);

  std::vector<ClientUnit> Units;
  std::string Error;
  if (!materialize(Opts, Units, Error)) {
    std::fprintf(stderr, "fcc-client: %s\n", Error.c_str());
    return 2;
  }
  if (Units.empty() && !Opts.Shutdown) {
    std::fprintf(stderr, "fcc-client: no work units\n");
    return 2;
  }

  Connection Conn;
  if (!Conn.connect(Opts.SocketPath, Error)) {
    std::fprintf(stderr, "fcc-client: %s\n", Error.c_str());
    return 2;
  }

  // Windowed submission: send up to --window requests, read exactly that
  // many responses (they may arrive out of order; ids correlate), then
  // re-queue anything the daemon rejected as overloaded, with backoff.
  std::deque<unsigned> Pending;
  for (unsigned I = 0; I != Units.size(); ++I)
    Pending.push_back(I);
  unsigned BackoffMs = 5;
  while (!Pending.empty()) {
    std::vector<unsigned> Round;
    while (!Pending.empty() && Round.size() < Opts.Window) {
      Round.push_back(Pending.front());
      Pending.pop_front();
    }
    for (unsigned I : Round) {
      if (!Conn.sendLine(compileRequest(I, Units[I]))) {
        std::fprintf(stderr, "fcc-client: send failed\n");
        return 2;
      }
    }
    std::vector<unsigned> Retry;
    for (size_t R = 0; R != Round.size(); ++R) {
      std::string Line;
      Connection::RecvStatus RS = Conn.recvLine(Line);
      if (RS == Connection::RecvStatus::Truncated) {
        std::fprintf(stderr,
                     "fcc-client: protocol error: connection closed mid-"
                     "response (%zu unterminated bytes buffered)\n",
                     Conn.truncatedBytes());
        return 2;
      }
      if (RS != Connection::RecvStatus::Line) {
        std::fprintf(stderr, "fcc-client: connection closed by daemon\n");
        return 2;
      }
      json::Value V;
      if (!json::parse(Line, V, Error)) {
        std::fprintf(stderr, "fcc-client: bad response: %s\n",
                     Error.c_str());
        return 2;
      }
      int64_t Id = V.intOr("id", -1);
      if (Id < 0 || static_cast<size_t>(Id) >= Units.size()) {
        std::fprintf(stderr, "fcc-client: response with unknown id\n");
        return 2;
      }
      ClientUnit &U = Units[static_cast<size_t>(Id)];
      std::string Status = V.strOr("status", "");
      if (Status == "overloaded") {
        Retry.push_back(static_cast<unsigned>(Id));
        continue;
      }
      if (Status != "ok") {
        U.Done = true;
        U.Error = V.strOr("error", "request failed");
        continue;
      }
      U.Done = true;
      U.Cached = V.boolOr("cached", false);
      const json::Value *Unit = V.find("unit");
      if (const json::Value *St = Unit ? Unit->find("status") : nullptr)
        U.Ok = St->kind() == json::Value::Kind::Str && St->str() == "ok";
      if (!U.Ok && Unit)
        U.Error = Unit->strOr("error", "unit failed");
      // Splice the unit object verbatim: it is the response's last member
      // (the line ends "...,\"unit\":{...}}"), so no JSON writer is needed
      // to reproduce the daemon's exact bytes.
      size_t P = Line.find(",\"unit\":");
      if (P != std::string::npos && Line.size() > P + 9)
        U.UnitJson = Line.substr(P + 8, Line.size() - (P + 8) - 1);
    }
    if (!Retry.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(BackoffMs));
      if (BackoffMs < 100)
        BackoffMs *= 2;
      for (unsigned I : Retry)
        Pending.push_front(I);
    } else {
      BackoffMs = 5;
    }
  }

  if (Opts.Shutdown) {
    if (!Conn.sendLine("{\"op\":\"shutdown\",\"id\":-1}")) {
      std::fprintf(stderr, "fcc-client: send failed\n");
      return 2;
    }
    std::string Line; // The daemon acks, then drains and closes.
    if (Conn.recvLine(Line) == Connection::RecvStatus::Truncated) {
      std::fprintf(stderr,
                   "fcc-client: protocol error: connection closed mid-"
                   "response (%zu unterminated bytes buffered)\n",
                   Conn.truncatedBytes());
      return 2;
    }
  }

  unsigned Ok = 0, Hit = 0;
  for (const ClientUnit &U : Units) {
    if (U.Ok)
      ++Ok;
    if (U.Cached)
      ++Hit;
  }

  if (!Opts.JsonPath.empty()) {
    std::string Json = "{\"units\":[";
    for (size_t I = 0; I != Units.size(); ++I) {
      if (I)
        Json += ',';
      Json += Units[I].UnitJson;
    }
    Json += "]}";
    if (Opts.JsonPath == "-") {
      std::fwrite(Json.data(), 1, Json.size(), stdout);
      std::fputc('\n', stdout);
    } else {
      std::ofstream Out(Opts.JsonPath, std::ios::binary);
      if (!Out) {
        std::fprintf(stderr, "fcc-client: cannot write %s\n",
                     Opts.JsonPath.c_str());
        return 2;
      }
      Out << Json << '\n';
    }
  }

  if (!Opts.Quiet) {
    for (const ClientUnit &U : Units)
      if (U.Done && !U.Ok)
        std::fprintf(stderr, "FAIL %-24s %s\n", U.Name.c_str(),
                     U.Error.c_str());
    std::printf("%zu units (%u ok, %zu failed), %u cache hits, %zu misses\n",
                Units.size(), Ok, Units.size() - Ok, Hit,
                Units.size() - Hit);
  }

  if (Ok != Units.size())
    return 1;
  if (Opts.ExpectAllHits && Hit != Units.size())
    return 3;
  return 0;
}
