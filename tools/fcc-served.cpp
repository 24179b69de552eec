//===- tools/fcc-served.cpp - Compilation daemon --------------------------===//
//
// Long-lived compilation server: listens on a Unix domain socket, compiles
// line-delimited JSON requests on a shared thread pool, and serves repeat
// and alpha-equivalent submissions from a content-addressed result cache
// (see src/server/Server.h for the protocol).
//
//   fcc-served --socket=PATH [options]
//
//   --socket=PATH       Unix socket to listen on (required)
//   --jobs=N            pool worker threads (default 0 = hardware)
//   --cache-bytes=N     result-cache byte budget (default 256 MiB)
//   --max-queue=N       admitted-but-unanswered bound before requests are
//                       rejected as overloaded (default 256)
//   --pipeline=new|standard|briggs|briggs*  configuration (default new)
//   --machine=uniformN|dsp|embedded
//                       run the register allocator after the pipeline on
//                       every unit (spill columns appear in responses; the
//                       machine name is part of the cache fingerprint)
//   --passes=SEQ        comma-separated optimization passes (sccp, adce,
//                       pre) run on every unit's SSA form before the
//                       pipeline (part of the cache fingerprint)
//   --check             validate each New-pipeline partition (checker)
//   --strict            insert entry initializations for non-strict inputs
//   --run ARG,...       execute every function on the integer args
//   --max-instructions=N  per-unit input-size budget (0 = unlimited)
//   --quiet             suppress the startup/shutdown lines on stdout
//
// SIGINT/SIGTERM cancel in-flight work and drain; the protocol's
// "shutdown" op drains gracefully. Both unlink the socket on exit.
//
// Exit status: 0 clean shutdown, 2 usage/setup error.
//
//===----------------------------------------------------------------------===//

#include "server/Server.h"
#include "support/ArgParse.h"

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include <unistd.h>

using namespace fcc;

namespace {

/// The self-pipe write end, for the async-signal-safe stop handler.
volatile sig_atomic_t StopFd = -1;

void onStopSignal(int) {
  int Fd = StopFd;
  if (Fd >= 0) {
    char B = 'S';
    (void)!::write(Fd, &B, 1);
  }
}

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s --socket=PATH [--jobs=N] [--cache-bytes=N]\n"
      "       [--max-queue=N] [--pipeline=new|standard|briggs|briggs*]\n"
      "       [--machine=uniformN|dsp|embedded] [--passes=sccp,adce,pre]\n"
      "       [--check] [--strict] [--run ARG,...] [--max-instructions=N]\n"
      "       [--quiet]\n",
      Argv0);
  return 2;
}

bool parseArgs(int Argc, char **Argv, Server::Options &Opts, bool &Quiet) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    std::string Error;
    FlagParse Shared = parseServiceFlag(Arg, Opts.Service, Error);
    if (Shared == FlagParse::Invalid) {
      std::fprintf(stderr, "%s\n", Error.c_str());
      return false;
    }
    if (Shared == FlagParse::Parsed)
      continue;
    if (Arg.rfind("--socket=", 0) == 0) {
      Opts.SocketPath = Arg.substr(std::strlen("--socket="));
    } else if (Arg.rfind("--jobs=", 0) == 0) {
      if (!parseUnsignedFlag(Arg, "--jobs=", Opts.Jobs))
        return false;
    } else if (Arg.rfind("--cache-bytes=", 0) == 0) {
      if (!parseUnsignedFlag(Arg, "--cache-bytes=", Opts.CacheBytes,
                             /*Min=*/1))
        return false;
    } else if (Arg.rfind("--max-queue=", 0) == 0) {
      if (!parseUnsignedFlag(Arg, "--max-queue=", Opts.MaxQueue, /*Min=*/1))
        return false;
    } else if (Arg.rfind("--max-instructions=", 0) == 0) {
      if (!parseUnsignedFlag(Arg, "--max-instructions=",
                             Opts.Service.MaxUnitInstructions))
        return false;
    } else if (Arg == "--run") {
      Opts.Service.Execute = true;
      if (!parseRunFlag(Argc, Argv, I, Opts.Service.ExecArgs))
        return false;
    } else if (Arg == "--quiet") {
      Quiet = true;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", Arg.c_str());
      return false;
    }
  }
  return !Opts.SocketPath.empty();
}

} // namespace

int main(int Argc, char **Argv) {
  Server::Options Opts;
  bool Quiet = false;
  if (!parseArgs(Argc, Argv, Opts, Quiet))
    return usage(Argv[0]);
  std::string Error;
  if (!validateServiceOptions(Opts.Service, Error)) {
    std::fprintf(stderr, "%s\n", Error.c_str());
    return 2;
  }

  Server Daemon(Opts);
  if (!Daemon.start(Error)) {
    std::fprintf(stderr, "fcc-served: %s\n", Error.c_str());
    return 2;
  }

  StopFd = Daemon.stopFd();
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onStopSignal;
  ::sigaction(SIGINT, &SA, nullptr);
  ::sigaction(SIGTERM, &SA, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  if (!Quiet) {
    std::printf("fcc-served: listening on %s\n", Opts.SocketPath.c_str());
    std::fflush(stdout);
  }
  int Rc = Daemon.serve();
  if (!Quiet) {
    Server::Counters C = Daemon.counters();
    std::printf("fcc-served: drained (accepted %llu, rejected %llu, "
                "hits %llu, misses %llu, failed %llu)\n",
                static_cast<unsigned long long>(C.Accepted),
                static_cast<unsigned long long>(C.Rejected),
                static_cast<unsigned long long>(C.Hits),
                static_cast<unsigned long long>(C.Misses),
                static_cast<unsigned long long>(C.Failed));
  }
  return Rc;
}
