//===- support/ThreadPool.h - Fixed-size task pool --------------*- C++ -*-===//
///
/// \file
/// A fixed-size pool of worker threads fed from one FIFO queue, built for
/// the compilation service's function-level sharding: tasks are
/// independent and either queued all up front (a batch, a fuzz campaign)
/// or one request at a time (the daemon). Either way an idle worker takes
/// the oldest waiting task, so a slow task never holds up the rest.
///
/// Semantics:
///   - submit() appends to the queue; any idle worker picks the task up.
///   - wait() blocks until every submitted task has finished and rethrows
///     the first exception any task raised (later exceptions are dropped,
///     but every task always runs to completion or throw).
///   - the destructor drains remaining tasks, then joins all workers, so
///     dropping a pool never loses submitted work.
///
/// The pool itself is not a scheduler for dependent tasks: tasks must not
/// block on each other, only on external state.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_SUPPORT_THREADPOOL_H
#define FCC_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fcc {

/// Fixed-size thread pool over one shared task queue.
class ThreadPool {
public:
  /// Spawns \p ThreadCount workers; 0 means the hardware concurrency
  /// (at least 1).
  explicit ThreadPool(unsigned ThreadCount = 0);

  /// Drains every submitted task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Enqueues \p Task. Thread-safe; may be called from worker threads.
  void submit(std::function<void()> Task);

  /// Blocks until every task submitted so far has finished. If any task
  /// threw, rethrows the first captured exception (clearing it, so the
  /// pool stays usable).
  void wait();

  unsigned threadCount() const {
    return static_cast<unsigned>(Threads.size());
  }

private:
  void workerLoop();

  /// Guards the queue, counters and flags below; WorkReady wakes idle
  /// workers, AllDone wakes wait().
  std::mutex Lock;
  std::condition_variable WorkReady;
  std::condition_variable AllDone;
  std::deque<std::function<void()>> Queue;
  /// Submitted but not yet finished (queued or running).
  size_t Pending = 0;
  bool ShuttingDown = false;
  std::exception_ptr FirstError;

  /// Declared last: the workers use every member above.
  std::vector<std::thread> Threads;
};

} // namespace fcc

#endif // FCC_SUPPORT_THREADPOOL_H
