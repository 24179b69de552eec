//===- support/ThreadPool.cpp ---------------------------------------------===//

#include "support/ThreadPool.h"

#include <utility>

using namespace fcc;

ThreadPool::ThreadPool(unsigned ThreadCount) {
  if (ThreadCount == 0) {
    ThreadCount = std::thread::hardware_concurrency();
    if (ThreadCount == 0)
      ThreadCount = 1;
  }
  Threads.reserve(ThreadCount);
  for (unsigned I = 0; I != ThreadCount; ++I)
    Threads.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> L(Lock);
    ShuttingDown = true;
  }
  WorkReady.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

void ThreadPool::submit(std::function<void()> Task) {
  {
    std::lock_guard<std::mutex> L(Lock);
    Queue.push_back(std::move(Task));
    ++Pending;
  }
  WorkReady.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> L(Lock);
  AllDone.wait(L, [this] { return Pending == 0; });
  if (FirstError) {
    std::exception_ptr E = std::exchange(FirstError, nullptr);
    L.unlock();
    std::rethrow_exception(E);
  }
}

void ThreadPool::workerLoop() {
  std::unique_lock<std::mutex> L(Lock);
  while (true) {
    WorkReady.wait(L, [this] { return ShuttingDown || !Queue.empty(); });
    // Exit only once shutdown has been requested and the queue is empty:
    // the destructor's contract is to drain, not to abandon.
    if (Queue.empty())
      return;
    std::function<void()> Task = std::move(Queue.front());
    Queue.pop_front();

    L.unlock();
    std::exception_ptr Error;
    try {
      Task();
    } catch (...) {
      Error = std::current_exception();
    }
    Task = nullptr; // release the task's captures outside the lock
    L.lock();

    if (Error && !FirstError)
      FirstError = std::move(Error);
    if (--Pending == 0)
      AllDone.notify_all();
  }
}
