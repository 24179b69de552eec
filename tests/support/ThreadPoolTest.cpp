//===- tests/support/ThreadPoolTest.cpp -----------------------------------===//

#include "support/ThreadPool.h"

#include <atomic>
#include <chrono>
#include <gtest/gtest.h>
#include <set>
#include <stdexcept>
#include <thread>

using namespace fcc;

namespace {

TEST(ThreadPoolTest, RunsEveryTask) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.threadCount(), 4u);
  std::atomic<int> Count{0};
  for (int I = 0; I != 1000; ++I)
    Pool.submit([&Count] { Count.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Count.load(), 1000);
}

TEST(ThreadPoolTest, ZeroMeansHardwareConcurrency) {
  ThreadPool Pool(0);
  EXPECT_GE(Pool.threadCount(), 1u);
  std::atomic<int> Count{0};
  Pool.submit([&Count] { Count.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Count.load(), 1);
}

TEST(ThreadPoolTest, IdleWorkerRunsTasksPastABusyOne) {
  // Two workers: one sleeps in the first task while the other must run
  // every quick task queued behind it before the sleeper wakes.
  ThreadPool Pool(2);
  std::atomic<int> Count{0};
  std::atomic<int> CountWhenSlowEnded{-1};
  Pool.submit([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    CountWhenSlowEnded.store(Count.load());
  });
  for (int I = 0; I != 200; ++I)
    Pool.submit([&Count] { Count.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Count.load(), 200);
  EXPECT_EQ(CountWhenSlowEnded.load(), 200);
}

TEST(ThreadPoolTest, TasksRunOnMultipleThreads) {
  ThreadPool Pool(4);
  std::mutex Lock;
  std::set<std::thread::id> Ids;
  for (int I = 0; I != 64; ++I)
    Pool.submit([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      std::lock_guard<std::mutex> L(Lock);
      Ids.insert(std::this_thread::get_id());
    });
  Pool.wait();
  EXPECT_GT(Ids.size(), 1u);
}

TEST(ThreadPoolTest, WaitRethrowsFirstTaskException) {
  ThreadPool Pool(2);
  std::atomic<int> Count{0};
  Pool.submit([] { throw std::runtime_error("unit 7 exploded"); });
  for (int I = 0; I != 50; ++I)
    Pool.submit([&Count] { Count.fetch_add(1); });
  EXPECT_THROW(
      {
        try {
          Pool.wait();
        } catch (const std::runtime_error &E) {
          EXPECT_STREQ(E.what(), "unit 7 exploded");
          throw;
        }
      },
      std::runtime_error);
  // Every non-throwing task still ran, and the pool stays usable: the
  // error was cleared by the rethrow.
  EXPECT_EQ(Count.load(), 50);
  Pool.submit([&Count] { Count.fetch_add(1); });
  EXPECT_NO_THROW(Pool.wait());
  EXPECT_EQ(Count.load(), 51);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> Count{0};
  {
    ThreadPool Pool(2);
    for (int I = 0; I != 500; ++I)
      Pool.submit([&Count] { Count.fetch_add(1); });
    // No wait(): shutdown itself must run everything that was submitted.
  }
  EXPECT_EQ(Count.load(), 500);
}

TEST(ThreadPoolTest, SubmitFromWorkerThread) {
  ThreadPool Pool(2);
  std::atomic<int> Count{0};
  for (int I = 0; I != 8; ++I)
    Pool.submit([&] {
      for (int J = 0; J != 4; ++J)
        Pool.submit([&Count] { Count.fetch_add(1); });
    });
  // Destructor drains both generations.
  Pool.wait();
  EXPECT_EQ(Count.load(), 32);
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool Pool(3);
  std::atomic<int> Count{0};
  for (int Batch = 0; Batch != 5; ++Batch) {
    for (int I = 0; I != 40; ++I)
      Pool.submit([&Count] { Count.fetch_add(1); });
    Pool.wait();
    EXPECT_EQ(Count.load(), (Batch + 1) * 40);
  }
}

} // namespace
