// Tests for the GLSC_DEBUG_LOCKS runtime lock-order checker (util/mutex.h +
// util/lock_checker.h). The violation tests are death tests: the checker's
// whole contract is "abort with both stacks instead of deadlocking". In
// trees compiled without the checker (release default) they skip — the
// CHECK_DEBUG lane in scripts/check.sh runs them for real.
#include <gtest/gtest.h>

#include <thread>

#include "util/mutex.h"

#if defined(GLSC_DEBUG_LOCKS) && GLSC_DEBUG_LOCKS
#include "util/lock_checker.h"
#define SKIP_WITHOUT_LOCK_CHECKER() (void)0
#else
#define SKIP_WITHOUT_LOCK_CHECKER() \
  GTEST_SKIP() << "built without GLSC_DEBUG_LOCKS; see CHECK_DEBUG=1 lane"
#endif

namespace glsc {
namespace {

// Death tests fork; `threadsafe` re-executes the binary so the forked child
// is single-threaded even though other tests here spawn threads.
class LockCheckerDeathTest : public testing::Test {
 protected:
  void SetUp() override {
    testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

TEST(LockCheckerTest, HeldCountTracksLockScopes) {
  SKIP_WITHOUT_LOCK_CHECKER();
#if defined(GLSC_DEBUG_LOCKS) && GLSC_DEBUG_LOCKS
  Mutex a("test.held_count.a");
  Mutex b("test.held_count.b");
  EXPECT_EQ(lockcheck::HeldCount(), 0);
  {
    MutexLock la(a);
    EXPECT_EQ(lockcheck::HeldCount(), 1);
    {
      MutexLock lb(b);
      EXPECT_EQ(lockcheck::HeldCount(), 2);
    }
    EXPECT_EQ(lockcheck::HeldCount(), 1);
  }
  EXPECT_EQ(lockcheck::HeldCount(), 0);
#endif
}

TEST(LockCheckerTest, ConsistentOrderAcrossThreadsIsQuiet) {
  SKIP_WITHOUT_LOCK_CHECKER();
  // A -> B on two different threads: same order, no cycle, no report.
  Mutex a("test.consistent.a");
  Mutex b("test.consistent.b");
  auto lock_in_order = [&] {
    MutexLock la(a);
    MutexLock lb(b);
  };
  lock_in_order();
  std::thread other(lock_in_order);
  other.join();
}

TEST(LockCheckerTest, TryLockRecordsNoOrderingEdge) {
  SKIP_WITHOUT_LOCK_CHECKER();
  // try_lock cannot block, so holding A while try-locking B must NOT outlaw
  // the later B -> A order (the classic try-lock back-off pattern).
  Mutex a("test.trylock.a");
  Mutex b("test.trylock.b");
  {
    MutexLock la(a);
    ASSERT_TRUE(b.TryLock());
    b.Unlock();
  }
  {
    MutexLock lb(b);
    MutexLock la(a);  // would abort if the try-acquisition had made an edge
  }
}

TEST(LockCheckerTest, SchedulerRanksEncodeDocumentedOrder) {
  SKIP_WITHOUT_LOCK_CHECKER();
#if defined(GLSC_DEBUG_LOCKS) && GLSC_DEBUG_LOCKS
  // docs/HARDENING.md: DecodeScheduler worker_mu_[k] is taken BEFORE mu_.
  EXPECT_LT(lockrank::kDecodeWorkerSlot, lockrank::kDecodeScheduler);
#endif
}

TEST_F(LockCheckerDeathTest, LockOrderInversionAborts) {
  SKIP_WITHOUT_LOCK_CHECKER();
  EXPECT_DEATH(
      {
        Mutex a("test.inversion.a");
        Mutex b("test.inversion.b");
        {
          MutexLock la(a);
          MutexLock lb(b);  // records a -> b
        }
        {
          MutexLock lb(b);
          MutexLock la(a);  // b -> a closes the cycle: abort, not deadlock
        }
      },
      "lock-order inversion");
}

TEST_F(LockCheckerDeathTest, RankOrderViolationAborts) {
  SKIP_WITHOUT_LOCK_CHECKER();
  EXPECT_DEATH(
      {
        Mutex scheduler("test.rank.scheduler", 20);
        Mutex worker("test.rank.worker", 10);
        MutexLock ls(scheduler);
        // Acquiring rank 10 while holding rank 20 violates the strictly-
        // increasing rank discipline — caught on the FIRST bad acquisition,
        // no need to ever observe the opposite order.
        MutexLock lw(worker);
      },
      "RANK-ORDER VIOLATION");
}

TEST_F(LockCheckerDeathTest, SelfDeadlockAborts) {
  SKIP_WITHOUT_LOCK_CHECKER();
  EXPECT_DEATH(
      {
        Mutex a("test.self.a");
        a.Lock();
        a.Lock();  // would block forever on std::mutex; the checker aborts
      },
      "SELF-DEADLOCK");
}

TEST_F(LockCheckerDeathTest, ReleaseOfUnheldMutexAborts) {
  SKIP_WITHOUT_LOCK_CHECKER();
  EXPECT_DEATH(
      {
        Mutex a("test.unheld.a");
        a.Unlock();  // UB on std::mutex; the checker turns it into a report
      },
      "RELEASE OF A MUTEX NOT HELD");
}

TEST_F(LockCheckerDeathTest, HeldListOverflowAborts) {
  SKIP_WITHOUT_LOCK_CHECKER();
  // The per-thread held list is a fixed array (it must stay usable during
  // static destruction); running past it reports instead of overrunning.
  EXPECT_DEATH(
      {
        Mutex mus[65];
        for (Mutex& mu : mus) mu.Lock();
      },
      "HELD-LOCK LIST OVERFLOW");
}

}  // namespace
}  // namespace glsc
