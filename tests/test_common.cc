// Unit tests for the common substrate: datetime, text parsing, the fork-join
// workers, and the deterministic RNG.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <latch>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/datetime.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/text.h"
#include "common/thread_pool.h"

namespace symple {
namespace {

// --- datetime -------------------------------------------------------------------

TEST(DateTime, EpochRoundTrip) {
  EXPECT_EQ(FormatDateTime(0), "1970-01-01 00:00:00");
  EXPECT_EQ(ParseDateTime("1970-01-01 00:00:00"), 0);
}

TEST(DateTime, KnownTimestamps) {
  // 2014-01-01 00:00:00 UTC.
  EXPECT_EQ(ParseDateTime("2014-01-01 00:00:00"), 1388534400);
  EXPECT_EQ(FormatDateTime(1388534400), "2014-01-01 00:00:00");
  // 2000-02-29 (leap day in a century leap year).
  const auto leap = ParseDateTime("2000-02-29 12:30:45");
  ASSERT_TRUE(leap.has_value());
  EXPECT_EQ(FormatDateTime(*leap), "2000-02-29 12:30:45");
}

TEST(DateTime, RoundTripSweep) {
  // Hourly sweep across a year boundary and a leap year.
  for (int64_t ts = 1388534400 - 86400 * 400; ts < 1388534400 + 86400 * 3;
       ts += 3607) {
    const std::string text = FormatDateTime(ts);
    const auto back = ParseDateTime(text);
    ASSERT_TRUE(back.has_value()) << text;
    EXPECT_EQ(*back, ts) << text;
  }
}

TEST(DateTime, RejectsMalformedInput) {
  EXPECT_FALSE(ParseDateTime("").has_value());
  EXPECT_FALSE(ParseDateTime("2014-01-01").has_value());
  EXPECT_FALSE(ParseDateTime("2014-01-01T00:00:00").has_value());
  EXPECT_FALSE(ParseDateTime("2014-13-01 00:00:00").has_value());
  EXPECT_FALSE(ParseDateTime("2014-00-01 00:00:00").has_value());
  EXPECT_FALSE(ParseDateTime("2014-02-30 00:00:00").has_value());
  EXPECT_FALSE(ParseDateTime("2015-02-29 00:00:00").has_value());  // not leap
  EXPECT_FALSE(ParseDateTime("2014-01-01 24:00:00").has_value());
  EXPECT_FALSE(ParseDateTime("2014-01-01 00:60:00").has_value());
  EXPECT_FALSE(ParseDateTime("2014-01-01 00:00:61").has_value());
  EXPECT_FALSE(ParseDateTime("2o14-01-01 00:00:00").has_value());
  EXPECT_FALSE(ParseDateTime("2014-01-01 00:00:0x").has_value());
}

TEST(DateTime, CivilConversionsAgree) {
  const CivilTime t{2026, 7, 7, 15, 4, 5};
  const int64_t ts = CivilToUnixSeconds(t);
  EXPECT_EQ(UnixSecondsToCivil(ts), t);
  EXPECT_EQ(FormatDateTime(ts), "2026-07-07 15:04:05");
}

TEST(DateTime, NegativeTimestamps) {
  EXPECT_EQ(FormatDateTime(-1), "1969-12-31 23:59:59");
  EXPECT_EQ(ParseDateTime("1969-12-31 23:59:59"), -1);
}

// --- text -----------------------------------------------------------------------

TEST(FieldCursor, SplitsTabs) {
  FieldCursor cur("a\tbb\t\tccc");
  EXPECT_EQ(cur.Next(), "a");
  EXPECT_EQ(cur.Next(), "bb");
  EXPECT_EQ(cur.Next(), "");
  EXPECT_EQ(cur.Next(), "ccc");
  EXPECT_FALSE(cur.Next().has_value());
}

TEST(FieldCursor, SingleField) {
  FieldCursor cur("only");
  EXPECT_EQ(cur.Next(), "only");
  EXPECT_FALSE(cur.Next().has_value());
}

TEST(FieldCursor, SkipCountsMissing) {
  FieldCursor cur("a\tb");
  EXPECT_TRUE(cur.Skip(2));
  EXPECT_FALSE(cur.Skip(1));
}

TEST(ParseInt64Test, ValidInputs) {
  EXPECT_EQ(ParseInt64("0"), 0);
  EXPECT_EQ(ParseInt64("42"), 42);
  EXPECT_EQ(ParseInt64("-17"), -17);
  EXPECT_EQ(ParseInt64("1388534400"), 1388534400);
}

TEST(ParseInt64Test, InvalidInputs) {
  EXPECT_FALSE(ParseInt64("").has_value());
  EXPECT_FALSE(ParseInt64("-").has_value());
  EXPECT_FALSE(ParseInt64("12a").has_value());
  EXPECT_FALSE(ParseInt64("a12").has_value());
  EXPECT_FALSE(ParseInt64(" 12").has_value());
  EXPECT_FALSE(ParseInt64("1.5").has_value());
}

// --- rng ------------------------------------------------------------------------

TEST(Rng, Deterministic) {
  SplitMix64 a(123);
  SplitMix64 b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, SeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++equal;
    }
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, RangeIsInclusive) {
  SplitMix64 rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.Range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all five values hit
}

TEST(Rng, MixSeedDecorrelatesStreams) {
  EXPECT_NE(MixSeed(1, 0), MixSeed(1, 1));
  EXPECT_EQ(MixSeed(1, 0), MixSeed(1, 0));
}

// --- fork-join workers ------------------------------------------------------------

TEST(RunWorkers, ClaimsEveryIndexOnce) {
  for (const size_t width : {0, 1, 3, 8}) {
    for (const size_t n : {0, 1, 5, 1000}) {
      WorkCursor cursor(n);
      std::vector<std::atomic<int>> claims(n);
      std::vector<std::atomic<int>> runs(std::max<size_t>(width, 1));
      std::thread::id worker0;
      RunWorkers(width, "test stage", [&](size_t w) {
        ++runs[w];
        if (w == 0) {
          worker0 = std::this_thread::get_id();
        }
        for (size_t i; cursor.Next(&i);) {
          ++claims[i];
        }
      });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(claims[i].load(), 1) << "width " << width << " n " << n << " i " << i;
      }
      for (size_t w = 0; w < runs.size(); ++w) {
        EXPECT_EQ(runs[w].load(), 1) << "width " << width << " worker " << w;
      }
      EXPECT_EQ(worker0, std::this_thread::get_id()) << "worker 0 runs on the caller";
    }
  }
}

TEST(RunWorkers, RethrowsOnlyAfterEveryWorkerReturns) {
  std::vector<std::atomic<bool>> finished(4);
  const auto run = [&finished](size_t w) {
    if (w == 2) {
      throw SympleError("worker 2 failed");
    }
    if (w == 3) {
      throw SympleError("worker 3 failed");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    finished[w] = true;
  };
  try {
    RunWorkers(finished.size(), "test stage", run);
    ADD_FAILURE() << "a worker's SympleError was swallowed";
  } catch (const SympleIoError& e) {
    // The lowest failing worker's error, with the stage prefix.
    EXPECT_STREQ(e.what(), "test stage failed: worker 2 failed");
  }
  for (const size_t w : {0, 1}) {
    EXPECT_TRUE(finished[w]) << "worker " << w << " was still running at the rethrow";
  }
  // Any other exception comes back unchanged.
  EXPECT_THROW(RunWorkers(3, "test stage",
                          [](size_t w) {
                            if (w == 1) {
                              throw std::out_of_range("not a SympleError");
                            }
                          }),
               std::out_of_range);
}

size_t ThreadsInProcess() {
  return static_cast<size_t>(
      std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                    std::filesystem::directory_iterator()));
}

TEST(RunWorkers, JoinsEveryThreadBeforeReturning) {
  // A sanitizer runtime may start a helper thread along with the process's
  // first thread, so the count starts after one stage has run.
  RunWorkers(2, "test stage", [](size_t) {});
  const size_t before = ThreadsInProcess();
  for (const size_t width : {1, 8}) {
    // Worker 0 counts once every worker has started, and none returns
    // before it has counted.
    std::latch started(static_cast<ptrdiff_t>(width));
    std::latch counted(1);
    size_t during = 0;
    RunWorkers(width, "test stage", [&](size_t w) {
      started.arrive_and_wait();
      if (w == 0) {
        during = ThreadsInProcess();
        counted.count_down();
      }
      counted.wait();
    });
    EXPECT_EQ(during, before + width - 1) << "width " << width;
    EXPECT_EQ(ThreadsInProcess(), before) << "width " << width;
  }
  // A failed stage joins its threads too.
  EXPECT_THROW(RunWorkers(4, "test stage", [](size_t) { throw SympleError("boom"); }),
               SympleIoError);
  EXPECT_EQ(ThreadsInProcess(), before);
}

}  // namespace
}  // namespace symple
