#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/check.h"
#include "core/cli.h"
#include "core/stopwatch.h"
#include "core/table.h"
#include "core/thread_pool.h"

namespace fdet::core {
namespace {

TEST(Check, PassingConditionDoesNotThrow) {
  EXPECT_NO_THROW(FDET_CHECK(1 + 1 == 2) << "never evaluated");
}

TEST(Check, FailingConditionThrowsWithMessage) {
  try {
    FDET_CHECK(false) << "context " << 42;
    FAIL() << "expected CheckError";
  } catch (const CheckError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("context 42"), std::string::npos);
    EXPECT_NE(what.find("false"), std::string::npos);
  }
}

TEST(ThreadPool, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1);
    }
  });
  for (const auto& hit : hits) {
    EXPECT_EQ(hit.load(), 1);
  }
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(10,
                        [](std::size_t begin, std::size_t) {
                          if (begin == 0) {
                            throw std::runtime_error("boom");
                          }
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ParallelForHandlesEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, NestedParallelForOnAWorkerRunsInline) {
  // A task already on a worker calls parallel_for on its own pool: the
  // chunks run inline on that worker, in order, instead of queueing
  // behind (or waiting on) the pool's other workers.
  ThreadPool pool(2);
  std::vector<std::size_t> begins;
  bool foreign = false;
  pool.submit([&] {
    const std::thread::id worker = std::this_thread::get_id();
    pool.parallel_for(64, [&](std::size_t begin, std::size_t) {
      foreign = foreign || std::this_thread::get_id() != worker;
      begins.push_back(begin);
    });
  });
  pool.wait_idle();
  EXPECT_FALSE(foreign);
  ASSERT_FALSE(begins.empty());
  EXPECT_EQ(begins.front(), 0u);
  EXPECT_TRUE(std::is_sorted(begins.begin(), begins.end()));
}

TEST(ThreadPool, CallingThreadRunsChunks) {
  // The only worker is blocked until parallel_for returns, so the caller
  // must run every chunk itself (and must not wait for the worker).
  ThreadPool pool(1);
  std::mutex gate;
  std::unique_lock hold(gate);
  pool.submit([&gate] { const std::lock_guard wait(gate); });
  std::atomic<int> on_caller{0};
  std::atomic<int> total{0};
  const std::thread::id caller = std::this_thread::get_id();
  pool.parallel_for(12, [&](std::size_t begin, std::size_t end) {
    total.fetch_add(static_cast<int>(end - begin));
    if (std::this_thread::get_id() == caller) {
      on_caller.fetch_add(static_cast<int>(end - begin));
    }
  });
  hold.unlock();
  pool.wait_idle();
  EXPECT_EQ(total.load(), 12);
  EXPECT_EQ(on_caller.load(), 12);
}

TEST(ThreadPool, RethrowsTheLowestIndexedFailingChunk) {
  // Chunks from 8 on fail; the lowest failing one is slowest to throw, so
  // "first one wins" would report a later chunk than a serial loop.
  ThreadPool pool(4);  // 16 chunks of 4
  try {
    pool.parallel_for(64, [](std::size_t begin, std::size_t) {
      if (begin < 8) {
        return;
      }
      if (begin == 8) {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
      }
      throw std::runtime_error(std::to_string(begin));
    });
    FAIL() << "expected the chunk failure to propagate";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "8");
  }
}

TEST(ThreadPool, ZeroThreadsSizesFromCpuAffinity) {
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(sched_getaffinity(0, sizeof set, &set), 0);
  const ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), static_cast<std::size_t>(CPU_COUNT(&set)));
  EXPECT_EQ(default_pool().thread_count(), pool.thread_count());
}

TEST(Stopwatch, MeasuresNonNegativeMonotonicTime) {
  Stopwatch sw;
  const double t0 = sw.elapsed_seconds();
  const double t1 = sw.elapsed_seconds();
  EXPECT_GE(t0, 0.0);
  EXPECT_GE(t1, t0);
}

TEST(Stopwatch, IsBackedByASteadyClock) {
  // Recorded bench samples feed the regression gate; a wall-clock-backed
  // stopwatch would corrupt them on NTP steps. The static_assert in
  // stopwatch.h enforces this at compile time — here we pin the runtime
  // behavior: reset() restarts from zero and time never runs backwards
  // across many rapid readings.
  Stopwatch sw;
  double last = sw.elapsed_seconds();
  for (int i = 0; i < 1000; ++i) {
    const double now = sw.elapsed_seconds();
    ASSERT_GE(now, last);
    last = now;
  }
  sw.reset();
  EXPECT_LE(sw.elapsed_seconds(), last + 1.0);
}

TEST(Cli, ParsesTypedFlagsInBothForms) {
  Cli cli("test");
  int frames = 8;
  double scale = 1.25;
  bool verbose = false;
  std::string name = "default";
  cli.flag("frames", frames, "");
  cli.flag("scale", scale, "");
  cli.flag("verbose", verbose, "");
  cli.flag("name", name, "");

  const char* argv[] = {"test", "--frames=16", "--scale", "2.5",
                        "--verbose", "--name=abc"};
  ASSERT_TRUE(cli.parse(6, const_cast<char**>(argv)));
  EXPECT_EQ(frames, 16);
  EXPECT_DOUBLE_EQ(scale, 2.5);
  EXPECT_TRUE(verbose);
  EXPECT_EQ(name, "abc");
}

TEST(Cli, RejectsUnknownFlag) {
  Cli cli("test");
  const char* argv[] = {"test", "--nope=1"};
  EXPECT_FALSE(cli.parse(2, const_cast<char**>(argv)));
}

TEST(Cli, RejectsMalformedValue) {
  Cli cli("test");
  int frames = 8;
  cli.flag("frames", frames, "");
  const char* argv[] = {"test", "--frames=abc"};
  EXPECT_FALSE(cli.parse(2, const_cast<char**>(argv)));
}

TEST(Cli, IgnoresBenchmarkFlags) {
  Cli cli("test");
  const char* argv[] = {"test", "--benchmark_filter=all"};
  EXPECT_TRUE(cli.parse(2, const_cast<char**>(argv)));
}

TEST(Cli, UnknownFlagDiagnosticNamesTokenAndSuggestsClosest) {
  Cli cli("test");
  int frames = 8;
  double scale = 1.25;
  cli.flag("frames", frames, "");
  cli.flag("scale", scale, "");
  const char* argv[] = {"test", "--frmaes=16"};
  ASSERT_FALSE(cli.parse(2, const_cast<char**>(argv)));
  EXPECT_NE(cli.last_error().find("--frmaes"), std::string::npos);
  EXPECT_NE(cli.last_error().find("did you mean '--frames'"),
            std::string::npos);
}

TEST(Cli, UnknownFlagWithoutACloseMatchOffersNoSuggestion) {
  Cli cli("test");
  int frames = 8;
  cli.flag("frames", frames, "");
  const char* argv[] = {"test", "--quux=1"};
  ASSERT_FALSE(cli.parse(2, const_cast<char**>(argv)));
  EXPECT_NE(cli.last_error().find("--quux"), std::string::npos);
  EXPECT_EQ(cli.last_error().find("did you mean"), std::string::npos);
}

TEST(Cli, BadValueDiagnosticNamesTokenAndExpectedType) {
  Cli cli("test");
  int frames = 8;
  cli.flag("frames", frames, "");
  const char* argv[] = {"test", "--frames=abc"};
  ASSERT_FALSE(cli.parse(2, const_cast<char**>(argv)));
  EXPECT_NE(cli.last_error().find("'abc'"), std::string::npos);
  EXPECT_NE(cli.last_error().find("expected int"), std::string::npos);
  EXPECT_EQ(frames, 8);  // value untouched on failure
}

TEST(Cli, MissingValueDiagnosticShowsBothAcceptedForms) {
  Cli cli("test");
  double scale = 1.25;
  cli.flag("scale", scale, "");
  const char* argv[] = {"test", "--scale"};
  ASSERT_FALSE(cli.parse(2, const_cast<char**>(argv)));
  EXPECT_NE(cli.last_error().find("needs a double value"), std::string::npos);
  EXPECT_NE(cli.last_error().find("--scale=<double>"), std::string::npos);
  // A flag followed by another flag is also a missing value, not a value.
  const char* argv2[] = {"test", "--scale", "--other"};
  ASSERT_FALSE(cli.parse(3, const_cast<char**>(argv2)));
  EXPECT_NE(cli.last_error().find("needs a double value"), std::string::npos);
}

TEST(Cli, LastErrorClearsOnASubsequentSuccessfulParse) {
  Cli cli("test");
  int frames = 8;
  cli.flag("frames", frames, "");
  const char* bad[] = {"test", "--frames=abc"};
  ASSERT_FALSE(cli.parse(2, const_cast<char**>(bad)));
  EXPECT_FALSE(cli.last_error().empty());
  const char* good[] = {"test", "--frames=12"};
  ASSERT_TRUE(cli.parse(2, const_cast<char**>(good)));
  EXPECT_TRUE(cli.last_error().empty());
  EXPECT_EQ(frames, 12);
}

TEST(Cli, PositionalArgumentDiagnosticNamesTheToken) {
  Cli cli("test");
  const char* argv[] = {"test", "stray"};
  ASSERT_FALSE(cli.parse(2, const_cast<char**>(argv)));
  EXPECT_NE(cli.last_error().find("'stray'"), std::string::npos);
}

TEST(Table, PrintsAlignedColumns) {
  Table table({"name", "value"});
  table.add_row({"alpha", "1.00"});
  table.add_row({"b", "22.50"});
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("22.50"), std::string::npos);
  EXPECT_NE(text.find("-----"), std::string::npos);
}

TEST(Table, RejectsWrongArity) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), CheckError);
}

TEST(Table, MarkdownRenderingEscapesPipes) {
  Table table({"metric", "value"});
  table.add_row({"a|b", "1.5"});
  std::ostringstream out;
  table.print_markdown(out);
  EXPECT_EQ(out.str(), "| metric | value |\n|---|---|\n| a\\|b | 1.5 |\n");
}

TEST(Table, NumFormatsFixedDigits) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

}  // namespace
}  // namespace fdet::core
