// Fault-injection tests for the forked-process engine: crashed, hung,
// truncating and corrupting workers must be killed, reaped, and recovered via
// segment re-execution (bounded retries, then in-process fallback), with
// outputs byte-identical to the sequential engine and no leaked fds or
// zombies.
#include "runtime/process_engine.h"

#include <dirent.h>
#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <gtest/gtest.h>

#include "obs/json.h"
#include "queries/all_queries.h"
#include "runtime/ipc.h"
#include "workloads/github_gen.h"

namespace symple {
namespace {

// Sets SYMPLE_FAULT_SPEC for one test body; restores on scope exit.
class FaultGuard {
 public:
  explicit FaultGuard(const char* spec) { ::setenv("SYMPLE_FAULT_SPEC", spec, 1); }
  ~FaultGuard() { ::unsetenv("SYMPLE_FAULT_SPEC"); }
};

// Peppers the current process with SIGALRM every 5ms, installed WITHOUT
// SA_RESTART so every blocking syscall keeps returning EINTR — the hostile
// environment the ipc.cc EINTR audit defends against. Forked children are
// unaffected (interval timers are not inherited across fork). Restores the
// previous timer and disposition on scope exit.
class AlarmStorm {
 public:
  AlarmStorm() {
    struct sigaction sa = {};
    sa.sa_handler = +[](int) {};
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;  // deliberately no SA_RESTART
    ::sigaction(SIGALRM, &sa, &old_action_);
    struct itimerval timer = {};
    timer.it_interval.tv_usec = 5000;
    timer.it_value.tv_usec = 5000;
    ::setitimer(ITIMER_REAL, &timer, &old_timer_);
  }
  ~AlarmStorm() {
    ::setitimer(ITIMER_REAL, &old_timer_, nullptr);
    ::sigaction(SIGALRM, &old_action_, nullptr);
  }

 private:
  struct sigaction old_action_ = {};
  struct itimerval old_timer_ = {};
};

size_t CountOpenFds() {
  size_t count = 0;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) {
    return 0;
  }
  while (::readdir(dir) != nullptr) {
    ++count;
  }
  ::closedir(dir);
  return count;
}

Dataset SmallGithub() {
  GithubGenParams p;
  p.num_records = 4000;
  p.num_segments = 6;
  p.num_repos = 100;
  p.filler_bytes = 16;
  return GenerateGithubLog(p);
}

EngineOptions ForkedOptions(size_t processes) {
  EngineOptions options;
  options.map_slots = processes;
  return options;
}

TEST(ProcessFault, SpecParsing) {
  EXPECT_FALSE(internal::ParseFaultSpec(nullptr).has_value());
  EXPECT_FALSE(internal::ParseFaultSpec("").has_value());

  const auto crash = internal::ParseFaultSpec("crash:worker=1:frame=3");
  ASSERT_TRUE(crash.has_value());
  EXPECT_EQ(crash->mode, internal::FaultSpec::Mode::kCrash);
  EXPECT_FALSE(crash->all_workers);
  EXPECT_EQ(crash->worker, 1u);
  EXPECT_EQ(crash->frame, 3u);

  const auto all = internal::ParseFaultSpec("hang:worker=*:frame=0");
  ASSERT_TRUE(all.has_value());
  EXPECT_EQ(all->mode, internal::FaultSpec::Mode::kHang);
  EXPECT_TRUE(all->all_workers);

  EXPECT_THROW(internal::ParseFaultSpec("explode:worker=1:frame=0"), SympleError);
  EXPECT_THROW(internal::ParseFaultSpec("crash:frame=0"), SympleError);
  EXPECT_THROW(internal::ParseFaultSpec("crash:worker=x:frame=0"), SympleError);
  EXPECT_THROW(internal::ParseFaultSpec("crash:worker=1"), SympleError);
}

TEST(ProcessFault, WorkerCrashMidStreamRecovers) {
  const Dataset data = SmallGithub();
  const auto seq = RunSequential<G1OnlyPushes>(data);
  const auto threaded = RunSymple<G1OnlyPushes>(data);

  FaultGuard fault("crash:worker=1:frame=1");
  const EngineOptions options = ForkedOptions(3);
  const auto forked = RunSympleForked<G1OnlyPushes>(data, options);
  EXPECT_TRUE(forked.outputs == seq.outputs);
  EXPECT_GE(forked.stats.worker_crashes, 1u);
  EXPECT_GE(forked.stats.worker_retries, 1u);
  EXPECT_EQ(forked.stats.fallback_segments, 0u);
  // Partial segments were discarded and re-executed exactly once: the byte
  // accounting must match the threaded engine's (same wire format), and the
  // crashed worker's segments count once, through the respawned worker.
  EXPECT_EQ(forked.stats.shuffle_bytes, threaded.stats.shuffle_bytes);
  EXPECT_EQ(forked.stats.parsed_records, seq.stats.parsed_records);
  EXPECT_EQ(forked.stats.summaries, threaded.stats.summaries);

  const auto forked_mr = RunBaselineForked<G1OnlyPushes>(data, options);
  EXPECT_TRUE(forked_mr.outputs == seq.outputs);
  EXPECT_GE(forked_mr.stats.worker_retries, 1u);
}

// The lost-map-output matrix: every pipe fault that loses a worker's output,
// on both forked engines, for one worker and for every spawn. Each row must
// re-execute the lost segments — in a respawned worker, or in-process once
// the lineage's retries are spent — so the output matches the oracle, nothing
// degrades to concrete replay, and each record is parsed into the totals
// exactly once. truncate exits 0 after half a frame and corrupt keeps
// running, so the parent must find both losses in the stream itself, not in
// the exit status.
TEST(ProcessFault, LostMapOutputIsReExecuted) {
  using Query = G1OnlyPushes;
  const Dataset data = SmallGithub();
  const auto seq = RunSequential<Query>(data);
  const auto threaded_rows = RunBaselineMapReduce<Query>(data);
  const auto threaded_summaries = RunSymple<Query>(data);
  struct Engine {
    const char* name;
    RunResult<Query> (*run)(const Dataset&, const EngineOptions&);
    const EngineStats& threaded;
  };
  const Engine engines[] = {
      {"mapreduce-forked", &RunBaselineForked<Query>, threaded_rows.stats},
      {"symple-forked", &RunSympleForked<Query>, threaded_summaries.stats},
  };
  const size_t processes = 3;

  const size_t fds_before = CountOpenFds();
  for (const Engine& engine : engines) {
    for (const std::string mode : {"crash", "truncate", "corrupt"}) {
      for (const bool every_spawn : {false, true}) {
        const std::string spec =
            mode + (every_spawn ? ":worker=*:frame=0" : ":worker=1:frame=1");
        SCOPED_TRACE(std::string(engine.name) + " " + spec);
        FaultGuard fault(spec.c_str());
        EngineOptions options = ForkedOptions(processes);
        if (every_spawn) {
          options.worker_retry_limit = 1;
        }
        const auto run = engine.run(data, options);
        EXPECT_TRUE(run.outputs == seq.outputs);
        EXPECT_EQ(run.stats.degraded_segments, 0u);
        EXPECT_GE(run.stats.worker_crashes, 1u);
        EXPECT_EQ(run.stats.parsed_records, seq.stats.parsed_records);
        if (every_spawn) {
          EXPECT_EQ(run.stats.fallback_segments, data.segments.size());
        } else {
          EXPECT_GE(run.stats.worker_retries, 1u);
          EXPECT_EQ(run.stats.fallback_segments, 0u);
          // Same wire format, and the failed worker's segments count once,
          // through its replacement.
          EXPECT_EQ(run.stats.shuffle_bytes, engine.threaded.shuffle_bytes);
        }
        if (mode == "corrupt") {
          EXPECT_GE(run.stats.wire_corrupt_frames, 1u);
        }
      }
    }
  }
  EXPECT_EQ(CountOpenFds(), fds_before);
  // Every worker was reaped: no zombies left behind.
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

TEST(ProcessFault, WorkerHangRecoversViaTimeout) {
  const Dataset data = SmallGithub();
  const auto seq = RunSequential<G3PullWindowOps>(data);

  FaultGuard fault("hang:worker=0:frame=1");
  EngineOptions options = ForkedOptions(3);
  options.worker_timeout_ms = 250;
  const auto forked = RunSympleForked<G3PullWindowOps>(data, options);
  EXPECT_TRUE(forked.outputs == seq.outputs);
  EXPECT_GE(forked.stats.worker_timeouts, 1u);
  EXPECT_GE(forked.stats.worker_retries, 1u);
}

TEST(ProcessFault, PollWithDeadlineSurvivesEintrStorm) {
  // A 5ms EINTR cadence against an 80ms deadline: recomputing the remaining
  // wait from the absolute deadline expires on time, while restarting the
  // relative timeout after each EINTR (the old bug) never expires at all.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  AlarmStorm storm;
  struct pollfd pfd = {};
  pfd.fd = fds[0];
  pfd.events = POLLIN;
  const auto start = std::chrono::steady_clock::now();
  const int rc =
      internal::PollWithDeadline(&pfd, 1, start + std::chrono::milliseconds(80));
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  EXPECT_EQ(rc, 0);
  EXPECT_GE(elapsed_ms, 78);    // genuinely waited out the deadline
  EXPECT_LT(elapsed_ms, 5000);  // and EINTR never restarted the full wait
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ProcessFault, DrainLoopSurvivesEintrStorm) {
  // The whole forked pipeline — poll drain, frame reads, waitpid reaping,
  // retry backoff sleeps — under constant signal interruption, with a hung
  // worker forcing the timeout path to actually fire. The timeout must still
  // trigger (a restarted relative wait would push it out forever).
  const Dataset data = SmallGithub();
  const auto seq = RunSequential<G3PullWindowOps>(data);

  FaultGuard fault("hang:worker=0:frame=1");
  AlarmStorm storm;
  EngineOptions options = ForkedOptions(3);
  options.worker_timeout_ms = 250;
  const auto forked = RunSympleForked<G3PullWindowOps>(data, options);
  EXPECT_TRUE(forked.outputs == seq.outputs);
  EXPECT_GE(forked.stats.worker_timeouts, 1u);
}

TEST(ProcessFault, TruncatedStreamRecovers) {
  // truncate exits 0 after half a frame: the parent must detect the
  // mid-frame EOF from the stream itself, not from the exit status.
  const Dataset data = SmallGithub();
  const auto seq = RunSequential<G2OpsBeforeDelete>(data);

  FaultGuard fault("truncate:worker=2:frame=1");
  const EngineOptions options = ForkedOptions(3);
  const auto forked_mr = RunBaselineForked<G2OpsBeforeDelete>(data, options);
  EXPECT_TRUE(forked_mr.outputs == seq.outputs);
  EXPECT_GE(forked_mr.stats.worker_crashes, 1u);
  EXPECT_GE(forked_mr.stats.worker_retries, 1u);
}

TEST(ProcessFault, RepeatedCrashesFallBackInProcess) {
  // Every spawn (including retries) crashes before its first frame; after the
  // retry budget every segment must be executed in-process, still correctly.
  const Dataset data = SmallGithub();
  const auto seq = RunSequential<G1OnlyPushes>(data);

  FaultGuard fault("crash:worker=*:frame=0");
  EngineOptions options = ForkedOptions(2);
  options.worker_retry_limit = 1;
  const auto forked = RunSympleForked<G1OnlyPushes>(data, options);
  EXPECT_TRUE(forked.outputs == seq.outputs);
  EXPECT_EQ(forked.stats.fallback_segments, data.segments.size());
  // The fallback runs the threaded morsel loop, whose per-task counters fold
  // into the run's stats.
  EXPECT_EQ(forked.stats.parsed_records, seq.stats.parsed_records);
  // Two initial workers, one respawn each.
  EXPECT_EQ(forked.stats.worker_retries, 2u);
  EXPECT_EQ(forked.stats.worker_crashes, 4u);
}

TEST(ProcessFault, FallbackSizesMorselsFromTheIndex) {
  // Four equal segments over two workers: each lineage falls back with two
  // segments of the same record count, so the run's morsel target does not
  // depend on which lineage falls back last. The byte estimate the index
  // replaced (size / 64 + 1 per segment) resolves 2048 here, not 2500.
  Dataset data;
  for (int s = 0; s < 4; ++s) {
    std::string seg;
    for (int r = 0; r < 20000; ++r) {
      seg += "t\t" + std::to_string((s * 20000 + r) % 97) + "\t0\n";
    }
    data.segments.push_back(std::move(seg));
  }
  const auto seq = RunSequential<R1Impressions>(data);

  FaultGuard fault("crash:worker=*:frame=0");
  EngineOptions options = ForkedOptions(2);
  options.worker_retry_limit = 0;  // straight to in-process fallback
  const auto forked = RunSympleForked<R1Impressions>(data, options);
  EXPECT_TRUE(forked.outputs == seq.outputs);
  EXPECT_EQ(forked.stats.fallback_segments, data.segments.size());
  const uint64_t pending_records = data.TotalRecords() / 2;
  EXPECT_EQ(forked.stats.morsel_target_records,
            internal::ResolveMorselRecords(0, pending_records, options.map_slots));
  EXPECT_EQ(forked.stats.morsel_target_records, 2500u);
  EXPECT_EQ(forked.stats.input_records, data.TotalRecords());
}

TEST(ProcessFault, NoFdLeaksOrZombiesAfterFailures) {
  const Dataset data = SmallGithub();
  // Warm up lazily-created fds (e.g. test infrastructure) before baselining.
  { FaultGuard fault("crash:worker=0:frame=1");
    RunSympleForked<G1OnlyPushes>(data, ForkedOptions(3)); }

  const size_t fds_before = CountOpenFds();
  {
    FaultGuard fault("crash:worker=1:frame=1");
    const auto forked = RunSympleForked<G1OnlyPushes>(data, ForkedOptions(3));
    EXPECT_GE(forked.stats.worker_crashes, 1u);
    EXPECT_GE(forked.stats.worker_retries, 1u);
  }
  {
    FaultGuard fault("truncate:worker=*:frame=0");
    EngineOptions options = ForkedOptions(2);
    options.worker_retry_limit = 0;  // straight to in-process fallback
    const auto forked = RunBaselineForked<G1OnlyPushes>(data, options);
    EXPECT_EQ(forked.stats.fallback_segments, data.segments.size());
  }
  EXPECT_EQ(CountOpenFds(), fds_before);
  // Every worker was reaped: no zombies left behind.
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

TEST(ProcessFault, RunReportRecordsRetries) {
  const Dataset data = SmallGithub();
  FaultGuard fault("crash:worker=1:frame=1");
  EngineOptions options = ForkedOptions(3);
  obs::RunObserver observer("symple-forked");
  options.observer = &observer;
  const auto forked = RunSympleForked<G1OnlyPushes>(data, options);
  ASSERT_GE(forked.stats.worker_retries, 1u);

  const obs::RunReport report = MakeRunReport("G1", "symple-forked", options,
                                              forked.stats, &observer);
  EXPECT_EQ(report.totals.worker_retries, forked.stats.worker_retries);
  EXPECT_GE(report.worker_failures, 1u);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"worker_retries\":" +
                      std::to_string(forked.stats.worker_retries)),
            std::string::npos);
  EXPECT_NE(json.find("\"worker_failures\":"), std::string::npos);
  EXPECT_EQ(json.find("\"worker_retries\":0,"), std::string::npos);
}

TEST(ProcessFault, FaultFreeRunReportsZeroRetries) {
  const Dataset data = SmallGithub();
  const auto seq = RunSequential<G1OnlyPushes>(data);
  const auto forked = RunSympleForked<G1OnlyPushes>(data, ForkedOptions(3));
  EXPECT_TRUE(forked.outputs == seq.outputs);
  EXPECT_EQ(forked.stats.worker_retries, 0u);
  EXPECT_EQ(forked.stats.worker_timeouts, 0u);
  EXPECT_EQ(forked.stats.worker_crashes, 0u);
  EXPECT_EQ(forked.stats.fallback_segments, 0u);
}

}  // namespace
}  // namespace symple
