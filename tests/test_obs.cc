// Unit tests for the observability subsystem: histogram bucketing edge cases,
// concurrent counter increments from ThreadPool workers, span recording and
// the ring cap, and golden JSON output of the writer/reporter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "queries/all_queries.h"
#include "runtime/engine.h"
#include "runtime/process_engine.h"

namespace symple {
namespace obs {
namespace {

// --- histogram bucketing --------------------------------------------------------

TEST(HistogramBucket, EdgeCases) {
  EXPECT_EQ(HistogramBucket(0), 0u);
  EXPECT_EQ(HistogramBucket(1), 1u);
  EXPECT_EQ(HistogramBucket(2), 2u);
  EXPECT_EQ(HistogramBucket(3), 2u);
  EXPECT_EQ(HistogramBucket(4), 3u);
  EXPECT_EQ(HistogramBucket(7), 3u);
  EXPECT_EQ(HistogramBucket(8), 4u);
  EXPECT_EQ(HistogramBucket((1ull << 20) - 1), 20u);
  EXPECT_EQ(HistogramBucket(1ull << 20), 21u);
  EXPECT_EQ(HistogramBucket(~0ull), 64u);
  EXPECT_LT(HistogramBucket(~0ull), kHistogramBuckets);
}

TEST(HistogramBucket, UpperBoundsBracketTheirBucket) {
  for (size_t b = 1; b < 64; ++b) {
    const uint64_t upper = HistogramBucketUpper(b);
    EXPECT_EQ(HistogramBucket(upper), b);
    EXPECT_EQ(HistogramBucket(upper + 1), b + 1);
  }
  EXPECT_EQ(HistogramBucketUpper(0), 0u);
  EXPECT_EQ(HistogramBucketUpper(64), ~0ull);
}

TEST(HistogramSnapshot, RecordTracksExactMinMaxSumCount) {
  HistogramSnapshot h;
  for (uint64_t v : {5ull, 0ull, 1000ull, 17ull}) {
    h.Record(v);
  }
  EXPECT_EQ(h.count, 4u);
  EXPECT_EQ(h.sum, 1022u);
  EXPECT_EQ(h.min, 0u);
  EXPECT_EQ(h.max, 1000u);
  EXPECT_DOUBLE_EQ(h.Mean(), 255.5);
}

TEST(HistogramSnapshot, QuantilesAreBucketUpperBoundsClampedByMax) {
  HistogramSnapshot h;
  for (int i = 0; i < 99; ++i) {
    h.Record(10);  // bucket [8,15]
  }
  h.Record(1000);
  EXPECT_EQ(h.Quantile(0.5), 15u);   // upper bound of 10's bucket
  EXPECT_EQ(h.Quantile(0.95), 15u);  // the 96th sample is still a 10
  EXPECT_EQ(h.Quantile(1.0), 1000u);
  EXPECT_EQ(h.Quantile(0.0), 10u);  // min

  HistogramSnapshot empty;
  EXPECT_EQ(empty.Quantile(0.5), 0u);

  HistogramSnapshot one;
  one.Record(42);
  // A single sample: every quantile is that sample's bucket clamped by max.
  EXPECT_EQ(one.Quantile(0.5), 42u);
  EXPECT_EQ(one.Quantile(0.95), 42u);
}

TEST(HistogramSnapshot, MergeCombinesCountsAndExtremes) {
  HistogramSnapshot a;
  a.Record(1);
  a.Record(100);
  HistogramSnapshot b;
  b.Record(7);
  HistogramSnapshot empty;
  a.Merge(b);
  a.Merge(empty);
  EXPECT_EQ(a.count, 3u);
  EXPECT_EQ(a.sum, 108u);
  EXPECT_EQ(a.min, 1u);
  EXPECT_EQ(a.max, 100u);

  HistogramSnapshot into_empty;
  into_empty.Merge(a);
  EXPECT_EQ(into_empty.min, 1u);
  EXPECT_EQ(into_empty.max, 100u);
}

// --- concurrent metrics ---------------------------------------------------------

TEST(Metrics, CounterSumsConcurrentIncrementsFromThreadPool) {
  Counter counter;
  constexpr int kTasks = 64;
  constexpr int kPerTask = 10000;
  {
    ThreadPool pool(8);
    for (int t = 0; t < kTasks; ++t) {
      pool.Submit([&counter] {
        for (int i = 0; i < kPerTask; ++i) {
          counter.Increment();
        }
      });
    }
    pool.Wait();
  }
  EXPECT_EQ(counter.Value(), static_cast<uint64_t>(kTasks) * kPerTask);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(Metrics, HistogramScrapeSeesAllConcurrentRecords) {
  Histogram hist;
  constexpr int kTasks = 32;
  constexpr int kPerTask = 2000;
  {
    ThreadPool pool(8);
    for (int t = 0; t < kTasks; ++t) {
      pool.Submit([&hist, t] {
        for (int i = 0; i < kPerTask; ++i) {
          hist.Record(static_cast<uint64_t>(t) + 1);
        }
      });
    }
    pool.Wait();
  }
  const HistogramSnapshot snap = hist.Scrape();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kTasks) * kPerTask);
  EXPECT_EQ(snap.min, 1u);
  EXPECT_EQ(snap.max, static_cast<uint64_t>(kTasks));
}

TEST(Metrics, RegistryReturnsStableHandlesAndScrapes) {
  MetricsRegistry registry;
  Counter* c1 = registry.GetCounter("requests");
  Counter* c2 = registry.GetCounter("requests");
  EXPECT_EQ(c1, c2);
  c1->Add(3);
  registry.GetGauge("depth")->Set(-7);
  registry.GetHistogram("latency")->Record(12);

  const MetricsRegistry::Snapshot snap = registry.Scrape();
  EXPECT_EQ(snap.counters.at("requests"), 3u);
  EXPECT_EQ(snap.gauges.at("depth"), -7);
  EXPECT_EQ(snap.histograms.at("latency").count, 1u);

  registry.ResetAll();
  const MetricsRegistry::Snapshot zeroed = registry.Scrape();
  EXPECT_EQ(zeroed.counters.at("requests"), 0u);
  EXPECT_EQ(zeroed.histograms.at("latency").count, 0u);
}

// --- tracer ---------------------------------------------------------------------

TraceSpan MakeSpan(const std::string& name, uint32_t tid, double start, double dur) {
  TraceSpan s;
  s.name = name;
  s.category = "test";
  s.tid = tid;
  s.start_us = start;
  s.duration_us = dur;
  return s;
}

TEST(Tracer, RecordsSpansAndNesting) {
  Tracer tracer;
  // An outer span enclosing two inner spans on the same lane — the Chrome
  // trace format nests complete events by time containment.
  tracer.Record(MakeSpan("outer", 1, 0.0, 100.0));
  tracer.Record(MakeSpan("inner_a", 1, 10.0, 20.0));
  tracer.Record(MakeSpan("inner_b", 1, 50.0, 30.0));

  const std::vector<TraceSpan> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "outer");
  // Both inner spans are contained in the outer one.
  for (size_t i = 1; i < 3; ++i) {
    EXPECT_GE(spans[i].start_us, spans[0].start_us);
    EXPECT_LE(spans[i].start_us + spans[i].duration_us,
              spans[0].start_us + spans[0].duration_us);
  }
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Tracer, RingCapDropsOldestAndCounts) {
  Tracer tracer(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    tracer.Record(MakeSpan("s" + std::to_string(i), 0, i, 1.0));
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const std::vector<TraceSpan> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest-first order over the surviving (most recent) spans.
  EXPECT_EQ(spans.front().name, "s6");
  EXPECT_EQ(spans.back().name, "s9");
}

TEST(Tracer, ScopedSpanMeasuresAndRecords) {
  Tracer tracer;
  {
    ScopedSpan span(&tracer, "work", "test", 0, 3);
    span.AddArg("items", 7);
  }
  const std::vector<TraceSpan> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "work");
  EXPECT_EQ(spans[0].tid, 3u);
  ASSERT_EQ(spans[0].args.size(), 1u);
  EXPECT_EQ(spans[0].args[0].first, "items");
  EXPECT_EQ(spans[0].args[0].second, 7u);
  EXPECT_GE(spans[0].duration_us, 0.0);
}

TEST(Tracer, ChromeTraceJsonIsLoadableShape) {
  Tracer tracer;
  tracer.NameProcess(1, "engine \"A\"");  // exercises escaping
  TraceSpan s = MakeSpan("map_task", 2, 5.0, 10.0);
  s.pid = 1;
  s.args.emplace_back("records", 123);
  tracer.Record(std::move(s));

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(tracer.ToChromeTraceJson(), &doc, &error)) << error;
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array.size(), 2u);  // metadata + span

  const JsonValue& meta = events->array[0];
  EXPECT_EQ(meta.Find("ph")->string_value, "M");
  EXPECT_EQ(meta.Find("args")->Find("name")->string_value, "engine \"A\"");

  const JsonValue& span = events->array[1];
  EXPECT_EQ(span.Find("ph")->string_value, "X");
  EXPECT_EQ(span.Find("name")->string_value, "map_task");
  EXPECT_DOUBLE_EQ(span.Find("ts")->number, 5.0);
  EXPECT_DOUBLE_EQ(span.Find("dur")->number, 10.0);
  EXPECT_DOUBLE_EQ(span.Find("args")->Find("records")->number, 123.0);
}

// --- JSON writer / parser -------------------------------------------------------

TEST(Json, WriterGoldenOutput) {
  JsonWriter w;
  w.BeginObject();
  w.KV("name", "a\"b\\c\n");
  w.KV("count", static_cast<uint64_t>(42));
  w.KV("delta", static_cast<int64_t>(-7));
  w.KV("ratio", 2.5);
  w.KV("whole", 3.0);
  w.KV("flag", true);
  w.Key("list").BeginArray().Uint(1).Uint(2).Uint(3).EndArray();
  w.Key("empty").BeginObject().EndObject();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"name\":\"a\\\"b\\\\c\\n\",\"count\":42,\"delta\":-7,"
            "\"ratio\":2.500,\"whole\":3,\"flag\":true,"
            "\"list\":[1,2,3],\"empty\":{}}");
}

TEST(Json, ParserRoundTripsWriterOutput) {
  JsonWriter w;
  w.BeginObject();
  w.KV("s", "hello");
  w.Key("nested").BeginObject().KV("x", static_cast<uint64_t>(9)).EndObject();
  w.Key("arr").BeginArray().Bool(false).Null().Double(1.5).EndArray();
  w.EndObject();

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(w.str(), &doc, &error)) << error;
  EXPECT_EQ(doc.Find("s")->string_value, "hello");
  EXPECT_DOUBLE_EQ(doc.Find("nested")->Find("x")->number, 9.0);
  ASSERT_EQ(doc.Find("arr")->array.size(), 3u);
  EXPECT_EQ(doc.Find("arr")->array[0].type, JsonValue::Type::kBool);
  EXPECT_EQ(doc.Find("arr")->array[1].type, JsonValue::Type::kNull);
  EXPECT_DOUBLE_EQ(doc.Find("arr")->array[2].number, 1.5);
}

TEST(Json, ParserRejectsMalformedInput) {
  JsonValue doc;
  EXPECT_FALSE(ParseJson("{", &doc));
  EXPECT_FALSE(ParseJson("{\"a\":}", &doc));
  EXPECT_FALSE(ParseJson("[1,2", &doc));
  EXPECT_FALSE(ParseJson("\"unterminated", &doc));
  EXPECT_FALSE(ParseJson("{} trailing", &doc));
  EXPECT_FALSE(ParseJson("nul", &doc));
  std::string error;
  EXPECT_FALSE(ParseJson("[1,,2]", &doc, &error));
  EXPECT_FALSE(error.empty());
}

// --- run reporter ---------------------------------------------------------------

TEST(RunReport, JsonCarriesObservedTasks) {
  Tracer tracer;
  RunObserver observer("symple", &tracer, /*trace_pid=*/3);

  MapTaskObs map_task;
  map_task.mapper_id = 0;
  map_task.start_us = 0;
  map_task.end_us = 1500;
  map_task.cpu_ms = 1.2;
  map_task.records = 100;
  map_task.parsed = 80;
  map_task.packets = 4;
  map_task.bytes = 512;
  map_task.summaries = 4;
  map_task.summary_paths = 9;
  map_task.paths_per_group.Record(3);
  map_task.summaries_per_group.Record(1);
  observer.OnMapTask(map_task);
  map_task.mapper_id = 1;
  map_task.end_us = 2500;
  observer.OnMapTask(map_task);

  ReduceTaskObs reduce_task;
  reduce_task.reducer_id = 0;
  reduce_task.start_us = 3000;
  reduce_task.end_us = 3400;
  reduce_task.groups = 10;
  reduce_task.packets = 8;
  observer.OnReduceTask(reduce_task);

  RunReport report;
  observer.FillReport(&report);
  report.query = "G1";
  report.config = {{"map_slots", "4"}};
  report.totals.total_wall_ms = 5.0;
  report.totals.exploration.runs = 160;

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(report.ToJson(), &doc, &error)) << error;
  EXPECT_EQ(doc.Find("schema")->string_value, "symple.run_report/1");
  EXPECT_EQ(doc.Find("query")->string_value, "G1");
  EXPECT_EQ(doc.Find("engine")->string_value, "symple");
  EXPECT_EQ(doc.Find("config")->Find("map_slots")->string_value, "4");
  EXPECT_DOUBLE_EQ(doc.Find("exploration")->Find("runs")->number, 160.0);

  const JsonValue* map_tasks = doc.Find("map_tasks");
  ASSERT_NE(map_tasks, nullptr);
  EXPECT_DOUBLE_EQ(map_tasks->Find("count")->number, 2.0);
  const JsonValue* wall = map_tasks->Find("wall_us");
  ASSERT_NE(wall, nullptr);
  EXPECT_DOUBLE_EQ(wall->Find("count")->number, 2.0);
  EXPECT_DOUBLE_EQ(wall->Find("max")->number, 2500.0);
  // p50/p95 are bucket estimates: within [exact value, 2x].
  EXPECT_GE(wall->Find("p50")->number, 1500.0);
  EXPECT_LE(wall->Find("p50")->number, 2500.0);

  EXPECT_DOUBLE_EQ(doc.Find("reduce_tasks")->Find("count")->number, 1.0);
  EXPECT_DOUBLE_EQ(
      doc.Find("groups")->Find("paths_per_group")->Find("count")->number, 2.0);

  // Spans landed in the tracer on the observer's pid lane.
  const std::vector<TraceSpan> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 3u);
  for (const TraceSpan& s : spans) {
    EXPECT_EQ(s.pid, 3u);
  }
}

// Regression: reduce workers that processed zero groups must not be reported.
// A single-group query with more reduce slots than groups used to emit one
// misleading 0-duration reduce span per idle slot.
TEST(RunReport, IdleReduceTasksAreSuppressed) {
  std::vector<std::vector<std::string>> chunks(4);
  for (auto& chunk : chunks) {
    for (int i = 0; i < 50; ++i) {
      chunk.push_back(std::to_string(i));
    }
  }
  const Dataset data = DatasetFromLines(chunks);  // MaxQuery: one global group

  Tracer tracer;
  RunObserver observer("symple", &tracer, 1);
  EngineOptions options;
  options.reduce_slots = 8;  // 7 of 8 slots have nothing to do
  options.observer = &observer;
  const auto sym = RunSymple<MaxQuery>(data, options);
  ASSERT_EQ(sym.stats.groups, 1u);

  RunReport report;
  observer.FillReport(&report);
  EXPECT_EQ(report.reduce_task_count, 1u);
  EXPECT_EQ(report.reduce_groups.count, 1u);
  EXPECT_EQ(report.reduce_groups.min, 1u);  // no zero-group tasks folded in
  size_t reduce_spans = 0;
  for (const TraceSpan& span : tracer.Spans()) {
    reduce_spans += span.name == "reduce_task";
  }
  EXPECT_EQ(reduce_spans, 1u);
}

// Regression (forked engines): worker map spans are recorded by the *parent*
// after reaping, so they must land on the parent tracer's epoch and the
// observer's pid lane, with one tid lane per worker — never on a child-local
// clock (which would place spans before the epoch or beyond "now").
TEST(RunReport, ForkedWorkerSpansUseParentEpochAndLanes) {
  std::vector<std::vector<std::string>> chunks(6);
  for (size_t s = 0; s < chunks.size(); ++s) {
    for (int i = 0; i < 200; ++i) {
      chunks[s].push_back(std::to_string(static_cast<int>(s) * 1000 + i));
    }
  }
  const Dataset data = DatasetFromLines(chunks);

  Tracer tracer;
  RunObserver observer("symple_forked", &tracer, /*trace_pid=*/4);
  EngineOptions options;
  options.map_slots = 2;
  options.observer = &observer;
  const auto forked = RunSympleForked<MaxQuery>(data, options);
  ASSERT_FALSE(forked.outputs.empty());

  const double now_us = tracer.NowUs();
  size_t map_spans = 0;
  std::vector<uint32_t> worker_tids;
  for (const TraceSpan& s : tracer.Spans()) {
    if (s.name != "map_task") {
      continue;
    }
    ++map_spans;
    EXPECT_EQ(s.pid, 4u);
    // Parent-epoch normalization: inside [0, now] on the parent clock.
    EXPECT_GE(s.start_us, 0.0);
    EXPECT_GE(s.duration_us, 0.0);
    EXPECT_LE(s.start_us + s.duration_us, now_us);
    if (std::find(worker_tids.begin(), worker_tids.end(), s.tid) ==
        worker_tids.end()) {
      worker_tids.push_back(s.tid);
    }
  }
  // One span per worker (2 slots, 6 segments => both workers busy), each on
  // its own tid lane.
  EXPECT_EQ(map_spans, 2u);
  EXPECT_EQ(worker_tids.size(), 2u);

  // The reaped workers' rusage feeds the map-task maxrss histogram.
  RunReport report;
  observer.FillReport(&report);
  EXPECT_EQ(report.worker_maxrss_kb.count, 2u);
  EXPECT_GT(report.worker_maxrss_kb.min, 0u);
}

// Trace-export validation: run all five engines against one tracer, parse the
// emitted Chrome trace with the obs JSON reader, and assert every complete
// event is numerically sane — no NaN, no negative duration, nothing outside
// [epoch, now].
TEST(RunReport, AllEngineTraceEventsAreSane) {
  std::vector<std::vector<std::string>> chunks(6);
  for (size_t s = 0; s < chunks.size(); ++s) {
    for (int i = 0; i < 200; ++i) {
      chunks[s].push_back(std::to_string(static_cast<int>(s) * 1000 + i));
    }
  }
  const Dataset data = DatasetFromLines(chunks);

  Tracer tracer;
  {
    RunObserver observer("sequential", &tracer, 1);
    EngineOptions o;
    o.observer = &observer;
    RunSequential<MaxQuery>(data, o);
  }
  {
    RunObserver observer("mapreduce", &tracer, 2);
    EngineOptions o;
    o.observer = &observer;
    RunBaselineMapReduce<MaxQuery>(data, o);
  }
  {
    RunObserver observer("symple", &tracer, 3);
    EngineOptions o;
    o.observer = &observer;
    RunSymple<MaxQuery>(data, o);
  }
  {
    RunObserver observer("symple_forked", &tracer, 4);
    EngineOptions o;
    o.map_slots = 2;
    o.observer = &observer;
    RunSympleForked<MaxQuery>(data, o);
  }
  {
    RunObserver observer("mapreduce_forked", &tracer, 5);
    EngineOptions o;
    o.map_slots = 2;
    o.observer = &observer;
    RunBaselineForked<MaxQuery>(data, o);
  }

  const double now_us = tracer.NowUs();
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(tracer.ToChromeTraceJson(), &doc, &error)) << error;
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  size_t complete_events = 0;
  std::vector<bool> engine_lane_seen(6, false);
  for (const JsonValue& e : events->array) {
    const JsonValue* ph = e.Find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string_value != "X") {
      continue;
    }
    ++complete_events;
    const JsonValue* ts = e.Find("ts");
    const JsonValue* dur = e.Find("dur");
    const JsonValue* pid = e.Find("pid");
    ASSERT_NE(ts, nullptr);
    ASSERT_NE(dur, nullptr);
    ASSERT_NE(pid, nullptr);
    ASSERT_TRUE(ts->is_number());
    ASSERT_TRUE(dur->is_number());
    EXPECT_FALSE(std::isnan(ts->number));
    EXPECT_FALSE(std::isnan(dur->number));
    EXPECT_GE(ts->number, 0.0);
    EXPECT_GE(dur->number, 0.0);
    EXPECT_LE(ts->number + dur->number, now_us);
    const size_t lane = static_cast<size_t>(pid->number);
    ASSERT_GE(lane, 1u);
    ASSERT_LE(lane, 5u);
    engine_lane_seen[lane] = true;
  }
  EXPECT_GT(complete_events, 0u);
  for (size_t lane = 1; lane <= 5; ++lane) {
    EXPECT_TRUE(engine_lane_seen[lane]) << "no spans on engine lane " << lane;
  }
}

TEST(RunReport, ObsEnabledReflectsEnvironment) {
  // The test binary runs without SYMPLE_OBS_DISABLE; the switch is read once
  // at startup, so we can only assert the default here. bench_smoke covers
  // the disabled path by self-skipping.
  EXPECT_TRUE(Enabled());
}

}  // namespace
}  // namespace obs
}  // namespace symple
