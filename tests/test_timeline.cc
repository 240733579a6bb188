// Run-analyzer tests: BuildRunTimeline on synthetic spans (stage breakdown,
// lanes, critical path, straggler detection and attribution, pid filtering),
// cost-model self-validation, rusage sampling, and the ISSUE acceptance
// scenario — a zipf-skewed shuffle whose --explain output names reduce as the
// bottleneck with a heavy-key straggler and a critical path within 5% of the
// measured wall.
#include "obs/timeline.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/text.h"
#include "core/symple.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/resource.h"
#include "queries/text_row.h"
#include "runtime/cost_model.h"
#include "runtime/engine.h"
#include "runtime/lambda_query.h"

namespace symple {
namespace {

obs::TraceSpan MakeSpan(const char* name, uint32_t pid, uint32_t tid,
                        double start_us, double duration_us,
                        std::vector<std::pair<std::string, uint64_t>> args = {}) {
  obs::TraceSpan s;
  s.name = name;
  s.category = "test";
  s.pid = pid;
  s.tid = tid;
  s.start_us = start_us;
  s.duration_us = duration_us;
  s.args = std::move(args);
  return s;
}

const obs::TimelineStage* FindStage(const obs::RunTimeline& t, const char* name) {
  for (const obs::TimelineStage& st : t.stages) {
    if (st.name == name) {
      return &st;
    }
  }
  return nullptr;
}

TEST(Timeline, EmptySpansNotBuilt) {
  EngineStats in;
  in.total_wall_ms = 10;
  const obs::RunTimeline t = obs::BuildRunTimeline({}, 1, in);
  EXPECT_FALSE(t.built);
  EXPECT_TRUE(t.stages.empty());
  EXPECT_TRUE(t.critical_path.empty());
}

TEST(Timeline, FiltersByPidLane) {
  std::vector<obs::TraceSpan> spans;
  spans.push_back(MakeSpan("map_task", 2, 0, 0, 1000));
  EngineStats in;
  in.total_wall_ms = 1;
  EXPECT_FALSE(obs::BuildRunTimeline(spans, 1, in).built);
  EXPECT_TRUE(obs::BuildRunTimeline(spans, 2, in).built);
}

TEST(Timeline, StageBreakdownLanesAndCriticalPath) {
  std::vector<obs::TraceSpan> spans;
  // Two map lanes, a shuffle sort, three reduce lanes; plus a foreign-pid
  // span that must be ignored.
  spans.push_back(MakeSpan("map_task", 1, 0, 0, 4000, {{"records", 300}}));
  spans.push_back(MakeSpan("map_task", 1, 1, 0, 5000, {{"records", 400}}));
  spans.push_back(MakeSpan("shuffle_sort", 1, 0, 5100, 800));
  spans.push_back(MakeSpan("reduce_task", 1, 0, 6000, 2000,
                           {{"groups", 3}, {"bytes", 300}, {"max_run_bytes", 100}}));
  spans.push_back(MakeSpan("reduce_task", 1, 1, 6000, 2500,
                           {{"groups", 4}, {"bytes", 350}, {"max_run_bytes", 120}}));
  spans.push_back(MakeSpan("reduce_task", 1, 2, 6000, 9000,
                           {{"groups", 1}, {"bytes", 1000}, {"max_run_bytes", 900}}));
  spans.push_back(MakeSpan("map_task", 9, 7, 0, 99999));

  EngineStats in;
  in.total_wall_ms = 20;
  in.map_wall_ms = 6;
  in.shuffle_wall_ms = 1;
  in.reduce_wall_ms = 9;
  in.partition_skew = 2.5;
  const obs::RunTimeline t = obs::BuildRunTimeline(spans, 1, in);

  ASSERT_TRUE(t.built);
  ASSERT_EQ(t.stages.size(), 4u);
  const obs::TimelineStage* map = FindStage(t, "map");
  ASSERT_NE(map, nullptr);
  EXPECT_EQ(map->tasks, 2u);
  EXPECT_DOUBLE_EQ(map->busy_ms, 9.0);
  // busy 9000us over 2 lanes x 5000us envelope.
  EXPECT_NEAR(map->utilization, 0.9, 1e-9);
  const obs::TimelineStage* reduce = FindStage(t, "reduce");
  ASSERT_NE(reduce, nullptr);
  EXPECT_EQ(reduce->tasks, 3u);
  EXPECT_DOUBLE_EQ(reduce->wall_ms, 9.0);
  const obs::TimelineStage* replay = FindStage(t, "concrete_replay");
  ASSERT_NE(replay, nullptr);
  EXPECT_EQ(replay->tasks, 0u);

  // Lanes: 2 map + 3 reduce, foreign pid excluded.
  size_t map_lanes = 0;
  size_t reduce_lanes = 0;
  for (const obs::TimelineLane& l : t.lanes) {
    map_lanes += l.stage == "map";
    reduce_lanes += l.stage == "reduce";
    EXPECT_NE(l.tid, 7u);
  }
  EXPECT_EQ(map_lanes, 2u);
  EXPECT_EQ(reduce_lanes, 3u);

  EXPECT_EQ(t.bottleneck, "reduce");
  ASSERT_EQ(t.critical_path.size(), 3u);
  EXPECT_EQ(t.critical_path[0].stage, "map");
  EXPECT_EQ(t.critical_path[1].stage, "shuffle");
  EXPECT_EQ(t.critical_path[2].stage, "reduce");
  EXPECT_DOUBLE_EQ(t.critical_path_ms, 16.0);
  EXPECT_NEAR(t.critical_path_coverage, 0.8, 1e-9);
  // The map link's detail names the last-finishing lane (tid 1, 5 ms).
  EXPECT_NE(t.critical_path[0].detail.find("lane 1"), std::string::npos);
}

TEST(Timeline, HeavyKeyStragglerAttribution) {
  std::vector<obs::TraceSpan> spans;
  spans.push_back(MakeSpan("reduce_task", 1, 0, 0, 2000,
                           {{"groups", 3}, {"bytes", 300}, {"max_run_bytes", 100}}));
  spans.push_back(MakeSpan("reduce_task", 1, 1, 0, 2500,
                           {{"groups", 4}, {"bytes", 350}, {"max_run_bytes", 120}}));
  spans.push_back(MakeSpan("reduce_task", 1, 2, 0, 9000,
                           {{"groups", 1}, {"bytes", 1000}, {"max_run_bytes", 900}}));
  EngineStats in;
  in.total_wall_ms = 9;
  in.reduce_wall_ms = 9;
  in.partition_skew = 2.5;
  const obs::RunTimeline t = obs::BuildRunTimeline(spans, 1, in);
  // Median 2500us: the 9000us task exceeds 2x median with >1ms excess; its
  // max_run_bytes dominates its bytes, so it is attributed to one key run.
  ASSERT_EQ(t.stragglers.size(), 1u);
  EXPECT_EQ(t.stragglers[0].stage, "reduce");
  EXPECT_EQ(t.stragglers[0].tid, 2u);
  EXPECT_NEAR(t.stragglers[0].ratio, 3.6, 0.01);
  EXPECT_NE(t.stragglers[0].attribution.find("dominated by one key run"),
            std::string::npos);
  EXPECT_NE(t.stragglers[0].attribution.find("partition_skew 2.50"),
            std::string::npos);
}

TEST(Timeline, BalancedTaskStragglerAttributionAndNoiseFloor) {
  std::vector<obs::TraceSpan> spans;
  spans.push_back(MakeSpan("reduce_task", 1, 0, 0, 2000,
                           {{"groups", 3}, {"bytes", 300}, {"max_run_bytes", 100}}));
  spans.push_back(MakeSpan("reduce_task", 1, 1, 0, 2500,
                           {{"groups", 4}, {"bytes", 350}, {"max_run_bytes", 120}}));
  // Slow but with many evenly sized runs: attributed to lane load, not one key.
  spans.push_back(MakeSpan("reduce_task", 1, 2, 0, 9000,
                           {{"groups", 40}, {"bytes", 4000}, {"max_run_bytes", 150}}));
  // Map stage whose spread stays under the 1ms absolute floor: no straggler
  // even though 300 > 2 x 100.
  spans.push_back(MakeSpan("map_task", 1, 0, 0, 100));
  spans.push_back(MakeSpan("map_task", 1, 1, 0, 100));
  spans.push_back(MakeSpan("map_task", 1, 2, 0, 300));
  EngineStats in;
  in.total_wall_ms = 9;
  in.map_wall_ms = 0.3;
  in.reduce_wall_ms = 9;
  in.partition_skew = 1.1;
  const obs::RunTimeline t = obs::BuildRunTimeline(spans, 1, in);
  ASSERT_EQ(t.stragglers.size(), 1u);
  EXPECT_EQ(t.stragglers[0].stage, "reduce");
  EXPECT_NE(t.stragglers[0].attribution.find("groups"), std::string::npos);
  EXPECT_EQ(t.stragglers[0].attribution.find("dominated"), std::string::npos);
}

// --- end-to-end: zipf-skewed shuffle through the baseline engine -------------

struct ZipfState {
  SymInt total = 0;
  auto list_fields() { return std::tie(total); }
};

struct ZipfEvent {
  int64_t amount = 0;
};

std::optional<std::pair<int64_t, ZipfEvent>> ZipfParse(std::string_view line) {
  FieldCursor cur(line);
  const auto key = cur.Next();
  const auto amount = cur.Next();
  if (!key || !amount) {
    return std::nullopt;
  }
  const auto key_id = ParseInt64(*key);
  const auto amount_v = ParseInt64(*amount);
  if (!key_id || !amount_v) {
    return std::nullopt;
  }
  return std::make_pair(*key_id, ZipfEvent{*amount_v});
}

void ZipfUpdate(ZipfState& s, const ZipfEvent& e) {
  // Deliberately work-heavy: the baseline engine executes Update in the
  // reduce stage, so per-record cost here makes reduce the bottleneck — the
  // shape of a UDA whose parse is cheap relative to its aggregation.
  int64_t x = e.amount + 7;
  for (int k = 0; k < 200; ++k) {
    x = (x * 1103515245 + 12345) % 1000003;
  }
  s.total += x % 3;
}

int64_t ZipfResult(const ZipfState& s, const int64_t&) { return s.total.Value(); }

void ZipfSerialize(const ZipfEvent& e, BinaryWriter& w) {
  WriteTextRow(w, {e.amount});
}

ZipfEvent ZipfDeserialize(BinaryReader& r) {
  return ZipfEvent{ReadTextRow<1>(r)[0]};
}

using ZipfQuery = LambdaQuery<"zipf", &ZipfParse, &ZipfUpdate, &ZipfResult,
                              &ZipfSerialize, &ZipfDeserialize>;

// ~80% of records land on key 1; the rest spread across 30 light keys. The
// heavy key's run dwarfs every other key run, so one reducer lane drags the
// reduce stage while the map stage splits evenly over its slots.
Dataset ZipfData(size_t segments, size_t lines_per_segment) {
  std::vector<std::vector<std::string>> chunks(segments);
  for (size_t s = 0; s < segments; ++s) {
    for (size_t i = 0; i < lines_per_segment; ++i) {
      const bool heavy = (i * 7 + s) % 10 < 8;
      const int64_t key =
          heavy ? 1 : static_cast<int64_t>(2 + (i + s * 13) % 30);
      const int64_t amount = static_cast<int64_t>(i % 5) - 2;
      chunks[s].push_back(std::to_string(key) + "\t" + std::to_string(amount));
    }
  }
  return DatasetFromLines(chunks);
}

TEST(TimelineAcceptance, ZipfSkewNamesReduceBottleneckWithHeavyKeyStraggler) {
  if (!obs::Enabled()) {
    GTEST_SKIP() << "SYMPLE_OBS_DISABLE set";
  }
  const Dataset data = ZipfData(8, 15000);
  obs::Tracer tracer;
  obs::RunObserver observer("mapreduce", &tracer, 1);
  EngineOptions options;
  options.map_slots = 4;
  options.reduce_slots = 4;
  options.observer = &observer;
  const auto result = RunBaselineMapReduce<ZipfQuery>(data, options);
  const obs::RunReport report =
      MakeRunReport("zipf", "mapreduce", options, result.stats, &observer);

  ASSERT_TRUE(report.timeline.built);
  // The heavy key serializes ~80% of the reduce work on one lane: reduce wall
  // dominates every other stage.
  EXPECT_EQ(report.timeline.bottleneck, "reduce");
  EXPECT_GT(result.stats.partition_skew, 1.5);

  // Critical path (map + shuffle + reduce walls) accounts for the measured
  // total wall to within 5%.
  EXPECT_GT(report.timeline.critical_path_ms, 0);
  EXPECT_LE(std::fabs(report.timeline.critical_path_ms -
                      result.stats.total_wall_ms),
            0.05 * result.stats.total_wall_ms);

  // At least one reduce straggler, attributed to the single dominant key run.
  bool heavy_key_straggler = false;
  for (const obs::TimelineStraggler& s : report.timeline.stragglers) {
    if (s.stage == "reduce" &&
        s.attribution.find("dominated by one key run") != std::string::npos) {
      heavy_key_straggler = true;
    }
  }
  EXPECT_TRUE(heavy_key_straggler)
      << obs::FormatExplainText(report);

  // The --explain rendering names the bottleneck and lists the straggler.
  const std::string text = obs::FormatExplainText(report);
  EXPECT_NE(text.find("bottleneck: reduce"), std::string::npos) << text;
  EXPECT_NE(text.find("stragglers (wall > k x stage median):"), std::string::npos)
      << text;
  EXPECT_NE(text.find("critical path:"), std::string::npos) << text;
}

TEST(Timeline, RunResourceUsageSampled) {
  if (!obs::Enabled()) {
    GTEST_SKIP() << "SYMPLE_OBS_DISABLE set";
  }
  const Dataset data = ZipfData(2, 500);
  EngineOptions options;
  const auto result = RunBaselineMapReduce<ZipfQuery>(data, options);
  ASSERT_TRUE(result.stats.rusage.sampled);
  EXPECT_GT(result.stats.rusage.self.maxrss_kb, 0u);
  EXPECT_GE(result.stats.rusage.self.cpu_ms(), 0.0);
}

TEST(Timeline, CostModelSelfValidation) {
  EngineStats stats;
  stats.total_wall_ms = 100;
  stats.map_wall_ms = 60;
  stats.shuffle_wall_ms = 10;
  stats.reduce_wall_ms = 30;
  stats.input_bytes = 64 << 20;
  stats.parsed_records = 1 << 20;
  stats.shuffle_bytes = 4 << 20;
  stats.groups = 1000;
  const obs::ModelErrorReport m = ValidateCostModel(stats, 4, 4);
  ASSERT_TRUE(m.present);
  EXPECT_DOUBLE_EQ(m.measured_total_ms, 100);
  EXPECT_DOUBLE_EQ(m.measured_map_ms, 60);
  EXPECT_GT(m.predicted_total_ms, 0);
  EXPECT_TRUE(std::isfinite(m.total_error_pct));

  EngineStats empty;
  EXPECT_FALSE(ValidateCostModel(empty, 4, 4).present);
}

}  // namespace
}  // namespace symple
