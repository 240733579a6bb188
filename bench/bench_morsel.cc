// Map-phase makespan under segment skew: morsel-driven scheduling with work
// stealing (docs/scheduling.md) against the pre-PR static per-segment
// dispatch.
//
// Methodology: like bench_shuffle_skew, a model stands in where the host may
// not have `slots` idle cores. The real per-byte map cost (parse + update
// over genuine RedShift-format records) is measured single-threaded, then
// each dispatch policy's map makespan is computed on an ideal `slots`-wide
// machine: both policies dispatch greedily to the earliest-free worker (that
// is what a task pool or the stealing deques converge to), the difference is
// purely task granularity — whole segments vs the record-aligned morsels the
// engine actually cuts (internal::AppendSegmentMorsels over the run's
// internal::InputIndex, with the production auto-sizing). Real RunSymple executions still gate correctness: outputs at
// every morsel size must be byte-identical to the sequential engine.
//
// The workload is a zipf-skewed segment *layout* (one segment holding ~45% of
// all records, a flat tail of small segments): the distributed-file-chunk
// shape where one straggler map task pins the whole map barrier. Acceptance:
// modeled map makespan improves >= 1.3x at >= 4 slots.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "queries/all_queries.h"
#include "runtime/engine.h"

namespace symple {
namespace {

constexpr size_t kHuge = std::numeric_limits<size_t>::max();

// Re-splits a dataset's records into a skewed segment layout: segment 0 takes
// `hot_fraction` of all records, the rest share the remainder evenly.
Dataset SkewedLayout(const Dataset& flat, double hot_fraction, size_t segments) {
  std::vector<std::string> lines;
  for (const std::string& seg : flat.segments) {
    LineCursor cur(seg);
    while (const auto line = cur.Next()) {
      lines.emplace_back(*line);
    }
  }
  const size_t hot = static_cast<size_t>(static_cast<double>(lines.size()) * hot_fraction);
  const size_t tail_each =
      segments > 1 ? (lines.size() - hot + segments - 2) / (segments - 1) : 0;
  Dataset out;
  size_t i = 0;
  for (size_t s = 0; s < segments && i < lines.size(); ++s) {
    const size_t take = s == 0 ? hot : tail_each;
    std::string blob;
    for (size_t n = 0; n < take && i < lines.size(); ++n, ++i) {
      blob += lines[i];
      blob += '\n';
    }
    out.segments.push_back(std::move(blob));
  }
  return out;
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Real single-threaded map cost per byte over one blob (parse + count, the
// dominant work of the R1 mapper), min-of-3.
double PerByteMapMs(const std::string& blob) {
  double best = 0;
  volatile int64_t sink = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = NowMs();
    int64_t acc = 0;
    LineCursor cur(blob);
    while (const auto line = cur.Next()) {
      if (const auto parsed = R1Impressions::Parse(*line)) {
        acc += parsed->first;
      }
    }
    sink = sink ^ acc;
    const double ms = NowMs() - t0;
    if (rep == 0 || ms < best) {
      best = ms;
    }
  }
  return best / static_cast<double>(blob.size() == 0 ? 1 : blob.size());
}

// Greedy earliest-free-worker makespan — what both a task pool (per-segment
// tasks) and the stealing deques (morsels) converge to on idle cores.
double GreedyMakespan(const std::vector<double>& costs, size_t workers) {
  std::vector<double> busy(workers, 0.0);
  for (const double c : costs) {
    auto it = std::min_element(busy.begin(), busy.end());
    *it += c;
  }
  return *std::max_element(busy.begin(), busy.end());
}

// Task costs of the pre-PR dispatch: one task per segment.
std::vector<double> SegmentCosts(const Dataset& data, double per_byte_ms) {
  std::vector<double> costs;
  for (const std::string& seg : data.segments) {
    costs.push_back(static_cast<double>(seg.size()) * per_byte_ms);
  }
  return costs;
}

// Task costs of morsel dispatch: the engine's actual chunking at its actual
// auto-sizing for this input and slot count.
std::vector<double> MorselCosts(const Dataset& data, double per_byte_ms,
                                size_t slots) {
  const internal::InputIndex index = internal::BuildInputIndex(data.segments, slots);
  const size_t target =
      internal::ResolveMorselRecords(0, index.total_records, slots);
  std::vector<internal::Morsel> morsels;
  for (uint32_t s = 0; s < data.segments.size(); ++s) {
    internal::AppendSegmentMorsels(data.segments[s], index.slice_newlines[s], s,
                                   target, &morsels);
  }
  std::vector<double> costs;
  for (const auto& m : morsels) {
    costs.push_back(static_cast<double>(m.byte_end - m.byte_begin) * per_byte_ms);
  }
  return costs;
}

// Byte-identity of the real engines against sequential at one morsel size.
bool CheckIdentity(const Dataset& data, size_t morsel_records) {
  const auto seq = RunSequential<R1Impressions>(data);
  EngineOptions options;
  options.map_slots = 4;
  options.reduce_slots = 4;
  options.morsel_records = morsel_records;
  const auto sym = RunSymple<R1Impressions>(data, options);
  const auto mr = RunBaselineMapReduce<R1Impressions>(data, options);
  if (!(seq.outputs == sym.outputs)) {
    std::printf("ERROR: SYMPLE diverged from sequential at morsel_records=%zu\n",
                morsel_records);
    return false;
  }
  if (!(seq.outputs == mr.outputs)) {
    std::printf("ERROR: baseline diverged from sequential at morsel_records=%zu\n",
                morsel_records);
    return false;
  }
  return true;
}

}  // namespace
}  // namespace symple

int main(int argc, char** argv) {
  using namespace symple;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }

  bench::BenchReport::Open("morsel");
  bench::PrintHeader(
      "Map-phase makespan under segment skew: morsel scheduling vs static dispatch");

  // Identity sweep: real engines, byte-identical at every morsel granularity
  // including pathological ones.
  {
    RedshiftGenParams p;
    p.num_records = smoke ? 3000 : bench::Scaled(20000);
    p.num_segments = 6;
    p.num_advertisers = 50;
    p.condensed = true;
    const Dataset small = GenerateRedshiftLog(p);
    for (const size_t mr : {size_t{0}, size_t{1}, size_t{7}, size_t{1} << 28}) {
      if (!CheckIdentity(small, mr)) {
        return 1;
      }
    }
    std::printf("identity: all engines byte-identical at morsel sizes "
                "{auto, 1, 7, 2^28}\n");
  }

  // The skewed layout for the scheduling measurement.
  RedshiftGenParams p;
  p.num_records = smoke ? 4000 : bench::Scaled(150000);
  p.num_segments = 1;
  p.num_advertisers = 50;
  p.condensed = true;
  const Dataset skewed =
      SkewedLayout(GenerateRedshiftLog(p), /*hot_fraction=*/0.45,
                   /*segments=*/12);
  const double per_byte_ms = PerByteMapMs(skewed.segments[0]);

  std::printf("\n%6s %12s %12s %9s\n", "slots", "static ms", "morsel ms",
              "speedup");
  bench::PrintRule(44);
  bool gate_ok = true;
  for (const size_t slots : {size_t{4}, size_t{8}}) {
    const double static_ms =
        GreedyMakespan(SegmentCosts(skewed, per_byte_ms), slots);
    const double morsel_ms =
        GreedyMakespan(MorselCosts(skewed, per_byte_ms, slots), slots);
    const double speedup = morsel_ms > 0 ? static_ms / morsel_ms : 0;
    std::printf("%6zu %12.1f %12.1f %8.2fx\n", slots, static_ms, morsel_ms,
                speedup);
    if (!smoke && speedup < 1.3) {
      gate_ok = false;
    }
    const std::string label = "zipf_" + std::to_string(slots);
    bench::BenchReport::AddScalar(label + "_static_makespan_ms", static_ms);
    bench::BenchReport::AddScalar(label + "_morsel_makespan_ms", morsel_ms);
    bench::BenchReport::AddScalar(label + "_speedup", speedup);
  }

  // Real runs on this host: whole-segment granularity (an explicit
  // larger-than-any-segment morsel size) vs the production auto-sizing. Wall
  // times land in the report for trajectory tracking; the gate stays on the
  // model because real speedup needs idle cores CI cannot promise.
  {
    EngineOptions options;
    options.map_slots = 4;
    options.reduce_slots = 4;
    options.morsel_records = size_t{1} << 30;  // one morsel per segment
    const auto static_run = RunSymple<R1Impressions>(skewed, options);
    options.morsel_records = 0;  // auto
    const auto morsel_run = RunSymple<R1Impressions>(skewed, options);
    if (!(static_run.outputs == morsel_run.outputs)) {
      std::printf("ERROR: static and morsel real runs diverged\n");
      return 1;
    }
    std::printf(
        "\nreal 4-slot map wall on this host: static %.1f ms, morsel %.1f ms "
        "(%llu morsels, %llu steals)\n",
        static_run.stats.map_wall_ms, morsel_run.stats.map_wall_ms,
        static_cast<unsigned long long>(morsel_run.stats.map_morsels),
        static_cast<unsigned long long>(morsel_run.stats.morsel_steals));
    bench::BenchReport::AddRun("zipf", "symple-static", "morsel_records=2^30",
                               static_run.stats);
    bench::BenchReport::AddRun("zipf", "symple-morsel", "morsel_records=auto",
                               morsel_run.stats);
  }

  bench::BenchReport::Write();
  if (!gate_ok) {
    std::printf("ERROR: modeled morsel speedup below the 1.3x acceptance floor\n");
    return 1;
  }
  return 0;
}
