// The per-workload measurement, templated on the query: setup, timed rounds
// over the five engines, the traced pass and the single-threaded probe pass.
// Each workload's translation unit instantiates RunWorkload<Query> once.
#ifndef SYMPLE_BENCH_E2E_HARNESS_H_
#define SYMPLE_BENCH_E2E_HARNESS_H_

#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <exception>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/e2e/e2e.h"
#include "core/aggregator.h"
#include "core/flat_group_map.h"
#include "core/summary.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "runtime/dataset.h"
#include "runtime/engine.h"
#include "runtime/process_engine.h"
#include "serialize/binary_io.h"

namespace symple::e2e {

// What a workload is, beyond its query type.
struct WorkloadSpec {
  const char* name;
  // Memory budget of every timed engine (the oracle is always unbudgeted);
  // 0 = unbudgeted. A budgeted workload must spill; the others must not.
  uint64_t memory_budget_bytes = 0;
  // Generates the input from the seed offset, at cfg.scale.
  Dataset (*make_data)(uint64_t seed, double scale);
  // Returns why the input no longer exercises what the workload was chosen
  // for, or "" when it still does. Sees the input, the oracle run and the
  // warm-up SYMPLE run. Null when the spill guard below is all there is.
  std::string (*shape_guard)(const Dataset&, const EngineStats& oracle,
                             const EngineStats& symple);
};

enum Engine : size_t {
  kSequential,
  kMapReduce,
  kSymple,
  kMapReduceForked,
  kSympleForked,
  kEngineCount,
};

inline constexpr const char* kEngineNames[kEngineCount] = {
    "sequential", "mapreduce", "symple", "mapreduce_forked", "symple_forked"};

inline double SteadyMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// User+system CPU of one getrusage target, in milliseconds.
inline double RusageCpuMs(int who) {
  rusage ru{};
  getrusage(who, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 + static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

// Host calibration: `threads` threads each follow 100k dependent loads
// through a fixed 64 MiB random table, timed once per round. The code under
// test cannot change it, so drift in it is drift in the host; on a shared VM
// the engines' walls move by 10-25% over minutes with the neighbours' load.
// Over 15-second windows, scaling walls by this probe cut their spread from
// 4-13% to 2-4%; an ALU loop or a single-cycle pointer chase did worse.
class HostCalibration {
 public:
  // The table is mapped MADV_DONTFORK so the forked engines' workers do not
  // inherit (and pay page-table copies for) memory of the benchmark's own.
  HostCalibration() {
    void* p = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) {
      throw std::runtime_error("cannot map the calibration table");
    }
    madvise(p, kBytes, MADV_DONTFORK);
    table_ = static_cast<uint32_t*>(p);
    uint64_t x = 0x9e3779b97f4a7c15ull;
    for (size_t i = 0; i < kEntries; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      table_[i] = static_cast<uint32_t>(x) & kMask;
    }
  }
  ~HostCalibration() { munmap(table_, kBytes); }
  HostCalibration(const HostCalibration&) = delete;
  HostCalibration& operator=(const HostCalibration&) = delete;

  double TimeMs(size_t threads, uint32_t round) const {
    const auto chase = [this](uint32_t start) {
      uint32_t i = start & kMask;
      for (int k = 0; k < 100000; ++k) {
        i = table_[i];
      }
      static volatile uint32_t sink = 0;
      sink = sink + i;
    };
    const double t0 = SteadyMs();
    std::vector<std::thread> workers;
    for (size_t t = 1; t < threads; ++t) {
      workers.emplace_back(chase, round * 7919u + static_cast<uint32_t>(t) * 104729u);
    }
    chase(round * 7919u);
    for (std::thread& w : workers) {
      w.join();
    }
    return SteadyMs() - t0;
  }

 private:
  static constexpr size_t kEntries = size_t{1} << 24;
  static constexpr size_t kBytes = kEntries * sizeof(uint32_t);
  static constexpr uint32_t kMask = static_cast<uint32_t>(kEntries - 1);
  uint32_t* table_ = nullptr;
};

// The calibration's time on the reference host (4-vCPU Xeon at 2.0 GHz,
// quiet neighbours). End-to-end times are scaled by kCalibReferenceMs / the
// run's median calibration, so they read as times on that host.
inline constexpr double kCalibReferenceMs = 3.0;

// Everything measured about one engine across the rounds of one phase.
struct EngineSamples {
  std::vector<double> wall_ms;
  std::vector<double> cpu_ms;           // RUSAGE_SELF + RUSAGE_CHILDREN delta
  std::vector<double> self_cpu_ms;      // RUSAGE_SELF delta
  std::vector<double> children_cpu_ms;  // RUSAGE_CHILDREN delta
  std::vector<double> stats_cpu_ms;     // the engine's own map+reduce CPU
  std::vector<double> shuffle_bytes;
  std::vector<double> peak_tracked_mb;
};

// Forked-mode fault counters summed over every engine run of a workload.
struct FaultCounts {
  uint64_t worker_retries = 0;
  uint64_t worker_crashes = 0;
  uint64_t wire_corrupt_frames = 0;
  uint64_t fallback_segments = 0;
};

template <typename Query>
class WorkloadBench {
  using Key = typename Query::Key;
  using Event = typename Query::Event;
  using State = typename Query::State;
  using Outputs = std::map<Key, typename Query::Output>;

 public:
  WorkloadBench(const RunConfig& cfg, const WorkloadSpec& spec)
      : cfg_(cfg), spec_(spec) {
    result_.name = spec.name;
  }

  WorkloadResult Run(uint64_t parent_span) {
    Span workload(cfg_.tracer, std::string("workload.") + spec_.name, parent_span);
    try {
      if (!Setup(workload.id())) {
        return std::move(result_);
      }
      TimedRounds(workload.id());
      if (cfg_.tracer != nullptr) {
        TracedPass(workload.id());
        ProbePass(workload.id());
      }
    } catch (const std::exception& e) {
      result_.Fail(std::string("benchmark harness: ") + e.what());
    }
    return std::move(result_);
  }

 private:
  EngineOptions TimedOptions() const {
    EngineOptions o;
    o.map_slots = cfg_.slots;
    o.reduce_slots = cfg_.slots;
    o.memory_budget_bytes = ScaledBudget();
    o.spill_dir = cfg_.spill_dir;
    return o;
  }

  uint64_t ScaledBudget() const {
    return static_cast<uint64_t>(static_cast<double>(spec_.memory_budget_bytes) *
                                 cfg_.scale);
  }

  static RunResult<Query> Dispatch(size_t engine, const Dataset& data,
                                   const EngineOptions& o) {
    switch (engine) {
      case kSequential:
        return RunSequential<Query>(data, o);
      case kMapReduce:
        return RunBaselineMapReduce<Query>(data, o);
      case kSymple:
        return RunSymple<Query>(data, o);
      case kMapReduceForked:
        return RunBaselineForked<Query>(data, o);
      default:
        return RunSympleForked<Query>(data, o);
    }
  }

  // Runs one engine once, timed from outside, and checks its output against
  // the oracle. Returns false when the run threw or disagreed.
  bool Call(size_t engine, const EngineOptions& o, uint64_t parent,
            EngineSamples* into, EngineStats* stats_out) {
    ++result_.attempted;
    Span span(cfg_.tracer, std::string("engine_run.") + kEngineNames[engine], parent);
    if (o.observer != nullptr) {
      span.AddArg("trace_pid", o.observer->trace_pid());
    }
    const double self0 = RusageCpuMs(RUSAGE_SELF);
    const double children0 = RusageCpuMs(RUSAGE_CHILDREN);
    const double t0 = SteadyMs();
    std::optional<RunResult<Query>> run;
    try {
      run.emplace(Dispatch(engine, data_, o));
    } catch (const std::exception& e) {
      result_.Fail(std::string(kEngineNames[engine]) + " threw: " + e.what());
      return false;
    }
    const double wall = SteadyMs() - t0;
    const double self_cpu = RusageCpuMs(RUSAGE_SELF) - self0;
    const double children_cpu = RusageCpuMs(RUSAGE_CHILDREN) - children0;
    const EngineStats& s = run->stats;
    if (into != nullptr) {
      into->wall_ms.push_back(wall);
      into->cpu_ms.push_back(self_cpu + children_cpu);
      into->self_cpu_ms.push_back(self_cpu);
      into->children_cpu_ms.push_back(children_cpu);
      into->stats_cpu_ms.push_back(s.total_cpu_ms());
      into->shuffle_bytes.push_back(static_cast<double>(s.shuffle_bytes));
      into->peak_tracked_mb.push_back(static_cast<double>(s.peak_tracked_bytes) / 1e6);
    }
    faults_.worker_retries += s.worker_retries;
    faults_.worker_crashes += s.worker_crashes;
    faults_.wire_corrupt_frames += s.wire_corrupt_frames;
    faults_.fallback_segments += s.fallback_segments;
    if (stats_out != nullptr) {
      *stats_out = s;
    }
    if (run->outputs != oracle_) {
      result_.Fail(std::string(kEngineNames[engine]) + " output differs from the oracle");
      return false;
    }
    return true;
  }

  // Generates the input, computes the unbudgeted oracle, runs one untimed
  // warm-up round and checks the workload guards; repeated cfg.setup_reps
  // times, setup_s is the median. Returns false when a guard tripped.
  bool Setup(uint64_t parent) {
    Span phase(cfg_.tracer, "setup", parent);
    for (int rep = 0; rep < std::max(1, cfg_.setup_reps); ++rep) {
      const double t0 = SteadyMs();
      data_ = Dataset{};
      oracle_.clear();
      data_ = spec_.make_data(cfg_.seed, cfg_.scale);
      RunResult<Query> oracle = RunSequential<Query>(data_);
      oracle_ = std::move(oracle.outputs);
      std::vector<EngineStats> warm(kEngineCount);
      for (size_t e = 0; e < kEngineCount; ++e) {
        Call(e, TimedOptions(), phase.id(), nullptr, &warm[e]);
      }
      setup_s_.push_back((SteadyMs() - t0) / 1e3);
      std::string guard = spec_.shape_guard != nullptr
                              ? spec_.shape_guard(data_, oracle.stats, warm[kSymple])
                              : "";
      if (guard.empty()) {
        guard = SpillGuard(warm);
      }
      if (!guard.empty()) {
        result_.guard_error = std::string(spec_.name) + ": " + guard;
        return false;
      }
    }
    return true;
  }

  std::string SpillGuard(const std::vector<EngineStats>& warm) const {
    const uint64_t budget = ScaledBudget();
    for (size_t e = 0; e < kEngineCount; ++e) {
      const EngineStats& s = warm[e];
      const bool threaded = e == kMapReduce || e == kSymple;
      if (budget == 0 && s.spill_runs > 0) {
        return std::string(kEngineNames[e]) + " spilled on an unbudgeted workload";
      }
      if (budget > 0 && threaded && s.spill_runs == 0) {
        return std::string(kEngineNames[e]) + " did not spill under the budget";
      }
      if (budget > 0 && threaded && s.peak_tracked_bytes > budget) {
        return std::string(kEngineNames[e]) + " peak tracked " +
               std::to_string(s.peak_tracked_bytes) + " bytes exceeds the budget of " +
               std::to_string(budget);
      }
    }
    return "";
  }

  // Closed loop, one query at a time: each round runs the five engines in
  // an order rotated by the round number, untraced (observer = nullptr).
  void TimedRounds(uint64_t parent) {
    Span phase(cfg_.tracer, "timed", parent);
    const EngineOptions o = TimedOptions();
    const HostCalibration calibration;
    const double start = SteadyMs();
    size_t round = 0;
    while (round < 3 || SteadyMs() - start < cfg_.seconds * 1e3) {
      calib_ms_.push_back(calibration.TimeMs(cfg_.slots, static_cast<uint32_t>(round)));
      for (size_t i = 0; i < kEngineCount; ++i) {
        const size_t e = (round + i) % kEngineCount;
        Call(e, o, phase.id(), &timed_[e], nullptr);
      }
      ++round;
    }
    result_.rounds = round;

    // End-to-end times are host-normalized (see HostCalibration); the raw
    // medians are per-layer metrics.
    const double host = kCalibReferenceMs / Quantile(calib_ms_, 0.5);
    const auto both = [&](const std::string& name, const std::vector<double>& samples) {
      AddP50(name, Scaled(samples, host), "ms");
      AddP50("raw." + name, samples, "ms");
    };
    for (size_t e = 0; e < kEngineCount; ++e) {
      both(std::string(kEngineNames[e]) + "_wall_ms_p50", timed_[e].wall_ms);
    }
    both("mapreduce_cpu_ms_p50", timed_[kMapReduce].cpu_ms);
    both("symple_cpu_ms_p50", timed_[kSymple].cpu_ms);
    both("symple_forked_cpu_ms_p50", timed_[kSympleForked].cpu_ms);
    AddP50("mapreduce_shuffle_bytes", timed_[kMapReduce].shuffle_bytes, "bytes");
    AddP50("symple_shuffle_bytes", timed_[kSymple].shuffle_bytes, "bytes");
    AddP50("symple_peak_tracked_mb", timed_[kSymple].peak_tracked_mb, "MB");
    AddP50("setup_s", Scaled(setup_s_, host), "s");

    for (size_t e = 0; e < kEngineCount; ++e) {
      const std::string name = kEngineNames[e];
      result_.Add("tail." + name + "_wall_ms_p80", Quantile(timed_[e].wall_ms, 0.8),
                  "ms");
      result_.Add("obs.stats_cpu_gap_pct." + name,
                  Pct(Quantile(timed_[e].stats_cpu_ms, 0.5),
                      Quantile(timed_[e].cpu_ms, 0.5)),
                  "%");
    }
    for (const size_t e : {kMapReduceForked, kSympleForked}) {
      const std::string name = kEngineNames[e];
      AddP50("ipc.children_cpu_ms." + name, timed_[e].children_cpu_ms, "ms");
      AddP50("ipc.parent_cpu_ms." + name, timed_[e].self_cpu_ms, "ms");
    }
    AddP50("host.calib_ms_p50", calib_ms_, "ms");
    result_.Add("host.calib_spread_pct", 100 * RelativeSpread(calib_ms_), "%");
  }

  // Traced engine runs: ten SYMPLE runs and one of every other engine, each
  // with an obs::RunObserver on its own trace lane. Runtime-layer metrics
  // come from their RunReports. Each traced SYMPLE run follows an untraced
  // one, so the trace overhead compares runs moments apart rather than
  // against timed rounds the host may have drifted from since.
  void TracedPass(uint64_t parent) {
    Span phase(cfg_.tracer, "traced", parent);
    constexpr int kTracedSympleRuns = 10;
    EngineSamples untraced;
    std::vector<double> symple_walls;
    std::vector<std::pair<EngineStats, obs::RunReport>> symple_runs;
    for (size_t e = 0; e < kEngineCount; ++e) {
      const int runs = e == kSymple ? kTracedSympleRuns : 1;
      for (int i = 0; i < runs; ++i) {
        const uint32_t pid = NextTracePid();
        cfg_.tracer->NameProcess(pid, std::string(spec_.name) + " " + kEngineNames[e] +
                                          " #" + std::to_string(i));
        obs::RunObserver observer(kEngineNames[e], cfg_.tracer, pid);
        EngineOptions o = TimedOptions();
        if (e == kSymple) {
          Call(e, o, phase.id(), &untraced, nullptr);
        }
        o.observer = &observer;
        EngineSamples samples;
        EngineStats stats;
        if (!Call(e, o, phase.id(), &samples, &stats)) {
          continue;
        }
        obs::RunReport report =
            MakeRunReport(Query::kName, kEngineNames[e], o, stats, &observer);
        if (e == kSymple) {
          symple_walls.push_back(samples.wall_ms.front());
          symple_runs.emplace_back(stats, std::move(report));
        } else if (e == kMapReduce) {
          RuntimeLayers("mapreduce", stats, report);
        }
      }
    }
    if (symple_runs.empty()) {
      return;
    }
    // Layer counters from the SYMPLE run with the median wall.
    std::vector<size_t> order(symple_runs.size());
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return symple_walls[a] < symple_walls[b]; });
    const auto& [stats, report] = symple_runs[order[order.size() / 2]];
    RuntimeLayers("symple", stats, report);

    const double parsed = std::max<double>(1, static_cast<double>(stats.parsed_records));
    result_.Add("group_map.avg_probe_len", stats.group_map.AvgProbeLen(), "steps");
    result_.Add("group_map.rehashes", static_cast<double>(stats.group_map.rehashes),
                "count");
    result_.Add("group_map.arena_mb", static_cast<double>(stats.group_map.arena_bytes) / 1e6,
                "MB");
    result_.Add("feed.runs_per_record",
                static_cast<double>(stats.exploration.runs) / parsed, "ratio");
    result_.Add("feed.merges", static_cast<double>(stats.exploration.paths_merged), "count");
    result_.Add("feed.restarts", static_cast<double>(stats.exploration.summary_restarts),
                "count");
    result_.Add("summary.summaries_per_record", static_cast<double>(stats.summaries) / parsed,
                "ratio");
    result_.Add("reduce.degraded_segments.symple",
                static_cast<double>(stats.degraded_segments), "count");
    result_.Add("reduce.replayed_records.symple",
                static_cast<double>(stats.replayed_records), "count");
    result_.Add("obs.trace_overhead_pct",
                Pct(Quantile(symple_walls, 0.5), Quantile(untraced.wall_ms, 0.5)), "%");
    result_.Add("ipc.worker_retries", static_cast<double>(faults_.worker_retries),
                "count");
    result_.Add("ipc.worker_crashes", static_cast<double>(faults_.worker_crashes),
                "count");
    result_.Add("ipc.wire_corrupt_frames",
                static_cast<double>(faults_.wire_corrupt_frames), "count");
    result_.Add("ipc.fallback_segments",
                static_cast<double>(faults_.fallback_segments), "count");
  }

  // map / shuffle / spill / reduce / critical-path metrics of one traced run.
  void RuntimeLayers(const std::string& engine, const EngineStats& s,
                     const obs::RunReport& report) {
    const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    const double slots = static_cast<double>(cfg_.slots);
    result_.Add("map.wall_ms." + engine, s.map_wall_ms, "ms");
    result_.Add("map.cpu_ms." + engine, s.map_cpu_ms, "ms");
    result_.Add("map.utilization." + engine, ratio(s.map_cpu_ms, s.map_wall_ms * slots),
                "ratio");
    result_.Add("map.morsels." + engine, static_cast<double>(s.map_morsels), "count");
    result_.Add("map.steal_ratio." + engine,
                ratio(static_cast<double>(s.morsel_steals), static_cast<double>(s.map_morsels)),
                "ratio");
    result_.Add("map.queue_wait_us_p95." + engine,
                static_cast<double>(report.map_morsel_queue_wait_us.Quantile(0.95)), "us");

    const double packets = static_cast<double>(report.shuffle_partition_packets.sum);
    result_.Add("shuffle.wall_ms." + engine, s.shuffle_wall_ms, "ms");
    result_.Add("shuffle.packets." + engine, packets, "count");
    result_.Add("shuffle.bytes_per_packet." + engine,
                ratio(static_cast<double>(s.shuffle_bytes), packets), "bytes");
    result_.Add("shuffle.partition_skew." + engine, s.partition_skew, "ratio");

    result_.Add("spill.runs." + engine, static_cast<double>(s.spill_runs), "count");
    result_.Add("spill.bytes." + engine, static_cast<double>(s.spill_bytes), "bytes");
    result_.Add("spill.merge_ms." + engine, s.spill_merge_ms, "ms");
    result_.Add("spill.peak_over_budget." + engine,
                ratio(static_cast<double>(s.peak_tracked_bytes),
                      static_cast<double>(ScaledBudget())),
                "ratio");

    result_.Add("reduce.wall_ms." + engine, s.reduce_wall_ms, "ms");
    result_.Add("reduce.cpu_ms." + engine, s.reduce_cpu_ms, "ms");
    result_.Add("reduce.groups." + engine, static_cast<double>(s.groups), "count");
    result_.Add("reduce.queue_wait_us_p95." + engine,
                static_cast<double>(report.reduce_queue_wait_us.Quantile(0.95)), "us");

    for (const char* stage : {"map", "shuffle", "reduce"}) {
      double ms = 0;
      for (const obs::CriticalPathEntry& entry : report.timeline.critical_path) {
        ms += entry.stage == stage ? entry.ms : 0;
      }
      result_.Add("critical_path." + std::string(stage) + "_share." + engine,
                  ratio(ms, report.timeline.critical_path_ms), "ratio");
    }
  }

  // Single-threaded pass over one segment at a time that times each layer
  // entry point in isolation, folds every segment's summaries in order and
  // checks Query::Result per key against the oracle.
  void ProbePass(uint64_t parent) {
    using UpdateFn = void (*)(State&, const Event&);
    using Aggregator = SymbolicAggregator<State, Event, UpdateFn>;
    Span phase(cfg_.tracer, "probe", parent);
    ++result_.attempted;

    uint64_t records = 0, rejects = 0, parsed = 0, segment_groups = 0;
    uint64_t summaries = 0, summary_bytes = 0, compose_calls = 0;
    std::map<Key, State> folded;
    std::map<Key, Summary<State>> previous;  // each key's last summary so far
    bool ok = true;
    try {
      for (size_t seg = 0; seg < data_.segments.size(); ++seg) {
        Span segment(cfg_.tracer, "probe.segment", phase.id());
        segment.AddArg("segment", seg);
        const uint64_t sid = segment.id();

        std::vector<std::pair<Key, Event>> rows;
        {
          Span layer(cfg_.tracer, "probe.parse", sid);
          LineCursor cursor(data_.segments[seg]);
          while (const auto line = cursor.Next()) {
            ++records;
            auto rec = Query::Parse(*line);
            if (rec.has_value()) {
              rows.push_back(std::move(*rec));
            } else {
              ++rejects;
            }
          }
        }
        parsed += rows.size();

        std::vector<uint32_t> group_of(rows.size());
        std::vector<Key> keys;
        {
          Span layer(cfg_.tracer, "probe.group_map", sid);
          FlatGroupMap<Key, uint32_t> groups;
          for (size_t i = 0; i < rows.size(); ++i) {
            const auto [g, inserted] =
                groups.GetOrEmplace(rows[i].first, static_cast<uint32_t>(keys.size()));
            if (inserted) {
              keys.push_back(rows[i].first);
            }
            group_of[i] = *g;
          }
        }
        segment_groups += keys.size();

        {
          Span layer(cfg_.tracer, "probe.concrete", sid);
          std::vector<State> states(keys.size());
          for (size_t i = 0; i < rows.size(); ++i) {
            Query::Update(states[group_of[i]], rows[i].second);
          }
        }

        std::deque<Aggregator> aggs;  // aggregators are not movable
        {
          Span layer(cfg_.tracer, "probe.feed", sid);
          for (size_t g = 0; g < keys.size(); ++g) {
            aggs.emplace_back(&Query::Update);
          }
          for (size_t i = 0; i < rows.size(); ++i) {
            aggs[group_of[i]].Feed(rows[i].second);
          }
        }

        std::vector<std::vector<Summary<State>>> finished(keys.size());
        {
          Span layer(cfg_.tracer, "probe.finish", sid);
          for (size_t g = 0; g < keys.size(); ++g) {
            finished[g] = aggs[g].Finish();
          }
        }

        std::vector<BinaryWriter> blobs(keys.size());
        {
          Span layer(cfg_.tracer, "probe.serialize", sid);
          for (size_t g = 0; g < keys.size(); ++g) {
            for (const Summary<State>& s : finished[g]) {
              s.Serialize(blobs[g]);
            }
          }
        }

        std::vector<std::vector<Summary<State>>> decoded(keys.size());
        {
          Span layer(cfg_.tracer, "probe.deserialize", sid);
          for (size_t g = 0; g < keys.size(); ++g) {
            BinaryReader r(blobs[g].buffer().data(), blobs[g].size());
            decoded[g].resize(finished[g].size());
            for (Summary<State>& s : decoded[g]) {
              s.Deserialize(r);
            }
            ok = ok && r.AtEnd();
          }
        }
        for (size_t g = 0; g < keys.size(); ++g) {
          summaries += finished[g].size();
          summary_bytes += blobs[g].size();
        }

        // Summary ⊙ summary: this segment's summaries composed onto the
        // key's last summary from earlier segments.
        std::vector<std::vector<Summary<State>>> chains(keys.size());
        for (size_t g = 0; g < keys.size(); ++g) {
          const auto prev = previous.find(keys[g]);
          if (prev != previous.end()) {
            chains[g].push_back(prev->second);
            chains[g].insert(chains[g].end(), decoded[g].begin(), decoded[g].end());
            compose_calls += chains[g].size() - 1;
          }
        }
        {
          Span layer(cfg_.tracer, "probe.compose", sid);
          for (size_t g = 0; g < keys.size(); ++g) {
            if (!chains[g].empty()) {
              const Summary<State> composed = ComposeAll(chains[g]);
              ok = ok && !composed.empty();
            }
          }
        }
        for (size_t g = 0; g < keys.size(); ++g) {
          previous.insert_or_assign(keys[g], decoded[g].back());
        }

        std::vector<State*> state_of(keys.size());
        for (size_t g = 0; g < keys.size(); ++g) {
          state_of[g] = &folded[keys[g]];
        }
        {
          Span layer(cfg_.tracer, "probe.apply", sid);
          for (size_t g = 0; g < keys.size(); ++g) {
            for (const Summary<State>& s : decoded[g]) {
              ok = s.ApplyTo(*state_of[g]) && ok;
            }
          }
        }

        {
          Span layer(cfg_.tracer, "probe.event_serialize", sid);
          BinaryWriter w;
          for (const auto& row : rows) {
            Query::SerializeEvent(row.second, w);
          }
          BinaryReader r(w.buffer().data(), w.size());
          for (size_t i = 0; i < rows.size(); ++i) {
            Query::DeserializeEvent(r);
          }
          ok = ok && r.AtEnd();
        }
      }
    } catch (const std::exception& e) {
      result_.Fail(std::string("probe pass threw: ") + e.what());
      return;
    }

    bool matches = ok && folded.size() == oracle_.size();
    for (auto it = folded.begin(); matches && it != folded.end(); ++it) {
      const auto expected = oracle_.find(it->first);
      matches = expected != oracle_.end() &&
                Query::Result(it->second, it->first) == expected->second;
    }
    if (!matches) {
      result_.Fail("probe pass: folded summaries differ from the oracle");
    }

    std::map<std::string, double> self_us;
    for (const auto& [name, us] : SelfTimeUs(*cfg_.tracer, phase.id())) {
      self_us[name] = us;
    }
    const auto per = [](double us, uint64_t n, double scale) {
      return n > 0 ? us * scale / static_cast<double>(n) : 0.0;
    };
    const double concrete_ns = per(self_us["probe.concrete"], parsed, 1e3);
    const double feed_ns = per(self_us["probe.feed"], parsed, 1e3);
    result_.Add("parse.ns_per_record", per(self_us["probe.parse"], records, 1e3), "ns");
    result_.Add("parse.reject_ratio",
                records > 0 ? static_cast<double>(rejects) / static_cast<double>(records) : 0,
                "ratio");
    result_.Add("group_map.ns_per_lookup", per(self_us["probe.group_map"], parsed, 1e3),
                "ns");
    result_.Add("concrete.ns_per_record", concrete_ns, "ns");
    result_.Add("feed.ns_per_record", feed_ns, "ns");
    result_.Add("feed.overhead_x", concrete_ns > 0 ? feed_ns / concrete_ns : 0, "x");
    result_.Add("summary.finish_ns_per_group",
                per(self_us["probe.finish"], segment_groups, 1e3), "ns");
    result_.Add("summary.apply_ns_per_summary", per(self_us["probe.apply"], summaries, 1e3),
                "ns");
    result_.Add("summary.compose_ns_per_summary",
                per(self_us["probe.compose"], compose_calls, 1e3), "ns");
    result_.Add("serialize.summary.ns_per_byte",
                per(self_us["probe.serialize"], summary_bytes, 1e3), "ns");
    result_.Add("serialize.summary.bytes_per_group",
                per(static_cast<double>(summary_bytes), segment_groups, 1), "bytes");
    result_.Add("serialize.summary.deserialize_ns",
                per(self_us["probe.deserialize"], summaries, 1e3), "ns");
    result_.Add("serialize.event.ns_per_record",
                per(self_us["probe.event_serialize"], parsed, 1e3), "ns");
  }

  static std::vector<double> Scaled(std::vector<double> v, double factor) {
    for (double& x : v) {
      x *= factor;
    }
    return v;
  }

  void AddP50(std::string name, const std::vector<double>& samples, std::string unit) {
    result_.Add(std::move(name), Quantile(samples, 0.5), std::move(unit), samples);
  }

  // (a / b - 1) in percent; 0 when b is 0.
  static double Pct(double a, double b) { return b > 0 ? (a / b - 1) * 100 : 0; }

  const RunConfig& cfg_;
  const WorkloadSpec& spec_;
  WorkloadResult result_;
  Dataset data_;
  Outputs oracle_;
  EngineSamples timed_[kEngineCount];
  FaultCounts faults_;
  std::vector<double> calib_ms_;
  std::vector<double> setup_s_;
};

template <typename Query>
WorkloadResult RunWorkload(const RunConfig& cfg, const WorkloadSpec& spec,
                           uint64_t parent_span) {
  return WorkloadBench<Query>(cfg, spec).Run(parent_span);
}

}  // namespace symple::e2e

#endif  // SYMPLE_BENCH_E2E_HARNESS_H_
