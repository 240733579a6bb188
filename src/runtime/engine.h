// The groupby-aggregate engines, mirroring Section 6.2's configurations.
//
//   RunSequential  — the oracle: one thread, one in-memory group table,
//                    concrete UDA ("Sequential").
//
// Every other engine is one map/shuffle/reduce pipeline (internal::RunPipeline)
// varied along two axes:
//
//   map body  — rows (RowsBody): the hand-optimized MapReduce baseline,
//               groupby in the mappers emitting only the UDA-used fields,
//               UDA executed concretely in the reducers; all grouped records
//               cross the shuffle.
//             — summaries (SummariesBody): SYMPLE, groupby *and* symbolic UDA
//               in the mappers; only symbolic summaries cross the shuffle;
//               reducers compose them in order.
//   executor  — threads (ThreadExecutor): morsel-driven map workers in this
//               process (RunBaselineMapReduce, RunSymple).
//             — fork (ForkExecutor, process_engine.h): map workers are forked
//               processes streaming packets over pipes (RunBaselineForked,
//               RunSympleForked).
//
// All of them run the *same* user Update function: concretely when no
// ExecContext is installed, symbolically inside SymbolicAggregator.
//
// A query is a stateless traits struct:
//
//   struct MyQuery {
//     using Key    = ...;   // ordered (<) + ValueCodec
//     using Event  = ...;   // the fields the UDA consumes
//     using State  = ...;   // symbolic aggregation state (list_fields())
//     using Output = ...;   // per-group result
//     static constexpr const char* kName;
//     static std::optional<std::pair<Key, Event>> Parse(std::string_view line);
//     static void Update(State&, const Event&);
//     static Output Result(const State&, const Key&);
//     static void SerializeEvent(const Event&, BinaryWriter&);
//     static Event DeserializeEvent(BinaryReader&);
//   };
//
// The shuffle is real: packets are serialized byte buffers, sorted by
// (key, mapper_id, record_id) exactly as Section 5.4 prescribes, and the
// reported shuffle_bytes is their total size.
#ifndef SYMPLE_RUNTIME_ENGINE_H_
#define SYMPLE_RUNTIME_ENGINE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <ctime>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/memory_budget.h"
#include "common/thread_pool.h"
#include "common/text_key.h"
#include "core/aggregator.h"
#include "core/flat_group_map.h"
#include "core/degrade.h"
#include "core/summary.h"
#include "core/value_codec.h"
#include "obs/report.h"
#include "obs/resource.h"
#include "obs/timeline.h"
#include "runtime/cost_model.h"
#include "runtime/dataset.h"
#include "runtime/engine_stats.h"
#include "runtime/spill.h"
#include "serialize/binary_io.h"

namespace symple {

// How a SYMPLE reducer combines a key's ordered summaries (Section 3.6).
enum class ReduceMode {
  // Fold each summary onto the concrete state in input order:
  // Sn(...S3(S2(C1))). One pass, no summary-summary composition.
  kSequentialFold,
  // Pairwise tree composition first (function composition is associative),
  // then a single application. This is the shape a further-parallelized
  // reduce would use.
  kTreeCompose,
};

// Resource budgets bounding symbolic execution per segment (SYMPLE engines
// only). A "segment" here is one (map chunk, group) sub-stream — the unit the
// paper's summaries describe and the unit that degrades to concrete replay
// when a budget trips (docs/degradation.md). 0 means unlimited.
struct DegradeBudgets {
  // Total symbolic paths (emitted + live) a segment may accumulate before it
  // degrades with reason path_budget.
  size_t max_paths_per_segment = 0;
  // Serialized summary bytes a segment may produce before it degrades with
  // reason summary_bytes.
  size_t max_summary_bytes_per_segment = 0;
  // Test hook: degrade every segment up front (reason forced), forcing the
  // reducer down the concrete-replay path for the whole query.
  bool force_degrade = false;
};

struct EngineOptions {
  // Worker threads executing map tasks (the paper's "mappers" axis in
  // Figure 4). Each dataset segment is one map task regardless.
  size_t map_slots = 4;
  // Worker threads executing reduce tasks.
  size_t reduce_slots = 4;
  // Summary combination strategy at the reducer (SYMPLE engine only).
  ReduceMode reduce_mode = ReduceMode::kSequentialFold;
  // Hash partitions for the parallel shuffle: mappers route each packet to
  // hash(key) % P as they emit, and each partition is sorted independently in
  // parallel. 0 = auto (one partition per reduce slot). A key's packets always
  // land in exactly one partition, so the Section 5.4 per-key composition
  // order is preserved (docs/shuffle.md).
  size_t reduce_partitions = 0;
  // Expected distinct groups per map segment: pre-sizes each segment's
  // FlatGroupMap index (and the sequential engine's global table) so
  // high-cardinality workloads do not rehash their way up from 16 buckets.
  // 0 = auto: derived from the record-count hint, capped so low-cardinality
  // workloads do not over-reserve (internal::ResolveGroupCapacityHint).
  size_t group_capacity_hint = 0;
  // Records per map morsel (docs/scheduling.md). Map segments are subdivided
  // into record-aligned morsels pulled from per-worker stealing deques, so a
  // skewed segment layout no longer strands every core behind the largest
  // segment. Each morsel's packets compose left-to-right into its segment's
  // output at the reducer (Section 5.4 order), so results stay byte-identical
  // to sequential at any morsel size. 0 = auto: sized so each map slot sees
  // roughly kMorselsPerSlotTarget morsels, floored high enough that
  // composition overhead stays negligible and small inputs keep one morsel
  // per segment.
  size_t morsel_records = 0;
  // Symbolic exploration knobs (SYMPLE engine only).
  AggregatorOptions aggregator;
  // Symbolic→concrete degradation budgets (SYMPLE engines only).
  DegradeBudgets budgets;
  // Forked-process engines only (process_engine.h). A worker that delivers no
  // bytes for worker_timeout_ms is declared hung, killed, and its incomplete
  // segments re-executed; 0 disables the watchdog. Each worker lineage gets
  // worker_retry_limit respawns (internal::kWorkerRetryBackoffMs base
  // backoff, doubled per attempt) before the parent falls back to executing
  // the remaining segments in-process.
  int worker_timeout_ms = 30000;
  int worker_retry_limit = 2;
  // Memory-budgeted execution of the map/shuffle/reduce engines
  // (docs/spill.md). When the run's tracked allocation — group-table arenas
  // + bucket indexes + buffered shuffle packets — crosses
  // memory_budget_bytes, map tasks flush their group tables into the shuffle
  // and the shuffle moves sorted packet runs out to disk under spill_dir
  // (TMPDIR / /tmp when empty), merging them back streaming at reduce time.
  // Output stays byte-identical to the unbudgeted run. 0 = unlimited: memory
  // is still tracked (peak_tracked_bytes) but nothing ever spills.
  // RunSequential ignores the limit (it only tracks its peak); a bounded
  // single-thread run is RunBaselineMapReduce at map_slots = 1.
  uint64_t memory_budget_bytes = 0;
  std::string spill_dir;
  // Optional observability sink: when set, the engine reports one observation
  // per map/reduce task (and trace spans, when the observer carries a
  // Tracer). Null means zero instrumentation overhead beyond EngineStats.
  obs::RunObserver* observer = nullptr;
};

// Fills an obs::RunReport from a finished run: engine config, the EngineStats
// snapshot, and (when an observer was attached) the per-task distributions.
inline obs::RunReport MakeRunReport(const std::string& query,
                                    const std::string& engine_name,
                                    const EngineOptions& options,
                                    const EngineStats& stats,
                                    const obs::RunObserver* observer = nullptr) {
  obs::RunReport report;
  if (observer != nullptr) {
    observer->FillReport(&report);
  }
  report.query = query;
  report.engine = engine_name;
  report.config = {
      {"map_slots", std::to_string(options.map_slots)},
      {"reduce_slots", std::to_string(options.reduce_slots)},
      {"reduce_mode",
       options.reduce_mode == ReduceMode::kSequentialFold ? "fold" : "tree"},
      {"reduce_partitions", std::to_string(options.reduce_partitions)},
      {"group_capacity_hint", std::to_string(options.group_capacity_hint)},
      {"morsel_records", std::to_string(options.morsel_records)},
      {"max_live_paths", std::to_string(options.aggregator.max_live_paths)},
      {"max_paths_per_record",
       std::to_string(options.aggregator.max_paths_per_record)},
      {"enable_merging", options.aggregator.enable_merging ? "true" : "false"},
      {"worker_timeout_ms", std::to_string(options.worker_timeout_ms)},
      {"worker_retry_limit", std::to_string(options.worker_retry_limit)},
      {"max_paths_per_segment",
       std::to_string(options.budgets.max_paths_per_segment)},
      {"max_summary_bytes_per_segment",
       std::to_string(options.budgets.max_summary_bytes_per_segment)},
      {"force_degrade", options.budgets.force_degrade ? "true" : "false"},
      {"memory_budget_bytes", std::to_string(options.memory_budget_bytes)},
      {"spill_dir", options.spill_dir},
  };
  report.totals = stats;

  // Run analyzer: cost-model calibration and — when a tracer was attached —
  // the span ring folded into the timeline model.
  // The sequential engine runs one slot regardless of options; validating the
  // model against the configured slot count would fabricate parallelism.
  const bool sequential = engine_name == "sequential";
  report.model_error = ValidateCostModel(stats, sequential ? 1 : options.map_slots,
                                         sequential ? 1 : options.reduce_slots);
  if (observer != nullptr && observer->tracer() != nullptr) {
    report.timeline = obs::BuildRunTimeline(observer->tracer()->Spans(),
                                            observer->trace_pid(), stats);
  }
  return report;
}

template <typename Query>
struct RunResult {
  std::map<typename Query::Key, typename Query::Output> outputs;
  EngineStats stats;
};

namespace internal {

inline double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   start)
      .count();
}

// Samples getrusage at construction and folds the delta into EngineStats when
// the run finishes. Free when obs is disabled (SampleRunResources no-ops).
class ResourceScope {
 public:
  ResourceScope() : start_(obs::SampleRunResources()) {}
  void Fold(EngineStats* stats) const {
    stats->rusage = obs::RunResourceDelta(obs::SampleRunResources(), start_);
  }

 private:
  obs::RunResourceUsage start_;
};

// Per-thread CPU time. Task CPU must be measured with the thread clock, not
// wall time: when worker threads outnumber cores, wall time per task inflates
// with time slicing and would misreport the Figure 7 CPU-usage metric.
inline double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

// One mapper-output record: everything a packet costs on the wire is inside
// `blob` (key, ids, payload), so shuffle accounting is exact.
template <typename Key>
struct ShufflePacket {
  Key key{};
  uint32_t mapper_id = 0;
  uint64_t record_id = 0;  // first record id covered by this packet
  std::vector<uint8_t> blob;

  // Ordering of Section 5.4: lexicographic by key, then mapper, then record.
  friend bool operator<(const ShufflePacket& a, const ShufflePacket& b) {
    if (a.key != b.key) {
      return a.key < b.key;
    }
    if (a.mapper_id != b.mapper_id) {
      return a.mapper_id < b.mapper_id;
    }
    return a.record_id < b.record_id;
  }
};

template <typename Key>
uint64_t PacketBytes(const ShufflePacket<Key>& p) {
  // Key + ids ship inside the packet header. This runs once per packet on the
  // map hot path, so the header is sized arithmetically (WireSizeOf is pure
  // arithmetic for every codec that declares WireSize) instead of through a
  // scratch BinaryWriter.
  return WireSizeOf(p.key) + VarUintSize(p.mapper_id) + VarUintSize(p.record_id) +
         VarUintSize(p.blob.size()) + p.blob.size();
}

// Conservative bound on a packet's non-key header (mapper, record id, blob
// length prefix, and the row-count varint a baseline blob leads with).
// RowsBody::Feed pre-charges it once per group (docs/spill.md).
inline constexpr uint64_t kPacketHeaderOverhead = 12;

// Packet wire codec, shared by the forked-engine segment frames
// (process_engine.h) and the spill-run frames: packets serialized into
// either carrier are byte-identical.
template <typename Key>
void SerializePacketFrame(const ShufflePacket<Key>& p, BinaryWriter& w) {
  ValueCodec<Key>::Write(w, p.key);
  w.WriteVarUint(p.mapper_id);
  w.WriteVarUint(p.record_id);
  w.WriteVarUint(p.blob.size());
  w.WriteBytes(p.blob.data(), p.blob.size());
}

template <typename Key>
ShufflePacket<Key> DeserializePacketFrame(BinaryReader& r) {
  ShufflePacket<Key> p;
  p.key = ValueCodec<Key>::Read(r);
  p.mapper_id = r.ReadVarUint32();
  p.record_id = r.ReadVarUint();
  const uint64_t blob_size = r.ReadVarUint();
  if (blob_size > r.remaining()) {
    // A length claiming more than the framed payload holds is corrupt wire
    // data (SympleIoError taxonomy), never a silent truncation.
    throw SympleWireError("packet blob size exceeds frame (" +
                          std::to_string(blob_size) + " > " +
                          std::to_string(r.remaining()) + " bytes)");
  }
  p.blob.resize(blob_size);
  r.ReadBytes(p.blob.data(), p.blob.size());
  return p;
}

// --- group-table sizing ---------------------------------------------------------

// Resolves the per-table group capacity hint: an explicit
// EngineOptions::group_capacity_hint wins; otherwise the record-count hint
// (records the table will see — per segment for map tables, total for the
// sequential engine) bounds the group count from above, capped so
// low-cardinality workloads do not over-reserve index memory.
inline constexpr size_t kDefaultGroupCapacity = 1024;
inline constexpr size_t kMaxAutoGroupCapacity = 1 << 16;

inline size_t ResolveGroupCapacityHint(size_t option_hint, uint64_t records_hint) {
  if (option_hint > 0) {
    return option_hint;
  }
  if (records_hint == 0) {
    return kDefaultGroupCapacity;
  }
  return static_cast<size_t>(
      std::min<uint64_t>(records_hint, kMaxAutoGroupCapacity));
}

// Under a memory budget the table must not pre-reserve the budget away: the
// capacity hint reserves `hint * sizeof(Node)` arena bytes plus the bucket
// index up front — and the arena's first (reserved) chunk survives every
// Reset, so an oversized hint would pin a tracked footprint above the
// budget for the whole run and freeze every pass at its first check. Cap
// the hint so the initial reservation is at most ~1/8 of the budget; the
// table still grows (and the growth is released on Clear) if the groups
// really materialize.
inline size_t ClampHintToBudget(size_t hint, const MemoryBudget* budget,
                                size_t bytes_per_group) {
  if (budget == nullptr || budget->limit_bytes() == 0) {
    return hint;
  }
  const size_t bpg = std::max<size_t>(bytes_per_group, 1);
  uint64_t cap = std::max<uint64_t>(16, budget->limit_bytes() / 8 / bpg);
  // A table constructed mid-run — a late map task while earlier tasks already
  // sit at the spill watermark — must not land its whole reservation in one
  // charge the spiller never saw coming: shrink the hint to half of whatever
  // headroom is left below the watermark, down to a minimal table that grows
  // (in budget-capped chunks) only if its groups really materialize.
  const uint64_t watermark = budget->limit_bytes() - budget->limit_bytes() / 4;
  const uint64_t tracked = budget->tracked_bytes();
  const uint64_t headroom = tracked < watermark ? watermark - tracked : 0;
  cap = std::min(cap, std::max<uint64_t>(16, headroom / 2 / bpg));
  return static_cast<size_t>(std::min<uint64_t>(hint, cap));
}

// --- hash-partitioned shuffle ---------------------------------------------------

// Stable partition routing: every packet of a key maps to the same partition,
// so a key's full (mapper, record)-ordered run lives in exactly one partition.
// HashGroupKey (core/flat_group_map.h) is the same splitmix64-finalized hash
// the group tables probe with, so the partitioner and the tables agree on key
// distribution.
template <typename Key>
size_t ShufflePartitionOf(const Key& key, size_t num_partitions) {
  return static_cast<size_t>(HashGroupKey(key) % num_partitions);
}

// The mapper->reducer exchange: P lock-striped partitions that map tasks (or
// the forked-mode parent drain, one committed segment at a time) route
// packets into with AddBatch. Each partition is later sorted independently
// and in parallel, replacing the old single-threaded global sort. Byte counts
// accumulate per partition so the run report can surface partition skew.
//
// Under a memory budget it is also the run's external sort (docs/spill.md):
// once the budget reports over(), the heaviest partition's buffered packets
// are merged into order and moved out as an on-disk run, and the reduce
// stage streams a spilled partition back through MergePartition. The temp
// directory is created on the first spill and removed — with any files still
// inside — when the buffer is destroyed.
template <typename Key>
class ShuffleBuffer {
 public:
  using Packet = ShufflePacket<Key>;

  // `expected_packets`, when nonzero, pre-reserves every partition's packet
  // vector for its even share (plus slack for hash imbalance) so the build
  // side does not reallocate its way up from empty on large shuffles.
  // `budget`, when set, is charged for every buffered packet byte, and a
  // nonzero limit makes the buffer spill into a temp directory under
  // `spill_dir` (TMPDIR / /tmp when empty).
  explicit ShuffleBuffer(size_t num_partitions, uint64_t expected_packets = 0,
                         MemoryBudget* budget = nullptr, std::string spill_dir = {})
      : budget_(budget),
        spill_dir_(std::move(spill_dir)),
        faults_{FaultSpecFromEnv(/*spill=*/true)},
        parts_(num_partitions == 0 ? 1 : num_partitions) {
    const size_t per_part =
        expected_packets > 0
            ? static_cast<size_t>(expected_packets / parts_.size() +
                                  expected_packets / (4 * parts_.size()) + 1)
            : 0;
    for (auto& p : parts_) {
      p = std::make_unique<Partition>();
      if (per_part > 0) {
        p->packets.reserve(per_part);
      }
    }
  }

  ~ShuffleBuffer() { Release(); }

  // Frees every buffered packet and on-disk run (and the spill directory)
  // and returns the buffered bytes to the budget. The cumulative per-partition
  // counts survive. The reduce stage calls it on the coordinating thread once
  // the packets are consumed, so their teardown lands inside the run's walls.
  void Release() {
    uint64_t held = 0;
    for (auto& p : parts_) {
      held += p->mem_bytes;
      p->mem_bytes = 0;
      std::vector<Packet>().swap(p->packets);
      p->run_ends.clear();
      p->runs.clear();
    }
    dir_.reset();
    if (budget_ != nullptr) {
      budget_->Release(held);
    }
  }

  size_t partition_count() const { return parts_.size(); }

  // Routes one map task's packets: buckets locally first, then takes each
  // touched partition's stripe lock exactly once (per-mapper sub-buckets
  // merged at the stripe, not a global lock). Returns the batch's total
  // serialized bytes for the caller's task accounting.
  //
  // Under a budget the batch lands in bounded slices (limit/64 each) with a
  // charge + spill check between them: a mid-segment flush can hand over a
  // batch worth a sizable fraction of the whole budget, and charging it in
  // one step right at the watermark would spike the tracked peak past the
  // budget before any spiller could react.
  //
  // Pipelined map→shuffle handoff (docs/scheduling.md): each per-partition
  // sub-bucket is sorted *here*, on the producing map worker, before it is
  // appended under the stripe lock, and the [start, end) of the appended
  // range is recorded as a sorted run. The post-barrier SortPartition then
  // merges the recorded runs (pairwise inplace_merge cascade) instead of
  // sorting the whole partition from scratch — the O(n log n) comparison
  // work moves off the shuffle barrier and overlaps the map phase.
  uint64_t AddBatch(std::vector<Packet>&& batch) {
    const size_t num_parts = parts_.size();
    const uint64_t slice_limit =
        budget_ != nullptr && budget_->limit_bytes() > 0
            ? std::max<uint64_t>(budget_->limit_bytes() / 64, 4096)
            : UINT64_MAX;
    uint64_t batch_bytes = 0;
    size_t i = 0;
    while (i < batch.size()) {
      std::vector<std::vector<size_t>> local(num_parts);
      std::vector<uint64_t> local_bytes(num_parts, 0);
      uint64_t slice_bytes = 0;
      for (; i < batch.size() && slice_bytes < slice_limit; ++i) {
        const size_t part = ShufflePartitionOf(batch[i].key, num_parts);
        const uint64_t bytes = PacketBytes(batch[i]);
        local[part].push_back(i);
        local_bytes[part] += bytes;
        slice_bytes += bytes;
      }
      for (size_t part = 0; part < num_parts; ++part) {
        if (local[part].empty()) {
          continue;
        }
        // Sort this sub-bucket outside the stripe lock. Indexes, not
        // packets: the packets move exactly once, straight into the
        // partition vector, already in run order.
        std::sort(local[part].begin(), local[part].end(),
                  [&batch](size_t a, size_t b) { return batch[a] < batch[b]; });
        Partition& target = *parts_[part];
        std::lock_guard<std::mutex> lock(target.mu);
        target.bytes += local_bytes[part];
        target.mem_bytes += local_bytes[part];
        target.packet_count += local[part].size();
        for (const size_t idx : local[part]) {
          target.packets.push_back(std::move(batch[idx]));
        }
        target.run_ends.push_back(target.packets.size());
      }
      batch_bytes += slice_bytes;
      if (budget_ != nullptr) {
        budget_->Charge(slice_bytes);
        MaybeSpill();
      }
    }
    return batch_bytes;
  }

  // Post-barrier: brings partition `i` into full (key, mapper, record)
  // order by merging its recorded runs. Callers must have quiesced all
  // producers.
  void SortPartition(size_t i) {
    Partition& part = *parts_[i];
    MergeRuns(&part.packets, std::move(part.run_ends));
    part.run_ends.clear();
  }

  // Post-barrier accessors; callers must have quiesced all producers.
  std::vector<Packet>& partition(size_t i) { return parts_[i]->packets; }
  // Cumulative over the run: a spilled partition counts its on-disk runs.
  uint64_t partition_bytes(size_t i) const { return parts_[i]->bytes; }
  uint64_t partition_packets(size_t i) const { return parts_[i]->packet_count; }
  uint64_t total_packets() const {
    uint64_t n = 0;
    for (const auto& p : parts_) {
      n += p->packet_count;
    }
    return n;
  }
  // A partition with runs on disk reduces through MergePartition.
  bool spilled(size_t i) const { return !parts_[i]->runs.empty(); }
  uint64_t spill_runs() const { return spill_runs_; }
  uint64_t spill_bytes() const { return spill_bytes_; }  // incl. envelopes

  // Streams partition `part` back in global (key, mapper, record) order: a
  // k-way merge of its on-disk runs and its in-memory remainder, which
  // SortPartition must have sorted. Each key's packets are gathered into a
  // scratch vector and handed to `fn(key, first, last)` — the same per-key
  // contract the in-memory reduce uses, so downstream reduce code cannot
  // tell a spilled partition from a resident one. Moves the remainder's
  // packets out.
  template <typename Fn>
  void MergePartition(size_t part, Fn&& fn) {
    std::vector<Packet>& mem = parts_[part]->packets;
    std::vector<std::unique_ptr<RunCursor>> cursors;
    cursors.reserve(parts_[part]->runs.size());
    for (const auto& run : parts_[part]->runs) {
      cursors.push_back(std::make_unique<RunCursor>(run->path()));
    }
    size_t mem_pos = 0;
    const auto pop_min = [&](Packet* out) {
      const Packet* best = mem_pos < mem.size() ? &mem[mem_pos] : nullptr;
      int best_cursor = -1;
      for (size_t c = 0; c < cursors.size(); ++c) {
        if (!cursors[c]->done() &&
            (best == nullptr || cursors[c]->head() < *best)) {
          best = &cursors[c]->head();
          best_cursor = static_cast<int>(c);
        }
      }
      if (best == nullptr) {
        return false;
      }
      if (best_cursor < 0) {
        *out = std::move(mem[mem_pos++]);
      } else {
        *out = std::move(cursors[best_cursor]->head());
        cursors[best_cursor]->Pop();
      }
      return true;
    };
    std::vector<Packet> scratch;
    Packet p;
    while (pop_min(&p)) {
      if (!scratch.empty() && !(scratch.front().key == p.key)) {
        fn(scratch.front().key, scratch.data(), scratch.data() + scratch.size());
        scratch.clear();
      }
      scratch.push_back(std::move(p));
    }
    if (!scratch.empty()) {
      fn(scratch.front().key, scratch.data(), scratch.data() + scratch.size());
    }
  }

 private:
  struct Partition {
    std::mutex mu;
    std::vector<Packet> packets;
    // Ends of the sorted runs appended so far ([0, run_ends[0]) is run 0,
    // [run_ends[0], run_ends[1]) run 1, ...); the last one is packets.size().
    std::vector<size_t> run_ends;
    uint64_t bytes = 0;         // cumulative serialized bytes routed here
    uint64_t packet_count = 0;  // cumulative packets routed here
    uint64_t mem_bytes = 0;     // bytes currently buffered (drops on spill)
    std::vector<std::unique_ptr<TempFile>> runs;  // on disk; see spill_mu_
  };

  // Buffered sequential reader over one run file: deserializes a frame's
  // packets at a time, exposing the head packet for the merge's min-scan.
  class RunCursor {
   public:
    explicit RunCursor(const std::string& path) : fd_(OpenRun(path)) { Refill(); }
    bool done() const { return done_; }
    Packet& head() { return buf_[pos_]; }
    void Pop() {
      if (++pos_ == buf_.size()) {
        Refill();
      }
    }

   private:
    void Refill() {
      buf_.clear();
      pos_ = 0;
      std::vector<uint8_t> payload;
      while (buf_.empty()) {
        if (!ReadFrame(fd_.get(), &payload)) {
          done_ = true;
          return;
        }
        uint8_t type = 0;
        BinaryReader r = ValidateFrame(payload, &type);
        if (type != kFramePackets) {
          throw SympleWireError("unexpected frame type in a spill run");
        }
        while (!r.AtEnd()) {
          buf_.push_back(DeserializePacketFrame<Key>(r));
        }
      }
    }

    UniqueFd fd_;
    std::vector<Packet> buf_;
    size_t pos_ = 0;
    bool done_ = false;
  };

  // Brings `v` into (key, mapper, record) order. Every buffered packet sits
  // in a sorted run that AddBatch or a spill put-back recorded, ending at
  // `ends`, so a pairwise inplace_merge cascade does O(n log k) merge work
  // (k = runs) on already-sorted pieces.
  static void MergeRuns(std::vector<Packet>* v, std::vector<size_t> ends) {
    SYMPLE_CHECK((ends.empty() ? 0 : ends.back()) == v->size(),
                 "shuffle partition holds packets outside its recorded runs");
    while (ends.size() > 1) {
      std::vector<size_t> merged;
      merged.reserve((ends.size() + 1) / 2);
      size_t begin = 0;
      for (size_t k = 0; k < ends.size(); k += 2) {
        if (k + 1 < ends.size()) {
          std::inplace_merge(v->begin() + static_cast<ptrdiff_t>(begin),
                             v->begin() + static_cast<ptrdiff_t>(ends[k]),
                             v->begin() + static_cast<ptrdiff_t>(ends[k + 1]));
          merged.push_back(ends[k + 1]);
          begin = ends[k + 1];
        } else {
          merged.push_back(ends[k]);
          begin = ends[k];
        }
      }
      ends = std::move(merged);
    }
  }

  // Spilling is worth attempting only when a budget can actually trip, and
  // stops after the disk has proven itself broken (two failed attempts).
  bool spill_enabled() const {
    return budget_ != nullptr && budget_->limit_bytes() > 0 &&
           !spill_broken_.load(std::memory_order_relaxed);
  }

  // Budget reaction: while tracked usage is over the line, sort and spill
  // the partition holding the most buffered bytes. try_lock keeps exactly
  // one spiller active without ever blocking the other producers; partitions
  // under kMinSpillBytes are left alone (the pressure is elsewhere — e.g.
  // map-side tables — and a run that small isn't worth a file).
  static constexpr uint64_t kMinSpillBytes = 4096;
  void MaybeSpill() {
    if (!spill_enabled() || !budget_->over()) {
      return;
    }
    // Soft pressure (past the 3/4 watermark): one spiller drains while the
    // other producers keep going. Hard pressure (within limit/8 of the
    // budget): the producers have collectively outrun that one spiller, so
    // they block on the spill lock instead — backpressure that bounds the
    // tracked peak under the configured budget no matter how lopsided the
    // producer/spiller speed ratio is. Callers hold no stripe lock here, so
    // blocking cannot deadlock with the spiller's per-partition swaps.
    std::unique_lock<std::mutex> spilling(spill_mu_, std::defer_lock);
    if (budget_->critical()) {
      spilling.lock();
    } else if (!spilling.try_lock()) {
      return;
    }
    while (budget_->over() && spill_enabled()) {
      size_t victim = parts_.size();
      uint64_t victim_bytes = kMinSpillBytes;
      for (size_t i = 0; i < parts_.size(); ++i) {
        std::lock_guard<std::mutex> lock(parts_[i]->mu);
        if (parts_[i]->mem_bytes >= victim_bytes) {
          victim_bytes = parts_[i]->mem_bytes;
          victim = i;
        }
      }
      if (victim == parts_.size()) {
        return;
      }
      Partition& part = *parts_[victim];
      std::vector<Packet> local;
      std::vector<size_t> local_ends;
      {
        std::lock_guard<std::mutex> lock(part.mu);
        local.swap(part.packets);
        // The recorded runs leave with the packets; whatever lands in the
        // emptied partition afterwards starts a fresh run sequence.
        local_ends.swap(part.run_ends);
        victim_bytes = part.mem_bytes;  // resample under the stripe lock
        part.mem_bytes = 0;
      }
      MergeRuns(&local, std::move(local_ends));
      if (SpillSortedRun(victim, local)) {
        budget_->Release(victim_bytes);
      } else {
        // The disk failed twice: put the packets back and run over budget —
        // the fault-injection contract is a successful (if unbounded) run.
        // They are sorted, so they return as one more run after whatever
        // arrived meanwhile.
        std::lock_guard<std::mutex> lock(part.mu);
        part.mem_bytes += victim_bytes;
        part.packets.insert(part.packets.end(), std::make_move_iterator(local.begin()),
                            std::make_move_iterator(local.end()));
        part.run_ends.push_back(part.packets.size());
        return;
      }
    }
  }

  // Writes `packets` — already sorted by the Section 5.4 packet order — as
  // one run of partition `part`. Every run is verified by read-back while
  // the packets are still in memory; a failed or corrupt file is discarded
  // and the run retried once on a fresh file. Returns false when the retry
  // also failed: the caller keeps the packets in memory (over budget beats
  // wrong or lost results) and spilling stops for the rest of the run. Only
  // MaybeSpill calls it, under spill_mu_.
  bool SpillSortedRun(size_t part, const std::vector<Packet>& packets) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      try {
        if (TrySpill(part, packets)) {
          return true;
        }
      } catch (const SympleError&) {
        // enospc / short write: the attempt's TempFile was already unlinked
        // by its destructor; fall through to the fresh-file retry.
      }
    }
    spill_broken_.store(true, std::memory_order_relaxed);
    return false;
  }

  // One attempt: serialize into ~kSpillBlockTargetBytes frames, then verify
  // the whole file by read-back (the spill-corrupt detection point — the
  // packets are still in memory, so a corrupt file costs a retry, never
  // data). Returns false on verification failure; throws SympleIoError on a
  // write failure. Either way the attempt's file never enters the partition.
  bool TrySpill(size_t part, const std::vector<Packet>& packets) {
    if (dir_ == nullptr) {
      dir_ = std::make_unique<TempDir>(spill_dir_);
    }
    auto file = std::make_unique<TempFile>(
        dir_->path(), "run-" + std::to_string(file_seq_++) + ".spill");
    FrameWriter writer(file->fd(), &faults_);
    BinaryWriter body;
    for (const Packet& p : packets) {
      SerializePacketFrame(p, body);
      if (body.size() >= kSpillBlockTargetBytes) {
        writer.WriteFrame(kFramePackets, body.buffer());
        body.Clear();
      }
    }
    if (body.size() > 0) {
      writer.WriteFrame(kFramePackets, body.buffer());
    }
    file->CloseFd();
    if (!VerifySpillFile(file->path(), writer.frames_written())) {
      return false;
    }
    ++spill_runs_;
    spill_bytes_ += writer.bytes_written();
    parts_[part]->runs.push_back(std::move(file));
    return true;
  }

  MemoryBudget* budget_;
  std::string spill_dir_;
  // Held by the one active spiller. Guards the members below it up to
  // spill_broken_, and each partition's runs; post-barrier readers need no
  // lock because the producers have quiesced.
  std::mutex spill_mu_;
  FaultInjector faults_;  // spill-* faults, indexed over every run's frames
  // Created on the first spill; declared before parts_ so the run files are
  // unlinked before the directory is swept.
  std::unique_ptr<TempDir> dir_;
  uint64_t file_seq_ = 0;
  uint64_t spill_runs_ = 0;
  uint64_t spill_bytes_ = 0;
  std::atomic<bool> spill_broken_{false};  // also read lock-free by producers
  std::vector<std::unique_ptr<Partition>> parts_;
};

// Partition count for an options struct: explicit value, or one partition per
// reduce slot so every reduce worker can sort in parallel.
inline size_t ResolveReducePartitions(const EngineOptions& options) {
  if (options.reduce_partitions > 0) {
    return options.reduce_partitions;
  }
  return options.reduce_slots > 0 ? options.reduce_slots : 1;
}

// SYMPLE packet blobs lead with a kind byte (SegmentResult tag): a segment's
// packet either carries its ordered symbolic summaries or a DeferredConcrete
// marker telling the reducer to replay the segment from the raw input.
// Baseline packets are untagged (they are already concrete rows).
inline constexpr uint8_t kSegmentSymbolic = 0;
inline constexpr uint8_t kSegmentDeferred = 1;

// DeferredConcrete marker: [kSegmentDeferred][varint segment_id][u8 reason]
// [string message][varint start_record]. segment_id duplicates the packet's
// mapper_id as a cross-check; the message preserves the original error for
// the run report. start_record is the first record of the group's current
// table incarnation: records before it already crossed the shuffle as
// summaries from an earlier morsel or budget flush (docs/spill.md), so the
// reducer's concrete replay must start there; 0 replays the whole segment.
inline std::vector<uint8_t> MakeDeferredBlob(uint32_t segment_id,
                                             DegradeReason reason,
                                             std::string_view message,
                                             uint64_t start_record = 0) {
  BinaryWriter w;
  w.WriteByte(kSegmentDeferred);
  w.WriteVarUint(segment_id);
  w.WriteByte(static_cast<uint8_t>(reason));
  w.WriteString(message);
  w.WriteVarUint(start_record);
  return w.TakeBuffer();
}

// Degrade bookkeeping shared by concurrent map tasks and reduce workers. The
// RunObserver contract is single-threaded post-quiesce, so events accumulate
// here under a mutex and FoldDegrades flushes them from the coordinating
// thread after each phase's pool has quiesced.
struct DegradeEvent {
  uint32_t segment_id = 0;
  DegradeReason reason = DegradeReason::kOther;
  std::string message;
  double replay_ms = 0;  // time the reducer spent concretely replaying
};

struct DegradeAccounting {
  std::mutex mu;
  uint64_t degraded_segments = 0;
  uint64_t replayed_records = 0;
  uint64_t reasons[kDegradeReasonCount] = {};
  std::vector<DegradeEvent> events;  // sampled, capped at kMaxEvents
  static constexpr size_t kMaxEvents = 64;

  void Record(uint32_t segment_id, DegradeReason reason,
              std::string_view message, uint64_t replayed = 0,
              double replay_ms = 0) {
    std::lock_guard<std::mutex> lock(mu);
    ++degraded_segments;
    replayed_records += replayed;
    ++reasons[static_cast<size_t>(reason)];
    if (events.size() < kMaxEvents) {
      events.push_back(
          DegradeEvent{segment_id, reason, std::string(message), replay_ms});
    }
  }
};

// Folds accumulated degrade events into the run's EngineStats and notifies
// the observer. Must run on the coordinating thread after pool quiesce.
inline void FoldDegrades(DegradeAccounting& acct, EngineStats* stats,
                         obs::RunObserver* observer) {
  stats->degraded_segments += acct.degraded_segments;
  stats->replayed_records += acct.replayed_records;
  for (size_t i = 0; i < kDegradeReasonCount; ++i) {
    stats->degrade_reasons[i] += acct.reasons[i];
  }
  if (observer != nullptr) {
    for (const DegradeEvent& e : acct.events) {
      observer->OnSegmentDegraded(e.segment_id, DegradeReasonName(e.reason),
                                  e.message, e.replay_ms);
    }
  }
  acct.degraded_segments = 0;
  acct.replayed_records = 0;
  for (uint64_t& r : acct.reasons) {
    r = 0;
  }
  acct.events.clear();
}

// The task-to-run fold: adds one finished map task's counters to the run's
// totals. Every executor calls it once per task — per segment in the morsel
// loop, per committed segment in the forked drain, once for the sequential
// scan — so a counter a map body fills reaches EngineStats the same way in
// every engine.
inline void FoldMapTask(const obs::MapTaskObs& t, EngineStats* stats) {
  stats->map_cpu_ms += t.cpu_ms;
  stats->parsed_records += t.parsed;
  stats->shuffle_bytes += t.bytes;
  stats->summaries += t.summaries;
  stats->summary_paths += t.summary_paths;
  stats->map_morsels += t.morsels;
  stats->morsel_steals += t.stolen_morsels;
  stats->exploration += t.exploration;
  stats->group_map += t.group_map;
}

}  // namespace internal

// --- Sequential baseline ------------------------------------------------------

template <typename Query>
RunResult<Query> RunSequential(const Dataset& data, const EngineOptions& options = {}) {
  using Key = typename Query::Key;
  using State = typename Query::State;

  obs::RunObserver* observer = options.observer;
  // The whole scan is one logical map task (mapper 0, no shuffle/reduce).
  obs::MapTaskObs task;
  task.start_us = observer != nullptr ? observer->NowUs() : 0;
  const internal::ResourceScope resources;
  const auto t0 = std::chrono::steady_clock::now();
  const double cpu0 = internal::ThreadCpuMs();
  RunResult<Query> result;
  result.stats.input_bytes = data.TotalBytes();

  // One global in-memory flat group table; the record-count hint for
  // auto-sizing is the byte volume over a conservative record width
  // (counting records up front would double-scan the input). The oracle
  // never spills: memory_budget_bytes is ignored and the budget only tracks
  // the table's arena + index bytes for peak_tracked_bytes.
  MemoryBudget budget(0);
  FlatGroupMap<Key, State> states(internal::ResolveGroupCapacityHint(
      options.group_capacity_hint, data.TotalBytes() / 64));
  states.SetMemoryBudget(&budget);
  for (const std::string& segment : data.segments) {
    LineCursor cursor(segment);
    while (const auto line = cursor.Next()) {
      ++task.records;
      auto rec = Query::Parse(*line);
      if (!rec.has_value()) {
        continue;
      }
      ++task.parsed;
      Query::Update(*states.GetOrEmplace(rec->first).first, rec->second);
    }
  }
  // First-seen table order; outputs are keyed (std::map), so the emitted
  // map is key-ordered either way — see docs/group_map.md.
  for (const auto& entry : states) {
    result.outputs.emplace(entry.key, Query::Result(entry.value, entry.key));
  }
  result.stats.groups = states.size();
  result.stats.peak_tracked_bytes = budget.peak_bytes();
  task.group_map = states.stats();
  // Thread CPU, not wall: time the scan spent blocked or descheduled is not
  // map work (the Figure 7 CPU metric).
  task.cpu_ms = internal::ThreadCpuMs() - cpu0;
  result.stats.input_records = task.records;
  internal::FoldMapTask(task, &result.stats);
  result.stats.total_wall_ms = internal::MsSince(t0);
  result.stats.map_wall_ms = result.stats.total_wall_ms;
  resources.Fold(&result.stats);
  if (observer != nullptr) {
    task.end_us = observer->NowUs();
    observer->OnMapTask(task);
  }
  return result;
}

// --- Shared map/shuffle/reduce scaffolding ------------------------------------

namespace internal {

// --- morsel-driven map scheduling (docs/scheduling.md) --------------------------

// One record-aligned byte range of a segment: the unit of map scheduling.
// Splitting a segment at record boundaries is free for SYMPLE because
// summaries compose in input order (Section 3.6/5.4): each morsel's packets
// carry the morsel's global record ids, so the reducer's (key, mapper,
// record) sort composes them left-to-right exactly like the memory budget's
// mid-segment flush incarnations already do.
struct Morsel {
  uint32_t segment = 0;
  size_t byte_begin = 0;
  size_t byte_end = 0;
  uint64_t first_record = 0;  // global-in-segment id of the first record
};

// Auto-sizing: enough morsels that stealing can level a skewed layout
// (~kMorselsPerSlotTarget per slot), floored high enough that per-morsel
// costs (steal, sub-bucket sort, one summary per touched group) stay
// negligible — the floor also keeps small test datasets at one morsel per
// segment, so segment-granular semantics (degrade budgets, per-segment
// tables) are unchanged where morsels buy nothing.
inline constexpr size_t kMorselsPerSlotTarget = 8;
inline constexpr size_t kMorselMinRecords = 2048;
inline constexpr size_t kMorselMaxRecords = size_t{1} << 20;

inline size_t ResolveMorselRecords(size_t option, uint64_t total_records,
                                   size_t slots) {
  if (option > 0) {
    return option;
  }
  if (slots <= 1 || total_records == 0) {
    // Nothing to balance across: whole segments, zero chunking overhead.
    return std::numeric_limits<size_t>::max();
  }
  const uint64_t target = total_records / (slots * kMorselsPerSlotTarget);
  return static_cast<size_t>(std::clamp<uint64_t>(target, kMorselMinRecords,
                                                  kMorselMaxRecords));
}

// Splits one segment into morsels of ~target_records records each, scanning
// for newlines so every boundary is record-aligned. An empty segment still
// yields one (empty) morsel: the map function runs once per segment
// regardless, preserving per-segment task observations. A record is a line;
// a trailing chunk without '\n' counts as one record, matching LineCursor.
inline void AppendSegmentMorsels(std::string_view seg, uint32_t segment_id,
                                 size_t target_records,
                                 std::vector<Morsel>* out) {
  // A segment cannot hold more records than bytes, so a target at or above
  // the byte count means one morsel — skip the newline scan entirely.
  if (target_records >= seg.size()) {
    out->push_back(Morsel{segment_id, 0, seg.size(), 0});
    return;
  }
  size_t begin = 0;
  uint64_t first_record = 0;
  uint64_t records = 0;
  size_t pos = 0;
  while (pos < seg.size()) {
    const void* nl = memchr(seg.data() + pos, '\n', seg.size() - pos);
    pos = nl != nullptr
              ? static_cast<size_t>(static_cast<const char*>(nl) - seg.data()) + 1
              : seg.size();
    ++records;
    if (records - first_record >= target_records) {
      out->push_back(Morsel{segment_id, begin, pos, first_record});
      begin = pos;
      first_record = records;
    }
  }
  if (begin < seg.size() || out->empty() ||
      out->back().segment != segment_id) {
    out->push_back(Morsel{segment_id, begin, seg.size(), first_record});
  }
}

// One map task: parse + groupby + feed over one segment, or one record-aligned
// morsel of it, with `first_record` the chunk's first global record id within
// its segment (docs/scheduling.md). `body` (RowsBody or SummariesBody) says
// what a group holds: Body::Group is built from the body and the group's
// first record id, Feed adds one event to it, and Emit turns it into one
// packet blob. Returns one packet per (mapper, key), in the group table's
// first-seen order (deterministic; docs/group_map.md).
//
// With a memory limit and a `shuffle` to flush into (the threaded executor,
// docs/spill.md), every 64 records the task charges the bytes Feed reported
// outside the table's arena and, once the budget is over its watermark,
// emits every group into the shuffle and clears the table for reuse. Each
// flush starts new groups carrying the first record id they see, so a
// flush incarnation is just one more in-order split of the chunk: the
// Section 5.4 (key, mapper, record) order composes incarnations at the
// reducer exactly like morsels. The forked children pass no shuffle and map
// whole segments in one pass.
template <typename Body>
std::vector<ShufflePacket<typename Body::Key>> MapChunk(
    const Body& body, std::string_view chunk, uint32_t mapper_id,
    uint64_t first_record, obs::MapTaskObs* ts, MemoryBudget* budget,
    ShuffleBuffer<typename Body::Key>* shuffle) {
  using Key = typename Body::Key;
  using Packet = ShufflePacket<Key>;
  using Table = FlatGroupMap<Key, typename Body::Group>;
  // Sized from the capacity hint over the chunk's record-count hint, and
  // clamped under a budget so the up-front reservation cannot eat it.
  Table groups(ClampHintToBudget(
      ResolveGroupCapacityHint(body.seg_hint, chunk.size() / 64), budget,
      sizeof(typename Table::Node) + 8));
  groups.SetMemoryBudget(budget);
  const bool budgeted =
      shuffle != nullptr && budget != nullptr && budget->limit_bytes() > 0;
  uint64_t charged = 0;  // Feed's bytes charged to the budget so far
  uint64_t pending = 0;  // Feed's bytes not yet charged
  uint64_t since_check = 0;

  // Emits every group, then releases what Feed charged: the bytes now live
  // in the packet blobs, which the shuffle charges when they arrive.
  const auto emit = [&](bool flushing) {
    std::vector<Packet> out;
    out.reserve(groups.size());
    for (auto& entry : groups) {
      out.push_back(Packet{entry.key, mapper_id, entry.value.first_record,
                           body.Emit(entry.value, mapper_id, ts, flushing)});
    }
    if (charged > 0) {
      budget->Release(charged);
      charged = 0;
    }
    return out;
  };

  LineCursor cursor(chunk);
  uint64_t rid = first_record;
  while (const auto line = cursor.Next()) {
    const uint64_t record_id = rid++;
    ++ts->records;
    auto rec = Body::Query::Parse(*line);
    if (!rec.has_value()) {
      continue;
    }
    ++ts->parsed;
    auto& group = *groups.GetOrEmplace(rec->first, body, record_id).first;
    pending += body.Feed(group, rec->first, rec->second);
    if (budgeted && ++since_check >= 64) {
      since_check = 0;
      budget->Charge(pending);
      charged += pending;
      pending = 0;
      if (budget->over() && groups.size() > 0) {
        std::vector<Packet> out = emit(/*flushing=*/true);
        ts->packets += out.size();
        // Clear before the shuffle charges the packets: keeping both charged
        // would double-count the flush right at the watermark.
        groups.Clear();
        ts->bytes += shuffle->AddBatch(std::move(out));
      }
    }
  }
  std::vector<Packet> out = emit(/*flushing=*/false);
  // Probe/allocation counters accumulate across Clear(), so fold the table's
  // stats exactly once, after the last incarnation.
  ts->group_map += groups.stats();
  return out;
}

// The morsel-driven map phase over `segment_ids` — every segment for the
// thread executor, a failed worker lineage's pending segments for the fork
// executor's in-process fallback. Each morsel is one MapChunk over `body`
// (RowsBody or SummariesBody) with the run's `budget` and `shuffle`, so a
// budgeted task can flush its table mid-morsel (docs/spill.md).
//
// Segments are chunked into record-aligned morsels seeded round-robin into
// per-worker stealing deques (segment s's morsels on worker s % workers, in
// order, so the common case processes each segment contiguously and
// front-to-back); an idle worker steals from the back of a loaded peer, so
// one giant segment no longer strands the other cores. Each completed
// morsel hands its packets to the shuffle immediately (AddBatch sorts and
// appends them as a run — the pipelined map→shuffle overlap), so the
// post-barrier sort is a cheap run merge.
//
// Exception safety (the ThreadPool "tasks must not throw" contract): a
// SympleError escaping MapChunk — e.g. a throwing user Parse — is caught per
// morsel and the first one is rethrown as a typed SympleIoError from the
// coordinator after quiesce, mirroring the reduce stage. A body's own
// per-group degradation happens inside Feed and Emit and never escapes.
template <typename Body>
void RunMapPhase(const std::vector<std::string>& segments,
                 const std::vector<uint32_t>& segment_ids, size_t slots,
                 size_t morsel_records, const Body& body, MemoryBudget* budget,
                 ShuffleBuffer<typename Body::Key>* shuffle, EngineStats* stats,
                 obs::RunObserver* observer) {
  using Packet = ShufflePacket<typename Body::Key>;
  std::vector<Morsel> morsels;
  morsels.reserve(segment_ids.size());
  for (const uint32_t s : segment_ids) {
    AppendSegmentMorsels(segments[s], s, morsel_records, &morsels);
  }
  stats->morsel_target_records =
      morsel_records == std::numeric_limits<size_t>::max() ? 0 : morsel_records;
  const size_t workers = std::max<size_t>(1, std::min(slots, morsels.size()));

  // Per-segment fold state: many morsels, one MapTaskObs per segment — the
  // timeline keeps its per-segment task semantics, with morsel counts and
  // queue waits layered on top.
  struct SegmentAgg {
    std::mutex mu;
    obs::MapTaskObs task;
  };
  std::vector<SegmentAgg> seg_aggs(segments.size());
  StealingIndexQueues queues(workers);
  for (size_t i = 0; i < morsels.size(); ++i) {
    queues.Push(morsels[i].segment % workers, i);
  }
  std::mutex map_err_mu;
  std::string map_error;
  const double obs_map_start = observer != nullptr ? observer->NowUs() : 0;
  {
    ThreadPool pool(workers);
    for (size_t w = 0; w < workers; ++w) {
      pool.Submit([w, &queues, &morsels, &segments, &seg_aggs, &body, budget,
                   shuffle, observer, obs_map_start, &map_err_mu, &map_error] {
        size_t idx = 0;
        bool stolen = false;
        while (queues.Next(w, &idx, &stolen)) {
          const Morsel& m = morsels[idx];
          const std::string_view chunk =
              std::string_view(segments[m.segment])
                  .substr(m.byte_begin, m.byte_end - m.byte_begin);
          obs::MapTaskObs mts;
          mts.morsels = 1;
          mts.stolen_morsels = stolen ? 1 : 0;
          if (observer != nullptr) {
            mts.start_us = observer->NowUs();
            const double wait = mts.start_us - obs_map_start;
            mts.queue_wait_us.Record(wait > 0 ? static_cast<uint64_t>(wait) : 0);
          }
          const double cpu0 = ThreadCpuMs();
          std::vector<Packet> packets;
          try {
            packets = MapChunk(body, chunk, m.segment, m.first_record, &mts, budget,
                               shuffle);
          } catch (const SympleError& e) {
            std::lock_guard<std::mutex> lock(map_err_mu);
            if (map_error.empty()) {
              map_error = e.what();
            }
          }
          // += not =: a budget-flushed morsel already accounted its
          // mid-morsel packets (docs/spill.md).
          mts.packets += packets.size();
          // Eager handoff: this morsel's packets enter the shuffle (sorted,
          // as a run) while other morsels are still mapping.
          mts.bytes += shuffle->AddBatch(std::move(packets));
          mts.cpu_ms = ThreadCpuMs() - cpu0;
          if (observer != nullptr) {
            mts.end_us = observer->NowUs();
          }
          // The segment's span covers its first morsel start to its last
          // morsel end (morsels of one segment may interleave with steals).
          SegmentAgg& agg = seg_aggs[m.segment];
          std::lock_guard<std::mutex> lock(agg.mu);
          agg.task += mts;
        }
      });
    }
    pool.Wait();
  }
  if (!map_error.empty()) {
    throw SympleIoError("map stage failed: " + map_error);
  }
  for (const uint32_t m : segment_ids) {
    obs::MapTaskObs& task = seg_aggs[m].task;
    task.mapper_id = m;
    FoldMapTask(task, stats);
    if (observer != nullptr) {
      observer->OnMapTask(task);
    }
  }
}

// One schedulable unit of reduce work: a contiguous run of one key's packets
// inside its partition, weighted by serialized bytes for LPT ordering.
struct KeyRun {
  uint32_t partition = 0;
  size_t first = 0;
  size_t last = 0;
  uint64_t bytes = 0;
  // The run's position among its partition's key runs, which is also its
  // output slot. Only the worker that reduces the run writes the slot.
  size_t slot = 0;
  // A spilled partition (docs/spill.md) dispatches as one unit: its keys
  // stream out of the k-way disk merge, so they cannot be split into
  // independently schedulable runs. first/last/slot are unused; bytes is the
  // whole partition's serialized weight.
  bool spilled = false;
};

// A partition's reduced keys in key order. A resident partition's slots are
// sized up front and each is filled by the worker that reduces its run; a
// spilled partition's single worker appends them in MergePartition's order.
template <typename Key, typename Output>
using OutputSlots = std::vector<std::optional<std::pair<Key, Output>>>;

// RunShuffleAndReduce's output collection (docs/shuffle.md step 4): one
// P-way merge over the partitions' key-ordered slots. Every key must come
// out strictly greater than the one before, so a key reduced twice, or
// found in two partitions, is an error rather than a silent overwrite.
template <typename Key, typename Output>
std::map<Key, Output> MergeOutputSlots(std::vector<OutputSlots<Key, Output>> parts) {
  std::map<Key, Output> out;
  std::vector<size_t> pos(parts.size(), 0);
  const auto head = [&](size_t p) -> const Key* {
    if (pos[p] == parts[p].size()) {
      return nullptr;
    }
    SYMPLE_CHECK(parts[p][pos[p]].has_value(),
                 "a reduced key run left its output slot empty");
    return &parts[p][pos[p]]->first;
  };
  for (;;) {
    size_t best = parts.size();
    const Key* best_key = nullptr;
    for (size_t p = 0; p < parts.size(); ++p) {
      const Key* key = head(p);
      if (key != nullptr && (best_key == nullptr || *key < *best_key)) {
        best = p;
        best_key = key;
      }
    }
    if (best_key == nullptr) {
      return out;
    }
    SYMPLE_CHECK(out.empty() || std::prev(out.end())->first < *best_key,
                 "a key was reduced twice or found in two partitions");
    auto& [key, output] = *parts[best][pos[best]++];
    out.emplace_hint(out.end(), std::move(key), std::move(output));
  }
}

// The shuffle + reduce stage over hash-partitioned mapper output:
//
//   1. Every partition is sorted independently and in parallel by
//      (key, mapper_id, record_id) — the Section 5.4 order — and its key runs
//      detected. Because a key's packets live in exactly one partition, each
//      run is that key's complete, globally ordered packet sequence.
//   2. Runs are dispatched to `slots` reduce workers largest-run-first (by
//      serialized bytes) from a shared work queue that idle workers pull
//      from, so a hot group starts immediately and the tail packs around it
//      (LPT scheduling) instead of pinning one reducer while the rest idle.
//      `reduce_key(key, first, last)` returns the key's output, which lands
//      in that key's output slot without a lock.
//   3. After the pool quiesces, the coordinating thread frees the buffered
//      packets and merges the partitions' key-ordered slots into the returned
//      map (MergeOutputSlots).
//
// stats->shuffle_wall_ms covers the whole shuffle stage (sorting, run
// detection, skew accounting), not just the sort; stats->reduce_wall_ms
// covers steps 2 and 3. Reduce workers that receive zero runs report no
// ReduceTaskObs (no misleading 0-duration spans).
template <typename Key, typename ReduceKeyFn>
auto RunShuffleAndReduce(ShuffleBuffer<Key>&& shuffle, size_t slots,
                         ReduceKeyFn reduce_key, EngineStats* stats,
                         obs::RunObserver* observer = nullptr) {
  using Packet = ShufflePacket<Key>;
  using Output =
      std::invoke_result_t<ReduceKeyFn&, const Key&, const Packet*, const Packet*>;
  const size_t num_parts = shuffle.partition_count();
  const double obs_shuffle_start = observer != nullptr ? observer->NowUs() : 0;
  const auto t_shuffle = std::chrono::steady_clock::now();

  // Parallel per-partition sort + run detection. A partition with on-disk
  // runs still sorts its in-memory remainder (the merge needs it ordered)
  // but skips run detection: it dispatches as a single spilled KeyRun.
  std::vector<std::vector<KeyRun>> part_runs(num_parts);
  std::vector<OutputSlots<Key, Output>> part_outputs(num_parts);
  {
    ThreadPool pool(std::min(slots == 0 ? 1 : slots, num_parts));
    for (size_t part = 0; part < num_parts; ++part) {
      pool.Submit([part, &shuffle, &part_runs, &part_outputs] {
        // Merge the sorted runs the producers appended (pipelined handoff)
        // rather than re-sorting from scratch.
        shuffle.SortPartition(part);
        std::vector<KeyRun>& runs = part_runs[part];
        if (shuffle.spilled(part)) {
          KeyRun run;
          run.partition = static_cast<uint32_t>(part);
          run.bytes = shuffle.partition_bytes(part);
          run.spilled = true;
          runs.push_back(run);
          return;
        }
        const std::vector<Packet>& packets = shuffle.partition(part);
        for (size_t i = 0; i < packets.size();) {
          size_t j = i + 1;
          uint64_t run_bytes = PacketBytes(packets[i]);
          while (j < packets.size() && packets[j].key == packets[i].key) {
            run_bytes += PacketBytes(packets[j]);
            ++j;
          }
          runs.push_back(
              KeyRun{static_cast<uint32_t>(part), i, j, run_bytes, runs.size()});
          i = j;
        }
        part_outputs[part].resize(runs.size());
      });
    }
    pool.Wait();
  }

  // Flatten into the global dispatch queue and account partition skew.
  std::vector<KeyRun> runs;
  uint64_t total_bytes = 0;
  uint64_t max_part_bytes = 0;
  for (size_t part = 0; part < num_parts; ++part) {
    runs.insert(runs.end(), part_runs[part].begin(), part_runs[part].end());
    const uint64_t part_bytes = shuffle.partition_bytes(part);
    total_bytes += part_bytes;
    max_part_bytes = std::max(max_part_bytes, part_bytes);
  }
  stats->reduce_partitions = num_parts;
  stats->partition_skew =
      total_bytes > 0 ? static_cast<double>(max_part_bytes) * static_cast<double>(num_parts) /
                            static_cast<double>(total_bytes)
                      : 0.0;
  // Largest-first (LPT): ties broken by (partition, first) so the dispatch
  // order — and with it the reduce-side trace — is deterministic.
  std::sort(runs.begin(), runs.end(), [](const KeyRun& a, const KeyRun& b) {
    if (a.bytes != b.bytes) {
      return a.bytes > b.bytes;
    }
    return std::pair(a.partition, a.first) < std::pair(b.partition, b.first);
  });
  // The whole shuffle stage: sorting, run detection, queue construction.
  stats->shuffle_wall_ms = MsSince(t_shuffle);
  if (observer != nullptr) {
    observer->OnPhase("shuffle_sort", obs_shuffle_start, observer->NowUs(),
                      shuffle.total_packets(), "packets");
  }

  const double obs_reduce_start = observer != nullptr ? observer->NowUs() : 0;
  const auto t_reduce = std::chrono::steady_clock::now();
  std::vector<obs::ReduceTaskObs> task_stats(slots == 0 ? 1 : slots);
  std::atomic<size_t> next_run{0};
  // ThreadPool tasks must not leak exceptions: a failed disk merge is
  // captured here and rethrown from the coordinator after quiesce. (Spill
  // files are verified at write time, so this is a true I/O failure between
  // write and reduce, not silent corruption.)
  std::mutex merge_err_mu;
  std::string merge_error;
  {
    ThreadPool pool(task_stats.size());
    for (size_t r = 0; r < task_stats.size(); ++r) {
      pool.Submit([r, obs_reduce_start, &next_run, &runs, &shuffle, &reduce_key,
                   &part_outputs, &task_stats, observer, &merge_err_mu, &merge_error] {
        obs::ReduceTaskObs& ts = task_stats[r];
        ts.reducer_id = static_cast<uint32_t>(r);
        if (observer != nullptr) {
          ts.start_us = observer->NowUs();
        }
        const double cpu0 = ThreadCpuMs();
        const auto process = [&](const KeyRun& run) {
          if (observer != nullptr) {
            // Time this run spent queued before a worker picked it up.
            const double wait = observer->NowUs() - obs_reduce_start;
            ts.queue_wait_us.Record(wait > 0 ? static_cast<uint64_t>(wait) : 0);
          }
          OutputSlots<Key, Output>& out = part_outputs[run.partition];
          if (run.spilled) {
            // Stream the partition's disk runs merged with its sorted
            // in-memory remainder; each key surfaces exactly once, in the
            // same global order the in-memory path would produce.
            const auto t_merge = std::chrono::steady_clock::now();
            shuffle.MergePartition(run.partition, [&](const Key& key, const Packet* kf,
                                                      const Packet* kl) {
              out.emplace_back(std::in_place, key, reduce_key(key, kf, kl));
              ++ts.groups;
              ts.packets += static_cast<uint64_t>(kl - kf);
            });
            ts.spill_merge_ms += MsSince(t_merge);
          } else {
            const Packet* packets = shuffle.partition(run.partition).data();
            const Key& key = packets[run.first].key;
            out[run.slot].emplace(key, reduce_key(key, packets + run.first,
                                                  packets + run.last));
            ++ts.groups;
            ts.packets += run.last - run.first;
          }
          ts.bytes += run.bytes;
          ts.max_run_bytes = std::max(ts.max_run_bytes, run.bytes);
        };
        try {
          for (size_t k = next_run.fetch_add(1, std::memory_order_relaxed);
               k < runs.size(); k = next_run.fetch_add(1, std::memory_order_relaxed)) {
            process(runs[k]);
          }
        } catch (const SympleError& e) {
          std::lock_guard<std::mutex> lock(merge_err_mu);
          if (merge_error.empty()) {
            merge_error = e.what();
          }
        }
        ts.cpu_ms = ThreadCpuMs() - cpu0;
        if (observer != nullptr) {
          ts.end_us = observer->NowUs();
        }
      });
    }
    pool.Wait();
  }
  if (!merge_error.empty()) {
    throw SympleIoError("reduce stage failed: " + merge_error);
  }
  if (observer != nullptr) {
    // A spilled partition's key runs are known only once its merge has
    // appended their slots, so every partition reports after the reduce.
    for (size_t part = 0; part < num_parts; ++part) {
      observer->OnShufflePartition(static_cast<uint32_t>(part),
                                   shuffle.partition_bytes(part),
                                   shuffle.partition_packets(part),
                                   part_outputs[part].size());
    }
  }
  stats->spill_runs += shuffle.spill_runs();
  stats->spill_bytes += shuffle.spill_bytes();
  // Free the packets here, not in the workers: a cross-thread free of every
  // blob contends in the allocator.
  shuffle.Release();
  std::map<Key, Output> outputs = MergeOutputSlots<Key, Output>(std::move(part_outputs));
  stats->reduce_wall_ms = MsSince(t_reduce);
  for (const obs::ReduceTaskObs& t : task_stats) {
    stats->reduce_cpu_ms += t.cpu_ms;
    stats->groups += t.groups;
    stats->spill_merge_ms += t.spill_merge_ms;
    if (observer != nullptr && t.groups > 0) {
      // Idle workers (groups < slots) are suppressed: a 0-group worker is a
      // scheduling artifact, not a reduce task.
      observer->OnReduceTask(t);
    }
  }
  return outputs;
}

// Concrete replay of one deferred segment: re-runs the UDA sequentially over
// the key's records in data.segments[segment_id], continuing from the
// already-composed prefix state. Because packets are ordered by (key,
// mapper, record) and each (mapper, key) sub-stream is replayed in input
// order, the result is byte-identical to the sequential engine.
// `start_record` skips records a budget-flushed incarnation already shipped
// as summaries (see MakeDeferredBlob); 0 replays the whole segment.
template <typename Query>
uint64_t ReplaySegmentForKey(const Dataset& data, uint32_t segment_id,
                             const typename Query::Key& key,
                             typename Query::State& state,
                             uint64_t start_record = 0) {
  SYMPLE_CHECK(segment_id < data.segments.size(),
               "deferred segment id out of range at the reducer");
  uint64_t replayed = 0;
  uint64_t rid = 0;
  LineCursor cursor(data.segments[segment_id]);
  while (const auto line = cursor.Next()) {
    const uint64_t record_id = rid++;
    if (record_id < start_record) {
      continue;
    }
    auto rec = Query::Parse(*line);
    if (rec.has_value() && rec->first == key) {
      Query::Update(state, rec->second);
      ++replayed;
    }
  }
  return replayed;
}

// Reduces one key's ordered packet run, degrading per packet: a deferred
// marker, a malformed blob, or a summary that fails validation/application
// replays that segment concretely from the prefix state instead of aborting
// the query: SummariesBody's reduce.
template <typename Query>
void SympleReduceKey(const Dataset& data, ReduceMode mode,
                     const typename Query::Key& key,
                     const ShufflePacket<typename Query::Key>* first,
                     const ShufflePacket<typename Query::Key>* last,
                     typename Query::State& state, DegradeAccounting* acct) {
  using State = typename Query::State;
  for (const auto* p = first; p != last; ++p) {
    // Concrete replay covers the key's records from start_record to the end
    // of the segment — which subsumes every later packet this mapper emitted
    // for the key (later morsels and budget-flush incarnations of the
    // segment, docs/spill.md) — so those packets are skipped here, not
    // applied on top of the replayed records.
    const auto replay = [&](DegradeReason reason, std::string_view message,
                            uint64_t start_record) {
      const auto replay_start = std::chrono::steady_clock::now();
      const uint64_t replayed = ReplaySegmentForKey<Query>(
          data, p->mapper_id, key, state, start_record);
      acct->Record(p->mapper_id, reason, message, replayed,
                   MsSince(replay_start));
      while (p + 1 != last && (p + 1)->mapper_id == p->mapper_id) {
        ++p;
      }
    };
    if (p->blob.empty()) {
      // Replay from this packet's own first record: any earlier packet from
      // the same mapper was healthy (or replay would already have consumed
      // this one), so its records must not be re-applied.
      replay(DegradeReason::kWireCorrupt, "empty segment blob at the reducer",
             p->record_id);
      continue;
    }
    if (p->blob[0] == kSegmentDeferred) {
      // DeferredConcrete marker. Parse defensively: the marker may itself
      // have crossed a hostile wire, and replay is correct regardless of
      // what it says — only the reported reason/message depend on it (a
      // scrambled marker cannot coexist with earlier healthy flushes: those
      // exist only in-process, where the marker never crosses a wire).
      DegradeReason reason = DegradeReason::kWireCorrupt;
      std::string message = "malformed deferred-segment marker";
      try {
        BinaryReader r(p->blob.data(), p->blob.size());
        r.ReadByte();
        const uint64_t seg = r.ReadVarUint();
        const uint8_t raw_reason = r.ReadByte();
        std::string msg = r.ReadString();
        const uint64_t raw_start = r.ReadVarUint();
        if (seg == p->mapper_id && raw_reason < kDegradeReasonCount &&
            raw_start == p->record_id && r.AtEnd()) {
          reason = static_cast<DegradeReason>(raw_reason);
          message = std::move(msg);
        }
      } catch (const SympleError&) {
        // keep the wire-corrupt classification
      }
      // Replay from the packet's own record_id, never the blob's copy: the
      // map task stamps them identically, the packet header crosses the
      // wire under its own checksum, and a flipped bit in the blob's varint
      // must not be able to skip records.
      replay(reason, message, p->record_id);
      continue;
    }
    // Symbolic summaries. Snapshot the prefix state so a failure mid-packet
    // (summary i applied, summary i+1 corrupt) can rewind and replay the
    // whole segment without double-applying.
    const State snapshot = state;
    bool ok = true;
    std::string message;
    try {
      BinaryReader r(p->blob.data(), p->blob.size());
      if (r.ReadByte() != kSegmentSymbolic) {
        throw SympleWireError("unknown segment blob kind");
      }
      const uint64_t n = r.ReadVarUint();
      if (n == 0 || n > r.remaining()) {
        throw SympleWireError("implausible summary count in segment blob");
      }
      if (mode == ReduceMode::kTreeCompose && n > 1) {
        std::vector<Summary<State>> ordered;
        ordered.reserve(n);
        for (uint64_t i = 0; i < n; ++i) {
          Summary<State> s;
          s.Deserialize(r);
          ordered.push_back(std::move(s));
        }
        if (!r.AtEnd()) {
          throw SympleWireError("trailing bytes after segment summaries");
        }
        // Composing within the packet and folding packet-by-packet is
        // identical to a global tree compose (composition is associative)
        // and keeps degrade blast radius to one segment.
        ok = ComposeAll(ordered).ApplyTo(state);
      } else {
        for (uint64_t i = 0; i < n && ok; ++i) {
          Summary<State> s;
          s.Deserialize(r);
          ok = s.ApplyTo(state);
        }
        if (ok && !r.AtEnd()) {
          throw SympleWireError("trailing bytes after segment summaries");
        }
      }
      if (!ok) {
        message = "summary rejected the prefix state";
      }
    } catch (const SympleError& e) {
      ok = false;
      message = e.what();
    }
    if (!ok) {
      state = snapshot;
      // From this packet's first record: earlier packets from this mapper
      // (prior budget-flush incarnations) applied cleanly and stay applied.
      replay(DegradeReason::kWireCorrupt, message, p->record_id);
    }
  }
}

// --- The map/shuffle/reduce pipeline ------------------------------------------

// Map body for the hand-optimized MapReduce baseline: parse + groupby in one
// streaming pass, serializing each record's (key, projected fields) row
// directly — Hadoop ships one KV record per event, so each row carries the
// key again and shuffle accounting reflects per-record cost. The reducer
// deserializes the ordered rows and runs the UDA concretely.
template <typename Q>
struct RowsBody {
  using Query = Q;
  using Key = typename Query::Key;
  using Packet = ShufflePacket<Key>;

  const Dataset& data;
  const EngineOptions& options;
  size_t seg_hint;

  // A group's rows, in record order.
  struct Group {
    Group(const RowsBody& /*body*/, uint64_t first) : first_record(first) {}
    BinaryWriter rows;
    uint64_t first_record;
    uint64_t count = 0;
  };

  // Appends the event's row. The rows live outside the table's arena, so
  // their bytes are returned for MapChunk to charge — plus, on a group's
  // first row, its packet header: the shuffle charges full PacketBytes when
  // the group is emitted, and pre-charging the header keeps a flush
  // net-neutral instead of surfacing tens of untracked bytes per group right
  // at the watermark.
  uint64_t Feed(Group& g, const Key& key, const typename Query::Event& event) const {
    const size_t before = g.rows.size();
    TextKeyCodec<Key>::Write(g.rows, key);
    Query::SerializeEvent(event, g.rows);
    uint64_t bytes = g.rows.size() - before;
    if (g.count++ == 0) {
      bytes += WireSizeOf(key) + kPacketHeaderOverhead;
    }
    return bytes;
  }

  // [varint row count][rows].
  std::vector<uint8_t> Emit(Group& g, uint32_t /*mapper_id*/, obs::MapTaskObs* /*ts*/,
                            bool /*flushing*/) const {
    BinaryWriter w;
    w.WriteVarUint(g.count);
    w.WriteBytes(g.rows.buffer().data(), g.rows.size());
    return w.TakeBuffer();
  }

  void Reduce(const Key& /*key*/, const Packet* first, const Packet* last,
              typename Query::State& state, DegradeAccounting* /*acct*/) const {
    for (const Packet* p = first; p != last; ++p) {
      BinaryReader r(p->blob.data(), p->blob.size());
      const uint64_t n = r.ReadVarUint();
      for (uint64_t i = 0; i < n; ++i) {
        TextKeyCodec<Key>::Skip(r);  // per-record textual key (Hadoop row)
        Query::Update(state, Query::DeserializeEvent(r));
      }
    }
  }
};

// Map body for SYMPLE: groupby + symbolic UDA in one streaming pass — each
// parsed record feeds straight into its group's symbolic aggregator; one
// packet per (mapper, key) holds that mapper's ordered symbolic summaries for
// the key. The reducer combines them in (mapper_id, record_id) order, folding
// onto the concrete initial state or by associative tree composition
// (Section 3.6); deferred or invalid segments replay concretely from the
// prefix state (docs/degradation.md).
//
// Degradation is per group: a group whose symbolic execution hits a budget
// or a declared limitation emits a DeferredConcrete marker from its first
// record instead of summaries, and other groups in the chunk stay symbolic.
// A marker replays its segment for the key to the end, skipping the mapper's
// later packets for the key (SympleReduceKey), so a degraded group flushed
// mid-chunk needs no bookkeeping past its marker.
template <typename Q>
struct SummariesBody {
  using Query = Q;
  using Key = typename Query::Key;
  using State = typename Query::State;
  using Packet = ShufflePacket<Key>;
  using UpdateFn = void (*)(State&, const typename Query::Event&);

  const Dataset& data;
  const EngineOptions& options;
  size_t seg_hint;

  struct Group {
    Group(const SummariesBody& body, uint64_t first)
        : agg(&Query::Update, body.options.aggregator), first_record(first) {
      if (body.options.budgets.force_degrade) {
        Degrade(DegradeReason::kForced, "degradation forced by configuration");
      }
    }
    void Degrade(DegradeReason why, std::string what) {
      degraded = true;
      reason = why;
      message = std::move(what);
    }
    SymbolicAggregator<State, typename Query::Event, UpdateFn> agg;
    uint64_t first_record;
    bool degraded = false;
    DegradeReason reason = DegradeReason::kOther;
    std::string message;
  };

  // Feeds the event symbolically. Aggregator state lives outside the table's
  // arena and is not tracked, so nothing is returned to charge.
  uint64_t Feed(Group& g, const Key& /*key*/, const typename Query::Event& event) const {
    if (g.degraded) {
      return 0;  // the reducer replays this group's records
    }
    const size_t max_paths = options.budgets.max_paths_per_segment;
    try {
      g.agg.Feed(event);
      if (max_paths > 0 && g.agg.total_paths() > max_paths) {
        g.Degrade(DegradeReason::kPathBudget,
                  "segment exceeded max_paths_per_segment = " +
                      std::to_string(max_paths));
      }
    } catch (const SympleError& e) {
      // Path explosion, coefficient overflow, unsupported op: a declared
      // limitation of *this group's* UDA stream, not of the query.
      g.Degrade(ClassifyDegradeError(e), e.what());
    }
    return 0;
  }

  // [kSegmentSymbolic][varint n][n summaries], or the group's DeferredConcrete
  // marker. A group whose summaries fail to finish or serialize at a budget
  // flush degrades with reason memory_budget: its fed records cannot leave
  // the table any other way.
  std::vector<uint8_t> Emit(Group& g, uint32_t mapper_id, obs::MapTaskObs* ts,
                            bool flushing) const {
    ts->exploration += g.agg.stats();
    const size_t max_bytes = options.budgets.max_summary_bytes_per_segment;
    if (!g.degraded) {
      try {
        const std::vector<Summary<State>> summaries = g.agg.Finish();
        BinaryWriter body;
        uint64_t paths = 0;
        for (const Summary<State>& s : summaries) {
          paths += s.path_count();
          s.Serialize(body);
        }
        if (max_bytes > 0 && body.size() > max_bytes) {
          g.Degrade(DegradeReason::kSummaryBytes,
                    "segment summary of " + std::to_string(body.size()) +
                        " bytes exceeded max_summary_bytes_per_segment = " +
                        std::to_string(max_bytes));
        } else {
          ts->summaries += summaries.size();
          ts->summaries_per_group.Record(summaries.size());
          ts->summary_paths += paths;
          ts->paths_per_group.Record(paths);
          BinaryWriter w;
          w.WriteByte(kSegmentSymbolic);
          w.WriteVarUint(summaries.size());
          w.WriteBytes(body.buffer().data(), body.size());
          return w.TakeBuffer();
        }
      } catch (const SympleError& e) {
        g.Degrade(flushing ? DegradeReason::kMemoryBudget : ClassifyDegradeError(e),
                  e.what());
      }
    }
    return MakeDeferredBlob(mapper_id, g.reason, g.message, g.first_record);
  }

  void Reduce(const Key& key, const Packet* first, const Packet* last,
              State& state, DegradeAccounting* acct) const {
    SympleReduceKey<Query>(data, options.reduce_mode, key, first, last, state, acct);
  }
};

// Executor running the map phase on map_slots threads of this process.
struct ThreadExecutor {
  template <typename Body>
  static void RunMap(const Dataset& data, const EngineOptions& options,
                     const Body& body, MemoryBudget* budget,
                     ShuffleBuffer<typename Body::Key>* shuffle, EngineStats* stats) {
    std::vector<uint32_t> all(data.segment_count());
    std::iota(all.begin(), all.end(), 0u);
    RunMapPhase(data.segments, all, options.map_slots,
                ResolveMorselRecords(options.morsel_records, stats->input_records,
                                     options.map_slots),
                body, budget, shuffle, stats, options.observer);
  }
};

// The one map/shuffle/reduce run behind RunBaselineMapReduce, RunSymple,
// RunBaselineForked and RunSympleForked: Body picks what the mappers emit
// and how a key's packets reduce, Executor where the mappers run.
//
// Memory-budgeted execution (docs/spill.md): every tracked byte — map tables,
// buffered rows, buffered shuffle packets — charges one budget; crossing it
// flushes map tables into the shuffle and spills the shuffle's heaviest
// partitions to disk. With no budget configured this is track-only
// (peak_tracked_bytes) and nothing ever spills.
template <typename Query, typename Body, typename Executor>
RunResult<Query> RunPipeline(const Dataset& data, const EngineOptions& options) {
  using Key = typename Query::Key;
  using Packet = ShufflePacket<Key>;

  // Forked children are reaped inside the run, so the RUSAGE_CHILDREN delta
  // captures exactly this run's worker processes.
  const ResourceScope resources;
  const auto t0 = std::chrono::steady_clock::now();
  RunResult<Query> result;
  result.stats.input_bytes = data.TotalBytes();
  result.stats.input_records = data.TotalRecords();

  // Per-segment group capacity from the record-count hint, so tables start
  // sized instead of rehashing up from 16; resolved before any fork.
  const size_t seg_hint = ResolveGroupCapacityHint(
      options.group_capacity_hint,
      data.segment_count() > 0 ? result.stats.input_records / data.segment_count() : 0);
  const Body body{data, options, seg_hint};
  MemoryBudget budget(options.memory_budget_bytes);
  ShuffleBuffer<Key> shuffle(ResolveReducePartitions(options),
                             data.segment_count() * std::min<size_t>(seg_hint, 4096),
                             &budget, options.spill_dir);
  Executor::RunMap(data, options, body, &budget, &shuffle, &result.stats);
  result.stats.map_wall_ms = MsSince(t0);

  DegradeAccounting degrades;
  result.outputs = RunShuffleAndReduce<Key>(
      std::move(shuffle), options.reduce_slots,
      [&body, &degrades](const Key& key, const Packet* first,
                         const Packet* last) -> typename Query::Output {
        typename Query::State state{};
        body.Reduce(key, first, last, state, &degrades);
        return Query::Result(state, key);
      },
      &result.stats, options.observer);
  FoldDegrades(degrades, &result.stats, options.observer);

  result.stats.peak_tracked_bytes = budget.peak_bytes();
  result.stats.total_wall_ms = MsSince(t0);
  resources.Fold(&result.stats);
  return result;
}

}  // namespace internal

// Hand-optimized MapReduce baseline on threads.
template <typename Query>
RunResult<Query> RunBaselineMapReduce(const Dataset& data,
                                      const EngineOptions& options = {}) {
  return internal::RunPipeline<Query, internal::RowsBody<Query>,
                               internal::ThreadExecutor>(data, options);
}

// The SYMPLE engine on threads.
template <typename Query>
RunResult<Query> RunSymple(const Dataset& data, const EngineOptions& options = {}) {
  return internal::RunPipeline<Query, internal::SummariesBody<Query>,
                               internal::ThreadExecutor>(data, options);
}

}  // namespace symple

#endif  // SYMPLE_RUNTIME_ENGINE_H_
