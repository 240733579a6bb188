// Forked-process execution mode — the paper's actual local MapReduce setup
// (Section 6.2: "simulates a single-machine MapReduce with multiple processes
// and pipes").
//
// Each worker process owns a subset of the segments, runs the map tasks
// (symbolic for SYMPLE, row-batching for the baseline), and streams each
// segment's serialized shuffle packets to the parent over a pipe as one
// frame. The parent commits each segment's packets into the hash-partitioned
// shuffle buffer as one sorted batch, merges the partitions in parallel, and
// reduces (docs/shuffle.md) — so the symbolic summaries genuinely cross a
// process boundary in their wire form, exactly as they cross machines in the
// distributed setting.
//
// The parent's drain is a poll()-multiplexed loop over all worker pipes (no
// head-of-line blocking when one worker fills its pipe buffer), and the
// runtime is fault tolerant at segment granularity: a crashed, hung
// (EngineOptions::worker_timeout_ms), corrupting or protocol-violating worker
// is killed, reaped, and its not-yet-committed segments are re-executed in a
// respawned worker (bounded retries with backoff), falling back to in-process
// execution once the retry budget is spent. Re-execution is sound because map
// tasks are deterministic and start from unknown symbolic state (Section 2.3)
// — the classic MapReduce re-execution model — and it is the only recovery
// for lost map output, whatever the map body. Fd and child ownership is RAII
// (runtime/ipc.h): no error path leaks descriptors or zombie children.
//
// Wire protocol: a stream of the checksummed, versioned frames that spill
// files also use (runtime/ipc.h, kWireVersion 5)
//
//   [u32 LE size][u32 LE crc][u8 type][u8 version][body]
//
// where the CRC-32 covers type, version and body, so a single flipped bit
// anywhere after the size field fails validation. A worker writes one
// kFrameSegment per segment, then one kFrameStreamEnd:
//
//   kFrameSegment   body = [varint segment_id][segment counters]
//                          [varint packet_count][serialized ShufflePacket]*
//   kFrameStreamEnd body = (empty)
//
// The segment counters are the segment's map-task counters
// (VisitSegmentCounters), folded into the run's EngineStats when the parent
// commits the segment's packets.
//
// A frame that fails ValidateFrame (short, bad checksum, wrong version) is
// a "corrupt" worker failure, counted in wire_corrupt_frames and
// recovered like a crash: nothing from that pipe is trusted, and the
// worker's uncommitted segments are re-executed. A segment body that does not
// decode inside a valid envelope is a "protocol" failure, recovered the same
// way.
//
// See docs/process_engine.md for the full failure-semantics contract and the
// SYMPLE_FAULT_SPEC fault-injection hook.
#ifndef SYMPLE_RUNTIME_PROCESS_ENGINE_H_
#define SYMPLE_RUNTIME_PROCESS_ENGINE_H_

#include <poll.h>
#include <signal.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.h"
#include "runtime/engine.h"
#include "runtime/ipc.h"

namespace symple {
namespace internal {

// Sleep before respawning a failed worker lineage, doubled per attempt.
inline constexpr long kWorkerRetryBackoffMs = 5;

// The counters a kFrameSegment body carries after the segment id, in wire
// order: records, parsed, cpu_ms (the only double), summaries, summary_paths,
// the 7 exploration counters and the 4 group-table counters. The encoder and
// the decoder both walk this one list. Spans, packet counts and per-group
// histograms do not cross: the parent counts packets and bytes as it commits
// them.
template <typename Task, typename Visit>
void VisitSegmentCounters(Task& t, Visit&& visit) {
  visit(t.records);
  visit(t.parsed);
  visit(t.cpu_ms);
  visit(t.summaries);
  visit(t.summary_paths);
  visit(t.exploration.runs);
  visit(t.exploration.decisions);
  visit(t.exploration.paths_produced);
  visit(t.exploration.paths_merged);
  visit(t.exploration.merge_rounds);
  visit(t.exploration.summary_restarts);
  visit(t.exploration.live_path_peak);
  visit(t.group_map.arena_bytes);
  visit(t.group_map.rehashes);
  visit(t.group_map.probe_lookups);
  visit(t.group_map.probe_steps);
}

// Writes a kFrameSegment body: [varint segment_id][counters][varint
// packet_count], then the packets in the codec the spill runs also use
// (SerializePacketFrame, runtime/engine.h).
template <typename Key>
void EncodeSegment(uint32_t segment_id, const obs::MapTaskObs& t,
                   const std::vector<ShufflePacket<Key>>& packets, BinaryWriter* body) {
  body->WriteVarUint(segment_id);
  VisitSegmentCounters(t, [body](const auto& v) {
    if constexpr (std::is_same_v<std::decay_t<decltype(v)>, double>) {
      body->WriteDouble(v);
    } else {
      body->WriteVarUint(v);
    }
  });
  body->WriteVarUint(packets.size());
  for (const ShufflePacket<Key>& p : packets) {
    SerializePacketFrame(p, *body);
  }
}

// Reads a kFrameSegment body into *t and *packets and returns the segment id.
// The body arrived inside a valid checksummed envelope, so one that does not
// decode — short, over-long, or a packet running past its end — is a worker
// speaking the wrong protocol rather than line noise: it throws SympleIoError
// (a "protocol" failure, whose segments are retried), never SympleWireError.
template <typename Key>
uint32_t DecodeSegment(BinaryReader r, obs::MapTaskObs* t,
                       std::vector<ShufflePacket<Key>>* packets) {
  uint32_t segment_id = 0;
  try {
    segment_id = r.ReadVarUint32();
    VisitSegmentCounters(*t, [&r](auto& v) {
      if constexpr (std::is_same_v<std::decay_t<decltype(v)>, double>) {
        v = r.ReadDouble();
      } else {
        v = r.ReadVarUint();
      }
    });
    const uint64_t count = r.ReadVarUint();
    for (uint64_t i = 0; i < count; ++i) {
      packets->push_back(DeserializePacketFrame<Key>(r));
    }
  } catch (const SympleWireError& e) {
    throw SympleIoError(std::string("undecodable segment frame: ") + e.what());
  }
  if (!r.AtEnd()) {
    throw SympleIoError("trailing bytes after a segment frame's packets");
  }
  return segment_id;
}

// Forks workers over the dataset's segments (worker w initially owns
// s ≡ w (mod num_processes)), drains all pipes concurrently, and recovers
// from worker failures by re-executing incomplete segments. Each segment
// arrives as one frame and commits whole: its packets enter `shuffle` through
// one AddBatch, and its counters — shipped in the same frame — fold into
// `stats` through FoldMapTask, like a threaded map task's; the drain adds the
// worker_retries / worker_timeouts / worker_crashes / wire_corrupt_frames /
// fallback_segments counters. With an observer attached, the parent reports
// one observation per worker drain (its committed segments summed, with the
// worker's wait4 CPU and peak RSS; per-group histograms stay threaded-only)
// and one OnWorkerFailure event per kill.
//
// Children run MapChunk — the thread executor's map task — on whole segments
// with no budget and no shuffle to flush into: a child is already one core
// and its own address space, and commit/retry bookkeeping stays per segment.
// A failed worker's pending segments — whether it crashed, hung, corrupted a
// frame or broke the protocol — go to a respawned worker, and a lineage out
// of retries runs them in-process through RunMapPhase, under the run's
// `budget`.
template <typename Body>
void RunForkedMapPhase(const Dataset& data, const EngineOptions& options,
                       const Body& body, MemoryBudget* budget,
                       ShuffleBuffer<typename Body::Key>* shuffle, EngineStats* stats) {
  using Key = typename Body::Key;
  using Packet = ShufflePacket<Key>;
  using Clock = std::chrono::steady_clock;
  obs::RunObserver* observer = options.observer;
  const size_t num_processes = options.map_slots == 0 ? 1 : options.map_slots;
  const std::optional<FaultSpec> fault = FaultSpecFromEnv(/*spill=*/false);

  struct WorkerState {
    ChildProcess child;
    UniqueFd read_fd;
    uint32_t spawn_seq = 0;
    int attempt = 0;                  // respawns consumed for this lineage
    std::vector<uint32_t> pending;    // segments not yet committed
    FrameDecoder decoder;
    Clock::time_point last_progress;
    bool stream_end = false;
    // The committed segments summed, reported as one map task when the
    // worker finishes; its span starts when the drain does.
    obs::MapTaskObs task;
  };

  std::vector<std::unique_ptr<WorkerState>> workers;
  uint32_t next_spawn_seq = 0;

  auto spawn = [&](std::vector<uint32_t> segments,
                   int attempt) -> std::unique_ptr<WorkerState> {
    auto w = std::make_unique<WorkerState>();
    w->spawn_seq = next_spawn_seq++;
    w->attempt = attempt;
    w->pending = std::move(segments);
    UniqueFd write_end;
    MakePipe(&w->read_fd, &write_end);
    // Read ends the child must close: every live sibling's plus its own —
    // a child holding a sibling's read end would break that pipe's EOF.
    std::vector<int> parent_read_fds;
    for (const auto& other : workers) {
      if (other != nullptr && other->read_fd.valid()) {
        parent_read_fds.push_back(other->read_fd.get());
      }
    }
    parent_read_fds.push_back(w->read_fd.get());
    const pid_t pid = ::fork();
    if (pid < 0) {
      throw SympleIoError("fork() failed");
    }
    if (pid == 0) {
      // Worker process. Never returns; never runs parent-side destructors.
      for (const int fd : parent_read_fds) {
        ::close(fd);
      }
      ::signal(SIGPIPE, SIG_IGN);  // broken pipe surfaces as EPIPE, not death
      int exit_code = 0;
      try {
        FaultInjector faults;
        if (fault.has_value() && (fault->all_workers || fault->worker == w->spawn_seq)) {
          faults.spec = fault;
        }
        FrameWriter writer(write_end.get(), &faults);
        BinaryWriter frame_body;
        for (const uint32_t s : w->pending) {
          // The segment's CPU covers its map task, not the encoding of the
          // frame that ships it.
          obs::MapTaskObs task;
          const double cpu0 = ThreadCpuMs();
          const std::vector<Packet> packets =
              MapChunk(body, data.segments[s], s, /*first_record=*/0, &task,
                       /*budget=*/nullptr, /*shuffle=*/nullptr);
          task.cpu_ms = ThreadCpuMs() - cpu0;
          frame_body.Clear();
          EncodeSegment(s, task, packets, &frame_body);
          writer.WriteFrame(kFrameSegment, frame_body.buffer());
        }
        writer.WriteFrame(kFrameStreamEnd, {});
      } catch (...) {
        exit_code = 1;  // parent recovers via the missing stream-end marker
      }
      ::_exit(exit_code);
    }
    w->child = ChildProcess(pid);
    w->last_progress = Clock::now();
    w->task.mapper_id = w->spawn_seq;
    w->task.start_us = observer != nullptr ? observer->NowUs() : 0;
    return w;
  };

  // Commits one segment frame: its packets become visible in the output, and
  // its counters — the child's plus the packets and bytes counted here — fold
  // into the run's totals. A segment leaves no trace until its whole frame has
  // decoded and its owner is checked, so discarding a failed worker and
  // re-running its pending segments can never duplicate or drop packets or
  // counts.
  auto commit_segment = [&](WorkerState& w, BinaryReader frame_body) {
    obs::MapTaskObs task;
    std::vector<Packet> packets;
    const uint32_t seg = DecodeSegment(frame_body, &task, &packets);
    const auto pending_it = std::find(w.pending.begin(), w.pending.end(), seg);
    if (pending_it == w.pending.end()) {
      throw SympleIoError("segment frame for a segment this worker does not own");
    }
    w.pending.erase(pending_it);
    task.packets = packets.size();
    task.bytes = shuffle->AddBatch(std::move(packets));
    FoldMapTask(task, stats);
    w.task += task;
  };

  auto process_frames = [&](WorkerState& w) {
    std::vector<uint8_t> frame;
    while (w.decoder.Next(&frame)) {
      uint8_t type = 0;
      BinaryReader r = ValidateFrame(frame, &type);
      if (type == kFrameSegment) {
        commit_segment(w, r);
      } else if (type == kFrameStreamEnd) {
        if (!w.pending.empty()) {
          throw SympleIoError("stream end with incomplete segments");
        }
        w.stream_end = true;
        return;
      } else {
        throw SympleIoError("unknown frame type from worker");
      }
    }
  };

  auto finalize_success = [&](WorkerState& w) {
    w.read_fd.Reset();
    struct rusage worker_ru {};
    bool have_rusage = false;
    if (w.child.valid()) {
      // All segments committed; exit status is moot. wait4 hands back the
      // worker's own rusage — the per-worker resource profile.
      w.child.Reap(&worker_ru);
      have_rusage = true;
    }
    if (observer != nullptr) {
      w.task.end_us = observer->NowUs();
      if (have_rusage) {
        // The whole worker process, not just its map bodies' thread CPU.
        const obs::ResourceUsage u = obs::FromRusage(worker_ru);
        w.task.cpu_ms = u.cpu_ms();
        w.task.maxrss_kb = u.maxrss_kb;
      }
      observer->OnMapTask(w.task);
    }
  };

  // Kills and reaps a failed worker, then re-executes its pending segments
  // in a respawned worker or — once the retry budget is spent — in-process.
  // Committed segments are never re-run.
  auto handle_failure = [&](std::unique_ptr<WorkerState>& slot, const char* kind) {
    WorkerState& w = *slot;
    if (std::strcmp(kind, "timeout") == 0) {
      ++stats->worker_timeouts;
    } else {
      ++stats->worker_crashes;
    }
    w.child.KillAndReap();
    w.read_fd.Reset();
    if (observer != nullptr) {
      observer->OnWorkerFailure(w.spawn_seq, kind);
    }
    std::vector<uint32_t> pending = std::move(w.pending);
    const int attempt = w.attempt;
    if (pending.empty()) {
      // Nothing left to recover (e.g. the stream died after the last
      // segment frame but before stream-end); the worker's output is complete.
      slot.reset();
      return;
    }
    if (attempt < options.worker_retry_limit) {
      ++stats->worker_retries;
      const int shift = attempt < 10 ? attempt : 10;
      SleepMs(kWorkerRetryBackoffMs << shift);
      slot = spawn(std::move(pending), attempt + 1);
      return;
    }
    // Final fallback: in-process execution, which cannot crash-loop. The
    // pending segments — often one straggler worker's whole share — run
    // through the threaded executor's morsel loop on map_slots threads, so
    // the recovery runs wide instead of serially re-walking segments on the
    // drain thread, and its tasks fold into the run's counters. Morsel
    // packets carry global record ids, so they compose at the reducer
    // exactly like a whole segment's would.
    stats->fallback_segments += pending.size();
    uint64_t total_records = 0;
    for (const uint32_t s : pending) {
      total_records += data.segments[s].size() / 64 + 1;  // bytes-derived hint
    }
    RunMapPhase(data.segments, pending, num_processes,
                ResolveMorselRecords(options.morsel_records, total_records,
                                     num_processes),
                body, budget, shuffle, stats, observer);
    slot.reset();
  };

  for (size_t wi = 0; wi < num_processes; ++wi) {
    std::vector<uint32_t> segments;
    for (size_t s = wi; s < data.segments.size(); s += num_processes) {
      segments.push_back(static_cast<uint32_t>(s));
    }
    workers.push_back(spawn(std::move(segments), 0));
  }

  const auto timeout =
      std::chrono::milliseconds(options.worker_timeout_ms > 0 ? options.worker_timeout_ms : 0);
  std::vector<uint8_t> read_buf(64 * 1024);
  std::vector<struct pollfd> pfds;
  for (;;) {
    workers.erase(std::remove(workers.begin(), workers.end(), nullptr),
                  workers.end());
    if (workers.empty()) {
      break;
    }
    pfds.clear();
    for (const auto& w : workers) {
      pfds.push_back({w->read_fd.get(), POLLIN, 0});
    }
    std::optional<Clock::time_point> deadline;
    if (options.worker_timeout_ms > 0) {
      // The earliest per-worker watchdog deadline, as an absolute time point:
      // PollWithDeadline (runtime/ipc.h) recomputes the remaining wait from
      // it after every EINTR, so signal storms cannot drift the watchdog —
      // a restarted relative timeout would push the deadline back on every
      // interruption and a hung worker might never be declared hung.
      auto min_deadline = Clock::time_point::max();
      for (const auto& w : workers) {
        min_deadline = std::min(min_deadline, w->last_progress + timeout);
      }
      deadline = min_deadline;
    }
    PollWithDeadline(pfds.data(), pfds.size(), deadline);
    const auto now = Clock::now();
    for (size_t i = 0; i < workers.size(); ++i) {
      std::unique_ptr<WorkerState>& slot = workers[i];
      WorkerState& w = *slot;
      const char* failure = nullptr;
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        size_t n = 0;
        const IoStatus s = ReadSome(w.read_fd.get(), read_buf.data(),
                                    read_buf.size(), &n);
        if (s == IoStatus::kOk) {
          w.last_progress = now;
          try {
            w.decoder.Feed(read_buf.data(), n);
            process_frames(w);
          } catch (const SympleWireError&) {
            // ValidateFrame failed (checksum/version/short frame): the
            // stream carried bytes the worker never meant to send, so none
            // of its uncommitted output is trusted.
            ++stats->wire_corrupt_frames;
            failure = "corrupt";
          } catch (const SympleError&) {
            // Malformed wire data from this worker — its fault domain only.
            failure = "protocol";
          }
          if (failure == nullptr && w.stream_end) {
            finalize_success(w);
            slot.reset();
            continue;
          }
        } else {
          // EOF before the stream-end marker (crash/truncation) or read error.
          failure = "crash";
        }
      }
      if (failure == nullptr && options.worker_timeout_ms > 0 &&
          now - w.last_progress >= timeout) {
        failure = "timeout";
      }
      if (failure != nullptr) {
        handle_failure(slot, failure);
      }
    }
  }
}

// Executor running the map phase in forked worker processes. Only the
// parent-side shuffle buffer is tracked against the memory budget (the
// children keep their own address spaces), and each segment the parent drain
// commits through AddBatch can trigger spills while workers are still
// producing. Forked children always _exit without running destructors, so a
// child forked after the spill directory exists can never double-unlink it.
struct ForkExecutor {
  template <typename Body>
  static void RunMap(const Dataset& data, const EngineOptions& options,
                     const Body& body, MemoryBudget* budget,
                     ShuffleBuffer<typename Body::Key>* shuffle, EngineStats* stats) {
    RunForkedMapPhase(data, options, body, budget, shuffle, stats);
  }
};

}  // namespace internal

// SYMPLE with forked map workers: symbolic summaries cross a real process
// boundary in wire form before the parent-side shuffle and reduce.
template <typename Query>
RunResult<Query> RunSympleForked(const Dataset& data, const EngineOptions& options = {}) {
  return internal::RunPipeline<Query, internal::SummariesBody<Query>,
                               internal::ForkExecutor>(data, options);
}

// Baseline with forked map workers (grouped textual rows over the pipes).
template <typename Query>
RunResult<Query> RunBaselineForked(const Dataset& data,
                                   const EngineOptions& options = {}) {
  return internal::RunPipeline<Query, internal::RowsBody<Query>,
                               internal::ForkExecutor>(data, options);
}

}  // namespace symple

#endif  // SYMPLE_RUNTIME_PROCESS_ENGINE_H_
