// Forked-process execution mode — the paper's actual local MapReduce setup
// (Section 6.2: "simulates a single-machine MapReduce with multiple processes
// and pipes").
//
// Each worker process owns a subset of the segments, runs the map tasks
// (symbolic for SYMPLE, row-batching for the baseline), and streams its
// serialized shuffle packets to the parent over a pipe. The parent routes
// committed packets into the hash-partitioned shuffle buffer, sorts the
// partitions in parallel, and reduces (docs/shuffle.md) — so the symbolic
// summaries genuinely cross a process boundary in their wire form, exactly
// as they cross machines in the distributed setting.
//
// The parent's drain is a poll()-multiplexed loop over all worker pipes (no
// head-of-line blocking when one worker fills its pipe buffer), and the
// runtime is fault tolerant at segment granularity: a crashed, hung
// (EngineOptions::worker_timeout_ms), or protocol-violating worker is killed,
// reaped, and its not-yet-committed segments are re-executed in a respawned
// worker (bounded retries with backoff), falling back to in-process execution
// once the retry budget is spent. Re-execution is sound because map tasks are
// deterministic and start from unknown symbolic state (Section 2.3) — the
// classic MapReduce re-execution model. Fd and child ownership is RAII
// (runtime/ipc.h): no error path leaks descriptors or zombie children.
//
// Wire protocol: a stream of [u32 LE size][payload] frames. Every payload is
// a checksummed, versioned envelope
//
//   [u32 LE crc][u8 type][u8 version = 3][body]
//
// where the CRC-32 covers everything after the crc field (type, version and
// body), so a single flipped bit anywhere in the payload fails validation.
// The frame types and their bodies:
//
//   kFramePacket      body = [varint segment_id][serialized ShufflePacket]
//   kFrameSegmentDone body = [varint segment_id][segment counters]
//   kFrameStreamEnd   body = (empty)
//
// The segment counters are the segment's map-task counters
// (EncodeSegmentDone), folded into the run's EngineStats when the parent
// commits the segment's packets.
//
// A frame that fails envelope validation (short, bad checksum, wrong
// version) is a "corrupt" worker failure: the worker is killed and — in the
// SYMPLE engine — its uncommitted segments are degraded to concrete-replay
// markers instead of being retried, since re-running a deterministically
// corrupting worker cannot help (docs/degradation.md). Engines without a
// degrade path (the baseline) treat corruption like a crash and retry.
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
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.h"
#include "runtime/engine.h"
#include "runtime/ipc.h"
#include "serialize/checksum.h"

namespace symple {
namespace internal {

enum ForkedFrameType : uint8_t {
  kFramePacket = 1,
  kFrameSegmentDone = 2,
  kFrameStreamEnd = 3,
};

// Bumped whenever the frame envelope or any body layout changes; a version
// mismatch is indistinguishable from corruption to the parent and handled
// the same way (kill + degrade/retry), never by guessing the old layout.
inline constexpr uint8_t kForkedWireVersion = 3;

// Frame payloads shorter than the envelope cannot carry a checksum.
inline constexpr size_t kFrameEnvelopeBytes = 6;  // crc(4) + type + version

// Assembles [u32 LE crc][type][version][body] into `payload` (cleared first).
inline void BuildWorkerFrame(uint8_t type, const BinaryWriter& body,
                             BinaryWriter* payload) {
  const uint8_t head[2] = {type, kForkedWireVersion};
  uint32_t crc = Crc32(head, sizeof(head));
  crc = Crc32Extend(crc, body.buffer().data(), body.size());
  payload->Clear();
  for (int shift = 0; shift < 32; shift += 8) {
    payload->WriteByte(static_cast<uint8_t>(crc >> shift));
  }
  payload->WriteByte(type);
  payload->WriteByte(kForkedWireVersion);
  payload->WriteBytes(body.buffer().data(), body.size());
}

// Validates one decoded frame's envelope and returns a reader positioned at
// the body, storing the frame type in *type_out. Throws SympleWireError on a
// short frame, checksum mismatch, or version mismatch — the caller treats
// any of these as a corrupt worker stream.
inline BinaryReader ValidateWorkerFrame(const std::vector<uint8_t>& frame,
                                        uint8_t* type_out) {
  if (frame.size() < kFrameEnvelopeBytes) {
    throw SympleWireError("worker frame shorter than its envelope (" +
                          std::to_string(frame.size()) + " bytes)");
  }
  uint32_t stored = 0;
  for (int i = 3; i >= 0; --i) {
    stored = (stored << 8) | frame[static_cast<size_t>(i)];
  }
  const uint32_t actual = Crc32(frame.data() + 4, frame.size() - 4);
  if (stored != actual) {
    throw SympleWireError("worker frame checksum mismatch");
  }
  if (frame[5] != kForkedWireVersion) {
    throw SympleWireError("worker frame version " + std::to_string(frame[5]) +
                          " (expected " + std::to_string(kForkedWireVersion) + ")");
  }
  *type_out = frame[4];
  return BinaryReader(frame.data() + kFrameEnvelopeBytes,
                      frame.size() - kFrameEnvelopeBytes);
}

// The counters a kFrameSegmentDone body carries after the segment id, in wire
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

// Writes a kFrameSegmentDone body: [varint segment_id][counters].
inline void EncodeSegmentDone(uint32_t segment_id, const obs::MapTaskObs& t,
                              BinaryWriter* body) {
  body->WriteVarUint(segment_id);
  VisitSegmentCounters(t, [body](const auto& v) {
    if constexpr (std::is_same_v<std::decay_t<decltype(v)>, double>) {
      body->WriteDouble(v);
    } else {
      body->WriteVarUint(v);
    }
  });
}

// Reads a kFrameSegmentDone body into *t and returns the segment id. The body
// arrived inside a valid checksummed envelope, so a short or over-long one is
// a worker speaking the wrong protocol rather than line noise: it throws
// SympleIoError (a "protocol" failure, whose segments are retried), never
// SympleWireError.
inline uint32_t DecodeSegmentDone(BinaryReader r, obs::MapTaskObs* t) {
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
  } catch (const SympleWireError& e) {
    throw SympleIoError(std::string("truncated segment-done body: ") + e.what());
  }
  if (!r.AtEnd()) {
    throw SympleIoError("trailing bytes after the segment-done counters");
  }
  return segment_id;
}

// SerializePacketFrame / DeserializePacketFrame live in runtime/engine.h:
// the same packet layout rides both the forked pipe and spill-file blocks.

// Forks workers over the dataset's segments (worker w initially owns
// s ≡ w (mod num_processes)), drains all pipes concurrently, and recovers
// from worker failures by re-executing incomplete segments. Committed packets
// are routed into `shuffle`'s hash partitions as their segments complete,
// and each committed segment's counters — shipped in its segment-done frame —
// fold into `stats` through FoldMapTask, like a threaded map task's; the
// drain adds the worker_retries / worker_timeouts / worker_crashes /
// fallback_segments counters. With an observer attached, the parent reports
// one observation per worker drain (its committed segments summed, with the
// worker's wait4 CPU and peak RSS; per-group histograms stay threaded-only)
// and one OnWorkerFailure event per kill.
//
// Children run MapChunk — the thread executor's map task — on whole segments
// with no budget and no shuffle to flush into: a child is already one core
// and its own address space, and commit/retry bookkeeping stays per segment. Corrupt
// streams (frames failing checksum/version validation) are not retried when
// Body::kDefers — deterministic corruption would recur — but replaced by
// body.Defer's markers. A lineage out of retries runs its pending segments
// in-process through RunMapPhase, under the run's `budget`.
template <typename Body>
void RunForkedMapPhase(const Dataset& data, const EngineOptions& options,
                       const Body& body, MemoryBudget* budget,
                       ShuffleBuffer<typename Body::Key>* shuffle, EngineStats* stats) {
  using Key = typename Body::Key;
  using Packet = ShufflePacket<Key>;
  using Clock = std::chrono::steady_clock;
  obs::RunObserver* observer = options.observer;
  const size_t num_processes = options.map_slots == 0 ? 1 : options.map_slots;
  const std::optional<FaultSpec> fault = FaultSpecFromEnv();

  struct WorkerState {
    ChildProcess child;
    UniqueFd read_fd;
    uint32_t spawn_seq = 0;
    int attempt = 0;                  // respawns consumed for this lineage
    std::vector<uint32_t> pending;    // segments not yet committed
    std::map<uint32_t, std::vector<Packet>> partial;  // uncommitted packets
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
        FrameWriter writer(write_end.get(), fault, w->spawn_seq);
        BinaryWriter frame_body;
        BinaryWriter payload;
        for (const uint32_t s : w->pending) {
          // The segment's CPU covers its map body and its packet frames.
          obs::MapTaskObs task;
          const double cpu0 = ThreadCpuMs();
          std::vector<Packet> packets =
              MapChunk(body, data.segments[s], s, /*first_record=*/0, &task,
                       /*budget=*/nullptr, /*shuffle=*/nullptr);
          for (const Packet& p : packets) {
            frame_body.Clear();
            frame_body.WriteVarUint(s);
            SerializePacketFrame(p, frame_body);
            BuildWorkerFrame(kFramePacket, frame_body, &payload);
            writer.WriteFrame(payload.buffer());
          }
          task.cpu_ms = ThreadCpuMs() - cpu0;
          frame_body.Clear();
          EncodeSegmentDone(s, task, &frame_body);
          BuildWorkerFrame(kFrameSegmentDone, frame_body, &payload);
          writer.WriteFrame(payload.buffer());
        }
        frame_body.Clear();
        BuildWorkerFrame(kFrameStreamEnd, frame_body, &payload);
        writer.WriteFrame(payload.buffer());
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

  // Commits one completed segment: its buffered packets become visible in the
  // output, and its counters — the child's plus the packets and bytes counted
  // here — fold into the run's totals. Until this point the segment leaves no
  // trace, so discarding a failed worker's partial state and re-running its
  // pending segments can never duplicate or drop packets or counts.
  auto commit_segment = [&](WorkerState& w, uint32_t seg, obs::MapTaskObs& task) {
    const auto pending_it = std::find(w.pending.begin(), w.pending.end(), seg);
    if (pending_it == w.pending.end()) {
      throw SympleIoError("segment-done for a segment this worker does not own");
    }
    w.pending.erase(pending_it);
    auto it = w.partial.find(seg);
    if (it != w.partial.end()) {  // a segment may produce no packets
      for (Packet& p : it->second) {
        const uint64_t bytes = PacketBytes(p);
        task.bytes += bytes;
        ++task.packets;
        shuffle->Add(std::move(p), bytes);
      }
      w.partial.erase(it);
    }
    FoldMapTask(task, stats);
    w.task += task;
  };

  auto process_frames = [&](WorkerState& w) {
    std::vector<uint8_t> frame;
    while (w.decoder.Next(&frame)) {
      uint8_t type = 0;
      BinaryReader r = ValidateWorkerFrame(frame, &type);
      if (type == kFramePacket) {
        const uint32_t seg = r.ReadVarUint32();
        if (std::find(w.pending.begin(), w.pending.end(), seg) == w.pending.end()) {
          throw SympleIoError("packet for a segment this worker does not own");
        }
        w.partial[seg].push_back(DeserializePacketFrame<Key>(r));
      } else if (type == kFrameSegmentDone) {
        obs::MapTaskObs task;
        const uint32_t seg = DecodeSegmentDone(r, &task);
        commit_segment(w, seg, task);
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

  // Kills and reaps a failed worker, then recovers its pending segments:
  // corrupt streams degrade to the caller's replacement packets (when a
  // degrade path exists), everything else respawns a replacement worker or —
  // once the retry budget is spent — executes in-process. Committed segments
  // are never re-run.
  auto handle_failure = [&](std::unique_ptr<WorkerState>& slot, const char* kind) {
    WorkerState& w = *slot;
    const bool degrading = std::strcmp(kind, "corrupt") == 0 && Body::kDefers;
    if (std::strcmp(kind, "timeout") == 0) {
      ++stats->worker_timeouts;
    } else if (!degrading) {
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
      // segment-done but before stream-end); the worker's output is complete.
      slot.reset();
      return;
    }
    if (degrading) {
      // Nothing read from this pipe can be trusted and re-running a
      // deterministically corrupting worker cannot help, so don't retry:
      // every uncommitted segment is replaced by the body's deferred-replay
      // markers, which the reducer resolves concretely.
      if constexpr (Body::kDefers) {
        for (const uint32_t s : pending) {
          stats->shuffle_bytes += shuffle->AddBatch(
              body.Defer(data.segments[s], s, /*first_record=*/0,
                         DegradeReason::kWireCorrupt, "corrupt summary frame from worker"));
        }
      }
      slot.reset();
      return;
    }
    if (attempt < options.worker_retry_limit) {
      ++stats->worker_retries;
      const int shift = attempt < 10 ? attempt : 10;
      SleepMs(static_cast<long>(options.worker_retry_backoff_ms) << shift);
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
            // Envelope validation failed (checksum/version/short frame): the
            // stream carried bytes the worker never meant to send.
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
// children keep their own address spaces), and the parent drain's Adds
// trigger spills while workers are still producing. Forked children always
// _exit without running destructors, so a child forked after the spill
// directory exists can never double-unlink it.
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
