// IPC primitives for the forked-process engine: RAII ownership of file
// descriptors and child processes, EINTR-safe pipe I/O that distinguishes EOF
// from error, a length-prefixed frame codec usable both blocking (worker
// side) and incrementally (parent side, fed from a poll() loop), and the
// fault-injection hook that makes the failure-recovery paths testable.
//
// Everything here is transport machinery with no knowledge of shuffle
// packets or queries; the framing of *what* crosses the pipe lives in
// process_engine.h. Failures surface as SympleIoError (recoverable by
// re-execution, see common/error.h), never as leaked fds or zombie children.
#ifndef SYMPLE_RUNTIME_IPC_H_
#define SYMPLE_RUNTIME_IPC_H_

#include <poll.h>
#include <sys/resource.h>
#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"

namespace symple {
namespace internal {

// Owns one file descriptor; closes it on destruction. Move-only.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  UniqueFd(UniqueFd&& other) noexcept : fd_(other.Release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) {
      Reset(other.Release());
    }
    return *this;
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;
  ~UniqueFd() { Reset(); }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int Release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void Reset(int fd = -1);

 private:
  int fd_ = -1;
};

// Owns one forked child. If the child has not been reaped by the time the
// owner is destroyed, it is killed (SIGKILL) and waited for — an exception
// unwinding through the parent's drain loop can therefore never leak a
// zombie or leave a stray worker writing into a dead pipe.
class ChildProcess {
 public:
  ChildProcess() = default;
  explicit ChildProcess(pid_t pid) : pid_(pid) {}
  ChildProcess(ChildProcess&& other) noexcept : pid_(other.Release()) {}
  ChildProcess& operator=(ChildProcess&& other) noexcept;
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;
  ~ChildProcess() { KillAndReap(); }

  pid_t pid() const { return pid_; }
  bool valid() const { return pid_ > 0; }
  pid_t Release() {
    const pid_t pid = pid_;
    pid_ = -1;
    return pid;
  }

  void Kill(int sig) const;
  // Blocking wait4 (EINTR-retrying); returns the raw wait status and releases
  // ownership. When `usage` is non-null it receives the child's rusage (CPU
  // time, maxrss, faults) — the per-worker resource profile the run analyzer
  // folds into MapTaskObs. Throws SympleIoError if wait4 fails.
  int Reap(struct rusage* usage = nullptr);
  // Kill(SIGKILL) + Reap, ignoring errors. Safe on an invalid handle.
  void KillAndReap();

 private:
  pid_t pid_ = -1;
};

// Creates a pipe; throws SympleIoError on failure.
void MakePipe(UniqueFd* read_end, UniqueFd* write_end);

enum class IoStatus { kOk, kEof, kError };

// One read(2), retried on EINTR. kOk stores the byte count in *n_out (>0),
// kEof means the peer closed the pipe, kError is an errno failure.
IoStatus ReadSome(int fd, void* buf, size_t capacity, size_t* n_out);

// Writes the whole buffer, retrying on EINTR and short writes. Returns false
// on error (e.g. EPIPE after the parent gave up on this worker).
bool WriteAll(int fd, const void* data, size_t size);

// Reads exactly `size` bytes, retrying on EINTR and short reads. kEof is
// returned only for a clean EOF before the first byte; EOF mid-object is an
// error (truncated stream).
IoStatus ReadAll(int fd, void* data, size_t size);

// nanosleep-based sleep (usleep caps at 1s on some platforms); EINTR resumes.
void SleepMs(long ms);

// poll(2) against an ABSOLUTE deadline (nullopt = block indefinitely). On
// EINTR the remaining wait is recomputed from the deadline rather than the
// relative timeout being restarted, so a stream of signals cannot stretch a
// watchdog wait arbitrarily. Returns poll's result: >0 ready fds, 0 on
// deadline expiry. Throws SympleIoError on any other poll failure.
int PollWithDeadline(struct pollfd* fds, size_t nfds,
                     const std::optional<std::chrono::steady_clock::time_point>&
                         deadline);

// --- Fault injection ---------------------------------------------------------
//
// SYMPLE_FAULT_SPEC selects deterministic faults; one or more specs joined
// by ';', each of the form
//
//   <mode>:worker=<n|*>:frame=<k|*>
//
// where <mode> is crash | hang | truncate | corrupt (pipe faults, injected
// by forked workers' FrameWriter) or spill-enospc | spill-short-write |
// spill-corrupt (disk faults, injected by the spill writer — runtime/spill.h),
// <n> is the worker's spawn sequence number within the run (`*` matches
// every spawn, including retry respawns; spill faults ignore the worker
// field), and <k> is the 0-based index of the frame — pipe frame for pipe
// faults, spill block write for spill faults — that triggers the fault
// (`*` = every frame).
//
// A forked worker writes one frame per segment it owns, in order, then one
// stream-end frame (runtime/process_engine.h), so a pipe fault's frame=k
// selects the frame of the worker's segment number k (from 0), and k equal to
// its segment count selects the stream end: a fault there loses no map
// output, so it counts as a crash but re-executes nothing.
//
// Pipe faults: crash: _exit(42) before writing the frame; hang: block
// forever (the parent's worker_timeout_ms watchdog must fire); truncate:
// write half the frame, then _exit(0) — a silently truncated stream with a
// clean exit status; corrupt: write the frame with one bit flipped in the
// last payload byte and keep running — the parent's checksum validation
// must catch it, kill the worker and re-execute its uncommitted segments.
//
// Spill faults (docs/spill.md): spill-enospc: the block write fails with
// ENOSPC; spill-short-write: half the block is written, then the write
// fails; spill-corrupt: the block is written with one bit flipped (caught
// by the spill writer's post-write checksum verification). A failed spill
// retries once on a fresh file, then the packets stay in memory and the run
// continues over budget — it never crashes.
struct FaultSpec {
  enum class Mode {
    kNone,
    kCrash,
    kHang,
    kTruncate,
    kCorrupt,
    kSpillEnospc,
    kSpillShortWrite,
    kSpillCorrupt,
  };
  Mode mode = Mode::kNone;
  bool all_workers = false;
  uint32_t worker = 0;
  bool all_frames = false;
  uint64_t frame = 0;

  bool is_spill_mode() const {
    return mode == Mode::kSpillEnospc || mode == Mode::kSpillShortWrite ||
           mode == Mode::kSpillCorrupt;
  }
  bool MatchesFrame(uint64_t frame_index) const {
    return all_frames || frame == frame_index;
  }
};

// Parses one spec string; nullopt for null/empty. Throws SympleError on a
// malformed spec (misconfiguration is a programmer error, not recoverable).
std::optional<FaultSpec> ParseFaultSpec(const char* spec);
// Parses a ';'-joined spec list (empty for null/empty input).
std::vector<FaultSpec> ParseFaultSpecList(const char* spec);
// Reads SYMPLE_FAULT_SPEC from the environment and returns the first
// *pipe-mode* spec (crash/hang/truncate/corrupt) — the FrameWriter hook.
// Spill faults are picked up separately by SpillFaultFromEnv (spill.h).
std::optional<FaultSpec> FaultSpecFromEnv();

// Worker-side frame writer: [u32 LE size][payload], with the fault hook
// applied per frame. Throws SympleIoError on write failure.
class FrameWriter {
 public:
  FrameWriter(int fd, const std::optional<FaultSpec>& fault, uint32_t spawn_seq);
  void WriteFrame(const uint8_t* payload, size_t size);
  void WriteFrame(const std::vector<uint8_t>& payload) {
    WriteFrame(payload.data(), payload.size());
  }

 private:
  // May _exit or block forever instead of returning. Returns true when the
  // fault already wrote this frame in altered form (kCorrupt), in which case
  // the caller must skip the normal write.
  bool MaybeInjectFault(const uint8_t* header, size_t header_size,
                        const uint8_t* payload, size_t payload_size);

  int fd_;
  FaultSpec fault_;  // Mode::kNone when not armed for this worker
  uint64_t frames_written_ = 0;
};

// Parent-side incremental decoder for the same [u32 size][payload] framing.
// Feed() raw bytes as they arrive from poll(); Next() pops complete frames.
// Throws SympleIoError on an implausible frame size (corrupt stream).
class FrameDecoder {
 public:
  // Frames beyond this are treated as stream corruption.
  static constexpr uint32_t kMaxFrameBytes = 1u << 30;

  void Feed(const uint8_t* data, size_t size);
  // Pops the next complete frame into *payload; false if more bytes are
  // needed first.
  bool Next(std::vector<uint8_t>* payload);
  // True when buffered bytes form an incomplete frame — at EOF this means the
  // stream was truncated mid-frame.
  bool HasPartialFrame() const { return pos_ < buf_.size(); }

 private:
  std::vector<uint8_t> buf_;
  size_t pos_ = 0;  // consumed prefix of buf_
};

}  // namespace internal
}  // namespace symple

#endif  // SYMPLE_RUNTIME_IPC_H_
