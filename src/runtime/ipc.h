// IPC primitives for the forked-process engine and the spill files: RAII
// ownership of file descriptors and child processes, EINTR-safe pipe I/O that
// distinguishes EOF from error, the one checksummed frame format both carriers
// use — written by FrameWriter, read blocking (ReadFrame, spill runs) or
// incrementally (FrameDecoder, the parent's poll() loop) and checked by
// ValidateFrame — and the fault-injection hook that makes the
// failure-recovery paths testable.
//
// Everything here is transport machinery with no knowledge of shuffle
// packets or queries; the bodies of *what* crosses the pipe live in
// process_engine.h and engine.h. Failures surface as SympleIoError
// (recoverable by re-execution, see common/error.h), never as leaked fds or
// zombie children.
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
#include "serialize/binary_io.h"

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

  // Blocking wait4 (EINTR-retrying); returns the raw wait status and releases
  // ownership. When `usage` is non-null it receives the child's rusage (CPU
  // time, maxrss, faults) — the per-worker resource profile the run analyzer
  // folds into MapTaskObs. Throws SympleIoError if wait4 fails.
  int Reap(struct rusage* usage = nullptr);
  // SIGKILL + Reap, ignoring errors. Safe on an invalid handle.
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

// --- Frames --------------------------------------------------------------------
//
// Forked workers' pipes and spill run files carry one frame format:
//
//   [u32 LE size][u32 LE crc32][u8 type][u8 version][body]
//
// `size` counts every byte after itself, and the CRC-32 covers type, version
// and body, so a single flipped bit anywhere after the size field fails
// ValidateFrame. A corrupt size shows up as an implausible size, a frame cut
// short, or a misaligned next frame. Both readers hand back a frame's payload
// — the bytes after its size field — for ValidateFrame to check.
enum FrameType : uint8_t {
  kFrameSegment = 1,    // a forked worker's segment (process_engine.h)
  kFrameStreamEnd = 2,  // a forked worker has no more segments
  kFramePackets = 3,    // a block of one spill run's sorted packets (engine.h)
};

// Bumped whenever the envelope or any body layout changes. A version
// mismatch is indistinguishable from corruption to a reader and is handled
// the same way, never by guessing the old layout.
inline constexpr uint8_t kWireVersion = 5;
inline constexpr size_t kFrameEnvelopeBytes = 10;  // size + crc + type + version
// A size field above this is stream corruption.
inline constexpr uint32_t kMaxFrameBytes = 1u << 30;

// Encodes one frame of `type` around `body` into *frame, replacing its
// contents.
void EncodeFrame(uint8_t type, const std::vector<uint8_t>& body,
                 std::vector<uint8_t>* frame);

// Checks a frame payload's checksum and version and returns a reader over its
// body, storing the frame type in *type_out. Throws SympleWireError on a
// payload shorter than its envelope, a checksum mismatch or a version
// mismatch.
BinaryReader ValidateFrame(const std::vector<uint8_t>& payload, uint8_t* type_out);

// Blocking read of the next frame's payload from `fd`; false at a clean EOF
// before the frame's first byte. Throws SympleWireError when the stream ends
// or a read fails mid-frame, and SympleIoError on a size above kMaxFrameBytes.
bool ReadFrame(int fd, std::vector<uint8_t>* payload);

// Incremental reader for the parent's poll() loop: Feed() raw bytes as they
// arrive, and Next() pops the next complete frame's payload or returns false
// until more bytes arrive, so a stream cut mid-frame yields no frame. Throws
// SympleIoError on a size above kMaxFrameBytes.
class FrameDecoder {
 public:
  void Feed(const uint8_t* data, size_t size);
  bool Next(std::vector<uint8_t>* payload);

 private:
  std::vector<uint8_t> buf_;
  size_t pos_ = 0;  // consumed prefix of buf_
};

// --- Fault injection ---------------------------------------------------------
//
// SYMPLE_FAULT_SPEC selects deterministic faults; one or more specs joined
// by ';', each of the form
//
//   <mode>:worker=<n|*>:frame=<k|*>
//
// where <mode> is crash | hang | truncate | corrupt (pipe faults, injected
// into forked workers' segment frames) or spill-enospc | spill-short-write |
// spill-corrupt (disk faults, injected into spill run frames — docs/spill.md),
// <n> is the worker's spawn sequence number within the run (`*` matches
// every spawn, including retry respawns; spill faults ignore the worker
// field), and <k> is the 0-based index of the frame that triggers the fault
// (`*` = every frame). `frame` counts the frames written through one
// FaultInjector: per spawn for pipe faults, per run for spill faults.
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
// clean exit status; corrupt: write the frame with one bit flipped in its
// last byte and keep running — the parent's checksum validation must catch
// it, kill the worker and re-execute its uncommitted segments.
//
// Spill faults: spill-enospc: the frame write fails with ENOSPC before any
// byte lands; spill-short-write: half the frame is written, then the write
// fails; spill-corrupt: the frame is written with one bit flipped in its last
// byte (caught by the spill's read-back verification). A failed spill
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
// The first spec in SYMPLE_FAULT_SPEC of the chosen carrier: a spill-* spec
// when `spill` is set, else a pipe spec (crash/hang/truncate/corrupt).
std::optional<FaultSpec> FaultSpecFromEnv(bool spill);

// One carrier's fault hook: the armed spec, if any, and the count of frames
// written through it, which the spec's `frame` field indexes.
struct FaultInjector {
  std::optional<FaultSpec> spec;
  uint64_t frames = 0;
};

// Writes frames to `fd`, one write() each, and applies the injector's fault
// when it is armed for the frame being written: a pipe fault may _exit or
// block forever instead of returning. Throws SympleIoError when a write
// fails, for real or by injection.
class FrameWriter {
 public:
  // `faults` may be null (no injection); it must outlive the writer.
  FrameWriter(int fd, FaultInjector* faults) : fd_(fd), faults_(faults) {}

  void WriteFrame(uint8_t type, const std::vector<uint8_t>& body);

  uint64_t frames_written() const { return frames_written_; }
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  int fd_;
  FaultInjector* faults_;
  std::vector<uint8_t> frame_;  // reused encode buffer
  uint64_t frames_written_ = 0;
  uint64_t bytes_written_ = 0;
};

}  // namespace internal
}  // namespace symple

#endif  // SYMPLE_RUNTIME_IPC_H_
