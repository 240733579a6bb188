// Disk primitives for memory-budgeted execution (docs/spill.md).
//
// When a run crosses EngineOptions::memory_budget_bytes, the map/shuffle/
// reduce engines move sorted runs of shuffle packets out to disk and merge
// them back at reduce time. This header owns the *untemplated* half of that
// machinery:
//
//   TempDir / TempFile   RAII-managed spill locations. A TempFile unlinks its
//                        path on destruction — including when an exception
//                        unwinds through a half-written spill — and a TempDir
//                        sweeps and removes its directory, so no code path
//                        (enospc, short write, corruption, a crashed forked
//                        child mid-spill) leaks files.
//   SpillFileWriter      Append-only block writer. Each block is framed as
//                        [u32 LE size][u32 LE crc32][u8 type][u8 version]
//                        [body] — the same checksummed-envelope shape as the
//                        forked wire protocol (serialize/checksum.h), so a
//                        single flipped bit anywhere in a block fails
//                        validation on read-back.
//   SpillFileReader      Streams blocks back, validating size, checksum and
//                        version; throws SympleWireError on any mismatch.
//   SpillFaultInjector   Deterministic disk faults from SYMPLE_FAULT_SPEC
//                        (spill-enospc | spill-short-write | spill-corrupt),
//                        keyed by the 0-based spill-block write index.
//
// The templated half — serializing ShufflePackets into block bodies, sorted-
// run bookkeeping, and the streaming k-way merge — lives with the engines in
// runtime/engine.h (ShuffleBuffer), which depends on this header and not vice
// versa.
#ifndef SYMPLE_RUNTIME_SPILL_H_
#define SYMPLE_RUNTIME_SPILL_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "runtime/ipc.h"

namespace symple {
namespace internal {

// Spill block framing. Version is bumped whenever the envelope or a body
// layout changes; a mismatch is treated as corruption (the file is from this
// process's run, so a version skew can only mean scrambled bytes).
inline constexpr uint8_t kSpillBlockPackets = 1;  // body: shuffle packets
inline constexpr uint8_t kSpillWireVersion = 1;
inline constexpr size_t kSpillEnvelopeBytes = 10;  // size(4)+crc(4)+type+ver
inline constexpr uint32_t kMaxSpillBlockBytes = 1u << 30;
// Bodies are buffered to roughly this size before a block is cut: large
// enough that envelope + syscall cost amortizes, small enough that the
// buffering itself stays a rounding error against any plausible budget.
inline constexpr size_t kSpillBlockTargetBytes = 256 * 1024;

// First spill-mode spec in SYMPLE_FAULT_SPEC (';'-joined list), if any.
std::optional<FaultSpec> SpillFaultFromEnv();

// Deterministic disk-fault hook shared by every spill writer of one engine
// run. `frame` in the spec indexes spill-block writes through this injector
// in write order, so tests can fail the first write, the retry, or every
// write (`frame=*`).
class SpillFaultInjector {
 public:
  enum class Action { kNone, kEnospc, kShortWrite, kCorrupt };

  explicit SpillFaultInjector(std::optional<FaultSpec> spec)
      : spec_(std::move(spec)) {}

  // Claims the next write index and returns the fault to apply to it.
  Action Next() {
    const uint64_t index = writes_++;
    if (!spec_.has_value() || !spec_->MatchesFrame(index)) {
      return Action::kNone;
    }
    switch (spec_->mode) {
      case FaultSpec::Mode::kSpillEnospc:
        return Action::kEnospc;
      case FaultSpec::Mode::kSpillShortWrite:
        return Action::kShortWrite;
      case FaultSpec::Mode::kSpillCorrupt:
        return Action::kCorrupt;
      default:
        return Action::kNone;
    }
  }

 private:
  std::optional<FaultSpec> spec_;
  uint64_t writes_ = 0;
};

// RAII spill file: owns a path and, while writing, a descriptor. The file is
// unlinked on destruction unless the owner is destroyed after the whole
// spill directory was already swept (unlink of a missing path is a no-op),
// so a throw anywhere between creation and the end of the run cannot leak
// the file.
class TempFile {
 public:
  // Creates (O_EXCL) `dir`/`name`; throws SympleIoError on failure.
  TempFile(const std::string& dir, const std::string& name);
  TempFile(TempFile&&) = delete;
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;
  ~TempFile();

  const std::string& path() const { return path_; }
  int fd() const { return fd_.get(); }
  // Closes the write descriptor (flushing is the kernel's problem — spill
  // files never need to survive a power loss, only this process).
  void CloseFd() { fd_.Reset(); }

 private:
  std::string path_;
  UniqueFd fd_;
};

// RAII spill directory: mkdtemp under `base` (or the environment's TMPDIR /
// /tmp when `base` is empty). The destructor unlinks every regular file
// still inside and removes the directory — the backstop that keeps crashed
// forked children's half-written files from outliving the run.
class TempDir {
 public:
  explicit TempDir(const std::string& base);
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  ~TempDir();

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Append-only checksummed block writer over a TempFile. Write failures (real
// or injected) surface as SympleIoError; the caller (ShuffleBuffer) owns the
// retry-once-on-a-fresh-file policy.
class SpillFileWriter {
 public:
  SpillFileWriter(TempFile* file, SpillFaultInjector* faults)
      : file_(file), faults_(faults) {}

  // Frames `body` as one block and appends it. The injector's action for
  // this write is applied here: enospc fails before any byte lands,
  // short-write leaves a truncated block, corrupt flips one bit in the
  // written body (detected by Verify / the reader, never silently).
  void WriteBlock(uint8_t type, const std::vector<uint8_t>& body);

  uint64_t bytes_written() const { return bytes_written_; }
  uint64_t blocks_written() const { return blocks_written_; }

 private:
  TempFile* file_;
  SpillFaultInjector* faults_;  // may be null (no injection)
  uint64_t bytes_written_ = 0;
  uint64_t blocks_written_ = 0;
};

// Streaming block reader with envelope validation. Reads via a plain
// descriptor opened on demand; throws SympleWireError on a short file, bad
// checksum, or version mismatch, SympleIoError on an OS-level read failure.
class SpillFileReader {
 public:
  explicit SpillFileReader(const std::string& path);

  // Reads the next block into *type/*body; false at clean EOF.
  bool NextBlock(uint8_t* type, std::vector<uint8_t>* body);

 private:
  std::string path_;
  UniqueFd fd_;
};

// Re-reads a just-written spill file end to end, validating every block
// envelope. Returns false if any block fails validation (the spill-corrupt
// detection point: data is still in memory, so the caller can retry on a
// fresh file). `expect_blocks` cross-checks the count.
bool VerifySpillFile(const std::string& path, uint64_t expect_blocks);

}  // namespace internal
}  // namespace symple

#endif  // SYMPLE_RUNTIME_SPILL_H_
