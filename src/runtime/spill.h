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
//   OpenRun / VerifySpillFile
//                        Read a run file back. A run is a sequence of
//                        kFramePackets frames in the checksummed format the
//                        forked pipes also carry (runtime/ipc.h), written by
//                        FrameWriter, so a single flipped bit anywhere in a
//                        frame fails validation on read-back.
//
// The templated half — serializing ShufflePackets into frame bodies, sorted-
// run bookkeeping, and the streaming k-way merge — lives with the engines in
// runtime/engine.h (ShuffleBuffer), which depends on this header and not vice
// versa.
#ifndef SYMPLE_RUNTIME_SPILL_H_
#define SYMPLE_RUNTIME_SPILL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"
#include "runtime/ipc.h"

namespace symple {
namespace internal {

// Frame bodies are buffered to roughly this size before a frame is cut:
// large enough that envelope + syscall cost amortizes, small enough that the
// buffering itself stays a rounding error against any plausible budget.
inline constexpr size_t kSpillBlockTargetBytes = 256 * 1024;

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

// Opens a spill run for reading; throws SympleIoError on failure.
UniqueFd OpenRun(const std::string& path);

// Re-reads a just-written spill run end to end, validating every frame.
// Returns false if any frame fails to read or validate (the spill-corrupt
// detection point: the data is still in memory, so the caller can retry on a
// fresh file) or if the file does not hold exactly `expect_frames` frames.
bool VerifySpillFile(const std::string& path, uint64_t expect_frames);

}  // namespace internal
}  // namespace symple

#endif  // SYMPLE_RUNTIME_SPILL_H_
