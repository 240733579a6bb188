#include "runtime/ipc.h"

#include <errno.h>
#include <signal.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "serialize/checksum.h"

namespace symple {
namespace internal {

void UniqueFd::Reset(int fd) {
  if (fd_ >= 0) {
    // EINTR after close() leaves the fd state unspecified on POSIX, but on
    // Linux the descriptor is always released; retrying could close a
    // descriptor reused by another thread, so don't.
    ::close(fd_);
  }
  fd_ = fd;
}

ChildProcess& ChildProcess::operator=(ChildProcess&& other) noexcept {
  if (this != &other) {
    KillAndReap();
    pid_ = other.Release();
  }
  return *this;
}

int ChildProcess::Reap(struct rusage* usage) {
  SYMPLE_CHECK(pid_ > 0, "Reap() on an empty ChildProcess");
  int status = 0;
  for (;;) {
    const pid_t r = ::wait4(pid_, &status, 0, usage);
    if (r == pid_) {
      pid_ = -1;
      return status;
    }
    if (r < 0 && errno == EINTR) {
      continue;
    }
    const pid_t pid = pid_;
    pid_ = -1;  // nothing more we can do with this handle
    throw SympleIoError("wait4(" + std::to_string(pid) +
                        ") failed: " + std::strerror(errno));
  }
}

void ChildProcess::KillAndReap() {
  if (pid_ <= 0) {
    return;
  }
  ::kill(pid_, SIGKILL);
  for (;;) {
    const pid_t r = ::waitpid(pid_, nullptr, 0);
    if (r == pid_ || (r < 0 && errno != EINTR)) {
      break;
    }
  }
  pid_ = -1;
}

void MakePipe(UniqueFd* read_end, UniqueFd* write_end) {
  int fds[2];
  if (::pipe(fds) != 0) {
    throw SympleIoError(std::string("pipe() failed: ") + std::strerror(errno));
  }
  read_end->Reset(fds[0]);
  write_end->Reset(fds[1]);
}

IoStatus ReadSome(int fd, void* buf, size_t capacity, size_t* n_out) {
  for (;;) {
    const ssize_t n = ::read(fd, buf, capacity);
    if (n > 0) {
      *n_out = static_cast<size_t>(n);
      return IoStatus::kOk;
    }
    if (n == 0) {
      return IoStatus::kEof;
    }
    if (errno == EINTR) {
      continue;
    }
    return IoStatus::kError;
  }
}

bool WriteAll(int fd, const void* data, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    p += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

IoStatus ReadAll(int fd, void* data, size_t size) {
  uint8_t* p = static_cast<uint8_t*>(data);
  bool read_any = false;
  while (size > 0) {
    size_t n = 0;
    const IoStatus s = ReadSome(fd, p, size, &n);
    if (s == IoStatus::kEof) {
      return read_any ? IoStatus::kError : IoStatus::kEof;
    }
    if (s == IoStatus::kError) {
      return IoStatus::kError;
    }
    read_any = true;
    p += n;
    size -= n;
  }
  return IoStatus::kOk;
}

void SleepMs(long ms) {
  if (ms <= 0) {
    return;
  }
  timespec ts{};
  ts.tv_sec = ms / 1000;
  ts.tv_nsec = (ms % 1000) * 1000000L;
  while (::nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

int PollWithDeadline(struct pollfd* fds, size_t nfds,
                     const std::optional<std::chrono::steady_clock::time_point>&
                         deadline) {
  using std::chrono::milliseconds;
  using std::chrono::steady_clock;
  for (;;) {
    int timeout_ms = -1;
    if (deadline.has_value()) {
      const auto remaining = *deadline - steady_clock::now();
      const auto ms = std::chrono::duration_cast<milliseconds>(remaining).count();
      // +1 rounds the truncated duration up so we never wake a hair *before*
      // the deadline and spin; a wake just past it is fine (the caller checks
      // elapsed time, not our return value, for its timeout decisions).
      timeout_ms = ms <= 0 ? 0 : static_cast<int>(ms + 1);
    }
    const int rc = ::poll(fds, static_cast<nfds_t>(nfds), timeout_ms);
    if (rc >= 0) {
      return rc;
    }
    if (errno != EINTR) {
      throw SympleIoError(std::string("poll() failed: ") + std::strerror(errno));
    }
    // EINTR: loop, recomputing the remaining wait from the absolute deadline.
  }
}

namespace {

bool ConsumePrefix(std::string* s, const char* prefix) {
  const size_t len = std::strlen(prefix);
  if (s->compare(0, len, prefix) != 0) {
    return false;
  }
  s->erase(0, len);
  return true;
}

uint64_t ParseUint(const std::string& s, const char* what) {
  SYMPLE_CHECK(!s.empty() && s.find_first_not_of("0123456789") == std::string::npos,
               std::string("SYMPLE_FAULT_SPEC: bad ") + what + " '" + s + "'");
  return std::strtoull(s.c_str(), nullptr, 10);
}

}  // namespace

std::optional<FaultSpec> ParseFaultSpec(const char* spec) {
  if (spec == nullptr || *spec == '\0') {
    return std::nullopt;
  }
  // <mode>:worker=<n|*>:frame=<k|*>
  std::string rest(spec);
  FaultSpec f;
  if (ConsumePrefix(&rest, "crash:")) {
    f.mode = FaultSpec::Mode::kCrash;
  } else if (ConsumePrefix(&rest, "hang:")) {
    f.mode = FaultSpec::Mode::kHang;
  } else if (ConsumePrefix(&rest, "truncate:")) {
    f.mode = FaultSpec::Mode::kTruncate;
  } else if (ConsumePrefix(&rest, "corrupt:")) {
    f.mode = FaultSpec::Mode::kCorrupt;
  } else if (ConsumePrefix(&rest, "spill-enospc:")) {
    f.mode = FaultSpec::Mode::kSpillEnospc;
  } else if (ConsumePrefix(&rest, "spill-short-write:")) {
    f.mode = FaultSpec::Mode::kSpillShortWrite;
  } else if (ConsumePrefix(&rest, "spill-corrupt:")) {
    f.mode = FaultSpec::Mode::kSpillCorrupt;
  } else {
    throw SympleError(
        "SYMPLE_FAULT_SPEC: unknown mode in '" + std::string(spec) +
        "' (want crash|hang|truncate|corrupt|spill-enospc|spill-short-write|"
        "spill-corrupt)");
  }
  SYMPLE_CHECK(ConsumePrefix(&rest, "worker="),
               "SYMPLE_FAULT_SPEC: expected worker=<n|*> in '" + std::string(spec) + "'");
  const size_t colon = rest.find(':');
  SYMPLE_CHECK(colon != std::string::npos,
               "SYMPLE_FAULT_SPEC: expected :frame=<k|*> in '" + std::string(spec) + "'");
  const std::string worker = rest.substr(0, colon);
  rest.erase(0, colon + 1);
  if (worker == "*") {
    f.all_workers = true;
  } else {
    f.worker = static_cast<uint32_t>(ParseUint(worker, "worker"));
  }
  SYMPLE_CHECK(ConsumePrefix(&rest, "frame="),
               "SYMPLE_FAULT_SPEC: expected frame=<k|*> in '" + std::string(spec) + "'");
  if (rest == "*") {
    f.all_frames = true;
  } else {
    f.frame = ParseUint(rest, "frame");
  }
  return f;
}

std::vector<FaultSpec> ParseFaultSpecList(const char* spec) {
  std::vector<FaultSpec> out;
  if (spec == nullptr || *spec == '\0') {
    return out;
  }
  std::string rest(spec);
  size_t start = 0;
  while (start <= rest.size()) {
    const size_t semi = rest.find(';', start);
    const std::string one =
        rest.substr(start, semi == std::string::npos ? std::string::npos
                                                     : semi - start);
    if (const auto f = ParseFaultSpec(one.c_str()); f.has_value()) {
      out.push_back(*f);
    }
    if (semi == std::string::npos) {
      break;
    }
    start = semi + 1;
  }
  return out;
}

std::optional<FaultSpec> FaultSpecFromEnv(bool spill) {
  for (const FaultSpec& f : ParseFaultSpecList(std::getenv("SYMPLE_FAULT_SPEC"))) {
    if (f.is_spill_mode() == spill) {
      return f;
    }
  }
  return std::nullopt;
}

namespace {

void PutU32Le(uint32_t v, uint8_t* out) {
  out[0] = static_cast<uint8_t>(v);
  out[1] = static_cast<uint8_t>(v >> 8);
  out[2] = static_cast<uint8_t>(v >> 16);
  out[3] = static_cast<uint8_t>(v >> 24);
}

uint32_t GetU32Le(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

// The size field at `p`, as both readers parse it.
uint32_t GetFrameSize(const uint8_t* p) {
  const uint32_t size = GetU32Le(p);
  if (size > kMaxFrameBytes) {
    throw SympleIoError("corrupt frame header (size " + std::to_string(size) + ")");
  }
  return size;
}

}  // namespace

void EncodeFrame(uint8_t type, const std::vector<uint8_t>& body,
                 std::vector<uint8_t>* frame) {
  SYMPLE_CHECK(body.size() <= kMaxFrameBytes - (kFrameEnvelopeBytes - 4),
               "frame body too large");
  frame->resize(kFrameEnvelopeBytes + body.size());
  uint8_t* f = frame->data();
  PutU32Le(static_cast<uint32_t>(frame->size() - 4), f);
  f[8] = type;
  f[9] = kWireVersion;
  std::copy(body.begin(), body.end(), f + kFrameEnvelopeBytes);
  PutU32Le(Crc32(f + 8, frame->size() - 8), f + 4);
}

BinaryReader ValidateFrame(std::span<const uint8_t> payload, uint8_t* type_out) {
  constexpr size_t kPayloadEnvelope = kFrameEnvelopeBytes - 4;  // crc + type + version
  if (payload.size() < kPayloadEnvelope) {
    throw SympleWireError("frame shorter than its envelope (" +
                          std::to_string(payload.size()) + " bytes)");
  }
  if (GetU32Le(payload.data()) != Crc32(payload.data() + 4, payload.size() - 4)) {
    throw SympleWireError("frame checksum mismatch");
  }
  if (payload[5] != kWireVersion) {
    throw SympleWireError("frame version " + std::to_string(payload[5]) +
                          " (expected " + std::to_string(kWireVersion) + ")");
  }
  *type_out = payload[4];
  return BinaryReader(payload.data() + kPayloadEnvelope,
                      payload.size() - kPayloadEnvelope);
}

bool ReadFrame(int fd, std::vector<uint8_t>* payload) {
  uint8_t size_field[4];
  const IoStatus s = ReadAll(fd, size_field, sizeof(size_field));
  if (s == IoStatus::kEof) {
    return false;
  }
  if (s != IoStatus::kOk) {
    throw SympleWireError("frame size field truncated");
  }
  payload->resize(GetFrameSize(size_field));
  if (ReadAll(fd, payload->data(), payload->size()) != IoStatus::kOk) {
    throw SympleWireError("frame truncated");
  }
  return true;
}

void FrameDecoder::Feed(const uint8_t* data, size_t size) {
  // Compact once the consumed prefix dominates, keeping Feed amortized O(n).
  if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + size);
}

bool FrameDecoder::Next(std::span<const uint8_t>* payload) {
  if (buf_.size() - pos_ < sizeof(uint32_t)) {
    return false;
  }
  const uint32_t size = GetFrameSize(buf_.data() + pos_);
  if (buf_.size() - pos_ - sizeof(uint32_t) < size) {
    return false;
  }
  *payload = std::span<const uint8_t>(buf_).subspan(pos_ + sizeof(uint32_t), size);
  pos_ += sizeof(uint32_t) + size;
  return true;
}

void FrameWriter::WriteFrame(uint8_t type, const std::vector<uint8_t>& body) {
  EncodeFrame(type, body, &frame_);
  FaultSpec::Mode fault = FaultSpec::Mode::kNone;
  if (faults_ != nullptr) {
    const uint64_t index = faults_->frames++;
    if (faults_->spec.has_value() && faults_->spec->MatchesFrame(index)) {
      fault = faults_->spec->mode;
    }
  }
  switch (fault) {
    case FaultSpec::Mode::kCrash:
      ::_exit(42);
    case FaultSpec::Mode::kHang:
      for (;;) {
        ::pause();  // until the parent's watchdog delivers SIGKILL
      }
    case FaultSpec::Mode::kTruncate:
      // Half the frame, then a *clean* exit: the parent must catch the
      // truncation from the stream itself, not from the exit status.
      WriteAll(fd_, frame_.data(), frame_.size() / 2);
      ::_exit(0);
    case FaultSpec::Mode::kSpillEnospc:
      throw SympleIoError("frame write failed: No space left on device (injected)");
    case FaultSpec::Mode::kSpillShortWrite:
      WriteAll(fd_, frame_.data(), frame_.size() / 2);
      throw SympleIoError("frame write failed: short write (injected)");
    case FaultSpec::Mode::kCorrupt:
    case FaultSpec::Mode::kSpillCorrupt:
      // One bit flipped inside the checksummed region, and the write
      // succeeds: only the reader's validation can tell this frame is bad.
      frame_.back() ^= 0x01;
      break;
    case FaultSpec::Mode::kNone:
      break;
  }
  if (!WriteAll(fd_, frame_.data(), frame_.size())) {
    throw SympleIoError(std::string("frame write failed: ") + std::strerror(errno));
  }
  ++frames_written_;
  bytes_written_ += frame_.size();
}

}  // namespace internal
}  // namespace symple
