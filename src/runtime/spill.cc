#include "runtime/spill.h"

#include <dirent.h>
#include <errno.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>

#include "serialize/checksum.h"

namespace symple {
namespace internal {

std::optional<FaultSpec> SpillFaultFromEnv() {
  for (const FaultSpec& f : ParseFaultSpecList(std::getenv("SYMPLE_FAULT_SPEC"))) {
    if (f.is_spill_mode()) {
      return f;
    }
  }
  return std::nullopt;
}

TempFile::TempFile(const std::string& dir, const std::string& name)
    : path_(dir + "/" + name) {
  // O_RDWR, not O_WRONLY: the owner may pread its own writes back.
  const int fd = ::open(path_.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  if (fd < 0) {
    const std::string err = std::strerror(errno);
    path_.clear();  // nothing to unlink
    throw SympleIoError("spill file create failed: " + err);
  }
  fd_.Reset(fd);
}

TempFile::~TempFile() {
  fd_.Reset();
  if (!path_.empty()) {
    ::unlink(path_.c_str());  // ENOENT (dir already swept) is fine
  }
}

TempDir::TempDir(const std::string& base) {
  std::string root = base;
  if (root.empty()) {
    const char* tmp = std::getenv("TMPDIR");
    root = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
  } else {
    // A caller-chosen spill dir (EngineOptions::spill_dir) may not exist yet;
    // create one level best-effort and let mkdtemp report anything deeper.
    ::mkdir(root.c_str(), 0700);
  }
  std::string tmpl = root + "/symple-spill-XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) {
    throw SympleIoError("mkdtemp(" + tmpl +
                        ") failed: " + std::strerror(errno));
  }
  path_.assign(buf.data());
}

TempDir::~TempDir() {
  if (path_.empty()) {
    return;
  }
  // Sweep regular files (spill never creates subdirectories), then rmdir.
  // Best effort by design: destructors must not throw, and a file that
  // cannot be removed is the OS's report to make, not ours to crash on.
  if (DIR* d = ::opendir(path_.c_str()); d != nullptr) {
    while (const struct dirent* e = ::readdir(d)) {
      const char* n = e->d_name;
      if (std::strcmp(n, ".") == 0 || std::strcmp(n, "..") == 0) {
        continue;
      }
      ::unlink((path_ + "/" + n).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(path_.c_str());
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

}  // namespace

void SpillFileWriter::WriteBlock(uint8_t type, const std::vector<uint8_t>& body) {
  SYMPLE_CHECK(body.size() <= kMaxSpillBlockBytes, "spill block too large");
  // One contiguous buffer per block: header + body, so a block is one
  // write(2) and the injector's byte arithmetic is exact.
  std::vector<uint8_t> block(kSpillEnvelopeBytes + body.size());
  const uint32_t size =
      static_cast<uint32_t>(body.size()) + 2;  // type + version + body
  PutU32Le(size, block.data());
  block[8] = type;
  block[9] = kSpillWireVersion;
  std::memcpy(block.data() + kSpillEnvelopeBytes, body.data(), body.size());
  const uint32_t crc = Crc32(block.data() + 8, block.size() - 8);
  PutU32Le(crc, block.data() + 4);

  const SpillFaultInjector::Action action =
      faults_ != nullptr ? faults_->Next() : SpillFaultInjector::Action::kNone;
  switch (action) {
    case SpillFaultInjector::Action::kEnospc:
      throw SympleIoError("spill write failed: No space left on device "
                          "(injected)");
    case SpillFaultInjector::Action::kShortWrite:
      WriteAll(file_->fd(), block.data(), block.size() / 2);
      throw SympleIoError("spill write failed: short write (injected)");
    case SpillFaultInjector::Action::kCorrupt:
      // Flip one bit inside the checksummed region; the write itself
      // succeeds, so only the post-write verification can notice.
      block.back() ^= 0x01;
      break;
    case SpillFaultInjector::Action::kNone:
      break;
  }
  if (!WriteAll(file_->fd(), block.data(), block.size())) {
    throw SympleIoError(std::string("spill write failed: ") +
                        std::strerror(errno));
  }
  bytes_written_ += block.size();
  ++blocks_written_;
}

SpillFileReader::SpillFileReader(const std::string& path) : path_(path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw SympleIoError("spill file open failed (" + path +
                        "): " + std::strerror(errno));
  }
  fd_.Reset(fd);
}

bool SpillFileReader::NextBlock(uint8_t* type, std::vector<uint8_t>* body) {
  uint8_t header[kSpillEnvelopeBytes];
  const IoStatus hs = ReadAll(fd_.get(), header, sizeof(header));
  if (hs == IoStatus::kEof) {
    return false;  // clean end of file
  }
  if (hs != IoStatus::kOk) {
    throw SympleWireError("spill block header truncated in " + path_);
  }
  const uint32_t size = GetU32Le(header);
  if (size < 2 || size > kMaxSpillBlockBytes) {
    throw SympleWireError("corrupt spill block size in " + path_);
  }
  body->resize(size - 2);
  if (ReadAll(fd_.get(), body->data(), body->size()) != IoStatus::kOk) {
    throw SympleWireError("spill block body truncated in " + path_);
  }
  uint32_t crc = Crc32(header + 8, 2);
  crc = Crc32Extend(crc, body->data(), body->size());
  if (crc != GetU32Le(header + 4)) {
    throw SympleWireError("spill block checksum mismatch in " + path_);
  }
  if (header[9] != kSpillWireVersion) {
    throw SympleWireError("spill block version mismatch in " + path_);
  }
  *type = header[8];
  return true;
}

bool VerifySpillFile(const std::string& path, uint64_t expect_blocks) {
  try {
    SpillFileReader reader(path);
    uint8_t type = 0;
    std::vector<uint8_t> body;
    uint64_t blocks = 0;
    while (reader.NextBlock(&type, &body)) {
      ++blocks;
    }
    return blocks == expect_blocks;
  } catch (const SympleError&) {
    return false;
  }
}

}  // namespace internal
}  // namespace symple
