#include "runtime/spill.h"

#include <dirent.h>
#include <errno.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>

namespace symple {
namespace internal {

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

UniqueFd OpenRun(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw SympleIoError("spill file open failed (" + path +
                        "): " + std::strerror(errno));
  }
  return UniqueFd(fd);
}

bool VerifySpillFile(const std::string& path, uint64_t expect_frames) {
  try {
    const UniqueFd fd = OpenRun(path);
    std::vector<uint8_t> payload;
    uint8_t type = 0;
    uint64_t frames = 0;
    while (ReadFrame(fd.get(), &payload)) {
      ValidateFrame(payload, &type);
      ++frames;
    }
    return frames == expect_frames;
  } catch (const SympleError&) {
    return false;
  }
}

}  // namespace internal
}  // namespace symple
