#include "common/atomic_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <memory>

namespace start::common {

namespace {

/// Writes, syncs and closes the temp file; removes it on failure.
Status WriteTemp(const std::string& tmp_path,
                 const std::function<Status(std::FILE*)>& write) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(tmp_path.c_str(), "wb"), &std::fclose);
  if (f == nullptr) {
    return Status::IOError("cannot open for write: " + tmp_path);
  }
  Status st = write(f.get());
  if (st.ok() && std::fflush(f.get()) != 0) {
    st = Status::IOError("flush failed: " + tmp_path);
  }
  // Durability half of the atomic replace: rename() orders metadata, not
  // data blocks — without this fsync a power cut shortly after the rename
  // can leave the target pointing at an empty file, destroying the previous
  // good artifact (the exact event this sequence exists for).
  if (st.ok() && fsync(fileno(f.get())) != 0) {
    st = Status::IOError("fsync failed: " + tmp_path);
  }
  if (std::fclose(f.release()) != 0 && st.ok()) {
    st = Status::IOError("close failed: " + tmp_path);
  }
  if (!st.ok()) std::remove(tmp_path.c_str());
  return st;
}

}  // namespace

Status WriteFileAtomically(const std::string& path,
                           const std::function<Status(std::FILE*)>& write) {
  const std::string tmp_path = path + ".tmp";
  START_RETURN_IF_ERROR(WriteTemp(tmp_path, write));
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IOError("rename " + tmp_path + " -> " + path + " failed");
  }
  // Persist the rename itself (the directory entry). Best effort: some
  // filesystems refuse O_RDONLY fsync on directories; the data-block fsync
  // above already rules out the destructive failure mode.
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dir_fd = open(dir.c_str(), O_RDONLY);
  if (dir_fd >= 0) {
    (void)fsync(dir_fd);
    (void)close(dir_fd);
  }
  return Status::OK();
}

}  // namespace start::common
