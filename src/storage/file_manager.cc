#include "storage/file_manager.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>

#include "util/logging.h"

namespace cstore {
namespace storage {

namespace {

std::string ErrnoMessage(const std::string& context) {
  return context + ": " + std::strerror(errno);
}

}  // namespace

Result<std::unique_ptr<FileManager>> FileManager::Open(
    const std::string& dir) {
  struct stat st;
  if (::stat(dir.c_str(), &st) != 0) {
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IOError(ErrnoMessage("mkdir " + dir));
    }
  } else if (!S_ISDIR(st.st_mode)) {
    return Status::InvalidArgument(dir + " exists and is not a directory");
  }
  return std::unique_ptr<FileManager>(new FileManager(dir));
}

FileManager::~FileManager() {
  for (auto& f : files_) {
    if (f.fd >= 0) ::close(f.fd);
  }
  for (int fd : retired_fds_) ::close(fd);
}

std::string FileManager::PathFor(const std::string& name) const {
  return dir_ + "/" + name;
}

const FileManager::OpenFile* FileManager::GetFile(FileId file) const {
  if (!file.valid() || file.id >= files_.size()) return nullptr;
  return &files_[file.id];
}

Result<FileId> FileManager::Create(const std::string& name) {
  int fd = ::open(PathFor(name).c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IOError(ErrnoMessage("create " + name));
  FileId result;
  std::vector<int> to_close;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_name_.find(name);
    if (it != by_name_.end()) {
      // Re-created: replace the stale descriptor. The old fd is parked, not
      // closed here — a concurrent ReadBlock may hold a copy of it outside
      // mu_, and closing now would hand its pread a recycled descriptor.
      OpenFile& of = files_[it->second];
      if (of.fd >= 0) retired_fds_.push_back(of.fd);
      of.num_blocks = 0;
      of.fd = fd;
      result = FileId{it->second};
      // Past the cap, detach the oldest retired fds; they are closed below
      // under the exclusive read gate, once no pread can be mid-flight.
      if (retired_fds_.size() > max_retired_fds_) {
        size_t surplus = retired_fds_.size() - max_retired_fds_;
        to_close.assign(retired_fds_.begin(),
                        retired_fds_.begin() + surplus);
        retired_fds_.erase(retired_fds_.begin(),
                           retired_fds_.begin() + surplus);
      }
    } else {
      FileId id{static_cast<uint32_t>(files_.size())};
      files_.push_back(OpenFile{fd, 0, name});
      by_name_[name] = id.id;
      result = id;
    }
  }
  if (!to_close.empty()) {
    // Detached fds are unreachable from the registry, so a new reader
    // cannot copy them; the exclusive gate waits out in-flight preads.
    std::unique_lock<std::shared_mutex> gate(read_gate_);
    for (int old_fd : to_close) ::close(old_fd);
  }
  return result;
}

void FileManager::set_max_retired_fds(size_t cap) {
  std::lock_guard<std::mutex> lock(mu_);
  max_retired_fds_ = cap;
}

size_t FileManager::retired_fd_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retired_fds_.size();
}

Result<FileId> FileManager::OpenExisting(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_name_.find(name);
  if (it != by_name_.end()) return FileId{it->second};
  int fd = ::open(PathFor(name).c_str(), O_RDWR);
  if (fd < 0) return Status::NotFound(ErrnoMessage("open " + name));
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError(ErrnoMessage("stat " + name));
  }
  if (st.st_size % static_cast<off_t>(kPageSize) != 0) {
    ::close(fd);
    return Status::Corruption(name + " is not a whole number of blocks");
  }
  FileId id{static_cast<uint32_t>(files_.size())};
  files_.push_back(
      OpenFile{fd, static_cast<uint64_t>(st.st_size) / kPageSize, name});
  by_name_[name] = id.id;
  return id;
}

bool FileManager::Exists(const std::string& name) const {
  struct stat st;
  return ::stat(PathFor(name).c_str(), &st) == 0;
}

Result<uint64_t> FileManager::AppendBlock(FileId file, const Page& page) {
  std::lock_guard<std::mutex> lock(mu_);
  OpenFile* of = const_cast<OpenFile*>(GetFile(file));
  if (of == nullptr || of->fd < 0) {
    return Status::InvalidArgument("invalid file handle");
  }
  off_t offset = static_cast<off_t>(of->num_blocks) * kPageSize;
  ssize_t n = ::pwrite(of->fd, page.data(), kPageSize, offset);
  if (n != static_cast<ssize_t>(kPageSize)) {
    return Status::IOError(ErrnoMessage("write " + of->name));
  }
  return of->num_blocks++;
}

Status FileManager::ReadBlock(FileId file, uint64_t block_no,
                              Page* page) const {
  // Shared read gate held across descriptor copy + pread: Create may close
  // retired descriptors only under the exclusive gate, so the fd copied
  // below stays valid for the whole read.
  std::shared_lock<std::shared_mutex> gate(read_gate_);
  int fd = -1;
  std::string name;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const OpenFile* of = GetFile(file);
    if (of == nullptr || of->fd < 0) {
      return Status::InvalidArgument("invalid file handle");
    }
    if (block_no >= of->num_blocks) {
      return Status::OutOfRange("block " + std::to_string(block_no) +
                                " beyond end of " + of->name);
    }
    fd = of->fd;
    name = of->name;
  }
  // pread outside the lock: concurrent readers overlap their I/O.
  off_t offset = static_cast<off_t>(block_no) * kPageSize;
  ssize_t n = ::pread(fd, page->data(), kPageSize, offset);
  if (n != static_cast<ssize_t>(kPageSize)) {
    return Status::IOError(ErrnoMessage("read " + name));
  }
  if (page->header()->magic != BlockHeader::kMagic) {
    return Status::Corruption("bad block magic in " + name);
  }
  return Status::OK();
}

Result<uint64_t> FileManager::NumBlocks(FileId file) const {
  std::lock_guard<std::mutex> lock(mu_);
  const OpenFile* of = GetFile(file);
  if (of == nullptr) return Status::InvalidArgument("invalid file handle");
  return of->num_blocks;
}

Status FileManager::WriteSidecar(const std::string& name,
                                 const std::vector<char>& bytes) {
  // Written whole to a temporary file and renamed over the old sidecar, so
  // a crash mid-write leaves the previous version readable (rename is
  // atomic within a directory). Not fsynced: power-loss durability is out
  // of scope here, as for the column files themselves.
  const std::string path = PathFor(name) + ".meta";
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IOError(ErrnoMessage("create " + tmp));
  Status st = Status::OK();
  size_t done = 0;
  while (done < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      st = Status::IOError(ErrnoMessage("write " + tmp));
      break;
    }
    done += static_cast<size_t>(n);
  }
  if (::close(fd) != 0 && st.ok()) {
    st = Status::IOError(ErrnoMessage("close " + tmp));
  }
  if (st.ok() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    st = Status::IOError(ErrnoMessage("rename " + tmp));
  }
  if (!st.ok()) ::unlink(tmp.c_str());
  return st;
}

Result<std::vector<char>> FileManager::ReadSidecar(
    const std::string& name) const {
  std::string path = PathFor(name) + ".meta";
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::NotFound(ErrnoMessage("open " + path));
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError(ErrnoMessage("stat " + path));
  }
  std::vector<char> bytes(static_cast<size_t>(st.st_size));
  ssize_t n = ::read(fd, bytes.data(), bytes.size());
  ::close(fd);
  if (n != st.st_size) return Status::IOError(ErrnoMessage("read " + path));
  return bytes;
}

}  // namespace storage
}  // namespace cstore
