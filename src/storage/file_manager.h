// FileManager owns the column files of a database directory. Each column of
// a projection lives in its own file, a dense sequence of 64 KB blocks.
//
// Thread safety: all operations may be called concurrently (the tuple mover
// creates and appends new column generations while query workers read
// existing files). A single mutex guards the registry; block reads copy the
// descriptor under the lock and pread outside it, holding a shared
// read-gate so that retired descriptors (from re-created files) can be
// closed safely: Create closes the oldest retired fds past a cap under the
// exclusive gate, when no pread can be mid-flight on them.

#ifndef CSTORE_STORAGE_FILE_MANAGER_H_
#define CSTORE_STORAGE_FILE_MANAGER_H_

#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/page.h"
#include "util/status.h"

namespace cstore {
namespace storage {

/// Opaque handle to an open column file.
struct FileId {
  uint32_t id = UINT32_MAX;
  bool valid() const { return id != UINT32_MAX; }
  friend bool operator==(FileId a, FileId b) { return a.id == b.id; }
};

class FileManager {
 public:
  /// Creates a manager rooted at `dir` (created if missing).
  static Result<std::unique_ptr<FileManager>> Open(const std::string& dir);

  ~FileManager();

  FileManager(const FileManager&) = delete;
  FileManager& operator=(const FileManager&) = delete;

  /// Creates (truncating if present) a column file.
  Result<FileId> Create(const std::string& name);

  /// Opens an existing column file.
  Result<FileId> OpenExisting(const std::string& name);

  /// True if `name` exists in the directory.
  bool Exists(const std::string& name) const;

  /// Appends a 64 KB page; returns the block number it was written at.
  Result<uint64_t> AppendBlock(FileId file, const Page& page);

  /// Reads block `block_no` into `*page`.
  Status ReadBlock(FileId file, uint64_t block_no, Page* page) const;

  /// Number of 64 KB blocks in the file.
  Result<uint64_t> NumBlocks(FileId file) const;

  /// Writes a small sidecar blob (column metadata, the catalog) next to a
  /// column file, replacing any previous version atomically: a crash
  /// mid-write leaves the old sidecar whole. Not fsynced.
  Status WriteSidecar(const std::string& name,
                      const std::vector<char>& bytes);
  Result<std::vector<char>> ReadSidecar(const std::string& name) const;

  const std::string& dir() const { return dir_; }

  /// Retired descriptors retained before the oldest get closed. Each
  /// generation swap of a column (tuple-mover compaction) retires one fd;
  /// without a cap a long-running mover leaks descriptors without bound.
  static constexpr size_t kDefaultMaxRetiredFds = 16;
  void set_max_retired_fds(size_t cap);
  size_t retired_fd_count() const;

 private:
  explicit FileManager(std::string dir) : dir_(std::move(dir)) {}

  struct OpenFile {
    int fd = -1;
    uint64_t num_blocks = 0;
    std::string name;
  };

  std::string PathFor(const std::string& name) const;
  const OpenFile* GetFile(FileId file) const;  // requires mu_ held

  std::string dir_;
  mutable std::mutex mu_;  // guards files_, by_name_, retired_fds_
  // Gate between in-flight preads (shared) and retired-fd closing
  // (exclusive). ReadBlock holds it shared across descriptor copy + pread;
  // Create acquires it exclusively — with mu_ released, so lock order is
  // always read_gate_ before mu_ — to close surplus retired fds once no
  // pread can still be using them.
  mutable std::shared_mutex read_gate_;
  std::vector<OpenFile> files_;
  std::unordered_map<std::string, uint32_t> by_name_;
  // Descriptors of re-created files: parked (oldest first) because a
  // concurrent reader may still pread a copied fd outside mu_. Bounded by
  // max_retired_fds_; surplus is closed under the exclusive read gate.
  std::vector<int> retired_fds_;
  size_t max_retired_fds_ = kDefaultMaxRetiredFds;
};

}  // namespace storage
}  // namespace cstore

#endif  // CSTORE_STORAGE_FILE_MANAGER_H_
