//===- store/vfs.h - Virtual filesystem for durable state -------*- C++ -*-===//
//
// Part of the Typecoin reproduction of Crary & Sullivan (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The storage layer's I/O boundary: a small virtual-filesystem
/// abstraction that every durable-state write goes through. Three
/// backends:
///
///  * \ref PosixVfs — the real thing: fd-based appends, `fsync`,
///    `rename`, directory syncs.
///  * \ref MemVfs — an in-memory filesystem that *models durability
///    honestly*: every file tracks its last-synced content separately
///    from its current content, and renames stay provisional until the
///    containing directory is synced. \ref MemVfs::crash rewinds the
///    filesystem to exactly what a power loss would leave behind. Like
///    an fsync, which writes only dirty pages, a sync copies only what
///    changed since the previous one, so an ever-growing log costs each
///    sync its new bytes, not its whole length.
///  * \ref FaultVfs (store/faultvfs.h) — a wrapper injecting torn
///    writes, short writes, fsync lies, ENOSPC, and crash points at
///    every I/O boundary.
///
/// The chainstate engine (store/chainstore.h) is written against this
/// interface only, so the crash matrix in tests/store can prove its
/// recovery invariants against the simulated backends and the same code
/// runs unmodified on the POSIX one.
///
//===----------------------------------------------------------------------===//

#ifndef TYPECOIN_STORE_VFS_H
#define TYPECOIN_STORE_VFS_H

#include "support/bytes.h"
#include "support/result.h"

#include <map>
#include <memory>
#include <optional>
#include <vector>

namespace typecoin {
namespace store {

/// An open file handle. Append-oriented: the log formats built on top
/// never overwrite in place, they append, truncate (torn-tail repair),
/// and sync.
class VfsFile {
public:
  virtual ~VfsFile() = default;

  virtual Result<size_t> size() = 0;
  virtual Status append(const uint8_t *Data, size_t Len) = 0;
  Status append(const Bytes &Data) {
    return append(Data.data(), Data.size());
  }
  virtual Result<Bytes> readAll() = 0;
  virtual Status truncate(size_t NewSize) = 0;
  /// Make everything written so far durable (fsync).
  virtual Status sync() = 0;
};

using VfsFilePtr = std::unique_ptr<VfsFile>;

/// The filesystem interface.
class Vfs {
public:
  virtual ~Vfs() = default;

  /// Open \p Path, creating it when \p Create is set; fails on a
  /// missing file otherwise.
  virtual Result<VfsFilePtr> open(const std::string &Path, bool Create) = 0;
  virtual Result<bool> exists(const std::string &Path) = 0;
  virtual Status remove(const std::string &Path) = 0;
  /// Atomic replace: \p To refers to the old content or the new one,
  /// never a mixture. Durable only after \ref syncDir on the parent.
  virtual Status rename(const std::string &From, const std::string &To) = 0;
  virtual Status mkdirs(const std::string &Dir) = 0;
  virtual Result<std::vector<std::string>> list(const std::string &Dir) = 0;
  /// Make namespace operations (creates, renames, removes) under
  /// \p Dir durable.
  virtual Status syncDir(const std::string &Dir) = 0;
};

/// The directory component of \p Path ("." when it has none).
std::string dirnameOf(const std::string &Path);

/// Crash-safe whole-file replace: write \p Data to `Path + ".tmp"`,
/// sync it, rename over \p Path, and sync the directory. A crash at any
/// point leaves either the old complete file or the new complete file.
Status writeFileAtomic(Vfs &V, const std::string &Path, const Bytes &Data);

/// Read an entire file (convenience over open + readAll).
Result<Bytes> readFileAll(Vfs &V, const std::string &Path);

/// The real POSIX backend.
class PosixVfs : public Vfs {
public:
  Result<VfsFilePtr> open(const std::string &Path, bool Create) override;
  Result<bool> exists(const std::string &Path) override;
  Status remove(const std::string &Path) override;
  Status rename(const std::string &From, const std::string &To) override;
  Status mkdirs(const std::string &Dir) override;
  Result<std::vector<std::string>> list(const std::string &Dir) override;
  Status syncDir(const std::string &Dir) override;
};

/// What a power loss preserves beyond the synced prefix of each file
/// (see \ref MemVfs::crash).
struct CrashOptions {
  /// Keep this file's *unsynced* content too — the torn-write case,
  /// where the in-flight data partially reached the platter. Empty:
  /// every file rewinds to its synced content.
  std::string KeepUnsyncedPath;
  /// Flip one bit in the kept unsynced tail (bit-rot on the torn
  /// sector). Only meaningful with KeepUnsyncedPath.
  bool FlipBitInTail = false;
};

/// File bytes kept in fixed-size chunks: appending never moves what is
/// already stored, and \ref copyFrom rewrites only the part past a
/// prefix both sides are known to share.
class ChunkedBytes {
public:
  static constexpr size_t ChunkSize = 4096;

  size_t size() const {
    if (Chunks.empty())
      return 0;
    return (Chunks.size() - 1) * ChunkSize + Chunks.back().size();
  }
  void append(const uint8_t *Data, size_t Len);
  /// Shrink to \p NewSize; a no-op when the content is not longer.
  void truncate(size_t NewSize);
  /// Become a copy of \p Src, given that both already hold the same
  /// first \p Same bytes: only the rest is copied.
  void copyFrom(const ChunkedBytes &Src, size_t Same);
  uint8_t &operator[](size_t I) { return Chunks[I / ChunkSize][I % ChunkSize]; }
  /// The content as one contiguous buffer.
  Bytes flatten() const;

private:
  /// Every chunk but the last holds exactly ChunkSize bytes; the last
  /// is never empty.
  std::vector<Bytes> Chunks;
};

/// An in-memory filesystem with honest durability semantics. Not
/// thread-safe (the chainstate engine serializes its I/O).
class MemVfs : public Vfs {
public:
  Result<VfsFilePtr> open(const std::string &Path, bool Create) override;
  Result<bool> exists(const std::string &Path) override;
  Status remove(const std::string &Path) override;
  Status rename(const std::string &From, const std::string &To) override;
  Status mkdirs(const std::string &Dir) override;
  Result<std::vector<std::string>> list(const std::string &Dir) override;
  Status syncDir(const std::string &Dir) override;

  /// Simulate a power loss: every file rewinds to its last-synced
  /// content (except per \p Opt), and renames not yet covered by a
  /// \ref syncDir are rolled back. Open handles keep working against
  /// the post-crash content (they model a reopened process).
  void crash(const CrashOptions &Opt = {});

  /// Test introspection: the durable (synced) size of a file, or
  /// nullopt when it does not exist.
  std::optional<size_t> durableSize(const std::string &Path) const;

  /// One in-memory file: current content plus the last-synced content.
  struct MemFile {
    ChunkedBytes Content;
    ChunkedBytes Durable;
    /// Length of the prefix Content and Durable are known to share:
    /// everything past it is dirty (appended or rewritten since the
    /// last sync).
    size_t Same = 0;
  };

private:
  struct PendingRename {
    std::string From;
    std::string To;
    /// The file previously at To (nullptr when To was fresh).
    std::shared_ptr<MemFile> Replaced;
  };

  std::map<std::string, std::shared_ptr<MemFile>> Files;
  std::vector<PendingRename> PendingRenames;
};

} // namespace store
} // namespace typecoin

#endif // TYPECOIN_STORE_VFS_H
