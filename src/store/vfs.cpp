//===- store/vfs.cpp - Virtual filesystem for durable state ---------------===//

#include "store/vfs.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace typecoin {
namespace store {

std::string dirnameOf(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  if (Slash == std::string::npos)
    return ".";
  if (Slash == 0)
    return "/";
  return Path.substr(0, Slash);
}

Status writeFileAtomic(Vfs &V, const std::string &Path, const Bytes &Data) {
  const std::string Tmp = Path + ".tmp";
  {
    TC_UNWRAP(F, V.open(Tmp, /*Create=*/true));
    TC_UNWRAP(Size, F->size());
    if (Size != 0)
      TC_TRY(F->truncate(0));
    TC_TRY(F->append(Data));
    TC_TRY(F->sync());
  }
  TC_TRY(V.rename(Tmp, Path));
  return V.syncDir(dirnameOf(Path));
}

Result<Bytes> readFileAll(Vfs &V, const std::string &Path) {
  TC_UNWRAP(F, V.open(Path, /*Create=*/false));
  return F->readAll();
}

// --- PosixVfs -----------------------------------------------------------

namespace {

std::string errnoMessage(const std::string &What, const std::string &Path) {
  return "vfs: " + What + " " + Path + ": " + std::strerror(errno);
}

class PosixFile : public VfsFile {
public:
  PosixFile(int Fd, std::string Path) : Fd(Fd), Path(std::move(Path)) {}
  ~PosixFile() override {
    if (Fd >= 0)
      ::close(Fd);
  }

  Result<size_t> size() override {
    struct stat St;
    if (::fstat(Fd, &St) != 0)
      return makeError(errnoMessage("stat", Path));
    return static_cast<size_t>(St.st_size);
  }

  Status append(const uint8_t *Data, size_t Len) override {
    if (::lseek(Fd, 0, SEEK_END) < 0)
      return makeError(errnoMessage("seek", Path));
    size_t Done = 0;
    while (Done < Len) {
      ssize_t N = ::write(Fd, Data + Done, Len - Done);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        return makeError(errnoMessage("write", Path));
      }
      Done += static_cast<size_t>(N);
    }
    return Status::success();
  }

  Result<Bytes> readAll() override {
    TC_UNWRAP(Size, size());
    Bytes Out(Size);
    size_t Done = 0;
    while (Done < Size) {
      ssize_t N = ::pread(Fd, Out.data() + Done, Size - Done,
                          static_cast<off_t>(Done));
      if (N < 0) {
        if (errno == EINTR)
          continue;
        return makeError(errnoMessage("read", Path));
      }
      if (N == 0)
        break; // Raced with a truncate; return what exists.
      Done += static_cast<size_t>(N);
    }
    Out.resize(Done);
    return Out;
  }

  Status truncate(size_t NewSize) override {
    if (::ftruncate(Fd, static_cast<off_t>(NewSize)) != 0)
      return makeError(errnoMessage("truncate", Path));
    return Status::success();
  }

  Status sync() override {
    if (::fsync(Fd) != 0)
      return makeError(errnoMessage("fsync", Path));
    return Status::success();
  }

private:
  int Fd;
  std::string Path;
};

} // namespace

Result<VfsFilePtr> PosixVfs::open(const std::string &Path, bool Create) {
  int Flags = O_RDWR | (Create ? O_CREAT : 0);
  int Fd = ::open(Path.c_str(), Flags, 0644);
  if (Fd < 0)
    return makeError(errnoMessage("open", Path));
  return VfsFilePtr(new PosixFile(Fd, Path));
}

Result<bool> PosixVfs::exists(const std::string &Path) {
  struct stat St;
  if (::stat(Path.c_str(), &St) == 0)
    return true;
  if (errno == ENOENT)
    return false;
  return makeError(errnoMessage("stat", Path));
}

Status PosixVfs::remove(const std::string &Path) {
  if (::unlink(Path.c_str()) != 0)
    return makeError(errnoMessage("unlink", Path));
  return Status::success();
}

Status PosixVfs::rename(const std::string &From, const std::string &To) {
  if (::rename(From.c_str(), To.c_str()) != 0)
    return makeError(errnoMessage("rename", From + " -> " + To));
  return Status::success();
}

Status PosixVfs::mkdirs(const std::string &Dir) {
  if (Dir.empty() || Dir == "." || Dir == "/")
    return Status::success();
  std::string Partial;
  size_t Pos = 0;
  while (Pos <= Dir.size()) {
    size_t Slash = Dir.find('/', Pos);
    if (Slash == std::string::npos)
      Slash = Dir.size();
    Partial = Dir.substr(0, Slash);
    Pos = Slash + 1;
    if (Partial.empty())
      continue;
    if (::mkdir(Partial.c_str(), 0755) != 0 && errno != EEXIST)
      return makeError(errnoMessage("mkdir", Partial));
  }
  return Status::success();
}

Result<std::vector<std::string>> PosixVfs::list(const std::string &Dir) {
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return makeError(errnoMessage("opendir", Dir));
  std::vector<std::string> Out;
  while (struct dirent *E = ::readdir(D)) {
    std::string Name = E->d_name;
    if (Name != "." && Name != "..")
      Out.push_back(Name);
  }
  ::closedir(D);
  std::sort(Out.begin(), Out.end());
  return Out;
}

Status PosixVfs::syncDir(const std::string &Dir) {
  int Fd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (Fd < 0)
    return makeError(errnoMessage("open dir", Dir));
  int Rc = ::fsync(Fd);
  ::close(Fd);
  if (Rc != 0)
    return makeError(errnoMessage("fsync dir", Dir));
  return Status::success();
}

// --- MemVfs -------------------------------------------------------------

void ChunkedBytes::append(const uint8_t *Data, size_t Len) {
  while (Len > 0) {
    if (Chunks.empty() || Chunks.back().size() == ChunkSize) {
      Chunks.emplace_back();
      Chunks.back().reserve(ChunkSize);
    }
    Bytes &Last = Chunks.back();
    size_t N = std::min(Len, ChunkSize - Last.size());
    Last.insert(Last.end(), Data, Data + N);
    Data += N;
    Len -= N;
  }
}

void ChunkedBytes::truncate(size_t NewSize) {
  if (NewSize >= size())
    return;
  size_t Keep = (NewSize + ChunkSize - 1) / ChunkSize;
  Chunks.resize(Keep);
  if (Keep > 0)
    Chunks.back().resize(NewSize - (Keep - 1) * ChunkSize);
}

void ChunkedBytes::copyFrom(const ChunkedBytes &Src, size_t Same) {
  size_t Pos = std::min({Same, size(), Src.size()});
  truncate(Pos);
  while (Pos < Src.size()) {
    const Bytes &From = Src.Chunks[Pos / ChunkSize];
    size_t Off = Pos % ChunkSize;
    append(From.data() + Off, From.size() - Off);
    Pos += From.size() - Off;
  }
}

Bytes ChunkedBytes::flatten() const {
  Bytes Out;
  Out.reserve(size());
  for (const Bytes &C : Chunks)
    Out.insert(Out.end(), C.begin(), C.end());
  return Out;
}

namespace {

class MemVfsFile : public VfsFile {
public:
  explicit MemVfsFile(std::shared_ptr<MemVfs::MemFile> F)
      : F(std::move(F)) {}

  Result<size_t> size() override { return F->Content.size(); }

  Status append(const uint8_t *Data, size_t Len) override {
    F->Content.append(Data, Len);
    return Status::success();
  }

  Result<Bytes> readAll() override { return F->Content.flatten(); }

  Status truncate(size_t NewSize) override {
    F->Content.truncate(NewSize);
    F->Same = std::min(F->Same, NewSize);
    return Status::success();
  }

  Status sync() override {
    F->Durable.copyFrom(F->Content, F->Same);
    F->Same = F->Content.size();
    return Status::success();
  }

private:
  std::shared_ptr<MemVfs::MemFile> F;
};

} // namespace

Result<VfsFilePtr> MemVfs::open(const std::string &Path, bool Create) {
  auto It = Files.find(Path);
  if (It == Files.end()) {
    if (!Create)
      return makeError("vfs: open " + Path + ": no such file");
    It = Files.emplace(Path, std::make_shared<MemFile>()).first;
  }
  return VfsFilePtr(new MemVfsFile(It->second));
}

Result<bool> MemVfs::exists(const std::string &Path) {
  return Files.count(Path) != 0;
}

Status MemVfs::remove(const std::string &Path) {
  if (Files.erase(Path) == 0)
    return makeError("vfs: unlink " + Path + ": no such file");
  return Status::success();
}

Status MemVfs::rename(const std::string &From, const std::string &To) {
  auto It = Files.find(From);
  if (It == Files.end())
    return makeError("vfs: rename " + From + ": no such file");
  PendingRename P;
  P.From = From;
  P.To = To;
  auto ToIt = Files.find(To);
  if (ToIt != Files.end())
    P.Replaced = ToIt->second;
  PendingRenames.push_back(std::move(P));
  Files[To] = It->second;
  Files.erase(It);
  return Status::success();
}

Status MemVfs::mkdirs(const std::string &) { return Status::success(); }

Result<std::vector<std::string>> MemVfs::list(const std::string &Dir) {
  std::vector<std::string> Out;
  std::string Prefix = Dir.empty() || Dir == "." ? "" : Dir + "/";
  for (const auto &[Path, F] : Files) {
    if (Path.rfind(Prefix, 0) != 0)
      continue;
    std::string Rest = Path.substr(Prefix.size());
    if (Rest.find('/') == std::string::npos)
      Out.push_back(Rest);
  }
  return Out;
}

Status MemVfs::syncDir(const std::string &Dir) {
  // Namespace operations under Dir become durable.
  std::string Prefix = Dir.empty() || Dir == "." ? "" : Dir + "/";
  auto Under = [&](const std::string &Path) {
    return dirnameOf(Path) == (Dir.empty() ? "." : Dir) ||
           Path.rfind(Prefix, 0) == 0;
  };
  PendingRenames.erase(
      std::remove_if(PendingRenames.begin(), PendingRenames.end(),
                     [&](const PendingRename &P) { return Under(P.To); }),
      PendingRenames.end());
  return Status::success();
}

void MemVfs::crash(const CrashOptions &Opt) {
  // Roll back renames the directory never made durable, newest first.
  for (size_t I = PendingRenames.size(); I-- > 0;) {
    PendingRename &P = PendingRenames[I];
    auto It = Files.find(P.To);
    if (It != Files.end() && Files.count(P.From) == 0)
      Files[P.From] = It->second;
    if (P.Replaced)
      Files[P.To] = P.Replaced;
    else
      Files.erase(P.To);
  }
  PendingRenames.clear();

  for (auto &[Path, F] : Files) {
    if (Path == Opt.KeepUnsyncedPath) {
      // Torn write: the unsynced tail (partially) reached the platter.
      if (Opt.FlipBitInTail && F->Content.size() > F->Durable.size())
        F->Content[F->Content.size() - 1] ^= 0x40;
      continue;
    }
    F->Content.copyFrom(F->Durable, F->Same);
    F->Same = F->Durable.size();
  }
}

std::optional<size_t> MemVfs::durableSize(const std::string &Path) const {
  auto It = Files.find(Path);
  if (It == Files.end())
    return std::nullopt;
  return It->second->Durable.size();
}

} // namespace store
} // namespace typecoin
