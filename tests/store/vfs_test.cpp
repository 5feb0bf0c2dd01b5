//===- tests/store/vfs_test.cpp - Vfs backends and crash semantics --------===//
//
// The storage layer's foundation: PosixVfs must round-trip through the
// real filesystem, and MemVfs must model durability *honestly* — what
// survives MemVfs::crash() is exactly what an fsync made durable, so
// the crash matrix built on top of it proves something about real
// power loss.
//
//===----------------------------------------------------------------------===//

#include "store/vfs.h"

#include "support/rng.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace typecoin;
using namespace typecoin::store;

namespace {

Bytes bytesOf(const std::string &S) { return Bytes(S.begin(), S.end()); }

std::string stringOf(const Bytes &B) {
  return std::string(B.begin(), B.end());
}

TEST(Dirname, Components) {
  EXPECT_EQ(dirnameOf("a/b/c"), "a/b");
  EXPECT_EQ(dirnameOf("dir/file"), "dir");
  EXPECT_EQ(dirnameOf("file"), ".");
}

TEST(MemVfs, BasicFileOperations) {
  MemVfs V;
  ASSERT_TRUE(V.mkdirs("d"));

  auto Missing = V.open("d/f", /*Create=*/false);
  EXPECT_FALSE(Missing.hasValue());

  auto F = V.open("d/f", /*Create=*/true);
  ASSERT_TRUE(F.hasValue());
  ASSERT_TRUE((*F)->append(bytesOf("hello ")));
  ASSERT_TRUE((*F)->append(bytesOf("world")));
  auto Size = (*F)->size();
  ASSERT_TRUE(Size.hasValue());
  EXPECT_EQ(*Size, 11u);
  auto All = (*F)->readAll();
  ASSERT_TRUE(All.hasValue());
  EXPECT_EQ(stringOf(*All), "hello world");

  ASSERT_TRUE((*F)->truncate(5));
  All = (*F)->readAll();
  ASSERT_TRUE(All.hasValue());
  EXPECT_EQ(stringOf(*All), "hello");

  auto Exists = V.exists("d/f");
  ASSERT_TRUE(Exists.hasValue());
  EXPECT_TRUE(*Exists);
  ASSERT_TRUE(V.remove("d/f"));
  Exists = V.exists("d/f");
  ASSERT_TRUE(Exists.hasValue());
  EXPECT_FALSE(*Exists);
}

TEST(MemVfs, ListReturnsDirectoryEntries) {
  MemVfs V;
  ASSERT_TRUE(V.mkdirs("d"));
  ASSERT_TRUE(V.open("d/a", true).hasValue());
  ASSERT_TRUE(V.open("d/b", true).hasValue());
  auto L = V.list("d");
  ASSERT_TRUE(L.hasValue());
  EXPECT_EQ(L->size(), 2u);
}

TEST(MemVfs, CrashDropsUnsyncedContent) {
  MemVfs V;
  auto F = V.open("f", true);
  ASSERT_TRUE(F.hasValue());
  ASSERT_TRUE((*F)->append(bytesOf("durable")));
  ASSERT_TRUE((*F)->sync());
  ASSERT_TRUE((*F)->append(bytesOf("+volatile")));

  auto D = V.durableSize("f");
  ASSERT_TRUE(D.has_value());
  EXPECT_EQ(*D, 7u);

  V.crash();
  auto After = readFileAll(V, "f");
  ASSERT_TRUE(After.hasValue());
  EXPECT_EQ(stringOf(*After), "durable");
}

TEST(MemVfs, CrashKeepsTornTailWhenRequested) {
  MemVfs V;
  auto F = V.open("f", true);
  ASSERT_TRUE(F.hasValue());
  ASSERT_TRUE((*F)->append(bytesOf("base")));
  ASSERT_TRUE((*F)->sync());
  ASSERT_TRUE((*F)->append(bytesOf("tail")));

  CrashOptions Opt;
  Opt.KeepUnsyncedPath = "f";
  V.crash(Opt);
  auto After = readFileAll(V, "f");
  ASSERT_TRUE(After.hasValue());
  EXPECT_EQ(stringOf(*After), "basetail");
}

TEST(MemVfs, CrashFlipsBitInKeptTail) {
  MemVfs V;
  auto F = V.open("f", true);
  ASSERT_TRUE(F.hasValue());
  ASSERT_TRUE((*F)->append(bytesOf("base")));
  ASSERT_TRUE((*F)->sync());
  ASSERT_TRUE((*F)->append(bytesOf("tail")));

  CrashOptions Opt;
  Opt.KeepUnsyncedPath = "f";
  Opt.FlipBitInTail = true;
  V.crash(Opt);
  auto After = readFileAll(V, "f");
  ASSERT_TRUE(After.hasValue());
  ASSERT_EQ(After->size(), 8u);
  EXPECT_EQ(stringOf(*After).substr(0, 7), "basetai");
  EXPECT_NE((*After)[7], static_cast<uint8_t>('l')); // Bit-rotted.
}

TEST(MemVfs, RenameIsProvisionalUntilDirSync) {
  MemVfs V;
  // Old target content, fully durable.
  {
    auto Old = V.open("f", true);
    ASSERT_TRUE(Old.hasValue());
    ASSERT_TRUE((*Old)->append(bytesOf("old")));
    ASSERT_TRUE((*Old)->sync());
  }
  // New content under a temp name, durable, then renamed over.
  {
    auto Tmp = V.open("f.tmp", true);
    ASSERT_TRUE(Tmp.hasValue());
    ASSERT_TRUE((*Tmp)->append(bytesOf("new")));
    ASSERT_TRUE((*Tmp)->sync());
  }
  ASSERT_TRUE(V.rename("f.tmp", "f"));
  {
    auto Now = readFileAll(V, "f");
    ASSERT_TRUE(Now.hasValue());
    EXPECT_EQ(stringOf(*Now), "new");
  }

  // Crash before syncDir: the rename rolls back.
  V.crash();
  auto After = readFileAll(V, "f");
  ASSERT_TRUE(After.hasValue());
  EXPECT_EQ(stringOf(*After), "old");
  auto TmpBack = V.exists("f.tmp");
  ASSERT_TRUE(TmpBack.hasValue());
  EXPECT_TRUE(*TmpBack);
}

TEST(MemVfs, RenameSurvivesCrashAfterDirSync) {
  MemVfs V;
  {
    auto Tmp = V.open("f.tmp", true);
    ASSERT_TRUE(Tmp.hasValue());
    ASSERT_TRUE((*Tmp)->append(bytesOf("new")));
    ASSERT_TRUE((*Tmp)->sync());
  }
  ASSERT_TRUE(V.rename("f.tmp", "f"));
  ASSERT_TRUE(V.syncDir(dirnameOf("f")));

  V.crash();
  auto After = readFileAll(V, "f");
  ASSERT_TRUE(After.hasValue());
  EXPECT_EQ(stringOf(*After), "new");
}

TEST(MemVfs, WriteFileAtomicSurvivesCrashAndLeavesNoTemp) {
  MemVfs V;
  ASSERT_TRUE(V.mkdirs("d"));
  ASSERT_TRUE(writeFileAtomic(V, "d/snap", bytesOf("v1")));
  ASSERT_TRUE(writeFileAtomic(V, "d/snap", bytesOf("v2-longer")));
  auto Tmp = V.exists("d/snap.tmp");
  ASSERT_TRUE(Tmp.hasValue());
  EXPECT_FALSE(*Tmp);

  V.crash();
  auto After = readFileAll(V, "d/snap");
  ASSERT_TRUE(After.hasValue());
  EXPECT_EQ(stringOf(*After), "v2-longer");
}

/// The flat model MemVfs was first written as: each file is two whole
/// buffers, and a sync copies the whole current content. The chunked,
/// delta-syncing MemVfs must be indistinguishable from it.
class FlatVfs {
public:
  struct File {
    Bytes Content;
    Bytes Durable;
  };

  File &open(const std::string &Path) {
    auto &F = Files[Path];
    if (!F)
      F = std::make_shared<File>();
    return *F;
  }
  void remove(const std::string &Path) { Files.erase(Path); }
  void rename(const std::string &From, const std::string &To) {
    auto ToIt = Files.find(To);
    Renames.push_back({From, To, ToIt == Files.end() ? nullptr : ToIt->second});
    Files[To] = Files[From];
    Files.erase(From);
  }
  /// Every path lives in one directory, so a sync of it settles all.
  void syncDir() { Renames.clear(); }
  void crash(const CrashOptions &Opt) {
    for (size_t I = Renames.size(); I-- > 0;) {
      Rename &P = Renames[I];
      auto It = Files.find(P.To);
      if (It != Files.end() && Files.count(P.From) == 0)
        Files[P.From] = It->second;
      if (P.Replaced)
        Files[P.To] = P.Replaced;
      else
        Files.erase(P.To);
    }
    Renames.clear();
    for (auto &[Path, F] : Files) {
      if (Path == Opt.KeepUnsyncedPath) {
        if (Opt.FlipBitInTail && F->Content.size() > F->Durable.size())
          F->Content.back() ^= 0x40;
        continue;
      }
      F->Content = F->Durable;
    }
  }

  std::map<std::string, std::shared_ptr<File>> Files;

private:
  struct Rename {
    std::string From;
    std::string To;
    std::shared_ptr<File> Replaced;
  };
  std::vector<Rename> Renames;
};

TEST(MemVfs, ChunkedDeltaSyncMatchesTheFlatModel) {
  const std::vector<std::string> Paths = {"d/a", "d/b", "d/c"};
  const size_t Chunk = ChunkedBytes::ChunkSize;
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    MemVfs V;
    FlatVfs Ref;
    Rng R(Seed * 0x9E3779B97F4A7C15ull);
    for (int Step = 0; Step < 1500; ++Step) {
      const std::string &P = Paths[R.nextBelow(Paths.size())];
      std::string Op;
      uint64_t Pick = R.nextBelow(100);
      if (Pick < 36) {
        // Mostly small appends; some cross one or more chunk boundaries.
        size_t Len = R.nextBool(0.3) ? R.nextBelow(3 * Chunk) : R.nextBelow(80);
        Bytes Data(Len);
        for (uint8_t &B : Data)
          B = static_cast<uint8_t>(R.next());
        auto F = V.open(P, true);
        ASSERT_TRUE(F.hasValue());
        ASSERT_TRUE((*F)->append(Data));
        Bytes &C = Ref.open(P).Content;
        C.insert(C.end(), Data.begin(), Data.end());
        Op = "append " + std::to_string(Len);
      } else if (Pick < 50) {
        // Any length up to the current one, so often below the synced
        // size; the appends that follow rewrite synced bytes.
        FlatVfs::File &RF = Ref.open(P);
        size_t To = R.nextBelow(RF.Content.size() + 1);
        auto F = V.open(P, true);
        ASSERT_TRUE(F.hasValue());
        ASSERT_TRUE((*F)->truncate(To));
        RF.Content.resize(To);
        Op = "truncate " + std::to_string(To);
      } else if (Pick < 72) {
        auto F = V.open(P, true);
        ASSERT_TRUE(F.hasValue());
        ASSERT_TRUE((*F)->sync());
        FlatVfs::File &RF = Ref.open(P);
        RF.Durable = RF.Content;
        Op = "sync";
      } else if (Pick < 80) {
        const std::string &To = Paths[R.nextBelow(Paths.size())];
        if (To == P || !Ref.Files.count(P))
          continue;
        ASSERT_TRUE(V.rename(P, To));
        Ref.rename(P, To);
        Op = "rename -> " + To;
      } else if (Pick < 87) {
        ASSERT_TRUE(V.syncDir("d"));
        Ref.syncDir();
        Op = "syncDir";
      } else if (Pick < 90) {
        if (!Ref.Files.count(P))
          continue;
        ASSERT_TRUE(V.remove(P));
        Ref.remove(P);
        Op = "remove";
      } else {
        CrashOptions Opt;
        if (R.nextBool(0.6)) {
          Opt.KeepUnsyncedPath = P;
          Opt.FlipBitInTail = R.nextBool(0.5);
        }
        V.crash(Opt);
        Ref.crash(Opt);
        Op = "crash keep=" + Opt.KeepUnsyncedPath +
             (Opt.FlipBitInTail ? " flip" : "");
      }

      SCOPED_TRACE("seed " + std::to_string(Seed) + " step " +
                   std::to_string(Step) + " " + P + ": " + Op);
      for (const std::string &Q : Paths) {
        auto It = Ref.Files.find(Q);
        auto Exists = V.exists(Q);
        ASSERT_TRUE(Exists.hasValue());
        ASSERT_EQ(*Exists, It != Ref.Files.end()) << Q;
        if (It == Ref.Files.end())
          continue;
        auto Got = readFileAll(V, Q);
        ASSERT_TRUE(Got.hasValue());
        ASSERT_EQ(*Got, It->second->Content) << Q;
        ASSERT_EQ(V.durableSize(Q), It->second->Durable.size()) << Q;
      }
      // Keep files small enough to compare whole after every step.
      auto Big = Ref.Files.find(P);
      if (Big != Ref.Files.end() && Big->second->Content.size() > 12 * Chunk) {
        auto F = V.open(P, false);
        ASSERT_TRUE(F.hasValue());
        ASSERT_TRUE((*F)->truncate(Chunk + 1));
        Big->second->Content.resize(Chunk + 1);
      }
    }
  }
}

TEST(PosixVfs, RoundTripThroughRealFilesystem) {
  char Template[] = "/tmp/tc-store-vfs-XXXXXX";
  ASSERT_NE(mkdtemp(Template), nullptr);
  std::string Dir = Template;

  PosixVfs V;
  ASSERT_TRUE(V.mkdirs(Dir + "/sub"));
  std::string Path = Dir + "/sub/f";

  {
    auto F = V.open(Path, true);
    ASSERT_TRUE(F.hasValue());
    ASSERT_TRUE((*F)->append(bytesOf("alpha beta")));
    ASSERT_TRUE((*F)->sync());
    auto Size = (*F)->size();
    ASSERT_TRUE(Size.hasValue());
    EXPECT_EQ(*Size, 10u);
    ASSERT_TRUE((*F)->truncate(5));
  }
  {
    auto Back = readFileAll(V, Path);
    ASSERT_TRUE(Back.hasValue());
    EXPECT_EQ(stringOf(*Back), "alpha");
  }

  ASSERT_TRUE(V.rename(Path, Dir + "/sub/g"));
  ASSERT_TRUE(V.syncDir(Dir + "/sub"));
  auto Gone = V.exists(Path);
  ASSERT_TRUE(Gone.hasValue());
  EXPECT_FALSE(*Gone);
  auto L = V.list(Dir + "/sub");
  ASSERT_TRUE(L.hasValue());
  ASSERT_EQ(L->size(), 1u);
  EXPECT_EQ((*L)[0], "g");

  ASSERT_TRUE(writeFileAtomic(V, Dir + "/snap", bytesOf("atomic")));
  auto Snap = readFileAll(V, Dir + "/snap");
  ASSERT_TRUE(Snap.hasValue());
  EXPECT_EQ(stringOf(*Snap), "atomic");

  ASSERT_TRUE(V.remove(Dir + "/sub/g"));
  ASSERT_TRUE(V.remove(Dir + "/snap"));
}

} // namespace
