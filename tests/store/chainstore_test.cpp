//===- tests/store/chainstore_test.cpp - Chainstate engine invariants -----===//
//
// The engine's durability contract in isolation (the node-level story
// lives in store_node_test.cpp and the crash matrix): WAL appends are
// durable before they return, the WAL is never truncated, flush epochs
// replace a journal-independent checkpoint atomically, and recovery
// reads checkpoint + WAL back into exactly the pre-crash picture.
//
//===----------------------------------------------------------------------===//

#include "store/chainstore.h"

#include "support/serialize.h"

#include <gtest/gtest.h>

using namespace typecoin;
using namespace typecoin::store;

namespace {

Bytes bytesOf(const std::string &S) { return Bytes(S.begin(), S.end()); }

std::unique_ptr<ChainStore> openOrDie(Vfs &V, const std::string &Dir) {
  auto S = ChainStore::open(V, Dir);
  EXPECT_TRUE(S.hasValue()) << (S.hasValue() ? "" : S.error().message());
  return S.hasValue() ? std::move(*S) : nullptr;
}

EpochData sampleEpoch(uint64_t Number) {
  EpochData E;
  E.Number = Number;
  E.TipHashHex = "aa00bb";
  E.TipHeight = 7;
  E.UtxoDigestHex = "deadbeef";
  return E;
}

/// A snapshot payload in the earlier layout: the checkpoint followed by
/// the journal, the deferred set and a UTXO image.
Bytes oldLayoutPayload(const EpochData &E) {
  Writer W;
  W.writeCompactSize(1);
  W.writeString("pair1");
  W.writeVarBytes(bytesOf("pair1-bytes"));
  W.writeCompactSize(0);
  W.writeVarBytes(bytesOf("utxo-image"));
  Bytes Out = serializeEpoch(E);
  const Bytes &Rest = W.buffer();
  Out.insert(Out.end(), Rest.begin(), Rest.end());
  return Out;
}

size_t fileSize(MemVfs &V, const std::string &Path) {
  auto B = readFileAll(V, Path);
  EXPECT_TRUE(B.hasValue());
  return B.hasValue() ? B->size() : 0;
}

TEST(EpochCodec, RoundTrips) {
  EpochData E = sampleEpoch(3);
  auto Back = deserializeEpoch(serializeEpoch(E));
  ASSERT_TRUE(Back.hasValue()) << Back.error().message();
  EXPECT_EQ(Back->Number, 3u);
  EXPECT_EQ(Back->TipHashHex, "aa00bb");
  EXPECT_EQ(Back->TipHeight, 7u);
  EXPECT_EQ(Back->UtxoDigestHex, "deadbeef");

  EXPECT_FALSE(deserializeEpoch(bytesOf("garbage")).hasValue());
  // The earlier layout's trailing journal does not read as a checkpoint.
  EXPECT_FALSE(deserializeEpoch(oldLayoutPayload(E)).hasValue());
}

TEST(WalCodec, RejectsUnknownKinds) {
  Bytes Bad;
  Bad.push_back(99); // No such WalKind.
  EXPECT_FALSE(deserializeWalRecord(Bad).hasValue());
}

TEST(ChainStore, FreshStoreIsEmpty) {
  MemVfs V;
  auto S = openOrDie(V, "cs");
  ASSERT_NE(S, nullptr);
  EXPECT_FALSE(S->openStats().HadEpoch);
  EXPECT_EQ(S->epoch(), nullptr);
  EXPECT_TRUE(S->blockRecords().empty());
  EXPECT_TRUE(S->walRecords().empty());
  EXPECT_EQ(S->epochNumber(), 0u);
  EXPECT_EQ(S->dirtyBlocks(), 0u);
}

TEST(ChainStore, AppendBlockDeduplicatesByHash) {
  MemVfs V;
  {
    auto S = openOrDie(V, "cs");
    ASSERT_NE(S, nullptr);
    ASSERT_TRUE(S->appendBlock("h1", bytesOf("block-one")));
    ASSERT_TRUE(S->appendBlock("h1", bytesOf("block-one")));
    ASSERT_TRUE(S->appendBlock("h2", bytesOf("block-two")));
    EXPECT_EQ(S->dirtyBlocks(), 2u);
  }
  auto S = openOrDie(V, "cs");
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->blockRecords().size(), 2u);
}

TEST(ChainStore, RuntimeBlockAppendsAreReadBackOnlyByAReopen) {
  // blockRecords() is what open() found, like walRecords(): the store
  // keeps no in-memory copy of the blocks it appends.
  MemVfs V;
  {
    auto S = openOrDie(V, "cs");
    ASSERT_NE(S, nullptr);
    ASSERT_TRUE(S->appendBlock("h1", bytesOf("block-one")));
  }
  {
    auto S = openOrDie(V, "cs");
    ASSERT_NE(S, nullptr);
    ASSERT_EQ(S->blockRecords().size(), 1u);
    ASSERT_TRUE(S->appendBlock("h2", bytesOf("block-two")));
    EXPECT_EQ(S->blockRecords().size(), 1u); // Unchanged by the append.
  }
  auto S = openOrDie(V, "cs");
  ASSERT_NE(S, nullptr);
  ASSERT_EQ(S->blockRecords().size(), 2u);
  EXPECT_EQ(S->blockRecords()[0].first, "h1");
  EXPECT_EQ(S->blockRecords()[1].first, "h2");
  EXPECT_EQ(S->blockRecords()[1].second, bytesOf("block-two"));
}

TEST(ChainStore, WalAppendsAreDurableImmediately) {
  MemVfs V;
  {
    auto S = openOrDie(V, "cs");
    ASSERT_NE(S, nullptr);
    ASSERT_TRUE(S->appendWal(WalKind::PairAdd, "k1", bytesOf("p1")));
    ASSERT_TRUE(S->appendWal(WalKind::DeferredAdd, "k2", bytesOf("p2")));
    EXPECT_GT(S->walBytes(), 0u);
    // Blocks, by contrast, are only durable at the next epoch.
    ASSERT_TRUE(S->appendBlock("h1", bytesOf("volatile-block")));
  }
  V.crash();
  auto S = openOrDie(V, "cs");
  ASSERT_NE(S, nullptr);
  ASSERT_EQ(S->walRecords().size(), 2u);
  EXPECT_EQ(S->walRecords()[0].Kind, WalKind::PairAdd);
  EXPECT_EQ(S->walRecords()[0].Key, "k1");
  EXPECT_EQ(S->walRecords()[0].Payload, bytesOf("p1"));
  EXPECT_EQ(S->walRecords()[1].Kind, WalKind::DeferredAdd);
  EXPECT_TRUE(S->blockRecords().empty()); // The unsynced block died.
}

TEST(ChainStore, FlushEpochPersistsEverythingAndKeepsTheWal) {
  MemVfs V;
  {
    auto S = openOrDie(V, "cs");
    ASSERT_NE(S, nullptr);
    ASSERT_TRUE(S->appendBlock("h1", bytesOf("block-one")));
    ASSERT_TRUE(S->appendWal(WalKind::PairAdd, "pair1", bytesOf("p")));
    size_t Wal = S->walBytes();
    ASSERT_TRUE(S->flushEpoch(sampleEpoch(1)));
    EXPECT_EQ(S->epochNumber(), 1u);
    EXPECT_EQ(S->walBytes(), Wal); // The WAL is the journal: kept whole.
    EXPECT_EQ(S->dirtyBlocks(), 0u);
  }
  V.crash();
  auto S = openOrDie(V, "cs");
  ASSERT_NE(S, nullptr);
  ASSERT_NE(S->epoch(), nullptr);
  EXPECT_EQ(S->epoch()->Number, 1u);
  EXPECT_EQ(S->epoch()->TipHashHex, "aa00bb");
  ASSERT_EQ(S->blockRecords().size(), 1u); // Synced by the flush.
  EXPECT_EQ(S->blockRecords()[0].second, bytesOf("block-one"));
  ASSERT_EQ(S->walRecords().size(), 1u);
  EXPECT_EQ(S->walRecords()[0].Key, "pair1");
  EXPECT_EQ(S->walRecords()[0].Payload, bytesOf("p"));
  EXPECT_FALSE(S->openStats().WalTruncated);
  EXPECT_FALSE(S->openStats().EpochCorrupt);
}

TEST(ChainStore, OversizeRecordsAreRefusedAndLeaveTheStoreIntact) {
  // The scan rejects frames over MaxRecordSize, so the writers must too:
  // an oversize record acked as durable would read back as damage.
  MemVfs V;
  const Bytes Huge(size_t(MaxRecordSize) + 1, 0x5A);
  {
    auto S = openOrDie(V, "cs");
    ASSERT_NE(S, nullptr);
    ASSERT_TRUE(S->flushEpoch(sampleEpoch(1)));
    ASSERT_TRUE(S->appendWal(WalKind::PairAdd, "kept", bytesOf("p")));
    size_t Wal = S->walBytes();

    EXPECT_FALSE(S->appendWal(WalKind::PairAdd, "huge", Huge));
    EXPECT_FALSE(S->appendBlock("hh", Huge));
    EpochData Big = sampleEpoch(2);
    Big.TipHashHex = std::string(Huge.begin(), Huge.end());
    EXPECT_FALSE(S->flushEpoch(Big));

    EXPECT_EQ(S->epochNumber(), 1u);
    EXPECT_EQ(S->walBytes(), Wal);
    // The refused block is not remembered as stored.
    ASSERT_TRUE(S->appendBlock("hh", bytesOf("small")));
  }
  V.crash();
  auto S = openOrDie(V, "cs");
  ASSERT_NE(S, nullptr);
  EXPECT_FALSE(S->openStats().EpochCorrupt);
  EXPECT_FALSE(S->openStats().WalTruncated);
  ASSERT_NE(S->epoch(), nullptr);
  EXPECT_EQ(S->epoch()->Number, 1u);
  ASSERT_EQ(S->walRecords().size(), 1u);
  EXPECT_EQ(S->walRecords()[0].Key, "kept");
}

TEST(ChainStore, LiveDeferredFoldsTheWholeWal) {
  MemVfs V;
  auto S = openOrDie(V, "cs");
  ASSERT_NE(S, nullptr);
  ASSERT_TRUE(S->appendWal(WalKind::DeferredAdd, "a", bytesOf("A")));
  ASSERT_TRUE(S->appendWal(WalKind::DeferredAdd, "b", bytesOf("B")));
  // A flush epoch in between changes nothing: the log spans it.
  ASSERT_TRUE(S->flushEpoch(sampleEpoch(1)));
  ASSERT_TRUE(S->appendWal(WalKind::DeferredAdd, "c", bytesOf("C")));
  ASSERT_TRUE(S->appendWal(WalKind::DeferredDone, "a", Bytes()));

  auto Live = S->liveDeferred();
  ASSERT_EQ(Live.size(), 2u);
  EXPECT_EQ(Live[0].first, "b");
  EXPECT_EQ(Live[1].first, "c");

  // Folding survives reopen (every WAL record is durable).
  auto S2 = openOrDie(V, "cs");
  ASSERT_NE(S2, nullptr);
  auto Live2 = S2->liveDeferred();
  ASSERT_EQ(Live2.size(), 2u);
  EXPECT_EQ(Live2[0].first, "b");
  EXPECT_EQ(Live2[1].first, "c");
}

TEST(ChainStore, JournalOverTheRecordLimitFlushesAndReopensWhole) {
  // 70 records of 1 MiB: a journal no single record could hold.
  constexpr size_t Records = 70;
  const Bytes Payload(size_t(1) << 20, 0x3C);
  ASSERT_GT(Records * Payload.size(), size_t(MaxRecordSize));
  MemVfs V;
  {
    auto S = openOrDie(V, "cs");
    ASSERT_NE(S, nullptr);
    for (size_t I = 0; I < Records; ++I)
      ASSERT_TRUE(
          S->appendWal(WalKind::PairAdd, "k" + std::to_string(I), Payload));
    ASSERT_TRUE(S->flushEpoch(sampleEpoch(1)));
  }
  V.crash();
  auto S = openOrDie(V, "cs");
  ASSERT_NE(S, nullptr);
  EXPECT_FALSE(S->openStats().EpochCorrupt);
  EXPECT_FALSE(S->openStats().WalTruncated);
  ASSERT_NE(S->epoch(), nullptr);
  EXPECT_EQ(S->epoch()->Number, 1u);
  ASSERT_EQ(S->walRecords().size(), Records);
  for (size_t I = 0; I < Records; ++I) {
    EXPECT_EQ(S->walRecords()[I].Key, "k" + std::to_string(I));
    EXPECT_EQ(S->walRecords()[I].Payload, Payload);
  }
}

TEST(ChainStore, EpochSnapshotSizeDoesNotGrowWithTheJournal) {
  // A work gate, not a timing one: the flush writes the same checkpoint
  // bytes after a 1-record journal as after a 200-record one.
  auto SnapBytesAfter = [](size_t Records) {
    MemVfs V;
    auto S = openOrDie(V, "cs");
    EXPECT_NE(S, nullptr);
    if (!S)
      return size_t(0);
    for (size_t I = 0; I < Records; ++I)
      EXPECT_TRUE(S->appendWal(WalKind::PairAdd, "k" + std::to_string(I),
                               Bytes(512, 0x11)));
    EXPECT_TRUE(S->flushEpoch(sampleEpoch(1)));
    return fileSize(V, std::string("cs/") + ChainStore::EpochFile);
  };
  size_t Small = SnapBytesAfter(1);
  EXPECT_GT(Small, 0u);
  EXPECT_EQ(SnapBytesAfter(200), Small);
}

TEST(ChainStore, OldLayoutSnapshotIsRefusedNotTakenForDamage) {
  MemVfs V;
  const std::string Snap = std::string("cs/") + ChainStore::EpochFile;
  ASSERT_TRUE(V.mkdirs("cs"));
  ASSERT_TRUE(
      writeFileAtomic(V, Snap, *frameRecord(oldLayoutPayload(sampleEpoch(2)))));
  size_t Before = fileSize(V, Snap);

  auto S = ChainStore::open(V, "cs");
  ASSERT_FALSE(S.hasValue());
  EXPECT_NE(S.error().message().find("earlier layout"), std::string::npos)
      << S.error().message();
  EXPECT_EQ(fileSize(V, Snap), Before); // Refused before touching it.

  auto I = inspectStore(V, "cs");
  ASSERT_TRUE(I.hasValue());
  EXPECT_TRUE(I->EpochPresent);
  EXPECT_FALSE(I->EpochCorrupt);
  EXPECT_TRUE(I->EpochOldLayout);
}

TEST(ChainStore, CorruptEpochSnapshotIsSurvivable) {
  MemVfs V;
  {
    auto S = openOrDie(V, "cs");
    ASSERT_NE(S, nullptr);
    ASSERT_TRUE(S->appendWal(WalKind::PairAdd, "k", bytesOf("p")));
  }
  // Something that is not even a valid frame where the snapshot goes.
  {
    auto F = V.open(std::string("cs/") + ChainStore::EpochFile, true);
    ASSERT_TRUE(F.hasValue());
    ASSERT_TRUE((*F)->append(bytesOf("not a snapshot")));
    ASSERT_TRUE((*F)->sync());
  }
  auto S = openOrDie(V, "cs");
  ASSERT_NE(S, nullptr);
  EXPECT_TRUE(S->openStats().EpochCorrupt);
  EXPECT_EQ(S->epoch(), nullptr);
  EXPECT_EQ(S->walRecords().size(), 1u); // The WAL still replays.
}

TEST(ChainStore, LeftoverEpochTempFileIsCleanedUp) {
  MemVfs V;
  ASSERT_TRUE(V.mkdirs("cs"));
  std::string Tmp = std::string("cs/") + ChainStore::EpochFile + ".tmp";
  {
    auto F = V.open(Tmp, true);
    ASSERT_TRUE(F.hasValue());
    ASSERT_TRUE((*F)->append(bytesOf("half-written snapshot")));
    ASSERT_TRUE((*F)->sync());
  }
  auto S = openOrDie(V, "cs");
  ASSERT_NE(S, nullptr);
  auto Still = V.exists(Tmp);
  ASSERT_TRUE(Still.hasValue());
  EXPECT_FALSE(*Still);
}

TEST(ChainStore, TornWalTailIsTruncatedAndCounted) {
  MemVfs V;
  {
    auto S = openOrDie(V, "cs");
    ASSERT_NE(S, nullptr);
    ASSERT_TRUE(S->appendWal(WalKind::PairAdd, "k1", bytesOf("p1")));
  }
  {
    // A torn frame at the end of the WAL (power loss mid-append).
    auto F = V.open(std::string("cs/") + ChainStore::WalFile, false);
    ASSERT_TRUE(F.hasValue());
    ASSERT_TRUE((*F)->append(bytesOf("\x54\x43\x52\x31torn")));
    ASSERT_TRUE((*F)->sync());
  }
  auto S = openOrDie(V, "cs");
  ASSERT_NE(S, nullptr);
  EXPECT_TRUE(S->openStats().WalTruncated);
  ASSERT_EQ(S->walRecords().size(), 1u);
  EXPECT_EQ(S->walRecords()[0].Key, "k1");
}

TEST(InspectStore, ReportsWhatRecoveryWouldSee) {
  MemVfs V;
  auto Missing = inspectStore(V, "nowhere");
  ASSERT_TRUE(Missing.hasValue());
  EXPECT_FALSE(Missing->DirExists);

  {
    auto S = openOrDie(V, "cs");
    ASSERT_NE(S, nullptr);
    ASSERT_TRUE(S->appendBlock("h1", bytesOf("b1")));
    ASSERT_TRUE(S->appendWal(WalKind::PairAdd, "k1", bytesOf("p1")));
    EpochData E = sampleEpoch(4);
    ASSERT_TRUE(S->flushEpoch(E));
    ASSERT_TRUE(S->appendWal(WalKind::PairAdd, "k2", bytesOf("p2")));
  }
  // Damage the WAL tail and plant a leftover tmp; inspection must see
  // both without repairing anything.
  {
    auto F = V.open(std::string("cs/") + ChainStore::WalFile, false);
    ASSERT_TRUE(F.hasValue());
    ASSERT_TRUE((*F)->append(bytesOf("garbage-tail")));
  }
  {
    auto F = V.open(std::string("cs/") + ChainStore::EpochFile + ".tmp",
                    true);
    ASSERT_TRUE(F.hasValue());
  }

  auto I = inspectStore(V, "cs");
  ASSERT_TRUE(I.hasValue()) << I.error().message();
  EXPECT_TRUE(I->DirExists);
  EXPECT_TRUE(I->EpochPresent);
  EXPECT_FALSE(I->EpochCorrupt);
  EXPECT_EQ(I->EpochNumber, 4u);
  EXPECT_EQ(I->TipHashHex, "aa00bb");
  EXPECT_EQ(I->TipHeight, 7u);
  EXPECT_EQ(I->BlockRecords, 1u);
  EXPECT_EQ(I->BlockTailBytes, 0u);
  EXPECT_EQ(I->WalRecords, 2u); // k1 outlives the flush, k2 follows it.
  EXPECT_GT(I->WalTailBytes, 0u);
  EXPECT_EQ(I->UndecodableWalRecords, 0u);
  EXPECT_TRUE(I->TmpLeftover);

  // The damage is still on disk afterwards (read-only inspection).
  auto Again = inspectStore(V, "cs");
  ASSERT_TRUE(Again.hasValue());
  EXPECT_GT(Again->WalTailBytes, 0u);

  // An intact frame whose payload is not a WAL record.
  {
    auto S = openOrDie(V, "cs"); // Repairs the torn tail.
    ASSERT_NE(S, nullptr);
  }
  {
    auto F = V.open(std::string("cs/") + ChainStore::WalFile, false);
    ASSERT_TRUE(F.hasValue());
    ASSERT_TRUE((*F)->append(*frameRecord(bytesOf("not-a-wal-record"))));
    ASSERT_TRUE((*F)->sync());
  }
  auto Bad = inspectStore(V, "cs");
  ASSERT_TRUE(Bad.hasValue());
  EXPECT_EQ(Bad->UndecodableWalRecords, 1u);
}

} // namespace
