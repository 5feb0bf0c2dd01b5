//===- store/chainstore.cpp - Durable chainstate engine -------------------===//

#include "store/chainstore.h"

#include "support/serialize.h"

namespace typecoin {
namespace store {

Bytes serializeEpoch(const EpochData &Data) {
  Writer W;
  W.writeU64(Data.Number);
  W.writeString(Data.TipHashHex);
  W.writeU32(Data.TipHeight);
  W.writeString(Data.UtxoDigestHex);
  W.writeCompactSize(Data.Journal.size());
  for (const auto &[Key, Payload] : Data.Journal) {
    W.writeString(Key);
    W.writeVarBytes(Payload);
  }
  W.writeCompactSize(Data.Deferred.size());
  for (const auto &[Key, Payload] : Data.Deferred) {
    W.writeString(Key);
    W.writeVarBytes(Payload);
  }
  W.writeVarBytes(Data.Utxo);
  return W.takeBuffer();
}

Result<EpochData> deserializeEpoch(const Bytes &Payload) {
  Reader R(Payload);
  EpochData Data;
  TC_UNWRAP(Number, R.readU64());
  Data.Number = Number;
  TC_UNWRAP(TipHash, R.readString());
  Data.TipHashHex = TipHash;
  TC_UNWRAP(TipHeight, R.readU32());
  Data.TipHeight = TipHeight;
  TC_UNWRAP(Digest, R.readString());
  Data.UtxoDigestHex = Digest;
  TC_UNWRAP(JournalCount, R.readCompactSize());
  for (uint64_t I = 0; I < JournalCount; ++I) {
    TC_UNWRAP(Key, R.readString());
    TC_UNWRAP(Val, R.readVarBytes());
    Data.Journal.emplace_back(Key, Val);
  }
  TC_UNWRAP(DeferredCount, R.readCompactSize());
  for (uint64_t I = 0; I < DeferredCount; ++I) {
    TC_UNWRAP(Key, R.readString());
    TC_UNWRAP(Val, R.readVarBytes());
    Data.Deferred.emplace_back(Key, Val);
  }
  TC_UNWRAP(Utxo, R.readVarBytes());
  Data.Utxo = Utxo;
  TC_TRY(R.expectEnd());
  return Data;
}

Result<WalRecord> deserializeWalRecord(const Bytes &Payload) {
  Reader R(Payload);
  WalRecord Rec;
  TC_UNWRAP(Kind, R.readU8());
  if (Kind < 1 || Kind > 3)
    return makeError("wal: unknown record kind " + std::to_string(Kind));
  Rec.Kind = static_cast<WalKind>(Kind);
  TC_UNWRAP(Key, R.readString());
  Rec.Key = Key;
  TC_UNWRAP(Val, R.readVarBytes());
  Rec.Payload = Val;
  TC_TRY(R.expectEnd());
  return Rec;
}

namespace {

Bytes encodeBlockRecord(const std::string &HashHex, const Bytes &BlockBytes) {
  Writer W;
  W.writeString(HashHex);
  W.writeVarBytes(BlockBytes);
  return W.takeBuffer();
}

Result<std::pair<std::string, Bytes>> decodeBlockRecord(const Bytes &Payload) {
  Reader R(Payload);
  TC_UNWRAP(HashHex, R.readString());
  TC_UNWRAP(BlockBytes, R.readVarBytes());
  TC_TRY(R.expectEnd());
  return std::make_pair(HashHex, BlockBytes);
}

} // namespace

Result<std::unique_ptr<ChainStore>> ChainStore::open(Vfs &V,
                                                     const std::string &Dir) {
  TC_TRY(V.mkdirs(Dir));
  std::unique_ptr<ChainStore> S(new ChainStore(V, Dir));

  // The epoch snapshot: the durability anchor. Absent on first boot; a
  // crash mid-replace leaves either the old or the new file, so any
  // present file should decode — an undecodable one is bit-rot, which
  // we survive by falling back to from-genesis replay.
  TC_UNWRAP(HaveSnap, V.exists(S->path(EpochFile)));
  if (HaveSnap) {
    TC_UNWRAP(SnapBytes, readFileAll(V, S->path(EpochFile)));
    LogScan Scan = scanRecords(SnapBytes);
    if (Scan.Records.size() == 1 && !Scan.Tail) {
      auto Decoded = deserializeEpoch(Scan.Records[0]);
      if (Decoded) {
        S->Snap = Decoded.takeValue();
        S->HasEpoch = true;
        S->Stats.HadEpoch = true;
      } else {
        S->Stats.EpochCorrupt = true;
      }
    } else {
      S->Stats.EpochCorrupt = true;
    }
  }

  // A leftover epoch.tmp from a crash mid-flush is dead weight.
  const std::string Tmp = S->path(EpochFile) + ".tmp";
  TC_UNWRAP(HaveTmp, V.exists(Tmp));
  if (HaveTmp)
    TC_TRY(V.remove(Tmp));

  TC_UNWRAP(BlocksLog, openLog(V, S->path(BlocksFile)));
  S->Stats.BlocksTruncated = BlocksLog.Scan.Tail;
  for (const Bytes &Rec : BlocksLog.Scan.Records) {
    auto Decoded = decodeBlockRecord(Rec);
    if (!Decoded)
      return Decoded.takeError();
    if (S->KnownBlocks.insert(Decoded->first).second)
      S->BlockRecs.push_back(Decoded.takeValue());
  }
  S->Stats.BlockRecords = S->BlockRecs.size();
  S->Blocks = std::move(BlocksLog.Writer);

  TC_UNWRAP(WalLog, openLog(V, S->path(WalFile)));
  S->Stats.WalTruncated = WalLog.Scan.Tail;
  for (const Bytes &Rec : WalLog.Scan.Records) {
    auto Decoded = deserializeWalRecord(Rec);
    if (!Decoded)
      return Decoded.takeError();
    S->WalRecs.push_back(Decoded.takeValue());
  }
  S->Stats.WalRecords = S->WalRecs.size();
  S->Wal = std::move(WalLog.Writer);

  return S;
}

std::vector<std::pair<std::string, Bytes>> ChainStore::liveDeferred() const {
  // Snapshot deferreds + WAL adds, minus WAL dones, preserving order.
  std::vector<std::pair<std::string, Bytes>> Live;
  if (HasEpoch)
    Live = Snap.Deferred;
  for (const WalRecord &Rec : WalRecs) {
    if (Rec.Kind == WalKind::DeferredAdd) {
      Live.emplace_back(Rec.Key, Rec.Payload);
    } else if (Rec.Kind == WalKind::DeferredDone) {
      for (auto It = Live.begin(); It != Live.end(); ++It) {
        if (It->first == Rec.Key) {
          Live.erase(It);
          break;
        }
      }
    }
  }
  return Live;
}

Status ChainStore::appendBlock(const std::string &HashHex,
                               const Bytes &BlockBytes) {
  if (!KnownBlocks.insert(HashHex).second)
    return Status::success();
  Status W = Blocks->append(encodeBlockRecord(HashHex, BlockBytes));
  if (!W) {
    KnownBlocks.erase(HashHex);
    return W;
  }
  BlockRecs.emplace_back(HashHex, BlockBytes);
  ++DirtyBlocks;
  return Status::success();
}

Status ChainStore::appendWal(WalKind Kind, const std::string &Key,
                             const Bytes &Payload) {
  Writer W;
  W.writeU8(static_cast<uint8_t>(Kind));
  W.writeString(Key);
  W.writeVarBytes(Payload);
  TC_TRY(Wal->append(W.takeBuffer()));
  TC_TRY(Wal->sync());
  WalRecord Rec;
  Rec.Kind = Kind;
  Rec.Key = Key;
  Rec.Payload = Payload;
  WalRecs.push_back(std::move(Rec));
  return Status::success();
}

Status ChainStore::flushEpoch(const EpochData &Data) {
  // Frame first: a snapshot too large to frame fails here, before
  // anything on disk changes, so the previous epoch and the WAL still
  // hold everything.
  TC_UNWRAP(Frame, frameRecord(serializeEpoch(Data)));
  // Step 1: the block log must be durable before the snapshot can
  // attest to its tip (the snapshot's UTXO set is only reproducible
  // from the blocks it summarizes).
  TC_TRY(Blocks->sync());
  // Step 2: atomically replace the snapshot.
  TC_TRY(writeFileAtomic(V, path(EpochFile), Frame));
  // Step 3: only now is the WAL redundant.
  TC_TRY(Wal->reset());
  Snap = Data;
  HasEpoch = true;
  WalRecs.clear();
  DirtyBlocks = 0;
  return Status::success();
}

Result<StoreInspection> inspectStore(Vfs &V, const std::string &Dir) {
  StoreInspection Out;
  const std::string EpochPath = Dir + "/" + ChainStore::EpochFile;
  const std::string BlocksPath = Dir + "/" + ChainStore::BlocksFile;
  const std::string WalPath = Dir + "/" + ChainStore::WalFile;

  // Dir existence: probe via list (MemVfs has no directories, so fall
  // back to probing the files).
  auto Listed = V.list(Dir);
  TC_UNWRAP(HaveBlocks, V.exists(BlocksPath));
  TC_UNWRAP(HaveWal, V.exists(WalPath));
  TC_UNWRAP(HaveEpoch, V.exists(EpochPath));
  Out.DirExists = (Listed && !Listed->empty()) || HaveBlocks || HaveWal ||
                  HaveEpoch;
  if (!Out.DirExists)
    return Out;

  if (HaveEpoch) {
    Out.EpochPresent = true;
    TC_UNWRAP(SnapBytes, readFileAll(V, EpochPath));
    LogScan Scan = scanRecords(SnapBytes);
    if (Scan.Records.size() == 1 && !Scan.Tail) {
      auto Decoded = deserializeEpoch(Scan.Records[0]);
      if (Decoded) {
        Out.EpochNumber = Decoded->Number;
        Out.TipHashHex = Decoded->TipHashHex;
        Out.TipHeight = Decoded->TipHeight;
      } else {
        Out.EpochCorrupt = true;
      }
    } else {
      Out.EpochCorrupt = true;
    }
  }
  TC_UNWRAP(HaveTmp, V.exists(EpochPath + ".tmp"));
  Out.TmpLeftover = HaveTmp;

  if (HaveBlocks) {
    TC_UNWRAP(Data, readFileAll(V, BlocksPath));
    LogScan Scan = scanRecords(Data);
    Out.BlockRecords = Scan.Records.size();
    Out.BlockTailBytes = Data.size() - Scan.GoodBytes;
  }
  if (HaveWal) {
    TC_UNWRAP(Data, readFileAll(V, WalPath));
    LogScan Scan = scanRecords(Data);
    Out.WalRecords = Scan.Records.size();
    Out.WalTailBytes = Data.size() - Scan.GoodBytes;
    for (const Bytes &Rec : Scan.Records)
      if (!deserializeWalRecord(Rec))
        ++Out.UndecodableWalRecords;
  }
  return Out;
}

} // namespace store
} // namespace typecoin
