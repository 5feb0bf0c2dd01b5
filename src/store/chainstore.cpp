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
  return W.takeBuffer();
}

namespace {

Result<EpochData> readEpoch(Reader &R) {
  EpochData Data;
  TC_UNWRAP(Number, R.readU64());
  Data.Number = Number;
  TC_UNWRAP(TipHash, R.readString());
  Data.TipHashHex = TipHash;
  TC_UNWRAP(TipHeight, R.readU32());
  Data.TipHeight = TipHeight;
  TC_UNWRAP(Digest, R.readString());
  Data.UtxoDigestHex = Digest;
  return Data;
}

/// How the bytes of an epoch.snap file read.
enum class SnapState { Ok, Corrupt, OldLayout };

/// Decode a whole epoch.snap file into \p Out. One intact record that
/// holds the checkpoint and more is the earlier layout (checkpoint,
/// then journal, deferred set and UTXO image): its CRC rules out
/// damage, and it cannot be read as a checkpoint without dropping the
/// journal entries only it holds. Anything else undecodable is damage.
SnapState decodeSnapFile(const Bytes &File, EpochData &Out) {
  LogScan Scan = scanRecords(File);
  if (Scan.Records.size() != 1 || Scan.Tail)
    return SnapState::Corrupt;
  Reader R(Scan.Records[0]);
  auto Data = readEpoch(R);
  if (!Data)
    return SnapState::Corrupt;
  if (!R.atEnd())
    return SnapState::OldLayout;
  Out = Data.takeValue();
  return SnapState::Ok;
}

} // namespace

Result<EpochData> deserializeEpoch(const Bytes &Payload) {
  Reader R(Payload);
  TC_UNWRAP(Data, readEpoch(R));
  if (!R.atEnd())
    return makeError("epoch: " + std::to_string(R.remaining()) +
                     " bytes past the checkpoint (the earlier layout that "
                     "carried the journal)");
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

  // The epoch checkpoint: the assume-valid anchor. Absent on first
  // boot; a crash mid-replace leaves either the old or the new file, so
  // any present file should decode — an undecodable one is bit-rot,
  // which we survive by falling back to from-genesis replay. The
  // earlier layout is refused before anything on disk changes.
  TC_UNWRAP(HaveSnap, V.exists(S->path(EpochFile)));
  if (HaveSnap) {
    TC_UNWRAP(SnapBytes, readFileAll(V, S->path(EpochFile)));
    switch (decodeSnapFile(SnapBytes, S->Snap)) {
    case SnapState::Ok:
      S->HasEpoch = true;
      S->Stats.HadEpoch = true;
      break;
    case SnapState::Corrupt:
      S->Stats.EpochCorrupt = true;
      break;
    case SnapState::OldLayout:
      return makeError("store " + Dir + ": " + EpochFile +
                       " is in the earlier layout that carries the pair "
                       "journal; opening it as a checkpoint would drop "
                       "those entries");
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
    const WalRecord &R = S->WalRecs.back();
    S->foldDeferred(R.Kind, R.Key, R.Payload);
  }
  S->Stats.WalRecords = S->WalRecs.size();
  S->Wal = std::move(WalLog.Writer);

  return S;
}

void ChainStore::foldDeferred(WalKind Kind, const std::string &Key,
                              const Bytes &Payload) {
  if (Kind == WalKind::DeferredAdd) {
    Deferred.emplace_back(Key, Payload);
  } else if (Kind == WalKind::DeferredDone) {
    for (auto It = Deferred.begin(); It != Deferred.end(); ++It) {
      if (It->first == Key) {
        Deferred.erase(It);
        break;
      }
    }
  }
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
  foldDeferred(Kind, Key, Payload);
  return Status::success();
}

Status ChainStore::flushEpoch(const EpochData &Data) {
  TC_UNWRAP(Frame, frameRecord(serializeEpoch(Data)));
  // Step 1: the block log must be durable before the checkpoint can
  // attest to its tip (the UTXO digest is only reproducible from the
  // blocks it summarizes).
  TC_TRY(Blocks->sync());
  // Step 2: atomically replace the checkpoint. The WAL already holds
  // the journal durably and stays as it is.
  TC_TRY(writeFileAtomic(V, path(EpochFile), Frame));
  Snap = Data;
  HasEpoch = true;
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
    EpochData Data;
    SnapState State = decodeSnapFile(SnapBytes, Data);
    Out.EpochCorrupt = State == SnapState::Corrupt;
    Out.EpochOldLayout = State == SnapState::OldLayout;
    Out.EpochNumber = Data.Number;
    Out.TipHashHex = Data.TipHashHex;
    Out.TipHeight = Data.TipHeight;
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
