//===- store/chainstore.h - Durable chainstate engine -----------*- C++ -*-===//
//
// Part of the Typecoin reproduction of Crary & Sullivan (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The durable chainstate engine: an append-only block file, an
/// append-only write-ahead log that is the registration journal's only
/// durable copy, and an epoch checkpoint, all written through \ref Vfs
/// so the crash matrix can prove the recovery invariants under injected
/// faults.
///
/// Store directory layout (every file uses the framed record format of
/// store/log.h):
///
///   blocks.log   one record per accepted block: blockHashHex +
///                raw block bytes. Appended as blocks arrive, fsync'd
///                at each flush epoch (blocks are re-derivable from
///                peers, so the unsynced tail is only a convenience).
///   wal.log      one record per journal mutation, ever: kind byte +
///                key + payload. fsync'd per append — the node
///                acknowledges a registration only after its WAL record
///                is durable — and never truncated, so it *is* the
///                journal (the paper's global basis only grows).
///   epoch.snap   a single record: the checkpoint {epoch number, tip
///                hash, tip height, UTXO digest} that anchors the
///                assume-valid replay. Replaced atomically (tmp + rename
///                + dir sync) at each flush epoch; its size does not
///                depend on the journal's.
///
/// Recovery = load epoch.snap (if any) + replay blocks.log through the
/// validated connect path + read the journal and deferred set back
/// from wal.log. A torn tail on either log truncates cleanly at the
/// last intact record; epoch.snap is either the old or the new complete
/// checkpoint, never a mixture, and losing it costs only the
/// assume-valid shortcut, never a journal entry.
///
/// The engine stores opaque payload bytes; (de)serialization of pairs,
/// blocks and the UTXO digest lives with their owning types
/// (typecoin/persist.h) so this library depends only on support.
///
//===----------------------------------------------------------------------===//

#ifndef TYPECOIN_STORE_CHAINSTORE_H
#define TYPECOIN_STORE_CHAINSTORE_H

#include "store/log.h"
#include "store/vfs.h"

#include <set>
#include <utility>

namespace typecoin {
namespace store {

/// WAL record kinds.
enum class WalKind : uint8_t {
  PairAdd = 1,      ///< Registration journal insert (key = payload hex).
  DeferredAdd = 2,  ///< Batch server deferred write-through queued.
  DeferredDone = 3, ///< Deferred write-through resolved (payload empty).
};

/// One decoded WAL record.
struct WalRecord {
  WalKind Kind;
  std::string Key;
  Bytes Payload;
};

/// The checkpoint a flush epoch writes.
struct EpochData {
  uint64_t Number = 0;
  std::string TipHashHex;
  uint32_t TipHeight = 0;
  /// sha256d over the serialized UTXO set — cross-checked during
  /// assume-valid replay (see Node::openStore).
  std::string UtxoDigestHex;
};

/// What ChainStore::open found on disk (recovery provenance, surfaced
/// through obs counters and tclint --store).
struct OpenStats {
  bool HadEpoch = false;
  bool EpochCorrupt = false; ///< Snapshot present but undecodable.
  bool BlocksTruncated = false;
  bool WalTruncated = false;
  size_t BlockRecords = 0;
  size_t WalRecords = 0;
};

/// The durable chainstate engine. Not thread-safe: callers (Node) hold
/// their own lock around mutations.
class ChainStore {
public:
  /// Open (creating if needed) the store at \p Dir. Scans and repairs
  /// both logs, decodes the epoch snapshot when present. Refuses a
  /// snapshot in the earlier layout that carried the journal itself:
  /// treating it as damage would drop the entries only it holds.
  static Result<std::unique_ptr<ChainStore>> open(Vfs &V,
                                                  const std::string &Dir);

  // --- Recovery-time accessors ------------------------------------------

  const OpenStats &openStats() const { return Stats; }
  /// The decoded snapshot, when one was durable.
  const EpochData *epoch() const { return HasEpoch ? &Snap : nullptr; }
  /// The block records found at open, in append order: (blockHashHex,
  /// raw block bytes). Blocks appended since are not kept in memory:
  /// the log is their only copy.
  const std::vector<std::pair<std::string, Bytes>> &blockRecords() const {
    return BlockRecs;
  }
  /// The WAL records found at open, in append order. Records appended
  /// since are not kept in memory: the log is their only copy.
  const std::vector<WalRecord> &walRecords() const { return WalRecs; }
  /// Hand the records found at open to the one reader that replays
  /// them, leaving blockRecords() / walRecords() empty, so a recovered
  /// node does not hold its logs a second time.
  std::vector<std::pair<std::string, Bytes>> takeBlockRecords() {
    return std::exchange(BlockRecs, {});
  }
  std::vector<WalRecord> takeWalRecords() { return std::exchange(WalRecs, {}); }
  /// Deferred write-throughs still unresolved: the whole log's adds
  /// minus its dones, kept current by \ref appendWal.
  const std::vector<std::pair<std::string, Bytes>> &liveDeferred() const {
    return Deferred;
  }

  // --- Runtime mutations ------------------------------------------------

  /// Append one block record (no fsync; durable at the next epoch).
  /// Duplicate hashes are dropped so reorg re-submissions stay cheap.
  Status appendBlock(const std::string &HashHex, const Bytes &BlockBytes);

  /// Append one WAL record and fsync it; returns only once durable.
  Status appendWal(WalKind Kind, const std::string &Key,
                   const Bytes &Payload);

  /// Flush epoch: sync the block log, then atomically replace the
  /// checkpoint. A crash between the steps recovers to either the
  /// previous epoch or the new one; the WAL is untouched either way.
  Status flushEpoch(const EpochData &Data);

  // --- Gauges ------------------------------------------------------------

  uint64_t epochNumber() const { return HasEpoch ? Snap.Number : 0; }
  size_t walBytes() const { return Wal ? Wal->goodBytes() : 0; }
  /// Blocks appended since the last epoch sync.
  size_t dirtyBlocks() const { return DirtyBlocks; }

  static constexpr const char *BlocksFile = "blocks.log";
  static constexpr const char *WalFile = "wal.log";
  static constexpr const char *EpochFile = "epoch.snap";

private:
  ChainStore(Vfs &V, std::string Dir) : V(V), Dir(std::move(Dir)) {}

  std::string path(const char *Name) const { return Dir + "/" + Name; }
  /// Apply one WAL record to the live deferred set.
  void foldDeferred(WalKind Kind, const std::string &Key,
                    const Bytes &Payload);

  Vfs &V;
  std::string Dir;
  std::unique_ptr<RecordWriter> Blocks;
  std::unique_ptr<RecordWriter> Wal;
  std::vector<std::pair<std::string, Bytes>> BlockRecs;
  std::vector<WalRecord> WalRecs;
  std::vector<std::pair<std::string, Bytes>> Deferred;
  std::set<std::string> KnownBlocks;
  EpochData Snap;
  bool HasEpoch = false;
  OpenStats Stats;
  size_t DirtyBlocks = 0;
};

/// Serialize / decode the checkpoint payload (exposed for tests). A
/// payload with bytes past the checkpoint is the earlier layout and
/// does not decode.
Bytes serializeEpoch(const EpochData &Data);
Result<EpochData> deserializeEpoch(const Bytes &Payload);
/// Decode one WAL record payload.
Result<WalRecord> deserializeWalRecord(const Bytes &Payload);

/// Offline verification for `tclint --store`: scan a store directory
/// without repairing anything and report what a recovery would see.
struct StoreInspection {
  bool DirExists = false;
  bool EpochPresent = false;
  bool EpochCorrupt = false;
  /// The snapshot is in the earlier journal-carrying layout, which
  /// recovery refuses.
  bool EpochOldLayout = false;
  uint64_t EpochNumber = 0;
  std::string TipHashHex;
  uint32_t TipHeight = 0;
  size_t BlockRecords = 0;
  size_t BlockTailBytes = 0; ///< Damaged bytes past the intact prefix.
  size_t WalRecords = 0;
  size_t WalTailBytes = 0;
  size_t UndecodableWalRecords = 0; ///< Intact CRC but bad payload.
  bool TmpLeftover = false; ///< An epoch .tmp survived a crash (benign).
};
Result<StoreInspection> inspectStore(Vfs &V, const std::string &Dir);

} // namespace store
} // namespace typecoin

#endif // TYPECOIN_STORE_CHAINSTORE_H
