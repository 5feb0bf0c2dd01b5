//===- store/log.h - Checksummed append-only record log ---------*- C++ -*-===//
//
// Part of the Typecoin reproduction of Crary & Sullivan (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The framing shared by every durable file in the store: a sequence of
/// self-delimiting records, each protected by a CRC32, so a torn tail
/// (the only legal on-disk damage under the durability contract in
/// DESIGN.md) is detected at the exact record boundary and truncated
/// away instead of poisoning the replay.
///
/// Frame layout (all little-endian):
///
///     u32 magic 'TCR1' | u32 payloadLen | u32 crc32(payload) | payload
///
//===----------------------------------------------------------------------===//

#ifndef TYPECOIN_STORE_LOG_H
#define TYPECOIN_STORE_LOG_H

#include "store/vfs.h"
#include "support/bytes.h"
#include "support/result.h"

namespace typecoin {
namespace store {

/// CRC-32 (IEEE 802.3 polynomial, the zlib one).
uint32_t crc32(const uint8_t *Data, size_t Len);
inline uint32_t crc32(const Bytes &Data) {
  return crc32(Data.data(), Data.size());
}

/// The largest payload one frame may carry. The scan treats a longer
/// length as damage (so a corrupt header cannot drive a giant
/// allocation), and the writers refuse to produce one.
constexpr uint32_t MaxRecordSize = 64u << 20;

/// Serialize one frame around \p Payload; fails when the payload
/// exceeds \ref MaxRecordSize.
Result<Bytes> frameRecord(const Bytes &Payload);

/// The outcome of scanning a record log.
struct LogScan {
  std::vector<Bytes> Records;
  /// Bytes of intact frames from the start of the file; anything past
  /// this offset is a torn or corrupt tail.
  size_t GoodBytes = 0;
  /// The file extended past GoodBytes (damage was present).
  bool Tail = false;
};

/// Decode frames from \p Data until the first damaged one.
LogScan scanRecords(const Bytes &Data);

/// Appends framed records to a log file and keeps it repairable: a
/// failed append truncates back to the last intact frame so the file
/// never accumulates a mid-file hole. If even the repair fails the
/// writer poisons itself and every later append fails fast.
class RecordWriter {
public:
  /// \p GoodBytes is the intact prefix found by \ref scanRecords.
  RecordWriter(VfsFilePtr File, size_t GoodBytes)
      : File(std::move(File)), GoodBytes(GoodBytes) {}

  /// Frame and append \p Payload. Refuses a payload over
  /// \ref MaxRecordSize without touching the file. On I/O failure,
  /// truncates the partial frame away before returning the error.
  Status append(const Bytes &Payload);

  /// fsync the file.
  Status sync();

  /// Bytes of intact frames currently in the file.
  size_t goodBytes() const { return GoodBytes; }

private:
  VfsFilePtr File;
  size_t GoodBytes;
  bool Poisoned = false;
};

/// Open \p Path (creating it), scan it, and truncate any damaged tail
/// so the on-disk file again ends at a frame boundary. Returns the scan
/// plus a writer positioned after the last intact record.
struct OpenedLog {
  LogScan Scan;
  std::unique_ptr<RecordWriter> Writer;
};
Result<OpenedLog> openLog(Vfs &V, const std::string &Path);

} // namespace store
} // namespace typecoin

#endif // TYPECOIN_STORE_LOG_H
