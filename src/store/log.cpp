//===- store/log.cpp - Checksummed append-only record log -----------------===//

#include "store/log.h"

#include <array>

namespace typecoin {
namespace store {

namespace {

constexpr uint32_t FrameMagic = 0x31524354; // 'TCR1' little-endian.
constexpr size_t HeaderSize = 12;

uint32_t readU32le(const uint8_t *P) {
  return static_cast<uint32_t>(P[0]) | static_cast<uint32_t>(P[1]) << 8 |
         static_cast<uint32_t>(P[2]) << 16 | static_cast<uint32_t>(P[3]) << 24;
}

void putU32le(Bytes &Out, uint32_t V) {
  Out.push_back(static_cast<uint8_t>(V));
  Out.push_back(static_cast<uint8_t>(V >> 8));
  Out.push_back(static_cast<uint8_t>(V >> 16));
  Out.push_back(static_cast<uint8_t>(V >> 24));
}

} // namespace

uint32_t crc32(const uint8_t *Data, size_t Len) {
  // Slice-by-8: T[0] is the bytewise table; T[K][I] is the CRC of byte I
  // followed by K zero bytes, so one step folds eight input bytes.
  static const auto T = [] {
    std::array<std::array<uint32_t, 256>, 8> T{};
    for (uint32_t I = 0; I < 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K < 8; ++K)
        C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
      T[0][I] = C;
    }
    for (uint32_t I = 0; I < 256; ++I)
      for (int K = 1; K < 8; ++K)
        T[K][I] = (T[K - 1][I] >> 8) ^ T[0][T[K - 1][I] & 0xFF];
    return T;
  }();
  uint32_t C = 0xFFFFFFFFu;
  for (; Len >= 8; Data += 8, Len -= 8) {
    uint32_t Lo = C ^ readU32le(Data);
    C = T[7][Lo & 0xFF] ^ T[6][(Lo >> 8) & 0xFF] ^ T[5][(Lo >> 16) & 0xFF] ^
        T[4][Lo >> 24] ^ T[3][Data[4]] ^ T[2][Data[5]] ^ T[1][Data[6]] ^
        T[0][Data[7]];
  }
  for (; Len > 0; ++Data, --Len)
    C = T[0][(C ^ *Data) & 0xFF] ^ (C >> 8);
  return C ^ 0xFFFFFFFFu;
}

Result<Bytes> frameRecord(const Bytes &Payload) {
  // The scan refuses longer records, so writing one would ack data that
  // recovery then discards.
  if (Payload.size() > MaxRecordSize)
    return makeError("record log: payload of " +
                     std::to_string(Payload.size()) +
                     " bytes exceeds the record limit of " +
                     std::to_string(MaxRecordSize));
  Bytes Out;
  Out.reserve(HeaderSize + Payload.size());
  putU32le(Out, FrameMagic);
  putU32le(Out, static_cast<uint32_t>(Payload.size()));
  putU32le(Out, crc32(Payload));
  Out.insert(Out.end(), Payload.begin(), Payload.end());
  return Out;
}

LogScan scanRecords(const Bytes &Data) {
  LogScan S;
  size_t Pos = 0;
  while (Data.size() - Pos >= HeaderSize) {
    const uint8_t *P = Data.data() + Pos;
    uint32_t Magic = readU32le(P);
    uint32_t Len = readU32le(P + 4);
    uint32_t Crc = readU32le(P + 8);
    if (Magic != FrameMagic || Len > MaxRecordSize ||
        Data.size() - Pos - HeaderSize < Len)
      break;
    if (crc32(P + HeaderSize, Len) != Crc)
      break;
    S.Records.emplace_back(P + HeaderSize, P + HeaderSize + Len);
    Pos += HeaderSize + Len;
  }
  S.GoodBytes = Pos;
  S.Tail = Pos < Data.size();
  return S;
}

Status RecordWriter::append(const Bytes &Payload) {
  if (Poisoned)
    return makeError("record log: poisoned by earlier write failure");
  TC_UNWRAP(Frame, frameRecord(Payload));
  Status W = File->append(Frame);
  if (!W) {
    // A partial frame may have landed; cut back to the last boundary so
    // the file stays scannable. If even that fails the file handle is
    // unusable and we fail every later append fast.
    if (!File->truncate(GoodBytes))
      Poisoned = true;
    return W;
  }
  GoodBytes += Frame.size();
  return Status::success();
}

Status RecordWriter::sync() {
  if (Poisoned)
    return makeError("record log: poisoned by earlier write failure");
  return File->sync();
}

Result<OpenedLog> openLog(Vfs &V, const std::string &Path) {
  TC_UNWRAP(F, V.open(Path, /*Create=*/true));
  TC_UNWRAP(Data, F->readAll());
  OpenedLog L;
  L.Scan = scanRecords(Data);
  if (L.Scan.Tail)
    TC_TRY(F->truncate(L.Scan.GoodBytes));
  L.Writer.reset(new RecordWriter(std::move(F), L.Scan.GoodBytes));
  return L;
}

} // namespace store
} // namespace typecoin
