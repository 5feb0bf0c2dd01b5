//===- tests/store/log_test.cpp - Checksummed record-log framing ----------===//
//
// The framing invariant every durable file relies on: scanRecords
// accepts exactly the intact frame prefix, and openLog repairs the file
// back to that boundary so a torn or bit-rotted tail can never poison a
// replay.
//
//===----------------------------------------------------------------------===//

#include "store/log.h"

#include "support/rng.h"

#include <gtest/gtest.h>

#include <array>

using namespace typecoin;
using namespace typecoin::store;

namespace {

Bytes bytesOf(const std::string &S) { return Bytes(S.begin(), S.end()); }

TEST(Crc32, MatchesTheIeeeCheckValue) {
  // The standard CRC-32 check value: crc32("123456789") = 0xCBF43926.
  EXPECT_EQ(crc32(bytesOf("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(bytesOf("")), 0u);
}

/// The bytewise table CRC the slice-by-8 kernel must reproduce.
uint32_t crc32Bytewise(const uint8_t *Data, size_t Len) {
  static const auto Table = [] {
    std::array<uint32_t, 256> T{};
    for (uint32_t I = 0; I < 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K < 8; ++K)
        C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
      T[I] = C;
    }
    return T;
  }();
  uint32_t C = 0xFFFFFFFFu;
  for (size_t I = 0; I < Len; ++I)
    C = Table[(C ^ Data[I]) & 0xFF] ^ (C >> 8);
  return C ^ 0xFFFFFFFFu;
}

Bytes randomBytes(Rng &R, size_t N) {
  Bytes Out(N);
  for (uint8_t &B : Out)
    B = static_cast<uint8_t>(R.next());
  return Out;
}

TEST(Crc32, SliceBy8MatchesBytewiseAtEveryLengthAndAlignment) {
  Rng R(0xC3C32);
  Bytes Buf = randomBytes(R, 1024 + 8);
  for (size_t Align = 0; Align < 8; ++Align)
    for (size_t Len = 0; Len <= 1024; ++Len)
      ASSERT_EQ(crc32(Buf.data() + Align, Len),
                crc32Bytewise(Buf.data() + Align, Len))
          << "len " << Len << " align " << Align;
}

TEST(Crc32, SliceBy8MatchesBytewiseOnALargeRecord) {
  Rng R(0x128);
  Bytes Big = randomBytes(R, 128 * 1024);
  EXPECT_EQ(crc32(Big), crc32Bytewise(Big.data(), Big.size()));
}

TEST(LogScan, TornTailInsideALargeRecordTruncatesAtItsStart) {
  Rng R(0x125);
  Bytes File = *frameRecord(randomBytes(R, 125 * 1000));
  size_t Good = File.size();
  Bytes Torn = *frameRecord(randomBytes(R, 125 * 1000));
  for (size_t Cut : {size_t(13), Torn.size() / 2, Torn.size() - 1}) {
    Bytes F = File;
    F.insert(F.end(), Torn.begin(), Torn.begin() + Cut);
    LogScan S = scanRecords(F);
    ASSERT_EQ(S.Records.size(), 1u) << "cut " << Cut;
    EXPECT_EQ(S.GoodBytes, Good) << "cut " << Cut;
    EXPECT_TRUE(S.Tail);
  }
  // One flipped bit deep inside the second record fails its checksum.
  Bytes F = File;
  F.insert(F.end(), Torn.begin(), Torn.end());
  F[Good + 12 + 100000] ^= 0x10;
  LogScan S = scanRecords(F);
  ASSERT_EQ(S.Records.size(), 1u);
  EXPECT_EQ(S.GoodBytes, Good);
}

TEST(LogScan, RoundTripsMultipleRecords) {
  Bytes File;
  for (const char *P : {"one", "two", "three"}) {
    Bytes F = *frameRecord(bytesOf(P));
    File.insert(File.end(), F.begin(), F.end());
  }
  LogScan S = scanRecords(File);
  ASSERT_EQ(S.Records.size(), 3u);
  EXPECT_EQ(S.Records[1], bytesOf("two"));
  EXPECT_EQ(S.GoodBytes, File.size());
  EXPECT_FALSE(S.Tail);
}

TEST(LogScan, EmptyFileIsCleanlyEmpty) {
  LogScan S = scanRecords(Bytes());
  EXPECT_TRUE(S.Records.empty());
  EXPECT_EQ(S.GoodBytes, 0u);
  EXPECT_FALSE(S.Tail);
}

TEST(LogScan, TornTailStopsAtTheLastIntactFrame) {
  Bytes File = *frameRecord(bytesOf("intact"));
  size_t Good = File.size();
  Bytes Torn = *frameRecord(bytesOf("torn-away"));
  // Only half of the second frame reached the platter.
  File.insert(File.end(), Torn.begin(), Torn.begin() + Torn.size() / 2);

  LogScan S = scanRecords(File);
  ASSERT_EQ(S.Records.size(), 1u);
  EXPECT_EQ(S.Records[0], bytesOf("intact"));
  EXPECT_EQ(S.GoodBytes, Good);
  EXPECT_TRUE(S.Tail);
}

TEST(LogScan, BitRotFailsTheChecksum) {
  Bytes File = *frameRecord(bytesOf("first"));
  size_t Good = File.size();
  Bytes Second = *frameRecord(bytesOf("second"));
  Second.back() ^= 0x01; // Rot one bit of the payload.
  File.insert(File.end(), Second.begin(), Second.end());

  LogScan S = scanRecords(File);
  ASSERT_EQ(S.Records.size(), 1u);
  EXPECT_EQ(S.GoodBytes, Good);
  EXPECT_TRUE(S.Tail);
}

TEST(LogScan, DamagedMiddleFrameTruncatesEverythingAfterIt) {
  Bytes File = *frameRecord(bytesOf("a"));
  Bytes B = *frameRecord(bytesOf("b"));
  B[B.size() - 1] ^= 0xFF;
  File.insert(File.end(), B.begin(), B.end());
  Bytes C = *frameRecord(bytesOf("c")); // Intact, but unreachable.
  File.insert(File.end(), C.begin(), C.end());

  LogScan S = scanRecords(File);
  ASSERT_EQ(S.Records.size(), 1u);
  EXPECT_EQ(S.Records[0], bytesOf("a"));
  EXPECT_TRUE(S.Tail);
}

TEST(LogScan, RejectsWrongMagicAndInsaneLengths) {
  Bytes Garbage = bytesOf("this is not a record log at all!");
  LogScan S = scanRecords(Garbage);
  EXPECT_TRUE(S.Records.empty());
  EXPECT_EQ(S.GoodBytes, 0u);
  EXPECT_TRUE(S.Tail);

  // A correct magic claiming a payload far beyond MaxRecordSize.
  Bytes Huge = *frameRecord(bytesOf("x"));
  Huge[4] = 0xFF; // payloadLen LSB
  Huge[5] = 0xFF;
  Huge[6] = 0xFF;
  Huge[7] = 0x7F;
  LogScan H = scanRecords(Huge);
  EXPECT_TRUE(H.Records.empty());
  EXPECT_TRUE(H.Tail);
}

TEST(LogScan, WritersAndScanAgreeOnTheRecordLimit) {
  Bytes AtLimit(MaxRecordSize, 0xA5);
  auto F = frameRecord(AtLimit);
  ASSERT_TRUE(F.hasValue());
  LogScan S = scanRecords(*F);
  ASSERT_EQ(S.Records.size(), 1u);
  EXPECT_FALSE(S.Tail);

  AtLimit.push_back(0xA5);
  EXPECT_FALSE(frameRecord(AtLimit).hasValue());
  MemVfs V;
  auto L = openLog(V, "log");
  ASSERT_TRUE(L.hasValue());
  ASSERT_TRUE(L->Writer->append(bytesOf("small")));
  size_t Good = L->Writer->goodBytes();
  EXPECT_FALSE(L->Writer->append(AtLimit));
  EXPECT_EQ(L->Writer->goodBytes(), Good);
  // The refusal did not poison the writer.
  EXPECT_TRUE(L->Writer->append(bytesOf("after")));
}

TEST(OpenLog, TruncatesTheDamagedTailOnDisk) {
  MemVfs V;
  Bytes File = *frameRecord(bytesOf("keep1"));
  Bytes K2 = *frameRecord(bytesOf("keep2"));
  File.insert(File.end(), K2.begin(), K2.end());
  size_t Good = File.size();
  File.push_back(0xDE); // Torn garbage past the frames.
  File.push_back(0xAD);
  {
    auto F = V.open("log", true);
    ASSERT_TRUE(F.hasValue());
    ASSERT_TRUE((*F)->append(File));
    ASSERT_TRUE((*F)->sync());
  }

  auto L = openLog(V, "log");
  ASSERT_TRUE(L.hasValue());
  EXPECT_EQ(L->Scan.Records.size(), 2u);
  EXPECT_TRUE(L->Scan.Tail);
  EXPECT_EQ(L->Writer->goodBytes(), Good);

  // The file itself was repaired back to the frame boundary.
  auto OnDisk = readFileAll(V, "log");
  ASSERT_TRUE(OnDisk.hasValue());
  EXPECT_EQ(OnDisk->size(), Good);

  // Appending after repair extends the intact prefix.
  ASSERT_TRUE(L->Writer->append(bytesOf("three")));
  ASSERT_TRUE(L->Writer->sync());
  auto Again = openLog(V, "log");
  ASSERT_TRUE(Again.hasValue());
  ASSERT_EQ(Again->Scan.Records.size(), 3u);
  EXPECT_EQ(Again->Scan.Records[2], bytesOf("three"));
  EXPECT_FALSE(Again->Scan.Tail);
}

} // namespace
