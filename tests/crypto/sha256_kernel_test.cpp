//===- tests/crypto/sha256_kernel_test.cpp - SHA-256 kernel differential --===//
//
// The hardware (SHA-NI) compression kernel against the portable FIPS
// 180-4 one it replaces on capable CPUs: random messages, streaming
// chunkings that straddle the 64-byte buffer, unaligned inputs,
// multi-block calls and the FIPS vectors. On a CPU without SHA-NI only
// the hardware half is skipped; each run prints which kernel the
// dispatch chose so a CI log shows what was tested.
//
//===----------------------------------------------------------------------===//

#include "crypto/sha256.h"
#include "support/rng.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>

using namespace typecoin;
using namespace typecoin::crypto;

namespace {

/// Skip the rest of the calling test when the CPU has no hardware kernel.
#define REQUIRE_HARDWARE_KERNEL()                                              \
  if (!sha256HardwareKernel())                                                 \
  GTEST_SKIP() << "no SHA-NI on this CPU: only the portable kernel ran"

Bytes randomBytes(Rng &R, size_t N) {
  Bytes Out(N);
  for (uint8_t &B : Out)
    B = static_cast<uint8_t>(R.next());
  return Out;
}

Digest32 hashWith(Sha256Kernel K, const uint8_t *Data, size_t Len) {
  Sha256 H(K);
  H.update(Data, Len);
  return H.finalize();
}

Digest32 hashWith(Sha256Kernel K, const Bytes &Data) {
  return hashWith(K, Data.data(), Data.size());
}

TEST(Sha256Kernel, DispatchPicksTheHardwareKernelWhenPresent) {
  Sha256Kernel Hw = sha256HardwareKernel();
  std::printf("sha256 kernel: %s\n", Hw ? "SHA-NI" : "portable");
  EXPECT_EQ(sha256Kernel(), Hw ? Hw : &sha256CompressPortable);
}

TEST(Sha256Kernel, FipsVectorsThroughBothKernels) {
  struct Vector {
    Bytes Msg;
    const char *Hex;
  };
  const Vector Vectors[] = {
      {bytesOfString(""),
       "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {bytesOfString("abc"),
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {bytesOfString(
           "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {Bytes(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  for (const Vector &V : Vectors)
    EXPECT_EQ(toHex(hashWith(sha256CompressPortable, V.Msg).data(), 32),
              V.Hex);
  REQUIRE_HARDWARE_KERNEL();
  for (const Vector &V : Vectors)
    EXPECT_EQ(toHex(hashWith(sha256HardwareKernel(), V.Msg).data(), 32),
              V.Hex);
}

TEST(Sha256Kernel, PortableMultiBlockEqualsOneBlockAtATime) {
  Rng R(0x5A256);
  Bytes Msg = randomBytes(R, 64 * 40);
  uint32_t Multi[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  uint32_t Single[8];
  std::memcpy(Single, Multi, sizeof Multi);
  sha256CompressPortable(Multi, Msg.data(), 40);
  for (size_t B = 0; B < 40; ++B)
    sha256CompressPortable(Single, Msg.data() + 64 * B, 1);
  EXPECT_EQ(0, std::memcmp(Multi, Single, sizeof Multi));
}

TEST(Sha256Kernel, MultiBlockCallsMatchThePortableKernel) {
  REQUIRE_HARDWARE_KERNEL();
  Rng R(0x3B10C);
  Bytes Msg = randomBytes(R, 64 * 130);
  for (size_t Blocks : {size_t(0), size_t(1), size_t(2), size_t(3),
                        size_t(17), size_t(130)}) {
    uint32_t Hw[8], Ref[8];
    for (uint32_t &W : Hw)
      W = static_cast<uint32_t>(R.next());
    std::memcpy(Ref, Hw, sizeof Hw);
    sha256HardwareKernel()(Hw, Msg.data(), Blocks);
    sha256CompressPortable(Ref, Msg.data(), Blocks);
    EXPECT_EQ(0, std::memcmp(Hw, Ref, sizeof Hw)) << Blocks << " blocks";
  }
}

TEST(Sha256Kernel, RandomMessagesMatchThePortableKernel) {
  REQUIRE_HARDWARE_KERNEL();
  Rng R(0xD1FF);
  // Every length through five blocks, then lengths up to ~70 KB (the
  // size of the largest Typecoin payloads the hash sees).
  for (size_t Len = 0; Len <= 320; ++Len) {
    Bytes Msg = randomBytes(R, Len);
    ASSERT_EQ(hashWith(sha256HardwareKernel(), Msg),
              hashWith(sha256CompressPortable, Msg))
        << "len " << Len;
  }
  for (int I = 0; I < 200; ++I) {
    Bytes Msg = randomBytes(R, R.nextBelow(70 * 1024 + 1));
    ASSERT_EQ(hashWith(sha256HardwareKernel(), Msg),
              hashWith(sha256CompressPortable, Msg))
        << "len " << Msg.size();
  }
}

TEST(Sha256Kernel, RandomStreamingChunkingsMatchThePortableKernel) {
  REQUIRE_HARDWARE_KERNEL();
  Rng R(0x57AE);
  for (int I = 0; I < 300; ++I) {
    Bytes Msg = randomBytes(R, R.nextBelow(4096));
    Sha256 Hw(sha256HardwareKernel());
    for (size_t Pos = 0; Pos < Msg.size();) {
      // Mostly short pieces, so the pending buffer is partly full at
      // almost every call, plus an occasional multi-block run.
      size_t Take = R.nextBelow(8) == 0 ? R.nextBelow(400) : R.nextBelow(70);
      Take = std::min(Take, Msg.size() - Pos);
      Hw.update(Msg.data() + Pos, Take);
      Pos += Take;
    }
    ASSERT_EQ(Hw.finalize(), hashWith(sha256CompressPortable, Msg))
        << "len " << Msg.size();
  }
}

TEST(Sha256Kernel, UnalignedInputsMatchThePortableKernel) {
  REQUIRE_HARDWARE_KERNEL();
  Rng R(0xA119);
  Bytes Buf = randomBytes(R, 4096 + 16);
  for (size_t Offset = 1; Offset < 16; ++Offset)
    for (size_t Len : {size_t(64), size_t(65), size_t(1000), size_t(4096)})
      ASSERT_EQ(hashWith(sha256HardwareKernel(), Buf.data() + Offset, Len),
                hashWith(sha256CompressPortable, Buf.data() + Offset, Len))
          << "offset " << Offset << " len " << Len;
}

} // namespace
