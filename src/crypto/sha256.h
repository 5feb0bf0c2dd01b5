//===- crypto/sha256.h - SHA-256 and double-SHA-256 ------------*- C++ -*-===//
//
// Part of the Typecoin reproduction of Crary & Sullivan (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// From-scratch SHA-256 (FIPS 180-4) with a streaming interface, plus the
/// double-SHA-256 used throughout Bitcoin for transaction ids, block
/// hashes, and the Typecoin transaction hash embedded into Bitcoin
/// transactions (paper, Section 3).
///
/// The block compression has two kernels: a portable one that runs on
/// every CPU, and on x86-64 an SHA-NI one. The kernel is chosen once per
/// process from CPUID, never by a knob; the portable kernel stays as the
/// reference the hardware one is tested against. The choice is exported
/// as the gauge `crypto.sha256.hw` (1 = SHA-NI).
///
//===----------------------------------------------------------------------===//

#ifndef TYPECOIN_CRYPTO_SHA256_H
#define TYPECOIN_CRYPTO_SHA256_H

#include "support/bytes.h"

#include <array>
#include <cstdint>

namespace typecoin {
namespace crypto {

/// A 32-byte digest.
using Digest32 = std::array<uint8_t, 32>;

/// A compression kernel: folds the \p Blocks consecutive 64-byte blocks
/// at \p Data (any alignment) into the eight-word \p State.
using Sha256Kernel = void (*)(uint32_t *State, const uint8_t *Data,
                              size_t Blocks);

/// The portable FIPS 180-4 kernel.
void sha256CompressPortable(uint32_t *State, const uint8_t *Data,
                            size_t Blocks);

/// The SHA-NI kernel when this CPU and build have one, else nullptr.
Sha256Kernel sha256HardwareKernel();

/// The kernel every default-constructed \ref Sha256 uses: the hardware
/// one when present, else the portable one.
Sha256Kernel sha256Kernel();

/// Streaming SHA-256.
class Sha256 {
public:
  Sha256() : Sha256(sha256Kernel()) {}
  /// Hash with a specific kernel (tests and benchmarks compare them).
  explicit Sha256(Sha256Kernel Compress) : Compress(Compress) { reset(); }

  /// Reinitialize to the empty message.
  void reset();

  /// Absorb \p Len bytes.
  Sha256 &update(const uint8_t *Data, size_t Len);
  Sha256 &update(const Bytes &Data) {
    return update(Data.data(), Data.size());
  }

  /// Pad and produce the digest. The object must be reset before reuse.
  Digest32 finalize();

private:
  Sha256Kernel Compress;
  uint32_t State[8];
  uint64_t TotalLen;
  uint8_t Buffer[64];
  size_t BufferLen;
};

/// One-shot SHA-256.
Digest32 sha256(const uint8_t *Data, size_t Len);
Digest32 sha256(const Bytes &Data);

/// Bitcoin's double SHA-256: SHA256(SHA256(x)).
Digest32 sha256d(const uint8_t *Data, size_t Len);
Digest32 sha256d(const Bytes &Data);

} // namespace crypto
} // namespace typecoin

#endif // TYPECOIN_CRYPTO_SHA256_H
