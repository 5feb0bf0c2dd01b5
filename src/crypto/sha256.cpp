//===- crypto/sha256.cpp - SHA-256 and double-SHA-256 --------------------===//

#include "crypto/sha256.h"

#include "obs/metrics.h"

#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TYPECOIN_SHA256_X86 1
#include <cpuid.h>
#include <immintrin.h>
#else
#define TYPECOIN_SHA256_X86 0
#endif

namespace typecoin {
namespace crypto {

static const uint32_t K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

static inline uint32_t rotr(uint32_t X, int N) {
  return (X >> N) | (X << (32 - N));
}

void Sha256::reset() {
  State[0] = 0x6a09e667;
  State[1] = 0xbb67ae85;
  State[2] = 0x3c6ef372;
  State[3] = 0xa54ff53a;
  State[4] = 0x510e527f;
  State[5] = 0x9b05688c;
  State[6] = 0x1f83d9ab;
  State[7] = 0x5be0cd19;
  TotalLen = 0;
  BufferLen = 0;
}

void sha256CompressPortable(uint32_t *State, const uint8_t *Data,
                            size_t Blocks) {
  for (; Blocks > 0; --Blocks, Data += 64) {
    uint32_t W[64];
    for (int I = 0; I < 16; ++I)
      W[I] = static_cast<uint32_t>(Data[4 * I]) << 24 |
             static_cast<uint32_t>(Data[4 * I + 1]) << 16 |
             static_cast<uint32_t>(Data[4 * I + 2]) << 8 |
             static_cast<uint32_t>(Data[4 * I + 3]);
    for (int I = 16; I < 64; ++I) {
      uint32_t S0 = rotr(W[I - 15], 7) ^ rotr(W[I - 15], 18) ^ (W[I - 15] >> 3);
      uint32_t S1 = rotr(W[I - 2], 17) ^ rotr(W[I - 2], 19) ^ (W[I - 2] >> 10);
      W[I] = W[I - 16] + S0 + W[I - 7] + S1;
    }

    uint32_t A = State[0], B = State[1], C = State[2], D = State[3];
    uint32_t E = State[4], F = State[5], G = State[6], H = State[7];
    for (int I = 0; I < 64; ++I) {
      uint32_t S1 = rotr(E, 6) ^ rotr(E, 11) ^ rotr(E, 25);
      uint32_t Ch = (E & F) ^ (~E & G);
      uint32_t Temp1 = H + S1 + Ch + K[I] + W[I];
      uint32_t S0 = rotr(A, 2) ^ rotr(A, 13) ^ rotr(A, 22);
      uint32_t Maj = (A & B) ^ (A & C) ^ (B & C);
      uint32_t Temp2 = S0 + Maj;
      H = G;
      G = F;
      F = E;
      E = D + Temp1;
      D = C;
      C = B;
      B = A;
      A = Temp1 + Temp2;
    }
    State[0] += A;
    State[1] += B;
    State[2] += C;
    State[3] += D;
    State[4] += E;
    State[5] += F;
    State[6] += G;
    State[7] += H;
  }
}

#if TYPECOIN_SHA256_X86
namespace {

#define TC_SHANI __attribute__((target("sha,sse4.1,ssse3")))

/// Four rounds: message quad \p W (rounds 4Q..4Q+3) plus their constants.
TC_SHANI inline void quadRound(__m128i &Abef, __m128i &Cdgh, __m128i W,
                               size_t Q) {
  __m128i Msg = _mm_add_epi32(
      W, _mm_loadu_si128(reinterpret_cast<const __m128i *>(K + 4 * Q)));
  Cdgh = _mm_sha256rnds2_epu32(Cdgh, Abef, Msg);
  Abef = _mm_sha256rnds2_epu32(Abef, Cdgh, _mm_shuffle_epi32(Msg, 0x0E));
}

/// The next message quad from the previous four (oldest first).
TC_SHANI inline __m128i nextQuad(__m128i W4, __m128i W3, __m128i W2,
                                 __m128i W1) {
  __m128i X = _mm_add_epi32(_mm_sha256msg1_epu32(W4, W3),
                            _mm_alignr_epi8(W1, W2, 4));
  return _mm_sha256msg2_epu32(X, W1);
}

/// Sixteen message bytes as four big-endian words.
TC_SHANI inline __m128i loadQuad(const uint8_t *P) {
  const __m128i ByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  return _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i *>(P)), ByteSwap);
}

TC_SHANI void compressShaNi(uint32_t *State, const uint8_t *Data,
                            size_t Blocks) {
  // The round instructions keep the state as {A,B,E,F} and {C,D,G,H}.
  __m128i Tmp = _mm_loadu_si128(reinterpret_cast<const __m128i *>(State));
  __m128i Cdgh =
      _mm_loadu_si128(reinterpret_cast<const __m128i *>(State + 4));
  Tmp = _mm_shuffle_epi32(Tmp, 0xB1);
  Cdgh = _mm_shuffle_epi32(Cdgh, 0x1B);
  __m128i Abef = _mm_alignr_epi8(Tmp, Cdgh, 8);
  Cdgh = _mm_blend_epi16(Cdgh, Tmp, 0xF0);

  for (; Blocks > 0; --Blocks, Data += 64) {
    const __m128i AbefSave = Abef, CdghSave = Cdgh;
    __m128i W0 = loadQuad(Data), W1 = loadQuad(Data + 16),
            W2 = loadQuad(Data + 32), W3 = loadQuad(Data + 48);
    quadRound(Abef, Cdgh, W0, 0);
    quadRound(Abef, Cdgh, W1, 1);
    quadRound(Abef, Cdgh, W2, 2);
    quadRound(Abef, Cdgh, W3, 3);
    for (size_t Q = 4; Q < 16; Q += 4) {
      W0 = nextQuad(W0, W1, W2, W3);
      quadRound(Abef, Cdgh, W0, Q);
      W1 = nextQuad(W1, W2, W3, W0);
      quadRound(Abef, Cdgh, W1, Q + 1);
      W2 = nextQuad(W2, W3, W0, W1);
      quadRound(Abef, Cdgh, W2, Q + 2);
      W3 = nextQuad(W3, W0, W1, W2);
      quadRound(Abef, Cdgh, W3, Q + 3);
    }
    Abef = _mm_add_epi32(Abef, AbefSave);
    Cdgh = _mm_add_epi32(Cdgh, CdghSave);
  }

  Tmp = _mm_shuffle_epi32(Abef, 0x1B);
  Cdgh = _mm_shuffle_epi32(Cdgh, 0xB1);
  Abef = _mm_blend_epi16(Tmp, Cdgh, 0xF0);
  Cdgh = _mm_alignr_epi8(Cdgh, Tmp, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i *>(State), Abef);
  _mm_storeu_si128(reinterpret_cast<__m128i *>(State + 4), Cdgh);
}

#undef TC_SHANI

/// CPUID: SHA extensions (leaf 7 EBX bit 29) plus the SSSE3 (leaf 1 ECX
/// bit 9) and SSE4.1 (bit 19) shuffles and blends the kernel uses.
bool cpuHasShaNi() {
  unsigned A = 0, B = 0, C = 0, D = 0;
  if (__get_cpuid_max(0, nullptr) < 7 || !__get_cpuid(1, &A, &B, &C, &D))
    return false;
  bool Shuffles = (C >> 9 & 1) && (C >> 19 & 1);
  if (!__get_cpuid_count(7, 0, &A, &B, &C, &D))
    return false;
  return Shuffles && (B >> 29 & 1);
}

} // namespace
#endif // TYPECOIN_SHA256_X86

Sha256Kernel sha256HardwareKernel() {
#if TYPECOIN_SHA256_X86
  static const Sha256Kernel Hw = cpuHasShaNi() ? compressShaNi : nullptr;
  return Hw;
#else
  return nullptr;
#endif
}

Sha256Kernel sha256Kernel() {
  // A function-local static: the choice is made on first use, so a hash
  // computed during another object's static initialisation is safe.
  static const Sha256Kernel Chosen = [] {
    Sha256Kernel Hw = sha256HardwareKernel();
    obs::gauge("crypto.sha256.hw").set(Hw ? 1 : 0);
    return Hw ? Hw : sha256CompressPortable;
  }();
  return Chosen;
}

Sha256 &Sha256::update(const uint8_t *Data, size_t Len) {
  TotalLen += Len;
  // Fill the pending block first.
  if (BufferLen > 0) {
    size_t Need = 64 - BufferLen;
    size_t Take = Len < Need ? Len : Need;
    std::memcpy(Buffer + BufferLen, Data, Take);
    BufferLen += Take;
    Data += Take;
    Len -= Take;
    if (BufferLen == 64) {
      Compress(State, Buffer, 1);
      BufferLen = 0;
    }
  }
  if (size_t Blocks = Len / 64) {
    Compress(State, Data, Blocks);
    Data += Blocks * 64;
    Len -= Blocks * 64;
  }
  if (Len > 0) {
    std::memcpy(Buffer, Data, Len);
    BufferLen = Len;
  }
  return *this;
}

Digest32 Sha256::finalize() {
  uint64_t BitLen = TotalLen * 8;
  uint8_t Pad[72];
  size_t PadLen = (BufferLen < 56) ? 56 - BufferLen : 120 - BufferLen;
  Pad[0] = 0x80;
  std::memset(Pad + 1, 0, PadLen - 1);
  for (int I = 0; I < 8; ++I)
    Pad[PadLen + I] = static_cast<uint8_t>(BitLen >> (56 - 8 * I));
  update(Pad, PadLen + 8);

  Digest32 Out;
  for (int I = 0; I < 8; ++I) {
    Out[4 * I] = static_cast<uint8_t>(State[I] >> 24);
    Out[4 * I + 1] = static_cast<uint8_t>(State[I] >> 16);
    Out[4 * I + 2] = static_cast<uint8_t>(State[I] >> 8);
    Out[4 * I + 3] = static_cast<uint8_t>(State[I]);
  }
  return Out;
}

Digest32 sha256(const uint8_t *Data, size_t Len) {
  Sha256 H;
  H.update(Data, Len);
  return H.finalize();
}

Digest32 sha256(const Bytes &Data) { return sha256(Data.data(), Data.size()); }

Digest32 sha256d(const uint8_t *Data, size_t Len) {
  Digest32 First = sha256(Data, Len);
  return sha256(First.data(), First.size());
}

Digest32 sha256d(const Bytes &Data) {
  return sha256d(Data.data(), Data.size());
}

} // namespace crypto
} // namespace typecoin
