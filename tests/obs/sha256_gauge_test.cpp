//===- tests/obs/sha256_gauge_test.cpp - Which SHA-256 kernel ran ---------===//
//
// The gauge `crypto.sha256.hw` tells an obs export or a bench snapshot
// which compression kernel hashed its data, so it must equal the
// dispatch decision. Its own binary: Registry::reset() zeroes gauges,
// and the gauge is written only once per process.
//
//===----------------------------------------------------------------------===//

#include "crypto/sha256.h"
#include "obs/metrics.h"

#include <gtest/gtest.h>

using namespace typecoin;

namespace {

TEST(Sha256Gauge, RecordsTheDispatchDecision) {
  crypto::sha256(bytesOfString("which kernel?"));
  bool Hw = crypto::sha256HardwareKernel() != nullptr;
  EXPECT_EQ(crypto::sha256Kernel() != &crypto::sha256CompressPortable, Hw);
  obs::Snapshot S = obs::Registry::instance().snapshot();
  ASSERT_EQ(S.Gauges.count("crypto.sha256.hw"), 1u);
  EXPECT_EQ(S.gauge("crypto.sha256.hw"), Hw ? 1 : 0);
}

} // namespace
