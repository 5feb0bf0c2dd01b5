//===- t13bench/main.cpp - T13 end-to-end Typecoin benchmark --------------===//
//
//   t13bench --workload transfer4|deep_ledger|catchup --seed N
//            --seconds S --trace 0|1 [--smoke] [--describe TEXT]
//   t13bench --selftest
//
// Prints one `metric` line per metric (name, value, unit, samples), one
// `context` JSON line, and as its last line the result object
// {"correct", "attempted", "failed", "metrics"} — end-to-end metrics
// untraced, per-layer metrics traced. A failed output check prints the
// errors, no result line, and exits 1.
//
//===----------------------------------------------------------------------===//

#include "bench.h"
#include "stats.h"

#include "bitcoin/sigcache.h"
#include "crypto/secp256k1.h"
#include "lf/intern.h"
#include "net/node.h"
#include "support/threadpool.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sched.h>
#include <string>
#include <thread>

extern char **environ;

using namespace t13;

namespace {

std::string quote(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    Out += C;
  }
  return Out + "\"";
}

/// Shortest text that reads back as the same double: all its digits.
std::string number(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string contextJson(const Options &O, const std::string &Describe,
                        const Report &R) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  int Affinity = sched_getaffinity(0, sizeof(Set), &Set) == 0
                     ? CPU_COUNT(&Set)
                     : 0;
  std::string Knobs = "{";
  for (char **E = environ; *E; ++E)
    if (std::strncmp(*E, "TYPECOIN_", 9) == 0) {
      const char *Eq = std::strchr(*E, '=');
      if (!Eq)
        continue;
      Knobs += (Knobs.size() > 1 ? ", " : "") +
               quote(std::string(*E, Eq - *E)) + ": " + quote(Eq + 1);
    }
  Knobs += "}";
  std::string Effective =
      "{\"compact_relay\": " +
      std::string(typecoin::net::compactRelayFromEnv() ? "true" : "false") +
      ", \"net_threads\": " +
      std::to_string(typecoin::net::netThreadsFromEnv()) +
      ", \"par_verify_workers\": " +
      std::to_string(typecoin::ThreadPool::configuredWorkers()) +
      ", \"sigcache_capacity\": " +
      std::to_string(typecoin::bitcoin::SignatureCache::instance().capacity()) +
      ", \"intern\": " +
      std::string(typecoin::lf::internEnabled() ? "true" : "false") +
      ", \"ecmult_comb_window\": " +
      std::to_string(typecoin::crypto::Secp256k1::instance().combWindow()) +
      "}";
  std::string Samples = "{";
  for (const auto *List : {&R.EndToEnd, &R.PerLayer})
    for (const Metric &M : *List)
      Samples += (Samples.size() > 1 ? ", " : "") + quote(M.Name) + ": " +
                 std::to_string(M.Samples);
  Samples += "}";
  std::string Out = "{\"workload\": " + quote(O.Workload) +
                    ", \"seed\": " + std::to_string(O.Seed) +
                    ", \"seconds\": " + number(O.Seconds) +
                    ", \"traced\": " + (O.Trace ? "true" : "false") +
                    ", \"smoke\": " + (O.Smoke ? "true" : "false") +
                    ", \"nproc\": " +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ", \"cpus_allowed\": " + std::to_string(Affinity) +
                    ", \"build_type\": " + quote(T13_BUILD_TYPE) +
                    ", \"compiler\": " + quote(T13_COMPILER) +
                    ", \"git_describe\": " + quote(Describe) +
                    ", \"typecoin_env\": " + Knobs +
                    ", \"knobs_in_effect\": " + Effective +
                    ", \"samples\": " + Samples;
  for (const auto &[K, V] : R.Context)
    Out += ", " + quote(K) + ": " + V;
  return Out + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: t13bench --workload transfer4|deep_ledger|catchup "
               "--seed N --seconds S --trace 0|1 [--smoke] "
               "[--describe TEXT]\n       t13bench --selftest\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  std::string Describe = "unknown";
  bool Selftest = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    if (A == "--selftest") {
      Selftest = true;
    } else if (A == "--smoke") {
      O.Smoke = true;
    } else if (A == "--workload" || A == "--seed" || A == "--seconds" ||
               A == "--trace" || A == "--describe") {
      const char *V = Value();
      if (!V)
        return usage();
      if (A == "--workload")
        O.Workload = V;
      else if (A == "--seed")
        O.Seed = std::strtoull(V, nullptr, 10);
      else if (A == "--seconds")
        O.Seconds = std::atof(V);
      else if (A == "--trace")
        O.Trace = std::strcmp(V, "0") != 0;
      else
        Describe = V;
    } else {
      return usage();
    }
  }
  if (Selftest) {
    int Failures = runSelftest();
    std::printf("selftest: %d failure(s)\n", Failures);
    return Failures == 0 ? 0 : 1;
  }
  if (O.Smoke && O.Seconds > 1)
    O.Seconds = 1;
  Report R;
  if (O.Workload == "transfer4")
    R = runTransfer4(O);
  else if (O.Workload == "deep_ledger")
    R = runDeepLedger(O);
  else if (O.Workload == "catchup")
    R = runCatchup(O);
  else
    return usage();

  for (const auto *List : {&R.EndToEnd, &R.PerLayer})
    for (const Metric &M : *List)
      std::printf("metric %-34s %14.6g %-9s samples=%zu\n", M.Name.c_str(),
                  M.Value, M.Unit.c_str(), M.Samples);
  std::printf("context %s\n", contextJson(O, Describe, R).c_str());
  if (!R.Correct || R.Failed != 0 || R.Attempted == 0) {
    for (const std::string &E : R.Errors)
      std::fprintf(stderr, "t13bench: check failed: %s\n", E.c_str());
    if (R.Errors.empty())
      std::fprintf(stderr, "t13bench: %llu of %llu operations failed\n",
                   static_cast<unsigned long long>(R.Failed),
                   static_cast<unsigned long long>(R.Attempted));
    return 1;
  }

  // The result line carries the pass's own metric set: end-to-end when
  // untraced, per-layer when traced. failed_frac is printed above; the
  // result's failed/attempted carry it.
  std::string Metrics;
  for (const Metric &M : O.Trace ? R.PerLayer : R.EndToEnd) {
    if (M.Name == "failed_frac")
      continue;
    Metrics += (Metrics.empty() ? "" : ", ") + quote(M.Name) +
               ": {\"value\": " + number(M.Value) +
               ", \"unit\": " + quote(M.Unit) + "}";
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed), Metrics.c_str());
  return 0;
}
