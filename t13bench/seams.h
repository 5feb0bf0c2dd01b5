//===- t13bench/seams.h - Outside-in measurement seams ----------*- C++ -*-===//
//
// Everything the traced pass measures without touching src/: a table of
// benchmark-side spans around the calls the benchmark makes, and
// counting wrappers for the two seams the node stack takes by
// injection — the store's Vfs and the P2P Transport.
//
//===----------------------------------------------------------------------===//

#ifndef T13BENCH_SEAMS_H
#define T13BENCH_SEAMS_H

#include "net/transport.h"
#include "store/vfs.h"

#include <chrono>
#include <map>
#include <string>

namespace t13 {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Count and total wall time of one benchmark-side span name.
struct SpanAgg {
  uint64_t Count = 0;
  uint64_t Ns = 0;
};

/// Spans the benchmark records around its own calls into the stack
/// ("typecoin.build", "net.gossip", ...). Always on: two clock reads
/// per call, far below the work each call does.
class SpanTable {
public:
  void add(const std::string &Name, uint64_t Ns) {
    SpanAgg &A = Table[Name];
    ++A.Count;
    A.Ns += Ns;
  }
  SpanAgg get(const std::string &Name) const {
    auto It = Table.find(Name);
    return It == Table.end() ? SpanAgg{} : It->second;
  }
  void clear() { Table.clear(); }

private:
  std::map<std::string, SpanAgg> Table;
};

/// RAII span: adds the scope's wall time to \p T under \p Name.
class Span {
public:
  Span(SpanTable &T, const char *Name) : T(T), Name(Name), Start(nowNs()) {}
  ~Span() { T.add(Name, nowNs() - Start); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  SpanTable &T;
  const char *Name;
  uint64_t Start;
};

/// Counters kept by the seam wrappers (process-wide; the benchmark is
/// single-threaded).
struct SeamCounters {
  uint64_t AppendBytes = 0, AppendNs = 0; ///< Store seam: file appends.
  uint64_t Syncs = 0, SyncNs = 0;         ///< Store seam: file/dir syncs.
  uint64_t SendNs = 0;                    ///< Transport seam: frame sends.

  /// Add what happened between \p Before and \p After.
  void addDelta(const SeamCounters &After, const SeamCounters &Before) {
    AppendBytes += After.AppendBytes - Before.AppendBytes;
    AppendNs += After.AppendNs - Before.AppendNs;
    Syncs += After.Syncs - Before.Syncs;
    SyncNs += After.SyncNs - Before.SyncNs;
    SendNs += After.SendNs - Before.SendNs;
  }
};
SeamCounters &seams();

/// A Vfs that forwards to \p Inner and counts/times appends and syncs.
class CountingVfs : public typecoin::store::Vfs {
public:
  explicit CountingVfs(typecoin::store::Vfs &Inner) : Inner(Inner) {}

  typecoin::Result<typecoin::store::VfsFilePtr>
  open(const std::string &Path, bool Create) override;
  typecoin::Result<bool> exists(const std::string &Path) override {
    return Inner.exists(Path);
  }
  typecoin::Status remove(const std::string &Path) override {
    return Inner.remove(Path);
  }
  typecoin::Status rename(const std::string &From,
                          const std::string &To) override {
    return Inner.rename(From, To);
  }
  typecoin::Status mkdirs(const std::string &Dir) override {
    return Inner.mkdirs(Dir);
  }
  typecoin::Result<std::vector<std::string>>
  list(const std::string &Dir) override {
    return Inner.list(Dir);
  }
  typecoin::Status syncDir(const std::string &Dir) override;

private:
  typecoin::store::Vfs &Inner;
};

/// A Transport that forwards to \p Inner and times every frame sent on
/// the connections it makes or accepts.
class CountingTransport : public typecoin::net::Transport {
public:
  explicit CountingTransport(std::unique_ptr<typecoin::net::Transport> Inner)
      : Inner(std::move(Inner)) {}

  std::string listenAddress() const override {
    return Inner->listenAddress();
  }
  typecoin::Result<std::shared_ptr<typecoin::net::Connection>>
  connect(const std::string &Addr) override;
  std::shared_ptr<typecoin::net::Connection> accept() override;

private:
  std::unique_ptr<typecoin::net::Transport> Inner;
};

/// Copy every file under \p Dir of \p From (its current contents) into
/// a fresh image; \ref restoreImage writes it back durably.
using StoreImage = std::map<std::string, typecoin::Bytes>;
typecoin::Result<StoreImage> captureImage(typecoin::store::Vfs &From,
                                          const std::string &Dir);
typecoin::Status restoreImage(const StoreImage &Image,
                              typecoin::store::Vfs &To,
                              const std::string &Dir);

} // namespace t13

#endif // T13BENCH_SEAMS_H
