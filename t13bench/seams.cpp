//===- t13bench/seams.cpp - Outside-in measurement seams ------------------===//

#include "seams.h"

namespace t13 {

using namespace typecoin;

SeamCounters &seams() {
  static SeamCounters C;
  return C;
}

namespace {

class CountingFile : public store::VfsFile {
public:
  explicit CountingFile(store::VfsFilePtr Inner) : Inner(std::move(Inner)) {}

  Result<size_t> size() override { return Inner->size(); }
  Status append(const uint8_t *Data, size_t Len) override {
    uint64_t T0 = nowNs();
    Status S = Inner->append(Data, Len);
    seams().AppendNs += nowNs() - T0;
    seams().AppendBytes += Len;
    return S;
  }
  Result<Bytes> readAll() override { return Inner->readAll(); }
  Status truncate(size_t NewSize) override { return Inner->truncate(NewSize); }
  Status sync() override {
    uint64_t T0 = nowNs();
    Status S = Inner->sync();
    seams().SyncNs += nowNs() - T0;
    ++seams().Syncs;
    return S;
  }

private:
  store::VfsFilePtr Inner;
};

class CountingConnection : public net::Connection {
public:
  explicit CountingConnection(std::shared_ptr<net::Connection> Inner)
      : Inner(std::move(Inner)) {}

  Status send(const Bytes &Frame) override {
    uint64_t T0 = nowNs();
    Status S = Inner->send(Frame);
    seams().SendNs += nowNs() - T0;
    return S;
  }
  std::optional<Bytes> receive() override { return Inner->receive(); }
  bool waitReadable(double TimeoutSec) override {
    return Inner->waitReadable(TimeoutSec);
  }
  void close() override { Inner->close(); }
  bool isOpen() const override { return Inner->isOpen(); }
  std::string peerAddress() const override { return Inner->peerAddress(); }

private:
  std::shared_ptr<net::Connection> Inner;
};

} // namespace

Result<store::VfsFilePtr> CountingVfs::open(const std::string &Path,
                                            bool Create) {
  TC_UNWRAP(F, Inner.open(Path, Create));
  return store::VfsFilePtr(std::make_unique<CountingFile>(std::move(F)));
}

Status CountingVfs::syncDir(const std::string &Dir) {
  uint64_t T0 = nowNs();
  Status S = Inner.syncDir(Dir);
  seams().SyncNs += nowNs() - T0;
  ++seams().Syncs;
  return S;
}

Result<std::shared_ptr<net::Connection>>
CountingTransport::connect(const std::string &Addr) {
  TC_UNWRAP(C, Inner->connect(Addr));
  return std::shared_ptr<net::Connection>(
      std::make_shared<CountingConnection>(std::move(C)));
}

std::shared_ptr<net::Connection> CountingTransport::accept() {
  std::shared_ptr<net::Connection> C = Inner->accept();
  if (!C)
    return C;
  return std::make_shared<CountingConnection>(std::move(C));
}

Result<StoreImage> captureImage(store::Vfs &From, const std::string &Dir) {
  StoreImage Image;
  TC_UNWRAP(Names, From.list(Dir));
  for (const std::string &Name : Names) {
    TC_UNWRAP(Data, store::readFileAll(From, Dir + "/" + Name));
    Image[Name] = std::move(Data);
  }
  return Image;
}

Status restoreImage(const StoreImage &Image, store::Vfs &To,
                    const std::string &Dir) {
  TC_TRY(To.mkdirs(Dir));
  for (const auto &[Name, Data] : Image) {
    TC_UNWRAP(F, To.open(Dir + "/" + Name, /*Create=*/true));
    TC_TRY(F->append(Data));
    TC_TRY(F->sync());
  }
  return To.syncDir(Dir);
}

} // namespace t13
