//===- net/peer.h - Per-peer connection state -------------------*- C++ -*-===//
//
// Part of the Typecoin reproduction of Crary & Sullivan (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-peer record of the P2P runtime: handshake progress, liveness
/// timers, the bounded known-inventory filter that deduplicates gossip,
/// in-flight request tracking for headers-first sync, and the partial
/// state of a compact-block reconstruction awaiting a GETBLOCKTXN
/// answer. Owned and mutated exclusively by \ref NetNode under its state
/// lock; the struct itself carries no synchronization.
///
//===----------------------------------------------------------------------===//

#ifndef TYPECOIN_NET_PEER_H
#define TYPECOIN_NET_PEER_H

#include "net/transport.h"
#include "net/wire.h"

#include <deque>
#include <map>
#include <set>

namespace typecoin {
namespace net {

/// A bounded set of inventory items with FIFO eviction: remembers the
/// last \p Cap items seen on or sent over one link. Gossip dedup only
/// needs recency — an item old enough to be evicted has long since
/// propagated.
class BoundedInvSet {
public:
  explicit BoundedInvSet(size_t Cap = 4096) : Cap(Cap) {}

  bool contains(const InvItem &It) const { return Items.count(It) != 0; }

  /// Insert; returns false when the item was already present.
  bool insert(const InvItem &It) {
    if (!Items.insert(It).second)
      return false;
    Order.push_back(It);
    while (Order.size() > Cap) {
      Items.erase(Order.front());
      Order.pop_front();
    }
    return true;
  }

  size_t size() const { return Items.size(); }

private:
  size_t Cap;
  std::set<InvItem> Items;
  std::deque<InvItem> Order;
};

/// Liveness / handshake tuning.
struct PeerTimers {
  double HandshakeTimeoutSec = 10.0;
  double PingIntervalSec = 60.0;
  double PingTimeoutSec = 20.0;
  /// A ready peer holding a block GetData outstanding longer than this
  /// is disconnected as stalling: disconnect releases its in-flight
  /// marks so the blocks become fetchable from other peers again.
  double StallTimeoutSec = 60.0;
};

/// A compact block being reconstructed: the slots we could not fill from
/// the mempool are requested via GETBLOCKTXN and patched in when the
/// BLOCKTXN answer arrives.
struct CompactPending {
  bitcoin::BlockHeader Header;
  std::vector<bitcoin::Transaction> Txs; ///< Filled slots; misses empty.
  std::vector<bool> Have;
  std::vector<uint64_t> MissingIndexes;
};

/// One connected peer. All fields are guarded by the owning NetNode's
/// state mutex.
struct Peer {
  enum class State {
    Handshaking, ///< Version sent; waiting for Version/Verack.
    Ready,       ///< Verack exchanged; full traffic.
    Disconnected,
  };

  uint64_t Id = 0;
  std::shared_ptr<Connection> Conn;
  FrameDecoder Decoder;
  State St = State::Handshaking;
  bool Inbound = false;

  // Negotiated by the Version exchange.
  uint64_t Services = 0;
  int32_t StartHeight = 0;
  bool VersionReceived = false;
  bool VerackReceived = false;

  // Liveness.
  double ConnectedAt = 0;
  double LastRecv = 0;
  double LastPingSent = -1;   ///< -1: none outstanding.
  uint64_t PingNonce = 0;

  /// Items this link already knows about (either direction); suppresses
  /// re-announcement and measures duplicate-INV amplification.
  BoundedInvSet Known;
  /// Outstanding GETDATA requests to this peer, with the time each was
  /// sent (drives the stall timeout).
  std::map<InvItem, double> Requested;

  /// Headers-first sync: block hashes whose headers we accepted from
  /// this peer and whose bodies are not yet requested, oldest first.
  std::deque<bitcoin::BlockHash> BodiesToFetch;
  /// A full 2000-header message means more may follow.
  bool MoreHeadersExpected = false;

  /// Compact reconstructions awaiting this peer's BLOCKTXN.
  std::map<bitcoin::BlockHash, CompactPending> Reconstructing;

  bool compactNegotiated() const {
    return (Services & ServiceCompactRelay) != 0;
  }
  bool ready() const { return St == State::Ready; }
  std::string address() const { return Conn->peerAddress(); }
};

} // namespace net
} // namespace typecoin

#endif // TYPECOIN_NET_PEER_H
