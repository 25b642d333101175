// The shard router: the one endpoint clients talk to in a sharded
// deployment. It owns the partition map, a connection pool per shard,
// and the cross-shard epoch-swap barrier.
//
// Query path: decode, pick the home shard (net/partition.h — common
// owner for same-shard pairs, owner of min(s,t) for cross-shard pairs,
// which is always a replica holding both endpoints since every shard is
// a full replica), forward, relay the reply. Forwarding holds a SHARED
// lock on the swap barrier.
//
// ApplyUpdates path: take the barrier EXCLUSIVELY — every in-flight
// forward completes first, and no new query dispatches until the swap
// finishes — then broadcast the same update batch to every shard (each
// derives the same λ deterministically unless the client shipped one)
// and ack the client only once EVERY shard acked. Layered over each shard's own
// QueryService submission barrier this extends the single-service
// guarantee to the cluster: queries forwarded before the swap are
// answered on the old epoch everywhere, queries after it on the new
// epoch everywhere, and no query ever observes a half-swapped cluster.
//
// Hello verifies the replicas agree (same n, same m, same epoch) —
// a mis-deployed cluster fails fast instead of answering garbage.

#ifndef GEER_NET_ROUTER_H_
#define GEER_NET_ROUTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "net/client.h"
#include "net/partition.h"
#include "net/server.h"

namespace geer::net {

struct ShardAddress {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct RouterOptions {
  PartitionStrategy strategy = PartitionStrategy::kRange;
  /// Pooled connections per shard (the router's fan-out parallelism).
  int connections_per_shard = 4;
  /// Forward kShutdown to every shard before acking it (a router-led
  /// teardown of the whole deployment).
  bool propagate_shutdown = true;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral
};

class Router {
 public:
  Router(std::vector<ShardAddress> shards, const RouterOptions& options);

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Dials every shard, verifies the replicas agree (n, m, epoch),
  /// builds the partition map and starts listening. False + *error on
  /// any mismatch or connection failure.
  bool Start(std::string* error);

  std::uint16_t port() const { return server_.port(); }
  const PartitionMap* partition() const { return partition_.get(); }
  int num_shards() const { return static_cast<int>(shards_.size()); }

  void Wait() { server_.Wait(); }
  void Stop() { server_.Stop(); }
  bool stopping() const { return server_.stopping(); }

 private:
  HandlerReply Handle(const Frame& frame);
  HandlerReply HandleQuery(const Frame& frame);
  HandlerReply HandleApplyUpdates(const Frame& frame);
  /// The per-shard fan-out behind kFlush, kStats and kApplyUpdates:
  /// runs `call(shard_index, client, &error)` on a leased connection to
  /// every shard, one thread per shard, and joins them. Returns nullopt
  /// when every call succeeded, else a kUpstream error reply
  /// "<what> on shard <i>: <error>" for the lowest failing shard. The
  /// caller holds swap_mu_ on the side its frame needs.
  std::optional<HandlerReply> Broadcast(
      const char* what,
      const std::function<bool(std::size_t, Client&, std::string*)>& call);
  static HandlerReply Error(std::uint16_t code, std::string message);

  const std::vector<ShardAddress> shards_;
  const RouterOptions options_;
  std::vector<std::unique_ptr<ClientPool>> pools_;  // one per shard
  std::unique_ptr<PartitionMap> partition_;
  HelloAckMsg cluster_;  // aggregate deployment info (num_shards = k)

  /// The cross-shard swap barrier: query forwards hold it shared,
  /// ApplyUpdates holds it exclusive for broadcast + all-acks.
  std::shared_mutex swap_mu_;
  std::uint64_t epoch_ = 0;  // guarded by swap_mu_ (exclusive to write)

  FrameServer server_;
};

}  // namespace geer::net

#endif  // GEER_NET_ROUTER_H_
