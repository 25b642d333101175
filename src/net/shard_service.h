// One serving shard: a QueryService over a full graph replica, exposed
// through the frame protocol. The shard owns a DynamicGraph (so
// ApplyUpdates frames mutate + commit + epoch-swap with the usual
// submission-barrier semantics), the estimator built on the published
// snapshot, and a FrameServer dispatching the wire frames onto them.
//
// Replication model (see net/partition.h): every shard loads the SAME
// graph — effective resistance is a global quantity — and the partition
// map only decides which shard answers which query. Because all shards
// build the same estimator from the same seed and apply identical
// update batches, any replica answers any query bit-identically to the
// in-process QueryService (net_determinism_test pins this down).
//
// This tier serves the unit-weight stack only for now; weighted graphs
// stay in-process (README "Networked serving").

#ifndef GEER_NET_SHARD_SERVICE_H_
#define GEER_NET_SHARD_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "core/options.h"
#include "core/spectral_epoch.h"
#include "dyn/dynamic_graph.h"
#include "net/codec.h"
#include "net/server.h"
#include "serve/query_service.h"

namespace geer::net {

struct ShardOptions {
  int shard_id = 0;
  int num_shards = 1;
  std::string method = "GEER";
  ErOptions er;
  ServeOptions serve;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; see port() after Start
};

class ShardServer {
 public:
  /// Takes the replica by value (epoch 0 of the shard's DynamicGraph).
  ShardServer(Graph graph, const ShardOptions& options);

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  /// Builds the estimator + service and starts listening. False (and
  /// *error) on bind failure or unknown/ infeasible method.
  bool Start(std::string* error);

  std::uint16_t port() const { return server_.port(); }
  std::uint64_t epoch() const { return epoch_.load(); }

  /// Blocks until a kShutdown frame (or Stop()) drained the server.
  void Wait() { server_.Wait(); }

  /// Stops the frame server; the QueryService drains on destruction.
  void Stop() { server_.Stop(); }

  bool stopping() const { return server_.stopping(); }

 private:
  HandlerReply Handle(const Frame& frame);
  HandlerReply HandleQuery(const Frame& frame);
  HandlerReply HandleApplyUpdates(const Frame& frame);
  static HandlerReply Error(std::uint16_t code, std::string message);

  ShardOptions options_;
  DynamicGraph graph_;
  /// Epoch-0 snapshot, pinned for the estimator's whole lifetime (later
  /// epochs are pinned by the service's keep_alive).
  std::shared_ptr<const DynSnapshot> initial_;
  std::unique_ptr<ErEstimator> estimator_;
  /// estimator_->Name(), read once: the stats handler labels series with
  /// it while the scheduler thread owns the estimator.
  std::string estimator_name_;
  std::unique_ptr<QueryService> service_;
  bool reads_lambda_ = false;

  /// Serializes ApplyUpdates frames: DynamicGraph has a single-writer
  /// contract, and concurrent connections may all carry updates.
  std::mutex update_mu_;
  /// Cross-epoch spectral holder for incremental swaps (created on the
  /// first incremental ApplyUpdates; null until then).
  std::shared_ptr<EpochShared<EpochSpectral>> spectral_;

  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint32_t> num_nodes_{0};  ///< served epoch's node count
  std::atomic<std::uint64_t> num_edges_{0};

  FrameServer server_;
};

}  // namespace geer::net

#endif  // GEER_NET_SHARD_SERVICE_H_
