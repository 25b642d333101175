#include "net/router.h"

#include <mutex>
#include <optional>
#include <thread>
#include <utility>

namespace geer::net {

Router::Router(std::vector<ShardAddress> shards, const RouterOptions& options)
    : shards_(std::move(shards)), options_(options) {}

bool Router::Start(std::string* error) {
  if (shards_.empty()) {
    if (error != nullptr) *error = "router needs at least one shard";
    return false;
  }
  pools_.clear();
  pools_.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    pools_.push_back(std::make_unique<ClientPool>(
        shards_[i].host, shards_[i].port, options_.connections_per_shard));
    ClientPool::Lease lease = pools_[i]->Acquire();
    if (!lease) {
      if (error != nullptr) {
        *error = "shard " + std::to_string(i) + " (" + shards_[i].host + ":" +
                 std::to_string(shards_[i].port) +
                 ") unreachable: " + pools_[i]->last_error();
      }
      return false;
    }
    const HelloAckMsg& info = lease->info();
    if (i == 0) {
      cluster_ = info;
    } else if (info.num_nodes != cluster_.num_nodes ||
               info.num_edges != cluster_.num_edges ||
               info.epoch != cluster_.epoch) {
      // Shards are full replicas: disagreement means a mis-deployed
      // cluster, and routing over it would return inconsistent answers.
      if (error != nullptr) {
        *error = "shard " + std::to_string(i) +
                 " replica mismatch (n/m/epoch differ from shard 0)";
      }
      return false;
    }
  }
  cluster_.num_shards = static_cast<std::uint32_t>(shards_.size());
  epoch_ = cluster_.epoch;
  // The partition map is FIXED at deployment time: node growth in later
  // epochs routes through ShardOf's clamp (range) or the hash — the map
  // never rebuilds, so a node's home shard is stable for the cluster's
  // lifetime.
  partition_ = std::make_unique<PartitionMap>(
      cluster_.num_nodes, static_cast<int>(shards_.size()),
      options_.strategy);
  return server_.Start(options_.host, options_.port,
                       [this](const Frame& frame) { return Handle(frame); },
                       error);
}

HandlerReply Router::Error(std::uint16_t code, std::string message) {
  HandlerReply reply;
  reply.type = FrameType::kError;
  reply.payload = EncodeError({code, std::move(message)});
  return reply;
}

std::optional<HandlerReply> Router::Broadcast(
    const char* what,
    const std::function<bool(std::size_t, Client&, std::string*)>& call) {
  std::vector<std::string> errors(pools_.size());
  // Not vector<bool>: the per-shard threads write concurrently, and
  // packed bits of one word are not distinct memory locations.
  std::vector<unsigned char> oks(pools_.size(), 0);
  std::vector<std::thread> threads;
  threads.reserve(pools_.size());
  for (std::size_t i = 0; i < pools_.size(); ++i) {
    threads.emplace_back([this, i, &call, &errors, &oks] {
      ClientPool::Lease lease = pools_[i]->Acquire();
      if (!lease) {
        errors[i] = pools_[i]->last_error();
        return;
      }
      oks[i] = call(i, *lease.get(), &errors[i]) ? 1 : 0;
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t i = 0; i < oks.size(); ++i) {
    if (!oks[i]) {
      return Error(ErrorMsg::kUpstream, std::string(what) + " on shard " +
                                            std::to_string(i) + ": " +
                                            errors[i]);
    }
  }
  return std::nullopt;
}

HandlerReply Router::Handle(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kHello: {
      std::shared_lock<std::shared_mutex> lock(swap_mu_);
      return {FrameType::kHelloAck, EncodeHelloAck(cluster_), false};
    }
    case FrameType::kQuery:
      return HandleQuery(frame);
    case FrameType::kFlush: {
      std::shared_lock<std::shared_mutex> lock(swap_mu_);
      if (auto failed = Broadcast(
              "flush failed",
              [](std::size_t, Client& shard, std::string* error) {
                return shard.Flush(error);
              })) {
        return *std::move(failed);
      }
      return {FrameType::kFlushAck, {}, false};
    }
    case FrameType::kApplyUpdates:
      return HandleApplyUpdates(frame);
    case FrameType::kStats: {
      StatsRequestMsg request;
      if (!DecodeStatsRequest(frame.payload, &request)) {
        return Error(ErrorMsg::kBadRequest, "undecodable stats payload");
      }
      std::shared_lock<std::shared_mutex> lock(swap_mu_);
      std::vector<obs::StatsSnapshot> snapshots(pools_.size());
      if (auto failed = Broadcast(
              "stats failed",
              [&](std::size_t i, Client& shard, std::string* error) {
                StatsReplyMsg shard_reply;
                if (!shard.Stats(request, &shard_reply, error)) return false;
                snapshots[i] = std::move(shard_reply.snapshot);
                return true;
              })) {
        return *std::move(failed);
      }
      StatsReplyMsg reply;
      reply.snapshot = obs::MergeSnapshots(snapshots);
      reply.num_shards = static_cast<std::uint32_t>(pools_.size());
      return {FrameType::kStatsReply, EncodeStatsReply(reply), false};
    }
    case FrameType::kShutdown: {
      if (options_.propagate_shutdown) {
        std::unique_lock<std::shared_mutex> lock(swap_mu_);
        for (std::size_t i = 0; i < pools_.size(); ++i) {
          ClientPool::Lease lease = pools_[i]->Acquire();
          std::string err;
          if (lease) (void)lease->Shutdown(&err);
        }
      }
      return {FrameType::kShutdownAck, {}, true};
    }
    default:
      return Error(ErrorMsg::kUnknownType,
                   "unhandled frame type " +
                       std::to_string(static_cast<unsigned>(frame.type)));
  }
}

HandlerReply Router::HandleQuery(const Frame& frame) {
  ServiceRequest request;
  if (!DecodeServiceRequest(frame.payload, &request)) {
    return Error(ErrorMsg::kBadRequest, "undecodable query payload");
  }
  // Shared side of the swap barrier: a forward in flight here blocks any
  // epoch swap, and a swap in progress blocks this forward — so every
  // query observes a fully swapped (or fully unswapped) cluster.
  std::shared_lock<std::shared_mutex> lock(swap_mu_);
  if (request.s >= cluster_.num_nodes || request.t >= cluster_.num_nodes) {
    return Error(ErrorMsg::kOutOfRange,
                 "query endpoint out of range (n=" +
                     std::to_string(cluster_.num_nodes) + ")");
  }
  const int shard = partition_->HomeShard(request.pair());
  ClientPool::Lease lease = pools_[static_cast<std::size_t>(shard)]->Acquire();
  if (!lease) {
    return Error(ErrorMsg::kUpstream,
                 "shard " + std::to_string(shard) +
                     " unreachable: " + pools_[shard]->last_error());
  }
  ServiceResponse response;
  std::string err;
  if (!lease->Query(request, &response, &err)) {
    return Error(ErrorMsg::kUpstream,
                 "shard " + std::to_string(shard) + ": " + err);
  }
  return {FrameType::kQueryReply, EncodeServiceResponse(response), false};
}

HandlerReply Router::HandleApplyUpdates(const Frame& frame) {
  ApplyUpdatesMsg msg;
  if (!DecodeApplyUpdates(frame.payload, &msg)) {
    return Error(ErrorMsg::kBadRequest, "undecodable apply-updates payload");
  }
  // Exclusive side of the barrier: waits out every in-flight forward,
  // then holds new queries back until EVERY shard acked its swap — the
  // cross-shard extension of QueryService's submission barrier.
  std::unique_lock<std::shared_mutex> lock(swap_mu_);
  std::vector<ApplyUpdatesAckMsg> acks(pools_.size());
  if (auto failed = Broadcast(
          "apply-updates transport failure",
          [&](std::size_t i, Client& shard, std::string* error) {
            return shard.ApplyUpdates(msg, &acks[i], error);
          })) {
    return *std::move(failed);
  }
  bool all_ok = true;
  for (const ApplyUpdatesAckMsg& ack : acks) all_ok = all_ok && ack.ok;
  if (!all_ok) {
    // A shard rejected the batch (validation failure). Shards that DID
    // swap and shards that did not now disagree — surface ok=false with
    // the pre-swap epoch; a deployment hitting this has fed an invalid
    // stream and must be rebuilt (documented in README).
    return {FrameType::kApplyUpdatesAck,
            EncodeApplyUpdatesAck({false, epoch_}), false};
  }
  epoch_ = acks[0].epoch;
  // Refresh the aggregate view (node inserts may have grown n): one
  // fresh Hello against shard 0, still under the exclusive lock.
  Client probe;
  std::string err;
  if (probe.Connect(shards_[0].host, shards_[0].port, &err)) {
    cluster_.num_nodes = probe.info().num_nodes;
    cluster_.num_edges = probe.info().num_edges;
  }
  cluster_.epoch = epoch_;
  return {FrameType::kApplyUpdatesAck, EncodeApplyUpdatesAck({true, epoch_}),
          false};
}

}  // namespace geer::net
