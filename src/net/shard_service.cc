#include "net/shard_service.h"

#include <algorithm>
#include <limits>
#include <map>
#include <utility>

#include "core/registry.h"
#include "dyn/dyn_serve.h"
#include "linalg/spectral.h"

namespace geer::net {

ShardServer::ShardServer(Graph graph, const ShardOptions& options)
    : options_(options), graph_(std::move(graph)) {}

bool ShardServer::Start(std::string* error) {
  initial_ = graph_.Current();
  const std::string method = CanonicalEstimatorName(options_.method);
  reads_lambda_ = EstimatorReadsLambda(method);
  ErOptions build = options_.er;
  if (reads_lambda_ && !build.lambda.has_value()) {
    // Deterministic λ derivation: every replica (and the in-process
    // truth) runs the same Lanczos on the same graph, so downstream
    // answers stay bit-identical without shipping λ over the wire.
    build.lambda = ComputeSpectralBoundsT<UnitWeight>(*initial_->graph).lambda;
  }
  if (!EstimatorFeasible(method, *initial_->graph, build)) {
    if (error != nullptr) {
      *error = "estimator " + method + " infeasible on this replica";
    }
    return false;
  }
  estimator_ = CreateEstimator(method, *initial_->graph, build);
  if (estimator_ == nullptr) {
    if (error != nullptr) *error = "unknown estimator " + options_.method;
    return false;
  }
  estimator_name_ = estimator_->Name();
  service_ = std::make_unique<QueryService>(*estimator_, options_.serve);
  epoch_.store(initial_->epoch);
  num_nodes_.store(initial_->graph->NumNodes());
  num_edges_.store(initial_->graph->NumEdges());
  return server_.Start(options_.host, options_.port,
                       [this](const Frame& frame) { return Handle(frame); },
                       error);
}

HandlerReply ShardServer::Error(std::uint16_t code, std::string message) {
  HandlerReply reply;
  reply.type = FrameType::kError;
  reply.payload = EncodeError({code, std::move(message)});
  return reply;
}

HandlerReply ShardServer::Handle(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kHello: {
      HelloAckMsg ack;
      ack.num_nodes = num_nodes_.load();
      ack.num_edges = num_edges_.load();
      ack.epoch = epoch_.load();
      ack.num_shards = 1;
      return {FrameType::kHelloAck, EncodeHelloAck(ack), false};
    }
    case FrameType::kQuery:
      return HandleQuery(frame);
    case FrameType::kFlush:
      service_->Flush();
      return {FrameType::kFlushAck, {}, false};
    case FrameType::kApplyUpdates:
      return HandleApplyUpdates(frame);
    case FrameType::kStats: {
      StatsRequestMsg request;
      if (!DecodeStatsRequest(frame.payload, &request)) {
        return Error(ErrorMsg::kBadRequest, "undecodable stats payload");
      }
      StatsReplyMsg reply;
      reply.snapshot =
          ServeStatsSnapshot(service_->Metrics(), estimator_name_);
      const auto outside_prefix = [&request](const auto& series) {
        return !series.first.starts_with(request.prefix);
      };
      std::erase_if(reply.snapshot.counters, outside_prefix);
      std::erase_if(reply.snapshot.gauges, outside_prefix);
      std::erase_if(reply.snapshot.histograms, outside_prefix);
      reply.num_shards = 1;
      return {FrameType::kStatsReply, EncodeStatsReply(reply), false};
    }
    case FrameType::kShutdown:
      return {FrameType::kShutdownAck, {}, true};
    default:
      return Error(ErrorMsg::kUnknownType,
                   "unhandled frame type " +
                       std::to_string(static_cast<unsigned>(frame.type)));
  }
}

HandlerReply ShardServer::HandleQuery(const Frame& frame) {
  ServiceRequest request;
  if (!DecodeServiceRequest(frame.payload, &request)) {
    return Error(ErrorMsg::kBadRequest, "undecodable query payload");
  }
  const std::uint32_t n = num_nodes_.load();
  if (request.s >= n || request.t >= n) {
    return Error(ErrorMsg::kOutOfRange,
                 "query endpoint out of range (n=" + std::to_string(n) + ")");
  }
  // Blocking is correct here: each connection is a serial request/reply
  // stream, and server-side batching happens across connections inside
  // the QueryService. At zero linger the connection thread dispatches
  // the micro-batch itself instead of waking the scheduler.
  const QueryResult result =
      service_->Answer(request.pair(), request.deadline_seconds);
  return {FrameType::kQueryReply,
          EncodeServiceResponse(ServiceResponse::FromQueryResult(result)),
          false};
}

HandlerReply ShardServer::HandleApplyUpdates(const Frame& frame) {
  ApplyUpdatesMsg msg;
  if (!DecodeApplyUpdates(frame.payload, &msg)) {
    return Error(ErrorMsg::kBadRequest, "undecodable apply-updates payload");
  }
  std::lock_guard<std::mutex> lock(update_mu_);
  // Pre-validate the whole batch against the pending view: the
  // DynamicGraph mutators abort on contract violations (insert of a
  // present edge, delete of an absent one, the reserved node id), and a
  // remote peer must get ok=false, never a dead server. Simulate
  // presence across the batch so insert-then-delete sequences validate
  // correctly.
  {
    std::map<Edge, bool> staged;  // canonical edge -> present after ops
    auto present = [&](NodeId u, NodeId v) {
      const Edge e{std::min(u, v), std::max(u, v)};
      const auto it = staged.find(e);
      return it != staged.end() ? it->second : graph_.HasEdge(u, v);
    };
    for (const EdgeUpdate& op : msg.updates) {
      const Edge e{std::min(op.u, op.v), std::max(op.u, op.v)};
      switch (op.kind) {
        case EdgeUpdateKind::kInsert:
          if (op.u == op.v || present(op.u, op.v) || op.weight != 1.0 ||
              std::max(op.u, op.v) == std::numeric_limits<NodeId>::max()) {
            return {FrameType::kApplyUpdatesAck,
                    EncodeApplyUpdatesAck({false, epoch_.load()}), false};
          }
          staged[e] = true;
          break;
        case EdgeUpdateKind::kDelete:
          if (!present(op.u, op.v)) {
            return {FrameType::kApplyUpdatesAck,
                    EncodeApplyUpdatesAck({false, epoch_.load()}), false};
          }
          staged[e] = false;
          break;
        case EdgeUpdateKind::kSetWeight:
          // Unit-weight tier: only the no-op weight is representable.
          if (!present(op.u, op.v) || op.weight != 1.0) {
            return {FrameType::kApplyUpdatesAck,
                    EncodeApplyUpdatesAck({false, epoch_.load()}), false};
          }
          break;
      }
    }
  }
  for (const EdgeUpdate& op : msg.updates) graph_.Apply(op);
  auto snapshot = graph_.Commit();
  std::optional<double> lambda = msg.lambda;
  if (msg.incremental) {
    // Incremental epochs leave λ to the shared cross-epoch holder
    // (warm-started Lanczos), exactly like the in-process dynamic
    // workload driver.
    if (spectral_ == nullptr && reads_lambda_) spectral_ = MakeSharedSpectral();
    lambda = std::nullopt;
  } else if (!lambda.has_value() && reads_lambda_) {
    // Queries may be in flight: run Lanczos on this thread alone rather
    // than on a team that takes the service's cores (linalg/spectral.h).
    SpectralOptions spectral;
    spectral.threads = 1;
    lambda =
        ComputeSpectralBoundsT<UnitWeight>(*snapshot->graph, spectral).lambda;
  }
  std::future<bool> swapped = ApplyEpochUpdate<UnitWeight>(
      *service_, snapshot, lambda, msg.incremental,
      msg.incremental ? spectral_ : nullptr);
  const bool ok = swapped.get();
  if (ok) {
    epoch_.store(snapshot->epoch);
    num_nodes_.store(snapshot->graph->NumNodes());
    num_edges_.store(snapshot->graph->NumEdges());
  }
  return {FrameType::kApplyUpdatesAck,
          EncodeApplyUpdatesAck({ok, epoch_.load()}), false};
}

}  // namespace geer::net
