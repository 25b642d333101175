// Typed messages riding inside net/frame.h payloads, with their
// (de)serializers. Every encoder appends to a byte vector using the
// little-endian primitives of serve/service_api.h; every decoder
// consumes a payload span and returns false on truncation, trailing
// garbage, or out-of-range enum values — it never throws and never
// aborts, whatever the bytes (the codec fuzz suite feeds it prefixes,
// suffixes and random garbage of every message).
//
// Query payloads are the transport-neutral ServiceRequest /
// ServiceResponse PODs from serve/service_api.h (shared with in-process
// callers); this header adds the control-plane messages: the version
// handshake, Flush, ApplyUpdates (edge updates + coordinated epoch
// swap) and Shutdown.

#ifndef GEER_NET_CODEC_H_
#define GEER_NET_CODEC_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dyn/dynamic_graph.h"
#include "obs/stats.h"
#include "serve/service_api.h"

namespace geer::net {

/// kHelloAck payload: what a client learns about the deployment it just
/// connected to. A shard server reports its own replica; the router
/// reports the aggregate (num_shards > 1) — same n/m on every shard,
/// since shards are full replicas partitioned by ownership (see
/// net/partition.h).
struct HelloAckMsg {
  std::uint32_t num_nodes = 0;
  std::uint64_t num_edges = 0;
  std::uint64_t epoch = 0;       ///< currently served graph epoch
  std::uint32_t num_shards = 1;  ///< 1 for a shard server
};

/// kApplyUpdates payload: one update batch to apply + commit + swap.
/// The receiving shard applies the updates to its dynamic-graph
/// replica, commits (publishing the next epoch) and swaps the epoch
/// into its QueryService with the usual submission-barrier semantics;
/// the router broadcasts the SAME message to every shard and only acks
/// once all shards acked (see net/router.h for the cross-shard
/// barrier).
struct ApplyUpdatesMsg {
  /// Opt into GraphEpoch::incremental maintenance on the shard (answers
  /// may then drift within the documented tolerances; leave false for
  /// the strict bit-identity contract).
  bool incremental = false;
  /// Precomputed λ for the post-update graph; absent = each shard
  /// re-derives it deterministically.
  std::optional<double> lambda;
  std::vector<EdgeUpdate> updates;
};

/// kApplyUpdatesAck payload.
struct ApplyUpdatesAckMsg {
  bool ok = false;         ///< every worker (every shard) swapped
  std::uint64_t epoch = 0; ///< epoch now served (valid when ok)
};

/// kStats payload: scrape request. `prefix` filters metric names by
/// leading match ("" = everything).
struct StatsRequestMsg {
  std::string prefix;
};

/// kStatsReply payload: one shard's ServeMetrics snapshot or the
/// bucket-wise merge across every shard (router). The histogram bucket
/// scheme is stamped on the wire (obs::kHistogramSchemeId) so a future
/// re-bucketing surfaces as a decode failure, never a silently wrong
/// merged quantile.
struct StatsReplyMsg {
  obs::StatsSnapshot snapshot;
  std::uint32_t num_shards = 1;  ///< snapshots merged into this reply
};

/// kError payload: machine code + human-readable message.
struct ErrorMsg {
  enum Code : std::uint16_t {
    kBadRequest = 1,   ///< undecodable payload
    kUnknownType = 2,  ///< unrecognized frame type
    kOutOfRange = 3,   ///< query endpoint >= num_nodes
    kUpstream = 4,     ///< router: a shard connection failed
    kInternal = 5,
  };
  std::uint16_t code = kInternal;
  std::string message;
};

// Encoders: message -> payload bytes.
std::vector<std::uint8_t> EncodeHelloAck(const HelloAckMsg& msg);
std::vector<std::uint8_t> EncodeApplyUpdates(const ApplyUpdatesMsg& msg);
std::vector<std::uint8_t> EncodeApplyUpdatesAck(const ApplyUpdatesAckMsg& msg);
std::vector<std::uint8_t> EncodeError(const ErrorMsg& msg);
std::vector<std::uint8_t> EncodeStatsRequest(const StatsRequestMsg& msg);
std::vector<std::uint8_t> EncodeStatsReply(const StatsReplyMsg& msg);

// Decoders: payload bytes -> message; false on any malformation.
// Strict-length: trailing bytes after the message are rejected (a
// well-formed peer never pads).
bool DecodeHelloAck(std::span<const std::uint8_t> payload, HelloAckMsg* out);
bool DecodeApplyUpdates(std::span<const std::uint8_t> payload,
                        ApplyUpdatesMsg* out);
bool DecodeApplyUpdatesAck(std::span<const std::uint8_t> payload,
                           ApplyUpdatesAckMsg* out);
bool DecodeError(std::span<const std::uint8_t> payload, ErrorMsg* out);
bool DecodeStatsRequest(std::span<const std::uint8_t> payload,
                        StatsRequestMsg* out);
bool DecodeStatsReply(std::span<const std::uint8_t> payload,
                      StatsReplyMsg* out);

// ServiceRequest / ServiceResponse payloads (strict-length wrappers over
// the PODs' own ParseFrom).
std::vector<std::uint8_t> EncodeServiceRequest(const ServiceRequest& msg);
std::vector<std::uint8_t> EncodeServiceResponse(const ServiceResponse& msg);
bool DecodeServiceRequest(std::span<const std::uint8_t> payload,
                          ServiceRequest* out);
bool DecodeServiceResponse(std::span<const std::uint8_t> payload,
                           ServiceResponse* out);

}  // namespace geer::net

#endif  // GEER_NET_CODEC_H_
