// The parity dialogue of error correction, bound to the wire: Bob's
// corrector drives a ParityOracle whose every batch of queries becomes one
// real kParityRequest frame on a Transport, answered by one kParityResponse
// frame of packed parity bits from Alice's responder. In-process the two
// are colocated over one PublicChannel (the client's pump runs the server
// between send and receive); across processes each side holds only its
// half and the TCP socket sits in between — same frames either way.
//
// Parity frames travel UNAUTHENTICATED by design: Cascade asks hundreds
// of one-bit questions in dozens of exchanges per batch, and spending
// Wegman-Carter pad on each frame would eat the very key being distilled.
// Tampering with them corrupts the correction and is caught by the verify
// stage's hash exchange, which is the paper's containment for this
// surface. Lost or mangled frames are retransmitted; a persistently dead
// channel surfaces as ChannelLostError (-> AbortReason::kChannelLost).
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <stdexcept>

#include "src/qkd/ec.hpp"
#include "src/wire/packets.hpp"
#include "src/wire/transport.hpp"

namespace qkd::proto {

/// Sent-side wire accounting (messages and bytes PUT on the wire,
/// retransmits included — loss inflates these, visibly).
struct WireTraffic {
  std::size_t messages = 0;
  std::size_t bytes = 0;
};

/// Thrown when retransmission gives up on the classical channel; the
/// pipeline maps it to AbortReason::kChannelLost.
class ChannelLostError : public std::runtime_error {
 public:
  ChannelLostError() : std::runtime_error("wire: classical channel lost") {}
};

/// Alice's side: answers parity requests arriving on a transport against
/// her sifted bits. A retransmitted duplicate of the last request is
/// re-answered from cache so a lossy channel cannot inflate the disclosure
/// count the entropy estimate charges for. A request with any range
/// outside her string is malformed: it is dropped unanswered, and the
/// client's retransmissions run out as a lost channel.
class WireParityServer {
 public:
  explicit WireParityServer(const qkd::BitVector& bits) : oracle_(bits) {}

  /// Serves at most one pending request on `io` (receive, compute,
  /// respond). Returns false when nothing decodable was waiting;
  /// malformed frames are consumed and dropped (the client retransmits).
  bool serve_one(wire::Transport& io);

  /// Serves an already-received frame (two-process receive loops dispatch
  /// frames by type and hand parity requests here); the response goes out
  /// on `io`. Returns false if the frame is not a valid parity request.
  bool serve_frame(wire::Transport& io, const wire::Frame& frame);

  /// Distinct parity bits disclosed (the `d` of the entropy estimate).
  std::size_t disclosed() const { return oracle_.disclosed(); }

  const WireTraffic& traffic() const { return traffic_; }

 private:
  LocalParityOracle oracle_;
  std::optional<wire::ParityRequest> last_request_;
  Bytes last_response_;  // framed
  WireTraffic traffic_;
};

/// Bob's side: a ParityOracle that ships each batch as one request frame
/// (or several, past ParityRequest::kMaxQueries) and blocks on the
/// response, retransmitting through loss. `pump` (in-process runs only) is
/// invoked between send and receive to let the colocated WireParityServer
/// take its turn.
class WireParityClient final : public ParityOracle {
 public:
  static constexpr int kMaxAttempts = 12;

  explicit WireParityClient(wire::Transport& io,
                            std::function<void()> pump = {})
      : io_(io), pump_(std::move(pump)) {}

  /// Throws ChannelLostError after kMaxAttempts fruitless retransmits of
  /// one request.
  qkd::BitVector parities(std::span<const ParityQuery> queries) override;

  const WireTraffic& traffic() const { return traffic_; }

  /// Distinct parity questions asked (retransmits excluded) — Bob's side
  /// of the disclosure count the entropy estimate charges for, mirroring
  /// the server's oracle_.disclosed().
  std::size_t queries() const { return queries_; }

 private:
  qkd::BitVector exchange(std::span<const ParityQuery> queries);

  wire::Transport& io_;
  std::function<void()> pump_;
  WireTraffic traffic_;
  std::size_t queries_ = 0;
};

}  // namespace qkd::proto
