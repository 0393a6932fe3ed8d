#include "src/qkd/wire_link.hpp"

#include <algorithm>

namespace qkd::proto {

bool WireParityServer::serve_one(wire::Transport& io) {
  const auto raw = io.recv_frame();
  if (!raw.has_value()) return false;
  const auto frame = wire::decode_frame(*raw);
  if (!frame.ok()) return false;
  return serve_frame(io, frame.value);
}

bool WireParityServer::serve_frame(wire::Transport& io,
                                   const wire::Frame& frame) {
  if (frame.type != wire::PacketType::kParityRequest) return false;
  auto request = wire::ParityRequest::decode(frame.payload);
  if (!request.ok()) return false;

  // A retransmitted duplicate re-answers from cache: the same parity bits
  // said twice are one disclosure, not two.
  if (last_request_ != request.value) {
    std::vector<ParityQuery> queries;
    queries.reserve(request.value.queries.size());
    for (const auto& q : request.value.queries) {
      queries.push_back({static_cast<ParityQuery::Kind>(q.kind), q.seed,
                         q.begin, q.end});
      if (!oracle_.in_range(queries.back())) return false;
    }
    wire::ParityResponse response;
    response.parities = oracle_.parities(queries);
    last_response_ = wire::to_frame(response);
    last_request_ = std::move(request.value);
  }
  io.send_frame(last_response_);
  ++traffic_.messages;
  traffic_.bytes += last_response_.size();
  return true;
}

qkd::BitVector WireParityClient::parities(
    std::span<const ParityQuery> queries) {
  qkd::BitVector answers;
  for (std::size_t at = 0; at < queries.size();) {
    const std::size_t count = std::min(wire::ParityRequest::kMaxQueries,
                                       queries.size() - at);
    qkd::BitVector part = exchange(queries.subspan(at, count));
    if (at == 0)
      answers = std::move(part);
    else
      answers.append(part);
    at += count;
  }
  return answers;
}

qkd::BitVector WireParityClient::exchange(
    std::span<const ParityQuery> queries) {
  queries_ += queries.size();
  wire::ParityRequest request;
  request.queries.reserve(queries.size());
  for (const ParityQuery& q : queries)
    request.queries.push_back(
        {static_cast<std::uint8_t>(q.kind), q.seed, q.begin, q.end});
  const Bytes framed = wire::to_frame(request);
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    io_.send_frame(framed);
    ++traffic_.messages;
    traffic_.bytes += framed.size();
    if (pump_) pump_();
    const auto raw = io_.recv_frame();
    if (!raw.has_value()) continue;  // lost in either direction
    const auto frame = wire::decode_frame(*raw);
    if (!frame.ok() || frame.value.type != wire::PacketType::kParityResponse)
      continue;  // corrupted: retransmit, verify will audit the result
    auto response = wire::ParityResponse::decode(frame.value.payload);
    if (!response.ok() || response.value.parities.size() != queries.size())
      continue;
    return std::move(response.value.parities);
  }
  throw ChannelLostError();
}

}  // namespace qkd::proto
