#include "src/qkd/wire_link.hpp"

#include <algorithm>
#include <utility>

namespace qkd::proto {

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
    for (const auto& q : request.value.queries)
      queries.push_back({static_cast<ParityQuery::Kind>(q.kind), q.seed,
                         q.begin, q.end});
    auto parities = oracle_.answer(queries);
    if (!parities.has_value()) return false;
    wire::ParityResponse response;
    response.parities = std::move(*parities);
    last_response_ = wire::to_checked_frame(response);
    last_request_ = std::move(request.value);
  }
  io.send_frame(last_response_);
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
  wire::ParityRequest request;
  request.queries.reserve(queries.size());
  for (const ParityQuery& q : queries)
    request.queries.push_back(
        {static_cast<std::uint8_t>(q.kind), q.seed, q.begin, q.end});
  const Bytes framed = wire::to_checked_frame(request);
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    io_.send_frame(framed);
    if (pump_) pump_();
    const auto raw = io_.recv_frame();
    if (!raw.has_value()) continue;  // lost in either direction
    const auto frame = wire::decode_checked_frame(*raw);
    if (!frame.ok() || frame.value.type != wire::PacketType::kParityResponse)
      continue;  // damaged or out of place: retransmit
    auto response = wire::ParityResponse::decode(frame.value.payload);
    if (!response.ok() || response.value.parities.size() != queries.size())
      continue;
    return std::move(response.value.parities);
  }
  throw ChannelLostError();
}

void StageHalf::promise_type::unhandled_exception() {
  try {
    throw;
  } catch (const StageEnd& end) {
    reason = end.reason;
  } catch (...) {
    error = std::current_exception();
  }
}

void StageHalf::resume() {
  handle_.resume();
  if (handle_.promise().error)
    std::rethrow_exception(std::exchange(handle_.promise().error, {}));
}

void Transcript::record(std::span<const std::uint8_t> frame) {
  if (frame.size() > 3 &&
      frame[3] == static_cast<std::uint8_t>(wire::PacketType::kTranscriptTag))
    return;
  const std::span<const std::uint8_t> last =
      std::span<const std::uint8_t>(bytes_).subspan(last_);
  if (!bytes_.empty() && std::ranges::equal(frame, last)) return;
  last_ = bytes_.size();
  bytes_.insert(bytes_.end(), frame.begin(), frame.end());
}

void DialogueWire::pair(DialogueWire& a, DialogueWire& b) {
  a.peer_ = &b;
  b.peer_ = &a;
}

bool DialogueWire::send_frame(const Bytes& frame) {
  last_ = frame;
  sends_of_last_ = 1;
  sent_last_ = true;
  if (peer_ != nullptr) peer_->sent_last_ = false;
  ++traffic_.messages;
  traffic_.bytes += frame.size();
  sent_.record(frame);
  return io_.send_frame(frame);
}

std::optional<Bytes> DialogueWire::recv_frame() {
  if (held_) return std::exchange(held_, std::nullopt);
  while (auto raw = io_.recv_frame()) {
    if (!wire::checksum_ok(*raw)) continue;  // damaged: as good as lost
    received_.record(*raw);
    return raw;
  }
  return std::nullopt;
}

bool DialogueWire::next_is(wire::PacketType type) {
  auto raw = recv_frame();
  if (!raw.has_value()) return false;
  const auto frame = wire::decode_checksummed_frame(*raw);
  if (frame.ok() && frame.value.type == type) return true;
  held_ = std::move(raw);
  return false;
}

bool DialogueWire::resend() {
  if (sends_of_last_ == 0 || sends_of_last_ >= kMaxSendAttempts) return false;
  ++sends_of_last_;
  ++traffic_.messages;
  traffic_.bytes += last_.size();
  io_.send_frame(last_);
  return true;
}

AbortReason DialogueWire::abort(AbortReason reason) {
  wire::AbortPacket notice;
  notice.reason = static_cast<std::uint8_t>(reason);
  send_frame(wire::to_checked_frame(notice));
  return reason;
}

bool DialogueWire::poll() {
  if (waiter_ == nullptr || !poll(*waiter_)) return false;
  waiter_ = nullptr;
  return true;
}

bool DialogueWire::poll(Waiter& waiter) {
  for (;;) {
    const auto raw = recv_frame();
    if (!raw.has_value()) {
      if (io_.last_error() == wire::WireError::kNone) return false;  // drained
      waiter.reason = AbortReason::kChannelLost;
      return true;
    }
    const auto frame = wire::decode_checksummed_frame(*raw);
    if (!frame.ok()) continue;  // malformed: not a frame its sender sent
    if (frame.value.type == wire::PacketType::kAbort) {
      const auto notice = wire::AbortPacket::decode(frame.value.payload);
      const bool known = notice.ok() && notice.value.reason > 0 &&
                         notice.value.reason < kAbortReasonCount;
      waiter.reason = known ? static_cast<AbortReason>(notice.value.reason)
                            : AbortReason::kChannelLost;
      waiter.noticed = true;
      return true;
    }
    if (waiter.accept(frame.value)) return true;
  }
}

AbortReason interleave(StageHalf& alice, DialogueWire& alice_wire,
                       StageHalf& bob, DialogueWire& bob_wire) {
  // A half moves when the frame it waits for has arrived, or when it has
  // just sent one; the first kind goes first, so every frame is taken
  // before its sender sends the next.
  const auto take = [](StageHalf& half, DialogueWire& wire) {
    if (half.done() || !wire.poll()) return false;
    half.resume();
    return true;
  };
  const auto go_on = [](StageHalf& half, DialogueWire& wire) {
    if (half.done() || wire.waiting()) return false;
    half.resume();
    return true;
  };
  bob_wire.pump = [&] { take(alice, alice_wire); };
  alice.resume();
  bob.resume();
  AbortReason reason = AbortReason::kNone;
  while (!alice.done() || !bob.done()) {
    if (take(alice, alice_wire) || take(bob, bob_wire) ||
        go_on(alice, alice_wire) || go_on(bob, bob_wire))
      continue;
    // Both wait on frames that are not coming: the last one sent was lost
    // or mangled on its way.
    DialogueWire& last = alice_wire.sent_last() ? alice_wire : bob_wire;
    if (!last.resend()) {
      reason = alice_wire.abort(AbortReason::kChannelLost);
      break;
    }
  }
  bob_wire.pump = nullptr;
  if (reason != AbortReason::kNone) return reason;
  return alice.reason() != AbortReason::kNone ? alice.reason() : bob.reason();
}

AbortReason run_alone(StageHalf& half, DialogueWire& wire) {
  half.resume();
  while (!half.done()) {
    if (wire.waiting() && !wire.poll()) return AbortReason::kChannelLost;
    half.resume();
  }
  return half.reason();
}

}  // namespace qkd::proto
