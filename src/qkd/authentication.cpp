#include "src/qkd/authentication.hpp"

#include <stdexcept>

namespace qkd::proto {
namespace {

qkd::crypto::WegmanCarterAuthenticator make_direction(
    const AuthenticationService::Config& config,
    const qkd::BitVector& shared_secret, std::size_t index) {
  const std::size_t per_direction = shared_secret.size() / 2;
  return qkd::crypto::WegmanCarterAuthenticator(
      {.tag_bits = config.tag_bits},
      shared_secret.slice(index * per_direction, per_direction));
}

}  // namespace

std::size_t AuthenticationService::required_secret_bits(const Config& config) {
  return 2 * qkd::crypto::WegmanCarterAuthenticator::key_bits(
                 {.tag_bits = config.tag_bits});
}

AuthenticationService::AuthenticationService(Config config,
                                             const qkd::BitVector& shared_secret,
                                             bool is_initiator)
    : config_(config),
      is_initiator_(is_initiator),
      send_auth_(make_direction(config, shared_secret, is_initiator ? 0 : 1)),
      recv_auth_(make_direction(config, shared_secret, is_initiator ? 1 : 0)) {
  if (shared_secret.size() < required_secret_bits(config))
    throw std::invalid_argument(
        "AuthenticationService: prepositioned secret too small");
}

bool AuthenticationService::open_batch(std::uint64_t frame_id) {
  // Both pools are checked before either is spent, so a refusal leaves
  // the two directions in step.
  const bool fresh = !open_.has_value() || frame_id > *open_;
  if (!fresh || !send_auth_.holds(frame_id) || !recv_auth_.holds(frame_id)) {
    ++stats_.stalls;
    return false;
  }
  send_auth_.reserve(frame_id);
  recv_auth_.reserve(frame_id);
  open_ = frame_id;
  return true;
}

Bytes AuthenticationService::tag(std::span<const std::uint8_t> transcript) {
  if (!open_.has_value())
    throw std::logic_error("AuthenticationService: no batch open");
  ++stats_.tagged;
  return send_auth_.tag_at(transcript, *open_)->to_bytes();
}

bool AuthenticationService::verify(std::span<const std::uint8_t> transcript,
                                   std::span<const std::uint8_t> tag) {
  const bool ok = open_.has_value() &&
                  transcript.size() <= kMaxTranscriptBytes &&
                  recv_auth_.tag_at(transcript, *open_)->to_bytes() ==
                      Bytes(tag.begin(), tag.end());
  ++(ok ? stats_.verified : stats_.rejected);
  return ok;
}

void AuthenticationService::replenish(const qkd::BitVector& bits) {
  // Split replenishment between the two directions. Both endpoints call this
  // with the same bits; the initiator's send pool must pair with the
  // responder's receive pool, so the halves swap with the role.
  const std::size_t half = bits.size() / 2;
  const qkd::BitVector first = bits.slice(0, half);
  const qkd::BitVector second = bits.slice(half, bits.size() - half);
  if (is_initiator_) {
    send_auth_.replenish(first);
    recv_auth_.replenish(second);
  } else {
    send_auth_.replenish(second);
    recv_auth_.replenish(first);
  }
  replenished_ += bits.size();
}

bool AuthenticationService::needs_replenishment() const {
  return pad_bits_available() < config_.low_water_bits;
}

std::size_t AuthenticationService::pad_bits_available() const {
  return send_auth_.pad_bits_available() + recv_auth_.pad_bits_available();
}

std::size_t AuthenticationService::pad_bits_consumed() const {
  return send_auth_.pad_bits_consumed() + recv_auth_.pad_bits_consumed();
}

}  // namespace qkd::proto
