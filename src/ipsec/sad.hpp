// Security Association Database (RFC 2401, Fig. 10).
//
// Each SA carries the negotiated keys, sequence counters, the anti-replay
// window, and the lifetime counters that drive rollover ("Every time the
// lifetime expires, a new security association must be negotiated ... This
// is sometimes termed 'key rollover'").
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>

#include "src/common/bitvector.hpp"
#include "src/common/bytes.hpp"
#include "src/common/sim_clock.hpp"
#include "src/ipsec/spd.hpp"

namespace qkd::ipsec {

/// An SA's keys expanded for ESP (src/ipsec/esp.cpp).
struct EspKeySchedule;

struct SecurityAssociation {
  std::uint32_t spi = 0;
  CipherAlgo cipher = CipherAlgo::kAes128;
  QkdMode qkd_mode = QkdMode::kHybrid;

  Bytes encryption_key;            // empty for OTP
  Bytes authentication_key;        // HMAC-SHA1 key (20 bytes)
  qkd::BitVector otp_pool;         // pre-shared pad bits (OTP SAs)
  std::size_t otp_cursor = 0;      // consumed pad bits

  // The cipher's key schedule and the keyed HMAC, built by ESP from the
  // keys above on first use and rebuilt whenever they differ from the
  // bytes it was built from; copies share it.
  std::shared_ptr<const EspKeySchedule> key_schedule;

  // Outbound state.
  std::uint64_t send_seq = 0;

  // Inbound anti-replay (RFC 2401-style 64-entry sliding window).
  std::uint64_t replay_highest = 0;
  std::uint64_t replay_window = 0;

  // Lifetime accounting.
  qkd::SimTime established_at = 0;
  double lifetime_seconds = 60.0;
  std::uint64_t lifetime_bytes = 0;  // 0 = unlimited
  std::uint64_t bytes_protected = 0;

  bool expired(qkd::SimTime now) const;
  /// The instant the time-based lifetime runs out, or nullopt for SAs
  /// limited only by bytes (their expiry has no schedulable time).
  std::optional<qkd::SimTime> expires_at() const;
  std::size_t otp_bits_available() const {
    return otp_pool.size() - otp_cursor;
  }

  /// Anti-replay acceptance check + window update; returns false on replay
  /// or stale sequence number.
  bool replay_check_and_update(std::uint64_t seq);
};

class SecurityAssociationDatabase {
 public:
  /// Installs an SA (inbound or outbound); replaces any SA with equal SPI.
  void install(SecurityAssociation sa);

  SecurityAssociation* find(std::uint32_t spi);
  const SecurityAssociation* find(std::uint32_t spi) const;

  void remove(std::uint32_t spi);

  /// Expires (removes) all SAs past their lifetime; returns the SPIs removed.
  std::vector<std::uint32_t> expire(qkd::SimTime now);

  /// Earliest time-based expiry across installed SAs — the rollover deadline
  /// an event-driven driver schedules its next wakeup at. nullopt when no SA
  /// has a time lifetime.
  std::optional<qkd::SimTime> next_expiry() const;

  std::size_t size() const { return by_spi_.size(); }

 private:
  std::map<std::uint32_t, SecurityAssociation> by_spi_;
};

}  // namespace qkd::ipsec
