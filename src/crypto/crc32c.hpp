// CRC-32C (Castagnoli), the checksum on every frame of the distillation
// dialogue (src/wire/frame.hpp).
//
// It is not authentication: anyone can recompute it. It tells noise from
// data, so that a frame the channel damaged is dropped and sent again
// instead of reaching a stage, and the transcript tags (src/qkd/
// authentication.hpp) are left to catch what an adversary changes.
// Reflected polynomial 0x82F63B78, initial value and final XOR 0xFFFFFFFF,
// as in iSCSI (RFC 3720) and SCTP; crc32c("123456789") == 0xE3069283.
#pragma once

#include <cstdint>
#include <span>

namespace qkd::crypto {

/// CRC-32C of `data`. Runs the SSE4.2 `crc32` kernel where the CPU has it,
/// the portable one elsewhere; both give the same value.
std::uint32_t crc32c(std::span<const std::uint8_t> data);

namespace detail {
/// The two kernels crc32c chooses between, for the tests that hold them
/// equal. The portable one folds eight bytes a step through eight
/// 256-entry tables (slicing-by-8).
std::uint32_t crc32c_portable(std::span<const std::uint8_t> data);
#if defined(__x86_64__)
/// Eight bytes per `crc32` instruction; needs cpu_has_sse42().
std::uint32_t crc32c_sse42(std::span<const std::uint8_t> data);
#endif
}  // namespace detail

}  // namespace qkd::crypto
