// CPU probes for the crypto kernels' hardware paths.
//
// toeplitz_hash, poly_hash64 and clmul have a PCLMULQDQ path, Sha1 a
// SHA-NI path, Aes an AES-NI path and crc32c an SSE4.2 path, each
// compiled with a per-function target attribute
// and chosen at run time from CPUID; there is no build flag or option.
// Each probe runs once, in a function-local static, because a
// namespace-scope initializer can run before libgcc's own CPU probe has
// filled in what __builtin_cpu_supports reads. Other targets build the
// portable kernels only.
#pragma once

namespace qkd::crypto::detail {

#if defined(__x86_64__)
/// PCLMULQDQ: the 64 x 64 -> 128-bit carry-less multiply.
inline bool cpu_has_pclmul() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") != 0;
  }();
  return has;
}

/// The SHA-1 rounds of the SHA extensions, plus the SSSE3 byte shuffle and
/// SSE4.1 lane extract the kernel uses around them.
inline bool cpu_has_sha_ni() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") && __builtin_cpu_supports("ssse3") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return has;
}

/// AES-NI: one AES round per `aesenc` / `aesdec`.
inline bool cpu_has_aes() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("aes") != 0;
  }();
  return has;
}

/// SSE4.2: the `crc32` instruction, CRC-32C eight bytes at a time.
inline bool cpu_has_sse42() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return has;
}
#endif

}  // namespace qkd::crypto::detail
