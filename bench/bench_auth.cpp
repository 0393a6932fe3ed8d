// E15 (Sec. 5, Appendix): Wegman-Carter authentication economics.
//
// "The drawback is that the secret key bits cannot be re-used even once on
// different data without compromising the security. Fortunately, a complete
// authenticated conversation can validate a large number of new, shared
// secret bits from QKD, and a small number of these may be used to
// replenish the pool." Measures what a batch spends on its two transcript
// tags against what it repays, the forgery bound at the transcript lengths
// a link produces, the forgery rejection rate, and the exhaustion DoS;
// times the transcript hash and the frame checksum beside toeplitz_hash.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>

#include "bench/bench_util.hpp"
#include "src/common/rng.hpp"
#include "src/crypto/crc32c.hpp"
#include "src/crypto/universal_hash.hpp"
#include "src/qkd/authentication.hpp"
#include "src/qkd/engine.hpp"

namespace {

using namespace qkd::proto;
using qkd::Bytes;

/// Forgery bound of one tag of `tag_bits` on a transcript of `bytes`.
double forgery_bound(unsigned tag_bits, double bytes) {
  const double blocks = std::ceil(bytes / 8.0);
  return std::pow(2.0, -static_cast<double>(tag_bits)) +
         (blocks + 1.0) * std::pow(2.0, -64.0);
}

void print_table() {
  qkd::bench::heading("E15", "Sec. 5: authentication pad economics");

  // A 10 km link at the default configuration: every batch opens one
  // 32-bit slot per direction, and each accepted batch repays what has
  // been spent since the last one.
  constexpr int kBatches = 40;
  QkdLinkSession session(QkdLinkConfig{}, 2003);
  std::size_t longest = 0, bytes = 0, net_bits = 0;
  for (int i = 0; i < kBatches; ++i) {
    const BatchResult batch = session.run_batch();
    longest = std::max(longest, batch.control_bytes);
    bytes += batch.control_bytes;
    net_bits += batch.distilled_bits;
  }
  const AuthenticationService& auth = session.alice_auth();
  const std::size_t accepted = session.totals().accepted_batches;
  const std::size_t repaid = auth.pad_bits_consumed() - auth.pad_bits_owed();
  qkd::bench::row("measured, 10 km, %d batches (%zu accepted):", kBatches,
                  accepted);
  qkd::bench::row("  pad spent per batch            %8.1f bits",
                  static_cast<double>(auth.pad_bits_consumed()) / kBatches);
  qkd::bench::row("  repaid per accepted batch      %8.1f bits",
                  static_cast<double>(repaid) /
                      static_cast<double>(std::max<std::size_t>(accepted, 1)));
  qkd::bench::row("  net key per accepted batch     %8.1f bits",
                  static_cast<double>(net_bits) /
                      static_cast<double>(std::max<std::size_t>(accepted, 1)));
  qkd::bench::row("  pad balance after the run      %8zu bits (runway %zu)",
                  auth.pad_bits_available(),
                  QkdLinkConfig{}.preposition_extra_bits);

  // Each direction's transcript is about half the batch's control bytes.
  qkd::bench::row("");
  qkd::bench::row("forgery bound per batch, 2^-32 + (L+1) 2^-64 for L blocks:");
  qkd::bench::row("%34s %12s %12s", "transcript", "bytes", "bound");
  qkd::bench::row("%34s %12.0f %12.3e", "mean direction, measured",
                  static_cast<double>(bytes) / (2.0 * kBatches),
                  forgery_bound(32, static_cast<double>(bytes) /
                                        (2.0 * kBatches)));
  qkd::bench::row("%34s %12zu %12.3e", "longest batch, both directions",
                  longest, forgery_bound(32, static_cast<double>(longest)));
  qkd::bench::row(
      "%34s %12zu %12.3e", "longest admitted (kMaxTranscriptBytes)",
      AuthenticationService::kMaxTranscriptBytes,
      forgery_bound(32, static_cast<double>(
                            AuthenticationService::kMaxTranscriptBytes)));

  // Exhaustion DoS: open batches until the pool dies.
  AuthenticationService::Config config;
  qkd::Rng rng(5);
  const auto secret = rng.next_bits(
      AuthenticationService::required_secret_bits(config) + 64 * 64);
  AuthenticationService starved(config, secret, true);
  std::uint64_t opened = 0;
  while (starved.open_batch(opened)) ++opened;
  qkd::bench::row("");
  qkd::bench::row("exhaustion DoS: %llu batches opened on 4096 pad bits "
                  "before the pool died (then: %zu stalls, "
                  "needs_replenishment=%s)",
                  static_cast<unsigned long long>(opened),
                  starved.stats().stalls,
                  starved.needs_replenishment() ? "true" : "false");

  // Forgery rejection.
  qkd::Rng forgery_rng(7);
  AuthenticationService::Config small;
  small.tag_bits = 16;  // measurable forgery probability
  int forged = 0;
  const int trials = 20000;
  const Bytes transcript = {0x42};
  for (int i = 0; i < trials; ++i) {
    const auto fresh_secret = forgery_rng.next_bits(
        AuthenticationService::required_secret_bits(small) + 256);
    AuthenticationService victim(small, fresh_secret, false);
    victim.open_batch(0);
    Bytes guess(2);
    for (auto& b : guess)
      b = static_cast<std::uint8_t>(forgery_rng.next_u64());
    forged += victim.verify(transcript, guess);
  }
  qkd::bench::row("");
  qkd::bench::row("forgery acceptance with 16-bit tags: %d / %d "
                  "(theory: %.1f expected)",
                  forged, trials, trials / 65536.0);
}

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  qkd::Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u32());
  return out;
}

// One direction of a batch's authentication: both ends open the pads,
// one tags the transcript, the other verifies it, and both repay the 64
// bits spent. Arg: transcript bytes (11,534 is the mean per direction of
// a traced keybench distill run).
void bm_transcript_tag(benchmark::State& state) {
  AuthenticationService::Config config;
  qkd::Rng rng(11);
  const auto secret = rng.next_bits(
      AuthenticationService::required_secret_bits(config) + 8192);
  AuthenticationService alice(config, secret, true);
  AuthenticationService bob(config, secret, false);
  const Bytes transcript =
      random_bytes(static_cast<std::size_t>(state.range(0)), 12);
  const qkd::BitVector repayment = rng.next_bits(64);
  std::uint64_t frame_id = 0;
  for (auto _ : state) {
    alice.open_batch(frame_id);
    bob.open_batch(frame_id++);
    benchmark::DoNotOptimize(bob.verify(transcript, alice.tag(transcript)));
    alice.replenish(repayment);
    bob.replenish(repayment);
  }
  state.SetBytesProcessed(state.range(0) * state.iterations());
}
BENCHMARK(bm_transcript_tag)->Arg(11534);

// Args: message bytes. The middle shape is a sift announce (5,766 bytes).
template <std::uint64_t (*Hash)(std::uint64_t, std::span<const std::uint8_t>)>
void bm_poly_hash64(benchmark::State& state) {
  const Bytes message =
      random_bytes(static_cast<std::size_t>(state.range(0)), 13);
  std::uint64_t key = 0x9E3779B97F4A7C15ull;
  for (auto _ : state) {
    key = Hash(key, message) | 1;
    benchmark::DoNotOptimize(key);
  }
  state.SetBytesProcessed(state.range(0) * state.iterations());
}
BENCHMARK(bm_poly_hash64<qkd::crypto::detail::poly_hash64_portable>)
    ->Name("bm_poly_hash64/portable")
    ->Arg(64)
    ->Arg(5766)
    ->Arg(11534);
BENCHMARK(bm_poly_hash64<qkd::crypto::poly_hash64>)
    ->Name("bm_poly_hash64/dispatched")
    ->Arg(64)
    ->Arg(5766)
    ->Arg(11534);

// Args: frame bytes. 64 is a typical parity frame, 5,766 a sift announce.
template <std::uint32_t (*Crc)(std::span<const std::uint8_t>)>
void bm_crc32c(benchmark::State& state) {
  const Bytes frame = random_bytes(static_cast<std::size_t>(state.range(0)), 14);
  for (auto _ : state) benchmark::DoNotOptimize(Crc(frame));
  state.SetBytesProcessed(state.range(0) * state.iterations());
}
BENCHMARK(bm_crc32c<qkd::crypto::detail::crc32c_portable>)
    ->Name("bm_crc32c/portable")
    ->Arg(64)
    ->Arg(5766);
BENCHMARK(bm_crc32c<qkd::crypto::crc32c>)
    ->Name("bm_crc32c/dispatched")
    ->Arg(64)
    ->Arg(5766);

// Args: message bits, tag bits. The last shape is a sift announce under a
// 32-bit tag, the largest hash the per-message seals made on the key path;
// the transcript hash above replaces it.
void bm_toeplitz_hash(benchmark::State& state) {
  qkd::Rng rng(13);
  const std::size_t msg_bits = static_cast<std::size_t>(state.range(0));
  const auto tag_bits = static_cast<unsigned>(state.range(1));
  const auto key = rng.next_bits(tag_bits + msg_bits - 1);
  const auto message = rng.next_bits(msg_bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        qkd::crypto::toeplitz_hash(key, message, tag_bits));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(msg_bits / 8) *
                          state.iterations());
}
BENCHMARK(bm_toeplitz_hash)
    ->Args({1 << 10, 64})
    ->Args({1 << 15, 64})
    ->Args({46128, 32});

}  // namespace

int main(int argc, char** argv) {
  qkd::bench::stamp_context();
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
