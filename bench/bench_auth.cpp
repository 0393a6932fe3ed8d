// E15 (Sec. 5, Appendix): Wegman-Carter authentication economics.
//
// "The drawback is that the secret key bits cannot be re-used even once on
// different data without compromising the security. Fortunately, a complete
// authenticated conversation can validate a large number of new, shared
// secret bits from QKD, and a small number of these may be used to
// replenish the pool." Measures pad consumption against replenishment and
// the forgery rejection rate, plus the exhaustion DoS.
#include <benchmark/benchmark.h>

#include <cmath>

#include "bench/bench_util.hpp"
#include "src/common/rng.hpp"
#include "src/qkd/authentication.hpp"

namespace {

using namespace qkd::proto;
using qkd::Bytes;
using qkd::put_u64;

void print_table() {
  qkd::bench::heading("E15", "Sec. 5: authentication pad economics");

  qkd::bench::row("pad cost per authenticated control message (tag bits):");
  qkd::bench::row("%10s %16s %22s", "tag bits", "forgery prob",
                  "msgs per 1024-bit Qblock");
  for (unsigned tag_bits : {32u, 64u, 96u}) {
    qkd::bench::row("%10u %16.2e %22.0f", tag_bits,
                    std::pow(2.0, -static_cast<double>(tag_bits)),
                    1024.0 / tag_bits);
  }

  qkd::bench::row("");
  qkd::bench::row("sustainability: a batch's control traffic costs ~7 tags; "
                  "with 32-bit tags that is 224 pad bits against a 192-bit "
                  "replenishment plus the prepositioned reserve");

  // Exhaustion DoS: force tags until the pool dies.
  AuthenticationService::Config config;
  config.tag_bits = 64;
  qkd::Rng rng(5);
  const auto secret = rng.next_bits(
      AuthenticationService::required_secret_bits(config) + 64 * 64);
  AuthenticationService auth(config, secret, true);
  std::size_t tags_until_exhaustion = 0;
  while (auth.protect(Bytes{1, 2, 3}).has_value()) ++tags_until_exhaustion;
  qkd::bench::row("");
  qkd::bench::row("exhaustion DoS: %zu tags issued before the pool died "
                  "(then: %zu stalls, needs_replenishment=%s)",
                  tags_until_exhaustion, auth.stats().stalls,
                  auth.needs_replenishment() ? "true" : "false");

  // Forgery rejection.
  qkd::Rng forgery_rng(7);
  AuthenticationService::Config small;
  small.tag_bits = 16;  // measurable forgery probability
  int accepted = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    const auto fresh_secret = forgery_rng.next_bits(
        AuthenticationService::required_secret_bits(small) + 256);
    AuthenticationService victim(small, fresh_secret, false);
    Bytes forged;
    put_u64(forged, 0);               // guessed sequence number
    forged.push_back(0x42);           // payload
    for (int b = 0; b < 2; ++b)       // guessed 16-bit tag
      forged.push_back(static_cast<std::uint8_t>(forgery_rng.next_u64()));
    accepted += victim.verify(forged).has_value();
  }
  qkd::bench::row("");
  qkd::bench::row("forgery acceptance with 16-bit tags: %d / %d "
                  "(theory: %.1f expected)",
                  accepted, trials, trials / 65536.0);
}

void bm_protect_verify(benchmark::State& state) {
  AuthenticationService::Config config;
  config.tag_bits = 64;
  qkd::Rng rng(11);
  const auto secret = rng.next_bits(
      AuthenticationService::required_secret_bits(config) + (1 << 22));
  AuthenticationService alice(config, secret, true);
  AuthenticationService bob(config, secret, false);
  const Bytes message(256, 0x5a);
  for (auto _ : state) {
    const auto framed = alice.protect(message);
    benchmark::DoNotOptimize(bob.verify(*framed));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_protect_verify);

// Args: message bits, tag bits. The last shape is a sift announce's tag
// (5,766 bytes under a 32-bit tag), the largest hash on the key path.
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
