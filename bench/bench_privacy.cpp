// E7 (Sec. 5): privacy amplification over GF(2^n) — "a linear hash function
// over the Galois Field GF[2^n] where n is the number of bits as input,
// rounded up to a multiple of 32".
//
// Regenerates the mechanics (four announced parameters, truncation to m
// bits, both sides agreeing) and times the field arithmetic across the
// width ladder. Inputs 955, 1380 and 1900 bits are keybench distill's
// operating points (fields n = 1024, 1536 and 2048). The SHA-1 block and
// Drbg::generate(576) rows time the hash-DRBG that draws each batch's
// sample, PA parameters and pad runway.
#include <benchmark/benchmark.h>

#include "bench/bench_util.hpp"
#include "src/common/rng.hpp"
#include "src/crypto/drbg.hpp"
#include "src/crypto/sha1.hpp"
#include "src/qkd/privacy.hpp"

namespace {

using namespace qkd::proto;

void print_table() {
  qkd::bench::heading("E7", "Sec. 5: privacy amplification over GF(2^n)");
  qkd::bench::row("%10s %10s %10s %16s %18s", "input bits", "field n",
                  "out m", "params (bytes)", "sides agree?");
  qkd::Rng rng(1);
  qkd::crypto::Drbg drbg(1u);
  for (std::size_t input : {100u, 500u, 955u, 1380u, 1500u, 1900u, 3000u,
                            4000u}) {
    const std::size_t m = input * 2 / 3;
    const qkd::wire::PaParamsPacket params = make_pa_params(input, m, drbg);
    const qkd::BitVector bits = rng.next_bits(input);
    const auto alice = privacy_amplify(bits, params);
    const auto bob = privacy_amplify(bits, params);
    qkd::bench::row("%10zu %10u %10u %16zu %18s", input, params.n, params.m,
                    params.encode().size(),
                    alice == bob ? "yes" : "NO (BUG)");
  }
  qkd::bench::row("");
  qkd::bench::row("the announced modulus is sparse (<=5 terms), e.g. n=1536:");
  const auto poly = qkd::crypto::irreducible_poly(1536);
  std::string terms;
  for (unsigned e : poly.exponents) terms += " x^" + std::to_string(e);
  qkd::bench::row(" %s", terms.c_str());
}

void bm_privacy_amplify(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  qkd::Rng rng(7);
  qkd::crypto::Drbg drbg(7u);
  const qkd::wire::PaParamsPacket params = make_pa_params(n, n / 2, drbg);
  const qkd::BitVector input = rng.next_bits(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(privacy_amplify(input, params));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(bm_privacy_amplify)
    ->Arg(512)
    ->Arg(955)
    ->Arg(1024)
    ->Arg(1380)
    ->Arg(1900)
    ->Arg(2048)
    ->Arg(4096);

void bm_gf2_multiply(benchmark::State& state) {
  const unsigned n = static_cast<unsigned>(state.range(0));
  const qkd::crypto::Gf2Field field(n);
  qkd::Rng rng(9);
  const auto a = rng.next_bits(n);
  const auto b = rng.next_bits(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(field.multiply(a, b));
  }
}
BENCHMARK(bm_gf2_multiply)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(1536)
    ->Arg(2048)
    ->Arg(4096);

// One SHA-1 compression: a 55-byte message pads to exactly one block.
void bm_sha1_block(benchmark::State& state) {
  qkd::Rng rng(11);
  qkd::Bytes message(55);
  for (auto& byte : message) byte = static_cast<std::uint8_t>(rng.next_u64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(qkd::crypto::Sha1::hash(message));
  }
}
BENCHMARK(bm_sha1_block);

void bm_drbg_generate(benchmark::State& state) {
  qkd::crypto::Drbg drbg(13u);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(drbg.generate(n));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(bm_drbg_generate)->Arg(576);

}  // namespace

int main(int argc, char** argv) {
  qkd::bench::stamp_context();
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
