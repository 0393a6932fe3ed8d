// E7 (Sec. 5): privacy amplification over GF(2^n) — "a linear hash function
// over the Galois Field GF[2^n] where n is the number of bits as input,
// rounded up to a multiple of 32".
//
// Regenerates the mechanics (four announced parameters, truncation to m
// bits, both sides agreeing) and times the field arithmetic across the
// width ladder.
#include <benchmark/benchmark.h>

#include "bench/bench_util.hpp"
#include "src/common/rng.hpp"
#include "src/qkd/privacy.hpp"

namespace {

using namespace qkd::proto;

void print_table() {
  qkd::bench::heading("E7", "Sec. 5: privacy amplification over GF(2^n)");
  qkd::bench::row("%10s %10s %10s %16s %18s", "input bits", "field n",
                  "out m", "params (bytes)", "sides agree?");
  qkd::Rng rng(1);
  qkd::crypto::Drbg drbg(1u);
  for (std::size_t input : {100u, 500u, 1500u, 3000u, 4000u}) {
    const std::size_t m = input * 2 / 3;
    const PaParams params = make_pa_params(input, m, drbg);
    const qkd::BitVector bits = rng.next_bits(input);
    const auto alice = privacy_amplify(bits, params);
    const auto bob = privacy_amplify(bits, params);
    qkd::bench::row("%10zu %10u %10u %16zu %18s", input, params.n, params.m,
                    params.serialize().size(),
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
  const PaParams params = make_pa_params(n, n / 2, drbg);
  const qkd::BitVector input = rng.next_bits(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(privacy_amplify(input, params));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(bm_privacy_amplify)->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096);

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
BENCHMARK(bm_gf2_multiply)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

}  // namespace

int main(int argc, char** argv) {
  qkd::bench::stamp_context();
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
