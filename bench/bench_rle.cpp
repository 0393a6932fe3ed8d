// E9 (Appendix, "Sifting / Run-Length Encoding"): "Encode the sifting
// messages ... so that runs of identical values (and in particular of 'no
// detection' values) are compressed to take very little space."
//
// Measures encoded sift-message size against the raw bitmap across
// detection probabilities and for a simulated Qframe — at the paper's ~0.3%
// detection probability the encoding wins by ~15x.
#include <benchmark/benchmark.h>

#include "bench/bench_util.hpp"
#include "src/common/rng.hpp"
#include "src/optics/link.hpp"
#include "src/qkd/rle.hpp"

namespace {

using namespace qkd::proto;

/// A bitmap whose every slot is detected independently with `p_detect`.
qkd::BitVector random_bitmap(std::size_t slots, double p_detect,
                             std::uint64_t seed) {
  qkd::Rng rng(seed);
  qkd::BitVector bits(slots);
  for (std::size_t i = 0; i < slots; ++i)
    if (rng.next_bool(p_detect)) bits.set(i, true);
  return bits;
}

void print_table() {
  qkd::bench::heading("E9", "Appendix: run-length encoding of sift messages");
  const std::size_t slots = 1 << 20;
  qkd::bench::row("frame: %zu slots (1 s at the 1 MHz trigger)", slots);
  qkd::bench::row("%12s %14s %14s %10s", "P(detect)", "raw (bytes)",
                  "RLE (bytes)", "ratio");
  for (double p : {0.0005, 0.003, 0.01, 0.05, 0.25, 0.5}) {
    const auto bits = random_bitmap(slots, p, 17);
    const std::size_t raw = raw_bitmap_bytes(slots);
    const std::size_t rle = rle_encode(bits).size();
    qkd::bench::row("%12.4f %14zu %14zu %9.1fx", p, raw, rle,
                    static_cast<double>(raw) / static_cast<double>(rle));
  }
  // A simulated Qframe at the paper point: the frame is a click list, so
  // its bitmap is built here, from the clicks.
  qkd::optics::WeakCoherentLink link(qkd::optics::LinkParams{}, 17);
  const qkd::optics::FrameResult frame = link.run_frame(slots);
  const std::size_t raw = raw_bitmap_bytes(slots);
  const std::size_t rle =
      rle_encode(qkd::bench::detection_bitmap(frame)).size();
  qkd::bench::row("%12.4f %14zu %14zu %9.1fx  (simulated 10 km Qframe)",
                  static_cast<double>(frame.clicks.size()) / slots, raw, rle,
                  static_cast<double>(raw) / static_cast<double>(rle));
  qkd::bench::row("(0.003 is the paper link's detection probability: runs of"
                  " 'no detection' dominate, as the Appendix predicts)");
}

void bm_rle_encode(benchmark::State& state) {
  const auto bits = random_bitmap(1 << 20, 0.003, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rle_encode(bits));
  }
  state.SetItemsProcessed((1 << 20) * state.iterations());
}
BENCHMARK(bm_rle_encode);

void bm_rle_decode(benchmark::State& state) {
  const auto encoded = rle_encode(random_bitmap(1 << 20, 0.003, 3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rle_decode(encoded));
  }
  state.SetItemsProcessed((1 << 20) * state.iterations());
}
BENCHMARK(bm_rle_decode);

}  // namespace

int main(int argc, char** argv) {
  qkd::bench::stamp_context();
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
