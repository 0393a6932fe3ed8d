// E9 (Appendix, "Sifting / Run-Length Encoding"): "Encode the sifting
// messages ... so that runs of identical values (and in particular of 'no
// detection' values) are compressed to take very little space."
//
// The sift message on the wire is the SiftAnnounce: its click slots go out
// as varint gaps, i.e. the lengths of the runs of 'no detection'. This
// measures its encoded size (which also carries Bob's basis per click)
// against the raw detection bitmap, one bit per slot, across detection
// probabilities and for a simulated Qframe — at the paper's ~0.3%
// detection probability the announce is ~20x smaller.
#include <benchmark/benchmark.h>

#include "bench/bench_util.hpp"
#include "src/common/rng.hpp"
#include "src/optics/link.hpp"
#include "src/qkd/sifting.hpp"
#include "src/wire/packets.hpp"

namespace {

using qkd::wire::SiftAnnounce;

/// An announce whose every slot is detected independently with `p_detect`.
SiftAnnounce random_announce(std::size_t slots, double p_detect,
                             std::uint64_t seed) {
  qkd::Rng rng(seed);
  SiftAnnounce announce;
  announce.slots = slots;
  for (std::size_t i = 0; i < slots; ++i)
    if (rng.next_bool(p_detect))
      announce.clicks.push_back(static_cast<std::uint32_t>(i));
  announce.bob_bases = rng.next_bits(announce.clicks.size());
  return announce;
}

void print_table() {
  qkd::bench::heading("E9", "Appendix: run-length encoding of sift messages");
  const std::size_t slots = 1 << 20;
  const std::size_t raw = (slots + 7) / 8;  // the bitmap, one bit per slot
  qkd::bench::row("frame: %zu slots (1 s at the 1 MHz trigger)", slots);
  qkd::bench::row("%12s %14s %16s %10s", "P(detect)", "raw (bytes)",
                  "announce (bytes)", "ratio");
  for (double p : {0.0005, 0.003, 0.01, 0.05, 0.25, 0.5}) {
    const std::size_t sent = random_announce(slots, p, 17).encode().size();
    qkd::bench::row("%12.4f %14zu %16zu %9.1fx", p, raw, sent,
                    static_cast<double>(raw) / static_cast<double>(sent));
  }
  // A simulated Qframe at the paper point, announced as the dialogue does.
  qkd::optics::WeakCoherentLink link(qkd::optics::LinkParams{}, 17);
  const qkd::optics::FrameResult frame = link.run_frame(slots);
  const std::size_t sent =
      qkd::proto::make_sift_announce(0, frame).encode().size();
  qkd::bench::row("%12.4f %14zu %16zu %9.1fx  (simulated 10 km Qframe)",
                  static_cast<double>(frame.clicks.size()) / slots, raw, sent,
                  static_cast<double>(raw) / static_cast<double>(sent));
  qkd::bench::row("(0.003 is the paper link's detection probability: runs of"
                  " 'no detection' dominate, as the Appendix predicts)");
}

void bm_sift_announce_encode(benchmark::State& state) {
  const SiftAnnounce announce = random_announce(1 << 20, 0.003, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(announce.encode());
  }
  state.SetItemsProcessed((1 << 20) * state.iterations());
}
BENCHMARK(bm_sift_announce_encode);

void bm_sift_announce_decode(benchmark::State& state) {
  const qkd::Bytes encoded = random_announce(1 << 20, 0.003, 3).encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(SiftAnnounce::decode(encoded));
  }
  state.SetItemsProcessed((1 << 20) * state.iterations());
}
BENCHMARK(bm_sift_announce_decode);

}  // namespace

int main(int argc, char** argv) {
  qkd::bench::stamp_context();
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
