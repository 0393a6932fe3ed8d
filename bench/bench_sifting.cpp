// E3a (Sec. 5 worked example): "assume that 1% of the photons that Alice
// tries to transmit are actually received at Bob ... On average, Alice and
// Bob will happen to agree on a basis 50% of the time ... Thus only 50% x 1%
// of Alice's photons give rise to a sifted bit, i.e., 1 photon in 200. A
// transmitted stream of 1,000 bits therefore would boil down to about 5
// sifted bits."
//
// Regenerates the sift-ratio table across detection probabilities and
// validates the protocol messages' sizes.
#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/optics/link.hpp"
#include "src/qkd/sifting.hpp"

namespace {

using namespace qkd::optics;
using namespace qkd::proto;

/// Tunes detector efficiency so P(single click) ~ target.
LinkParams params_for_detection_prob(double target) {
  LinkParams params;
  params.dark_count_prob = 0.0;
  params.interferometer_visibility = 1.0;
  params.fiber_km = 0.0;
  params.insertion_loss_db = 0.0;
  params.central_peak_fraction = 0.5;
  // P(click) ~ 1 - exp(-mu * 0.5 * eta); solve for eta.
  params.detector_efficiency =
      std::min(1.0, -std::log(1.0 - target) / (params.mean_photon_number * 0.5));
  return params;
}

void print_table() {
  qkd::bench::heading("E3a", "Sec. 5: sifting boil-down (1 photon in 200)");
  qkd::bench::row("%12s %12s %14s %14s %18s", "P(detect)", "pulses",
                  "detections", "sifted bits", "sifted per 1000");
  for (double p_detect : {0.001, 0.005, 0.01, 0.02}) {
    const LinkParams params = params_for_detection_prob(p_detect);
    WeakCoherentLink link(params, 5);
    const std::size_t pulses = 1000000;
    const FrameResult frame = link.run_frame(pulses);
    const AliceSiftResult sift =
        alice_sift(frame, make_sift_announce(0, frame));
    qkd::bench::row("%12.3f %12zu %14zu %14zu %18.2f", p_detect, pulses,
                    frame.clicks.size(), sift.outcome.bits.size(),
                    1000.0 * static_cast<double>(sift.outcome.bits.size()) /
                        pulses);
  }
  qkd::bench::row("");
  qkd::bench::row("paper's example row: P(detect)=0.01 -> ~5 sifted per"
                  " 1,000 transmitted (1 in 200)");

  qkd::bench::row("");
  qkd::bench::row("sift exchange wire cost at the real operating point:");
  const LinkParams op;  // defaults
  WeakCoherentLink link(op, 9);
  const FrameResult frame = link.run_frame(1 << 20);
  const qkd::wire::SiftAnnounce announce = make_sift_announce(0, frame);
  const AliceSiftResult sift = alice_sift(frame, announce);
  qkd::bench::row("  SIFT message: %zu bytes for %zu slots (%zu detections)",
                  announce.encode().size(), frame.slots,
                  announce.clicks.size());
  qkd::bench::row("  (raw detection bitmap, one bit per slot: %zu bytes)",
                  (frame.slots + 7) / 8);
  qkd::bench::row("  SIFT RESPONSE: %zu bytes; sifted bits: %zu",
                  sift.decision.encode().size(), sift.outcome.bits.size());
}

/// One full sift round (announce, Alice's half, Bob's half) per iteration,
/// each on the next frame of a pool of distinct seeded 10 km frames. One
/// frame sifted over and over would let the branch predictor learn its
/// basis pattern; 32 frames of 2^18 slots (~300 KB of clicks) still fit in
/// L2, so the kernel times the walks, not memory.
void bm_sift_round(benchmark::State& state) {
  constexpr std::size_t kPoolFrames = 32;
  constexpr std::size_t kSlots = 1 << 18;
  const LinkParams params;
  WeakCoherentLink link(params, 13);
  std::vector<FrameResult> pool;
  std::size_t clicks = 0;
  for (std::size_t i = 0; i < kPoolFrames; ++i) {
    pool.push_back(link.run_frame(kSlots));
    clicks += pool.back().clicks.size();
  }
  std::size_t next = 0;
  for (auto _ : state) {
    const FrameResult& frame = pool[next];
    next = (next + 1) % kPoolFrames;
    const qkd::wire::SiftAnnounce announce = make_sift_announce(0, frame);
    const AliceSiftResult alice = alice_sift(frame, announce);
    benchmark::DoNotOptimize(
        bob_apply_response(frame, announce, alice.decision));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(kSlots) *
                          state.iterations());
  state.counters["clicks_per_frame"] =
      static_cast<double>(clicks) / kPoolFrames;
}
BENCHMARK(bm_sift_round);

}  // namespace

int main(int argc, char** argv) {
  qkd::bench::stamp_context();
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
