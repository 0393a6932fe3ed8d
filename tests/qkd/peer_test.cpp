// Single-sided peers over a real byte-moving transport. The strongest
// claim under test: the two-process dialogue is the SAME protocol as the
// in-process pipeline — same DRBG draws, same frames, same bytes — so for
// one (config, seed) the peer-distilled key must be bit-identical to the
// QkdLinkSession key. Tier-1 runs the peers on two threads over a
// localhost TCP socket; the fork-per-endpoint variant lives in
// tests/integration/.
#include "src/qkd/peer.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/qkd/engine.hpp"
#include "src/wire/packets.hpp"
#include "src/wire/transport.hpp"

namespace qkd::proto {
namespace {

constexpr std::uint64_t kSeed = 20030825;

// The default Qframe (2^20 slots) distills ~1500 sifted bits and accepts
// reliably; smaller frames starve the entropy margin and flake on verify.
QkdLinkConfig small_config() { return QkdLinkConfig{}; }

struct PeerRun {
  PeerOutcome alice;
  PeerOutcome bob;
};

/// One batch over localhost TCP, Alice accepting, Bob connecting.
PeerRun run_peers_once(const QkdLinkConfig& config, std::uint64_t seed) {
  wire::TcpListener listener(0);
  PeerRun run;

  std::thread bob_thread([&run, &config, seed, port = listener.port()] {
    BobPeer bob(config, seed);
    auto io = wire::tcp_connect(port);
    ASSERT_NE(io, nullptr);
    io->set_recv_timeout_ms(30000);
    run.bob = bob.run_batch(*io);
  });

  AlicePeer alice(config, seed);
  auto io = listener.accept_transport();
  if (io != nullptr) {
    io->set_recv_timeout_ms(30000);
    run.alice = alice.run_batch(*io);
  }
  bob_thread.join();
  EXPECT_NE(io, nullptr);
  return run;
}

TEST(Peers, DistillByteIdenticalKeysOverTcp) {
  const PeerRun run = run_peers_once(small_config(), kSeed);

  ASSERT_TRUE(run.alice.accepted) << "reason " << static_cast<int>(run.alice.reason);
  ASSERT_TRUE(run.bob.accepted) << "reason " << static_cast<int>(run.bob.reason);
  EXPECT_TRUE(run.alice.digest_matched);
  EXPECT_TRUE(run.bob.digest_matched);

  // The acceptance bar: byte-identical key on both sides of the wire.
  ASSERT_GT(run.alice.key.size(), 0u);
  EXPECT_EQ(run.alice.key, run.bob.key);
  EXPECT_EQ(run.alice.key.to_bytes(), run.bob.key.to_bytes());

  EXPECT_EQ(run.alice.sifted_bits, run.bob.sifted_bits);
  EXPECT_EQ(run.alice.frame_id, run.bob.frame_id);
  EXPECT_DOUBLE_EQ(run.alice.qber_sampled, run.bob.qber_sampled);
  EXPECT_GT(run.alice.control_messages, 0u);
  EXPECT_GT(run.bob.control_messages, 0u);
  EXPECT_GT(run.alice.control_bytes, 0u);
}

/// `batches` consecutive batches over one localhost TCP connection.
std::vector<PeerRun> run_peers(const QkdLinkConfig& config,
                               std::uint64_t seed, std::size_t batches) {
  wire::TcpListener listener(0);
  std::vector<PeerRun> runs(batches);

  std::thread bob_thread([&runs, &config, seed, port = listener.port()] {
    BobPeer bob(config, seed);
    auto io = wire::tcp_connect(port);
    ASSERT_NE(io, nullptr);
    io->set_recv_timeout_ms(30000);
    for (PeerRun& run : runs) run.bob = bob.run_batch(*io);
  });

  AlicePeer alice(config, seed);
  auto io = listener.accept_transport();
  if (io != nullptr) {
    io->set_recv_timeout_ms(30000);
    for (PeerRun& run : runs) run.alice = alice.run_batch(*io);
  }
  bob_thread.join();
  EXPECT_NE(io, nullptr);
  return runs;
}

struct PeerCase {
  const char* name;
  double fiber_km;
  EcStrategy strategy;
  std::uint64_t seed;
  bool no_pad_runway = false;  // prepositioned pads run dry in batch one
};

TEST(Peers, MatchTheInProcessPipelineBitForBit) {
  // Same config, same seed: the two peers over TCP and the in-process
  // session must land on the same outcome batch after batch — the wire
  // moved the protocol, not the randomness. The last three cases abort:
  // naive parity leaves residual errors that verify catches, 50 km starves
  // the entropy estimate, and pads with no runway run out mid-dialogue
  // (whichever side runs out announces it, so both sides agree why).
  const PeerCase cases[] = {
      {"5km-classic", 5.0, EcStrategy::kClassicCascade, kSeed},
      {"5km-bbn", 5.0, EcStrategy::kBbnCascade, kSeed},
      {"5km-naive", 5.0, EcStrategy::kNaiveParity, kSeed},
      {"20km-classic", 20.0, EcStrategy::kClassicCascade, kSeed},
      {"20km-bbn", 20.0, EcStrategy::kBbnCascade, kSeed},
      {"20km-naive", 20.0, EcStrategy::kNaiveParity, kSeed},
      {"10km-naive-verify", 10.0, EcStrategy::kNaiveParity, 10},
      {"50km-entropy", 50.0, EcStrategy::kClassicCascade, 6},
      {"no-pad-runway", 10.0, EcStrategy::kClassicCascade, 1, true},
  };
  std::size_t aborted = 0;
  for (const PeerCase& c : cases) {
    SCOPED_TRACE(c.name);
    QkdLinkConfig config = small_config();
    config.link.fiber_km = c.fiber_km;
    config.ec_strategy = c.strategy;
    if (c.no_pad_runway) {
      config.frame_slots = 1 << 16;
      config.preposition_extra_bits = 0;
    }
    // Classic cases run long enough for Bob's error record, which sizes
    // each batch from the verified ones before it, to steer most batches.
    const std::size_t batches =
        c.strategy == EcStrategy::kClassicCascade ? 8 : 3;
    const std::vector<PeerRun> runs = run_peers(config, c.seed, batches);
    QkdLinkSession session(config, c.seed);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      SCOPED_TRACE(i);
      const BatchResult batch = session.run_batch();
      aborted += !batch.accepted;
      for (const PeerOutcome* peer : {&runs[i].alice, &runs[i].bob}) {
        EXPECT_EQ(peer->reason, batch.reason)
            << abort_reason_name(peer->reason) << " vs "
            << abort_reason_name(batch.reason);
        EXPECT_EQ(peer->accepted, batch.accepted);
        EXPECT_EQ(peer->key, batch.key);
        EXPECT_EQ(peer->sifted_bits, batch.sifted_bits);
        EXPECT_DOUBLE_EQ(peer->qber_sampled, batch.qber_sampled);
        EXPECT_EQ(peer->errors_corrected, batch.errors_corrected);
      }
    }
  }
  // The table reaches the abort paths it was built for.
  EXPECT_GT(aborted, 0u);
}

TEST(Peers, ConsecutiveBatchesKeepDistilling) {
  const QkdLinkConfig config = small_config();
  wire::TcpListener listener(0);
  PeerOutcome bob_first, bob_second;

  std::thread bob_thread([&, port = listener.port()] {
    BobPeer bob(config, kSeed);
    auto io = wire::tcp_connect(port);
    ASSERT_NE(io, nullptr);
    io->set_recv_timeout_ms(30000);
    bob_first = bob.run_batch(*io);
    bob_second = bob.run_batch(*io);
  });

  AlicePeer alice(config, kSeed);
  auto io = listener.accept_transport();
  ASSERT_NE(io, nullptr);
  io->set_recv_timeout_ms(30000);
  const PeerOutcome alice_first = alice.run_batch(*io);
  const PeerOutcome alice_second = alice.run_batch(*io);
  bob_thread.join();

  ASSERT_TRUE(alice_first.accepted);
  ASSERT_TRUE(alice_second.accepted);
  EXPECT_EQ(alice_first.key, bob_first.key);
  EXPECT_EQ(alice_second.key, bob_second.key);
  // Fresh entropy per frame: consecutive batches never repeat a key.
  EXPECT_FALSE(alice_first.key == alice_second.key);
  EXPECT_EQ(alice_second.frame_id, 1u);
}

/// Two in-memory ends for peers on two threads. Every frame passes through
/// `script`, which may swap it for another; a receive waits up to two
/// seconds, or until close(), and then reports the channel closed.
class ScriptedPipe {
 public:
  using Script = std::function<Bytes(const Bytes& frame, bool from_alice)>;

  class End final : public wire::Transport {
   public:
    End(ScriptedPipe& pipe, bool alice) : pipe_(pipe), alice_(alice) {}
    bool send_frame(const Bytes& frame) override {
      pipe_.send(pipe_.script_(frame, alice_), alice_);
      return true;
    }
    std::optional<Bytes> recv_frame() override {
      auto frame = pipe_.recv(alice_);
      error_ = frame.has_value() ? wire::WireError::kNone
                                 : wire::WireError::kClosed;
      return frame;
    }
    wire::WireError last_error() const override { return error_; }

   private:
    ScriptedPipe& pipe_;
    bool alice_;
    wire::WireError error_ = wire::WireError::kNone;
  };

  explicit ScriptedPipe(Script script) : script_(std::move(script)) {}

  End& alice() { return alice_end_; }
  End& bob() { return bob_end_; }

  void close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    cv_.notify_all();
  }

 private:
  void send(Bytes frame, bool from_alice) {
    std::lock_guard<std::mutex> lock(mu_);
    (from_alice ? to_bob_ : to_alice_).push_back(std::move(frame));
    cv_.notify_all();
  }
  std::optional<Bytes> recv(bool at_alice) {
    std::unique_lock<std::mutex> lock(mu_);
    std::deque<Bytes>& queue = at_alice ? to_alice_ : to_bob_;
    cv_.wait_for(lock, std::chrono::seconds(2),
                 [&] { return closed_ || !queue.empty(); });
    if (queue.empty()) return std::nullopt;
    Bytes frame = std::move(queue.front());
    queue.pop_front();
    return frame;
  }

  Script script_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Bytes> to_alice_, to_bob_;
  bool closed_ = false;
  End alice_end_{*this, true};
  End bob_end_{*this, false};
};

/// A script that swaps the first frame of `type` from `from_alice`'s side
/// for an abort notice carrying `reason`.
ScriptedPipe::Script notice_instead_of(wire::PacketType type, bool from_alice,
                                       std::uint8_t reason) {
  return [type, from_alice, reason, done = false](
             const Bytes& frame, bool sender_is_alice) mutable {
    const auto decoded = wire::decode_frame(frame);
    if (done || sender_is_alice != from_alice || !decoded.ok() ||
        decoded.value.type != type)
      return frame;
    done = true;
    wire::AbortPacket notice;
    notice.reason = reason;
    return wire::to_frame(notice);
  };
}

QkdLinkConfig short_frames() {
  QkdLinkConfig config;
  config.frame_slots = 1 << 16;
  return config;
}

TEST(Peers, NoticeWithReasonNoneIsAChannelLossNotAnAcceptance) {
  // Regression: Bob accepted a notice saying "none" and came back
  // rejected for no reason at all.
  ScriptedPipe pipe(notice_instead_of(wire::PacketType::kSiftDecision,
                                      /*from_alice=*/true, 0));
  std::thread alice_thread([&] {
    AlicePeer alice(short_frames(), kSeed);
    alice.run_batch(pipe.alice());
  });
  BobPeer bob(short_frames(), kSeed);
  const PeerOutcome outcome = bob.run_batch(pipe.bob());
  pipe.close();
  alice_thread.join();
  EXPECT_FALSE(outcome.accepted);
  EXPECT_EQ(outcome.reason, AbortReason::kChannelLost)
      << abort_reason_name(outcome.reason);
}

TEST(Peers, SharedAbortNoticeWithAnUnknownReasonIsAChannelLoss) {
  // Naive parity leaves residual errors, so verify fails and Alice
  // announces it. Regression: Bob took a notice saying "none" at its word;
  // one past the last reason is no better.
  QkdLinkConfig config = small_config();
  config.ec_strategy = EcStrategy::kNaiveParity;
  for (const std::size_t reason : {std::size_t{0}, kAbortReasonCount}) {
    SCOPED_TRACE(reason);
    ScriptedPipe pipe(notice_instead_of(wire::PacketType::kAbort,
                                        /*from_alice=*/true,
                                        static_cast<std::uint8_t>(reason)));
    PeerOutcome alice_outcome;
    std::thread alice_thread([&] {
      AlicePeer alice(config, 10);
      alice_outcome = alice.run_batch(pipe.alice());
    });
    BobPeer bob(config, 10);
    const PeerOutcome outcome = bob.run_batch(pipe.bob());
    pipe.close();
    alice_thread.join();
    EXPECT_EQ(alice_outcome.reason, AbortReason::kVerifyFailed);
    EXPECT_EQ(outcome.reason, AbortReason::kChannelLost)
        << abort_reason_name(outcome.reason);
  }
}

TEST(Peers, NoticeInTheParityDialogueEndsAliceWithItsReason) {
  // Regression: a notice reaching Alice while she served parity questions
  // was dropped, and she waited on the next frame until the timeout.
  ScriptedPipe pipe(notice_instead_of(
      wire::PacketType::kEcSummary, /*from_alice=*/false,
      static_cast<std::uint8_t>(AbortReason::kAuthExhausted)));
  std::thread bob_thread([&] {
    BobPeer bob(short_frames(), kSeed);
    bob.run_batch(pipe.bob());
  });
  AlicePeer alice(short_frames(), kSeed);
  const auto start = std::chrono::steady_clock::now();
  const PeerOutcome outcome = alice.run_batch(pipe.alice());
  const auto waited = std::chrono::steady_clock::now() - start;
  pipe.close();
  bob_thread.join();
  EXPECT_EQ(outcome.reason, AbortReason::kAuthExhausted)
      << abort_reason_name(outcome.reason);
  EXPECT_LT(waited, std::chrono::seconds(1));
}

TEST(Peers, ABatchWithoutItsFeedLeavesTheNextInStep) {
  // Bob's first batch gets no feed (Alice has not started) and gives up.
  // Alice's first feed then reaches his second batch: he keys that batch
  // by the feed's frame id, not by how many batches he has run, so the two
  // sides draw the same sample and distill the same key.
  ScriptedPipe pipe([](const Bytes& frame, bool) { return frame; });
  BobPeer bob(small_config(), kSeed);
  const PeerOutcome missed = bob.run_batch(pipe.bob());
  EXPECT_EQ(missed.reason, AbortReason::kChannelLost)
      << abort_reason_name(missed.reason);

  PeerOutcome alice_outcome;
  std::thread alice_thread([&] {
    AlicePeer alice(small_config(), kSeed);
    alice_outcome = alice.run_batch(pipe.alice());
  });
  const PeerOutcome outcome = bob.run_batch(pipe.bob());
  pipe.close();
  alice_thread.join();
  ASSERT_TRUE(outcome.accepted) << abort_reason_name(outcome.reason);
  EXPECT_TRUE(outcome.digest_matched);
  EXPECT_TRUE(alice_outcome.digest_matched);
  EXPECT_EQ(outcome.frame_id, 0u);
  EXPECT_EQ(outcome.key, alice_outcome.key);
}

TEST(Peers, DeadWireSurfacesAsChannelLostNotHang) {
  wire::TcpListener listener(0);
  std::unique_ptr<wire::TcpTransport> client;
  std::thread connector([&client, port = listener.port()] {
    client = wire::tcp_connect(port);
  });
  auto server = listener.accept_transport();
  connector.join();
  ASSERT_NE(client, nullptr);

  // Bob connects but Alice never speaks, then hangs up.
  client->set_recv_timeout_ms(100);
  server.reset();

  BobPeer bob(small_config(), kSeed);
  const PeerOutcome outcome = bob.run_batch(*client);
  EXPECT_FALSE(outcome.accepted);
  EXPECT_EQ(outcome.reason, AbortReason::kChannelLost);
}

}  // namespace
}  // namespace qkd::proto
