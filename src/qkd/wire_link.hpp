// The Fig. 9 dialogue bound to the wire.
//
// Each pipeline stage is written once, as an Alice half and a Bob half
// (src/qkd/pipeline.hpp): StageHalf coroutines over ONE side's state that
// talk to the peer only through frames on that side's DialogueWire. In
// process, interleave() runs both halves of a stage in one thread: a
// receive that finds its queue drained suspends, and so does every send,
// and the runner resumes a half whose awaited frame has arrived before a
// half that has just sent, so each frame is taken before the next goes
// out. When neither can move the last frame sent was lost or mangled, and
// it goes out again, up to kMaxSendAttempts sends in all; past that the
// channel is lost. Across processes, run_alone() runs one side's halves
// over a blocking socket. DESIGN.md ("Stage pipeline") has the abort-notice
// convention.
//
// Every frame of the dialogue is a checked frame (src/wire/frame.hpp): a
// DialogueWire drops one that fails its CRC-32C as lost, so noise on the
// channel costs a retransmission and never reaches a stage. Integrity
// against an adversary is the transcript's: each DialogueWire records
// every distinct frame it sends and every one it receives (a retransmitted
// copy, the same bytes again, is recorded once), and the batch ends with
// each side tagging what it sent (the auth-replenish stage). A frame Eve
// altered, dropped for good, injected or replayed makes the two records
// differ, and the batch ends at the tag check without a key.
//
// The parity questions of error correction are the one exchange that does
// not suspend: Bob's corrector is synchronous, and each of its batches is
// one kParityRequest frame answered by one kParityResponse of packed
// parity bits from Alice's WireParityServer (in process, the client's pump
// lets Alice's waiting half serve it between send and receive). They
// travel in the same transcript as the rest: Cascade's ~50 frames a batch
// cost no pad of their own. A persistently dead channel surfaces as
// ChannelLostError (-> AbortReason::kChannelLost).
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <functional>
#include <optional>
#include <stdexcept>
#include <utility>

#include "src/qkd/ec.hpp"
#include "src/qkd/engine.hpp"
#include "src/wire/packets.hpp"
#include "src/wire/transport.hpp"

namespace qkd::proto {

/// Sends of one frame before the dialogue concedes the channel is gone.
inline constexpr int kMaxSendAttempts = 12;

/// Sent-side wire accounting (messages and bytes PUT on the wire,
/// retransmits included — loss inflates these, visibly). The parity client
/// and server are counted by the DialogueWire they send through.
struct WireTraffic {
  std::size_t messages = 0;
  std::size_t bytes = 0;
};

/// Thrown when retransmission gives up on the classical channel; the
/// pipeline maps it to AbortReason::kChannelLost.
class ChannelLostError : public std::runtime_error {
 public:
  ChannelLostError() : std::runtime_error("wire: classical channel lost") {}
};

/// Alice's side: answers parity requests arriving on a transport against
/// her sifted bits. A retransmitted duplicate of the last request is
/// re-answered from cache so a lossy channel cannot inflate the disclosure
/// count the entropy estimate charges for. A request with any range
/// outside her string is malformed: it is dropped unanswered, and the
/// client's retransmissions run out as a lost channel.
class WireParityServer {
 public:
  explicit WireParityServer(const qkd::BitVector& bits) : oracle_(bits) {}

  /// Serves a received frame; the response goes out on `io`. Returns false
  /// if the frame is not a valid parity request.
  bool serve_frame(wire::Transport& io, const wire::Frame& frame);

  /// Distinct parity bits disclosed (the `d` of the entropy estimate).
  std::size_t disclosed() const { return oracle_.disclosed(); }

 private:
  LocalParityOracle oracle_;
  std::optional<wire::ParityRequest> last_request_;
  Bytes last_response_;  // framed
};

/// Bob's side: a ParityOracle that ships each batch as one request frame
/// (or several, past ParityRequest::kMaxQueries) and blocks on the
/// response, retransmitting through loss. `pump` (in-process runs only) is
/// invoked between send and receive to let the colocated server take its
/// turn.
class WireParityClient final : public ParityOracle {
 public:
  static constexpr int kMaxAttempts = kMaxSendAttempts;

  explicit WireParityClient(wire::Transport& io,
                            std::function<void()> pump = {})
      : io_(io), pump_(std::move(pump)) {}

  /// Throws ChannelLostError after kMaxAttempts fruitless retransmits of
  /// one request.
  qkd::BitVector parities(std::span<const ParityQuery> queries) override;

 private:
  qkd::BitVector exchange(std::span<const ParityQuery> queries);

  wire::Transport& io_;
  std::function<void()> pump_;
};

/// Thrown inside a stage half to end it with `reason` (its pads ran out,
/// or the peer's notice or a failed transport ended the wait).
struct StageEnd {
  AbortReason reason;
};

/// One side's half of one stage: runs until it waits on a frame that has
/// not arrived or yields after a send, and ends with that side's verdict
/// on the stage (kNone: go on to the next).
class StageHalf {
 public:
  struct promise_type {
    AbortReason reason = AbortReason::kNone;
    std::exception_ptr error;

    StageHalf get_return_object() {
      return StageHalf(
          std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_value(AbortReason verdict) { reason = verdict; }
    void unhandled_exception();
  };

  StageHalf(StageHalf&& other) noexcept
      : handle_(std::exchange(other.handle_, {})) {}
  StageHalf& operator=(StageHalf&&) = delete;
  ~StageHalf() {
    if (handle_) handle_.destroy();
  }

  bool done() const { return handle_.done(); }
  AbortReason reason() const { return handle_.promise().reason; }

  /// Runs the half to its next suspension; rethrows what it threw.
  void resume();

 private:
  explicit StageHalf(std::coroutine_handle<promise_type> handle)
      : handle_(handle) {}

  std::coroutine_handle<promise_type> handle_;
};

/// One direction's record of a batch's dialogue: every distinct frame, in
/// the order it went out or came in, each whole (the frame header makes
/// the concatenation parse one way only). A frame equal to the one
/// recorded last is a retransmission and is not recorded again; transcript
/// tags are not part of what they authenticate.
class Transcript {
 public:
  void record(std::span<const std::uint8_t> frame);
  std::span<const std::uint8_t> bytes() const { return bytes_; }

 private:
  Bytes bytes_;
  std::size_t last_ = 0;  // where the frame recorded last starts
};

/// One side's end of the classical channel, as its stage halves use it.
/// Every frame sent through it is counted and recorded (it is itself the
/// Transport the parity client and server talk over); frames to be kept
/// out of the control-traffic counts and the transcript go straight onto
/// the underlying transport.
class DialogueWire final : public wire::Transport {
 public:
  /// `announces` is Alice's role: she announces the aborts both sides
  /// reach from shared data, and Bob awaits her notice.
  DialogueWire(wire::Transport& io, bool announces)
      : io_(io), announces_(announces) {}

  DialogueWire(const DialogueWire&) = delete;
  DialogueWire& operator=(const DialogueWire&) = delete;

  /// Lets the runner tell which of two in-process ends sent last.
  static void pair(DialogueWire& a, DialogueWire& b);

  bool send_frame(const Bytes& frame) override;
  /// The frame next_is() kept back, if any, then the transport's next
  /// frame that passes its checksum (recorded as it comes in); one that
  /// fails is dropped, as if lost.
  std::optional<Bytes> recv_frame() override;
  wire::WireError last_error() const override { return io_.last_error(); }

  /// `co_await send(packet)`: sends it as a checked frame, then yields so
  /// the peer can take it.
  template <typename Packet>
  std::suspend_always send(const Packet& packet) {
    send_frame(wire::to_checked_frame(packet));
    return {};
  }

  /// `co_await recv<Packet>()`: the next Packet. Frames that fail to
  /// decode are dropped (the sender sends them again), and so are frames
  /// of other types, after `other` (when set) has seen them. The peer's
  /// notice, or a failed transport, ends the half.
  template <typename Packet>
  auto recv(std::function<void(const wire::Frame&)> other = {}) {
    return Receive<Packet>(*this, std::move(other));
  }

  /// True when the next frame that decodes is a `type` (it is then
  /// consumed); a frame of another type is kept for the next receive. A
  /// drained in-memory wire answers false; a socket waits for a frame.
  bool next_is(wire::PacketType type);

  /// What this end has sent and received so far this batch.
  const Transcript& sent() const { return sent_; }
  const Transcript& received() const { return received_; }

  /// Announces `reason` with one bare notice frame and returns it: the
  /// end of a stage this side reached on its own.
  AbortReason abort(AbortReason reason);

  /// `co_await conclude(verdict)`: a verdict both sides reach from shared
  /// data. kNone goes on at once; otherwise Alice announces it, and Bob
  /// takes her notice and its reason (his own, if the channel fails).
  auto conclude(AbortReason verdict) { return Conclude(*this, verdict); }

  const WireTraffic& traffic() const { return traffic_; }

  // ---- The runner's view -------------------------------------------------

  /// In-process only: gives the peer's waiting half its turn (the parity
  /// client's pump).
  std::function<void()> pump;

  bool waiting() const { return waiter_ != nullptr; }
  /// Completes the pending receive if what it waits for has arrived.
  bool poll();
  /// Sends the last frame again; false once it has had its attempts.
  bool resend();
  bool sent_last() const { return sent_last_; }

 private:
  /// A receive in progress, fed by poll().
  struct Waiter {
    explicit Waiter(DialogueWire& wire_end) : owner(wire_end) {}

    /// True when `frame` is what the receive waits for.
    virtual bool accept(const wire::Frame& frame) = 0;
    void await_suspend(std::coroutine_handle<>) { owner.waiter_ = this; }

    DialogueWire& owner;
    AbortReason reason = AbortReason::kNone;  // set when the wait failed
    bool noticed = false;  // the peer's notice (not the transport) ended it

   protected:
    // A half destroyed mid-receive leaves no dangling wait behind.
    ~Waiter() {
      if (owner.waiter_ == this) owner.waiter_ = nullptr;
    }
  };

  template <typename Packet>
  struct Receive final : Waiter {
    Receive(DialogueWire& wire_end,
            std::function<void(const wire::Frame&)> other_frames)
        : Waiter(wire_end), other(std::move(other_frames)) {}

    bool accept(const wire::Frame& frame) override {
      if (frame.type != Packet::kType) {
        if (other) other(frame);
        return false;
      }
      auto decoded = Packet::decode(frame.payload);
      if (!decoded.ok()) return false;
      packet = std::move(decoded.value);
      return true;
    }
    bool await_ready() { return this->owner.poll(*this); }
    Packet await_resume() {
      if (!packet.has_value()) throw StageEnd{this->reason};
      return std::move(*packet);
    }

    std::function<void(const wire::Frame&)> other;
    std::optional<Packet> packet;
  };

  struct Conclude final : Waiter {
    Conclude(DialogueWire& wire_end, AbortReason concluded)
        : Waiter(wire_end), verdict(concluded) {}

    bool accept(const wire::Frame&) override { return false; }
    bool await_ready() {
      if (verdict == AbortReason::kNone) return true;
      if (!owner.announces_) return owner.poll(*this);
      owner.abort(verdict);
      return true;
    }
    AbortReason await_resume() const { return noticed ? reason : verdict; }

    AbortReason verdict;
  };

  /// Reads frames until `waiter` accepts one or a notice or a transport
  /// failure ends the wait (true), or the queue drains (false).
  bool poll(Waiter& waiter);

  wire::Transport& io_;
  bool announces_;
  WireTraffic traffic_;
  Transcript sent_;
  Transcript received_;
  std::optional<Bytes> held_;  // kept back by next_is()
  Waiter* waiter_ = nullptr;
  Bytes last_;
  int sends_of_last_ = 0;
  bool sent_last_ = false;
  DialogueWire* peer_ = nullptr;
};

/// Runs both halves of one stage to their ends in this thread, Alice's
/// first. Returns the first verdict that is not kNone, Alice's before
/// Bob's; when retransmission runs out, Alice announces kChannelLost and
/// that is the verdict.
AbortReason interleave(StageHalf& alice, DialogueWire& alice_wire,
                       StageHalf& bob, DialogueWire& bob_wire);

/// Runs one half over a blocking transport. A receive that finds nothing
/// and no error (a drained in-memory transport, no peer to move) ends it
/// as kChannelLost.
AbortReason run_alone(StageHalf& half, DialogueWire& wire);

}  // namespace qkd::proto
