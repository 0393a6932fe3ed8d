#include "src/kms/shard.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace qkd::kms {

// ---- Construction ----------------------------------------------------------

KmsShard::KmsShard(KeyManagementService& service, std::size_t index,
                   sim::EventScheduler& stream)
    : service_(service), index_(index), stream_(stream) {}

KmsShard::~KmsShard() {
  for (auto& pair : pairs_)
    if (pair->service_event.valid()) stream_.cancel(pair->service_event);
}

// ---- Pair registry ---------------------------------------------------------

namespace {
bool pair_precedes(const std::unique_ptr<PairState>& pair,
                   const std::pair<network::NodeId, network::NodeId>& key) {
  return std::make_pair(pair->src, pair->dst) < key;
}
}  // namespace

PairState* KmsShard::find_pair(network::NodeId src, network::NodeId dst) {
  const auto key = std::make_pair(src, dst);
  const auto it =
      std::lower_bound(pairs_.begin(), pairs_.end(), key, pair_precedes);
  if (it == pairs_.end() || (*it)->src != src || (*it)->dst != dst)
    return nullptr;
  return it->get();
}

PairState& KmsShard::pair_for(network::NodeId src, network::NodeId dst) {
  const auto key = std::make_pair(src, dst);
  const auto it =
      std::lower_bound(pairs_.begin(), pairs_.end(), key, pair_precedes);
  if (it != pairs_.end() && (*it)->src == src && (*it)->dst == dst)
    return **it;
  auto pair = std::make_unique<PairState>();
  pair->src = src;
  pair->dst = dst;
  const std::string tag = std::to_string(src) + "->" + std::to_string(dst);
  pair->src_store.set_label("kms:" + tag + ":src");
  pair->dst_store.set_label("kms:" + tag + ":dst");
  // The pair's key-material stream: derived from the service seed and the
  // ordered pair alone, so it is the same no matter which shard — of
  // however many — the pair lands on.
  std::uint64_t state = service_.config_.seed;
  qkd::splitmix64(state);
  state ^= (static_cast<std::uint64_t>(src) << 32) ^ dst;
  pair->frame_rng = qkd::Rng(qkd::splitmix64(state));
  pair->pool_gauge = &service_.pool_gauge_for(src, dst);
  return **pairs_.insert(it, std::move(pair));
}

// ---- Delivery --------------------------------------------------------------

void KmsShard::finish(Request& request, std::size_t qos, GrantStatus status,
                      qkd::SimTime now) {
  switch (status) {
    case GrantStatus::kRejectedQueueFull:
      count<&ClassStats::rejected_queue_full>(qos);
      break;
    case GrantStatus::kShed: count<&ClassStats::shed>(qos); break;
    case GrantStatus::kDeparted: count<&ClassStats::departed>(qos); break;
    case GrantStatus::kGranted: break;  // grant_round accounts these
  }
  Grant grant;
  grant.client = request.client;
  grant.status = status;
  grant.requested_at = request.requested_at;
  grant.granted_at = now;
  if (service_.grant_observer_) service_.grant_observer_(grant);
  request.callback(grant);
}

void KmsShard::submit(PairState& pair, unsigned qos, Request request,
                      qkd::SimTime now) {
  count<&ClassStats::requests>(qos);
  // The admission decision is the first server-side leg of a traced
  // request; it parents under whatever context the caller propagated
  // (possibly off the wire).
  obs::ScopedSpan admit_span(tracer(), "kms.admit", request.trace, index_);
  // Admission control: a full (pair, class) queue pushes back at request
  // time instead of letting grant latency grow without bound.
  if (pair.queues[qos].size() >= service_.config_.max_queue_per_class) {
    if (admit_span.recording()) admit_span.attr("result", "queue-full");
    finish(request, qos, GrantStatus::kRejectedQueueFull, now);
    return;
  }
  if (admit_span.recording()) {
    admit_span.attr("qos", std::to_string(qos));
    admit_span.attr("bits", std::to_string(request.bits));
    admit_span.attr("result", "queued");
  }
  pair.queues[qos].push_back(std::move(request));
  queued(qos, 1);
  arm_service(pair, now + service_.config_.batch_window);
}

std::optional<keystore::KeyBlock> KmsShard::claim(PairState& own,
                                                  PairState* reversed,
                                                  std::uint64_t key_id,
                                                  ClientId claimant,
                                                  qkd::SimTime now) {
  PairState* candidates[2] = {&own, reversed};
  for (std::size_t side = 0; side < 2; ++side) {
    PairState* pair = candidates[side];
    if (pair == nullptr) continue;
    purge_expired_claims(*pair, now);
    const auto it = std::lower_bound(
        pair->claims.begin(), pair->claims.end(), key_id,
        [](const PendingClaim& c, std::uint64_t k) { return c.key_id < k; });
    if (it == pair->claims.end() || it->key_id != key_id || it->claimed)
      continue;
    const bool own_pair = side == 0;
    if (own_pair && it->initiator != claimant) return std::nullopt;
    keystore::KeyBlock block = std::move(it->block);
    it->claimed = true;  // tombstone; popped when it reaches the front
    --pair->live_claims;
    count<&Stats::claims_fulfilled>();
    return block;
  }
  return std::nullopt;
}

void KmsShard::purge_expired_claims(PairState& pair, qkd::SimTime now) {
  // The deque is in key_id == expiry order, so everything purgeable sits at
  // the front: claimed tombstones are simply dropped, expired unclaimed
  // copies are reclaimed. (A claim at exactly expires_at already reads
  // expired — strictly before, or it's gone.)
  while (!pair.claims.empty()) {
    PendingClaim& front = pair.claims.front();
    if (front.claimed) {
      pair.claims.pop_front();
      continue;
    }
    if (front.expires_at > now) break;
    // Reclaim, don't leak: the unclaimed peer copy's bits go back into BOTH
    // mirror stores through identical deposits, so the pair stays in
    // lockstep and the material is re-servable.
    const qkd::BitVector& bits = front.block.bits;
    pair.src_store.deposit(bits);
    pair.dst_store.deposit(bits);
    count<&Stats::bits_reclaimed>(bits.size());
    count<&Stats::claims_expired>();
    --pair.live_claims;
    pair.claims.pop_front();
    if (pair.pool_gauge != nullptr)
      pair.pool_gauge->store(pair.src_store.available_bits(),
                             std::memory_order_relaxed);
  }
}

void KmsShard::drain_departed(PairState& pair, ClientId id, qkd::SimTime now) {
  // Take the departed requests out before any callback runs: a callback
  // may call get_key on this pair, which pushes onto these queues.
  std::vector<std::pair<std::size_t, Request>> departed;
  for (std::size_t qos = 0; qos < kQosClassCount; ++qos) {
    auto& queue = pair.queues[qos];
    for (auto it = queue.begin(); it != queue.end();) {
      if (it->client == id) {
        departed.emplace_back(qos, std::move(*it));
        it = queue.erase(it);
        queued(qos, -1);
      } else {
        ++it;
      }
    }
  }
  for (auto& [qos, request] : departed)
    finish(request, qos, GrantStatus::kDeparted, now);
}

// ---- Scheduling ------------------------------------------------------------

void KmsShard::arm_service(PairState& pair, qkd::SimTime when) {
  if (when < stream_.now()) when = stream_.now();
  if (pair.service_event.valid() && pair.armed_for <= when) return;
  if (pair.service_event.valid()) stream_.cancel(pair.service_event);
  pair.armed_for = when;
  PairState* target = &pair;
  pair.service_event = stream_.at(when, [this, target](qkd::SimTime now) {
    target->service_event = sim::EventScheduler::Handle();
    target->armed_for = -1;
    service_round(*target, now);
  });
}

bool KmsShard::backlogged(const PairState& pair) {
  for (const auto& queue : pair.queues)
    if (!queue.empty()) return true;
  return false;
}

bool KmsShard::wake_backlogged(qkd::SimTime now) {
  bool woke = false;
  for (auto& pair : pairs_) {
    if (!backlogged(*pair)) continue;
    arm_service(*pair, now);
    woke = true;
  }
  return woke;
}

std::vector<std::pair<unsigned, Request>> KmsShard::select_round(
    PairState& pair) {
  // Deficit round robin, work-conserving: crediting passes repeat until
  // the frame payload cap is reached or every queue drains, so an idle
  // class's capacity flows to the backlogged ones — still at the weighted
  // ratio, still highest-priority-first within each pass, and a request
  // bigger than one pass's credit accrues deficit across passes instead of
  // blocking anyone else (no priority inversion).
  const KeyManagementService::Config& config = service_.config_;
  std::vector<std::pair<unsigned, Request>> round;
  std::size_t total_bits = 0;
  bool backlog = true;
  while (backlog && total_bits < config.max_frame_bits) {
    backlog = false;
    for (unsigned qos = 0; qos < kQosClassCount; ++qos) {
      auto& queue = pair.queues[qos];
      if (queue.empty()) {
        pair.deficit_bits[qos] = 0;  // DRR: idle classes do not hoard credit
        continue;
      }
      pair.deficit_bits[qos] += config.class_weights[qos] * config.quantum_bits;
      while (!queue.empty() && queue.front().bits <= pair.deficit_bits[qos] &&
             total_bits < config.max_frame_bits) {
        pair.deficit_bits[qos] -= queue.front().bits;
        total_bits += queue.front().bits;
        round.emplace_back(qos, std::move(queue.front()));
        queue.pop_front();
        queued(qos, -1);
      }
      if (queue.empty())
        pair.deficit_bits[qos] = 0;
      else
        backlog = true;
    }
  }
  return round;
}

void KmsShard::shed_lowest_class(PairState& pair, qkd::SimTime now) {
  // Lowest-priority backlog goes first; realtime (class 0) is never shed.
  for (unsigned qos = kQosClassCount; qos-- > 1;) {
    auto& queue = pair.queues[qos];
    if (queue.empty()) continue;
    // Empty the queue before any callback runs: a callback may call
    // get_key on this pair, and its request must survive the shed.
    std::deque<Request> shed;
    shed.swap(queue);
    queued(qos, -static_cast<std::ptrdiff_t>(shed.size()));
    pair.deficit_bits[qos] = 0;
    count<&Stats::shed_events>();
    shedding_.store(true, std::memory_order_relaxed);
    for (Request& request : shed) finish(request, qos, GrantStatus::kShed, now);
    return;
  }
}

void KmsShard::grant_round(
    PairState& pair, std::vector<std::pair<unsigned, Request>>& round,
    const network::MeshSimulation::TransportResult& frame, qkd::SimTime now,
    obs::TraceContext trace) {
  obs::ScopedSpan grant_span(tracer(), "kms.grant_round", trace, index_);
  if (grant_span.recording()) {
    grant_span.attr("requests", std::to_string(round.size()));
    grant_span.attr("payload_bits", std::to_string(frame.key.size()));
  }
  // Both endpoints received the frame payload: deposit it into the two
  // mirror-image pools, then withdraw per request through identical calls —
  // the key_ids the two stores assign are equal by the keystore's mirrored
  // lockstep, which is exactly the cross-end key-ID agreement get_key /
  // get_key_with_id needs.
  pair.src_store.deposit(frame.key);
  pair.dst_store.deposit(frame.key);
  for (auto& [qos, request] : round) {
    const auto src_block =
        pair.src_store.request_bits(request.bits, "kms::grant_round(src)");
    const auto dst_block =
        pair.dst_store.request_bits(request.bits, "kms::grant_round(dst)");
    if (!src_block.has_value() || !dst_block.has_value() ||
        src_block->key_id != dst_block->key_id)
      throw std::logic_error(
          "KeyManagementService: mirrored pair stores diverged");
    pair.claims.push_back(PendingClaim{dst_block->key_id, *dst_block,
                                       request.client,
                                       now + service_.config_.claim_ttl,
                                       false});
    ++pair.live_claims;

    count<&ClassStats::granted>(qos);
    count<&ClassStats::bits_granted>(qos, request.bits);
    const qkd::SimTime latency = now - request.requested_at;
    service_.grant_latency_[qos].record(static_cast<std::uint64_t>(latency),
                                        index_);
    if (latency <= service_.config_.slo_grant_latency)
      count<&ClassStats::granted_within_slo>(qos);

    Grant grant;
    grant.client = request.client;
    grant.status = GrantStatus::kGranted;
    grant.key_id = src_block->key_id;
    grant.bits = src_block->bits;
    grant.exposed_to = frame.exposed_to;
    grant.compromised = frame.compromised;
    grant.requested_at = request.requested_at;
    grant.granted_at = now;
    if (service_.grant_observer_) service_.grant_observer_(grant);
    request.callback(grant);
  }
  if (pair.pool_gauge != nullptr)
    pair.pool_gauge->store(pair.src_store.available_bits(),
                           std::memory_order_relaxed);
}

void KmsShard::service_round(PairState& pair, qkd::SimTime now) {
  count<&Stats::service_rounds>();
  purge_expired_claims(pair, now);

  auto round = select_round(pair);
  if (round.empty()) {
    // A backlogged class whose head request outruns this round's credit
    // keeps accruing deficit on the next round.
    if (backlogged(pair)) arm_service(pair, now + service_.config_.batch_window);
    return;
  }

  // Selection runs BEFORE the round span opens so the span can be born
  // under the adopted context (the first traced request's) — reparenting
  // after the fact would leave already-opened children in the wrong trace.
  // The DRR pass itself is recorded as an annotation child.
  obs::TraceContext adopted;
  for (const auto& [qos, request] : round)
    if (request.trace.valid()) { adopted = request.trace; break; }
  obs::ScopedSpan round_span(tracer(), "kms.service_round", adopted, index_);
  if (round_span.recording()) {
    round_span.attr("pair", std::to_string(pair.src) + "->" +
                                std::to_string(pair.dst));
    round_span.attr("requests", std::to_string(round.size()));
    obs::ScopedSpan drr_span(tracer(), "kms.drr_select", round_span.context(),
                             index_);
    drr_span.attr("selected", std::to_string(round.size()));
  }

  FrameJob job;
  job.pair = &pair;
  for (const auto& [qos, request] : round) job.payload_bits += request.bits;
  job.round = std::move(round);
  job.trace = round_span.context();
  if (service_.sharded_ != nullptr) {
    // Park the selection: the window barrier plans the transport in global
    // (src, dst) order and finalize_outbox() settles it. The round's
    // context rides along so the barrier plan and the finalize spans stay
    // in this trace.
    outbox_.push_back(std::move(job));
    return;
  }
  // One stream, one shard: nothing else can plan in between, so plan and
  // settle now.
  service_.plan_frame(job);
  settle(job, now);
}

void KmsShard::settle(FrameJob& job, qkd::SimTime now) {
  PairState& pair = *job.pair;
  const KeyManagementService::Config& config = service_.config_;
  obs::ScopedSpan finalize_span(tracer(), "kms.finalize", job.trace, index_);
  if (!job.plan.success) {
    count<&Stats::starved_rounds>();
    ++pair.consecutive_starved;
    if (finalize_span.recording()) finalize_span.attr("result", "starved");
    // Requeue in reverse so each class queue keeps its FIFO order; the
    // spent deficit is handed back so the retry round can select the same
    // set immediately.
    for (auto it = job.round.rbegin(); it != job.round.rend(); ++it) {
      pair.deficit_bits[it->first] += it->second.bits;
      pair.queues[it->first].push_front(std::move(it->second));
      queued(it->first, 1);
    }
    job.round.clear();
    if (pair.consecutive_starved >= config.shed_after_starved_rounds)
      shed_lowest_class(pair, now);
    if (backlogged(pair)) arm_service(pair, now + config.retry_backoff);
    return;
  }
  count<&Stats::transports>();
  pair.consecutive_starved = 0;
  shedding_.store(false, std::memory_order_relaxed);
  if (finalize_span.recording())
    finalize_span.attr("hops", std::to_string(job.plan.route.links.size()));
  // Materialize the frame from the pair's own deterministic stream — no
  // shared rng, no mesh state, so every shard finalizes concurrently.
  const auto frame =
      network::MeshSimulation::finalize_frame(job.plan, pair.frame_rng);
  grant_round(pair, job.round, frame, now, finalize_span.context());
  if (backlogged(pair)) arm_service(pair, now + config.batch_window);
}

// ---- Frame barrier ---------------------------------------------------------

void KmsShard::collect_jobs(std::vector<FrameJob*>& out) {
  for (FrameJob& job : outbox_) out.push_back(&job);
}

void KmsShard::finalize_outbox(qkd::SimTime now) {
  // Take the jobs before settling any: if a grant callback throws, the
  // outbox is already empty and the next barrier cannot re-plan (and
  // re-grant) rounds that were settled before the throw.
  std::vector<FrameJob> jobs = std::exchange(outbox_, {});
  for (FrameJob& job : jobs) settle(job, now);
  jobs.clear();
  outbox_ = std::move(jobs);  // keep the capacity for the next window
}

// ---- Introspection ---------------------------------------------------------

obs::Tracer* KmsShard::tracer() const { return service_.tracer_; }

void KmsShard::inspect_into(
    std::vector<KeyManagementService::PairInspection>& out) const {
  for (const auto& pair : pairs_) {
    KeyManagementService::PairInspection inspection;
    inspection.src = pair->src;
    inspection.dst = pair->dst;
    inspection.src_available_bits = pair->src_store.available_bits();
    inspection.dst_available_bits = pair->dst_store.available_bits();
    inspection.src_next_key_id = pair->src_store.next_key_id();
    inspection.dst_next_key_id = pair->dst_store.next_key_id();
    inspection.src_stats = pair->src_store.stats();
    inspection.dst_stats = pair->dst_store.stats();
    inspection.claims_outstanding = pair->live_claims;
    for (std::size_t qos = 0; qos < kQosClassCount; ++qos)
      inspection.queue_depths[qos] = pair->queues[qos].size();
    out.push_back(std::move(inspection));
  }
}

}  // namespace qkd::kms
