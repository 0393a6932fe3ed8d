// The concrete KeySupply: Qblock/lane framing, FIFO framing, reservation
// semantics, framing-misuse diagnostics, and mirrored-pool lockstep.
#include "src/keystore/key_pool.hpp"

#include <gtest/gtest.h>

#include "tests/testing/seeded_rng.hpp"

#include <string>

#include "src/common/rng.hpp"

namespace qkd::keystore {
namespace {

constexpr std::size_t kQ = KeySupply::kQblockBits;

TEST(KeyPool, StartsEmpty) {
  KeyPool pool;
  EXPECT_EQ(pool.available_bits(), 0u);
  EXPECT_EQ(pool.available_qblocks(), 0u);
  EXPECT_FALSE(pool.request_bits(1).has_value());
}

TEST(KeyPool, DepositRequestFifoOrder) {
  QKD_SEEDED_RNG(rng, 1);
  KeyPool pool;
  const auto bits = rng.next_bits(4096);
  pool.deposit(bits);
  const auto first = pool.request_bits(1000);
  const auto second = pool.request_bits(1000);
  ASSERT_TRUE(first && second);
  EXPECT_EQ(first->bits, bits.slice(0, 1000));
  EXPECT_EQ(second->bits, bits.slice(1000, 1000));
  // key_ids are the per-supply sequence both mirrored ends would derive.
  EXPECT_EQ(first->key_id, 1u);
  EXPECT_EQ(second->key_id, 2u);
}

TEST(KeyPool, QblockAccountingMatchesFig12Units) {
  QKD_SEEDED_RNG(rng, 2);
  KeyPool pool;
  pool.deposit(rng.next_bits(4 * kQ + 100));
  // Four complete blocks interleave into two lanes of two.
  EXPECT_EQ(pool.available_qblocks(0), 2u);
  EXPECT_EQ(pool.available_qblocks(1), 2u);
  const auto block = pool.request_qblocks(1, 0);
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(block->bits.size(), 1024u);  // "reply 1 Qblocks 1024 bits"
  EXPECT_EQ(pool.available_qblocks(0), 1u);
  EXPECT_EQ(pool.available_qblocks(1), 2u);  // other lane untouched
}

TEST(KeyPool, LanesAreDisjointAndDeterministic) {
  // Two mirrored pools serving concurrent opposite-direction negotiations:
  // lane withdrawals must commute — any interleaving yields the same blocks.
  QKD_SEEDED_RNG(rng, 21);
  const auto stream = rng.next_bits(8 * kQ);
  KeyPool alice, bob;
  alice.deposit(stream);
  bob.deposit(stream);
  // Alice services lane 0 then lane 1; Bob the reverse order.
  const auto a0 = alice.request_qblocks(2, 0);
  const auto a1 = alice.request_qblocks(1, 1);
  const auto b1 = bob.request_qblocks(1, 1);
  const auto b0 = bob.request_qblocks(2, 0);
  ASSERT_TRUE(a0 && a1 && b0 && b1);
  EXPECT_EQ(a0->bits, b0->bits);
  EXPECT_EQ(a1->bits, b1->bits);
  // Lane 0 got absolute blocks 0 and 2; lane 1 got block 1.
  EXPECT_EQ(a1->bits, stream.slice(kQ, kQ));
}

TEST(KeyPool, MixedFramingThrowsWithPoolModeAndCallSites) {
  // Satellite: the misuse diagnostic must name the pool, the framing mode
  // it is in, and both call sites — in both orderings.
  QKD_SEEDED_RNG(rng, 22);
  KeyPool linear_first("alice-gw");
  linear_first.deposit(rng.next_bits(4096));
  ASSERT_TRUE(linear_first.request_bits(10, "first-linear-site").has_value());
  try {
    linear_first.request_qblocks(1, 0, "late-laned-site");
    FAIL() << "mixed framing must throw";
  } catch (const std::logic_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("alice-gw"), std::string::npos) << what;
    EXPECT_NE(what.find("linear FIFO"), std::string::npos) << what;
    EXPECT_NE(what.find("Qblock/lane"), std::string::npos) << what;
    EXPECT_NE(what.find("first-linear-site"), std::string::npos) << what;
    EXPECT_NE(what.find("late-laned-site"), std::string::npos) << what;
  }

  KeyPool laned_first("bob-gw");
  laned_first.deposit(rng.next_bits(4096));
  ASSERT_TRUE(
      laned_first.request_qblocks(1, 0, "first-laned-site").has_value());
  try {
    laned_first.request_bits(10, "late-linear-site");
    FAIL() << "mixed framing must throw";
  } catch (const std::logic_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("bob-gw"), std::string::npos) << what;
    EXPECT_NE(what.find("Qblock/lane"), std::string::npos) << what;
    EXPECT_NE(what.find("linear FIFO"), std::string::npos) << what;
    EXPECT_NE(what.find("first-laned-site"), std::string::npos) << what;
    EXPECT_NE(what.find("late-linear-site"), std::string::npos) << what;
  }

  // An unlabelled pool with unspecified sites still produces a message.
  KeyPool anonymous;
  anonymous.deposit(rng.next_bits(4096));
  ASSERT_TRUE(anonymous.request_bits(10).has_value());
  try {
    anonymous.request_qblocks(1, 0);
    FAIL() << "mixed framing must throw";
  } catch (const std::logic_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("unlabelled"), std::string::npos) << what;
    EXPECT_NE(what.find("(unspecified)"), std::string::npos) << what;
  }
}

TEST(KeyPool, LaneRefusalLeavesStateIntact) {
  QKD_SEEDED_RNG(rng, 23);
  KeyPool pool;
  pool.deposit(rng.next_bits(3 * kQ));  // lanes: 2 / 1
  EXPECT_FALSE(pool.request_qblocks(2, 1).has_value());
  EXPECT_EQ(pool.available_qblocks(1), 1u);
  EXPECT_TRUE(pool.request_qblocks(1, 1).has_value());
}

TEST(KeyPool, RefusesPartialWithdrawal) {
  QKD_SEEDED_RNG(rng, 3);
  KeyPool pool;
  pool.deposit(rng.next_bits(100));
  EXPECT_FALSE(pool.request_bits(101).has_value());
  EXPECT_EQ(pool.available_bits(), 100u);  // untouched after refusal
  EXPECT_EQ(pool.stats().failed_withdrawals, 1u);
}

TEST(KeyPool, MirroredPoolsStayInLockstep) {
  // The property the whole Qblock design rests on: two pools fed the same
  // deposits return the same bits (and key_ids) for the same request
  // sequence.
  QKD_SEEDED_RNG(rng, 4);
  KeyPool a, b;
  for (int i = 0; i < 10; ++i) {
    const auto bits = rng.next_bits(500 + i * 37);
    a.deposit(bits);
    b.deposit(bits);
  }
  for (std::size_t n : {100u, 1024u, 7u, 2048u, 333u}) {
    const auto from_a = a.request_bits(n);
    const auto from_b = b.request_bits(n);
    ASSERT_TRUE(from_a && from_b);
    EXPECT_EQ(from_a->bits, from_b->bits);
    EXPECT_EQ(from_a->key_id, from_b->key_id);
  }
}

TEST(KeyPool, ReserveAcknowledgeConsumesForGood) {
  QKD_SEEDED_RNG(rng, 31);
  const auto stream = rng.next_bits(8 * kQ);
  KeyPool pool;
  pool.deposit(stream);
  const auto reserved = pool.reserve_qblocks(2, 0);
  ASSERT_TRUE(reserved.has_value());
  EXPECT_EQ(reserved->bits.size(), 2 * kQ);
  // Earmarked blocks stop being served...
  EXPECT_EQ(pool.available_qblocks(0), 2u);
  EXPECT_EQ(pool.stats().bits_reserved, 2 * kQ);
  // ...but are not yet counted consumed.
  EXPECT_EQ(pool.stats().bits_withdrawn, 0u);
  pool.acknowledge(reserved->key_id);
  EXPECT_EQ(pool.stats().bits_withdrawn, 2 * kQ);
  EXPECT_EQ(pool.stats().qblocks_withdrawn, 2u);
  EXPECT_EQ(pool.stats().bits_reserved, 0u);
  // Settling twice is a caller bug.
  EXPECT_THROW(pool.acknowledge(reserved->key_id), std::invalid_argument);
  EXPECT_THROW(pool.release(reserved->key_id), std::invalid_argument);
  EXPECT_THROW(pool.acknowledge(999u), std::invalid_argument);
}

TEST(KeyPool, ReleasedBlocksAreReservedAgainInOrder) {
  QKD_SEEDED_RNG(rng, 32);
  const auto stream = rng.next_bits(12 * kQ);
  KeyPool pool;
  pool.deposit(stream);
  const auto first = pool.reserve_qblocks(3, 0);  // lane-0 blocks 0,1,2
  ASSERT_TRUE(first.has_value());
  pool.release(first->key_id);
  EXPECT_EQ(pool.stats().bits_released, 3 * kQ);
  EXPECT_EQ(pool.available_qblocks(0), 6u);  // all 6 lane-0 blocks again
  // Re-serving starts from the released blocks, lowest index first: a
  // smaller request returns a prefix of the released material.
  const auto second = pool.request_qblocks(2, 0);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->bits, first->bits.slice(0, 2 * kQ));
  // And the next request continues with the released remainder before any
  // fresh block.
  const auto third = pool.request_qblocks(2, 0);
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->bits.slice(0, kQ), first->bits.slice(2 * kQ, kQ));
}

TEST(KeyPool, MirroredPoolsSurvivePartialGrantsAndAbandonedOffers) {
  // The IKE pattern: the initiator earmarks an offer, the responder
  // consumes only what it grants, the initiator releases and re-requests
  // the granted amount — or abandons the offer entirely. Both pools must
  // keep returning identical blocks afterwards.
  QKD_SEEDED_RNG(rng, 33);
  const auto stream = rng.next_bits(20 * kQ);
  KeyPool initiator, responder;
  initiator.deposit(stream);
  responder.deposit(stream);

  // Offer 3 blocks; responder grants 2.
  const auto offer = initiator.reserve_qblocks(3, 0);
  ASSERT_TRUE(offer.has_value());
  const auto granted = responder.request_qblocks(2, 0);
  initiator.release(offer->key_id);
  const auto settled = initiator.request_qblocks(2, 0);
  ASSERT_TRUE(granted && settled);
  EXPECT_EQ(settled->bits, granted->bits);

  // An abandoned offer (timeout before the responder saw it): release only.
  const auto abandoned = initiator.reserve_qblocks(4, 0);
  ASSERT_TRUE(abandoned.has_value());
  initiator.release(abandoned->key_id);

  // The next negotiation still matches block for block.
  const auto a_next = initiator.request_qblocks(3, 0);
  const auto r_next = responder.request_qblocks(3, 0);
  ASSERT_TRUE(a_next && r_next);
  EXPECT_EQ(a_next->bits, r_next->bits);
}

TEST(KeyPool, StatsTrackVolumes) {
  QKD_SEEDED_RNG(rng, 5);
  KeyPool pool;
  pool.deposit(rng.next_bits(8192));
  pool.request_qblocks(2, 0);
  EXPECT_EQ(pool.stats().bits_deposited, 8192u);
  EXPECT_EQ(pool.stats().bits_withdrawn, 2048u);
  EXPECT_EQ(pool.stats().qblocks_withdrawn, 2u);
  EXPECT_EQ(pool.stats().bits_reserved, 0u);  // request settles immediately
}

TEST(KeyPool, TakeAllDrainsEverything) {
  QKD_SEEDED_RNG(rng, 6);
  KeyPool pool;
  const auto bits = rng.next_bits(3333);
  pool.deposit(bits);
  const KeyBlock all = pool.take_all();
  EXPECT_EQ(all.bits, bits);
  EXPECT_EQ(pool.available_bits(), 0u);
  EXPECT_TRUE(pool.take_all().bits.empty());
}

TEST(KeyPool, CompactionPreservesContentAcrossReservations) {
  // Push enough through the pool to trigger internal compaction — with
  // interleaved reserve/release traffic — and verify the stream stays
  // correct across it.
  QKD_SEEDED_RNG(rng, 7);
  KeyPool pool;
  qkd::BitVector reference;
  for (int i = 0; i < 30; ++i) {
    const auto bits = rng.next_bits(100 * kQ);
    pool.deposit(bits);
    reference.append(bits);
  }
  std::size_t cursor = 0;  // lane-local block index, same for both lanes
  while (pool.available_qblocks(0) >= 40 && pool.available_qblocks(1) >= 40) {
    // Hold a reservation open across the withdrawal to pin compaction.
    const auto held = pool.reserve_qblocks(3, 0);
    ASSERT_TRUE(held.has_value());
    pool.release(held->key_id);
    for (unsigned lane = 0; lane < 2; ++lane) {
      const auto chunk = pool.request_qblocks(40, lane);
      ASSERT_TRUE(chunk.has_value());
      for (std::size_t b = 0; b < 40; ++b) {
        const std::size_t abs_block = 2 * (cursor + b) + lane;
        EXPECT_EQ(chunk->bits.slice(b * kQ, kQ),
                  reference.slice(abs_block * kQ, kQ))
            << "lane " << lane << " block " << cursor + b;
      }
    }
    cursor += 40;
  }
  EXPECT_GT(cursor, 1000u);  // compaction definitely engaged
}

TEST(KeyPool, LinearCompactionKeepsTheStreamAtOddCursors) {
  // Odd-sized deposits and withdrawals leave both the pool's size and its
  // cursor off word boundaries, so every append and every compaction's
  // slice shifts words. The live backlog stays under 1 Kbit, so each 64
  // Kbit withdrawn crosses the compaction floor once: withdrawing 21 x 64
  // Kbit compacts at least 20 times.
  QKD_SEEDED_RNG(rng, 29);
  KeyPool pool;
  qkd::BitVector deposited;
  qkd::BitVector withdrawn;
  const std::size_t sizes[] = {61, 97, 129};
  for (std::size_t step = 0; withdrawn.size() < 21u << 16; ++step) {
    const auto bits = rng.next_bits(sizes[step % 3]);
    pool.deposit(bits);
    deposited.append(bits);
    const std::size_t want = sizes[(step + 1) % 3];
    if (pool.available_bits() < want) continue;
    const auto block = pool.request_bits(want);
    ASSERT_TRUE(block.has_value());
    ASSERT_EQ(block->bits.size(), want);
    withdrawn.append(block->bits);
    ASSERT_LT(pool.available_bits(), 1024u);
  }
  EXPECT_EQ(withdrawn, deposited.slice(0, withdrawn.size()));
}

TEST(KeySupply, EventsFireOnCrossingsAndExhaustion) {
  QKD_SEEDED_RNG(rng, 8);
  KeyPool pool;
  pool.set_low_water_bits(2048);
  std::vector<SupplyEvent> events;
  const std::uint64_t token = pool.subscribe(
      [&events](const SupplyEvent& event) { events.push_back(event); });

  pool.deposit(rng.next_bits(1024));  // below the mark: no crossing
  EXPECT_TRUE(events.empty());
  pool.deposit(rng.next_bits(3072));  // 4096 total: upward crossing
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, SupplyEventKind::kReplenished);
  EXPECT_EQ(events[0].available_bits, 4096u);

  ASSERT_TRUE(pool.request_bits(3000).has_value());  // 1096 left: low water
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].kind, SupplyEventKind::kLowWater);
  EXPECT_EQ(events[1].available_bits, 1096u);

  EXPECT_FALSE(pool.request_bits(9999).has_value());  // exhaustion
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[2].kind, SupplyEventKind::kExhausted);
  EXPECT_EQ(events[2].requested_bits, 9999u);
  EXPECT_EQ(events[2].available_bits, 1096u);

  pool.deposit(rng.next_bits(2048));  // back over the mark
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[3].kind, SupplyEventKind::kReplenished);

  // An unsubscribed observer sees nothing further (observers with shorter
  // lifetimes than the supply must unsubscribe).
  pool.unsubscribe(token);
  EXPECT_FALSE(pool.request_bits(1 << 20).has_value());  // would be kExhausted
  EXPECT_EQ(events.size(), 4u);
}

TEST(KeySupply, ReleaseCanReplenishPastTheMark) {
  // A released reservation is a deposit from the consumer's point of view:
  // it can end a low-water episode.
  QKD_SEEDED_RNG(rng, 9);
  KeyPool pool;
  pool.deposit(rng.next_bits(4 * kQ));
  pool.set_low_water_bits(3 * kQ);
  std::vector<SupplyEventKind> kinds;
  pool.subscribe([&kinds](const SupplyEvent& event) {
    kinds.push_back(event.kind);
  });
  const auto held = pool.reserve_qblocks(2, 0);  // drops to 2 blocks: low
  ASSERT_TRUE(held.has_value());
  ASSERT_EQ(kinds.size(), 1u);
  EXPECT_EQ(kinds[0], SupplyEventKind::kLowWater);
  pool.release(held->key_id);  // back to 4 blocks: replenished
  ASSERT_EQ(kinds.size(), 2u);
  EXPECT_EQ(kinds[1], SupplyEventKind::kReplenished);
}

TEST(KeySupply, FailedReserveEmitsExactlyOneExhaustedEventPerFailure) {
  // The event names the FAILURE, not the shortfall: a reserve that asks
  // for five blocks from an empty lane is one failed call, one kExhausted —
  // not one per missing block.
  KeyPool pool("starved");
  std::size_t exhausted = 0;
  std::vector<SupplyEvent> events;
  pool.subscribe([&](const SupplyEvent& event) {
    events.push_back(event);
    if (event.kind == SupplyEventKind::kExhausted) ++exhausted;
  });

  EXPECT_FALSE(pool.reserve_qblocks(5, 0).has_value());
  EXPECT_EQ(exhausted, 1u);
  EXPECT_EQ(events.back().requested_bits, 5 * KeySupply::kQblockBits);
  EXPECT_EQ(events.back().available_bits, 0u);

  // A second failed call is a second failure: exactly one more event.
  EXPECT_FALSE(pool.reserve_qblocks(3, 1).has_value());
  EXPECT_EQ(exhausted, 2u);

  // A partially-stocked lane that still cannot cover the ask: one event.
  QKD_SEEDED_RNG(rng, 5);
  pool.deposit(rng.next_bits(2 * KeySupply::kQblockBits));  // 1 block/lane
  EXPECT_FALSE(pool.reserve_qblocks(4, 0).has_value());
  EXPECT_EQ(exhausted, 3u);
  EXPECT_EQ(events.size(), 3u) << "no other event kinds fired";
}

TEST(KeySupply, SelfUnsubscribingObserverDoesNotStarveLaterObservers) {
  // An observer that unsubscribes from inside its own callback must not
  // displace the observers behind it out of the in-flight event.
  KeyPool pool("one-shot");
  std::uint64_t first_token = 0;
  std::size_t first_seen = 0, second_seen = 0;
  first_token = pool.subscribe([&](const SupplyEvent&) {
    ++first_seen;
    pool.unsubscribe(first_token);  // one-shot observer
  });
  pool.subscribe([&second_seen](const SupplyEvent&) { ++second_seen; });

  EXPECT_FALSE(pool.request_bits(64).has_value());  // kExhausted
  EXPECT_EQ(first_seen, 1u);
  EXPECT_EQ(second_seen, 1u) << "must still receive the in-flight event";

  EXPECT_FALSE(pool.request_bits(64).has_value());
  EXPECT_EQ(first_seen, 1u) << "one-shot observer is gone";
  EXPECT_EQ(second_seen, 2u);
}

TEST(KeySupply, ReplenishHandlerThatImmediatelyWithdrawsKeepsLaneLockstep) {
  // A callback re-entering the supply mid-event (the replenish handler of
  // a stalled consumer withdrawing on the spot) must leave lane state
  // coherent: a mirrored pool driven through the *resulting* call sequence
  // derives identical blocks and ids.
  QKD_SEEDED_RNG(rng, 6);
  const qkd::BitVector seed_bits = rng.next_bits(2 * KeySupply::kQblockBits);
  const qkd::BitVector refill_bits = rng.next_bits(8 * KeySupply::kQblockBits);

  KeyPool pool("reentrant");
  pool.set_low_water_bits(2 * KeySupply::kQblockBits);
  pool.deposit(seed_bits);
  ASSERT_TRUE(pool.request_qblocks(1, 0).has_value());  // dip below the mark

  std::vector<KeyBlock> reentrant_blocks;
  pool.subscribe([&pool, &reentrant_blocks](const SupplyEvent& event) {
    if (event.kind != SupplyEventKind::kReplenished) return;
    // Withdraw from inside the deposit's own callback.
    auto block = pool.request_qblocks(1, 0, "replenish-handler");
    ASSERT_TRUE(block.has_value());
    reentrant_blocks.push_back(std::move(*block));
  });
  pool.deposit(refill_bits);
  ASSERT_EQ(reentrant_blocks.size(), 1u);

  // After the dust settles, the pool still reserves/acknowledges/releases
  // coherently...
  auto reserved = pool.reserve_qblocks(2, 0);
  ASSERT_TRUE(reserved.has_value());
  pool.release(reserved->key_id);
  auto reserved_again = pool.reserve_qblocks(2, 0);
  ASSERT_TRUE(reserved_again.has_value());
  EXPECT_TRUE(reserved_again->bits == reserved->bits);
  pool.acknowledge(reserved_again->key_id);

  // ...and a mirror pool replaying the same external sequence (with the
  // reentrant withdrawal inlined where the event fired) lands on the same
  // bits and ids throughout.
  KeyPool mirror("mirror");
  mirror.deposit(seed_bits);
  ASSERT_TRUE(mirror.request_qblocks(1, 0).has_value());
  mirror.deposit(refill_bits);
  const auto mirror_reentrant = mirror.request_qblocks(1, 0);
  ASSERT_TRUE(mirror_reentrant.has_value());
  EXPECT_EQ(mirror_reentrant->key_id, reentrant_blocks[0].key_id);
  EXPECT_TRUE(mirror_reentrant->bits == reentrant_blocks[0].bits);
  auto mirror_reserved = mirror.reserve_qblocks(2, 0);
  ASSERT_TRUE(mirror_reserved.has_value());
  mirror.release(mirror_reserved->key_id);
  const auto mirror_again = mirror.reserve_qblocks(2, 0);
  ASSERT_TRUE(mirror_again.has_value());
  EXPECT_EQ(mirror_again->key_id, reserved_again->key_id);
  EXPECT_TRUE(mirror_again->bits == reserved_again->bits);
  mirror.acknowledge(mirror_again->key_id);
  EXPECT_EQ(mirror.available_qblocks(0), pool.available_qblocks(0));
  EXPECT_EQ(mirror.available_qblocks(1), pool.available_qblocks(1));
}

}  // namespace
}  // namespace qkd::keystore
