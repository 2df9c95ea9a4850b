// Stress tests for the slab-allocated scheduler: schedule/cancel churn,
// re-entrant scheduling from inside callbacks, tombstone discard on pop, and
// generation-checked (ABA-safe) cancellation after slot reuse.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "sim/rng.h"
#include "sim/scheduler.h"

namespace xfa {
namespace {

TEST(SchedulerSlabTest, ChurnKeepsCountersAndOrderConsistent) {
  Scheduler scheduler;
  Rng rng(123);
  std::vector<SimTime> fired_at;
  std::vector<EventId> live;

  std::uint64_t scheduled = 0;
  std::uint64_t cancelled = 0;
  for (int round = 0; round < 2000; ++round) {
    const SimTime base = scheduler.now();
    for (int i = 0; i < 4; ++i) {
      live.push_back(scheduler.schedule_at(
          base + rng.uniform(0.0, 10.0),
          [&fired_at, &scheduler] { fired_at.push_back(scheduler.now()); }));
      ++scheduled;
    }
    // Cancel a pseudo-random half of what we know about.
    for (std::size_t i = live.size(); i-- > 0;) {
      if (rng.chance(0.5)) {
        if (scheduler.cancel(live[i])) ++cancelled;
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
    scheduler.run_until(base + rng.uniform(0.0, 0.5));
  }
  scheduler.run();

  EXPECT_EQ(scheduler.cancelled(), cancelled);
  EXPECT_EQ(scheduler.dispatched(), scheduled - cancelled);
  EXPECT_EQ(scheduler.dispatched(), fired_at.size());
  EXPECT_EQ(scheduler.pending(), 0u);
  EXPECT_GE(scheduler.peak_pending(), 1u);
  // Dispatch order must be time-sorted (FIFO ties don't reorder times).
  for (std::size_t i = 1; i < fired_at.size(); ++i)
    EXPECT_LE(fired_at[i - 1], fired_at[i]);
}

TEST(SchedulerSlabTest, ReentrantSchedulingFromCallbacksIsSafe) {
  Scheduler scheduler;
  std::uint64_t fired = 0;
  // Each callback schedules two more until a depth budget runs out; slab
  // growth happens while a callback (moved out of its slot) is running.
  struct Spawner {
    Scheduler& scheduler;
    std::uint64_t& fired;
    void operator()(int depth) const {
      ++fired;
      if (depth == 0) return;
      for (int i = 0; i < 2; ++i) {
        scheduler.schedule_in(0.1, [this, depth] { (*this)(depth - 1); });
      }
    }
  };
  Spawner spawner{scheduler, fired};
  scheduler.schedule_at(0.0, [&spawner] { spawner(10); });
  scheduler.run();
  EXPECT_EQ(fired, (1u << 11) - 1);  // full binary tree of depth 10
  EXPECT_EQ(scheduler.pending(), 0u);
}

TEST(SchedulerSlabTest, SelfCancelDuringDispatchIsANoOp) {
  Scheduler scheduler;
  EventId self = 0;
  bool ran = false;
  self = scheduler.schedule_at(1.0, [&] {
    ran = true;
    // The event is already being dispatched; its slot was released before
    // the callback ran, so cancelling "itself" must miss.
    EXPECT_FALSE(scheduler.cancel(self));
  });
  scheduler.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(scheduler.cancelled(), 0u);
}

TEST(SchedulerSlabTest, StaleIdCancelMissesAfterSlotReuse) {
  Scheduler scheduler;
  bool second_ran = false;
  const EventId first = scheduler.schedule_at(1.0, [] {});
  ASSERT_TRUE(scheduler.cancel(first));
  // The freed slot is reused with a bumped generation; the stale id must not
  // be able to cancel the new occupant.
  const EventId second =
      scheduler.schedule_at(2.0, [&second_ran] { second_ran = true; });
  EXPECT_NE(first, second);
  EXPECT_FALSE(scheduler.cancel(first));
  scheduler.run();
  EXPECT_TRUE(second_ran);
  EXPECT_EQ(scheduler.dispatched(), 1u);
  EXPECT_EQ(scheduler.cancelled(), 1u);
}

TEST(SchedulerSlabTest, CompactionPurgesTombstonesWithoutLosingEvents) {
  Scheduler scheduler;
  std::uint64_t fired = 0;
  std::vector<EventId> doomed;
  // A few survivors among a large tombstone population.
  for (int i = 0; i < 32; ++i)
    scheduler.schedule_at(100.0 + i, [&fired] { ++fired; });
  for (int i = 0; i < 4096; ++i)
    doomed.push_back(scheduler.schedule_at(10.0 + i * 0.01, [&fired] {
      ++fired;
    }));
  for (const EventId id : doomed) ASSERT_TRUE(scheduler.cancel(id));

  // The 4096 tombstones stay in the heap until popped; pending() counts only
  // the survivors, and draining discards every tombstone without firing it.
  EXPECT_EQ(scheduler.pending(), 32u);

  scheduler.run();
  EXPECT_EQ(fired, 32u);
  EXPECT_EQ(scheduler.dispatched(), 32u);
  EXPECT_EQ(scheduler.cancelled(), 4096u);
  EXPECT_EQ(scheduler.pending(), 0u);
}

TEST(SchedulerSlabTest, LargeCaptureCallbacksFallBackToHeapCorrectly) {
  Scheduler scheduler;
  // A capture larger than InlineFunction's inline buffer must still move
  // through slot reuse and dispatch intact.
  std::vector<std::uint64_t> payload(64);
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = i * i;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, 16> big{};
  big[0] = 7;
  big[15] = 9;
  scheduler.schedule_at(1.0, [payload, big, &sum] {
    for (const std::uint64_t v : payload) sum += v;
    sum += big[0] + big[15];
  });
  scheduler.run();
  std::uint64_t expected = 16;
  for (std::size_t i = 0; i < payload.size(); ++i) expected += i * i;
  EXPECT_EQ(sum, expected);
}

}  // namespace
}  // namespace xfa
