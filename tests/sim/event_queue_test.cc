#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "sim/event_queue.h"

namespace jasim {
namespace {

TEST(EventQueueTest, RunsInTimeOrder)
{
    EventQueue queue;
    std::vector<int> order;
    queue.scheduleAt(300, [&] { order.push_back(3); });
    queue.scheduleAt(100, [&] { order.push_back(1); });
    queue.scheduleAt(200, [&] { order.push_back(2); });
    queue.runUntil(1000);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakFifo)
{
    EventQueue queue;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        queue.scheduleAt(50, [&order, i] { order.push_back(i); });
    queue.runUntil(100);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, HorizonIsInclusive)
{
    EventQueue queue;
    bool ran = false;
    queue.scheduleAt(100, [&] { ran = true; });
    queue.runUntil(100);
    EXPECT_TRUE(ran);
}

TEST(EventQueueTest, EventsBeyondHorizonStayPending)
{
    EventQueue queue;
    bool ran = false;
    queue.scheduleAt(101, [&] { ran = true; });
    queue.runUntil(100);
    EXPECT_FALSE(ran);
    EXPECT_EQ(queue.pending(), 1u);
    EXPECT_EQ(queue.now(), 100u);
}

TEST(EventQueueTest, NowAdvancesToEventTime)
{
    EventQueue queue;
    SimTime seen = 0;
    queue.scheduleAt(77, [&] { seen = queue.now(); });
    queue.runUntil(200);
    EXPECT_EQ(seen, 77u);
    EXPECT_EQ(queue.now(), 200u);
}

TEST(EventQueueTest, EventsCanScheduleMoreEvents)
{
    EventQueue queue;
    int count = 0;
    std::function<void()> chain = [&] {
        ++count;
        if (count < 5)
            queue.scheduleAfter(10, chain);
    };
    queue.scheduleAt(0, chain);
    queue.runUntil(1000);
    EXPECT_EQ(count, 5);
}

TEST(EventQueueTest, ScheduleAfterUsesCurrentTime)
{
    EventQueue queue;
    SimTime when = 0;
    queue.scheduleAt(40, [&] {
        queue.scheduleAfter(5, [&] { when = queue.now(); });
    });
    queue.runUntil(100);
    EXPECT_EQ(when, 45u);
}

TEST(EventQueueTest, StepRunsOneEvent)
{
    EventQueue queue;
    int count = 0;
    queue.scheduleAt(1, [&] { ++count; });
    queue.scheduleAt(2, [&] { ++count; });
    EXPECT_TRUE(queue.step());
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(queue.step());
    EXPECT_EQ(count, 2);
    EXPECT_FALSE(queue.step());
}

TEST(EventQueueTest, ClearDropsPending)
{
    EventQueue queue;
    int count = 0;
    queue.scheduleAt(10, [&] { ++count; });
    queue.clear();
    queue.runUntil(100);
    EXPECT_EQ(count, 0);
}

TEST(EventQueueTest, RunUntilCountsExecutedEvents)
{
    EventQueue queue;
    for (int i = 0; i < 7; ++i)
        queue.scheduleAt(static_cast<SimTime>(i), [] {});
    EXPECT_EQ(queue.runUntil(100), 7u);
}

TEST(EventQueueTest, ExecutedAccumulatesAcrossRunsAndSteps)
{
    EventQueue queue;
    for (int i = 0; i < 5; ++i)
        queue.scheduleAt(static_cast<SimTime>(i * 10), [] {});
    EXPECT_EQ(queue.executed(), 0u);
    queue.runUntil(20); // events at 0, 10, 20
    EXPECT_EQ(queue.executed(), 3u);
    EXPECT_TRUE(queue.step());
    EXPECT_EQ(queue.executed(), 4u);
    queue.runUntil(1000);
    EXPECT_EQ(queue.executed(), 5u);
}

TEST(EventQueueTest, MoveOnlyActionsSupported)
{
    // std::function rejects move-only closures; the kernel's
    // InlineFunction must not.
    EventQueue queue;
    int seen = 0;
    auto owned = std::make_unique<int>(41);
    queue.scheduleAt(10, [p = std::move(owned), &seen] {
        seen = *p + 1;
    });
    queue.runUntil(100);
    EXPECT_EQ(seen, 42);
}

TEST(EventQueueTest, LargeCapturesRunViaHeapPath)
{
    EventQueue queue;
    std::array<std::uint64_t, 32> big{}; // 256 bytes: beyond inline
    big[0] = 7;
    std::uint64_t seen = 0;
    auto action = [big, &seen] { seen = big[0]; };
    static_assert(
        !EventQueue::Action::fitsInline<decltype(action)>());
    queue.scheduleAt(5, std::move(action));
    queue.runUntil(10);
    EXPECT_EQ(seen, 7u);
}

TEST(EventQueueTest, FifoTiesHoldAcrossInlineAndHeapActions)
{
    // Alternate small (inline) and large (heap) captures at one
    // timestamp: insertion order must still win the tie-break.
    EventQueue queue;
    std::vector<int> order;
    std::array<char, 100> pad{};
    for (int i = 0; i < 8; ++i) {
        if (i % 2 == 0)
            queue.scheduleAt(50, [&order, i] { order.push_back(i); });
        else
            queue.scheduleAt(50, [&order, i, pad] {
                order.push_back(i + pad[0]);
            });
    }
    queue.runUntil(100);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueTest, ClearDestroysPendingActions)
{
    EventQueue queue;
    auto held = std::make_shared<int>(1);
    std::weak_ptr<int> watch = held;
    queue.scheduleAt(10, [h = std::move(held)] { (void)*h; });
    queue.clear();
    EXPECT_TRUE(watch.expired());
}

} // namespace
} // namespace jasim
