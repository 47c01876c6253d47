#include "sim/event_queue.h"

#include <cassert>
#include <utility>

namespace jasim {

void
EventQueue::siftUp(std::size_t i)
{
    const Entry moving = heap_[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!earlier(moving, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = moving;
}

void
EventQueue::siftDownFromRoot(Entry filler)
{
    // Bottom-up ("Wegener") pop: the filler came from the last leaf,
    // so it nearly always belongs back near the bottom. Sink the root
    // hole all the way down along the min-child path without comparing
    // the filler at each level (one compare per level instead of two),
    // drop the filler into the leaf hole, and sift it up the few steps
    // it actually needs (usually zero).
    const std::size_t size = heap_.size();
    std::size_t hole = 0;
    std::size_t child = 2; // right child of the root
    while (child < size) {
        if (earlier(heap_[child - 1], heap_[child]))
            --child;
        heap_[hole] = heap_[child];
        hole = child;
        child = 2 * child + 2;
    }
    if (child == size) { // hole has only a left child
        heap_[hole] = heap_[child - 1];
        hole = child - 1;
    }
    // Re-seat the filler from the leaf hole upward.
    while (hole > 0) {
        const std::size_t parent = (hole - 1) / 2;
        if (!earlier(filler, heap_[parent]))
            break;
        heap_[hole] = heap_[parent];
        hole = parent;
    }
    heap_[hole] = filler;
}

std::uint64_t
EventQueue::scheduleAt(SimTime when, Action &&action)
{
    assert(when >= now_ && "cannot schedule in the past");
    const std::uint64_t id = next_sequence_++;
    assert(id < (std::uint64_t{1} << (64 - kSlotBits)) &&
           "sequence numbers exhausted");

    std::uint32_t slot;
    if (free_slots_.empty()) {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.push_back(std::move(action));
    } else {
        slot = free_slots_.back();
        free_slots_.pop_back();
        slots_[slot] = std::move(action);
    }
    assert(slot <= kSlotMask && "too many pending events");

    heap_.push_back(Entry{when, (id << kSlotBits) | slot});
    siftUp(heap_.size() - 1);
    return id;
}

std::uint64_t
EventQueue::scheduleAfter(SimTime delay, Action &&action)
{
    return scheduleAt(now_ + delay, std::move(action));
}

EventQueue::Action
EventQueue::popEarliest()
{
    const Entry entry = heap_.front();
    const Entry filler = heap_.back();
    heap_.pop_back();
    if (!heap_.empty())
        siftDownFromRoot(filler);
    now_ = entry.when;
    // Move the closure out before running it: the action may schedule
    // more events and grow/reuse the pool under its own feet.
    const auto slot = static_cast<std::uint32_t>(entry.key & kSlotMask);
    Action action = std::move(slots_[slot]);
    free_slots_.push_back(slot);
    return action;
}

std::uint64_t
EventQueue::runUntil(SimTime horizon)
{
    std::uint64_t executed = 0;
    while (!heap_.empty() && heap_.front().when <= horizon) {
        Action action = popEarliest();
        action();
        ++executed;
    }
    executed_ += executed;
    if (now_ < horizon)
        now_ = horizon;
    return executed;
}

bool
EventQueue::step()
{
    if (heap_.empty())
        return false;
    Action action = popEarliest();
    action();
    ++executed_;
    return true;
}

void
EventQueue::clear()
{
    heap_.clear();
    slots_.clear();
    free_slots_.clear();
}

} // namespace jasim
