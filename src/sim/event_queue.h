/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A minimal but complete event queue: events are closures scheduled at
 * absolute simulated times; ties are broken FIFO by insertion order so
 * simulations are deterministic. The system-level tier of jasim (driver,
 * app server, database, disks, GC scheduling) runs entirely on this
 * kernel.
 *
 * Hot-path notes: actions are `InlineFunction`s, so the common
 * dispatch closures live in pooled inline storage instead of behind a
 * per-event allocation (std::function heap-allocates anything over
 * its ~16-byte SSO buffer). Closure storage is a recycled slot pool;
 * the priority queue holds only 16-byte POD entries (when, packed
 * sequence+slot) in an implicit binary min-heap with bottom-up
 * ("Wegener") pops, so ordering moves two words rather than whole
 * closures and pays roughly one comparison per level instead of two.
 * `bench/micro_eventqueue` measures the combined effect against the
 * old `std::function` + `std::priority_queue` kernel.
 */

#ifndef JASIM_SIM_EVENT_QUEUE_H
#define JASIM_SIM_EVENT_QUEUE_H

#include <cstdint>
#include <vector>

#include "sim/inline_function.h"
#include "sim/types.h"

namespace jasim {

/**
 * Deterministic discrete-event queue.
 *
 * jasim's one event kernel. Not thread-safe; a simulation is
 * single-threaded by design. The only parallelism in jasim is
 * `jasim::par`, which runs whole independent simulations concurrently
 * (one queue per worker).
 */
class EventQueue
{
  public:
    using Action = InlineFunction;

    /** Current simulated time. */
    SimTime now() const { return now_; }

    /** Number of pending events. */
    std::size_t pending() const { return heap_.size(); }

    /** Total events executed over the queue's lifetime. */
    std::uint64_t executed() const { return executed_; }

    /**
     * Schedule an action at an absolute time.
     *
     * Takes the action by rvalue reference so a closure converts into
     * exactly one Action that is moved straight into the slot pool
     * (by-value would add a second 48-byte move per event on the
     * hottest path in the simulator).
     *
     * @param when absolute simulated time; must be >= now().
     * @return a monotonically increasing event id (usable for debugging).
     */
    std::uint64_t scheduleAt(SimTime when, Action &&action);

    /** Schedule an action after a relative delay from now(). */
    std::uint64_t scheduleAfter(SimTime delay, Action &&action);

    /**
     * Run events until the queue is empty or the horizon is reached.
     *
     * Events scheduled exactly at the horizon are executed. Returns the
     * number of events executed. Time is left at the horizon (or at the
     * last event if the queue drained earlier).
     */
    std::uint64_t runUntil(SimTime horizon);

    /** Run a single event if one is pending; returns true if one ran. */
    bool step();

    /** Discard all pending events (used between experiment phases). */
    void clear();

  private:
    /**
     * 16-byte heap entry: the sequence number lives in the upper 40
     * bits of `key` and the closure's slot index in the lower 24, so
     * the FIFO tie-break is a single integer compare and sift moves
     * touch two words. 24 bits bounds *pending* events at ~16.7M and
     * 40 bits bounds a run at ~1.1e12 events total; both are asserted
     * in scheduleAt() and far above any jasim experiment.
     */
    struct Entry
    {
        SimTime when;
        std::uint64_t key; //!< (sequence << kSlotBits) | slot
    };

    static constexpr unsigned kSlotBits = 24;
    static constexpr std::uint64_t kSlotMask = (1u << kSlotBits) - 1;

    /** Strict event order: time first, FIFO (sequence) on ties. */
    static bool
    earlier(const Entry &a, const Entry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.key < b.key;
    }

    /** Insert the last heap element into its heap position. */
    void siftUp(std::size_t i);

    /** Re-seat `filler` (the old last leaf) into the root hole. */
    void siftDownFromRoot(Entry filler);

    /**
     * Pop the earliest event's action (heap_ must be non-empty),
     * advance now_ to its timestamp, and recycle its slot.
     */
    Action popEarliest();

    /** Implicit binary min-heap ordered by earlier(). */
    std::vector<Entry> heap_;
    std::vector<Action> slots_;            //!< closure pool
    std::vector<std::uint32_t> free_slots_; //!< recycled slot indices
    SimTime now_ = 0;
    std::uint64_t next_sequence_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace jasim

#endif // JASIM_SIM_EVENT_QUEUE_H
