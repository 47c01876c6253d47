/**
 * @file
 * Point-to-point network link model.
 *
 * A link is a FIFO serializer plus a propagation delay: a message
 * occupies the transmitter for bytes/bandwidth microseconds (so
 * back-to-back messages queue behind each other) and then propagates
 * for one one-way latency, stretched by a seeded log-normal jitter
 * multiplier so delivery times vary run-to-run only with the seed.
 * A default-constructed LinkConfig with latency_us = 0 and
 * jitter_sigma = 0 is a zero-cost link, which the cluster equivalence
 * tests rely on.
 *
 * The jitter multiplier is clamped below at kJitterFloor, so no
 * jittered message arrives sooner than kJitterFloor x latency. Each
 * direction draws jitter from its own forked RNG stream and keeps its
 * own stats, so the two directions of a full-duplex link are
 * independent. Both the clamp and the per-direction streams shape
 * every jittered delivery time, so they are part of the pinned
 * cluster schedule: removing either moves the cluster goldens.
 */

#ifndef JASIM_NET_LINK_H
#define JASIM_NET_LINK_H

#include <cstdint>

#include "sim/rng.h"
#include "sim/types.h"

namespace jasim {

/** One link's fixed characteristics. */
struct LinkConfig
{
    /** One-way propagation latency (us). */
    double latency_us = 0.0;

    /**
     * Transmit bandwidth in bytes per microsecond (1 Gb/s = 125).
     * Zero or negative means infinite bandwidth (no serialization).
     */
    double bytes_per_us = 125.0;

    /**
     * Sigma of the log-normal latency jitter; the multiplier has mean
     * 1 so the configured latency is also the expected latency. Zero
     * disables jitter (and draws nothing from the RNG).
     */
    double jitter_sigma = 0.0;

    /** A LAN-ish link: 100 us one way, 1 Gb/s, mild jitter. */
    static LinkConfig lan()
    {
        return LinkConfig{100.0, 125.0, 0.15};
    }

    /** Free, instantaneous transfer (loopback / test fabric). */
    static LinkConfig zeroCost() { return LinkConfig{0.0, 0.0, 0.0}; }
};

/** Statistics a link accumulates. */
struct LinkStats
{
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    SimTime tx_busy_us = 0;     //!< serialization time accumulated
    SimTime tx_queued_us = 0;   //!< time messages waited for the wire
};

/**
 * A full-duplex link: each direction has its own serializer, so
 * request and response traffic do not contend with each other (as on
 * real twisted-pair Ethernet).
 */
class NetworkLink
{
  public:
    enum class Direction : std::uint8_t { Forward, Reverse };

    /**
     * Lower clamp on the log-normal jitter multiplier. With sigma
     * 0.15 (the lan() default) a draw this low is a ~4.6-sigma event
     * in log space, so the clamp rarely acts; it makes the minimum
     * one-way latency a hard bound rather than a statistical one, and
     * it stays because the pinned cluster schedule includes it.
     */
    static constexpr double kJitterFloor = 0.5;

    NetworkLink(const LinkConfig &config, std::uint64_t seed);

    /**
     * Send `bytes` at time `now`; returns the absolute arrival time
     * at the far end. FIFO per direction: a message queues behind the
     * previous message's serialization.
     */
    SimTime deliver(SimTime now, std::uint64_t bytes,
                    Direction direction = Direction::Forward);

    /**
     * Fault injection: stretch propagation by `latency_mult` and
     * lose each message with probability `drop_probability` (as
     * polled by drawDrop()). A multiplier of 1 and probability of 0
     * restore healthy behaviour exactly.
     */
    void setDegradation(double latency_mult, double drop_probability);

    /** Undo setDegradation(). */
    void clearDegradation() { setDegradation(1.0, 0.0); }

    bool degraded() const
    {
        return latency_mult_ != 1.0 || drop_probability_ > 0.0;
    }
    double dropProbability() const { return drop_probability_; }

    /**
     * Draw whether the next message is lost. Consumes RNG state only
     * while a drop probability is set, so healthy runs see the exact
     * jitter stream they always did.
     */
    bool drawDrop();

    /** Expected round-trip time, jitter-free (us). */
    double rttUs() const { return 2.0 * config_.latency_us; }

    const LinkConfig &config() const { return config_; }

    /** Stats summed over both directions. */
    LinkStats stats() const;

    /** One direction's stats. */
    const LinkStats &stats(Direction direction) const
    {
        return stats_[static_cast<std::size_t>(direction)];
    }

    /** Messages the degraded link has dropped (via drawDrop). */
    std::uint64_t dropped() const { return dropped_; }

  private:
    LinkConfig config_;
    Rng rng_[2];       //!< per-direction jitter streams
    Rng drop_rng_;     //!< fault-mode drop draws (own stream)
    SimTime tx_free_[2] = {0, 0}; //!< per-direction next-free time
    LinkStats stats_[2];
    double latency_mult_ = 1.0;
    double drop_probability_ = 0.0;
    std::uint64_t dropped_ = 0;

    SimTime propagation(Direction direction);
};

} // namespace jasim

#endif // JASIM_NET_LINK_H
