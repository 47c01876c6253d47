#include "net/link.h"

#include <algorithm>
#include <cmath>

#include "sim/distributions.h"

namespace jasim {

NetworkLink::NetworkLink(const LinkConfig &config, std::uint64_t seed)
    : config_(config), rng_{Rng(seed), Rng(seed ^ 0x9d1full)},
      drop_rng_(seed)
{
    // drop_rng_ deliberately shares the plain link seed: drops used to
    // draw from the (single) jitter stream, and jitter never consumed
    // state on the zero-cost fabrics the fault tests run on, so this
    // keeps every no-jitter fault schedule's drop sequence exactly as
    // it always was.
}

SimTime
NetworkLink::propagation(Direction direction)
{
    if (config_.latency_us <= 0.0)
        return 0;
    double latency = config_.latency_us * latency_mult_;
    if (config_.jitter_sigma > 0.0) {
        const double sigma = config_.jitter_sigma;
        // Mean-1 multiplier: E[lognormal(-s^2/2, s)] = 1. The floor
        // bounds how early a jittered message can arrive; it is part
        // of the pinned cluster schedule.
        const double mult = std::max(
            drawLogNormal(rng_[static_cast<std::size_t>(direction)],
                          -sigma * sigma / 2.0, sigma),
            kJitterFloor);
        latency *= mult;
    }
    return static_cast<SimTime>(std::llround(latency));
}

void
NetworkLink::setDegradation(double latency_mult,
                            double drop_probability)
{
    latency_mult_ = std::max(latency_mult, 1.0);
    drop_probability_ =
        std::min(std::max(drop_probability, 0.0), 1.0);
}

bool
NetworkLink::drawDrop()
{
    if (drop_probability_ <= 0.0)
        return false;
    if (!drop_rng_.chance(drop_probability_))
        return false;
    ++dropped_;
    return true;
}

LinkStats
NetworkLink::stats() const
{
    LinkStats total = stats_[0];
    total.messages += stats_[1].messages;
    total.bytes += stats_[1].bytes;
    total.tx_busy_us += stats_[1].tx_busy_us;
    total.tx_queued_us += stats_[1].tx_queued_us;
    return total;
}

SimTime
NetworkLink::deliver(SimTime now, std::uint64_t bytes,
                     Direction direction)
{
    const auto dir = static_cast<std::size_t>(direction);
    SimTime &tx_free = tx_free_[dir];
    SimTime tx_us = 0;
    if (config_.bytes_per_us > 0.0) {
        tx_us = static_cast<SimTime>(std::llround(
            static_cast<double>(bytes) / config_.bytes_per_us));
    }
    const SimTime start = std::max(now, tx_free);
    tx_free = start + tx_us;

    LinkStats &stats = stats_[dir];
    stats.messages += 1;
    stats.bytes += bytes;
    stats.tx_busy_us += tx_us;
    stats.tx_queued_us += start - now;

    return tx_free + propagation(direction);
}

} // namespace jasim
