#include "net/fabric.h"

namespace jasim {

NetworkFabric::NetworkFabric(const FabricConfig &config,
                             std::size_t nodes, std::uint64_t seed)
    : client_lb_(config.client_lb, seed ^ 0xfab0ull)
{
    Rng seeder(seed ^ 0xfab1ull);
    lb_node_.reserve(nodes);
    node_db_.reserve(nodes);
    for (std::size_t n = 0; n < nodes; ++n) {
        lb_node_.push_back(
            std::make_unique<NetworkLink>(config.lb_node, seeder()));
        node_db_.push_back(
            std::make_unique<NetworkLink>(config.node_db, seeder()));
    }
}

void
NetworkFabric::setPartition(std::vector<std::vector<NetEndpoint>> sides)
{
    sides_ = std::move(sides);
}

int
NetworkFabric::sideOf(const NetEndpoint &ep) const
{
    for (std::size_t s = 0; s < sides_.size(); ++s)
        for (const NetEndpoint &member : sides_[s])
            if (member == ep)
                return static_cast<int>(s);
    return -1;
}

bool
NetworkFabric::reachable(const NetEndpoint &a, const NetEndpoint &b) const
{
    if (sides_.empty())
        return true;
    const int sa = sideOf(a);
    const int sb = sideOf(b);
    if (sa < 0 || sb < 0)
        return true;
    return sa == sb;
}

std::uint64_t
NetworkFabric::totalBytes() const
{
    std::uint64_t total = client_lb_.stats().bytes;
    for (const auto &link : lb_node_)
        total += link->stats().bytes;
    for (const auto &link : node_db_)
        total += link->stats().bytes;
    return total;
}

} // namespace jasim
