/**
 * @file
 * The cluster's network fabric: every link in one place.
 *
 * Topology is the classic three-tier star: the driver (clients)
 * reaches the load balancer over one front link; the balancer fans
 * out to N app-server nodes; each node has its own link to the shared
 * database tier. Per-link RNG streams are forked from one fabric
 * seed, so a fabric is deterministic as a whole while links jitter
 * independently.
 */

#ifndef JASIM_NET_FABRIC_H
#define JASIM_NET_FABRIC_H

#include <memory>
#include <vector>

#include "net/endpoint.h"
#include "net/link.h"

namespace jasim {

/** Link characteristics per tier. */
struct FabricConfig
{
    LinkConfig client_lb = LinkConfig::lan();
    LinkConfig lb_node = LinkConfig::lan();
    LinkConfig node_db = LinkConfig::lan();

    /** A fabric where every hop is free (single-box equivalence). */
    static FabricConfig zeroCost()
    {
        FabricConfig config;
        config.client_lb = LinkConfig::zeroCost();
        config.lb_node = LinkConfig::zeroCost();
        config.node_db = LinkConfig::zeroCost();
        return config;
    }
};

/** The instantiated star topology. */
class NetworkFabric
{
  public:
    NetworkFabric(const FabricConfig &config, std::size_t nodes,
                  std::uint64_t seed);

    NetworkLink &clientLb() { return client_lb_; }
    NetworkLink &lbNode(std::size_t node) { return *lb_node_[node]; }
    NetworkLink &nodeDb(std::size_t node) { return *node_db_[node]; }

    std::size_t nodeCount() const { return lb_node_.size(); }

    /** Total bytes that crossed any link. */
    std::uint64_t totalBytes() const;

    /**
     * Install a partition: endpoints on different sides cannot reach
     * each other until clearPartition(). An endpoint listed on no
     * side remains reachable from everyone (the LB/driver links are
     * never listed, so front traffic is untouched). Deterministic —
     * no RNG is consulted; callers fail cross-side sends fast.
     */
    void setPartition(std::vector<std::vector<NetEndpoint>> sides);
    void clearPartition() { sides_.clear(); }
    bool partitioned() const { return !sides_.empty(); }

    /** True iff `a` can currently send to `b` (and vice versa). */
    bool reachable(const NetEndpoint &a, const NetEndpoint &b) const;

    /** Count one message refused by the partition map. */
    void notePartitionDrop() { ++partition_drops_; }
    std::uint64_t partitionDrops() const { return partition_drops_; }

  private:
    /** Side index holding `ep`, or -1 when unlisted. */
    int sideOf(const NetEndpoint &ep) const;

    NetworkLink client_lb_;
    std::vector<std::unique_ptr<NetworkLink>> lb_node_;
    std::vector<std::unique_ptr<NetworkLink>> node_db_;
    std::vector<std::vector<NetEndpoint>> sides_;
    std::uint64_t partition_drops_ = 0;
};

} // namespace jasim

#endif // JASIM_NET_FABRIC_H
