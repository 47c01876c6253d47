/**
 * @file
 * Golden digests for the cluster's EJB->DB call paths.
 *
 * Four short cluster runs, one per way a call can reach the DB tier:
 * the healthy plain path, the admission-bounded pool acquire under a
 * burst, the unsharded tier under a crash + lossy links + breaker,
 * and a sharded sync-replicated tier under a primary crash and a
 * partition. Each run folds its externally visible outcome -- error
 * and retry counts per kind, completions, every node's pool stats,
 * events executed, DB utilisation, checkpoints, and the durability
 * audit -- into one digest, pinned below. A refactor of the call path
 * that moves any of them by one count fails here.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <string>

#include "core/cluster.h"
#include "stats/digest.h"

namespace jasim {
namespace {

struct Shared
{
    std::shared_ptr<const WorkloadProfiles> profiles;
    std::shared_ptr<const MethodRegistry> registry;

    explicit Shared(std::uint64_t seed = 11)
        : profiles(std::make_shared<const WorkloadProfiles>(seed)),
          registry(std::make_shared<const MethodRegistry>(
              profiles->layout(Component::WasJit).count(), seed))
    {
    }
};

struct DbPathCase
{
    const char *name;
    ClusterConfig (*config)();
    /** The run really took the path it is named for. */
    bool (*exercised)(const ClusterUnderTest &);
    std::uint64_t seed;
    double end_s;
    std::uint64_t golden;
};

void
PrintTo(const DbPathCase &c, std::ostream *os)
{
    *os << c.name;
}

ClusterConfig
baseCluster()
{
    ClusterConfig config;
    config.nodes = 2;
    config.node.injection_rate = 10.0;
    config.node.driver.ramp_up_s = 1.0;
    config.db_pool.max_connections = 16;
    config.db_recovery.checkpoint_interval_s = 2.0;
    return config;
}

ClusterConfig
healthyCluster()
{
    return baseCluster();
}

ClusterConfig
admissionBurstCluster()
{
    ClusterConfig config = baseCluster();
    config.node.injection_rate = 40.0;
    config.node.driver.arrival =
        ArrivalSpec::parse("mmpp:burst=8,on=2,off=2");
    config.node.admission = adm::AdmissionConfig::parse(
        "adaptive:cap=32,min=2,target=0.05,interval=0.25,queue=64,"
        "deadline=0.3");
    // A small pool, so the burst queues at the bounded acquire.
    config.db_pool.max_connections = 2;
    config.db_cpus = 1;
    config.resilience.pool_acquire_timeout_s = 0.01;
    return config;
}

ClusterConfig
unshardedChaosCluster()
{
    ClusterConfig config = baseCluster();
    config.faults = FaultSchedule::parse(
        "degrade@2:node=all,lat=3,drop=0.05,dur=5;"
        "dbcrash@4:restart=1");
    config.resilience.breaker.failure_threshold = 3;
    config.resilience.breaker.open_s = 0.5;
    return config;
}

ClusterConfig
shardedChaosCluster()
{
    ClusterConfig config = baseCluster();
    config.repl.shards = 2;
    config.repl.replicas = 2;
    config.repl.sync = true;
    config.faults = FaultSchedule::parse(
        "dbcrash@3:shard=1;"
        "partition@6:sides=db0|0,1,db0.0,db0.1,dur=3");
    return config;
}

bool
servedWithoutErrors(const ClusterUnderTest &cluster)
{
    return cluster.tracker().totalCompleted() > 0 &&
        cluster.tracker().errorCount() == 0;
}

bool
shedAtBoundedAcquire(const ClusterUnderTest &cluster)
{
    return cluster.tracker().errorCount(ErrorKind::PoolTimeout) > 0;
}

bool
crashedTimedOutAndTripped(const ClusterUnderTest &cluster)
{
    return cluster.dbCrashCount() == 1 &&
        cluster.tracker().retryCount(ErrorKind::DbTimeout) > 0 &&
        cluster.breaker() != nullptr &&
        cluster.breaker()->stats().rejected > 0;
}

bool
failedOverAndSplit(const ClusterUnderTest &cluster)
{
    return cluster.tracker().failoverCount() > 0 &&
        cluster.tracker().errorCount(ErrorKind::Partitioned) > 0;
}

void
mixDouble(Digest &digest, double value)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    digest.mix(bits);
}

std::uint64_t
outcomeDigest(ClusterUnderTest &cluster)
{
    Digest digest;
    const ResponseTracker &t = cluster.tracker();
    digest.mix(t.totalCompleted());
    digest.mix(t.errorCount());
    digest.mix(t.retryCount());
    for (std::size_t k = 0; k < errorKindCount; ++k) {
        const auto kind = static_cast<ErrorKind>(k);
        digest.mix(t.errorCount(kind));
        digest.mix(t.retryCount(kind));
    }
    for (std::size_t n = 0; n < cluster.nodeCount(); ++n) {
        const ConnectionPoolStats &ps = cluster.dbPool(n).stats();
        digest.mix(ps.acquires);
        digest.mix(ps.fresh_connects);
        digest.mix(ps.reuses);
        digest.mix(ps.waits);
        digest.mix(ps.expirations);
        digest.mix(ps.timeouts);
        digest.mix(ps.killed);
        digest.mix(ps.total_wait_us);
        digest.mix(ps.peak_waiting);
    }
    digest.mix(cluster.queue().executed());
    mixDouble(digest, cluster.dbUtilization());
    digest.mix(cluster.checkpointCount());
    if (cluster.replicationEnabled() || cluster.dbRecoveryEnabled()) {
        const AuditReport audit = cluster.auditNow();
        digest.mix(audit.surviving);
        digest.mix(audit.acked_total);
        digest.mix(audit.lost_acked);
        digest.mix(audit.lost_durable);
        digest.mix(audit.resurrected);
        digest.mix(audit.duplicates);
    }
    return digest.value();
}

class DbPathDigestTest : public ::testing::TestWithParam<DbPathCase>
{
};

TEST_P(DbPathDigestTest, MatchesPinnedGolden)
{
    const DbPathCase &c = GetParam();
    Shared shared;
    ClusterUnderTest cluster(c.config(), shared.profiles,
                             shared.registry, c.seed);
    cluster.start(secs(c.end_s));
    cluster.advanceTo(secs(c.end_s + 2.0));

    EXPECT_TRUE(c.exercised(cluster))
        << c.name << ": the run no longer reaches its DB path";
    EXPECT_EQ(outcomeDigest(cluster), c.golden)
        << c.name << ": the EJB->DB call path's outcome drifted";
}

// Pinned before the call paths were merged into one pipeline; the
// merge must leave every value untouched.
INSTANTIATE_TEST_SUITE_P(
    FourPaths, DbPathDigestTest,
    ::testing::Values(
        DbPathCase{"healthy", &healthyCluster, &servedWithoutErrors, 7,
                   10.0, 0x3a34f6ee138bf5f2ull},
        DbPathCase{"admission_burst", &admissionBurstCluster,
                   &shedAtBoundedAcquire, 13, 10.0,
                   0x846f84aee89ac1e1ull},
        DbPathCase{"unsharded_chaos", &unshardedChaosCluster,
                   &crashedTimedOutAndTripped, 29, 10.0,
                   0xecef3d85cd1b7ec9ull},
        DbPathCase{"sharded_chaos", &shardedChaosCluster,
                   &failedOverAndSplit, 7, 12.0,
                   0x94abfc26aa09046eull}),
    [](const ::testing::TestParamInfo<DbPathCase> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace jasim
