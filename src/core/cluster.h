/**
 * @file
 * The cluster under test: N app-server nodes behind a load balancer,
 * sharing one remote database tier over a simulated network fabric.
 *
 * Horizontal-scaling extension of the paper's single-box SUT (its §7
 * leaves scaling as future work): every node is a full
 * SystemUnderTest stack (scheduler, JVM heap/GC, JIT, thread pool,
 * vmstat) driven through a front-end balancer, and every EJB->DB call
 * leaves the node — it acquires a connection from the node's bounded
 * pool, crosses the node-DB link, runs its CPU and I/O on the DB
 * tier, and returns. All of it shares one event queue, so cluster
 * runs are exactly as deterministic as single-box runs. The shared DB
 * tier (or an undersized balancer) is the emergent scaling bottleneck
 * the abl_cluster_scaling bench sweeps for.
 *
 * The DB tier is always a vector of repl::ShardGroup. Unsharded, it
 * is one group with no replicas -- shard 0 is the paper's single DB
 * box. Every EJB->DB call, on any tier shape, runs one attempt
 * pipeline: start -> acquire -> deadline -> query -> execute -> burst
 * -> disk I/O -> response -> settle/retry. Which optional stages act
 * (bounded acquire, deadline, breaker, retries, lease checks) is fixed
 * at construction, not tested per call.
 */

#ifndef JASIM_CORE_CLUSTER_H
#define JASIM_CORE_CLUSTER_H

#include <memory>
#include <vector>

#include "core/sut.h"
#include "db/durability_audit.h"
#include "fault/injector.h"
#include "fault/resilience.h"
#include "net/connection_pool.h"
#include "net/fabric.h"
#include "net/load_balancer.h"
#include "repl/replicated_db.h"
#include "repl/shard_map.h"

namespace jasim {

/** Crash-consistency knobs for the shared DB tier. */
struct DbRecoveryConfig
{
    /** Fuzzy-checkpoint cadence (0 disables checkpointing). */
    double checkpoint_interval_s = 30.0;

    /**
     * Arm recovery on the unsharded tier even with no dbcrash/
     * tornwrite in the schedule (for armed-baseline overhead
     * measurements). A schedule containing a DB fault arms it
     * implicitly. Recovery always brings the durability audit with
     * it: write txns carry audit tokens and are reconciled after
     * every crash. Replicated shards are always armed.
     */
    bool force_enabled = false;
};

/** Everything configurable about the cluster. */
struct ClusterConfig
{
    /** App-server node count. */
    std::size_t nodes = 2;

    /**
     * Per-node stack configuration; `node.injection_rate` is the
     * per-node IR (the cluster driver injects nodes x that).
     */
    SutConfig node;

    LbConfig lb;
    FabricConfig fabric;

    /** Each node's connection pool to the DB tier. */
    ConnectionPoolConfig db_pool;

    /** Each DB shard's CPUs, disk and scheduling quantum. */
    std::size_t db_cpus = 4;
    DiskConfig db_disk;          //!< RAM disk by default
    double db_quantum_us = 2000.0;

    /** Message sizes (bytes) on the wire. */
    double request_bytes = 512.0;     //!< client -> LB -> node
    double query_bytes = 384.0;       //!< node -> DB, per transaction
    double db_response_bytes = 2048.0;

    /**
     * Scripted chaos (empty = healthy run). A non-empty schedule also
     * arms the resilience machinery below; an empty one leaves the
     * cluster byte-identical to a build without fault support.
     */
    FaultSchedule faults;

    /** Health checks, retries, breaker, timeouts. */
    ResilienceConfig resilience;

    /** DB-tier crash consistency (armed by dbcrash/tornwrite verbs). */
    DbRecoveryConfig db_recovery;

    /**
     * Shape of the DB tier (jasim::repl). The tier is always a vector
     * of shard groups; the default -- shards=1, replicas=0 -- is one
     * group with no replicas, shard 0, which is the paper's single
     * shared DB box, byte-identical to a build without replication
     * support.
     */
    repl::ReplConfig repl;

    /** Unread (perfbench/episode.cc sets it); the next benchmark
     *  change deletes both. */
    std::size_t lanes = 0;

    /** Aggregate injection rate the driver runs at. */
    double totalInjectionRate() const
    {
        return node.injection_rate * static_cast<double>(nodes);
    }
};

/** The assembled cluster. */
class ClusterUnderTest
{
  public:
    ClusterUnderTest(const ClusterConfig &config,
                     std::shared_ptr<const WorkloadProfiles> profiles,
                     std::shared_ptr<const MethodRegistry> registry,
                     std::uint64_t seed);

    /** Begin injecting load over [0, end). */
    void start(SimTime end);

    /** Advance the shared discrete-event simulation to `horizon`. */
    void advanceTo(SimTime horizon) { queue_.runUntil(horizon); }

    EventQueue &queue() { return queue_; }
    const ClusterConfig &config() const { return config_; }
    std::size_t nodeCount() const { return nodes_.size(); }
    SystemUnderTest &node(std::size_t i) { return *nodes_[i]; }
    const SystemUnderTest &node(std::size_t i) const
    {
        return *nodes_[i];
    }
    LoadBalancer &loadBalancer() { return lb_; }
    NetworkFabric &fabric() { return fabric_; }
    ConnectionPool &dbPool(std::size_t node) { return *pools_[node]; }

    /** Shard 0's CPUs, disk and database (the whole unsharded tier). */
    CpuScheduler &dbScheduler() { return shards_.front()->scheduler(); }
    DiskModel &dbDisk() { return shards_.front()->disk(); }
    Jas2004Application &dbApplication()
    {
        return shards_.front()->application();
    }

    /**
     * Aggregate tracker: completions are recorded when the response
     * reaches the client, labelled with the serving node.
     */
    ResponseTracker &tracker() { return tracker_; }
    const ResponseTracker &tracker() const { return tracker_; }

    /** The cluster driver; null until start(). */
    const Driver *driver() const { return driver_.get(); }

    /** True when `--admission` armed any part of the shed ladder. */
    bool admissionEnabled() const { return adm_on_; }

    /** Retry policy state (token-bucket budget counters). */
    const RetryPolicy &retryPolicy() const { return retry_; }

    /** Aggregate operations per second over [from, to). */
    double jops(SimTime from, SimTime to) const
    {
        return tracker_.jops(from, to);
    }

    /** DB CPU utilization over [0, now), the mean over shards. */
    double dbUtilization() const
    {
        double sum = 0.0;
        for (const auto &group : shards_)
            sum += group->scheduler().utilization(queue_.now());
        return sum / static_cast<double>(shards_.size());
    }

    /** Cumulative time transactions waited on DB-node disk I/O. */
    SimTime dbDiskBlockedUs() const { return db_disk_blocked_us_; }

    // ---- fault injection & resilience ----

    /** True when the schedule (or force_enabled) armed the machinery. */
    bool resilienceEnabled() const { return resilience_on_; }

    /** Null on healthy runs. */
    const FaultInjector *injector() const { return injector_.get(); }
    CircuitBreaker *breaker() { return breaker_.get(); }
    const CircuitBreaker *breaker() const { return breaker_.get(); }
    HealthChecker *healthChecker() { return health_.get(); }
    const HealthChecker *healthChecker() const { return health_.get(); }

    // ---- DB crash consistency ----

    /**
     * True when shard 0 runs with WAL recovery and the audit armed:
     * on the unsharded tier, a DB fault verb or force_enabled asked
     * for it; replicated shards are always armed.
     */
    bool dbRecoveryEnabled() const
    {
        return shards_.front()->recoveryArmed();
    }

    /** True from a shard-0 crash until its recovery completes. */
    bool dbDown() const { return shards_.front()->down(); }

    std::uint64_t dbCrashCount() const { return db_crashes_; }
    std::uint64_t checkpointCount() const { return checkpoints_; }
    std::uint64_t checkpointPagesFlushed() const
    {
        return checkpoint_pages_;
    }

    /** Stats of the most recent completed recovery. */
    const RecoveryStats &lastRecovery() const { return last_recovery_; }

    /** Time spent replaying (restart -> back in rotation), summed. */
    SimTime dbReplayUs() const { return db_replay_us_; }

    /** Audit result published at the end of each recovery. */
    const AuditReport &lastAudit() const { return last_audit_; }
    bool audited() const { return audited_; }

    /**
     * Reconcile the audit tables right now (e.g. at end of run): the
     * field-wise sum over shards.
     */
    AuditReport auditNow() const;

    // ---- the DB tier's shard groups (jasim::repl) ----

    /** True when config.repl asked for >1 shard or >=1 replica. */
    bool replicationEnabled() const { return repl_on_; }

    /** 1 on the unsharded tier: shard 0 is the single DB box. */
    std::size_t shardCount() const { return shards_.size(); }
    repl::ShardGroup &shard(std::size_t s) { return *shards_[s]; }
    const repl::ShardGroup &shard(std::size_t s) const
    {
        return *shards_[s];
    }
    const repl::ShardMap &shardMap() const { return *shard_map_; }

    /** Null outside repl mode. */
    const repl::FailoverController *failoverController() const
    {
        return failover_.get();
    }

    // ---- partition tolerance (lease/fencing, armed by schedule) ----

    /**
     * True when a partition/switchover verb armed the per-shard lease
     * machinery of a replicated tier. Without it the replicated tier
     * runs without leases, byte-identically to a build without
     * partition support.
     */
    bool leaseEnabled() const { return lease_on_; }

    /**
     * Endpoint of the member currently serving a shard (the primary
     * slot, or the promoted replica during a partition).
     */
    NetEndpoint servingEndpoint(std::size_t shard) const;

    /** Deposed-primary divergent tails fenced and rewound at heal. */
    std::uint64_t staleRewinds() const { return stale_rewinds_; }
    std::uint64_t staleRewindBytes() const
    {
        return stale_rewind_bytes_;
    }

  private:
    ClusterConfig config_;
    std::shared_ptr<const WorkloadProfiles> profiles_;
    std::shared_ptr<const MethodRegistry> registry_;

    EventQueue queue_;
    NetworkFabric fabric_;
    LoadBalancer lb_;
    std::vector<std::unique_ptr<ConnectionPool>> pools_;
    std::vector<std::unique_ptr<SystemUnderTest>> nodes_;
    ResponseTracker tracker_;
    std::uint64_t seed_;
    std::unique_ptr<Driver> driver_;
    SimTime lb_free_ = 0; //!< balancer single-server serializer
    SimTime db_disk_blocked_us_ = 0;

    bool resilience_on_ = false;
    bool adm_on_ = false; //!< admission/backpressure ladder armed
    std::unique_ptr<FaultInjector> injector_;
    std::unique_ptr<HealthChecker> health_;
    std::unique_ptr<CircuitBreaker> breaker_; //!< unsharded tier only
    RetryPolicy retry_;       //!< one attempt unless retries are armed
    Rng retry_rng_;           //!< backoff jitter (own forked stream)
    SimTime db_timeout_us_ = 0; //!< 0: attempts run without a deadline

    // ---- crash/recovery tallies, summed over shards ----
    SimTime db_replay_us_ = 0;
    std::uint64_t db_crashes_ = 0;
    std::uint64_t checkpoints_ = 0;
    std::uint64_t checkpoint_pages_ = 0;
    RecoveryStats last_recovery_;
    AuditReport last_audit_;
    bool audited_ = false;

    // ---- the DB tier: shard groups (shard 0 alone when unsharded) ----
    bool repl_on_ = false;
    std::unique_ptr<repl::ShardMap> shard_map_;
    std::vector<std::unique_ptr<repl::ShardGroup>> shards_;
    std::unique_ptr<repl::FailoverController> failover_; //!< repl only
    Rng route_rng_; //!< shard-routing key draws (own forked stream)

    // ---- partition tolerance state (only used when lease_on_) ----
    bool lease_on_ = false;

    /**
     * What a deposed primary still holds above the promotion
     * watermark, captured at promotion time. On heal the tail ships
     * with the old fencing token, bounces on every stream's fence,
     * and the deposed timeline is rewound (sequential read of the
     * divergent tail) before the member rejoins as a standby.
     */
    struct StaleRemnant
    {
        bool valid = false;
        std::uint64_t token = 0;      //!< fencing token pre-promotion
        std::uint64_t issued_lsn = 0; //!< stale timeline's WAL head
        std::uint64_t bytes = 0;      //!< log bytes above the watermark
        std::uint64_t records = 0;    //!< records above the watermark
    };
    std::vector<StaleRemnant> stale_remnants_;
    std::uint64_t stale_rewinds_ = 0;
    std::uint64_t stale_rewind_bytes_ = 0;

    /** Per-shard crash/recovery bookkeeping (no replica to promote). */
    struct ShardOutage
    {
        SimTime crash_at = 0;
        SimTime restart_at = 0;
        bool recovering = false; //!< restarted, replaying the WAL
        RecoveryStats last;
    };
    std::vector<ShardOutage> shard_outages_;

    /** One EJB->DB call, across its (possibly retried) attempts. */
    struct DbCall
    {
        std::size_t node = 0;
        RequestType type = RequestType::Browse;
        double noise = 1.0;
        std::size_t attempt = 1;
        std::size_t shard = 0;        //!< owning shard
        std::uint64_t generation = 0; //!< shard generation at execute
        SystemUnderTest::DbDone done;
    };
    using Settled = std::shared_ptr<bool>; //!< one attempt's latch
    using Outcome = std::shared_ptr<TxnDbOutcome>;

    void handleRequest(const Request &request);
    void routeToNode(const Request &request);
    void onNodeComplete(std::size_t node, const Request &request,
                        SimTime finish);
    void onNodeFailure(std::size_t node, const Request &request,
                       SimTime at, ErrorKind kind);

    // the EJB->DB call pipeline, one path for every tier shape
    void remoteDb(std::size_t node, RequestType type, double noise,
                  SystemUnderTest::DbDone done);
    void startAttempt(const std::shared_ptr<DbCall> &call);
    void sendQuery(const std::shared_ptr<DbCall> &call, SimTime ready);
    void executeQuery(const std::shared_ptr<DbCall> &call,
                      const Settled &settled);
    void finishQuery(const std::shared_ptr<DbCall> &call,
                     const Settled &settled, const Outcome &outcome);
    void releaseResponse(const std::shared_ptr<DbCall> &call,
                         const Settled &settled, const Outcome &outcome);
    void sendResponse(const std::shared_ptr<DbCall> &call,
                      const Settled &settled, const Outcome &outcome,
                      SimTime send_at);
    void settleFailure(const std::shared_ptr<DbCall> &call,
                       ErrorKind kind);
    /** Error kind of a call failing fast on a blacked-out shard. */
    ErrorKind outageKind(std::size_t shard) const;

    /** Run a shard's CPU burst in scheduler quanta, then `then`. */
    void shardBurst(std::size_t shard, double burst_us,
                    std::function<void()> then);

    /**
     * A WAL force of generation `gen` completed: mark it durable and
     * ship it, unless the shard crashed since.
     */
    void confirmForce(std::size_t shard, std::uint64_t issued,
                      std::uint64_t forced_bytes, std::uint64_t gen);

    void applyFault(const FaultEvent &event);
    void degradeLinks(const FaultEvent &event, bool restore);
    void probeNode(std::size_t node);
    void applyProbeResult(std::size_t node, bool healthy);

    // DB faults: replica-scoped crash/restart, primary failover, and
    // the blocking per-shard crash + ARIES recovery
    void applyShardFault(const FaultEvent &event);
    void crashShard(std::size_t shard, bool torn, SimTime restart_after);
    void beginShardRecovery(std::size_t shard);
    void finishShardRecovery(std::size_t shard);
    void checkpointShards();

    // partition tolerance (only reached when the schedule can split
    // the fabric or hand a primary off)
    void applyPartition(const FaultEvent &event);
    void healPartition();
    void applySwitchover(const FaultEvent &event);
    void leaseMonitorTick();
    /** Node n can currently reach the member serving `shard`. */
    bool nodeReachesShard(std::size_t node, std::size_t shard) const;
};

} // namespace jasim

#endif // JASIM_CORE_CLUSTER_H
