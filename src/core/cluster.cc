#include "core/cluster.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_set>

namespace jasim {

namespace {

std::uint64_t
responseBytes(RequestType type)
{
    const double kb = txnProfile(type).response_kb;
    return std::max<std::uint64_t>(
        256, static_cast<std::uint64_t>(kb * 1024.0));
}

} // namespace

ClusterUnderTest::ClusterUnderTest(
    const ClusterConfig &config,
    std::shared_ptr<const WorkloadProfiles> profiles,
    std::shared_ptr<const MethodRegistry> registry, std::uint64_t seed)
    : config_(config), profiles_(std::move(profiles)),
      registry_(std::move(registry)),
      fabric_(config.fabric, config.nodes, seed ^ 0x4e7ull),
      lb_(config.lb, config.nodes), seed_(seed),
      retry_(config.resilience.retry), retry_rng_(seed ^ 0x7e7a1ull),
      route_rng_(seed ^ 0x5a4dull)
{
    assert(profiles_ && registry_ && config_.nodes > 0);

    // The DB tier is a vector of shard groups, each populated for its
    // share of the aggregate IR, as the real benchmark scales its
    // initial database with load. Unsharded, it is one group with no
    // replicas -- shard 0, the single shared DB box -- seeded from the
    // stream whose draws seed the replicated tier's groups. A
    // replicated group always runs with WAL recovery and the audit
    // (shipping needs the log, failover gates on the audit); the
    // unsharded box arms them only for a DB fault or force_enabled.
    repl_on_ = config_.repl.enabled();
    const bool box_recovery = !repl_on_ &&
        (config_.faults.hasDbFault() ||
         config_.db_recovery.force_enabled);
    shard_map_ = std::make_unique<repl::ShardMap>(
        repl_on_ ? config_.repl.shards : 1);
    shard_outages_.resize(shard_map_->shardCount());
    Rng shard_seeder(seed ^ 0xdb0ull);
    for (std::size_t s = 0; s < shard_map_->shardCount(); ++s) {
        repl::ShardGroupConfig sc;
        sc.db = config_.node.db;
        sc.injection_rate = config_.totalInjectionRate() /
            static_cast<double>(shard_map_->shardCount());
        sc.cpus = config_.db_cpus;
        sc.disk = config_.db_disk;
        sc.replicas = config_.repl.replicas;
        sc.replica = config_.repl.replica;
        sc.sync = config_.repl.sync;
        shards_.push_back(std::make_unique<repl::ShardGroup>(
            queue_, sc, repl_on_ ? shard_seeder() : seed ^ 0xdb0ull,
            /*recovery=*/repl_on_ || box_recovery));
    }
    if (repl_on_) {
        failover_ = std::make_unique<repl::FailoverController>(
            queue_, config_.repl.failover);
    }
    // Lease/fencing machinery arms only when the schedule can split
    // the fabric or hand a primary off; an unleased group is
    // byte-identical to a build without partition support.
    lease_on_ = repl_on_ &&
        (config_.faults.hasPartition() || config_.faults.hasSwitchover());
    if (lease_on_) {
        stale_remnants_.resize(shards_.size());
        for (std::size_t s = 0; s < shards_.size(); ++s) {
            shards_[s]->armLease(
                config_.repl.lease, [this, s](std::size_t r) {
                    return fabric_.reachable(
                        servingEndpoint(s),
                        NetEndpoint::dbReplica(s, r));
                });
        }
    }

    // A DB fault needs the resilient stages (fail-fast checks,
    // per-attempt deadlines) to survive the outage.
    resilience_on_ = !config_.faults.empty() ||
        config_.resilience.force_enabled || box_recovery;
    // Admission control arms the whole backpressure ladder: the
    // balancer's in-flight cap, the per-node accept queue (built by
    // each SystemUnderTest), and a bounded EJB->DB pool acquire.
    // Default (none) leaves all of it off.
    adm_on_ = config_.node.admission.enabled();
    if (adm_on_)
        lb_.setInFlightCap(config_.node.admission.lb_inflight_cap);

    // The optional stages of the call pipeline, fixed here. A pool
    // acquire timeout of 0 waits forever; a deadline of 0 arms none.
    ConnectionPoolConfig pool_config = config_.db_pool;
    if (!adm_on_ && !resilience_on_ && !repl_on_) {
        // Nothing bounds the acquire: a plain call waits its turn.
        pool_config.acquire_timeout_us = 0.0;
    } else if (pool_config.acquire_timeout_us <= 0.0 &&
               config_.resilience.pool_acquire_timeout_s > 0.0) {
        // Saturation at the DB tier must propagate upstream as an
        // error, and a failover blackout must shed load, not wedge
        // connections.
        pool_config.acquire_timeout_us =
            config_.resilience.pool_acquire_timeout_s * 1e6;
    }
    if (resilience_on_ || repl_on_) {
        // The sharded tier always runs with attempt deadlines and
        // retries.
        double timeout_s = config_.resilience.db_timeout_s;
        if (timeout_s <= 0.0)
            timeout_s = 2.0;
        db_timeout_us_ = secs(timeout_s);
    } else {
        // Nothing arms retries: a failed attempt settles the call, and
        // allowRetry() refuses before it touches the budget.
        RetryConfig once = config_.resilience.retry;
        once.max_attempts = 1;
        retry_ = RetryPolicy(once);
    }
    if (resilience_on_) {
        health_ = std::make_unique<HealthChecker>(
            config_.resilience.health, config_.nodes);
        // Only the unsharded tier consults a breaker: a sharded tier
        // fails fast per shard on its own blackouts.
        if (!repl_on_) {
            breaker_ = std::make_unique<CircuitBreaker>(
                config_.resilience.breaker);
        }
    }
    if (!config_.faults.empty()) {
        injector_ = std::make_unique<FaultInjector>(
            config_.faults, queue_,
            [this](const FaultEvent &event) { applyFault(event); });
    }

    // Parallel lane mode. v1 partitions the healthy unsharded tier
    // only: faults/resilience/recovery/replication all touch state
    // across components synchronously (probe ejection, breaker state,
    // shard generations), and a zero-latency fabric has no lookahead
    // window — any of those falls back to the serial kernel, leaving
    // the facade queue untouched. Installed before any scheduling so
    // every event of the run flows through the router.
    if (config_.lanes > 0 && !resilience_on_ && !repl_on_ &&
        fabric_.minLatencyUs() >= 1) {
        lane_sched_ = std::make_unique<lane::LaneScheduler>(
            queue_, config_.nodes + 1, fabric_.minLatencyUs(),
            config_.lanes);
    }

    Rng seeder(seed ^ 0x5eedull);
    pools_.reserve(config_.nodes);
    nodes_.reserve(config_.nodes);
    for (std::size_t n = 0; n < config_.nodes; ++n) {
        // Anything the node stack schedules at construction belongs
        // on the node's lane (no-op tag in serial runs).
        const lane::ToLane to_node(nodeLane(n));
        pools_.push_back(std::make_unique<ConnectionPool>(
            pool_config, queue_, fabric_.nodeDb(n)));
        nodes_.push_back(std::make_unique<SystemUnderTest>(
            config_.node, profiles_, registry_, seeder(), &queue_,
            [this, n](RequestType type, double noise,
                      SystemUnderTest::DbDone done) {
                remoteDb(n, type, noise, std::move(done));
            }));
        SystemUnderTest &sut = *nodes_[n];
        sut.setCompletionHook(
            [this, n](const Request &request, SimTime finish) {
                onNodeComplete(n, request, finish);
            });
        sut.setFailureHook(
            [this, n](const Request &request, SimTime at,
                      ErrorKind kind) {
                onNodeFailure(n, request, at, kind);
            });
    }
}

void
ClusterUnderTest::start(SimTime end)
{
    DriverConfig driver_config = config_.node.driver;
    driver_config.injection_rate = config_.totalInjectionRate();
    // Same driver-seed derivation as SystemUnderTest::start, so a
    // 1-node cluster sees the identical arrival stream as a
    // single-box SUT run with the same master seed — which the
    // cluster equivalence test exploits.
    driver_ = std::make_unique<Driver>(
        driver_config, queue_, Rng(seed_)() ^ 0xd21eull,
        [this](const Request &request) { handleRequest(request); });
    driver_->start(0, end);

    if (injector_)
        injector_->arm();
    if (resilience_on_) {
        // Health probes ride the LB->node links, so detection latency
        // is part of the simulation. None of this exists on a healthy
        // run: the first probe is the first extra event.
        const SimTime interval =
            secs(config_.resilience.health.interval_s);
        for (std::size_t n = 0; n < nodes_.size(); ++n)
            queue_.scheduleAfter(interval, [this, n] { probeNode(n); });
    }
    if (shards_.front()->recoveryArmed() &&
        config_.db_recovery.checkpoint_interval_s > 0.0) {
        // Armed shards checkpoint: retention-mode WALs need the
        // truncation pressure, and the floor keeps standbys safe.
        queue_.scheduleAfter(
            secs(config_.db_recovery.checkpoint_interval_s),
            [this] { checkpointShards(); });
    }
    if (lease_on_) {
        // Heartbeat rounds start now; the lease monitor shares their
        // cadence (it can only promote after lapse + detect_s, so
        // detection latency is the monitor grain plus that grace).
        for (auto &group : shards_)
            group->startLease();
        queue_.scheduleAfter(
            std::max<SimTime>(secs(config_.repl.lease.renew_s), 1000),
            [this] { leaseMonitorTick(); });
    }
}

void
ClusterUnderTest::handleRequest(const Request &request)
{
    const SimTime at_lb = fabric_.clientLb().deliver(
        queue_.now(),
        static_cast<std::uint64_t>(config_.request_bytes));
    queue_.scheduleAt(at_lb,
                      [this, request] { routeToNode(request); });
}

void
ClusterUnderTest::routeToNode(const Request &request)
{
    // The balancer is a single server: forwarding work serializes, so
    // an undersized balancer is itself a possible cluster bottleneck.
    const SimTime now = queue_.now();
    if (lb_.saturated()) {
        // Cap shed happens before any forwarding work: the reject is
        // a front-door reset, not a served request.
        lb_.noteShed();
        tracker_.error(request, now, ResponseTracker::kNoNode,
                       ErrorKind::ShedAtLB);
        return;
    }
    const SimTime start = std::max(now, lb_free_);
    lb_free_ = start + static_cast<SimTime>(
        std::llround(config_.lb.forward_us));

    const std::size_t node = lb_.route();
    if (node == LoadBalancer::kNoNode) {
        // Every backend is ejected: the balancer fails the request.
        tracker_.error(request, now, ResponseTracker::kNoNode,
                       ErrorKind::NoBackend);
        return;
    }
    const SimTime at_node = fabric_.lbNode(node).deliver(
        lb_free_, static_cast<std::uint64_t>(config_.request_bytes));
    // Cross-lane handoff: the request leaves the balancer's lane and
    // lands on the node's. The link latency is what makes the target
    // time fall past the lookahead window.
    const lane::ToLane to_node(nodeLane(node));
    queue_.scheduleAt(at_node, [this, request, node] {
        nodes_[node]->inject(request);
    });
}

void
ClusterUnderTest::onNodeComplete(std::size_t node,
                                 const Request &request,
                                 SimTime finish)
{
    // Runs on the node's lane (synchronous SUT completion hook). The
    // balancer learns of the completion when the response reaches it
    // — lb_.complete lives in the at_lb closure, not here: the LB
    // cannot observe a node-local event before a message crosses the
    // wire (and in lane mode the LB's books are lane-0 state).
    const std::uint64_t bytes = responseBytes(request.type);
    const SimTime at_lb = fabric_.lbNode(node).deliver(
        finish, bytes, NetworkLink::Direction::Reverse);
    const lane::ToLane to_front(0);
    queue_.scheduleAt(at_lb, [this, request, node, bytes] {
        lb_.complete(node);
        const SimTime at_client = fabric_.clientLb().deliver(
            queue_.now(), bytes, NetworkLink::Direction::Reverse);
        queue_.scheduleAt(at_client, [this, request, node] {
            tracker_.complete(request, queue_.now(),
                              static_cast<std::uint32_t>(node));
        });
    });
}

void
ClusterUnderTest::onNodeFailure(std::size_t node,
                                const Request &request, SimTime at,
                                ErrorKind kind)
{
    // Failures are fail-fast: the client sees a reset, not a
    // response, so no reverse traffic crosses the fabric.
    lb_.complete(node);
    tracker_.error(request, at, static_cast<std::uint32_t>(node),
                   kind);
}

// ---- the EJB->DB call pipeline ---------------------------------------
//
// Every call, on every tier shape, runs the same attempt pipeline:
// start -> acquire -> deadline -> query -> execute -> burst -> disk
// I/O -> response -> settle/retry. The optional stages were fixed at
// construction: the pool's acquire bound (0 waits forever), the
// per-attempt deadline (db_timeout_us_ > 0, measured from connection
// grant, which also reclaims connections whose query or response was
// lost on a degraded link or orphaned by a blackout), the breaker
// (unsharded tier only), the retry policy (one attempt unless retries
// are armed) and the group's lease. The tier shape itself (repl_on_)
// is read only where the unsharded box and the sharded tier have
// always behaved differently, each marked below.

void
ClusterUnderTest::remoteDb(std::size_t node, RequestType type,
                           double noise,
                           SystemUnderTest::DbDone done)
{
    auto call = std::make_shared<DbCall>();
    call->node = node;
    call->type = type;
    call->noise = noise;
    // One shard needs no routing draw: the stream feeds nothing else,
    // and in lane mode this runs on the node's lane.
    if (shards_.size() > 1)
        call->shard = shard_map_->shardOf(route_rng_());
    repl::ShardGroup &group = *shards_[call->shard];
    if (group.leaseArmed() && !group.draining()) {
        // Drain accounting brackets the whole call (across retries):
        // inflightEnd fires exactly when the call settles, whether
        // with an ack or a final failure. Calls arriving mid-drain
        // are not bracketed -- they fail fast with FailoverWait and
        // never touch the shard, so counting them would let a steady
        // arrival stream wedge the drain forever.
        const std::size_t shard = call->shard;
        group.inflightBegin();
        call->done = [this, shard, done = std::move(done)](
                         const TxnDbOutcome &outcome, ErrorKind kind) {
            shards_[shard]->inflightEnd();
            done(outcome, kind);
        };
    } else {
        call->done = std::move(done);
    }
    startAttempt(call);
}

ErrorKind
ClusterUnderTest::outageKind(std::size_t shard) const
{
    // Difference point: the unsharded box tells a dead tier from one
    // replaying its WAL; a sharded tier reports every blackout
    // (failover, the replay fallback, a drain) as FailoverWait.
    if (repl_on_)
        return ErrorKind::FailoverWait;
    return shard_outages_[shard].recovering ? ErrorKind::RecoveryWait
                                            : ErrorKind::NodeDown;
}

void
ClusterUnderTest::startAttempt(const std::shared_ptr<DbCall> &call)
{
    const repl::ShardGroup &group = *shards_[call->shard];
    if (group.down() || group.draining()) {
        // Fail fast: the shard is blacked out (crashed, replaying its
        // WAL, or failing over) or draining for a planned switchover.
        settleFailure(call, outageKind(call->shard));
        return;
    }
    if (fabric_.partitioned() &&
        !nodeReachesShard(call->node, call->shard)) {
        // The partition map cuts this node off from the member
        // serving the shard: the send fails fast, no wire traffic.
        fabric_.notePartitionDrop();
        settleFailure(call, ErrorKind::Partitioned);
        return;
    }
    if (breaker_ && !breaker_->allowRequest(queue_.now())) {
        settleFailure(call, ErrorKind::DbCircuitOpen);
        return;
    }
    // JDBC-style: the attempt holds a pooled connection for the whole
    // round trip.
    pools_[call->node]->acquire(
        [this, call](SimTime ready) { sendQuery(call, ready); },
        [this, call](SimTime) {
            settleFailure(call, ErrorKind::PoolTimeout);
        });
}

void
ClusterUnderTest::sendQuery(const std::shared_ptr<DbCall> &call,
                            SimTime ready)
{
    auto settled = std::make_shared<bool>(false);
    if (db_timeout_us_ > 0) {
        // Firing first means the query or its response is lost or
        // late: tear the connection down (freeing the slot) and fail
        // the attempt.
        queue_.scheduleAt(ready + db_timeout_us_, [this, call, settled] {
            if (*settled)
                return;
            *settled = true;
            pools_[call->node]->release();
            settleFailure(call, ErrorKind::DbTimeout);
        });
    }

    NetworkLink &link = fabric_.nodeDb(call->node);
    const bool lost = link.drawDrop();
    const SimTime at_db = link.deliver(
        ready, static_cast<std::uint64_t>(config_.query_bytes));
    if (lost)
        return; // query vanished on the wire; the deadline cleans up
    // The query leaves the node's lane for the DB tier (lane 0).
    const lane::ToLane to_db(0);
    queue_.scheduleAt(at_db, [this, call, settled] {
        executeQuery(call, settled);
    });
}

void
ClusterUnderTest::executeQuery(const std::shared_ptr<DbCall> &call,
                               const Settled &settled)
{
    if (*settled)
        return;
    repl::ShardGroup &group = *shards_[call->shard];
    if (group.down()) {
        // The shard went down while the query was on the wire.
        *settled = true;
        pools_[call->node]->release();
        settleFailure(call, outageKind(call->shard));
        return;
    }
    if (fabric_.partitioned() &&
        !nodeReachesShard(call->node, call->shard)) {
        // The fabric split while the query was on the wire.
        *settled = true;
        pools_[call->node]->release();
        fabric_.notePartitionDrop();
        settleFailure(call, ErrorKind::Partitioned);
        return;
    }
    call->generation = group.generation();
    auto outcome = std::make_shared<TxnDbOutcome>(
        group.application().runTransaction(call->type));
    if (outcome->audit_token != 0)
        group.auditor().noteCommitted(outcome->audit_token,
                                      outcome->commit_lsn);
    const double burst = txnProfile(call->type).db_us * call->noise +
        outcome->cost.cpu_us;
    shardBurst(call->shard, burst, [this, call, settled, outcome] {
        finishQuery(call, settled, outcome);
    });
}

void
ClusterUnderTest::shardBurst(std::size_t shard, double burst_us,
                             std::function<void()> then)
{
    const double quantum = config_.db_quantum_us;
    const SimTime now = queue_.now();
    CpuScheduler &sched = shards_[shard]->scheduler();
    if (burst_us <= quantum) {
        queue_.scheduleAt(
            sched.run(now, burst_us, Component::Db2).completion,
            std::move(then));
        return;
    }
    const SimTime slice_end =
        sched.run(now, quantum, Component::Db2).completion;
    const double remaining = burst_us - quantum;
    queue_.scheduleAt(
        slice_end,
        [this, shard, remaining, then = std::move(then)]() mutable {
            shardBurst(shard, remaining, std::move(then));
        });
}

void
ClusterUnderTest::finishQuery(const std::shared_ptr<DbCall> &call,
                              const Settled &settled,
                              const Outcome &outcome)
{
    repl::ShardGroup &group = *shards_[call->shard];
    // Difference point: a sharded call cut off by a blackout is
    // dropped here, before it charges the disk. The unsharded box
    // charges the disk and sends the response, and the call is
    // dropped only when the response arrives.
    if (repl_on_ && call->generation != group.generation())
        return; // the per-attempt deadline reclaims the slot

    // Charge the shard's own disk: reads, async page cleaning, and
    // the commit's log force.
    const SimTime now = queue_.now();
    SimTime io_done = now;
    if (outcome->cost.pages_read > 0) {
        const IoResult io = group.disk().read(
            now, static_cast<std::uint32_t>(outcome->cost.pages_read));
        db_disk_blocked_us_ += io.completion - now;
        io_done = io.completion;
    }
    if (outcome->cost.writebacks > 0) {
        // Asynchronous page cleaning: charge the disk, not the txn.
        group.disk().write(now, outcome->cost.writebacks * 4096);
    }
    if (outcome->cost.log_bytes_forced > 0) {
        const IoResult io =
            group.disk().write(io_done, outcome->cost.log_bytes_forced);
        db_disk_blocked_us_ += io.completion - io_done;
        io_done = io.completion;
    }

    if (outcome->wal_issued_lsn > 0) {
        // The force is durable when its write lands; that same moment
        // the window ships to every replica stream.
        const std::uint64_t issued = outcome->wal_issued_lsn;
        const std::uint64_t bytes = outcome->cost.log_bytes_forced;
        const std::uint64_t gen = group.generation();
        const std::size_t shard = call->shard;
        queue_.scheduleAt(io_done, [this, shard, issued, bytes, gen] {
            confirmForce(shard, issued, bytes, gen);
        });
    }

    // Difference point: the unsharded box hands its response to the
    // link now, stamped io_done; the sharded tier sends it from an
    // event at io_done, after any sync-ack wait. Either change would
    // reorder link deliveries and the run's event count.
    if (!repl_on_) {
        sendResponse(call, settled, outcome, io_done);
        return;
    }
    if (group.syncMode() && group.replicaCount() > 0 &&
        outcome->wal_issued_lsn > 0) {
        // Sync replication: the response leaves only once a replica
        // holds the commit durably. Registered after the ship event
        // above (FIFO at io_done), so the waiter sees the pre-ship
        // watermark and fires on the replica's force completion.
        queue_.scheduleAt(io_done, [this, call, settled, outcome] {
            repl::ShardGroup &g = *shards_[call->shard];
            if (*settled || call->generation != g.generation())
                return;
            g.whenAckDurable(outcome->wal_issued_lsn,
                             [this, call, settled, outcome] {
                                 releaseResponse(call, settled,
                                                 outcome);
                             });
        });
        return;
    }
    queue_.scheduleAt(io_done, [this, call, settled, outcome] {
        releaseResponse(call, settled, outcome);
    });
}

void
ClusterUnderTest::releaseResponse(const std::shared_ptr<DbCall> &call,
                                  const Settled &settled,
                                  const Outcome &outcome)
{
    if (*settled)
        return;
    const repl::ShardGroup &group = *shards_[call->shard];
    if (call->generation != group.generation())
        return;
    if (group.leaseArmed()) {
        // A member that cannot prove its lease must not ack: the
        // response is withheld and the attempt deadline reclaims the
        // slot. Same if the partition cut the response path.
        if (!group.leaseValid())
            return;
        if (fabric_.partitioned() &&
            !nodeReachesShard(call->node, call->shard)) {
            fabric_.notePartitionDrop();
            return;
        }
    }
    sendResponse(call, settled, outcome, queue_.now());
}

void
ClusterUnderTest::sendResponse(const std::shared_ptr<DbCall> &call,
                               const Settled &settled,
                               const Outcome &outcome, SimTime send_at)
{
    NetworkLink &link = fabric_.nodeDb(call->node);
    const bool lost = link.drawDrop();
    const SimTime at_node = link.deliver(
        send_at, static_cast<std::uint64_t>(config_.db_response_bytes),
        NetworkLink::Direction::Reverse);
    if (lost)
        return; // response vanished; the deadline cleans up
    // The response returns to the node's lane, where the connection
    // frees and the EJB tier resumes.
    const lane::ToLane to_node(nodeLane(call->node));
    queue_.scheduleAt(at_node, [this, call, settled, outcome] {
        if (*settled)
            return; // deadline already reclaimed the connection
        repl::ShardGroup &group = *shards_[call->shard];
        if (call->generation != group.generation())
            return; // the shard crashed under this txn; never ack it --
                    // the per-attempt deadline reclaims the slot
        *settled = true;
        pools_[call->node]->release();
        if (breaker_)
            breaker_->recordSuccess(queue_.now());
        if (outcome->audit_token != 0)
            group.auditor().noteAcked(outcome->audit_token);
        call->done(*outcome, ErrorKind::None);
    });
}

void
ClusterUnderTest::settleFailure(const std::shared_ptr<DbCall> &call,
                                ErrorKind kind)
{
    // Only timeouts count against the breaker (an exhausted pool
    // usually means the DB tier is the thing that is slow); known
    // outages, partitions and its own rejections do not.
    if (breaker_ &&
        (kind == ErrorKind::PoolTimeout || kind == ErrorKind::DbTimeout))
        breaker_->recordFailure(queue_.now());
    if (retry_.allowRetry(call->attempt, queue_.now())) {
        tracker_.recordRetry(kind);
        const SimTime backoff =
            retry_.backoffUs(call->attempt, retry_rng_);
        ++call->attempt;
        queue_.scheduleAfter(backoff,
                             [this, call] { startAttempt(call); });
        return;
    }
    // Outages and partitions stay visible through retries: the error
    // table should attribute the failure to recovery / the blackout /
    // the split, not to the retry budget.
    const bool attributable = kind == ErrorKind::RecoveryWait ||
        kind == ErrorKind::FailoverWait || kind == ErrorKind::Partitioned;
    call->done(TxnDbOutcome{},
               call->attempt > 1 && !attributable
                   ? ErrorKind::DbRetriesExhausted
                   : kind);
}

// ---- fault application ---------------------------------------------

void
ClusterUnderTest::degradeLinks(const FaultEvent &event, bool restore)
{
    const auto apply = [&](std::size_t n) {
        if (restore)
            fabric_.nodeDb(n).clearDegradation();
        else
            fabric_.nodeDb(n).setDegradation(event.latency_mult,
                                             event.drop_probability);
    };
    if (event.node == FaultEvent::kAllNodes) {
        for (std::size_t n = 0; n < nodes_.size(); ++n)
            apply(n);
    } else {
        apply(event.node);
    }
}

void
ClusterUnderTest::applyFault(const FaultEvent &event)
{
    if (event.node != FaultEvent::kAllNodes &&
        event.node >= nodes_.size() && event.kind != FaultKind::DbSlow)
        return; // targets a node this cluster doesn't have

    const SimTime now = queue_.now();
    switch (event.kind) {
      case FaultKind::NodeCrash: {
        const std::size_t node = event.node;
        nodes_[node]->crash();
        tracker_.noteNodeDown(static_cast<std::uint32_t>(node), now);
        if (event.restart_after > 0) {
            queue_.scheduleAfter(event.restart_after, [this, node] {
                nodes_[node]->restart();
                tracker_.noteNodeUp(static_cast<std::uint32_t>(node),
                                    queue_.now());
            });
        }
        return;
      }
      case FaultKind::LinkDegrade: {
        degradeLinks(event, /*restore=*/false);
        tracker_.noteDegraded(
            now, event.duration > 0 ? now + event.duration : 0);
        if (event.duration > 0) {
            queue_.scheduleAfter(event.duration, [this, event] {
                degradeLinks(event, /*restore=*/true);
            });
        }
        return;
      }
      case FaultKind::DbSlow: {
        for (auto &group : shards_)
            group->disk().setServiceMultiplier(event.disk_mult);
        tracker_.noteDegraded(
            now, event.duration > 0 ? now + event.duration : 0);
        if (event.duration > 0) {
            queue_.scheduleAfter(event.duration, [this] {
                for (auto &group : shards_)
                    group->disk().setServiceMultiplier(1.0);
            });
        }
        return;
      }
      case FaultKind::PoolKill: {
        pools_[event.node]->killIdle();
        return;
      }
      case FaultKind::DbCrash:
      case FaultKind::DbTornWrite: {
        if (repl_on_) {
            applyShardFault(event);
            return;
        }
        // The unsharded box is the whole tier: shard= and replica=
        // targets do not apply to it.
        crashShard(0, event.kind == FaultKind::DbTornWrite,
                   event.restart_after);
        return;
      }
      case FaultKind::Partition: {
        applyPartition(event);
        return;
      }
      case FaultKind::Switchover: {
        if (repl_on_)
            applySwitchover(event);
        return;
      }
    }
}

// ---- partition tolerance ---------------------------------------------

NetEndpoint
ClusterUnderTest::servingEndpoint(std::size_t shard) const
{
    const std::size_t member = shards_[shard]->servingMember();
    return member == repl::ShardGroup::kPrimaryMember
        ? NetEndpoint::dbPrimary(shard)
        : NetEndpoint::dbReplica(shard, member);
}

bool
ClusterUnderTest::nodeReachesShard(std::size_t node,
                                   std::size_t shard) const
{
    return fabric_.reachable(NetEndpoint::node(node),
                             servingEndpoint(shard));
}

void
ClusterUnderTest::applyPartition(const FaultEvent &event)
{
    const SimTime now = queue_.now();
    fabric_.setPartition(event.sides);
    tracker_.notePartitionWindow(
        now, event.duration > 0 ? now + event.duration : 0);
    if (event.duration > 0) {
        queue_.scheduleAfter(event.duration,
                             [this] { healPartition(); });
    }
}

void
ClusterUnderTest::healPartition()
{
    fabric_.clearPartition();
    if (!lease_on_)
        return;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        StaleRemnant &rem = stale_remnants_[s];
        if (!rem.valid)
            continue;
        rem.valid = false;
        repl::ShardGroup &group = *shards_[s];
        // The deposed primary re-ships its divergent tail carrying
        // its pre-promotion token: every stream's fence (raised at
        // promotion) refuses it before any replica disk I/O.
        for (std::size_t r = 0; r < group.replicaCount(); ++r) {
            if (group.replica(r).alive())
                group.replica(r).ship(rem.issued_lsn, rem.bytes,
                                      rem.token);
        }
        // Rejoining means rewinding the stale timeline: scan the
        // divergent tail (one sequential read) and discard it, then
        // hand the serving VIP back to the primary slot -- the
        // promoted state lives in the shared shard database, so the
        // slot resumes on the winning timeline as a plain standby
        // catch-up would.
        ++stale_rewinds_;
        stale_rewind_bytes_ += rem.bytes;
        SimTime rejoin = queue_.now();
        if (rem.bytes > 0) {
            rejoin = group.disk()
                         .readSequential(rejoin, rem.bytes)
                         .completion;
        }
        queue_.scheduleAt(rejoin, [this, s] {
            shards_[s]->setServingMember(
                repl::ShardGroup::kPrimaryMember);
        });
    }
}

void
ClusterUnderTest::applySwitchover(const FaultEvent &event)
{
    const std::size_t shard =
        event.shard == FaultEvent::kNoTarget ? 0 : event.shard;
    if (shard >= shards_.size())
        return; // targets a shard this cluster doesn't have
    failover_->plannedSwitchover(
        shard, *shards_[shard],
        [this, shard](const repl::FailoverOutcome &o) {
            tracker_.noteSwitchover(static_cast<std::uint32_t>(shard),
                                    o.blackout_begin, o.promoted_at);
        });
}

void
ClusterUnderTest::leaseMonitorTick()
{
    const SimTime now = queue_.now();
    const SimTime grace = secs(config_.repl.failover.detect_s);
    for (std::size_t s = 0; fabric_.partitioned() && s < shards_.size();
         ++s) {
        repl::ShardGroup &group = *shards_[s];
        if (group.down() || group.lease().valid(now))
            continue;
        if (now < group.lease().expiry() + grace)
            continue; // lapse not yet past the detection grace

        // Promotion is quorum-gated: the serving member must have
        // lost its majority, and some other side must hold one. With
        // neither (e.g. R=1 split down the middle) the shard stays
        // unavailable -- CP, not split-brain.
        const std::size_t members = group.replicaCount() + 1;
        const std::size_t majority = members / 2 + 1;
        const NetEndpoint serving = servingEndpoint(s);
        const std::size_t serving_member = group.servingMember();

        std::size_t with_serving = 1; // the serving member itself
        for (std::size_t r = 0; r < group.replicaCount(); ++r) {
            if (r == serving_member || !group.replica(r).alive())
                continue;
            if (fabric_.reachable(serving,
                                  NetEndpoint::dbReplica(s, r)))
                ++with_serving;
        }
        if (serving_member != repl::ShardGroup::kPrimaryMember &&
            fabric_.reachable(serving, NetEndpoint::dbPrimary(s)))
            ++with_serving;
        if (with_serving >= majority)
            continue; // serving side still holds a quorum

        // Candidate: the most-caught-up live replica cut off from the
        // serving member whose own side musters a majority.
        constexpr std::size_t kNone = static_cast<std::size_t>(-1);
        std::size_t candidate = kNone;
        std::uint64_t candidate_lsn = 0;
        std::uint64_t watermark = 0;
        for (std::size_t r = 0; r < group.replicaCount(); ++r) {
            if (r == serving_member || !group.replica(r).alive())
                continue;
            const NetEndpoint ep = NetEndpoint::dbReplica(s, r);
            if (fabric_.reachable(serving, ep))
                continue; // same side as the deposed member
            std::size_t side = 1;
            std::uint64_t side_max = group.replica(r).durableLsn();
            for (std::size_t q = 0; q < group.replicaCount(); ++q) {
                if (q == r || q == serving_member ||
                    !group.replica(q).alive())
                    continue;
                if (!fabric_.reachable(
                        ep, NetEndpoint::dbReplica(s, q)))
                    continue;
                ++side;
                side_max = std::max(side_max,
                                    group.replica(q).durableLsn());
            }
            if (side < majority)
                continue;
            if (candidate == kNone ||
                group.replica(r).durableLsn() > candidate_lsn) {
                candidate = r;
                candidate_lsn = group.replica(r).durableLsn();
                watermark = side_max;
            }
        }
        if (candidate == kNone)
            continue;

        // Capture what the deposed timeline holds above W before the
        // promotion rewinds the shared database: this is the tail the
        // stale primary will try to ship on heal.
        StaleRemnant rem;
        rem.token = group.lease().fencingToken();
        rem.issued_lsn = group.database().wal().issuedLsn();
        rem.bytes = group.database().wal().bytesAbove(watermark);
        for (const WalRecord &rec : group.database().wal().records()) {
            if (rec.lsn > watermark)
                ++rem.records;
        }
        rem.valid = true;
        stale_remnants_[s] = rem;

        failover_->partitionPromote(
            s, group, candidate, watermark,
            [this, s](const repl::FailoverOutcome &o) {
                tracker_.noteFailoverBlackout(
                    static_cast<std::uint32_t>(s), o.blackout_begin,
                    o.promoted_at);
            });
    }
    queue_.scheduleAfter(
        std::max<SimTime>(secs(config_.repl.lease.renew_s), 1000),
        [this] { leaseMonitorTick(); });
}

// ---- DB faults & checkpoints ----------------------------------------

void
ClusterUnderTest::applyShardFault(const FaultEvent &event)
{
    const std::size_t shard =
        event.shard == FaultEvent::kNoTarget ? 0 : event.shard;
    if (shard >= shards_.size())
        return; // targets a shard this cluster doesn't have
    repl::ShardGroup &group = *shards_[shard];

    if (event.replica != FaultEvent::kNoTarget) {
        // Replica-scoped dbcrash: the standby's stream dies (its
        // watermarks reset -- a restart resilvers from the next
        // shipped window). The primary keeps serving.
        if (event.replica >= group.replicaCount())
            return;
        group.replica(event.replica).crash();
        if (event.restart_after > 0) {
            const std::size_t replica = event.replica;
            queue_.scheduleAfter(
                event.restart_after, [this, shard, replica] {
                    shards_[shard]->replica(replica).restart();
                });
        }
        return;
    }

    // Primary fault. With a live replica the shard fails over -- for
    // a torn write too: the tear hits the primary's WAL device, and
    // everything above the promotion watermark is discarded anyway.
    if (failover_->primaryCrashed(
            shard, group, [this, shard](const repl::FailoverOutcome &o) {
                tracker_.noteFailoverBlackout(
                    static_cast<std::uint32_t>(shard), o.crash_at,
                    o.promoted_at);
            }))
        return;
    // No replica to promote: blocking crash + ARIES recovery, scoped
    // to this shard. The other shards keep serving.
    crashShard(shard, event.kind == FaultKind::DbTornWrite,
               event.restart_after);
}

void
ClusterUnderTest::crashShard(std::size_t shard, bool torn,
                             SimTime restart_after)
{
    repl::ShardGroup &group = *shards_[shard];
    if (group.down())
        return; // already down; a second crash is a no-op
    ++db_crashes_;
    group.beginBlackout();
    shard_outages_[shard].crash_at = queue_.now();
    group.database().crash(torn);

    // Tell the auditor which Commit records the crash preserved:
    // those still retained plus everything a checkpoint already
    // truncated as durable.
    std::unordered_set<std::uint64_t> surviving;
    for (const WalRecord &rec : group.database().wal().records()) {
        if (rec.type == WalRecordType::Commit)
            surviving.insert(rec.lsn);
    }
    group.auditor().noteCrash(surviving,
                              group.database().wal().truncatedUpTo());

    if (restart_after > 0) {
        queue_.scheduleAfter(restart_after, [this, shard] {
            beginShardRecovery(shard);
        });
    }
}

void
ClusterUnderTest::beginShardRecovery(std::size_t shard)
{
    repl::ShardGroup &group = *shards_[shard];
    ShardOutage &outage = shard_outages_[shard];
    outage.recovering = true;
    outage.last = group.database().recover();
    last_recovery_ = outage.last;

    // Recovery takes simulated time: scan the retained WAL (one
    // sequential read), fetch every touched stable page (random
    // reads -- a seek each on a spinning device), write the recovery
    // checkpoint, then burn DB CPU replaying. The shard stays out of
    // rotation until all of it ends.
    const SimTime now = queue_.now();
    outage.restart_at = now;
    SimTime io_done = now;
    if (outage.last.replay_bytes > 0) {
        io_done = group.disk()
                      .readSequential(now, outage.last.replay_bytes)
                      .completion;
    }
    if (outage.last.pages_flushed > 0) {
        io_done = group.disk()
                      .read(io_done, static_cast<std::uint32_t>(
                                         outage.last.pages_flushed))
                      .completion;
    }
    const std::uint64_t ckpt_bytes =
        outage.last.pages_flushed * 4096 + outage.last.checkpoint_bytes;
    if (ckpt_bytes > 0)
        io_done = group.disk().write(io_done, ckpt_bytes).completion;

    const double replay_cpu = 1.0 +
        static_cast<double>(outage.last.redo_records) * 1.2 +
        static_cast<double>(outage.last.undo_records) * 2.0;
    queue_.scheduleAt(io_done, [this, shard, replay_cpu] {
        shardBurst(shard, replay_cpu,
                   [this, shard] { finishShardRecovery(shard); });
    });
}

void
ClusterUnderTest::finishShardRecovery(std::size_t shard)
{
    repl::ShardGroup &group = *shards_[shard];
    ShardOutage &outage = shard_outages_[shard];
    outage.recovering = false;
    const SimTime now = queue_.now();
    db_replay_us_ += now - outage.restart_at;
    tracker_.noteDegraded(outage.crash_at, now);
    tracker_.noteDbRecovery(outage.crash_at, now);
    // The recovery checkpoint's write is covered by the I/O just
    // charged, so its force is durable by construction here. Standby
    // streams (if any) resilver from the next shipped window.
    group.database().confirmWalDurable(
        group.database().wal().issuedLsn());
    last_audit_ = group.auditNow();
    audited_ = true;
    group.endBlackout();
}

void
ClusterUnderTest::confirmForce(std::size_t shard, std::uint64_t issued,
                               std::uint64_t forced_bytes,
                               std::uint64_t gen)
{
    repl::ShardGroup &group = *shards_[shard];
    // A crash bumps the generation, so a force from before it never
    // confirms. Once the generation matches, a sharded force was
    // issued on a live shard and the shard is still up. The unsharded
    // box also stamps a call cut off by the crash with the new
    // generation (it charges that call's disk after the crash), and
    // that force confirms once the restart has begun.
    if (gen != group.generation() ||
        (group.down() && !shard_outages_[shard].recovering))
        return;
    group.database().confirmWalDurable(issued);
    group.shipForced(issued, forced_bytes);
}

void
ClusterUnderTest::checkpointShards()
{
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        repl::ShardGroup &group = *shards_[s];
        if (group.down())
            continue;
        const CheckpointStats stats = group.database().checkpoint();
        ++checkpoints_;
        checkpoint_pages_ += stats.pages_flushed;
        const std::uint64_t bytes =
            stats.pages_flushed * 4096 + stats.log_bytes_forced;
        if (bytes == 0)
            continue;
        // The checkpoint's force becomes durable when its write lands
        // and ships like any other forced window, so idle standbys
        // still advance their watermarks.
        const std::uint64_t issued = group.database().wal().issuedLsn();
        const std::uint64_t forced = stats.log_bytes_forced;
        const std::uint64_t gen = group.generation();
        const IoResult io = group.disk().write(queue_.now(), bytes);
        queue_.scheduleAt(io.completion, [this, s, issued, forced, gen] {
            confirmForce(s, issued, forced, gen);
        });
    }
    queue_.scheduleAfter(
        secs(config_.db_recovery.checkpoint_interval_s),
        [this] { checkpointShards(); });
}

AuditReport
ClusterUnderTest::auditNow() const
{
    AuditReport total;
    for (const auto &group : shards_) {
        const AuditReport r = group->auditNow();
        total.surviving += r.surviving;
        total.acked_total += r.acked_total;
        total.lost_acked += r.lost_acked;
        total.lost_durable += r.lost_durable;
        total.resurrected += r.resurrected;
        total.duplicates += r.duplicates;
    }
    return total;
}

// ---- health probes --------------------------------------------------

void
ClusterUnderTest::probeNode(std::size_t node)
{
    const HealthConfig &health = config_.resilience.health;
    // The probe rides the LB->node link both ways; a crashed node's
    // "response" is the connection refusal the balancer observes.
    const SimTime at_node =
        fabric_.lbNode(node).deliver(queue_.now(), health.probe_bytes);
    queue_.scheduleAt(at_node, [this, node] {
        const bool healthy = !nodes_[node]->isDown();
        const SimTime back = fabric_.lbNode(node).deliver(
            queue_.now(), config_.resilience.health.probe_bytes,
            NetworkLink::Direction::Reverse);
        queue_.scheduleAt(back, [this, node, healthy] {
            applyProbeResult(node, healthy);
        });
    });
    queue_.scheduleAfter(secs(health.interval_s),
                         [this, node] { probeNode(node); });
}

void
ClusterUnderTest::applyProbeResult(std::size_t node, bool healthy)
{
    switch (health_->onProbeResult(node, healthy, queue_.now())) {
      case HealthChecker::Transition::Eject:
        lb_.setNodeDown(node);
        break;
      case HealthChecker::Transition::Readmit:
        lb_.setNodeUp(node);
        break;
      case HealthChecker::Transition::None:
        break;
    }
}

} // namespace jasim
