/** Extension (paper Section 7, future work): horizontal scaling.
 *  N app-server nodes behind a load balancer share one database
 *  tier over a simulated LAN; the sweep holds per-node IR fixed and
 *  grows the cluster until the shared DB (or the balancer) is the
 *  bottleneck and aggregate throughput bends. */

#include <algorithm>
#include <stdexcept>

#include "bench_common.h"

#include "core/cluster.h"
#include "par/sweep.h"

using namespace jasim;

namespace {

ClusterConfig
clusterConfig(const ExperimentConfig &base, const Config &args,
              std::size_t nodes, const FaultSchedule &faults)
{
    ClusterConfig config;
    config.nodes = nodes;
    config.node = base.sut;
    config.node.driver.ramp_up_s = base.ramp_up_s;
    config.faults = faults;

    config.db_cpus =
        static_cast<std::size_t>(args.getInt("db_cpus", 4));
    config.db_pool.max_connections =
        static_cast<std::size_t>(args.getInt("db_pool", 12));

    // Replication axis (defaults disabled: byte-identical output).
    config.repl = bench::replFromArgs(args);

    const std::string policy = args.getString("lb", "lc");
    if (policy == "rr")
        config.lb.policy = LbPolicy::RoundRobin;
    else if (policy == "wrr")
        config.lb.policy = LbPolicy::Weighted;
    else
        config.lb.policy = LbPolicy::LeastConnections;
    config.lb.forward_us = args.getDouble("lb_us", 30.0);
    return config;
}

/** Everything one sweep point contributes to the table and curves. */
struct ScalePoint
{
    double agg_ir = 0.0;
    double jops = 0.0;
    double db_util = 0.0;
    double pool_wait_us = 0.0;
    double p99_web = 0.0;
    bool sla = true;
    std::uint64_t events = 0;

    // populated only on --faults runs
    std::uint64_t errors = 0;
    std::uint64_t retries = 0;
    double error_rate = 0.0;
    double min_availability = 1.0;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::banner(std::cout,
                  "Ablation: Cluster Scaling (future work)",
                  "Fixed per-node IR, growing node count: aggregate "
                  "JOPS rises near-linearly until the shared DB tier "
                  "(or balancer) saturates and queueing at the "
                  "connection pools bends the curve.");
    const Config args = Config::fromArgs(argc, argv);
    ExperimentConfig base = bench::configFromArgs(argc, argv, 90.0);
    base.ramp_up_s = args.getDouble("ramp", 30.0);
    bench::PerfReport perf("abl_cluster_scaling", /*tracked=*/true);

    FaultSchedule faults;
    try {
        faults = FaultSchedule::parse(args.faults());
    } catch (const std::invalid_argument &e) {
        std::cerr << "abl_cluster_scaling: bad --faults spec: "
                  << e.what() << "\n";
        return 2;
    }

    const std::size_t max_nodes = std::max<std::size_t>(
        base.nodes > 1 ? base.nodes : 8, 1);
    const double per_node_ir = base.sut.injection_rate;
    const SimTime steady_from = secs(base.ramp_up_s);
    const SimTime steady_to =
        secs(base.ramp_up_s + base.steady_s);

    auto profiles =
        std::make_shared<const WorkloadProfiles>(base.seed ^ 0x9a0full);
    auto registry = std::make_shared<const MethodRegistry>(
        profiles->layout(Component::WasJit).count(),
        base.seed ^ 0x3e9ull);

    // Each point simulates its own independent cluster; the shared
    // profiles/registry are immutable, so points parallelize cleanly.
    const auto points =
        par::runSweep(max_nodes, base.jobs, [&](std::size_t i) {
            const std::size_t nodes = i + 1;
            ClusterConfig config =
                clusterConfig(base, args, nodes, faults);
            config.node.injection_rate = per_node_ir;
            ClusterUnderTest cluster(config, profiles, registry,
                                     base.seed);
            cluster.start(steady_to);
            cluster.advanceTo(steady_to);

            ScalePoint p;
            p.agg_ir = config.totalInjectionRate();
            p.jops = cluster.jops(steady_from, steady_to);
            p.db_util = cluster.dbUtilization();
            for (std::size_t n = 0; n < nodes; ++n)
                p.pool_wait_us += cluster.dbPool(n).meanWaitUs();
            p.pool_wait_us /= static_cast<double>(nodes);

            for (const SlaVerdict &v : cluster.tracker().verdicts()) {
                if (isWebRequest(v.type))
                    p.p99_web = std::max(p.p99_web, v.p99_seconds);
                p.sla = p.sla && v.pass;
            }
            p.events = cluster.queue().executed();
            if (!faults.empty()) {
                const ResponseTracker &t = cluster.tracker();
                p.errors = t.errorCount();
                p.retries = t.retryCount();
                p.error_rate = t.errorRate();
                for (std::size_t n = 0; n < nodes; ++n) {
                    p.min_availability = std::min(
                        p.min_availability,
                        t.availability(static_cast<std::uint32_t>(n),
                                       steady_to));
                }
            }
            return p;
        });

    TextTable table({"nodes", "agg IR", "JOPS", "JOPS/node",
                     "ideal", "DB util", "pool wait (ms)",
                     "p99 web (s)", "SLA"});
    TimeSeries curve("aggregate JOPS");
    TimeSeries ideal_curve("ideal (linear)");
    const double jops_at_one = points.empty() ? 0.0 : points[0].jops;

    for (std::size_t i = 0; i < points.size(); ++i) {
        const std::size_t nodes = i + 1;
        const ScalePoint &p = points[i];
        perf.addEvents(p.events);
        const double ideal =
            jops_at_one * static_cast<double>(nodes);
        table.addRow(
            {TextTable::num(static_cast<double>(nodes), 0),
             TextTable::num(p.agg_ir, 0),
             TextTable::num(p.jops, 1),
             TextTable::num(p.jops / static_cast<double>(nodes), 1),
             TextTable::num(ideal, 1),
             TextTable::pct(p.db_util * 100.0),
             TextTable::num(p.pool_wait_us / 1000.0, 2),
             TextTable::num(p.p99_web, 2), p.sla ? "PASS" : "FAIL"});
        curve.append(secs(static_cast<double>(nodes)), p.jops);
        ideal_curve.append(secs(static_cast<double>(nodes)), ideal);
    }
    table.print(std::cout);

    ChartOptions chart;
    chart.zero_based = true;
    chart.y_label = "aggregate JOPS vs node count (x axis = nodes)";
    renderChart(std::cout, {curve, ideal_curve}, chart);

    std::cout << "\nShape: near-linear aggregate JOPS at low node "
                 "counts; once the shared DB tier saturates, "
                 "connection-pool queueing grows, per-node JOPS "
                 "falls, and the curve bends away from the ideal "
                 "line.\n";

    if (!faults.empty()) {
        std::cout << "\nFault schedule: " << faults.summary() << "\n";
        TextTable chaos({"nodes", "errors", "error rate", "retries",
                         "min availability"});
        for (std::size_t i = 0; i < points.size(); ++i) {
            const ScalePoint &p = points[i];
            chaos.addRow(
                {TextTable::num(static_cast<double>(i + 1), 0),
                 TextTable::num(static_cast<double>(p.errors), 0),
                 TextTable::pct(p.error_rate * 100.0),
                 TextTable::num(static_cast<double>(p.retries), 0),
                 TextTable::pct(p.min_availability * 100.0)});
        }
        chaos.print(std::cout);
    }

    perf.write(base.jobs);
    return 0;
}
