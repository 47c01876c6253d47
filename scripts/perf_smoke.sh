#!/usr/bin/env bash
# Perf smoke: Release build, the event-kernel and memory-path
# microbenchmarks, and a serial-vs-parallel sweep of abl_l2size.
#
# Hard gates (exit 1):
#  - `--jobs 4` must produce BIT-IDENTICAL stdout to `--jobs 1` for
#    the same seed — jasim::par's whole contract;
#  - `--fastpath=0` must produce BIT-IDENTICAL stdout to `--fastpath`
#    on a memory-bound bench — the fast path's whole contract (and
#    micro_memwalk itself exits 1 if its arms' checksums diverge);
#  - the benchmark's episodes (perfbench's jasim_episode, three
#    workloads at seeds 1 and 4242) must hash to their pinned digests:
#    a host-side change must not move one simulated count;
#  - the smoke must leave every tracked BENCH_*.json as it found it.
#    Every bench runs from a scratch working directory, so its
#    scaled-down records land there and not on the repo's canonical
#    ones.
#
# Soft gate (warning only): the microbench speedup targets (>= 1.5x
# over each baseline) and the parallel wall-clock win are read from
# the scratch directory's out/BENCH_*.json and reported, but do not
# fail the script: host speed swings from run to run on a shared or
# loaded machine, so one short wall-clock ratio is not a reliable
# verdict on the code.
#
# Every bench runs under a wall-clock bound (coreutils `timeout`), so
# a hang fails the smoke instead of wedging it. Each bound is at least
# 5x the bench's time on a 4-CPU host.
#
# Usage: scripts/perf_smoke.sh [release-build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
root="$(pwd)"
BUILD="${1:-build-perf}"
[[ "$BUILD" = /* ]] || BUILD="$root/$BUILD"

source scripts/bounded.sh

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
tracked_bench_sums() {
    git -C "$root" ls-files -z 'BENCH_*.json' |
        (cd "$root" && xargs -0 -r sha256sum)
}
tracked_bench_sums >"$tmp/tracked_before.txt"

echo "== perf-smoke: Release build =="
cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD" -j --target micro_eventqueue micro_memwalk \
    fig08_l1d abl_l2size abl_cluster_scaling abl_recovery \
    abl_replication abl_burst abl_partition soak_chaos

# Benches write out/BENCH_<name>.json, and tracked ones also
# BENCH_<name>.json, into their working directory: run them all here.
work="$tmp/work"
mkdir "$work"
cd "$work"

echo "== perf-smoke: event-kernel microbenchmark =="
bounded 60 "$BUILD/bench/micro_eventqueue"

echo "== perf-smoke: memory-path microbenchmark (A/B fastpath) =="
# Exits nonzero on its own if the two arms' checksums diverge.
bounded 60 "$BUILD/bench/micro_memwalk"

echo "== perf-smoke: abl_l2size serial vs --jobs 4 =="
args=(steady=30 ramp=10 seed=99)
bounded 120 "$BUILD/bench/abl_l2size" "${args[@]}" --jobs 1 >"$tmp/serial.txt"
cp out/BENCH_abl_l2size.json out/BENCH_abl_l2size_serial.json
bounded 120 "$BUILD/bench/abl_l2size" "${args[@]}" --jobs 4 >"$tmp/par.txt"

if ! cmp -s "$tmp/serial.txt" "$tmp/par.txt"; then
    echo "FAIL: --jobs 4 output differs from --jobs 1 (determinism broken):" >&2
    diff "$tmp/serial.txt" "$tmp/par.txt" >&2 || true
    exit 1
fi
echo "determinism: --jobs 4 output is bit-identical to --jobs 1"

echo "== perf-smoke: fig08_l1d --fastpath vs --fastpath=0 =="
fp_args=(steady=30 ramp=10 seed=99)
bounded 60 "$BUILD/bench/fig08_l1d" "${fp_args[@]}" --fastpath >"$tmp/fp_on.txt"
bounded 60 "$BUILD/bench/fig08_l1d" "${fp_args[@]}" --fastpath=0 >"$tmp/fp_off.txt"
if ! cmp -s "$tmp/fp_on.txt" "$tmp/fp_off.txt"; then
    echo "FAIL: --fastpath output differs from --fastpath=0 (exactness broken):" >&2
    diff "$tmp/fp_on.txt" "$tmp/fp_off.txt" >&2 || true
    exit 1
fi
echo "exactness: --fastpath output is bit-identical to --fastpath=0"

echo "== perf-smoke: cluster with no --faults vs empty --faults =="
# The fault machinery's whole contract: an empty schedule arms
# nothing, so a healthy cluster run must be BIT-IDENTICAL whether the
# flag is absent or explicitly empty.
cl_args=(nodes=2 steady=20 ramp=5 seed=7)
bounded 60 "$BUILD/bench/abl_cluster_scaling" "${cl_args[@]}" >"$tmp/nofaults.txt"
bounded 60 "$BUILD/bench/abl_cluster_scaling" "${cl_args[@]}" --faults= >"$tmp/emptyfaults.txt"
if ! cmp -s "$tmp/nofaults.txt" "$tmp/emptyfaults.txt"; then
    echo "FAIL: empty --faults output differs from no --faults (healthy-run identity broken):" >&2
    diff "$tmp/nofaults.txt" "$tmp/emptyfaults.txt" >&2 || true
    exit 1
fi
echo "fault gating: empty --faults output is bit-identical to no --faults"

echo "== perf-smoke: cluster with replication disabled vs absent =="
# The replicated tier's gating contract: with jasim::repl compiled in,
# an explicit `--shards 1 --replicas 0` builds the DB tier as shard 0
# alone -- the single box, one shard group with no replicas -- and
# must be BIT-IDENTICAL to a run with no replication flags at all
# (and therefore to the pinned pre-replication golden below).
bounded 60 "$BUILD/bench/abl_cluster_scaling" "${cl_args[@]}" --shards 1 --replicas 0 >"$tmp/replofF.txt"
if ! cmp -s "$tmp/nofaults.txt" "$tmp/replofF.txt"; then
    echo "FAIL: --shards 1 --replicas 0 output differs from no replication flags (legacy identity broken):" >&2
    diff "$tmp/nofaults.txt" "$tmp/replofF.txt" >&2 || true
    exit 1
fi
echo "repl gating: --shards 1 --replicas 0 output is bit-identical to no replication flags"

echo "== perf-smoke: cluster with overload flags disarmed vs absent =="
# The overload machinery's gating contract (jasim::adm + the arrival
# modulator): `--arrival fixed --admission none` must construct
# nothing — no modulator, no controller, not one extra RNG draw — so
# the run must be BIT-IDENTICAL to one with neither flag (and
# therefore to the pinned CLUSTER golden below).
bounded 60 "$BUILD/bench/abl_cluster_scaling" "${cl_args[@]}" --arrival fixed --admission none >"$tmp/admoff.txt"
if ! cmp -s "$tmp/nofaults.txt" "$tmp/admoff.txt"; then
    echo "FAIL: --arrival fixed --admission none output differs from no overload flags (adm gating broken):" >&2
    diff "$tmp/nofaults.txt" "$tmp/admoff.txt" >&2 || true
    exit 1
fi
echo "adm gating: --arrival fixed --admission none output is bit-identical to no overload flags"

echo "== perf-smoke: healthy-run goldens (recovery compiled in) =="
# Pinned healthy-run digests: compiled-in-but-disarmed machinery must
# cost a healthy run NOTHING — not one byte of output may move.
# Regenerate deliberately (and re-pin) only when a PR intends to
# change healthy behaviour. FIG08 dates from the recovery PR; CLUSTER
# was re-pinned by the lane PR, which deliberately changed two serial
# behaviours: per-direction link jitter streams (forward/reverse no
# longer interleave one RNG) and the balancer observing a completion
# when the response reaches the LB rather than when the node finishes.
FIG08_GOLDEN=dc1c0cb762998eecd0bd75fb426090fb1206c4ec1a29fedd195ad6ff02535e97
CLUSTER_GOLDEN=339892eadce23d768bd7859bdb7b32ef4f7dc6146d2878ec521c68ebfd7c6acd
fig08_sha="$(sha256sum "$tmp/fp_on.txt" | cut -d' ' -f1)"
cluster_sha="$(sha256sum "$tmp/nofaults.txt" | cut -d' ' -f1)"
if [[ "$fig08_sha" != "$FIG08_GOLDEN" ]]; then
    echo "FAIL: fig08_l1d output drifted from the pinned golden digest:" >&2
    echo "  got $fig08_sha want $FIG08_GOLDEN" >&2
    exit 1
fi
if [[ "$cluster_sha" != "$CLUSTER_GOLDEN" ]]; then
    echo "FAIL: abl_cluster_scaling output drifted from the pinned golden digest:" >&2
    echo "  got $cluster_sha want $CLUSTER_GOLDEN" >&2
    exit 1
fi
echo "goldens: fig08_l1d and abl_cluster_scaling match the pre-recovery digests"

echo "== perf-smoke: abl_recovery determinism + audit gate =="
# Same seed + schedule must give byte-identical stdout regardless of
# worker count; the bench itself exits 1 if any durability audit
# fails, and at default ramp/steady the recovery time must be
# monotone in the checkpoint interval.
rec_args=(seed=11)
bounded 180 "$BUILD/bench/abl_recovery" "${rec_args[@]}" --jobs 4 >"$tmp/rec_a.txt" 2>/dev/null
bounded 180 "$BUILD/bench/abl_recovery" "${rec_args[@]}" --jobs 2 >"$tmp/rec_b.txt" 2>/dev/null
if ! cmp -s "$tmp/rec_a.txt" "$tmp/rec_b.txt"; then
    echo "FAIL: abl_recovery output differs across job counts (recovery determinism broken):" >&2
    diff "$tmp/rec_a.txt" "$tmp/rec_b.txt" >&2 || true
    exit 1
fi
if ! grep -q "monotone in interval: yes" "$tmp/rec_a.txt"; then
    echo "FAIL: abl_recovery recovery time not monotone in checkpoint interval" >&2
    exit 1
fi
echo "recovery: byte-identical across job counts, audits pass, monotone in interval"

echo "== perf-smoke: abl_replication determinism + failover audit gate =="
# Scaled-down sweep (the full default takes minutes on one core): the
# bench itself exits 1 unless sync-mode points lose ZERO acked
# commits across the scripted primary crash + failover, every
# replicated point reports a nonzero bounded blackout, no point
# resurrects or duplicates an effect, and its in-band same-seed
# re-run point is bit-identical. On top of that, stdout must be
# byte-identical across worker counts.
repl_args=(steady=4 ramp=2 ir=60 nodes=2 seed=11)
bounded 120 "$BUILD/bench/abl_replication" "${repl_args[@]}" --jobs 2 >"$tmp/repl_a.txt"
bounded 120 "$BUILD/bench/abl_replication" "${repl_args[@]}" --jobs 1 >"$tmp/repl_b.txt"
if ! cmp -s "$tmp/repl_a.txt" "$tmp/repl_b.txt"; then
    echo "FAIL: abl_replication output differs across job counts (replication determinism broken):" >&2
    diff "$tmp/repl_a.txt" "$tmp/repl_b.txt" >&2 || true
    exit 1
fi
if ! grep -q "sync zero-loss: yes" "$tmp/repl_a.txt"; then
    echo "FAIL: abl_replication lost a sync-acked commit across failover" >&2
    exit 1
fi
if ! grep -q "blackouts nonzero+bounded: yes" "$tmp/repl_a.txt"; then
    echo "FAIL: abl_replication failover blackout missing or unbounded" >&2
    exit 1
fi
echo "replication: byte-identical across job counts, sync acks survive failover, blackouts bounded"

echo "== perf-smoke: abl_partition lease/fencing gate =="
# Scaled-down partition sweep: the bench itself exits 1 unless
# sync-mode points lose ZERO acked commits across partition + heal,
# every decisive cut promotes exactly once and rewinds the deposed
# primary's tail, some stale shipment bounces off the fence, the
# planned switchover's blackout stays under one lease interval, and
# its in-band same-seed re-run point is bit-identical. On top of
# that, stdout must be byte-identical across worker counts.
part_args=(steady=12 ramp=2 ir=80 nodes=2 seed=11)
bounded 120 "$BUILD/bench/abl_partition" "${part_args[@]}" --jobs 2 >"$tmp/part_a.txt"
bounded 120 "$BUILD/bench/abl_partition" "${part_args[@]}" --jobs 1 >"$tmp/part_b.txt"
if ! cmp -s "$tmp/part_a.txt" "$tmp/part_b.txt"; then
    echo "FAIL: abl_partition output differs across job counts (partition determinism broken):" >&2
    diff "$tmp/part_a.txt" "$tmp/part_b.txt" >&2 || true
    exit 1
fi
if ! grep -q "Sync zero-loss: yes" "$tmp/part_a.txt"; then
    echo "FAIL: abl_partition lost a sync-acked commit across partition + heal" >&2
    exit 1
fi
if ! grep -q "switchover under one lease: yes" "$tmp/part_a.txt"; then
    echo "FAIL: abl_partition planned switchover blackout exceeded one lease" >&2
    exit 1
fi
echo "partition: byte-identical across job counts, sync acks survive the split, switchover under one lease"

echo "== perf-smoke: chaos soak smoke (3 seeds) =="
# The quick arm of scripts/soak.sh: three randomized schedules must
# hold every invariant (clean audits, monotone fencing tokens, >= 90%
# goodput recovery, bit-identical re-run). The bench exits 1 itself.
bounded 60 "$BUILD/bench/soak_chaos" seeds=3 >"$tmp/soak.txt" || {
    echo "FAIL: chaos soak smoke violated an invariant:" >&2
    cat "$tmp/soak.txt" >&2
    exit 1
}
echo "soak: 3 randomized schedules held every invariant"

echo "== perf-smoke: abl_burst graceful degradation + determinism gate =="
# Scaled-down overload sweep: the bench itself exits 1 unless the
# adaptive policy holds p99 inside the SLA at 4x burst with goodput
# >= 80% of no-burst capacity while `none` collapses (p99 >= 10x
# baseline), and its in-band same-seed re-run point is bit-identical.
# On top of that, stdout must be byte-identical across repeat runs
# and worker counts.
burst_args=(nodes=2 steady=40 ramp=10 seed=11)
bounded 180 "$BUILD/bench/abl_burst" "${burst_args[@]}" --jobs 4 >"$tmp/burst_a.txt"
bounded 180 "$BUILD/bench/abl_burst" "${burst_args[@]}" --jobs 1 >"$tmp/burst_b.txt"
if ! cmp -s "$tmp/burst_a.txt" "$tmp/burst_b.txt"; then
    echo "FAIL: abl_burst output differs across runs/job counts (overload determinism broken):" >&2
    diff "$tmp/burst_a.txt" "$tmp/burst_b.txt" >&2 || true
    exit 1
fi
if ! grep -q "deterministic re-run: yes" "$tmp/burst_a.txt"; then
    echo "FAIL: abl_burst in-band same-seed re-run diverged" >&2
    exit 1
fi
echo "overload: byte-identical across job counts, adaptive holds the SLA, none collapses"

echo "== perf-smoke: benchmark episode goldens =="
# The benchmark's scored workloads must simulate exactly what they
# did when these were pinned: one sha256 per workload and seed over
# the episode's digest plus its sorted sim map (every count the
# benchmark reports, driver.failed and adm.shed included). The
# episode runner is built the way perfbench/run.py builds it; the
# episode itself exits 1 if any of its own checks fails. Re-pin only
# when a change means to move simulated behaviour.
bench_build="$root/.bench_build/perfbench"
if [[ ! -f "$bench_build/CMakeCache.txt" ]]; then
    cmake -S "$root/perfbench" -B "$bench_build" -DCMAKE_BUILD_TYPE=Release >/dev/null
fi
cmake --build "$bench_build" -j --target jasim_episode
declare -A EPISODE_GOLDEN=(
    [paper_box/1]=21639a3e281323d427ecb631c39de25f3cc8a37242a605770e0b73402035b4d4
    [paper_box/4242]=d98864b9a822894a686a9011f03dca55c8a6a32c2744e3406170347c1bce2277
    [repl_chaos/1]=10692a60c8f39be5c9dca1b41166f8c9db183eea3d18f611736f4ee55c6d4c23
    [repl_chaos/4242]=c6c9670257af7bd95aa47b747850edd0c9859fa6733fd8b83e5dd00237a0d671
    [burst_shed/1]=6a445af540fcf8fc4ed4af72174e2a978ff3f22cd55b6e73344afb6c7de73f8e
    [burst_shed/4242]=ed0bb44d444345ddbc8612ef9cad458ded93ee405da5bcbff94f6b31cafc8655
)
for workload in paper_box repl_chaos burst_shed; do
    for seed in 1 4242; do
        bounded 60 "$bench_build/jasim_episode" --workload "$workload" \
            --seed "$seed" --trace 0 >"$tmp/episode.json"
        episode_sha="$(python3 - "$tmp/episode.json" <<'EOF'
import hashlib, json, sys
episode = json.loads(open(sys.argv[1]).read().strip().splitlines()[-1])
text = episode["digest"] + "\n" + json.dumps(episode["sim"], sort_keys=True)
print(hashlib.sha256(text.encode()).hexdigest())
EOF
)"
        want="${EPISODE_GOLDEN[$workload/$seed]}"
        if [[ "$episode_sha" != "$want" ]]; then
            echo "FAIL: $workload seed $seed episode drifted from its pinned digest:" >&2
            echo "  got $episode_sha want $want" >&2
            exit 1
        fi
    done
done
echo "episodes: paper_box, repl_chaos and burst_shed at seeds 1 and 4242 match their pinned digests"

python3 - "$work/out" <<'EOF'
import json, os, sys
def record(name):
    return json.load(open(os.path.join(sys.argv[1], f"BENCH_{name}.json")))
serial = record("abl_l2size_serial")
par = record("abl_l2size")
micro = record("micro_eventqueue")
memwalk = record("micro_memwalk")
kernel = micro["metrics"]["speedup"]
mem = memwalk["metrics"]["speedup"]
sweep = serial["wall_seconds"] / par["wall_seconds"] if par["wall_seconds"] else 0.0
print(f"microbench kernel speedup: {kernel:.2f}x (target >= 1.5x)")
print(f"memory-path fastpath speedup: {mem:.2f}x (target >= 1.5x)")
print(f"sweep wall-clock speedup (--jobs 4 vs 1): {sweep:.2f}x (target >= 2x on >= 4 cores)")
if kernel < 1.5:
    print("WARNING: kernel speedup below target (noisy/loaded machine?)")
if mem < 1.5:
    print("WARNING: memory-path speedup below target (noisy/loaded machine?)")
if sweep < 2.0:
    print("WARNING: sweep speedup below target (needs >= 4 idle cores)")
EOF

echo "== perf-smoke: tracked BENCH_*.json untouched =="
tracked_bench_sums >"$tmp/tracked_after.txt"
if ! cmp -s "$tmp/tracked_before.txt" "$tmp/tracked_after.txt"; then
    echo "FAIL: the smoke changed a tracked BENCH_*.json:" >&2
    diff "$tmp/tracked_before.txt" "$tmp/tracked_after.txt" >&2 || true
    exit 1
fi
echo "tracked records: every BENCH_*.json is as the smoke found it"

echo "== perf-smoke: done =="
