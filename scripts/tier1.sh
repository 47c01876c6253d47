#!/usr/bin/env bash
# Tier-1 gate: standard build + full test suite, then an
# ASan+UBSan-instrumented build (-DJASIM_SANITIZE=ON) running the
# net, fault, db, repl, adm, driver, and core test binaries, which
# exercise the event-queue closure graph, the cluster's cross-object
# callback wiring, the WAL-replay/recovery paths, the log-shipping /
# failover machinery, and the admission-control shed callbacks — the
# code most likely to hide lifetime bugs.
#
# `--san` widens the sanitized stage to the FULL suite (JASIM_SANITIZE=ON
# + ctest): slower, but every test runs instrumented. Use it when
# touching lifetime-sensitive code (event closures, fault injection,
# connection pools). `--san` also adds a ThreadSanitizer build
# (-DJASIM_TSAN=ON) running test_par — the suite that exercises
# jasim's only cross-thread handoffs (jasim::par's worker pool and
# sweeps); ASan cannot see data races, TSan can — plus a
# standalone UBSan build (-DJASIM_UBSAN=ON) running the full suite:
# UBSan alone is near full speed, and it catches signed overflow /
# misaligned access in arithmetic-heavy code (fencing-token and LSN
# math, lease expiry) that ASan's shadow-memory pass can mask.
#
# The test binaries run directly below (not through ctest, whose
# per-test TIMEOUT covers the rest) run under a wall-clock bound
# (coreutils `timeout`), so a hang fails the gate instead of wedging
# it. Each bound is at least 5x the binary's time on a 4-CPU host.
#
# Usage: scripts/tier1.sh [--san] [build-dir] [sanitized-build-dir] [tsan-build-dir] [ubsan-build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."

source scripts/bounded.sh

SAN_FULL=0
if [[ "${1:-}" == "--san" ]]; then
    SAN_FULL=1
    shift
fi
BUILD="${1:-build}"
SAN_BUILD="${2:-build-asan}"
TSAN_BUILD="${3:-build-tsan}"
UBSAN_BUILD="${4:-build-ubsan}"

echo "== tier-1: standard build =="
cmake -B "$BUILD" -S . >/dev/null
cmake --build "$BUILD" -j
ctest --test-dir "$BUILD" --output-on-failure -j"$(nproc)"

if [[ "$SAN_FULL" == 1 ]]; then
    echo "== tier-1: sanitized build (ASan + UBSan, full suite) =="
    cmake -B "$SAN_BUILD" -S . -DJASIM_SANITIZE=ON >/dev/null
    cmake --build "$SAN_BUILD" -j
    ctest --test-dir "$SAN_BUILD" --output-on-failure -j"$(nproc)"

    echo "== tier-1: TSan build (par thread handoffs) =="
    cmake -B "$TSAN_BUILD" -S . -DJASIM_TSAN=ON >/dev/null
    cmake --build "$TSAN_BUILD" -j --target test_par
    bounded 120 "$TSAN_BUILD/tests/test_par"

    echo "== tier-1: UBSan build (full suite, undefined behaviour only) =="
    cmake -B "$UBSAN_BUILD" -S . -DJASIM_UBSAN=ON >/dev/null
    cmake --build "$UBSAN_BUILD" -j
    ctest --test-dir "$UBSAN_BUILD" --output-on-failure -j"$(nproc)"
else
    echo "== tier-1: sanitized build (ASan + UBSan) =="
    cmake -B "$SAN_BUILD" -S . -DJASIM_SANITIZE=ON >/dev/null
    cmake --build "$SAN_BUILD" -j --target test_net test_fault test_db test_repl test_adm test_driver test_core
    bounded 60 "$SAN_BUILD/tests/test_net"
    bounded 150 "$SAN_BUILD/tests/test_fault"
    bounded 60 "$SAN_BUILD/tests/test_db"
    bounded 150 "$SAN_BUILD/tests/test_repl"
    bounded 150 "$SAN_BUILD/tests/test_adm"
    bounded 150 "$SAN_BUILD/tests/test_driver"
    bounded 600 "$SAN_BUILD/tests/test_core"
fi

echo "== tier-1: all green =="
