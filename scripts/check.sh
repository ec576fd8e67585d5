#!/usr/bin/env bash
# Tier-1 gate: build and run the full test suite under ASan + UBSan.
#
#   $ scripts/check.sh            # sanitized tier-1 suite
#   $ scripts/check.sh --fast     # plain build, no sanitizers
#
# Exits nonzero on any build failure, test failure, or sanitizer report.

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build-sanitize
SANITIZE=ON
if [[ "${1:-}" == "--fast" ]]; then
    BUILD_DIR=build
    SANITIZE=OFF
fi

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DBACP_SANITIZE="$SANITIZE"
cmake --build "$BUILD_DIR" -j"$(nproc)"
ctest --test-dir "$BUILD_DIR" -L tier1 --output-on-failure -j"$(nproc)"

# DES link-layer and duplex smoke runs: the examples and the E13/E14/E15
# tables run the shared DuplexDriver through link::SimEndpoint.  Each
# exits nonzero on an incomplete transfer, a payload mismatch or an
# INCOMPLETE table row, so a broken migration of the DES environment
# fails here.
for example in quickstart file_transfer duplex_rpc multihop; do
    echo "== example smoke: $example =="
    "$BUILD_DIR"/examples/$example > /dev/null
done
for bench in bench_e13_piggyback bench_e14_multihop bench_e15_streams; do
    echo "== bench smoke: $bench (every row completes) =="
    (cd "$BUILD_DIR"/bench && ./$bench > /dev/null)
done

# Example smoke runs: the real-time runtime end to end.  Deterministic
# replay first, then a small wall-clock UDP transfer with a hard cap so
# a wedged event loop fails fast instead of hanging CI.
echo "== example smoke: udp_transfer --inproc =="
"$BUILD_DIR"/examples/udp_transfer --inproc --mb 1
echo "== example smoke: udp_transfer (UDP loopback, 2 s cap) =="
"$BUILD_DIR"/examples/udp_transfer --mb 0.25 --deadline-ms 2000

# Bidirectional two-process smoke: two real processes, one duplex
# endpoint each, --mb megabytes transferred in EACH direction with
# block acks piggybacked on reverse DATA.  Each endpoint verifies the
# payload bytes it receives and exits nonzero on any mismatch or an
# incomplete transfer, so either side failing fails the script.
echo "== example smoke: udp_transfer --duplex (two processes, both directions) =="
"$BUILD_DIR"/examples/udp_transfer --duplex --port 19401 --peer 19400 \
    --mb 0.25 --deadline-ms 20000 &
DUPLEX_PEER=$!
sleep 0.3
"$BUILD_DIR"/examples/udp_transfer --duplex --port 19400 --peer 19401 \
    --mb 0.25 --deadline-ms 20000
wait "$DUPLEX_PEER"

# Bench smoke: the E20 steady-state allocation gate.  The budget is an
# allocation count, not a wall-clock number, so it holds on shared and
# sanitized runners alike: after warm-up the slab event queue + pooled
# channels must not touch the heap at all (exactly 0 allocs/event).
echo "== bench smoke: E20 steady-state alloc gate (budget 0) =="
(cd "$BUILD_DIR"/bench && ./bench_e20_des_throughput --quick --check-budget 0)

# Batch transport gates.  E19 asserts the engine-level syscall
# amortization (>= 8 datagrams per sendmmsg on the clean batched path);
# E21 asserts the zero-alloc receive arena (0 steady-state allocations
# per datagram on every batched and offloaded row) and the offload
# ladder (GSO+GRO goodput >= the mmsg baseline; the ladder gate
# soft-skips itself on kernels without UDP_SEGMENT/UDP_GRO, so the
# script stays green off Linux >= 4.18/5.0).  All are count/ratio
# gates, not absolute timings, so they hold under sanitizers.
echo "== bench smoke: E19 batched-path amortization gate =="
(cd "$BUILD_DIR"/bench && ./bench_e19_net_loopback --quick)
echo "== bench smoke: E21 batch transport alloc + offload ladder gates =="
(cd "$BUILD_DIR"/bench && ./bench_e21_batch_transport --quick --check-budget 0 --check-ladder)

# Multi-session server gate.  E22 demuxes many concurrent loopback
# sessions off shared reuseport sockets; the gate holds the same
# zero-steady-state-allocation budget per received datagram once every
# session table, stash, and timer slab has reached high water.
echo "== bench smoke: E22 server scale alloc gate (budget 0) =="
(cd "$BUILD_DIR"/bench && ./bench_e22_server_scale --quick --check-budget 0)

# Self-stabilization gate.  E23 injects every chaos fault class (state
# corruption, duplication storms, reorder bursts, below-CRC payload
# corruption, crash/restart) into ba/gbn/sr and requires re-entry into
# the paper's invariants plus transfer completion, and exactly-once
# delivery across a real mid-window crash + epoch rejoin.  Budget 0 =
# converge within the harness's own window (32 timeouts), a count/flag
# gate that holds under sanitizers.
echo "== bench smoke: E23 self-stabilization convergence gate =="
(cd "$BUILD_DIR"/bench && ./bench_e23_stabilization --quick --check-budget 0)

# Fleet-vs-server gate.  E24 drives a ClientFleet (many sessions, few
# sockets) against a socket-owning Server and holds E22's zero-alloc
# budget once every flat session table, stash, and wheel level is at
# high water -- plus the hierarchical-wheel scaling check (idle polls
# over 100k armed timers must do no per-timer work) and the footprint
# gate: the live heap the server gains per admitted session must stay
# within 25% above Server::session_footprint() (a byte count from the
# same allocator hook, so it holds under sanitizers too).
echo "== bench smoke: E24 fleet scale alloc + timer scaling + footprint gate =="
(cd "$BUILD_DIR"/bench && ./bench_e24_fleet_scale --quick --check-budget 0 --check-footprint 0.25)

# Duplex piggyback gate.  E25 runs bidirectional load through one
# NetEndpoint per side and requires >= 50% of acks piggybacked on
# reverse DATA, fewer total datagrams than two one-way sessions,
# deterministic replay, and the same zero-steady-state-allocation
# budget per datagram as E20-E24 -- counts and ratios, sanitizer-stable.
echo "== bench smoke: E25 duplex piggyback + alloc gate =="
(cd "$BUILD_DIR"/bench && ./bench_e25_duplex --quick --check-budget 0)

# Sweep determinism: the parallel experiment fan-out must render
# byte-identical tables at 1, 2, and 8 threads (see scripts/sweep.sh).
echo "== sweep determinism: E8 at 1/2/8 threads =="
BUILD_DIR="$BUILD_DIR" scripts/sweep.sh --verify e8
