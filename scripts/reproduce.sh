#!/usr/bin/env bash
# Regenerates every paper figure/table plus the extension ablations, saving
# outputs under results/. Figures 3-4 train ~150 model configurations and
# dominate the runtime (~45 min total on a laptop-class CPU).
set -euo pipefail
cd "$(dirname "$0")/.."

mkdir -p results
# The figure binaries also dump their telemetry snapshots as
# results/<name>.snapshot.json (see EXPERIMENTS.md); TRIMGRAD_SNAPSHOT_DIR
# overrides the destination.
export TRIMGRAD_SNAPSHOT_DIR=results
cargo build --release -p trimgrad-bench --bins

run() {
    local name="$1"
    echo "=== $name ==="
    "./target/release/$name" | tee "results/$name.txt"
}

run layout_table       # §2 in-text packet-layout numbers (instant)
run trace_smoke        # flight-recorder end-to-end (writes results/trace_smoke.{bin,jsonl})
run baseline_drops     # §4.4 baseline drop tolerance, measured (seconds)
run queue_closedloop   # §5.1 closed-loop queueing study (seconds)
run fig5_breakdown     # Fig 5 breakdown, encode measured (~1 min)
run fsdp_gather        # §5.5 FSDP weight-gather ablation (~1 min)
run lowrank_ablation   # §5.2 low-rank prefix-decodable compression (instant)
run fig3_tta           # Fig 3 TTA curves (~10 min)
run fig4_ttba          # Fig 4 time-to-baseline-accuracy (~35 min)

# Fleet SLO scenario: N tenants with per-tenant metric scopes on a k=8
# fat-tree, churn, and cross-traffic. Writes results/fleet.series.json,
# results/fleet.snapshot.json, results/fleet.trace.{bin,jsonl}, and the
# dependency-free dashboard at results/dashboard.html (open in a browser;
# EXPERIMENTS.md § "Reading the fleet dashboard" is the walkthrough).
run fleet              # fleet SLO scenario + dashboard (seconds)

# Micro-benchmark reports (best + mean ns/iter, throughput, pool width).
# TRIMGRAD_THREADS pins the worker pool; the table in EXPERIMENTS.md §
# "Parallel speedup" is built from these files.
echo "=== microbenches ==="
# Absolute paths: cargo runs bench binaries with cwd = crates/bench.
cargo bench -p trimgrad-bench --bench encode_decode -- --json "$PWD/results/BENCH_encode.json" --assert-encode-pool-not-slower 10 --assert-encode-vectorized-not-slower 0 --assert-decode-vectorized-not-slower 0
cargo bench -p trimgrad-bench --bench wire          -- --json "$PWD/results/BENCH_wire.json"
cargo bench -p trimgrad-bench --bench netsim        -- --json "$PWD/results/BENCH_netsim.json" --assert-calendar-not-slower 10 --assert-dense-ports-not-slower 10 --assert-sampling-overhead 2
# Trainer compute (one worker's loss_and_grad, one 4-worker round); no gate,
# the GEMM kernel has no retained twin to race against.
cargo bench -p trimgrad-bench --bench mltrain       -- --json "$PWD/results/BENCH_mltrain.json"

# Human-readable digest of the flight-recorder run above; `trimgrad-trace
# query results/trace_smoke.bin --follow FLOW:SEQ` replays any packet in it.
echo "=== trace query ==="
cargo run --release -p trimgrad-trace -- query results/trace_smoke.bin --summary \
    | tee results/trace_smoke.summary.txt

echo "All experiment outputs saved under results/ (figure binaries also"
echo "write machine-readable telemetry to results/*.snapshot.json)."
