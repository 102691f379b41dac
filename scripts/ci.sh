#!/usr/bin/env bash
# The full CI gate: formatting, the repolint static-analysis pass, release
# build, the test suite (plain and with the memsim `validate` invariant
# audits), the perfbench unit tests, and a warning-free clippy pass.
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== cargo fmt --check ==="
cargo fmt --check

echo "=== repolint (per-file lints + workspace semantic analysis) ==="
# The JSON report is written even when findings fail the gate, so CI can
# upload REPOLINT.json as an artifact either way; any finding not in the
# ratcheting baseline fails the stage, and --ratchet fails it if any
# rule's pre-baseline total regresses above the committed REPOLINT.json.
# The new report lands in a temp file first so the ratchet reference is
# still intact while the binary reads it.
if cargo repolint --json --ratchet REPOLINT.json > REPOLINT.json.tmp; then
    mv REPOLINT.json.tmp REPOLINT.json
    sed -n 's/.*"analysis_ms":\([0-9]*\).*/repolint clean — analysis took \1 ms, report at REPOLINT.json/p' REPOLINT.json
else
    mv REPOLINT.json.tmp REPOLINT.json
    echo "repolint found non-baseline findings or a per-rule ratchet regression (REPOLINT.json):"
    cargo repolint || true
    exit 1
fi

echo "=== cargo build --release --workspace ==="
# --workspace matters: the root manifest is both a package and a workspace,
# so a bare `cargo build` only covers the root package and never produces
# the bench binaries the stages below execute.
cargo build --release --workspace

echo "=== trace-pipeline smoke bench (writes BENCH_trace.json) ==="
./target/release/bench_trace

echo "=== two-phase simulation smoke bench (writes BENCH_sim.json) ==="
# Besides the bit-identity and SimPoint-error gates, this enforces the
# per-kernel perf_floors committed in BENCH_sim.json: filtered-replay
# Macc/s below a floor fails the stage (the throughput ratchet that
# keeps the monomorphized replay path from quietly re-virtualizing).
./target/release/bench_sim

echo "=== artifact-store gate (fig07 grid, cold then warm disk, separate processes) ==="
# Two fresh processes over one store directory: the first populates it,
# the second must complete with zero regenerations, >=90% artifact hits,
# and byte-identical cell output (bit-identical SimStats across
# processes).
STORE_GATE_DIR="$(mktemp -d)"
trap 'rm -rf "$STORE_GATE_DIR"' EXIT
./target/release/store_gate "$STORE_GATE_DIR/store" "$STORE_GATE_DIR/cold.txt"
./target/release/store_gate "$STORE_GATE_DIR/store" "$STORE_GATE_DIR/warm.txt" \
    --expect "$STORE_GATE_DIR/cold.txt"

echo "=== cargo test -q --workspace ==="
cargo test -q --workspace

echo "=== perfbench unit tests (the benchmark's own package) ==="
# perfbench is a Cargo package of its own (not a workspace member), so
# the workspace run above does not build it; running its tests here makes
# a core API change that breaks the benchmark fail CI.
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "=== cargo test -q --features validate (memsim invariant audits on) ==="
# filtered_equivalence is the golden gate: every cell's full-path and
# filtered SimStats must equal its line in
# tests/golden/filtered_equivalence.txt. A deliberate modelling change
# re-baselines it by pasting the replacement lines the failing test
# prints over the stale ones (there is no bless switch).
cargo test -q -p abft-memsim --features validate
cargo test -q --features validate --test campaign_determinism --test streaming_equivalence \
    --test filtered_equivalence --test simpoint_equivalence

echo "=== cargo clippy --workspace -- -D warnings ==="
cargo clippy --workspace -- -D warnings

echo "CI gate passed."
