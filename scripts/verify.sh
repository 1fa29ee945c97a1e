#!/usr/bin/env bash
# Tier-1 verification gate plus style/lint hygiene. Run from anywhere.
#
#   scripts/verify.sh           # build + tests + fmt + clippy + docs + examples + perf smoke + perfbench
#
# The tier-1 gate (ROADMAP.md) is `cargo build --release && cargo test -q`;
# fmt/clippy keep the tree warning-free, the rustdoc build (warnings
# denied) + doctests keep the documented API contracts honest, and the
# perf-smoke step (`hotpath_snapshot --quick`, n = 10k) fails on
# panics/NaN medians or a missing stage row. The inference smoke
# (`infer_hotpath --quick`) times the frozen-model serving path on three
# shapes and fails on panics/NaN medians, on frozen/live argmax parity
# breaking on the pinned seed, or on the frozen kernels losing to the
# live per-profile `ClusterProfile::similarity` argmax they compact. The
# reconcile smoke
# (`reconcile_ablation --quick`) fits serial and a 4-shard mini-batch
# plan with and without a shard halo on a small nested table and fails
# on panics or non-finite metrics. The chaos smoke (`fault_chaos --quick`)
# replays seeded row corruption (arity truncation, out-of-domain codes,
# MISSING flooding) through the streaming `try_absorb` boundary
# (DESIGN.md §11) under every UnseenPolicy and fails on panics,
# on rejection/quarantine/coercion counters that never fire, or on a
# replay whose admissions or health transitions are not bit-identical
# per seed. The conformance steps
# (DESIGN.md §10) replay seeded random tables through the
# `mcdc-reference` oracle across the full execution grid
# (`conformance --quick`) and check the deterministic work counters
# against the `PERF_GATES.toml` baselines, self-testing that the gate
# still has teeth — the `[replicated]` counters must fail the `[serial]`
# baseline (`conformance --gate`); re-baseline deliberate
# changes with scripts/update_gates.sh. The examples smoke runs every
# example under examples/ and fails when one panics or returns an error —
# `streaming_drift` returns one when its drift trigger fires on in-regime
# arrivals or never fires on shifted ones. The benchmark
# (`perfbench/`) is a workspace of its own, so it gets its own fmt/clippy steps and its tests
# (which run its `--smoke` mode) — a library API change that breaks it
# fails here rather than at benchmark time.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> RUSTDOCFLAGS='-D warnings' cargo doc --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

echo "==> cargo test --doc -q"
cargo test --doc -q

echo "==> examples smoke (every example under examples/)"
for example in examples/*.rs; do
    echo "--> $(basename "$example" .rs)"
    cargo run --release --quiet --example "$(basename "$example" .rs)"
done

echo "==> perf smoke (hotpath_snapshot --quick)"
cargo run --release -p mcdc-bench --bin hotpath_snapshot -- --quick

echo "==> inference smoke (infer_hotpath --quick)"
cargo run --release -p mcdc-bench --bin infer_hotpath -- --quick

echo "==> reconcile smoke (reconcile_ablation --quick)"
cargo run --release -p mcdc-bench --bin reconcile_ablation -- --quick

echo "==> chaos smoke (fault_chaos --quick)"
cargo run --release -p mcdc-bench --bin fault_chaos -- --quick

echo "==> conformance replay (conformance --quick)"
cargo run --release -p mcdc-bench --bin conformance -- --quick

echo "==> counter gates (conformance --gate)"
cargo run --release -p mcdc-bench --bin conformance -- --gate

echo "==> perfbench: cargo fmt --check"
cargo fmt --check --manifest-path perfbench/Cargo.toml

echo "==> perfbench: cargo clippy --all-targets -- -D warnings"
cargo clippy --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

echo "==> perfbench: cargo test --release (smoke mode)"
cargo test --release --manifest-path perfbench/Cargo.toml

echo "verify: OK"
