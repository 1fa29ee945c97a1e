//! Differential conformance driver (DESIGN.md §10): fuzzes seeded random
//! tables through the textbook `mcdc-reference` oracle and the optimized
//! tree across the full execution grid, and gates the deterministic
//! hot-path work counters against `PERF_GATES.toml`.
//!
//! Usage: `cargo run --release -p mcdc-bench --bin conformance
//!        [--quick] [--tables N] [--seed-base S] [--gate] [--write-gates]
//!        [--replay SEED] [--gates PATH]`
//!
//! * `--quick` (also the default mode): replays `--tables` seeded tables
//!   (default 50), plus one fixed 4,500-row table on which the default
//!   `k₀` cap binds, through all 5 grid cells; any divergence prints a
//!   seed + shrunk-table witness and exits nonzero. This is the
//!   `scripts/verify.sh` conformance gate.
//! * `--gate`: measures the fixed counter suites, compares them against
//!   the checked-in baselines, then self-tests the gate by holding the
//!   measured `[replicated]` counters to the `[serial]` baseline — the
//!   rows the replicated passes move must fail it — and the `[scaling]`
//!   workload at the paper's uncapped `k₀ = √n` to the `[scaling]`
//!   baseline, which it must fail too.
//! * `--write-gates`: re-measures and rewrites `PERF_GATES.toml`,
//!   printing the old → new diff (wrapped by `scripts/update_gates.sh`).
//! * `--replay SEED`: verbose single-seed replay, one line per cell.

use std::process::ExitCode;

use mcdc_bench::conformance::{
    cap_table_spec, cell_divergence, compare_counters, gate_suites, grid, measure_scaling,
    measure_suite, minimize_table, parse_gates, random_table, render_gates, render_witness,
    replay_spec, replay_table, run_reference, GateCounters, CAP_TABLE_SEED,
};

/// Default fuzz breadth for `--quick`.
const DEFAULT_TABLES: usize = 50;
/// Tolerance written by `--write-gates`.
const DEFAULT_TOLERANCE: f64 = 0.05;

struct Args {
    quick: bool,
    gate: bool,
    write_gates: bool,
    replay: Option<u64>,
    tables: usize,
    seed_base: u64,
    gates_path: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        gate: false,
        write_gates: false,
        replay: None,
        tables: DEFAULT_TABLES,
        seed_base: 1,
        gates_path: default_gates_path(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--gate" => args.gate = true,
            "--write-gates" => args.write_gates = true,
            "--replay" => {
                let seed = it.next().ok_or("--replay needs a seed")?;
                args.replay = Some(seed.parse().map_err(|e| format!("--replay {seed}: {e}"))?);
            }
            "--tables" => {
                let n = it.next().ok_or("--tables needs a count")?;
                args.tables = n.parse().map_err(|e| format!("--tables {n}: {e}"))?;
            }
            "--seed-base" => {
                let s = it.next().ok_or("--seed-base needs a value")?;
                args.seed_base = s.parse().map_err(|e| format!("--seed-base {s}: {e}"))?;
            }
            "--gates" => args.gates_path = it.next().ok_or("--gates needs a path")?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !args.gate && !args.write_gates && args.replay.is_none() {
        args.quick = true;
    }
    Ok(args)
}

fn default_gates_path() -> String {
    format!("{}/../../PERF_GATES.toml", env!("CARGO_MANIFEST_DIR"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("conformance: {message}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = false;
    if let Some(seed) = args.replay {
        failed |= !replay_verbose(seed);
    }
    if args.quick {
        failed |= !run_quick(args.tables, args.seed_base);
    }
    if args.write_gates {
        failed |= !write_gates(&args.gates_path);
    }
    if args.gate {
        failed |= !run_gate(&args.gates_path);
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `--quick`: replay `tables` seeds through the grid; print witnesses for
/// every divergence.
fn run_quick(tables: usize, seed_base: u64) -> bool {
    println!(
        "conformance: replaying {tables} seeded tables × {} grid cells against the oracle",
        grid().len()
    );
    let mut divergent_seeds = 0usize;
    for offset in 0..tables {
        let seed = seed_base + offset as u64;
        let divergences = replay_table(seed);
        if divergences.is_empty() {
            continue;
        }
        divergent_seeds += 1;
        let (spec, _) = random_table(seed);
        for divergence in &divergences {
            // Shrink against the diverging cell when it is a real grid
            // cell; oracle-internal failures replay at full size.
            match grid().iter().find(|c| c.name == divergence.cell) {
                Some(cell) => {
                    let rows = minimize_table(&spec, seed, cell);
                    print!("{}", render_witness(&spec, divergence, &rows));
                }
                None => println!(
                    "DIVERGENCE seed={} cell={} — {}",
                    divergence.seed, divergence.cell, divergence.detail
                ),
            }
        }
    }
    // The fixed n > 4,096 table, where the default k₀ cap binds; printed
    // unshrunk, since dropping rows would take it below the cap.
    let cap = cap_table_spec();
    let cap_divergences = replay_spec(&cap, CAP_TABLE_SEED);
    for divergence in &cap_divergences {
        println!(
            "DIVERGENCE cap table (n = {}) cell={} — {}",
            cap.n, divergence.cell, divergence.detail
        );
    }
    if divergent_seeds == 0 && cap_divergences.is_empty() {
        println!(
            "conformance: all {tables} tables and the n = {} cap table conform on every cell",
            cap.n
        );
        true
    } else {
        println!(
            "conformance: {divergent_seeds}/{tables} tables diverged; the cap table {}",
            if cap_divergences.is_empty() { "conforms" } else { "diverged" }
        );
        false
    }
}

/// `--replay SEED`: one line per cell.
fn replay_verbose(seed: u64) -> bool {
    let (spec, table) = random_table(seed);
    println!(
        "replay seed={seed}: n={} k={} k0={:?} cards={:?} noise={:.3} missing={:.3}",
        spec.n, spec.k, spec.initial_k, spec.cardinalities, spec.noise, spec.missing
    );
    let oracle = run_reference(&table, spec.k, spec.initial_k, seed);
    println!("  oracle κ = {:?}", oracle.mgcpl.kappa);
    let mut ok = true;
    for cell in grid() {
        match cell_divergence(&table, spec.k, spec.initial_k, seed, &cell, &oracle) {
            None => println!("  {:16} OK ({:?})", cell.name, cell.tier),
            Some(detail) => {
                ok = false;
                println!("  {:16} DIVERGED: {detail}", cell.name);
            }
        }
    }
    ok
}

/// `--gate`: compare measured counters to the checked-in baselines, then
/// prove the gate has teeth by inflating one suite.
fn run_gate(path: &str) -> bool {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(error) => {
            eprintln!("conformance: cannot read {path}: {error}");
            return false;
        }
    };
    let file = match parse_gates(&text) {
        Ok(file) => file,
        Err(error) => {
            eprintln!("conformance: {path}: {error}");
            return false;
        }
    };
    let suites = gate_suites();
    let mut ok = true;
    let mut measured_suites: Vec<(String, GateCounters)> = Vec::new();
    for (name, baseline) in &file.suites {
        let Some(suite) = suites.iter().find(|s| s.name == name) else {
            eprintln!("gate: unknown suite [{name}] in {path} — re-baseline");
            ok = false;
            continue;
        };
        let measured = measure_suite(suite);
        measured_suites.push((name.clone(), measured));
        match compare_counters(name, baseline, &measured, file.tolerance) {
            Ok(stale) => {
                println!("gate: [{name}] within tolerance {}", file.tolerance);
                for warning in stale {
                    println!("gate: note: {warning}");
                }
            }
            Err(violations) => {
                ok = false;
                for violation in violations {
                    eprintln!("gate: FAIL: {violation}");
                }
            }
        }
    }
    for suite in &suites {
        if !file.suites.iter().any(|(name, _)| name == suite.name) {
            eprintln!("gate: suite [{}] missing from {path} — re-baseline", suite.name);
            ok = false;
        }
    }
    ok && gate_self_test(&file.suites, &measured_suites, file.tolerance)
}

/// The gate's own regression tests, each of which must report violations
/// or the gate is vacuous and the run fails:
///
/// * the measured `[replicated]` counters held to the `[serial]`
///   baseline: the replicated suite moves rows between profiles to settle
///   every pass while the serial one moves none that way (`merges` alone
///   grows from 0);
/// * the `[scaling]` workload at the paper's uncapped `k₀ = round(√n)`
///   held to the `[scaling]` baseline: a lost `k₀` cap must fail CI.
fn gate_self_test(
    baselines: &[(String, GateCounters)],
    measured: &[(String, GateCounters)],
    tolerance: f64,
) -> bool {
    let baseline = |name: &str| baselines.iter().find(|(n, _)| n == name).map(|(_, c)| *c);
    let Some(replicated) = measured.iter().find(|(name, _)| name == "replicated") else {
        eprintln!("gate: self-test needs a measured [replicated] suite");
        return false;
    };
    let probes = [
        ("serial", "[replicated] counters", replicated.1),
        ("scaling", "uncapped-k₀ [scaling] counters", measure_scaling(true)),
    ];
    let mut ok = true;
    for (suite, what, counters) in probes {
        let Some(base) = baseline(suite) else {
            eprintln!("gate: self-test needs a [{suite}] baseline");
            ok = false;
            continue;
        };
        match compare_counters(suite, &base, &counters, tolerance) {
            Err(violations) => println!(
                "gate: self-test OK — {what} correctly violate the [{suite}] baseline ({} \
                 violations, e.g. {})",
                violations.len(),
                violations[0]
            ),
            Ok(_) => {
                eprintln!(
                    "gate: self-test FAILED — {what} pass the [{suite}] baseline; the gate has \
                     no teeth"
                );
                ok = false;
            }
        }
    }
    ok
}

/// `--write-gates`: re-measure and rewrite the baseline file, printing
/// the per-counter diff.
fn write_gates(path: &str) -> bool {
    let previous = std::fs::read_to_string(path).ok().and_then(|t| parse_gates(&t).ok());
    let measured: Vec<(String, GateCounters)> =
        gate_suites().iter().map(|suite| (suite.name.to_string(), measure_suite(suite))).collect();
    let tolerance = previous.as_ref().map_or(DEFAULT_TOLERANCE, |f| f.tolerance);
    for (name, counters) in &measured {
        let old = previous
            .as_ref()
            .and_then(|f| f.suites.iter().find(|(n, _)| n == name).map(|(_, c)| *c));
        for (key, value) in counters.fields() {
            match old {
                Some(old) => {
                    let before =
                        old.fields().iter().find(|(k, _)| *k == key).map_or(0, |(_, v)| *v);
                    if before != value {
                        println!("update: {name}.{key}: {before} -> {value}");
                    }
                }
                None => println!("update: {name}.{key}: (new) -> {value}"),
            }
        }
    }
    if let Err(error) = std::fs::write(path, render_gates(tolerance, &measured)) {
        eprintln!("conformance: cannot write {path}: {error}");
        return false;
    }
    println!("wrote {path} (tolerance {tolerance})");
    true
}
