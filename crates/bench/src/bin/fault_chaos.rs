//! Degraded-versus-clean ablation of the fault-tolerance layer
//! (DESIGN.md §8): runs the replicated engine on the well-separated and
//! the nested high-overlap synthetic suites under four fault arms —
//! clean, a single crash recovered by retry, the same crash past its
//! budget (quarantine), and a probabilistic chaos schedule arming every
//! fault class — and writes `BENCH_faults.json` with the per-arm ACC
//! mean/min/max, mean wall time, and the summed fault counters. The
//! headline numbers: the retry arm reproduces the clean labels exactly
//! (deterministic re-execution), and the quarantine arm's nested mean
//! stays within 0.05 ACC of clean — the graceful-degradation acceptance
//! gate.
//!
//! A second **ingest** axis (DESIGN.md §11) replays seeded row corruption
//! — arity truncation, out-of-domain codes, MISSING flooding, all from
//! the extended [`FaultPlan`] — through the `try_absorb` trust boundary
//! of a [`StreamingMcdc`] under every [`UnseenPolicy`], recording the
//! rejection / quarantine / coercion counters and the serving-health
//! walk per policy.
//!
//! Usage: `cargo run --release -p mcdc-bench --bin fault_chaos
//!        [--out PATH] [--seeds N] [--n ROWS] [--quick]`
//!
//! `--quick` runs a tiny smoke grid (n = 240, 3 seeds), asserts no arm
//! panics, every metric is finite, the chaos arm actually injected
//! failures, the retry arm matches clean bit for bit, the quarantine
//! arm holds the recovery floor, and — on the ingest axis — that the
//! per-policy boundary counters fire and the whole corrupted replay
//! (admissions, counters, health transitions) is bit-identical when
//! re-run on the same seeds. Then it writes nothing; this is the
//! `scripts/verify.sh` gate.

use std::time::Instant;

use categorical_data::synth::GeneratorConfig;
use categorical_data::Dataset;
use cluster_eval::{accuracy, adjusted_rand_index};
use mcdc_core::{
    ExecutionPlan, FaultPlan, HealthState, HotPathStats, Mcdc, Mgcpl, StreamingMcdc, UnseenPolicy,
};

/// One fault arm under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arm {
    /// No plan armed: the PR-5 replicated baseline.
    Clean,
    /// One crash of shard 2 at merge step 1, recovered inside the default
    /// retry budget — must be bit-identical to `Clean`.
    Retry,
    /// The same crash with a budget of 1: the shard is quarantined and the
    /// merge degrades to the survivors.
    Quarantine,
    /// Probabilistic chaos: crashes, stragglers, poisoned and dropped δ
    /// vectors, all at once, re-seeded per fit seed.
    Chaos,
}

impl Arm {
    fn label(&self) -> &'static str {
        match self {
            Arm::Clean => "clean",
            Arm::Retry => "retry",
            Arm::Quarantine => "quarantine",
            Arm::Chaos => "chaos",
        }
    }

    /// The plan for one fit. Chaos derives its fault seed from the fit
    /// seed so every seed sees a different schedule.
    fn plan(&self, seed: u64) -> FaultPlan {
        match self {
            Arm::Clean => FaultPlan::none(),
            Arm::Retry => FaultPlan::none().fail_replica(1, 2),
            Arm::Quarantine => FaultPlan::none().fail_replica(1, 2).retry_budget(1),
            Arm::Chaos => FaultPlan::seeded(0xFA17 ^ seed)
                .replica_failure_rate(0.15)
                .straggler_rate(0.1)
                .straggler_delay(5)
                .delta_corruption_rate(0.15)
                .delta_drop_rate(0.1)
                .retry_budget(2),
        }
    }

    fn fit(
        &self,
        plan: &ExecutionPlan,
        seed: u64,
        data: &Dataset,
        k: usize,
    ) -> (Vec<usize>, HotPathStats, f64) {
        let start = Instant::now();
        let result = Mcdc::builder()
            .seed(seed)
            .execution(plan.clone())
            .fault_plan(self.plan(seed))
            .build()
            .fit(data.table(), k)
            .expect("chaos fit completes");
        let millis = start.elapsed().as_secs_f64() * 1e3;
        (result.labels().to_vec(), result.mgcpl().stats, millis)
    }
}

struct Entry {
    suite: &'static str,
    arm: &'static str,
    acc_mean: f64,
    acc_min: f64,
    acc_max: f64,
    ari_mean: f64,
    wall_ms_mean: f64,
    replica_failures: u64,
    retries: u64,
    quarantined_shards: u64,
    rejected_deltas: u64,
    worst_survivor_permille: u64,
}

fn suites(n: usize) -> Vec<(&'static str, Dataset, usize)> {
    // Two regimes: cleanly separated clusters, and the nested high-overlap
    // family BENCH_reconcile.json measures (its n600/seed3 table at the
    // default n).
    vec![
        (
            "separated",
            GeneratorConfig::new("sep", n, vec![4; 8], 3).noise(0.05).generate(5).dataset,
            3,
        ),
        (
            "nested-overlap",
            GeneratorConfig::new("nested", n, vec![4; 8], 3)
                .subclusters(3)
                .shared_fraction(0.7)
                .noise(0.08)
                .generate(3)
                .dataset,
            3,
        ),
    ]
}

/// Runs one suite × arm cell; returns the entry plus the per-seed labels
/// (the quick gate compares clean and retry label-by-label).
fn run_cell(
    suite: &'static str,
    data: &Dataset,
    k: usize,
    plan: &ExecutionPlan,
    arm: Arm,
    seeds: u64,
) -> (Entry, Vec<Vec<usize>>) {
    let mut accs = Vec::new();
    let mut aris = Vec::new();
    let mut walls = Vec::new();
    let mut all_labels = Vec::new();
    let mut counters = HotPathStats::default();
    let mut worst = 1000u64;
    for seed in 1..=seeds {
        let (labels, stats, millis) = arm.fit(plan, seed, data, k);
        accs.push(accuracy(data.labels(), &labels));
        aris.push(adjusted_rand_index(data.labels(), &labels));
        walls.push(millis);
        all_labels.push(labels);
        counters.replica_failures += stats.replica_failures;
        counters.retries += stats.retries;
        counters.quarantined_shards += stats.quarantined_shards;
        counters.rejected_deltas += stats.rejected_deltas;
        worst = worst.min(stats.min_survivor_permille);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let entry = Entry {
        suite,
        arm: arm.label(),
        acc_mean: mean(&accs),
        acc_min: accs.iter().copied().fold(f64::INFINITY, f64::min),
        acc_max: accs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        ari_mean: mean(&aris),
        wall_ms_mean: mean(&walls),
        replica_failures: counters.replica_failures,
        retries: counters.retries,
        quarantined_shards: counters.quarantined_shards,
        rejected_deltas: counters.rejected_deltas,
        worst_survivor_permille: worst,
    };
    assert!(
        entry.acc_mean.is_finite() && entry.ari_mean.is_finite(),
        "non-finite metric in {suite}/{}",
        entry.arm
    );
    (entry, all_labels)
}

/// The cross-arm invariants every grid (full and quick) must hold.
fn gate(suite: &str, cells: &[(Entry, Vec<Vec<usize>>)]) {
    let find = |arm: &str| cells.iter().find(|(e, _)| e.arm == arm).expect("arm present");
    let (clean, clean_labels) = find("clean");
    let (retry, retry_labels) = find("retry");
    let (quarantine, _) = find("quarantine");
    let (chaos, _) = find("chaos");
    assert_eq!(
        clean_labels, retry_labels,
        "{suite}: a recovered retry must reproduce the clean labels bit for bit"
    );
    assert!(retry.replica_failures > 0 && retry.retries > 0, "{suite}: retry arm never failed");
    assert_eq!(retry.quarantined_shards, 0, "{suite}: retry arm must not quarantine");
    assert!(
        quarantine.quarantined_shards > 0 && quarantine.worst_survivor_permille < 1000,
        "{suite}: quarantine arm never quarantined"
    );
    assert!(chaos.replica_failures > 0, "{suite}: chaos arm never injected a failure");
    assert!(
        quarantine.acc_mean >= clean.acc_mean - 0.05,
        "{suite}: quarantine cost more than 0.05 mean ACC ({} vs {})",
        quarantine.acc_mean,
        clean.acc_mean
    );
    assert!(clean.replica_failures == 0 && clean.rejected_deltas == 0);
}

/// One ingest-axis cell: the `try_absorb` boundary under one
/// [`UnseenPolicy`], counters summed over the fit seeds.
#[derive(Debug, Clone, PartialEq)]
struct IngestEntry {
    policy: &'static str,
    arrivals: u64,
    admitted: u64,
    rejected: u64,
    quarantined: u64,
    coerced_rows: u64,
    coerced_values: u64,
    health_transitions: u64,
    healthy_runs: u64,
    drifting_runs: u64,
    degraded_runs: u64,
    wall_ms_mean: f64,
}

/// Corruption schedule for one ingest seed: arity truncation,
/// out-of-domain codes, and MISSING flooding, all armed at once.
fn ingest_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(0x16E5 ^ seed)
        .ingest_truncation_rate(0.08)
        .ingest_out_of_domain_rate(0.15)
        .ingest_missing_flood_rate(0.08)
}

/// Replays `arrivals` corrupted rows per seed through a freshly
/// bootstrapped stream under `policy`.
fn run_ingest_cell(policy: UnseenPolicy, data: &Dataset, seeds: u64, arrivals: u64) -> IngestEntry {
    let label = match policy {
        UnseenPolicy::Reject => "reject",
        UnseenPolicy::AsMissing => "as-missing",
        UnseenPolicy::Quarantine => "quarantine",
    };
    let mut entry = IngestEntry {
        policy: label,
        arrivals: seeds * arrivals,
        admitted: 0,
        rejected: 0,
        quarantined: 0,
        coerced_rows: 0,
        coerced_values: 0,
        health_transitions: 0,
        healthy_runs: 0,
        drifting_runs: 0,
        degraded_runs: 0,
        wall_ms_mean: 0.0,
    };
    let mut walls = Vec::new();
    for seed in 1..=seeds {
        let mut stream =
            StreamingMcdc::bootstrap(Mgcpl::builder().seed(seed).build(), data.table())
                .expect("ingest bootstrap fits")
                .with_unseen_policy(policy);
        let plan = ingest_plan(seed);
        let start = Instant::now();
        let mut row = Vec::new();
        for arrival in 0..arrivals {
            row.clear();
            row.extend_from_slice(data.table().row(arrival as usize % data.table().n_rows()));
            plan.corrupt_row(arrival, &mut row);
            let _ = stream.try_absorb(&row);
        }
        walls.push(start.elapsed().as_secs_f64() * 1e3);
        let stats = stream.ingest_stats();
        entry.admitted += stats.admitted_rows;
        entry.rejected += stats.rejected_rows;
        entry.quarantined += stats.quarantined_rows;
        entry.coerced_rows += stats.coerced_rows;
        entry.coerced_values += stats.coerced_values;
        let health = stream.serving_health();
        entry.health_transitions += health.transitions;
        match health.state {
            HealthState::Healthy => entry.healthy_runs += 1,
            HealthState::Drifting => entry.drifting_runs += 1,
            HealthState::Degraded => entry.degraded_runs += 1,
        }
    }
    entry.wall_ms_mean = walls.iter().sum::<f64>() / walls.len() as f64;
    entry
}

/// The ingest-axis invariants: every offered row is accounted for exactly
/// once, each policy's signature counters fire, and the whole corrupted
/// replay is deterministic per seed.
fn ingest_gate(cells: &[IngestEntry], data: &Dataset, seeds: u64, arrivals: u64) {
    let find = |p: &str| cells.iter().find(|e| e.policy == p).expect("policy present");
    for entry in cells {
        assert_eq!(
            entry.admitted + entry.rejected + entry.quarantined,
            entry.arrivals,
            "{}: offered rows not conserved",
            entry.policy
        );
        assert!(entry.wall_ms_mean.is_finite());
    }
    let reject = find("reject");
    assert!(reject.rejected > 0, "reject policy never rejected");
    assert_eq!(reject.quarantined, 0, "reject policy must not quarantine");
    assert_eq!(reject.coerced_values, 0, "reject policy must not coerce");
    let as_missing = find("as-missing");
    assert!(as_missing.coerced_values > 0, "as-missing never coerced");
    assert!(as_missing.rejected > 0, "truncated rows must still be refused");
    assert_eq!(as_missing.quarantined, 0, "as-missing must not quarantine");
    let quarantine = find("quarantine");
    assert!(quarantine.quarantined > 0, "quarantine policy never quarantined");
    assert_eq!(quarantine.rejected, 0, "quarantine must divert, not refuse");
    assert!(
        cells.iter().any(|e| e.health_transitions > 0),
        "the corrupted replay never moved the health machine"
    );
    // Same seeds, same corruption schedule, same walk — bit for bit.
    for entry in cells {
        let policy = match entry.policy {
            "reject" => UnseenPolicy::Reject,
            "as-missing" => UnseenPolicy::AsMissing,
            _ => UnseenPolicy::Quarantine,
        };
        let replay = run_ingest_cell(policy, data, seeds, arrivals);
        assert_eq!(
            (
                replay.admitted,
                replay.rejected,
                replay.quarantined,
                replay.coerced_values,
                replay.health_transitions,
                replay.degraded_runs,
            ),
            (
                entry.admitted,
                entry.rejected,
                entry.quarantined,
                entry.coerced_values,
                entry.health_transitions,
                entry.degraded_runs,
            ),
            "{}: corrupted replay is not deterministic",
            entry.policy
        );
    }
}

fn main() {
    let args = Args::parse();
    let (n, seeds) = if args.quick { (240, 3) } else { (args.n, args.seeds) };
    let suites = suites(n);
    let plan = ExecutionPlan::mini_batch(n / 4); // 4 shards: the grid PR-5 measured

    let mut entries: Vec<Entry> = Vec::new();
    println!(
        "{:<16} {:<12} {:>9} {:>9} {:>9} {:>9} {:>6} {:>7} {:>6} {:>8} {:>9}",
        "suite",
        "arm",
        "acc mean",
        "acc min",
        "ari mean",
        "wall ms",
        "fails",
        "retries",
        "quar",
        "rej",
        "surv"
    );
    for (suite, data, k) in &suites {
        let cells: Vec<(Entry, Vec<Vec<usize>>)> =
            [Arm::Clean, Arm::Retry, Arm::Quarantine, Arm::Chaos]
                .into_iter()
                .map(|arm| run_cell(suite, data, *k, &plan, arm, seeds))
                .collect();
        gate(suite, &cells);
        for (entry, _) in cells {
            println!(
                "{:<16} {:<12} {:>9.3} {:>9.3} {:>9.3} {:>9.2} {:>6} {:>7} {:>6} {:>8} {:>9}",
                entry.suite,
                entry.arm,
                entry.acc_mean,
                entry.acc_min,
                entry.ari_mean,
                entry.wall_ms_mean,
                entry.replica_failures,
                entry.retries,
                entry.quarantined_shards,
                entry.rejected_deltas,
                entry.worst_survivor_permille,
            );
            entries.push(entry);
        }
    }

    // The ingest axis: corrupted arrivals through the streaming trust
    // boundary, on the separated suite (the clean regime isolates the
    // boundary's own behaviour from clustering difficulty).
    let arrivals = 2 * n as u64;
    let (_, ingest_data, _) = &suites[0];
    println!(
        "\n{:<16} {:>9} {:>9} {:>9} {:>9} {:>8} {:>7} {:>6} {:>5} {:>5} {:>9}",
        "ingest policy",
        "arrivals",
        "admit",
        "reject",
        "quar",
        "coerced",
        "health",
        "ok",
        "drift",
        "degr",
        "wall ms"
    );
    let ingest_cells: Vec<IngestEntry> =
        [UnseenPolicy::Reject, UnseenPolicy::AsMissing, UnseenPolicy::Quarantine]
            .into_iter()
            .map(|policy| run_ingest_cell(policy, ingest_data, seeds, arrivals))
            .collect();
    for e in &ingest_cells {
        println!(
            "{:<16} {:>9} {:>9} {:>9} {:>9} {:>8} {:>7} {:>6} {:>5} {:>5} {:>9.2}",
            e.policy,
            e.arrivals,
            e.admitted,
            e.rejected,
            e.quarantined,
            e.coerced_values,
            e.health_transitions,
            e.healthy_runs,
            e.drifting_runs,
            e.degraded_runs,
            e.wall_ms_mean,
        );
    }
    ingest_gate(&ingest_cells, ingest_data, seeds, arrivals);

    if args.quick {
        println!("fault_chaos --quick: OK");
        return;
    }
    let json = render_json(&entries, &ingest_cells, seeds, n);
    std::fs::write(&args.out, json).expect("write BENCH_faults.json");
    println!("\nwrote {}", args.out);
}

/// Hand-rolled JSON (the workspace has no serde_json; labels are plain
/// ASCII, numbers are finite).
fn render_json(entries: &[Entry], ingest: &[IngestEntry], seeds: u64, n: usize) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"fault_chaos\",\n");
    out.push_str(&format!("  \"fit_seeds\": {seeds},\n"));
    out.push_str(&format!("  \"n\": {n},\n"));
    out.push_str("  \"shards\": 4,\n");
    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"suite\": \"{}\", \"arm\": \"{}\", \
             \"acc_mean\": {:.4}, \"acc_min\": {:.4}, \"acc_max\": {:.4}, \
             \"ari_mean\": {:.4}, \"wall_ms_mean\": {:.3}, \
             \"replica_failures\": {}, \"retries\": {}, \
             \"quarantined_shards\": {}, \"rejected_deltas\": {}, \
             \"worst_survivor_permille\": {}}}{}\n",
            e.suite,
            e.arm,
            e.acc_mean,
            e.acc_min,
            e.acc_max,
            e.ari_mean,
            e.wall_ms_mean,
            e.replica_failures,
            e.retries,
            e.quarantined_shards,
            e.rejected_deltas,
            e.worst_survivor_permille,
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"ingest_entries\": [\n");
    for (i, e) in ingest.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"suite\": \"ingest\", \"policy\": \"{}\", \"arrivals\": {}, \
             \"admitted\": {}, \"rejected\": {}, \"quarantined\": {}, \
             \"coerced_rows\": {}, \"coerced_values\": {}, \
             \"health_transitions\": {}, \"healthy_runs\": {}, \
             \"drifting_runs\": {}, \"degraded_runs\": {}, \
             \"wall_ms_mean\": {:.3}}}{}\n",
            e.policy,
            e.arrivals,
            e.admitted,
            e.rejected,
            e.quarantined,
            e.coerced_rows,
            e.coerced_values,
            e.health_transitions,
            e.healthy_runs,
            e.drifting_runs,
            e.degraded_runs,
            e.wall_ms_mean,
            if i + 1 < ingest.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

struct Args {
    out: String,
    seeds: u64,
    n: usize,
    quick: bool,
}

impl Args {
    fn parse() -> Args {
        let mut args =
            Args { out: "BENCH_faults.json".to_owned(), seeds: 10, n: 600, quick: false };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--out" => args.out = it.next().expect("--out PATH"),
                "--seeds" => args.seeds = it.next().expect("--seeds N").parse().expect("numeric"),
                "--n" => args.n = it.next().expect("--n ROWS").parse().expect("numeric"),
                "--quick" => args.quick = true,
                other => panic!("unknown flag {other}; use --out, --seeds, --n, --quick"),
            }
        }
        args
    }
}
