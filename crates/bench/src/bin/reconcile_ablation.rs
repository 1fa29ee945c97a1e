//! Paired quality grid of the replica merge (DESIGN.md §5): the one merge
//! rule (span-size-weighted δ average) with and without a shard halo,
//! against the serial cascade, on the nested high-overlap tables where
//! replicated plans lose quality.
//!
//! Tables: 3 classes × 3 sub-clusters sharing 70% of their features, noise
//! 0.08 — n = 600 at generator seeds {3, 5, 11, 17, 29}, n = 1200 at {3,
//! 23}, n = 2400 at {3}. Arms per table: `Serial`, and `mini_batch(n/4)`
//! and `mini_batch(n/8)` each at halo 0 and halo n/32. Every arm runs the
//! same fit seeds, so arms pair per seed.
//!
//! Per cell the grid reports ACC mean, band (max − min), wall ms per fit,
//! and two-tailed paired Wilcoxon signed-rank p-values
//! (`cluster_eval::wilcoxon_signed_rank`, as in the paper's Table IV):
//! each halo cell against halo 0 on the same plan, and each replicated
//! cell against serial. One comparison family has 16 tests (8 tables × 2
//! batch sizes), so a difference counts as a win or a loss only below the
//! Bonferroni level α = 0.05 / 16. Writes `BENCH_reconcile.json`.
//!
//! Usage: `cargo run --release -p mcdc-bench --bin reconcile_ablation
//!        [--out PATH] [--seeds N] [--quick]`
//!
//! `--quick` runs a tiny smoke grid (n = 240, 2 seeds, one batch size at
//! halo 0 and n/32, plus serial), asserts every metric is finite, and
//! writes nothing — the `scripts/verify.sh` gate.

use std::time::Instant;

use categorical_data::synth::GeneratorConfig;
use categorical_data::Dataset;
use cluster_eval::{accuracy, wilcoxon_signed_rank};
use mcdc_core::{ExecutionPlan, Mcdc};

/// Family-wise significance level, split over the 16 tests of one family.
const ALPHA: f64 = 0.05;
const FAMILY: usize = 16;

/// `(n, generator seed)` of every nested-overlap table.
const TABLES: [(usize, u64); 8] =
    [(600, 3), (600, 5), (600, 11), (600, 17), (600, 29), (1200, 3), (1200, 23), (2400, 3)];

fn nested(n: usize, seed: u64) -> Dataset {
    GeneratorConfig::new("nested", n, vec![4; 8], 3)
        .subclusters(3)
        .shared_fraction(0.7)
        .noise(0.08)
        .generate(seed)
        .dataset
}

/// One arm's per-seed ACCs and its mean wall time per fit.
struct Arm {
    accs: Vec<f64>,
    ms_per_fit: f64,
}

fn run_arm(data: &Dataset, plan: &ExecutionPlan, halo: usize, seeds: u64) -> Arm {
    let mut total_ms = 0.0;
    let accs = (1..=seeds)
        .map(|seed| {
            let mcdc = Mcdc::builder().seed(seed).execution(plan.clone()).halo(halo).build();
            let start = Instant::now();
            let result = mcdc.fit(data.table(), 3).expect("ablation fit succeeds");
            total_ms += start.elapsed().as_secs_f64() * 1e3;
            let acc = accuracy(data.labels(), result.labels());
            assert!(acc.is_finite(), "non-finite ACC under {plan:?} halo {halo}");
            acc
        })
        .collect();
    Arm { accs, ms_per_fit: total_ms / seeds as f64 }
}

struct Entry {
    table: String,
    plan: String,
    halo: usize,
    acc_mean: f64,
    acc_min: f64,
    acc_max: f64,
    ms_per_fit: f64,
    /// Paired p-value against halo 0 on the same plan (halo cells only).
    p_vs_halo0: Option<f64>,
    /// Paired p-value against serial (replicated cells only).
    p_vs_serial: Option<f64>,
}

/// Tallies significant wins and losses of one comparison family.
#[derive(Default)]
struct Tally {
    wins: usize,
    losses: usize,
}

impl Tally {
    /// Tests `x` against `y`, counts the verdict, and returns the p-value.
    fn test(&mut self, x: &[f64], y: &[f64], alpha: f64) -> f64 {
        let test = wilcoxon_signed_rank(x, y);
        if test.is_significant(alpha) {
            if test.first_is_better() {
                self.wins += 1;
            } else {
                self.losses += 1;
            }
        }
        test.p_value
    }
}

fn main() {
    let args = Args::parse();
    if args.quick {
        run_quick();
        return;
    }
    let alpha = ALPHA / FAMILY as f64;
    let mut entries: Vec<Entry> = Vec::new();
    let mut halo_vs_plain = Tally::default();
    let mut plain_vs_serial = Tally::default();
    let mut halo_vs_serial = Tally::default();
    println!("Bonferroni alpha = {ALPHA} / {FAMILY} = {alpha:.5}; {} fit seeds", args.seeds);
    println!(
        "{:<12} {:<16} {:>5} {:>8} {:>8} {:>8} {:>10} {:>10}",
        "table", "plan", "halo", "acc mean", "band", "ms/fit", "p vs h0", "p vs ser"
    );
    let mut record = |entry: Entry| {
        let p = |v: Option<f64>| v.map_or("—".to_owned(), |p| format!("{p:.4}"));
        println!(
            "{:<12} {:<16} {:>5} {:>8.3} {:>8.3} {:>8.2} {:>10} {:>10}",
            entry.table,
            entry.plan,
            entry.halo,
            entry.acc_mean,
            entry.acc_max - entry.acc_min,
            entry.ms_per_fit,
            p(entry.p_vs_halo0),
            p(entry.p_vs_serial),
        );
        entries.push(entry);
    };

    for (n, gen_seed) in TABLES {
        let data = nested(n, gen_seed);
        let table = format!("n{n}/seed{gen_seed}");
        let serial = run_arm(&data, &ExecutionPlan::Serial, 0, args.seeds);
        record(entry(&table, "serial".to_owned(), 0, &serial, None, None));
        for batch in [n / 4, n / 8] {
            let plan = ExecutionPlan::mini_batch(batch);
            let halo = n / 32;
            let plain = run_arm(&data, &plan, 0, args.seeds);
            let overlap = run_arm(&data, &plan, halo, args.seeds);
            let p_plain = plain_vs_serial.test(&plain.accs, &serial.accs, alpha);
            let p_halo = halo_vs_plain.test(&overlap.accs, &plain.accs, alpha);
            let p_halo_serial = halo_vs_serial.test(&overlap.accs, &serial.accs, alpha);
            let label = format!("minibatch({batch})");
            record(entry(&table, label.clone(), 0, &plain, None, Some(p_plain)));
            record(entry(&table, label, halo, &overlap, Some(p_halo), Some(p_halo_serial)));
        }
    }

    println!("\nsignificant at alpha = {alpha:.5} (wins / losses of the first arm):");
    for (name, tally) in [
        ("halo n/32 vs halo 0", &halo_vs_plain),
        ("halo 0 vs serial", &plain_vs_serial),
        ("halo n/32 vs serial", &halo_vs_serial),
    ] {
        println!("  {name:<20} {} / {}", tally.wins, tally.losses);
    }
    let json = render_json(&entries, args.seeds, alpha);
    std::fs::write(&args.out, json).expect("write BENCH_reconcile.json");
    println!("\nwrote {}", args.out);
}

fn entry(
    table: &str,
    plan: String,
    halo: usize,
    arm: &Arm,
    p_vs_halo0: Option<f64>,
    p_vs_serial: Option<f64>,
) -> Entry {
    Entry {
        table: table.to_owned(),
        plan,
        halo,
        acc_mean: arm.accs.iter().sum::<f64>() / arm.accs.len() as f64,
        acc_min: arm.accs.iter().copied().fold(f64::INFINITY, f64::min),
        acc_max: arm.accs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        ms_per_fit: arm.ms_per_fit,
        p_vs_halo0,
        p_vs_serial,
    }
}

/// The `--quick` smoke grid: the merge and the halo run end to end with
/// finite metrics, without measuring anything.
fn run_quick() {
    let n = 240;
    let data = nested(n, 3);
    for (plan, halo) in [
        (ExecutionPlan::Serial, 0),
        (ExecutionPlan::mini_batch(n / 4), 0),
        (ExecutionPlan::mini_batch(n / 4), n / 32),
    ] {
        let arm = run_arm(&data, &plan, halo, 2);
        println!("quick {plan:?} halo={halo} accs={:?}", arm.accs);
    }
    println!("reconcile_ablation --quick: OK");
}

/// Hand-rolled JSON (the workspace has no serde_json; labels are plain
/// ASCII, numbers are finite).
fn render_json(entries: &[Entry], seeds: u64, alpha: f64) -> String {
    let p = |v: Option<f64>| v.map_or("null".to_owned(), |p| format!("{p:.6}"));
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"reconcile_ablation\",\n");
    out.push_str(&format!("  \"fit_seeds\": {seeds},\n"));
    out.push_str("  \"test\": \"two-tailed paired Wilcoxon signed-rank on ACC\",\n");
    out.push_str(&format!("  \"alpha_bonferroni\": {alpha:.6},\n"));
    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"table\": \"{}\", \"plan\": \"{}\", \"halo\": {}, \
             \"acc_mean\": {:.4}, \"acc_min\": {:.4}, \"acc_max\": {:.4}, \
             \"acc_band\": {:.4}, \"ms_per_fit\": {:.3}, \
             \"p_vs_halo0\": {}, \"p_vs_serial\": {}}}{}\n",
            e.table,
            e.plan,
            e.halo,
            e.acc_mean,
            e.acc_min,
            e.acc_max,
            e.acc_max - e.acc_min,
            e.ms_per_fit,
            p(e.p_vs_halo0),
            p(e.p_vs_serial),
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

struct Args {
    out: String,
    seeds: u64,
    quick: bool,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args { out: "BENCH_reconcile.json".to_owned(), seeds: 60, quick: false };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--out" => args.out = it.next().expect("--out PATH"),
                "--seeds" => args.seeds = it.next().expect("--seeds N").parse().expect("numeric"),
                "--quick" => args.quick = true,
                other => panic!("unknown flag {other}; use --out, --seeds, --quick"),
            }
        }
        args
    }
}
