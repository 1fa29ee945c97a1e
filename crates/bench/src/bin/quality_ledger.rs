//! The quality ledger (ROADMAP item 1, first slice): MCDC's clustering
//! accuracy as MGCPL's first-stage size `k₀` shrinks, tested against the
//! paper's `k₀ = round(√n)`, with single-start k-modes as the reference
//! row. It is the evidence behind the default `k₀ = min(√n, 64)`
//! (DESIGN.md §3).
//!
//! Arms: MCDC at `k₀ = min(round(√n), c)` for c ∈ {∞ (the paper's √n), 64,
//! 32, 16}, and k-modes (`KModes::new(seed)`, one random-object start). Each
//! cell records the mean and spread of ACC, the mean σ and first-level κ,
//! MGCPL's mean `score_evals`, and the per-seed κ cascades. Every arm is
//! compared with the √n arm by the paired two-tailed Wilcoxon signed-rank
//! test over the seeds, Bonferroni-corrected over the data sets.
//!
//! Data: the eight Table II stand-ins (`uci::by_abbrev(..)
//! .generate_dataset(7)`), the nested family (d = 64, m = 8, 4 classes of
//! 3 sub-clusters, noise 0.1) at n = 2000 and n = 8000 with generator seeds
//! 3 and 5, and `syn_n(30000, 7)`. Algorithm seeds are `1..=30`.
//!
//! Usage: `quality_ledger [--quick]` (30 seeds; writes
//! `BENCH_quality.json`). `--quick` is the CI smoke (`scripts/verify.sh`):
//! two sets (Con. and `syn_n`, where the cap binds) and three seeds,
//! written to `target/quality_quick.json`. Either mode exits non-zero on a
//! missing cell (a fit that failed) or a non-finite value.

use categorical_data::synth::{scaling, uci, GeneratorConfig};
use categorical_data::Dataset;
use cluster_eval::{accuracy, wilcoxon_signed_rank};
use mcdc_bench::Method;
use mcdc_core::Mcdc;
use rayon::prelude::*;

/// Family-wise significance level, split over the data sets (Bonferroni).
const ALPHA: f64 = 0.05;
/// Algorithm seeds per cell in the full ledger.
const SEEDS: usize = 30;
/// The MCDC arms' caps on `k₀ = round(√n)`; `None` is the paper's rule.
const K0_CAPS: [Option<usize>; 4] = [None, Some(64), Some(32), Some(16)];
/// The `--quick` data sets.
const QUICK_SETS: [&str; 2] = ["Con.", "syn_n(30000)"];

/// One seed's outcome in one cell; k-modes leaves κ empty and evals 0.
struct Run {
    acc: f64,
    kappa: Vec<usize>,
    score_evals: u64,
}

/// One arm on one data set.
struct Cell {
    arm: String,
    k0: Option<usize>,
    runs: Vec<Run>,
    /// Paired Wilcoxon against the √n arm: raw and Bonferroni-adjusted p,
    /// and the verdict at [`ALPHA`].
    p: f64,
    p_adjusted: f64,
    verdict: &'static str,
}

impl Cell {
    fn accs(&self) -> Vec<f64> {
        self.runs.iter().map(|r| r.acc).collect()
    }

    fn mean(&self, value: impl Fn(&Run) -> f64) -> f64 {
        self.runs.iter().map(value).sum::<f64>() / self.runs.len() as f64
    }

    /// The numbers the JSON carries, for the finiteness check.
    fn numbers(&self) -> [f64; 6] {
        let acc = self.mean(|r| r.acc);
        let spread = self.mean(|r| (r.acc - acc).powi(2)).sqrt();
        let sigma = self.mean(|r| r.kappa.len() as f64);
        let kappa1 = self.mean(|r| r.kappa.first().map_or(0.0, |&k| k as f64));
        [acc, spread, sigma, kappa1, self.p, self.p_adjusted]
    }

    fn json(&self) -> String {
        let [acc, spread, sigma, kappa1, p, p_adjusted] = self.numbers();
        let k0 = self.k0.map_or("null".to_owned(), |k| k.to_string());
        let evals = self.mean(|r| r.score_evals as f64);
        let kappas: Vec<String> = self.runs.iter().map(|r| format!("{:?}", r.kappa)).collect();
        format!(
            "{{\"arm\": \"{}\", \"k0\": {k0}, \"acc_mean\": {acc:.4}, \"acc_std\": {spread:.4}, \
             \"sigma_mean\": {sigma:.2}, \"kappa1_mean\": {kappa1:.2}, \
             \"mgcpl_score_evals_mean\": {evals:.0}, \"p_vs_sqrt_n\": {p:.3e}, \
             \"p_bonferroni\": {p_adjusted:.3e}, \"verdict\": \"{}\", \"kappa\": [{}]}}",
            self.arm,
            self.verdict,
            kappas.join(", ")
        )
    }
}

fn main() {
    let args = Args::parse();
    let (seeds, out) =
        if args.quick { (3, "target/quality_quick.json") } else { (SEEDS, "BENCH_quality.json") };
    let sets: Vec<(String, Dataset)> = data_sets()
        .into_iter()
        .filter(|(name, _)| !args.quick || QUICK_SETS.contains(&name.as_str()))
        .collect();
    let tests = sets.len() as f64;
    let mut failures = Vec::new();
    let mut rows = Vec::new();
    println!("quality ledger: {} sets x {seeds} seeds, Bonferroni over {tests} sets", sets.len());
    println!(
        "{:<14} {:>6} {:>16} {:>16} {:>16} {:>16} {:>8}",
        "set", "n", "MCDC √n", "k0<=64", "k0<=32", "k0<=16", "k-modes"
    );
    for (name, data) in &sets {
        let mut cells: Vec<Cell> = Vec::new();
        for cap in K0_CAPS {
            let n = data.table().n_rows();
            let k0 =
                ((n as f64).sqrt().round() as usize).min(cap.unwrap_or(usize::MAX)).clamp(2, n);
            let arm = cap.map_or("mcdc_k0_sqrt_n".to_owned(), |c| format!("mcdc_k0_cap{c}"));
            cells.push(run_cell(arm, Some(k0), data, seeds, |seed| {
                let result = Mcdc::builder()
                    .seed(seed)
                    .initial_k(k0)
                    .build()
                    .fit(data.table(), data.k_true())
                    .map_err(|e| e.to_string())?;
                Ok(Run {
                    acc: accuracy(data.labels(), result.labels()),
                    kappa: result.mgcpl().kappa.clone(),
                    score_evals: result.mgcpl().stats.score_evals,
                })
            }));
        }
        cells.push(run_cell("kmodes".to_owned(), None, data, seeds, |seed| {
            let labels = Method::KModes.run(data.table(), data.k_true(), seed)?;
            Ok(Run { acc: accuracy(data.labels(), &labels), kappa: Vec::new(), score_evals: 0 })
        }));
        let reference = cells[0].accs();
        for cell in cells.iter_mut() {
            if cell.runs.len() != seeds {
                failures.push(format!(
                    "{name} / {}: {} of {seeds} runs",
                    cell.arm,
                    cell.runs.len()
                ));
                continue;
            }
            if reference.len() != seeds {
                continue;
            }
            let test = wilcoxon_signed_rank(&cell.accs(), &reference);
            cell.p = test.p_value;
            cell.p_adjusted = (test.p_value * tests).min(1.0);
            cell.verdict = match (cell.p_adjusted < ALPHA, test.first_is_better()) {
                _ if cell.arm == "mcdc_k0_sqrt_n" => "reference",
                (false, _) => "tie",
                (true, true) => "better",
                (true, false) => "worse",
            };
            if cell.numbers().iter().any(|v| !v.is_finite()) {
                failures.push(format!("{name} / {}: a non-finite value", cell.arm));
            }
        }
        let shown: Vec<String> = cells
            .iter()
            .map(|c| {
                let acc = c.mean(|r| r.acc);
                match c.runs.first().filter(|r| !r.kappa.is_empty()) {
                    Some(_) => format!(
                        "{acc:.3} σ{:.1} {}",
                        c.mean(|r| r.kappa.len() as f64),
                        mark(c.verdict)
                    ),
                    None => format!("{acc:.3}"),
                }
            })
            .collect();
        println!(
            "{name:<14} {:>6} {}",
            data.table().n_rows(),
            shown.iter().map(|s| format!("{s:>16}")).collect::<Vec<_>>().join(" ")
        );
        rows.push(format!(
            "{{\"set\": \"{name}\", \"n\": {}, \"d\": {}, \"k\": {}, \"arms\": [\n      {}\n    ]}}",
            data.table().n_rows(),
            data.table().n_features(),
            data.k_true(),
            cells.iter().map(Cell::json).collect::<Vec<_>>().join(",\n      ")
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"quality_ledger\",\n  \"seeds\": {seeds},\n  \"alpha\": {ALPHA},\n  \
         \"bonferroni_tests\": {tests},\n  \"sets\": [\n    {}\n  ]\n}}\n",
        rows.join(",\n    ")
    );
    std::fs::write(out, json).expect("write the ledger");
    println!("\nwrote {out} (+ / - : significantly better / worse than √n after Bonferroni)");
    if failures.is_empty() {
        println!("quality ledger: OK");
    } else {
        for failure in &failures {
            eprintln!("quality ledger FAILED: {failure}");
        }
        std::process::exit(1);
    }
}

/// Runs one cell's seeds in parallel, keeping the runs that succeeded
/// (a missing run makes the cell incomplete, which `main` reports).
fn run_cell(
    arm: String,
    k0: Option<usize>,
    data: &Dataset,
    seeds: usize,
    fit: impl Fn(u64) -> Result<Run, String> + Sync,
) -> Cell {
    let runs: Vec<Result<Run, String>> =
        (0..seeds).into_par_iter().map(|r| fit(r as u64 + 1)).collect();
    let runs = runs
        .into_iter()
        .filter_map(|run| run.map_err(|e| eprintln!("{} / {arm}: {e}", data.name())).ok())
        .collect();
    Cell { arm, k0, runs, p: 1.0, p_adjusted: 1.0, verdict: "tie" }
}

fn mark(verdict: &str) -> &'static str {
    match verdict {
        "better" => "+",
        "worse" => "-",
        _ => " ",
    }
}

/// The ledger's data sets, in table order.
fn data_sets() -> Vec<(String, Dataset)> {
    let mut sets: Vec<(String, Dataset)> =
        uci::ALL.iter().map(|p| (p.abbrev.to_owned(), p.generate_dataset(7))).collect();
    for n in [2_000, 8_000] {
        for seed in [3, 5] {
            let data = GeneratorConfig::new("nested", n, vec![8; 64], 4)
                .subclusters(3)
                .noise(0.1)
                .generate(seed)
                .dataset;
            sets.push((format!("nested{n}/g{seed}"), data));
        }
    }
    sets.push(("syn_n(30000)".to_owned(), scaling::syn_n(30_000, 7)));
    sets
}

struct Args {
    quick: bool,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args { quick: false };
        for flag in std::env::args().skip(1) {
            match flag.as_str() {
                "--quick" => args.quick = true,
                other => panic!("unknown flag {other}; usage: quality_ledger [--quick]"),
            }
        }
        args
    }
}
