//! E6–E8 — regenerates Fig. 6 as a counter ledger: MCDC's deterministic
//! work along (a) data size `n`, (b) sought cluster number `k`, and
//! (c) feature count `d`. The claim under test is the *linear* growth of
//! MCDC in all three (Section III-C), not the absolute seconds of the
//! authors' testbed, so each fit records machine-independent counters —
//! MGCPL `score_evals` and passes, the first stage's share of those
//! evaluations, κ and k₀, and CAME `score_evals` and iterations — with
//! wall seconds as a secondary column. Every seed is fitted twice; the
//! counters must agree. A fit whose CAME stops at its iteration cap rather
//! than at a fixpoint is reported.
//! The per-axis log-log slope is a least-squares fit over every fit's
//! (x, counter) pair. The n axis runs twice: at the default
//! `k₀ = min(√n, 64)` (`n`) and at the paper's `k₀ = round(√n)` set
//! through `initial_k` (`n_sqrt`), so both n-slopes are recorded. Writes
//! `BENCH_scaling.json`.
//!
//! Usage: `fig6_scaling [n|n_sqrt|k|d|all] [--quick]`
//!
//! `--quick` is the CI smoke (`scripts/verify.sh`): two small points per
//! axis, plus a k above the distinct rows of Γ, and two seeds, written to
//! `target/fig6_quick.json`. Either mode exits non-zero on a missing point,
//! a zero or non-finite counter, or two fits of one seed that count
//! differently; `--quick` also fails when a fit reaches CAME's cap.

use std::time::Instant;

use categorical_data::synth::scaling;
use categorical_data::{CategoricalTable, Dataset};
use mcdc_core::{Mcdc, Mgcpl, StageRecord};

/// CAME's default iteration cap (`CameBuilder::max_iterations`), which the
/// ledger's fits run under.
const CAME_CAP: usize = 100;

/// One fit's ledger row.
struct Fit {
    axis: &'static str,
    x: usize,
    n: usize,
    d: usize,
    k: usize,
    seed: u64,
    k0: usize,
    kappa: Vec<usize>,
    passes: u64,
    mgcpl_evals: u64,
    stage1_share: f64,
    came_evals: u64,
    came_iterations: usize,
    wall_s: f64,
}

impl Fit {
    /// The fit as one JSON object (hand-rolled: the workspace has no
    /// serde_json, and every value is a number or an ASCII string).
    fn json(&self) -> String {
        format!(
            "{{\"axis\": \"{}\", \"x\": {}, \"n\": {}, \"d\": {}, \"k\": {}, \"seed\": {}, \
             \"k0\": {}, \"kappa\": {:?}, \"passes\": {}, \"mgcpl_score_evals\": {}, \
             \"stage1_share\": {:.4}, \"came_score_evals\": {}, \"came_iterations\": {}, \
             \"wall_s\": {:.4}}}",
            self.axis,
            self.x,
            self.n,
            self.d,
            self.k,
            self.seed,
            self.k0,
            self.kappa,
            self.passes,
            self.mgcpl_evals,
            self.stage1_share,
            self.came_evals,
            self.came_iterations,
            self.wall_s
        )
    }
}

fn main() {
    let args = Args::parse();
    let (seeds, out) =
        if args.quick { (2, "target/fig6_quick.json") } else { (5, "BENCH_scaling.json") };
    let axes =
        ["n", "n_sqrt", "k", "d"].into_iter().filter(|&a| args.axis == "all" || args.axis == a);
    let (mut rows, mut slopes, mut failures) = (Vec::new(), Vec::new(), Vec::new());
    for axis in axes {
        println!("\nFig. 6({axis})");
        let mut fits = Vec::new();
        for x in grid(axis, args.quick) {
            for seed in 1..=seeds {
                match ledger_fit(axis, x, args.quick, seed) {
                    Ok(fit) => {
                        println!("{}", fit.json());
                        if fit.came_iterations >= CAME_CAP {
                            let note = format!("{axis} = {x}, seed {seed}: CAME reached its cap");
                            if args.quick {
                                failures.push(note);
                            } else {
                                eprintln!("fig6 ledger note: {note}");
                            }
                        }
                        fits.push(fit);
                    }
                    Err(e) => failures.push(format!("{axis} = {x}, seed {seed}: {e}")),
                }
            }
        }
        let slope = format!(
            "{{\"axis\": \"{axis}\", \"mgcpl_score_evals\": {:.3}, \"came_score_evals\": {:.3}, \
             \"wall_s\": {:.3}}}",
            log_log_slope(&fits, |f| f.mgcpl_evals as f64),
            log_log_slope(&fits, |f| f.came_evals as f64),
            log_log_slope(&fits, |f| f.wall_s)
        );
        println!("log-log slope: {slope}");
        slopes.push(slope);
        rows.extend(fits.iter().map(Fit::json));
    }

    let json = format!(
        "{{\n  \"bench\": \"fig6_scaling\",\n  \"seeds\": {seeds},\n  \"slopes\": [\n    {}\n  ],\n  \
         \"fits\": [\n    {}\n  ]\n}}\n",
        slopes.join(",\n    "),
        rows.join(",\n    ")
    );
    std::fs::write(out, json).expect("write the ledger");
    println!("\nwrote {out}");
    if failures.is_empty() {
        println!("fig6 ledger: OK");
    } else {
        for failure in &failures {
            eprintln!("fig6 ledger FAILED: {failure}");
        }
        std::process::exit(1);
    }
}

fn grid(axis: &str, quick: bool) -> Vec<usize> {
    match (axis, quick) {
        ("n" | "n_sqrt", false) => vec![5_000, 10_000, 20_000, 40_000, 80_000],
        // The default k₀ cap binds at 8,000 rows (above 4,160).
        ("n" | "n_sqrt", true) => vec![2_000, 8_000],
        ("k", false) => vec![25, 50, 100, 200, 400],
        // k = 50 exceeds the distinct rows of Γ at n = 2000 (κ = [3] on both
        // seeds), so CAME re-seeds empty clusters in every iteration.
        ("k", true) => vec![3, 6, 50],
        (_, false) => vec![10, 20, 40, 80, 160],
        (_, true) => vec![5, 10],
    }
}

/// The data set and sought `k` of one point: `syn_n` along n and k, a
/// table of cardinality-4 features along d.
fn point(axis: &str, x: usize, quick: bool, seed: u64) -> (Dataset, usize) {
    let n = match (axis, quick) {
        (_, true) => 2_000,
        ("k", false) => 20_000,
        _ => 5_000,
    };
    match axis {
        "n" | "n_sqrt" => (scaling::syn_n(x, seed), 3),
        "k" => (scaling::syn_n(n, seed), x),
        _ => (scaling::custom(format!("d{x}"), n, x, 3, seed), 3),
    }
}

/// Fits one seed twice (data and algorithm seeded alike) and checks that
/// both fits count alike and that no counter is zero.
fn ledger_fit(axis: &'static str, x: usize, quick: bool, seed: u64) -> Result<Fit, String> {
    let (data, k) = point(axis, x, quick, seed);
    let table = data.table();
    let k0 = (axis == "n_sqrt").then(|| (x as f64).sqrt().round() as usize);
    let mut mcdc = Mcdc::builder().seed(seed);
    if let Some(k0) = k0 {
        mcdc = mcdc.initial_k(k0);
    }
    let mcdc = mcdc.build();
    let mut runs = Vec::with_capacity(2);
    for _ in 0..2 {
        let start = Instant::now();
        let result = mcdc.fit(table, k).map_err(|e| e.to_string())?;
        runs.push((start.elapsed().as_secs_f64(), result));
    }
    let counters =
        |r: &mcdc_core::McdcResult| (r.mgcpl().stats, r.mgcpl().trace.clone(), *r.came().stats());
    if counters(&runs[0].1) != counters(&runs[1].1) {
        return Err("two fits of one seed count differently".to_owned());
    }
    let wall_s = runs[0].0.min(runs[1].0);
    let (mgcpl, came) = (runs[0].1.mgcpl(), runs[0].1.came());
    let first = mgcpl.trace.stages.first().ok_or("MGCPL ran no stage")?;
    let stage1 = stage1_evals(table, seed, k0, first);
    let fit = Fit {
        axis,
        x,
        n: table.n_rows(),
        d: table.n_features(),
        k,
        seed,
        k0: mgcpl.trace.initial_k,
        kappa: mgcpl.kappa.clone(),
        passes: mgcpl.stats.passes,
        mgcpl_evals: mgcpl.stats.score_evals,
        stage1_share: stage1 as f64 / mgcpl.stats.score_evals as f64,
        came_evals: came.stats().score_evals,
        came_iterations: came.iterations(),
        wall_s,
    };
    // Each later stage scores between its closing and opening live counts
    // per presentation, which bounds what stage 1 leaves of the total.
    let n = fit.n as u64;
    let rest = &mgcpl.trace.stages[1..];
    let lo: u64 = rest.iter().map(|s| n * s.inner_iterations as u64 * s.k_after as u64).sum();
    let hi: u64 = rest.iter().map(|s| n * s.inner_iterations as u64 * s.k_before as u64).sum();
    if !fit.mgcpl_evals.checked_sub(stage1).is_some_and(|r| (lo..=hi).contains(&r)) {
        return Err(format!("stage-1 evals {stage1} do not fit the total {}", fit.mgcpl_evals));
    }
    let values = [fit.passes, fit.mgcpl_evals, stage1, fit.came_evals, fit.k0 as u64];
    if values.contains(&0) || !(fit.stage1_share.is_finite() && fit.wall_s.is_finite()) {
        return Err("a zero or non-finite counter".to_owned());
    }
    Ok(fit)
}

/// Score evaluations of MGCPL's first stage. Each presentation scores
/// every cluster live at its pass start, so the stage costs n · Σ k_j
/// over its passes. A fit capped at `j` passes per stage runs exactly the
/// first `j` passes of the uncapped stage 1, so its stage-1 `k_after` is
/// the live count entering pass `j + 1`; the counts never grow, so the
/// probing stops once they reach the stage's closing count.
fn stage1_evals(
    table: &CategoricalTable,
    seed: u64,
    k0: Option<usize>,
    first: &StageRecord,
) -> u64 {
    let mut live = first.k_before;
    let mut sum = 0;
    for pass in 1..=first.inner_iterations {
        sum += live as u64;
        if live > first.k_after && pass < first.inner_iterations {
            let mut capped = Mgcpl::builder().seed(seed).max_inner_iterations(pass);
            if let Some(k0) = k0 {
                capped = capped.initial_k(k0);
            }
            let capped = capped.build();
            live = capped.fit(table).expect("the uncapped fit succeeded").trace.stages[0].k_after;
        }
    }
    table.n_rows() as u64 * sum
}

/// Least-squares slope of ln(value) on ln(x) over the fits of one axis.
fn log_log_slope(fits: &[Fit], value: impl Fn(&Fit) -> f64) -> f64 {
    let pts: Vec<(f64, f64)> = fits.iter().map(|f| ((f.x as f64).ln(), value(f).ln())).collect();
    let m = pts.len() as f64;
    let (mx, my) = pts.iter().fold((0.0, 0.0), |(a, b), (x, y)| (a + x / m, b + y / m));
    let sxy: f64 = pts.iter().map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = pts.iter().map(|(x, _)| (x - mx) * (x - mx)).sum();
    sxy / sxx
}

struct Args {
    axis: String,
    quick: bool,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args { axis: "all".to_owned(), quick: false };
        for flag in std::env::args().skip(1) {
            match flag.as_str() {
                "n" | "n_sqrt" | "k" | "d" | "all" => args.axis = flag,
                "--quick" => args.quick = true,
                other => panic!("unknown flag {other}; use n, n_sqrt, k, d, all or --quick"),
            }
        }
        args
    }
}
