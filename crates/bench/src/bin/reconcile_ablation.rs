//! Quality-band and quality-recovery ablation of the reconciliation
//! layer (DESIGN.md §5, §7): sweeps policy × rotation period ×
//! warm-start × batch size on the well-separated and the nested
//! high-overlap synthetic suites, 10 fit seeds each, and writes
//! `BENCH_reconcile.json` with the per-cell ACC/ARI mean and band
//! (max − min across seeds). The serial engine rides along as the
//! reference: the open question this ablation answers is which
//! replicated configuration recovers serial's nested-suite *mean* (the
//! band question was settled by the §5 grid — δ-momentum — and those
//! cells are re-measured here unchanged).
//!
//! Usage: `cargo run --release -p mcdc-bench --bin reconcile_ablation
//!        [--out PATH] [--seeds N] [--n ROWS] [--quick]`
//!
//! `--quick` runs a tiny smoke grid (n = 240, 2 seeds, one batch size,
//! one rotating + one degenerate configuration), asserts every metric is
//! finite, that the rotating configuration actually rotated, and writes
//! nothing — the `scripts/verify.sh` gate.

use categorical_data::synth::GeneratorConfig;
use categorical_data::Dataset;
use cluster_eval::{accuracy, adjusted_rand_index};
use mcdc_core::{
    DeltaAverage, DeltaMomentum, ExecutionPlan, Mcdc, McdcBuilder, OverlapShards, Reconcile,
    Rotate, WarmStart,
};

/// The base (per-pass) merge rule of one configuration.
#[derive(Debug, Clone, Copy)]
enum Base {
    Average,
    Momentum(f64),
    Overlap(usize),
}

/// One replicated configuration under test: base policy × rotation period
/// × warm-start mode.
#[derive(Debug, Clone, Copy)]
struct Config {
    base: Base,
    rotation: usize,
    warm: WarmStart,
}

impl Config {
    /// The canonical policy label (`ReconcileDescriptor`'s `Display` of
    /// the composed policy), so the JSON labels can never drift from what
    /// the policies report.
    fn policy_label(&self) -> String {
        self.describe_policy().to_string()
    }

    fn describe_policy(&self) -> mcdc_core::ReconcileDescriptor {
        let inner: Box<dyn Reconcile> = match self.base {
            Base::Average => Box::new(DeltaAverage),
            Base::Momentum(beta) => Box::new(DeltaMomentum { beta }),
            Base::Overlap(halo) => Box::new(OverlapShards { halo }),
        };
        mcdc_core::ReconcileDescriptor { rotation: self.rotation, ..inner.describe() }
    }

    fn warm_label(&self) -> &'static str {
        match self.warm {
            WarmStart::Cold => "cold",
            WarmStart::Carry => "carry",
        }
    }

    /// Applies the composed policy + warm-start mode to a builder. Each
    /// `Base` × rotation arm instantiates the concrete policy type —
    /// `Rotate` composes by wrapping, so the rotating arms reuse the same
    /// inner policies.
    fn apply(&self, builder: McdcBuilder) -> McdcBuilder {
        let builder = builder.warm_start(self.warm);
        match (self.base, self.rotation) {
            (Base::Average, 0) => builder.reconcile(DeltaAverage),
            (Base::Momentum(beta), 0) => builder.reconcile(DeltaMomentum { beta }),
            (Base::Overlap(halo), 0) => builder.reconcile(OverlapShards { halo }),
            (Base::Average, p) => builder.reconcile(Rotate::every(p)),
            (Base::Momentum(beta), p) => {
                builder.reconcile(Rotate { period: p, inner: DeltaMomentum { beta } })
            }
            (Base::Overlap(halo), p) => {
                builder.reconcile(Rotate { period: p, inner: OverlapShards { halo } })
            }
        }
    }

    /// Runs one fit; returns the labels and the rotation count the MGCPL
    /// stage reported.
    fn fit(&self, plan: &ExecutionPlan, seed: u64, data: &Dataset, k: usize) -> (Vec<usize>, u64) {
        let result = self
            .apply(Mcdc::builder().seed(seed).execution(plan.clone()))
            .build()
            .fit(data.table(), k)
            .expect("ablation fit succeeds");
        (result.labels().to_vec(), result.mgcpl().stats.rotations)
    }
}

struct Entry {
    suite: &'static str,
    plan: String,
    policy: String,
    rotation: usize,
    warm: &'static str,
    acc_mean: f64,
    acc_min: f64,
    acc_max: f64,
    ari_mean: f64,
    ari_min: f64,
}

fn suites(n: usize) -> Vec<(&'static str, Dataset, usize)> {
    // The two regimes DESIGN.md §4 contrasts: cleanly separated clusters,
    // where every engine recovers the structure, and nested high-overlap
    // clusters (3 classes × 3 sub-clusters sharing 70% of their features),
    // where shard-local cascades land on different granularities run to run.
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

fn main() {
    let args = Args::parse();
    if args.quick {
        run_quick();
        return;
    }

    let suites = suites(args.n);
    let batches = [args.n / 4, args.n / 8];
    let bases =
        [Base::Average, Base::Momentum(0.5), Base::Momentum(0.9), Base::Overlap(args.n / 32)];
    let rotations = [0usize, 1, 4];
    let warms = [WarmStart::Cold, WarmStart::Carry];

    let mut entries: Vec<Entry> = Vec::new();
    println!(
        "{:<16} {:<16} {:<34} {:>6} {:>9} {:>9} {:>9} {:>9}",
        "suite", "plan", "policy", "warm", "acc mean", "acc min", "acc band", "ari mean"
    );
    let mut record = |suite: &'static str,
                      plan: String,
                      policy: String,
                      rotation: usize,
                      warm: &'static str,
                      runs: &[(f64, f64)]| {
        let accs: Vec<f64> = runs.iter().map(|r| r.0).collect();
        let aris: Vec<f64> = runs.iter().map(|r| r.1).collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let entry = Entry {
            suite,
            plan,
            policy,
            rotation,
            warm,
            acc_mean: mean(&accs),
            acc_min: min(&accs),
            acc_max: max(&accs),
            ari_mean: mean(&aris),
            ari_min: min(&aris),
        };
        assert!(
            entry.acc_mean.is_finite() && entry.ari_mean.is_finite(),
            "non-finite metric in {suite}/{}/{}",
            entry.plan,
            entry.policy
        );
        println!(
            "{:<16} {:<16} {:<34} {:>6} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
            entry.suite,
            entry.plan,
            entry.policy,
            entry.warm,
            entry.acc_mean,
            entry.acc_min,
            entry.acc_max - entry.acc_min,
            entry.ari_mean
        );
        entries.push(entry);
    };

    for (suite, data, k) in &suites {
        // Serial reference: no reconciliation happens, so the policy/rotation
        // columns are moot, but warm start is plan-agnostic — both modes
        // anchor what the replicated grid is judged against.
        for warm in warms {
            let config = Config { base: Base::Average, rotation: 0, warm };
            let serial_runs: Vec<(f64, f64)> = (1..=args.seeds)
                .map(|seed| {
                    let (labels, _) = config.fit(&ExecutionPlan::Serial, seed, data, *k);
                    (accuracy(data.labels(), &labels), adjusted_rand_index(data.labels(), &labels))
                })
                .collect();
            record(
                suite,
                "serial".to_owned(),
                "—".to_owned(),
                0,
                config.warm_label(),
                &serial_runs,
            );
        }

        for &batch in &batches {
            let plan = ExecutionPlan::mini_batch(batch);
            for &base in &bases {
                for &rotation in &rotations {
                    for &warm in &warms {
                        let config = Config { base, rotation, warm };
                        let runs: Vec<(f64, f64)> = (1..=args.seeds)
                            .map(|seed| {
                                let (labels, rotations_fired) = config.fit(&plan, seed, data, *k);
                                // A long-period config may legitimately
                                // converge before its first rotation; the
                                // reverse — rotating with period 0 — is
                                // always a bug.
                                assert!(
                                    rotation != 0 || rotations_fired == 0,
                                    "non-rotating configuration fired {rotations_fired} rotations"
                                );
                                (
                                    accuracy(data.labels(), &labels),
                                    adjusted_rand_index(data.labels(), &labels),
                                )
                            })
                            .collect();
                        record(
                            suite,
                            format!("minibatch({batch})"),
                            config.policy_label(),
                            rotation,
                            config.warm_label(),
                            &runs,
                        );
                    }
                }
            }
        }
    }

    let json = render_json(&entries, args.seeds, args.n);
    std::fs::write(&args.out, json).expect("write BENCH_reconcile.json");
    println!("\nwrote {}", args.out);
}

/// The `--quick` smoke grid: asserts the quality-recovery machinery is
/// alive (no panic, finite metrics, rotation actually fires, and
/// degenerate configurations stay degenerate) without measuring anything.
fn run_quick() {
    let n = 240;
    let suites = suites(n);
    let plan = ExecutionPlan::mini_batch(60);
    let configs = [
        Config { base: Base::Average, rotation: 0, warm: WarmStart::Cold },
        Config { base: Base::Momentum(0.9), rotation: 1, warm: WarmStart::Carry },
    ];
    for (suite, data, k) in &suites {
        for config in &configs {
            for seed in 1..=2u64 {
                let (labels, rotations) = config.fit(&plan, seed, data, *k);
                let acc = accuracy(data.labels(), labels.as_slice());
                let ari = adjusted_rand_index(data.labels(), labels.as_slice());
                assert!(
                    acc.is_finite() && ari.is_finite(),
                    "non-finite metric on {suite} under {}",
                    config.policy_label()
                );
                if config.rotation > 0 {
                    assert!(
                        rotations > 0,
                        "rotating configuration never rotated on {suite} (seed {seed})"
                    );
                } else {
                    assert_eq!(rotations, 0, "non-rotating configuration rotated on {suite}");
                }
                println!(
                    "quick {suite:<16} {:<34} warm={:<5} seed={seed} \
                     acc={acc:.3} ari={ari:.3} rotations={rotations}",
                    config.policy_label(),
                    config.warm_label(),
                );
            }
        }
    }
    println!("reconcile_ablation --quick: OK");
}

/// Hand-rolled JSON (the workspace has no serde_json; labels are plain
/// ASCII, numbers are finite).
fn render_json(entries: &[Entry], seeds: u64, n: usize) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"reconcile_ablation\",\n");
    out.push_str(&format!("  \"fit_seeds\": {seeds},\n"));
    out.push_str(&format!("  \"n\": {n},\n"));
    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"suite\": \"{}\", \"plan\": \"{}\", \"policy\": \"{}\", \
             \"rotation\": {}, \"warm_start\": \"{}\", \
             \"acc_mean\": {:.4}, \"acc_min\": {:.4}, \"acc_max\": {:.4}, \
             \"acc_band\": {:.4}, \"ari_mean\": {:.4}, \"ari_min\": {:.4}}}{}\n",
            e.suite,
            e.plan,
            e.policy,
            e.rotation,
            e.warm,
            e.acc_mean,
            e.acc_min,
            e.acc_max,
            e.acc_max - e.acc_min,
            e.ari_mean,
            e.ari_min,
            if i + 1 < entries.len() { "," } else { "" }
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
            Args { out: "BENCH_reconcile.json".to_owned(), seeds: 10, n: 600, quick: false };
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
