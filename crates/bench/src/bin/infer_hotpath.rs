//! Machine-readable perf snapshot for the frozen-model serving hot path
//! (DESIGN.md §9): times `FrozenModel::score_one` (row loop),
//! `FrozenModel::score_batch`, and the live per-profile
//! `ClusterProfile::similarity` argmax it compacts, on a row-count sweep of the classic shape (d = 10, k = 3 at
//! n ∈ {3k, 10k, 30k}) plus swept `d·k` shapes whose scoring tables grow
//! from a few KB to well past L2 — the regime question the frozen layout
//! exists to answer. Writes `BENCH_infer.json` with ns/row per kernel and
//! the frozen-vs-live speedup.
//!
//! The three kernels are *interleaved* (frozen-one rep, frozen-batch rep,
//! live rep, frozen-one rep, …) so neighbor-load drift on the shared-vCPU
//! build hosts hits every kernel alike and the medians stay comparable.
//! Each shape also asserts frozen ≡ live argmax parity over every scored
//! row before any timing is trusted.
//!
//! Usage: `cargo run --release -p mcdc-bench --bin infer_hotpath
//!        [--out PATH] [--seed N] [--quick]`
//!
//! `--quick` is the CI perf-smoke mode (`scripts/verify.sh`): three
//! shapes, fewer reps, writes to `target/infer_quick.json` unless `--out`
//! is given, and exits non-zero when any median is non-finite/zero
//! (panic/NaN guard), when frozen/live argmax parity breaks on the pinned
//! seed, or when the frozen per-row time loses to the live per-profile
//! `similarity` argmax it compacts.

use std::time::Instant;

use categorical_data::synth::GeneratorConfig;
use mcdc_core::{ClusterProfile, FrozenModel};

/// One benchmarked (shape, n) cell.
struct Shape {
    name: &'static str,
    d: usize,
    m: usize,
    k: usize,
    n: usize,
}

/// The full sweep: an n axis on the classic serving shape, then `d·k`
/// pushed from L1-resident tables to well past L2 (table bytes grow
/// ~`d·m·k_pad·8`; the largest sits in L3 on any current host).
const SHAPES: &[Shape] = &[
    Shape { name: "base-3k", d: 10, m: 4, k: 3, n: 3_000 },
    Shape { name: "base-10k", d: 10, m: 4, k: 3, n: 10_000 },
    Shape { name: "base-30k", d: 10, m: 4, k: 3, n: 30_000 },
    Shape { name: "mid", d: 32, m: 8, k: 16, n: 10_000 },
    Shape { name: "l2", d: 64, m: 8, k: 64, n: 8_000 },
    Shape { name: "past-l2", d: 128, m: 16, k: 128, n: 4_000 },
    Shape { name: "l3", d: 192, m: 16, k: 256, n: 2_048 },
];

/// The `--quick` subset: one n-axis cell and the two cache-transition
/// shapes, enough to catch a regression without slowing the verify gate.
const QUICK: &[&str] = &["base-10k", "mid", "l2"];

struct Entry {
    name: &'static str,
    d: usize,
    m: usize,
    k: usize,
    n: usize,
    table_kb: f64,
    frozen_one_ns: f64,
    frozen_batch_ns: f64,
    live_ns: f64,
    parity: bool,
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn time_ns_per_row(n: usize, run: impl FnMut()) -> f64 {
    let mut run = run;
    let start = Instant::now();
    run();
    start.elapsed().as_secs_f64() * 1e9 / n as f64
}

fn main() {
    let args = Args::parse();
    let mut entries: Vec<Entry> = Vec::new();

    println!(
        "{:<9} {:>4} {:>3} {:>4} {:>7} {:>9} {:>14} {:>16} {:>12} {:>8} {:>7}",
        "shape",
        "d",
        "m",
        "k",
        "n",
        "table KB",
        "frozen_one ns",
        "frozen_batch ns",
        "live ns",
        "speedup",
        "parity"
    );

    for shape in SHAPES {
        if args.quick && !QUICK.contains(&shape.name) {
            continue;
        }
        let reps = if args.quick || shape.n >= 30_000 { 3 } else { 5 };
        let data =
            GeneratorConfig::new(shape.name, shape.n, vec![shape.m as u32; shape.d], shape.k)
                .noise(0.05)
                .generate(args.seed)
                .dataset;
        let table = data.table();
        let rows: Vec<&[u32]> = (0..table.n_rows()).map(|i| table.row(i)).collect();

        // Freeze the ground-truth partition — the kernels only care about
        // the table shape, and skipping the fit keeps the largest shapes
        // affordable. The live reference uses the *same* profiles, so the
        // comparison is exactly frozen-compaction vs live machinery.
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); shape.k];
        for (i, &l) in data.labels().iter().enumerate() {
            members[l].push(i);
        }
        let profiles: Vec<ClusterProfile> =
            members.iter().map(|m| ClusterProfile::from_members(table, m)).collect();
        let frozen = FrozenModel::from_profiles(&profiles);
        let table_kb = frozen.table_bytes() as f64 / 1024.0;

        // Output buffers, preallocated outside the timed region.
        let mut live_labels: Vec<u32> = Vec::with_capacity(rows.len());
        let mut batch_out: Vec<u32> = Vec::with_capacity(rows.len());

        // Parity first (untimed): frozen and live must agree on every row.
        frozen.score_batch(rows.iter().copied(), &mut batch_out);
        live_labels.clear();
        live_labels.extend(rows.iter().map(|row| live_argmax(&profiles, row)));
        let parity = batch_out == live_labels;

        let mut one_samples = Vec::with_capacity(reps);
        let mut batch_samples = Vec::with_capacity(reps);
        let mut live_samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            one_samples.push(time_ns_per_row(rows.len(), || {
                let mut acc = 0u64;
                for row in &rows {
                    acc += frozen.score_one(row) as u64;
                }
                std::hint::black_box(acc);
            }));
            batch_samples.push(time_ns_per_row(rows.len(), || {
                frozen.score_batch(rows.iter().copied(), &mut batch_out);
                std::hint::black_box(&batch_out);
            }));
            live_samples.push(time_ns_per_row(rows.len(), || {
                let mut acc = 0u64;
                for row in &rows {
                    acc += live_argmax(&profiles, row) as u64;
                }
                std::hint::black_box(acc);
            }));
        }
        let entry = Entry {
            name: shape.name,
            d: shape.d,
            m: shape.m,
            k: shape.k,
            n: shape.n,
            table_kb,
            frozen_one_ns: median(one_samples),
            frozen_batch_ns: median(batch_samples),
            live_ns: median(live_samples),
            parity,
        };
        println!(
            "{:<9} {:>4} {:>3} {:>4} {:>7} {:>9.1} {:>14.1} {:>16.1} {:>12.1} {:>7.2}x {:>7}",
            entry.name,
            entry.d,
            entry.m,
            entry.k,
            entry.n,
            entry.table_kb,
            entry.frozen_one_ns,
            entry.frozen_batch_ns,
            entry.live_ns,
            entry.live_ns / entry.frozen_one_ns,
            entry.parity
        );
        entries.push(entry);
    }

    let json = render_json(&entries, args.seed);
    std::fs::write(&args.out, json).expect("write infer snapshot json");
    println!("\nwrote {}", args.out);

    if args.quick {
        smoke_check(&entries);
    }
}

/// The live reference: the first cluster with the highest
/// `ClusterProfile::similarity` (strict `>`, first index wins ties) — the
/// assignment the frozen table compacts.
fn live_argmax(profiles: &[ClusterProfile], row: &[u32]) -> u32 {
    let mut best = 0usize;
    let mut best_score = f64::NEG_INFINITY;
    for (l, profile) in profiles.iter().enumerate() {
        let score = profile.similarity(row);
        if score > best_score {
            best_score = score;
            best = l;
        }
    }
    best as u32
}

/// The `--quick` gate: fail loudly (exit 1) on NaN/zero medians, broken
/// frozen/live parity, or the frozen path losing to the live path it
/// compacts on any shape.
fn smoke_check(entries: &[Entry]) {
    let mut failures: Vec<String> = Vec::new();
    for e in entries {
        for (kernel, ns) in [
            ("frozen_one", e.frozen_one_ns),
            ("frozen_batch", e.frozen_batch_ns),
            ("live", e.live_ns),
        ] {
            if !ns.is_finite() || ns <= 0.0 {
                failures.push(format!("{} {} has degenerate median {ns}", e.name, kernel));
            }
        }
        if !e.parity {
            failures.push(format!("{}: frozen argmax diverges from live similarity", e.name));
        }
        if e.frozen_one_ns > e.live_ns {
            failures.push(format!(
                "{}: frozen score_one {:.1} ns/row loses to live similarity {:.1} ns/row",
                e.name, e.frozen_one_ns, e.live_ns
            ));
        }
        if e.frozen_batch_ns > e.live_ns {
            failures.push(format!(
                "{}: frozen score_batch {:.1} ns/row loses to live similarity {:.1} ns/row",
                e.name, e.frozen_batch_ns, e.live_ns
            ));
        }
    }
    if failures.is_empty() {
        println!("infer smoke: OK");
    } else {
        for failure in &failures {
            eprintln!("infer smoke FAILED: {failure}");
        }
        std::process::exit(1);
    }
}

/// Hand-rolled JSON (the workspace has no serde_json; every value here is a
/// plain number or ASCII string, so escaping is a non-issue).
fn render_json(entries: &[Entry], seed: u64) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"infer_hotpath\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"shape\": \"{}\", \"d\": {}, \"m\": {}, \"k\": {}, \"n\": {}, \
             \"table_kb\": {:.1}, \"frozen_one_ns\": {:.1}, \"frozen_batch_ns\": {:.1}, \
             \"live_ns\": {:.1}, \"speedup\": {:.2}, \"parity\": {}}}{}\n",
            e.name,
            e.d,
            e.m,
            e.k,
            e.n,
            e.table_kb,
            e.frozen_one_ns,
            e.frozen_batch_ns,
            e.live_ns,
            e.live_ns / e.frozen_one_ns,
            e.parity,
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

struct Args {
    out: String,
    seed: u64,
    quick: bool,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args { out: String::new(), seed: 7, quick: false };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--out" => args.out = it.next().expect("--out PATH"),
                "--seed" => args.seed = it.next().expect("--seed N").parse().expect("numeric"),
                "--quick" => args.quick = true,
                other => panic!("unknown flag {other}; use --out, --seed, --quick"),
            }
        }
        if args.out.is_empty() {
            args.out = if args.quick {
                "target/infer_quick.json".to_owned()
            } else {
                "BENCH_infer.json".to_owned()
            };
        }
        args
    }
}
