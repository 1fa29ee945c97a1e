//! E3 — regenerates Table IV: two-tailed Wilcoxon signed-rank test (α = 0.1)
//! of MCDC+F. against each counterpart, per validity index, over the eight
//! data sets. "+" marks a significant win, "-" no significant difference.
//! Runs that failed to form `k*` clusters score 0.000 and are listed after
//! the table, for MCDC+F. and every counterpart.
//!
//! Usage: `table4 [--runs N] [--seed N] [--data-dir PATH]`

use cluster_eval::wilcoxon_signed_rank;
use mcdc_bench::runner::{run_method, INDICES};
use mcdc_bench::{datasets, format, Method, MethodSummary};

/// The six counterparts Table IV tests MCDC+F. against.
const COUNTERPARTS: [Method; 6] =
    [Method::KModes, Method::Rock, Method::Wocil, Method::Fkmawcw, Method::Gudmm, Method::Adc];

fn main() {
    let args = Args::parse();
    let sets = datasets::table_ii(args.seed, args.data_dir.as_deref())
        .unwrap_or_else(|err| panic!("{err}"));

    // Per-dataset mean scores for MCDC+F. and each counterpart.
    eprintln!("scoring MCDC+F. ...");
    let ours: Vec<_> = sets
        .iter()
        .map(|(_, ds)| run_method(Method::McdcFkmawcw, ds, args.runs, args.seed))
        .collect();
    println!(
        "Table IV: two-tailed Wilcoxon signed-rank test, alpha = 0.1 ({} runs per cell)",
        args.runs
    );
    println!("{:<10} {:>5} {:>5} {:>5} {:>5}", "Method", "ACC", "ARI", "AMI", "FM");
    let mut notes = failure_notes(Method::McdcFkmawcw, &sets, &ours);
    for method in COUNTERPARTS {
        eprintln!("scoring {} ...", method.name());
        let theirs: Vec<_> =
            sets.iter().map(|(_, ds)| run_method(method, ds, args.runs, args.seed)).collect();
        let mut cells = Vec::new();
        for index in INDICES {
            let x: Vec<f64> = ours.iter().map(|s| s.mean.get(index)).collect();
            let y: Vec<f64> = theirs.iter().map(|s| s.mean.get(index)).collect();
            let test = wilcoxon_signed_rank(&x, &y);
            let mark = if test.is_significant(0.1) && test.first_is_better() { "+" } else { "-" };
            cells.push(format!("{mark} (p={:.3})", test.p_value));
        }
        println!(
            "{:<10} {}",
            method.name(),
            cells.iter().map(|c| format!("{c:>12}")).collect::<Vec<_>>().join(" ")
        );
        notes.extend(failure_notes(method, &sets, &theirs));
    }
    if !notes.is_empty() {
        println!();
        for note in notes {
            println!("{note}");
        }
    }
}

/// `method`'s failure notes over the data sets, in data-set order.
fn failure_notes(
    method: Method,
    sets: &[(&str, categorical_data::Dataset)],
    summaries: &[MethodSummary],
) -> Vec<String> {
    sets.iter()
        .zip(summaries)
        .filter_map(|((_, ds), summary)| format::failure_note(method.name(), ds.name(), summary))
        .collect()
}

struct Args {
    runs: usize,
    seed: u64,
    data_dir: Option<std::path::PathBuf>,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args { runs: 5, seed: 7, data_dir: None };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--runs" => args.runs = it.next().expect("--runs N").parse().expect("numeric"),
                "--seed" => args.seed = it.next().expect("--seed N").parse().expect("numeric"),
                "--data-dir" => args.data_dir = Some(it.next().expect("--data-dir PATH").into()),
                other => panic!("unknown flag {other}"),
            }
        }
        args
    }
}
