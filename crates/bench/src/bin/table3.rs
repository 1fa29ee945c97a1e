//! E2 — regenerates Table III: clustering performance (ACC/ARI/AMI/FM) of
//! the nine methods on the eight categorical data sets, mean±std over
//! repeated runs, best in `*bold*`, second best in `_underline_`.
//!
//! Usage: `table3 [--runs N] [--seed N] [--data-dir PATH] [--quick]`
//!
//! The paper uses 50 runs; the default here is 10 to keep a laptop run in
//! minutes (`--runs 50` restores the paper protocol, `--quick` drops to 3
//! runs on the four smallest sets).

use mcdc_bench::runner::{run_method, INDICES};
use mcdc_bench::{datasets, format, Method};

fn main() {
    let args = Args::parse();
    let sets = datasets::table_ii(args.seed, args.data_dir.as_deref())
        .unwrap_or_else(|err| panic!("{err}"));
    let sets: Vec<_> = if args.quick {
        sets.into_iter().filter(|(_, d)| d.n_rows() <= 1000).collect()
    } else {
        sets
    };
    let names: Vec<&str> = Method::TABLE3.iter().map(Method::name).collect();

    // summaries[dataset][method]
    let summaries: Vec<Vec<mcdc_bench::MethodSummary>> = sets
        .iter()
        .map(|(_, ds)| {
            eprintln!("running {} (n={}, d={}) ...", ds.name(), ds.n_rows(), ds.n_features());
            Method::TABLE3.iter().map(|&m| run_method(m, ds, args.runs, args.seed)).collect()
        })
        .collect();

    println!(
        "Table III: clustering performance, mean±std over {} runs (failures score 0.000)",
        args.runs
    );
    for index in INDICES {
        println!("\n[{index}]");
        println!("{}", format::header("Data", &names));
        for ((abbrev, _), row) in sets.iter().zip(&summaries) {
            let cells: Vec<(f64, f64)> =
                row.iter().map(|s| (s.mean.get(index), s.std.get(index))).collect();
            println!("{}", format::table3_row(abbrev, &cells));
        }
    }

    // Failure annotations (the paper's "judged as failed" prose).
    println!();
    for ((_, ds), row) in sets.iter().zip(&summaries) {
        for (method, summary) in Method::TABLE3.iter().zip(row) {
            if let Some(note) = format::failure_note(method.name(), ds.name(), summary) {
                println!("{note}");
            }
        }
    }
}

struct Args {
    runs: usize,
    seed: u64,
    data_dir: Option<std::path::PathBuf>,
    quick: bool,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args { runs: 10, seed: 7, data_dir: None, quick: false };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--runs" => args.runs = it.next().expect("--runs N").parse().expect("numeric"),
                "--seed" => args.seed = it.next().expect("--seed N").parse().expect("numeric"),
                "--data-dir" => args.data_dir = Some(it.next().expect("--data-dir PATH").into()),
                "--quick" => args.quick = true,
                other => panic!("unknown flag {other}"),
            }
        }
        args
    }
}
