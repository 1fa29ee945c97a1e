//! E1 — regenerates Table II: statistics of the evaluation data sets.
//!
//! Usage: `table2 [--seed N] [--data-dir PATH]`

use mcdc_bench::datasets;

fn main() {
    let args = Args::parse();
    println!(
        "Table II: Statistics of the data sets (d = features, n = objects, k* = true clusters)"
    );
    println!("{:<4} {:<22} {:<8} {:>5} {:>8} {:>4}", "No.", "Data Set", "Abbrev.", "d", "n", "k*");
    for (i, (abbrev, ds)) in datasets::table_ii(args.seed, args.data_dir.as_deref())
        .unwrap_or_else(|err| panic!("{err}"))
        .iter()
        .enumerate()
    {
        println!(
            "{:<4} {:<22} {:<8} {:>5} {:>8} {:>4}",
            i + 1,
            ds.name(),
            abbrev,
            ds.n_features(),
            ds.n_rows(),
            ds.k_true()
        );
    }
    // The two synthetic efficiency sets (generated on demand by fig6_scaling).
    println!(
        "{:<4} {:<22} {:<8} {:>5} {:>8} {:>4}",
        9, "Synthetic (large n)", "Syn_n", 10, 200_000, 3
    );
    println!(
        "{:<4} {:<22} {:<8} {:>5} {:>8} {:>4}",
        10, "Synthetic (large d)", "Syn_d", 1000, 20_000, 3
    );
}

struct Args {
    seed: u64,
    data_dir: Option<std::path::PathBuf>,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args { seed: 7, data_dir: None };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--seed" => args.seed = it.next().expect("--seed N").parse().expect("numeric seed"),
                "--data-dir" => args.data_dir = Some(it.next().expect("--data-dir PATH").into()),
                other => panic!("unknown flag {other}"),
            }
        }
        args
    }
}
