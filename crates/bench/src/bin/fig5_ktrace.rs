//! E5 — regenerates Fig. 5: the numbers of clusters `κ = {k₁, …, k_σ}`
//! MGCPL converges to, stage by stage, against the true `k*`. Dots in the
//! paper's plots become `(stage, k)` series here; the final `k_σ` landing on
//! (or near) `k*` is the headline claim.
//!
//! Usage: `fig5_ktrace [--seed N] [--data-dir PATH]`

use mcdc_bench::datasets;
use mcdc_core::Mgcpl;

fn main() {
    let args = Args::parse();
    let sets = datasets::table_ii(args.seed, args.data_dir.as_deref())
        .unwrap_or_else(|err| panic!("{err}"));

    println!("Fig. 5: numbers of clusters learned by MGCPL (x = convergence stage; * marks k*)");
    for (i, (abbrev, ds)) in sets.iter().enumerate() {
        let result = Mgcpl::builder()
            .seed(args.seed)
            .build()
            .fit(ds.table())
            .expect("table ii data sets are non-empty");
        let points = result.trace.plot_points();
        let series: Vec<String> =
            points.iter().map(|&(stage, k)| format!("({stage}, {k})")).collect();
        println!(
            "\n({}) ks learned for {:<5} k*={} : {}",
            (b'a' + i as u8) as char,
            abbrev,
            ds.k_true(),
            series.join(" -> ")
        );
        let hit = result.trace.final_k() == ds.k_true();
        println!(
            "     final k_sigma = {} {}",
            result.trace.final_k(),
            if hit { "(* reaches k*)" } else { "" }
        );
    }
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
                "--seed" => args.seed = it.next().expect("--seed N").parse().expect("numeric"),
                "--data-dir" => args.data_dir = Some(it.next().expect("--data-dir PATH").into()),
                other => panic!("unknown flag {other}"),
            }
        }
        args
    }
}
