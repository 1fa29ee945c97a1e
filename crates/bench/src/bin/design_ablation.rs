//! Design-choice ablations for the implementation decisions DESIGN.md §2
//! documents: MGCPL's ω feature weighting, the inner-iteration cap
//! (granularity resolution), and the seeding strategy. For each knob the
//! harness reports final-granularity quality (AMI of the coarsest partition
//! against truth), how close `k_σ` lands to `k*`, and σ.
//!
//! Usage: `design_ablation [--seed N]`

use categorical_data::Dataset;
use mcdc_bench::datasets;
use mcdc_core::{Mgcpl, MgcplBuilder};

fn main() {
    let args = Args::parse();
    let sets = datasets::table_ii(args.seed, None).expect("stand-ins read no files");

    println!("Design ablations over the eight Table II stand-ins (mean of per-set values)");
    println!("{:<34} {:>10} {:>12} {:>8}", "variant", "AMI(Y_s)", "|k_s - k*|", "sigma");

    type Variant = (&'static str, Box<dyn Fn() -> MgcplBuilder>);
    let variants: Vec<Variant> = vec![
        ("default (weighted, cap 8)", Box::new(Mgcpl::builder)),
        (
            "unweighted similarity (Eq.1 only)",
            Box::new(|| Mgcpl::builder().weighted_similarity(false)),
        ),
        ("inner cap 2 (finer stages)", Box::new(|| Mgcpl::builder().max_inner_iterations(2))),
        ("inner cap 32 (coarser stages)", Box::new(|| Mgcpl::builder().max_inner_iterations(32))),
        ("frequent-row seeding", Box::new(|| Mgcpl::builder().random_init(false))),
        ("eta 0.01", Box::new(|| Mgcpl::builder().learning_rate(0.01))),
        ("eta 0.10", Box::new(|| Mgcpl::builder().learning_rate(0.10))),
    ];

    for (name, make) in &variants {
        let (mut ami_sum, mut gap_sum, mut sigma_sum) = (0.0f64, 0.0f64, 0.0f64);
        for (_, ds) in &sets {
            let (ami, gap, sigma) = evaluate(make().seed(args.seed).build(), ds);
            ami_sum += ami;
            gap_sum += gap;
            sigma_sum += sigma;
        }
        let n = sets.len() as f64;
        println!("{:<34} {:>10.3} {:>12.2} {:>8.2}", name, ami_sum / n, gap_sum / n, sigma_sum / n);
    }
}

fn evaluate(mgcpl: Mgcpl, ds: &Dataset) -> (f64, f64, f64) {
    match mgcpl.fit(ds.table()) {
        Ok(result) => {
            let ami = cluster_eval::adjusted_mutual_information(ds.labels(), result.coarsest());
            let gap = (result.trace.final_k() as f64 - ds.k_true() as f64).abs();
            (ami, gap, result.sigma() as f64)
        }
        Err(_) => (0.0, ds.k_true() as f64, 0.0),
    }
}

struct Args {
    seed: u64,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args { seed: 7 };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--seed" => args.seed = it.next().expect("--seed N").parse().expect("numeric"),
                other => panic!("unknown flag {other}"),
            }
        }
        args
    }
}
