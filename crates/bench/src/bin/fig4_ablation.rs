//! E4 — regenerates Fig. 4: the ablation ladder. ARI of MCDC and its four
//! ablated versions (MCDC₄ = no CAME weighting, MCDC₃ = no CAME,
//! MCDC₂ = classic competitive learning, MCDC₁ = similarity-only) on each
//! data set, rendered as terminal bars.
//!
//! Usage: `fig4_ablation [--runs N] [--seed N] [--data-dir PATH]`

use mcdc_bench::{datasets, format};
use mcdc_core::{run_ablation, AblationVariant};
use rayon::prelude::*;

fn main() {
    let args = Args::parse();
    let sets = datasets::table_ii(args.seed, args.data_dir.as_deref())
        .unwrap_or_else(|err| panic!("{err}"));

    println!("Fig. 4: ARI of MCDC and its ablated versions ({} runs each)", args.runs);
    for (i, (abbrev, ds)) in sets.iter().enumerate() {
        eprintln!("running {} ...", ds.name());
        println!("\n({}) ARI on {}", (b'a' + i as u8) as char, abbrev);
        let aris: Vec<(AblationVariant, f64)> = AblationVariant::ALL
            .iter()
            .map(|&variant| {
                let scores: Vec<f64> = (0..args.runs)
                    .into_par_iter()
                    .map(|r| {
                        run_ablation(variant, ds.table(), ds.k_true(), args.seed + r as u64)
                            .map(|labels| cluster_eval::adjusted_rand_index(ds.labels(), &labels))
                            .unwrap_or(0.0)
                    })
                    .collect();
                (variant, scores.iter().sum::<f64>() / scores.len() as f64)
            })
            .collect();
        let hi = aris.iter().map(|(_, a)| *a).fold(0.0f64, f64::max).max(0.05);
        for (variant, ari) in aris {
            println!("{:<6} {} {ari:.3}", variant.name(), format::bar(ari, 0.0, hi, 36));
        }
    }
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
