//! Multi-granular discovery: MGCPL exploring the nested cluster structure of
//! categorical data without being told any number of clusters — the paper's
//! core claim (Fig. 5).
//!
//! Run with: `cargo run --example nested_granularity --release`

use mcdc::core::Mgcpl;
use mcdc::data::synth::GeneratorConfig;
use mcdc::eval::adjusted_mutual_information;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Plant a two-level hierarchy: 4 coarse classes x 3 fine sub-clusters.
    let nested = GeneratorConfig::new("nested", 1200, vec![5; 12], 4)
        .subclusters(3)
        .shared_fraction(0.7)
        .noise(0.08)
        .generate(11);
    let (coarse_truth, fine_truth) = (nested.dataset.labels(), &nested.fine_labels);
    println!(
        "planted: {} coarse classes / {} fine sub-clusters",
        nested.dataset.k_true(),
        nested.fine_k()
    );

    // MGCPL with no k given: it starts from k0 = min(sqrt(n), 64) seeds (the
    // cap keeps large tables linear-time) and converges in stages, one
    // partition per natural granularity.
    let result = Mgcpl::builder().seed(3).build().fit(nested.dataset.table())?;
    println!("learned kappa = {:?} over {} stages", result.kappa, result.trace.sigma());

    // Each learned granularity should align with one planted level: compare
    // every partition against both coarse and fine ground truth.
    for (partition, &k) in result.partitions.iter().zip(&result.kappa) {
        let vs_coarse = adjusted_mutual_information(coarse_truth, partition);
        let vs_fine = adjusted_mutual_information(fine_truth, partition);
        let closer = if vs_coarse >= vs_fine { "coarse" } else { "fine" };
        println!(
            "granularity k={k:<3} AMI vs coarse = {vs_coarse:.3}, vs fine = {vs_fine:.3}  (tracks the {closer} level)"
        );
    }
    Ok(())
}
