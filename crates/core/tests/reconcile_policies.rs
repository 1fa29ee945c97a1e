//! Semantics pins for the shard halo (DESIGN.md §5), the one setting of
//! the replica merge:
//!
//! * a halo fit is deterministic for a fixed seed, shard count, and width;
//! * a halo far wider than any shard clamps to whole neighbors;
//! * explicit `Sharded` partitions borrow along their stored row order
//!   exactly like contiguous mini-batches, one extra presentation per
//!   borrowed row.

use categorical_data::synth::GeneratorConfig;
use categorical_data::{CategoricalTable, Dataset};
use mcdc_core::{ExecutionPlan, Mgcpl};

fn nested(n: usize, seed: u64) -> Dataset {
    GeneratorConfig::new("nested", n, vec![4; 8], 3)
        .subclusters(3)
        .shared_fraction(0.7)
        .noise(0.08)
        .generate(seed)
        .dataset
}

fn fit_with(
    halo: usize,
    plan: ExecutionPlan,
    table: &CategoricalTable,
    seed: u64,
) -> mcdc_core::MgcplResult {
    Mgcpl::builder().seed(seed).execution(plan).halo(halo).build().fit(table).unwrap()
}

#[test]
fn sharded_plans_present_each_borrowed_row_once_more() {
    // Round-robin (worst-locality) shards of 60 rows with a 6-row halo:
    // the end shards borrow 6 rows, the two interior shards 12, so one
    // pass presents 240 + 36 rows. One-pass stages score every
    // presentation against all of the stage's starting clusters (k₀ =
    // √240 ≈ 15 in the first), so the work counter exposes the
    // presentation count exactly.
    let data = nested(240, 7);
    let shards: Vec<Vec<usize>> = (0..4).map(|s| (s..240).step_by(4).collect()).collect();
    let plan = ExecutionPlan::sharded(shards);
    let assert_presents = |halo: usize, rows_per_pass: u64| {
        let result = Mgcpl::builder()
            .seed(9)
            .execution(plan.clone())
            .halo(halo)
            .max_inner_iterations(1)
            .build()
            .fit(data.table())
            .unwrap();
        let stages = &result.trace.stages;
        assert_eq!(stages[0].k_before, 15);
        assert!(stages.iter().all(|s| s.inner_iterations == 1));
        let clusters_scored: u64 = stages.iter().map(|s| s.k_before as u64).sum();
        assert_eq!(result.stats.score_evals, rows_per_pass * clusters_scored);
    };
    assert_presents(0, 240);
    assert_presents(6, 240 + 36);
    // And a full overlapping fit on the explicit partition is well-formed.
    let result = fit_with(6, plan, data.table(), 9);
    assert!(result.kappa.windows(2).all(|w| w[0] > w[1]) || result.kappa.len() == 1);
    for (partition, &k) in result.partitions.iter().zip(&result.kappa) {
        assert_eq!(partition.len(), 240);
        assert!(partition.iter().all(|&l| l < k));
    }
}

#[test]
fn halo_fits_are_deterministic_for_fixed_configuration() {
    let data = nested(300, 4);
    let plan = ExecutionPlan::mini_batch(75);
    let overlap = |seed| fit_with(12, plan.clone(), data.table(), seed);
    let first = overlap(5);
    let again = overlap(5);
    assert_eq!(first.stats, again.stats);
    assert_eq!(first, again);
}

#[test]
fn overlap_halo_clamps_to_tiny_shards() {
    // A halo far larger than any shard degrades to presenting whole
    // neighbors; the fit must stay valid and deterministic.
    let data = nested(120, 2);
    let plan = ExecutionPlan::mini_batch(30);
    let fit = || fit_with(1_000, plan.clone(), data.table(), 3);
    let result = fit();
    assert!(!result.partitions.is_empty());
    assert!(result.kappa.iter().all(|&k| k >= 1));
    assert_eq!(result, fit());
}
