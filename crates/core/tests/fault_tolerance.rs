//! Chaos pins for the fault-tolerance layer (DESIGN.md §8):
//!
//! * `FaultPlan::none()` is **bit-exact** with a builder that never touches
//!   the knob — partitions, κ, trace, *and* every hot-path counter — over
//!   the full `ExecutionPlan` × halo grid (property-tested over random
//!   tables and pinned on the nested suite);
//! * seeded chaos schedules (crashes, stragglers, poisoned and dropped
//!   δ vectors, all at once) never panic, never leak a NaN into results,
//!   and stay deterministic for a fixed seed;
//! * a single replica failure inside the retry budget recovers *exactly*:
//!   the re-executed attempt is deterministic, so labels match the clean
//!   fit bit for bit and only the accounting differs;
//! * past the budget the shard is quarantined, the merge degrades to the
//!   survivors, and clustering quality stays within the replicated band
//!   (the measured grid lives in `BENCH_faults.json`);
//! * the builder boundary rejects non-finite knobs with
//!   [`McdcError::InvalidConfig`] naming the offending parameter, for
//!   MGCPL and the MCDC pipeline alike.

use categorical_data::synth::GeneratorConfig;
use categorical_data::{CategoricalTable, Dataset};
use cluster_eval::accuracy;
use mcdc_core::{ExecutionPlan, FaultPlan, Mcdc, McdcError, Mgcpl, MgcplBuilder};
use proptest::prelude::*;

fn nested(n: usize, seed: u64) -> Dataset {
    GeneratorConfig::new("nested", n, vec![4; 8], 3)
        .subclusters(3)
        .shared_fraction(0.7)
        .noise(0.08)
        .generate(seed)
        .dataset
}

fn arbitrary_table() -> impl Strategy<Value = CategoricalTable> {
    (20usize..120, 2usize..6).prop_flat_map(|(n, d)| {
        proptest::collection::vec(proptest::collection::vec(0u32..4, d), n).prop_map(move |rows| {
            let mut table = CategoricalTable::new(categorical_data::Schema::uniform(d, 4));
            for row in &rows {
                table.push_row(row).unwrap();
            }
            table
        })
    })
}

/// Every plan shape the engine knows, sized for an `n`-row table.
fn plans(n: usize) -> Vec<ExecutionPlan> {
    vec![
        ExecutionPlan::Serial,
        ExecutionPlan::mini_batch((n / 3).max(1)),
        ExecutionPlan::mini_batch(n),
        ExecutionPlan::sharded((0..3).map(|s| (s..n).step_by(3).collect()).collect()),
    ]
}

/// The halo widths every plan is pinned under: disjoint and overlapping.
const HALOS: [usize; 2] = [0, 8];

fn fit(
    table: &CategoricalTable,
    configure: impl FnOnce(MgcplBuilder) -> MgcplBuilder,
    seed: u64,
) -> mcdc_core::MgcplResult {
    configure(Mgcpl::builder().seed(seed)).build().fit(table).unwrap()
}

/// A schedule that arms every fault class at once.
fn chaos(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .replica_failure_rate(0.3)
        .straggler_rate(0.2)
        .straggler_delay(5)
        .delta_corruption_rate(0.3)
        .delta_drop_rate(0.2)
        .retry_budget(2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn fault_plan_none_is_bit_exact_with_the_untouched_builder(
        table in arbitrary_table(),
        batch_divisor in 1usize..5,
        seed in 0u64..50,
    ) {
        let batch = (table.n_rows() / batch_divisor).max(1);
        let plan = ExecutionPlan::mini_batch(batch);
        let untouched = fit(&table, |b| b.execution(plan.clone()), seed);
        let armed_off = fit(
            &table,
            |b| b.execution(plan.clone()).fault_plan(FaultPlan::none()),
            seed,
        );
        // Full equality including the counters: result equality excludes
        // stats by design, so pin them separately.
        prop_assert_eq!(untouched.stats, armed_off.stats);
        prop_assert_eq!(untouched, armed_off);
    }

    #[test]
    fn seeded_chaos_never_panics_and_never_leaks_nan(
        table in arbitrary_table(),
        batch_divisor in 1usize..5,
        fault_seed in 0u64..1000,
    ) {
        let n = table.n_rows();
        let batch = (n / batch_divisor).max(1);
        let result = fit(
            &table,
            |b| b.execution(ExecutionPlan::mini_batch(batch)).fault_plan(chaos(fault_seed)),
            3,
        );
        // Whatever the schedule injected, the cascade invariants hold:
        // dense labels at every granularity, strictly decreasing κ.
        prop_assert!(result.kappa.windows(2).all(|w| w[0] > w[1]) || result.kappa.len() <= 1);
        for (partition, &k) in result.partitions.iter().zip(&result.kappa) {
            prop_assert_eq!(partition.len(), n);
            prop_assert!(partition.iter().all(|&l| l < k));
        }
        prop_assert!(result.stats.min_survivor_permille <= 1000);
    }
}

#[test]
fn fault_plan_none_pins_bit_exact_over_the_full_grid() {
    // Every `ExecutionPlan` shape × halo, each compared against the
    // identical builder with `FaultPlan::none()` armed.
    let data = nested(240, 7);
    for plan in plans(240) {
        for halo in HALOS {
            let reference = fit(data.table(), |b| b.execution(plan.clone()).halo(halo), 9);
            let armed_off = fit(
                data.table(),
                |b| b.execution(plan.clone()).halo(halo).fault_plan(FaultPlan::none()),
                9,
            );
            assert_eq!(reference.stats, armed_off.stats, "counters moved under {plan:?}");
            assert_eq!(reference, armed_off, "FaultPlan::none() diverged under {plan:?}");
            assert_eq!(armed_off.stats.replica_failures, 0);
            assert_eq!(armed_off.stats.rejected_deltas, 0);
            assert_eq!(armed_off.stats.min_survivor_permille, 1000);
        }
    }
}

#[test]
fn chaos_schedules_are_deterministic_per_seed() {
    let data = nested(240, 2);
    for plan in plans(240) {
        let run = || fit(data.table(), |b| b.execution(plan.clone()).fault_plan(chaos(11)), 5);
        let (a, b) = (run(), run());
        assert_eq!(a.stats, b.stats, "counters non-deterministic under {plan:?}");
        assert_eq!(a, b, "chaos non-deterministic under {plan:?}");
    }
}

#[test]
fn single_failure_inside_the_retry_budget_recovers_exactly() {
    // A crash of shard 2 at merge step 1 with one retry in the budget: the
    // re-executed attempt is deterministic, so the fit is bit-identical to
    // the clean one — the failure is visible *only* in the accounting.
    let data = nested(240, 7);
    let plan = ExecutionPlan::mini_batch(60); // 4 shards
    let clean = fit(data.table(), |b| b.execution(plan.clone()), 9);
    let retried = fit(
        data.table(),
        |b| b.execution(plan.clone()).fault_plan(FaultPlan::none().fail_replica(1, 2)),
        9,
    );
    assert_eq!(clean, retried, "a recovered retry must not change results");
    assert_eq!(retried.stats.replica_failures, 1);
    assert_eq!(retried.stats.retries, 1);
    assert_eq!(retried.stats.quarantined_shards, 0);
    assert_eq!(retried.stats.min_survivor_permille, 1000);
}

#[test]
fn exhausted_budget_quarantines_and_degrades_gracefully() {
    let data = nested(240, 7);
    let plan = ExecutionPlan::mini_batch(60); // 4 shards
    let result = fit(
        data.table(),
        |b| {
            b.execution(plan.clone())
                .fault_plan(FaultPlan::none().fail_replica(1, 2).retry_budget(1))
        },
        9,
    );
    assert_eq!(result.stats.replica_failures, 1);
    assert_eq!(result.stats.retries, 0, "a budget of 1 leaves no retry headroom");
    assert_eq!(result.stats.quarantined_shards, 1);
    assert_eq!(
        result.stats.min_survivor_permille, 750,
        "losing 1 of 4 shards at one merge step is a 750‰ worst case"
    );
    // The degraded merge still produces a full, dense clustering.
    for (partition, &k) in result.partitions.iter().zip(&result.kappa) {
        assert_eq!(partition.len(), 240);
        assert!(partition.iter().all(|&l| l < k));
    }
}

#[test]
fn zero_retry_budget_quarantines_on_the_first_fault_without_panicking() {
    // `retry_budget = 0` is the degenerate no-retry setting: the single
    // mandatory attempt still runs, and its failure quarantines the shard
    // immediately — no retries, no panic, and the degraded merge still
    // yields a dense clustering.
    let data = nested(240, 7);
    let plan = ExecutionPlan::mini_batch(60); // 4 shards
    let result = fit(
        data.table(),
        |b| {
            b.execution(plan.clone())
                .fault_plan(FaultPlan::none().fail_replica(1, 2).retry_budget(0))
        },
        9,
    );
    assert_eq!(result.stats.replica_failures, 1);
    assert_eq!(result.stats.retries, 0, "a budget of 0 never retries");
    assert_eq!(result.stats.quarantined_shards, 1);
    for (partition, &k) in result.partitions.iter().zip(&result.kappa) {
        assert_eq!(partition.len(), 240);
        assert!(partition.iter().all(|&l| l < k));
    }
}

#[test]
fn quarantined_fit_quality_stays_within_the_replicated_band() {
    // The acceptance gate: a seeded single-replica failure at 4 shards,
    // past its retry budget, holds nested mean ACC within 0.05 of the
    // clean replicated baseline (full grid in BENCH_faults.json).
    let data = nested(240, 3);
    let plan = ExecutionPlan::mini_batch(60);
    let run = |fault: FaultPlan| -> f64 {
        let accs: Vec<f64> = (1u64..=5)
            .map(|seed| {
                let labels = Mcdc::builder()
                    .seed(seed)
                    .execution(plan.clone())
                    .fault_plan(fault.clone())
                    .build()
                    .fit(data.table(), 3)
                    .unwrap()
                    .labels()
                    .to_vec();
                accuracy(data.labels(), &labels)
            })
            .collect();
        accs.iter().sum::<f64>() / accs.len() as f64
    };
    let clean = run(FaultPlan::none());
    let degraded = run(FaultPlan::none().fail_replica(1, 2).retry_budget(1));
    assert!(
        degraded >= clean - 0.05,
        "quarantine cost the nested mean more than 0.05 ACC: {degraded} vs {clean}"
    );
}

#[test]
fn builder_boundary_rejects_non_finite_knobs() {
    let expect = |result: Result<Mgcpl, McdcError>, parameter: &str| match result {
        Err(McdcError::InvalidConfig { parameter: p, .. }) => {
            assert_eq!(p, parameter);
        }
        other => panic!("expected InvalidConfig for {parameter}, got {other:?}"),
    };
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, 1.0, -0.2] {
        expect(Mgcpl::builder().learning_rate(bad).try_build(), "learning_rate");
    }
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.5, -0.1] {
        expect(
            Mgcpl::builder().fault_plan(FaultPlan::none().replica_failure_rate(bad)).try_build(),
            "fault.replica_failure_rate",
        );
        expect(
            Mgcpl::builder().fault_plan(FaultPlan::none().straggler_rate(bad)).try_build(),
            "fault.straggler_rate",
        );
        expect(
            Mgcpl::builder().fault_plan(FaultPlan::none().delta_corruption_rate(bad)).try_build(),
            "fault.delta_corruption_rate",
        );
        expect(
            Mgcpl::builder().fault_plan(FaultPlan::none().delta_drop_rate(bad)).try_build(),
            "fault.delta_drop_rate",
        );
    }
    // `retry_budget = 0` is the legal degenerate no-retry setting, not a
    // boundary rejection (zero_retry_budget_quarantines_on_the_first_fault
    // covers its engine semantics).
    assert!(Mgcpl::builder().fault_plan(FaultPlan::none().retry_budget(0)).try_build().is_ok());
    expect(Mgcpl::builder().max_inner_iterations(0).try_build(), "max_inner_iterations");
    expect(Mgcpl::builder().max_stages(0).try_build(), "max_stages");
    // The pipeline builder forwards the same boundary.
    match Mcdc::builder().learning_rate(f64::NAN).try_build() {
        Err(McdcError::InvalidConfig { parameter, .. }) => {
            assert_eq!(parameter, "learning_rate");
        }
        other => panic!("expected InvalidConfig from Mcdc::try_build, got {other:?}"),
    }
    match Mcdc::builder().fault_plan(FaultPlan::none().straggler_rate(f64::NAN)).try_build() {
        Err(McdcError::InvalidConfig { parameter, .. }) => {
            assert_eq!(parameter, "fault.straggler_rate");
        }
        other => panic!("expected InvalidConfig from Mcdc::try_build, got {other:?}"),
    }
    // And the happy path still builds.
    assert!(Mgcpl::builder().learning_rate(0.5).try_build().is_ok());
    assert!(Mcdc::builder().fault_plan(chaos(1)).try_build().is_ok());
}

#[test]
#[should_panic(expected = "invalid configuration for learning_rate")]
fn infallible_build_panics_with_the_config_error() {
    let _ = Mgcpl::builder().learning_rate(f64::NAN).build();
}
