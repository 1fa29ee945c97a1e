//! Semantics pins for the execution engine (DESIGN.md §4):
//!
//! * `MiniBatch { batch_size: n }` runs exactly one replica whose
//!   presentation span is the full serial order, so it must reproduce
//!   `Serial` labels **bit-exactly** — partitions, κ, and trace;
//! * smaller batches change the cascade's semantics (shard-local δ, frozen
//!   snapshot scoring) but must stay inside the quality tolerance band of
//!   the stochastic suites on well-separated synthetic data;
//! * for a fixed seed and shard count, every backend is deterministic,
//!   through `fit` and the kept `fit_with` alike;
//! * invalid plans surface `McdcError::InvalidShards` instead of panicking,
//!   and the builder boundary rejects non-finite or zero knobs with
//!   `McdcError::InvalidConfig` naming the offending parameter, for MGCPL
//!   and the MCDC pipeline alike.

use categorical_data::synth::GeneratorConfig;
use categorical_data::Dataset;
use cluster_eval::{accuracy, adjusted_rand_index};
use mcdc_core::{encode_mgcpl, Came, ExecutionPlan, Mcdc, McdcError, Mgcpl, Workspace};

fn separated(n: usize, k: usize, seed: u64) -> Dataset {
    GeneratorConfig::new("engine", n, vec![4; 8], k).noise(0.05).generate(seed).dataset
}

#[test]
fn full_batch_reproduces_serial_bit_exactly() {
    for (n, k, data_seed, fit_seed) in
        [(300, 3, 1, 2), (450, 4, 3, 5), (200, 2, 7, 11), (512, 3, 13, 17)]
    {
        let data = separated(n, k, data_seed);
        let serial = Mgcpl::builder()
            .seed(fit_seed)
            .execution(ExecutionPlan::Serial)
            .build()
            .fit(data.table())
            .unwrap();
        let minibatch = Mgcpl::builder()
            .seed(fit_seed)
            .execution(ExecutionPlan::mini_batch(n))
            .build()
            .fit(data.table())
            .unwrap();
        assert_eq!(
            serial, minibatch,
            "batch = n must be bit-exact with serial (n={n}, k={k}, seed={fit_seed})"
        );
    }
}

#[test]
fn one_shard_plan_also_reproduces_serial() {
    let data = separated(250, 3, 21);
    let serial = Mgcpl::builder().seed(4).build().fit(data.table()).unwrap();
    let sharded = Mgcpl::builder()
        .seed(4)
        .execution(ExecutionPlan::sharded(vec![(0..250).collect()]))
        .build()
        .fit(data.table())
        .unwrap();
    assert_eq!(serial, sharded);
}

#[test]
fn mini_batch_quality_stays_in_tolerance() {
    // Same acceptance shape as the stochastic pipeline tests: on
    // well-separated generator suites the replica-merge formulation must
    // still recover the planted structure.
    for (data_seed, fit_seed) in [(1u64, 2u64), (9, 6)] {
        let data = separated(600, 3, data_seed);
        let result = Mcdc::builder()
            .seed(fit_seed)
            .execution(ExecutionPlan::mini_batch(150))
            .build()
            .fit(data.table(), 3)
            .unwrap();
        let acc = accuracy(data.labels(), result.labels());
        let ari = adjusted_rand_index(data.labels(), result.labels());
        assert!(acc > 0.85, "mini-batch ACC degraded: acc={acc} (seeds {data_seed}/{fit_seed})");
        assert!(ari > 0.6, "mini-batch ARI degraded: ari={ari} (seeds {data_seed}/{fit_seed})");
    }
}

#[test]
fn sharded_quality_stays_in_tolerance() {
    let data = separated(600, 3, 5);
    // A deliberately unaligned explicit partition: round-robin across 4
    // shards, the worst case for locality.
    let shards: Vec<Vec<usize>> = (0..4).map(|s| (s..600).step_by(4).collect()).collect();
    let result = Mcdc::builder()
        .seed(3)
        .execution(ExecutionPlan::sharded(shards))
        .build()
        .fit(data.table(), 3)
        .unwrap();
    let acc = accuracy(data.labels(), result.labels());
    assert!(acc > 0.85, "sharded ACC degraded: acc={acc}");
}

#[test]
fn mini_batch_is_deterministic_for_fixed_seed_and_shard_count() {
    // Two fits under one plan agree, counters included — and the second
    // goes through `fit_with`, which the benchmark's traced run still calls
    // with an (empty) `Workspace`: MGCPL and CAME, serial, mini-batch and
    // mini-batch with a halo.
    let data = separated(400, 3, 8);
    for (plan, halo) in [
        (ExecutionPlan::Serial, 0),
        (ExecutionPlan::mini_batch(100), 0),
        (ExecutionPlan::mini_batch(100), 6),
    ] {
        let case = format!("{plan:?} halo={halo}");
        let mgcpl = Mgcpl::builder().seed(9).execution(plan.clone()).halo(halo).build();
        let fit = mgcpl.fit(data.table()).unwrap();
        let fit_with = mgcpl.fit_with(data.table(), &mut Workspace::new()).unwrap();
        assert_eq!(fit, fit_with, "{case}");
        assert_eq!(fit.stats, fit_with.stats, "{case}");
        assert_eq!(fit.stats.allocations, 0, "{case}");

        let encoding = encode_mgcpl(&fit).unwrap();
        let came = Came::builder().execution(plan).build();
        let fit = came.fit(&encoding, 3).unwrap();
        let fit_with = came.fit_with(&encoding, 3, &mut Workspace::new()).unwrap();
        assert_eq!(fit, fit_with, "{case}");
        assert_eq!(fit.stats(), fit_with.stats(), "{case}");
    }
}

#[test]
fn different_batch_sizes_may_differ_but_both_converge() {
    let data = separated(400, 3, 10);
    for batch in [50usize, 100, 200, 400] {
        let result = Mgcpl::builder()
            .seed(1)
            .execution(ExecutionPlan::mini_batch(batch))
            .build()
            .fit(data.table())
            .unwrap();
        assert!(!result.partitions.is_empty(), "batch={batch} produced no partitions");
        assert!(
            result.kappa.windows(2).all(|w| w[0] > w[1]),
            "kappa not strictly decreasing at batch={batch}: {:?}",
            result.kappa
        );
    }
}

#[test]
fn invalid_plans_error_instead_of_panicking() {
    let data = separated(50, 2, 12);
    let fit_with =
        |plan: ExecutionPlan| Mgcpl::builder().seed(1).execution(plan).build().fit(data.table());
    assert!(matches!(fit_with(ExecutionPlan::mini_batch(0)), Err(McdcError::InvalidShards { .. })));
    assert!(matches!(
        fit_with(ExecutionPlan::mini_batch(51)),
        Err(McdcError::InvalidShards { .. })
    ));
    assert!(matches!(
        fit_with(ExecutionPlan::sharded(vec![(0..49).collect()])),
        Err(McdcError::InvalidShards { .. })
    ));
    assert!(matches!(
        fit_with(ExecutionPlan::sharded(vec![(0..50).collect(), vec![]])),
        Err(McdcError::InvalidShards { .. })
    ));
}

#[test]
fn pipeline_threads_the_plan_through_both_stages() {
    let data = separated(300, 3, 2);
    // Serial plan through the pipeline = the historical default.
    let default = Mcdc::builder().seed(2).build().fit(data.table(), 3).unwrap();
    let serial = Mcdc::builder()
        .seed(2)
        .execution(ExecutionPlan::Serial)
        .build()
        .fit(data.table(), 3)
        .unwrap();
    assert_eq!(default.labels(), serial.labels());

    // Full-batch mini-batch must agree with serial end to end: the MGCPL
    // stage is bit-exact and CAME's parallel paths are exact by design.
    let full_batch = Mcdc::builder()
        .seed(2)
        .execution(ExecutionPlan::mini_batch(300))
        .build()
        .fit(data.table(), 3)
        .unwrap();
    assert_eq!(serial.labels(), full_batch.labels());
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
    expect(Mgcpl::builder().max_inner_iterations(0).try_build(), "max_inner_iterations");
    // The pipeline builder forwards the same boundary.
    match Mcdc::builder().learning_rate(f64::NAN).try_build() {
        Err(McdcError::InvalidConfig { parameter, .. }) => {
            assert_eq!(parameter, "learning_rate");
        }
        other => panic!("expected InvalidConfig from Mcdc::try_build, got {other:?}"),
    }
    // And the happy path still builds.
    assert!(Mgcpl::builder().learning_rate(0.5).try_build().is_ok());
    assert!(Mcdc::builder().try_build().is_ok());
}

#[test]
#[should_panic(expected = "invalid configuration for learning_rate")]
fn infallible_build_panics_with_the_config_error() {
    let _ = Mgcpl::builder().learning_rate(f64::NAN).build();
}
