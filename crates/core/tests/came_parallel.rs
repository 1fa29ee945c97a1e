//! CAME's rayon-parallel paths (chunked assignment, per-chunk mode
//! counting, per-chunk θ agreement counting) must be *exact*: on a 10k-row
//! synthetic multi-granular encoding, the parallel run yields labels — and
//! the whole result — identical to the serial sweep.
//!
//! `force_chunking` pins the chunked paths open even when the rayon pool
//! has a single worker (where `fit` otherwise falls back to the serial
//! sweep, DESIGN.md §3) so the chunk-boundary bookkeeping is exercised on
//! single-core CI too.
//!
//! CAME's dirty-cluster tracking is pinned against the reference oracle
//! (`mcdc-reference`), which rescans every row every iteration: serial and
//! chunked, weighted and unweighted, the results agree bit for bit.

use categorical_data::synth::GeneratorConfig;
use categorical_data::{CategoricalTable, Schema};
use mcdc_core::{encode_partitions, Came, CameInit, ExecutionPlan};
use mcdc_reference::reference_came;
use proptest::prelude::*;

#[test]
fn parallel_assignment_matches_serial_on_10k_rows() {
    // A 10k-object nested data set: the generator's coarse (3 classes) and
    // fine (6 sub-clusters) labels form a two-granularity Γ encoding, the
    // same shape MGCPL hands CAME. 10k rows is past the parallel gate, so
    // the chunked code paths genuinely run.
    let out =
        GeneratorConfig::new("par", 10_000, vec![4; 8], 3).subclusters(2).noise(0.1).generate(17);
    let fine = out.fine_labels.clone();
    let coarse = out.dataset.labels().to_vec();
    let encoding = encode_partitions(&[fine, coarse]).expect("valid partitions");

    for k in [2usize, 3, 5] {
        let parallel = Came::builder()
            .execution(ExecutionPlan::mini_batch(2_500))
            .force_chunking(true)
            .build()
            .fit(&encoding, k)
            .unwrap();
        let serial =
            Came::builder().execution(ExecutionPlan::Serial).build().fit(&encoding, k).unwrap();
        assert_eq!(parallel.labels(), serial.labels(), "labels diverged at k={k}");
        assert_eq!(parallel, serial, "full results diverged at k={k}");
    }
}

#[test]
fn parallel_random_init_also_matches_serial() {
    let out =
        GeneratorConfig::new("par", 9_000, vec![3; 6], 2).subclusters(3).noise(0.15).generate(23);
    let fine = out.fine_labels.clone();
    let coarse = out.dataset.labels().to_vec();
    let encoding = encode_partitions(&[fine, coarse]).expect("valid partitions");

    let build = |plan: ExecutionPlan| {
        Came::builder()
            .init(CameInit::RandomObjects)
            .seed(5)
            .execution(plan)
            .force_chunking(true)
            .build()
            .fit(&encoding, 4)
            .unwrap()
    };
    assert_eq!(build(ExecutionPlan::mini_batch(1_000)), build(ExecutionPlan::Serial));
}

#[test]
fn chunked_lazy_tracking_matches_serial_eager() {
    // Dirty-cluster tracking must stay exact through the chunked path:
    // chunked, serial, and the oracle's eager every-row rescan all agree
    // bit for bit.
    let out =
        GeneratorConfig::new("par", 9_000, vec![4; 8], 3).subclusters(2).noise(0.2).generate(31);
    let fine = out.fine_labels.clone();
    let coarse = out.dataset.labels().to_vec();
    let encoding = encode_partitions(&[fine, coarse]).expect("valid partitions");

    for k in [2usize, 4] {
        let serial =
            Came::builder().execution(ExecutionPlan::Serial).build().fit(&encoding, k).unwrap();
        let chunked = Came::builder()
            .execution(ExecutionPlan::mini_batch(1_500))
            .force_chunking(true)
            .build()
            .fit(&encoding, k)
            .unwrap();
        assert_eq!(serial, chunked, "chunked diverged from serial at k={k}");
        assert_matches_oracle(&encoding, k, true, 0);
    }
}

/// Random tables over a uniform 4-value schema: noisy enough that CAME's
/// labels keep moving for several iterations.
fn arbitrary_table() -> impl Strategy<Value = CategoricalTable> {
    (24usize..140, 2usize..6).prop_flat_map(|(n, d)| {
        proptest::collection::vec(proptest::collection::vec(0u32..4, d), n).prop_map(move |rows| {
            CategoricalTable::from_rows(Schema::uniform(d, 4), rows.iter().map(Vec::as_slice))
                .expect("rows are schema-valid")
        })
    })
}

/// Asserts `Came` (serial, or chunked past the parallel gate) reproduces
/// the reference transcription of Alg. 2 bit for bit: labels, θ, modes,
/// and iteration count.
fn assert_matches_oracle(encoding: &CategoricalTable, k: usize, weighted: bool, seed: u64) {
    let oracle = reference_came(encoding, k, weighted, seed).unwrap();
    let chunked = encoding.n_rows() >= 8_192;
    let plan = if chunked {
        ExecutionPlan::mini_batch(encoding.n_rows() / 4)
    } else {
        ExecutionPlan::Serial
    };
    let came = Came::builder()
        .seed(seed)
        .weighted(weighted)
        .execution(plan)
        .force_chunking(chunked)
        .build()
        .fit(encoding, k)
        .unwrap();
    let context = format!("k={k} weighted={weighted} seed={seed} chunked={chunked}");
    assert_eq!(came.labels(), oracle.labels.as_slice(), "labels diverged ({context})");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(came.theta()), bits(&oracle.theta), "θ diverged ({context})");
    assert_eq!(came.modes(), oracle.modes.as_slice(), "modes diverged ({context})");
    assert_eq!(came.iterations(), oracle.iterations, "iterations diverged ({context})");
    assert_eq!(
        came.stats().full_rescans + came.stats().skipped_rescans,
        (came.iterations() * encoding.n_rows()) as u64,
        "every row scan must be either full or skipped ({context})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Dirty-cluster tracking skips rows whose cached margin still proves
    // their winner; the oracle rescans every row every iteration, so this
    // pins the skip as exact. CAME accepts any categorical table, and raw
    // noisy tables — unlike clean Γ encodings, which settle in one or two
    // iterations — keep labels moving for several iterations, so skips
    // and rescans interleave: small random tables (serial sweep), and a
    // noisy table past the parallel gate (chunked sweep).
    #[test]
    fn came_matches_the_oracle_serial_and_chunked(
        table in arbitrary_table(),
        seed in 0u64..40,
        k in 2usize..5,
    ) {
        let large = GeneratorConfig::new("oracle", 8_500, vec![4; 6], 3)
            .noise(0.5)
            .generate(seed)
            .dataset
            .into_parts()
            .0;
        for weighted in [false, true] {
            assert_matches_oracle(&table, k, weighted, seed);
            assert_matches_oracle(&large, k, weighted, seed);
        }
    }
}

#[test]
fn came_dirty_tracking_skips_on_multi_iteration_fits() {
    let out = GeneratorConfig::new("lazy-came", 2_000, vec![4; 8], 3)
        .subclusters(2)
        .noise(0.15)
        .generate(7);
    let fine = out.fine_labels.clone();
    let coarse = out.dataset.labels().to_vec();
    let encoding = encode_partitions(&[fine, coarse]).unwrap();
    let came = Came::builder().build().fit(&encoding, 3).unwrap();
    assert_matches_oracle(&encoding, 3, true, 0);
    if came.iterations() > 1 {
        assert!(
            came.stats().skipped_rescans > 0,
            "multi-iteration CAME skipped nothing: {:?}",
            came.stats()
        );
    }
}

#[test]
fn came_stops_when_the_reseed_undoes_step_one() {
    // 300 rows but only 3 distinct rows of Γ: at k = 4 and 5 the re-seed
    // pulls a row into each empty cluster and Step 1 moves it straight
    // back, so labels cycle between two states and the per-iteration
    // `changed` flag never clears. The state after the re-seed is a
    // fixpoint from iteration 2 on; CAME must stop there, not at its cap.
    let fine: Vec<usize> = (0..300).map(|i| i % 3).collect();
    let coarse: Vec<usize> = fine.iter().map(|&l| l / 2).collect();
    let encoding = encode_partitions(&[fine, coarse]).unwrap();
    for k in [4, 5] {
        for weighted in [false, true] {
            let came = Came::builder().weighted(weighted).build().fit(&encoding, k).unwrap();
            assert!(came.iterations() <= 3, "k={k}: {} iterations", came.iterations());
            assert_matches_oracle(&encoding, k, weighted, 0);
        }
    }
}
