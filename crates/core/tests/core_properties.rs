//! Property-based tests of MGCPL/CAME invariants on arbitrary categorical
//! data (not just generator output).

use categorical_data::{CategoricalTable, Schema};
use mcdc_core::{encode_mgcpl, Came, Mcdc, Mgcpl, StreamingMcdc};
use mcdc_reference::{reference_mcdc, ReferenceConfig};
use proptest::prelude::*;

fn arbitrary_table() -> impl Strategy<Value = CategoricalTable> {
    (10usize..80, 2usize..6).prop_flat_map(|(n, d)| {
        proptest::collection::vec(proptest::collection::vec(0u32..4, d), n).prop_map(move |rows| {
            CategoricalTable::from_rows(Schema::uniform(d, 4), rows.iter().map(Vec::as_slice))
                .expect("rows are schema-valid")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn mgcpl_invariants_on_arbitrary_data(table in arbitrary_table(), seed in 0u64..100) {
        let result = Mgcpl::builder().seed(seed).build().fit(&table).unwrap();
        prop_assert!(!result.partitions.is_empty());
        prop_assert!(result.kappa.windows(2).all(|w| w[0] > w[1]));
        prop_assert!(*result.kappa.first().unwrap() <= result.trace.initial_k);
        for (partition, &k) in result.partitions.iter().zip(&result.kappa) {
            prop_assert_eq!(partition.len(), table.n_rows());
            prop_assert!(partition.iter().all(|&l| l < k));
        }
        // The encoding round-trips into a table of matching shape.
        let encoding = encode_mgcpl(&result).unwrap();
        prop_assert_eq!(encoding.n_rows(), table.n_rows());
    }

    #[test]
    fn came_theta_is_a_distribution(table in arbitrary_table(), seed in 0u64..100) {
        let k = 2.min(table.n_rows());
        let mgcpl = Mgcpl::builder().seed(seed).build().fit(&table).unwrap();
        let encoding = encode_mgcpl(&mgcpl).unwrap();
        let came = Came::builder().seed(seed).build().fit(&encoding, k).unwrap();
        prop_assert!((came.theta().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(came.theta().iter().all(|&t| (0.0..=1.0).contains(&t)));
        prop_assert_eq!(came.labels().len(), table.n_rows());
        prop_assert!(came.labels().iter().all(|&l| l < k));
    }

    #[test]
    fn mcdc_delivers_exactly_k_or_fewer_on_duplicates(
        distinct in 2usize..6,
        copies in 3usize..15,
        seed in 0u64..50,
    ) {
        // Tables made of `distinct` unique rows, each repeated `copies`
        // times: the sought k <= distinct must always be deliverable.
        let d = 4usize;
        let mut table = CategoricalTable::new(Schema::uniform(d, 8));
        for v in 0..distinct {
            for _ in 0..copies {
                table.push_row(&vec![v as u32; d]).unwrap();
            }
        }
        let k = 2.min(distinct);
        let result = Mcdc::builder().seed(seed).build().fit(&table, k).unwrap();
        prop_assert_eq!(result.labels().len(), distinct * copies);
        // Identical rows must co-cluster.
        for v in 0..distinct {
            let base = result.labels()[v * copies];
            for i in 0..copies {
                prop_assert_eq!(result.labels()[v * copies + i], base);
            }
        }
    }
}

#[test]
fn default_k0_is_root_n_capped_at_64() {
    // round(√n), floored at 2 and capped at n and at 64: tables up to
    // 4,160 rows keep the paper's √n, larger ones seed 64 clusters. One
    // pass per stage keeps the larger fits cheap; it does not touch k₀.
    for (n, k0) in [(1, 1), (3, 2), (4096, 64), (4290, 64), (30_000, 64)] {
        let mut table = CategoricalTable::new(Schema::uniform(2, 3));
        for i in 0..n {
            table.push_row(&[(i % 3) as u32, (i / 3 % 3) as u32]).unwrap();
        }
        let fit = Mgcpl::builder().seed(1).max_inner_iterations(1).build().fit(&table).unwrap();
        assert_eq!(fit.trace.initial_k, k0, "n = {n}");
    }
}

#[test]
fn one_row_table_fits_with_a_single_cluster() {
    // k₀ = √n rounded and capped at 64, floored at 2 and capped at n: a
    // one-row table seeds exactly one cluster instead of asking for two out
    // of one row.
    let mut table = CategoricalTable::new(Schema::uniform(3, 4));
    table.push_row(&[1, 0, 3]).unwrap();
    let mgcpl = Mgcpl::builder().seed(4).build().fit(&table).unwrap();
    assert_eq!(mgcpl.kappa, vec![1]);
    assert_eq!(mgcpl.partitions, vec![vec![0]]);
    let mcdc = Mcdc::builder().seed(4).build().fit(&table, 1).unwrap();
    assert_eq!(mcdc.mgcpl().kappa, vec![1]);
    assert_eq!(mcdc.labels(), &[0]);
    let stream = StreamingMcdc::bootstrap(Mgcpl::builder().seed(4).build(), &table).unwrap();
    assert_eq!(stream.kappa(), vec![1]);
    assert_eq!(stream.serve_one(&[1, 0, 3]), 0);
    let config = ReferenceConfig { seed: 4, ..ReferenceConfig::default() };
    let oracle = reference_mcdc(&table, 1, &config).unwrap();
    assert_eq!(oracle.mgcpl.kappa, vec![1]);
    assert_eq!(oracle.mgcpl.partitions, mcdc.mgcpl().partitions);
    assert_eq!(oracle.labels, mcdc.labels());
}
