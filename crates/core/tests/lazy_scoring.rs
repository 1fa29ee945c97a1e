//! Exactness pin for CAME's dirty-cluster tracking (DESIGN.md §3), the one
//! lazy scoring mechanism left: on Γ encodings built from MGCPL runs over
//! random tables *with MISSING values*, `Came` reproduces the reference
//! oracle (`mcdc-reference`), which rescans every row every iteration, bit
//! for bit, and accounts for every row scan as either full or skipped.

use categorical_data::{CategoricalTable, Schema, MISSING};
use mcdc_core::{encode_partitions, Came, Mgcpl};
use mcdc_reference::reference_came;
use proptest::prelude::*;

/// Random tables over a uniform 4-value schema where code 4 maps to
/// MISSING, so roughly a fifth of the cells are nulls.
fn arbitrary_table_with_missing() -> impl Strategy<Value = CategoricalTable> {
    (24usize..140, 2usize..6).prop_flat_map(|(n, d)| {
        proptest::collection::vec(proptest::collection::vec(0u32..5, d), n).prop_map(move |rows| {
            let mut table = CategoricalTable::new(Schema::uniform(d, 4));
            for row in &rows {
                let encoded: Vec<u32> =
                    row.iter().map(|&c| if c == 4 { MISSING } else { c }).collect();
                table.push_row(&encoded).unwrap();
            }
            table
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn lazy_came_is_bit_exact_with_eager(
        table in arbitrary_table_with_missing(),
        seed in 0u64..40,
        k in 2usize..5,
    ) {
        // Build a plausible Γ encoding from an MGCPL run over the table.
        let mgcpl = Mgcpl::builder().seed(seed).build().fit(&table).unwrap();
        let encoding = encode_partitions(&mgcpl.partitions).unwrap();
        let k = k.min(encoding.n_rows());
        let eager = reference_came(&encoding, k, true, seed).unwrap();
        let lazy = Came::builder().seed(seed).build().fit(&encoding, k).unwrap();
        prop_assert_eq!(lazy.labels(), eager.labels.as_slice());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(lazy.theta()), bits(&eager.theta));
        prop_assert_eq!(lazy.modes(), eager.modes.as_slice());
        prop_assert_eq!(lazy.iterations(), eager.iterations);
        prop_assert_eq!(
            lazy.stats().full_rescans + lazy.stats().skipped_rescans,
            (eager.iterations * encoding.n_rows()) as u64,
            "lazy CAME must account for every row scan"
        );
    }
}
