//! Cross-crate property-based tests (proptest) on the core invariants.

use mcdc::core::{encode_partitions, ClusterProfile, Mgcpl};
use mcdc::data::io::{read_csv_str, write_csv, CsvOptions};
use mcdc::data::synth::GeneratorConfig;
use mcdc::data::{CategoricalTable, FeatureDomain, Schema};
use mcdc::eval::{
    accuracy, adjusted_mutual_information, adjusted_rand_index, fowlkes_mallows,
    normalized_mutual_information, solve_assignment,
};
use proptest::prelude::*;

fn labels_strategy(n: usize, k: usize) -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0..k, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn indices_are_invariant_under_label_permutation(
        labels in labels_strategy(40, 4),
        permutation_seed in 0u64..1000,
    ) {
        // Relabel by a fixed permutation of 0..4.
        let perms = [[1usize, 2, 3, 0], [3, 2, 1, 0], [2, 0, 3, 1]];
        let perm = perms[(permutation_seed % 3) as usize];
        let relabeled: Vec<usize> = labels.iter().map(|&l| perm[l]).collect();
        let truth: Vec<usize> = (0..40).map(|i| i % 3).collect();
        prop_assert!((adjusted_rand_index(&truth, &labels)
            - adjusted_rand_index(&truth, &relabeled)).abs() < 1e-9);
        prop_assert!((accuracy(&truth, &labels) - accuracy(&truth, &relabeled)).abs() < 1e-9);
        prop_assert!((fowlkes_mallows(&truth, &labels)
            - fowlkes_mallows(&truth, &relabeled)).abs() < 1e-9);
        prop_assert!((adjusted_mutual_information(&truth, &labels)
            - adjusted_mutual_information(&truth, &relabeled)).abs() < 1e-9);
    }

    #[test]
    fn identical_partitions_score_perfectly(labels in labels_strategy(30, 5)) {
        prop_assert!((accuracy(&labels, &labels) - 1.0).abs() < 1e-12);
        prop_assert!((adjusted_rand_index(&labels, &labels) - 1.0).abs() < 1e-9);
        prop_assert!((normalized_mutual_information(&labels, &labels) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn index_bounds_hold(a in labels_strategy(25, 4), b in labels_strategy(25, 4)) {
        let acc = accuracy(&a, &b);
        prop_assert!((0.0..=1.0).contains(&acc));
        let fm = fowlkes_mallows(&a, &b);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&fm));
        let ari = adjusted_rand_index(&a, &b);
        prop_assert!((-1.0..=1.0 + 1e-12).contains(&ari));
    }

    #[test]
    fn symmetric_indices_are_symmetric(a in labels_strategy(25, 3), b in labels_strategy(25, 3)) {
        prop_assert!((adjusted_rand_index(&a, &b) - adjusted_rand_index(&b, &a)).abs() < 1e-9);
        prop_assert!((fowlkes_mallows(&a, &b) - fowlkes_mallows(&b, &a)).abs() < 1e-9);
        prop_assert!((normalized_mutual_information(&a, &b)
            - normalized_mutual_information(&b, &a)).abs() < 1e-9);
    }

    #[test]
    fn hungarian_matches_brute_force(
        flat in proptest::collection::vec(0.0f64..10.0, 16),
    ) {
        let cost: Vec<Vec<f64>> = flat.chunks(4).map(|c| c.to_vec()).collect();
        let (_, total) = solve_assignment(&cost);
        // Brute force over all 4! assignments.
        let mut best = f64::INFINITY;
        let perms = permutations(4);
        for p in &perms {
            let t: f64 = p.iter().enumerate().map(|(i, &j)| cost[i][j]).sum();
            best = best.min(t);
        }
        prop_assert!((total - best).abs() < 1e-9);
    }

    #[test]
    fn profile_add_remove_roundtrip(rows in proptest::collection::vec(
        proptest::collection::vec(0u32..4, 5), 1..20,
    )) {
        let schema = Schema::uniform(5, 4);
        let mut profile = ClusterProfile::new(&schema);
        let empty = profile.clone();
        for row in &rows {
            profile.add(row);
        }
        prop_assert_eq!(profile.size() as usize, rows.len());
        for row in &rows {
            profile.remove(row);
        }
        prop_assert_eq!(profile, empty);
    }

    #[test]
    fn similarity_is_bounded(rows in proptest::collection::vec(
        proptest::collection::vec(0u32..4, 5), 1..20,
    ), query in proptest::collection::vec(0u32..4, 5)) {
        let schema = Schema::uniform(5, 4);
        let mut profile = ClusterProfile::new(&schema);
        for row in &rows {
            profile.add(row);
        }
        let s = profile.similarity(&query);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&s));
    }

    #[test]
    fn encoding_preserves_row_count(
        fine in labels_strategy(30, 6),
        coarse in labels_strategy(30, 2),
    ) {
        let encoding = encode_partitions(&[fine.clone(), coarse.clone()]).unwrap();
        prop_assert_eq!(encoding.n_rows(), 30);
        for i in 0..30 {
            prop_assert_eq!(encoding.value(i, 0) as usize, fine[i]);
            prop_assert_eq!(encoding.value(i, 1) as usize, coarse[i]);
        }
    }

    #[test]
    fn csv_roundtrip_preserves_shape(rows in proptest::collection::vec(
        proptest::collection::vec(0u32..3, 4), 2..15,
    )) {
        // Values that need quoting must read back as written.
        let values = ["plain", "a,b", "say \"hi\""];
        let schema = Schema::new(
            (0..4).map(|r| FeatureDomain::with_labels(format!("f{r}"), values)).collect(),
        );
        let table = CategoricalTable::from_rows(schema, rows.iter().map(Vec::as_slice)).unwrap();
        let n = table.n_rows();
        let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let ds = mcdc::Dataset::new("prop", table, labels).unwrap();
        let dir = std::env::temp_dir().join("mcdc-proptest");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("t{n}.csv"));
        write_csv(&ds, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let back = read_csv_str(&text, &CsvOptions::default()).unwrap();
        prop_assert_eq!(back.n_rows(), n);
        prop_assert_eq!(back.n_features(), 4);
        prop_assert_eq!(back.labels(), ds.labels());
        let label = |ds: &mcdc::Dataset, i: usize, r: usize| {
            let schema = ds.table().schema();
            schema.domain(r).label(ds.table().value(i, r)).unwrap().to_owned()
        };
        for i in 0..n {
            for r in 0..4 {
                prop_assert_eq!(label(&back, i, r), label(&ds, i, r));
            }
        }
    }
}

proptest! {
    // MGCPL runs are costlier; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn mgcpl_partitions_are_exact_covers(seed in 0u64..100) {
        let data = GeneratorConfig::new("p", 120, vec![3; 6], 2)
            .noise(0.1)
            .generate(seed)
            .dataset;
        let result = Mgcpl::builder().seed(seed).build().fit(data.table()).unwrap();
        prop_assert!(!result.partitions.is_empty());
        prop_assert_eq!(result.partitions.len(), result.kappa.len());
        for (partition, &k) in result.partitions.iter().zip(&result.kappa) {
            prop_assert_eq!(partition.len(), 120);
            let mut distinct = partition.clone();
            distinct.sort_unstable();
            distinct.dedup();
            prop_assert_eq!(distinct.len(), k);
            prop_assert!(partition.iter().all(|&l| l < k));
        }
        // κ is strictly decreasing.
        prop_assert!(result.kappa.windows(2).all(|w| w[0] > w[1]));
    }
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 1 {
        return vec![vec![0]];
    }
    let smaller = permutations(n - 1);
    let mut result = Vec::new();
    for p in smaller {
        for pos in 0..=p.len() {
            let mut q: Vec<usize> = p.iter().map(|&x| x + 1).collect();
            q.insert(pos, 0);
            result.push(q);
        }
    }
    result
}
