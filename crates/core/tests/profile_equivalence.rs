//! Kernel-equivalence property tests for the flat CSR `ClusterProfile` (one
//! contiguous count buffer plus one cached reciprocal per feature; relative
//! frequencies are formed as `count · 1/present` where they are read):
//!
//! - it must agree with a straightforward nested-vec reference
//!   implementation on every query, across random add/remove sequences that
//!   include MISSING values — to 1e-12 on the float kernels (the flat
//!   profile multiplies by cached reciprocals instead of dividing, which may
//!   differ in the last ulp) and exactly on counts, modes, and presence;
//! - its float kernels must equal, bit for bit, the products
//!   `feature_counts(r)[t] as f64 * inv_present(r)` and their
//!   ascending-feature sums, across add/remove/extend_rows/reset
//!   sequences — the invariant the value-major scoring table behind MGCPL
//!   and `FrozenModel` relies on when it forms the same products itself.
//!   The ω-weighted sums are pinned, bit for bit, by that table's unit
//!   tests against a nested-vec weighted reference.

// As in mcdc-core itself: the loops walk one index across several parallel
// structures, and the iterator rewrite would obscure the access pattern.
#![allow(clippy::needless_range_loop)]

use categorical_data::{Schema, MISSING};
use mcdc_core::ClusterProfile;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The textbook implementation the optimized profile must agree with:
/// per-feature count vectors, divisions at query time.
struct ReferenceProfile {
    counts: Vec<Vec<u32>>,
    present: Vec<u32>,
    size: u32,
}

impl ReferenceProfile {
    fn new(schema: &Schema) -> Self {
        ReferenceProfile {
            counts: (0..schema.n_features())
                .map(|r| vec![0; schema.domain(r).cardinality() as usize])
                .collect(),
            present: vec![0; schema.n_features()],
            size: 0,
        }
    }

    fn add(&mut self, row: &[u32]) {
        for (r, &code) in row.iter().enumerate() {
            if code != MISSING {
                self.counts[r][code as usize] += 1;
                self.present[r] += 1;
            }
        }
        self.size += 1;
    }

    fn remove(&mut self, row: &[u32]) {
        for (r, &code) in row.iter().enumerate() {
            if code != MISSING {
                self.counts[r][code as usize] -= 1;
                self.present[r] -= 1;
            }
        }
        self.size -= 1;
    }

    fn value_similarity(&self, r: usize, code: u32) -> f64 {
        if code == MISSING || self.present[r] == 0 {
            return 0.0;
        }
        self.counts[r][code as usize] as f64 / self.present[r] as f64
    }

    fn similarity(&self, row: &[u32]) -> f64 {
        let d = row.len() as f64;
        row.iter().enumerate().map(|(r, &c)| self.value_similarity(r, c)).sum::<f64>() / d
    }

    fn mode(&self) -> Vec<u32> {
        self.counts
            .iter()
            .map(|fc| {
                fc.iter()
                    .enumerate()
                    .max_by(|(ta, ca), (tb, cb)| ca.cmp(cb).then(tb.cmp(ta)))
                    .map_or(0, |(t, _)| t as u32)
            })
            .collect()
    }

    fn compactness(&self, r: usize) -> f64 {
        if self.size == 0 || self.present[r] == 0 {
            return 0.0;
        }
        let sum_sq: u64 = self.counts[r].iter().map(|&c| c as u64 * c as u64).sum();
        sum_sq as f64 / (self.size as f64 * self.present[r] as f64)
    }
}

fn random_row(rng: &mut ChaCha8Rng, cardinalities: &[u32], missing_rate: f64) -> Vec<u32> {
    cardinalities
        .iter()
        .map(|&m| if rng.gen_bool(missing_rate) { MISSING } else { rng.gen_range(0..m) })
        .collect()
}

#[test]
fn flat_profile_agrees_with_reference_under_random_mutation() {
    const TOLERANCE: f64 = 1e-12;
    for case_seed in 0..40u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0xC0FFEE ^ case_seed);
        let d = rng.gen_range(1usize..8);
        let cardinalities: Vec<u32> = (0..d).map(|_| rng.gen_range(2u32..7)).collect();
        let schema = Schema::new(
            cardinalities
                .iter()
                .enumerate()
                .map(|(r, &m)| categorical_data::FeatureDomain::anonymous(format!("f{r}"), m))
                .collect(),
        );

        let mut flat = ClusterProfile::new(&schema);
        let mut reference = ReferenceProfile::new(&schema);
        let mut members: Vec<Vec<u32>> = Vec::new();

        for _step in 0..120 {
            // Mutate: add a fresh random row (with MISSING entries), or
            // remove a random current member.
            let removing = !members.is_empty() && rng.gen_bool(0.4);
            if removing {
                let idx = rng.gen_range(0..members.len());
                let row = members.swap_remove(idx);
                flat.remove(&row);
                reference.remove(&row);
            } else {
                let row = random_row(&mut rng, &cardinalities, 0.15);
                flat.add(&row);
                reference.add(&row);
                members.push(row);
            }

            // Exact structure.
            assert_eq!(flat.size(), reference.size);
            for r in 0..d {
                assert_eq!(flat.present(r), reference.present[r]);
                for code in 0..cardinalities[r] {
                    assert_eq!(flat.count(r, code), reference.counts[r][code as usize]);
                }
                assert!(
                    (flat.compactness(r) - reference.compactness(r)).abs() < TOLERANCE,
                    "compactness mismatch at feature {r} (case {case_seed})"
                );
            }
            assert_eq!(flat.mode(), reference.mode());

            // Float kernels on random queries (with MISSING values).
            for _q in 0..4 {
                let query = random_row(&mut rng, &cardinalities, 0.2);
                for r in 0..d {
                    assert!(
                        (flat.value_similarity(r, query[r])
                            - reference.value_similarity(r, query[r]))
                        .abs()
                            < TOLERANCE
                    );
                }
                assert!(
                    (flat.similarity(&query) - reference.similarity(&query)).abs() < TOLERANCE,
                    "similarity mismatch (case {case_seed})"
                );
            }
        }

        // Draining every member restores the pristine empty state.
        for row in members.drain(..) {
            flat.remove(&row);
            reference.remove(&row);
        }
        assert_eq!(flat, ClusterProfile::new(&schema));
    }
}

/// The per-value product every reader of a profile forms.
fn product(profile: &ClusterProfile, r: usize, code: u32) -> f64 {
    profile.feature_counts(r)[code as usize] as f64 * profile.inv_present(r)
}

/// Checks `value_similarity` and `similarity` against the products and
/// their ascending-feature sum, bit for bit.
fn assert_products_bit_exact(profile: &ClusterProfile, query: &[u32]) {
    let d = query.len();
    let mut plain = 0.0f64;
    for r in 0..d {
        if query[r] == MISSING {
            assert_eq!(profile.value_similarity(r, MISSING).to_bits(), 0.0f64.to_bits());
            continue;
        }
        let s = product(profile, r, query[r]);
        assert_eq!(profile.value_similarity(r, query[r]).to_bits(), s.to_bits(), "feature {r}");
        plain += s;
    }
    let plain = plain * (1.0 / d as f64);
    assert_eq!(profile.similarity(query).to_bits(), plain.to_bits(), "similarity");
}

#[test]
fn float_kernels_are_the_read_time_products_bit_for_bit() {
    for case_seed in 0..30u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0xB17E ^ case_seed);
        let d = rng.gen_range(1usize..9);
        // Even seeds take the uniform-stride path, odd seeds the CSR path.
        let cardinalities: Vec<u32> = if case_seed % 2 == 0 {
            vec![rng.gen_range(2u32..7); d]
        } else {
            (0..d).map(|_| rng.gen_range(2u32..7)).collect()
        };
        let schema = Schema::new(
            cardinalities
                .iter()
                .enumerate()
                .map(|(r, &m)| categorical_data::FeatureDomain::anonymous(format!("f{r}"), m))
                .collect(),
        );
        let mut profile = ClusterProfile::new(&schema);
        let mut members: Vec<Vec<u32>> = Vec::new();
        for _step in 0..80 {
            match rng.gen_range(0..10) {
                0..=3 => {
                    let row = random_row(&mut rng, &cardinalities, 0.15);
                    profile.add(&row);
                    members.push(row);
                }
                4..=5 if !members.is_empty() => {
                    let row = members.swap_remove(rng.gen_range(0..members.len()));
                    profile.remove(&row);
                }
                6..=8 => {
                    let batch: Vec<Vec<u32>> = (0..rng.gen_range(0..6))
                        .map(|_| random_row(&mut rng, &cardinalities, 0.15))
                        .collect();
                    profile.extend_rows(batch.iter().map(Vec::as_slice));
                    members.extend(batch);
                }
                _ => {
                    profile.reset();
                    members.clear();
                }
            }
            assert_eq!(profile.size() as usize, members.len());
            for _q in 0..3 {
                let query = random_row(&mut rng, &cardinalities, 0.2);
                assert_products_bit_exact(&profile, &query);
            }
        }
    }
}
