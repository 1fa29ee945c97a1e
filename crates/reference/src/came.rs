//! Reference CAME: the cluster-aggregation refinement of Alg. 2 — a
//! θ-weighted k-modes over the Γ encoding, transcribed from the paper with
//! no parallel chunking, no dirty-cluster tracking, no margin caching.

use categorical_data::{CategoricalTable, MISSING};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Refinement iterations before giving up on the (Q, Z, Θ) fixpoint
/// (matches the production default).
const MAX_ITERATIONS: usize = 100;

/// Output of the reference CAME stage.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceCame {
    /// Final labels into `0..k`.
    pub labels: Vec<usize>,
    /// Per-granularity feature weights Θ (sums to 1).
    pub theta: Vec<f64>,
    /// The final cluster modes, one `σ`-length row per cluster.
    pub modes: Vec<Vec<u32>>,
    /// Iterations until the fixpoint (or the cap).
    pub iterations: usize,
}

/// Runs the reference aggregation on a Γ `encoding`, seeking `k` clusters.
///
/// # Errors
///
/// Returns a description of the invalid input (`k` outside `1..=n` or an
/// empty encoding).
pub fn reference_came(
    encoding: &CategoricalTable,
    k: usize,
    weighted: bool,
    seed: u64,
) -> Result<ReferenceCame, String> {
    let n = encoding.n_rows();
    if n == 0 {
        return Err("empty encoding".into());
    }
    if k == 0 || k > n {
        return Err(format!("k {k} out of 1..={n}"));
    }
    let sigma = encoding.n_features();
    let mut theta = vec![1.0 / sigma as f64; sigma];
    let mut modes = initial_modes(encoding, k, seed);
    let mut labels = vec![usize::MAX; n];
    let mut iterations = 0;

    for _ in 0..MAX_ITERATIONS {
        iterations += 1;
        let start_labels = labels.clone();

        // Step 1 (Eq. 20): fix Z and Θ, recompute the partition Q — each
        // object joins its θ-Hamming-nearest mode.
        let mut changed = false;
        for (i, label) in labels.iter_mut().enumerate() {
            let best = nearest_mode(encoding.row(i), &modes, &theta);
            if *label != best {
                *label = best;
                changed = true;
            }
        }

        // Keep exactly k clusters populated: any emptied cluster is
        // re-seeded on the object farthest from its own mode.
        reseed_empty_clusters(encoding, &mut labels, k, &theta, &modes);

        // Step 2 (Eqs. 21–22): fix Q, update the modes Z and weights Θ.
        modes = modes_of_partition(encoding, &labels, k);
        if weighted {
            theta = update_theta(encoding, &labels, &modes, sigma);
        }

        // Stop at the fixpoint: no label moved, or the re-seed moved back
        // exactly the objects Step 1 moved, so Step 2 recomputed the Z and
        // Θ this iteration started from and every later one would repeat it.
        if !changed || labels == start_labels {
            break;
        }
    }

    Ok(ReferenceCame { labels, theta, modes, iterations })
}

/// θ-weighted Hamming distance of Eq. (20)'s inner sum: matching
/// non-missing values cost 0, everything else costs the feature's θ.
pub fn weighted_hamming(row: &[u32], mode: &[u32], theta: &[f64]) -> f64 {
    row.iter()
        .zip(mode)
        .zip(theta)
        .map(|((&a, &b), &w)| if a == b && a != MISSING { 0.0 } else { w })
        .sum()
}

/// Index of the θ-Hamming-nearest mode, lowest cluster index on ties.
fn nearest_mode(row: &[u32], modes: &[Vec<u32>], theta: &[f64]) -> usize {
    let mut best = 0usize;
    let mut best_dist = f64::INFINITY;
    for (l, mode) in modes.iter().enumerate() {
        let dist = weighted_hamming(row, mode, theta);
        if dist < best_dist {
            best_dist = dist;
            best = l;
        }
    }
    best
}

/// Initial modes: the paper's granularity-guided seeding — the modes of the
/// `k` largest clusters of the coarsest granularity still offering at least
/// `k` clusters — with the classic random-objects fallback when no
/// granularity is wide enough.
fn initial_modes(encoding: &CategoricalTable, k: usize, seed: u64) -> Vec<Vec<u32>> {
    if let Some(modes) = granularity_guided_modes(encoding, k) {
        return modes;
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut indices: Vec<usize> = (0..encoding.n_rows()).collect();
    indices.shuffle(&mut rng);
    indices.truncate(k);
    indices.iter().map(|&i| encoding.row(i).to_vec()).collect()
}

/// The guided-seeding half of [`initial_modes`]: groups objects by their
/// label in the guiding granularity, keeps the `k` largest groups (stable
/// on ties), and returns each group's per-feature mode. `None` when no
/// granularity has ≥ `k` clusters or a kept group is empty.
fn granularity_guided_modes(encoding: &CategoricalTable, k: usize) -> Option<Vec<Vec<u32>>> {
    let n = encoding.n_rows();
    let sigma = encoding.n_features();
    // Granularities are ordered finest → coarsest; scan from the coarse end.
    let j = (0..sigma).rev().find(|&j| encoding.schema().domain(j).cardinality() as usize >= k)?;
    let kj = encoding.schema().domain(j).cardinality() as usize;
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); kj];
    for i in 0..n {
        members[encoding.value(i, j) as usize].push(i);
    }
    members.sort_by_key(|m| std::cmp::Reverse(m.len()));
    members.truncate(k);
    if members.iter().any(Vec::is_empty) {
        return None;
    }
    Some(members.iter().map(|m| mode_of_members(encoding, m)).collect())
}

/// Per-feature most frequent value over a member set, ties resolving to the
/// lowest code, features with no present values to code 0.
fn mode_of_members(encoding: &CategoricalTable, members: &[usize]) -> Vec<u32> {
    let sigma = encoding.n_features();
    let mut mode = Vec::with_capacity(sigma);
    for r in 0..sigma {
        let width = encoding.schema().domain(r).cardinality() as usize;
        let mut counts = vec![0u32; width];
        for &i in members {
            let code = encoding.value(i, r);
            if code != MISSING {
                counts[code as usize] += 1;
            }
        }
        let best = counts
            .iter()
            .enumerate()
            .max_by(|(ta, ca), (tb, cb)| ca.cmp(cb).then(tb.cmp(ta)))
            .map_or(0, |(t, _)| t as u32);
        mode.push(best);
    }
    mode
}

/// Eq. (21): the mode of every cluster under the current partition.
fn modes_of_partition(encoding: &CategoricalTable, labels: &[usize], k: usize) -> Vec<Vec<u32>> {
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (i, &l) in labels.iter().enumerate() {
        members[l].push(i);
    }
    members.iter().map(|m| mode_of_members(encoding, m)).collect()
}

/// Eq. (22): θ_r proportional to the number of objects agreeing with their
/// cluster's mode in granularity `r`; uniform when nothing agrees.
fn update_theta(
    encoding: &CategoricalTable,
    labels: &[usize],
    modes: &[Vec<u32>],
    sigma: usize,
) -> Vec<f64> {
    let mut intra = vec![0u64; sigma];
    for (i, &l) in labels.iter().enumerate() {
        let row = encoding.row(i);
        let mode = &modes[l];
        for (slot, (&a, &b)) in intra.iter_mut().zip(row.iter().zip(mode)) {
            if a == b && a != MISSING {
                *slot += 1;
            }
        }
    }
    let total: u64 = intra.iter().sum();
    if total == 0 {
        return vec![1.0 / sigma as f64; sigma];
    }
    let total = total as f64;
    intra.iter().map(|&v| v as f64 / total).collect()
}

/// Moves the farthest objects into any emptied cluster so exactly `k`
/// clusters stay populated: scanning clusters in index order, each empty
/// one takes the object farthest from its own mode among clusters that can
/// spare a member (size > 1), first-found winning distance ties.
fn reseed_empty_clusters(
    encoding: &CategoricalTable,
    labels: &mut [usize],
    k: usize,
    theta: &[f64],
    modes: &[Vec<u32>],
) {
    let mut sizes = vec![0usize; k];
    for &l in labels.iter() {
        sizes[l] += 1;
    }
    for l in 0..k {
        if sizes[l] > 0 {
            continue;
        }
        let mut worst: Option<(usize, f64)> = None;
        for (i, &li) in labels.iter().enumerate() {
            if sizes[li] <= 1 {
                continue;
            }
            let dist = weighted_hamming(encoding.row(i), &modes[li], theta);
            if worst.is_none_or(|(_, w)| dist > w) {
                worst = Some((i, dist));
            }
        }
        if let Some((i, _)) = worst {
            sizes[labels[i]] -= 1;
            labels[i] = l;
            sizes[l] = 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode_granularities;

    fn two_granularities() -> CategoricalTable {
        // 8 objects: fine = 4 clusters of 2, coarse = 2 clusters of 4.
        let fine = vec![0usize, 0, 1, 1, 2, 2, 3, 3];
        let coarse = vec![0usize, 0, 0, 0, 1, 1, 1, 1];
        encode_granularities(&[fine, coarse], &[4, 2]).unwrap()
    }

    #[test]
    fn weighted_hamming_matches_the_worked_example() {
        // Rows [0, 1] vs mode [0, 2] under θ = (0.3, 0.7): feature 0
        // matches (cost 0), feature 1 differs (cost 0.7).
        assert_eq!(weighted_hamming(&[0, 1], &[0, 2], &[0.3, 0.7]), 0.7);
        // A missing value never matches, even against itself.
        assert_eq!(weighted_hamming(&[MISSING], &[MISSING], &[0.4]), 0.4);
        assert_eq!(weighted_hamming(&[1, 1], &[1, 1], &[0.3, 0.7]), 0.0);
    }

    #[test]
    fn recovers_the_matching_granularity_for_each_k() {
        let encoding = two_granularities();
        let coarse = reference_came(&encoding, 2, true, 0).unwrap();
        assert_eq!(coarse.labels[0], coarse.labels[3]);
        assert_eq!(coarse.labels[4], coarse.labels[7]);
        assert_ne!(coarse.labels[0], coarse.labels[4]);
        let fine = reference_came(&encoding, 4, true, 0).unwrap();
        assert_eq!(fine.labels[0], fine.labels[1]);
        assert_ne!(fine.labels[0], fine.labels[2]);
        assert_eq!(crate::distinct_labels(&fine.labels), 4);
    }

    #[test]
    fn theta_sums_to_one_and_modes_have_sigma_features() {
        let encoding = two_granularities();
        let result = reference_came(&encoding, 2, true, 0).unwrap();
        assert!((result.theta.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(result.modes.len(), 2);
        assert!(result.modes.iter().all(|m| m.len() == 2));
        assert!(result.iterations >= 1);
    }

    #[test]
    fn unweighted_mode_keeps_theta_uniform() {
        let encoding = two_granularities();
        let result = reference_came(&encoding, 2, false, 0).unwrap();
        assert_eq!(result.theta, vec![0.5, 0.5]);
    }

    #[test]
    fn invalid_k_is_rejected() {
        let encoding = two_granularities();
        assert!(reference_came(&encoding, 0, true, 0).is_err());
        assert!(reference_came(&encoding, 9, true, 0).is_err());
    }

    #[test]
    fn k_equal_n_yields_singletons() {
        let encoding = encode_granularities(&[vec![0, 1, 2]], &[3]).unwrap();
        let result = reference_came(&encoding, 3, true, 0).unwrap();
        assert_eq!(crate::distinct_labels(&result.labels), 3);
    }
}
