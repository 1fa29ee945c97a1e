//! Classic frequency-sensitive competitive learning (Section II-B,
//! Eqs. 3–8): winners are awarded, frequent winners are handicapped through
//! the winning ratio ρ, and emptied clusters are pruned — but there is *no*
//! rival penalization and *no* multi-granular re-launch. This is the
//! mechanism ablation variant MCDC₂ uses with `k = k* + 2`.

use categorical_data::CategoricalTable;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::{ClusterProfile, McdcError};

/// Classic competitive learner. Construct via [`CompetitiveLearning::new`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompetitiveLearning {
    learning_rate: f64,
    max_iterations: usize,
    seed: u64,
}

/// Output of one competitive learning run.
#[derive(Debug, Clone, PartialEq)]
pub struct CompetitiveResult {
    /// Final labels, dense `0..k_final`.
    pub labels: Vec<usize>,
    /// Number of clusters surviving the competition.
    pub k_final: usize,
    /// Learning passes used.
    pub iterations: usize,
}

impl CompetitiveLearning {
    /// Creates a learner with learning rate `eta` (the paper's η) and a
    /// deterministic `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `eta` is not in `(0, 1)`.
    pub fn new(eta: f64, seed: u64) -> Self {
        assert!(eta > 0.0 && eta < 1.0, "learning rate must be in (0, 1)");
        CompetitiveLearning { learning_rate: eta, max_iterations: 100, seed }
    }

    /// Caps the learning passes (default 100).
    pub fn with_max_iterations(mut self, cap: usize) -> Self {
        assert!(cap > 0, "max_iterations must be positive");
        self.max_iterations = cap;
        self
    }

    /// Runs competitive learning from `k0` random seed clusters.
    ///
    /// # Errors
    ///
    /// Returns [`McdcError::EmptyInput`] on an empty table and
    /// [`McdcError::InvalidK`] when `k0` is zero or exceeds `n`.
    pub fn fit(&self, table: &CategoricalTable, k0: usize) -> Result<CompetitiveResult, McdcError> {
        let n = table.n_rows();
        if n == 0 {
            return Err(McdcError::EmptyInput);
        }
        if k0 == 0 || k0 > n {
            return Err(McdcError::InvalidK { k: k0, n });
        }

        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut seeds: Vec<usize> = (0..n).collect();
        seeds.shuffle(&mut rng);
        seeds.truncate(k0);

        // Structure-of-arrays cluster state so the scoring sweep runs the
        // fused flat kernel (same layout rationale as MGCPL's run_stage).
        let layout = table.schema().csr_layout();
        let mut profiles: Vec<ClusterProfile> = seeds
            .iter()
            .map(|&i| {
                let mut profile = ClusterProfile::with_layout(layout.clone());
                profile.add(table.row(i));
                profile
            })
            .collect();
        let mut weight = vec![1.0 / k0 as f64; k0];
        let mut wins_prev = vec![0u64; k0];
        let mut wins_now = vec![0u64; k0];
        let mut assignment: Vec<Option<usize>> = vec![None; n];
        for (c, &i) in seeds.iter().enumerate() {
            assignment[i] = Some(c);
        }

        let mut iterations = 0;
        for _ in 0..self.max_iterations {
            iterations += 1;
            let mut changed = false;
            // The winning ratio ρ is maintained *online* (cumulative wins
            // including the pass in progress, DeSieno-style): computing it
            // only from completed passes lets the first few winners snowball
            // unchecked through pass 1 — upward-only u plus a richer profile
            // win every subsequent object and the run collapses to k = 1
            // before the handicap ever engages.
            let mut total_wins: u64 = wins_prev.iter().sum();
            wins_now.fill(0);
            let k = profiles.len();

            // `total_wins` is not a plain loop counter: it starts from the
            // previous passes' cumulative wins, so the iterator rewrite the
            // lint wants would change the ρ denominators.
            #[allow(clippy::explicit_counter_loop)]
            for i in 0..n {
                let row = table.row(i);
                // Winner by Eq. (6): argmax (1 − ρ_l) · u_l · s(x_i, C_l).
                // ρ changes every object (total_wins is online), so the
                // prefactor is formed per object and cluster — cheap (no
                // sigmoid here) next to the feature sweep it scales.
                let inv_total = if total_wins == 0 { 0.0 } else { 1.0 / total_wins as f64 };
                let mut best = 0usize;
                let mut best_score = f64::NEG_INFINITY;
                for (l, profile) in profiles.iter().enumerate() {
                    let rho = (wins_prev[l] + wins_now[l]) as f64 * inv_total;
                    let score = ((1.0 - rho) * weight[l]) * profile.similarity(row);
                    if score > best_score {
                        best_score = score;
                        best = l;
                    }
                }
                total_wins += 1;
                if assignment[i] != Some(best) {
                    if let Some(p) = assignment[i] {
                        profiles[p].remove(row);
                    }
                    profiles[best].add(row);
                    assignment[i] = Some(best);
                    changed = true;
                }
                wins_now[best] += 1;
                // Award the winner by a small step (Eq. 8), respecting the
                // paper's 0 ≤ u ≤ 1 constraint.
                weight[best] = (weight[best] + self.learning_rate).min(1.0);
            }

            // Prune emptied clusters, compacting every parallel array.
            if profiles.iter().any(ClusterProfile::is_empty) {
                let mut remap: Vec<Option<usize>> = Vec::with_capacity(k);
                let mut next = 0usize;
                for l in 0..k {
                    if profiles[l].is_empty() {
                        remap.push(None);
                        continue;
                    }
                    if next != l {
                        profiles.swap(next, l);
                        weight[next] = weight[l];
                        wins_prev[next] = wins_prev[l];
                        wins_now[next] = wins_now[l];
                    }
                    remap.push(Some(next));
                    next += 1;
                }
                profiles.truncate(next);
                weight.truncate(next);
                wins_prev.truncate(next);
                wins_now.truncate(next);
                for slot in assignment.iter_mut() {
                    if let Some(c) = *slot {
                        *slot = remap[c];
                    }
                }
                changed = true;
            }

            // Cumulative win shares (running-average conscience), for the
            // same reason as in MGCPL: a per-pass ρ snapshot oscillates at
            // small k and merges clusters past the natural structure.
            for (prev, &now) in wins_prev.iter_mut().zip(&wins_now) {
                *prev += now;
            }
            if !changed {
                break;
            }
        }

        // Densify labels.
        let mut remap = std::collections::HashMap::new();
        let labels: Vec<usize> = assignment
            .iter()
            .map(|slot| {
                let c = slot.expect("all objects assigned after a pass");
                let next = remap.len();
                *remap.entry(c).or_insert(next)
            })
            .collect();
        let k_final = remap.len();
        Ok(CompetitiveResult { labels, k_final, iterations })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use categorical_data::synth::GeneratorConfig;

    fn separated(n: usize, k: usize, seed: u64) -> CategoricalTable {
        GeneratorConfig::new("t", n, vec![4; 8], k)
            .noise(0.05)
            .generate(seed)
            .dataset
            .into_parts()
            .0
    }

    #[test]
    fn labels_cover_all_objects() {
        let table = separated(150, 2, 1);
        let result = CompetitiveLearning::new(0.03, 1).fit(&table, 4).unwrap();
        assert_eq!(result.labels.len(), 150);
        assert!(result.labels.iter().all(|&l| l < result.k_final));
    }

    #[test]
    fn eliminates_redundant_clusters() {
        let table = separated(300, 2, 2);
        let result = CompetitiveLearning::new(0.03, 3).fit(&table, 6).unwrap();
        assert!(result.k_final < 6, "k_final={}", result.k_final);
    }

    #[test]
    fn rejects_bad_k0() {
        let table = separated(10, 2, 1);
        assert!(CompetitiveLearning::new(0.03, 1).fit(&table, 0).is_err());
        assert!(CompetitiveLearning::new(0.03, 1).fit(&table, 11).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let table = separated(100, 2, 5);
        let cl = CompetitiveLearning::new(0.03, 9);
        assert_eq!(cl.fit(&table, 4).unwrap(), cl.fit(&table, 4).unwrap());
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn rejects_bad_eta() {
        let _ = CompetitiveLearning::new(1.5, 0);
    }
}
