//! Reference MGCPL: the multi-granular competitive penalization cascade of
//! Alg. 1, transcribed line by line — serial, eager, one object at a time.
//!
//! Each granularity level runs rival-penalized competitive learning to a
//! partition fixpoint (Eqs. 4–13), prunes clusters that lose every member,
//! refreshes the per-cluster feature weights ω (Eqs. 15–18), then
//! re-launches at the next (coarser) level (step 13) until the cluster
//! count stabilizes. The surviving partitions, finest first, are the
//! multi-granular Γ with cluster counts κ.

use categorical_data::CategoricalTable;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::profile::{feature_weights, GlobalCounts, Profile};
use crate::{sigmoid_weight, ReferenceConfig};

/// Learning passes per granularity level before moving on (Alg. 1's inner
/// loop bound; matches the production default).
const MAX_INNER_ITERATIONS: usize = 8;
/// Granularity levels before giving up on κ stabilizing.
const MAX_STAGES: usize = 64;
/// Largest default `k₀`; matches the production default.
const DEFAULT_K0_CAP: usize = 64;

/// Output of the reference MGCPL stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReferenceMgcpl {
    /// One label vector per granularity, finest first, labels dense `0..κ`.
    pub partitions: Vec<Vec<usize>>,
    /// Cluster count per granularity (strictly decreasing).
    pub kappa: Vec<usize>,
}

impl ReferenceMgcpl {
    /// Number of granularity levels σ.
    pub fn sigma(&self) -> usize {
        self.partitions.len()
    }
}

/// One granularity level's mutable learning state.
struct Level {
    profiles: Vec<Profile>,
    /// Winning-amount δ_l of Eqs. (12)–(13), clamped to [0, 1].
    delta: Vec<f64>,
    /// Cumulative wins this stage (the ρ conscience of Eq. 7 reads these).
    wins_prev: Vec<u64>,
    /// Wins inside the current pass.
    wins_now: Vec<u64>,
    /// Per-cluster feature weights ω_l (Eq. 18), row per cluster.
    omega: Vec<Vec<f64>>,
}

/// Runs the reference multi-granular cascade on `table`.
///
/// # Errors
///
/// Returns a description of the invalid input: an empty table, or a
/// configured `k₀` outside `1..=n`.
pub fn reference_mgcpl(
    table: &CategoricalTable,
    config: &ReferenceConfig,
) -> Result<ReferenceMgcpl, String> {
    let n = table.n_rows();
    if n == 0 {
        return Err("empty input table".into());
    }
    let d = table.n_features();
    let k0 = match config.initial_k {
        Some(k) if k == 0 || k > n => return Err(format!("initial k {k} out of 1..={n}")),
        Some(k) => k,
        // The paper's √n heuristic (Alg. 1 step 2) capped at 64, which
        // keeps stage 1 linear in n, at least 2 but never more than n.
        None => ((n as f64).sqrt().round() as usize).clamp(2, DEFAULT_K0_CAP).min(n),
    };
    let cardinalities: Vec<usize> =
        table.schema().cardinalities().iter().map(|&m| m as usize).collect();
    let global = GlobalCounts::from_table(table);
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);

    // Alg. 1 step 3: seed k₀ clusters on random distinct objects.
    let mut seeds: Vec<usize> = (0..n).collect();
    seeds.shuffle(&mut rng);
    seeds.truncate(k0);

    let mut level = Level {
        profiles: seeds
            .iter()
            .map(|&i| {
                let mut profile = Profile::new(&cardinalities);
                profile.add(table.row(i));
                profile
            })
            .collect(),
        delta: vec![1.0; k0],
        wins_prev: vec![0; k0],
        wins_now: vec![0; k0],
        omega: vec![vec![1.0 / d as f64; d]; k0],
    };
    let mut assignment: Vec<Option<usize>> = vec![None; n];
    for (c, &i) in seeds.iter().enumerate() {
        assignment[i] = Some(c);
    }

    let mut partitions: Vec<Vec<usize>> = Vec::new();
    let mut kappa: Vec<usize> = Vec::new();
    let mut k_old = level.profiles.len();

    for stage in 1..=MAX_STAGES {
        run_level(table, &global, &mut level, &mut assignment, &mut rng, config);
        let k_after = level.profiles.len();

        // κ converged when a whole level changes nothing (needs a previous
        // level to compare against).
        let converged = stage > 1 && k_after == k_old;
        if !converged {
            partitions.push(dense_labels(&assignment));
            kappa.push(k_after);
        }
        if converged || k_after <= 1 {
            break;
        }
        k_old = k_after;

        // Re-launch for the next, coarser granularity (Alg. 1 step 13):
        // reset the competition statistics.
        level.wins_prev.iter_mut().for_each(|w| *w = 0);
        level.wins_now.iter_mut().for_each(|w| *w = 0);
        level.delta.fill(1.0);
        for omega in level.omega.iter_mut() {
            omega.fill(1.0 / d as f64);
        }
    }

    Ok(ReferenceMgcpl { partitions, kappa })
}

/// One granularity level: competitive penalization passes to the partition
/// fixpoint (Alg. 1 steps 4–12).
fn run_level(
    table: &CategoricalTable,
    global: &GlobalCounts,
    level: &mut Level,
    assignment: &mut [Option<usize>],
    rng: &mut ChaCha8Rng,
    config: &ReferenceConfig,
) {
    let n = table.n_rows();
    let d = table.n_features();
    let eta = config.learning_rate;
    let mut order: Vec<usize> = (0..n).collect();

    for _ in 0..MAX_INNER_ITERATIONS {
        // Random presentation order per pass (the shuffles compose, so no
        // two passes present in the same order).
        order.shuffle(rng);

        // Pass-start snapshot of the conscience: ρ_l is cluster l's share
        // of all wins so far this stage (Eq. 7), and the competition
        // prefactor (1 − ρ_l) · u(δ_l) is fixed for the pass except where
        // δ moves (Eqs. 6, 11).
        let k = level.profiles.len();
        let total_prev: u64 = level.wins_prev.iter().sum();
        level.wins_now.iter_mut().for_each(|w| *w = 0);
        let one_minus_rho: Vec<f64> = level
            .wins_prev
            .iter()
            .map(|&w| if total_prev == 0 { 1.0 } else { 1.0 - w as f64 / total_prev as f64 })
            .collect();
        let mut prefactors: Vec<f64> = one_minus_rho
            .iter()
            .zip(&level.delta)
            .map(|(&m, &delta)| m * sigmoid_weight(delta))
            .collect();
        // Weighted similarity (Eq. 14) is already a normalized sum; the
        // unweighted Eq. (1) needs the 1/d mean applied after the raw sum.
        let post_scale = if config.weighted_similarity { 1.0 } else { 1.0 / d as f64 };

        let mut changed = false;
        let mut scores = vec![0.0f64; k];
        let mut sums = vec![0.0f64; k];
        for &i in &order {
            let row = table.row(i);

            // Score every cluster (Eq. 6) and pick winner v and rival h
            // (Eqs. 4, 9) — lowest index wins ties, scanned in order.
            for (l, profile) in level.profiles.iter().enumerate() {
                let weights = config.weighted_similarity.then(|| level.omega[l].as_slice());
                sums[l] = profile.similarity_sum(row, weights);
                scores[l] = prefactors[l] * (sums[l] * post_scale);
            }
            let (best, rival) = winner_and_rival(&scores);

            // Move the object to the winner (Eq. 10), updating counts.
            let previous = assignment[i];
            if previous != Some(best) {
                if let Some(p) = previous {
                    level.profiles[p].remove(row);
                }
                level.profiles[best].add(row);
                changed = true;
            }
            assignment[i] = Some(best);
            level.wins_now[best] += 1;

            // Award the winner (Eq. 12); penalize the rival in proportion
            // to how similar it was (Eq. 13). δ stays clamped to [0, 1],
            // and the prefactor is refreshed only when δ actually moved.
            let awarded = (level.delta[best] + eta).min(1.0);
            if awarded != level.delta[best] {
                level.delta[best] = awarded;
                prefactors[best] = one_minus_rho[best] * sigmoid_weight(awarded);
            }
            if rival != usize::MAX {
                let rival_similarity = sums[rival] * post_scale;
                let penalized = (level.delta[rival] - eta * rival_similarity).max(0.0);
                if penalized != level.delta[rival] {
                    level.delta[rival] = penalized;
                    prefactors[rival] = one_minus_rho[rival] * sigmoid_weight(penalized);
                }
            }
        }

        // Eliminate clusters that lost every member; an elimination resets
        // the survivors' competition statistics (the step-13 re-launch
        // applied at the elimination event).
        if level.profiles.iter().any(Profile::is_empty) {
            prune_empty(level, assignment);
            level.delta.fill(1.0);
            level.wins_prev.iter_mut().for_each(|w| *w = 0);
            level.wins_now.iter_mut().for_each(|w| *w = 0);
            changed = true;
        }

        // Refresh ω per cluster (Alg. 1 step 11, Eqs. 15–18).
        if config.weighted_similarity {
            for (profile, omega) in level.profiles.iter().zip(level.omega.iter_mut()) {
                *omega = feature_weights(profile, global);
            }
        }

        // Fold this pass's wins into the stage-running conscience.
        for (prev, &now) in level.wins_prev.iter_mut().zip(&level.wins_now) {
            *prev += now;
        }

        if !changed {
            break;
        }
    }
}

/// Argmax and runner-up over the competition scores, first index winning
/// ties (`usize::MAX` rival when only one cluster competes).
fn winner_and_rival(scores: &[f64]) -> (usize, usize) {
    let mut best = 0usize;
    let mut rival = usize::MAX;
    let mut best_score = scores[0];
    let mut rival_score = f64::NEG_INFINITY;
    for (l, &score) in scores.iter().enumerate().skip(1) {
        if score > best_score {
            rival = best;
            rival_score = best_score;
            best = l;
            best_score = score;
        } else if rival == usize::MAX || score > rival_score {
            rival = l;
            rival_score = score;
        }
    }
    (best, rival)
}

/// Drops empty clusters, compacting the parallel state vectors in place
/// (surviving clusters keep their relative order) and re-mapping the
/// assignment indices.
fn prune_empty(level: &mut Level, assignment: &mut [Option<usize>]) {
    let k = level.profiles.len();
    let mut remap: Vec<Option<usize>> = Vec::with_capacity(k);
    let mut next = 0usize;
    for l in 0..k {
        if level.profiles[l].is_empty() {
            remap.push(None);
        } else {
            remap.push(Some(next));
            next += 1;
        }
    }
    let mut survives = remap.iter().map(Option::is_some);
    level.profiles.retain(|_| survives.next().unwrap());
    let mut survives = remap.iter().map(Option::is_some);
    level.delta.retain(|_| survives.next().unwrap());
    let mut survives = remap.iter().map(Option::is_some);
    level.wins_prev.retain(|_| survives.next().unwrap());
    let mut survives = remap.iter().map(Option::is_some);
    level.wins_now.retain(|_| survives.next().unwrap());
    let mut survives = remap.iter().map(Option::is_some);
    level.omega.retain(|_| survives.next().unwrap());
    for slot in assignment.iter_mut() {
        if let Some(c) = *slot {
            *slot = remap[c];
        }
    }
}

/// Densifies an assignment into labels `0..κ` in first-appearance order.
fn dense_labels(assignment: &[Option<usize>]) -> Vec<usize> {
    let k = assignment.iter().map(|slot| slot.map_or(0, |c| c + 1)).max().unwrap_or(0);
    let mut remap: Vec<usize> = vec![usize::MAX; k];
    let mut next = 0usize;
    assignment
        .iter()
        .map(|slot| {
            let c = slot.expect("every object is assigned after a learning pass");
            if remap[c] == usize::MAX {
                remap[c] = next;
                next += 1;
            }
            remap[c]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use categorical_data::Schema;

    fn block_table(n_per: usize) -> CategoricalTable {
        // Two perfectly separated blocks over 4 binary-ish features.
        let mut t = CategoricalTable::new(Schema::uniform(4, 3));
        for _ in 0..n_per {
            t.push_row(&[0, 0, 0, 0]).unwrap();
        }
        for _ in 0..n_per {
            t.push_row(&[2, 2, 2, 2]).unwrap();
        }
        t
    }

    #[test]
    fn empty_table_is_rejected() {
        let t = CategoricalTable::new(Schema::uniform(2, 2));
        assert!(reference_mgcpl(&t, &ReferenceConfig::default()).is_err());
    }

    #[test]
    fn oversized_initial_k_is_rejected() {
        let t = block_table(3);
        let config = ReferenceConfig { initial_k: Some(7), ..ReferenceConfig::default() };
        assert!(reference_mgcpl(&t, &config).is_err());
    }

    #[test]
    fn kappa_is_strictly_decreasing_with_dense_partitions() {
        let t = block_table(20);
        let result = reference_mgcpl(&t, &ReferenceConfig::default()).unwrap();
        assert!(!result.kappa.is_empty());
        assert!(result.kappa.windows(2).all(|w| w[0] > w[1]), "kappa={:?}", result.kappa);
        for (partition, &kj) in result.partitions.iter().zip(&result.kappa) {
            assert_eq!(partition.len(), 40);
            assert_eq!(crate::distinct_labels(partition), kj);
            assert_eq!(partition.iter().copied().max().unwrap() + 1, kj, "labels must be dense");
        }
        assert_eq!(result.sigma(), result.partitions.len());
    }

    #[test]
    fn identical_objects_collapse_to_one_cluster() {
        let mut t = CategoricalTable::new(Schema::uniform(3, 2));
        for _ in 0..30 {
            t.push_row(&[1, 0, 1]).unwrap();
        }
        let result = reference_mgcpl(&t, &ReferenceConfig::default()).unwrap();
        assert_eq!(*result.kappa.last().unwrap(), 1);
    }

    #[test]
    fn separated_blocks_end_near_two_clusters() {
        let t = block_table(30);
        let result = reference_mgcpl(&t, &ReferenceConfig::default()).unwrap();
        let final_k = *result.kappa.last().unwrap();
        assert!((1..=3).contains(&final_k), "kappa={:?}", result.kappa);
    }

    #[test]
    fn winner_and_rival_break_ties_toward_the_lowest_index() {
        assert_eq!(winner_and_rival(&[0.5, 0.5, 0.2]), (0, 1));
        assert_eq!(winner_and_rival(&[0.1, 0.9, 0.9]), (1, 2));
        assert_eq!(winner_and_rival(&[0.3]), (0, usize::MAX));
    }
}
