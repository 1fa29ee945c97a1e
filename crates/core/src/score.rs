//! The one Eq. (14) scoring table behind MGCPL and frozen serving
//! (DESIGN.md §3, §9).
//!
//! Cluster `l`'s term for flat value `v` (`ω_rl · c/p` under ω-weighting,
//! the plain `c/p` otherwise) sits at `table[v · k_pad + l]`, the `k`
//! entries of a value zero-padded to a multiple of [`LANES`]. Scoring a row
//! sums its `d` contiguous columns in `[f64; LANES]` register blocks and
//! hands each raw sum to a fold: [`argmax`](ScoreTable::argmax) for
//! serving, [`top2`](ScoreTable::top2) for MGCPL's winner and rival. Both
//! are bit-exact with a per-profile [`ClusterProfile::similarity`] sweep:
//! the same products, summed from `0.0` in ascending feature order (MISSING
//! skipped), and a score is always `prefactor · (sum · post_scale)`.

use categorical_data::MISSING;

use crate::workspace::copy_into;
use crate::ClusterProfile;

/// Width of one accumulator block: the per-value cluster columns are padded
/// to a multiple of this, so every block reads one fixed-size chunk (a
/// cache line of f64s) the compiler keeps in registers.
const LANES: usize = 8;

/// `k` rounded up to a whole number of [`LANES`]-wide blocks.
pub(crate) fn padded(k: usize) -> usize {
    k.div_ceil(LANES) * LANES
}

/// Value-major, lane-padded scoring table over `k` clusters.
#[derive(Debug, Clone, Default)]
pub(crate) struct ScoreTable {
    /// Number of clusters.
    k: usize,
    /// `k` rounded up to a multiple of [`LANES`]; the column stride.
    k_pad: usize,
    /// `table[v · k_pad + l]`: cluster `l`'s term for flat value `v`;
    /// padded lanes (`l ≥ k`) are zero.
    table: Vec<f64>,
}

/// The [`ScoreTable::top2`] verdict: the argmax of the scores and the
/// runner-up, with their raw sweep sums (`similarity = sum · post_scale`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Top2 {
    pub(crate) winner: usize,
    /// `usize::MAX` when there is only one cluster.
    pub(crate) rival: usize,
    pub(crate) winner_sum: f64,
    pub(crate) rival_sum: f64,
}

impl ScoreTable {
    /// Wraps an already laid-out table of `padded(k)`-wide columns (a
    /// deserialized frozen model).
    pub(crate) fn from_parts(k: usize, table: Vec<f64>) -> ScoreTable {
        ScoreTable { k, k_pad: padded(k), table }
    }

    /// Number of clusters.
    pub(crate) fn k(&self) -> usize {
        self.k
    }

    /// The raw lane-padded entries, value-major.
    pub(crate) fn entries(&self) -> &[f64] {
        &self.table
    }

    /// Rebuilds the whole table from `profiles` — `O(k_pad · total_values)`.
    /// `omega`, when given, is the row-major `k × d` feature-weight matrix
    /// folded into every entry.
    pub(crate) fn rebuild(&mut self, profiles: &[ClusterProfile], omega: Option<&[f64]>) {
        self.k = profiles.len();
        self.k_pad = padded(self.k);
        self.table.clear();
        let Some(first) = profiles.first() else { return };
        let d = first.n_features();
        self.table.resize(first.layout().total_values() * self.k_pad, 0.0);
        for (l, profile) in profiles.iter().enumerate() {
            let omega_row = omega.map(|w| &w[l * d..(l + 1) * d]);
            for r in 0..d {
                self.write_feature(l, profile, r, omega_row.map_or(1.0, |w| w[r]));
            }
        }
    }

    /// Re-syncs cluster `l`'s entries for the features `row` touches, after
    /// `profile`'s counts changed by that row (`O(Σ m_r)` over them).
    pub(crate) fn sync(
        &mut self,
        l: usize,
        profile: &ClusterProfile,
        row: &[u32],
        omega_row: Option<&[f64]>,
    ) {
        for (r, &code) in row.iter().enumerate() {
            if code != MISSING {
                self.write_feature(l, profile, r, omega_row.map_or(1.0, |w| w[r]));
            }
        }
    }

    /// Writes `w · (count · 1/present)` for every value of feature `r`.
    fn write_feature(&mut self, l: usize, profile: &ClusterProfile, r: usize, w: f64) {
        let k_pad = self.k_pad;
        for (v, s) in profile.layout().range(r).zip(profile.relative_frequencies(r)) {
            self.table[v * k_pad + l] = w * s;
        }
    }

    /// `*self = src.clone()`, reusing the entry buffer.
    pub(crate) fn copy_from(&mut self, src: &ScoreTable, allocs: &mut u64) {
        self.k = src.k;
        self.k_pad = src.k_pad;
        copy_into(&mut self.table, &src.table, allocs);
    }

    /// The one sweep: the sums of the row's columns over the [`LANES`]
    /// clusters from `block` on, in ascending feature order (MISSING
    /// skipped; lanes past `k` sum padding zeros). `offsets` are the
    /// schema's `d + 1` CSR offsets; the row must be admissible.
    #[inline]
    fn block_sums(&self, row: &[u32], offsets: &[u32], block: usize) -> [f64; LANES] {
        debug_assert_eq!(row.len() + 1, offsets.len(), "row arity mismatches the table");
        let mut acc = [0.0f64; LANES];
        for (&code, pair) in row.iter().zip(offsets.windows(2)) {
            if code != MISSING {
                debug_assert!(code < pair[1] - pair[0], "code out of domain");
                let base = (pair[0] as usize + code as usize) * self.k_pad + block;
                let column: &[f64; LANES] =
                    self.table[base..base + LANES].try_into().expect("padded column block");
                for (a, &term) in acc.iter_mut().zip(column) {
                    *a += term;
                }
            }
        }
        acc
    }

    /// The serving fold: the cluster with the highest
    /// `prefactors[l] · (sum · post_scale)`, strict `>` so the first index
    /// wins ties (0 when every score is NaN).
    #[inline]
    pub(crate) fn argmax(
        &self,
        row: &[u32],
        offsets: &[u32],
        prefactors: &[f64],
        post_scale: f64,
    ) -> usize {
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        let mut block = 0usize;
        while block < self.k {
            let sums = self.block_sums(row, offsets, block);
            for (lane, &sum) in sums.iter().enumerate().take(LANES.min(self.k - block)) {
                let score = prefactors[block + lane] * (sum * post_scale);
                if score > best_score {
                    best_score = score;
                    best = block + lane;
                }
            }
            block += LANES;
        }
        best
    }

    /// MGCPL's fold, Eqs. (6)/(9): the winner (argmax of the scores) and the
    /// rival (the runner-up), both first-index-wins on ties, with their raw
    /// sums.
    ///
    /// # Panics
    ///
    /// Panics when the table holds no cluster.
    #[inline]
    pub(crate) fn top2(
        &self,
        row: &[u32],
        offsets: &[u32],
        prefactors: &[f64],
        post_scale: f64,
    ) -> Top2 {
        assert!(self.k > 0, "cannot score against zero clusters");
        let mut top = Top2 { winner: 0, rival: usize::MAX, winner_sum: 0.0, rival_sum: 0.0 };
        let mut best_score = 0.0f64;
        let mut rival_score = f64::NEG_INFINITY;
        let mut block = 0usize;
        while block < self.k {
            let sums = self.block_sums(row, offsets, block);
            for (lane, &sum) in sums.iter().enumerate().take(LANES.min(self.k - block)) {
                let l = block + lane;
                let score = prefactors[l] * (sum * post_scale);
                if l == 0 {
                    best_score = score;
                    top.winner_sum = sum;
                } else if score > best_score {
                    top.rival = top.winner;
                    top.rival_sum = top.winner_sum;
                    rival_score = best_score;
                    top.winner = l;
                    top.winner_sum = sum;
                    best_score = score;
                } else if top.rival == usize::MAX || score > rival_score {
                    top.rival = l;
                    top.rival_sum = sum;
                    rival_score = score;
                }
            }
            block += LANES;
        }
        top
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use categorical_data::{FeatureDomain, Schema};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Mixed cardinalities, so the CSR offsets are not a uniform stride.
    const CARDINALITIES: [u32; 4] = [3, 5, 2, 4];

    fn schema() -> Schema {
        Schema::new(
            CARDINALITIES
                .iter()
                .enumerate()
                .map(|(r, &m)| FeatureDomain::anonymous(format!("f{r}"), m))
                .collect(),
        )
    }

    fn random_row(rng: &mut ChaCha8Rng, missing_rate: f64) -> Vec<u32> {
        CARDINALITIES
            .iter()
            .map(|&m| if rng.gen_bool(missing_rate) { MISSING } else { rng.gen_range(0..m) })
            .collect()
    }

    /// The nested-vec ω-weighted reference: `Σ_r w_r · (count · 1/present)`
    /// over the members' per-feature counts, ascending feature order.
    fn weighted_reference(members: &[&[u32]], row: &[u32], weights: &[f64]) -> f64 {
        let mut sum = 0.0f64;
        for (r, &code) in row.iter().enumerate().filter(|&(_, &code)| code != MISSING) {
            let present: Vec<u32> =
                members.iter().map(|m| m[r]).filter(|&c| c != MISSING).collect();
            let inv = if present.is_empty() { 0.0 } else { 1.0 / present.len() as f64 };
            let count = present.iter().filter(|&&c| c == code).count();
            sum += weights[r] * (count as f64 * inv);
        }
        sum
    }

    /// Winner and rival by a plain scan over materialized scores.
    fn reference_top2(scores: &[f64]) -> (usize, usize) {
        let (mut best, mut rival) = (0usize, usize::MAX);
        for l in 1..scores.len() {
            if scores[l] > scores[best] {
                rival = best;
                best = l;
            } else if rival == usize::MAX || scores[l] > scores[rival] {
                rival = l;
            }
        }
        (best, rival)
    }

    #[test]
    fn folds_match_per_profile_references_across_padding() {
        let schema = schema();
        let layout = schema.csr_layout();
        let d = CARDINALITIES.len();
        let mut rng = ChaCha8Rng::seed_from_u64(0x7AB1E);
        // k = 1 has no rival, 7 and 9 and 17 leave padded lanes, 8 none.
        for k in [1usize, 7, 8, 9, 17] {
            let rows: Vec<Vec<u32>> = (0..6 * k).map(|_| random_row(&mut rng, 0.2)).collect();
            let labels: Vec<usize> = (0..rows.len()).map(|_| rng.gen_range(0..k)).collect();
            let members: Vec<Vec<&[u32]>> = (0..k)
                .map(|l| {
                    rows.iter().zip(&labels).filter(|(_, &c)| c == l).map(|(r, _)| &r[..]).collect()
                })
                .collect();
            let profiles: Vec<ClusterProfile> = members
                .iter()
                .map(|m| {
                    let mut p = ClusterProfile::with_layout(layout.clone());
                    p.extend_rows(m.iter().copied());
                    p
                })
                .collect();
            let omega: Vec<f64> = (0..k * d).map(|_| rng.gen_range(0.01..1.0)).collect();
            let prefactors: Vec<f64> = (0..k).map(|_| rng.gen_range(0.1..1.0)).collect();
            for weighted in [false, true] {
                let mut table = ScoreTable::default();
                table.rebuild(&profiles, weighted.then_some(&omega[..]));
                assert_eq!(table.k(), k);
                assert_eq!(table.entries().len(), layout.total_values() * padded(k));
                for v in 0..layout.total_values() {
                    for lane in k..padded(k) {
                        assert_eq!(table.entries()[v * padded(k) + lane].to_bits(), 0);
                    }
                }
                let post_scale = if weighted { 1.0 } else { 1.0 / d as f64 };
                for _ in 0..40 {
                    let row = random_row(&mut rng, 0.25);
                    let similarities: Vec<f64> = (0..k)
                        .map(|l| {
                            if weighted {
                                weighted_reference(&members[l], &row, &omega[l * d..(l + 1) * d])
                            } else {
                                profiles[l].similarity(&row)
                            }
                        })
                        .collect();
                    let scores: Vec<f64> =
                        (0..k).map(|l| prefactors[l] * similarities[l]).collect();
                    let top = table.top2(&row, layout.offsets(), &prefactors, post_scale);
                    let (winner, rival) = reference_top2(&scores);
                    let case = format!("k={k} weighted={weighted} row={row:?}");
                    assert_eq!((top.winner, top.rival), (winner, rival), "{case}");
                    assert_eq!(
                        (top.winner_sum * post_scale).to_bits(),
                        similarities[winner].to_bits(),
                        "{case}"
                    );
                    if rival != usize::MAX {
                        assert_eq!(
                            (top.rival_sum * post_scale).to_bits(),
                            similarities[rival].to_bits(),
                            "{case}"
                        );
                    }
                    let best = table.argmax(&row, layout.offsets(), &prefactors, post_scale);
                    assert_eq!(best, winner, "{case}");
                }
            }
        }
    }

    #[test]
    fn ties_go_to_the_first_index_and_a_single_cluster_has_no_rival() {
        let schema = Schema::uniform(2, 2);
        let layout = schema.csr_layout();
        let mut profile = ClusterProfile::new(&schema);
        profile.add(&[0, 1]);
        let mut table = ScoreTable::default();
        table.rebuild(std::slice::from_ref(&profile), None);
        let top = table.top2(&[0, 1], layout.offsets(), &[1.0], 0.5);
        assert_eq!((top.winner, top.rival), (0, usize::MAX));
        assert_eq!((top.winner_sum * 0.5).to_bits(), profile.similarity(&[0, 1]).to_bits());
        // Nine identical clusters span two blocks: every row ties.
        let clones = vec![profile; 9];
        table.rebuild(&clones, None);
        for row in [[0, 1], [1, 0], [MISSING, MISSING]] {
            let top = table.top2(&row, layout.offsets(), &[1.0; 9], 0.5);
            assert_eq!((top.winner, top.rival), (0, 1));
            assert_eq!(table.argmax(&row, layout.offsets(), &[1.0; 9], 0.5), 0);
        }
    }
}
