//! The one Eq. (14) scoring table behind MGCPL and frozen serving
//! (DESIGN.md §3, §9).
//!
//! Cluster `l`'s term for flat value `v` (`ω_rl · c/p` under ω-weighting,
//! the plain `c/p` otherwise) sits at `table[v · k_pad + l]`, the `k`
//! entries of a value zero-padded to a multiple of [`LANES`]. Scoring a row
//! sums its `d` contiguous columns in `[f64; LANES]` register blocks and
//! hands each raw sum to a fold: [`top2`](ScoreTable::top2) for MGCPL's
//! winner and rival, [`argmax_rows`](ScoreTable::argmax_rows) for serving,
//! which sweeps a tile of rows per pass and, when `k ≤ 4`, only the live
//! half of the block. Both are bit-exact with a per-profile
//! [`ClusterProfile::similarity`] sweep:
//! the same products, summed from `0.0` in ascending feature order (MISSING
//! skipped), and a score is always `prefactor · (sum · post_scale)`.
//!
//! The streaming learner keeps a [`CountTable`] per granularity instead: the
//! same lane-padded value-major layout, but holding integer counts and
//! per-feature reciprocals, so absorbing a row is `O(d)` writes.

use categorical_data::{CategoricalTable, MISSING};

use crate::profile::{inv_count, INV_TABLE};
use crate::ClusterProfile;

/// Width of one accumulator block: the per-value cluster columns are padded
/// to a multiple of this, so every block reads one fixed-size chunk (a
/// cache line of f64s) the compiler keeps in registers.
const LANES: usize = 8;

/// Serving width when `k ≤ NARROW`: the upper half of the only block holds
/// padding zeros, so the serving sweep skips it.
const NARROW: usize = 4;

/// Rows per serving tile at width [`NARROW`] and at width [`LANES`]: at
/// full width a second row's accumulators measured slower than one row's
/// (DESIGN.md §9 has the measurement).
const NARROW_ROWS: usize = 4;
const WIDE_ROWS: usize = 1;

/// Rows a serving caller gathers before calling
/// [`ScoreTable::argmax_rows`]: a whole number of tiles at either width.
pub(crate) const TILE_ROWS: usize = 4;
const _: () = assert!(TILE_ROWS.is_multiple_of(NARROW_ROWS) && TILE_ROWS.is_multiple_of(WIDE_ROWS));

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
    pub(crate) fn copy_from(&mut self, src: &ScoreTable) {
        self.k = src.k;
        self.k_pad = src.k_pad;
        self.table.clone_from(&src.table);
    }

    /// [`top2`](Self::top2)'s sweep (the `R = 1, W = LANES` case of the
    /// serving tile's): the sums of the row's columns over the [`LANES`]
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

    /// The serving fold over one row: [`argmax_rows`](Self::argmax_rows)
    /// for a batch of one.
    #[inline]
    pub(crate) fn argmax(
        &self,
        row: &[u32],
        offsets: &[u32],
        prefactors: &[f64],
        post_scale: f64,
    ) -> usize {
        if self.k <= NARROW {
            self.argmax_tile::<1, NARROW>([row], offsets, prefactors, post_scale)[0]
        } else {
            self.argmax_tile::<1, LANES>([row], offsets, prefactors, post_scale)[0]
        }
    }

    /// The serving fold over a batch, labels appended to `out` in row
    /// order: tiles of `R` rows share each pass over the table, summing
    /// only the first `W` lanes of a block (DESIGN.md §9). Every label is
    /// the one [`argmax`](Self::argmax) gives its row alone.
    pub(crate) fn argmax_rows(
        &self,
        rows: &[&[u32]],
        offsets: &[u32],
        prefactors: &[f64],
        post_scale: f64,
        out: &mut Vec<u32>,
    ) {
        if self.k <= NARROW {
            self.argmax_tiles::<NARROW_ROWS, NARROW>(rows, offsets, prefactors, post_scale, out);
        } else {
            self.argmax_tiles::<WIDE_ROWS, LANES>(rows, offsets, prefactors, post_scale, out);
        }
    }

    /// [`argmax_rows`](Self::argmax_rows) at one tile shape; rows past the
    /// last whole tile are scored one at a time.
    #[inline]
    fn argmax_tiles<const R: usize, const W: usize>(
        &self,
        rows: &[&[u32]],
        offsets: &[u32],
        prefactors: &[f64],
        post_scale: f64,
        out: &mut Vec<u32>,
    ) {
        let mut tiles = rows.chunks_exact(R);
        for tile in &mut tiles {
            let tile: [&[u32]; R] = tile.try_into().expect("a whole tile");
            let labels = self.argmax_tile::<R, W>(tile, offsets, prefactors, post_scale);
            out.extend(labels.map(|l| l as u32));
        }
        for &row in tiles.remainder() {
            out.push(self.argmax_tile::<1, W>([row], offsets, prefactors, post_scale)[0] as u32);
        }
    }

    /// The serving sweep and fold for `R` rows at once: per `W`-lane block,
    /// each row keeps its own accumulators and gets the cluster with the
    /// highest `prefactors[l] · (sum · post_scale)`, strict `>` so the
    /// first index wins ties (0 when every score is NaN). Each lane's sum is
    /// the row's own chain from `0.0` in ascending feature order (MISSING
    /// skipped), so interleaving rows changes no bit. `W` must divide
    /// [`LANES`]; the rows must be admissible.
    #[inline(always)]
    fn argmax_tile<const R: usize, const W: usize>(
        &self,
        rows: [&[u32]; R],
        offsets: &[u32],
        prefactors: &[f64],
        post_scale: f64,
    ) -> [usize; R] {
        let d = offsets.len() - 1;
        let rows = rows.map(|row| {
            debug_assert_eq!(row.len(), d, "row arity mismatches the table");
            &row[..d]
        });
        let k_pad = self.k_pad;
        let mut best = [0usize; R];
        let mut best_score = [f64::NEG_INFINITY; R];
        let mut block = 0usize;
        while block < self.k {
            let mut acc = [[0.0f64; W]; R];
            for (r, pair) in offsets.windows(2).enumerate() {
                for (acc, row) in acc.iter_mut().zip(&rows) {
                    let code = row[r];
                    if code != MISSING {
                        debug_assert!(code < pair[1] - pair[0], "code out of domain");
                        let base = (pair[0] as usize + code as usize) * k_pad + block;
                        let column: &[f64; W] =
                            self.table[base..base + W].try_into().expect("padded column block");
                        for (a, &term) in acc.iter_mut().zip(column) {
                            *a += term;
                        }
                    }
                }
            }
            for ((sums, best), best_score) in acc.iter().zip(&mut best).zip(&mut best_score) {
                for (lane, &sum) in sums.iter().enumerate().take(W.min(self.k - block)) {
                    let score = prefactors[block + lane] * (sum * post_scale);
                    if score > *best_score {
                        *best_score = score;
                        *best = block + lane;
                    }
                }
            }
            block += W;
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

/// One granularity of the streaming learner (DESIGN.md §3): the value counts
/// of `k` clusters, value-major and lane-padded like [`ScoreTable`], next to
/// each cluster's per-feature present-counts and their reciprocals.
///
/// A [`ScoreTable`] stores `c · inv`, so absorbing a row would rewrite all
/// `Σ m_r` entries of the winner; here it writes one count, one
/// present-count and one reciprocal per non-MISSING feature. Scoring sweeps
/// `count · inv` in [`LANES`]-wide blocks: the operands, order and
/// association of [`ClusterProfile::similarity`], so every similarity is
/// bit-exact with the per-profile sweep, and the table after any sequence
/// of [`add`](Self::add)s equals a fresh build from the same members.
#[derive(Debug, Clone)]
pub(crate) struct CountTable {
    /// Number of clusters.
    k: usize,
    /// `k` rounded up to a multiple of [`LANES`]; the column stride.
    k_pad: usize,
    /// The schema's `d + 1` CSR offsets.
    offsets: Vec<u32>,
    /// `counts[v · k_pad + l]`: members of cluster `l` holding flat value
    /// `v`, as an exact f64; padded lanes stay zero.
    counts: Vec<f64>,
    /// `present[r · k_pad + l]`: members of cluster `l` with feature `r`
    /// present.
    present: Vec<u32>,
    /// `inv[r · k_pad + l]`: the profile reciprocal of `present` (0 when it
    /// is 0, so padded lanes stay zero).
    inv: Vec<f64>,
    /// `1 / d`, Eq. (1)'s mean.
    inv_arity: f64,
}

impl CountTable {
    /// Counts the `k`-cluster partition `labels` (dense, one per row) of
    /// `table`.
    pub(crate) fn from_partition(table: &CategoricalTable, labels: &[usize], k: usize) -> Self {
        assert_eq!(labels.len(), table.n_rows(), "one label per row");
        let layout = table.schema().csr_layout();
        let d = layout.n_features();
        let k_pad = padded(k);
        let mut counts = vec![0.0f64; layout.total_values() * k_pad];
        let mut present = vec![0u32; d * k_pad];
        for (row, &l) in table.rows().zip(labels) {
            assert!(l < k, "label {l} is out of range for k = {k}");
            for (r, (&code, &offset)) in row.iter().zip(layout.offsets()).enumerate() {
                if code != MISSING {
                    counts[(offset as usize + code as usize) * k_pad + l] += 1.0;
                    present[r * k_pad + l] += 1;
                }
            }
        }
        let inv_table: &[f64] = &INV_TABLE;
        let inv = present.iter().map(|&p| inv_count(inv_table, p)).collect();
        CountTable {
            k,
            k_pad,
            offsets: layout.offsets().to_vec(),
            counts,
            present,
            inv,
            inv_arity: if d == 0 { 0.0 } else { 1.0 / d as f64 },
        }
    }

    /// The sums `Σ_r count · inv` of the row over the [`LANES`] clusters
    /// from `block` on, in ascending feature order (MISSING skipped; lanes
    /// past `k` sum padding zeros). The row must be admissible.
    #[inline]
    fn block_sums(&self, row: &[u32], block: usize) -> [f64; LANES] {
        debug_assert_eq!(row.len() + 1, self.offsets.len(), "row arity mismatches the table");
        let k_pad = self.k_pad;
        let mut acc = [0.0f64; LANES];
        for (r, (&code, pair)) in row.iter().zip(self.offsets.windows(2)).enumerate() {
            if code != MISSING {
                debug_assert!(code < pair[1] - pair[0], "code out of domain");
                let base = (pair[0] as usize + code as usize) * k_pad + block;
                let counts: &[f64; LANES] =
                    self.counts[base..base + LANES].try_into().expect("padded column block");
                let base = r * k_pad + block;
                let inv: &[f64; LANES] =
                    self.inv[base..base + LANES].try_into().expect("padded column block");
                for ((a, &c), &i) in acc.iter_mut().zip(counts).zip(inv) {
                    *a += c * i;
                }
            }
        }
        acc
    }

    /// The cluster most similar to `row` and its Eq. (1) similarity
    /// `sum · (1/d)`. Ties go to the *last* maximal index under
    /// [`f64::total_cmp`] (`Iterator::max_by`'s convention), so the verdict
    /// is deterministic on every input: NaN ranks above every score.
    ///
    /// # Panics
    ///
    /// Panics when the table holds no cluster.
    #[inline]
    pub(crate) fn nearest(&self, row: &[u32]) -> (usize, f64) {
        assert!(self.k > 0, "cannot score against zero clusters");
        let mut best = (0usize, 0.0f64);
        let mut block = 0usize;
        while block < self.k {
            let sums = self.block_sums(row, block);
            for (lane, &sum) in sums.iter().enumerate().take(LANES.min(self.k - block)) {
                let similarity = sum * self.inv_arity;
                if block + lane == 0 || similarity.total_cmp(&best.1).is_ge() {
                    best = (block + lane, similarity);
                }
            }
            block += LANES;
        }
        best
    }

    /// Absorbs `row` into cluster `l`, exactly as [`ClusterProfile::add`]
    /// would: per non-MISSING feature, one count, one present-count and one
    /// reciprocal.
    pub(crate) fn add(&mut self, l: usize, row: &[u32]) {
        debug_assert!(l < self.k, "cluster {l} out of range");
        let k_pad = self.k_pad;
        let inv_table: &[f64] = &INV_TABLE;
        for (r, (&code, &offset)) in row.iter().zip(&self.offsets).enumerate() {
            if code != MISSING {
                self.counts[(offset as usize + code as usize) * k_pad + l] += 1.0;
                let slot = r * k_pad + l;
                self.present[slot] += 1;
                self.inv[slot] = inv_count(inv_table, self.present[slot]);
            }
        }
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
        schema_of(&CARDINALITIES)
    }

    fn schema_of(cardinalities: &[u32]) -> Schema {
        Schema::new(
            cardinalities
                .iter()
                .enumerate()
                .map(|(r, &m)| FeatureDomain::anonymous(format!("f{r}"), m))
                .collect(),
        )
    }

    fn random_row(rng: &mut ChaCha8Rng, missing_rate: f64) -> Vec<u32> {
        random_row_of(rng, &CARDINALITIES, missing_rate)
    }

    fn random_row_of(rng: &mut ChaCha8Rng, cardinalities: &[u32], missing_rate: f64) -> Vec<u32> {
        cardinalities
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

    /// Per-row reference for the serving fold: the highest
    /// `prefactor · similarity`, first index on ties.
    fn reference_argmax(profiles: &[ClusterProfile], prefactors: &[f64], row: &[u32]) -> u32 {
        let mut best = 0usize;
        for l in 1..profiles.len() {
            if prefactors[l] * profiles[l].similarity(row)
                > prefactors[best] * profiles[best].similarity(row)
            {
                best = l;
            }
        }
        best as u32
    }

    #[test]
    fn serving_tiles_match_the_per_row_argmax_at_every_remainder() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x711E);
        // k ≤ 4 takes the narrow tile, the rest the wide one; 5, 9, 17 and
        // 24 end on a partial block, 8 and 24 fill their last one. The
        // uniform (d, m, k) = (10, 4, 3), (32, 8, 16) and (64, 8, 64)
        // shapes grow the table from a few KB to L2 size.
        let shapes = [1usize, 3, 4, 5, 8, 9, 17, 24]
            .map(|k| (CARDINALITIES.to_vec(), k))
            .into_iter()
            .chain([(vec![4; 10], 3), (vec![8; 32], 16), (vec![8; 64], 64)]);
        for (cardinalities, k) in shapes {
            let schema = schema_of(&cardinalities);
            let layout = schema.csr_layout();
            let d = cardinalities.len();
            let post_scale = 1.0 / d as f64;
            let rows: Vec<Vec<u32>> =
                (0..4 * k).map(|_| random_row_of(&mut rng, &cardinalities, 0.2)).collect();
            let mut profiles: Vec<ClusterProfile> = (0..k)
                .map(|l| {
                    let mut p = ClusterProfile::with_layout(layout.clone());
                    p.extend_rows(rows.iter().skip(l).step_by(k).map(Vec::as_slice));
                    p
                })
                .collect();
            // Clusters 1 and 2 copy cluster 0, so rows near it tie.
            for l in 1..k.min(3) {
                profiles[l] = profiles[0].clone();
            }
            let mut table = ScoreTable::default();
            table.rebuild(&profiles, None);
            let random_prefactors: Vec<f64> = (0..k).map(|_| rng.gen_range(0.1..1.0)).collect();
            for prefactors in [vec![1.0; k], random_prefactors] {
                for len in 0..=9usize {
                    let batch: Vec<Vec<u32>> = (0..len)
                        .map(|i| match (i + len) % 4 {
                            0 => vec![MISSING; d],
                            1 => rows[rng.gen_range(0..rows.len())].clone(),
                            _ => random_row_of(&mut rng, &cardinalities, 0.3),
                        })
                        .collect();
                    let batch: Vec<&[u32]> = batch.iter().map(Vec::as_slice).collect();
                    let mut out = Vec::new();
                    table.argmax_rows(&batch, layout.offsets(), &prefactors, post_scale, &mut out);
                    let expected: Vec<u32> = batch
                        .iter()
                        .map(|row| reference_argmax(&profiles, &prefactors, row))
                        .collect();
                    assert_eq!(out, expected, "d={d} k={k} len={len} batch={batch:?}");
                    for (&row, &label) in batch.iter().zip(&out) {
                        let one = table.argmax(row, layout.offsets(), &prefactors, post_scale);
                        assert_eq!(one as u32, label, "d={d} k={k} row={row:?}");
                    }
                }
            }
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The per-profile reference the stream used to score with: Eq. (1)
    /// similarities, last maximal index under `total_cmp`.
    fn reference_nearest(profiles: &[ClusterProfile], row: &[u32]) -> (usize, f64) {
        profiles
            .iter()
            .map(|p| p.similarity(row))
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("at least one cluster")
    }

    #[test]
    fn count_table_matches_profiles_and_a_fresh_build_across_padding() {
        let schema = schema();
        let layout = schema.csr_layout();
        let d = CARDINALITIES.len();
        let mut rng = ChaCha8Rng::seed_from_u64(0xC0A7);
        for k in [1usize, 7, 8, 9, 17] {
            let rows: Vec<Vec<u32>> = (0..6 * k).map(|_| random_row(&mut rng, 0.2)).collect();
            let mut labels: Vec<usize> = (0..rows.len()).map(|_| rng.gen_range(0..k)).collect();
            let mut data =
                CategoricalTable::from_rows(schema.clone(), rows.iter().map(Vec::as_slice))
                    .unwrap();
            let mut counts = CountTable::from_partition(&data, &labels, k);
            let mut profiles: Vec<ClusterProfile> = (0..k)
                .map(|l| {
                    let members: Vec<usize> =
                        (0..labels.len()).filter(|&i| labels[i] == l).collect();
                    ClusterProfile::from_members(&data, &members)
                })
                .collect();
            // Absorb arrivals (all-MISSING ones included, where every
            // cluster ties at 0) and compare every lane against the profiles.
            for t in 0..60 {
                let row = if t % 10 == 0 { vec![MISSING; d] } else { random_row(&mut rng, 0.25) };
                let case = format!("k={k} t={t} row={row:?}");
                for block in (0..k).step_by(LANES) {
                    let sums = counts.block_sums(&row, block);
                    for (lane, &sum) in sums.iter().enumerate() {
                        let l = block + lane;
                        if l < k {
                            let expected = profiles[l].similarity(&row);
                            assert_eq!(
                                (sum * counts.inv_arity).to_bits(),
                                expected.to_bits(),
                                "{case}"
                            );
                        } else {
                            assert_eq!(sum.to_bits(), 0, "padded lane {l} summed {sum}: {case}");
                        }
                    }
                }
                let (best, similarity) = counts.nearest(&row);
                let (expected, expected_similarity) = reference_nearest(&profiles, &row);
                assert_eq!(best, expected, "{case}");
                assert_eq!(similarity.to_bits(), expected_similarity.to_bits(), "{case}");
                if row.iter().all(|&c| c == MISSING) {
                    // Every lane ties at 0; the last real cluster wins, never a padded lane.
                    assert_eq!(best, k - 1, "{case}");
                }
                counts.add(best, &row);
                profiles[best].add(&row);
                data.push_row(&row).unwrap();
                labels.push(best);
            }
            let fresh = CountTable::from_partition(&data, &labels, k);
            assert_eq!((counts.k, counts.k_pad), (fresh.k, fresh.k_pad));
            assert_eq!(counts.offsets, fresh.offsets);
            assert_eq!(bits(&counts.counts), bits(&fresh.counts), "k={k}");
            assert_eq!(counts.present, fresh.present, "k={k}");
            assert_eq!(bits(&counts.inv), bits(&fresh.inv), "k={k}");
            assert_eq!(counts.inv_arity.to_bits(), fresh.inv_arity.to_bits());
            for (r, column) in counts.present.chunks(padded(k)).enumerate() {
                assert!(column[k..].iter().all(|&p| p == 0), "padded presence in feature {r}");
                for (l, (&p, profile)) in column.iter().zip(&profiles).enumerate() {
                    assert_eq!(p, profile.present(r), "k={k} l={l} r={r}");
                }
            }
            for v in 0..layout.total_values() {
                let lanes = &counts.counts[v * padded(k)..(v + 1) * padded(k)];
                assert!(lanes[k..].iter().all(|c| c.to_bits() == 0), "padded count at {v}");
            }
        }
    }

    #[test]
    fn nearest_is_nan_safe_and_gives_ties_to_the_last_index() {
        // Nine identical clusters span two blocks: every row ties, and the
        // last maximal index wins (`max_by`'s convention).
        let schema = Schema::uniform(2, 2);
        let one_row = CategoricalTable::from_rows(schema.clone(), [&[0u32, 1][..]]).unwrap();
        let tied = |k: usize| {
            let data = CategoricalTable::from_rows(schema.clone(), (0..k).map(|_| one_row.row(0)))
                .unwrap();
            CountTable::from_partition(&data, &(0..k).collect::<Vec<_>>(), k)
        };
        let mut table = tied(9);
        assert_eq!(table.k_pad, 16);
        for row in [[0, 1], [1, 0], [MISSING, MISSING]] {
            assert_eq!(table.nearest(&row).0, 8);
        }
        // A second member in cluster 3 makes it the unique match for [1, 0].
        table.add(3, &[1, 0]);
        assert_eq!(table.nearest(&[0, 1]).0, 8);
        assert_eq!(table.nearest(&[1, 0]), (3, 0.5));
        // A NaN similarity sits above every finite score in the total order:
        // the verdict is the poisoned cluster, deterministically, on every run.
        table.counts[1] = f64::NAN; // flat value 0 (feature 0, code 0), cluster 1
        let verdict = table.nearest(&[0, 1]);
        assert_eq!(verdict.0, 1);
        assert!(verdict.1.is_nan());
        assert_eq!(table.nearest(&[0, 1]).0, verdict.0);
        // Every cluster poisoned: the last index wins, across the block edge.
        for l in 0..9 {
            table.counts[l] = f64::NAN;
        }
        assert_eq!(table.nearest(&[0, MISSING]).0, 8);
    }

    #[test]
    #[should_panic(expected = "zero clusters")]
    fn nearest_over_no_cluster_panics() {
        let data = CategoricalTable::new(Schema::uniform(2, 2));
        CountTable::from_partition(&data, &[], 0).nearest(&[0, 1]);
    }
}
