use std::sync::LazyLock;

use categorical_data::{CategoricalTable, CsrLayout, Schema, MISSING};

/// Shared reciprocal table `INV[p] = 1/p` for the present-count sizes that
/// occur in practice. The reciprocal is refreshed on every membership
/// change (once per touched feature per add/remove), and an f64 division
/// there costs more than the rest of the O(1) update; the table turns it
/// into a load. Entries are computed with the same `1.0 / p` operation they
/// replace, so results are bit-identical to dividing inline.
static INV_TABLE: LazyLock<Box<[f64]>> =
    LazyLock::new(|| (0..65_536).map(|p| if p == 0 { 0.0 } else { 1.0 / p as f64 }).collect());

/// `1/p` via [`INV_TABLE`], falling back to the division for huge clusters.
#[inline]
fn inv_count(table: &[f64], p: u32) -> f64 {
    if (p as usize) < table.len() {
        table[p as usize]
    } else {
        1.0 / p as f64
    }
}

/// Incremental frequency profile of one cluster: per-feature counts of every
/// value among the cluster's current members.
///
/// This is the data structure behind the paper's object–cluster similarity
/// (Eqs. 1–2): `Ψ_{F_r = x_ir}(C_l)` is a direct count lookup and
/// `Ψ_{F_r ≠ NULL}(C_l)` a per-feature present-count. A membership change
/// costs `O(d)` (one count, one present-count and one cached reciprocal per
/// touched feature) and scoring `O(d)` — competitive learning scores an
/// object against every cluster but moves it between at most two, keeping
/// a full pass `O(ndk)` and MGCPL overall linear in `n`.
///
/// # Memory layout and the scoring hot path
///
/// Counts live in one flat buffer addressed through the schema's
/// [`CsrLayout`] (value `t` of feature `r` at `layout.offset(r) + t`), and
/// each feature's reciprocal present-count is cached in `inv_present` —
/// maintained on every `add`/`remove` by recomputing `1 / present[r]` from
/// the integer count, so it is exact and two profiles with the same members
/// compare equal. The Eq. (2) per-value similarity is formed where it is
/// read, as `counts[i] as f64 * inv_present[r]`: one rounding of the same
/// two operands wherever it happens, so every reader (scoring, MGCPL's
/// value-major matrix, [`FrozenModel`](crate::FrozenModel)) sees the same
/// f64. Scoring a row is therefore one linear sweep with no division and no
/// pointer chasing; see `DESIGN.md` §"Hot path" for the measured effect and
/// [`score_all`] for the fused batch kernel built on top.
///
/// Query codes must be in-domain (or [`MISSING`]): rows produced by a
/// [`CategoricalTable`] always are (construction validates them), and the
/// kernels `debug_assert` it. These are the **trusted-input fast paths** —
/// a release build fed an out-of-domain code either panics on the
/// bounds-checked lookup (the crate forbids `unsafe`) or, when the flat
/// index happens to land inside another feature's counts, folds an
/// unrelated frequency into the sum: never undefined behaviour, but never
/// a meaningful similarity. Rows from outside the trust boundary go
/// through [`try_similarity`](ClusterProfile::try_similarity), which
/// validates first and is bit-identical on clean input.
///
/// # Example
///
/// ```
/// use categorical_data::Schema;
/// use mcdc_core::ClusterProfile;
///
/// let schema = Schema::uniform(2, 3);
/// let mut profile = ClusterProfile::new(&schema);
/// profile.add(&[0, 2]);
/// profile.add(&[0, 1]);
/// // Feature 0 matches 2/2, feature 1 matches 1/2 => mean 0.75.
/// assert_eq!(profile.similarity(&[0, 1]), 0.75);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterProfile {
    /// CSR addressing of the value space (shared shape with the schema).
    layout: CsrLayout,
    /// Flat value counts, indexed `layout.offset(r) + code`.
    counts: Vec<u32>,
    /// `present[r]` = members with a non-missing value in feature `r`.
    present: Vec<u32>,
    /// Cached reciprocals `1 / present[r]` (0 when the feature is empty),
    /// refreshed from the integer count on every membership change.
    inv_present: Vec<f64>,
    /// Cached `1 / d` for the unweighted mean of Eq. (1).
    inv_arity: f64,
    /// Number of member objects.
    size: u32,
}

impl ClusterProfile {
    /// Creates an empty profile shaped for `schema`.
    pub fn new(schema: &Schema) -> Self {
        ClusterProfile::with_layout(schema.csr_layout())
    }

    /// Creates an empty profile over a pre-built CSR layout (lets callers
    /// share one layout computation across many profiles).
    pub fn with_layout(layout: CsrLayout) -> Self {
        let d = layout.n_features();
        let total = layout.total_values();
        ClusterProfile {
            layout,
            counts: vec![0; total],
            present: vec![0; d],
            inv_present: vec![0.0; d],
            inv_arity: if d == 0 { 0.0 } else { 1.0 / d as f64 },
            size: 0,
        }
    }

    /// Refreshes every feature's cached reciprocal from the integer
    /// present-counts (`O(d)`).
    fn refresh_reciprocals(&mut self) {
        let inv_table: &[f64] = &INV_TABLE;
        for (inv, &present) in self.inv_present.iter_mut().zip(&self.present) {
            *inv = inv_count(inv_table, present);
        }
    }

    /// Adds every row of `rows` with the reciprocal refresh deferred to one
    /// final `O(d)` sweep: `O(Σ_rows d)` overall. The end state is identical
    /// to repeated [`add`](Self::add) calls (the cached reciprocals are
    /// always recomputed from the integer counts), which is what makes
    /// bulk-built shard profiles mergeable with incrementally maintained
    /// ones.
    ///
    /// # Panics
    ///
    /// Panics if a row's arity mismatches the profile.
    pub fn extend_rows<'a, I>(&mut self, rows: I)
    where
        I: IntoIterator<Item = &'a [u32]>,
    {
        for row in rows {
            assert_eq!(row.len(), self.present.len(), "row arity mismatches the profile");
            for (r, &code) in row.iter().enumerate() {
                if code != MISSING {
                    self.counts[self.layout.offset(r) + code as usize] += 1;
                    self.present[r] += 1;
                }
            }
            self.size += 1;
        }
        self.refresh_reciprocals();
    }

    /// Creates a profile holding exactly the rows of `table` selected by
    /// `members` (bulk path: counts first, one reciprocal sweep at the end).
    pub fn from_members(table: &CategoricalTable, members: &[usize]) -> Self {
        let mut profile = ClusterProfile::new(table.schema());
        profile.extend_rows(members.iter().map(|&i| table.row(i)));
        profile
    }

    /// The CSR layout this profile is shaped for (workspace buffers use it
    /// to detect cross-schema reuse).
    pub(crate) fn layout(&self) -> &CsrLayout {
        &self.layout
    }

    /// Number of member objects (the paper's `n_l`).
    pub fn size(&self) -> u32 {
        self.size
    }

    /// `true` when the cluster has no members.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.present.len()
    }

    /// Domain cardinality of feature `r` (the paper's `m_r`).
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.n_features()`.
    pub fn feature_cardinality(&self, r: usize) -> usize {
        self.layout.cardinality(r)
    }

    /// Adds one object's row to the cluster (`O(d)`).
    ///
    /// # Panics
    ///
    /// Panics if the row arity mismatches the profile.
    pub fn add(&mut self, row: &[u32]) {
        assert_eq!(row.len(), self.present.len(), "row arity mismatches the profile");
        let inv_table: &[f64] = &INV_TABLE;
        for (r, &code) in row.iter().enumerate() {
            if code != MISSING {
                self.counts[self.layout.offset(r) + code as usize] += 1;
                self.present[r] += 1;
                self.inv_present[r] = inv_count(inv_table, self.present[r]);
            }
        }
        self.size += 1;
    }

    /// Removes one object's row from the cluster (`O(d)`).
    ///
    /// # Panics
    ///
    /// Panics if the row arity mismatches the profile, or if the removal
    /// would drive any count negative (i.e. the row was never added).
    pub fn remove(&mut self, row: &[u32]) {
        assert_eq!(row.len(), self.present.len(), "row arity mismatches the profile");
        assert!(self.size > 0, "cannot remove from an empty cluster");
        let inv_table: &[f64] = &INV_TABLE;
        for (r, &code) in row.iter().enumerate() {
            if code != MISSING {
                let slot = &mut self.counts[self.layout.offset(r) + code as usize];
                assert!(*slot > 0, "row was not a member of this cluster");
                *slot -= 1;
                self.present[r] -= 1;
                self.inv_present[r] = inv_count(inv_table, self.present[r]);
            }
        }
        self.size -= 1;
    }

    /// Empties the profile in place (counts, presence, reciprocals), keeping
    /// the layout and every buffer's capacity — the reuse counterpart of
    /// [`with_layout`](Self::with_layout) for workspace-pooled profiles.
    pub fn reset(&mut self) {
        self.counts.fill(0);
        self.present.fill(0);
        self.inv_present.fill(0.0);
        self.size = 0;
    }

    /// `*self = src.clone()` without reallocating when the layouts already
    /// match (the workspace warm path); falls back to a plain clone
    /// otherwise.
    pub(crate) fn copy_from_profile(&mut self, src: &ClusterProfile) {
        if self.layout == src.layout {
            self.counts.copy_from_slice(&src.counts);
            self.present.copy_from_slice(&src.present);
            self.inv_present.copy_from_slice(&src.inv_present);
            self.inv_arity = src.inv_arity;
            self.size = src.size;
        } else {
            *self = src.clone();
        }
    }

    /// Absorbs every member of `other` (counts are added feature-wise).
    ///
    /// Integer counts make this exact and order-independent, so chunked
    /// aggregation (build per-chunk profiles, merge) reproduces the
    /// sequential result bit for bit. (CAME's parallel mode counting uses
    /// raw count matrices instead — this method is the general-purpose
    /// form for library users.)
    ///
    /// # Panics
    ///
    /// Panics if the two profiles have different layouts.
    pub fn merge(&mut self, other: &ClusterProfile) {
        assert_eq!(self.layout, other.layout, "profiles must share a schema layout");
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        for (mine, theirs) in self.present.iter_mut().zip(&other.present) {
            *mine += theirs;
        }
        self.refresh_reciprocals();
        self.size += other.size;
    }

    /// Count of members holding value `code` in feature `r`
    /// (`Ψ_{F_r = code}(C_l)`).
    ///
    /// # Panics
    ///
    /// Panics if `r` or `code` is out of bounds.
    pub fn count(&self, r: usize, code: u32) -> u32 {
        self.counts[self.layout.range(r)][code as usize]
    }

    /// The contiguous counts of feature `r`'s values, for kernels that sweep
    /// a whole domain (e.g. the α/β feature-weight updates).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn feature_counts(&self, r: usize) -> &[u32] {
        &self.counts[self.layout.range(r)]
    }

    /// Number of members with a non-missing value in feature `r`
    /// (`Ψ_{F_r ≠ NULL}(C_l)`).
    pub fn present(&self, r: usize) -> u32 {
        self.present[r]
    }

    /// Cached reciprocal `1 / present(r)` (0 when the feature is empty).
    pub fn inv_present(&self, r: usize) -> f64 {
        self.inv_present[r]
    }

    /// Feature `r`'s Eq. (2) per-value similarities in code order, each
    /// formed as `count · inv_present(r)` — the same f64 as
    /// [`value_similarity`](Self::value_similarity). Readers that fold a
    /// per-feature factor into a derived table (MGCPL's value-major matrix,
    /// [`FrozenModel`](crate::FrozenModel)) write `w * s` from this.
    pub(crate) fn relative_frequencies(&self, r: usize) -> impl Iterator<Item = f64> + '_ {
        let inv = self.inv_present[r];
        self.feature_counts(r).iter().map(move |&c| c as f64 * inv)
    }

    /// Per-feature similarity `s(x_ir, C_l)` of Eq. (2): the relative
    /// frequency of `code` among the cluster's non-missing values in `r`,
    /// formed as `count · inv_present(r)` — bit for bit the product every
    /// other reader of the profile forms. Missing query values and empty
    /// features score 0.
    #[inline]
    pub fn value_similarity(&self, r: usize, code: u32) -> f64 {
        if code == MISSING {
            return 0.0;
        }
        debug_assert!((code as usize) < self.layout.cardinality(r), "code out of domain");
        self.counts[self.layout.offset(r) + code as usize] as f64 * self.inv_present[r]
    }

    /// Object–cluster similarity `s(x_i, C_l)` of Eq. (1): the mean of the
    /// per-feature similarities.
    ///
    /// One count lookup, one multiply by the cached reciprocal and one add
    /// per feature, in ascending feature order: no division, no per-feature
    /// pointer chase. Uniform-cardinality schemas take a strided fast path
    /// (`r·stride + code` in a register instead of loading `offsets[r]`).
    #[inline]
    pub fn similarity(&self, row: &[u32]) -> f64 {
        debug_assert_eq!(row.len(), self.present.len());
        let d = self.present.len();
        if let Some(stride) = self.layout.uniform_stride() {
            let stride = stride as usize;
            let mut acc = 0.0f64;
            let mut base = 0usize;
            for (&code, &inv) in row.iter().zip(&self.inv_present) {
                if code != MISSING {
                    debug_assert!((code as usize) < stride, "code out of domain");
                    acc += self.counts[base + code as usize] as f64 * inv;
                }
                base += stride;
            }
            return acc * self.inv_arity;
        }
        let offsets = &self.layout.offsets()[..d];
        let mut acc = 0.0;
        for (((r, &code), &off), &inv) in row.iter().enumerate().zip(offsets).zip(&self.inv_present)
        {
            if code != MISSING {
                debug_assert!((code as usize) < self.layout.cardinality(r), "code out of domain");
                acc += self.counts[off as usize + code as usize] as f64 * inv;
            }
        }
        acc * self.inv_arity
    }

    /// Checks that `row` is admissible for this profile's layout: correct
    /// arity, every code in its feature's domain or [`MISSING`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::McdcError::ArityMismatch`] on arity mismatch and
    /// [`crate::McdcError::OutOfDomain`] for the first inadmissible code.
    pub fn validate_row(&self, row: &[u32]) -> Result<(), crate::McdcError> {
        let d = self.present.len();
        if row.len() != d {
            return Err(crate::McdcError::ArityMismatch { expected: d, found: row.len() });
        }
        for (r, &code) in row.iter().enumerate() {
            let cardinality = self.layout.cardinality(r) as u32;
            if code != MISSING && code >= cardinality {
                return Err(crate::McdcError::OutOfDomain { feature: r, code, cardinality });
            }
        }
        Ok(())
    }

    /// [`similarity`](Self::similarity) behind the trust boundary:
    /// validates the row first, so no input can panic or fold out-of-bounds
    /// entries into the mean. On clean input the value is bit-identical to
    /// the fast path.
    ///
    /// # Errors
    ///
    /// The [`validate_row`](Self::validate_row) conditions.
    pub fn try_similarity(&self, row: &[u32]) -> Result<f64, crate::McdcError> {
        self.validate_row(row)?;
        Ok(self.similarity(row))
    }

    /// Feature-weighted object–cluster similarity of Eq. (14):
    /// `Σ_r ω_rl · s(x_ir, C_l)` with `Σ_r ω_rl = 1`.
    ///
    /// Eq. (14) as printed carries an extra `1/d` in front of the already
    /// normalized weighted sum; we read that as a leftover from Eq. (1)
    /// (uniform `ω = 1` there) and keep the weighted *mean*, so similarity
    /// stays in `[0, 1]` and the rival penalty of Eq. (13) remains
    /// commensurate with the winner award of Eq. (12). With the printed
    /// `1/d` the penalty would shrink by `d` and cluster elimination would
    /// stall (see DESIGN.md §2).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `weights.len()` mismatches the arity.
    #[inline]
    pub fn weighted_similarity(&self, row: &[u32], weights: &[f64]) -> f64 {
        debug_assert_eq!(row.len(), self.present.len());
        debug_assert_eq!(weights.len(), self.present.len());
        let d = self.present.len();
        if let Some(stride) = self.layout.uniform_stride() {
            // Strided fast path, as in `similarity`: `r·stride + code` in a
            // register instead of loading `offsets[r]` per feature.
            let stride = stride as usize;
            let mut acc = 0.0f64;
            let mut base = 0usize;
            for ((&code, &w), &inv) in row.iter().zip(weights).zip(&self.inv_present) {
                if code != MISSING {
                    debug_assert!((code as usize) < stride, "code out of domain");
                    acc += w * (self.counts[base + code as usize] as f64 * inv);
                }
                base += stride;
            }
            return acc;
        }
        let offsets = &self.layout.offsets()[..d];
        let mut acc = 0.0;
        for ((r, (&code, &w)), (&off, &inv)) in
            row.iter().zip(weights).enumerate().zip(offsets.iter().zip(&self.inv_present))
        {
            if code != MISSING {
                debug_assert!((code as usize) < self.layout.cardinality(r), "code out of domain");
                acc += w * (self.counts[off as usize + code as usize] as f64 * inv);
            }
        }
        acc
    }

    /// The cluster mode: the most frequent value per feature (ties resolve to
    /// the lowest code; features with no present values yield code 0).
    pub fn mode(&self) -> Vec<u32> {
        let mut mode = Vec::with_capacity(self.present.len());
        for r in 0..self.present.len() {
            let best = self
                .feature_counts(r)
                .iter()
                .enumerate()
                .max_by(|(ta, ca), (tb, cb)| ca.cmp(cb).then(tb.cmp(ta)))
                .map_or(0, |(t, _)| t as u32);
            mode.push(best);
        }
        mode
    }

    /// Intra-cluster compactness `β_rl` of Eq. (16) for feature `r`:
    /// `(1/n_l) Σ_{x∈C_l} Ψ_{F_r=x_r}(C_l) / Ψ_{F_r≠NULL}(C_l)`,
    /// which reduces to `Σ_t c_t² / (n_l · present_r)`.
    pub fn compactness(&self, r: usize) -> f64 {
        if self.size == 0 || self.present[r] == 0 {
            return 0.0;
        }
        let sum_sq: u64 = self.feature_counts(r).iter().map(|&c| c as u64 * c as u64).sum();
        sum_sq as f64 / (self.size as f64 * self.present[r] as f64)
    }
}

/// Fused batch scoring kernel: evaluates one object against every cluster in
/// a single call, writing the prefactor-scaled competition scores (and,
/// when requested, the raw similarities) side by side.
///
/// For cluster `l`, the similarity `s(x, C_l)` is the `omega`-weighted
/// similarity of Eq. (14) when `omega` is `Some` (one `d` sized weight row
/// per cluster, row-major), the plain Eq. (1) mean otherwise, and
/// `scores[l] = prefactors[l] · s`, the `(1 − ρ_l) · u_l · s(x, C_l)` of
/// Eq. (6) with the prefactor hoisted out of the feature loop.
/// `similarities`, when `Some`, receives the raw `s` values — callers
/// without a rival-penalty term (e.g. classic competitive learning) pass
/// `None` and skip those writes. One linear sweep per cluster, no
/// divisions, no intermediate allocation (see `DESIGN.md` §"Hot path").
///
/// # Panics
///
/// Panics (in debug builds) when slice lengths disagree: `prefactors`,
/// `scores`, and `similarities` (when present) must have one entry per
/// profile, and `omega`, when present, `profiles.len() × d` entries.
pub fn score_all(
    row: &[u32],
    profiles: &[ClusterProfile],
    omega: Option<&[f64]>,
    prefactors: &[f64],
    mut similarities: Option<&mut [f64]>,
    scores: &mut [f64],
) {
    let d = row.len();
    debug_assert_eq!(prefactors.len(), profiles.len());
    debug_assert_eq!(scores.len(), profiles.len());
    if let Some(sims) = similarities.as_deref() {
        debug_assert_eq!(sims.len(), profiles.len());
    }
    for (l, profile) in profiles.iter().enumerate() {
        let s = match omega {
            Some(omega) => {
                debug_assert_eq!(omega.len(), profiles.len() * d);
                profile.weighted_similarity(row, &omega[l * d..(l + 1) * d])
            }
            None => profile.similarity(row),
        };
        if let Some(sims) = similarities.as_deref_mut() {
            sims[l] = s;
        }
        scores[l] = prefactors[l] * s;
    }
}

/// The [`score_all`] sweep turned value-major, fused with the winner/rival
/// selection of Eqs. (6)/(9): `matrix_t[v * k + l]` holds cluster `l`'s
/// similarity term for flat value `v`, so scoring one object sweeps `d`
/// *contiguous* `k`-length columns — straight-line vectorizable adds
/// instead of one gather per (cluster, feature). Per cluster the terms are
/// still accumulated in ascending feature order, so the sums are
/// bit-identical to the cluster-major sweep.
///
/// On return, `accumulators[l]` holds the raw sweep sum
/// `Σ_r matrix_t[(off_r + x_r)·k + l]`; cluster `l`'s similarity is
/// `post_scale · accumulators[l]` (pass `1/d` to turn a plain-scaled matrix
/// into the Eq. (1) mean, `1.0` when the matrix already carries normalized
/// ω weights) and its competition score `prefactors[l]` times that. The
/// returned pair is `(winner, rival)`: the argmax of the scores and the
/// runner-up (`usize::MAX` when there is only one cluster), resolved
/// first-index-wins on ties — scores themselves are never materialized.
///
/// This is the kernel MGCPL's `run_stage` drives once per object; the
/// cohort maintains `matrix_t` incrementally (see `DESIGN.md` §"Hot path").
///
/// # Panics
///
/// Panics (in debug builds) when slice lengths disagree, and (always) when
/// `prefactors` is empty.
pub fn score_all_transposed(
    row: &[u32],
    offsets: &[u32],
    matrix_t: &[f64],
    post_scale: f64,
    prefactors: &[f64],
    accumulators: &mut [f64],
) -> (usize, usize) {
    let d = row.len();
    debug_assert_eq!(offsets.len(), d + 1);
    let k = prefactors.len();
    assert!(k > 0, "cannot score against zero clusters");
    debug_assert_eq!(matrix_t.len(), offsets[d] as usize * k);
    debug_assert_eq!(accumulators.len(), k);
    accumulators.fill(0.0);
    for (&code, &off) in row.iter().zip(&offsets[..d]) {
        if code != MISSING {
            let column = &matrix_t[(off as usize + code as usize) * k..][..k];
            for (acc, &term) in accumulators.iter_mut().zip(column) {
                *acc += term;
            }
        }
    }
    let mut best = 0usize;
    let mut rival = usize::MAX;
    let mut best_score = prefactors[0] * (accumulators[0] * post_scale);
    let mut rival_score = f64::NEG_INFINITY;
    for l in 1..k {
        let score = prefactors[l] * (accumulators[l] * post_scale);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::uniform(3, 4)
    }

    /// Every value's relative frequency, CSR-addressed like the layout.
    fn frequencies(profile: &ClusterProfile) -> Vec<f64> {
        (0..profile.n_features()).flat_map(|r| profile.relative_frequencies(r)).collect()
    }

    #[test]
    fn add_then_remove_is_identity() {
        let mut p = ClusterProfile::new(&schema());
        let before = p.clone();
        p.add(&[1, 2, 3]);
        p.add(&[0, 2, 1]);
        p.remove(&[1, 2, 3]);
        p.remove(&[0, 2, 1]);
        assert_eq!(p, before);
    }

    #[test]
    fn similarity_of_sole_member_is_one() {
        let mut p = ClusterProfile::new(&schema());
        p.add(&[1, 2, 3]);
        assert_eq!(p.similarity(&[1, 2, 3]), 1.0);
    }

    #[test]
    fn similarity_is_mean_of_feature_frequencies() {
        let mut p = ClusterProfile::new(&schema());
        p.add(&[0, 0, 0]);
        p.add(&[0, 1, 0]);
        p.add(&[0, 1, 1]);
        // Query [0, 1, 1]: f0 3/3, f1 2/3, f2 1/3 -> mean 2/3.
        assert!((p.similarity(&[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn missing_values_do_not_count() {
        let mut p = ClusterProfile::new(&schema());
        p.add(&[0, MISSING, 1]);
        p.add(&[0, 2, MISSING]);
        assert_eq!(p.present(1), 1);
        assert_eq!(p.present(2), 1);
        // Querying a missing value scores zero on that feature.
        assert!((p.similarity(&[0, MISSING, 1]) - (1.0 + 0.0 + 1.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn try_similarity_validates_and_matches_fast_path() {
        let mut p = ClusterProfile::new(&schema());
        p.add(&[0, 1, 2]);
        p.add(&[0, 2, 2]);
        let clean = [0u32, 1, 2];
        assert_eq!(p.try_similarity(&clean).unwrap().to_bits(), p.similarity(&clean).to_bits());
        assert_eq!(
            p.try_similarity(&[0, 1]),
            Err(crate::McdcError::ArityMismatch { expected: 3, found: 2 })
        );
        assert_eq!(
            p.try_similarity(&[0, 7, 2]),
            Err(crate::McdcError::OutOfDomain { feature: 1, code: 7, cardinality: 4 })
        );
        assert_eq!(p.try_similarity(&[MISSING; 3]).unwrap(), 0.0);
    }

    #[test]
    fn weighted_similarity_respects_weights() {
        let mut p = ClusterProfile::new(&schema());
        p.add(&[0, 0, 0]);
        p.add(&[0, 1, 1]);
        // Feature 0 matches with frequency 1.0; weights isolate it.
        let s = p.weighted_similarity(&[0, 3, 3], &[1.0, 0.0, 0.0]);
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_weights_recover_plain_similarity() {
        let mut p = ClusterProfile::new(&schema());
        p.add(&[0, 1, 2]);
        p.add(&[0, 2, 2]);
        let row = [0, 1, 2];
        let w = [1.0 / 3.0; 3];
        // Eq.(14) with ω=1/d reduces to Eq.(1).
        assert!((p.weighted_similarity(&row, &w) - p.similarity(&row)).abs() < 1e-12);
    }

    #[test]
    fn mode_picks_most_frequent_values() {
        let mut p = ClusterProfile::new(&schema());
        p.add(&[1, 2, 0]);
        p.add(&[1, 3, 0]);
        p.add(&[2, 2, 0]);
        assert_eq!(p.mode(), vec![1, 2, 0]);
    }

    #[test]
    fn compactness_is_one_for_pure_feature_and_low_for_spread() {
        let mut p = ClusterProfile::new(&schema());
        p.add(&[0, 0, 0]);
        p.add(&[0, 1, 1]);
        p.add(&[0, 2, 2]);
        p.add(&[0, 3, 3]);
        assert!((p.compactness(0) - 1.0).abs() < 1e-12);
        assert!((p.compactness(1) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn extend_rows_matches_incremental_adds() {
        let rows: [&[u32]; 4] = [&[0, 1, 2], &[1, MISSING, 3], &[0, 1, 2], &[3, 0, MISSING]];
        let mut bulk = ClusterProfile::new(&schema());
        bulk.extend_rows(rows.iter().copied());
        let mut incremental = ClusterProfile::new(&schema());
        for row in rows {
            incremental.add(row);
        }
        assert_eq!(bulk, incremental);
        assert_eq!(bulk.size(), 4);
    }

    #[test]
    fn from_members_matches_incremental_adds() {
        let mut table = CategoricalTable::new(schema());
        table.push_row(&[0, 1, 2]).unwrap();
        table.push_row(&[1, 1, 3]).unwrap();
        table.push_row(&[2, 0, 0]).unwrap();
        let p = ClusterProfile::from_members(&table, &[0, 2]);
        let mut q = ClusterProfile::new(&schema());
        q.add(table.row(0));
        q.add(table.row(2));
        assert_eq!(p, q);
    }

    #[test]
    fn merge_equals_sequential_adds() {
        let mut left = ClusterProfile::new(&schema());
        left.add(&[0, 1, 2]);
        left.add(&[1, MISSING, 2]);
        let mut right = ClusterProfile::new(&schema());
        right.add(&[3, 0, 0]);
        let mut sequential = ClusterProfile::new(&schema());
        sequential.add(&[0, 1, 2]);
        sequential.add(&[1, MISSING, 2]);
        sequential.add(&[3, 0, 0]);
        left.merge(&right);
        assert_eq!(left, sequential);
    }

    #[test]
    fn score_all_matches_per_cluster_calls() {
        let mut a = ClusterProfile::new(&schema());
        a.add(&[0, 1, 2]);
        a.add(&[0, 2, 2]);
        let mut b = ClusterProfile::new(&schema());
        b.add(&[3, 3, 3]);
        let profiles = [a, b];
        let row = [0u32, 2, 3];
        let pref = [0.7, 0.9];
        let omega: Vec<f64> = vec![0.5, 0.25, 0.25, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0];
        let mut sims = [0.0; 2];
        let mut scores = [0.0; 2];

        score_all(&row, &profiles, Some(&omega), &pref, Some(&mut sims), &mut scores);
        for l in 0..2 {
            let expected = profiles[l].weighted_similarity(&row, &omega[l * 3..(l + 1) * 3]);
            assert!((sims[l] - expected).abs() < 1e-15);
            assert!((scores[l] - pref[l] * expected).abs() < 1e-15);
        }

        score_all(&row, &profiles, None, &pref, Some(&mut sims), &mut scores);
        for l in 0..2 {
            let expected = profiles[l].similarity(&row);
            assert!((sims[l] - expected).abs() < 1e-15);
            assert!((scores[l] - pref[l] * expected).abs() < 1e-15);
        }
    }

    #[test]
    fn transposed_kernel_matches_cluster_major_scoring() {
        // Three clusters over a mixed-cardinality schema, with a MISSING in
        // the query: the value-major fused kernel must reproduce score_all's
        // similarities (via the accumulators), its scores, and the
        // winner/rival selection exactly.
        let schema = Schema::uniform(4, 3);
        let layout = schema.csr_layout();
        let rows: [&[u32]; 5] =
            [&[0, 1, 2, 0], &[0, 2, 2, 1], &[1, 1, 0, 2], &[2, 0, 1, 1], &[0, 0, 2, 2]];
        let mut profiles = vec![
            ClusterProfile::new(&schema),
            ClusterProfile::new(&schema),
            ClusterProfile::new(&schema),
        ];
        for (i, row) in rows.iter().enumerate() {
            profiles[i % 3].add(row);
        }
        let prefactors = [0.9, 0.4, 0.7];
        let d = 4;
        let post_scale = 1.0 / d as f64;

        // Build the plain value-major matrix (w = 1 per feature).
        let k = profiles.len();
        let total = layout.total_values();
        let mut matrix_t = vec![0.0f64; total * k];
        for (l, profile) in profiles.iter().enumerate() {
            for (v, s) in frequencies(profile).into_iter().enumerate() {
                matrix_t[v * k + l] = s;
            }
        }

        let query = [0u32, MISSING, 2, 1];
        let mut accumulators = vec![0.0; k];
        let (best, rival) = score_all_transposed(
            &query,
            layout.offsets(),
            &matrix_t,
            post_scale,
            &prefactors,
            &mut accumulators,
        );

        let mut sims = vec![0.0; k];
        let mut scores = vec![0.0; k];
        score_all(&query, &profiles, None, &prefactors, Some(&mut sims), &mut scores);
        for l in 0..k {
            assert!((accumulators[l] * post_scale - sims[l]).abs() < 1e-15, "cluster {l}");
        }
        // Winner/rival must match a reference scan over the scores.
        let (mut want_best, mut want_rival) = (0usize, usize::MAX);
        for c in 1..k {
            if scores[c] > scores[want_best] {
                want_rival = want_best;
                want_best = c;
            } else if want_rival == usize::MAX || scores[c] > scores[want_rival] {
                want_rival = c;
            }
        }
        assert_eq!((best, rival), (want_best, want_rival));
    }

    #[test]
    fn transposed_kernel_single_cluster_has_no_rival() {
        let schema = Schema::uniform(2, 2);
        let layout = schema.csr_layout();
        let mut profile = ClusterProfile::new(&schema);
        profile.add(&[0, 1]);
        let matrix_t: Vec<f64> = frequencies(&profile); // k = 1
        let mut accumulators = vec![0.0];
        let (best, rival) = score_all_transposed(
            &[0, 1],
            layout.offsets(),
            &matrix_t,
            0.5,
            &[1.0],
            &mut accumulators,
        );
        assert_eq!(best, 0);
        assert_eq!(rival, usize::MAX);
        assert!((accumulators[0] * 0.5 - profile.similarity(&[0, 1])).abs() < 1e-15);
    }

    #[test]
    fn reset_restores_the_empty_profile() {
        let mut p = ClusterProfile::new(&schema());
        let empty = p.clone();
        p.add(&[1, 2, 3]);
        p.add(&[0, MISSING, 1]);
        p.reset();
        assert_eq!(p, empty);
        // And the profile is still usable after the reset.
        p.add(&[1, 2, 3]);
        assert_eq!(p.similarity(&[1, 2, 3]), 1.0);
    }

    #[test]
    fn copy_from_profile_matches_clone() {
        let mut src = ClusterProfile::new(&schema());
        src.add(&[1, 2, 3]);
        src.add(&[1, 0, MISSING]);
        let mut dst = ClusterProfile::new(&schema());
        dst.add(&[0, 0, 0]);
        dst.copy_from_profile(&src);
        assert_eq!(dst, src);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn adding_short_row_panics() {
        let mut p = ClusterProfile::new(&schema());
        p.add(&[0, 0]);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn removing_long_row_panics() {
        let mut p = ClusterProfile::new(&schema());
        p.add(&[0, 0, 0]);
        p.remove(&[0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn extending_with_short_row_panics() {
        let mut p = ClusterProfile::new(&schema());
        p.extend_rows([&[0u32, 0, 0][..], &[0, 0][..]]);
    }

    #[test]
    #[should_panic(expected = "empty cluster")]
    fn removing_from_empty_panics() {
        let mut p = ClusterProfile::new(&schema());
        p.remove(&[0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "not a member")]
    fn removing_non_member_row_panics() {
        let mut p = ClusterProfile::new(&schema());
        p.add(&[0, 0, 0]);
        p.remove(&[1, 0, 0]);
    }
}
