use std::sync::LazyLock;

use categorical_data::{CategoricalTable, CsrLayout, Schema, MISSING};

/// Shared reciprocal table `INV[p] = 1/p` for the present-count sizes that
/// occur in practice. The reciprocal is refreshed on every membership
/// change (once per touched feature per add/remove), and an f64 division
/// there costs more than the rest of the O(1) update; the table turns it
/// into a load. Entries are computed with the same `1.0 / p` operation they
/// replace, so results are bit-identical to dividing inline.
pub(crate) static INV_TABLE: LazyLock<Box<[f64]>> =
    LazyLock::new(|| (0..65_536).map(|p| if p == 0 { 0.0 } else { 1.0 / p as f64 }).collect());

/// `1/p` via [`INV_TABLE`], falling back to the division for huge clusters.
#[inline]
pub(crate) fn inv_count(table: &[f64], p: u32) -> f64 {
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
/// two operands wherever it happens, so every reader (this profile's
/// sweeps and the value-major scoring table behind MGCPL and
/// [`FrozenModel`](crate::FrozenModel)) sees the same f64. Scoring a row is
/// therefore one linear sweep with no division and no pointer chasing; see
/// `DESIGN.md` §"Hot path" for the measured effect.
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

    /// Adds every row of `rows` with the reciprocal refresh deferred to one
    /// final `O(d)` sweep: `O(Σ_rows d)` overall. The end state is identical
    /// to repeated [`add`](Self::add) calls (the cached reciprocals are
    /// always recomputed from the integer counts), so bulk-built and
    /// incrementally maintained profiles of the same members compare
    /// equal.
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
        let inv_table: &[f64] = &INV_TABLE;
        for (inv, &present) in self.inv_present.iter_mut().zip(&self.present) {
            *inv = inv_count(inv_table, present);
        }
    }

    /// Creates a profile holding exactly the rows of `table` selected by
    /// `members` (bulk path: counts first, one reciprocal sweep at the end).
    pub fn from_members(table: &CategoricalTable, members: &[usize]) -> Self {
        let mut profile = ClusterProfile::new(table.schema());
        profile.extend_rows(members.iter().map(|&i| table.row(i)));
        profile
    }

    /// The CSR layout this profile is shaped for (the scoring tables walk
    /// its value ranges).
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
    /// [`with_layout`](Self::with_layout) for a caller that rebuilds one
    /// profile per group (CAME's guided seeding).
    pub fn reset(&mut self) {
        self.counts.fill(0);
        self.present.fill(0);
        self.inv_present.fill(0.0);
        self.size = 0;
    }

    /// `*self = src.clone()` without reallocating, for a profile of the
    /// same layout (a replica refreshing its cohort within one fit).
    pub(crate) fn copy_from_profile(&mut self, src: &ClusterProfile) {
        debug_assert!(self.layout == src.layout, "profiles of one fit share a layout");
        self.counts.copy_from_slice(&src.counts);
        self.present.copy_from_slice(&src.present);
        self.inv_present.copy_from_slice(&src.inv_present);
        self.inv_arity = src.inv_arity;
        self.size = src.size;
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
    /// [`value_similarity`](Self::value_similarity). The scoring table
    /// behind MGCPL and [`FrozenModel`](crate::FrozenModel) writes `w * s`
    /// from this.
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
        check_row(row, self.layout.offsets())
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

/// The one row-admission check behind every `validate_row`: arity
/// `offsets.len() − 1`, and every code [`MISSING`] or inside its feature's
/// domain `0..offsets[r + 1] − offsets[r]` (the schema's CSR offsets).
///
/// # Errors
///
/// [`crate::McdcError::ArityMismatch`] on arity mismatch, else
/// [`crate::McdcError::OutOfDomain`] for the first inadmissible code.
#[inline]
pub(crate) fn check_row(row: &[u32], offsets: &[u32]) -> Result<(), crate::McdcError> {
    let d = offsets.len() - 1;
    if row.len() != d {
        return Err(crate::McdcError::ArityMismatch { expected: d, found: row.len() });
    }
    for (r, (&code, pair)) in row.iter().zip(offsets.windows(2)).enumerate() {
        let cardinality = pair[1] - pair[0];
        if code != MISSING && code >= cardinality {
            return Err(crate::McdcError::OutOfDomain { feature: r, code, cardinality });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::uniform(3, 4)
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
