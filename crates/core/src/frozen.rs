//! Frozen-model inference: a fitted model compacted into a read-only,
//! cache-dense scoring table for the serving hot path (DESIGN.md §9).
//!
//! Fitting needs the full [`ClusterProfile`] machinery — mutable integer
//! counts, cached reciprocals, ω/θ learning scaffolding — but serving
//! traffic is dominated by "label this row", which only ever reads the
//! Eq. (2) relative frequencies `count · 1/present`. [`FrozenModel`] forms
//! each of those products once, at freeze time, and strips everything
//! else: the compaction keeps one f64 per (value, cluster) pair in the
//! *value-major, lane-padded* scoring table MGCPL fits with, plus the
//! schema's CSR offsets and the per-cluster prefactors. Scoring one row is
//! then `d` contiguous column loads and a running argmax — no counts, no
//! reciprocals, no per-cluster pointer chase.
//!
//! Batches ([`FrozenModel::score_batch`], [`FrozenModel::try_score_batch`],
//! and the stream's `serve_batch` / `try_serve_batch`) go through one
//! loop: rows are pulled from the caller's iterator into a stack tile of
//! four, validated (or coerced) as they arrive, and each full tile is
//! scored in shared passes over the table — four rows at once over the
//! four live lanes when `k ≤ 4`, one row at a time over whole 8-lane
//! blocks otherwise (DESIGN.md §9).
//!
//! The scores are **bit-identical** to the live
//! [`ClusterProfile::similarity`] sweep: the table entries are the exact
//! products [`ClusterProfile::value_similarity`] forms (same two operands,
//! one rounding, never contracted into an FMA), the sweep accumulates them
//! in the same ascending-feature order — each row of a tile in its own
//! accumulators, and skipping a lane only when it holds padding zeros —
//! and the final `prefactor · (acc · post_scale)` association matches, so
//! the argmax (first index wins on ties) agrees with the live path on
//! every row, batched or not — MISSING values included, which contribute
//! nothing on both sides.
//!
//! Frozen models persist: [`FrozenModel::to_bytes`] writes a versioned
//! little-endian binary image (f64s as raw bit patterns, so a roundtrip is
//! bit-exact) and [`FrozenModel::from_bytes`] validates shape and header
//! before reconstructing — the save/load/version surface a future
//! `mcdc-serve` crate deploys against.

use std::convert::Infallible;
use std::path::Path;

use categorical_data::CategoricalTable;

use crate::profile::check_row;
use crate::score::{padded, ScoreTable, TILE_ROWS};
use crate::{ClusterProfile, McdcError};

/// Magic bytes opening a serialized frozen model.
const MAGIC: [u8; 4] = *b"MFRZ";
/// Serialization format version ([`FrozenModel::FORMAT_VERSION`]).
const FORMAT_VERSION: u32 = 1;

/// A fitted model frozen into a read-only, cache-dense scoring table.
///
/// Build one via [`McdcResult::freeze`](crate::McdcResult::freeze),
/// [`MgcplResult::freeze`](crate::MgcplResult::freeze), or directly from
/// profiles with [`FrozenModel::from_profiles`]; score rows with
/// [`score_one`](Self::score_one) / [`score_batch`](Self::score_batch).
///
/// # Example
///
/// ```
/// use categorical_data::synth::GeneratorConfig;
/// use mcdc_core::Mcdc;
///
/// let data = GeneratorConfig::new("serve", 200, vec![4; 8], 3)
///     .noise(0.05)
///     .generate(7)
///     .dataset;
/// let result = Mcdc::builder().seed(1).build().fit(data.table(), 3)?;
/// let frozen = result.freeze(data.table())?;
/// // The compacted table reproduces the live assignment bit for bit.
/// let label = frozen.score_one(data.table().row(0));
/// assert!((label as usize) < frozen.k());
/// # Ok::<(), mcdc_core::McdcError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FrozenModel {
    /// The schema's CSR offsets (`d + 1` prefix sums over cardinalities).
    offsets: Vec<u32>,
    /// Relative frequencies `count · 1/present`, value-major and lane-padded:
    /// entry `(offsets[r] + code) · k_pad + l` is cluster `l`'s Eq. (2)
    /// similarity term for value `code` of feature `r`.
    scores: ScoreTable,
    /// Per-cluster competition prefactors (all 1 for a plain frozen fit).
    prefactors: Vec<f64>,
    /// Scale applied to the per-row sum before the prefactor (`1/d` for the
    /// Eq. (1) mean), kept separate from `prefactors` so the two-multiply
    /// association matches the live kernels bit for bit.
    post_scale: f64,
}

// Bit-level equality: two frozen models are equal exactly when they score
// every possible row identically, which for f64 tables means comparing bit
// patterns (the derived `==` would conflate 0.0/-0.0 and reject NaN — both
// wrong notions for a serialized artifact).
impl PartialEq for FrozenModel {
    fn eq(&self, other: &Self) -> bool {
        fn bits_eq(a: &[f64], b: &[f64]) -> bool {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        }
        self.k() == other.k()
            && self.offsets == other.offsets
            && bits_eq(self.scores.entries(), other.scores.entries())
            && bits_eq(&self.prefactors, &other.prefactors)
            && self.post_scale.to_bits() == other.post_scale.to_bits()
    }
}

impl Eq for FrozenModel {}

impl FrozenModel {
    /// The on-disk format version [`to_bytes`](Self::to_bytes) writes and
    /// [`from_bytes`](Self::from_bytes) accepts.
    pub const FORMAT_VERSION: u32 = FORMAT_VERSION;

    /// Compacts fitted cluster profiles into a frozen scoring table with
    /// unit prefactors: the served similarity is the plain Eq. (1) mean,
    /// exactly what [`ClusterProfile::similarity`] computes for the same
    /// profiles.
    ///
    /// # Panics
    ///
    /// Panics when `profiles` is empty or the profiles disagree on the
    /// schema layout.
    pub fn from_profiles(profiles: &[ClusterProfile]) -> FrozenModel {
        assert!(!profiles.is_empty(), "cannot freeze zero clusters");
        let layout = profiles[0].layout();
        assert!(
            profiles.iter().all(|p| p.layout() == layout),
            "profiles must share a schema layout"
        );
        let mut scores = ScoreTable::default();
        scores.rebuild(profiles, None);
        let d = layout.n_features();
        FrozenModel {
            offsets: layout.offsets().to_vec(),
            scores,
            prefactors: vec![1.0; profiles.len()],
            post_scale: if d == 0 { 0.0 } else { 1.0 / d as f64 },
        }
    }

    /// Builds the `k` cluster profiles of a partition over `table` (bulk
    /// construction, exactly as a fit's final rebuild would) and freezes
    /// them via [`from_profiles`](Self::from_profiles).
    ///
    /// # Errors
    ///
    /// Returns [`McdcError::InvalidK`] when `k` is zero and
    /// [`McdcError::InvalidConfig`] when `labels` disagrees with the
    /// table's row count or holds a label `≥ k`.
    pub fn from_partition(
        table: &CategoricalTable,
        labels: &[usize],
        k: usize,
    ) -> Result<FrozenModel, McdcError> {
        if k == 0 {
            return Err(McdcError::InvalidK { k, n: table.n_rows() });
        }
        if labels.len() != table.n_rows() {
            return Err(McdcError::InvalidConfig {
                parameter: "labels",
                message: format!(
                    "partition labels {} rows but the table holds {}",
                    labels.len(),
                    table.n_rows()
                ),
            });
        }
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (i, &l) in labels.iter().enumerate() {
            if l >= k {
                return Err(McdcError::InvalidConfig {
                    parameter: "labels",
                    message: format!("label {l} at row {i} is out of range for k = {k}"),
                });
            }
            members[l].push(i);
        }
        let profiles: Vec<ClusterProfile> =
            members.iter().map(|m| ClusterProfile::from_members(table, m)).collect();
        Ok(FrozenModel::from_profiles(&profiles))
    }

    /// Number of clusters the frozen model assigns into.
    pub fn k(&self) -> usize {
        self.scores.k()
    }

    /// Number of features a scored row must have.
    pub fn n_features(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Fitted domain cardinality of feature `r` (valid codes are
    /// `0..cardinality`, plus [`MISSING`](categorical_data::MISSING)).
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.n_features()`.
    pub fn feature_cardinality(&self, r: usize) -> u32 {
        self.offsets[r + 1] - self.offsets[r]
    }

    /// Total flat values across all feature domains.
    pub fn total_values(&self) -> usize {
        *self.offsets.last().expect("offsets hold d + 1 entries") as usize
    }

    /// Bytes held by the scoring table (the padded value-major matrix) —
    /// the number that decides which cache level the serve path runs from.
    pub fn table_bytes(&self) -> usize {
        std::mem::size_of_val(self.scores.entries())
    }

    /// The per-cluster competition prefactors baked into the model.
    pub fn prefactors(&self) -> &[f64] {
        &self.prefactors
    }

    /// Assigns one row to its most similar cluster (dense label `0..k`,
    /// first index wins on ties — the live kernels' convention).
    ///
    /// The sweep walks the row's `d` non-missing values, each a contiguous
    /// lane-padded column of the value-major table, accumulating 8-lane
    /// register blocks; MISSING values contribute nothing, exactly like
    /// [`ClusterProfile::similarity`].
    ///
    /// This is the **trusted-input fast path**: the row must satisfy
    /// [`validate_row`](Self::validate_row) (correct arity, every code
    /// in-domain or MISSING). A release build fed a malformed row either
    /// reads out of the scoring table's bounds (a panic, since the crate
    /// forbids `unsafe`) or folds unrelated table entries into the argmax —
    /// never undefined behaviour, but never a meaningful label. Rows from
    /// outside the trust boundary go through
    /// [`try_score_one`](Self::try_score_one) instead, which validates
    /// first and returns the identical label on clean input.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when the row arity mismatches the model or
    /// a code is out of domain.
    #[inline]
    pub fn score_one(&self, row: &[u32]) -> u32 {
        debug_assert_eq!(row.len(), self.n_features(), "row arity mismatches the frozen model");
        self.scores.argmax(row, &self.offsets, &self.prefactors, self.post_scale) as u32
    }

    /// [`score_one`](Self::score_one) over a batch of rows into a
    /// caller-provided buffer: `out` is cleared and refilled, so a buffer
    /// with enough capacity makes the whole call allocation-free — the
    /// steady state a serving loop wants.
    ///
    /// The rows are scored in tiles that share each pass over the table
    /// (DESIGN.md §9); every label is the one [`score_one`](Self::score_one)
    /// gives its row.
    pub fn score_batch<'a, I>(&self, rows: I, out: &mut Vec<u32>)
    where
        I: IntoIterator<Item = &'a [u32]>,
    {
        let Ok(()) = self.serve_rows(rows, out, |_| Ok::<_, Infallible>(None));
    }

    /// The one batch-serving loop: pulls `rows` into a stack tile, asks
    /// `admit` about each row as it arrives, and scores every full tile in
    /// shared passes over the table. `admit` returns `None` to score the row as
    /// it is, `Some(replacement)` to score a replacement row instead (which
    /// flushes the pending tile and is scored alone), or an error, on
    /// which the pending rows are scored and the error returned — so `out`
    /// (cleared first) holds exactly the labels of the rows before the
    /// refused one.
    pub(crate) fn serve_rows<'a, I, E>(
        &self,
        rows: I,
        out: &mut Vec<u32>,
        mut admit: impl FnMut(&[u32]) -> Result<Option<Vec<u32>>, E>,
    ) -> Result<(), E>
    where
        I: IntoIterator<Item = &'a [u32]>,
    {
        out.clear();
        let mut tile: [&[u32]; TILE_ROWS] = [&[]; TILE_ROWS];
        let mut held = 0usize;
        for row in rows {
            match admit(row) {
                Ok(None) => {
                    tile[held] = row;
                    held += 1;
                    if held == TILE_ROWS {
                        self.score_tile(&tile, out);
                        held = 0;
                    }
                }
                Ok(Some(replacement)) => {
                    self.score_tile(&tile[..held], out);
                    held = 0;
                    out.push(self.score_one(&replacement));
                }
                Err(error) => {
                    self.score_tile(&tile[..held], out);
                    return Err(error);
                }
            }
        }
        self.score_tile(&tile[..held], out);
        Ok(())
    }

    /// Appends the labels of up to [`TILE_ROWS`] admissible rows to `out`.
    #[inline]
    fn score_tile(&self, rows: &[&[u32]], out: &mut Vec<u32>) {
        self.scores.argmax_rows(rows, &self.offsets, &self.prefactors, self.post_scale, out);
    }

    /// Checks that `row` is admissible for scoring: the model's arity, and
    /// every code either [`MISSING`](categorical_data::MISSING) or within
    /// its feature's fitted domain (the schema CSR baked in at freeze time).
    ///
    /// # Errors
    ///
    /// Returns [`McdcError::ArityMismatch`] on arity mismatch and
    /// [`McdcError::OutOfDomain`] for the first inadmissible code.
    pub fn validate_row(&self, row: &[u32]) -> Result<(), McdcError> {
        check_row(row, &self.offsets)
    }

    /// [`score_one`](Self::score_one) behind the trust boundary: validates
    /// the row first and only then scores it, so no input — wrong arity,
    /// out-of-domain codes, MISSING-dense or all-MISSING rows — can panic
    /// or touch out-of-bounds table entries. On clean input the label is
    /// bit-identical to [`score_one`](Self::score_one).
    ///
    /// # Errors
    ///
    /// The [`validate_row`](Self::validate_row) conditions.
    pub fn try_score_one(&self, row: &[u32]) -> Result<u32, McdcError> {
        self.validate_row(row)?;
        Ok(self.score_one(row))
    }

    /// [`try_score_one`](Self::try_score_one) over a batch of rows into a
    /// caller-provided buffer, tiled like [`score_batch`](Self::score_batch).
    /// `out` is cleared, and each row is validated as it arrives; on the
    /// first inadmissible row the error is returned and `out` holds the
    /// labels of the rows preceding it, so a caller can resume or discard.
    ///
    /// # Errors
    ///
    /// The [`validate_row`](Self::validate_row) conditions, for the first
    /// offending row.
    pub fn try_score_batch<'a, I>(&self, rows: I, out: &mut Vec<u32>) -> Result<(), McdcError>
    where
        I: IntoIterator<Item = &'a [u32]>,
    {
        self.serve_rows(rows, out, |row| self.validate_row(row).map(|()| None))
    }

    /// Serializes the model into the versioned little-endian binary format
    /// (magic, [`FORMAT_VERSION`](Self::FORMAT_VERSION), shape header,
    /// then offsets/prefactors/table with f64s as raw bit patterns, so
    /// deserializing reproduces the model bit for bit).
    pub fn to_bytes(&self) -> Vec<u8> {
        let table = self.scores.entries();
        let mut out = Vec::with_capacity(
            4 + 4 + 8 + 8 + self.offsets.len() * 4 + (self.prefactors.len() + table.len()) * 8,
        );
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.k() as u32).to_le_bytes());
        out.extend_from_slice(&(self.n_features() as u32).to_le_bytes());
        out.extend_from_slice(&self.post_scale.to_bits().to_le_bytes());
        for &off in &self.offsets {
            out.extend_from_slice(&off.to_le_bytes());
        }
        for &p in &self.prefactors {
            out.extend_from_slice(&p.to_bits().to_le_bytes());
        }
        for &t in table {
            out.extend_from_slice(&t.to_bits().to_le_bytes());
        }
        out
    }

    /// Reconstructs a model serialized by [`to_bytes`](Self::to_bytes),
    /// validating the magic, version, and every shape invariant before
    /// trusting a single table entry.
    ///
    /// # Errors
    ///
    /// Returns [`McdcError::CorruptModel`] naming the first violated
    /// invariant (truncated image, wrong magic, unsupported version,
    /// non-monotonic offsets, payload length disagreeing with the declared
    /// shape — checked before any table allocation — trailing bytes, and
    /// non-finite prefactors or table entries).
    pub fn from_bytes(bytes: &[u8]) -> Result<FrozenModel, McdcError> {
        let mut r = Reader { bytes, pos: 0 };
        let magic = r.take(4)?;
        if magic != MAGIC {
            return Err(corrupt(format!("bad magic {magic:02x?}, expected {MAGIC:02x?}")));
        }
        let version = r.u32()?;
        if version != FORMAT_VERSION {
            return Err(corrupt(format!(
                "unsupported format version {version} (this build reads {FORMAT_VERSION})"
            )));
        }
        let k = r.u32()? as usize;
        if k == 0 {
            return Err(corrupt("frozen model must hold at least one cluster".into()));
        }
        let d = r.u32()? as usize;
        let post_scale = f64::from_bits(r.u64()?);
        if !post_scale.is_finite() {
            return Err(corrupt(format!("non-finite post_scale {post_scale}")));
        }
        // The offsets array is sized by the header's feature count: check
        // it against the bytes that actually follow before allocating.
        let offsets_bytes = (d as u64 + 1) * 4;
        if offsets_bytes > (r.bytes.len() - r.pos) as u64 {
            return Err(corrupt(format!(
                "feature count {d} needs {offsets_bytes} offset bytes but only {} follow \
                 the header",
                r.bytes.len() - r.pos
            )));
        }
        let mut offsets = Vec::with_capacity(d + 1);
        for _ in 0..=d {
            offsets.push(r.u32()?);
        }
        if offsets[0] != 0 || offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(corrupt("CSR offsets must start at 0 and be non-decreasing".into()));
        }
        // Reconcile the shape header against the actual payload length
        // *before* allocating: an out-of-bounds CSR offset would otherwise
        // request a table allocation sized by attacker-controlled bytes.
        let k_pad = padded(k);
        let total = offsets[d] as usize;
        let body = (k + total * k_pad)
            .checked_mul(8)
            .ok_or_else(|| corrupt("scoring-table size overflows".into()))?;
        let remaining = r.bytes.len() - r.pos;
        if remaining != body {
            return Err(corrupt(format!(
                "CSR offsets declare {total} values ({body} payload bytes) but \
                 {remaining} bytes follow the header"
            )));
        }
        let mut prefactors = Vec::with_capacity(k);
        for l in 0..k {
            let p = f64::from_bits(r.u64()?);
            if !p.is_finite() {
                return Err(corrupt(format!("non-finite prefactor {p} for cluster {l}")));
            }
            prefactors.push(p);
        }
        let mut table = Vec::with_capacity(total * k_pad);
        for i in 0..total * k_pad {
            let entry = f64::from_bits(r.u64()?);
            if !entry.is_finite() {
                return Err(corrupt(format!(
                    "non-finite scoring-table entry {entry} at index {i}"
                )));
            }
            table.push(entry);
        }
        debug_assert_eq!(r.pos, r.bytes.len(), "length reconciliation consumed the image exactly");
        Ok(FrozenModel {
            offsets,
            scores: ScoreTable::from_parts(k, table),
            prefactors,
            post_scale,
        })
    }

    /// Writes [`to_bytes`](Self::to_bytes) to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`McdcError::CorruptModel`] wrapping the I/O failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), McdcError> {
        std::fs::write(path.as_ref(), self.to_bytes())
            .map_err(|e| corrupt(format!("writing {}: {e}", path.as_ref().display())))
    }

    /// Reads and [`from_bytes`](Self::from_bytes)-validates a model saved
    /// by [`save`](Self::save).
    ///
    /// # Errors
    ///
    /// Returns [`McdcError::CorruptModel`] on I/O failure or any
    /// validation failure.
    pub fn load(path: impl AsRef<Path>) -> Result<FrozenModel, McdcError> {
        let bytes = std::fs::read(path.as_ref())
            .map_err(|e| corrupt(format!("reading {}: {e}", path.as_ref().display())))?;
        FrozenModel::from_bytes(&bytes)
    }
}

fn corrupt(message: String) -> McdcError {
    McdcError::CorruptModel { message }
}

/// Bounds-checked little-endian cursor over a serialized image.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8], McdcError> {
        let end =
            self.pos.checked_add(len).filter(|&e| e <= self.bytes.len()).ok_or_else(|| {
                corrupt(format!("truncated image: wanted {len} bytes at offset {}", self.pos))
            })?;
        let chunk = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(chunk)
    }

    fn u32(&mut self) -> Result<u32, McdcError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("take returned 4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, McdcError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("take returned 8 bytes")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use categorical_data::{Schema, MISSING};

    fn profiles_for(
        rows: &[&[u32]],
        labels: &[usize],
        k: usize,
        schema: &Schema,
    ) -> Vec<ClusterProfile> {
        let mut table = CategoricalTable::new(schema.clone());
        for row in rows {
            table.push_row(row).unwrap();
        }
        (0..k)
            .map(|l| {
                let members: Vec<usize> =
                    labels.iter().enumerate().filter(|(_, &m)| m == l).map(|(i, _)| i).collect();
                ClusterProfile::from_members(&table, &members)
            })
            .collect()
    }

    #[test]
    fn frozen_scores_match_live_similarity() {
        let schema = Schema::uniform(3, 4);
        let rows: &[&[u32]] = &[&[0, 1, 2], &[0, 1, 3], &[3, 2, 0], &[3, 2, 1]];
        let labels = [0usize, 0, 1, 1];
        let profiles = profiles_for(rows, &labels, 2, &schema);
        let frozen = FrozenModel::from_profiles(&profiles);
        assert_eq!(frozen.k(), 2);
        assert_eq!(frozen.n_features(), 3);
        // Row 0 matches cluster 0 perfectly on features 0 and 1.
        assert_eq!(frozen.score_one(&[0, 1, 2]), 0);
        assert_eq!(frozen.score_one(&[3, 2, 0]), 1);
        // MISSING contributes nothing on either side of the comparison.
        assert_eq!(frozen.score_one(&[MISSING, 1, MISSING]), 0);
    }

    #[test]
    fn ties_resolve_to_the_first_index() {
        let schema = Schema::uniform(2, 2);
        // Two identical clusters: every row ties, the first index must win.
        let rows: &[&[u32]] = &[&[0, 1], &[0, 1]];
        let labels = [0usize, 1];
        let profiles = profiles_for(rows, &labels, 2, &schema);
        let frozen = FrozenModel::from_profiles(&profiles);
        assert_eq!(frozen.score_one(&[0, 1]), 0);
        assert_eq!(frozen.score_one(&[1, 0]), 0);
    }

    #[test]
    fn try_score_one_validates_and_matches_fast_path() {
        let schema = Schema::uniform(3, 4);
        let rows: &[&[u32]] = &[&[0, 1, 2], &[0, 1, 3], &[3, 2, 0], &[3, 2, 1]];
        let labels = [0usize, 0, 1, 1];
        let profiles = profiles_for(rows, &labels, 2, &schema);
        let frozen = FrozenModel::from_profiles(&profiles);
        for row in rows {
            assert_eq!(frozen.try_score_one(row).unwrap(), frozen.score_one(row));
        }
        assert_eq!(
            frozen.try_score_one(&[0, 1]),
            Err(McdcError::ArityMismatch { expected: 3, found: 2 })
        );
        assert_eq!(
            frozen.try_score_one(&[0, 4, 0]),
            Err(McdcError::OutOfDomain { feature: 1, code: 4, cardinality: 4 })
        );
        // All-MISSING rows are admissible and tie-break to the first index.
        assert_eq!(frozen.try_score_one(&[MISSING; 3]).unwrap(), 0);
    }

    #[test]
    fn try_score_batch_stops_at_first_bad_row() {
        let schema = Schema::uniform(2, 2);
        let profiles = profiles_for(&[&[0, 1], &[1, 0]], &[0, 1], 2, &schema);
        let frozen = FrozenModel::from_profiles(&profiles);
        let mut out = Vec::new();
        let rows: &[&[u32]] = &[&[0, 1], &[9, 9], &[1, 0]];
        let err = frozen.try_score_batch(rows.iter().copied(), &mut out).unwrap_err();
        assert!(matches!(err, McdcError::OutOfDomain { feature: 0, code: 9, .. }));
        assert_eq!(out, vec![0]);
        frozen.try_score_batch([&[0u32, 1u32] as &[u32]], &mut out).unwrap();
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let schema = Schema::uniform(4, 3);
        let rows: &[&[u32]] = &[&[0, 1, 2, 0], &[2, 1, 0, 1], &[1, 0, 2, 2], &[0, 0, 0, 0]];
        let labels = [0usize, 1, 2, 0];
        let profiles = profiles_for(rows, &labels, 3, &schema);
        let frozen = FrozenModel::from_profiles(&profiles);
        let bytes = frozen.to_bytes();
        let back = FrozenModel::from_bytes(&bytes).unwrap();
        assert_eq!(back, frozen);
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn from_bytes_rejects_corruption() {
        let schema = Schema::uniform(2, 2);
        let profiles = profiles_for(&[&[0, 1]], &[0], 1, &schema);
        let bytes = FrozenModel::from_profiles(&profiles).to_bytes();
        // Truncation.
        assert!(matches!(
            FrozenModel::from_bytes(&bytes[..bytes.len() - 1]),
            Err(McdcError::CorruptModel { .. })
        ));
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(FrozenModel::from_bytes(&long), Err(McdcError::CorruptModel { .. })));
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(FrozenModel::from_bytes(&bad), Err(McdcError::CorruptModel { .. })));
        // Unsupported version.
        let mut vers = bytes;
        vers[4] = 99;
        assert!(matches!(FrozenModel::from_bytes(&vers), Err(McdcError::CorruptModel { .. })));
    }

    #[test]
    fn from_partition_validates_labels() {
        let schema = Schema::uniform(2, 2);
        let mut table = CategoricalTable::new(schema);
        table.push_row(&[0, 1]).unwrap();
        assert!(matches!(
            FrozenModel::from_partition(&table, &[0], 0),
            Err(McdcError::InvalidK { .. })
        ));
        assert!(matches!(
            FrozenModel::from_partition(&table, &[1], 1),
            Err(McdcError::InvalidConfig { .. })
        ));
        assert!(matches!(
            FrozenModel::from_partition(&table, &[0, 0], 1),
            Err(McdcError::InvalidConfig { .. })
        ));
        assert!(FrozenModel::from_partition(&table, &[0], 1).is_ok());
    }
}
