//! Streaming extension of MCDC — the paper's future-work direction 2
//! ("extending the whole MCDC to process streaming and dynamic data").
//!
//! [`StreamingMcdc`] bootstraps the multi-granular structure on an initial
//! batch, then absorbs arriving objects online: each new object joins the
//! nearest micro-cluster at every granularity (one sweep of that
//! granularity's lane-padded count table, 8 clusters per block, then O(d)
//! writes to update the winner), and a *drift trigger* re-runs full MGCPL
//! when the fraction of poorly matched arrivals exceeds a threshold — the
//! cheap path keeps latency flat, the re-fit keeps the granularities honest
//! under distribution change.
//!
//! Memory stays bounded on unbounded streams: rows retained for re-fitting
//! live in a fixed-capacity reservoir (Vitter's algorithm R — each arrival
//! past capacity evicts a uniformly chosen retained row with probability
//! `capacity / n_seen`, so the reservoir is always a uniform sample of the
//! stream so far). The re-fit itself runs through the learner's configured
//! [`ExecutionPlan`](crate::ExecutionPlan), so a mini-batch plan
//! parallelizes the re-fit exactly like a batch fit. Every re-fit installs.
//!
//! Serving reads go through a **frozen snapshot** (DESIGN.md §9), not the
//! live learner: [`StreamingMcdc::serve_one`] answers from a compacted
//! [`FrozenModel`] of the served (coarsest) granularity, and the
//! drift-stat accessors ([`sigma`](StreamingMcdc::sigma),
//! [`kappa`](StreamingMcdc::kappa)) report the same snapshot. The snapshot
//! swaps only when a re-fit installs — [`absorb`](StreamingMcdc::absorb)
//! keeps updating the learner's counts in between — so serving reads
//! stay consistent between re-fits.
//!
//! # The trust boundary (DESIGN.md §11)
//!
//! [`absorb`](StreamingMcdc::absorb) and
//! [`serve_one`](StreamingMcdc::serve_one) are trusted-input fast paths:
//! they assume rows already satisfy the bootstrap schema. Traffic from
//! outside the process crosses the boundary through
//! [`try_absorb`](StreamingMcdc::try_absorb) /
//! [`try_serve_one`](StreamingMcdc::try_serve_one) /
//! [`try_serve_batch`](StreamingMcdc::try_serve_batch), which validate
//! arity and per-feature domain first and — instead of panicking or
//! silently folding garbage into profiles — either return
//! [`McdcError::ArityMismatch`] / [`McdcError::OutOfDomain`] or dispatch
//! on the stream's [`UnseenPolicy`]: reject, coerce unseen codes to
//! MISSING (the natural Eq. (2) semantics — MISSING contributes nothing),
//! or divert the whole row to a bounded quarantine buffer. Every outcome
//! is counted in [`IngestStats`], and a
//! [`ServingHealth`] state machine (`Healthy → Drifting → Degraded`,
//! driven by the drift ratio and the rejected-row rate) summarizes the
//! stream for a serving front end.

use std::collections::VecDeque;

use categorical_data::{CategoricalTable, MISSING};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::score::CountTable;
use crate::{FrozenModel, McdcError, Mgcpl, MgcplResult};

/// Default bound on the re-fit reservoir (rows).
const DEFAULT_BUFFER_CAPACITY: usize = 4096;

/// Default bound on the quarantine buffer (rows).
const DEFAULT_QUARANTINE_CAPACITY: usize = 256;

/// Offered-arrival floor below which the ratio-driven health transitions
/// stay quiet (a handful of arrivals is not evidence of anything).
const HEALTH_MIN_OFFERED: usize = 16;

/// Rejected + quarantined fraction of offered arrivals above which the
/// stream reports [`HealthState::Drifting`].
const DRIFTING_REJECT_RATIO: f64 = 0.25;

/// Rejected + quarantined fraction above which the stream reports
/// [`HealthState::Degraded`]: the majority of traffic is inadmissible.
const DEGRADED_REJECT_RATIO: f64 = 0.5;

/// What [`StreamingMcdc::try_absorb`] and
/// [`StreamingMcdc::try_serve_one`] do with a row carrying value codes
/// outside the fitted domains (codes the bootstrap schema has never seen).
///
/// Arity mismatches are not value problems and are never coerced: under
/// `Reject` and `AsMissing` they error, under `Quarantine` they divert
/// like any other malformed row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UnseenPolicy {
    /// Refuse the row: [`try_absorb`](StreamingMcdc::try_absorb) returns
    /// [`McdcError::OutOfDomain`] and counts it in
    /// [`IngestStats::rejected_rows`]; nothing is learned or retained.
    /// The default — fail loudly at the boundary.
    #[default]
    Reject,
    /// Coerce each out-of-domain code to
    /// [`MISSING`](categorical_data::MISSING) and admit the row — the
    /// natural Eq. (2) semantics, since MISSING already contributes
    /// nothing to any similarity. Coercions are counted in
    /// [`IngestStats::coerced_rows`] / [`IngestStats::coerced_values`].
    AsMissing,
    /// Divert the whole row, untouched, to a bounded quarantine buffer
    /// for forensics ([`StreamingMcdc::quarantined`]); profiles and the
    /// re-fit reservoir are never mutated. Serving reads
    /// ([`try_serve_one`](StreamingMcdc::try_serve_one)) have nothing to
    /// divert *to* and behave like `Reject`.
    Quarantine,
}

/// Outcome of one admitted [`StreamingMcdc::try_absorb`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission {
    /// The row was absorbed into the learner. `labels` are the
    /// per-granularity assignments (finest first, as
    /// [`absorb`](StreamingMcdc::absorb) returns them);
    /// `coerced_values` counts codes rewritten to MISSING on the way in
    /// (0 for clean rows and every policy except
    /// [`UnseenPolicy::AsMissing`]).
    Learned {
        /// Per-granularity cluster assignments, finest first.
        labels: Vec<usize>,
        /// Codes coerced to MISSING before absorption.
        coerced_values: usize,
    },
    /// The row was diverted to the quarantine buffer
    /// ([`UnseenPolicy::Quarantine`]); no learner state changed.
    Quarantined,
}

/// Deterministic admission counters at the ingest boundary, cumulative
/// over the stream's lifetime. All counts are exact and replayable: the
/// same arrivals in the same order produce the same stats on every run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Rows absorbed into the learner (clean or coerced), via `absorb`
    /// or `try_absorb`.
    pub admitted_rows: u64,
    /// Rows refused with an error ([`UnseenPolicy::Reject`] domain
    /// violations, and arity mismatches under every policy but
    /// [`UnseenPolicy::Quarantine`]).
    pub rejected_rows: u64,
    /// Rows diverted to the quarantine buffer.
    pub quarantined_rows: u64,
    /// Admitted rows that required at least one coercion
    /// ([`UnseenPolicy::AsMissing`]).
    pub coerced_rows: u64,
    /// Total codes coerced to MISSING across all admitted rows.
    pub coerced_values: u64,
}

/// The serving health of a stream — a three-state machine driven by the
/// drift ratio and the rejected-row rate (see
/// [`StreamingMcdc::serving_health`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HealthState {
    /// Arrivals match the served model and most offered rows are
    /// admissible.
    #[default]
    Healthy,
    /// Early warning: the drift ratio or the rejected-row rate has
    /// crossed its re-fit-level threshold — the served snapshot still
    /// answers, but a re-fit is due.
    Drifting,
    /// The majority of offered traffic is inadmissible, which no re-fit
    /// can cure. A serving front end should shed load or alert.
    Degraded,
}

/// Point-in-time health snapshot of a [`StreamingMcdc`], the summary a
/// serving front end (the future `mcdc-serve` crate) polls to decide
/// routing, alerting, and load shedding. Captured by
/// [`StreamingMcdc::serving_health`]; every field is deterministic for a
/// given arrival sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingHealth {
    /// Current state of the health machine.
    pub state: HealthState,
    /// Fraction of poorly matched arrivals since the last re-fit.
    pub drift_ratio: f64,
    /// Rejected + quarantined fraction of offered arrivals since the
    /// last re-fit (0 when nothing was offered).
    pub reject_ratio: f64,
    /// State transitions of the health machine over the stream's
    /// lifetime (deterministic per arrival sequence, so two replays of
    /// one seeded stream must agree).
    pub transitions: u64,
    /// Cumulative admission counters.
    pub ingest: IngestStats,
}

/// Online multi-granular clusterer over a stream of categorical objects.
///
/// # Example
///
/// ```
/// use categorical_data::synth::GeneratorConfig;
/// use mcdc_core::{Mgcpl, StreamingMcdc};
///
/// let batch = GeneratorConfig::new("stream", 300, vec![4; 8], 3)
///     .noise(0.1)
///     .generate(1)
///     .dataset;
/// let mut stream = StreamingMcdc::bootstrap(
///     Mgcpl::builder().seed(1).build(),
///     batch.table(),
/// )?;
/// // Feed new objects (here: replayed rows).
/// for i in 0..50 {
///     let labels = stream.absorb(batch.table().row(i));
///     assert_eq!(labels.len(), stream.sigma());
/// }
/// assert_eq!(stream.n_seen(), 350);
/// # Ok::<(), mcdc_core::McdcError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StreamingMcdc {
    mgcpl: Mgcpl,
    /// Per-granularity cluster counts, finest first. This is *learner*
    /// state: `absorb` updates it online and re-fits rebuild it.
    levels: Vec<CountTable>,
    /// The serving-side view: a frozen compaction of the coarsest
    /// granularity plus the κ/σ summary, captured at the last (re-)fit.
    /// `serve_one` and the drift-stat accessors read this, so absorbs
    /// between re-fits never leak into serving.
    served: ServedSnapshot,
    /// Similarity below which an arrival counts as poorly matched.
    drift_threshold: f64,
    /// Poorly matched arrivals since the last re-fit.
    drifted: usize,
    /// All arrivals since the last re-fit.
    arrived: usize,
    /// Rows retained for re-fitting (bounded reservoir, algorithm R).
    buffer: CategoricalTable,
    /// Maximum rows the reservoir retains.
    buffer_capacity: usize,
    /// Drives the reservoir's eviction choices (deterministic stream).
    reservoir_rng: ChaCha8Rng,
    n_seen: usize,
    /// What `try_absorb`/`try_serve_one` do with out-of-domain codes.
    unseen_policy: UnseenPolicy,
    /// Quarantined rows, most recent last; bounded by
    /// `quarantine_capacity` (oldest evicted first). Rows here may be
    /// arbitrarily malformed — they never touch `buffer` or profiles.
    quarantine: VecDeque<Vec<u32>>,
    /// Maximum rows the quarantine buffer retains.
    quarantine_capacity: usize,
    /// Cumulative admission counters.
    ingest: IngestStats,
    /// Rejected + quarantined arrivals since the last re-fit (the
    /// windowed numerator of the health machine's reject ratio).
    window_rejected: usize,
    /// Minimum admitted arrivals before the drift trigger may fire
    /// (default 32).
    refit_min_arrivals: usize,
    /// Drift ratio above which the trigger fires (default 0.25).
    refit_drift_ratio: f64,
    /// Latched health state (transitions are counted, so it is a latch,
    /// not a pure function re-derived per read).
    health: HealthState,
    /// Health-state transitions over the stream's lifetime.
    health_transitions: u64,
}

impl StreamingMcdc {
    /// Fits MGCPL on `batch` and installs per-granularity cluster counts for
    /// online absorption.
    ///
    /// # Errors
    ///
    /// Propagates [`McdcError`] from the underlying MGCPL fit.
    pub fn bootstrap(mgcpl: Mgcpl, batch: &CategoricalTable) -> Result<Self, McdcError> {
        let result = mgcpl.fit(batch)?;
        Ok(StreamingMcdc {
            mgcpl,
            levels: count_tables(batch, &result),
            served: ServedSnapshot::capture(batch, &result),
            drift_threshold: 0.3,
            drifted: 0,
            arrived: 0,
            buffer: batch.clone(),
            buffer_capacity: DEFAULT_BUFFER_CAPACITY.max(batch.n_rows()),
            // Fixed stream: the reservoir's evictions are deterministic, so
            // replaying the same arrivals reproduces the same re-fit data.
            reservoir_rng: ChaCha8Rng::seed_from_u64(0x9E37_79B9_7F4A_7C15),
            n_seen: batch.n_rows(),
            unseen_policy: UnseenPolicy::default(),
            quarantine: VecDeque::new(),
            quarantine_capacity: DEFAULT_QUARANTINE_CAPACITY,
            ingest: IngestStats::default(),
            window_rejected: 0,
            refit_min_arrivals: 32,
            refit_drift_ratio: 0.25,
            health: HealthState::Healthy,
            health_transitions: 0,
        })
    }

    /// Re-fits rolled back instead of installed: always 0, since every
    /// [`refit`](Self::refit) installs. Kept so callers that report the
    /// count keep building.
    pub fn rollbacks(&self) -> u64 {
        0
    }

    /// Sets the similarity threshold under which arrivals count toward the
    /// drift trigger (default 0.3).
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not in `[0, 1]`.
    pub fn with_drift_threshold(mut self, threshold: f64) -> Self {
        assert!((0.0..=1.0).contains(&threshold), "threshold must be in [0, 1]");
        self.drift_threshold = threshold;
        self
    }

    /// Bounds the re-fit reservoir to `capacity` rows (default 4096, or the
    /// bootstrap batch size when that is larger). Once full, arrivals
    /// displace uniformly chosen retained rows (algorithm R), keeping the
    /// reservoir a uniform sample of the whole stream.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is smaller than the rows already retained.
    pub fn with_buffer_capacity(mut self, capacity: usize) -> Self {
        assert!(
            capacity >= self.buffer.n_rows(),
            "capacity {capacity} is below the {} rows already retained",
            self.buffer.n_rows()
        );
        self.buffer_capacity = capacity;
        self
    }

    /// Number of rows currently retained for re-fitting.
    pub fn buffered_rows(&self) -> usize {
        self.buffer.n_rows()
    }

    /// The reservoir bound configured for this stream.
    pub fn buffer_capacity(&self) -> usize {
        self.buffer_capacity
    }

    /// Sets the [`UnseenPolicy`] applied by
    /// [`try_absorb`](Self::try_absorb) and
    /// [`try_serve_one`](Self::try_serve_one) (default
    /// [`UnseenPolicy::Reject`]).
    #[must_use]
    pub fn with_unseen_policy(mut self, policy: UnseenPolicy) -> Self {
        self.unseen_policy = policy;
        self
    }

    /// The configured [`UnseenPolicy`].
    pub fn unseen_policy(&self) -> UnseenPolicy {
        self.unseen_policy
    }

    /// Bounds the quarantine buffer to `capacity` rows (default 256).
    /// Once full, diverting another row evicts the oldest — the buffer
    /// always holds the most recent quarantined traffic, and
    /// [`IngestStats::quarantined_rows`] keeps the lifetime total.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 (a quarantine that can hold nothing
    /// cannot honor [`UnseenPolicy::Quarantine`]).
    #[must_use]
    pub fn with_quarantine_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "quarantine capacity must be at least 1");
        self.quarantine_capacity = capacity;
        while self.quarantine.len() > capacity {
            self.quarantine.pop_front();
        }
        self
    }

    /// The quarantine bound configured for this stream.
    pub fn quarantine_capacity(&self) -> usize {
        self.quarantine_capacity
    }

    /// The currently quarantined rows, oldest first (at most
    /// [`quarantine_capacity`](Self::quarantine_capacity) of them). Rows
    /// here are verbatim as offered — wrong arity and out-of-domain codes
    /// included — for forensics; they never touched the learner.
    pub fn quarantined(&self) -> impl ExactSizeIterator<Item = &[u32]> {
        self.quarantine.iter().map(Vec::as_slice)
    }

    /// Removes and returns the quarantined rows (oldest first), emptying
    /// the buffer. The lifetime counter
    /// [`IngestStats::quarantined_rows`] is unaffected.
    pub fn drain_quarantine(&mut self) -> Vec<Vec<u32>> {
        self.quarantine.drain(..).collect()
    }

    /// The cumulative admission counters at the ingest boundary.
    pub fn ingest_stats(&self) -> IngestStats {
        self.ingest
    }

    /// Promotes the re-fit trigger constants to explicit knobs: the drift
    /// trigger fires after at least `min_arrivals` admitted arrivals
    /// (default 32) with a drift ratio strictly above
    /// `drift_ratio` (default 0.25). Defaults match the previous
    /// hardcoded behaviour exactly.
    ///
    /// # Errors
    ///
    /// Returns [`McdcError::InvalidConfig`] when `min_arrivals` is 0 or
    /// `drift_ratio` is non-finite or outside `[0, 1]`.
    pub fn with_refit_trigger(
        mut self,
        min_arrivals: usize,
        drift_ratio: f64,
    ) -> Result<Self, McdcError> {
        if min_arrivals == 0 {
            return Err(McdcError::InvalidConfig {
                parameter: "streaming.refit_min_arrivals",
                message: "must be at least 1 arrival".into(),
            });
        }
        if !drift_ratio.is_finite() || !(0.0..=1.0).contains(&drift_ratio) {
            return Err(McdcError::InvalidConfig {
                parameter: "streaming.refit_drift_ratio",
                message: format!("must be a finite ratio in [0, 1], got {drift_ratio}"),
            });
        }
        self.refit_min_arrivals = min_arrivals;
        self.refit_drift_ratio = drift_ratio;
        Ok(self)
    }

    /// The configured arrival floor of the re-fit trigger.
    pub fn refit_min_arrivals(&self) -> usize {
        self.refit_min_arrivals
    }

    /// The configured drift-ratio threshold of the re-fit trigger.
    pub fn refit_drift_ratio(&self) -> f64 {
        self.refit_drift_ratio
    }

    /// Number of granularity levels in the **served** snapshot — the model
    /// assignments are answered from, captured at the last (re-)fit and
    /// unaffected by [`absorb`](Self::absorb)'s online learner updates.
    pub fn sigma(&self) -> usize {
        self.served.kappa.len()
    }

    /// Cluster counts per granularity, finest first, of the **served**
    /// snapshot (see [`sigma`](Self::sigma) for the consistency contract).
    pub fn kappa(&self) -> Vec<usize> {
        self.served.kappa.clone()
    }

    /// The frozen compaction of the served (coarsest) granularity —
    /// read-only, swapped atomically with [`kappa`](Self::kappa)/
    /// [`sigma`](Self::sigma) when a re-fit installs. Save it with
    /// [`FrozenModel::save`](crate::FrozenModel::save) to deploy the
    /// stream's current model elsewhere.
    pub fn served_model(&self) -> &FrozenModel {
        &self.served.model
    }

    /// Assigns `row` to a cluster of the served (coarsest) granularity
    /// *without learning*: a read-only sweep of the frozen snapshot, so
    /// repeated calls between re-fits always agree — unlike
    /// [`absorb`](Self::absorb), which updates the learner's counts and
    /// may drift. This is the serving fast path (DESIGN.md §9), for rows
    /// already inside the trust boundary; untrusted rows go through
    /// [`try_serve_one`](Self::try_serve_one), which is bit-identical on
    /// clean input.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `row` arity mismatches the bootstrap
    /// schema or carries an out-of-domain code (see
    /// [`FrozenModel::score_one`] for the release-build contract).
    pub fn serve_one(&self, row: &[u32]) -> u32 {
        self.served.model.score_one(row)
    }

    /// [`serve_one`](Self::serve_one) over a batch of rows into a
    /// caller-provided buffer (cleared and refilled; allocation-free when
    /// `out` has capacity).
    pub fn serve_batch<'a, I>(&self, rows: I, out: &mut Vec<u32>)
    where
        I: IntoIterator<Item = &'a [u32]>,
    {
        self.served.model.score_batch(rows, out);
    }

    /// [`serve_one`](Self::serve_one) behind the trust boundary: validates
    /// `row` against the served model's schema first, so no input can
    /// panic or fold out-of-bounds table entries into the argmax. Clean
    /// rows get the identical label to the fast path.
    ///
    /// Out-of-domain codes follow the stream's [`UnseenPolicy`]:
    /// [`UnseenPolicy::AsMissing`] coerces them to MISSING and serves the
    /// coerced row (a read has no profiles to protect); `Reject` and
    /// `Quarantine` both error — a read-only serve has nothing to divert
    /// a row *to*, so quarantine is an ingestion-side concept. Serving is
    /// `&self` and leaves every counter untouched.
    ///
    /// # Errors
    ///
    /// [`McdcError::ArityMismatch`] always on wrong arity;
    /// [`McdcError::OutOfDomain`] under `Reject`/`Quarantine`.
    pub fn try_serve_one(&self, row: &[u32]) -> Result<u32, McdcError> {
        let model = &self.served.model;
        Ok(match self.admit_read(row)? {
            None => model.score_one(row),
            Some(coerced) => model.score_one(&coerced),
        })
    }

    /// The [`try_serve_one`](Self::try_serve_one) verdict on `row`: `None`
    /// to serve it as it is, the coerced row under
    /// [`UnseenPolicy::AsMissing`], or the refusal.
    fn admit_read(&self, row: &[u32]) -> Result<Option<Vec<u32>>, McdcError> {
        let model = &self.served.model;
        match (self.unseen_policy, model.validate_row(row)) {
            (_, Ok(())) => Ok(None),
            (UnseenPolicy::AsMissing, Err(McdcError::OutOfDomain { .. })) => {
                Ok(Some(coerce_unseen(model, row).0))
            }
            (_, Err(error)) => Err(error),
        }
    }

    /// [`try_serve_one`](Self::try_serve_one) over a batch of rows into a
    /// caller-provided buffer, through the same tiled loop as
    /// [`FrozenModel::try_score_batch`]. `out` is cleared, and each row is
    /// admitted (coerced under [`UnseenPolicy::AsMissing`]) as it arrives;
    /// on the first refused row the error is returned and `out` holds the
    /// labels of the rows preceding it.
    ///
    /// # Errors
    ///
    /// The [`try_serve_one`](Self::try_serve_one) conditions, for the
    /// first offending row.
    pub fn try_serve_batch<'a, I>(&self, rows: I, out: &mut Vec<u32>) -> Result<(), McdcError>
    where
        I: IntoIterator<Item = &'a [u32]>,
    {
        self.served.model.serve_rows(rows, out, |row| self.admit_read(row))
    }

    /// Total objects seen (batch + absorbed).
    pub fn n_seen(&self) -> usize {
        self.n_seen
    }

    /// Fraction of poorly matched arrivals since the last re-fit.
    pub fn drift_ratio(&self) -> f64 {
        if self.arrived == 0 {
            0.0
        } else {
            self.drifted as f64 / self.arrived as f64
        }
    }

    /// Absorbs one arriving object: assigns it to the most similar cluster
    /// at every granularity (updating that cluster's counts) and returns
    /// the per-granularity labels, finest first.
    ///
    /// This is the **trusted-input fast path**: the row must satisfy the
    /// bootstrap schema (arity asserted here; codes in-domain or MISSING,
    /// debug-asserted in the kernels). Rows from outside the trust
    /// boundary go through [`try_absorb`](Self::try_absorb), which
    /// validates both and is bit-identical on clean input — same labels,
    /// same count updates, same reservoir evictions, same counters.
    ///
    /// # Panics
    ///
    /// Panics if `row` arity mismatches the bootstrap schema.
    pub fn absorb(&mut self, row: &[u32]) -> Vec<usize> {
        assert_eq!(row.len(), self.buffer.n_features(), "row arity mismatch");
        self.admit(row)
    }

    /// [`absorb`](Self::absorb) behind the trust boundary: validates
    /// arity and per-feature domain against the bootstrap schema, then
    /// dispatches inadmissible rows on the stream's [`UnseenPolicy`]
    /// instead of panicking or silently corrupting profiles.
    ///
    /// * Clean rows are admitted exactly like [`absorb`](Self::absorb)
    ///   (bit-identical learner state) and return
    ///   [`Admission::Learned`] with `coerced_values: 0`.
    /// * Wrong-arity rows error with [`McdcError::ArityMismatch`] (or
    ///   divert under [`UnseenPolicy::Quarantine`] — arity cannot be
    ///   coerced).
    /// * Out-of-domain codes follow the policy: error
    ///   ([`UnseenPolicy::Reject`]), coerce to MISSING and admit
    ///   ([`UnseenPolicy::AsMissing`]), or divert the untouched row to
    ///   the bounded quarantine buffer ([`UnseenPolicy::Quarantine`]).
    ///
    /// Every outcome is counted in [`IngestStats`] and feeds the health
    /// machine ([`serving_health`](Self::serving_health)). Refused and
    /// quarantined rows never touch the profiles, the reservoir, or the
    /// reservoir's RNG — a stream that refuses a row is byte-identical
    /// to one never offered it.
    ///
    /// # Errors
    ///
    /// [`McdcError::ArityMismatch`] and [`McdcError::OutOfDomain`] as
    /// described above.
    pub fn try_absorb(&mut self, row: &[u32]) -> Result<Admission, McdcError> {
        let error = match self.served.model.validate_row(row) {
            Ok(()) => {
                let labels = self.admit(row);
                return Ok(Admission::Learned { labels, coerced_values: 0 });
            }
            Err(error) => error,
        };
        match (self.unseen_policy, &error) {
            (UnseenPolicy::Quarantine, _) => {
                self.divert(row);
                Ok(Admission::Quarantined)
            }
            // Only out-of-domain codes coerce; arity cannot.
            (UnseenPolicy::AsMissing, McdcError::OutOfDomain { .. }) => {
                let (coerced, coerced_values) = coerce_unseen(&self.served.model, row);
                let labels = self.admit(&coerced);
                self.ingest.coerced_rows += 1;
                self.ingest.coerced_values += coerced_values as u64;
                Ok(Admission::Learned { labels, coerced_values })
            }
            _ => {
                self.refuse();
                Err(error)
            }
        }
    }

    /// The shared admission path of [`absorb`](Self::absorb) and
    /// [`try_absorb`](Self::try_absorb): the row is already admissible.
    fn admit(&mut self, row: &[u32]) -> Vec<usize> {
        let mut labels = Vec::with_capacity(self.levels.len());
        let mut best_similarity = 0.0f64;
        for level in &mut self.levels {
            let (best, similarity) = level.nearest(row);
            level.add(best, row);
            labels.push(best);
            best_similarity = best_similarity.max(similarity);
        }
        self.record(row, best_similarity);
        labels
    }

    /// The bookkeeping of one admitted row whose best similarity across
    /// granularities was `best_similarity`: the reservoir, the drift
    /// window, the ingest counters and the health machine.
    fn record(&mut self, row: &[u32], best_similarity: f64) {
        self.n_seen += 1;
        if self.buffer.n_rows() < self.buffer_capacity {
            self.buffer.push_row(row).expect("admission validated the row");
        } else {
            // Algorithm R: the t-th object seen enters the full reservoir
            // with probability `retained / t`, displacing a uniform pick.
            let j = self.reservoir_rng.gen_range(0..self.n_seen);
            if j < self.buffer.n_rows() {
                self.buffer.replace_row(j, row).expect("admission validated the row");
            }
        }
        self.arrived += 1;
        if best_similarity < self.drift_threshold {
            self.drifted += 1;
        }
        self.ingest.admitted_rows += 1;
        self.update_health();
    }

    /// Counts a refused row and re-evaluates health. Nothing else moves.
    fn refuse(&mut self) {
        self.ingest.rejected_rows += 1;
        self.window_rejected += 1;
        self.update_health();
    }

    /// Diverts `row` to the bounded quarantine buffer (oldest evicted
    /// first) and re-evaluates health. The learner never sees the row.
    fn divert(&mut self, row: &[u32]) {
        if self.quarantine.len() == self.quarantine_capacity {
            self.quarantine.pop_front();
        }
        self.quarantine.push_back(row.to_vec());
        self.ingest.quarantined_rows += 1;
        self.window_rejected += 1;
        self.update_health();
    }

    /// Rejected + quarantined fraction of offered arrivals since the last
    /// re-fit (0 when nothing was offered).
    fn reject_ratio(&self) -> f64 {
        let offered = self.arrived + self.window_rejected;
        if offered == 0 {
            0.0
        } else {
            self.window_rejected as f64 / offered as f64
        }
    }

    /// Derives the health state from the windowed counters — a pure
    /// function of the stream's state, so replaying the same arrivals
    /// always walks the same transition sequence.
    fn assess_health(&self) -> HealthState {
        let offered = self.arrived + self.window_rejected;
        if offered >= HEALTH_MIN_OFFERED && self.reject_ratio() > DEGRADED_REJECT_RATIO {
            return HealthState::Degraded;
        }
        if (self.arrived >= HEALTH_MIN_OFFERED && self.drift_ratio() > self.refit_drift_ratio)
            || (offered >= HEALTH_MIN_OFFERED && self.reject_ratio() > DRIFTING_REJECT_RATIO)
        {
            return HealthState::Drifting;
        }
        HealthState::Healthy
    }

    /// Latches [`assess_health`](Self::assess_health), counting the
    /// transition when the state moved.
    fn update_health(&mut self) {
        let next = self.assess_health();
        if next != self.health {
            self.health = next;
            self.health_transitions += 1;
        }
    }

    /// Current state of the health machine (see [`ServingHealth`]).
    pub fn health(&self) -> HealthState {
        self.health
    }

    /// Captures the current [`ServingHealth`] snapshot — the summary a
    /// serving front end polls. `Healthy → Drifting` when the drift ratio
    /// or the rejected-row rate crosses its threshold; `→ Degraded` when
    /// the majority of offered traffic is inadmissible; back to `Healthy`
    /// when a re-fit resets the window. All thresholds are deterministic,
    /// so two replays of the same arrival sequence report identical
    /// snapshots.
    pub fn serving_health(&self) -> ServingHealth {
        ServingHealth {
            state: self.health,
            drift_ratio: self.drift_ratio(),
            reject_ratio: self.reject_ratio(),
            transitions: self.health_transitions,
            ingest: self.ingest,
        }
    }

    /// Whether enough poorly matched arrivals accumulated to warrant a
    /// re-fit: at least [`refit_min_arrivals`](Self::refit_min_arrivals)
    /// admitted arrivals with a drift ratio strictly above
    /// [`refit_drift_ratio`](Self::refit_drift_ratio).
    pub fn should_refit(&self) -> bool {
        self.arrived >= self.refit_min_arrivals && self.drift_ratio() > self.refit_drift_ratio
    }

    /// Re-runs full MGCPL over the retained reservoir (a uniform sample of
    /// everything seen so far, bounded by
    /// [`buffer_capacity`](Self::buffer_capacity)), rebuilding the
    /// granularities; resets the drift statistics. The fit runs through the
    /// learner's configured [`ExecutionPlan`](crate::ExecutionPlan),
    /// adapted to the reservoir's current row count
    /// ([`ExecutionPlan::for_rows`](crate::ExecutionPlan::for_rows)) — a
    /// plan sized for the bootstrap batch (an explicit `Sharded` partition,
    /// or a `MiniBatch` larger than the reservoir) would otherwise
    /// invalidate every re-fit once the stream grows past it. The learner's
    /// [`halo`](crate::MgcplBuilder::halo) needs no such adaptation and
    /// rides along unchanged: borrow lists clamp to the adapted shard
    /// sizes, so an overlapping re-fit stays well-posed at any reservoir
    /// size.
    ///
    /// The reservoir's encoded buffer is the fit input as-is and the plan
    /// adapts in place (no learner clone); like every fit, the re-fit
    /// allocates its own pass scratch.
    ///
    /// The re-fit always installs: the served snapshot
    /// ([`serve_one`](Self::serve_one),
    /// [`served_model`](Self::served_model), [`kappa`](Self::kappa),
    /// [`sigma`](Self::sigma)) swaps to the new granularities.
    ///
    /// # Errors
    ///
    /// Propagates [`McdcError`] from the underlying MGCPL fit.
    pub fn refit(&mut self) -> Result<(), McdcError> {
        let result = self.mgcpl.fit_adapted(&self.buffer)?;
        self.drifted = 0;
        self.arrived = 0;
        self.window_rejected = 0;
        self.levels = count_tables(&self.buffer, &result);
        self.served = ServedSnapshot::capture(&self.buffer, &result);
        self.update_health();
        Ok(())
    }
}

/// `row` (of the model's arity) with every out-of-domain code replaced by
/// MISSING, and the number of codes replaced.
fn coerce_unseen(model: &FrozenModel, row: &[u32]) -> (Vec<u32>, usize) {
    let mut replaced = 0usize;
    let coerced = row
        .iter()
        .enumerate()
        .map(|(r, &code)| {
            if code != MISSING && code >= model.feature_cardinality(r) {
                replaced += 1;
                MISSING
            } else {
                code
            }
        })
        .collect();
    (coerced, replaced)
}

/// The serving-side view of a stream: the frozen coarsest granularity and
/// the κ summary, captured together so serving reads are mutually
/// consistent (DESIGN.md §9).
#[derive(Debug, Clone, PartialEq)]
struct ServedSnapshot {
    /// Frozen compaction of the coarsest granularity's profiles.
    model: FrozenModel,
    /// Cluster counts per granularity at capture time, finest first.
    kappa: Vec<usize>,
}

impl ServedSnapshot {
    /// Freezes the coarsest granularity of a fit over `table`.
    fn capture(table: &CategoricalTable, result: &MgcplResult) -> ServedSnapshot {
        let k = *result.kappa.last().expect("MGCPL yields at least one granularity");
        ServedSnapshot {
            model: FrozenModel::from_partition(table, result.coarsest(), k)
                .expect("MGCPL labels its rows densely in 0..k"),
            kappa: result.kappa.clone(),
        }
    }
}

/// The learner state of a fit over `table`: one count table per
/// granularity, finest first.
fn count_tables(table: &CategoricalTable, result: &MgcplResult) -> Vec<CountTable> {
    result
        .partitions
        .iter()
        .zip(&result.kappa)
        .map(|(partition, &k)| CountTable::from_partition(table, partition, k))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterProfile;
    use categorical_data::synth::GeneratorConfig;

    fn batch(seed: u64) -> categorical_data::Dataset {
        GeneratorConfig::new("s", 300, vec![4; 8], 3).noise(0.1).generate(seed).dataset
    }

    /// Per-granularity cluster profiles of a fit over `table`, finest first.
    fn profiles(table: &CategoricalTable, result: &MgcplResult) -> Vec<Vec<ClusterProfile>> {
        result
            .partitions
            .iter()
            .zip(&result.kappa)
            .map(|(partition, &k)| {
                (0..k)
                    .map(|l| {
                        let members: Vec<usize> =
                            (0..partition.len()).filter(|&i| partition[i] == l).collect();
                        ClusterProfile::from_members(table, &members)
                    })
                    .collect()
            })
            .collect()
    }

    /// A stream whose learner is per-level `ClusterProfile`s scored one
    /// profile at a time with `similarity` and picked by
    /// `max_by(total_cmp)`; every other step (reservoir, drift window,
    /// health, re-fit) runs the stream's own code.
    struct ReferenceStream {
        stream: StreamingMcdc,
        levels: Vec<Vec<ClusterProfile>>,
    }

    impl ReferenceStream {
        fn new(stream: &StreamingMcdc, batch: &CategoricalTable) -> Self {
            let fitted = stream.mgcpl.fit(batch).unwrap();
            ReferenceStream { stream: stream.clone(), levels: profiles(batch, &fitted) }
        }

        fn admit(&mut self, row: &[u32]) -> Vec<usize> {
            let mut labels = Vec::new();
            let mut best_similarity = 0.0f64;
            for clusters in &mut self.levels {
                let (best, similarity) = clusters
                    .iter()
                    .map(|p| p.similarity(row))
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .unwrap();
                clusters[best].add(row);
                labels.push(best);
                best_similarity = best_similarity.max(similarity);
            }
            self.stream.record(row, best_similarity);
            labels
        }

        /// `try_absorb` under [`UnseenPolicy::AsMissing`].
        fn try_absorb(&mut self, row: &[u32]) -> Option<Vec<usize>> {
            let model = &self.stream.served.model;
            match model.validate_row(row) {
                Ok(()) => Some(self.admit(row)),
                Err(McdcError::OutOfDomain { .. }) => {
                    let (coerced, _) = coerce_unseen(model, row);
                    Some(self.admit(&coerced))
                }
                Err(_) => {
                    self.stream.refuse();
                    None
                }
            }
        }

        fn refit(&mut self) {
            let buffer = &self.stream.buffer;
            let fitted = self.stream.mgcpl.fit_adapted(buffer).unwrap();
            self.levels = profiles(buffer, &fitted);
            self.stream.refit().unwrap();
        }
    }

    #[test]
    fn absorb_replays_the_per_profile_reference_bit_for_bit() {
        let mut refits = 0usize;
        for (d, m) in [(16usize, 6u32), (10, 4), (64, 8), (5, 2)] {
            for seed in 0..4u64 {
                let case = format!("d={d} m={m} seed={seed}");
                let generator = GeneratorConfig::new("diff", 160, vec![m; d], 3).noise(0.1);
                let data = generator.generate(seed).dataset;
                let shifted = generator.generate(seed + 100).dataset;
                let mut stream =
                    StreamingMcdc::bootstrap(Mgcpl::builder().seed(seed).build(), data.table())
                        .unwrap()
                        .with_unseen_policy(UnseenPolicy::AsMissing)
                        .with_drift_threshold([0.3, 0.5, 0.7, 0.9][seed as usize])
                        .with_refit_trigger(40, 0.25)
                        .unwrap();
                let mut reference = ReferenceStream::new(&stream, data.table());
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let mut previous = data.table().row(0).to_vec();
                for t in 0..240usize {
                    // In-distribution rows first, then a shifted generator;
                    // duplicates, MISSING values, unseen codes (coerced) and
                    // wrong arity (refused) along the way.
                    let source = if t < 120 { data.table() } else { shifted.table() };
                    let mut row = source.row(rng.gen_range(0..source.n_rows())).to_vec();
                    match rng.gen_range(0..20) {
                        0 => row.fill(MISSING),
                        1 => row[rng.gen_range(0..d)] = m + rng.gen_range(0..3u32),
                        2 => row.truncate(d - 1),
                        3..=6 => {
                            for code in row.iter_mut() {
                                if rng.gen_bool(0.3) {
                                    *code = MISSING;
                                }
                            }
                        }
                        7 | 8 => row.clone_from(&previous),
                        _ => {}
                    }
                    previous.clone_from(&row);
                    let arrival = format!("{case} t={t} row={row:?}");
                    let labels = match stream.try_absorb(&row) {
                        Ok(Admission::Learned { labels, .. }) => Some(labels),
                        Ok(Admission::Quarantined) => unreachable!("AsMissing never diverts"),
                        Err(_) => None,
                    };
                    assert_eq!(labels, reference.try_absorb(&row), "{arrival}");
                    assert_eq!(
                        stream.drift_ratio().to_bits(),
                        reference.stream.drift_ratio().to_bits(),
                        "{arrival}"
                    );
                    assert_eq!(stream.should_refit(), reference.stream.should_refit(), "{arrival}");
                    assert_eq!(stream.kappa(), reference.stream.kappa(), "{arrival}");
                    assert_eq!(stream.health(), reference.stream.health(), "{arrival}");
                    let (health, expected) =
                        (stream.serving_health(), reference.stream.serving_health());
                    assert_eq!(health.transitions, expected.transitions, "{arrival}");
                    assert_eq!(
                        health.reject_ratio.to_bits(),
                        expected.reject_ratio.to_bits(),
                        "{arrival}"
                    );
                    if stream.should_refit() {
                        stream.refit().unwrap();
                        reference.refit();
                        refits += 1;
                        assert_eq!(stream.kappa(), reference.stream.kappa(), "{arrival}");
                    }
                }
                assert_eq!(stream.n_seen(), reference.stream.n_seen(), "{case}");
            }
        }
        assert!(refits >= 16, "only {refits} re-fits across the replays");
    }

    #[test]
    fn served_snapshot_freezes_the_coarsest_profiles() {
        let frozen = |table: &CategoricalTable, result: &MgcplResult| {
            let coarsest = profiles(table, result).pop().unwrap();
            FrozenModel::from_profiles(&coarsest).to_bytes()
        };
        let data = batch(19);
        let mgcpl = Mgcpl::builder().seed(1).build();
        let fitted = mgcpl.fit(data.table()).unwrap();
        let mut stream = StreamingMcdc::bootstrap(mgcpl, data.table()).unwrap();
        assert_eq!(stream.served_model().to_bytes(), frozen(data.table(), &fitted));
        for t in 0..200u32 {
            stream.absorb(&[3, t % 4, 3, 3, (t / 4) % 4, 3, 3, 3]);
        }
        let refitted = stream.mgcpl.fit_adapted(&stream.buffer).unwrap();
        stream.refit().unwrap();
        assert_eq!(stream.served_model().to_bytes(), frozen(&stream.buffer, &refitted));
    }

    #[test]
    fn try_serve_batch_equals_per_row_try_serve_one_across_tiles() {
        let data = batch(23);
        let table = data.table();
        let stream = StreamingMcdc::bootstrap(Mgcpl::builder().seed(1).build(), table).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        // Serve models of k ≤ 4 (narrow tile) and k > 4 (wide tile).
        for k in [3usize, 4, 9] {
            let labels: Vec<usize> = (0..table.n_rows()).map(|_| rng.gen_range(0..k)).collect();
            let model = FrozenModel::from_partition(table, &labels, k).unwrap();
            for policy in [UnseenPolicy::AsMissing, UnseenPolicy::Reject] {
                let mut stream = stream.clone().with_unseen_policy(policy);
                stream.served = ServedSnapshot { model: model.clone(), kappa: vec![k] };
                for len in 0..=11usize {
                    // Unseen codes (4..7) anywhere in a tile, MISSING values,
                    // and now and then a row of the wrong arity.
                    let rows: Vec<Vec<u32>> = (0..len)
                        .map(|_| {
                            let mut row = table.row(rng.gen_range(0..table.n_rows())).to_vec();
                            match rng.gen_range(0..8) {
                                0 | 1 => row[rng.gen_range(0..8usize)] = rng.gen_range(4..7),
                                2 => row[rng.gen_range(0..8usize)] = MISSING,
                                3 if rng.gen_bool(0.2) => row.truncate(5),
                                _ => {}
                            }
                            row
                        })
                        .collect();
                    let mut expected = Vec::new();
                    let mut error = None;
                    for row in &rows {
                        match stream.try_serve_one(row) {
                            Ok(label) => expected.push(label),
                            Err(e) => {
                                error = Some(e);
                                break;
                            }
                        }
                    }
                    let mut out = Vec::new();
                    let served = stream.try_serve_batch(rows.iter().map(Vec::as_slice), &mut out);
                    let case = format!("k={k} {policy:?} rows={rows:?}");
                    assert_eq!(served.err(), error, "{case}");
                    assert_eq!(out, expected, "{case}");
                }
            }
        }
    }

    #[test]
    fn bootstrap_installs_granularities() {
        let data = batch(1);
        let stream =
            StreamingMcdc::bootstrap(Mgcpl::builder().seed(1).build(), data.table()).unwrap();
        assert!(stream.sigma() >= 1);
        assert_eq!(stream.n_seen(), 300);
        assert!(stream.kappa().iter().all(|&k| k >= 1));
    }

    #[test]
    fn absorb_assigns_consistent_labels_for_replayed_rows() {
        let data = batch(2);
        let mut stream =
            StreamingMcdc::bootstrap(Mgcpl::builder().seed(1).build(), data.table()).unwrap();
        // Replaying an existing row lands near its own cluster: similarity
        // is high, so no drift is recorded.
        for i in 0..100 {
            stream.absorb(data.table().row(i));
        }
        assert_eq!(stream.n_seen(), 400);
        assert!(stream.drift_ratio() < 0.1, "ratio={}", stream.drift_ratio());
        assert!(!stream.should_refit());
    }

    #[test]
    fn novel_distribution_triggers_drift() {
        let data = batch(3);
        let mut stream =
            StreamingMcdc::bootstrap(Mgcpl::builder().seed(1).build(), data.table()).unwrap();
        // Feed objects from a disjoint value region (codes 3 vs modes near
        // 0-2) -- wait, domain is 0..4; craft rows unlikely in the batch.
        for _ in 0..40 {
            stream.absorb(&[3, 3, 3, 3, 3, 3, 3, 3]);
        }
        // Either drift was detected, or the crafted rows genuinely match an
        // existing cluster (possible if a mode sits at 3s); accept both but
        // require the accounting to be consistent.
        assert_eq!(stream.n_seen(), 340);
        assert!(stream.drift_ratio() >= 0.0);
    }

    #[test]
    fn refit_resets_drift_statistics() {
        let data = batch(4);
        let mut stream =
            StreamingMcdc::bootstrap(Mgcpl::builder().seed(1).build(), data.table()).unwrap();
        for i in 0..50 {
            stream.absorb(data.table().row(i));
        }
        stream.refit().unwrap();
        assert_eq!(stream.sigma(), stream.kappa().len());
        assert_eq!(stream.drift_ratio(), 0.0);
        assert_eq!(stream.n_seen(), 350);
    }

    #[test]
    fn reservoir_stays_bounded_under_long_adversarial_stream() {
        let data = batch(6);
        let mut stream = StreamingMcdc::bootstrap(Mgcpl::builder().seed(1).build(), data.table())
            .unwrap()
            .with_buffer_capacity(512);
        assert_eq!(stream.buffer_capacity(), 512);
        // A long stream that keeps missing the learned clusters: every row
        // sits in a value region the bootstrap never occupied densely, so
        // the drift counter keeps climbing while the reservoir must not.
        for t in 0..5_000u32 {
            let v = 3 - (t % 2); // alternate 3s and 2s, off-mode
            stream.absorb(&[v, 3, v, 3, v, 3, v, 3]);
        }
        assert_eq!(stream.n_seen(), 5_300);
        assert!(
            stream.buffered_rows() <= 512,
            "reservoir exceeded its bound: {} rows",
            stream.buffered_rows()
        );
        // The reservoir keeps refits well-posed after heavy eviction.
        assert!(stream.refit().is_ok());
        assert!(stream.buffered_rows() <= 512);
    }

    #[test]
    fn default_capacity_bounds_the_buffer() {
        let data = batch(7);
        let mut stream =
            StreamingMcdc::bootstrap(Mgcpl::builder().seed(1).build(), data.table()).unwrap();
        for _ in 0..6_000 {
            stream.absorb(&[3, 3, 3, 3, 3, 3, 3, 3]);
        }
        assert!(stream.buffered_rows() <= 4096, "rows={}", stream.buffered_rows());
    }

    #[test]
    fn absorb_after_refit_uses_refreshed_profiles() {
        let data = batch(8);
        let mut stream = StreamingMcdc::bootstrap(Mgcpl::builder().seed(1).build(), data.table())
            .unwrap()
            .with_drift_threshold(0.5);
        // Flood the stream with a novel, tightly repeated distribution the
        // bootstrap clusters match poorly.
        let novel = [3u32, 3, 3, 3, 3, 3, 3, 3];
        for _ in 0..600 {
            stream.absorb(&novel);
        }
        let drift_before = stream.drift_ratio();
        stream.refit().unwrap();
        // The reservoir is now dominated by the novel rows, so the re-fitted
        // granularities contain a cluster whose profile matches them almost
        // exactly: absorbing another novel row must not register drift.
        stream.absorb(&novel);
        assert_eq!(
            stream.drift_ratio(),
            0.0,
            "refreshed profiles must absorb the novel distribution cleanly \
             (drift before refit was {drift_before})"
        );
        // And the absorb updated the refreshed profiles, not stale ones:
        // the nearest cluster at every granularity now contains the row.
        let labels = stream.absorb(&novel);
        assert_eq!(labels.len(), stream.sigma());
    }

    #[test]
    fn refit_carries_the_halo_through() {
        use crate::ExecutionPlan;
        let data = batch(11);
        let mgcpl =
            Mgcpl::builder().seed(1).execution(ExecutionPlan::mini_batch(128)).halo(16).build();
        let mut stream = StreamingMcdc::bootstrap(mgcpl, data.table()).unwrap();
        for i in 0..200 {
            stream.absorb(data.table().row(i % 300));
        }
        // Two refits through the growing reservoir: the halo must stay
        // well-posed on every adapted plan.
        for _ in 0..2 {
            stream.refit().unwrap();
            assert!(stream.sigma() >= 1, "overlapping refit lost its granularities");
            assert!(stream.kappa().iter().all(|&k| k >= 1));
        }
    }

    #[test]
    fn refit_runs_through_the_configured_execution_plan() {
        use crate::ExecutionPlan;
        let data = batch(9);
        // A mini-batch plan is n-agnostic, so the engine follows the
        // reservoir's changing row count across refits.
        let mgcpl = Mgcpl::builder().seed(1).execution(ExecutionPlan::mini_batch(128)).build();
        let mut stream = StreamingMcdc::bootstrap(mgcpl, data.table()).unwrap();
        for i in 0..200 {
            stream.absorb(data.table().row(i % 300));
        }
        stream.refit().unwrap();
        assert!(stream.sigma() >= 1);
        assert!(stream.kappa().iter().all(|&k| k >= 1));
    }

    #[test]
    fn fixed_n_plans_adapt_across_refits() {
        use crate::ExecutionPlan;
        let data = batch(10);
        // Plans derived for the bootstrap table (an explicit 2-shard
        // partition of its 300 rows; a batch larger than the reservoir will
        // ever shrink to) must not wedge the stream: refit adapts them to
        // the reservoir's current row count instead of erroring forever.
        let plans = [
            ExecutionPlan::sharded(vec![(0..150).collect(), (150..300).collect()]),
            ExecutionPlan::mini_batch(300),
        ];
        for plan in plans {
            let mgcpl = Mgcpl::builder().seed(1).execution(plan).build();
            let mut stream = StreamingMcdc::bootstrap(mgcpl, data.table()).unwrap();
            for i in 0..100 {
                stream.absorb(data.table().row(i));
            }
            // 400 rows retained now; the bootstrap-sized plan no longer fits.
            stream.refit().expect("refit adapts the plan to the reservoir");
            assert!(stream.sigma() >= 1);
            // And refitting again after more growth keeps working.
            for i in 0..50 {
                stream.absorb(data.table().row(i));
            }
            assert!(stream.refit().is_ok());
        }
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn absorb_rejects_wrong_arity() {
        let data = batch(5);
        let mut stream =
            StreamingMcdc::bootstrap(Mgcpl::builder().seed(1).build(), data.table()).unwrap();
        stream.absorb(&[0, 1]);
    }

    #[test]
    fn serving_reads_come_from_the_served_snapshot_not_the_learner() {
        let data = batch(15);
        let mut stream =
            StreamingMcdc::bootstrap(Mgcpl::builder().seed(1).build(), data.table()).unwrap();
        let probes: Vec<Vec<u32>> = (0..20).map(|i| data.table().row(i).to_vec()).collect();
        let mut served_before = Vec::new();
        stream.serve_batch(probes.iter().map(Vec::as_slice), &mut served_before);
        let snapshot_before = stream.served_model().to_bytes();
        let kappa_before = stream.kappa();
        // Heavy absorb traffic mutates the learner's profiles — the served
        // snapshot, and with it every serving read, must not move.
        for _ in 0..500 {
            stream.absorb(&[3, 3, 3, 3, 3, 3, 3, 3]);
        }
        let mut served_after = Vec::new();
        stream.serve_batch(probes.iter().map(Vec::as_slice), &mut served_after);
        assert_eq!(served_after, served_before, "absorb traffic leaked into serving");
        assert_eq!(stream.served_model().to_bytes(), snapshot_before);
        assert_eq!(stream.kappa(), kappa_before);
        // A re-fit swaps the snapshot and the κ summary together.
        let refitted = stream.mgcpl.fit_adapted(&stream.buffer).unwrap();
        stream.refit().unwrap();
        assert_eq!(stream.kappa(), refitted.kappa);
        assert_eq!(stream.sigma(), refitted.sigma());
        assert_eq!(stream.served_model().k(), *stream.kappa().last().unwrap());
    }

    #[test]
    fn clean_refits_never_roll_back() {
        use crate::ExecutionPlan;
        let data = batch(14);
        let mgcpl = Mgcpl::builder().seed(1).execution(ExecutionPlan::mini_batch(75)).build();
        let mut stream = StreamingMcdc::bootstrap(mgcpl, data.table()).unwrap();
        for i in 0..50 {
            stream.absorb(data.table().row(i));
        }
        // Every re-fit installs: the served κ is the re-fit's κ.
        let refitted = stream.mgcpl.fit_adapted(&stream.buffer).unwrap();
        stream.refit().unwrap();
        assert!(stream.sigma() >= 1);
        assert_eq!(stream.kappa(), refitted.kappa);
        assert_eq!(stream.rollbacks(), 0);
    }

    #[test]
    fn refit_trigger_knobs_are_validated_and_defaults_unchanged() {
        let data = batch(5);
        let stream =
            StreamingMcdc::bootstrap(Mgcpl::builder().seed(1).build(), data.table()).unwrap();
        assert_eq!(stream.refit_min_arrivals(), 32);
        assert_eq!(stream.refit_drift_ratio(), 0.25);
        let stream = stream.with_refit_trigger(64, 0.5).unwrap();
        assert_eq!(stream.refit_min_arrivals(), 64);
        assert_eq!(stream.refit_drift_ratio(), 0.5);
        for bad in [f64::NAN, f64::INFINITY, -0.1, 1.5] {
            let err = stream.clone().with_refit_trigger(32, bad).unwrap_err();
            assert!(matches!(
                err,
                McdcError::InvalidConfig { parameter: "streaming.refit_drift_ratio", .. }
            ));
        }
        let err = stream.clone().with_refit_trigger(0, 0.25).unwrap_err();
        assert!(matches!(
            err,
            McdcError::InvalidConfig { parameter: "streaming.refit_min_arrivals", .. }
        ));
        // Boundaries are legal ratios.
        assert!(stream.clone().with_refit_trigger(1, 0.0).is_ok());
        assert!(stream.with_refit_trigger(1, 1.0).is_ok());
    }

    #[test]
    fn health_machine_walks_healthy_drifting_degraded_and_recovers() {
        use crate::ExecutionPlan;
        let data = batch(17);
        let mgcpl = Mgcpl::builder().seed(1).execution(ExecutionPlan::mini_batch(75)).build();
        let mut stream = StreamingMcdc::bootstrap(mgcpl, data.table())
            .unwrap()
            .with_refit_trigger(16, 0.25)
            .unwrap();
        assert_eq!(stream.health(), HealthState::Healthy);
        // Heavy off-mode traffic crosses the drift threshold.
        let off_mode = [3u32, 3, 3, 3, 3, 3, 3, 3];
        for _ in 0..HEALTH_MIN_OFFERED + 8 {
            stream.absorb(&off_mode);
        }
        let drifted = stream.serving_health();
        if drifted.drift_ratio > stream.refit_drift_ratio() {
            assert_eq!(drifted.state, HealthState::Drifting);
        }
        // Majority-inadmissible traffic degrades the stream.
        for _ in 0..3 * HEALTH_MIN_OFFERED {
            let _ = stream.try_absorb(&[0, 1]); // wrong arity, rejected
        }
        let health = stream.serving_health();
        assert!(health.reject_ratio > DEGRADED_REJECT_RATIO);
        assert_eq!(health.state, HealthState::Degraded);
        assert!(health.transitions >= 2, "Healthy→Drifting→Degraded walked");
        // A refit resets the window: back to Healthy.
        stream.refit().unwrap();
        assert_eq!(stream.rollbacks(), 0);
        assert_eq!(stream.health(), HealthState::Healthy);
        assert_eq!(stream.serving_health().reject_ratio, 0.0);
    }

    #[test]
    fn health_transitions_are_deterministic_per_replay() {
        let data = batch(18);
        let run = || {
            let mut stream =
                StreamingMcdc::bootstrap(Mgcpl::builder().seed(1).build(), data.table())
                    .unwrap()
                    .with_unseen_policy(UnseenPolicy::Quarantine);
            for t in 0..400u64 {
                match t % 5 {
                    0 => {
                        let _ = stream.try_absorb(&[0, 1]); // arity → quarantine
                    }
                    1 => {
                        let _ = stream.try_absorb(&[9, 9, 9, 9, 9, 9, 9, 9]); // domain
                    }
                    _ => {
                        let _ = stream.try_absorb(data.table().row((t as usize) % 300));
                    }
                }
            }
            let health = stream.serving_health();
            (health.transitions, health.state, health.ingest)
        };
        assert_eq!(run(), run(), "replaying the same arrivals must walk the same transitions");
    }
}
