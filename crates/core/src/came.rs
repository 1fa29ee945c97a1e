//! CAME — Cluster Aggregation based on MGCPL Encoding (Algorithm 2).
//!
//! Feature-weighted k-modes over the Γ encoding: objects are assigned to the
//! mode minimizing the θ-weighted Hamming distance (Eq. 20), and feature
//! importances θ are refreshed from per-feature intra-cluster agreement
//! (Eqs. 21–22) until the partition reaches a fixpoint.
//!
//! # Parallel structure
//!
//! During Step 1 the encoding, modes, and θ are all read-only, so the
//! assignment is embarrassingly parallel: rows are chunked across rayon
//! workers and each chunk's labels computed independently — the result is
//! *identical* to the sequential sweep, not an approximation. Step 2's mode
//! counting and θ agreement counting accumulate integers per chunk and
//! merge, which is exact and order-independent. The chunked paths are
//! driven by the unified execution engine — [`CameBuilder::execution`]
//! here, or [`McdcBuilder::execution`](crate::McdcBuilder::execution) to
//! configure the whole pipeline at once (any replicated
//! [`ExecutionPlan`](crate::ExecutionPlan) enables them; small inputs fall
//! back to the serial path anyway). See `DESIGN.md` §"Hot path".

use categorical_data::{CategoricalTable, CsrLayout, MISSING};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

use crate::{ClusterProfile, ExecutionPlan, HotPathStats, McdcError, Workspace};

/// Row count below which the parallel paths are not worth the fork/join.
/// The rayon shim has no persistent pool: each call spawns a scoped thread
/// per core past the first, and the calling thread maps items from the same
/// queue (one spawn per call at 2 threads, ~23 µs spawn + join on a 2-vCPU
/// Xeon), so
/// the crossover sits higher than with a persistent rayon pool. The value
/// was set when every chunk spawned a thread and has not been re-measured.
/// No benchmark workload reaches the chunked path: `fit_syn` runs Serial,
/// `fit_nested_mb` fits n = 8,000 rows (below this gate), and
/// `stream_drift` runs no CAME (ROADMAP item 6).
const PARALLEL_MIN_ROWS: usize = 8192;

/// Safety slack added to every dirty-cluster margin test: the drift bounds
/// are accumulated in f64, so the comparison leaves room for the
/// accumulated rounding of the bound itself (≪ 1e-12 for O(1)-magnitude
/// distances) plus the re-evaluation noise between two f64 sweeps of the
/// same row. A margin inside the slack simply falls through to the full
/// rescan — exactness is never at risk, only a skip is forgone.
const LAZY_SLACK: f64 = 1e-9;

/// How CAME picks its initial modes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CameInit {
    /// Derive modes from the *coarsest* MGCPL granularity that still offers
    /// at least `k` clusters: take the `k` largest clusters there and use
    /// their modes, so the seeds reflect the most aggregated view able to
    /// supply `k` groups. Deterministic given Γ — this is what makes MCDC's
    /// Table III standard deviations vanish.
    #[default]
    GranularityGuided,
    /// Pick `k` distinct random objects as initial modes (classic k-modes).
    RandomObjects,
}

/// Configurable CAME aggregator. Construct via [`Came::builder`].
///
/// # Example
///
/// ```
/// use mcdc_core::{encode_partitions, Came};
///
/// // Two granularities over 6 objects; seek k = 2 final clusters.
/// let fine = vec![0usize, 0, 1, 1, 2, 2];
/// let coarse = vec![0usize, 0, 0, 0, 1, 1];
/// let encoding = encode_partitions(&[fine, coarse])?;
/// let result = Came::builder().build().fit(&encoding, 2)?;
/// assert_eq!(result.labels().len(), 6);
/// assert_eq!(result.labels()[0], result.labels()[1]);
/// assert_eq!(result.labels()[4], result.labels()[5]);
/// # Ok::<(), mcdc_core::McdcError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Came {
    max_iterations: usize,
    weighted: bool,
    init: CameInit,
    seed: u64,
    parallel: bool,
    force_chunking: bool,
}

/// Builder for [`Came`].
#[derive(Debug, Clone, PartialEq)]
pub struct CameBuilder {
    max_iterations: usize,
    weighted: bool,
    init: CameInit,
    seed: u64,
    parallel: bool,
    force_chunking: bool,
}

impl Default for CameBuilder {
    fn default() -> Self {
        CameBuilder {
            max_iterations: 100,
            weighted: true,
            init: CameInit::default(),
            seed: 0,
            parallel: true,
            force_chunking: false,
        }
    }
}

impl CameBuilder {
    /// Caps the alternating minimization iterations (the paper's `T`).
    pub fn max_iterations(mut self, cap: usize) -> Self {
        self.max_iterations = cap;
        self
    }

    /// Toggles the θ feature weighting of Eqs. (21)–(22); `false` freezes
    /// uniform weights (ablation MCDC₄).
    pub fn weighted(mut self, on: bool) -> Self {
        self.weighted = on;
        self
    }

    /// Sets the mode initialization strategy.
    pub fn init(mut self, init: CameInit) -> Self {
        self.init = init;
        self
    }

    /// Seeds the random fallback initialization.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Test hook: runs the chunked-parallel paths even when the rayon pool
    /// has a single worker (where `fit` otherwise falls back to the serial
    /// sweep, DESIGN.md §3). Lets single-core CI keep exercising the
    /// chunk-boundary bookkeeping.
    #[doc(hidden)]
    pub fn force_chunking(mut self, on: bool) -> Self {
        self.force_chunking = on;
        self
    }

    /// Derives the chunked-parallel toggle from an [`ExecutionPlan`]:
    /// [`ExecutionPlan::Serial`] forces the serial sweep, every replicated
    /// plan enables the rayon paths. Both paths produce bit-identical
    /// results — CAME's assignment and integer-merge updates are exact
    /// under chunking — so unlike MGCPL the plan changes only *how* CAME
    /// runs, never what it returns. This is the per-stage hook behind
    /// [`McdcBuilder::execution`](crate::McdcBuilder::execution), which
    /// configures MGCPL and CAME together.
    pub fn execution(mut self, plan: ExecutionPlan) -> Self {
        self.parallel = plan.is_parallel();
        self
    }

    /// Validates and builds the aggregator.
    ///
    /// # Panics
    ///
    /// Panics if `max_iterations` is zero.
    pub fn build(self) -> Came {
        assert!(self.max_iterations > 0, "max_iterations must be positive");
        Came {
            max_iterations: self.max_iterations,
            weighted: self.weighted,
            init: self.init,
            seed: self.seed,
            parallel: self.parallel,
            force_chunking: self.force_chunking,
        }
    }
}

/// Output of one CAME run.
#[derive(Debug, Clone)]
pub struct CameResult {
    labels: Vec<usize>,
    theta: Vec<f64>,
    modes: Vec<Vec<u32>>,
    iterations: usize,
    stats: HotPathStats,
}

// Equality is semantic (labels, θ, modes, iterations): the serial ≡
// parallel pins compare the computation, not the counters.
impl PartialEq for CameResult {
    fn eq(&self, other: &Self) -> bool {
        self.labels == other.labels
            && self.theta == other.theta
            && self.modes == other.modes
            && self.iterations == other.iterations
    }
}

impl CameResult {
    /// Final cluster labels, dense `0..k`.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Learned feature importances `Θ = {θ_1, …, θ_σ}` (sum to 1).
    pub fn theta(&self) -> &[f64] {
        &self.theta
    }

    /// Final cluster modes `Z` in Γ-space.
    pub fn modes(&self) -> &[Vec<u32>] {
        &self.modes
    }

    /// Alternating-minimization iterations used.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Hot-path counters: rows rescanned vs skipped by the dirty-cluster
    /// tracking, iterations as `passes`. Excluded from equality.
    pub fn stats(&self) -> &HotPathStats {
        &self.stats
    }
}

/// The cluster modes `Z` as one flat row-major `k×σ` matrix, so the
/// assignment kernel streams all modes contiguously instead of chasing one
/// heap allocation per cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ModeMatrix {
    data: Vec<u32>,
    sigma: usize,
}

impl ModeMatrix {
    fn from_rows(rows: Vec<Vec<u32>>, sigma: usize) -> ModeMatrix {
        let mut data = Vec::with_capacity(rows.len() * sigma);
        for row in rows {
            debug_assert_eq!(row.len(), sigma);
            data.extend_from_slice(&row);
        }
        ModeMatrix { data, sigma }
    }

    fn k(&self) -> usize {
        self.data.len() / self.sigma.max(1)
    }

    fn row(&self, l: usize) -> &[u32] {
        &self.data[l * self.sigma..(l + 1) * self.sigma]
    }

    fn into_rows(self) -> Vec<Vec<u32>> {
        self.data.chunks(self.sigma.max(1)).map(<[u32]>::to_vec).collect()
    }
}

impl Came {
    /// Starts building a CAME aggregator with paper-default behaviour.
    pub fn builder() -> CameBuilder {
        CameBuilder::default()
    }

    /// Clusters the Γ `encoding` into `k` clusters.
    ///
    /// # Errors
    ///
    /// Returns [`McdcError::EmptyInput`] for an empty encoding and
    /// [`McdcError::InvalidK`] when `k` is zero or exceeds `n`.
    pub fn fit(&self, encoding: &CategoricalTable, k: usize) -> Result<CameResult, McdcError> {
        let n = encoding.n_rows();
        if n == 0 {
            return Err(McdcError::EmptyInput);
        }
        if k == 0 || k > n {
            return Err(McdcError::InvalidK { k, n });
        }
        let sigma = encoding.n_features();
        let layout = encoding.schema().csr_layout();
        let mut theta = vec![1.0 / sigma as f64; sigma];
        let mut modes = ModeMatrix::from_rows(self.initial_modes(encoding, k), sigma);
        // The chunk machinery costs ~5% on a one-worker pool for zero
        // upside (DESIGN.md §3), so single-thread pools take the serial
        // sweep; the hidden `force_chunking` hook keeps the chunk-boundary
        // bookkeeping exercised on single-core CI. Both paths are exact,
        // so the gate never changes results.
        let parallel = self.parallel
            && n >= PARALLEL_MIN_ROWS
            && (rayon::current_num_threads() > 1 || self.force_chunking);

        let mut stats = HotPathStats::default();
        // The fit's scratch, reused across all of its iterations: each row's
        // winner margin, the per-cluster drift and skip thresholds, the
        // (Z, Θ) and labels an iteration started from, and Step 2's serial
        // count buffers.
        let mut margins = vec![f64::NEG_INFINITY; n];
        let mut drift = vec![0.0; k];
        let mut decay = vec![0.0; k];
        let mut prev_modes = modes.clone();
        let mut prev_theta = theta.clone();
        let mut start_labels = Vec::with_capacity(n);
        let mut counts = Vec::new();
        let mut intra = Vec::new();

        let mut labels = vec![usize::MAX; n];
        let mut iterations = 0;
        for _ in 0..self.max_iterations {
            iterations += 1;
            start_labels.clone_from(&labels);
            // Step 1: fix Θ and Z, recompute the partition Q (Eq. 20).
            // After the first iteration the per-cluster drift bound tells
            // which rows' cached margins still prove their winner (dirty-
            // cluster tracking, DESIGN.md §3); only the rest rescan against
            // all k modes.
            let skip: Option<&[f64]> = if iterations > 1 {
                compute_decay(&modes, &theta, &prev_modes, &prev_theta, &mut drift, &mut decay);
                Some(&decay)
            } else {
                None
            };
            let (changed, full, skipped) =
                assign_labels(encoding, &modes, &theta, &mut labels, &mut margins, skip, parallel);
            stats.full_rescans += full;
            stats.skipped_rescans += skipped;
            // Each full rescan scans all k modes; a skip proves its cached
            // winner without touching any (margin decay is O(1)).
            stats.score_evals += full * k as u64;

            // Re-seed emptied clusters on the objects farthest from their
            // current mode so the sought k is always delivered.
            reseed_empty_clusters(encoding, &mut labels, k, &theta, &modes, &mut margins);

            // Step 2: fix Q, update modes Z and feature weights Θ (Eqs. 21–22).
            // The (Z, Θ) the assignment above used become the drift
            // reference for the next iteration's skip test.
            let next_modes = modes_of_matrix(encoding, &layout, &labels, k, parallel, &mut counts);
            prev_modes = std::mem::replace(&mut modes, next_modes);
            if self.weighted {
                let next_theta = update_theta(encoding, &labels, &modes, parallel, &mut intra);
                prev_theta = std::mem::replace(&mut theta, next_theta);
            }

            // Stop when Step 1 moved no label, or when the re-seed moved
            // back exactly the rows Step 1 moved (k above the distinct rows
            // of Γ): then this Step 2 recomputed the (Z, Θ) the iteration
            // started from, and every later iteration would repeat this one.
            if !changed || labels == start_labels {
                break;
            }
        }

        stats.passes = iterations as u64;
        Ok(CameResult { labels, theta, modes: modes.into_rows(), iterations, stats })
    }

    /// [`fit`](Self::fit); the empty [`Workspace`] is ignored. Kept until
    /// the benchmark stops using it (ROADMAP item 12).
    ///
    /// # Errors
    ///
    /// Same conditions as [`fit`](Self::fit).
    pub fn fit_with(
        &self,
        encoding: &CategoricalTable,
        k: usize,
        _ws: &mut Workspace,
    ) -> Result<CameResult, McdcError> {
        self.fit(encoding, k)
    }

    /// Picks initial modes per the configured strategy.
    fn initial_modes(&self, encoding: &CategoricalTable, k: usize) -> Vec<Vec<u32>> {
        if self.init == CameInit::GranularityGuided {
            if let Some(modes) = granularity_guided_modes(encoding, k) {
                return modes;
            }
        }
        // Random distinct objects (classic k-modes fallback).
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut indices: Vec<usize> = (0..encoding.n_rows()).collect();
        indices.shuffle(&mut rng);
        indices.truncate(k);
        indices.iter().map(|&i| encoding.row(i).to_vec()).collect()
    }
}

/// θ-weighted Hamming distance of Eq. (20)'s inner sum.
fn weighted_hamming(row: &[u32], mode: &[u32], theta: &[f64]) -> f64 {
    row.iter()
        .zip(mode)
        .zip(theta)
        .map(|((&a, &b), &w)| if a == b && a != MISSING { 0.0 } else { w })
        .sum()
}

/// Fused Step-1 kernel for one object: the θ-Hamming-nearest mode and its
/// winner margin (second-best − best distance; `+∞` with a single mode),
/// scanning the flat mode matrix in one pass (ties resolve to the lowest
/// cluster index).
fn nearest_mode(row: &[u32], modes: &ModeMatrix, theta: &[f64]) -> (usize, f64) {
    let mut best = 0usize;
    let mut best_dist = f64::INFINITY;
    let mut second_dist = f64::INFINITY;
    for l in 0..modes.k() {
        let dist = weighted_hamming(row, modes.row(l), theta);
        if dist < best_dist {
            second_dist = best_dist;
            best_dist = dist;
            best = l;
        } else if dist < second_dist {
            second_dist = dist;
        }
    }
    (best, second_dist - best_dist)
}

/// Per-cluster skip thresholds for one Step-1 iteration (DESIGN.md §3):
/// cluster `l`'s distance to any row can have moved by at most
/// `drift[l] = Σ_r |Δθ_r| + Σ_{r: mode_l changed} max(θ_r, θ'_r)`
/// since the previous iteration (θ-term for features whose mismatch
/// indicator is unchanged, worst-case term where the mode row moved), so a
/// cached margin survives iff it exceeds `decay[l] = drift[l] +
/// max_{l'≠l} drift[l']` — the winner drifting up while the best other
/// cluster drifts down.
fn compute_decay(
    modes: &ModeMatrix,
    theta: &[f64],
    prev_modes: &ModeMatrix,
    prev_theta: &[f64],
    drift: &mut [f64],
    decay: &mut [f64],
) {
    let k = drift.len();
    let t_theta: f64 = theta.iter().zip(prev_theta).map(|(&a, &b)| (a - b).abs()).sum();
    for l in 0..k {
        let mut moved = t_theta;
        for (r, (&new, &old)) in modes.row(l).iter().zip(prev_modes.row(l)).enumerate() {
            if new != old {
                moved += theta[r].max(prev_theta[r]);
            }
        }
        drift[l] = moved;
    }
    let mut max = f64::NEG_INFINITY;
    let mut argmax = usize::MAX;
    let mut second = f64::NEG_INFINITY;
    for (l, &d) in drift.iter().enumerate() {
        if d > max {
            second = max;
            max = d;
            argmax = l;
        } else if d > second {
            second = d;
        }
    }
    for l in 0..k {
        let other = if l == argmax { second } else { max };
        decay[l] = drift[l] + if other == f64::NEG_INFINITY { 0.0 } else { other };
    }
}

/// One row of Step 1: skip on a surviving margin (decaying it by the
/// proven bound), full rescan otherwise.
#[allow(clippy::too_many_arguments)]
#[inline]
fn assign_row(
    row: &[u32],
    modes: &ModeMatrix,
    theta: &[f64],
    label: &mut usize,
    margin: &mut f64,
    decay: Option<&[f64]>,
    changed: &mut bool,
    full: &mut u64,
    skipped: &mut u64,
) {
    if let Some(decay) = decay {
        let l = *label;
        if l != usize::MAX && *margin > decay[l] + LAZY_SLACK {
            // The cached winner provably still wins strictly; its label —
            // and therefore the `changed` flag — are exactly what the full
            // rescan would produce. The margin shrinks by the worst-case
            // movement so later iterations keep an honest bound.
            *margin -= decay[l];
            *skipped += 1;
            return;
        }
    }
    *full += 1;
    let (best, fresh_margin) = nearest_mode(row, modes, theta);
    if *label != best {
        *label = best;
        *changed = true;
    }
    *margin = fresh_margin;
}

/// Step 1: recomputes every object's nearest mode, returning whether any
/// label changed plus the (rescanned, skipped) row counts. The parallel
/// path chunks the label/margin slices in place and is bit-identical to
/// the serial one (the per-row computation is independent and
/// deterministic); chunk buffers live in the caller's slices, so the
/// iteration allocates only the chunk work list.
fn assign_labels(
    encoding: &CategoricalTable,
    modes: &ModeMatrix,
    theta: &[f64],
    labels: &mut [usize],
    margins: &mut [f64],
    decay: Option<&[f64]>,
    parallel: bool,
) -> (bool, u64, u64) {
    let n = encoding.n_rows();
    debug_assert_eq!(labels.len(), n);
    debug_assert_eq!(margins.len(), n);
    let mut changed = false;
    let mut full = 0u64;
    let mut skipped = 0u64;
    if parallel {
        let rows_per_chunk = chunk_rows(n);
        let work: Vec<(usize, &mut [usize], &mut [f64])> = labels
            .chunks_mut(rows_per_chunk)
            .zip(margins.chunks_mut(rows_per_chunk))
            .enumerate()
            .map(|(c, (label_chunk, margin_chunk))| (c * rows_per_chunk, label_chunk, margin_chunk))
            .collect();
        let outcomes: Vec<(bool, u64, u64)> = work
            .into_par_iter()
            .map(|(start, label_chunk, margin_chunk)| {
                let mut changed = false;
                let mut full = 0u64;
                let mut skipped = 0u64;
                for (offset, (label, margin)) in
                    label_chunk.iter_mut().zip(margin_chunk.iter_mut()).enumerate()
                {
                    assign_row(
                        encoding.row(start + offset),
                        modes,
                        theta,
                        label,
                        margin,
                        decay,
                        &mut changed,
                        &mut full,
                        &mut skipped,
                    );
                }
                (changed, full, skipped)
            })
            .collect();
        for (chunk_changed, chunk_full, chunk_skipped) in outcomes {
            changed |= chunk_changed;
            full += chunk_full;
            skipped += chunk_skipped;
        }
    } else {
        for (i, (label, margin)) in labels.iter_mut().zip(margins.iter_mut()).enumerate() {
            assign_row(
                encoding.row(i),
                modes,
                theta,
                label,
                margin,
                decay,
                &mut changed,
                &mut full,
                &mut skipped,
            );
        }
    }
    (changed, full, skipped)
}

/// Chunk granularity for the parallel paths: a handful of chunks per worker
/// amortizes the spawn cost while keeping the tail short.
fn chunk_rows(n: usize) -> usize {
    n.div_ceil(rayon::current_num_threads() * 4).max(256)
}

/// Chunked `(start_row, labels_slice)` work list shared by the parallel
/// reductions.
fn label_chunks(labels: &[usize], n: usize) -> Vec<(usize, &[usize])> {
    let rows_per_chunk = chunk_rows(n);
    labels
        .chunks(rows_per_chunk)
        .enumerate()
        .map(|(c, chunk)| (c * rows_per_chunk, chunk))
        .collect()
}

/// Recomputes per-cluster modes from the current labels via one flat CSR
/// count matrix (`k × total_values` of plain `u32` in one buffer — modes
/// need counts only, not `k` separate `ClusterProfile`s).
/// The parallel path accumulates per-chunk matrices and sums them —
/// integer counts make the merge exact, so the resulting modes equal the
/// sequential ones. The serial path counts into the fit's `counts_buf`;
/// the parallel reduce keeps per-chunk accumulators (inherent to the
/// merge tree).
fn modes_of_matrix(
    encoding: &CategoricalTable,
    layout: &CsrLayout,
    labels: &[usize],
    k: usize,
    parallel: bool,
    counts_buf: &mut Vec<u32>,
) -> ModeMatrix {
    let n = encoding.n_rows();
    let sigma = encoding.n_features();
    let total = layout.total_values();
    let offsets = layout.offsets();
    let count_chunk = |counts: &mut [u32], start: usize, chunk: &[usize]| {
        for (offset, &l) in chunk.iter().enumerate() {
            let base = l * total;
            for (r, &code) in encoding.row(start + offset).iter().enumerate() {
                if code != MISSING {
                    counts[base + offsets[r] as usize + code as usize] += 1;
                }
            }
        }
    };
    let counts_owned: Vec<u32>;
    let counts: &[u32] = if parallel {
        counts_owned = label_chunks(labels, n)
            .into_par_iter()
            .map(|(start, chunk)| {
                let mut counts = vec![0u32; k * total];
                count_chunk(&mut counts, start, chunk);
                counts
            })
            .reduce(
                || vec![0u32; k * total],
                |mut acc, partial| {
                    for (a, p) in acc.iter_mut().zip(&partial) {
                        *a += p;
                    }
                    acc
                },
            );
        &counts_owned
    } else {
        counts_buf.clear();
        counts_buf.resize(k * total, 0);
        count_chunk(counts_buf, 0, labels);
        counts_buf
    };
    // Per cluster per feature: most frequent value, ties to the lowest
    // code, empty features to code 0 (same convention as
    // `ClusterProfile::mode`).
    let mut modes = Vec::with_capacity(k * sigma);
    for l in 0..k {
        let base = l * total;
        for r in 0..sigma {
            let feature = &counts[base + offsets[r] as usize..base + offsets[r + 1] as usize];
            let best = feature
                .iter()
                .enumerate()
                .max_by(|(ta, ca), (tb, cb)| ca.cmp(cb).then(tb.cmp(ta)))
                .map_or(0, |(t, _)| t as u32);
            modes.push(best);
        }
    }
    ModeMatrix { data: modes, sigma }
}

/// Feature weight update of Eqs. (21)–(22): θ_r ∝ the number of objects
/// agreeing with their cluster mode in feature r. Agreement counts are
/// integers, so the parallel per-chunk accumulation is exact. The serial
/// path counts into the fit's `intra_buf`.
fn update_theta(
    encoding: &CategoricalTable,
    labels: &[usize],
    modes: &ModeMatrix,
    parallel: bool,
    intra_buf: &mut Vec<u64>,
) -> Vec<f64> {
    let n = encoding.n_rows();
    let sigma = encoding.n_features();
    let count_chunk = |intra: &mut [u64], start: usize, chunk: &[usize]| {
        for (offset, &l) in chunk.iter().enumerate() {
            let row = encoding.row(start + offset);
            let mode = modes.row(l);
            for (slot, (&a, &b)) in intra.iter_mut().zip(row.iter().zip(mode)) {
                if a == b && a != MISSING {
                    *slot += 1;
                }
            }
        }
    };
    let intra_owned: Vec<u64>;
    let intra: &[u64] = if parallel {
        intra_owned = label_chunks(labels, n)
            .into_par_iter()
            .map(|(start, chunk)| {
                let mut intra = vec![0u64; sigma];
                count_chunk(&mut intra, start, chunk);
                intra
            })
            .reduce(
                || vec![0u64; sigma],
                |mut acc, partial| {
                    for (a, p) in acc.iter_mut().zip(&partial) {
                        *a += p;
                    }
                    acc
                },
            );
        &intra_owned
    } else {
        intra_buf.clear();
        intra_buf.resize(sigma, 0);
        count_chunk(intra_buf, 0, labels);
        intra_buf
    };
    let total: u64 = intra.iter().sum();
    if total == 0 {
        return vec![1.0 / sigma as f64; sigma];
    }
    let total = total as f64;
    intra.iter().map(|&v| v as f64 / total).collect()
}

/// Initial modes from the *coarsest* granularity with ≥ k clusters: the
/// modes of its k largest clusters. Returns `None` when no granularity is
/// wide enough.
fn granularity_guided_modes(encoding: &CategoricalTable, k: usize) -> Option<Vec<Vec<u32>>> {
    let n = encoding.n_rows();
    let j = guiding_granularity(encoding, k)?;
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
    // One reused profile: a bulk build keeps only counts, present-counts and
    // one reciprocal per feature, so it costs what plain value counting does.
    let mut profile = ClusterProfile::new(encoding.schema());
    Some(
        members
            .iter()
            .map(|m| {
                profile.reset();
                profile.extend_rows(m.iter().map(|&i| encoding.row(i)));
                profile.mode()
            })
            .collect(),
    )
}

/// Picks the granularity feature that seeds the guided modes. Granularities
/// are ordered finest → coarsest, and the scan runs from the coarsest end
/// for the *last* (coarsest) feature still offering at least `k` clusters,
/// so modes reflect the most aggregated view that can seed `k` clusters.
fn guiding_granularity(encoding: &CategoricalTable, k: usize) -> Option<usize> {
    let sigma = encoding.n_features();
    (0..sigma).rev().find(|&j| encoding.schema().domain(j).cardinality() as usize >= k)
}

/// Moves the farthest objects into any emptied cluster so exactly `k`
/// clusters stay populated. A moved row's cached margin no longer
/// describes its (forced) label, so it is invalidated — the next Step-1
/// iteration rescans exactly that row.
fn reseed_empty_clusters(
    encoding: &CategoricalTable,
    labels: &mut [usize],
    k: usize,
    theta: &[f64],
    modes: &ModeMatrix,
    margins: &mut [f64],
) {
    let mut sizes = vec![0usize; k];
    for &l in labels.iter() {
        sizes[l] += 1;
    }
    for l in 0..k {
        if sizes[l] > 0 {
            continue;
        }
        // Take the object farthest from its own mode, among clusters with
        // more than one member.
        let mut worst: Option<(usize, f64)> = None;
        for (i, &li) in labels.iter().enumerate() {
            if sizes[li] <= 1 {
                continue;
            }
            let dist = weighted_hamming(encoding.row(i), modes.row(li), theta);
            if worst.is_none_or(|(_, w)| dist > w) {
                worst = Some((i, dist));
            }
        }
        if let Some((i, _)) = worst {
            sizes[labels[i]] -= 1;
            labels[i] = l;
            sizes[l] = 1;
            margins[i] = f64::NEG_INFINITY;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode_partitions;

    fn two_granularities() -> CategoricalTable {
        // 8 objects: fine = 4 clusters of 2; coarse = 2 clusters of 4.
        let fine = vec![0usize, 0, 1, 1, 2, 2, 3, 3];
        let coarse = vec![0usize, 0, 0, 0, 1, 1, 1, 1];
        encode_partitions(&[fine, coarse]).unwrap()
    }

    #[test]
    fn recovers_coarse_partition_for_k2() {
        let encoding = two_granularities();
        let result = Came::builder().build().fit(&encoding, 2).unwrap();
        let l = result.labels();
        assert_eq!(l[0], l[3]);
        assert_eq!(l[4], l[7]);
        assert_ne!(l[0], l[4]);
    }

    #[test]
    fn recovers_fine_partition_for_k4() {
        let encoding = two_granularities();
        let result = Came::builder().build().fit(&encoding, 4).unwrap();
        let l = result.labels();
        assert_eq!(l[0], l[1]);
        assert_eq!(l[2], l[3]);
        assert_ne!(l[0], l[2]);
        let distinct: std::collections::HashSet<_> = l.iter().collect();
        assert_eq!(distinct.len(), 4);
    }

    #[test]
    fn theta_sums_to_one() {
        let encoding = two_granularities();
        let result = Came::builder().build().fit(&encoding, 2).unwrap();
        assert!((result.theta().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(result.theta().len(), 2);
    }

    #[test]
    fn invalid_k_rejected() {
        let encoding = two_granularities();
        assert!(matches!(
            Came::builder().build().fit(&encoding, 0),
            Err(McdcError::InvalidK { k: 0, .. })
        ));
        assert!(matches!(
            Came::builder().build().fit(&encoding, 9),
            Err(McdcError::InvalidK { k: 9, .. })
        ));
    }

    #[test]
    fn k_equal_n_gives_singletons() {
        let encoding = encode_partitions(&[vec![0, 1, 2]]).unwrap();
        let result = Came::builder().build().fit(&encoding, 3).unwrap();
        let distinct: std::collections::HashSet<_> = result.labels().iter().collect();
        assert_eq!(distinct.len(), 3);
    }

    #[test]
    fn unweighted_mode_keeps_uniform_theta() {
        let encoding = two_granularities();
        let result = Came::builder().weighted(false).build().fit(&encoding, 2).unwrap();
        assert_eq!(result.theta(), &[0.5, 0.5]);
    }

    #[test]
    fn random_init_still_partitions_everything() {
        let encoding = two_granularities();
        let result = Came::builder()
            .init(CameInit::RandomObjects)
            .seed(3)
            .build()
            .fit(&encoding, 2)
            .unwrap();
        assert_eq!(result.labels().len(), 8);
        assert!(result.labels().iter().all(|&l| l < 2));
    }

    #[test]
    fn weighted_hamming_ignores_matching_features() {
        let theta = [0.7, 0.3];
        assert_eq!(weighted_hamming(&[1, 2], &[1, 2], &theta), 0.0);
        assert!((weighted_hamming(&[1, 2], &[0, 2], &theta) - 0.7).abs() < 1e-12);
        assert!((weighted_hamming(&[1, 2], &[0, 0], &theta) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_given_encoding() {
        let encoding = two_granularities();
        let came = Came::builder().build();
        assert_eq!(came.fit(&encoding, 2).unwrap(), came.fit(&encoding, 2).unwrap());
    }

    #[test]
    fn guided_modes_seed_from_coarsest_sufficient_granularity() {
        // Both granularities offer >= 2 clusters; the guide must pick the
        // coarsest (feature 1, cardinality 2), not the finest. This pins the
        // coarsest-first scan the rustdoc promises.
        let encoding = two_granularities();
        assert_eq!(guiding_granularity(&encoding, 2), Some(1));
        // Only the fine granularity can supply 3+ clusters.
        assert_eq!(guiding_granularity(&encoding, 3), Some(0));
        assert_eq!(guiding_granularity(&encoding, 4), Some(0));
        // Nothing offers 5 clusters.
        assert_eq!(guiding_granularity(&encoding, 5), None);
        // And the modes derived for k=2 are the coarse clusters' modes: the
        // two coarse groups have fine labels {0,0,1,1}/{2,2,3,3} and coarse
        // labels 0/1, so the modes (lowest code on fine ties) are [0,0], [2,1].
        let modes = granularity_guided_modes(&encoding, 2).unwrap();
        assert_eq!(modes, vec![vec![0, 0], vec![2, 1]]);
    }

    #[test]
    fn parallel_and_serial_paths_agree_on_small_input() {
        let encoding = two_granularities();
        // n < PARALLEL_MIN_ROWS falls back to serial internally, but the
        // execution plan must not change results either way.
        let parallel = Came::builder()
            .execution(ExecutionPlan::mini_batch(4))
            .build()
            .fit(&encoding, 2)
            .unwrap();
        let serial =
            Came::builder().execution(ExecutionPlan::Serial).build().fit(&encoding, 2).unwrap();
        assert_eq!(parallel, serial);
    }
}
