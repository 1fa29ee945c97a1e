//! MGCPL — Multi-Granular Competitive Penalization Learning (Algorithm 1).
//!
//! Competitive learning over cluster frequency profiles with a *rival
//! penalization* twist: per input object the winning cluster is rewarded
//! (Eq. 12) while its nearest rival is pushed away (Eq. 13), so redundant
//! seed clusters starve, empty out, and are pruned. When the partition
//! reaches a fixpoint the learner records the surviving cluster count,
//! resets its competition statistics, and re-launches from the surviving
//! clusters — producing one partition per *granularity* until two
//! consecutive stages agree (`k_new == k_old`).

use categorical_data::stats::FrequencyTable;
use categorical_data::CategoricalTable;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

use categorical_data::CsrLayout;

use crate::execution::ShardMap;
use crate::score::ScoreTable;
use crate::weights::feature_weights_into;
use crate::{
    ClusterProfile, ExecutionPlan, HotPathStats, LearningTrace, McdcError, StageRecord, Workspace,
};

/// Safety valve on the number of granularity stages per fit: every stage
/// but the last strictly lowers k, so real fits stop far earlier.
const MAX_STAGES: usize = 64;

/// Ceiling on the default `k₀`: the paper's `round(√n)` up to n = 4,160,
/// a constant-size first stage above it (DESIGN.md §3).
const DEFAULT_K0_CAP: usize = 64;

/// Configurable MGCPL learner. Construct via [`Mgcpl::builder`].
///
/// # Example
///
/// ```
/// use categorical_data::synth::GeneratorConfig;
/// use mcdc_core::Mgcpl;
///
/// let data = GeneratorConfig::new("demo", 240, vec![4; 6], 3)
///     .noise(0.05)
///     .generate(5)
///     .dataset;
/// let result = Mgcpl::builder().seed(1).build().fit(data.table())?;
/// assert!(!result.partitions.is_empty());
/// // κ is strictly decreasing across granularities.
/// assert!(result.kappa.windows(2).all(|w| w[0] > w[1]) || result.kappa.len() == 1);
/// # Ok::<(), mcdc_core::McdcError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mgcpl {
    learning_rate: f64,
    initial_k: Option<usize>,
    max_inner_iterations: usize,
    weighted_similarity: bool,
    random_init: bool,
    seed: u64,
    execution: ExecutionPlan,
    halo: usize,
}

/// Builder for [`Mgcpl`]; defaults follow the paper (`η = 0.03`,
/// feature weighting on) except `k₀ = min(√n, 64)`: the paper's √n seeding
/// makes stage 1 cost O(n^1.5·d), and the cap keeps MGCPL linear in n at
/// no measured loss of quality (`BENCH_quality.json`, DESIGN.md §3).
#[derive(Debug, Clone, PartialEq)]
pub struct MgcplBuilder {
    learning_rate: f64,
    initial_k: Option<usize>,
    max_inner_iterations: usize,
    weighted_similarity: bool,
    random_init: bool,
    seed: u64,
    execution: ExecutionPlan,
    halo: usize,
}

impl Default for MgcplBuilder {
    fn default() -> Self {
        MgcplBuilder {
            learning_rate: 0.03,
            initial_k: None,
            max_inner_iterations: 8,
            weighted_similarity: true,
            random_init: true,
            seed: 0,
            execution: ExecutionPlan::Serial,
            halo: 0,
        }
    }
}

impl MgcplBuilder {
    /// Sets the learning rate `η` (paper default 0.03).
    pub fn learning_rate(mut self, eta: f64) -> Self {
        self.learning_rate = eta;
        self
    }

    /// Overrides the initial cluster count `k₀` (default `min(√n, 64)`,
    /// rounded, at least 2 and at most n; pass `round(√n)` for the paper's
    /// uncapped rule).
    pub fn initial_k(mut self, k0: usize) -> Self {
        self.initial_k = Some(k0);
        self
    }

    /// Caps the inner passes per stage (default 8 — the paper notes the
    /// iteration count `I` is small). The cap doubles as the granularity
    /// resolution: each stage ends at the earlier of the `Q` fixpoint or the
    /// cap, records the surviving cluster count as one granularity, and
    /// re-launches, so a tight cap yields finer-grained κ traces while a
    /// loose one lets whole cascades collapse within a single stage.
    pub fn max_inner_iterations(mut self, cap: usize) -> Self {
        self.max_inner_iterations = cap;
        self
    }

    /// Toggles the feature-weighted similarity of Eq. (14) (on by default;
    /// off reduces to the plain Eq. (1) similarity).
    pub fn weighted_similarity(mut self, on: bool) -> Self {
        self.weighted_similarity = on;
        self
    }

    /// Toggles between Alg. 1's random-object seeding (the default) and a
    /// deterministic frequent-row seeding that plants seeds on the most
    /// repeated rows. The deterministic variant removes run-to-run variance
    /// on data with heavy row overlap, but degenerates to first-k₀ objects
    /// when rows are mostly unique — keep the default unless the data is
    /// known to be overlap-dominated.
    pub fn random_init(mut self, on: bool) -> Self {
        self.random_init = on;
        self
    }

    /// Seeds the per-pass presentation order (and the seed choice when
    /// `random_init` is on).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the execution backend for the learning stage (default
    /// [`ExecutionPlan::Serial`]). Mini-batch and sharded plans run the
    /// replica-merge formulation: shard-local cascades against a frozen
    /// pass-start snapshot, reconciled by moving each row whose settled
    /// cluster changed between profiles and a shard-size-weighted δ
    /// average (see `DESIGN.md` §4).
    /// `MiniBatch { batch_size: n }` reproduces the serial labels
    /// bit-exactly; smaller batches change semantics but stay deterministic
    /// for a fixed seed and shard count.
    pub fn execution(mut self, plan: ExecutionPlan) -> Self {
        self.execution = plan;
        self
    }

    /// Lets the shards of a replicated plan overlap by `rows` boundary
    /// rows (default 0, disjoint shards). Each replica additionally
    /// presents the last `rows` rows of the previous shard and the first
    /// `rows` rows of the next, in shard-index order; a row presented to
    /// several replicas settles by a similarity-weighted vote of their
    /// verdicts, so each row still settles into exactly one profile.
    /// The halo pays on many small shards whose boundaries cut through
    /// natural clusters (DESIGN.md §5 has the 60-seed measurement). Each
    /// borrowed row costs one extra presentation per pass; the width
    /// clamps to the neighbor's size. No effect under
    /// [`ExecutionPlan::Serial`], which has no shards.
    ///
    /// # Example
    ///
    /// ```
    /// use categorical_data::synth::GeneratorConfig;
    /// use mcdc_core::{ExecutionPlan, Mgcpl};
    ///
    /// let data = GeneratorConfig::new("halo", 240, vec![4; 8], 3)
    ///     .noise(0.05)
    ///     .generate(7)
    ///     .dataset;
    /// let result = Mgcpl::builder()
    ///     .seed(1)
    ///     .execution(ExecutionPlan::mini_batch(30))
    ///     .halo(240 / 32)
    ///     .build()
    ///     .fit(data.table())?;
    /// assert!(result.kappa.windows(2).all(|w| w[0] > w[1]) || result.kappa.len() == 1);
    /// # Ok::<(), mcdc_core::McdcError>(())
    /// ```
    pub fn halo(mut self, rows: usize) -> Self {
        self.halo = rows;
        self
    }

    /// Validates and builds the learner.
    ///
    /// # Panics
    ///
    /// Panics on any configuration [`try_build`](Self::try_build) rejects:
    /// a non-finite or out-of-range `learning_rate` or a zero
    /// `max_inner_iterations`.
    pub fn build(self) -> Mgcpl {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Validates and builds the learner, reporting bad configuration as an
    /// error instead of panicking. Every real-valued knob is checked for
    /// NaN/∞ here, at the builder boundary, so non-finite inputs never
    /// propagate into the scoring kernels.
    ///
    /// # Errors
    ///
    /// Returns [`McdcError::InvalidConfig`] naming the offending parameter
    /// if `learning_rate` is not finite or outside `(0, 1)` or
    /// `max_inner_iterations` is zero.
    pub fn try_build(self) -> Result<Mgcpl, McdcError> {
        if !self.learning_rate.is_finite() || self.learning_rate <= 0.0 || self.learning_rate >= 1.0
        {
            return Err(McdcError::InvalidConfig {
                parameter: "learning_rate",
                message: format!("must be a finite value in (0, 1), got {}", self.learning_rate),
            });
        }
        if self.max_inner_iterations == 0 {
            return Err(McdcError::InvalidConfig {
                parameter: "max_inner_iterations",
                message: "must be positive".to_string(),
            });
        }
        Ok(Mgcpl {
            learning_rate: self.learning_rate,
            initial_k: self.initial_k,
            max_inner_iterations: self.max_inner_iterations,
            weighted_similarity: self.weighted_similarity,
            random_init: self.random_init,
            seed: self.seed,
            execution: self.execution,
            halo: self.halo,
        })
    }
}

/// Multi-granular output of one MGCPL run.
#[derive(Debug, Clone)]
pub struct MgcplResult {
    /// The partitions `Γ = {Y₁, …, Y_σ}`, finest first; labels are dense
    /// `0..kappa[j]` per granularity.
    pub partitions: Vec<Vec<usize>>,
    /// The cluster counts `κ = {k₁ > k₂ > … > k_σ}` (strictly decreasing;
    /// the terminal repeat stage is not recorded).
    pub kappa: Vec<usize>,
    /// Per-stage learning trace (Fig. 5).
    pub trace: LearningTrace,
    /// Hot-path counters (passes, scoring sweeps, merges). Excluded from
    /// equality: a one-shard mini-batch plan fits the serial partitions
    /// but also counts the rows it settles as merges.
    pub stats: HotPathStats,
}

// Equality is semantic — partitions, κ, trace — so serial ≡ full-batch
// pins compare what the algorithm computed, not the counters of how it
// was computed.
impl PartialEq for MgcplResult {
    fn eq(&self, other: &Self) -> bool {
        self.partitions == other.partitions
            && self.kappa == other.kappa
            && self.trace == other.trace
    }
}

impl Eq for MgcplResult {}

impl MgcplResult {
    /// The coarsest partition `Y_σ` (what ablation MCDC₃ clusters with).
    pub fn coarsest(&self) -> &[usize] {
        self.partitions.last().expect("MGCPL always produces at least one partition")
    }

    /// Number of granularity levels `σ`.
    pub fn sigma(&self) -> usize {
        self.partitions.len()
    }

    /// Compacts the served (coarsest) granularity into a read-only
    /// [`FrozenModel`](crate::FrozenModel) over `table` — the table this
    /// result was fitted on, which the result itself does not retain. The
    /// frozen `score_one` reproduces, bit for bit on the final argmax, the
    /// live [`ClusterProfile::similarity`] assignment against the coarsest
    /// partition's cluster profiles.
    ///
    /// # Errors
    ///
    /// Returns [`McdcError::InvalidConfig`] when `table` does not have one
    /// row per partition label (i.e. it is not the fitted table).
    pub fn freeze(&self, table: &CategoricalTable) -> Result<crate::FrozenModel, McdcError> {
        self.freeze_level(table, self.sigma() - 1)
    }

    /// [`freeze`](Self::freeze) for an arbitrary granularity `level`
    /// (finest first, `0..sigma()`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`freeze`](Self::freeze), plus
    /// [`McdcError::InvalidConfig`] for an out-of-range `level`.
    pub fn freeze_level(
        &self,
        table: &CategoricalTable,
        level: usize,
    ) -> Result<crate::FrozenModel, McdcError> {
        let (partition, &k) = match (self.partitions.get(level), self.kappa.get(level)) {
            (Some(p), Some(k)) => (p, k),
            _ => {
                return Err(McdcError::InvalidConfig {
                    parameter: "level",
                    message: format!(
                        "granularity level {level} is out of range for sigma = {}",
                        self.sigma()
                    ),
                })
            }
        };
        crate::FrozenModel::from_partition(table, partition, k)
    }
}

/// The sigmoid cluster weight of Eq. (11): `u = 1 / (1 + e^(−10δ+5))`.
fn sigmoid_weight(delta: f64) -> f64 {
    1.0 / (1.0 + (-10.0 * delta + 5.0).exp())
}

/// The live clusters' competition state, structure-of-arrays so the scoring
/// hot loop sweeps dense slices (one value-major [`ScoreTable`], one flat
/// `k×d` weight matrix) instead of hopping across per-cluster structs.
#[derive(Debug, Clone)]
pub(crate) struct Cohort {
    /// Frequency profiles, one per live cluster.
    profiles: Vec<ClusterProfile>,
    /// Award/penalty accumulators `δ_l`; `u_l` derives via Eq. (11).
    delta: Vec<f64>,
    /// Winning counts `g_l` of the previous passes (drive `ρ_l`, Eq. 7).
    wins_prev: Vec<u64>,
    /// Winning counts of the in-progress pass.
    wins_now: Vec<u64>,
    /// Feature weights `ω_rl` (Eq. 18), row-major `k×d`; uniform until the
    /// first pass ends.
    omega: Vec<f64>,
    /// The value-major scoring table: cluster `l`'s similarity term for
    /// each flat value — `ω_rl · c/p` in weighted mode, the plain `c/p`
    /// otherwise. Rebuilt at every pass start and patched per membership
    /// change (see `DESIGN.md` §"Hot path").
    scores: ScoreTable,
    /// Shared CSR layout of the value space.
    layout: CsrLayout,
}

impl Cohort {
    fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Moves `row` out of cluster `from` (if any) into `to`, patching both
    /// clusters' scoring-table entries (× their ω row when `weighted`).
    fn move_row(&mut self, row: &[u32], from: Option<usize>, to: usize, weighted: bool) {
        let d = self.layout.n_features();
        let Cohort { profiles, omega, scores, .. } = self;
        let omega_row = |l: usize| weighted.then(|| &omega[l * d..(l + 1) * d]);
        if let Some(p) = from {
            profiles[p].remove(row);
            scores.sync(p, &profiles[p], row, omega_row(p));
        }
        profiles[to].add(row);
        scores.sync(to, &profiles[to], row, omega_row(to));
    }

    /// `*self = src.clone()` keeping every buffer: what a replica slot
    /// uses to refresh its local cohort from the pass-start snapshot.
    /// Within one fit the layout is fixed and k only shrinks, so the
    /// pruned clusters' profiles drop and the rest copy in place.
    fn copy_from(&mut self, src: &Cohort) {
        debug_assert!(self.len() >= src.len(), "k only shrinks within a fit");
        self.profiles.truncate(src.len());
        for (dst, s) in self.profiles.iter_mut().zip(&src.profiles) {
            dst.copy_from_profile(s);
        }
        self.delta.clone_from(&src.delta);
        self.wins_prev.clone_from(&src.wins_prev);
        self.wins_now.clone_from(&src.wins_now);
        self.omega.clone_from(&src.omega);
        self.scores.copy_from(&src.scores);
    }

    /// Re-launch reset (Alg. 1 step 13): keep memberships/profiles, clear
    /// the statistics that drive convergence. The ω-weighted table need
    /// not be touched here — `run_stage` rebuilds it at every pass start.
    fn reset_statistics(&mut self, d: usize) {
        self.delta.fill(1.0);
        self.wins_prev.fill(0);
        self.wins_now.fill(0);
        self.omega.clear();
        self.omega.resize(self.len() * d, 1.0 / d as f64);
    }

    /// Removes empty clusters, compacting every parallel array and the
    /// `assignment` indices.
    fn prune_empty(&mut self, assignment: &mut [Option<usize>]) {
        let d = if self.profiles.is_empty() { 0 } else { self.profiles[0].n_features() };
        let k = self.len();
        let mut remap: Vec<Option<usize>> = Vec::with_capacity(k);
        let mut next = 0usize;
        for l in 0..k {
            if self.profiles[l].is_empty() {
                remap.push(None);
                continue;
            }
            if next != l {
                self.profiles.swap(next, l);
                self.delta[next] = self.delta[l];
                self.wins_prev[next] = self.wins_prev[l];
                self.wins_now[next] = self.wins_now[l];
                self.omega.copy_within(l * d..(l + 1) * d, next * d);
            }
            remap.push(Some(next));
            next += 1;
        }
        self.profiles.truncate(next);
        self.delta.truncate(next);
        self.wins_prev.truncate(next);
        self.wins_now.truncate(next);
        self.omega.truncate(next * d);
        for slot in assignment.iter_mut() {
            if let Some(c) = *slot {
                *slot = remap[c];
            }
        }
    }
}

/// One fit's pass scratch, created by `fit_inner` and reused across every
/// pass and stage of that fit.
#[derive(Debug, Default)]
struct PassScratch {
    /// Per-pass presentation order.
    order: Vec<usize>,
    /// `1 − ρ_l` snapshot.
    one_minus_rho: Vec<f64>,
    /// Hoisted `(1 − ρ)·u` prefactors.
    prefactors: Vec<f64>,
    /// Winner per presented row (serial path).
    decisions: Vec<usize>,
    /// Replica-merge scratch (replicated plans only).
    replicated: ReplicatedScratch,
}

/// Scratch for replicated (mini-batch / sharded) passes.
#[derive(Debug, Default)]
struct ReplicatedScratch {
    /// One slot per shard, reused across passes.
    slots: Vec<ReplicaSlot>,
    /// Span staging buffers [`ShardMap::fill_spans`] writes into before
    /// the spans swap into the slots.
    spans: Vec<Vec<usize>>,
    /// Final membership per row for the current pass.
    final_of: Vec<usize>,
    /// Vote buffers for multiply-presented (halo) rows.
    votes: Vec<Vec<(usize, f64)>>,
}

/// Per-replica scratch for replicated passes: the replica's cohort clone
/// target, its local prefactor vector, and its presentation span and
/// verdicts. Slots are moved into the rayon workers and returned, so
/// buffers persist across passes without sharing.
#[derive(Debug, Default)]
struct ReplicaSlot {
    /// Replica-local cohort, refreshed from the pass-start snapshot; its
    /// δ at span end feeds the consensus average.
    cohort: Option<Cohort>,
    /// Replica-local copy of the hoisted `(1 − ρ)·u` prefactors.
    prefactors: Vec<f64>,
    /// Presentation span: the global shuffle filtered to this replica.
    rows: Vec<usize>,
    /// Winner per presented row, parallel to `rows`.
    decisions: Vec<usize>,
    /// Winner similarity per presented row; filled only under overlap.
    confidences: Vec<f64>,
    /// Hot-path counters accumulated inside the worker, folded after join.
    stats: HotPathStats,
}

impl Mgcpl {
    /// Starts building an MGCPL learner with paper-default parameters.
    pub fn builder() -> MgcplBuilder {
        MgcplBuilder::default()
    }

    /// The configured execution plan.
    pub fn execution_plan(&self) -> &ExecutionPlan {
        &self.execution
    }

    /// The configured halo width in rows (0: disjoint shards).
    pub fn halo(&self) -> usize {
        self.halo
    }

    /// Runs multi-granular learning on `table`.
    ///
    /// # Errors
    ///
    /// Returns [`McdcError::EmptyInput`] for an empty table,
    /// [`McdcError::InvalidK`] if a configured `k₀` exceeds `n`, and
    /// [`McdcError::InvalidShards`] if the configured [`ExecutionPlan`]
    /// does not fit `n` rows.
    pub fn fit(&self, table: &CategoricalTable) -> Result<MgcplResult, McdcError> {
        self.fit_inner(table, &self.execution)
    }

    /// [`fit`](Self::fit); the empty [`Workspace`] is ignored. Kept until
    /// the benchmark stops using it (ROADMAP item 12).
    ///
    /// # Errors
    ///
    /// Same conditions as [`fit`](Self::fit).
    pub fn fit_with(
        &self,
        table: &CategoricalTable,
        _ws: &mut Workspace,
    ) -> Result<MgcplResult, McdcError> {
        self.fit(table)
    }

    /// Internal re-fit entry: adapts the configured plan to the table's
    /// current row count ([`ExecutionPlan::for_rows`]) instead of cloning
    /// the whole learner — what the streaming reservoir re-fit uses.
    pub(crate) fn fit_adapted(&self, table: &CategoricalTable) -> Result<MgcplResult, McdcError> {
        self.fit_inner(table, &self.execution.for_rows(table.n_rows()))
    }

    fn fit_inner(
        &self,
        table: &CategoricalTable,
        plan: &ExecutionPlan,
    ) -> Result<MgcplResult, McdcError> {
        let n = table.n_rows();
        if n == 0 {
            return Err(McdcError::EmptyInput);
        }
        plan.validate(n)?;
        let shard_map = plan.shard_map(table, self.halo)?;
        let d = table.n_features();
        let k0 = match self.initial_k {
            Some(k) => {
                if k == 0 || k > n {
                    return Err(McdcError::InvalidK { k, n });
                }
                k
            }
            // √n capped at 64, at least 2 but never more than n: a one-row
            // table seeds one cluster (`clamp(2, n)` would panic there).
            // The cap makes stage 1 O(n·d) instead of O(n^1.5·d); tables
            // up to 4,160 rows are unaffected.
            None => ((n as f64).sqrt().round() as usize).clamp(2, DEFAULT_K0_CAP).min(n),
        };

        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let global = FrequencyTable::from_table(table);

        // Seed clusters on k₀ random distinct objects (Alg. 1 step 3), or —
        // when `random_init` is off — on the k₀ most frequent distinct rows,
        // the cores of the natural micro-clusters formed by overlapping
        // objects (the paper's Fig. 2(b) spheres).
        let seeds: Vec<usize> = if self.random_init {
            let mut seeds: Vec<usize> = (0..n).collect();
            seeds.shuffle(&mut rng);
            seeds.truncate(k0);
            seeds
        } else {
            frequent_row_seeds(table, k0)
        };

        // One CSR layout computation shared by every profile.
        let layout = table.schema().csr_layout();
        let mut clusters = Cohort {
            profiles: seeds
                .iter()
                .map(|&i| {
                    let mut profile = ClusterProfile::with_layout(layout.clone());
                    profile.add(table.row(i));
                    profile
                })
                .collect(),
            delta: vec![1.0; k0],
            wins_prev: vec![0; k0],
            wins_now: vec![0; k0],
            omega: vec![1.0 / d as f64; k0 * d],
            scores: ScoreTable::default(),
            layout,
        };
        // assignment[i] = index into the cohort (stable across pruning via
        // re-mapping), None until the object is first processed.
        let mut assignment: Vec<Option<usize>> = vec![None; n];
        for (c, &i) in seeds.iter().enumerate() {
            assignment[i] = Some(c);
        }

        let mut partitions: Vec<Vec<usize>> = Vec::new();
        let mut kappa: Vec<usize> = Vec::new();
        let mut trace = LearningTrace { initial_k: k0, stages: Vec::new() };
        let mut stats = HotPathStats::default();
        // The fit's pass scratch, reused across all of its passes and stages.
        let mut scratch = PassScratch::default();
        let mut k_old = clusters.len();

        for stage in 1..=MAX_STAGES {
            let k_before = clusters.len();
            let inner_iterations = self.run_stage(
                table,
                &global,
                &mut clusters,
                &mut assignment,
                &mut rng,
                shard_map.as_ref(),
                &mut scratch,
                &mut stats,
            );
            let k_after = clusters.len();

            trace.stages.push(StageRecord { stage, k_before, k_after, inner_iterations });
            stats.passes += inner_iterations as u64;

            let converged = stage > 1 && k_after == k_old;
            if !converged {
                partitions.push(dense_labels(&assignment));
                kappa.push(k_after);
            }
            if converged || k_after <= 1 {
                break;
            }
            k_old = k_after;

            // Re-launch for the next (coarser) granularity level.
            clusters.reset_statistics(d);
        }

        Ok(MgcplResult { partitions, kappa, trace, stats })
    }

    /// Runs competitive penalization learning until the partition fixpoint,
    /// pruning emptied clusters; returns the number of passes used.
    ///
    /// Each pass is split into three phases so the execution backends share
    /// one code path (see `DESIGN.md` §4):
    ///
    /// 1. **snapshot** ([`snapshot_pass`](Self::snapshot_pass)) — freeze the
    ///    pass's read-mostly state: ρ from the previous passes' win counts,
    ///    the `(1 − ρ_l)·u_l` prefactors, and the rebuilt scoring table;
    /// 2. **apply** — the per-object award/penalty cascade. `Serial` runs
    ///    [`apply_span`](Self::apply_span) over the whole shuffled order in
    ///    place; replicated plans run one `apply_span` per shard on a cohort
    ///    clone and reconcile
    ///    ([`apply_replicated`](Self::apply_replicated));
    /// 3. **epilogue** — prune emptied clusters, refresh ω (Eqs. 15–18),
    ///    and fold the pass's win counts into the running ρ statistics.
    #[allow(clippy::too_many_arguments)]
    fn run_stage(
        &self,
        table: &CategoricalTable,
        global: &FrequencyTable,
        clusters: &mut Cohort,
        assignment: &mut [Option<usize>],
        rng: &mut ChaCha8Rng,
        shard_map: Option<&ShardMap>,
        scratch: &mut PassScratch,
        stats: &mut HotPathStats,
    ) -> usize {
        let n = table.n_rows();
        let d = table.n_features();
        let mut passes = 0;
        let PassScratch { order, one_minus_rho, prefactors, decisions, replicated } = scratch;
        order.clear();
        order.extend(0..n);

        for _ in 0..self.max_inner_iterations {
            passes += 1;
            // Online competitive learning presents inputs in random order so
            // sequential award/penalty cascades don't depend on storage order.
            order.shuffle(rng);

            let post_scale = self.snapshot_pass(clusters, one_minus_rho, prefactors, d);

            let mut changed = match shard_map {
                None => {
                    let changed = self.apply_span(
                        table,
                        order,
                        clusters,
                        assignment,
                        decisions,
                        None,
                        one_minus_rho,
                        prefactors,
                        post_scale,
                        stats,
                    );
                    for (&i, &c) in order.iter().zip(decisions.iter()) {
                        assignment[i] = Some(c);
                    }
                    changed
                }
                Some(map) => self.apply_replicated(
                    table,
                    order,
                    clusters,
                    assignment,
                    one_minus_rho,
                    prefactors,
                    post_scale,
                    map,
                    replicated,
                    stats,
                ),
            };

            // Prune clusters that lost all members. After a prune, reset the
            // survivors' competition statistics (δ, g): penalties absorbed
            // while the eliminated cluster was dying must not carry momentum
            // into the next round, or healthy clusters get dragged down one
            // after another and the learning overshoots far past the natural
            // granularity (the re-launch of Alg. 1 step 13 applied at the
            // elimination event rather than only at stage boundaries).
            if clusters.profiles.iter().any(ClusterProfile::is_empty) {
                clusters.prune_empty(assignment);
                clusters.delta.fill(1.0);
                clusters.wins_prev.fill(0);
                clusters.wins_now.fill(0);
                changed = true;
            }

            // Update ω per cluster (Alg. 1 step 11, Eqs. 15–18).
            if self.weighted_similarity {
                for (l, profile) in clusters.profiles.iter().enumerate() {
                    feature_weights_into(profile, global, &mut clusters.omega[l * d..(l + 1) * d]);
                }
            }

            // ρ smooths over the stage so far (a running win share, DeSieno's
            // conscience): a per-pass snapshot oscillates at small k — the
            // handicapped majority loses objects, the roles flip next pass,
            // profiles blur, and clusters merge past the natural granularity.
            for (prev, &now) in clusters.wins_prev.iter_mut().zip(&clusters.wins_now) {
                *prev += now;
            }

            if !changed {
                break;
            }
        }
        passes
    }

    /// Snapshot phase: freezes the pass-start competition state. Computes
    /// `1 − ρ_l` from the previous passes' win counts (Eq. 7), the hoisted
    /// `(1 − ρ_l)·u_l` prefactors, resets the pass win counters, and
    /// rebuilds the scoring table so it reflects this pass's ω
    /// and any pruning from the previous pass. Returns the post-scale that
    /// recovers the Eq. (1) mean from the raw sweep sums.
    fn snapshot_pass(
        &self,
        clusters: &mut Cohort,
        one_minus_rho: &mut Vec<f64>,
        prefactors: &mut Vec<f64>,
        d: usize,
    ) -> f64 {
        let total_prev: u64 = clusters.wins_prev.iter().sum();
        clusters.wins_now.fill(0);
        one_minus_rho.clear();
        one_minus_rho.extend(clusters.wins_prev.iter().map(|&w| {
            if total_prev == 0 {
                1.0
            } else {
                1.0 - w as f64 / total_prev as f64
            }
        }));
        prefactors.clear();
        prefactors.extend(
            one_minus_rho.iter().zip(&clusters.delta).map(|(&m, &dl)| m * sigmoid_weight(dl)),
        );
        let omega = self.weighted_similarity.then_some(&clusters.omega[..]);
        clusters.scores.rebuild(&clusters.profiles, omega);
        if omega.is_some() {
            1.0
        } else {
            1.0 / d as f64
        }
    }

    /// Apply phase over one presentation span: the per-object award/penalty
    /// cascade of Alg. 1, updating `clusters` and the hoisted `prefactors`
    /// in place and pushing each presented row's winner onto `decisions`
    /// (in presentation order — `decisions[t]` is the verdict for
    /// `order[t]`). When `confidences` is given, the winner's plain Eq. (14)
    /// similarity (no `(1 − ρ)·u` prefactor) is recorded alongside each
    /// decision — the weight of the halo vote ([`halo_vote`]).
    /// Returns whether any membership changed.
    ///
    /// Assignments are *read* from the frozen `prior` snapshot rather than
    /// written back live: every row is presented exactly once per pass, so
    /// its prior assignment is never re-read after its own verdict, and
    /// deferring the write-back to the caller lets replicas share one
    /// read-only snapshot instead of cloning the whole vector.
    ///
    /// Hot-path structure (see `DESIGN.md` §"Hot path"): per object one
    /// [`ScoreTable::top2`] sweep evaluates every live cluster against
    /// the row with the `(1 − ρ_l) · u_l` prefactor hoisted into a cached
    /// per-cluster vector. ρ is fixed within a pass (it derives from the
    /// previous passes' win counts), and δ — hence `u` — changes for at
    /// most the winner and the rival per object, so only those two
    /// prefactors (and sigmoids) are recomputed instead of `k` per object.
    #[allow(clippy::too_many_arguments)]
    fn apply_span(
        &self,
        table: &CategoricalTable,
        order: &[usize],
        clusters: &mut Cohort,
        prior: &[Option<usize>],
        decisions: &mut Vec<usize>,
        mut confidences: Option<&mut Vec<f64>>,
        one_minus_rho: &[f64],
        prefactors: &mut [f64],
        post_scale: f64,
        stats: &mut HotPathStats,
    ) -> bool {
        let eta = self.learning_rate;
        let use_weighted = self.weighted_similarity;
        let mut changed = false;
        decisions.clear();
        if let Some(scores) = confidences.as_deref_mut() {
            scores.clear();
        }
        for &i in order {
            let row = table.row(i);

            stats.full_rescans += 1;
            stats.score_evals += prefactors.len() as u64;

            // Score every live cluster — (1 − ρ_l) · u_l · s(x_i, C_l) —
            // and select the winner v (Eq. 6) and the rival h (Eq. 9) in
            // the same fused sweep.
            let top = clusters.scores.top2(row, clusters.layout.offsets(), prefactors, post_scale);
            let (best, rival) = (top.winner, top.rival);

            // Assign x_i to the winner (Eq. 4 / Eq. 10).
            if prior[i] != Some(best) {
                clusters.move_row(row, prior[i], best, use_weighted);
                changed = true;
            }
            decisions.push(best);
            if let Some(scores) = confidences.as_deref_mut() {
                scores.push(top.winner_sum * post_scale);
            }
            clusters.wins_now[best] += 1;

            // Award the winner (Eq. 12), penalize the rival by a step
            // proportional to how close it came (Eq. 13). δ is clamped
            // to [0, 1] so u stays in the sigmoid's responsive range
            // (δ = 1 already yields u ≈ 0.993; unbounded growth would
            // let long-time winners absorb unlimited penalties). The
            // sigmoid (an `exp`) is only re-evaluated when δ actually
            // moved — repeat winners sit saturated at the δ = 1 clamp,
            // so most awards skip it.
            let awarded = (clusters.delta[best] + eta).min(1.0);
            if awarded != clusters.delta[best] {
                clusters.delta[best] = awarded;
                prefactors[best] = one_minus_rho[best] * sigmoid_weight(awarded);
            }
            if rival != usize::MAX {
                let rival_similarity = top.rival_sum * post_scale;
                let penalized = (clusters.delta[rival] - eta * rival_similarity).max(0.0);
                if penalized != clusters.delta[rival] {
                    clusters.delta[rival] = penalized;
                    prefactors[rival] = one_minus_rho[rival] * sigmoid_weight(penalized);
                }
            }
        }
        changed
    }

    /// Replica-merge apply phase — one *merge step* per pass: one
    /// [`apply_span`](Self::apply_span) per shard against a frozen clone of
    /// the pass-start cohort, rayon-parallel across shards, reconciled into
    /// `clusters` by the one merge rule (DESIGN.md §5). `order` is the
    /// pass's global shuffle:
    ///
    /// * **spans** — each replica presents its owned rows plus, under a
    ///   halo, the boundary rows borrowed from adjacent shards
    ///   ([`ExecutionPlan::shard_map`] materializes the geometry);
    /// * **memberships** — rows presented once take their replica's verdict
    ///   directly; rows presented on several replicas settle by
    ///   [`halo_vote`] over the replicas' `(winner, similarity)` verdicts;
    /// * **profiles** — every row whose settled cluster differs from its
    ///   pass-start one is removed from its old profile and added to the
    ///   new, as in the serial cascade. A settled membership is unique per
    ///   row whatever the halo, so no row is counted twice and the integer
    ///   counts stay exact;
    /// * **δ** — span-size-weighted average of the replica accumulators
    ///   (one replica ⇒ weight `1.0` ⇒ bit-exact with serial);
    /// * **wins** — integer counts of the final memberships (halo rows
    ///   count once, not once per presenting replica);
    /// * **ω** — not reconciled here: the epilogue re-derives it from the
    ///   settled profiles after every pass, which is the deterministic
    ///   consensus.
    ///
    /// The presentation order inside each span is the global per-pass
    /// shuffle filtered to that span, so a one-shard plan degenerates to
    /// the serial order and results are deterministic for a fixed seed,
    /// shard count, and halo.
    #[allow(clippy::too_many_arguments)]
    fn apply_replicated(
        &self,
        table: &CategoricalTable,
        order: &[usize],
        clusters: &mut Cohort,
        assignment: &mut [Option<usize>],
        one_minus_rho: &[f64],
        prefactors: &[f64],
        post_scale: f64,
        map: &ShardMap,
        rep: &mut ReplicatedScratch,
        stats: &mut HotPathStats,
    ) -> bool {
        let n_rows = assignment.len();
        let overlap = map.has_overlap();

        // One slot per shard: each holds the replica's cohort clone target,
        // span, and verdict buffers, all reused across the fit's passes.
        rep.slots.resize_with(map.n_shards, ReplicaSlot::default);

        // Presentation spans: the global shuffle filtered to each replica's
        // owned-plus-borrowed row set, preserving the shuffled order.
        map.fill_spans(order, &mut rep.spans);
        for (slot, span) in rep.slots.iter_mut().zip(rep.spans.iter_mut()) {
            std::mem::swap(&mut slot.rows, span);
        }

        // Replica apply: slots are moved into the rayon workers and
        // returned, so their buffers never cross threads by reference and
        // still persist. Each replica refreshes its local cohort from the
        // frozen pass-start snapshot (`copy_from` reuses the buffers the
        // previous pass filled) and runs the shared `apply_span`.
        let snapshot: &Cohort = clusters;
        let frozen_assignment: &[Option<usize>] = assignment;
        let slots_in = std::mem::take(&mut rep.slots);
        let slots: Vec<ReplicaSlot> = slots_in
            .into_par_iter()
            .map(|mut slot| {
                match slot.cohort.as_mut() {
                    Some(cohort) => cohort.copy_from(snapshot),
                    None => slot.cohort = Some(snapshot.clone()),
                }
                slot.prefactors.clear();
                slot.prefactors.extend_from_slice(prefactors);
                let local = slot.cohort.as_mut().expect("cohort installed above");
                slot.stats = HotPathStats::default();
                self.apply_span(
                    table,
                    &slot.rows,
                    local,
                    frozen_assignment,
                    &mut slot.decisions,
                    overlap.then_some(&mut slot.confidences),
                    one_minus_rho,
                    &mut slot.prefactors,
                    post_scale,
                    &mut slot.stats,
                );
                slot
            })
            .collect();

        // Final membership per row: the owning replica's verdict when the
        // row was presented once, the halo vote otherwise. Vote buffers
        // are indexed by the shard map's dense halo slots, so their size
        // tracks the overlap (≤ 2·halo·(shards−1) rows), not n.
        rep.final_of.clear();
        rep.final_of.resize(n_rows, usize::MAX);
        if overlap {
            rep.votes.resize_with(map.halo_rows.len(), Vec::new);
            for votes in rep.votes.iter_mut() {
                votes.clear();
            }
            for slot in &slots {
                for ((&i, &c), &s) in slot.rows.iter().zip(&slot.decisions).zip(&slot.confidences) {
                    match map.vote_slot[i] {
                        u32::MAX => rep.final_of[i] = c,
                        vote_slot => rep.votes[vote_slot as usize].push((c, s)),
                    }
                }
            }
            for (&i, row_votes) in map.halo_rows.iter().zip(&rep.votes) {
                rep.final_of[i] = halo_vote(row_votes);
            }
        } else {
            for slot in &slots {
                for (&i, &c) in slot.rows.iter().zip(&slot.decisions) {
                    rep.final_of[i] = c;
                }
            }
        }

        // Settle the presented rows as the serial cascade would: a row whose
        // settled cluster differs from its pass-start one leaves its old
        // profile (the cohort still holds the pass-start profiles) and
        // joins the new. Wins count each row's final verdict once per
        // presentation, matching the serial cascade's accounting.
        let mut changed = false;
        let Cohort { profiles, wins_now, .. } = clusters;
        for &i in order {
            let c = rep.final_of[i];
            let prior = assignment[i];
            if prior != Some(c) {
                let row = table.row(i);
                if let Some(p) = prior {
                    profiles[p].remove(row);
                }
                profiles[c].add(row);
                stats.merges += 1;
                assignment[i] = Some(c);
                changed = true;
            }
            wins_now[c] += 1;
        }

        // δ consensus: span-size-weighted average over every replica.
        let total_presented: f64 = slots.iter().map(|s| s.rows.len() as f64).sum();
        clusters.delta.fill(0.0);
        for slot in &slots {
            let weight = slot.rows.len() as f64 / total_presented;
            let local = slot.cohort.as_ref().expect("installed by the replica apply");
            for (merged, &delta) in clusters.delta.iter_mut().zip(&local.delta) {
                *merged += weight * delta;
            }
        }

        // Fold the worker-local counters back into the fit's totals.
        for slot in &slots {
            stats.full_rescans += slot.stats.full_rescans;
            stats.skipped_rescans += slot.stats.skipped_rescans;
            stats.score_evals += slot.stats.score_evals;
        }
        rep.slots = slots;
        changed
    }
}

/// Picks `k0` seed objects deterministically: representatives of the most
/// frequent distinct rows (ties broken lexicographically), padded with the
/// lowest-index remaining objects when there are fewer distinct rows.
fn frequent_row_seeds(table: &CategoricalTable, k0: usize) -> Vec<usize> {
    let mut groups: std::collections::HashMap<&[u32], (usize, usize)> =
        std::collections::HashMap::new();
    for i in 0..table.n_rows() {
        let entry = groups.entry(table.row(i)).or_insert((0, i));
        entry.0 += 1;
    }
    let mut ranked: Vec<(&[u32], (usize, usize))> = groups.into_iter().collect();
    ranked.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then(a.0.cmp(b.0)));
    let mut seeds: Vec<usize> = ranked.iter().take(k0).map(|(_, (_, i))| *i).collect();
    if seeds.len() < k0 {
        let chosen: std::collections::HashSet<usize> = seeds.iter().copied().collect();
        seeds.extend((0..table.n_rows()).filter(|i| !chosen.contains(i)).take(k0 - seeds.len()));
    }
    seeds
}

/// Densifies an assignment into labels `0..k` in first-appearance order.
fn dense_labels(assignment: &[Option<usize>]) -> Vec<usize> {
    // Cluster indices are already compact (pruning re-maps them), so a
    // direct-indexed table beats a HashMap here — this runs once per
    // granularity over all n objects.
    let k = assignment.iter().map(|slot| slot.map_or(0, |c| c + 1)).max().unwrap_or(0);
    let mut remap: Vec<usize> = vec![usize::MAX; k];
    let mut next = 0usize;
    assignment
        .iter()
        .map(|slot| {
            let c = slot.expect("all objects are assigned after a learning pass");
            if remap[c] == usize::MAX {
                remap[c] = next;
                next += 1;
            }
            remap[c]
        })
        .collect()
}

/// Settles a row presented to several replicas: `votes` holds one
/// `(cluster, similarity)` verdict per delivering replica, in replica
/// order, where the similarity is the row's Eq. (14) similarity to the
/// winner as that replica saw it. Per-cluster similarity sums decide, with
/// the smallest cluster index winning ties; a single vote wins outright.
fn halo_vote(votes: &[(usize, f64)]) -> usize {
    debug_assert!(!votes.is_empty(), "every halo row is presented at least once");
    if votes.len() == 1 {
        return votes[0].0;
    }
    let mut best_cluster = usize::MAX;
    let mut best_weight = f64::NEG_INFINITY;
    for (idx, &(cluster, _)) in votes.iter().enumerate() {
        if votes[..idx].iter().any(|&(c, _)| c == cluster) {
            continue; // this cluster's tally was already summed
        }
        let weight: f64 = votes.iter().filter(|&&(c, _)| c == cluster).map(|&(_, s)| s).sum();
        if weight > best_weight || (weight == best_weight && cluster < best_cluster) {
            best_weight = weight;
            best_cluster = cluster;
        }
    }
    best_cluster
}

#[cfg(test)]
mod tests {
    use super::*;
    use categorical_data::synth::GeneratorConfig;

    #[test]
    fn halo_vote_is_a_similarity_weighted_vote() {
        // Cluster 2 wins on summed similarity despite fewer votes.
        assert_eq!(halo_vote(&[(1, 0.3), (2, 0.9), (1, 0.2)]), 2);
        // Equal weights tie-break on the smaller cluster index.
        assert_eq!(halo_vote(&[(5, 0.4), (3, 0.4)]), 3);
        // A single vote always wins.
        assert_eq!(halo_vote(&[(7, 0.0)]), 7);
    }

    #[test]
    fn halo_defaults_to_zero() {
        assert_eq!(Mgcpl::builder().build().halo(), 0);
        assert_eq!(Mgcpl::builder().halo(8).build().halo(), 8);
        assert_eq!(Mgcpl::builder().halo(0).build(), Mgcpl::builder().build());
    }

    fn separated(n: usize, k: usize, seed: u64) -> CategoricalTable {
        GeneratorConfig::new("t", n, vec![4; 8], k)
            .noise(0.05)
            .generate(seed)
            .dataset
            .into_parts()
            .0
    }

    #[test]
    fn sigmoid_weight_matches_eq_11() {
        // δ = 0.5 is the sigmoid midpoint.
        assert!((sigmoid_weight(0.5) - 0.5).abs() < 1e-12);
        assert!(sigmoid_weight(1.0) > 0.99);
        assert!(sigmoid_weight(0.0) < 0.01);
    }

    #[test]
    fn empty_input_is_rejected() {
        let table = CategoricalTable::new(categorical_data::Schema::uniform(2, 2));
        let err = Mgcpl::builder().build().fit(&table).unwrap_err();
        assert_eq!(err, McdcError::EmptyInput);
    }

    #[test]
    fn oversized_k0_is_rejected() {
        let table = separated(10, 2, 1);
        let err = Mgcpl::builder().initial_k(11).build().fit(&table).unwrap_err();
        assert!(matches!(err, McdcError::InvalidK { k: 11, n: 10 }));
    }

    #[test]
    fn kappa_is_strictly_decreasing() {
        let table = separated(300, 3, 2);
        let result = Mgcpl::builder().seed(3).build().fit(&table).unwrap();
        assert!(!result.kappa.is_empty());
        assert!(result.kappa.windows(2).all(|w| w[0] > w[1]), "kappa={:?}", result.kappa);
    }

    #[test]
    fn partitions_cover_all_objects_with_dense_labels() {
        let table = separated(200, 3, 4);
        let result = Mgcpl::builder().seed(5).build().fit(&table).unwrap();
        for (partition, &k) in result.partitions.iter().zip(&result.kappa) {
            assert_eq!(partition.len(), 200);
            let mut seen: Vec<usize> = partition.clone();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), k, "labels must be dense 0..k");
            assert_eq!(*seen.last().unwrap(), k - 1);
        }
    }

    #[test]
    fn converges_near_true_k_on_well_separated_data() {
        let table = separated(400, 3, 6);
        let result = Mgcpl::builder().seed(7).build().fit(&table).unwrap();
        let k_final = *result.kappa.last().unwrap();
        assert!(
            (2..=5).contains(&k_final),
            "expected k_sigma near 3, got {k_final} (kappa={:?})",
            result.kappa
        );
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let table = separated(150, 2, 8);
        let mgcpl = Mgcpl::builder().seed(11).build();
        let a = mgcpl.fit(&table).unwrap();
        let b = mgcpl.fit(&table).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn unweighted_variant_also_runs() {
        let table = separated(120, 2, 9);
        let result =
            Mgcpl::builder().weighted_similarity(false).seed(1).build().fit(&table).unwrap();
        assert!(!result.partitions.is_empty());
    }

    #[test]
    fn patched_value_major_matches_fresh_rebuild_bit_for_bit() {
        // Random moves patched into the scoring table through the cohort's
        // `move_row` must leave exactly what a full rebuild from the moved
        // profiles writes — weighted and unweighted, on a mixed-cardinality
        // schema with MISSING values in the rows, for cluster counts with
        // no padding (8), partial padding (7, 9, 17) and one cluster.
        use categorical_data::MISSING;
        use rand::Rng;
        let cardinalities = [3u32, 5, 2, 4, 6];
        let d = cardinalities.len();
        let schema = categorical_data::Schema::new(
            cardinalities
                .iter()
                .enumerate()
                .map(|(r, &m)| categorical_data::FeatureDomain::anonymous(format!("f{r}"), m))
                .collect(),
        );
        let layout = schema.csr_layout();
        let mut rng = ChaCha8Rng::seed_from_u64(0x5EED);
        let rows: Vec<Vec<u32>> = (0..60)
            .map(|_| {
                cardinalities
                    .iter()
                    .map(|&m| if rng.gen_bool(0.2) { MISSING } else { rng.gen_range(0..m) })
                    .collect()
            })
            .collect();
        for k in [1usize, 7, 8, 9, 17] {
            for weighted in [false, true] {
                let mut labels: Vec<usize> = (0..rows.len()).map(|i| i % k).collect();
                let mut profiles = vec![ClusterProfile::with_layout(layout.clone()); k];
                for (row, &l) in rows.iter().zip(&labels) {
                    profiles[l].add(row);
                }
                let omega: Vec<f64> = (0..k * d).map(|_| rng.gen_range(0.01..1.0)).collect();
                let mut cohort = Cohort {
                    profiles,
                    delta: vec![1.0; k],
                    wins_prev: vec![0; k],
                    wins_now: vec![0; k],
                    omega,
                    scores: ScoreTable::default(),
                    layout: layout.clone(),
                };
                cohort.scores.rebuild(&cohort.profiles, weighted.then_some(&cohort.omega[..]));
                for _ in 0..300 {
                    let i = rng.gen_range(0..rows.len());
                    let to = rng.gen_range(0..k);
                    cohort.move_row(&rows[i], Some(labels[i]), to, weighted);
                    labels[i] = to;
                }
                let bits =
                    |t: &ScoreTable| t.entries().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let mut fresh = ScoreTable::default();
                fresh.rebuild(&cohort.profiles, weighted.then_some(&cohort.omega[..]));
                assert_eq!(bits(&cohort.scores), bits(&fresh), "k={k} weighted={weighted}");
            }
        }
    }

    #[test]
    fn replicated_settling_moves_every_changed_row_exactly_once() {
        use categorical_data::MISSING;
        use rand::Rng;

        let d = 6;
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let mut table = CategoricalTable::new(categorical_data::Schema::uniform(d, 4));
        for _ in 0..96 {
            let row: Vec<u32> = (0..d)
                .map(|_| if rng.gen_bool(0.15) { MISSING } else { rng.gen_range(0..4) })
                .collect();
            table.push_row(&row).unwrap();
        }
        let n = table.n_rows();
        let profile_of = |assignment: &[Option<usize>], c: usize| {
            let members: Vec<usize> = (0..n).filter(|&i| assignment[i] == Some(c)).collect();
            ClusterProfile::from_members(&table, &members)
        };
        for shards in [2, 4] {
            for halo in [0, 3] {
                for k in [1, 5, 9] {
                    let mgcpl = Mgcpl::builder().halo(halo).build();
                    let plan = ExecutionPlan::mini_batch(n / shards);
                    let map = plan.shard_map(&table, halo).unwrap().expect("replicated plan");
                    // Every fourth row starts unassigned (joins from
                    // nowhere), the rest round-robin over the k clusters.
                    let mut assignment: Vec<Option<usize>> =
                        (0..n).map(|i| (i % 4 != 3).then_some(i % k)).collect();
                    let mut clusters = Cohort {
                        profiles: (0..k).map(|c| profile_of(&assignment, c)).collect(),
                        delta: vec![1.0; k],
                        wins_prev: vec![0; k],
                        wins_now: vec![0; k],
                        omega: vec![1.0 / d as f64; k * d],
                        scores: ScoreTable::default(),
                        layout: table.schema().csr_layout(),
                    };
                    let mut replicated = ReplicatedScratch::default();
                    let mut order: Vec<usize> = (0..n).collect();
                    for _pass in 0..3 {
                        order.shuffle(&mut rng);
                        let (mut one_minus_rho, mut prefactors) = (vec![], vec![]);
                        let post_scale = mgcpl.snapshot_pass(
                            &mut clusters,
                            &mut one_minus_rho,
                            &mut prefactors,
                            d,
                        );
                        let before = assignment.clone();
                        let mut stats = HotPathStats::default();
                        mgcpl.apply_replicated(
                            &table,
                            &order,
                            &mut clusters,
                            &mut assignment,
                            &one_minus_rho,
                            &prefactors,
                            post_scale,
                            &map,
                            &mut replicated,
                            &mut stats,
                        );
                        let moved = before.iter().zip(&assignment).filter(|(a, b)| a != b).count();
                        let case = format!("shards={shards} halo={halo} k={k}");
                        assert_eq!(stats.merges, moved as u64, "{case}");
                        for (c, profile) in clusters.profiles.iter().enumerate() {
                            let rebuilt = profile_of(&assignment, c);
                            assert_eq!(*profile, rebuilt, "{case} cluster {c}");
                            for r in 0..d {
                                assert_eq!(
                                    profile.inv_present(r).to_bits(),
                                    rebuilt.inv_present(r).to_bits(),
                                    "{case} cluster {c} feature {r}"
                                );
                            }
                        }
                        clusters.prune_empty(&mut assignment);
                    }
                }
            }
        }
    }

    #[test]
    fn single_distinct_row_collapses_to_one_cluster() {
        let mut table = CategoricalTable::new(categorical_data::Schema::uniform(3, 2));
        for _ in 0..40 {
            table.push_row(&[1, 0, 1]).unwrap();
        }
        let result = Mgcpl::builder().seed(2).build().fit(&table).unwrap();
        assert_eq!(result.trace.final_k(), 1, "identical objects must merge");
    }
}
