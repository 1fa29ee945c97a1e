//! Reconciliation policies for the replica-merge execution engine.
//!
//! Replicated [`ExecutionPlan`](crate::ExecutionPlan)s run MGCPL's
//! award/penalty cascade shard-locally against a frozen pass-start snapshot
//! and *reconcile* once per pass (DESIGN.md §4–5). The reconciliation has
//! three degrees of freedom, and [`Reconcile`] names each one:
//!
//! * **which rows a replica sees** — [`Reconcile::halo`] lets shards
//!   overlap by a halo of boundary rows, so replicas observe their
//!   neighbors' edge objects instead of cascading blind to them;
//! * **how multiply-presented rows settle** — [`Reconcile::resolve`] turns
//!   the replicas' per-row verdicts into one final membership (default: a
//!   profile-weighted vote);
//! * **how the δ accumulators merge** — [`Reconcile::blend_delta`] maps the
//!   shard-size-weighted average of the replica δ vectors (plus the
//!   pass-start value) to the next pass's consensus δ.
//!
//! Three policies ship with the crate, plus one composable axis:
//!
//! | Policy | Overrides | When to use |
//! | --- | --- | --- |
//! | [`DeltaAverage`] | nothing (the defaults) | the PR-2 rule, pinned bit-exact; cheapest |
//! | [`DeltaMomentum`] | `blend_delta` | nested/high-overlap data where merge-step δ noise makes granularity cascades land differently run to run |
//! | [`OverlapShards`] | `halo` | few large shards whose boundaries cut through natural clusters (e.g. placement-derived `Sharded` plans) |
//! | [`Rotate`] | `rotation_period` (wraps any policy) | long fits where rows would otherwise stay trapped with one replica cohort for the whole run |
//!
//! Everything outside these hooks — exact integer profile merges, ω
//! re-derivation from the merged profiles, win-count sums — is common to
//! every policy and *not* configurable: those parts are already exact, so
//! there is nothing to trade.
//!
//! **Degraded merges.** Under an armed [`FaultPlan`](crate::FaultPlan) a
//! merge step may lose inputs: quarantined replicas present no δ, and a
//! surviving replica's δ can arrive dropped or poisoned (NaN, non-finite,
//! or outside the `[0, 1]` ω-clamp — counted in
//! [`HotPathStats::rejected_deltas`](crate::HotPathStats::rejected_deltas)).
//! The engine filters those *before* calling [`Reconcile::blend_delta`]
//! and re-weights the shard-size average over the survivors, so a policy
//! never observes an invalid δ; when every input is lost the blend is
//! skipped entirely and the pass-start δ carries forward unchanged.
//! Policies therefore need no fault handling of their own (DESIGN.md §8).
//!
//! # Example
//!
//! ```
//! use mcdc_core::{DeltaMomentum, ExecutionPlan, Mcdc};
//! use categorical_data::synth::GeneratorConfig;
//!
//! let data = GeneratorConfig::new("demo", 240, vec![4; 8], 3)
//!     .noise(0.05)
//!     .generate(7)
//!     .dataset;
//! let result = Mcdc::builder()
//!     .seed(1)
//!     .execution(ExecutionPlan::mini_batch(60))
//!     .reconcile(DeltaMomentum { beta: 0.5 })
//!     .build()
//!     .fit(data.table(), 3)?;
//! assert_eq!(result.labels().len(), 240);
//! # Ok::<(), mcdc_core::McdcError>(())
//! ```

use std::fmt;

/// Identity card of a reconciliation policy: its name plus the parameters
/// that change results. Drives learner equality ([`crate::Mgcpl`] compares
/// policies by descriptor) and labels bench output.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconcileDescriptor {
    /// Short kebab-case policy name (e.g. `"delta-momentum"`).
    pub name: &'static str,
    /// Momentum coefficient β (0 for non-momentum policies).
    pub beta: f64,
    /// Halo width in rows (0 for non-overlapping policies).
    pub halo: usize,
    /// Replica-rotation period in passes (0 for non-rotating policies).
    pub rotation: usize,
}

impl fmt::Display for ReconcileDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        let mut sep = '(';
        for part in [
            (self.beta != 0.0).then(|| format!("beta={}", self.beta)),
            (self.halo != 0).then(|| format!("halo={}", self.halo)),
            (self.rotation != 0).then(|| format!("rot={}", self.rotation)),
        ]
        .into_iter()
        .flatten()
        {
            write!(f, "{sep}{part}")?;
            sep = ',';
        }
        if sep == ',' {
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// How a replicated pass reconciles its shard replicas — three hooks
/// covering which rows a replica sees ([`halo`](Reconcile::halo)), how
/// multiply-presented rows settle ([`resolve`](Reconcile::resolve)), and
/// how the δ accumulators merge
/// ([`blend_delta`](Reconcile::blend_delta)).
///
/// The default method bodies *are* the [`DeltaAverage`] policy; an
/// implementation overrides only the hooks it changes, which is what makes
/// `DeltaMomentum { beta: 0.0 }` and `OverlapShards { halo: 0 }`
/// structurally bit-exact with `DeltaAverage` (they run the identical code
/// path, not merely an equivalent formula).
///
/// # Example
///
/// ```
/// use mcdc_core::{DeltaAverage, DeltaMomentum, OverlapShards, Reconcile};
///
/// assert_eq!(DeltaAverage.halo(), 0);
/// assert_eq!(OverlapShards { halo: 16 }.halo(), 16);
///
/// // DeltaMomentum blends the pass-start δ into the shard average.
/// let mut blended = vec![0.4, 0.8];
/// DeltaMomentum { beta: 0.5 }.blend_delta(&[1.0, 0.0], &mut blended);
/// assert_eq!(blended, vec![0.7, 0.4]);
///
/// // A single vote always wins, whatever the policy.
/// assert_eq!(DeltaAverage.resolve(&[(3, 0.2)]), 3);
/// ```
pub trait Reconcile: fmt::Debug + Send + Sync {
    /// The policy's identity (name + parameters); two learners are equal
    /// only when their policies describe identically.
    fn describe(&self) -> ReconcileDescriptor;

    /// Rotation period, in passes: every `period` reconciliations (one per
    /// replicated pass, at the pass barrier) the engine permutes the row → replica map (a cyclic shift of the row
    /// space), so rows stop being grouped with one fixed cohort for the
    /// whole fit. The permutation preserves shard sizes and, for
    /// contiguous mini-batch shards, keeps cohorts contiguous — only the
    /// boundaries move; shift-*invariant* explicit partitions (perfect
    /// round-robin) are merely relabeled, see the [`Rotate`] caveat. `0`
    /// (the default) never rotates; serial plans have no map to rotate and
    /// ignore the period entirely. The counter spans stage boundaries, so
    /// short stages cannot pin the rotation at one offset.
    fn rotation_period(&self) -> usize {
        0
    }

    /// Halo width: how many boundary rows each replica borrows from each
    /// adjacent shard (adjacency = shard index; a mini-batch plan's shards
    /// are contiguous row ranges, so the borrowed rows really are the
    /// geometric boundary). Borrowed rows are *presented* to the borrowing
    /// replica — its cascade sees them — but stay owned by their home shard
    /// for the exact profile merge. `0` disables overlap.
    fn halo(&self) -> usize {
        0
    }

    /// Blends the consensus δ for the next pass, in place over `blended`.
    ///
    /// On entry `blended` holds this pass's span-size-weighted average of
    /// the replica δ vectors and `pass_start` the δ the pass started from
    /// (the previous blend's output, or the reset value 1.0 after a stage
    /// re-launch or prune). The default keeps the plain average.
    ///
    /// Implementations must keep each entry in `[0, 1]` (the clamp range of
    /// the award/penalty updates) — any convex combination of `pass_start`
    /// and the average qualifies.
    fn blend_delta(&self, pass_start: &[f64], blended: &mut [f64]) {
        let _ = (pass_start, blended);
    }

    /// Resolves one multiply-presented row into its final cluster.
    ///
    /// `votes` holds `(cluster, similarity)` per presenting replica, in
    /// replica order; the similarity is the row's Eq. (14) similarity to
    /// the winning cluster's profile *as that replica saw it* at decision
    /// time. The default is a profile-weighted vote: per-cluster similarity
    /// sums, argmax, smallest cluster index on ties. A single vote must win
    /// unconditionally — rows presented to exactly one replica bypass this
    /// hook entirely, so a policy that treated them differently would
    /// diverge from its own `halo = 0` behavior.
    fn resolve(&self, votes: &[(usize, f64)]) -> usize {
        debug_assert!(!votes.is_empty(), "every row is presented at least once");
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
}

/// The PR-2 reconciliation rule: disjoint shards, span-size-weighted δ
/// average, no memory across merge steps. Every [`Reconcile`] default —
/// this type overrides nothing, so it is the reference the other policies
/// are pinned against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaAverage;

impl Reconcile for DeltaAverage {
    fn describe(&self) -> ReconcileDescriptor {
        ReconcileDescriptor { name: "delta-average", beta: 0.0, halo: 0, rotation: 0 }
    }
}

/// δ-momentum reconciliation: an exponential moving average over merge-step
/// deltas, carried across passes.
///
/// Each merge step computes the usual span-size-weighted average `δ̄(t)` and
/// blends it with the pass-start value (itself the previous blend):
/// `δ(t) = β·δ(t−1) + (1−β)·δ̄(t)`. Shard-local cascades inject noise into
/// δ — which cluster absorbed which penalties depends on how the shuffle
/// split rows across shards — and that noise is what makes granularity
/// cascades land differently run to run on nested high-overlap data. The
/// EMA damps exactly that term while leaving the exact parts of the merge
/// (profiles, wins, ω) untouched; ω is re-derived from the merged profiles
/// after every blend, so the smoothed δ and the weights never desynchronize.
///
/// `beta = 0` keeps no memory and is bit-exact with [`DeltaAverage`]
/// (pinned by `crates/core/tests/reconcile_policies.rs`); `beta → 1`
/// freezes δ at its stage-start reset value. `beta = 0.5` is the robust
/// default; heavier damping (0.9) tightens the band further at few shards
/// but can over-damp — and *widen* the band — at many, where each span's
/// per-pass δ̄ already moves little (DESIGN.md §5 has the measured
/// ablation). The coefficient must lie in `[0, 1)` — enforced when the
/// learner is built.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaMomentum {
    /// EMA coefficient β ∈ `[0, 1)`: the fraction of the pass-start δ
    /// retained per merge step.
    pub beta: f64,
}

impl Reconcile for DeltaMomentum {
    fn describe(&self) -> ReconcileDescriptor {
        ReconcileDescriptor { name: "delta-momentum", beta: self.beta, halo: 0, rotation: 0 }
    }

    fn blend_delta(&self, pass_start: &[f64], blended: &mut [f64]) {
        debug_assert_eq!(pass_start.len(), blended.len());
        for (b, &prev) in blended.iter_mut().zip(pass_start) {
            *b = self.beta * prev + (1.0 - self.beta) * *b;
        }
    }
}

/// Overlapping-shard reconciliation: every replica's presentation span is
/// extended by a halo of boundary rows borrowed from the adjacent shards
/// (the last `halo` rows of the previous shard and the first `halo` rows of
/// the next, in shard-index order).
///
/// Halo rows are scored — and cascade — on every replica that presents
/// them, then settle by the default profile-weighted vote
/// ([`Reconcile::resolve`]); ownership for the exact profile merge never
/// moves, so merged counts stay exact. The overlap gives each replica a
/// margin of context past its boundary, which helps precisely when shard
/// boundaries cut through natural clusters: few large shards, or
/// placement-derived [`ExecutionPlan::Sharded`](crate::ExecutionPlan)
/// partitions (`mcdc_dist_sim::suggested_halo` picks a width matched to a
/// placement). Each borrowed row costs one extra presentation per pass, so
/// keep `halo` well under the shard size.
///
/// `halo = 0` presents every row exactly once and is bit-exact with
/// [`DeltaAverage`] (pinned by `crates/core/tests/reconcile_policies.rs`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverlapShards {
    /// Boundary rows borrowed from each adjacent shard.
    pub halo: usize,
}

impl Reconcile for OverlapShards {
    fn describe(&self) -> ReconcileDescriptor {
        ReconcileDescriptor { name: "overlap-shards", beta: 0.0, halo: self.halo, rotation: 0 }
    }

    fn halo(&self) -> usize {
        self.halo
    }
}

/// Cross-pass replica rotation: every `period` passes the engine
/// permutes the row → replica map (a cyclic shift of the row space that
/// preserves shard sizes), so no row is permanently trapped with the same
/// cohort. Wraps any inner policy — the δ blend, halo, and vote hooks all
/// delegate — which is what makes rotation *composable* with
/// [`DeltaMomentum`] and [`OverlapShards`] rather than a fourth standalone
/// policy.
///
/// Shard-local minima are the replicated engine's dominant failure mode on
/// nested high-overlap data (DESIGN.md §7): a replica only ever cascades
/// over its own cohort, so a cohort whose rows under-represent a natural
/// cluster keeps mis-cascading the same way every pass. Rotation changes
/// the cohort *composition* over time (the shift is a non-trivial fraction
/// of the shard width, so groupings genuinely change — a whole-shard shift
/// would merely relabel replicas), letting every row present alongside
/// different neighbors across the fit while each individual pass keeps the
/// exact merge semantics of the inner policy.
///
/// `period = 0` never rotates and is bit-exact with the bare inner policy
/// (pinned by `crates/core/tests/quality_recovery.rs`); `period = 1`
/// rotates after every pass. Rotation changes which replica *owns* each
/// row between passes, never within one, so profile merges stay exact.
///
/// One honest caveat: the permutation is a cyclic shift, so an explicit
/// [`Sharded`](crate::ExecutionPlan::Sharded) partition that is itself
/// shift-invariant — a perfect round-robin (`shard s = {j : j mod k = s}`)
/// being the canonical case — is mapped onto *itself* with the shard
/// indices relabeled: cohort composition never changes, results are
/// identical to the unrotated fit, and only the
/// [`rotations`](crate::HotPathStats::rotations) counter moves. Rotation
/// earns its keep on contiguous cohorts (mini-batch plans, block-wise
/// explicit partitions), where the shift genuinely regroups rows.
///
/// # Example
///
/// ```
/// use mcdc_core::{DeltaMomentum, ExecutionPlan, Mcdc, Reconcile, Rotate};
///
/// // Rotation composes with any inner policy …
/// let policy = Rotate { period: 2, inner: DeltaMomentum { beta: 0.5 } };
/// assert_eq!(policy.rotation_period(), 2);
/// assert_eq!(policy.describe().to_string(), "delta-momentum(beta=0.5,rot=2)");
/// // … and `Rotate::every` is the shorthand over the default δ-average.
/// assert_eq!(Rotate::every(3).describe().to_string(), "delta-average(rot=3)");
///
/// use categorical_data::synth::GeneratorConfig;
/// let data = GeneratorConfig::new("demo", 240, vec![4; 8], 3)
///     .noise(0.05)
///     .generate(7)
///     .dataset;
/// let result = Mcdc::builder()
///     .seed(1)
///     .execution(ExecutionPlan::mini_batch(60))
///     .reconcile(Rotate { period: 1, inner: DeltaMomentum { beta: 0.5 } })
///     .build()
///     .fit(data.table(), 3)?;
/// assert_eq!(result.labels().len(), 240);
/// # Ok::<(), mcdc_core::McdcError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Rotate<P = DeltaAverage> {
    /// Passes between rotations; 0 disables rotation.
    pub period: usize,
    /// The policy whose merge semantics each individual pass keeps.
    pub inner: P,
}

impl Rotate<DeltaAverage> {
    /// Rotation every `period` passes over the default
    /// [`DeltaAverage`] merge rule.
    pub fn every(period: usize) -> Self {
        Rotate { period, inner: DeltaAverage }
    }
}

impl<P: Reconcile> Reconcile for Rotate<P> {
    fn describe(&self) -> ReconcileDescriptor {
        ReconcileDescriptor { rotation: self.period, ..self.inner.describe() }
    }

    fn rotation_period(&self) -> usize {
        self.period
    }

    fn halo(&self) -> usize {
        self.inner.halo()
    }

    fn blend_delta(&self, pass_start: &[f64], blended: &mut [f64]) {
        self.inner.blend_delta(pass_start, blended);
    }

    fn resolve(&self, votes: &[(usize, f64)]) -> usize {
        self.inner.resolve(votes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptors_identify_policies() {
        assert_eq!(DeltaAverage.describe().name, "delta-average");
        assert_ne!(DeltaAverage.describe(), DeltaMomentum { beta: 0.0 }.describe());
        assert_ne!(DeltaMomentum { beta: 0.3 }.describe(), DeltaMomentum { beta: 0.4 }.describe());
        assert_eq!(
            format!("{}", DeltaMomentum { beta: 0.5 }.describe()),
            "delta-momentum(beta=0.5)"
        );
        assert_eq!(format!("{}", OverlapShards { halo: 8 }.describe()), "overlap-shards(halo=8)");
        assert_eq!(format!("{}", DeltaAverage.describe()), "delta-average");
    }

    #[test]
    fn momentum_blend_is_a_convex_combination() {
        let pass_start = [1.0, 0.0, 0.5];
        let mut blended = [0.0, 1.0, 0.5];
        DeltaMomentum { beta: 0.25 }.blend_delta(&pass_start, &mut blended);
        assert_eq!(blended, [0.25, 0.75, 0.5]);
    }

    #[test]
    fn momentum_beta_zero_is_the_identity_on_the_average() {
        let pass_start = [0.123, 0.987];
        let average = [0.5, 0.25];
        let mut blended = average;
        DeltaMomentum { beta: 0.0 }.blend_delta(&pass_start, &mut blended);
        // Bit-exact: 0·prev + 1·avg must not perturb a single ulp.
        assert_eq!(blended.map(f64::to_bits), average.map(f64::to_bits));
    }

    #[test]
    fn default_resolve_is_a_similarity_weighted_vote() {
        let policy = DeltaAverage;
        // Cluster 2 wins on summed similarity despite fewer votes.
        assert_eq!(policy.resolve(&[(1, 0.3), (2, 0.9), (1, 0.2)]), 2);
        // Equal weights tie-break on the smaller cluster index.
        assert_eq!(policy.resolve(&[(5, 0.4), (3, 0.4)]), 3);
        // A single vote always wins.
        assert_eq!(policy.resolve(&[(7, 0.0)]), 7);
    }

    #[test]
    fn overlap_zero_has_no_halo() {
        assert_eq!(OverlapShards { halo: 0 }.halo(), 0);
        assert_eq!(OverlapShards::default().halo(), 0);
    }

    #[test]
    fn rotate_delegates_everything_but_the_period() {
        let policy = Rotate { period: 4, inner: OverlapShards { halo: 6 } };
        assert_eq!(policy.halo(), 6);
        assert_eq!(policy.rotation_period(), 4);
        assert_eq!(format!("{}", policy.describe()), "overlap-shards(halo=6,rot=4)");
        // The δ blend is the inner policy's, bit for bit.
        let pass_start = [0.8, 0.2];
        let mut via_rotate = [0.4, 0.6];
        let mut via_inner = [0.4, 0.6];
        Rotate { period: 7, inner: DeltaMomentum { beta: 0.25 } }
            .blend_delta(&pass_start, &mut via_rotate);
        DeltaMomentum { beta: 0.25 }.blend_delta(&pass_start, &mut via_inner);
        assert_eq!(via_rotate.map(f64::to_bits), via_inner.map(f64::to_bits));
    }

    #[test]
    fn rotate_period_zero_describes_as_the_bare_inner_policy() {
        // The descriptor drives learner equality, so a non-rotating wrapper
        // must be indistinguishable from its inner policy.
        assert_eq!(Rotate { period: 0, inner: DeltaAverage }.describe(), DeltaAverage.describe());
        assert_eq!(
            Rotate { period: 0, inner: DeltaMomentum { beta: 0.5 } }.describe(),
            DeltaMomentum { beta: 0.5 }.describe(),
        );
        assert_eq!(format!("{}", Rotate::every(0).describe()), "delta-average");
    }

    #[test]
    fn non_rotating_policies_report_period_zero() {
        assert_eq!(DeltaAverage.rotation_period(), 0);
        assert_eq!(DeltaMomentum { beta: 0.9 }.rotation_period(), 0);
        assert_eq!(OverlapShards { halo: 8 }.rotation_period(), 0);
    }
}
