//! Zero-allocation pass workspaces (DESIGN.md §3, §4).
//!
//! Every MGCPL pass used to allocate its scratch on entry — and replicated
//! plans re-cloned the full cohort (profiles, δ, scoring table) *per
//! replica per pass*. [`Workspace`] is the arena that ends that churn: all
//! pass- and replica-scoped scratch (presentation orders, δ/prefactor
//! vectors, replica cohorts, vote buffers, CAME's dirty-cluster margins)
//! is checked out of one reusable workspace and grown at most once,
//! so a warm workspace runs whole fits without touching the allocator.
//!
//! `Mgcpl::fit` / `Came::fit` create a throwaway workspace internally;
//! callers that fit repeatedly (benchmarks, the streaming re-fit, servers)
//! pass a persistent one to `fit_with`. Buffer *growth* events are counted
//! ([`Workspace::allocations`]), which is what the benchmark's traced
//! run reports as `mgcpl.allocations`.

use crate::mgcpl::Cohort;
use crate::trace::HotPathStats;
use crate::ClusterProfile;

/// Notes a growth event if `vec` would have to reallocate to hold `needed`.
#[inline]
pub(crate) fn note_growth<T>(vec: &Vec<T>, needed: usize, allocs: &mut u64) {
    if vec.capacity() < needed {
        *allocs += 1;
    }
}

/// `dst = src` reusing `dst`'s capacity, counting a growth event if the
/// copy had to reallocate.
#[inline]
pub(crate) fn copy_into<T: Copy>(dst: &mut Vec<T>, src: &[T], allocs: &mut u64) {
    note_growth(dst, src.len(), allocs);
    dst.clear();
    dst.extend_from_slice(src);
}

/// `vec.resize(len, fill)` counting a growth event when it reallocates.
#[inline]
pub(crate) fn resize_tracked<T: Clone>(vec: &mut Vec<T>, len: usize, fill: T, allocs: &mut u64) {
    note_growth(vec, len, allocs);
    vec.resize(len, fill);
}

/// Per-replica scratch for replicated MGCPL passes: the replica's cohort
/// clone target, its local prefactor vector, and its presentation span and
/// verdicts. Slots are moved into the rayon workers and returned, so
/// buffers persist across passes without sharing.
#[derive(Debug, Default)]
pub(crate) struct ReplicaSlot {
    /// Replica-local cohort, refreshed from the pass-start snapshot; its
    /// δ at span end feeds the consensus average.
    pub(crate) cohort: Option<Cohort>,
    /// Profiles parked when the cohort shrinks (pruned clusters), reused
    /// when a later fit starts wide again.
    pub(crate) spare_profiles: Vec<ClusterProfile>,
    /// Replica-local copy of the hoisted `(1 − ρ)·u` prefactors.
    pub(crate) prefactors: Vec<f64>,
    /// Presentation span: the global shuffle filtered to this replica.
    pub(crate) rows: Vec<usize>,
    /// Winner per presented row, parallel to `rows`.
    pub(crate) decisions: Vec<usize>,
    /// Winner similarity per presented row; filled only under overlap.
    pub(crate) confidences: Vec<f64>,
    /// Hot-path counters accumulated inside the worker, folded after join.
    pub(crate) stats: HotPathStats,
    /// Buffer-growth events inside the worker, folded after join.
    pub(crate) allocs: u64,
}

/// Scratch for replicated (mini-batch / sharded) MGCPL passes.
#[derive(Debug, Default)]
pub(crate) struct ReplicatedScratch {
    /// One slot per shard, reused across passes.
    pub(crate) slots: Vec<ReplicaSlot>,
    /// Span staging buffers [`ShardMap::fill_spans`](crate::execution::ShardMap::fill_spans)
    /// writes into before the spans swap into the slots.
    pub(crate) spans: Vec<Vec<usize>>,
    /// Final membership per row for the current pass.
    pub(crate) final_of: Vec<usize>,
    /// Vote buffers for multiply-presented (halo) rows.
    pub(crate) votes: Vec<Vec<(usize, f64)>>,
}

/// Scratch for one MGCPL fit.
#[derive(Debug, Default)]
pub(crate) struct MgcplScratch {
    /// Per-pass presentation order.
    pub(crate) order: Vec<usize>,
    /// `1 − ρ_l` snapshot.
    pub(crate) one_minus_rho: Vec<f64>,
    /// Hoisted `(1 − ρ)·u` prefactors.
    pub(crate) prefactors: Vec<f64>,
    /// Winner per presented row (serial path).
    pub(crate) decisions: Vec<usize>,
    /// Replica-merge scratch.
    pub(crate) replicated: ReplicatedScratch,
}

/// Scratch for one CAME fit.
#[derive(Debug, Default)]
pub(crate) struct CameScratch {
    /// Per-row winner margin (second-best − best θ-Hamming distance).
    pub(crate) margins: Vec<f64>,
    /// Per-cluster score-movement bound for the current iteration.
    pub(crate) drift: Vec<f64>,
    /// Per-cluster skip threshold derived from `drift`.
    pub(crate) decay: Vec<f64>,
    /// Previous iteration's flat `k×σ` mode matrix.
    pub(crate) prev_modes: Vec<u32>,
    /// Previous iteration's θ.
    pub(crate) prev_theta: Vec<f64>,
    /// Mode-count matrix for the serial Step-2 sweep.
    pub(crate) counts: Vec<u32>,
    /// θ agreement counters for the serial Step-2 sweep.
    pub(crate) intra: Vec<u64>,
}

/// Reusable scratch arena for MGCPL and CAME fits.
///
/// A fresh workspace is empty; the first fit grows every buffer to size
/// and later fits reuse them, so steady-state passes allocate nothing.
/// [`Workspace::allocations`] counts buffer *growth* events (a fresh
/// buffer or a capacity increase), which is the `mgcpl.allocations`
/// metric the benchmark's traced run records.
///
/// # Example
///
/// ```
/// use categorical_data::synth::GeneratorConfig;
/// use mcdc_core::{Mgcpl, Workspace};
///
/// let data = GeneratorConfig::new("ws", 200, vec![4; 6], 3)
///     .noise(0.05)
///     .generate(3)
///     .dataset;
/// let mgcpl = Mgcpl::builder().seed(1).build();
/// let mut ws = Workspace::new();
/// let cold = mgcpl.fit_with(data.table(), &mut ws)?;
/// let grown = ws.allocations();
/// ws.reset_allocations();
/// let warm = mgcpl.fit_with(data.table(), &mut ws)?;
/// assert_eq!(cold, warm);
/// assert!(ws.allocations() <= grown, "warm fits must not re-grow buffers");
/// # Ok::<(), mcdc_core::McdcError>(())
/// ```
#[derive(Debug, Default)]
pub struct Workspace {
    pub(crate) mgcpl: MgcplScratch,
    pub(crate) came: CameScratch,
    pub(crate) allocs: u64,
}

impl Workspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Workspace {
        Workspace::default()
    }

    /// Buffer-growth events since creation or the last
    /// [`reset_allocations`](Self::reset_allocations).
    pub fn allocations(&self) -> u64 {
        self.allocs
    }

    /// Resets the growth counter (buffers keep their capacity).
    pub fn reset_allocations(&mut self) {
        self.allocs = 0;
    }
}

// Scratch content is meaningless between fits, so a clone starts empty:
// this keeps `Workspace` embeddable in `Clone` types (the streaming
// clusterer) without duplicating arena memory.
impl Clone for Workspace {
    fn clone(&self) -> Workspace {
        Workspace::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_tracking_counts_reallocations_only() {
        let mut allocs = 0;
        let mut v: Vec<f64> = Vec::new();
        resize_tracked(&mut v, 8, 0.0, &mut allocs);
        assert_eq!(allocs, 1);
        v.clear();
        resize_tracked(&mut v, 8, 0.0, &mut allocs);
        assert_eq!(allocs, 1, "capacity was retained");
        copy_into(&mut v, &[1.0; 4], &mut allocs);
        assert_eq!(allocs, 1);
        copy_into(&mut v, &[1.0; 64], &mut allocs);
        assert_eq!(allocs, 2);
    }
}
