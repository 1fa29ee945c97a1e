//! Real-workload adapter: feeds [`SimulatedCluster`] the *actual* per-object
//! costs of an MCDC fit instead of synthetic [`WorkItem`]s, and converts a
//! locality-aware [`Placement`] into the explicit row shards of
//! [`ExecutionPlan::Sharded`] so the placement drives a real replica-merge
//! MGCPL run.
//!
//! The per-object cost model mirrors the scoring hot path: one presentation
//! of object `x_i` sweeps its non-missing features against every live
//! cluster, so cost ∝ `|{r : x_ir ≠ NULL}|`. That makes the virtual
//! makespan/traffic accounting reflect the shards the engine would really
//! execute — the bridge between `mcdc-dist-sim`'s §III-D claims and the
//! execution engine in `mcdc-core`.

use categorical_data::{CategoricalTable, MISSING};
use mcdc_core::ExecutionPlan;

use crate::{ExecutionStats, Placement, SimulatedCluster, WorkItem};

/// Builds the real per-object workload of clustering `table`: item `i`
/// costs one virtual tick per non-missing feature of row `i` (the work one
/// scoring sweep performs), and communicates within `coarse[i]` — the
/// coarsest MGCPL cluster of the object.
///
/// # Panics
///
/// Panics if `coarse.len() != table.n_rows()`.
pub fn workload_from_table(table: &CategoricalTable, coarse: &[usize]) -> Vec<WorkItem> {
    assert_eq!(coarse.len(), table.n_rows(), "one coarse label per row");
    table
        .rows()
        .zip(coarse)
        .map(|(row, &c)| WorkItem {
            cost: row.iter().filter(|&&code| code != MISSING).count() as u64,
            coarse_cluster: c,
        })
        .collect()
}

/// Converts a [`Placement`] into explicit per-worker row shards: shard `w`
/// lists, in row order, every object the placement puts on worker `w`.
/// Workers that received no objects are dropped (a shard must be non-empty
/// to validate), so the shard count can be lower than
/// `placement.n_workers`.
pub fn shards_from_placement(placement: &Placement) -> Vec<Vec<usize>> {
    let mut shards: Vec<Vec<usize>> = vec![Vec::new(); placement.n_workers];
    for (i, &w) in placement.worker_of.iter().enumerate() {
        shards[w].push(i);
    }
    shards.retain(|shard| !shard.is_empty());
    shards
}

/// The [`ExecutionPlan::Sharded`] plan executing a placement: MGCPL's
/// replica-merge pass runs one replica per worker, each owning exactly the
/// rows the locality-aware partitioner placed there. Pair with a shard
/// halo (`.halo(suggested_halo(&placement))` on the MGCPL or MCDC builder)
/// when the placement's shard boundaries cut through coarse clusters — see
/// [`suggested_halo`].
pub fn execution_plan_from_placement(placement: &Placement) -> ExecutionPlan {
    ExecutionPlan::sharded(shards_from_placement(placement))
}

/// A shard halo width matched to a placement's shard geometry: an
/// eighth of the *smallest* non-empty worker's load, at least 1 row.
///
/// Rationale: the halo exists to give each replica context just past its
/// boundary, so it should scale with shard size — but a halo comparable to
/// a shard makes replicas re-present whole neighbors (each borrowed row
/// costs one extra scoring presentation per pass). One eighth keeps the
/// overlap well under the replica's own span for any shard the partitioner
/// emits, and the floor of 1 keeps tiny placements overlapping at all.
/// Feed the result to the builder's `halo` alongside
/// [`execution_plan_from_placement`]'s plan.
///
/// # Panics
///
/// Panics if the placement covers no objects.
pub fn suggested_halo(placement: &Placement) -> usize {
    let smallest = shards_from_placement(placement)
        .iter()
        .map(Vec::len)
        .min()
        .expect("placement covers at least one object");
    (smallest / 8).max(1)
}

/// Runs the virtual cluster on the *real* workload of `table` under
/// `placement`: per-object costs from [`workload_from_table`], locality
/// groups from the coarsest granularity. Returns the same
/// [`ExecutionStats`] the synthetic path produces, now grounded in actual
/// per-shard work.
///
/// # Panics
///
/// Panics if `coarse.len() != table.n_rows()` or the placement covers a
/// different number of objects.
pub fn simulate_real_workload(
    table: &CategoricalTable,
    coarse: &[usize],
    placement: &Placement,
) -> ExecutionStats {
    let items = workload_from_table(table, coarse);
    SimulatedCluster::new().run(placement, &items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{round_robin, GranularPartitioner};
    use categorical_data::synth::GeneratorConfig;
    use mcdc_core::{Mcdc, Mgcpl};

    fn nested() -> (categorical_data::Dataset, mcdc_core::MgcplResult) {
        let data = GeneratorConfig::new("w", 400, vec![4; 8], 4)
            .subclusters(3)
            .shared_fraction(0.7)
            .noise(0.08)
            .generate(3)
            .dataset;
        let granular = Mgcpl::builder().seed(1).build().fit(data.table()).unwrap();
        (data, granular)
    }

    #[test]
    fn real_costs_conserve_total_feature_work() {
        let (data, granular) = nested();
        let placement = GranularPartitioner::new(4).place(&granular);
        let stats = simulate_real_workload(data.table(), granular.coarsest(), &placement);
        // Full table, no missing values: every object costs d = 8 ticks.
        assert_eq!(stats.total_work, 400 * 8);
        assert!(stats.makespan <= stats.total_work);
    }

    #[test]
    fn missing_values_reduce_per_object_cost() {
        let mut table =
            categorical_data::CategoricalTable::new(categorical_data::Schema::uniform(3, 2));
        table.push_row(&[0, 1, 0]).unwrap();
        table.push_row(&[MISSING, 1, MISSING]).unwrap();
        let items = workload_from_table(&table, &[0, 0]);
        assert_eq!(items[0].cost, 3);
        assert_eq!(items[1].cost, 1);
    }

    #[test]
    fn locality_aware_placement_beats_round_robin_on_real_traffic() {
        let (data, granular) = nested();
        let ours = GranularPartitioner::new(4).place(&granular);
        let baseline = round_robin(ours.worker_of.len(), 4);
        let ours_stats = simulate_real_workload(data.table(), granular.coarsest(), &ours);
        let base_stats = simulate_real_workload(data.table(), granular.coarsest(), &baseline);
        assert!(
            ours_stats.cross_worker_messages < base_stats.cross_worker_messages,
            "locality-aware: {}, round-robin: {}",
            ours_stats.cross_worker_messages,
            base_stats.cross_worker_messages
        );
    }

    #[test]
    fn placement_shards_partition_every_row() {
        let (_, granular) = nested();
        let placement = GranularPartitioner::new(4).place(&granular);
        let shards = shards_from_placement(&placement);
        let plan = ExecutionPlan::sharded(shards.clone());
        plan.validate(placement.worker_of.len()).expect("placement shards are a partition");
        let covered: usize = shards.iter().map(Vec::len).sum();
        assert_eq!(covered, placement.worker_of.len());
    }

    #[test]
    fn placement_driven_sharded_fit_recovers_structure() {
        // End to end: MGCPL places the data, the placement becomes a Sharded
        // plan, and a full MCDC re-run under that plan still recovers the
        // planted structure on a well-separated suite (the tolerance band of
        // the stochastic tests; nested/overlapping suites are noisier under
        // replica-merge — see DESIGN.md §4).
        let data = GeneratorConfig::new("sep", 400, vec![4; 8], 3).noise(0.05).generate(11).dataset;
        let granular = Mgcpl::builder().seed(1).build().fit(data.table()).unwrap();
        let placement = GranularPartitioner::new(4).place(&granular);
        let plan = execution_plan_from_placement(&placement);
        let result = Mcdc::builder().seed(2).execution(plan).build().fit(data.table(), 3).unwrap();
        let acc = cluster_eval::accuracy(data.labels(), result.labels());
        assert!(acc > 0.85, "sharded-by-placement fit degraded: acc={acc}");
    }

    #[test]
    fn placement_driven_fit_on_nested_data_stays_well_formed() {
        // On the harder nested suite the replica-merge semantics may land on
        // a different granularity than serial; the engine must still deliver
        // a valid k-partition deterministically.
        let (data, granular) = nested();
        let placement = GranularPartitioner::new(4).place(&granular);
        let plan = execution_plan_from_placement(&placement);
        let fit = || {
            Mcdc::builder().seed(2).execution(plan.clone()).build().fit(data.table(), 4).unwrap()
        };
        let result = fit();
        assert_eq!(result.labels().len(), 400);
        let distinct: std::collections::HashSet<_> = result.labels().iter().collect();
        assert_eq!(distinct.len(), 4, "CAME must deliver the sought k clusters");
        assert_eq!(result.labels(), fit().labels(), "sharded fits are deterministic");
    }

    #[test]
    fn suggested_halo_tracks_the_smallest_shard() {
        let placement = Placement {
            worker_of: vec![0; 40].into_iter().chain(vec![1; 100]).collect(),
            n_workers: 2,
        };
        assert_eq!(suggested_halo(&placement), 5); // 40 / 8
        let tiny = Placement { worker_of: vec![0, 1, 0, 1], n_workers: 2 };
        assert_eq!(suggested_halo(&tiny), 1); // floor of 1
    }

    #[test]
    fn placement_fit_with_overlap_reconciliation_is_deterministic() {
        // The adapter's plan plus a halo sized by suggested_halo: the
        // overlapping replica-merge fit must stay deterministic and
        // deliver the sought k on the nested suite.
        let (data, granular) = nested();
        let placement = GranularPartitioner::new(4).place(&granular);
        let plan = execution_plan_from_placement(&placement);
        let halo = suggested_halo(&placement);
        assert!(halo >= 1);
        let fit = || {
            Mcdc::builder()
                .seed(2)
                .execution(plan.clone())
                .halo(halo)
                .build()
                .fit(data.table(), 4)
                .unwrap()
        };
        let result = fit();
        assert_eq!(result.labels().len(), 400);
        let distinct: std::collections::HashSet<_> = result.labels().iter().collect();
        assert_eq!(distinct.len(), 4, "CAME must deliver the sought k clusters");
        assert_eq!(result.labels(), fit().labels(), "overlapping fits are deterministic");
    }

    #[test]
    fn empty_workers_are_dropped_from_shards() {
        let placement = Placement { worker_of: vec![0, 0, 2, 2], n_workers: 4 };
        let shards = shards_from_placement(&placement);
        assert_eq!(shards, vec![vec![0, 1], vec![2, 3]]);
        assert!(ExecutionPlan::sharded(shards).validate(4).is_ok());
    }
}
