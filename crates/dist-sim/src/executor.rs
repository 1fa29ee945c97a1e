//! Execution substrate validating placement quality: a deterministic
//! virtual-time model for makespan/traffic accounting.

use crate::Placement;

/// One unit of work: processing a data object costs `cost` virtual ticks;
/// `coarse_cluster` identifies the correlation group it communicates with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkItem {
    /// Processing cost in virtual ticks.
    pub cost: u64,
    /// Coarse cluster the item's communication stays within.
    pub coarse_cluster: usize,
}

/// Outcome of simulating a placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionStats {
    /// Virtual completion time (max worker busy time).
    pub makespan: u64,
    /// Total busy time across workers (work conserved).
    pub total_work: u64,
    /// Cross-worker messages: one per same-coarse-cluster pair split across
    /// workers, the traffic a locality-oblivious placement pays.
    pub cross_worker_messages: u64,
}

/// Deterministic cluster simulator over a fixed worker count.
///
/// # Example
///
/// ```
/// use mcdc_dist_sim::{round_robin, SimulatedCluster, WorkItem};
///
/// let items: Vec<WorkItem> =
///     (0..100).map(|i| WorkItem { cost: 1 + (i % 3), coarse_cluster: (i as usize) % 5 }).collect();
/// let placement = round_robin(items.len(), 4);
/// let stats = SimulatedCluster::new().run(&placement, &items);
/// assert_eq!(stats.total_work, items.iter().map(|w| w.cost).sum::<u64>());
/// assert!(stats.makespan <= stats.total_work);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimulatedCluster;

impl SimulatedCluster {
    /// Creates the simulator.
    pub fn new() -> Self {
        SimulatedCluster
    }

    /// Runs `items` under `placement`, accounting virtual time per worker
    /// and the cross-worker traffic of split coarse clusters.
    ///
    /// # Panics
    ///
    /// Panics if `placement.worker_of.len() != items.len()`.
    pub fn run(&self, placement: &Placement, items: &[WorkItem]) -> ExecutionStats {
        assert_eq!(placement.worker_of.len(), items.len(), "one placement entry per item");
        // Virtual-time accounting.
        let mut busy = vec![0u64; placement.n_workers];
        for (item, &w) in items.iter().zip(&placement.worker_of) {
            busy[w] += item.cost;
        }
        let makespan = busy.iter().copied().max().unwrap_or(0);
        let total_work: u64 = busy.iter().sum();

        // Cross-worker traffic from split coarse clusters (group-size based).
        let k = items.iter().map(|w| w.coarse_cluster).max().map_or(0, |m| m + 1);
        let mut group_sizes: Vec<std::collections::HashMap<usize, u64>> =
            vec![std::collections::HashMap::new(); k];
        let mut cluster_sizes = vec![0u64; k];
        for (item, &w) in items.iter().zip(&placement.worker_of) {
            *group_sizes[item.coarse_cluster].entry(w).or_insert(0) += 1;
            cluster_sizes[item.coarse_cluster] += 1;
        }
        let choose2 = |x: u64| x * x.saturating_sub(1) / 2;
        let mut cross = 0u64;
        for c in 0..k {
            let within: u64 = group_sizes[c].values().map(|&g| choose2(g)).sum();
            cross += choose2(cluster_sizes[c]) - within;
        }

        ExecutionStats { makespan, total_work, cross_worker_messages: cross }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round_robin;

    fn items(n: usize, k: usize) -> Vec<WorkItem> {
        (0..n).map(|i| WorkItem { cost: 1 + (i as u64 % 4), coarse_cluster: i % k }).collect()
    }

    #[test]
    fn work_is_conserved() {
        let items = items(200, 5);
        let stats = SimulatedCluster::new().run(&round_robin(200, 4), &items);
        assert_eq!(stats.total_work, items.iter().map(|w| w.cost).sum::<u64>());
    }

    #[test]
    fn makespan_bounds() {
        let items = items(100, 5);
        let stats = SimulatedCluster::new().run(&round_robin(100, 4), &items);
        let total = stats.total_work;
        assert!(stats.makespan >= total / 4);
        assert!(stats.makespan <= total);
    }

    #[test]
    fn colocated_coarse_clusters_have_zero_cross_traffic() {
        // All items of a coarse cluster on one worker.
        let items = items(100, 4);
        let placement = crate::Placement {
            worker_of: items.iter().map(|w| w.coarse_cluster).collect(),
            n_workers: 4,
        };
        let stats = SimulatedCluster::new().run(&placement, &items);
        assert_eq!(stats.cross_worker_messages, 0);
    }

    #[test]
    fn round_robin_splits_everything() {
        let items = items(100, 4);
        // Round-robin over 4 workers with clusters striped mod 4 puts every
        // cluster entirely on one worker here; use 3 workers to force splits.
        let stats = SimulatedCluster::new().run(&round_robin(100, 3), &items);
        assert!(stats.cross_worker_messages > 0);
    }

    #[test]
    #[should_panic(expected = "one placement entry per item")]
    fn mismatched_lengths_panic() {
        let items = items(10, 2);
        let _ = SimulatedCluster::new().run(&round_robin(5, 2), &items);
    }
}
