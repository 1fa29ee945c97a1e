//! Simulated distributed-computing substrate for the paper's §III-D claims.
//!
//! The paper argues MCDC's multi-granular clusters benefit distributed
//! systems in two ways, both reproduced here:
//!
//! 1. **Data pre-partitioning** ([`GranularPartitioner`]): fine-grained
//!    micro-clusters are packed onto compute workers so that load stays
//!    balanced *and* objects that belong to the same coarse cluster land on
//!    the same worker (local correlation is preserved). [`PlacementReport`]
//!    quantifies both.
//! 2. **Compute-node pre-grouping** ([`NodeGrouper`]): nodes described by
//!    categorical features (the paper's Fig. 1 table) are clustered into
//!    performance-consistent groups, from which task-appropriate uniform
//!    node sets can be selected.
//!
//! A deterministic virtual-time execution model ([`SimulatedCluster`])
//! validates that locality-preserving placements reduce cross-worker
//! traffic without hurting the parallel makespan.
//!
//! The workload-adapter functions ground the simulation in real shards:
//! [`workload_from_table`] derives per-object costs from the actual scoring
//! work of a table, and [`execution_plan_from_placement`] turns a placement
//! into the `ExecutionPlan::Sharded` row partition that `mcdc-core`'s
//! replica-merge engine executes directly.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// The clustering inner loops walk an index across several parallel
// structures (labels, profiles, and table rows); the iterator rewrite the
// lint suggests would zip three sources and obscure the access pattern.
#![allow(clippy::needless_range_loop)]

mod executor;
mod grouping;
mod partition;
mod workload;

pub use executor::{ExecutionStats, SimulatedCluster, WorkItem};
pub use grouping::{NodeGroup, NodeGrouper, NodeGroups};
pub use partition::{round_robin, GranularPartitioner, Placement, PlacementReport};
pub use workload::{
    execution_plan_from_placement, shards_from_placement, simulate_real_workload, suggested_halo,
    workload_from_table,
};
