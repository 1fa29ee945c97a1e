/// Hot-path execution counters for one fit (MGCPL or CAME).
///
/// Observability, not semantics: two runs that produce identical labels
/// may count differently (a one-shard mini-batch plan reproduces the
/// serial labels but also counts the rows it settles as `merges`), so
/// result types exclude these counters from their equality — see
/// `MgcplResult` / `CameResult`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HotPathStats {
    /// Full object rescans performed (one `d×k` scoring sweep each). MGCPL
    /// rescans every presentation.
    pub full_rescans: u64,
    /// Rescans CAME's dirty-cluster tracking skipped (DESIGN.md §3): a row
    /// whose winner margin exceeds every cluster's score drift keeps its
    /// label with an `O(1)` check. Always 0 for MGCPL, which scores every
    /// presentation against every live cluster.
    pub skipped_rescans: u64,
    /// Object–cluster score evaluations performed: each `O(d)` similarity
    /// (MGCPL) or θ-Hamming distance (CAME) computed against one cluster.
    /// A dense sweep over `k` live clusters contributes `k`; a row CAME
    /// skips contributes nothing. This is
    /// the deterministic work measure the conformance perf gates compare
    /// (DESIGN.md §10) — unlike wall time, it is machine-independent.
    pub score_evals: u64,
    /// Rows moved between profiles while settling replicated passes: one
    /// per row whose settled cluster differs from its pass-start one. 0
    /// under serial plans.
    pub merges: u64,
    /// Always 0: buffer growth is no longer counted, since every fit owns
    /// its scratch. Kept until the benchmark stops using it (ROADMAP
    /// item 12).
    pub allocations: u64,
    /// Learning passes (MGCPL) or alternating-minimization iterations
    /// (CAME) executed.
    pub passes: u64,
}

impl HotPathStats {
    /// Fraction of presentations resolved without a full rescan.
    pub fn skip_rate(&self) -> f64 {
        let total = self.full_rescans + self.skipped_rescans;
        if total == 0 {
            0.0
        } else {
            self.skipped_rescans as f64 / total as f64
        }
    }
}

/// Record of one MGCPL granularity stage (one outer epoch that ran
/// competitive penalization learning to convergence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageRecord {
    /// 1-based index of the convergence stage (the x-axis of Fig. 5).
    pub stage: usize,
    /// Number of live clusters the stage started with.
    pub k_before: usize,
    /// Number of live clusters surviving at stage convergence.
    pub k_after: usize,
    /// Inner learning passes the stage ran: the passes it needed to reach
    /// the `Q` fixpoint, or `max_inner_iterations` when that cap stopped the
    /// stage first (the record does not tell the two apart).
    pub inner_iterations: usize,
}

/// The full learning trace of one MGCPL run: the initial `k₀` and one
/// [`StageRecord`] per convergence stage.
///
/// This is exactly the data plotted in the paper's Fig. 5 ("number of
/// convergences" versus "number of clusters").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LearningTrace {
    /// The initialized number of clusters `k₀` (x = 0 in Fig. 5).
    pub initial_k: usize,
    /// One record per stage, in learning order.
    pub stages: Vec<StageRecord>,
}

impl LearningTrace {
    /// The series of cluster counts `κ = {k₁, …, k_σ}` the paper reports,
    /// one per stage.
    pub fn kappa(&self) -> Vec<usize> {
        self.stages.iter().map(|s| s.k_after).collect()
    }

    /// The number of granularity levels `σ`.
    pub fn sigma(&self) -> usize {
        self.stages.len()
    }

    /// The final (coarsest) number of clusters `k_σ`, or `initial_k` when no
    /// stage ran.
    pub fn final_k(&self) -> usize {
        self.stages.last().map_or(self.initial_k, |s| s.k_after)
    }

    /// Points `(stage, k)` for plotting Fig. 5, starting at `(0, k₀)`.
    pub fn plot_points(&self) -> Vec<(usize, usize)> {
        std::iter::once((0, self.initial_k))
            .chain(self.stages.iter().map(|s| (s.stage, s.k_after)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kappa_and_final_k() {
        let trace = LearningTrace {
            initial_k: 40,
            stages: vec![
                StageRecord { stage: 1, k_before: 40, k_after: 12, inner_iterations: 5 },
                StageRecord { stage: 2, k_before: 12, k_after: 4, inner_iterations: 3 },
            ],
        };
        assert_eq!(trace.kappa(), vec![12, 4]);
        assert_eq!(trace.sigma(), 2);
        assert_eq!(trace.final_k(), 4);
        assert_eq!(trace.plot_points(), vec![(0, 40), (1, 12), (2, 4)]);
    }

    #[test]
    fn empty_trace_defaults() {
        let trace = LearningTrace { initial_k: 7, stages: vec![] };
        assert_eq!(trace.final_k(), 7);
        assert_eq!(trace.sigma(), 0);
    }
}
