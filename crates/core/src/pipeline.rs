//! The end-to-end MCDC pipeline: MGCPL multi-granular learning followed by
//! CAME aggregation on the Γ encoding.

use categorical_data::CategoricalTable;

use crate::{
    encode_mgcpl, Came, CameInit, CameResult, ExecutionPlan, McdcError, Mgcpl, MgcplResult,
};

/// The full MCDC clusterer. Construct via [`Mcdc::builder`].
///
/// # Example
///
/// ```
/// use categorical_data::synth::GeneratorConfig;
/// use mcdc_core::Mcdc;
///
/// let data = GeneratorConfig::new("demo", 200, vec![4; 8], 3)
///     .noise(0.05)
///     .generate(7)
///     .dataset;
/// let result = Mcdc::builder().seed(1).build().fit(data.table(), 3)?;
/// assert_eq!(result.labels().len(), 200);
/// assert!(result.mgcpl().sigma() >= 1);
/// # Ok::<(), mcdc_core::McdcError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mcdc {
    mgcpl: Mgcpl,
    came: Came,
}

/// Builder for [`Mcdc`] with the paper's defaults (`η = 0.03`, weighted
/// MGCPL similarity, weighted CAME, granularity-guided init), except that
/// `k₀ = min(√n, 64)` keeps MGCPL linear in n (see
/// [`MgcplBuilder`](crate::MgcplBuilder)).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct McdcBuilder {
    learning_rate: Option<f64>,
    initial_k: Option<usize>,
    weighted_similarity: Option<bool>,
    came_weighted: Option<bool>,
    came_init: Option<CameInit>,
    execution: Option<ExecutionPlan>,
    halo: Option<usize>,
    seed: u64,
}

impl McdcBuilder {
    /// Sets MGCPL's learning rate `η` (default 0.03).
    pub fn learning_rate(mut self, eta: f64) -> Self {
        self.learning_rate = Some(eta);
        self
    }

    /// Overrides MGCPL's initial cluster count `k₀` (default `min(√n, 64)`;
    /// pass `round(√n)` for the paper's uncapped rule).
    pub fn initial_k(mut self, k0: usize) -> Self {
        self.initial_k = Some(k0);
        self
    }

    /// Toggles MGCPL's ω feature weighting (default on).
    pub fn weighted_similarity(mut self, on: bool) -> Self {
        self.weighted_similarity = Some(on);
        self
    }

    /// Toggles CAME's θ feature weighting (default on; off = MCDC₄).
    pub fn came_weighted(mut self, on: bool) -> Self {
        self.came_weighted = Some(on);
        self
    }

    /// Sets CAME's mode initialization (default granularity-guided).
    pub fn came_init(mut self, init: CameInit) -> Self {
        self.came_init = Some(init);
        self
    }

    /// Selects the execution backend for *both* stages — the one
    /// parallelism knob of the pipeline. MGCPL runs the plan's replica-merge
    /// formulation (semantics documented in `DESIGN.md` §4); CAME derives
    /// its chunked-parallel toggle from the same plan (its parallel paths
    /// are exact, so only MGCPL's semantics depend on the choice). Default
    /// [`ExecutionPlan::Serial`].
    pub fn execution(mut self, plan: ExecutionPlan) -> Self {
        self.execution = Some(plan);
        self
    }

    /// Lets the MGCPL stage's replica shards overlap by `rows` boundary
    /// rows (default 0, disjoint shards); see
    /// [`MgcplBuilder::halo`](crate::MgcplBuilder::halo) for the
    /// semantics. CAME is unaffected — its parallel paths are exact, so
    /// there is nothing to overlap. No effect under
    /// [`ExecutionPlan::Serial`].
    ///
    /// # Example
    ///
    /// ```
    /// use mcdc_core::{ExecutionPlan, Mcdc};
    ///
    /// // Many small shards: borrow n/32 boundary rows from each neighbor.
    /// let n = 2400;
    /// let mcdc = Mcdc::builder()
    ///     .execution(ExecutionPlan::mini_batch(n / 8))
    ///     .halo(n / 32)
    ///     .build();
    /// assert_eq!(mcdc.halo(), 75);
    /// ```
    pub fn halo(mut self, rows: usize) -> Self {
        self.halo = Some(rows);
        self
    }

    /// Seeds all randomized choices.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the pipeline.
    ///
    /// # Panics
    ///
    /// Panics on any configuration [`try_build`](Self::try_build) rejects.
    pub fn build(self) -> Mcdc {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the pipeline, reporting bad configuration — a non-finite
    /// learning rate or a zero cap — as [`McdcError::InvalidConfig`]
    /// instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`McdcError::InvalidConfig`] naming the offending
    /// parameter (see
    /// [`MgcplBuilder::try_build`](crate::MgcplBuilder::try_build) for
    /// the exact checks).
    pub fn try_build(self) -> Result<Mcdc, McdcError> {
        let mut mgcpl = Mgcpl::builder().seed(self.seed);
        if let Some(eta) = self.learning_rate {
            mgcpl = mgcpl.learning_rate(eta);
        }
        if let Some(k0) = self.initial_k {
            mgcpl = mgcpl.initial_k(k0);
        }
        if let Some(on) = self.weighted_similarity {
            mgcpl = mgcpl.weighted_similarity(on);
        }
        let mut came = Came::builder().seed(self.seed);
        if let Some(on) = self.came_weighted {
            came = came.weighted(on);
        }
        if let Some(init) = self.came_init {
            came = came.init(init);
        }
        if let Some(plan) = self.execution {
            came = came.execution(plan.clone());
            mgcpl = mgcpl.execution(plan);
        }
        if let Some(rows) = self.halo {
            mgcpl = mgcpl.halo(rows);
        }
        Ok(Mcdc { mgcpl: mgcpl.try_build()?, came: came.build() })
    }
}

/// Output of a full MCDC run, keeping every intermediate artifact so the
/// `MCDC+G.` / `MCDC+F.` variants and the ablations can reuse them.
#[derive(Debug, Clone, PartialEq)]
pub struct McdcResult {
    labels: Vec<usize>,
    mgcpl: MgcplResult,
    came: CameResult,
    encoding: CategoricalTable,
}

impl McdcResult {
    /// Final partition into the sought `k` clusters.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// The multi-granular MGCPL stage output (κ, Γ, trace).
    pub fn mgcpl(&self) -> &MgcplResult {
        &self.mgcpl
    }

    /// The CAME aggregation output (θ, modes, iterations).
    pub fn came(&self) -> &CameResult {
        &self.came
    }

    /// The Γ encoding as a categorical table — feed this to any categorical
    /// clusterer to build an `MCDC+X` variant.
    pub fn encoding(&self) -> &CategoricalTable {
        &self.encoding
    }

    /// Compacts the final `k`-cluster partition into a read-only
    /// [`FrozenModel`](crate::FrozenModel) over `table` — the raw table
    /// this result was fitted on (the result retains only the Γ encoding,
    /// not the input). Serving then needs neither stage's learning state:
    /// the frozen `score_one` assigns raw rows to the final clusters with
    /// the live kernels' exact argmax semantics.
    ///
    /// # Errors
    ///
    /// Returns [`McdcError::InvalidConfig`] when `table` does not have one
    /// row per final label (i.e. it is not the fitted table).
    pub fn freeze(&self, table: &CategoricalTable) -> Result<crate::FrozenModel, McdcError> {
        crate::FrozenModel::from_partition(table, &self.labels, self.came.modes().len())
    }
}

impl Mcdc {
    /// Starts building an MCDC pipeline with paper defaults.
    ///
    /// # Example
    ///
    /// Every knob is optional; the three below are the ones production
    /// deployments touch most — the parallelism plan, its shard halo, and
    /// the seed:
    ///
    /// ```
    /// use mcdc_core::{ExecutionPlan, Mcdc};
    ///
    /// let mcdc = Mcdc::builder()
    ///     .execution(ExecutionPlan::mini_batch(512))
    ///     .halo(64)
    ///     .seed(42)
    ///     .build();
    /// assert!(mcdc.execution_plan().is_parallel());
    /// ```
    pub fn builder() -> McdcBuilder {
        McdcBuilder::default()
    }

    /// The execution plan the MGCPL stage runs under (CAME derives its
    /// parallel toggle from the same plan at build time).
    pub fn execution_plan(&self) -> &ExecutionPlan {
        self.mgcpl.execution_plan()
    }

    /// The halo width, in rows, of the MGCPL stage's replica shards.
    pub fn halo(&self) -> usize {
        self.mgcpl.halo()
    }

    /// Runs MGCPL then CAME, partitioning `table` into `k` clusters.
    ///
    /// # Errors
    ///
    /// Returns [`McdcError::EmptyInput`] / [`McdcError::InvalidK`] on invalid
    /// input shapes.
    pub fn fit(&self, table: &CategoricalTable, k: usize) -> Result<McdcResult, McdcError> {
        let mgcpl = self.mgcpl.fit(table)?;
        let encoding = encode_mgcpl(&mgcpl)?;
        let came = self.came.fit(&encoding, k)?;
        Ok(McdcResult { labels: came.labels().to_vec(), mgcpl, came, encoding })
    }

    /// Runs only the MGCPL stage (multi-granular exploration, Fig. 5).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Mgcpl::fit`].
    pub fn explore(&self, table: &CategoricalTable) -> Result<MgcplResult, McdcError> {
        self.mgcpl.fit(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use categorical_data::synth::GeneratorConfig;
    use categorical_data::Dataset;

    fn separated(n: usize, k: usize, seed: u64) -> Dataset {
        GeneratorConfig::new("t", n, vec![4; 8], k).noise(0.05).generate(seed).dataset
    }

    #[test]
    fn recovers_well_separated_clusters() {
        let data = separated(300, 3, 1);
        let result = Mcdc::builder().seed(2).build().fit(data.table(), 3).unwrap();
        let acc = cluster_eval::accuracy(data.labels(), result.labels());
        assert!(acc > 0.9, "acc={acc}");
    }

    #[test]
    fn exposes_encoding_for_variants() {
        let data = separated(120, 2, 3);
        let result = Mcdc::builder().seed(1).build().fit(data.table(), 2).unwrap();
        assert_eq!(result.encoding().n_rows(), 120);
        assert_eq!(result.encoding().n_features(), result.mgcpl().sigma());
    }

    #[test]
    fn deterministic_per_seed() {
        let data = separated(100, 2, 4);
        let mcdc = Mcdc::builder().seed(5).build();
        assert_eq!(
            mcdc.fit(data.table(), 2).unwrap().labels(),
            mcdc.fit(data.table(), 2).unwrap().labels()
        );
    }

    #[test]
    fn invalid_k_propagates() {
        let data = separated(50, 2, 5);
        assert!(matches!(
            Mcdc::builder().build().fit(data.table(), 0),
            Err(McdcError::InvalidK { .. })
        ));
    }

    #[test]
    fn explore_returns_trace() {
        let data = separated(150, 3, 6);
        let result = Mcdc::builder().seed(7).build().explore(data.table()).unwrap();
        assert_eq!(result.trace.initial_k, (150f64).sqrt().round() as usize);
        assert!(!result.trace.stages.is_empty());
    }
}
