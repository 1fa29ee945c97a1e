//! Experiment harness regenerating every table and figure of the MCDC paper.
//!
//! * [`Method`] — registry of the nine Table III methods (six baselines,
//!   MCDC, and the MCDC+G. / MCDC+F. enhancement variants);
//! * [`datasets`] — the Table II data sets (real UCI files when a data
//!   directory is supplied, statistical stand-ins otherwise);
//! * [`runner`] — multi-run sweeps with mean ± std scoring and the paper's
//!   "failed methods score 0.000" convention;
//! * [`format`](mod@format) — paper-style table rendering with best / second-best
//!   highlighting;
//! * [`corrupt`] — seeded row corruption for the streaming trust-boundary
//!   checks (`conformance`'s ingest gate and `fault_chaos`).
//!
//! Each experiment has a dedicated binary (`table2`, `table3`, `table4`,
//! `fig4_ablation`, `fig5_ktrace`, `fig6_scaling`, `quality_ledger`,
//! `dist_partition`); see
//! `DESIGN.md` §13 for the experiment ↔ binary index.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod conformance;
pub mod corrupt;
pub mod datasets;
pub mod format;
pub mod methods;
pub mod runner;

pub use methods::Method;
pub use runner::{MethodSummary, Scores};
