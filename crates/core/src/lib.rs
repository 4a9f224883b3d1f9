//! The general random-walk framework for estimating graphlet statistics —
//! the primary contribution of Chen, Li, Wang, Lui:
//! *"A General Framework for Estimating Graphlet Statistics via Random
//! Walk"*, PVLDB 10(3), 2016.
//!
//! The estimator collects k-node graphlet samples from `l = k − d + 1`
//! consecutive steps of a random walk on the subgraph relationship graph
//! `G(d)` (built on the fly; `d` is a tunable parameter, with `d = k − 1`
//! recovering PSRW \[36\] and `d = 1` on 3-node graphlets recovering
//! Hardiman–Katzir \[11\]). Samples are de-biased by their inclusion
//! probability `α^k_i · π_e(X^{(l)})` (Theorem 2 + Definition 3), or — with
//! the corresponding state sampling (CSS) optimization of §4.1 — by the
//! full sampling probability `p(X^{(l)})` (Definition 4). Both plain and
//! non-backtracking walks (§4.2) are supported.
//!
//! ```
//! use gx_graph::generators::classic;
//! use gx_core::{EstimatorConfig, Runner};
//!
//! // triangle concentration of the Figure-1 graph with SRW1 + CSS
//! let g = classic::paper_figure1();
//! let cfg = EstimatorConfig { k: 3, d: 1, css: true, ..Default::default() };
//! let est = Runner::new(cfg).steps(20_000).seed(7).run(&g)?;
//! let c = est.concentrations();
//! assert!((c[1] - 0.5).abs() < 0.1); // exact value is 0.5
//! # Ok::<(), gx_core::GxError>(())
//! ```

pub mod accuracy;
pub mod checkpoint;
pub mod config;
pub mod counts;
pub mod css;
pub mod error;
pub mod estimator;
pub mod eval;
pub mod parallel;
pub mod pie;
pub mod result;
pub mod runner;
pub mod theory;
pub mod window;

pub use accuracy::{
    normal_quantile, student_t_quantile, studentized_critical, AdaptiveReport, BatchStats,
    BurnInReport, StoppingRule,
};
pub use checkpoint::{graph_fingerprint, write_atomic};
pub use config::EstimatorConfig;
pub use counts::relationship_edge_count;
pub use error::{CheckpointError, ConfigError, GxError, RuleError, ServiceError};
pub use estimator::measure_burn_in;
pub use parallel::available_cores;
pub use result::Estimate;
pub use runner::{Progress, RunHandle, Runner};
pub use window::NodeWindow;

// The α coefficients (Algorithm 2) live next to the atlas so the
// graphlet tables stay self-validating; re-export them as part of the
// framework's public surface.
pub use gx_graphlets::alpha::{alpha, alpha_of, alpha_table};
