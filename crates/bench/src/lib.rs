//! Shared harness for the reproduction benches.
//!
//! Every table and figure of the paper's evaluation has a dedicated bench
//! target (`cargo bench -p gx-bench --bench <name>`); this library holds
//! what they share: method rosters, repeated-run NRMSE evaluation
//! (parallelized over runs with rayon), plain-text table rendering, and
//! JSON result persistence under `results/`.
//!
//! Scaling knobs (environment variables):
//! * `GX_RUNS` — independent runs per NRMSE point (default varies per
//!   bench; the paper used 1000, defaults here are smaller so the full
//!   suite finishes in minutes);
//! * `GX_STEPS` — walk steps per run (default 20_000, the paper's budget).

use gx_core::{Estimate, EstimatorConfig, GxError, Runner};
use gx_graph::Graph;
use rayon::prelude::*;

/// A labeled estimator configuration, named as in the paper's figures.
#[derive(Debug, Clone)]
pub struct Method {
    /// Paper-style label (`SRW2CSS`, …).
    pub label: String,
    /// The configuration behind it.
    pub cfg: EstimatorConfig,
}

impl Method {
    fn new(k: usize, d: usize, css: bool, nb: bool) -> Method {
        let cfg = EstimatorConfig { k, d, css, non_backtracking: nb, burn_in: 0 };
        Method { label: cfg.name(), cfg }
    }
}

/// Figure 4a's method roster for 3-node graphlets.
pub fn methods_k3() -> Vec<Method> {
    vec![
        Method::new(3, 1, false, false),
        Method::new(3, 1, true, false),
        Method::new(3, 1, true, true),
        Method::new(3, 2, false, false),
        Method::new(3, 2, false, true),
    ]
}

/// Figure 4b's roster for 4-node graphlets (SRW3 = PSRW).
pub fn methods_k4() -> Vec<Method> {
    vec![
        Method::new(4, 2, false, false),
        Method::new(4, 2, true, false),
        Method::new(4, 3, false, false),
    ]
}

/// Figure 4c's roster for 5-node graphlets (SRW4 = PSRW).
pub fn methods_k5() -> Vec<Method> {
    vec![
        Method::new(5, 2, false, false),
        Method::new(5, 2, true, false),
        Method::new(5, 3, false, false),
        Method::new(5, 4, false, false),
    ]
}

/// `GX_RUNS` override or the given default.
pub fn runs(default: usize) -> usize {
    std::env::var("GX_RUNS").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// `GX_STEPS` override or the given default (paper: 20K).
pub fn steps(default: usize) -> usize {
    std::env::var("GX_STEPS").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Runs `runs` independent estimates (parallel) and returns the
/// concentration vectors, or the runner's rejection of `cfg`.
pub fn concentration_runs(
    g: &Graph,
    cfg: &EstimatorConfig,
    steps: usize,
    runs: usize,
    seed_base: u64,
) -> Result<Vec<Vec<f64>>, GxError> {
    let runs: Vec<Result<Estimate, GxError>> = (0..runs as u64)
        .into_par_iter()
        .map(|r| {
            Runner::new(cfg.clone()).steps(steps).seed(gx_walks::derive_seed(seed_base, r)).run(g)
        })
        .collect();
    runs.into_iter().map(|est| est.map(|e| e.concentrations())).collect()
}

/// NRMSE of one type's concentration estimate over repeated runs.
pub fn nrmse_of_type(
    g: &Graph,
    cfg: &EstimatorConfig,
    truth: &[f64],
    type_idx: usize,
    steps: usize,
    runs: usize,
    seed_base: u64,
) -> Result<f64, GxError> {
    let series: Vec<f64> = concentration_runs(g, cfg, steps, runs, seed_base)?
        .into_iter()
        .map(|c| c[type_idx])
        .collect();
    Ok(gx_core::eval::nrmse(&series, truth[type_idx]))
}

/// Renders an aligned plain-text table.
pub fn print_table(title: &str, headers: &[String], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let ncol = headers.len();
    let mut width = vec![0usize; ncol];
    for (i, h) in headers.iter().enumerate() {
        width[i] = h.len();
    }
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            width[i] = width[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = width[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(headers));
    println!("{}", width.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("  "));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Persists a bench's machine-readable result under `results/<name>.json`
/// (best-effort: printing is the primary output).
pub fn write_json(name: &str, value: &serde_json::Value) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Ok(s) = serde_json::to_string_pretty(value) {
        let _ = std::fs::write(&path, s);
        println!("\n[results written to {}]", path.display());
    }
}

/// Formats a float with 4 significant decimals for tables.
pub fn f(x: f64) -> String {
    if x.is_nan() {
        "-".to_string()
    } else if x != 0.0 && x.abs() < 1e-3 {
        format!("{x:.2e}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gx_graph::generators::classic;

    #[test]
    fn rosters_match_figure4() {
        let labels: Vec<String> = methods_k3().into_iter().map(|m| m.label).collect();
        assert_eq!(labels, ["SRW1", "SRW1CSS", "SRW1CSSNB", "SRW2", "SRW2NB"]);
        let labels: Vec<String> = methods_k4().into_iter().map(|m| m.label).collect();
        assert_eq!(labels, ["SRW2", "SRW2CSS", "SRW3"]);
        let labels: Vec<String> = methods_k5().into_iter().map(|m| m.label).collect();
        assert_eq!(labels, ["SRW2", "SRW2CSS", "SRW3", "SRW4"]);
    }

    #[test]
    fn env_knobs_default() {
        std::env::remove_var("GX_RUNS");
        assert_eq!(runs(40), 40);
        assert_eq!(steps(20_000), 20_000);
    }

    #[test]
    fn concentration_runs_are_independent_and_parallel_safe() {
        let g = classic::petersen();
        let cfg = EstimatorConfig { k: 3, d: 1, ..Default::default() };
        let a = concentration_runs(&g, &cfg, 2_000, 8, 7).unwrap();
        let b = concentration_runs(&g, &cfg, 2_000, 8, 7).unwrap();
        assert_eq!(a, b, "seeded: parallel order must not matter");
        assert_eq!(a.len(), 8);
        // petersen is triangle-free: c32 = 0 in every run
        assert!(a.iter().all(|c| c[1] == 0.0));
    }

    #[test]
    fn nrmse_of_type_on_known_graph() {
        let g = classic::petersen();
        let cfg = EstimatorConfig { k: 3, d: 1, ..Default::default() };
        let truth = vec![1.0, 0.0];
        let e = nrmse_of_type(&g, &cfg, &truth, 0, 2_000, 4, 3).unwrap();
        assert_eq!(e, 0.0, "all mass on wedges, exactly");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(f64::NAN), "-");
        assert_eq!(f(0.5), "0.5000");
        assert_eq!(f(0.00001), "1.00e-5");
        assert_eq!(f(0.0), "0.0000");
    }
}
