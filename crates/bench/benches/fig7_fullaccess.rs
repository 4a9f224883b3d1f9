//! Regenerates Figure 7: graphlet *count* estimation against the
//! full-access baselines at equal wall time — triangle counts
//! (SRW1CSSNB vs wedge sampling, panel a) and 4-clique counts (SRW2CSS vs
//! 3-path sampling, panel b).
//!
//! Expected shape: the independent samplers win on small triangle-rich
//! graphs; the walks win as graphs get larger/sparser because they skip
//! the preprocessing pass and generate samples faster (§6.3.2).

// Benchmark harness: wall-clock timing is the whole point here.
#![allow(clippy::disallowed_methods)]

use gx_baselines::{path_sampling_counts, wedge_sampling};
use gx_bench::{f, print_table, runs, write_json};
use gx_core::eval::nrmse;
use gx_core::{relationship_edge_count, EstimatorConfig, Runner};
use gx_datasets::{registry, Dataset};
use rayon::prelude::*;
use std::time::Instant;

/// Calibrates how many walk steps fit in the wall time of one baseline
/// run (the paper's protocol: same running time, §6.3.2).
fn calibrate_steps(ds: &Dataset, cfg: &EstimatorConfig, baseline_secs: f64) -> usize {
    let probe = 4_000usize;
    let t = Instant::now();
    let _ = Runner::new(cfg.clone())
        .steps(probe)
        .seed(0xCAFE)
        .run(ds.graph())
        .expect("valid configuration");
    let per_step = t.elapsed().as_secs_f64() / probe as f64;
    ((baseline_secs / per_step) as usize).clamp(1_000, 2_000_000)
}

fn main() {
    let n_runs = runs(16);
    let baseline_samples = 200_000; // the original papers' budget
    println!(
        "Figure 7 reproduction: count NRMSE at equal wall time \
         ({baseline_samples} baseline samples, {n_runs} runs)"
    );
    let datasets: Vec<&Dataset> = registry().iter().collect();
    let mut json = serde_json::Map::new();

    // ---- panel a: triangle counts ----
    let cfg3 = EstimatorConfig::recommended(3);
    let mut rows = Vec::new();
    for ds in &datasets {
        let g = ds.graph();
        let truth = ds.ground_truth(3).counts[1] as f64;
        let t = Instant::now();
        let _ = wedge_sampling(g, baseline_samples, 0);
        let wedge_secs = t.elapsed().as_secs_f64();
        let steps = calibrate_steps(ds, &cfg3, wedge_secs);
        let two_r = 2.0 * relationship_edge_count(g, 1) as f64;
        let rw: Vec<f64> = (0..n_runs as u64)
            .into_par_iter()
            .map(|s| {
                Runner::new(cfg3.clone())
                    .steps(steps)
                    .seed(gx_walks::derive_seed(0xA1, s))
                    .run(g)
                    .expect("valid configuration")
                    .counts(two_r)[1]
            })
            .collect();
        let wg: Vec<f64> = (0..n_runs as u64)
            .into_par_iter()
            .map(|s| wedge_sampling(g, baseline_samples, s).counts()[1])
            .collect();
        let (e_rw, e_wg) = (nrmse(&rw, truth), nrmse(&wg, truth));
        json.insert(
            format!("triangle/{}", ds.name),
            serde_json::json!({ "SRW1CSSNB": e_rw, "Wedge": e_wg, "walk_steps": steps }),
        );
        rows.push(vec![ds.name.to_string(), steps.to_string(), f(e_rw), f(e_wg)]);
    }
    print_table(
        "Fig 7a: triangle count NRMSE (equal wall time)",
        ["dataset", "walk steps", "SRW1CSSNB", "Wedge"].map(String::from).as_slice(),
        &rows,
    );

    // ---- panel b: 4-clique counts ----
    let cfg4 = EstimatorConfig::recommended(4);
    let mut rows = Vec::new();
    for ds in &datasets {
        let g = ds.graph();
        let truth = ds.ground_truth(4).counts[5] as f64;
        if truth == 0.0 {
            continue;
        }
        let t = Instant::now();
        let _ = path_sampling_counts(g, baseline_samples, baseline_samples / 2, 0);
        let path_secs = t.elapsed().as_secs_f64();
        let steps = calibrate_steps(ds, &cfg4, path_secs);
        let two_r = 2.0 * relationship_edge_count(g, 2) as f64;
        let rw: Vec<f64> = (0..n_runs as u64)
            .into_par_iter()
            .map(|s| {
                Runner::new(cfg4.clone())
                    .steps(steps)
                    .seed(gx_walks::derive_seed(0xB2, s))
                    .run(g)
                    .expect("valid configuration")
                    .counts(two_r)[5]
            })
            .collect();
        let ps: Vec<f64> = (0..n_runs as u64)
            .into_par_iter()
            .map(|s| path_sampling_counts(g, baseline_samples, baseline_samples / 2, s).counts[5])
            .collect();
        let (e_rw, e_ps) = (nrmse(&rw, truth), nrmse(&ps, truth));
        json.insert(
            format!("clique4/{}", ds.name),
            serde_json::json!({ "SRW2CSS": e_rw, "3-path": e_ps, "walk_steps": steps }),
        );
        rows.push(vec![ds.name.to_string(), steps.to_string(), f(e_rw), f(e_ps)]);
    }
    print_table(
        "Fig 7b: 4-clique count NRMSE (equal wall time)",
        ["dataset", "walk steps", "SRW2CSS", "3-path"].map(String::from).as_slice(),
        &rows,
    );
    write_json("fig7_fullaccess", &serde_json::Value::Object(json));
}
