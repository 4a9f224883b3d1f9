//! Regenerates Figure 8: the framework's SRW1CSSNB against the adapted
//! wedge sampling (Wedge-MHRW, Algorithm 4) for triangle concentration,
//! at equal *random walk step* budgets (where MHRW additionally pays 3x
//! the API calls per step).
//!
//! Expected shape: SRW1CSSNB has uniformly lower NRMSE (the paper reports
//! up to 8x, Wikipedia), and both converge as the budget grows.

use gx_baselines::wedge_mhrw;
use gx_bench::{f, print_table, runs, steps, write_json};
use gx_core::eval::nrmse;
use gx_core::{EstimatorConfig, Runner};
use gx_datasets::{dataset, registry};
use rayon::prelude::*;

fn nrmse_pair(ds: &gx_datasets::Dataset, n_steps: usize, n_runs: usize) -> (f64, f64) {
    let g = ds.graph();
    let truth = ds.exact_concentrations(3)[1];
    let cfg = EstimatorConfig::recommended(3);
    let rw: Vec<f64> = (0..n_runs as u64)
        .into_par_iter()
        .map(|s| {
            Runner::new(cfg.clone())
                .steps(n_steps)
                .seed(gx_walks::derive_seed(0xF8, s))
                .run(g)
                .expect("valid configuration")
                .concentrations()[1]
        })
        .collect();
    let mh: Vec<f64> = (0..n_runs as u64)
        .into_par_iter()
        .map(|s| wedge_mhrw(g, n_steps, gx_walks::derive_seed(0xF9, s)).c32())
        .collect();
    (nrmse(&rw, truth), nrmse(&mh, truth))
}

fn main() {
    let n_steps = steps(20_000);
    let n_runs = runs(24);
    println!("Figure 8 reproduction: {n_steps} steps, {n_runs} runs");
    let mut json = serde_json::Map::new();

    // panel a: accuracy across datasets at the full budget
    let mut rows = Vec::new();
    for ds in registry() {
        let (rw, mh) = nrmse_pair(ds, n_steps, n_runs);
        json.insert(
            format!("acc/{}", ds.name),
            serde_json::json!({ "SRW1CSSNB": rw, "Wedge-MHRW": mh }),
        );
        rows.push(vec![ds.name.to_string(), f(rw), f(mh), format!("{:.1}x", mh / rw)]);
    }
    print_table(
        "Fig 8a: triangle concentration NRMSE",
        ["dataset", "SRW1CSSNB", "Wedge-MHRW", "MHRW/RW"].map(String::from).as_slice(),
        &rows,
    );

    // panel b: convergence on the two largest analogs
    for name in ["twitter-sim", "sinaweibo-sim"] {
        let ds = dataset(name);
        let mut rows = Vec::new();
        for i in 1..=5 {
            let s = n_steps * i / 5;
            let (rw, mh) = nrmse_pair(ds, s, n_runs);
            json.insert(
                format!("conv/{name}/{s}"),
                serde_json::json!({ "SRW1CSSNB": rw, "Wedge-MHRW": mh }),
            );
            rows.push(vec![s.to_string(), f(rw), f(mh)]);
        }
        print_table(
            &format!("Fig 8b: convergence on {name}"),
            ["steps", "SRW1CSSNB", "Wedge-MHRW"].map(String::from).as_slice(),
            &rows,
        );
    }
    write_json("fig8_mhrw", &serde_json::Value::Object(json));
}
