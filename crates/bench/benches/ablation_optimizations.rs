//! Ablation (the §6.2.1 findings isolated): what CSS and NB-SRW each
//! contribute, independently and combined, for both the d = 1 / k = 3 and
//! d = 2 / k = 4 settings — plus the d-sweep that motivates the whole
//! framework.
//!
//! Expected shape: CSS is a large win (the paper reports >3x on some
//! datasets), NB-SRW's gain is marginal; and NRMSE grows with d at fixed
//! budget.

use gx_bench::{f, nrmse_of_type, print_table, runs, steps, write_json};
use gx_core::EstimatorConfig;
use gx_datasets::dataset;

fn main() {
    let n_steps = steps(20_000);
    let n_runs = runs(32);
    println!("Optimization ablation: {n_steps} steps, {n_runs} runs");
    let mut json = serde_json::Map::new();

    // CSS / NB factorial for triangles on two contrasting datasets.
    let mut rows = Vec::new();
    for name in ["facebook-sim", "slashdot-sim"] {
        let ds = dataset(name);
        let truth = ds.exact_concentrations(3);
        let mut row = vec![name.to_string()];
        for (css, nb) in [(false, false), (true, false), (false, true), (true, true)] {
            let cfg = EstimatorConfig { k: 3, d: 1, css, non_backtracking: nb, burn_in: 0 };
            let e = nrmse_of_type(ds.graph(), &cfg, &truth, 1, n_steps, n_runs, 0xAB1)
                .expect("valid configuration");
            json.insert(format!("k3/{name}/{}", cfg.name()), serde_json::json!(e));
            row.push(f(e));
        }
        rows.push(row);
    }
    print_table(
        "Ablation: triangle NRMSE, d = 1 factorial",
        ["dataset", "SRW1", "SRW1CSS", "SRW1NB", "SRW1CSSNB"].map(String::from).as_slice(),
        &rows,
    );

    // CSS / NB factorial for the 4-clique on G(2).
    let mut rows = Vec::new();
    for name in ["epinion-sim", "brightkite-sim"] {
        let ds = dataset(name);
        let truth = ds.exact_concentrations(4);
        let mut row = vec![name.to_string()];
        for (css, nb) in [(false, false), (true, false), (false, true), (true, true)] {
            let cfg = EstimatorConfig { k: 4, d: 2, css, non_backtracking: nb, burn_in: 0 };
            let e = nrmse_of_type(ds.graph(), &cfg, &truth, 5, n_steps, n_runs, 0xAB2)
                .expect("valid configuration");
            json.insert(format!("k4/{name}/{}", cfg.name()), serde_json::json!(e));
            row.push(f(e));
        }
        rows.push(row);
    }
    print_table(
        "Ablation: 4-clique NRMSE, d = 2 factorial",
        ["dataset", "SRW2", "SRW2CSS", "SRW2NB", "SRW2CSSNB"].map(String::from).as_slice(),
        &rows,
    );

    // d-sweep at fixed budget: the framework's central claim.
    let ds = dataset("brightkite-sim");
    let truth = ds.exact_concentrations(4);
    let mut row = vec!["brightkite-sim".to_string()];
    for d in 2..=4 {
        let cfg = EstimatorConfig { k: 4, d, ..Default::default() };
        let r = if d >= 4 { (n_runs / 4).max(4) } else { n_runs };
        let e = nrmse_of_type(ds.graph(), &cfg, &truth, 5, n_steps, r, 0xAB3)
            .expect("valid configuration");
        json.insert(format!("dsweep/SRW{d}"), serde_json::json!(e));
        row.push(f(e));
    }
    print_table(
        "Ablation: 4-clique NRMSE vs d (SRW4 = walk on G(4), l = 1)",
        ["dataset", "d=2", "d=3", "d=4"].map(String::from).as_slice(),
        &[row],
    );
    write_json("ablation_optimizations", &serde_json::Value::Object(json));
}
