//! Regenerates Figure 4: NRMSE of the concentration estimates of the
//! *hardest* (rarest) graphlet per size — triangle g³₂, 4-clique g⁴₆,
//! 5-clique g⁵₂₁ — at a 20K-step budget, across datasets and methods.
//!
//! Expected shape (paper §6.2.1): SRW1CSSNB wins for k = 3; SRW2CSS wins
//! for k = 4, 5; walks on smaller d beat PSRW (SRW3/SRW4); CSS helps a
//! lot, NB only a little.

use gx_bench::{
    f, methods_k3, methods_k4, methods_k5, nrmse_of_type, print_table, runs, steps, write_json,
    Method,
};
use gx_datasets::{registry, small_datasets, Dataset};

#[allow(clippy::too_many_arguments)]
fn panel(
    title: &str,
    datasets: &[&Dataset],
    methods: &[Method],
    k: usize,
    type_idx: usize,
    n_steps: usize,
    n_runs: usize,
    json: &mut serde_json::Map<String, serde_json::Value>,
) {
    let headers: Vec<String> = std::iter::once("dataset".to_string())
        .chain(methods.iter().map(|m| m.label.clone()))
        .collect();
    let mut rows = Vec::new();
    for ds in datasets {
        let truth = ds.exact_concentrations(k);
        let mut row = vec![ds.name.to_string()];
        let mut per_method = serde_json::Map::new();
        for m in methods {
            // PSRW on G(4) is slow; the paper, too, used 10x fewer runs.
            let r = if m.cfg.d >= 4 { (n_runs / 4).max(4) } else { n_runs };
            let e = nrmse_of_type(ds.graph(), &m.cfg, &truth, type_idx, n_steps, r, 0xF14)
                .expect("valid configuration");
            row.push(f(e));
            per_method.insert(m.label.clone(), serde_json::json!(e));
        }
        json.insert(format!("{title}/{}", ds.name), serde_json::Value::Object(per_method));
        rows.push(row);
    }
    print_table(title, &headers, &rows);
}

fn main() {
    let n_steps = steps(20_000);
    let n_runs = runs(24);
    println!(
        "Figure 4 reproduction: NRMSE at {n_steps} steps, {n_runs} runs \
         (set GX_RUNS / GX_STEPS to change)"
    );
    let mut json = serde_json::Map::new();

    let all: Vec<&Dataset> = registry().iter().collect();
    let small: Vec<&Dataset> = small_datasets().collect();

    panel("Fig 4a: triangle (g3_2) NRMSE", &all, &methods_k3(), 3, 1, n_steps, n_runs, &mut json);
    panel("Fig 4b: 4-clique (g4_6) NRMSE", &all, &methods_k4(), 4, 5, n_steps, n_runs, &mut json);
    panel(
        "Fig 4c: 5-clique (g5_21) NRMSE",
        &small,
        &methods_k5(),
        5,
        20,
        n_steps,
        n_runs,
        &mut json,
    );
    write_json("fig4_nrmse", &serde_json::Value::Object(json));
}
