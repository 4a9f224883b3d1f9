//! Regenerates Figure 6: NRMSE as the walk budget grows from 2K to 20K
//! steps, for the rarest graphlet of each size on representative
//! datasets.
//!
//! Expected shape: monotone-ish decay with the same method ordering as
//! Figure 4 (SRW1CSSNB best for triangles; SRW2CSS best for 4-/5-node
//! cliques) at every budget.

use gx_bench::{
    f, methods_k3, methods_k4, methods_k5, nrmse_of_type, print_table, runs, write_json,
};
use gx_datasets::{dataset, Dataset};

fn series(
    title: &str,
    ds: &Dataset,
    methods: &[gx_bench::Method],
    k: usize,
    type_idx: usize,
    n_runs: usize,
    json: &mut serde_json::Map<String, serde_json::Value>,
) {
    let truth = ds.exact_concentrations(k);
    let budgets: Vec<usize> = (1..=10).map(|i| 2_000 * i).collect();
    let headers: Vec<String> = std::iter::once("steps".to_string())
        .chain(methods.iter().map(|m| m.label.clone()))
        .collect();
    let mut rows = Vec::new();
    let mut data = serde_json::Map::new();
    for &steps in &budgets {
        let mut row = vec![steps.to_string()];
        for m in methods {
            let r = if m.cfg.d >= 4 { (n_runs / 4).max(4) } else { n_runs };
            let e = nrmse_of_type(ds.graph(), &m.cfg, &truth, type_idx, steps, r, 0xF16)
                .expect("valid configuration");
            row.push(f(e));
            data.entry(m.label.clone())
                .or_insert_with(|| serde_json::json!([]))
                .as_array_mut()
                .unwrap()
                .push(serde_json::json!({ "steps": steps, "nrmse": e }));
        }
        rows.push(row);
    }
    print_table(title, &headers, &rows);
    json.insert(title.to_string(), serde_json::Value::Object(data));
}

fn main() {
    let n_runs = runs(24);
    println!("Figure 6 reproduction: convergence, {n_runs} runs per point (GX_RUNS to change)");
    let mut json = serde_json::Map::new();
    series(
        "Fig 6a: triangle NRMSE vs steps, slashdot-sim",
        dataset("slashdot-sim"),
        &methods_k3(),
        3,
        1,
        n_runs,
        &mut json,
    );
    series(
        "Fig 6b: 4-clique NRMSE vs steps, epinion-sim",
        dataset("epinion-sim"),
        &methods_k4(),
        4,
        5,
        n_runs,
        &mut json,
    );
    series(
        "Fig 6c: 5-clique NRMSE vs steps, facebook-sim",
        dataset("facebook-sim"),
        &methods_k5(),
        5,
        20,
        n_runs,
        &mut json,
    );
    write_json("fig6_convergence", &serde_json::Value::Object(json));
}
