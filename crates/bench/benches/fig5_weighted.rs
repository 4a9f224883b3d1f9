//! Regenerates Figure 5: how the walk on `G(d)` re-weights the 4-node
//! graphlet mix (weighted concentration α·C/Σα·C, panel a) and how that
//! maps to per-type NRMSE (panel b), on the Epinion analog.
//!
//! Expected shape: SRW2 lifts the rare cycle/chordal/clique types more
//! than SRW3 does, and correspondingly SRW2/SRW2CSS beat SRW3 on every
//! type except the one SRW3 lifts higher (g4_3, the cycle).

use gx_bench::{f, methods_k4, nrmse_of_type, print_table, runs, steps, write_json};
use gx_core::theory::weighted_concentration;
use gx_datasets::dataset;
use gx_graphlets::atlas;

fn main() {
    let ds = dataset("epinion-sim");
    let truth = ds.ground_truth(4);
    let plain = truth.concentrations();
    let w2 = weighted_concentration(&truth.counts, 4, 2);
    let w3 = weighted_concentration(&truth.counts, 4, 3);

    let headers: Vec<String> = std::iter::once("quantity".to_string())
        .chain(atlas(4).iter().map(|i| i.name.to_string()))
        .collect();
    let rows = vec![
        std::iter::once("original c".to_string()).chain(plain.iter().map(|&x| f(x))).collect(),
        std::iter::once("weighted (SRW2)".to_string()).chain(w2.iter().map(|&x| f(x))).collect(),
        std::iter::once("weighted (SRW3)".to_string()).chain(w3.iter().map(|&x| f(x))).collect(),
    ];
    print_table("Fig 5a: weighted concentration, epinion-sim", &headers, &rows);

    let n_steps = steps(20_000);
    let n_runs = runs(24);
    let mut rows = Vec::new();
    let mut json = serde_json::Map::new();
    for m in methods_k4() {
        let mut row = vec![m.label.clone()];
        let mut per_type = Vec::new();
        for t in 0..6 {
            let e = nrmse_of_type(ds.graph(), &m.cfg, &plain, t, n_steps, n_runs, 0xF15)
                .expect("valid configuration");
            row.push(f(e));
            per_type.push(e);
        }
        json.insert(m.label.clone(), serde_json::json!(per_type));
        rows.push(row);
    }
    let headers: Vec<String> = std::iter::once("method".to_string())
        .chain(atlas(4).iter().map(|i| i.name.to_string()))
        .collect();
    print_table(
        &format!("Fig 5b: per-type NRMSE, epinion-sim ({n_steps} steps, {n_runs} runs)"),
        &headers,
        &rows,
    );
    write_json("fig5_weighted", &serde_json::Value::Object(json));
}
