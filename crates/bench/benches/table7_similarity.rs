//! Regenerates Table 7: graphlet-kernel similarity (cosine of 4-node
//! concentration vectors) between the Sinaweibo analog and the
//! Facebook / Twitter analogs, estimated with SRW2CSS and PSRW at 20K
//! steps and compared with the exact value.
//!
//! Expected shape: similarity to the Twitter analog near 1, similarity to
//! the Facebook analog clearly lower — "Sinaweibo acts like a news
//! medium" — with SRW2CSS at least as tight as PSRW.

use gx_bench::{print_table, runs, steps, write_json};
use gx_core::eval::{cosine_similarity, mean, variance};
use gx_core::{EstimatorConfig, Runner};
use gx_datasets::dataset;
use rayon::prelude::*;

fn main() {
    let n_steps = steps(20_000);
    let n_runs = runs(24);
    let weibo = dataset("sinaweibo-sim");
    let methods =
        [("SRW2CSS", EstimatorConfig::recommended(4)), ("PSRW", EstimatorConfig::psrw(4))];
    println!("Table 7 reproduction: {n_steps} steps, {n_runs} runs");

    let mut rows = Vec::new();
    let mut json = serde_json::Map::new();
    for other_name in ["facebook-sim", "twitter-sim"] {
        let other = dataset(other_name);
        let exact =
            cosine_similarity(&weibo.exact_concentrations(4), &other.exact_concentrations(4));
        let mut row = vec![other_name.to_string()];
        let mut entry = serde_json::Map::new();
        for (label, cfg) in &methods {
            let sims: Vec<f64> = (0..n_runs as u64)
                .into_par_iter()
                .map(|s| {
                    let a = Runner::new(cfg.clone())
                        .steps(n_steps)
                        .seed(gx_walks::derive_seed(0x71, s))
                        .run(weibo.graph())
                        .expect("valid configuration")
                        .concentrations();
                    let b = Runner::new(cfg.clone())
                        .steps(n_steps)
                        .seed(gx_walks::derive_seed(0x72, s))
                        .run(other.graph())
                        .expect("valid configuration")
                        .concentrations();
                    cosine_similarity(&a, &b)
                })
                .collect();
            let (m, sd) = (mean(&sims), variance(&sims).sqrt());
            row.push(format!("{m:.4}±{sd:.4}"));
            entry.insert(label.to_string(), serde_json::json!({ "mean": m, "std": sd }));
        }
        row.push(format!("{exact:.4}"));
        entry.insert("exact".to_string(), serde_json::json!(exact));
        json.insert(other_name.to_string(), serde_json::Value::Object(entry));
        rows.push(row);
    }
    print_table(
        "Table 7: similarity of sinaweibo-sim to social-network vs news-media analogs",
        ["graph", "SRW2CSS", "PSRW", "Exact"].map(String::from).as_slice(),
        &rows,
    );
    write_json("table7_similarity", &serde_json::Value::Object(json));
}
