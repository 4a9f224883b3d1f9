//! Regenerates Table 6: wall time of 20K random-walk steps for SRW2,
//! SRW2CSS, SRW3, SRW4 (estimating 5-node graphlets) against full exact
//! enumeration, on the four small datasets.
//!
//! Expected shape: SRW2 ≈ SRW2CSS ≪ SRW3 ≪ SRW4 ≪ Exact — the walk on
//! `G(d)` gets cheaper as d shrinks because neighbor generation on G and
//! G(2) is O(1) while G(3)/G(4) need per-step neighborhood enumeration.

// Benchmark harness: wall-clock timing is the whole point here.
#![allow(clippy::disallowed_methods)]

use gx_bench::{print_table, steps, write_json};
use gx_core::{EstimatorConfig, Runner};
use gx_datasets::small_datasets;
use gx_exact::count_graphlets_esu_parallel;
use std::time::Instant;

fn time_ms(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

fn main() {
    let n_steps = steps(20_000);
    let methods: Vec<(String, EstimatorConfig)> = [
        EstimatorConfig { k: 5, d: 2, ..Default::default() },
        EstimatorConfig { k: 5, d: 2, css: true, ..Default::default() },
        EstimatorConfig { k: 5, d: 3, ..Default::default() },
        EstimatorConfig { k: 5, d: 4, ..Default::default() },
    ]
    .into_iter()
    .map(|cfg| (cfg.name(), cfg))
    .collect();

    let headers: Vec<String> = std::iter::once("graph".to_string())
        .chain(methods.iter().map(|(n, _)| n.clone()))
        .chain(std::iter::once("Exact (ESU-5)".to_string()))
        .collect();
    let mut rows = Vec::new();
    let mut json = serde_json::Map::new();
    for ds in small_datasets() {
        let g = ds.graph();
        // warm-up: touch the graph once
        let _ = Runner::new(methods[0].1.clone())
            .steps(200)
            .seed(0)
            .run(g)
            .expect("valid configuration");
        let mut row = vec![ds.name.to_string()];
        let mut entry = serde_json::Map::new();
        for (name, cfg) in &methods {
            let ms = time_ms(|| {
                let _ = Runner::new(cfg.clone())
                    .steps(n_steps)
                    .seed(1)
                    .run(g)
                    .expect("valid configuration");
            });
            row.push(format!("{ms:.1} ms"));
            entry.insert(name.clone(), serde_json::json!(ms));
        }
        let exact_ms = time_ms(|| {
            let _ = count_graphlets_esu_parallel(g, 5);
        });
        row.push(format!("{exact_ms:.0} ms"));
        entry.insert("exact".to_string(), serde_json::json!(exact_ms));
        rows.push(row);
        json.insert(ds.name.to_string(), serde_json::Value::Object(entry));
    }
    print_table(
        &format!("Table 6: running time of {n_steps} walk steps (5-node graphlets)"),
        &headers,
        &rows,
    );
    write_json("table6_runtime", &serde_json::Value::Object(json));
}
