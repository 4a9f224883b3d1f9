//! Validates the *shape* of Theorem 3's sample-size bound
//! `n ≥ ξ (W/Λ)(τ/ε²) log(‖ϕ‖/δ)` on explicitly materialized chains:
//! slower-mixing graphs (larger τ from the spectral gap) and rarer
//! targets (smaller Λ) need more steps empirically, in the order the
//! bound predicts.

use gx_bench::{print_table, runs, write_json};
use gx_core::eval::nrmse;
use gx_core::theory::{lambda, mixing_time_bound, slem, w_sup};
use gx_core::{alpha_table, EstimatorConfig, Runner};
use gx_exact::exact_counts;
use gx_graph::generators::classic;
use gx_graph::subrel::subgraph_relationship_graph;
use gx_graph::Graph;
use rayon::prelude::*;

/// Empirical steps needed to push triangle-concentration NRMSE below eps.
fn empirical_steps_needed(g: &Graph, eps: f64, n_runs: usize) -> usize {
    let truth = exact_counts(g, 3).concentrations();
    let cfg = EstimatorConfig { k: 3, d: 1, ..Default::default() };
    let mut steps = 250;
    while steps <= 1 << 22 {
        let series: Vec<f64> = (0..n_runs as u64)
            .into_par_iter()
            .map(|s| {
                Runner::new(cfg.clone())
                    .steps(steps)
                    .seed(gx_walks::derive_seed(0x7B, s))
                    .run(g)
                    .expect("valid configuration")
                    .concentrations()[1]
            })
            .collect();
        if nrmse(&series, truth[1]) < eps {
            return steps;
        }
        steps *= 2;
    }
    steps
}

fn main() {
    let n_runs = runs(24);
    let eps = 0.1;
    println!("Theorem 3 shape validation ({n_runs} runs, target NRMSE {eps})");

    let cases: Vec<(&str, Graph)> = vec![
        ("complete K12 (expander)", classic::complete(12)),
        ("lollipop(8,8) (bottleneck)", classic::lollipop(8, 8)),
        ("barbell(6,2) (two communities)", classic::barbell(6, 2)),
    ];

    let mut rows = Vec::new();
    let mut json = serde_json::Map::new();
    for (name, g) in &cases {
        let rel = subgraph_relationship_graph(g, 1);
        let l2 = slem(&rel.graph, 3000);
        let pi_min = (0..g.num_nodes())
            .map(|v| g.degree(v as u32) as f64 / g.degree_sum() as f64)
            .fold(f64::INFINITY, f64::min);
        let tau = mixing_time_bound(l2, pi_min, 0.125);
        let counts = exact_counts(g, 3);
        let lam = lambda(&counts.counts, 3, 1, 1);
        let w = w_sup(&rel, 3);
        let bound_shape = w / lam * tau / (eps * eps);
        let empirical = empirical_steps_needed(g, eps, n_runs);
        json.insert(
            name.to_string(),
            serde_json::json!({
                "slem": l2, "tau": tau, "W": w, "Lambda": lam,
                "bound_shape": bound_shape, "empirical_steps": empirical,
            }),
        );
        rows.push(vec![
            name.to_string(),
            format!("{l2:.4}"),
            format!("{tau:.1}"),
            format!("{w:.0}"),
            format!("{lam:.0}"),
            format!("{bound_shape:.0}"),
            empirical.to_string(),
        ]);
    }
    print_table(
        "Theorem 3 ingredients vs empirically needed steps (triangle, SRW1)",
        ["graph", "SLEM", "tau(1/8)", "W", "Lambda", "(W/L)tau/eps2", "empirical n"]
            .map(String::from)
            .as_slice(),
        &rows,
    );

    // The α side of Λ: higher α ⇒ rare types need fewer samples. Print
    // the α mass ratio SRW2:SRW3 for the 4-clique, the quantity behind
    // Figure 5's explanation.
    let a2 = alpha_table(4, 2)[5] as f64;
    let a3 = alpha_table(4, 3)[5] as f64;
    println!(
        "\n4-clique α under SRW2 vs SRW3: {a2} vs {a3} — the x{} lift in Λ \
         that makes the d = 2 walk converge faster on rare cliques.",
        a2 / a3
    );
    write_json("theory_bound", &serde_json::Value::Object(json));
}
