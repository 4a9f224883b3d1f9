//! Integration: the paper's theoretical claims checked end-to-end on
//! explicitly materialized chains.

use graphlet_rw::core::theory::{mixing_time_bound, slem, weighted_concentration};
use graphlet_rw::core::{alpha_table, EstimatorConfig, Runner};
use graphlet_rw::datasets::dataset;
use graphlet_rw::exact::exact_counts;
use graphlet_rw::graph::generators::classic;
use graphlet_rw::graph::subrel::subgraph_relationship_graph;

#[test]
fn weighted_concentration_explains_why_small_d_wins() {
    // §6.2.1 / Figure 5a: SRW2 lifts the rare clique's sampling mass far
    // more than SRW3 does.
    let ds = dataset("epinion-sim");
    let counts = ds.ground_truth(4);
    let plain = counts.concentrations();
    let w2 = weighted_concentration(&counts.counts, 4, 2);
    let w3 = weighted_concentration(&counts.counts, 4, 3);
    let clique = 5;
    assert!(w2[clique] > plain[clique], "SRW2 lifts the clique");
    assert!(w2[clique] > w3[clique], "SRW2 lifts more than SRW3: {} vs {}", w2[clique], w3[clique]);
}

#[test]
fn higher_alpha_means_smaller_needed_samples_empirically() {
    // Theorem 3: needed n scales as 1/Λ = 1/min(α_i C_i, ...). Between
    // SRW2 and SRW3 on the same graph, the clique's α·C mass relative to
    // the total indicates which converges faster. Check the α ordering
    // that drives it.
    let a2 = alpha_table(4, 2);
    let a3 = alpha_table(4, 3);
    // cliques: α = 48 under SRW2 vs 12 under SRW3 (Table 2 ×2).
    assert!(a2[5] > a3[5]);
}

#[test]
fn g2_chain_mixes_and_matches_walk_behaviour() {
    // The spectral bound on the materialized G(2) of a lollipop is finite
    // and larger than that of a well-connected graph's G(2).
    let loose = subgraph_relationship_graph(&classic::lollipop(6, 8), 2);
    let tight = subgraph_relationship_graph(&classic::complete(8), 2);
    let l_loose = slem(&loose.graph, 800);
    let l_tight = slem(&tight.graph, 800);
    assert!(l_loose > l_tight);
    let pi_min = 1.0 / (2.0 * loose.graph.num_edges() as f64);
    let tau = mixing_time_bound(l_loose, pi_min, 0.125);
    assert!(tau.is_finite() && tau > 1.0);
}

#[test]
fn estimator_error_shrinks_with_sample_size() {
    // Convergence in n (Figure 6's premise): quadrupling the budget
    // should not increase the averaged error.
    let g = classic::lollipop(6, 4);
    let truth = exact_counts(&g, 3).concentrations()[1];
    let cfg = EstimatorConfig { k: 3, d: 1, ..Default::default() };
    let err = |steps: usize| {
        let runs = 24;
        let mut sq = 0.0;
        for seed in 0..runs {
            let c = Runner::new(cfg.clone())
                .steps(steps)
                .seed(500 + seed)
                .run(&g)
                .unwrap()
                .concentrations()[1];
            sq += (c - truth) * (c - truth);
        }
        (sq / runs as f64).sqrt()
    };
    let coarse = err(800);
    let fine = err(12_800);
    assert!(
        fine < coarse,
        "error should shrink: {coarse:.4} (800 steps) vs {fine:.4} (12.8K steps)"
    );
}
