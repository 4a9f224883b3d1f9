//! Integration: the baselines and the framework must agree with each
//! other (they estimate the same quantities), and the API cost model must
//! behave as §6.3.3 describes.

use graphlet_rw::baselines::{guise_estimate, path_sampling_counts, wedge_mhrw, wedge_sampling};
use graphlet_rw::core::relationship_edge_count;
use graphlet_rw::datasets::dataset;
use graphlet_rw::graph::ApiGraph;
use graphlet_rw::{EstimatorConfig, Runner};

#[test]
fn all_triangle_estimators_agree() {
    let ds = dataset("brightkite-sim");
    let g = ds.graph();
    let truth = ds.exact_concentrations(3)[1];

    let rw = Runner::new(EstimatorConfig::recommended(3))
        .steps(30_000)
        .seed(1)
        .run(g)
        .unwrap()
        .concentrations()[1];
    let wedge = wedge_sampling(g, 30_000, 2).concentrations()[1];
    let mhrw = wedge_mhrw(g, 30_000, 3).c32();

    for (name, est) in [("SRW1CSSNB", rw), ("wedge", wedge), ("wedge-MHRW", mhrw)] {
        assert!((est - truth).abs() / truth < 0.15, "{name}: {est:.5} vs exact {truth:.5}");
    }
}

#[test]
fn path_sampling_and_framework_agree_on_counts() {
    let ds = dataset("epinion-sim");
    let g = ds.graph();
    let exact = ds.ground_truth(4);
    let runs = 4u64;

    // Average over runs: the 4-clique is rare (the paper's Figure 7b
    // NRMSE for it runs 0.01–0.09 even at 200K samples), so single-run
    // comparisons are dominated by variance.
    let mut ps_mean = [0.0f64; 6];
    let mut rw_mean = [0.0f64; 6];
    let two_r2 = 2.0 * relationship_edge_count(g, 2) as f64;
    for seed in 0..runs {
        let ps = path_sampling_counts(g, 100_000, 50_000, 5 + seed);
        let est = Runner::new(EstimatorConfig::recommended(4))
            .steps(100_000)
            .seed(70 + seed)
            .run(g)
            .unwrap();
        let rw = est.counts(two_r2);
        for t in 0..6 {
            ps_mean[t] += ps.counts[t] / runs as f64;
            rw_mean[t] += rw[t] / runs as f64;
        }
    }
    for t in [0usize, 5] {
        let x = exact.counts[t] as f64;
        assert!(x > 0.0);
        assert!((ps_mean[t] - x).abs() / x < 0.15, "path sampling type {t}: {} vs {x}", ps_mean[t]);
        assert!((rw_mean[t] - x).abs() / x < 0.15, "SRW2CSS type {t}: {} vs {x}", rw_mean[t]);
    }
}

#[test]
fn guise_starves_small_graphlets_on_skewed_graphs() {
    // The paper's §1.1 criticism of GUISE made concrete: sampling
    // uniformly over the union of 3-, 4-, 5-node subgraphs means almost
    // every sample is a 5-node subgraph (they vastly outnumber the
    // others), so 3-node statistics converge very slowly.
    let ds = dataset("facebook-sim");
    let guise = guise_estimate(ds.graph(), 30_000, 9);
    let size3: u64 = guise.tallies[0].iter().sum();
    let size5: u64 = guise.tallies[2].iter().sum();
    assert!((size3 as f64) < 0.01 * size5 as f64, "3-node samples {size3} vs 5-node {size5}");
    // What it does sample plentifully — 5-node subgraphs — lands in the
    // right ballpark for the dominant type. A single GUISE chain mixes
    // slowly (per-seed error on this graph spans ~0.00–0.10), so average
    // a few independent chains; everything is seed-pinned, so the mean is
    // a fixed number and the bound below retains regression-detection
    // power while tolerating GUISE's real (well-documented) inaccuracy.
    let truth = ds.exact_concentrations(5);
    let dominant =
        truth.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i).unwrap();
    // Reuse the seed-9 chain from above rather than re-running it.
    let extra_seeds = [11u64, 12];
    let mean: f64 = (guise.concentrations(5)[dominant]
        + extra_seeds
            .iter()
            .map(|&s| guise_estimate(ds.graph(), 30_000, s).concentrations(5)[dominant])
            .sum::<f64>())
        / (1 + extra_seeds.len()) as f64;
    assert!(
        (mean - truth[dominant]).abs() < 0.06,
        "dominant type {dominant}: mean {mean:.4} vs {:.4}",
        truth[dominant]
    );
}

#[test]
fn framework_is_cheaper_per_step_than_wedge_mhrw() {
    // §6.3.3: Algorithm 4 explores three nodes' neighborhoods per step.
    // Under a caching crawler the cost unit is *distinct nodes fetched*;
    // the framework's walk revisits its own trail, while MHRW's wedge
    // endpoints are fresh random neighbors — it must touch clearly more
    // of the graph per step.
    // Needs a graph big enough that neither walk saturates coverage.
    let g = dataset("gowalla-sim").graph();
    let steps = 5_000;

    let api = ApiGraph::new(g);
    // The metered graph is not `Sync`: it runs on the calling thread.
    let _ =
        Runner::new(EstimatorConfig::recommended(3)).steps(steps).seed(1).run_local(&api).unwrap();
    let rw_fetched = api.stats().distinct_nodes_fetched;

    let api = ApiGraph::new(g);
    let _ = wedge_mhrw(&api, steps, 1);
    let mhrw_fetched = api.stats().distinct_nodes_fetched;

    assert!(
        mhrw_fetched as f64 > 1.3 * rw_fetched as f64,
        "MHRW {mhrw_fetched} vs RW {rw_fetched} distinct nodes"
    );
}
