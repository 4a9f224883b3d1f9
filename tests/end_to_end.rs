//! Cross-crate integration: the full pipeline (dataset → walk → estimate)
//! against exact ground truth.

use graphlet_rw::datasets::dataset;
use graphlet_rw::{EstimatorConfig, Runner};

/// Runs `runs` estimates and checks the mean concentration of every type
/// lands within `tol` of the exact value (law of large numbers, averaged
/// over runs to damp single-walk variance).
fn check_mean_convergence(name: &str, cfg: &EstimatorConfig, steps: usize, runs: u64, tol: f64) {
    let ds = dataset(name);
    let truth = ds.exact_concentrations(cfg.k);
    let m = truth.len();
    let mut mean = vec![0.0f64; m];
    for seed in 0..runs {
        let est =
            Runner::new(cfg.clone()).steps(steps).seed(0xABCD + seed).run(ds.graph()).unwrap();
        for (acc, c) in mean.iter_mut().zip(est.concentrations()) {
            *acc += c / runs as f64;
        }
    }
    for i in 0..m {
        assert!(
            (mean[i] - truth[i]).abs() < tol,
            "{name} {} type {}: mean {:.5} vs exact {:.5}",
            cfg.name(),
            i + 1,
            mean[i],
            truth[i]
        );
    }
}

#[test]
fn srw1cssnb_matches_exact_triangle_concentration() {
    check_mean_convergence("facebook-sim", &EstimatorConfig::recommended(3), 20_000, 4, 0.01);
}

#[test]
fn srw2_family_matches_exact_4node_concentrations() {
    check_mean_convergence("brightkite-sim", &EstimatorConfig::recommended(4), 20_000, 4, 0.02);
    check_mean_convergence(
        "brightkite-sim",
        &EstimatorConfig { k: 4, d: 2, ..Default::default() },
        20_000,
        4,
        0.02,
    );
}

#[test]
fn psrw_matches_exact_4node_concentrations() {
    check_mean_convergence("slashdot-sim", &EstimatorConfig::psrw(4), 30_000, 4, 0.03);
}

#[test]
fn srw2css_matches_exact_5node_concentrations() {
    // 21 types; rare ones need looser absolute tolerance but they are
    // also tiny, so 0.02 absolute is meaningful.
    check_mean_convergence("facebook-sim", &EstimatorConfig::recommended(5), 40_000, 4, 0.02);
}

/// Six-node graphlets on a walk on G(3) with CSS (l = 4): the k = 6
/// classification table and the per-class k = 6 CSS table, end to
/// end, against ESU counts. 112 types, most of them rare, so the bound is
/// a loose absolute one on the mean of four runs.
#[test]
fn srw3css_matches_exact_6node_concentrations() {
    use graphlet_rw::graph::generators::holme_kim;
    use graphlet_rw::walks::rng_from_seed;
    let g = holme_kim(40, 3, 0.5, &mut rng_from_seed(6));
    let truth = graphlet_rw::exact::exact_counts(&g, 6).concentrations();
    let cfg = EstimatorConfig { k: 6, d: 3, css: true, ..Default::default() };
    let runs = 4;
    let mut mean = vec![0.0f64; truth.len()];
    for seed in 0..runs {
        let est = Runner::new(cfg.clone()).steps(20_000).seed(0x6D3 + seed).run(&g).unwrap();
        assert!(est.valid_samples > 10_000, "{} valid windows", est.valid_samples);
        for (acc, c) in mean.iter_mut().zip(est.concentrations()) {
            *acc += c / runs as f64;
        }
    }
    let worst = mean.iter().zip(&truth).map(|(m, t)| (m - t).abs()).fold(0.0f64, f64::max);
    assert!(worst < 0.01, "largest concentration error {worst:.4}");
    // A type the graph does not hold is never sampled, and this graph's
    // 100-odd types are all reached.
    for (i, (&m, &t)) in mean.iter().zip(&truth).enumerate() {
        assert_eq!(m > 0.0, t > 0.0, "type g6_{}: mean {m:.5} vs exact {t:.5}", i + 1);
    }
    assert!(truth.iter().filter(|&&t| t > 0.0).count() > 100);
}

#[test]
fn estimates_are_reproducible_across_processes() {
    // fixed dataset + fixed seed: byte-identical raw scores.
    let ds = dataset("epinion-sim");
    let cfg = EstimatorConfig::recommended(4);
    let a = Runner::new(cfg.clone()).steps(2_000).seed(99).run(ds.graph()).unwrap();
    let b = Runner::new(cfg.clone()).steps(2_000).seed(99).run(ds.graph()).unwrap();
    assert_eq!(a.raw_scores, b.raw_scores);
}
