//! Integration tests for the error-bar subsystem: empirical CI coverage
//! against exact counts, adaptive-stopping termination, and parallel
//! determinism of the pooled statistics.
//!
//! Coverage tolerances follow the PR-1 lesson (see CHANGES.md): a single
//! chain's hit/miss is seed luck, so coverage is measured over many
//! seed-pinned chains and compared to the nominal level with a ±7pp
//! band (the acceptance criterion; with 64 Bernoulli trials the binomial
//! standard error alone is ~2.7pp).

use graphlet_rw::core::relationship_edge_count;
use graphlet_rw::exact::exact_counts;
use graphlet_rw::graph::connectivity::largest_connected_component;
use graphlet_rw::graph::generators::{classic, erdos_renyi_gnm};
use graphlet_rw::graph::Graph;
use graphlet_rw::{EstimatorConfig, Runner, StoppingRule};
use rand::SeedableRng;

const Z95: f64 = 1.96;

/// Counts CI hits over `chains` seed-pinned runs, one trial per
/// (chain, type with nonzero exact count). Returns (hits, trials).
fn count_ci_coverage(
    g: &Graph,
    cfg: &EstimatorConfig,
    steps: usize,
    chains: u64,
    seed0: u64,
) -> (usize, usize) {
    let exact = exact_counts(g, cfg.k);
    let two_r = 2.0 * relationship_edge_count(g, cfg.d) as f64;
    let (mut hits, mut trials) = (0, 0);
    for chain in 0..chains {
        let est = Runner::new(cfg.clone()).steps(steps).seed(seed0 + chain).run(g).unwrap();
        for (i, &truth) in exact.counts.iter().enumerate() {
            if truth == 0 {
                continue;
            }
            let (lo, hi) = est.count_confidence_interval(i, two_r, Z95);
            assert!(lo.is_finite() && hi.is_finite(), "CI must be defined for sampled types");
            trials += 1;
            if (lo..=hi).contains(&(truth as f64)) {
                hits += 1;
            }
        }
    }
    (hits, trials)
}

#[test]
fn count_ci_coverage_is_near_nominal() {
    // Two generator graphs, 16 chains each, both k=3 types per chain:
    // 64 Bernoulli trials against the exact counts.
    let lollipop = classic::lollipop(6, 5);
    let mut rng = rand_pcg::Pcg64::seed_from_u64(4242);
    let er = largest_connected_component(&erdos_renyi_gnm(60, 180, &mut rng)).0;

    let cfg = EstimatorConfig::recommended(3);
    let (h1, t1) = count_ci_coverage(&lollipop, &cfg, 30_000, 16, 100);
    let (h2, t2) = count_ci_coverage(&er, &cfg, 30_000, 16, 200);
    let coverage = (h1 + h2) as f64 / (t1 + t2) as f64;
    println!("lollipop {h1}/{t1}, er {h2}/{t2}, pooled coverage {coverage:.3}");
    assert!(t1 + t2 >= 30, "need at least 30 chains' worth of trials");
    assert!(
        coverage >= 0.88,
        "95% CI coverage {coverage:.3} below nominal − 7pp over {} trials",
        t1 + t2
    );
}

#[test]
fn estimate_until_terminates_with_target_width_on_two_graphs() {
    let lollipop = classic::lollipop(6, 5);
    let mut rng = rand_pcg::Pcg64::seed_from_u64(7);
    let er = largest_connected_component(&erdos_renyi_gnm(80, 240, &mut rng)).0;

    let rule = StoppingRule {
        target_rel_ci: 0.15,
        check_every: 5_000,
        max_steps: 2_000_000,
        batch_len: 256,
        ..Default::default()
    };
    for (name, g) in [("lollipop", &lollipop), ("er", &er)] {
        let cfg = EstimatorConfig::recommended(3);
        let est = Runner::new(cfg.clone()).until(rule.clone()).seed(9).run(g).unwrap();
        let w = est.max_relative_half_width(rule.z, rule.min_concentration);
        println!("{name}: stopped after {} steps, width {w:.4}", est.steps);
        assert!(est.steps < rule.max_steps, "{name}: hit the step cap");
        assert!(w <= rule.target_rel_ci, "{name}: width {w} above target");
        assert!(est.valid_samples > 0);
    }
}

#[test]
fn parallel_ci_output_is_deterministic_per_seed_and_walkers() {
    let g = classic::lollipop(6, 5);
    let cfg = EstimatorConfig::recommended(4);
    let mut fingerprints = Vec::new();
    for walkers in [1usize, 2, 5, 8] {
        let a = Runner::new(cfg.clone()).steps(12_000).seed(31).walkers(walkers).run(&g).unwrap();
        let b = Runner::new(cfg.clone()).steps(12_000).seed(31).walkers(walkers).run(&g).unwrap();
        assert_eq!(a.raw_scores, b.raw_scores, "walkers={walkers}");
        assert_eq!(a.accuracy, b.accuracy, "walkers={walkers}: CI stats must be deterministic");
        let stats = a.accuracy().expect("accuracy collected");
        fingerprints.push((walkers, stats.batches(), a.std_error(0).to_bits()));
    }
    // walkers == 1 replays the sequential estimator bit-for-bit,
    // error bars included.
    let seq = Runner::new(cfg.clone()).steps(12_000).seed(31).run_local(&g).unwrap();
    let par1 = Runner::new(cfg.clone()).steps(12_000).seed(31).walkers(1).run(&g).unwrap();
    assert_eq!(seq.raw_scores, par1.raw_scores);
    assert_eq!(seq.accuracy, par1.accuracy);
    // Different fan-outs are different (each deterministic) estimates.
    println!("fingerprints: {fingerprints:?}");
}

#[test]
fn obm_variance_agrees_with_nonoverlapping_batch_means() {
    // The overlapping-batch-means estimator is a cross-check on the
    // streaming non-overlapping one: both estimate the variance of the
    // same mean, so on a well-mixed chain with plenty of batches their
    // standard errors must agree within estimator noise. Checked on
    // every type carrying real mass, over two graphs and two configs.
    let lollipop = classic::lollipop(6, 5);
    let mut rng = rand_pcg::Pcg64::seed_from_u64(99);
    let er = largest_connected_component(&erdos_renyi_gnm(60, 180, &mut rng)).0;
    for (name, g) in [("lollipop", &lollipop), ("er", &er)] {
        for cfg in [EstimatorConfig::recommended(3), EstimatorConfig::recommended(4)] {
            let est = Runner::new(cfg.clone()).steps(40_000).seed(17).run(g).unwrap();
            let stats = est.accuracy().expect("stats collected");
            assert!(stats.batches() >= 100, "√n batching: {} batches", stats.batches());
            let mut checked = 0;
            for i in 0..stats.types() {
                let conc = stats.concentration(i);
                if conc.is_nan() || conc < 0.05 {
                    continue; // rare types: both estimators are noise
                }
                let nobm = est.std_error(i);
                let obm = est.obm_std_error(i);
                assert!(obm.is_finite() && obm > 0.0, "{name} {} type {i}", cfg.name());
                let ratio = obm / nobm;
                assert!(
                    (0.4..=2.5).contains(&ratio),
                    "{name} {} type {i}: OBM {obm:.3e} vs NOBM {nobm:.3e} (ratio {ratio:.2})",
                    cfg.name()
                );
                checked += 1;
                // Window 1 pins the two estimators to the same formula.
                let w1 = stats.obm_var_of_mean(i, 1);
                let direct = stats.var_of_mean(i);
                assert!((w1 - direct).abs() <= 1e-9 * direct, "{name} type {i}");
            }
            assert!(checked >= 1, "{name} {}: no common type exercised", cfg.name());
        }
    }
}

#[test]
fn concentration_ci_brackets_exact_concentration_on_most_chains() {
    // Concentration CIs combine batch means with a delta-method
    // linearization, so hold them to the same ±7pp band pooled over
    // 32 chains (2 types each).
    let g = classic::lollipop(6, 5);
    let exact = exact_counts(&g, 3).concentrations();
    let cfg = EstimatorConfig::recommended(3);
    let (mut hits, mut trials) = (0usize, 0usize);
    for chain in 0..32u64 {
        let est = Runner::new(cfg.clone()).steps(30_000).seed(300 + chain).run(&g).unwrap();
        for (i, &truth) in exact.iter().enumerate() {
            if truth == 0.0 {
                continue;
            }
            let (lo, hi) = est.confidence_interval(i, Z95);
            trials += 1;
            if (lo..=hi).contains(&truth) {
                hits += 1;
            }
        }
    }
    let coverage = hits as f64 / trials as f64;
    println!("concentration coverage {hits}/{trials} = {coverage:.3}");
    assert!(coverage >= 0.88, "concentration CI coverage {coverage:.3} below nominal − 7pp");
}
