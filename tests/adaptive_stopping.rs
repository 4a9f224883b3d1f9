//! Conformance suite for the adaptive parallel stopping coordinator
//! (`Runner::until(..).walkers(n)`): sequential equivalence at one walker,
//! determinism per (seed, walkers), empirical coverage of the
//! studentized (t) intervals against exact counts, and per-type
//! stopping order.
//!
//! Coverage tolerances follow tests/error_bars.rs: 64 seed-pinned
//! Bernoulli trials against the nominal 95% level with a ±7pp band.

use graphlet_rw::core::relationship_edge_count;
use graphlet_rw::exact::exact_counts;
use graphlet_rw::graph::generators::classic;
use graphlet_rw::{EstimatorConfig, Runner, StoppingRule};

const Z95: f64 = 1.96;

/// The per-type rule of the determinism and ordering tests: a target
/// tight enough that the lollipop's wedge and triangle types latch at
/// clearly different checks (the triangle CI tightens fast — the clique
/// is triangle-dense — while wedge mass spread over clique + path keeps
/// its CI wide for several more rounds).
fn per_type_rule() -> StoppingRule {
    StoppingRule {
        target_rel_ci: 0.06,
        check_every: 1_500,
        max_steps: 120_000,
        batch_len: 128,
        min_batches: 6,
        per_type: true,
        ..Default::default()
    }
}

/// The coverage test's variant: longer batches so several runs stop
/// with a pooled batch count under 30 and the final interval really is
/// a t-interval (crit > z), not just z relabeled.
fn coverage_rule() -> StoppingRule {
    StoppingRule { check_every: 3_000, batch_len: 768, min_batches: 8, ..per_type_rule() }
}

#[test]
fn one_walker_coordinator_is_bit_identical_to_sequential() {
    // (a) walkers == 1 replays the sequential run round-for-round:
    // the same chain hits the same checks and stops at the same step with
    // bit-identical scores, pooled statistics, and report.
    let g = classic::lollipop(6, 5);
    let rule = StoppingRule {
        target_rel_ci: 0.2,
        check_every: 2_500,
        max_steps: 200_000,
        batch_len: 128,
        min_batches: 8,
        ..Default::default()
    };
    for cfg in [EstimatorConfig::recommended(3), EstimatorConfig::recommended(4)] {
        let seq = Runner::new(cfg.clone()).until(rule.clone()).seed(17).run_local(&g).unwrap();
        let par = Runner::new(cfg.clone()).until(rule.clone()).seed(17).walkers(1).run(&g).unwrap();
        assert_eq!(seq.raw_scores, par.raw_scores, "{}", cfg.name());
        assert_eq!(seq.steps, par.steps, "{}: same stop step", cfg.name());
        assert_eq!(seq.valid_samples, par.valid_samples);
        assert_eq!(seq.accuracy, par.accuracy, "{}: pooled stats identical", cfg.name());
        assert_eq!(seq.adaptive, par.adaptive, "{}: reports identical", cfg.name());
        assert!(seq.steps < rule.max_steps, "{}: should converge inside the cap", cfg.name());
    }
    // Per-type mode too — the latching path.
    let rule = StoppingRule { per_type: true, ..rule };
    let cfg = EstimatorConfig::recommended(3);
    let seq = Runner::new(cfg.clone()).until(rule.clone()).seed(29).run_local(&g).unwrap();
    let par = Runner::new(cfg.clone()).until(rule.clone()).seed(29).walkers(1).run(&g).unwrap();
    assert_eq!(seq.raw_scores, par.raw_scores);
    assert_eq!(seq.adaptive, par.adaptive);
}

#[test]
fn coordinator_is_deterministic_per_seed_and_walkers() {
    // (b) repeated runs at every fan-out are bit-identical; different
    // fan-outs are different (deterministic) estimates.
    let g = classic::lollipop(6, 5);
    let cfg = EstimatorConfig::recommended(3);
    let rule = per_type_rule();
    let mut raw_fingerprints = Vec::new();
    for walkers in [1usize, 2, 5, 8] {
        let runner = Runner::new(cfg.clone()).until(rule.clone()).seed(31).walkers(walkers);
        let a = runner.run(&g).unwrap();
        let b = runner.run(&g).unwrap();
        assert_eq!(a.raw_scores, b.raw_scores, "walkers={walkers}");
        assert_eq!(a.steps, b.steps, "walkers={walkers}");
        assert_eq!(a.valid_samples, b.valid_samples, "walkers={walkers}");
        assert_eq!(a.accuracy, b.accuracy, "walkers={walkers}");
        assert_eq!(a.adaptive, b.adaptive, "walkers={walkers}");
        assert_eq!(a.adaptive().unwrap().walkers, walkers);
        raw_fingerprints.push(a.raw_scores.clone());
    }
    for w in 1..raw_fingerprints.len() {
        assert_ne!(
            raw_fingerprints[0], raw_fingerprints[w],
            "different fan-outs sample different windows"
        );
    }
}

#[test]
fn t_interval_coverage_is_near_nominal_with_per_type_stopping() {
    // (c) + acceptance: 32 seed-pinned adaptive runs × both k=3 types on
    // the lollipop = 64 trials. Intervals sized with the studentized
    // critical value must cover the exact counts at ≥ 88% (nominal 95%
    // − 7pp), *and* per-type stopping must end at least one type before
    // the budget in every run.
    let g = classic::lollipop(6, 5);
    let cfg = EstimatorConfig::recommended(3);
    let rule = coverage_rule();
    let exact = exact_counts(&g, 3);
    let two_r = 2.0 * relationship_edge_count(&g, cfg.d) as f64;
    let (mut hits, mut trials) = (0usize, 0usize);
    let mut early_stops = 0usize;
    let mut studentized_runs = 0usize;
    for chain in 0..32u64 {
        let est = Runner::new(cfg.clone())
            .until(rule.clone())
            .seed(500 + chain)
            .walkers(2)
            .run(&g)
            .unwrap();
        let report = est.adaptive().expect("adaptive runs carry a report");
        if report.steps_used.iter().any(|&s| s < rule.max_steps) {
            early_stops += 1;
        }
        let crit = est.studentized_critical(Z95);
        assert!(crit >= Z95, "studentized critical can only widen: {crit}");
        if crit > Z95 {
            studentized_runs += 1;
        }
        for (i, &truth) in exact.counts.iter().enumerate() {
            if truth == 0 {
                continue;
            }
            let (lo, hi) = est.count_confidence_interval(i, two_r, crit);
            assert!(lo.is_finite() && hi.is_finite(), "CI defined for sampled types");
            trials += 1;
            if (lo..=hi).contains(&(truth as f64)) {
                hits += 1;
            }
        }
    }
    let coverage = hits as f64 / trials as f64;
    println!(
        "t-interval coverage {hits}/{trials} = {coverage:.3}, \
         early per-type stops {early_stops}/32, studentized {studentized_runs}/32"
    );
    assert_eq!(trials, 64, "2 nonzero k=3 types × 32 chains");
    assert!(coverage >= 0.88, "coverage {coverage:.3} below nominal − 7pp");
    assert_eq!(early_stops, 32, "every run must end at least one type before max_steps");
    assert!(studentized_runs > 0, "the rule must exercise the t path in at least one run");
}

#[test]
fn per_type_stopping_orders_types_by_convergence_speed() {
    // (d) the fast-converging type latches strictly earlier than the
    // slowest one, and steps_used is consistent with the report.
    let g = classic::lollipop(6, 5);
    let cfg = EstimatorConfig::recommended(3);
    let rule = per_type_rule();
    let est = Runner::new(cfg.clone()).until(rule.clone()).seed(71).walkers(2).run(&g).unwrap();
    let report = est.adaptive().expect("report");
    assert!(report.target_met, "both types should converge inside the cap");
    assert!(report.converged.iter().all(|&c| c));
    let fast = *report.steps_used.iter().min().unwrap();
    let slow = *report.steps_used.iter().max().unwrap();
    assert!(
        fast < slow,
        "fast type must stop at an earlier check (steps_used {:?})",
        report.steps_used
    );
    assert!(slow <= est.steps, "latch steps never exceed the run total");
    assert_eq!(est.steps, slow, "per-type run ends when the slowest type latches");
    assert!(est.steps < rule.max_steps, "stopped before the budget");
}
