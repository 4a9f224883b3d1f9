//! Parallel multi-walker estimation.
//!
//! The estimator's samples come from a single Markov chain, but the
//! framework is an average over *any* collection of stationary samples
//! (Theorem 1 holds per walker), so independent walkers with disjoint
//! RNG streams can each contribute a share of the step budget and their
//! raw scores merge by addition — the same estimator, computed with
//! near-linear hardware parallelism. This mirrors the standard practice
//! for graphlet estimators (Rossi–Zhou–Ahmed run independent samplers
//! per core) and is the paper's own §6 protocol, which repeats
//! independent runs anyway.
//!
//! This module holds the fan-out policy that [`crate::Runner::walkers`]
//! applies: walker `i` runs the exact sequential pipeline with seed
//! `seed` for `i = 0` and [`derive_seed`]`(seed, i)` otherwise
//! ([`walker_seed`]), scores a near-equal share of the budget
//! ([`walker_steps`]), and the merge folds walker results in index order
//! — so a fixed `(seed, walkers)` pair gives bit-identical results on
//! every run and machine, whatever the thread count.

use gx_walks::derive_seed;

/// Usable cores on this host (`available_parallelism`, 1 on failure) —
/// the single source of the core-count policy for walkers and threads.
pub fn available_cores() -> usize {
    // gx-lint: allow(determinism) -- host probe only sizes the walker pool; estimates are walker-count-independent given a seed (covered by parallel determinism tests)
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Seed of walker `i`: walker 0 keeps the caller's seed so a one-walker
/// run replays the sequential estimator exactly; the rest get
/// SplitMix64-derived independent streams.
#[inline]
pub fn walker_seed(seed: u64, walker: usize) -> u64 {
    if walker == 0 {
        seed
    } else {
        derive_seed(seed, walker as u64)
    }
}

/// Step budget of walker `i` when `steps` is spread over `walkers`
/// (difference of at most one step between walkers).
#[inline]
pub fn walker_steps(steps: usize, walkers: usize, walker: usize) -> usize {
    steps / walkers + usize::from(walker < steps % walkers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy::StoppingRule;
    use crate::config::EstimatorConfig;
    use crate::error::GxError;
    use crate::runner::Runner;
    use gx_exact::exact_counts;
    use gx_graph::generators::classic;

    #[test]
    fn one_walker_is_bit_identical_to_sequential() {
        let g = classic::petersen();
        for cfg in [
            EstimatorConfig { k: 3, d: 1, ..Default::default() },
            EstimatorConfig { k: 4, d: 2, css: true, ..Default::default() },
            EstimatorConfig::psrw(4),
        ] {
            let seq = Runner::new(cfg.clone()).steps(5_000).seed(77).run_local(&g).unwrap();
            let par = Runner::new(cfg.clone()).steps(5_000).seed(77).walkers(1).run(&g).unwrap();
            assert_eq!(seq.raw_scores, par.raw_scores, "{}", cfg.name());
            assert_eq!(seq.valid_samples, par.valid_samples);
            assert_eq!(seq.steps, par.steps);
            // ... including the error-bar statistics.
            assert_eq!(seq.accuracy, par.accuracy, "{}", cfg.name());
        }
    }

    #[test]
    fn fixed_seed_and_walkers_is_deterministic() {
        let g = classic::petersen();
        let cfg = EstimatorConfig { k: 4, d: 2, css: true, ..Default::default() };
        let a = Runner::new(cfg.clone()).steps(8_000).seed(42).walkers(4).run(&g).unwrap();
        let b = Runner::new(cfg.clone()).steps(8_000).seed(42).walkers(4).run(&g).unwrap();
        assert_eq!(a.raw_scores, b.raw_scores);
        assert_eq!(a.valid_samples, b.valid_samples);
        // CI output is part of the determinism contract: the pooled
        // batch-means statistics must match bit-for-bit too.
        assert_eq!(a.accuracy, b.accuracy);
        // Different fan-out is a different (deterministic) estimate.
        let c = Runner::new(cfg.clone()).steps(8_000).seed(42).walkers(3).run(&g).unwrap();
        assert_ne!(a.raw_scores, c.raw_scores);
    }

    #[test]
    fn pooled_batches_cover_every_walker() {
        let g = classic::petersen();
        let cfg = EstimatorConfig { k: 3, d: 1, ..Default::default() };
        let (steps, walkers, seed) = (9_000, 4, 11);
        let par =
            Runner::new(cfg.clone()).steps(steps).seed(seed).walkers(walkers).run(&g).unwrap();
        let stats = par.accuracy().expect("parallel runs pool accuracy");
        let batch_len = crate::accuracy::default_batch_len(steps);
        assert_eq!(stats.batch_len(), batch_len, "batch length follows the total budget");
        let expected: u64 =
            (0..walkers).map(|i| (walker_steps(steps, walkers, i) / batch_len) as u64).sum();
        assert_eq!(stats.batches(), expected, "pooled batches are the per-walker sum");
        // The pooled error bar is usable: finite SE on a frequent type.
        assert!(par.std_error(0).is_finite() || par.std_error(1).is_finite());
    }

    #[test]
    fn merge_equals_sum_over_walkers() {
        let g = classic::lollipop(5, 4);
        let cfg = EstimatorConfig { k: 3, d: 1, ..Default::default() };
        let (steps, walkers, seed) = (10_001, 4, 9);
        let par =
            Runner::new(cfg.clone()).steps(steps).seed(seed).walkers(walkers).run(&g).unwrap();
        let mut valid = 0usize;
        let mut raw = vec![0.0; par.raw_scores.len()];
        let mut budget = 0usize;
        for i in 0..walkers {
            let share = walker_steps(steps, walkers, i);
            budget += share;
            let w =
                Runner::new(cfg.clone()).steps(share).seed(walker_seed(seed, i)).run(&g).unwrap();
            valid += w.valid_samples;
            for (acc, x) in raw.iter_mut().zip(&w.raw_scores) {
                *acc += x;
            }
        }
        assert_eq!(budget, steps, "shares cover the budget exactly");
        assert_eq!(par.valid_samples, valid);
        assert_eq!(par.raw_scores, raw, "merge is the walker-order sum");
        assert_eq!(par.steps, steps);
    }

    #[test]
    fn walker_budget_split_is_near_equal() {
        for (steps, walkers) in [(10, 3), (7, 7), (5, 8), (0, 4), (1_000_003, 16)] {
            let shares: Vec<usize> =
                (0..walkers).map(|i| walker_steps(steps, walkers, i)).collect();
            assert_eq!(shares.iter().sum::<usize>(), steps);
            let (min, max) = (shares.iter().min().unwrap(), shares.iter().max().unwrap());
            assert!(max - min <= 1, "{steps}/{walkers}: {shares:?}");
        }
    }

    #[test]
    fn parallel_k3_converges_on_figure1() {
        let g = classic::paper_figure1();
        let cfg = EstimatorConfig { k: 3, d: 1, css: true, non_backtracking: true, burn_in: 0 };
        let exact = exact_counts(&g, 3).concentrations();
        let est = Runner::new(cfg.clone())
            .steps(60_000)
            .seed(1)
            .walkers(4)
            .run(&g)
            .unwrap()
            .concentrations();
        for (i, (e, x)) in est.iter().zip(&exact).enumerate() {
            assert!((e - x).abs() < 0.02, "type {}: {e:.4} vs {x:.4}", i + 1);
        }
    }

    #[test]
    fn parallel_k4_converges_on_lollipop() {
        let g = classic::lollipop(5, 4);
        let cfg = EstimatorConfig { k: 4, d: 2, css: true, ..Default::default() };
        let exact = exact_counts(&g, 4).concentrations();
        let est = Runner::new(cfg.clone())
            .steps(120_000)
            .seed(3)
            .walkers(8)
            .run(&g)
            .unwrap()
            .concentrations();
        for (i, (e, x)) in est.iter().zip(&exact).enumerate() {
            assert!((e - x).abs() < 0.02, "type {}: {e:.4} vs {x:.4}", i + 1);
        }
    }

    #[test]
    fn more_walkers_than_steps_still_works() {
        let g = classic::petersen();
        let cfg = EstimatorConfig { k: 3, d: 1, ..Default::default() };
        let est = Runner::new(cfg.clone()).steps(3).seed(11).walkers(8).run(&g).unwrap();
        assert_eq!(est.steps, 3);
        assert!(est.valid_samples <= 3);
    }

    #[test]
    fn huge_fanouts_are_core_bounded_and_deterministic() {
        // 512 walkers must not spawn 512 threads (chunked over cores),
        // and the walker-order merge keeps the result independent of the
        // machine's thread count.
        let g = classic::petersen();
        let cfg = EstimatorConfig { k: 3, d: 1, ..Default::default() };
        let a = Runner::new(cfg.clone()).steps(2_048).seed(13).walkers(512).run(&g).unwrap();
        let b = Runner::new(cfg.clone()).steps(2_048).seed(13).walkers(512).run(&g).unwrap();
        assert_eq!(a.raw_scores, b.raw_scores);
        assert_eq!(a.steps, 2_048);
        let mut raw = vec![0.0; a.raw_scores.len()];
        for i in 0..512 {
            let w = Runner::new(cfg.clone())
                .steps(walker_steps(2_048, 512, i))
                .seed(walker_seed(13, i))
                .run(&g)
                .unwrap();
            for (acc, x) in raw.iter_mut().zip(&w.raw_scores) {
                *acc += x;
            }
        }
        assert_eq!(a.raw_scores, raw, "chunked execution preserves walker-order merge");
    }

    #[test]
    fn zero_walkers_rejected() {
        let g = classic::petersen();
        let cfg = EstimatorConfig { k: 3, d: 1, ..Default::default() };
        let err = Runner::new(cfg).steps(100).seed(1).walkers(0).run(&g).unwrap_err();
        assert_eq!(err, GxError::NoWalkers);
        assert!(err.to_string().contains("at least one walker"));
    }

    #[test]
    fn adaptive_one_walker_is_bit_identical_to_sequential() {
        // The coordinator with one walker replays the sequential run
        // round-for-round: same chain, same check schedule,
        // bit-identical everything — report included.
        let g = classic::lollipop(5, 4);
        let rule = StoppingRule {
            target_rel_ci: 0.25,
            check_every: 2_000,
            max_steps: 40_000,
            batch_len: 128,
            min_batches: 8,
            ..Default::default()
        };
        for cfg in [
            EstimatorConfig::recommended(3),
            EstimatorConfig { k: 4, d: 2, css: true, ..Default::default() },
        ] {
            let seq = Runner::new(cfg.clone()).until(rule.clone()).seed(23).run_local(&g).unwrap();
            let par =
                Runner::new(cfg.clone()).until(rule.clone()).seed(23).walkers(1).run(&g).unwrap();
            assert_eq!(seq.raw_scores, par.raw_scores, "{}", cfg.name());
            assert_eq!(seq.steps, par.steps);
            assert_eq!(seq.valid_samples, par.valid_samples);
            assert_eq!(seq.accuracy, par.accuracy);
            assert_eq!(seq.adaptive, par.adaptive, "{}", cfg.name());
        }
    }

    #[test]
    fn adaptive_coordinator_is_deterministic_and_pools_walkers() {
        let g = classic::lollipop(5, 4);
        let cfg = EstimatorConfig::recommended(3);
        let rule = StoppingRule {
            target_rel_ci: 0.15,
            check_every: 1_500,
            max_steps: 60_000,
            batch_len: 128,
            min_batches: 6,
            ..Default::default()
        };
        let a = Runner::new(cfg.clone()).until(rule.clone()).seed(5).walkers(4).run(&g).unwrap();
        let b = Runner::new(cfg.clone()).until(rule.clone()).seed(5).walkers(4).run(&g).unwrap();
        assert_eq!(a.raw_scores, b.raw_scores);
        assert_eq!(a.accuracy, b.accuracy);
        assert_eq!(a.adaptive, b.adaptive);
        let report = a.adaptive().expect("adaptive runs carry a report");
        assert_eq!(report.walkers, 4);
        assert!(report.rounds >= 1);
        // A full-cadence round pools walkers × check_every steps.
        if report.target_met {
            assert!(a.steps < rule.max_steps);
            assert_eq!(a.steps % (4 * rule.check_every), 0, "stopped at a round boundary");
            let w = a.max_relative_half_width(report.critical_value, rule.min_concentration);
            assert!(w <= rule.target_rel_ci, "pooled width {w} above target");
        } else {
            assert_eq!(a.steps, rule.max_steps);
        }
    }

    #[test]
    fn adaptive_at_the_cap_matches_fixed_budget_scores() {
        // An unreachable target makes the coordinator spend the whole
        // budget; the scored windows are then exactly the fixed-budget
        // parallel run's (same walker shares, same chains) — only the
        // batch length differs, so compare the raw scores.
        let g = classic::petersen();
        let cfg = EstimatorConfig { k: 3, d: 1, ..Default::default() };
        let rule = StoppingRule {
            target_rel_ci: 1e-9,
            check_every: 1_000,
            max_steps: 12_000,
            batch_len: 64,
            ..Default::default()
        };
        let until =
            Runner::new(cfg.clone()).until(rule.clone()).seed(9).walkers(3).run(&g).unwrap();
        assert_eq!(until.steps, rule.max_steps);
        assert!(!until.adaptive().unwrap().target_met);
        let mut raw = vec![0.0; until.raw_scores.len()];
        let mut valid = 0;
        for i in 0..3 {
            let w = Runner::new(cfg.clone())
                .steps(walker_steps(rule.max_steps, 3, i))
                .seed(walker_seed(9, i))
                .run(&g)
                .unwrap();
            valid += w.valid_samples;
            for (acc, x) in raw.iter_mut().zip(&w.raw_scores) {
                *acc += x;
            }
        }
        assert_eq!(until.raw_scores, raw, "cap run scores the fixed-budget windows");
        assert_eq!(until.valid_samples, valid);
    }

    #[test]
    fn adaptive_zero_budget_scores_nothing() {
        let g = classic::petersen();
        let cfg = EstimatorConfig { k: 3, d: 1, ..Default::default() };
        let rule = StoppingRule { max_steps: 0, ..Default::default() };
        let est = Runner::new(cfg.clone()).until(rule.clone()).seed(3).walkers(4).run(&g).unwrap();
        assert_eq!(est.steps, 0);
        assert_eq!(est.valid_samples, 0);
        assert!(est.raw_scores.iter().all(|&x| x == 0.0));
        let report = est.adaptive().unwrap();
        assert_eq!(report.rounds, 0);
        assert!(!report.target_met);
        assert!(report.converged.iter().all(|&c| !c));
    }

    #[test]
    fn per_type_mode_latches_types_at_their_own_pace() {
        // On the lollipop, the frequent type's CI tightens well before
        // the rare one's: per-type mode must record distinct
        // convergence steps, orderable per type.
        let g = classic::lollipop(6, 5);
        let cfg = EstimatorConfig::recommended(3);
        let rule = StoppingRule {
            target_rel_ci: 0.10,
            check_every: 1_000,
            max_steps: 400_000,
            batch_len: 128,
            min_batches: 6,
            per_type: true,
            ..Default::default()
        };
        let est = Runner::new(cfg.clone()).until(rule.clone()).seed(11).walkers(2).run(&g).unwrap();
        let report = est.adaptive().expect("report");
        assert!(report.target_met, "both k=3 types should converge well inside the cap");
        assert!(report.converged.iter().all(|&c| c));
        let (fast, slow) =
            (*report.steps_used.iter().min().unwrap(), *report.steps_used.iter().max().unwrap());
        assert!(
            fast < slow,
            "types must converge at distinct checks (steps_used {:?})",
            report.steps_used
        );
        assert!(slow <= est.steps);
    }

    #[test]
    fn walker_budget_shares_bound_each_chain() {
        // max_steps not divisible by walkers: shares differ by one and
        // the pooled total is exact.
        let g = classic::petersen();
        let cfg = EstimatorConfig { k: 3, d: 1, ..Default::default() };
        let rule = StoppingRule {
            target_rel_ci: 1e-9,
            check_every: 100,
            max_steps: 1_003,
            batch_len: 32,
            ..Default::default()
        };
        let est = Runner::new(cfg.clone()).until(rule.clone()).seed(1).walkers(4).run(&g).unwrap();
        assert_eq!(est.steps, 1_003);
    }
}
