//! Conformance suite for the unified `Runner` front-end.
//!
//! The acceptance contract of the front-end:
//! * `run_with_walk` fed the runner's own walker-0 start replays
//!   `run_local` **bit for bit** — raw scores, error bars, the
//!   `AdaptiveReport` and every progress tick — for d ∈ {1, 2, 3};
//! * every invalid `EstimatorConfig` / `StoppingRule` / fan-out
//!   combination yields the right `GxError` variant from the runner
//!   paths (no panics);
//! * a `RunHandle` advanced in increments finishes bit-identical to the
//!   one-shot call, for walkers ∈ {1, 2, 8};
//! * threaded (`run`) and single-thread (`run_local`) execution are
//!   bit-identical at every fan-out.

use graphlet_rw::graph::generators::classic;
use graphlet_rw::walks::{
    random_start_edge, random_start_node, random_start_state, rng_from_seed, G2Walk, GdWalk,
    SrwWalk,
};
use graphlet_rw::{
    ConfigError, Estimate, EstimatorConfig, Graph, GxError, Progress, RuleError, Runner,
    StoppingRule,
};
use std::cell::RefCell;
use std::rc::Rc;

fn rule() -> StoppingRule {
    StoppingRule {
        target_rel_ci: 0.15,
        check_every: 1_500,
        max_steps: 60_000,
        batch_len: 128,
        min_batches: 6,
        ..Default::default()
    }
}

/// Bit-level fingerprint of an estimate's raw scores.
fn bits(est: &graphlet_rw::Estimate) -> Vec<u64> {
    est.raw_scores.iter().map(|x| x.to_bits()).collect()
}

// --- run_with_walk ≡ the runner's walker 0 ---------------------------------

/// Runs `runner` over a caller-supplied walk started the way the runner
/// starts walker 0 for `seed`: the seed's RNG, then the random start
/// state of the configuration's `d`.
fn run_walker_zero(runner: &Runner, g: &Graph, cfg: &EstimatorConfig, seed: u64) -> Estimate {
    let nb = cfg.non_backtracking;
    let mut rng = rng_from_seed(seed);
    let est = match cfg.d {
        1 => {
            let start = random_start_node(g, &mut rng);
            runner.run_with_walk(g, SrwWalk::new(g, start, nb), rng)
        }
        2 => {
            let (u, v) = random_start_edge(g, &mut rng);
            runner.run_with_walk(g, G2Walk::new(g, u, v, nb), rng)
        }
        d => {
            let start = random_start_state(g, d, &mut rng);
            runner.run_with_walk(g, GdWalk::new(g, &start, nb), rng)
        }
    };
    est.unwrap()
}

/// A progress tick with its width as bits, so ticks compare exactly.
fn tick(p: &Progress) -> (usize, usize, usize, u64, u64, bool, bool) {
    (p.steps, p.walkers, p.rounds, p.batches, p.width.to_bits(), p.converged, p.finished)
}

#[test]
fn run_with_walk_replays_the_runners_walker_zero_chain() {
    let g = classic::lollipop(6, 5);
    let seed = 42;
    for cfg in [
        EstimatorConfig::recommended(3),
        EstimatorConfig::recommended(4),
        EstimatorConfig { k: 4, d: 3, css: true, ..Default::default() },
    ] {
        for budget in
            [Runner::new(cfg.clone()).steps(8_000), Runner::new(cfg.clone()).until(rule())]
        {
            let name = format!("{} {budget:?}", cfg.name());
            let walk = run_walker_zero(&budget, &g, &cfg, seed);
            let local = budget.clone().seed(seed).run_local(&g).unwrap();
            assert_eq!(bits(&walk), bits(&local), "{name}");
            assert_eq!(walk.steps, local.steps, "{name}");
            assert_eq!(walk.valid_samples, local.valid_samples, "{name}");
            assert_eq!(walk.accuracy, local.accuracy, "{name}");
            assert_eq!(walk.adaptive, local.adaptive, "{name}");
            // With a progress callback: the same output and, tick for
            // tick, the same progress as the handle reports.
            let ticks: Rc<RefCell<Vec<_>>> = Rc::new(RefCell::new(Vec::new()));
            let sink = ticks.clone();
            let observed = budget.clone().on_progress(move |p| sink.borrow_mut().push(tick(p)));
            let walk_observed = run_walker_zero(&observed, &g, &cfg, seed);
            let walk_ticks = std::mem::take(&mut *ticks.borrow_mut());
            let local_observed = observed.seed(seed).run_local(&g).unwrap();
            assert_eq!(bits(&walk_observed), bits(&walk), "{name}");
            assert_eq!(walk_observed.accuracy, walk.accuracy, "{name}");
            assert_eq!(bits(&local_observed), bits(&local), "{name}");
            assert_eq!(walk_ticks, *ticks.borrow(), "{name}");
            match walk.adaptive() {
                Some(report) => assert_eq!(walk_ticks.len(), report.rounds, "{name}"),
                None => assert_eq!(walk_ticks.len(), 16, "{name}"),
            }
        }
    }
}

// --- run vs run_local: thread count never moves a bit ----------------------

#[test]
fn threaded_and_local_execution_are_bit_identical() {
    let g = classic::lollipop(6, 5);
    let cfg = EstimatorConfig::recommended(4);
    for walkers in [1usize, 2, 8] {
        let fixed = Runner::new(cfg.clone()).steps(9_000).seed(3).walkers(walkers);
        let a = fixed.run(&g).unwrap();
        let b = fixed.run_local(&g).unwrap();
        assert_eq!(bits(&a), bits(&b), "fixed, walkers={walkers}");
        assert_eq!(a.accuracy, b.accuracy);
        let adaptive = Runner::new(cfg.clone()).until(rule()).seed(3).walkers(walkers);
        let a = adaptive.run(&g).unwrap();
        let b = adaptive.run_local(&g).unwrap();
        assert_eq!(bits(&a), bits(&b), "adaptive, walkers={walkers}");
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.accuracy, b.accuracy);
        assert_eq!(a.adaptive, b.adaptive);
    }
}

// --- Typed errors: every invalid input, no panics --------------------------

#[test]
fn invalid_configs_yield_config_errors() {
    let g = classic::petersen();
    for (cfg, want) in [
        (EstimatorConfig { k: 7, d: 1, ..Default::default() }, ConfigError::UnsupportedK { k: 7 }),
        (EstimatorConfig { k: 2, d: 1, ..Default::default() }, ConfigError::UnsupportedK { k: 2 }),
        (
            EstimatorConfig { k: 3, d: 4, ..Default::default() },
            ConfigError::DOutOfRange { k: 3, d: 4 },
        ),
        (
            EstimatorConfig { k: 5, d: 0, ..Default::default() },
            ConfigError::DOutOfRange { k: 5, d: 0 },
        ),
    ] {
        let err = Runner::new(cfg.clone()).steps(100).run(&g).unwrap_err();
        assert_eq!(err, GxError::Config(want), "{cfg:?}");
        // The same rejection from every entry point.
        assert_eq!(
            Runner::new(cfg.clone()).steps(100).start(&g).unwrap_err(),
            GxError::Config(want)
        );
        assert_eq!(
            Runner::new(cfg.clone()).until(rule()).run_local(&g).unwrap_err(),
            GxError::Config(want)
        );
        let err = Runner::new(cfg)
            .steps(100)
            .run_with_walk(&g, SrwWalk::new(&g, 0, false), rng_from_seed(1))
            .unwrap_err();
        assert_eq!(err, GxError::Config(want));
    }
}

#[test]
fn invalid_rules_yield_rule_errors() {
    let g = classic::petersen();
    let cfg = EstimatorConfig::recommended(3);
    for (bad, want) in [
        (
            StoppingRule { target_rel_ci: 0.0, ..Default::default() },
            RuleError::TargetNotPositive { target_rel_ci: 0.0 },
        ),
        (StoppingRule { check_every: 0, ..Default::default() }, RuleError::ZeroCheckEvery),
        (StoppingRule { z: 0.0, ..Default::default() }, RuleError::ZNotPositive { z: 0.0 }),
        (StoppingRule { batch_len: 0, ..Default::default() }, RuleError::ZeroBatchLen),
        (
            StoppingRule { min_batches: 1, ..Default::default() },
            RuleError::MinBatchesTooSmall { min_batches: 1 },
        ),
        (
            StoppingRule { min_concentration: -0.1, ..Default::default() },
            RuleError::ConcentrationOutOfRange { min_concentration: -0.1 },
        ),
    ] {
        let err = Runner::new(cfg.clone()).until(bad.clone()).run(&g).unwrap_err();
        assert_eq!(err, GxError::Rule(want), "{bad:?}");
        assert_eq!(
            Runner::new(cfg.clone()).until(bad).walkers(4).start(&g).unwrap_err(),
            GxError::Rule(want)
        );
    }
}

#[test]
fn fanout_budget_and_walk_errors_are_typed() {
    let g = classic::petersen();
    let cfg = EstimatorConfig::recommended(3);
    // Zero walkers.
    assert_eq!(
        Runner::new(cfg.clone()).steps(100).walkers(0).run(&g).unwrap_err(),
        GxError::NoWalkers
    );
    // Missing budget.
    assert_eq!(Runner::new(cfg.clone()).run(&g).unwrap_err(), GxError::NoBudget);
    assert_eq!(Runner::new(cfg.clone()).start(&g).unwrap_err(), GxError::NoBudget);
    assert_eq!(
        Runner::new(cfg.clone())
            .run_with_walk(&g, SrwWalk::new(&g, 0, false), rng_from_seed(1))
            .unwrap_err(),
        GxError::NoBudget
    );
    // Walk dimension mismatch.
    let cfg2 = EstimatorConfig { k: 3, d: 2, ..Default::default() };
    let err = Runner::new(cfg2)
        .steps(100)
        .run_with_walk(&g, SrwWalk::new(&g, 0, false), rng_from_seed(1))
        .unwrap_err();
    assert_eq!(err, GxError::WalkDimensionMismatch { walk_d: 1, cfg_d: 2 });
    // A custom walk is one chain: it cannot fan out.
    let err = Runner::new(cfg)
        .steps(100)
        .walkers(4)
        .run_with_walk(&g, SrwWalk::new(&g, 0, false), rng_from_seed(1))
        .unwrap_err();
    assert_eq!(err, GxError::ParallelCustomWalk { walkers: 4 });
    // Errors implement the std error trait with Display + sources.
    let err: Box<dyn std::error::Error> = Box::new(err);
    assert!(err.to_string().contains("cannot fan out"));
}

// --- Resumable handles: increments never move a bit ------------------------

#[test]
fn handle_resume_is_bit_identical_to_one_shot_for_every_fanout() {
    let g = classic::lollipop(6, 5);
    let cfg = EstimatorConfig::recommended(4);
    for walkers in [1usize, 2, 8] {
        // Fixed budgets advanced in ragged increments, at width 1 (every
        // walker its own one-lane group) and width 4 (lock-step groups).
        // 10_003 leaves walker shares unequal, so the last increment
        // runs groups whose lanes have different budgets; the second 1
        // is a resumed lane scoring a single window.
        for steps in [10_000usize, 10_003] {
            let one_shot =
                Runner::new(cfg.clone()).steps(steps).seed(11).walkers(walkers).run(&g).unwrap();
            for width in [1usize, 4] {
                let runner = Runner::new(cfg.clone())
                    .steps(steps)
                    .seed(11)
                    .walkers(walkers)
                    .batch_width(width);
                let mut handle = runner.start(&g).unwrap();
                for windows in [1usize, 137, 1, 1_000, 64, usize::MAX] {
                    handle.advance(windows);
                }
                assert!(handle.is_finished());
                let resumed = handle.finish();
                let cell = format!("fixed {steps}, walkers={walkers}, width={width}");
                assert_eq!(bits(&one_shot), bits(&resumed), "{cell}");
                assert_eq!(one_shot.valid_samples, resumed.valid_samples, "{cell}");
                assert_eq!(one_shot.accuracy, resumed.accuracy, "{cell}");
            }
        }
        // Adaptive budget on the rule's natural schedule (the check
        // cadence decides where the run stops).
        let one_shot =
            Runner::new(cfg.clone()).until(rule()).seed(11).walkers(walkers).run(&g).unwrap();
        for width in [1usize, 4] {
            let runner =
                Runner::new(cfg.clone()).until(rule()).seed(11).walkers(walkers).batch_width(width);
            let mut handle = runner.start(&g).unwrap();
            let mut increments = 0;
            while !handle.is_finished() {
                let p = handle.advance(rule().check_every);
                increments += 1;
                assert_eq!(p.steps, handle.steps());
                assert!(increments <= 1 + rule().max_steps / rule().check_every, "must terminate");
            }
            let resumed = handle.finish();
            let cell = format!("adaptive, walkers={walkers}, width={width}");
            assert_eq!(bits(&one_shot), bits(&resumed), "{cell}");
            assert_eq!(one_shot.steps, resumed.steps, "{cell}");
            assert_eq!(one_shot.accuracy, resumed.accuracy, "{cell}");
            assert_eq!(one_shot.adaptive, resumed.adaptive, "{cell}");
            // Threaded increments land on the same bits as sequential ones.
            let mut handle = runner.start(&g).unwrap();
            while !handle.is_finished() {
                handle.advance_par(rule().check_every);
            }
            assert_eq!(bits(&handle.finish()), bits(&resumed), "advance_par, {cell}");
        }
    }
}

#[test]
fn handle_interim_estimates_and_progress_are_coherent() {
    let g = classic::lollipop(6, 5);
    let cfg = EstimatorConfig::recommended(3);
    let runner = Runner::new(cfg).until(rule()).seed(5).walkers(2);
    let mut handle = runner.start(&g).unwrap();
    assert_eq!(handle.steps(), 0);
    assert!(!handle.is_finished());
    let p = handle.advance(rule().check_every);
    assert_eq!(p.steps, 2 * rule().check_every, "both walkers advanced one round");
    assert_eq!(p.rounds, 1);
    assert_eq!(p.walkers, 2);
    let interim = handle.estimate();
    assert_eq!(interim.steps, p.steps);
    assert!(interim.valid_samples > 0);
    assert!(interim.adaptive.is_some(), "interim estimates carry the report so far");
    // Interim width matches the snapshot's.
    let report = interim.adaptive().unwrap();
    let w = interim.max_relative_half_width(report.critical_value, rule().min_concentration);
    assert_eq!(w.to_bits(), p.width.to_bits(), "progress width is the pooled width");
    // Driving to completion from here matches the one-shot run.
    while !handle.is_finished() {
        handle.advance(rule().check_every);
    }
    let done = handle.finish();
    let one_shot = runner.run(&g).unwrap();
    assert_eq!(bits(&one_shot), bits(&done));
    assert_eq!(one_shot.adaptive, done.adaptive);
}

#[test]
fn progress_callback_fires_and_never_changes_output() {
    let g = classic::lollipop(6, 5);
    let cfg = EstimatorConfig::recommended(3);
    let plain = Runner::new(cfg.clone()).until(rule()).seed(13).walkers(2).run(&g).unwrap();
    let ticks: Rc<RefCell<Vec<(usize, bool)>>> = Rc::new(RefCell::new(Vec::new()));
    let sink = ticks.clone();
    let observed = Runner::new(cfg.clone())
        .until(rule())
        .seed(13)
        .walkers(2)
        .on_progress(move |p| sink.borrow_mut().push((p.steps, p.finished)))
        .run(&g)
        .unwrap();
    assert_eq!(bits(&plain), bits(&observed), "observability cannot move a bit");
    assert_eq!(plain.adaptive, observed.adaptive);
    let ticks = ticks.borrow();
    assert!(!ticks.is_empty(), "adaptive runs tick every convergence check");
    assert!(ticks.windows(2).all(|w| w[0].0 < w[1].0), "steps strictly increase");
    assert_eq!(ticks.last().unwrap().0, observed.steps);
    assert!(ticks.last().unwrap().1, "the last tick reports the run finished");
    // Fixed budgets tick too (~16 increments when a callback is set).
    let ticks: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
    let sink = ticks.clone();
    let fixed = Runner::new(cfg)
        .steps(8_000)
        .seed(13)
        .on_progress(move |p| sink.borrow_mut().push(p.steps))
        .run(&g)
        .unwrap();
    let unobserved =
        Runner::new(EstimatorConfig::recommended(3)).steps(8_000).seed(13).run(&g).unwrap();
    assert_eq!(bits(&fixed), bits(&unobserved));
    assert_eq!(fixed.accuracy, unobserved.accuracy, "chunked advance keeps the same stats");
    assert!(ticks.borrow().len() >= 8, "fixed runs with a callback tick in increments");
}

#[test]
fn with_walk_runs_drive_progress_callbacks_too() {
    // A caller-supplied chain ticks like a session run — and the
    // callback cannot move a bit of the output.
    let g = classic::lollipop(6, 5);
    let cfg = EstimatorConfig { k: 3, d: 1, css: true, ..Default::default() };
    let plain = Runner::new(cfg.clone())
        .until(rule())
        .run_with_walk(&g, SrwWalk::new(&g, 0, false), rng_from_seed(3))
        .unwrap();
    let ticks: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
    let sink = ticks.clone();
    let observed = Runner::new(cfg.clone())
        .until(rule())
        .on_progress(move |p| sink.borrow_mut().push(p.steps))
        .run_with_walk(&g, SrwWalk::new(&g, 0, false), rng_from_seed(3))
        .unwrap();
    assert_eq!(bits(&plain), bits(&observed));
    assert_eq!(plain.adaptive, observed.adaptive);
    assert_eq!(
        ticks.borrow().len(),
        plain.adaptive().unwrap().rounds,
        "one tick per convergence check"
    );
    assert_eq!(*ticks.borrow().last().unwrap(), plain.steps);
    // Fixed budgets tick in increments and stay stream-identical.
    let plain = Runner::new(cfg.clone())
        .steps(8_000)
        .run_with_walk(&g, SrwWalk::new(&g, 0, false), rng_from_seed(3))
        .unwrap();
    let ticks: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
    let sink = ticks.clone();
    let observed = Runner::new(cfg)
        .steps(8_000)
        .on_progress(move |p| sink.borrow_mut().push(p.steps))
        .run_with_walk(&g, SrwWalk::new(&g, 0, false), rng_from_seed(3))
        .unwrap();
    assert_eq!(bits(&plain), bits(&observed));
    assert_eq!(plain.accuracy, observed.accuracy, "chunked run keeps the same stats");
    assert_eq!(ticks.borrow().len(), 16);
}

#[test]
fn zero_budgets_finish_immediately_without_walking() {
    let g = classic::petersen();
    let cfg = EstimatorConfig::recommended(3);
    let est = Runner::new(cfg.clone()).steps(0).run(&g).unwrap();
    assert_eq!(est.steps, 0);
    assert_eq!(est.valid_samples, 0);
    assert!(est.raw_scores.iter().all(|&x| x == 0.0));
    let mut handle = Runner::new(cfg).steps(0).walkers(4).start(&g).unwrap();
    assert!(handle.is_finished());
    let p = handle.advance(1_000);
    assert_eq!(p.steps, 0, "advance on a finished handle is a no-op");
    assert_eq!(handle.finish().steps, 0);
}

// --- One pool: the walker-order merge of the walkers' own statistics ------

#[test]
fn pool_is_the_walker_order_merge_of_one_walker_replays() {
    // The pool is a pure function of the walkers: rebuilding each walker
    // alone (its seed, the run's batch length, its scored count) and
    // merging the replays in walker order must land on the same bits,
    // for fixed and adaptive budgets alike.
    use graphlet_rw::core::parallel::{walker_seed, walker_steps};
    let g = classic::lollipop(6, 5);
    let cfg = EstimatorConfig::recommended(3);
    let seed = 31;
    for adaptive in [false, true] {
        for walkers in [1usize, 2, 5] {
            let runner = Runner::new(cfg.clone()).seed(seed).walkers(walkers);
            let runner = if adaptive { runner.until(rule()) } else { runner.steps(30_000) };
            let est = runner.run(&g).unwrap();
            let pooled = est.accuracy().expect("every run pools statistics");
            let mut merged: Option<graphlet_rw::BatchStats> = None;
            for i in 0..walkers {
                // Fixed shares are the near-equal split; adaptive walkers
                // advance check_every per round up to their share.
                let scored = match est.adaptive() {
                    Some(report) => {
                        let share = walker_steps(rule().max_steps, walkers, i);
                        (report.rounds * rule().check_every).min(share)
                    }
                    None => walker_steps(30_000, walkers, i),
                };
                // A never-met target over exactly that share replays the
                // walker's chain with the run's batch length.
                let replay_rule = StoppingRule {
                    target_rel_ci: 1e-9,
                    max_steps: scored,
                    batch_len: pooled.batch_len(),
                    ..rule()
                };
                let replay = Runner::new(cfg.clone())
                    .until(replay_rule)
                    .seed(walker_seed(seed, i))
                    .run_local(&g)
                    .unwrap();
                assert_eq!(replay.steps, scored);
                let stats = replay.accuracy().unwrap();
                match merged.as_mut() {
                    None => merged = Some(stats.clone()),
                    Some(m) => m.merge(stats),
                }
            }
            assert_eq!(merged.as_ref(), Some(pooled), "adaptive={adaptive} walkers={walkers}");
            // With one walker the pool IS the walker's own accumulator.
            if adaptive && walkers == 1 {
                let seq = Runner::new(cfg.clone()).until(rule()).seed(seed).run_local(&g).unwrap();
                assert_eq!(seq.accuracy.as_ref(), Some(pooled));
            }
        }
    }
}
