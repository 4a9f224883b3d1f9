//! Conformance suite for the engine's group widths.
//!
//! Every chain advances through one engine, which runs walkers in groups
//! of `batch_width` lanes: a one-lane group steps and scores back to
//! back, a wider group runs its lanes in lock step. The hard contract:
//! for every batch width B, every walker fan-out, and both budget kinds,
//! each walker's sample sequence — and therefore the merged raw scores,
//! `BatchStats`, and `AdaptiveReport` — is **bit-identical** to width
//! 1's. Batching is memory-level parallelism only; it must never move a
//! sample.
//!
//! * matrix — B ∈ {1, 2, 8, 32} × walkers ∈ {1, 2, 8} × fixed/adaptive,
//!   each cell compared bitwise against the width-1 golden run;
//! * every walk flavor — d = 1 (SRW), d = 2 (edge walk), d = 3
//!   (enumerating walk), CSS and plain, NB and plain;
//! * cross-width resume — a checkpoint taken at width 1 finishes
//!   bit-identically at a wider width, and vice versa, in-memory and
//!   through the versioned on-disk envelope;
//! * `batch_width(0)` is the typed [`GxError::ZeroBatchWidth`], not a
//!   panic.

use graphlet_rw::graph::generators::classic;
use graphlet_rw::{EstimatorConfig, GxError, Runner, StoppingRule};

const WIDTHS: [usize; 4] = [1, 2, 8, 32];
const WALKERS: [usize; 3] = [1, 2, 8];

fn bits(est: &graphlet_rw::Estimate) -> Vec<u64> {
    est.raw_scores.iter().map(|x| x.to_bits()).collect()
}

fn assert_estimates_bit_identical(a: &graphlet_rw::Estimate, b: &graphlet_rw::Estimate) {
    assert_eq!(bits(a), bits(b));
    assert_eq!(a.steps, b.steps);
    assert_eq!(a.valid_samples, b.valid_samples);
    assert_eq!(a.accuracy, b.accuracy);
    assert_eq!(a.adaptive, b.adaptive);
}

fn rule() -> StoppingRule {
    StoppingRule {
        target_rel_ci: 0.12,
        check_every: 1_000,
        max_steps: 20_000,
        batch_len: 128,
        min_batches: 6,
        ..Default::default()
    }
}

#[test]
fn fixed_budget_matrix_matches_scalar_golden_bits() {
    let g = classic::lollipop(6, 5);
    let cfg = EstimatorConfig::recommended(4); // SRW2CSS
    for walkers in WALKERS {
        let scalar =
            Runner::new(cfg.clone()).steps(12_000).seed(42).walkers(walkers).run_local(&g).unwrap();
        for b in WIDTHS {
            let batched = Runner::new(cfg.clone())
                .steps(12_000)
                .seed(42)
                .walkers(walkers)
                .batch_width(b)
                .run_local(&g)
                .unwrap();
            assert_estimates_bit_identical(&scalar, &batched);
        }
    }
}

#[test]
fn adaptive_matrix_matches_scalar_golden_bits() {
    let g = classic::lollipop(6, 5);
    let cfg = EstimatorConfig::recommended(3); // SRW1CSSNB
    for walkers in WALKERS {
        let scalar =
            Runner::new(cfg.clone()).until(rule()).seed(7).walkers(walkers).run_local(&g).unwrap();
        for b in WIDTHS {
            let batched = Runner::new(cfg.clone())
                .until(rule())
                .seed(7)
                .walkers(walkers)
                .batch_width(b)
                .run_local(&g)
                .unwrap();
            // Covers the AdaptiveReport (rounds, convergence latches,
            // per-type widths) via the `adaptive` field comparison.
            assert_estimates_bit_identical(&scalar, &batched);
        }
    }
}

#[test]
fn every_walk_flavor_matches_scalar_golden_bits() {
    // d = 1, 2, 3 exercise SrwWalk, G2Walk, and GdWalk; CSS × NB toggles
    // cover every scoring path the batched tick schedule interleaves.
    let g = classic::petersen();
    let mut cfgs = vec![EstimatorConfig::psrw(4)]; // d = 3, plain
    for css in [false, true] {
        for nb in [false, true] {
            cfgs.push(EstimatorConfig { k: 4, d: 1, css, non_backtracking: nb, burn_in: 16 });
            cfgs.push(EstimatorConfig { k: 4, d: 2, css, non_backtracking: nb, burn_in: 16 });
        }
    }
    for cfg in cfgs {
        let scalar =
            Runner::new(cfg.clone()).steps(4_000).seed(77).walkers(2).run_local(&g).unwrap();
        for b in [2usize, 8] {
            let batched = Runner::new(cfg.clone())
                .steps(4_000)
                .seed(77)
                .walkers(2)
                .batch_width(b)
                .run_local(&g)
                .unwrap();
            assert_estimates_bit_identical(&scalar, &batched);
        }
    }
}

#[test]
fn threaded_batched_run_matches_scalar_golden_bits() {
    // `Runner::run` with walkers > 1 drives `advance_par`, whose thread
    // chunks are sub-chunked into lock-step groups — grouping must stay
    // scheduling-only there too.
    let g = classic::lollipop(6, 5);
    let cfg = EstimatorConfig::recommended(4);
    let scalar = Runner::new(cfg.clone()).steps(12_000).seed(42).walkers(8).run_local(&g).unwrap();
    for b in [2usize, 3, 8] {
        let batched = Runner::new(cfg.clone())
            .steps(12_000)
            .seed(42)
            .walkers(8)
            .batch_width(b)
            .run(&g)
            .unwrap();
        assert_estimates_bit_identical(&scalar, &batched);
    }
}

#[test]
fn checkpoint_crosses_engines_bit_identically() {
    let g = classic::lollipop(6, 5);
    let cfg = EstimatorConfig::recommended(4);
    for (start_width, resume_width) in [(1usize, 8usize), (8, 1), (2, 32)] {
        for walkers in [1usize, 8] {
            let runner =
                Runner::new(cfg.clone()).steps(12_000).seed(42).walkers(walkers).batch_width(1);
            let golden = runner.run_local(&g).unwrap();

            // Run the first increments under one engine, checkpoint,
            // "crash", resume, and finish under the other engine.
            let mut handle = Runner::new(cfg.clone())
                .steps(12_000)
                .seed(42)
                .walkers(walkers)
                .batch_width(start_width)
                .start(&g)
                .unwrap();
            handle.advance(700);
            handle.advance(700);
            let mut snap = Vec::new();
            handle.checkpoint(&mut snap).unwrap();
            drop(handle);

            let mut resumed = Runner::resume(&g, &mut snap.as_slice()).unwrap();
            // The snapshot carries the engine mode it was taken under.
            assert_eq!(resumed.batch_width(), start_width.min(walkers));
            resumed.set_batch_width(resume_width);
            while !resumed.is_finished() {
                resumed.advance(700);
            }
            assert_estimates_bit_identical(&golden, &resumed.finish());
        }
    }
}

#[test]
fn adaptive_checkpoint_crosses_engines_bit_identically() {
    let g = classic::lollipop(6, 5);
    let cfg = EstimatorConfig::recommended(3);
    for (start_width, resume_width) in [(1usize, 8usize), (8, 1)] {
        let golden =
            Runner::new(cfg.clone()).until(rule()).seed(7).walkers(8).run_local(&g).unwrap();
        let mut handle = Runner::new(cfg.clone())
            .until(rule())
            .seed(7)
            .walkers(8)
            .batch_width(start_width)
            .start(&g)
            .unwrap();
        // Adaptive runs must advance on the rule's check cadence.
        handle.advance(rule().check_every);
        let mut snap = Vec::new();
        handle.checkpoint(&mut snap).unwrap();
        drop(handle);
        let mut resumed = Runner::resume(&g, &mut snap.as_slice()).unwrap();
        resumed.set_batch_width(resume_width);
        while !resumed.is_finished() {
            resumed.advance(rule().check_every);
        }
        assert_estimates_bit_identical(&golden, &resumed.finish());
    }
}

#[test]
fn zero_batch_width_is_a_typed_error() {
    let g = classic::petersen();
    let cfg = EstimatorConfig::recommended(4);
    let err = Runner::new(cfg).steps(1_000).batch_width(0).run_local(&g).unwrap_err();
    assert_eq!(err, GxError::ZeroBatchWidth);
    assert!(err.to_string().contains("batch width"));
}

#[test]
fn width_wider_than_fan_out_clamps_and_still_matches() {
    let g = classic::petersen();
    let cfg = EstimatorConfig::recommended(4);
    let scalar = Runner::new(cfg.clone()).steps(6_000).seed(5).walkers(3).run_local(&g).unwrap();
    let wide = Runner::new(cfg.clone()).steps(6_000).seed(5).walkers(3).batch_width(32);
    let handle = wide.start(&g).unwrap();
    assert_eq!(handle.batch_width(), 3);
    drop(handle);
    assert_estimates_bit_identical(&scalar, &wide.run_local(&g).unwrap());
}
