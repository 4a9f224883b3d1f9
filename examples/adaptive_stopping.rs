//! Adaptive parallel stopping through the `Runner` front door: every
//! core cooperates on one accuracy budget — "give me 4-node graphlet
//! counts to ±5% at 95% confidence" — with live progress callbacks,
//! per-type convergence reporting, studentized small-sample intervals,
//! a measured burn-in suggestion, and the width curve that answers "how
//! many steps would ±1% take?".
//!
//! Run with: `cargo run --release --example adaptive_stopping`

use graphlet_rw::graph::generators::holme_kim;
use graphlet_rw::graphlets::atlas;
use graphlet_rw::{measure_burn_in, EstimatorConfig, Runner, StoppingRule};
use rand::SeedableRng;

fn main() {
    let mut rng = rand_pcg::Pcg64::seed_from_u64(7);
    let g = holme_kim(1000, 4, 0.4, &mut rng);
    println!("graph: {} nodes, {} edges", g.num_nodes(), g.num_edges());

    // --- Measured burn-in ----------------------------------------------
    // Instead of guessing `burn_in`, run a short pilot and compare the
    // first batches against the chain's steady-state batch-mean
    // distribution. On well-connected graphs the answer is usually 0 —
    // which is exactly the useful thing to know.
    let cfg = EstimatorConfig::recommended(4);
    let pilot = measure_burn_in(&g, &cfg, 99, 16_384, 512).expect("a pilot of 32 batches");
    println!(
        "\nburn-in pilot: first-batch z = {:+.2}, suggested burn-in = {} steps",
        pilot.first_batch_z, pilot.suggested_burn_in
    );
    let cfg = cfg.with_burn_in(pilot.suggested_burn_in);

    // --- Adaptive parallel run with per-type stopping ------------------
    // Four persistent walkers (no re-burn-in between rounds) advance in
    // `check_every`-step rounds; between rounds the coordinator folds
    // each walker's new batches into the pooled statistics and stops
    // once every common type's own CI meets the target. While the
    // pooled batch count is small the critical value is the Student-t
    // quantile, not z. The `on_progress` callback watches every check.
    let rule = StoppingRule {
        target_rel_ci: 0.05,
        check_every: 10_000,
        max_steps: 2_000_000,
        per_type: true,
        ..Default::default()
    };
    let est = Runner::new(cfg)
        .until(rule.clone())
        .seed(1)
        .walkers(4)
        .on_progress(|p| {
            println!(
                "  check {:>2}: {:>8} steps, {:>3} batches, width {:>6}",
                p.rounds,
                p.steps,
                p.batches,
                if p.width.is_nan() {
                    "--".to_string()
                } else {
                    format!("{:.1}%", 100.0 * p.width)
                },
            );
        })
        .run(&g)
        .expect("valid configuration and rule");
    let report = est.adaptive().expect("adaptive runs carry a report");
    println!(
        "\n{} ±{:.0}% per-type: {} steps over {} walkers, {} rounds, target met: {}",
        est.config.name(),
        100.0 * rule.target_rel_ci,
        est.steps,
        report.walkers,
        report.rounds,
        report.target_met,
    );
    println!("critical value at stop: {:.3} (1.96 = plain z)", report.critical_value);
    println!("{:>18} {:>11} {:>10} {:>10}", "graphlet", "steps_used", "converged", "width");
    for (i, info) in atlas(est.config.k).iter().enumerate() {
        let w = est.relative_half_width(i, report.critical_value);
        println!(
            "{:>18} {:>11} {:>10} {:>9.1}%",
            info.name,
            report.steps_used[i],
            report.converged[i],
            100.0 * w,
        );
    }

    // --- Budget planning from the width curve --------------------------
    // Batch-means widths shrink like 1/√n, so the steps needed for a
    // tighter target follow from any observed (steps, width) point:
    // n_target ≈ n_observed × (w_observed / w_target)².
    let observed = est.max_relative_half_width(report.critical_value, rule.min_concentration);
    for target in [0.02, 0.01] {
        let projected = est.steps as f64 * (observed / target).powi(2);
        println!(
            "projected budget for ±{:.0}%: ~{:.1}M steps (from {:.2}% at {} steps)",
            100.0 * target,
            projected / 1e6,
            100.0 * observed,
            est.steps,
        );
    }
}
