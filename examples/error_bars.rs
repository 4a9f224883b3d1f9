//! Error bars and adaptive stopping: ship a confidence interval with the
//! point estimate, stop walking once it is tight enough, and cross-check
//! the variance estimator against overlapping batch means.
//!
//! Run with: `cargo run --release --example error_bars`

use graphlet_rw::core::relationship_edge_count;
use graphlet_rw::exact::exact_counts;
use graphlet_rw::graph::generators::holme_kim;
use graphlet_rw::graphlets::atlas;
use graphlet_rw::{EstimatorConfig, Runner, StoppingRule};
use rand::SeedableRng;

fn main() {
    let mut rng = rand_pcg::Pcg64::seed_from_u64(7);
    let g = holme_kim(1000, 4, 0.4, &mut rng);
    println!("graph: {} nodes, {} edges", g.num_nodes(), g.num_edges());

    // --- Fixed budget, now with error bars -----------------------------
    // Every estimate carries streaming batch-means statistics; no extra
    // configuration, no measurable slowdown.
    let cfg = EstimatorConfig::recommended(4);
    let steps = 50_000;
    let est = Runner::new(cfg.clone()).steps(steps).seed(1).run(&g).expect("valid config");
    let two_r = 2.0 * relationship_edge_count(&g, cfg.d) as f64;
    let exact = exact_counts(&g, cfg.k);

    println!("\n{} with {steps} steps — counts with 95% CIs:", cfg.name());
    println!("{:>18} {:>14} {:>26} {:>12}", "graphlet", "estimate", "95% CI", "exact");
    let counts = est.counts(two_r);
    for (i, info) in atlas(cfg.k).iter().enumerate() {
        let (lo, hi) = est.count_confidence_interval(i, two_r, 1.96);
        println!(
            "{:>18} {:>14.0} [{:>11.0}, {:>11.0}] {:>12}",
            info.name,
            counts[i],
            lo.max(0.0), // counts are non-negative; clamp the noisy floor
            hi,
            exact.counts[i],
        );
    }
    println!(
        "widest relative 95% half-width over common types: {:.1}%",
        100.0 * est.max_relative_half_width(1.96, 0.01)
    );

    // --- OBM cross-check -----------------------------------------------
    // Overlapping batch means estimate the same variance from the same
    // chain; agreement says the batch length cleared the mixing scale.
    println!("\nvariance cross-check (frequent types):");
    let stats = est.accuracy().expect("stats collected");
    for (i, info) in atlas(cfg.k).iter().enumerate() {
        if stats.concentration(i) < 0.05 {
            continue;
        }
        let (nobm, obm) = (est.std_error(i), est.obm_std_error(i));
        println!(
            "{:>18}  NOBM SE {:.3e} | OBM SE {:.3e} | ratio {:.2}",
            info.name,
            nobm,
            obm,
            obm / nobm
        );
    }

    // --- Adaptive stopping ---------------------------------------------
    // Walk until every common type's 95% CI is within ±5%, checking
    // every 20k steps, with a 2M-step safety cap.
    let rule = StoppingRule::try_new(0.05, 20_000, 2_000_000).expect("a rule that can fire");
    let adaptive =
        Runner::new(cfg.clone()).until(rule.clone()).seed(1).run(&g).expect("valid rule");
    println!(
        "\nadaptive (target ±{:.0}%): stopped after {} steps ({} valid samples), width {:.1}%",
        100.0 * rule.target_rel_ci,
        adaptive.steps,
        adaptive.valid_samples,
        100.0 * adaptive.max_relative_half_width(rule.z, rule.min_concentration),
    );

    // --- Parallel walkers pool their batches ---------------------------
    // Same interface under the parallel engine: per-walker batch
    // statistics are pooled in walker order, so the CI is deterministic
    // for a fixed (seed, walkers).
    let par = Runner::new(cfg).steps(steps).seed(1).walkers(4).run(&g).expect("valid config");
    println!(
        "\nparallel x4, same budget: widest half-width {:.1}% ({} pooled batches)",
        100.0 * par.max_relative_half_width(1.96, 0.01),
        par.accuracy().expect("stats collected").batches(),
    );
}
