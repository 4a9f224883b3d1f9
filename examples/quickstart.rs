//! Quickstart: estimate 3- and 4-node graphlet concentrations of a graph
//! through the one front door — `Runner` — and compare them against
//! exact values, then fan the same budget across parallel walkers.
//!
//! Run with: `cargo run --release --example quickstart`

use graphlet_rw::exact::exact_counts;
use graphlet_rw::graph::generators::holme_kim;
use graphlet_rw::graphlets::atlas;
use graphlet_rw::{available_cores, EstimatorConfig, Runner};
use rand::SeedableRng;

fn main() {
    // A 2000-node clustered scale-free graph (stand-in for a social
    // network crawl).
    let mut rng = rand_pcg::Pcg64::seed_from_u64(7);
    let g = holme_kim(2000, 4, 0.4, &mut rng);
    println!("graph: {} nodes, {} edges", g.num_nodes(), g.num_edges());

    for k in [3usize, 4] {
        // The paper's recommended configuration per k (§6.2.1):
        // SRW1CSSNB for 3-node graphlets, SRW2CSS for 4-node graphlets.
        let cfg = EstimatorConfig::recommended(k);
        let steps = 20_000; // the paper's sample budget
        let est = Runner::new(cfg.clone())
            .steps(steps)
            .seed(1)
            .run(&g)
            .expect("recommended configs are always valid");
        let exact = exact_counts(&g, k).concentrations();

        println!(
            "\nk = {k} via {} ({} steps, {} valid samples):",
            cfg.name(),
            steps,
            est.valid_samples
        );
        println!("{:>18} {:>12} {:>12} {:>9}", "graphlet", "estimated", "exact", "rel.err");
        for (info, (e, x)) in atlas(k).iter().zip(est.concentrations().iter().zip(&exact)) {
            let rel = if *x > 0.0 { (e - x).abs() / x } else { 0.0 };
            println!("{:>18} {:>12.6} {:>12.6} {:>8.1}%", info.name, e, x, 100.0 * rel);
        }
    }

    // The same estimator, fanned across independent walkers: one RNG
    // stream per walker, deterministic for a fixed (seed, walkers), and
    // bit-identical to the sequential run when walkers == 1.
    let cfg = EstimatorConfig::recommended(4);
    let par = Runner::new(cfg.clone())
        .steps(80_000)
        .seed(1)
        .walkers(available_cores()) // one walker per core
        .run(&g)
        .expect("valid configuration");
    println!(
        "\nparallel {} (auto fan-out): {} valid samples, triangle-rich types: {:?}",
        cfg.name(),
        par.valid_samples,
        &par.concentrations()[3..]
    );

    // Invalid input comes back as a typed error, not a panic — the
    // contract a serving layer builds on.
    let err = Runner::new(EstimatorConfig { k: 9, ..Default::default() }).steps(100).run(&g);
    println!("k = 9 rejected up front: {}", err.unwrap_err());
}
