//! Criterion micro-benchmarks for the cost model the paper's §5 claims:
//! per-step cost of the walks by d (O(1) for d ≤ 2, enumeration beyond),
//! the CSS overhead, classification, and the exact counters.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use gx_core::{EstimatorConfig, Runner};
use gx_datasets::dataset;
use gx_exact::{count_graphlets_esu, four_node_counts, three_node_counts};
use gx_graphlets::classify_mask;
use gx_walks::{random_start_state, rng_from_seed, G2Walk, GdWalk, SrwWalk, StateWalk};

fn bench_walk_steps(c: &mut Criterion) {
    let g = dataset("epinion-sim").graph();
    let mut group = c.benchmark_group("walk_step");
    group.bench_function("srw1", |b| {
        let mut rng = rng_from_seed(1);
        let mut w = SrwWalk::new(g, 0, false);
        b.iter(|| {
            w.step(&mut rng);
            w.state_degree()
        });
    });
    group.bench_function("g2", |b| {
        let mut rng = rng_from_seed(2);
        let (u, v) = gx_walks::random_start_edge(g, &mut rng);
        let mut w = G2Walk::new(g, u, v, false);
        b.iter(|| {
            w.step(&mut rng);
            w.state_degree()
        });
    });
    for d in [3usize, 4] {
        group.bench_function(format!("g{d}"), |b| {
            let mut rng = rng_from_seed(3);
            let start = random_start_state(g, d, &mut rng);
            let mut w = GdWalk::new(g, &start, false);
            b.iter(|| {
                w.step(&mut rng);
                w.state_degree()
            });
        });
    }
    group.finish();
}

fn bench_estimators_end_to_end(c: &mut Criterion) {
    let g = dataset("epinion-sim").graph();
    let mut group = c.benchmark_group("estimate_1k_steps");
    group.sample_size(10);
    for cfg in [
        EstimatorConfig { k: 4, d: 2, ..Default::default() },
        EstimatorConfig { k: 4, d: 2, css: true, ..Default::default() },
        EstimatorConfig { k: 4, d: 3, ..Default::default() },
        EstimatorConfig { k: 3, d: 1, css: true, non_backtracking: true, ..Default::default() },
    ] {
        group.bench_function(format!("{}_k{}", cfg.name(), cfg.k), |b| {
            let mut seed = 0u64;
            b.iter_batched(
                || {
                    seed += 1;
                    seed
                },
                |s| {
                    Runner::new(cfg.clone())
                        .steps(1_000)
                        .seed(s)
                        .run(g)
                        .expect("valid configuration")
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_classification(c: &mut Criterion) {
    let mut group = c.benchmark_group("classify");
    group.bench_function("classify_mask_k5", |b| {
        let mut m = 0u32;
        b.iter(|| {
            m = (m + 37) % 1024;
            classify_mask(5, m)
        });
    });
    group.finish();
}

fn bench_exact_counters(c: &mut Criterion) {
    let g = dataset("brightkite-sim").graph();
    let mut group = c.benchmark_group("exact");
    group.sample_size(10);
    group.bench_function("three_node_closed_form", |b| b.iter(|| three_node_counts(g)));
    group.bench_function("four_node_closed_form", |b| b.iter(|| four_node_counts(g)));
    group.bench_function("esu_k4", |b| b.iter(|| count_graphlets_esu(g, 4)));
    group.finish();
}

criterion_group!(
    benches,
    bench_walk_steps,
    bench_estimators_end_to_end,
    bench_classification,
    bench_exact_counters
);
criterion_main!(benches);
