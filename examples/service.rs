//! Estimation as a service: one shared worker pool, many concurrent
//! jobs, typed ends for all of them.
//!
//! The demo submits a small fleet against one shared graph snapshot:
//!
//! * four ordinary jobs at different accuracies and seeds — all finish
//!   `Ok`, each bit-identical to what a solo [`Runner`] run of the same
//!   spec produces;
//! * one long job cancelled mid-flight — it ends as the typed
//!   [`ServiceError::Cancelled`] carrying the partial estimate it had
//!   accumulated;
//! * one job whose worker is killed by an injected panic — the worker
//!   is quarantined and replaced, the job is re-adopted from its last
//!   round-boundary checkpoint, and it still finishes `Ok`,
//!   bit-identical to the crash-free run.
//!
//! Run with `cargo run --release --example service`.

// Demo prints wall-clock timings; the Instant ban guards library code.
#![allow(clippy::disallowed_methods)]

use graphlet_rw::graph::generators::holme_kim;
use graphlet_rw::service::{silence_injected_panics, EstimationService, JobFaults, JobSpec};
use graphlet_rw::{EstimatorConfig, Runner, ServiceConfig, ServiceError};
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    // Injected worker panics are part of the demo; keep their
    // backtraces out of the output. Real panics still print.
    silence_injected_panics();

    let mut rng = rand_pcg::Pcg64::seed_from_u64(7);
    let g = Arc::new(holme_kim(400, 4, 0.4, &mut rng));
    let cfg = EstimatorConfig::recommended(4);

    let service = EstimationService::start(ServiceConfig { workers: 2, ..Default::default() });
    println!("service up: 2 workers, shared snapshot of {} nodes\n", g.num_nodes());

    // --- A fleet of ordinary jobs: different budgets and seeds, one
    // shared CSR (the cache collapses every submission of `g`).
    let fleet: Vec<_> = (0..4)
        .map(|i| {
            let steps = 40_000 + 20_000 * i as usize;
            let job = service
                .submit(JobSpec::new(g.clone(), cfg.clone()).steps(steps).seed(i))
                .expect("admitted");
            (i, steps, job)
        })
        .collect();

    // --- One long job we will cancel mid-flight.
    let cancelled = service
        .submit(
            JobSpec::new(g.clone(), cfg.clone()).steps(50_000_000).round_windows(2_000).seed(99),
        )
        .expect("admitted");

    // --- One job whose worker dies (injected) right before round 3: the
    // service quarantines the worker and re-adopts the job from its
    // round-2 checkpoint on the replacement.
    let recovered = service
        .submit(
            JobSpec::new(g.clone(), cfg.clone())
                .steps(60_000)
                .round_windows(10_000)
                .seed(7)
                .faults(JobFaults { panic_at_round: Some(3) }),
        )
        .expect("admitted");

    // Cancel once the long job demonstrably made progress.
    let t0 = Instant::now();
    while cancelled.progress().is_none() && t0.elapsed() < Duration::from_secs(30) {
        std::thread::sleep(Duration::from_millis(1));
    }
    cancelled.cancel();

    for (i, steps, job) in fleet {
        let result = job.wait();
        let est = result.outcome.expect("fault-free job");
        let solo = Runner::new(cfg.clone()).steps(steps).seed(i).run(&*g).expect("valid spec");
        let identical = est
            .raw_scores
            .iter()
            .map(|x| x.to_bits())
            .eq(solo.raw_scores.iter().map(|x| x.to_bits()));
        println!(
            "job {i}: Ok after {} leases, {} steps, bit-identical to solo run: {identical}",
            result.leases, est.steps
        );
        assert!(identical);
    }

    let result = cancelled.wait();
    match result.outcome {
        Err(ServiceError::Cancelled) => {
            let partial = result.partial.expect("cancelled mid-flight keeps the partial");
            println!(
                "\ncancelled job: typed Cancelled after {} of 50M steps (partial estimate kept)",
                partial.steps
            );
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }

    let result = recovered.wait();
    let est = result.outcome.expect("re-adopted job finishes Ok");
    let solo = Runner::new(cfg.clone()).steps(60_000).seed(7).run(&*g).expect("valid spec");
    assert_eq!(
        est.raw_scores.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        solo.raw_scores.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        "recovery replays from the round boundary — bit-identical"
    );
    println!(
        "recovered job: worker killed at round 3, {} recovery, finished Ok, bit-identical to a crash-free run",
        result.recoveries
    );

    let stats = service.stats();
    println!(
        "\nstats: {} submitted, {} completed, {} leases, {} quarantined worker(s), {} healthy",
        stats.submitted,
        stats.completed,
        stats.leases,
        stats.quarantined_workers,
        stats.healthy_workers
    );
    service.shutdown();
    println!("service drained and stopped.");
}
