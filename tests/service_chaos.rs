//! Seed-pinned chaos test: many concurrent jobs under simultaneous
//! worker panics, tiny deadlines, overload shedding, and random
//! mid-flight cancellations.
//!
//! The single invariant under all of that: **every submitted job
//! terminates, under a watchdog, with exactly one typed outcome** —
//! `Ok`, `Cancelled`, `DeadlineExceeded`,
//! `Rejected`, or `Shutdown` — and no panic ever escapes the service.
//!
//! Fault plans and job specs derive from a pinned SplitMix64 stream, so
//! a failing seed replays exactly. Scale knobs for soak runs:
//! `GX_CHAOS_JOBS` (jobs per wave, default 16) and `GX_CHAOS_SEEDS`
//! (waves, default 2).

use graphlet_rw::graph::generators::classic;
use graphlet_rw::service::{
    silence_injected_panics, EstimationService, JobFaults, JobHandle, JobSpec, ServiceConfig,
};
use graphlet_rw::{EstimatorConfig, GxError, ServiceError, StoppingRule};
use std::num::NonZeroUsize;
use std::sync::Arc;
use std::time::Duration;

const WATCHDOG: Duration = Duration::from_secs(120);

/// Latest job round an injected worker panic is drawn at.
const MAX_PANIC_ROUND: NonZeroUsize = NonZeroUsize::new(4).unwrap();

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// One chaos wave: build `jobs` adversarial specs from the seed stream,
/// throw them at a 2-worker service, cancel a random subset mid-flight,
/// and check the typed-outcome totality invariant on every handle.
fn chaos_wave(wave_seed: u64, jobs: usize) {
    let mut ctr = wave_seed;
    let mut next = move || {
        ctr = ctr.wrapping_add(1);
        splitmix(ctr)
    };
    let graphs = [Arc::new(classic::lollipop(16, 8)), Arc::new(classic::petersen())];

    let service = EstimationService::start(ServiceConfig {
        workers: 2,
        // Below the wave size, so overload shedding is part of the chaos.
        max_pending: (jobs * 3 / 4).max(1),
    });

    let mut admitted: Vec<(usize, JobHandle)> = Vec::new();
    let mut rejected = 0usize;
    for i in 0..jobs {
        let g = graphs[(next() % 2) as usize].clone();
        let cfg = EstimatorConfig::recommended(3);
        let mut spec = JobSpec::new(g, cfg)
            .seed(next())
            .walkers(1 + (next() % 4) as usize)
            .weight(1 + (next() % 3) as u32)
            .round_windows(500 + (next() % 1_500) as usize)
            .faults(JobFaults::from_seed(next(), MAX_PANIC_ROUND));
        spec = match next() % 3 {
            0 => spec.steps(4_000 + (next() % 8_000) as usize),
            1 => spec.until(StoppingRule {
                target_rel_ci: 0.10,
                check_every: 1_000,
                max_steps: 12_000,
                batch_len: 128,
                min_batches: 6,
                ..Default::default()
            }),
            // A budget that cannot finish: only a deadline, a cancel, or
            // shutdown can end this job — all typed.
            _ => spec
                .steps(50_000_000)
                .round_windows(500)
                .deadline(Duration::from_millis(1 + (next() % 40))),
        };
        match service.submit(spec) {
            Ok(handle) => admitted.push((i, handle)),
            Err(GxError::Service(ServiceError::Rejected { retry_after_hint })) => {
                assert!(retry_after_hint >= Duration::from_millis(1));
                rejected += 1;
            }
            Err(other) => panic!("chaos spec {i} refused with unexpected error: {other:?}"),
        }
    }
    assert!(!admitted.is_empty(), "admission bound must not shed everything");

    // Random mid-flight cancellations (roughly a third of the wave),
    // racing freely against progress, faults, and deadlines.
    for (i, handle) in &admitted {
        if splitmix(wave_seed ^ (*i as u64) << 32).is_multiple_of(3) {
            handle.cancel();
        }
    }

    for (i, handle) in &admitted {
        let result = handle
            .wait_timeout(WATCHDOG)
            .unwrap_or_else(|| panic!("chaos job {i} hung past the watchdog"));
        match &result.outcome {
            Ok(est) => {
                assert!(est.steps > 0, "an Ok job did real work");
                assert!(
                    est.raw_scores.iter().all(|x| x.is_finite()),
                    "chaos must never corrupt an estimate"
                );
            }
            Err(ServiceError::Cancelled) | Err(ServiceError::DeadlineExceeded) => {
                if let Some(partial) = &result.partial {
                    assert!(partial.raw_scores.iter().all(|x| x.is_finite()));
                }
            }
            Err(ServiceError::Shutdown) => panic!("nobody shut the service down yet"),
            Err(ServiceError::Rejected { .. }) => panic!("admitted jobs cannot be rejected"),
            Err(ServiceError::Checkpoint(e)) => panic!("chaos snapshots are kilobytes: {e}"),
        }
    }

    let stats = service.stats();
    assert_eq!(stats.rejected as usize, rejected);
    assert_eq!(stats.completed as usize, admitted.len(), "every admitted job terminated");
    assert_eq!(stats.queued, 0);
    assert_eq!(stats.in_flight, 0);
    assert_eq!(
        stats.healthy_workers, 2,
        "every quarantined worker must have been replaced (had {} quarantines)",
        stats.quarantined_workers
    );
    service.shutdown();
}

#[test]
fn chaos_every_job_terminates_with_exactly_one_typed_outcome() {
    silence_injected_panics();
    let jobs = env_usize("GX_CHAOS_JOBS", 16);
    let waves = env_usize("GX_CHAOS_SEEDS", 2);
    for wave in 0..waves as u64 {
        chaos_wave(0xC0FF_EE00 ^ (wave * 0x9E37_79B9), jobs);
    }
}

/// Shutdown racing a live chaos wave: jobs still in flight when the
/// plug is pulled must resolve as `Shutdown` (or `Ok`/typed if they beat
/// it), and the shutdown itself must not hang on faulted workers.
#[test]
fn chaos_shutdown_mid_wave_leaves_no_waiter_hanging() {
    silence_injected_panics();
    let g = Arc::new(classic::lollipop(16, 8));
    let service =
        EstimationService::start(ServiceConfig { workers: 2, ..ServiceConfig::default() });
    let handles: Vec<JobHandle> = (0..8)
        .map(|i| {
            let faults = JobFaults { panic_at_round: (i % 3 == 0).then_some(2) };
            service
                .submit(
                    JobSpec::new(g.clone(), EstimatorConfig::recommended(3))
                        .steps(50_000_000)
                        .round_windows(500)
                        .seed(i as u64)
                        .faults(faults),
                )
                .expect("admitted")
        })
        .collect();
    // Let the pool pick work up, then pull the plug mid-flight.
    std::thread::sleep(Duration::from_millis(20));
    service.shutdown();
    for (i, handle) in handles.iter().enumerate() {
        let result =
            handle.wait_timeout(WATCHDOG).unwrap_or_else(|| panic!("job {i} hung across shutdown"));
        assert_eq!(
            result.outcome.expect_err("an unbounded budget cannot have finished"),
            ServiceError::Shutdown
        );
    }
}
