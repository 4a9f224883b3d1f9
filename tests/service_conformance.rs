//! Service conformance suite: fairness, recovery, deadlines,
//! cancellation, admission control, shutdown — the serving-layer
//! acceptance contract on top of the PR 6 crash-resilience guarantees.
//!
//! The load-bearing assertions:
//! * **solo equivalence** — a fault-free service job is golden-bit
//!   identical to the same run driven solo through [`Runner`],
//!   regardless of how many jobs it interleaved with;
//! * **fairness / no starvation** — under deficit-round-robin on a
//!   2-worker pool, four cheap ±10% jobs each finish in exactly their
//!   solo round count of leases, with bounded lease-sequence spread,
//!   while a ±1% heavyweight neither starves them nor is starved;
//! * **recovery** — an injected worker panic quarantines the worker,
//!   spawns a replacement, and re-adopts the job from its last
//!   round-boundary checkpoint, bit-identical to the uninterrupted run;
//! * **typed ends** — deadline, cancellation, overload, shutdown, and a
//!   snapshot past the checkpoint ceiling all surface as the right
//!   [`ServiceError`], with best-effort partial estimates where one
//!   exists, and never hang (every wait here runs under a watchdog
//!   timeout).

// Watchdog timeouts here are real timing code; the Instant ban guards
// library code.
#![allow(clippy::disallowed_methods)]

use graphlet_rw::graph::generators::classic;
use graphlet_rw::service::{
    silence_injected_panics, EstimationService, JobFaults, JobHandle, JobResult, JobSpec,
    ServiceConfig,
};
use graphlet_rw::{
    CheckpointError, Estimate, EstimatorConfig, GraphAccess, GxError, Runner, ServiceError,
    StoppingRule,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WATCHDOG: Duration = Duration::from_secs(120);

fn cfg() -> EstimatorConfig {
    EstimatorConfig::recommended(3)
}

fn graph() -> Arc<graphlet_rw::Graph> {
    Arc::new(classic::lollipop(16, 8))
}

/// Two workers regardless of the host.
fn two_worker_service() -> EstimationService {
    EstimationService::start(ServiceConfig { workers: 2, ..ServiceConfig::default() })
}

fn bits(est: &Estimate) -> Vec<u64> {
    est.raw_scores.iter().map(|x| x.to_bits()).collect()
}

fn assert_estimates_bit_identical(a: &Estimate, b: &Estimate) {
    assert_eq!(bits(a), bits(b));
    assert_eq!(a.steps, b.steps);
    assert_eq!(a.valid_samples, b.valid_samples);
    assert_eq!(a.accuracy, b.accuracy);
    assert_eq!(a.adaptive, b.adaptive);
}

/// Every wait in this suite is a watchdog wait: a hung service is a
/// test failure, not a hung CI job.
fn wait(job: &JobHandle) -> JobResult {
    job.wait_timeout(WATCHDOG).expect("job must terminate under the watchdog")
}

/// The baseline a service job must reproduce: the same runner driven
/// solo in `windows`-sized rounds. Returns the estimate and the round
/// count (== the lease count a weight-1 service job needs).
fn solo<G: GraphAccess>(g: &G, runner: &Runner, windows: usize) -> (Estimate, usize) {
    let mut handle = runner.start(g).expect("valid spec");
    let mut rounds = 0usize;
    while !handle.is_finished() {
        handle.advance(windows);
        rounds += 1;
    }
    (handle.finish(), rounds)
}

#[test]
fn fixed_budget_job_is_bit_identical_to_solo_run() {
    let g = graph();
    let service = two_worker_service();
    // 8 leases of 2 500 windows each: the job round-trips through
    // checkpoint bytes seven times on its way to the same answer.
    let job = service
        .submit(JobSpec::new(g.clone(), cfg()).steps(20_000).round_windows(2_500).seed(11))
        .expect("admitted");
    let result = wait(&job);
    let est = result.outcome.expect("fault-free job must finish Ok");

    let (expected, rounds) = solo(&*g, &Runner::new(cfg()).steps(20_000).seed(11), 2_500);
    assert_estimates_bit_identical(&est, &expected);
    assert_eq!(result.leases, rounds, "weight-1 job: one round per lease");
    assert_eq!(result.recoveries, 0);
}

#[test]
fn adaptive_job_is_bit_identical_to_solo_run() {
    let g = graph();
    let rule = StoppingRule {
        target_rel_ci: 0.12,
        check_every: 1_000,
        max_steps: 24_000,
        batch_len: 128,
        min_batches: 6,
        ..Default::default()
    };
    let service = two_worker_service();
    let job = service
        .submit(JobSpec::new(g.clone(), cfg()).until(rule.clone()).seed(3))
        .expect("admitted");
    let result = wait(&job);
    let est = result.outcome.expect("adaptive job must finish Ok");

    // The service advances adaptive jobs on the rule's own cadence, so
    // the run stops at the same check a solo run stops at — bit for bit.
    let (expected, rounds) =
        solo(&*g, &Runner::new(cfg()).until(rule.clone()).seed(3), rule.check_every);
    assert_estimates_bit_identical(&est, &expected);
    assert_eq!(result.leases, rounds);
}

#[test]
fn weight_scales_rounds_per_lease() {
    let g = graph();
    let service = two_worker_service();
    let job = service
        .submit(JobSpec::new(g.clone(), cfg()).steps(16_000).round_windows(2_000).weight(4).seed(5))
        .expect("admitted");
    let result = wait(&job);
    result.outcome.expect("must finish Ok");
    // 8 rounds at 4 rounds per lease: the deficit grant batches them.
    assert_eq!(result.leases, 2);
}

/// The fairness satellite: a ±1% heavyweight submitted *first* on a
/// 2-worker pool, then four ±10% lightweights. Run-to-completion FIFO
/// would make every lightweight wait out the heavyweight; deficit
/// round-robin must interleave so each lightweight finishes in exactly
/// its solo round count of leases, with its leases spread over a
/// bounded window of the global lease sequence.
#[test]
fn light_jobs_are_not_starved_by_a_heavy_job() {
    let g = graph();
    let heavy_rule = StoppingRule {
        target_rel_ci: 0.01,
        check_every: 1_000,
        max_steps: 60_000,
        batch_len: 128,
        min_batches: 6,
        ..Default::default()
    };
    let light_rule = StoppingRule {
        target_rel_ci: 0.10,
        check_every: 1_000,
        max_steps: 16_000,
        batch_len: 128,
        min_batches: 6,
        ..Default::default()
    };
    let n_jobs = 5u64;

    let service = two_worker_service();
    let heavy = service
        .submit(JobSpec::new(g.clone(), cfg()).until(heavy_rule).seed(100))
        .expect("admitted");
    let lights: Vec<JobHandle> = (0..4)
        .map(|i| {
            service
                .submit(JobSpec::new(g.clone(), cfg()).until(light_rule.clone()).seed(200 + i))
                .expect("admitted")
        })
        .collect();

    for (i, light) in lights.iter().enumerate() {
        let result = wait(light);
        let est = result.outcome.expect("light job must complete despite the heavyweight");
        let (expected, solo_rounds) = solo(
            &*g,
            &Runner::new(cfg()).until(light_rule.clone()).seed(200 + i as u64),
            light_rule.check_every,
        );
        assert_estimates_bit_identical(&est, &expected);
        assert_eq!(
            result.leases, solo_rounds,
            "a starved job would need the same leases — but see the spread bound below"
        );
        // Bounded wait: between a job's consecutive leases the queue
        // grants at most one lease to every other incomplete job, plus
        // whatever the second worker pipelines while this job's own
        // lease is mid-flight — a small constant factor, not the
        // unbounded wait of run-to-completion FIFO (where every light
        // lease would sit behind the heavyweight's entire remaining
        // run).
        let first = result.first_lease_seq.expect("ran at least once");
        let last = result.last_lease_seq.expect("ran at least once");
        assert!(
            last - first <= 2 * (solo_rounds as u64) * n_jobs,
            "lease spread {}..{} exceeds the DRR bound for {} rounds × {} jobs",
            first,
            last,
            solo_rounds,
            n_jobs
        );
    }
    // And fairness cuts both ways: the heavyweight still completes.
    let heavy_result = wait(&heavy);
    heavy_result.outcome.expect("heavy job must also complete");
}

/// The recovery satellite, golden-bit half: a worker killed by an
/// injected panic right before round 3 loses only that lease; the job
/// is re-adopted from its round-2 checkpoint and finishes bit-identical
/// to a run that never crashed.
#[test]
fn job_recovers_bit_identical_after_worker_panic() {
    silence_injected_panics();
    let g = graph();
    let service =
        EstimationService::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
    let faults = JobFaults { panic_at_round: Some(3) };
    let job = service
        .submit(
            JobSpec::new(g.clone(), cfg())
                .steps(16_000)
                .round_windows(2_000)
                .seed(9)
                .faults(faults),
        )
        .expect("admitted");
    let result = wait(&job);
    let est = result.outcome.expect("recovered job must finish Ok");

    let (expected, _) = solo(&*g, &Runner::new(cfg()).steps(16_000).seed(9), 2_000);
    assert_estimates_bit_identical(&est, &expected);
    assert_eq!(result.recoveries, 1, "exactly one worker failure was injected");

    let stats = service.stats();
    assert_eq!(stats.quarantined_workers, 1);
    assert_eq!(stats.healthy_workers, 1, "the quarantined worker was replaced");
    assert_eq!(stats.recoveries, 1);
}

/// A job whose snapshot would pass the 64 MiB ceiling resume enforces
/// (one walker, batch length 1, a k = 5 mean vector per scored window:
/// 67.2 MB after 400,000 windows) ends once, typed, with the live run's
/// estimate attached — no worker panics on an unresumable snapshot, and
/// the watchdog turns a hang into a failure.
#[test]
fn job_whose_snapshot_passes_the_ceiling_ends_typed() {
    let g = Arc::new(classic::lollipop(8, 6));
    let service =
        EstimationService::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
    let rule = StoppingRule {
        target_rel_ci: 1e-9, // unreachable: the cap is far past the ceiling
        check_every: 100_000,
        max_steps: 2_000_000,
        batch_len: 1,
        min_batches: 2,
        ..Default::default()
    };
    let job = service
        .submit(JobSpec::new(g, EstimatorConfig::recommended(5)).until(rule).seed(1))
        .expect("admitted");
    let result = job.wait_timeout(Duration::from_secs(60));
    let stats = service.stats();
    let result = result.unwrap_or_else(|| {
        panic!("job hung with {} quarantined workers", stats.quarantined_workers)
    });
    match result.outcome {
        Err(ServiceError::Checkpoint(CheckpointError::TooLarge { len })) => {
            assert!(len > 64 << 20, "refused a {len}-byte payload under the ceiling");
        }
        other => panic!("expected a refused snapshot, got {other:?}"),
    }
    let partial = result.partial.expect("the live run's estimate is attached");
    assert_eq!(partial.steps, 400_000, "the job ends at the first refused snapshot");
    assert_eq!(result.recoveries, 0);
    assert_eq!(stats.quarantined_workers, 0);
    assert_eq!(stats.recoveries, 0);
}

#[test]
fn expired_deadline_surfaces_typed_with_best_effort_partial() {
    let g = graph();
    let service = two_worker_service();

    // Already expired at admission: never advances, no partial exists.
    let stillborn = service
        .submit(JobSpec::new(g.clone(), cfg()).steps(1_000_000).deadline(Duration::ZERO))
        .expect("admitted — deadlines do not affect admission");
    let result = wait(&stillborn);
    assert_eq!(result.outcome.unwrap_err(), ServiceError::DeadlineExceeded);
    assert!(result.partial.is_none(), "job expired before its first round");

    // Expires mid-run: the budget is far beyond what 150ms allows, so
    // the typed outcome must carry the partial estimate accumulated so
    // far (at least one 500-window round fits comfortably).
    let midflight = service
        .submit(
            JobSpec::new(g.clone(), cfg())
                .steps(50_000_000)
                .round_windows(500)
                .deadline(Duration::from_millis(150)),
        )
        .expect("admitted");
    let result = wait(&midflight);
    assert_eq!(result.outcome.unwrap_err(), ServiceError::DeadlineExceeded);
    let partial = result.partial.expect("mid-flight expiry keeps the partial");
    assert!(partial.steps > 0, "the partial reflects real progress");
    assert!(partial.steps < 50_000_000, "...and the budget was genuinely unfinishable");
}

#[test]
fn cancellation_is_cooperative_prompt_and_typed() {
    let g = graph();
    let service = two_worker_service();
    let job = service
        .submit(JobSpec::new(g.clone(), cfg()).steps(50_000_000).round_windows(500).seed(2))
        .expect("admitted");

    // Wait until the job demonstrably made progress, then cancel.
    let t0 = Instant::now();
    while job.progress().is_none() {
        assert!(t0.elapsed() < WATCHDOG, "job never reported progress");
        std::thread::sleep(Duration::from_millis(1));
    }
    job.cancel();
    job.cancel(); // idempotent

    let result = wait(&job);
    assert_eq!(result.outcome.unwrap_err(), ServiceError::Cancelled);
    let partial = result.partial.expect("cancellation keeps the partial");
    assert!(partial.steps > 0);
    assert!(job.progress().is_some(), "progress stays observable after the end");
}

#[test]
fn overload_sheds_as_typed_rejection_with_retry_hint() {
    let g = graph();
    let service = EstimationService::start(ServiceConfig { workers: 1, max_pending: 2 });
    let spec = || JobSpec::new(g.clone(), cfg()).steps(50_000_000).round_windows(500);
    let a = service.submit(spec()).expect("slot 1");
    let b = service.submit(spec()).expect("slot 2");

    let err = service.submit(spec()).expect_err("the bound is 2");
    match err {
        GxError::Service(ServiceError::Rejected { retry_after_hint }) => {
            assert!(retry_after_hint >= Duration::from_millis(1), "hint must be usable");
            assert!(retry_after_hint <= Duration::from_secs(10), "hint must be clamped");
        }
        other => panic!("expected a typed rejection, got {other:?}"),
    }
    assert_eq!(service.stats().rejected, 1);

    // Shedding is load-dependent, not permanent: drain and resubmit.
    a.cancel();
    b.cancel();
    wait(&a);
    wait(&b);
    let c = service.submit(JobSpec::new(g.clone(), cfg()).steps(4_000)).expect("readmitted");
    wait(&c).outcome.expect("healthy job on a drained service");
}

#[test]
fn shutdown_resolves_every_incomplete_job_and_refuses_new_ones() {
    let g = graph();
    let service = two_worker_service();
    let jobs: Vec<JobHandle> = (0..4)
        .map(|i| {
            service
                .submit(JobSpec::new(g.clone(), cfg()).steps(50_000_000).round_windows(500).seed(i))
                .expect("admitted")
        })
        .collect();
    service.shutdown();
    service.shutdown(); // idempotent

    for job in &jobs {
        let result = wait(job);
        assert_eq!(
            result.outcome.unwrap_err(),
            ServiceError::Shutdown,
            "unbounded budgets cannot have finished — shutdown must type them"
        );
    }
    let err = service.submit(JobSpec::new(g.clone(), cfg()).steps(100)).expect_err("stopped");
    assert!(matches!(err, GxError::Service(ServiceError::Shutdown)));
}

#[test]
fn invalid_specs_are_refused_at_the_door() {
    let g = graph();
    let service = two_worker_service();
    // No budget: the same typed error the Runner front door returns.
    let err = service.submit(JobSpec::new(g.clone(), cfg())).expect_err("budget required");
    assert!(matches!(err, GxError::NoBudget));
    // The refusal cost nothing: the service still works.
    let job = service.submit(JobSpec::new(g, cfg()).steps(4_000)).expect("admitted");
    wait(&job).outcome.expect("service unaffected by refused specs");
}

#[test]
fn concurrent_jobs_share_one_cached_snapshot() {
    let service = two_worker_service();
    let jobs: Vec<JobHandle> = (0..4)
        .map(|i| {
            // Four content-identical but *distinct* Arcs: the cache must
            // collapse them onto one CSR by fingerprint.
            let g = graph();
            service.submit(JobSpec::new(g, cfg()).steps(6_000).seed(i)).expect("admitted")
        })
        .collect();
    assert_eq!(service.stats().cached_snapshots, 1, "one distinct graph, one snapshot");
    for job in jobs {
        wait(&job).outcome.expect("all jobs complete");
    }
    // Nothing references the snapshot anymore: it is evictable.
    assert_eq!(service.evict_unused_snapshots(), 1);
    assert_eq!(service.stats().cached_snapshots, 0);
}
