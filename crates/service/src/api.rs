//! The service front door: [`EstimationService::submit`] /
//! [`JobHandle`] — submit, poll, cancel, wait.
//!
//! A [`JobSpec`] is the serving-layer twin of [`gx_core::Runner`]: the
//! same config × budget × fan-out × seed axes, plus the job-level knobs
//! a multiplexed run needs (scheduling weight, deadline, fault plan).
//! Every job submitted to a live service terminates in exactly one
//! typed outcome — `Ok(Estimate)` or a
//! [`ServiceError`] — never a hang, never an
//! escaped panic.

use crate::cache::{SharedGraph, SnapshotCache};
use crate::scheduler::{self, JobShared, ServiceShared};
use crate::sync::{locked, wait_timeout_unpoisoned, wait_unpoisoned};
use gx_core::parallel::available_cores;
use gx_core::{Estimate, EstimatorConfig, GxError, Progress, ServiceError, StoppingRule};
use gx_graph::{Graph, MmapGraph};
use gx_walks::derive_seed;
use std::num::NonZeroUsize;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Identifier of a submitted job, unique within one service.
pub type JobId = u64;

/// The job's step budget — the service-side mirror of the runner's
/// fixed/adaptive axis.
#[derive(Debug, Clone)]
pub(crate) enum JobBudget {
    /// Score exactly this many windows.
    Fixed(usize),
    /// Walk until the rule converges (or its cap).
    Until(StoppingRule),
}

/// Deterministic fault plan for one job: the failure the *pool* (not a
/// single run) must survive. The default injects nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobFaults {
    /// Panic the worker right before it would advance this job round
    /// (1-based), exactly once. Exercises worker quarantine +
    /// checkpoint re-adoption; the panic payload is
    /// [`crate::InjectedWorkerPanic`].
    pub panic_at_round: Option<usize>,
}

impl JobFaults {
    /// A deterministic pseudo-random plan (SplitMix64 over `seed`, see
    /// [`gx_walks::derive_seed`]): the panic fires with probability
    /// ~1/3, at a round drawn from `1..=max_round`. Same seed, same
    /// plan — the chaos-test form of hand-picking faults.
    pub fn from_seed(seed: u64, max_round: NonZeroUsize) -> Self {
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_add(1);
            let z = x.wrapping_mul(0xA076_1D64_78BD_642F);
            derive_seed(z.wrapping_add(0x9E37_79B9_7F4A_7C15), 0)
        };
        // The stream once drew a walker poisoning first (a tag, then
        // its walker and round under one more draw). Consuming those
        // draws keeps every seed's panic round where it was.
        if next() % 3 == 0 {
            next();
        }
        let mut faults = Self::default();
        if next() % 3 == 0 {
            faults.panic_at_round = Some(1 + (next() % max_round.get() as u64) as usize);
        }
        faults
    }
}

/// One estimation job: which graph, what to estimate, how accurately,
/// and under which serving constraints. Built with method chaining and
/// submitted via [`EstimationService::submit`].
#[derive(Debug, Clone)]
pub struct JobSpec {
    pub(crate) graph: SharedGraph,
    pub(crate) cfg: EstimatorConfig,
    pub(crate) budget: Option<JobBudget>,
    pub(crate) walkers: usize,
    pub(crate) seed: u64,
    pub(crate) weight: u32,
    pub(crate) deadline: Option<Duration>,
    pub(crate) round_windows: Option<usize>,
    pub(crate) faults: JobFaults,
}

impl JobSpec {
    /// A job estimating `cfg` on `g`, with no budget yet, one walker,
    /// seed 0, weight 1, no deadline, and no faults. Submitting the
    /// same `Arc` (or the canonical one a previous submit shared) skips
    /// the per-submit fingerprint scan.
    pub fn new(g: Arc<Graph>, cfg: EstimatorConfig) -> Self {
        Self::over(SharedGraph::Ram(g), cfg)
    }

    /// [`JobSpec::new`] over a mapped `.gxsn` snapshot (see
    /// [`gx_graph::MmapGraph`]): the job runs straight off the page
    /// cache, and submissions of the same snapshot share one mapping
    /// through the service's [`SnapshotCache`].
    pub fn new_mapped(g: Arc<MmapGraph>, cfg: EstimatorConfig) -> Self {
        Self::over(SharedGraph::Mapped(g), cfg)
    }

    /// The common constructor over either backend.
    pub fn over(graph: SharedGraph, cfg: EstimatorConfig) -> Self {
        Self {
            graph,
            cfg,
            budget: None,
            walkers: 1,
            seed: 0,
            weight: 1,
            deadline: None,
            round_windows: None,
            faults: JobFaults::default(),
        }
    }

    /// Fixed budget: score exactly `steps` windows.
    pub fn steps(mut self, steps: usize) -> Self {
        self.budget = Some(JobBudget::Fixed(steps));
        self
    }

    /// Adaptive budget: walk until `rule` converges or its cap.
    pub fn until(mut self, rule: StoppingRule) -> Self {
        self.budget = Some(JobBudget::Until(rule));
        self
    }

    /// Fan the budget over `walkers` independent chains.
    pub fn walkers(mut self, walkers: usize) -> Self {
        self.walkers = walkers;
        self
    }

    /// Seed of the run (same contract as [`gx_core::Runner::seed`]).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Scheduling weight: rounds granted per scheduler cycle (clamped
    /// to ≥ 1). A weight-2 job advances twice per deficit-round-robin
    /// cycle; it gets done sooner but cannot starve anyone — every
    /// job's grant still arrives once per cycle.
    pub fn weight(mut self, weight: u32) -> Self {
        self.weight = weight.max(1);
        self
    }

    /// Deadline, measured from admission. An expired job terminates as
    /// [`ServiceError::DeadlineExceeded`] with its best-effort partial
    /// estimate attached — the clock runs while queued, so a starved
    /// job times out honestly.
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Scored windows per scheduler round for **fixed** budgets
    /// (default `steps / 8`, floor 1). Fixed-budget output is
    /// schedule-independent, so this only trades scheduling granularity
    /// against per-lease overhead. Adaptive budgets always advance on
    /// their rule's `check_every` cadence — the check schedule decides
    /// where the run stops, and keeping it makes a service job
    /// golden-bit identical to the same run driven solo.
    pub fn round_windows(mut self, windows: usize) -> Self {
        self.round_windows = Some(windows.max(1));
        self
    }

    /// Attaches a deterministic [`JobFaults`] plan (robustness testing
    /// only).
    pub fn faults(mut self, faults: JobFaults) -> Self {
        self.faults = faults;
        self
    }
}

/// How the service terminated one job — every field observable exactly
/// once the job is done (via [`JobHandle::wait`] or
/// [`JobHandle::try_result`]). A finished estimate pools every walker's
/// full share; a worker panic the service recovered from shows only in
/// [`JobResult::recoveries`].
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The typed terminal outcome: the finished estimate, or why the
    /// service ended the job early.
    pub outcome: Result<Estimate, ServiceError>,
    /// Best-effort partial estimate for jobs ended early (cancelled /
    /// deadline-exceeded after at least one scheduler round, or a
    /// refused snapshot). `None` when the job never advanced.
    pub partial: Option<Estimate>,
    /// Scheduler leases the job received (excluding leases lost to a
    /// worker failure).
    pub leases: usize,
    /// Times the job was re-adopted from its checkpoint after a worker
    /// failure.
    pub recoveries: usize,
    /// Global lease sequence number of the job's first lease.
    pub first_lease_seq: Option<u64>,
    /// Global lease sequence number of the job's last lease.
    pub last_lease_seq: Option<u64>,
}

/// The submitter's handle to one job: poll progress, cancel, await the
/// typed outcome. Dropping the handle does **not** cancel the job.
#[derive(Debug, Clone)]
pub struct JobHandle {
    pub(crate) shared: Arc<JobShared>,
}

impl JobHandle {
    /// The job's service-unique id.
    pub fn id(&self) -> JobId {
        self.shared.id
    }

    /// Requests cooperative cancellation: the worker observes the flag
    /// between scheduler rounds and terminates the job as
    /// [`ServiceError::Cancelled`] with its partial estimate attached.
    /// Idempotent; a job that finishes before noticing stays `Ok`.
    pub fn cancel(&self) {
        self.shared.cancel.store(true, Ordering::Release);
    }

    /// The latest [`Progress`] snapshot (updated after every scheduler
    /// round), `None` before the job's first round.
    pub fn progress(&self) -> Option<Progress> {
        *locked(&self.shared.progress)
    }

    /// The result if the job already terminated, without blocking.
    pub fn try_result(&self) -> Option<JobResult> {
        locked(&self.shared.result).clone()
    }

    /// Blocks until the job terminates. Always returns on a live or
    /// shut-down service: shutdown resolves every incomplete job as
    /// [`ServiceError::Shutdown`] rather than leaving waiters hanging.
    pub fn wait(&self) -> JobResult {
        let mut slot = locked(&self.shared.result);
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = wait_unpoisoned(&self.shared.done, slot);
        }
    }

    /// [`JobHandle::wait`] bounded by `timeout` — the watchdog form.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<JobResult> {
        // Wall-clock deadline arithmetic is inherently timing code.
        #[allow(clippy::disallowed_methods)]
        let deadline = Instant::now() + timeout;
        let mut slot = locked(&self.shared.result);
        while slot.is_none() {
            #[allow(clippy::disallowed_methods)]
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            let (s, _) = wait_timeout_unpoisoned(&self.shared.done, slot, left);
            slot = s;
        }
        slot.clone()
    }
}

/// Sizing and policy of an [`EstimationService`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads in the pool (clamped to ≥ 1). Defaults to the
    /// machine's available cores.
    pub workers: usize,
    /// Admission bound: maximum incomplete (queued + in-flight) jobs
    /// before submissions shed as [`ServiceError::Rejected`].
    pub max_pending: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self { workers: available_cores(), max_pending: 64 }
    }
}

/// A point-in-time observability snapshot of the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Worker threads currently pulling leases.
    pub healthy_workers: usize,
    /// Workers quarantined after a panic (each was replaced, so
    /// capacity is unchanged).
    pub quarantined_workers: usize,
    /// Jobs waiting in the ready queue.
    pub queued: usize,
    /// Jobs currently leased to a worker.
    pub in_flight: usize,
    /// Jobs terminated (any outcome).
    pub completed: u64,
    /// Jobs offered to `submit` (admitted or not).
    pub submitted: u64,
    /// Jobs shed by admission control.
    pub rejected: u64,
    /// Scheduler leases granted so far.
    pub leases: u64,
    /// Jobs re-adopted from a checkpoint after a worker failure
    /// (counted per failure, not per job).
    pub recoveries: u64,
    /// Distinct graph snapshots in the shared cache.
    pub cached_snapshots: usize,
}

/// A fault-tolerant multi-job estimation service: a fixed worker pool
/// multiplexing many concurrent jobs over shared graph snapshots.
///
/// * **Fairness** — deficit-round-robin over `advance(windows)` rounds:
///   every incomplete job's next grant is at most one scheduler cycle
///   away, so a ±1% job cannot starve a ±10% job (see
///   [`JobSpec::weight`]).
/// * **Robustness** — per-job deadlines and cooperative cancellation
///   terminate as typed [`ServiceError`]s with
///   partial estimates attached; admission control sheds overload as
///   `Rejected` with a retry hint; a job whose snapshot the writer
///   refuses ends once, as [`ServiceError::Checkpoint`] with its live
///   estimate attached; a panicking worker is quarantined and replaced
///   while its job is re-adopted from its last round-boundary
///   checkpoint by a surviving worker.
/// * **Determinism** — a job's advance schedule is its own (the rule's
///   `check_every` cadence, or the fixed-budget increment), independent
///   of how jobs interleave, so a fault-free service job is golden-bit
///   identical to the same run driven solo through [`gx_core::Runner`].
///
/// ```
/// use gx_service::{EstimationService, JobSpec, ServiceConfig};
/// use gx_core::EstimatorConfig;
/// use std::sync::Arc;
///
/// let g = Arc::new(gx_graph::generators::classic::paper_figure1());
/// let service = EstimationService::start(ServiceConfig::default());
/// let job = service
///     .submit(JobSpec::new(g, EstimatorConfig::recommended(3)).steps(5_000).seed(7))
///     .expect("admitted");
/// let result = job.wait();
/// assert!(result.outcome.is_ok());
/// ```
#[derive(Debug)]
pub struct EstimationService {
    shared: Arc<ServiceShared>,
}

impl EstimationService {
    /// Starts the worker pool and returns the service front door.
    pub fn start(config: ServiceConfig) -> Self {
        Self { shared: ServiceShared::start(config) }
    }

    /// Submits a job. Returns the handle, or a typed refusal:
    /// [`GxError::Service`] with [`ServiceError::Rejected`] when
    /// admission control sheds it (resubmit after the hint) or
    /// [`ServiceError::Shutdown`] on a stopped service, and the same
    /// config/rule/fan-out [`GxError`]s [`gx_core::Runner`] would
    /// return for an invalid spec — invalid jobs are refused at the
    /// door, not discovered on a worker.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, GxError> {
        scheduler::submit(&self.shared, spec)
    }

    /// A point-in-time stats snapshot.
    pub fn stats(&self) -> ServiceStats {
        self.shared.stats()
    }

    /// Drops cached graph snapshots no incomplete job references,
    /// returning how many were evicted.
    pub fn evict_unused_snapshots(&self) -> usize {
        self.shared.cache.evict_unused()
    }

    /// The shared snapshot cache (mainly for tests and diagnostics).
    pub fn snapshot_cache(&self) -> &SnapshotCache {
        &self.shared.cache
    }

    /// Stops the service: running leases finish, every incomplete job
    /// resolves as [`ServiceError::Shutdown`] (waiters never hang), and
    /// the worker threads are joined. Idempotent; also invoked by
    /// `Drop`.
    pub fn shutdown(&self) {
        scheduler::shutdown(&self.shared);
    }
}

impl Drop for EstimationService {
    fn drop(&mut self) {
        scheduler::shutdown(&self.shared);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_faults_from_seed_keeps_its_draws() {
        // Pinned against the plans drawn before the checkpoint-failure
        // family (the stream's last draw) and the walker poisoning (its
        // first) were removed: every seed keeps its panic draw.
        let pinned = [
            (0u64, None),
            (1, None),
            (7, Some(2usize)),
            (42, Some(1)),
            (99, None),
            (0xC0FF_EE00, Some(7)),
            (u64::MAX, Some(7)),
        ];
        let max_round = NonZeroUsize::new(8).unwrap();
        for (seed, panic_at_round) in pinned {
            let faults = JobFaults::from_seed(seed, max_round);
            assert_eq!(faults.panic_at_round, panic_at_round, "seed {seed}");
        }
    }
}
