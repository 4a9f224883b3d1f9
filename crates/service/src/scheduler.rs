//! The worker pool and deficit-round-robin scheduler.
//!
//! All shared state lives in one `Mutex<State>` + `Condvar` pair:
//! workers pull job ids off a FIFO ready queue, copy everything a lease
//! needs out of the job record *under the lock*, then run the lease with
//! **no lock held** — so a panicking lease can poison nothing, and the
//! `catch_unwind` boundary in [`worker_loop`] turns a dead worker into a
//! quarantine + re-adoption event instead of a lost job.
//!
//! Fairness is deficit round-robin: a job banks `weight` rounds each
//! time it is granted a lease, spends them in that lease, and rejoins
//! the queue tail. The FIFO queue bounds the wait between any job's
//! consecutive leases by one full cycle over the incomplete jobs, so a
//! cheap high-accuracy job cannot starve the cheap ones behind it.

use crate::admission::{Admission, LeaseClock};
use crate::api::{
    JobBudget, JobFaults, JobHandle, JobId, JobResult, JobSpec, ServiceConfig, ServiceStats,
};
use crate::cache::{SharedGraph, SnapshotCache};
use crate::deadline::Deadline;
use crate::recovery::{run_lease, Lease, LeaseEnd};
use crate::sync::{locked, wait_unpoisoned};
use gx_core::{Estimate, EstimatorConfig, GxError, Progress, Runner, ServiceError};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The slot a job's submitter holds: cancel flag in, progress and the
/// terminal [`JobResult`] out. Everything here outlives the scheduler's
/// job record, so handles stay usable after the job resolves (and after
/// the service shuts down).
#[derive(Debug)]
pub(crate) struct JobShared {
    pub id: JobId,
    /// Cooperative cancellation flag (set by [`JobHandle::cancel`]).
    pub cancel: AtomicBool,
    /// Latest per-round progress snapshot.
    pub progress: Mutex<Option<Progress>>,
    /// The terminal result, written exactly once.
    pub result: Mutex<Option<JobResult>>,
    /// Signalled when `result` is filled.
    pub done: Condvar,
}

impl JobShared {
    fn new(id: JobId) -> Self {
        Self {
            id,
            cancel: AtomicBool::new(false),
            progress: Mutex::new(None),
            result: Mutex::new(None),
            done: Condvar::new(),
        }
    }
}

/// The scheduler's record of one incomplete job. Between leases the
/// job's entire run state is `snapshot` — see the module docs of
/// [`crate::recovery`] for why that single representation is the point.
struct JobRecord {
    graph: SharedGraph,
    fingerprint: u64,
    cfg: EstimatorConfig,
    budget: JobBudget,
    walkers: usize,
    seed: u64,
    weight: u32,
    deadline: Deadline,
    round_windows: usize,
    /// Last round-boundary checkpoint (`None` before the first lease).
    snapshot: Option<Vec<u8>>,
    /// Rounds completed across all settled leases.
    rounds_done: usize,
    /// Deficit-round-robin balance: banked at grant, spent at settle.
    deficit: usize,
    /// Remaining (un-fired) fault plan.
    faults: JobFaults,
    shared: Arc<JobShared>,
    /// Telemetry, accumulated into the terminal [`JobResult`].
    leases: usize,
    recoveries: usize,
    first_seq: Option<u64>,
    last_seq: Option<u64>,
    /// Whether a worker currently holds a lease on this job.
    in_flight: bool,
}

/// Everything behind the service's `Mutex`.
#[derive(Default)]
struct State {
    jobs: HashMap<JobId, JobRecord>,
    /// FIFO of schedulable job ids (disjoint from in-flight jobs).
    ready: VecDeque<JobId>,
    next_id: JobId,
    /// Queued + in-flight jobs (the admission-control quantity).
    incomplete: usize,
    shutdown: bool,
    /// Global lease sequence — total leases granted, and each lease's id.
    lease_seq: u64,
    healthy_workers: usize,
    quarantined_workers: usize,
    completed: u64,
    submitted: u64,
    rejected: u64,
    recoveries: u64,
    clock: LeaseClock,
}

/// The service's shared core: configuration, the guarded [`State`], the
/// worker wake-up signal, and the pool's join handles.
#[derive(Debug)]
pub(crate) struct ServiceShared {
    workers: usize,
    admission: Admission,
    state: Mutex<State>,
    /// Signalled when the ready queue grows or shutdown begins.
    work: Condvar,
    threads: Mutex<Vec<JoinHandle<()>>>,
    pub(crate) cache: SnapshotCache,
}

impl std::fmt::Debug for State {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("State")
            .field("incomplete", &self.incomplete)
            .field("ready", &self.ready.len())
            .field("shutdown", &self.shutdown)
            .finish_non_exhaustive()
    }
}

impl ServiceShared {
    /// Builds the shared core and spawns the worker pool.
    pub(crate) fn start(config: ServiceConfig) -> Arc<Self> {
        let shared = Arc::new(Self {
            workers: config.workers.max(1),
            admission: Admission { max_pending: config.max_pending.max(1) },
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            threads: Mutex::new(Vec::new()),
            cache: SnapshotCache::new(),
        });
        for _ in 0..shared.workers {
            spawn_worker(&shared);
        }
        shared
    }

    /// A point-in-time stats snapshot.
    pub(crate) fn stats(&self) -> ServiceStats {
        let st = locked(&self.state);
        ServiceStats {
            healthy_workers: st.healthy_workers,
            quarantined_workers: st.quarantined_workers,
            queued: st.ready.len(),
            in_flight: st.jobs.values().filter(|j| j.in_flight).count(),
            completed: st.completed,
            submitted: st.submitted,
            rejected: st.rejected,
            leases: st.lease_seq,
            recoveries: st.recoveries,
            cached_snapshots: self.cache.len(),
        }
    }
}

/// Admits one job (or refuses it, typed). See
/// [`crate::EstimationService::submit`].
pub(crate) fn submit(shared: &Arc<ServiceShared>, spec: JobSpec) -> Result<JobHandle, GxError> {
    let budget = spec.budget.clone().ok_or(GxError::NoBudget)?;

    // Canonicalize the graph first (one fingerprint scan per distinct
    // graph, ever), then validate the full spec by building — not
    // running — the same handle a worker would, so every config error
    // surfaces at the door with the exact core error it deserves.
    let (graph, fingerprint) = shared.cache.intern_shared(spec.graph.clone());
    {
        let runner = match &budget {
            JobBudget::Fixed(steps) => Runner::new(spec.cfg.clone()).steps(*steps),
            JobBudget::Until(rule) => Runner::new(spec.cfg.clone()).until(rule.clone()),
        };
        runner.seed(spec.seed).walkers(spec.walkers).start(&graph)?;
    }

    // Adaptive budgets advance on the rule's own cadence so the service
    // run is golden-bit identical to a solo run; fixed budgets are
    // schedule-independent, so the override (or a /8 default) only
    // tunes scheduling granularity.
    let round_windows = match &budget {
        JobBudget::Until(rule) => rule.check_every,
        JobBudget::Fixed(steps) => spec.round_windows.unwrap_or_else(|| (steps / 8).max(1)),
    }
    .max(1);
    let deadline = Deadline::after(spec.deadline);

    let mut st = locked(&shared.state);
    if st.shutdown {
        return Err(ServiceError::Shutdown.into());
    }
    st.submitted += 1;
    if !shared.admission.admits(st.incomplete) {
        st.rejected += 1;
        let hint = shared.admission.retry_after_hint(st.incomplete, shared.workers, &st.clock);
        return Err(ServiceError::Rejected { retry_after_hint: hint }.into());
    }
    let id = st.next_id;
    st.next_id += 1;
    let job_shared = Arc::new(JobShared::new(id));
    st.jobs.insert(
        id,
        JobRecord {
            graph,
            fingerprint,
            cfg: spec.cfg,
            budget,
            walkers: spec.walkers,
            seed: spec.seed,
            weight: spec.weight.max(1),
            deadline,
            round_windows,
            snapshot: None,
            rounds_done: 0,
            deficit: 0,
            faults: spec.faults,
            shared: job_shared.clone(),
            leases: 0,
            recoveries: 0,
            first_seq: None,
            last_seq: None,
            in_flight: false,
        },
    );
    st.incomplete += 1;
    st.ready.push_back(id);
    drop(st);
    shared.work.notify_one();
    Ok(JobHandle { shared: job_shared })
}

/// Stops the service: flag, resolve queued jobs as `Shutdown`, wake
/// everyone, join the pool. In-flight leases settle normally (their
/// jobs resolve as `Shutdown` unless the lease finished outright).
pub(crate) fn shutdown(shared: &Arc<ServiceShared>) {
    {
        let mut st = locked(&shared.state);
        if !st.shutdown {
            st.shutdown = true;
            st.ready.clear();
            let queued: Vec<JobId> =
                st.jobs.iter().filter(|(_, j)| !j.in_flight).map(|(&id, _)| id).collect();
            for id in queued {
                resolve(&mut st, id, Err(ServiceError::Shutdown), None);
            }
        }
    }
    shared.work.notify_all();
    // Join until quiescent: a worker that panicked *during* shutdown
    // spawns no replacement, but one that raced the flag may have — a
    // second drain catches it (its thread observes `shutdown` and exits
    // promptly).
    loop {
        let handles: Vec<JoinHandle<()>> = locked(&shared.threads).drain(..).collect();
        if handles.is_empty() {
            break;
        }
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Spawns one pool worker and registers its join handle.
fn spawn_worker(shared: &Arc<ServiceShared>) {
    locked(&shared.state).healthy_workers += 1;
    let me = Arc::clone(shared);
    let handle = std::thread::spawn(move || worker_loop(me));
    locked(&shared.threads).push(handle);
}

/// One worker: wait for a ready job, run one lease lock-free, settle.
/// A panicking lease quarantines this worker (the thread exits after
/// arranging its own replacement) and re-adopts the job from the
/// scheduler's copy of its last snapshot.
fn worker_loop(shared: Arc<ServiceShared>) {
    loop {
        let (id, lease) = {
            let mut st = locked(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(id) = st.ready.pop_front() {
                    if let Some(lease) = grant(&mut st, id) {
                        break (id, lease);
                    }
                    continue;
                }
                st = wait_unpoisoned(&shared.work, st);
            }
        };
        // Lease wall-time feeds the admission clock's retry hints.
        #[allow(clippy::disallowed_methods)]
        let started = Instant::now();
        let end = catch_unwind(AssertUnwindSafe(|| run_lease(lease)));
        let elapsed = started.elapsed();
        match end {
            Ok(end) => settle(&shared, id, end, elapsed),
            Err(_) => {
                quarantine_and_readopt(&shared, id, elapsed);
                return;
            }
        }
    }
}

/// Copies a lease out of the job record (under the lock) and banks the
/// job's DRR grant. The injected worker panic, if due within this
/// lease, is *moved* onto the lease so re-adoption cannot re-fire it.
fn grant(st: &mut State, id: JobId) -> Option<Lease> {
    let seq = st.lease_seq;
    // A ready id whose record is gone would be a scheduler bookkeeping
    // bug; declining the grant keeps the pool alive instead of
    // panicking a worker over a job that no longer exists.
    let job = st.jobs.get_mut(&id)?;
    job.in_flight = true;
    if job.first_seq.is_none() {
        job.first_seq = Some(seq);
    }
    job.last_seq = Some(seq);
    job.deficit += job.weight as usize;
    let rounds_budget = job.deficit;
    let panic_at_round = match job.faults.panic_at_round {
        Some(at) if at <= job.rounds_done + rounds_budget => {
            job.faults.panic_at_round = None;
            Some(at)
        }
        _ => None,
    };
    let lease = Lease {
        graph: job.graph.clone(),
        fingerprint: job.fingerprint,
        cfg: job.cfg.clone(),
        budget: job.budget.clone(),
        walkers: job.walkers,
        seed: job.seed,
        snapshot: job.snapshot.clone(),
        rounds_done: job.rounds_done,
        rounds_budget,
        round_windows: job.round_windows,
        panic_at_round,
        deadline: job.deadline,
        shared: job.shared.clone(),
    };
    st.lease_seq += 1;
    Some(lease)
}

/// Applies a lease's outcome to the job record: terminal ends resolve
/// the job; `Yielded` banks the new snapshot and requeues (or resolves
/// as `Shutdown` if the service stopped mid-lease).
fn settle(shared: &ServiceShared, id: JobId, end: LeaseEnd, elapsed: Duration) {
    let mut st = locked(&shared.state);
    st.clock.observe(elapsed);
    let Some(job) = st.jobs.get_mut(&id) else {
        // Only reachable if the job was already resolved out from under
        // an in-flight lease — a bookkeeping bug, but one with nothing
        // left to apply; dropping the outcome beats panicking a worker.
        return;
    };
    job.in_flight = false;
    job.leases += 1;
    match end {
        LeaseEnd::Finished { estimate } => {
            resolve(&mut st, id, Ok(*estimate), None);
        }
        LeaseEnd::Ended { error, partial } => {
            resolve(&mut st, id, Err(error), partial.map(|b| *b));
        }
        LeaseEnd::Yielded { snapshot, rounds_run } => {
            job.rounds_done += rounds_run;
            job.deficit = job.deficit.saturating_sub(rounds_run);
            job.snapshot = Some(snapshot);
            if st.shutdown {
                resolve(&mut st, id, Err(ServiceError::Shutdown), None);
            } else {
                st.ready.push_back(id);
                drop(st);
                shared.work.notify_one();
            }
        }
    }
}

/// The panic path: this worker counts itself out (quarantined), returns
/// the job's un-spent grant, re-queues the job at the *front* (its
/// recovery should not also wait a full cycle), and spawns a
/// replacement worker so pool capacity is unchanged. The job's last
/// snapshot never left the scheduler, so re-adoption is just the next
/// grant.
fn quarantine_and_readopt(shared: &Arc<ServiceShared>, id: JobId, elapsed: Duration) {
    let spawn_replacement = {
        let mut st = locked(&shared.state);
        st.clock.observe(elapsed);
        st.healthy_workers = st.healthy_workers.saturating_sub(1);
        st.quarantined_workers += 1;
        st.recoveries += 1;
        if let Some(job) = st.jobs.get_mut(&id) {
            job.in_flight = false;
            job.recoveries += 1;
            job.deficit = job.deficit.saturating_sub(job.weight as usize);
            if st.shutdown {
                resolve(&mut st, id, Err(ServiceError::Shutdown), None);
            } else {
                st.ready.push_front(id);
            }
        }
        !st.shutdown
    };
    shared.work.notify_all();
    if spawn_replacement {
        spawn_worker(shared);
    }
}

/// Writes the job's terminal result (exactly once), drops its record,
/// and wakes every waiter on its handle.
fn resolve(
    st: &mut State,
    id: JobId,
    outcome: Result<Estimate, ServiceError>,
    partial: Option<Estimate>,
) {
    let Some(job) = st.jobs.remove(&id) else {
        // Double-resolve (the caller raced another terminal path): the
        // first resolution already published a result; nothing to do.
        return;
    };
    st.incomplete -= 1;
    st.completed += 1;
    let result = JobResult {
        outcome,
        partial,
        leases: job.leases,
        recoveries: job.recoveries,
        first_lease_seq: job.first_seq,
        last_lease_seq: job.last_seq,
    };
    // Release the record's resources (graph `Arc`, snapshot bytes)
    // *before* waking waiters: a waiter that observes the result and
    // immediately evicts unused snapshots must not race the record's
    // still-held graph reference.
    let shared = job.shared.clone();
    drop(job);
    *locked(&shared.result) = Some(result);
    shared.done.notify_all();
}
