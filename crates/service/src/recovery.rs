//! The lease runner and recovery machinery: one scheduler lease =
//! resume a job from its round-boundary snapshot, advance it a bounded
//! number of rounds, snapshot it back.
//!
//! Making the snapshot the *only* representation of a descheduled job
//! is the load-bearing design decision of the service: scheduling a job
//! onto a different worker, migrating it off a quarantined one, and
//! recovering it after a crash are all the same operation — feed the
//! last round-boundary snapshot to [`gx_core::Runner::resume_trusted`].
//! There is no "live" job state a panic can corrupt: a worker that dies
//! mid-lease loses only that lease's rounds, and the PR 6 golden-bit
//! checkpoint contract makes the replay bit-identical to a run that was
//! never interrupted.
//!
//! The end-of-lease snapshot goes into memory, so the only way it fails
//! is the writer refusing it: a payload over the ceiling resume enforces
//! ([`gx_core::CheckpointError::TooLarge`]). Retrying cannot shrink it,
//! and yielding without it would leave nothing to resume, so the job
//! ends right there as [`gx_core::ServiceError::Checkpoint`] with the
//! live run's estimate as its partial — one typed terminal path, no
//! retry loop. Because the writer refuses exactly what resume would, a
//! snapshot the scheduler holds always resumes.

use crate::api::JobBudget;
use crate::cache::SharedGraph;
use crate::deadline::Deadline;
use crate::scheduler::JobShared;
use crate::sync::locked;
use gx_core::{CheckpointError, Estimate, GxError, Runner, ServiceError};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The panic payload of an injected worker failure, so robustness tests
/// can distinguish (and silence) injected crashes from real bugs. See
/// [`crate::silence_injected_panics`].
#[derive(Debug)]
pub struct InjectedWorkerPanic;

/// Everything one lease needs, copied out of the scheduler's job record
/// under the lock and owned by the worker for the lease's duration. The
/// worker holds **no lock** while running a lease, so a panicking lease
/// can never poison the scheduler.
pub(crate) struct Lease {
    pub graph: SharedGraph,
    pub fingerprint: u64,
    pub cfg: gx_core::EstimatorConfig,
    pub budget: JobBudget,
    pub walkers: usize,
    pub seed: u64,
    /// The job's last round-boundary snapshot (`None` before its first
    /// lease). The scheduler keeps its own copy: this one is the
    /// worker's to consume, and a panic mid-lease forfeits nothing.
    pub snapshot: Option<Vec<u8>>,
    /// Job rounds completed before this lease (for fault round
    /// accounting).
    pub rounds_done: usize,
    /// Rounds this lease may run (the job's DRR deficit grant).
    pub rounds_budget: usize,
    /// Scored windows per round (the job's natural advance increment).
    pub round_windows: usize,
    /// The job's injected worker panic, armed by the scheduler only for
    /// the lease whose grant reaches its round.
    pub panic_at_round: Option<usize>,
    pub deadline: Deadline,
    pub shared: Arc<JobShared>,
}

/// How a lease ended. Terminal variants resolve the job; `Yielded`
/// returns it to the scheduler's ready queue.
pub(crate) enum LeaseEnd {
    /// The job's budget (or stopping rule) completed.
    Finished { estimate: Box<Estimate> },
    /// The lease's round grant is spent; the job continues later from
    /// this snapshot.
    Yielded { snapshot: Vec<u8>, rounds_run: usize },
    /// The job ended early — cancelled, past its deadline, or its
    /// snapshot refused — with its best-effort partial estimate.
    Ended { error: ServiceError, partial: Option<Box<Estimate>> },
}

/// Runs one lease to its end. Panics only by injection
/// ([`JobFaults::panic_at_round`]) or on a genuine bug — either way the
/// worker catches it, quarantines itself, and the scheduler re-adopts
/// the job from the snapshot it still holds.
pub(crate) fn run_lease(lease: Lease) -> LeaseEnd {
    let Lease {
        graph,
        fingerprint,
        cfg,
        budget,
        walkers,
        seed,
        snapshot,
        rounds_done,
        rounds_budget,
        round_windows,
        panic_at_round,
        deadline,
        shared,
    } = lease;
    let g: &SharedGraph = &graph;
    // Cancellation wins over the deadline; both are cooperative, checked
    // between rounds only.
    let interrupted = || {
        if shared.cancel.load(Ordering::Acquire) {
            Some(ServiceError::Cancelled)
        } else if deadline.expired() {
            Some(ServiceError::DeadlineExceeded)
        } else {
            None
        }
    };

    // Cheap pre-check before any handle is built: a job cancelled or
    // expired while queued terminates here, with a partial estimate
    // only if an earlier lease left a snapshot to read it from.
    if let Some(error) = interrupted() {
        let partial = snapshot
            .as_ref()
            .and_then(|bytes| Runner::resume_trusted(g, fingerprint, &mut bytes.as_slice()).ok())
            .map(|h| Box::new(h.estimate()));
        return LeaseEnd::Ended { error, partial };
    }

    // Materialize the run: resume the snapshot (trusted fingerprint —
    // the cache computed it once at intern time) or start fresh. The
    // spec was validated at submit, and the writer refuses any snapshot
    // resume would, so failures here are bugs, not inputs.
    let mut handle = match &snapshot {
        Some(bytes) => Runner::resume_trusted(g, fingerprint, &mut bytes.as_slice())
            // gx-lint: allow(panic_surface) -- deliberate: runs under the worker catch_unwind boundary; a snapshot we wrote that fails to resume is a checkpoint-subsystem bug, and panicking quarantines the worker and re-adopts the job
            .expect("own round-boundary snapshot must resume"),
        None => {
            let runner = match &budget {
                JobBudget::Fixed(steps) => Runner::new(cfg.clone()).steps(*steps),
                JobBudget::Until(rule) => Runner::new(cfg.clone()).until(rule.clone()),
            };
            let mut h = runner
                .seed(seed)
                .walkers(walkers)
                .start(g)
                // gx-lint: allow(panic_surface) -- deliberate: admission already validated this spec; reaching here means the validators diverged, which the catch_unwind boundary converts into quarantine + re-adopt rather than a wedged job
                .expect("job spec was validated at submit");
            h.adopt_fingerprint(fingerprint);
            h
        }
    };

    // The round loop: cancellation/deadline checks before every round
    // and after the last one, the injected worker panic fired *before*
    // the round it names (so the job's last snapshot is exactly the
    // round boundary the recovery conformance test replays from).
    let mut rounds_run = 0usize;
    loop {
        if let Some(error) = interrupted() {
            return LeaseEnd::Ended { error, partial: Some(Box::new(handle.estimate())) };
        }
        if rounds_run >= rounds_budget {
            break;
        }
        let next_round = rounds_done + rounds_run + 1;
        if panic_at_round.is_some_and(|at| next_round >= at) {
            std::panic::panic_any(InjectedWorkerPanic);
        }
        let progress = handle.advance(round_windows);
        rounds_run += 1;
        *locked(&shared.progress) = Some(progress);
        if progress.finished {
            return LeaseEnd::Finished { estimate: Box::new(handle.finish()) };
        }
    }

    // Deschedule: snapshot at the round boundary, once. The write goes
    // into memory, so an `Err` is the writer refusing the snapshot —
    // no retry changes that, and without it there is nothing to resume.
    let mut snapshot = Vec::new();
    match handle.checkpoint(&mut snapshot) {
        Ok(()) => LeaseEnd::Yielded { snapshot, rounds_run },
        Err(e) => LeaseEnd::Ended {
            error: ServiceError::Checkpoint(match e {
                GxError::Checkpoint(refused) => refused,
                // A `Vec` writer raises no I/O error; were one to appear,
                // the snapshot it cut short is a truncated one.
                _ => CheckpointError::Truncated,
            }),
            partial: Some(Box::new(handle.estimate())),
        },
    }
}
