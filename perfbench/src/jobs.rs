//! Estimation jobs: how a workload's job is configured, the closed-loop
//! job stream the batch workloads time, and the answer checks.

use crate::stats::{secs_since, thread_cpu_secs};
use gx_core::{Estimate, EstimatorConfig, Runner, StoppingRule};
use gx_graph::GraphAccess;
use gx_walks::derive_seed;
use std::time::Instant;

/// A job's budget: adaptive to a relative CI target, or a fixed window
/// count.
#[derive(Debug, Clone)]
pub enum Budget {
    Adaptive(StoppingRule),
    Fixed(usize),
}

/// Everything that defines one job of a workload except its seed.
#[derive(Debug, Clone)]
pub struct JobKind {
    pub cfg: EstimatorConfig,
    pub budget: Budget,
    /// Independent chains per job.
    pub walkers: usize,
    /// Lock-step group width (1 = scalar engine).
    pub batch_width: usize,
}

impl JobKind {
    /// The runner for job `j` of a run seeded with `seed`.
    pub fn runner(&self, seed: u64, j: u64) -> Runner {
        let r = Runner::new(self.cfg.clone())
            .seed(job_seed(seed, j))
            .walkers(self.walkers)
            .batch_width(self.batch_width);
        match &self.budget {
            Budget::Adaptive(rule) => r.until(rule.clone()),
            Budget::Fixed(steps) => r.steps(*steps),
        }
    }

    /// Scored windows per scheduler round when the job runs as leases —
    /// the service's own rule: the check cadence for adaptive budgets,
    /// an eighth of the budget for fixed ones.
    pub fn round_windows(&self) -> usize {
        match &self.budget {
            Budget::Adaptive(rule) => rule.check_every,
            Budget::Fixed(steps) => (steps / 8).max(1),
        }
    }
}

/// Seed of job `j` in a run seeded with `seed`.
pub fn job_seed(seed: u64, j: u64) -> u64 {
    derive_seed(seed, j + 1)
}

/// One finished job of a closed-loop stream. Only what the metrics
/// need is kept, so memory does not grow with the job count.
#[derive(Debug, Clone, Copy)]
pub struct JobRecord {
    pub secs: f64,
    /// The job's on-CPU seconds (see [`thread_cpu_secs`]).
    pub cpu_secs: f64,
    pub steps: usize,
    /// An adaptive job that stopped on its target, or any fixed job.
    pub target_met: bool,
}

impl JobRecord {
    /// Runs one job on the calling thread and times it by the wall clock
    /// and by the thread's CPU clock (`NaN` where that clock is missing;
    /// the report then refuses the run as not finite).
    pub fn time(
        job: impl FnOnce() -> Result<Estimate, String>,
    ) -> Result<(Self, Estimate), String> {
        let cpu_now = || thread_cpu_secs().unwrap_or(f64::NAN);
        let (start, cpu0) = (Instant::now(), cpu_now());
        let e = job()?;
        let rec = Self {
            secs: secs_since(start),
            cpu_secs: cpu_now() - cpu0,
            steps: e.steps,
            target_met: e.adaptive.as_ref().is_none_or(|a| a.target_met),
        };
        Ok((rec, e))
    }
}

/// A closed-loop job stream's results.
pub struct Stream {
    pub jobs: Vec<JobRecord>,
    /// The stream's first job's whole estimate, for the bit-identity
    /// checks.
    pub first: Estimate,
    /// Raw scores summed over every job (one long run's worth of
    /// samples).
    pub pooled: Pooled,
}

impl Stream {
    /// Appends `later`, the stream that continued this one.
    pub fn extend(&mut self, later: Stream) {
        self.jobs.extend(later.jobs);
        self.pooled.add(&later.pooled.0);
    }
}

/// Runs jobs `first_job, first_job + 1, …` back to back on the calling
/// thread until `seconds` have passed (the job in flight at the deadline
/// finishes; at least one job runs). Errors are returned as they happen:
/// no workload is meant to produce any.
pub fn run_stream<G: GraphAccess>(
    g: &G,
    kind: &JobKind,
    seed: u64,
    first_job: u64,
    seconds: f64,
) -> Result<Stream, String> {
    let t0 = Instant::now();
    let mut jobs = Vec::new();
    let mut first = None;
    let mut pooled = Pooled::default();
    let mut j = first_job;
    while j == first_job || secs_since(t0) < seconds {
        let (rec, estimate) = JobRecord::time(|| {
            kind.runner(seed, j).run_local(g).map_err(|e| format!("job {j}: {e}"))
        })?;
        jobs.push(rec);
        pooled.add(&estimate.raw_scores);
        first.get_or_insert(estimate);
        j += 1;
    }
    let first = first.ok_or("no job ran")?;
    Ok(Stream { jobs, first, pooled })
}

/// Raw scores summed over many estimates.
#[derive(Debug, Clone, Default)]
pub struct Pooled(Vec<f64>);

impl Pooled {
    pub fn add(&mut self, raw: &[f64]) {
        if self.0.is_empty() {
            self.0 = vec![0.0; raw.len()];
        }
        for (acc, x) in self.0.iter_mut().zip(raw) {
            *acc += x;
        }
    }

    /// Concentrations of the pooled scores.
    pub fn concentrations(&self) -> Vec<f64> {
        let total: f64 = self.0.iter().sum();
        self.0.iter().map(|x| x / total).collect()
    }
}

/// Compares a pooled estimate with exact concentrations: every type at
/// or above `floor` must be within `rel` relative error, every type
/// below it within `floor` absolute. Returns the worst relative error
/// seen over the qualifying types, or the first violation.
pub fn check_against_exact(
    pooled: &[f64],
    exact: &[f64],
    rel: f64,
    floor: f64,
) -> Result<f64, String> {
    if pooled.len() != exact.len() {
        return Err(format!("{} types estimated, {} exact", pooled.len(), exact.len()));
    }
    let mut worst = 0.0f64;
    for (i, (&p, &x)) in pooled.iter().zip(exact).enumerate() {
        if !p.is_finite() {
            return Err(format!("type {}: estimate {p}", i + 1));
        }
        if x >= floor {
            let err = (p - x).abs() / x;
            worst = worst.max(err);
            if err > rel {
                return Err(format!("type {}: pooled {p:.5} vs exact {x:.5}", i + 1));
            }
        } else if (p - x).abs() > floor {
            return Err(format!("type {}: pooled {p:.5} vs exact {x:.5}", i + 1));
        }
    }
    Ok(worst)
}

/// Whether two estimates carry the same samples: equal valid counts and
/// bit-identical raw scores.
pub fn same_bits(a: &Estimate, b: &Estimate) -> bool {
    a.valid_samples == b.valid_samples
        && a.raw_scores.len() == b.raw_scores.len()
        && a.raw_scores.iter().zip(&b.raw_scores).all(|(x, y)| x.to_bits() == y.to_bits())
}
