//! Open-loop load on `gx-service`: a fixed number of seeded, jittered
//! arrivals at a fixed rate, each job's queue wait measured from its
//! *scheduled* arrival so a late generator cannot hide queueing.
//!
//! One thread (the caller's) is both the generator and the observer: it
//! sleeps until the next arrival or the next poll tick, submits what is
//! due, and polls every outstanding job for its first progress snapshot
//! (the end of its queue wait) and its result. With the service's single
//! worker that makes two busy threads at most.

use crate::stats::secs_since;
use gx_service::{EstimationService, JobHandle, JobSpec};
use gx_walks::{rng_from_seed, WalkRng};
use rand::Rng;
use std::time::{Duration, Instant};

/// Observer poll interval.
const POLL: Duration = Duration::from_micros(200);

/// One job's timeline, in seconds from the start of the load.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// When the arrival process scheduled the job.
    pub scheduled: f64,
    /// When `submit` was called (≥ `scheduled`).
    pub submitted: f64,
    /// When the first progress snapshot was seen (end of queue wait).
    pub first_progress: Option<f64>,
    /// Finished with an estimate that met its target.
    pub ok: bool,
}

/// Inter-arrival gap at `rate` per second: uniform on half to one and a
/// half mean periods. Poisson gaps clump, and at light load a clump makes
/// a lone job share the worker, so the queue wait of a short burst jumps
/// between runs.
fn gap(rng: &mut WalkRng, rate: f64) -> f64 {
    let u: f64 = rng.gen();
    (0.5 + u) / rate
}

/// Offers `spec(j)` for `j = 0 .. jobs` at seeded arrivals of `rate` per
/// second, then drains. Jobs still unfinished `drain_limit` seconds after
/// the last arrival are cancelled and reported as not ok.
pub fn run(
    service: &EstimationService,
    mut spec: impl FnMut(u64) -> JobSpec,
    rate: f64,
    jobs: u64,
    seed: u64,
    drain_limit: f64,
) -> Vec<Timeline> {
    let mut rng = rng_from_seed(seed ^ 0xA11_1CE5);
    let mut out: Vec<Timeline> = Vec::new();
    let mut live: Vec<(usize, JobHandle)> = Vec::new();
    let mut next = gap(&mut rng, rate);
    let t0 = Instant::now();
    let mut last_arrival = 0.0f64;
    loop {
        let now = secs_since(t0);
        while (out.len() as u64) < jobs && next <= now {
            let t = Timeline {
                scheduled: next,
                submitted: secs_since(t0),
                first_progress: None,
                ok: false,
            };
            // A refused job stays not ok, with no result.
            if let Ok(h) = service.submit(spec(out.len() as u64)) {
                live.push((out.len(), h));
            }
            out.push(t);
            last_arrival = next;
            next += gap(&mut rng, rate);
        }
        let now = secs_since(t0);
        live.retain(|(i, h)| {
            let t = &mut out[*i];
            if t.first_progress.is_none() && h.progress().is_some() {
                t.first_progress = Some(now);
            }
            match h.try_result() {
                Some(r) => {
                    t.first_progress.get_or_insert(now);
                    t.ok = r.outcome.is_ok_and(|e| e.adaptive.is_none_or(|a| a.target_met));
                    false
                }
                None => true,
            }
        });
        let arriving = (out.len() as u64) < jobs;
        if !arriving && live.is_empty() {
            break;
        }
        if !arriving && now > last_arrival + drain_limit {
            for (_, h) in &live {
                h.cancel();
            }
            for (_, h) in &live {
                let _ = h.wait();
            }
            break;
        }
        let wake =
            if arriving { (next - now).clamp(0.0, POLL.as_secs_f64()) } else { POLL.as_secs_f64() };
        std::thread::sleep(Duration::from_secs_f64(wake));
    }
    out
}
