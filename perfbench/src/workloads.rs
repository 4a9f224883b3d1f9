//! The three workloads: set-up, the timed end-to-end run, and the traced
//! run. Each is a different regime of the same estimator; see
//! `BENCHMARK.json` for why each exists and how large its graph is.

use crate::inputs::{self, Input, Meta};
use crate::jobs::{
    check_against_exact, job_seed, run_stream, same_bits, Budget, JobKind, JobRecord, Stream,
};
use crate::openloop::{self, Timeline};
use crate::stats::{median, quantile, rss_peak_mb, secs_since, tail, timer_overhead_ns};
use crate::trace::{lease_replay, replay, Counting, LayerTimes, LeaseStats};
use crate::Report;
use gx_core::css::CssWeights;
use gx_core::{alpha_table, EstimatorConfig, StoppingRule};
use gx_graph::{graph_fingerprint, CompressedGraph, Graph, GraphAccess, MmapGraph};
use gx_graphlets::classify_table;
use gx_service::{EstimationService, JobSpec, ServiceConfig, SharedGraph};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The timed job stream runs in this many equal segments, with a round
/// of set-up probes before, between and after them, so `setup_s` samples
/// the same stretch of host time as the throughput figures do.
const SEGMENTS: usize = 5;
/// Fresh processes per round of set-up probes.
const PROBES_PER_ROUND: usize = 6;
/// Quantile of the per-job rates reported as `windows_per_s`: high
/// enough to pass over the jobs a co-tenant slowed, with a twentieth of
/// the jobs (over a dozen in a run) still above it.
const RATE_QUANTILE: f64 = 0.95;

/// Relative tolerance of pooled concentrations against exact ones, for
/// types at or above [`EXACT_FLOOR`]; types below it get `EXACT_FLOOR`
/// absolute. Loose enough never to trip on sampling noise at these run
/// lengths, tight enough to catch a biased estimator.
const EXACT_REL_TOL: f64 = 0.05;
const EXACT_FLOOR: f64 = 0.01;
/// The k = 5, d = 3 runs pool fewer samples over 21 types.
const EXACT_REL_TOL_K5: f64 = 0.15;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    K4Cache,
    K4Dram,
    K5D3Gxsc,
}

impl Workload {
    const ALL: [Self; 3] = [Self::K4Cache, Self::K4Dram, Self::K5D3Gxsc];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::K4Cache => "k4-cache",
            Self::K4Dram => "k4-dram",
            Self::K5D3Gxsc => "k5-d3-gxsc",
        }
    }

    pub fn input(self) -> Input {
        match self {
            Self::K4Cache => Input::Epinion,
            Self::K4Dram => Input::Ba8m,
            Self::K5D3Gxsc => Input::Facebook,
        }
    }

    /// Exact counts the answer checks compare with, if any.
    fn exact_k(self) -> Option<usize> {
        match self {
            Self::K4Cache => Some(4),
            Self::K5D3Gxsc => Some(5),
            Self::K4Dram => None,
        }
    }

    /// One job of the workload.
    pub fn job(self) -> JobKind {
        let rule = |target: f64, check_every: usize| StoppingRule {
            target_rel_ci: target,
            check_every,
            max_steps: 200_000_000,
            ..StoppingRule::default()
        };
        match self {
            // SRW2CSS k = 4 to ±1.5%, scalar engine.
            Self::K4Cache => JobKind {
                cfg: EstimatorConfig::recommended(4),
                budget: Budget::Adaptive(rule(0.015, 5_000)),
                walkers: 1,
                batch_width: 1,
            },
            // The same estimator to ±9% over 24 walkers in lock step
            // (pooled check every 24 × 250 windows, fine enough that
            // job lengths are not bunched on a few check boundaries).
            Self::K4Dram => JobKind {
                cfg: EstimatorConfig::recommended(4),
                budget: Budget::Adaptive(rule(0.09, 250)),
                walkers: 24,
                batch_width: 24,
            },
            // SRW3CSS k = 5 (GdWalk, l = 3), fixed budget.
            Self::K5D3Gxsc => JobKind {
                cfg: EstimatorConfig { k: 5, d: 3, css: true, non_backtracking: false, burn_in: 0 },
                budget: Budget::Fixed(600),
                walkers: 1,
                batch_width: 1,
            },
        }
    }
}

/// Builds (or verifies) the cached inputs of every workload, so that
/// the first run in a checkout pays for all generation at once and every
/// later run only verifies.
pub fn prepare(cache: &Path) -> Result<(), String> {
    for w in Workload::ALL {
        let input = w.input();
        let meta = inputs::ensure_snapshot(cache, input)?;
        if let Some(k) = w.exact_k() {
            inputs::ensure_exact(cache, input, k)?;
        }
        eprintln!(
            "prepare: {input:?} ready: {} nodes, {} edges, {} bytes",
            meta.nodes, meta.edges, meta.bytes
        );
    }
    Ok(())
}

/// The workload's graph (one per process, so the size of the largest
/// variant costs nothing).
#[allow(clippy::large_enum_variant)]
enum Loaded {
    Ram(Arc<Graph>),
    Mapped(Arc<MmapGraph>),
    Compressed(CompressedGraph),
}

/// Builds every process-wide table the configuration's first job would
/// build, returning the seconds it took (first use only: the tables are
/// process-wide).
fn warm_tables(cfg: &EstimatorConfig) -> f64 {
    let t = Instant::now();
    std::hint::black_box(alpha_table(cfg.k, cfg.d));
    std::hint::black_box(classify_table(cfg.k));
    if cfg.css {
        std::hint::black_box(CssWeights::new(cfg.k, cfg.d));
    }
    secs_since(t)
}

/// Opens the workload's graph the way its users do: the RAM workload
/// loads the snapshot into a `Graph`, the others map it.
fn open(cache: &Path, w: Workload) -> Result<(Loaded, Meta), String> {
    let input = w.input();
    let meta = inputs::verified(cache, input)
        .ok_or_else(|| format!("{input:?} snapshot missing or stale: run prepare"))?;
    let path = input.path(cache);
    let loaded = match w {
        Workload::K4Cache => {
            let snap = MmapGraph::open_in_ram(&path).map_err(|e| e.to_string())?;
            Loaded::Ram(Arc::new(inputs::to_ram(&snap)?))
        }
        Workload::K4Dram => {
            Loaded::Mapped(Arc::new(MmapGraph::open(&path).map_err(|e| e.to_string())?))
        }
        Workload::K5D3Gxsc => {
            Loaded::Compressed(CompressedGraph::open(&path).map_err(|e| e.to_string())?)
        }
    };
    Ok((loaded, meta))
}

/// One process's set-up, timed: open, then warm the tables. Returns
/// `(open_s, warm_s)`; `gx-perfbench setup` prints them.
pub fn setup_once(cache: &Path, w: Workload) -> Result<(f64, f64), String> {
    let t = Instant::now();
    let opened = open(cache, w)?;
    let open_s = secs_since(t);
    drop(opened);
    Ok((open_s, warm_tables(&w.job().cfg)))
}

/// Set-up times of fresh processes of this binary, run one after
/// another, so every sample pays the first-use costs a real process
/// pays.
#[derive(Default)]
struct Probes {
    open_s: Vec<f64>,
    warm_s: Vec<f64>,
}

impl Probes {
    /// Runs `n` more probes.
    fn take(&mut self, cache: &Path, w: Workload, n: usize) -> Result<(), String> {
        let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
        for _ in 0..n {
            let out = std::process::Command::new(&exe)
                .args(["setup", "--workload", w.name(), "--cache"])
                .arg(cache)
                .output()
                .map_err(|e| format!("set-up probe: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            let v: Vec<f64> = text.split_whitespace().filter_map(|x| x.parse().ok()).collect();
            match v[..] {
                [o, wm] if out.status.success() => {
                    self.open_s.push(o);
                    self.warm_s.push(wm);
                }
                _ => {
                    return Err(format!(
                        "set-up probe failed: {}",
                        String::from_utf8_lossy(&out.stderr).trim()
                    ))
                }
            }
        }
        Ok(())
    }

    /// Median per-process set-up time.
    fn total_s(&self) -> f64 {
        let total: Vec<f64> = self.open_s.iter().zip(&self.warm_s).map(|(o, w)| o + w).collect();
        median(&total)
    }
}

/// Per-job and run-level answer checks, tallied into the report.
#[derive(Default)]
struct Checks {
    failed: u64,
    notes: Vec<String>,
}

impl Checks {
    fn require(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what.into()));
        }
    }

    fn pass(&mut self, what: impl Into<String>) {
        self.notes.push(format!("check ok: {}", what.into()));
    }
}

/// What one run of a workload is given.
struct Ctx<'a> {
    cache: &'a Path,
    w: Workload,
    kind: JobKind,
    seed: u64,
    seconds: f64,
    meta: Meta,
    exact: Option<Vec<f64>>,
}

/// Runs `w` for `seconds` and fills `report` with its end-to-end
/// metrics (or, with `trace`, its per-layer metrics).
pub fn run(
    cache: &Path,
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    report: &mut Report,
) -> Result<(), String> {
    let (loaded, meta) = open(cache, w)?;
    warm_tables(&w.job().cfg);
    report.line(format!(
        "graph: {} nodes, {} edges, snapshot {:.1} MB",
        meta.nodes,
        meta.edges,
        meta.bytes as f64 / 1e6
    ));
    let exact = match w.exact_k() {
        Some(k) => Some(inputs::cached_exact(cache, w.input(), k, &meta)?),
        None => None,
    };
    let ctx = Ctx { cache, w, kind: w.job(), seed, seconds, meta, exact };
    // Each backend differs only in the graph the service is handed in the
    // traced run and in the answer check its own regime allows.
    match &loaded {
        Loaded::Ram(g) => {
            let service_graph = SharedGraph::Ram(g.clone());
            measure(g.as_ref(), service_graph, &ctx, trace, |_, _| Ok(0), report)
        }
        Loaded::Mapped(g) => {
            let service_graph = SharedGraph::Mapped(g.clone());
            let check = |_: &Stream, checks: &mut Checks| engines_agree(g.as_ref(), &ctx, checks);
            measure(g.as_ref(), service_graph, &ctx, trace, check, report)
        }
        Loaded::Compressed(g) => {
            // The service holds RAM or GXSN graphs; it gets the RAM copy.
            let ram = Arc::new(inputs::to_ram(g)?);
            let service_graph = SharedGraph::Ram(ram.clone());
            let check = |st: &Stream, checks: &mut Checks| same_as_ram(g, &ram, &ctx, st, checks);
            measure(g, service_graph, &ctx, trace, check, report)
        }
    }
}

/// The timed run, or with `trace` the traced one, over any backend.
/// `extra_check` adds the backend's own answer checks after the timed
/// stream and returns how many jobs they ran.
fn measure<G: GraphAccess>(
    g: &G,
    service_graph: SharedGraph,
    ctx: &Ctx,
    trace: bool,
    extra_check: impl FnOnce(&Stream, &mut Checks) -> Result<u64, String>,
    report: &mut Report,
) -> Result<(), String> {
    if trace {
        return run_traced(g, service_graph, ctx, report);
    }
    let mut probes = Probes::default();
    let seg = ctx.seconds / SEGMENTS as f64;
    probes.take(ctx.cache, ctx.w, PROBES_PER_ROUND)?;
    let mut st = run_stream(g, &ctx.kind, ctx.seed, 0, seg)?;
    for _ in 1..SEGMENTS {
        probes.take(ctx.cache, ctx.w, PROBES_PER_ROUND)?;
        st.extend(run_stream(g, &ctx.kind, ctx.seed, st.jobs.len() as u64, seg)?);
    }
    probes.take(ctx.cache, ctx.w, PROBES_PER_ROUND)?;

    batch_metrics(&st.jobs, report);
    let mut checks = Checks::default();
    let rel = if ctx.kind.cfg.k == 5 { EXACT_REL_TOL_K5 } else { EXACT_REL_TOL };
    check_stream(&st, ctx.exact.as_deref(), rel, &mut checks);
    let extra_jobs = extra_check(&st, &mut checks)?;
    report.attempted = st.jobs.len() as u64 + extra_jobs;
    report.metric("setup_s", probes.total_s(), "s");
    report.metric("rss_peak_mb", rss_peak_mb(), "MB");
    report.line(format!("setup_s is the median of {} fresh processes", probes.open_s.len()));
    report.failed = checks.failed;
    report.lines.extend(checks.notes);
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    report.line(format!("failed_frac = {failed_frac} ratio"));
    Ok(())
}

/// A short prefix job: the lock-step engine must reproduce the scalar
/// engine bit for bit on this graph.
fn engines_agree(g: &MmapGraph, ctx: &Ctx, checks: &mut Checks) -> Result<u64, String> {
    let prefix = ctx.kind.runner(ctx.seed, u64::MAX - 1).until(StoppingRule {
        target_rel_ci: 1e-9,
        max_steps: ctx.kind.walkers * 4_000,
        ..StoppingRule::default()
    });
    let batched = prefix.clone().run_local(g).map_err(|e| e.to_string())?;
    let scalar = prefix.batch_width(1).run_local(g).map_err(|e| e.to_string())?;
    let same = same_bits(&batched, &scalar);
    checks.require(same, "batched and scalar engines differ on the prefix job");
    if same {
        checks.pass(format!("prefix job of {} windows: batched == scalar engine", scalar.steps));
    }
    Ok(1)
}

/// Job 0 must read the same off the RAM copy of the snapshot.
fn same_as_ram(
    g: &CompressedGraph,
    ram: &Graph,
    ctx: &Ctx,
    st: &Stream,
    checks: &mut Checks,
) -> Result<u64, String> {
    checks.require(
        graph_fingerprint(ram) == g.fingerprint(),
        "RAM copy of the GXSC snapshot has a different fingerprint",
    );
    let on_ram = ctx.kind.runner(ctx.seed, 0).run_local(ram).map_err(|e| e.to_string())?;
    let same = same_bits(&st.first, &on_ram);
    checks.require(same, "job 0 differs between the GXSC snapshot and the RAM graph");
    if same {
        checks.pass("job 0: GXSC snapshot == RAM graph, bit for bit");
    }
    Ok(1)
}

/// End-to-end metrics of a closed-loop job stream.
///
/// On a shared host the same job runs at very different speeds from one
/// second to the next: co-tenants on the same physical core slow it in
/// bursts (on a 2-vCPU Xeon VM, per-job rates within one k4-cache run
/// spanned 5.8M-10.4M windows/s), while the rate a job reaches when left
/// alone is steady.
/// So `windows_per_s` is the [`RATE_QUANTILE`] of the jobs' own rates,
/// each job's windows over its on-CPU time (time spent waiting for a CPU
/// is not the program's), and `time_to_ci_s` is the median job's window
/// count at that rate. The plain wall-clock figures are printed beside
/// them.
fn batch_metrics(recs: &[JobRecord], report: &mut Report) {
    let secs: Vec<f64> = recs.iter().map(|r| r.secs).collect();
    let rates: Vec<f64> = recs.iter().map(|r| r.steps as f64 / r.cpu_secs).collect();
    let steps: Vec<f64> = recs.iter().map(|r| r.steps as f64).collect();
    let windows: usize = recs.iter().map(|r| r.steps).sum();
    let rate = quantile(&rates, RATE_QUANTILE);
    report.metric("windows_per_s", rate, "windows/s");
    report.metric("time_to_ci_s", median(&steps) / rate, "s");
    let (tail_s, pct) = tail(&secs);
    report.line(format!(
        "wall clock: {:.0} windows/s over the run, median job {} s, time_to_ci_tail_s = {tail_s} \
         s (p{pct:.1} of {} jobs)",
        windows as f64 / secs.iter().sum::<f64>(),
        median(&secs),
        recs.len()
    ));
    report.line(format!("jobs: {}, {} windows", recs.len(), windows));
}

/// Every job met its target; the pooled answer matches the exact one.
fn check_stream(st: &Stream, exact: Option<&[f64]>, rel: f64, checks: &mut Checks) {
    let missed = st.jobs.iter().filter(|r| !r.target_met).count();
    for _ in 0..missed {
        checks.require(false, "a job stopped without meeting its target");
    }
    if let Some(exact) = exact {
        match check_against_exact(&st.pooled.concentrations(), exact, rel, EXACT_FLOOR) {
            Ok(worst) => checks.pass(format!(
                "pooled concentrations within {:.2}% of exact (worst {:.3}%)",
                rel * 100.0,
                worst * 100.0
            )),
            Err(e) => checks.require(false, format!("pooled vs exact: {e}")),
        }
    }
}

/// Results of the untraced and counting job streams of a traced run.
struct Streams {
    untraced: Vec<JobRecord>,
    counted: Vec<JobRecord>,
    counters: crate::trace::GraphCounters,
}

/// Runs the workload's job stream bare for `seconds`, then over the
/// counting wrapper for `seconds`; job 0 must agree bit for bit.
fn streams<G: GraphAccess>(
    g: &G,
    kind: &JobKind,
    seed: u64,
    seconds: f64,
) -> Result<Streams, String> {
    let untraced = run_stream(g, kind, seed, 0, seconds)?;
    let counting = Counting::new(g);
    let t0 = Instant::now();
    let mut counted = Vec::new();
    let mut j = 0u64;
    while j == 0 || secs_since(t0) < seconds {
        counting.new_job();
        let (rec, estimate) = JobRecord::time(|| {
            kind.runner(seed, j).run_local(&counting).map_err(|e| e.to_string())
        })?;
        counted.push(rec);
        if j == 0 && !same_bits(&untraced.first, &estimate) {
            return Err("job 0 differs when run through the counting wrapper".into());
        }
        j += 1;
    }
    Ok(Streams { untraced: untraced.jobs, counted, counters: counting.counters() })
}

/// A small open-loop burst (12 fixed-budget jobs at half the measured
/// capacity) on the workload's own graph, for the service-layer figures.
fn service_burst(
    g: SharedGraph,
    cfg: &EstimatorConfig,
    windows: usize,
    seed: u64,
) -> Vec<Timeline> {
    let service = EstimationService::start(ServiceConfig {
        workers: 1,
        max_pending: 64,
        ..ServiceConfig::default()
    });
    let spec =
        |j: u64| JobSpec::over(g.clone(), cfg.clone()).steps(windows).seed(job_seed(seed, j));
    let t = Instant::now();
    let _ = service.submit(spec(u64::MAX)).map(|h| h.wait());
    let solo = secs_since(t).max(1e-4);
    let jobs = openloop::run(&service, spec, 0.5 / solo, 12, seed, 30.0);
    service.shutdown();
    jobs
}

fn run_traced<G: GraphAccess>(
    g: &G,
    service_graph: SharedGraph,
    ctx: &Ctx,
    report: &mut Report,
) -> Result<(), String> {
    let kind = &ctx.kind;
    let mut probes = Probes::default();
    probes.take(ctx.cache, ctx.w, (SEGMENTS + 1) * PROBES_PER_ROUND)?;
    let overhead = timer_overhead_ns();
    report.line(format!(
        "timer overhead {overhead:.1} ns per timed call, subtracted (layers cheaper than \
         its jitter can read slightly negative)"
    ));
    let rule = match &kind.budget {
        Budget::Adaptive(r) => r.clone(),
        Budget::Fixed(_) => StoppingRule::default(),
    };
    let st = streams(g, kind, ctx.seed, ctx.seconds * 0.25)?;
    let windows: usize = st.untraced.iter().map(|r| r.steps).sum();
    let rate = windows as f64 / st.untraced.iter().map(|r| r.secs).sum::<f64>();
    let replay_windows = (rate * ctx.seconds * 0.06).clamp(2_000.0, 3_000_000.0) as usize;
    let burst_windows = (rate * 0.02 / kind.walkers as f64).clamp(500.0, 100_000.0) as usize;
    let layers = replay(g, &kind.cfg, job_seed(ctx.seed, 0), replay_windows, &rule)?;
    let leases =
        lease_replay(g, ctx.meta.fingerprint, &kind.runner(ctx.seed, 0), kind.round_windows())?;
    let service_jobs = service_burst(service_graph, &kind.cfg, burst_windows, ctx.seed);
    report.line(format!(
        "layer replay of {} windows: bit-identical to Runner::run_with_walk",
        layers.windows
    ));
    report.line(format!(
        "lease replay of {} leases: identical to the uninterrupted run",
        leases.leases
    ));
    layer_metrics(&st, &layers, &leases, &service_jobs, overhead, report);
    report.metric("setup.open_s", median(&probes.open_s), "s");
    report.metric("setup.warm_s", median(&probes.warm_s), "s");

    let mut checks = Checks::default();
    for r in st.untraced.iter().chain(&st.counted) {
        checks.require(r.target_met, "a job stopped without meeting its target");
    }
    for t in &service_jobs {
        checks.require(t.ok, "a service job failed, was refused, or missed its target");
    }
    report.attempted = (st.untraced.len() + st.counted.len() + service_jobs.len()) as u64 + 2;
    report.failed = checks.failed;
    report.lines.extend(checks.notes);
    Ok(())
}

/// Per-window figures of the traced run. Timer overhead (one
/// `Instant` pair per timed call) is subtracted from every timed layer.
fn layer_metrics(
    st: &Streams,
    l: &LayerTimes,
    leases: &LeaseStats,
    service_jobs: &[Timeline],
    overhead: f64,
    report: &mut Report,
) {
    // Job time is on-CPU time here too, as in the end-to-end figures.
    let sum = |recs: &[JobRecord]| -> (f64, f64) {
        (recs.iter().map(|r| r.steps as f64).sum(), recs.iter().map(|r| r.cpu_secs).sum())
    };
    let (wa, sa) = sum(&st.untraced);
    let (wb, sb) = sum(&st.counted);
    let c = &st.counters;
    let fetches = c.fetches.max(1) as f64;
    // Mean ns per call of a layer timed `timers` times per call.
    let per =
        |t: u64, n: u64, timers: f64| (t as f64 - timers * overhead * n as f64) / n.max(1) as f64;

    report.metric("graph.fetches_per_window", c.fetches as f64 / wb, "calls/window");
    report.metric("graph.has_edge_per_window", c.has_edge as f64 / wb, "calls/window");
    report.metric("graph.call_ns", per(c.ns, c.fetches, 1.0), "ns");
    report.metric("graph.busy_frac", per(c.ns, c.fetches, 1.0) * fetches / (sb * 1e9), "ratio");
    report.metric("graph.distinct_fetch_frac", c.distinct as f64 / fetches, "ratio");

    let walk = per(l.walk, l.walk_n, 2.0);
    let push = per(l.push, l.push_n, 1.0);
    let classify = per(l.classify, l.valid, 1.0);
    let css = per(l.css, l.valid, 1.0);
    let tick = per(l.tick, l.windows, 1.0);
    let valid_frac = l.valid as f64 / l.windows as f64;
    report.metric("walks.step_ns", walk, "ns");
    report.metric("window.probes_per_window", l.probes as f64 / l.windows as f64, "probes/window");
    report.metric("window.push_ns", push, "ns");
    report.metric("graphlets.classify_ns", classify, "ns");
    report.metric("graphlets.valid_frac", valid_frac, "ratio");
    report.metric("css.weight_ns", css, "ns");
    report.metric("accuracy.tick_ns", tick, "ns");
    report.metric("accuracy.check_ns", per(l.check, l.checks, 1.0), "ns");

    let steps: Vec<f64> = st.untraced.iter().map(|r| r.steps as f64).collect();
    let engine = sa * 1e9 / wa;
    let layer_sum = walk + push + tick + (classify + css) * valid_frac;
    report.metric("runner.windows_to_ci", median(&steps), "windows");
    report.metric("runner.engine_ns_per_window", engine, "ns");
    report.metric("runner.unattributed_ns_per_window", engine - layer_sum, "ns");

    report.metric("checkpoint.bytes", leases.median_bytes(), "bytes");
    report.metric("checkpoint.encode_s", median(&leases.encode_s), "s");
    report.metric("checkpoint.resume_s", median(&leases.resume_s), "s");

    let waits: Vec<f64> =
        service_jobs.iter().filter_map(|t| t.first_progress.map(|p| p - t.submitted)).collect();
    let lag: Vec<f64> = service_jobs.iter().map(|t| t.submitted - t.scheduled).collect();
    report.metric("service.queue_wait_s", median(&waits), "s");
    report.metric("service.leases_per_job", leases.leases as f64, "leases");
    report.metric("service.lease_overhead_frac", leases.overhead_frac(), "ratio");
    report.metric("service.generator_lag_s", median(&lag), "s");
    report.metric("trace.overhead_frac", (wb / sb) / (wa / sa) - 1.0, "ratio");
    report.line(format!(
        "untraced {} jobs {:.0} windows/s; counted {} jobs {:.0} windows/s; {} service jobs",
        st.untraced.len(),
        wa / sa,
        st.counted.len(),
        wb / sb,
        service_jobs.len()
    ));
}
