//! The layer trace: what each layer of one estimator step costs, measured
//! on the real engine or checked bit for bit against it.
//!
//! * [`Counting`] wraps any backend and counts and times every call the
//!   real `Runner` makes into it. The prefetch hints are forwarded
//!   untouched, so the batched engine behaves exactly as it does bare.
//! * [`replay`] re-executes Algorithm 1 through the public layer calls
//!   (`StateWalk::step`, `NodeWindow::push`, the classification table,
//!   `CssWeights::sampling_probability_windowed`,
//!   `ScoreAccumulator::tick`), timing each, and must reproduce
//!   `Runner::run_with_walk` on the same walk and RNG bit for bit —
//!   otherwise the trace is refused, so it cannot drift into a lookalike
//!   loop.
//! * [`lease_replay`] drives one job the way the service does — resume,
//!   advance one round, checkpoint — through the public calls, and checks
//!   the answer against the same job run uninterrupted.

use crate::jobs::same_bits;
use crate::stats::median;
use gx_core::accuracy::{default_batch_len, ScoreAccumulator, StoppingRule};
use gx_core::css::CssWeights;
use gx_core::pie::pie_tilde;
use gx_core::{alpha_table, EstimatorConfig, NodeWindow, Runner};
use gx_graph::{GraphAccess, NodeId};
use gx_graphlets::{classify_table, num_graphlets};
use gx_walks::{
    effective_degree, random_start_edge, random_start_node, random_start_state, rng_from_seed,
    G2Walk, GdWalk, SrwWalk, StateWalk, WalkRng,
};
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Call counts and time of one traced stretch of engine work.
#[derive(Debug, Default, Clone, Copy)]
pub struct GraphCounters {
    /// Adjacency reads: `degree`, `neighbors`, `visit_neighbors`,
    /// `extend_neighbors`, `neighbor_at` and `has_edge` calls.
    pub fetches: u64,
    /// `has_edge` calls (also counted in `fetches`).
    pub has_edge: u64,
    /// Nodes read at least once, summed over jobs (a crawler's cache is
    /// per job).
    pub distinct: u64,
    /// Nanoseconds spent inside the backend, timer overhead included.
    pub ns: u64,
}

/// A `GraphAccess` wrapper that counts and times every call into the
/// backend. Time spent in a `visit_neighbors` callback (the caller's own
/// work on the lent slice) is excluded from the backend's time.
pub struct Counting<'a, G: GraphAccess> {
    inner: &'a G,
    counters: Cell<GraphCounters>,
    seen: RefCell<Vec<u64>>,
}

impl<'a, G: GraphAccess> Counting<'a, G> {
    pub fn new(inner: &'a G) -> Self {
        let words = inner.num_nodes().div_ceil(64);
        Self {
            inner,
            counters: Cell::new(GraphCounters::default()),
            seen: RefCell::new(vec![0; words]),
        }
    }

    /// Counters so far.
    pub fn counters(&self) -> GraphCounters {
        self.counters.get()
    }

    /// Forgets which nodes were read (call between jobs).
    pub fn new_job(&self) {
        self.seen.borrow_mut().fill(0);
    }

    #[inline]
    fn record(&self, v: NodeId, spent: u64, has_edge: bool) {
        let mut c = self.counters.get();
        c.fetches += 1;
        c.ns += spent;
        c.has_edge += u64::from(has_edge);
        let mut seen = self.seen.borrow_mut();
        let (w, b) = (v as usize / 64, 1u64 << (v % 64));
        if seen[w] & b == 0 {
            seen[w] |= b;
            c.distinct += 1;
        }
        self.counters.set(c);
    }
}

impl<G: GraphAccess> GraphAccess for Counting<'_, G> {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn degree(&self, v: NodeId) -> usize {
        let t = Instant::now();
        let r = self.inner.degree(v);
        self.record(v, since(t), false);
        r
    }

    fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let t = Instant::now();
        let r = self.inner.neighbors(v);
        self.record(v, since(t), false);
        r
    }

    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let t = Instant::now();
        let r = self.inner.has_edge(u, v);
        let spent = since(t);
        // Charged to the endpoint a crawler would fetch: the one with
        // the shorter list (as `ApiGraph` does).
        let probe = if self.inner.degree(u) <= self.inner.degree(v) { u } else { v };
        self.record(probe, spent, true);
        r
    }

    fn neighbor_at(&self, v: NodeId, i: usize) -> NodeId {
        let t = Instant::now();
        let r = self.inner.neighbor_at(v, i);
        self.record(v, since(t), false);
        r
    }

    fn visit_neighbors(&self, v: NodeId, f: &mut dyn FnMut(&[NodeId])) {
        let t = Instant::now();
        let mut in_callback = 0u64;
        self.inner.visit_neighbors(v, &mut |nbrs| {
            let c = Instant::now();
            f(nbrs);
            in_callback += since(c);
        });
        self.record(v, since(t).saturating_sub(in_callback), false);
    }

    fn extend_neighbors(&self, v: NodeId, out: &mut Vec<NodeId>) {
        let t = Instant::now();
        self.inner.extend_neighbors(v, out);
        self.record(v, since(t), false);
    }

    fn prefetch_degree(&self, v: NodeId) {
        self.inner.prefetch_degree(v);
    }

    fn prefetch_neighbors(&self, v: NodeId) {
        self.inner.prefetch_neighbors(v);
    }
}

#[inline(always)]
fn since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Per-layer cost of the replayed windows in ns (timer overhead not yet
/// subtracted: sums of raw timings).
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTimes {
    pub windows: u64,
    pub valid: u64,
    /// `step` + `state_degree` (the walk layer), per advancing window.
    pub walk: u64,
    pub walk_n: u64,
    /// `NodeWindow::push`.
    pub push: u64,
    pub push_n: u64,
    /// Mask extraction + classification-table lookup, per valid window.
    pub classify: u64,
    /// CSS (or π̃) weight, per valid window.
    pub css: u64,
    /// `ScoreAccumulator::tick`, per window.
    pub tick: u64,
    /// `StoppingRule::converged`, per check.
    pub check: u64,
    pub checks: u64,
    /// `NodeWindow::probes` after the run.
    pub probes: u64,
}

/// Replays a fixed-budget run of `steps` windows with the walk flavor
/// `cfg.d` selects, started from `seed` by the same protocol the runner
/// uses for walker 0. Returns the layer times, or an error if the replay
/// is not bit-identical to `Runner::run_with_walk` on the same walk and
/// RNG.
pub fn replay<G: GraphAccess>(
    g: &G,
    cfg: &EstimatorConfig,
    seed: u64,
    steps: usize,
    rule: &StoppingRule,
) -> Result<LayerTimes, String> {
    match cfg.d {
        1 => replay_with(g, cfg, steps, rule, || {
            let mut rng = rng_from_seed(seed);
            let start = random_start_node(g, &mut rng);
            (SrwWalk::new(g, start, cfg.non_backtracking), rng)
        }),
        2 => replay_with(g, cfg, steps, rule, || {
            let mut rng = rng_from_seed(seed);
            let (u, v) = random_start_edge(g, &mut rng);
            (G2Walk::new(g, u, v, cfg.non_backtracking), rng)
        }),
        _ => replay_with(g, cfg, steps, rule, || {
            let mut rng = rng_from_seed(seed);
            let start = random_start_state(g, cfg.d, &mut rng);
            (GdWalk::new(g, &start, cfg.non_backtracking), rng)
        }),
    }
}

fn replay_with<G: GraphAccess, W: StateWalk>(
    g: &G,
    cfg: &EstimatorConfig,
    steps: usize,
    rule: &StoppingRule,
    start: impl Fn() -> (W, WalkRng),
) -> Result<LayerTimes, String> {
    let (walk, rng) = start();
    let reference = Runner::new(cfg.clone())
        .steps(steps)
        .run_with_walk(g, walk, rng)
        .map_err(|e| format!("reference run: {e}"))?;

    let (mut walk, mut rng) = start();
    let k = cfg.k;
    let l = cfg.l();
    let nb = cfg.non_backtracking;
    let types = num_graphlets(k);
    let table = classify_table(k).ok_or("the replay covers k <= 5")?;
    let alphas = alpha_table(k, cfg.d);
    let mut css = cfg.css.then(|| CssWeights::new(k, cfg.d));
    let mut raw = vec![0.0f64; types];
    let mut acc = ScoreAccumulator::bounded(types, default_batch_len(steps), 0);
    let mut t = LayerTimes::default();

    // Burn-in and the first l states (the runner's window priming).
    for _ in 0..cfg.burn_in {
        walk.step(&mut rng);
    }
    let mut window = NodeWindow::new(l, cfg.d);
    let deg = walk.state_degree();
    window.push(g, walk.state(), deg);
    for _ in 1..l {
        walk.step(&mut rng);
        let deg = walk.state_degree();
        window.push(g, walk.state(), deg);
    }

    // The main loop in the engine's order: step, score, then read the
    // new state's degree and slide the window — the last window is
    // scored without advancing.
    for i in 0..steps {
        let advance = i + 1 < steps;
        if advance {
            let s = Instant::now();
            walk.step(&mut rng);
            t.walk += since(s);
            t.walk_n += 1;
        }
        if window.is_valid_sample() {
            let s = Instant::now();
            let (mask, _) = window.sample();
            let idx = table[mask as usize] as usize;
            t.classify += since(s);
            if idx >= types {
                return Err(format!("window {i}: mask {mask:#x} classifies as no graphlet"));
            }
            t.valid += 1;
            let s = Instant::now();
            let weight = if l == 1 {
                let d = window.states().next().map_or(0, |st| st.degree as usize);
                1.0 / (alphas[idx] as f64 * effective_degree(d, nb) as f64)
            } else if let Some(css) = css.as_mut() {
                1.0 / css.sampling_probability_windowed(g, mask, &window, nb)
            } else {
                1.0 / (alphas[idx] as f64 * pie_tilde(&window, nb))
            };
            t.css += since(s);
            raw[idx] += weight;
        }
        let s = Instant::now();
        acc.tick(&raw);
        t.tick += since(s);
        if (i + 1) % rule.check_every == 0 {
            let s = Instant::now();
            std::hint::black_box(rule.converged(acc.stats()));
            t.check += since(s);
            t.checks += 1;
        }
        if advance {
            let s = Instant::now();
            let deg = walk.state_degree();
            t.walk += since(s);
            let s = Instant::now();
            window.push(g, walk.state(), deg);
            t.push += since(s);
            t.push_n += 1;
        }
    }
    t.windows = steps as u64;
    t.probes = window.probes();

    let identical = reference.valid_samples as u64 == t.valid
        && reference.raw_scores.len() == raw.len()
        && reference.raw_scores.iter().zip(&raw).all(|(a, b)| a.to_bits() == b.to_bits());
    if !identical {
        return Err(format!(
            "layer replay diverged from Runner::run_with_walk ({} vs {} valid samples)",
            t.valid, reference.valid_samples
        ));
    }
    Ok(t)
}

/// One job driven lease by lease.
#[derive(Debug, Clone)]
pub struct LeaseStats {
    pub leases: usize,
    pub resume_s: Vec<f64>,
    pub advance_s: Vec<f64>,
    pub encode_s: Vec<f64>,
    pub bytes: Vec<f64>,
}

impl LeaseStats {
    /// Share of the lease time spent outside `advance` (resume plus
    /// checkpoint).
    pub fn overhead_frac(&self) -> f64 {
        let over: f64 = self.resume_s.iter().chain(&self.encode_s).sum();
        let adv: f64 = self.advance_s.iter().sum();
        over / (over + adv)
    }

    pub fn median_bytes(&self) -> f64 {
        median(&self.bytes)
    }
}

/// Runs `runner`'s job as service leases of `round_windows` each: start
/// (adopting `fingerprint`), then per lease advance one round,
/// checkpoint into memory, drop the handle and resume it trusted.
/// The finished estimate must equal the uninterrupted `run_local`.
pub fn lease_replay<G: GraphAccess>(
    g: &G,
    fingerprint: u64,
    runner: &Runner,
    round_windows: usize,
) -> Result<LeaseStats, String> {
    let solo = runner.run_local(g).map_err(|e| format!("solo run: {e}"))?;
    let mut h = runner.start(g).map_err(|e| format!("start: {e}"))?;
    h.adopt_fingerprint(fingerprint);
    let mut st = LeaseStats {
        leases: 0,
        resume_s: Vec::new(),
        advance_s: Vec::new(),
        encode_s: Vec::new(),
        bytes: Vec::new(),
    };
    loop {
        st.leases += 1;
        let s = Instant::now();
        let p = h.advance(round_windows);
        st.advance_s.push(s.elapsed().as_secs_f64());
        if p.finished {
            break;
        }
        let s = Instant::now();
        let mut buf = Vec::new();
        h.checkpoint(&mut buf).map_err(|e| format!("checkpoint: {e}"))?;
        st.encode_s.push(s.elapsed().as_secs_f64());
        st.bytes.push(buf.len() as f64);
        drop(h);
        let s = Instant::now();
        h = Runner::resume_trusted(g, fingerprint, &mut buf.as_slice())
            .map_err(|e| format!("resume: {e}"))?;
        st.resume_s.push(s.elapsed().as_secs_f64());
    }
    if !same_bits(&h.finish(), &solo) {
        return Err("lease-by-lease run differs from the uninterrupted run".into());
    }
    Ok(st)
}
