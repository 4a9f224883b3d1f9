//! The estimation front-end: the one entry point for fixed/adaptive ×
//! sequential/parallel runs.
//!
//! The paper's framework is one algorithm over `(k, d, css, nb)`, and its
//! parallel form is the same estimator run as independent chains, so the
//! [`Runner`] builder composes the orthogonal axes explicitly:
//!
//! * **config** — the [`EstimatorConfig`] passed to [`Runner::new`];
//! * **budget** — [`Runner::steps`] (fixed) or [`Runner::until`]
//!   (adaptive, with a [`StoppingRule`]);
//! * **execution** — [`Runner::walkers`] (independent chains
//!   cooperating on the budget; `.walkers(available_cores())` for one
//!   per core), [`Runner::batch_width`] and [`Runner::seed`];
//! * **observability** — [`Runner::on_progress`] callbacks and the
//!   resumable [`RunHandle`] from [`Runner::start`];
//! * **resilience** — [`RunHandle::checkpoint`] snapshots a live run
//!   into any writer (atomically onto disk via
//!   [`RunHandle::checkpoint_to_file`]), [`Runner::resume`] rebuilds it
//!   in a fresh process with golden-bit fidelity (see the
//!   [`crate::checkpoint`] module docs for the corruption model). A run
//!   either finishes, every walker scoring its full share (or an
//!   adaptive target met), or returns a typed [`GxError`].
//!
//! Walkers pool one way for every budget: the walker-order merge of
//! their own batch-means accumulators, rebuilt from the sessions when
//! read (see [`RunHandle`]).
//!
//! Every runner path is **panic-free on bad input**: an invalid
//! configuration, rule, fan-out or walk comes back as a [`GxError`].
//! [`Runner::run_local`] serves graphs that are not `Sync` (the metered
//! crawling graph), and [`Runner::run_with_walk`] a caller-supplied
//! walk.
//!
//! ```
//! use gx_core::{EstimatorConfig, runner::Runner};
//! let g = gx_graph::generators::classic::paper_figure1();
//! let est = Runner::new(EstimatorConfig::recommended(3))
//!     .steps(20_000)
//!     .seed(7)
//!     .run(&g)
//!     .expect("valid configuration");
//! assert_eq!(est.steps, 20_000);
//! ```
//!
//! # Determinism contract
//!
//! A runner's output is a pure function of
//! `(graph, config, budget, seed, walkers)`: the same chains, scored
//! windows, and walker-order merges bit for bit — regardless of thread
//! count ([`Runner::run`] vs
//! [`Runner::run_local`]) and regardless of how a [`RunHandle`] is
//! advanced (the persistent [`crate::estimator`] chains only ever step
//! *between* scored windows, so splitting a budget over
//! [`RunHandle::advance`] calls cannot move a sample).

use crate::accuracy::{
    default_batch_len, studentized_critical, AdaptiveTracker, BatchStats, StoppingRule,
};
use crate::checkpoint::{
    graph_fingerprint, put_f64, put_u64, put_u8, put_usize, read_envelope, write_atomic,
    write_envelope, Reader,
};
use crate::config::EstimatorConfig;
use crate::error::{CheckpointError, GxError};
use crate::estimator::{prewarm, run_walk_batch, AnySession, WalkSession};
use crate::parallel::{available_cores, walker_seed, walker_steps};
use crate::result::Estimate;
use gx_graph::GraphAccess;
use gx_graphlets::num_graphlets;
use gx_walks::{StateWalk, WalkRng};
use std::io::{Read, Write};
use std::path::Path;
use std::rc::Rc;

/// The run's step budget: a fixed window count, or adaptive stopping.
#[derive(Debug, Clone)]
enum Budget {
    /// No budget chosen yet — running is a [`GxError::NoBudget`].
    Unset,
    /// Score exactly `n` windows (split near-equally over walkers).
    Fixed(usize),
    /// Walk until the rule's confidence target is met (or its cap).
    Until(StoppingRule),
}

/// A progress snapshot, delivered to [`Runner::on_progress`] callbacks
/// after every increment and returned by [`RunHandle::advance`] /
/// [`RunHandle::progress`].
#[derive(Debug, Clone, Copy)]
pub struct Progress {
    /// Scored windows so far, pooled over walkers.
    pub steps: usize,
    /// Walkers cooperating on the budget.
    pub walkers: usize,
    /// Increments (adaptive: convergence checks) completed so far.
    pub rounds: usize,
    /// Pooled completed error-bar batches.
    pub batches: u64,
    /// Current widest relative CI half-width over qualifying types,
    /// studentized (the adaptive rule's `z`/floor, or 95%/1% for fixed
    /// budgets). `NaN` until two batches complete.
    pub width: f64,
    /// Whether an adaptive run has met its stopping rule (always `false`
    /// for fixed budgets).
    pub converged: bool,
    /// Whether the run is over: converged, or every walker's budget
    /// share is exhausted.
    pub finished: bool,
}

type ProgressFn = Rc<dyn Fn(&Progress)>;

/// Builder-style front door to the whole estimation framework: config ×
/// budget × execution × observability, composed with method chaining and
/// executed with [`Runner::run`] (or driven incrementally via
/// [`Runner::start`]). See the [module docs](crate::runner) for the axes
/// and the determinism contract.
#[derive(Clone)]
pub struct Runner {
    cfg: EstimatorConfig,
    budget: Budget,
    walkers: usize,
    batch_width: usize,
    seed: u64,
    progress: Option<ProgressFn>,
}

impl std::fmt::Debug for Runner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runner")
            .field("cfg", &self.cfg)
            .field("budget", &self.budget)
            .field("walkers", &self.walkers)
            .field("batch_width", &self.batch_width)
            .field("seed", &self.seed)
            .field("progress", &self.progress.as_ref().map(|_| "Fn(&Progress)"))
            .finish()
    }
}

impl Runner {
    /// A runner for `cfg` with no budget yet, one walker and seed 0.
    /// Nothing is validated until a run entry point is called —
    /// builders never panic.
    pub fn new(cfg: EstimatorConfig) -> Self {
        Self { cfg, budget: Budget::Unset, walkers: 1, batch_width: 1, seed: 0, progress: None }
    }

    /// Fixed budget: score exactly `steps` windows (Algorithm 1's sample
    /// budget n, split near-equally over walkers). Replaces any budget
    /// chosen earlier.
    pub fn steps(mut self, steps: usize) -> Self {
        self.budget = Budget::Fixed(steps);
        self
    }

    /// Adaptive budget: walk until `rule` declares convergence or its
    /// `max_steps` cap is exhausted. Replaces any budget chosen earlier.
    pub fn until(mut self, rule: StoppingRule) -> Self {
        self.budget = Budget::Until(rule);
        self
    }

    /// Fan the budget over `walkers` independent chains (walker `i` uses
    /// the RNG stream of [`crate::parallel::walker_seed`]). `0` is
    /// reported as [`GxError::NoWalkers`] at run time.
    pub fn walkers(mut self, walkers: usize) -> Self {
        self.walkers = walkers;
        self
    }

    /// Advances walkers in groups of `b` lanes (clamped to the walker
    /// count at start). Width 1 — the default — runs each walker as its
    /// own one-lane group, stepping and scoring back to back; wider
    /// groups interleave one walk step per lane per iteration, with each
    /// lane's next CSR lines software-prefetched while the other lanes
    /// compute, which is pure memory-level parallelism: every walker's
    /// sample stream is **bit-identical** to width 1's for every width.
    /// `0` is reported as [`GxError::ZeroBatchWidth`] at run time.
    pub fn batch_width(mut self, b: usize) -> Self {
        self.batch_width = b;
        self
    }

    /// Seed of the run (walker 0 replays the sequential estimator's
    /// chain for this seed). Defaults to 0.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Registers a progress callback, invoked after every increment of
    /// the run (each adaptive convergence check; ~16 ticks over a fixed
    /// budget; every [`RunHandle::advance`] call). Observability only:
    /// the callback cannot alter the run, and output is bit-identical
    /// with or without it.
    pub fn on_progress(mut self, f: impl Fn(&Progress) + 'static) -> Self {
        self.progress = Some(Rc::new(f));
        self
    }

    /// Validates everything the run needs up front and resolves the
    /// budget: the adaptive rule (`None` for fixed budgets), the batch
    /// length, and the total step cap. A resumed snapshot's fields pass
    /// through here too (via [`Runner::start`]), so a fresh run and a
    /// resume share one validation path.
    fn check(&self) -> Result<(Option<&StoppingRule>, usize, usize), GxError> {
        self.cfg.try_validate()?;
        if self.walkers == 0 {
            return Err(GxError::NoWalkers);
        }
        if self.batch_width == 0 {
            return Err(GxError::ZeroBatchWidth);
        }
        match &self.budget {
            Budget::Unset => Err(GxError::NoBudget),
            Budget::Fixed(steps) => Ok((None, default_batch_len(*steps), *steps)),
            Budget::Until(rule) => {
                rule.try_validate()?;
                if rule.max_series_batches != 0 && self.walkers > 1 {
                    // Independent per-walker R-batching collapses would
                    // desynchronize the pooled batch lengths.
                    return Err(GxError::BoundedMemoryParallel { walkers: self.walkers });
                }
                Ok((Some(rule), rule.batch_len, rule.max_steps))
            }
        }
    }

    /// Runs to completion, fanning walkers over the machine's cores when
    /// `walkers > 1` (requires `G: Sync`; the metered
    /// `ApiGraph` is deliberately not `Sync` — use [`Runner::run_local`]
    /// for crawling simulations). Output is bit-identical to
    /// [`Runner::run_local`] for every fan-out: walker order, not thread
    /// schedule, fixes every merge.
    pub fn run<G: GraphAccess + Sync>(&self, g: &G) -> Result<Estimate, GxError> {
        self.check()?;
        if self.walkers > 1 {
            // Build the shared tables once, up front: walker threads
            // must not serialize behind one cold `OnceLock` build.
            prewarm(&self.cfg);
            self.drive(g, |handle, windows| handle.advance_par(windows))
        } else {
            self.drive(g, |handle, windows| handle.advance(windows))
        }
    }

    /// [`Runner::run`] confined to the calling thread: walkers advance
    /// one after another in walker order instead of across cores.
    /// Bit-identical output; this is the path for graphs that are not
    /// `Sync` (restricted-access crawling).
    pub fn run_local<G: GraphAccess>(&self, g: &G) -> Result<Estimate, GxError> {
        self.drive(g, |handle, windows| handle.advance(windows))
    }

    /// The one drive loop behind [`Runner::run`] and
    /// [`Runner::run_local`] — only the advance flavor differs, so the
    /// two entry points cannot drift apart. (`start` re-validates, so
    /// callers need no separate `check`.)
    fn drive<'g, G: GraphAccess>(
        &self,
        g: &'g G,
        mut advance: impl FnMut(&mut RunHandle<'g, G>, usize) -> Progress,
    ) -> Result<Estimate, GxError> {
        let mut handle = self.start(g)?;
        let windows = self.increment(handle.caps.iter().copied().max().unwrap_or(0));
        while !handle.is_finished() {
            advance(&mut handle, windows);
        }
        Ok(handle.finish())
    }

    /// The per-walker round size every runner path drives its chains
    /// with, given the largest walker share `max_share`: the rule's
    /// check cadence for adaptive budgets; the whole share for fixed
    /// budgets (split into ~16 increments when a progress callback wants
    /// ticks — the chains' resumability makes the split invisible in the
    /// output).
    fn increment(&self, max_share: usize) -> usize {
        match &self.budget {
            Budget::Until(rule) => rule.check_every,
            Budget::Fixed(_) if self.progress.is_some() => (max_share / 16).max(1),
            _ => usize::MAX,
        }
    }

    /// Starts a resumable run: primes nothing yet (each walker's chain
    /// is created lazily on its first advance), returns the
    /// [`RunHandle`] that owns the persistent chains. Requires only
    /// `GraphAccess`; the handle advances walkers on the calling thread
    /// unless [`RunHandle::advance_par`] is used.
    pub fn start<'g, G: GraphAccess>(&self, g: &'g G) -> Result<RunHandle<'g, G>, GxError> {
        let (rule, _, max_steps) = self.check()?;
        let mut sessions = Vec::new();
        sessions.resize_with(self.walkers, || None);
        Ok(RunHandle {
            g,
            cfg: self.cfg.clone(),
            rule: rule.cloned(),
            // Clamped here so a width wider than the fan-out (harmless —
            // a group can never exceed the walker count) normalizes to
            // the value checkpoints carry and `resume` validates.
            batch_width: self.batch_width.min(self.walkers),
            seed: self.seed,
            caps: (0..self.walkers).map(|i| walker_steps(max_steps, self.walkers, i)).collect(),
            sessions,
            tracker: AdaptiveTracker::new(num_graphlets(self.cfg.k)),
            rounds: 0,
            met: false,
            progress: self.progress.clone(),
            fingerprint: None,
        })
    }

    /// Rebuilds a live [`RunHandle`] from a checkpoint stream written by
    /// [`RunHandle::checkpoint`], resuming the run against `g`.
    ///
    /// The envelope (magic, version, length, checksum) is verified
    /// before a single payload field is parsed, and the snapshot's graph
    /// fingerprint must match `g`
    /// ([`CheckpointError::GraphMismatch`] otherwise) — resuming against
    /// a different graph would silently estimate statistics of the wrong
    /// graph. Any truncated, bit-flipped, or internally inconsistent
    /// snapshot is a typed [`GxError::Checkpoint`]; no corrupt input
    /// panics.
    ///
    /// **Golden-bit contract:** checkpoint → drop the handle (or the
    /// process) → `resume` → drive to completion produces bit-identical
    /// output to the uninterrupted run — fixed and adaptive budgets, any
    /// walker count, any checkpoint cadence. Progress callbacks do not
    /// travel in snapshots; re-attach one with
    /// [`RunHandle::on_progress`] if wanted.
    pub fn resume<'g, G: GraphAccess, R: Read>(
        g: &'g G,
        r: &mut R,
    ) -> Result<RunHandle<'g, G>, GxError> {
        let payload = read_envelope(r)?;
        let mut rd = Reader::new(&payload);
        let handle = RunHandle::decode_from(&mut rd, g, None)?;
        rd.finish()?;
        Ok(handle)
    }

    /// [`Runner::resume`] with a caller-supplied fingerprint of `g`,
    /// skipping the O(edges) [`graph_fingerprint`] rescan — the
    /// re-adoption path for serving layers that hold many jobs against
    /// one cached snapshot and re-resume them every scheduler round.
    ///
    /// `fingerprint` **must** be the value `graph_fingerprint(g)` would
    /// return (computed once when the snapshot was cached); passing a
    /// stale or foreign fingerprint forfeits the wrong-graph protection
    /// [`CheckpointError::GraphMismatch`] exists to provide. Debug
    /// builds verify the claim against the graph.
    pub fn resume_trusted<'g, G: GraphAccess, R: Read>(
        g: &'g G,
        fingerprint: u64,
        r: &mut R,
    ) -> Result<RunHandle<'g, G>, GxError> {
        debug_assert_eq!(
            fingerprint,
            graph_fingerprint(g),
            "resume_trusted fingerprint must match the offered graph"
        );
        let payload = read_envelope(r)?;
        let mut rd = Reader::new(&payload);
        let handle = RunHandle::decode_from(&mut rd, g, Some(fingerprint))?;
        rd.finish()?;
        Ok(handle)
    }

    /// [`Runner::resume`] from a checkpoint file (the counterpart of
    /// [`RunHandle::checkpoint_to_file`]).
    pub fn resume_from_file<'g, G: GraphAccess, P: AsRef<Path>>(
        g: &'g G,
        path: P,
    ) -> Result<RunHandle<'g, G>, GxError> {
        let bytes = std::fs::read(path)?;
        Self::resume(g, &mut bytes.as_slice())
    }

    /// Runs the configured budget over a caller-supplied walk. A
    /// supplied walk is one concrete chain, so the fan-out must be 1
    /// ([`GxError::ParallelCustomWalk`] otherwise) and the walk's
    /// dimension must match the configuration's `d`
    /// ([`GxError::WalkDimensionMismatch`]).
    ///
    /// The chain follows a [`RunHandle`]'s schedule: rounds of the
    /// runner's increment (the rule's `check_every`, or ~16 rounds over a
    /// fixed budget when a progress callback is set), a convergence check
    /// after each adaptive round, and one [`Runner::on_progress`] tick per
    /// round with the handle's [`Progress`] widths. Fed walker 0's start
    /// (its seed's RNG and random start state), the result is
    /// bit-identical to [`Runner::run_local`].
    ///
    /// [`Runner::seed`] has no effect here — the caller supplies both
    /// the walk's start state and the RNG, which together *are* the
    /// seed.
    pub fn run_with_walk<G: GraphAccess, W: StateWalk>(
        &self,
        g: &G,
        walk: W,
        rng: WalkRng,
    ) -> Result<Estimate, GxError> {
        let (rule, batch_len, max_steps) = self.check()?;
        if self.walkers > 1 {
            return Err(GxError::ParallelCustomWalk { walkers: self.walkers });
        }
        if walk.d() != self.cfg.d {
            return Err(GxError::WalkDimensionMismatch { walk_d: walk.d(), cfg_d: self.cfg.d });
        }
        let cap = rule.map_or(0, |r| r.max_series_batches);
        let mut session = WalkSession::from_parts(g, &self.cfg, walk, rng, batch_len, cap);
        let mut tracker = AdaptiveTracker::new(num_graphlets(self.cfg.k));
        let round = self.increment(max_steps);
        let (mut done, mut rounds, mut met) = (0usize, 0usize, false);
        while done < max_steps && !met {
            let n = round.min(max_steps - done);
            run_walk_batch(&mut [(&mut session, n)]);
            done += n;
            rounds += 1;
            if let Some(rule) = rule {
                met = tracker.observe(rule, session.stats(), done);
            }
            if let Some(cb) = &self.progress {
                let (batches, width) = ci_width(session.stats(), rule);
                cb(&Progress {
                    steps: done,
                    walkers: 1,
                    rounds,
                    batches,
                    width,
                    converged: met,
                    finished: met || done >= max_steps,
                });
            }
        }
        let crit = rule.map(|r| r.critical_value(session.stats().batches()));
        let mut est = session.into_estimate(&self.cfg);
        est.adaptive = crit.map(|crit| tracker.report(1, rounds, done, met, crit));
        Ok(est)
    }
}

/// Pooled batch count and widest studentized relative CI half-width of
/// `stats`: under the adaptive rule's `z` and concentration floor, or
/// 95% / 1% for fixed budgets — the [`Progress`] widths of every runner
/// path.
fn ci_width(stats: &BatchStats, rule: Option<&StoppingRule>) -> (u64, f64) {
    let batches = stats.batches();
    let width = match rule {
        Some(rule) => {
            stats.max_relative_half_width(rule.critical_value(batches), rule.min_concentration)
        }
        None => stats.max_relative_half_width(studentized_critical(1.96, batches), 0.01),
    };
    (batches, width)
}

/// Advances each walker slot by its share, creating a slot's chain with
/// `open(walker)` on its first advance (`base` is the walker index of
/// `slots[0]`). Walkers run in groups of `width` (≥ 1) lanes, one group
/// after another; width 1 runs each walker as its own one-lane group. Grouping
/// is pure scheduling — each lane's stream is the same bits in any
/// group — so the group boundaries need no relation to thread chunks or
/// checkpoint cadence.
fn advance_slots<'g, G: GraphAccess>(
    slots: &mut [Option<AnySession<'g, G>>],
    shares: &[usize],
    base: usize,
    width: usize,
    open: &impl Fn(usize) -> AnySession<'g, G>,
) {
    for (c, (sub, sub_shares)) in slots.chunks_mut(width).zip(shares.chunks(width)).enumerate() {
        let mut group = Vec::with_capacity(sub.len());
        for (off, (slot, &share)) in sub.iter_mut().zip(sub_shares).enumerate() {
            if share > 0 {
                group.push((slot.get_or_insert_with(|| open(base + c * width + off)), share));
            }
        }
        AnySession::run_batch(&mut group);
    }
}

/// A live, resumable estimation run: the persistent per-walker chains
/// ([`crate::estimator`]'s `WalkSession`/`AnySession`), advanced in
/// increments with [`RunHandle::advance`] — each increment runs the
/// walkers through the one engine, `run_walk_batch`, in groups of
/// [`RunHandle::batch_width`] lanes — observable between increments
/// ([`RunHandle::estimate`] / [`RunHandle::progress`]), and finished
/// with [`RunHandle::finish`].
///
/// **Determinism:** chains only ever step between scored windows, so
/// *any* sequence of `advance` calls covering the budget yields the same
/// scored-window stream; a finished handle is bit-identical to the
/// corresponding one-shot [`Runner::run`] — including walker fan-out —
/// when advanced on the run's natural schedule (any increments for fixed
/// budgets; the rule's `check_every` for adaptive ones, since the check
/// schedule decides where an adaptive run stops).
///
/// **One pool:** the pooled statistics are a pure function of the
/// walkers' sessions — the walker-order Chan merge
/// ([`BatchStats::merge`]) of their own accumulators, rebuilt when read,
/// for fixed and adaptive budgets alike. With one walker the pool is
/// the walker's own accumulator bit for bit (also after a bounded-memory
/// collapse). Everything else derivable — per-walker scored counts,
/// batch length, caps — is derived too, so neither the handle nor its
/// checkpoint holds a second copy.
///
/// **Crash resilience:** [`RunHandle::checkpoint`] serializes the live
/// state between advances, and [`Runner::resume`] rebuilds it with
/// golden-bit fidelity. A run finishes when every walker has scored its
/// full share (or an adaptive target is met); failures are typed
/// [`GxError`]s, never a partial answer.
pub struct RunHandle<'g, G: GraphAccess> {
    g: &'g G,
    cfg: EstimatorConfig,
    /// `None` for fixed budgets.
    rule: Option<StoppingRule>,
    /// Engine group width (1 = one walker per group), clamped to the
    /// walker count. Travels in checkpoints so a resumed run keeps its
    /// grouping — though every width resumes every other width's
    /// snapshots bit-identically.
    batch_width: usize,
    seed: u64,
    /// Per-walker step budget: the budget's near-equal split
    /// ([`walker_steps`]), computed at start and at resume.
    caps: Vec<usize>,
    /// Lazily-created persistent chains, index = walker.
    sessions: Vec<Option<AnySession<'g, G>>>,
    tracker: AdaptiveTracker,
    rounds: usize,
    met: bool,
    progress: Option<ProgressFn>,
    /// Cached [`graph_fingerprint`] — computed on the first checkpoint,
    /// so runs that never checkpoint never pay the O(edges) scan.
    fingerprint: Option<u64>,
}

impl<G: GraphAccess> std::fmt::Debug for RunHandle<'_, G> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunHandle")
            .field("cfg", &self.cfg)
            .field("rule", &self.rule)
            .field("walkers", &self.caps.len())
            .field("seed", &self.seed)
            .field("steps", &self.steps())
            .field("rounds", &self.rounds)
            .field("finished", &self.is_finished())
            .finish_non_exhaustive()
    }
}

impl<'g, G: GraphAccess> RunHandle<'g, G> {
    /// Steps per error-bar batch: the rule's, or the `B ≈ √n` default
    /// of the fixed budget (the sum of the walkers' shares).
    fn batch_len(&self) -> usize {
        match &self.rule {
            Some(rule) => rule.batch_len,
            None => default_batch_len(self.caps.iter().sum()),
        }
    }

    /// The rule's bounded-memory cap (0 = unbounded), threaded into
    /// every walker accumulator.
    fn series_cap(&self) -> usize {
        self.rule.as_ref().map_or(0, |r| r.max_series_batches)
    }

    /// Per-walker scored windows so far: each session's own count, 0
    /// before a walker's first advance.
    fn done(&self) -> impl Iterator<Item = usize> + '_ {
        self.sessions.iter().map(|s| s.as_ref().map_or(0, AnySession::scored))
    }

    /// Per-walker share of an advance by `windows` scored windows:
    /// remaining budget capped, zero for everyone once the run has
    /// converged. Precomputed before any chain moves, so
    /// [`RunHandle::advance`] and [`RunHandle::advance_par`] distribute
    /// identically.
    fn shares(&self, windows: usize) -> Vec<usize> {
        if self.met {
            return vec![0; self.caps.len()];
        }
        self.caps.iter().zip(self.done()).map(|(&c, d)| windows.min(c - d)).collect()
    }

    /// Advances every still-budgeted walker by up to `windows` more
    /// scored windows on the calling thread (walker order), then pools
    /// the walkers, evaluates the stopping rule (adaptive budgets), and
    /// fires the progress callback.
    ///
    /// `advance(0)` is a **documented no-op**: no chain moves, no round
    /// is counted, no callback fires — it just returns the current
    /// [`Progress`] (the same snapshot [`RunHandle::progress`] reads),
    /// which makes it a safe poll. A finished run behaves the same for
    /// any `windows`.
    pub fn advance(&mut self, windows: usize) -> Progress {
        let Some(shares) = self.begin_round(windows) else {
            return self.progress();
        };
        let (g, cfg, seed, batch_len, cap) =
            (self.g, &self.cfg, self.seed, self.batch_len(), self.series_cap());
        let open = |i| AnySession::new(g, cfg, walker_seed(seed, i), batch_len, cap);
        advance_slots(&mut self.sessions, &shares, 0, self.batch_width, &open);
        self.after_round()
    }

    /// Opens a round of up to `windows` more scored windows per walker:
    /// returns the per-walker shares — or `None` when no chain would
    /// move (`windows == 0`, or a finished run), the documented no-op of
    /// both advances.
    fn begin_round(&self, windows: usize) -> Option<Vec<usize>> {
        if windows == 0 {
            return None;
        }
        let shares = self.shares(windows);
        shares.iter().any(|&s| s > 0).then_some(shares)
    }

    /// Bookkeeping shared by the sequential and threaded advances: one
    /// pool per round feeds both the stopping rule and the progress.
    fn after_round(&mut self) -> Progress {
        self.rounds += 1;
        let pool = self.pooled_stats();
        if let Some(rule) = &self.rule {
            self.met = self.tracker.observe(rule, &pool, self.steps());
        }
        let p = self.progress_of(&pool);
        if let Some(cb) = &self.progress {
            cb(&p);
        }
        p
    }

    /// The pooled batch-means statistics: the walker-order Chan merge of
    /// the live sessions' accumulators, seeded with a clone of the first
    /// — so one walker's pool is its own accumulator bit for bit. The
    /// one pool behind [`Progress`], the stopping rule,
    /// [`RunHandle::estimate`] and [`RunHandle::finish`], for every
    /// budget.
    fn pooled_stats(&self) -> BatchStats {
        let mut live = self.sessions.iter().flatten().map(AnySession::stats);
        let Some(first) = live.next() else {
            return BatchStats::new(num_graphlets(self.cfg.k), self.batch_len());
        };
        let mut pool = first.clone();
        for stats in live {
            pool.merge(stats);
        }
        pool
    }

    /// Scored windows so far, pooled over walkers.
    pub fn steps(&self) -> usize {
        self.done().sum()
    }

    /// Whether the run is over: adaptive target met, or every walker
    /// has exhausted its budget share.
    pub fn is_finished(&self) -> bool {
        self.met || self.done().zip(&self.caps).all(|(d, &c)| d >= c)
    }

    /// (Re-)attaches a progress callback — e.g. after [`Runner::resume`],
    /// since callbacks cannot travel in a snapshot.
    pub fn on_progress(&mut self, f: impl Fn(&Progress) + 'static) {
        self.progress = Some(Rc::new(f));
    }

    /// The engine's group width (1 = one walker per group).
    pub fn batch_width(&self) -> usize {
        self.batch_width
    }

    /// Switches the group width for subsequent advances, clamped to
    /// `1..=walkers`. Safe at any point — including on a handle resumed
    /// from a snapshot taken at another width — because every width's
    /// sample streams are bit-identical; checkpoints taken after the
    /// switch carry the new width.
    pub fn set_batch_width(&mut self, b: usize) {
        self.batch_width = b.clamp(1, self.caps.len());
    }

    /// Pre-seeds the handle's cached [`graph_fingerprint`] so the first
    /// [`RunHandle::checkpoint`] skips the O(edges) scan — the fresh-start
    /// counterpart of [`Runner::resume_trusted`] for serving layers that
    /// fingerprint each snapshot once at cache-intern time.
    ///
    /// `fingerprint` **must** be `graph_fingerprint` of this handle's
    /// graph; a wrong value would stamp every checkpoint with a foreign
    /// identity and poison later resumes. Debug builds verify the claim.
    pub fn adopt_fingerprint(&mut self, fingerprint: u64) {
        debug_assert_eq!(
            fingerprint,
            graph_fingerprint(self.g),
            "adopted fingerprint must match the handle's graph"
        );
        self.fingerprint = Some(fingerprint);
    }

    /// The current progress snapshot (also what [`RunHandle::advance`]
    /// returns).
    pub fn progress(&self) -> Progress {
        self.progress_of(&self.pooled_stats())
    }

    /// The [`Progress`] of the handle around its pool `pool`.
    fn progress_of(&self, pool: &BatchStats) -> Progress {
        let (batches, width) = ci_width(pool, self.rule.as_ref());
        Progress {
            steps: self.steps(),
            walkers: self.caps.len(),
            rounds: self.rounds,
            batches,
            width,
            converged: self.met,
            finished: self.is_finished(),
        }
    }

    /// An interim [`Estimate`] of the run so far — raw scores, error
    /// bars, and (for adaptive budgets) the convergence report, exactly
    /// as [`RunHandle::finish`] would pack them at this point.
    pub fn estimate(&self) -> Estimate {
        let accuracy = self.pooled_stats();
        let types = num_graphlets(self.cfg.k);
        let mut raw = vec![0.0f64; types];
        let mut valid = 0usize;
        for session in self.sessions.iter().flatten() {
            for (acc, x) in raw.iter_mut().zip(session.raw()) {
                *acc += x;
            }
            valid += session.valid();
        }
        let adaptive = self.rule.as_ref().map(|rule| {
            let crit = rule.critical_value(accuracy.batches());
            self.tracker.report(self.caps.len(), self.rounds, self.steps(), self.met, crit)
        });
        Estimate {
            config: self.cfg.clone(),
            steps: self.steps(),
            valid_samples: valid,
            raw_scores: raw,
            accuracy: Some(accuracy),
            adaptive,
        }
    }

    /// Consumes the handle, returning the final [`Estimate`] — the
    /// [`RunHandle::estimate`] of the finished run. See the type docs
    /// for the bit-identity contract with one-shot runs.
    pub fn finish(self) -> Estimate {
        self.estimate()
    }

    /// Serializes the run's live state into `w` as a versioned,
    /// checksummed snapshot: configuration, budget, the adaptive
    /// tracker's latches, and each walker's session (RNG raw
    /// state, walk position, scoring window, raw scores, batch-means
    /// accumulator). Nothing derivable is written — the pool, per-walker
    /// counts, caps and batch length are rebuilt at resume. Call it
    /// between advances, at any cadence — resuming via
    /// [`Runner::resume`] and driving to completion reproduces the
    /// uninterrupted run bit for bit.
    ///
    /// Fails with [`GxError::Io`] on writer errors, and with
    /// [`CheckpointError::TooLarge`] — before a byte is written — for a
    /// snapshot over the 64 MiB ceiling [`Runner::resume`] enforces, so
    /// every snapshot written resumes. A failed checkpoint never perturbs
    /// the run: the handle advances and finishes exactly as if the call
    /// had not happened.
    pub fn checkpoint<W: Write>(&mut self, w: &mut W) -> Result<(), GxError> {
        let fingerprint = match self.fingerprint {
            Some(fp) => fp,
            None => {
                let fp = graph_fingerprint(self.g);
                self.fingerprint = Some(fp);
                fp
            }
        };
        let payload = self.encode_payload(fingerprint);
        write_envelope(&payload, w)
    }

    /// [`RunHandle::checkpoint`] onto disk via
    /// [`crate::checkpoint::write_atomic`] (temporary sibling → fsync →
    /// rename): a crash mid-write leaves the previous checkpoint file
    /// intact, never a torn half-write — the property that makes a live
    /// checkpoint cadence safe. An over-ceiling snapshot fails as in
    /// [`RunHandle::checkpoint`], leaving the file untouched.
    pub fn checkpoint_to_file<P: AsRef<Path>>(&mut self, path: P) -> Result<(), GxError> {
        let mut bytes = Vec::new();
        self.checkpoint(&mut bytes)?;
        write_atomic(path, &bytes)
    }

    /// The flat field encoding behind [`RunHandle::checkpoint`] (the
    /// envelope is layered on top by the caller).
    fn encode_payload(&self, fingerprint: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u64(&mut buf, fingerprint);
        put_usize(&mut buf, self.cfg.k);
        put_usize(&mut buf, self.cfg.d);
        put_u8(&mut buf, self.cfg.css as u8);
        put_u8(&mut buf, self.cfg.non_backtracking as u8);
        put_usize(&mut buf, self.cfg.burn_in);
        match &self.rule {
            None => {
                put_u8(&mut buf, 0);
                put_usize(&mut buf, self.caps.iter().sum());
            }
            Some(rule) => {
                put_u8(&mut buf, 1);
                put_f64(&mut buf, rule.target_rel_ci);
                put_usize(&mut buf, rule.check_every);
                put_usize(&mut buf, rule.max_steps);
                put_f64(&mut buf, rule.z);
                put_usize(&mut buf, rule.batch_len);
                put_u64(&mut buf, rule.min_batches);
                put_f64(&mut buf, rule.min_concentration);
                put_u8(&mut buf, rule.per_type as u8);
                put_usize(&mut buf, rule.max_series_batches);
            }
        }
        put_u64(&mut buf, self.seed);
        put_usize(&mut buf, self.caps.len());
        put_usize(&mut buf, self.batch_width);
        put_usize(&mut buf, self.rounds);
        put_u8(&mut buf, self.met as u8);
        self.tracker.encode_into(&mut buf);
        for s in &self.sessions {
            match s {
                None => put_u8(&mut buf, 0),
                Some(s) => {
                    put_u8(&mut buf, 1);
                    s.encode_into(&mut buf);
                }
            }
        }
        buf
    }

    /// Inverse of [`RunHandle::encode_payload`]. The budget, batch
    /// length and caps resolve through the same [`Runner::check`] and
    /// [`Runner::start`] a fresh run takes; every session is then
    /// checked against the handle — a checksum-valid but internally
    /// inconsistent payload is a typed [`CheckpointError`], never a
    /// panic.
    fn decode_from(r: &mut Reader<'_>, g: &'g G, trusted: Option<u64>) -> Result<Self, GxError> {
        let expected = r.u64("handle.fingerprint")?;
        // A trusted fingerprint (see `Runner::resume_trusted`) replaces
        // the O(edges) rescan with the caller's cached value.
        let found = trusted.unwrap_or_else(|| graph_fingerprint(g));
        if expected != found {
            return Err(CheckpointError::GraphMismatch { expected, found }.into());
        }
        let cfg = EstimatorConfig {
            k: r.usize("cfg.k")?,
            d: r.usize("cfg.d")?,
            css: decode_bool(r, "cfg.css")?,
            non_backtracking: decode_bool(r, "cfg.non_backtracking")?,
            burn_in: r.usize("cfg.burn_in")?,
        };
        let budget = match r.u8("budget.tag")? {
            0 => Budget::Fixed(r.usize("budget.steps")?),
            1 => Budget::Until(StoppingRule {
                target_rel_ci: r.f64("rule.target_rel_ci")?,
                check_every: r.usize("rule.check_every")?,
                max_steps: r.usize("rule.max_steps")?,
                z: r.f64("rule.z")?,
                batch_len: r.usize("rule.batch_len")?,
                min_batches: r.u64("rule.min_batches")?,
                min_concentration: r.f64("rule.min_concentration")?,
                per_type: decode_bool(r, "rule.per_type")?,
                max_series_batches: r.usize("rule.max_series_batches")?,
            }),
            _ => return Err(CheckpointError::Malformed { what: "budget.tag" }.into()),
        };
        let seed = r.u64("handle.seed")?;
        let walkers = r.count(1 << 16, "handle.walkers")?;
        let batch_width = r.usize("handle.batch_width")?;
        if batch_width > walkers {
            // `start()` clamps the width to the walker count, so a wider
            // one is corruption (zero is refused by `check`).
            return Err(CheckpointError::Malformed { what: "handle.batch_width" }.into());
        }
        let runner = Runner { cfg, budget, walkers, batch_width, seed, progress: None };
        let mut handle = runner.start(g).map_err(|e| CheckpointError::Malformed {
            what: match e {
                GxError::Config(_) => "cfg",
                GxError::NoWalkers => "handle.walkers",
                GxError::ZeroBatchWidth => "handle.batch_width",
                GxError::BoundedMemoryParallel { .. } => "rule.max_series_batches",
                _ => "rule",
            },
        })?;
        handle.fingerprint = Some(expected);
        handle.rounds = r.usize("handle.rounds")?;
        handle.met = decode_bool(r, "handle.met")?;
        handle.tracker = AdaptiveTracker::decode_from(r)?;
        if handle.tracker.types() != num_graphlets(handle.cfg.k) {
            return Err(CheckpointError::Malformed { what: "handle.tracker" }.into());
        }
        let (batch_len, series_cap) = (handle.batch_len(), handle.series_cap());
        for (slot, &cap) in handle.sessions.iter_mut().zip(&handle.caps) {
            match r.u8("handle.session.tag")? {
                0 => {}
                1 => {
                    let session = AnySession::decode_from(r, g, &handle.cfg)?;
                    // Pooling merges the walkers' accumulators, so their
                    // batch lengths must agree with the handle's — bar
                    // the doublings of a (single-walker) bounded-memory
                    // collapse.
                    let len = session.stats().batch_len();
                    let collapsed = series_cap != 0
                        && len % batch_len == 0
                        && (len / batch_len).is_power_of_two();
                    let mismatch = if len != batch_len && !collapsed {
                        Some("session.batch_len")
                    } else if session.series_cap() != series_cap {
                        Some("session.series_cap")
                    } else if session.scored() > cap {
                        Some("handle.session.scored")
                    } else {
                        None
                    };
                    if let Some(what) = mismatch {
                        return Err(CheckpointError::Malformed { what }.into());
                    }
                    *slot = Some(session);
                }
                _ => return Err(CheckpointError::Malformed { what: "handle.session.tag" }.into()),
            }
        }
        Ok(handle)
    }
}

/// Reads a `bool` stored as a strict `0`/`1` byte.
fn decode_bool(r: &mut Reader<'_>, what: &'static str) -> Result<bool, CheckpointError> {
    match r.u8(what)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(CheckpointError::Malformed { what }),
    }
}

impl<'g, G: GraphAccess + Sync> RunHandle<'g, G> {
    /// [`RunHandle::advance`] with the walkers fanned across the
    /// machine's cores (one OS thread per core, each running a
    /// contiguous chunk of walkers). State evolution — and therefore
    /// every subsequent output — is bit-identical to [`RunHandle::advance`]:
    /// shares are precomputed before any thread
    /// spawns, and pooling and merging happen on the calling thread in
    /// walker order.
    ///
    /// `advance_par(0)` is the same documented no-op as
    /// [`RunHandle::advance`]`(0)`: no threads spawn, nothing moves, the
    /// current [`Progress`] is returned.
    pub fn advance_par(&mut self, windows: usize) -> Progress {
        let Some(shares) = self.begin_round(windows) else {
            return self.progress();
        };
        let threads = available_cores().min(self.sessions.len());
        let chunk = self.sessions.len().div_ceil(threads);
        let (g, cfg, seed, batch_len, cap) =
            (self.g, &self.cfg, self.seed, self.batch_len(), self.series_cap());
        let open = |i| AnySession::new(g, cfg, walker_seed(seed, i), batch_len, cap);
        let width = self.batch_width;
        std::thread::scope(|scope| {
            for (c, (slots, part)) in
                self.sessions.chunks_mut(chunk).zip(shares.chunks(chunk)).enumerate()
            {
                let open = &open;
                scope.spawn(move || advance_slots(slots, part, c * chunk, width, open));
            }
        });
        self.after_round()
    }
}
