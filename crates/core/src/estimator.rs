//! Algorithm 1: unbiased estimation of graphlet statistics.

use crate::accuracy::{BatchStats, BurnInReport, ScoreAccumulator};
use crate::checkpoint::{put_f64, put_u128, put_u32, put_u8, put_usize, Reader};
use crate::config::EstimatorConfig;
use crate::css::CssWeights;
use crate::error::{CheckpointError, GxError, RuleError};
use crate::pie::pie_tilde;
use crate::result::Estimate;
use crate::window::{decode_state, NodeWindow, StateRec};
use gx_graph::{GraphAccess, NodeId};
use gx_graphlets::{alpha::alpha_table, classify_table, num_graphlets, NOT_A_GRAPHLET};
use gx_walks::{
    export_rng_state, import_rng_state, random_start_edge, random_start_node, random_start_state,
    rng_from_seed, G2Walk, GdWalk, SrwWalk, StateWalk, WalkRng,
};

/// Builds every process-wide table the configuration will touch (α,
/// classification, the CSS table for every k), so parallel walkers never
/// serialize on a cold `OnceLock` and the hot loop starts warm from step
/// one.
pub(crate) fn prewarm(cfg: &EstimatorConfig) {
    let _ = alpha_table(cfg.k, cfg.d);
    let _ = classify_table(cfg.k);
    if cfg.css {
        let _ = CssWeights::new(cfg.k, cfg.d);
    }
}

/// The per-step scoring state of Algorithm 1, hoisted out of the loop:
/// the α row, the resolved dense classification table, the CSS helper and
/// the raw accumulators. [`Scorer::score`] is the fused
/// mask-extract → classify → weight → accumulate path — no intermediate
/// structs, no per-step table resolution, no allocation.
struct Scorer {
    k: usize,
    l: usize,
    non_backtracking: bool,
    alphas: &'static [u64],
    /// Dense `mask → paper index` byte table ([`classify_table`]; a
    /// validated config's k always has one).
    classify: &'static [u8],
    css: Option<CssWeights>,
    /// Raw scores in a fixed stack array (112 covers every k ≤ 6), so the
    /// per-sample accumulate is an array store with no heap indirection.
    raw: [f64; MAX_TYPES],
    valid: usize,
    /// Batch-means error-bar accumulator: one tick per scored window
    /// (valid or not), reading batch means off `raw` snapshots — see
    /// [`crate::accuracy`]. Adds one increment and one predictable
    /// branch to the per-step path.
    acc: ScoreAccumulator,
}

/// Upper bound on `num_graphlets(k)` for supported k (112 at k = 6).
const MAX_TYPES: usize = 112;

impl Scorer {
    fn new(cfg: &EstimatorConfig, batch_len: usize, max_series_batches: usize) -> Self {
        debug_assert!(num_graphlets(cfg.k) <= MAX_TYPES);
        Self {
            k: cfg.k,
            l: cfg.l(),
            non_backtracking: cfg.non_backtracking,
            alphas: alpha_table(cfg.k, cfg.d),
            classify: classify_table(cfg.k).unwrap_or_default(),
            css: if cfg.css { Some(CssWeights::new(cfg.k, cfg.d)) } else { None },
            raw: [0.0f64; MAX_TYPES],
            valid: 0,
            acc: ScoreAccumulator::bounded(num_graphlets(cfg.k), batch_len, max_series_batches),
        }
    }

    /// Serializes the mutable scoring state (raw scores, valid count,
    /// error-bar accumulator); the tables are rebuilt from the config at
    /// decode time.
    fn encode_into(&self, buf: &mut Vec<u8>) {
        let types = num_graphlets(self.k);
        put_usize(buf, self.valid);
        for &x in &self.raw[..types] {
            put_f64(buf, x);
        }
        self.acc.encode_into(buf);
    }

    /// Inverse of [`Scorer::encode_into`].
    fn decode_from(r: &mut Reader<'_>, cfg: &EstimatorConfig) -> Result<Self, CheckpointError> {
        let types = num_graphlets(cfg.k);
        let valid = r.usize("scorer.valid")?;
        let mut raw = [0.0f64; MAX_TYPES];
        for slot in raw.iter_mut().take(types) {
            *slot = r.f64("scorer.raw")?;
        }
        let acc = ScoreAccumulator::decode_from(r)?;
        if acc.stats().types() != types {
            return Err(CheckpointError::Malformed { what: "scorer.acc.types" });
        }
        Ok(Self {
            k: cfg.k,
            l: cfg.l(),
            non_backtracking: cfg.non_backtracking,
            alphas: alpha_table(cfg.k, cfg.d),
            classify: classify_table(cfg.k).unwrap_or_default(),
            css: if cfg.css { Some(CssWeights::new(cfg.k, cfg.d)) } else { None },
            raw,
            valid,
            acc,
        })
    }

    /// Packs the accumulated state into an [`Estimate`] for a run that
    /// scored `steps` windows.
    fn finish(self, cfg: &EstimatorConfig, steps: usize) -> Estimate {
        Estimate {
            config: cfg.clone(),
            steps,
            valid_samples: self.valid,
            raw_scores: self.raw[..num_graphlets(cfg.k)].to_vec(),
            accuracy: Some(self.acc.into_stats()),
            adaptive: None,
        }
    }

    /// Scores the current window if it is a valid sample (Algorithm 1
    /// lines 4–7). Every call — valid window or not — is one step of the
    /// error-bar accumulator's batch stream.
    #[inline(always)]
    fn score<G: GraphAccess>(&mut self, g: &G, window: &NodeWindow) {
        if !window.is_valid_sample() {
            self.acc.tick(&self.raw);
            return;
        }
        let (mask, _nodes) = window.sample();
        // A window covering k distinct nodes induces a connected
        // subgraph, so the lookup always finds a type; the `None` arm
        // is unreachable and would score the window as invalid.
        let idx = self
            .classify
            .get(mask as usize)
            .copied()
            .filter(|&id| id != NOT_A_GRAPHLET)
            .map(usize::from);
        let Some(idx) = idx else {
            debug_assert!(false, "a window covering k distinct nodes induces a connected subgraph");
            self.acc.tick(&self.raw);
            return;
        };
        self.valid += 1;
        let weight = match self.css.as_mut() {
            // At l = 1 CSS coincides with π̃_e = d_X (Theorem 2).
            Some(css) if self.l > 1 => {
                1.0 / css.sampling_probability_windowed(g, mask, window, self.non_backtracking)
            }
            _ => {
                debug_assert!(self.alphas[idx] > 0, "sampled a type with α = 0");
                1.0 / (self.alphas[idx] as f64 * pie_tilde(window, self.non_backtracking))
            }
        };
        self.raw[idx] += weight;
        self.acc.tick(&self.raw);
    }
}

/// Burn-in plus the first `l` states (Algorithm 1 line 3): the shared
/// preamble of the fixed-budget and adaptive runners.
fn prime_window<G: GraphAccess, W: StateWalk>(
    g: &G,
    cfg: &EstimatorConfig,
    walk: &mut W,
    rng: &mut WalkRng,
) -> NodeWindow {
    for _ in 0..cfg.burn_in {
        walk.step(rng);
    }
    let l = cfg.l();
    let mut window = NodeWindow::new(l, cfg.d);
    let deg = walk.state_degree();
    window.push(g, walk.state(), deg);
    for _ in 1..l {
        walk.step(rng);
        let deg = walk.state_degree();
        window.push(g, walk.state(), deg);
    }
    window
}

/// A walker's persistent chain state: walk + RNG + window + scorer,
/// resumable in increments. This is the unit every runner path is built
/// on — a chain scores `n` more windows per [`run_walk_batch`] call
/// with *no* re-burn-in between rounds, so the round-based coordinator
/// ([`crate::runner::RunHandle`]) pays priming once per walker, not once
/// per round.
///
/// The walk only advances *between* scored windows (lazily, before the
/// next score), so a session is never stepped past its last scored
/// window — splitting a budget across calls cannot change a single
/// sampled window.
pub(crate) struct WalkSession<'g, G: GraphAccess, W: StateWalk> {
    g: &'g G,
    walk: W,
    rng: WalkRng,
    window: NodeWindow,
    scorer: Scorer,
    scored: usize,
}

impl<'g, G: GraphAccess, W: StateWalk> WalkSession<'g, G, W> {
    /// Primes the window (burn-in + first `l` states) and readies the
    /// session to score its first window.
    pub(crate) fn from_parts(
        g: &'g G,
        cfg: &EstimatorConfig,
        mut walk: W,
        mut rng: WalkRng,
        batch_len: usize,
        max_series_batches: usize,
    ) -> Self {
        assert_eq!(walk.d(), cfg.d, "walk dimension must match configuration");
        let scorer = Scorer::new(cfg, batch_len, max_series_batches);
        let window = prime_window(g, cfg, &mut walk, &mut rng);
        Self { g, walk, rng, window, scorer, scored: 0 }
    }

    /// Serializes the session's chain state: the non-backtracking
    /// memory `prev` (flavor-specific, passed in by
    /// [`AnySession::encode_into`]), RNG raw state, scored count, scorer
    /// and window. The walk position is not stored: at a checkpoint it is
    /// always the window's newest state.
    fn encode_into(&self, buf: &mut Vec<u8>, prev: Option<&[NodeId]>) {
        match prev {
            Some(p) => {
                put_u8(buf, 1);
                for &v in p {
                    put_u32(buf, v);
                }
            }
            None => put_u8(buf, 0),
        }
        let (state, increment) = export_rng_state(&self.rng);
        put_u128(buf, state);
        put_u128(buf, increment);
        put_usize(buf, self.scored);
        self.scorer.encode_into(buf);
        self.window.encode_into(buf);
    }

    /// Inverse of [`WalkSession::encode_into`]: rebuilds the window from
    /// its ring against `g`, then `resume`s the walk at the window's
    /// newest state with the decoded `prev`. Every state is validated by
    /// [`decode_state`], so the walk constructors' preconditions hold.
    fn decode_from(
        r: &mut Reader<'_>,
        g: &'g G,
        cfg: &EstimatorConfig,
        resume: impl FnOnce(&[NodeId], Option<&[NodeId]>) -> W,
    ) -> Result<Self, CheckpointError> {
        let prev = match r.u8("walk.prev.tag")? {
            0 => None,
            1 => Some(decode_state(r, g, cfg.d, "walk.prev")?),
            _ => return Err(CheckpointError::Malformed { what: "walk.prev.tag" }),
        };
        let state = r.u128("session.rng.state")?;
        let increment = r.u128("session.rng.increment")?;
        if increment & 1 == 0 {
            // A PCG increment is always odd; an even one is a format
            // confusion (and from_raw_state would debug-panic on it).
            return Err(CheckpointError::Malformed { what: "session.rng.increment" });
        }
        let rng = import_rng_state(state, increment);
        let scored = r.usize("session.scored")?;
        let scorer = Scorer::decode_from(r, cfg)?;
        let window = NodeWindow::decode_from(r, g, cfg.l(), cfg.d)?;
        let current = window.states().last().map_or(&[][..], StateRec::nodes);
        let walk = resume(current, prev.as_ref().map(StateRec::nodes));
        Ok(Self { g, walk, rng, window, scorer, scored })
    }

    pub(crate) fn stats(&self) -> &BatchStats {
        self.scorer.acc.stats()
    }

    pub(crate) fn into_estimate(self, cfg: &EstimatorConfig) -> Estimate {
        let scored = self.scored;
        self.scorer.finish(cfg, scored)
    }
}

/// Per-walker bookkeeping for [`run_walk_batch`]'s lock-step loop: the
/// remaining tick budget, whether the first tick's score is skipped
/// (resume semantics — a resumed lane slides without scoring first),
/// and the staged-but-uncommitted choice whose target the previous tick
/// prefetched.
struct BatchLane<C> {
    steps_left: usize,
    skip_score: bool,
    pending: Option<C>,
    /// Scratch carried between the push sub-passes of one tick: the
    /// state degree read at admission, and the first acquired node's
    /// window slot (feeds the G(2) degree-reuse in the last sub-pass).
    push_deg: usize,
    push_slot: usize,
}

/// Algorithm 1's main loop — the one code path that advances a chain:
/// scores `n` more windows on each lane's session, stepping the walk
/// between them.
///
/// Per lane, the schedule is fixed whatever the group:
///
/// * fresh lane (`scored == 0`, budget n): `n − 1` commits, each scoring
///   the pre-push window, plus the trailing lone score;
/// * resumed lane (`scored > 0`): `n` commits with the *first* score
///   skipped (it slides over the state the previous call stopped at);
///
/// so a session is never stepped past its last scored window, and a
/// lane's stream is the same bits whatever group it runs in or however
/// its budget is split across calls. The engine picks the schedule from
/// the group size: one lane runs [`run_one_lane`]'s fused loop, two or
/// more run [`batched_ticks`]' phased lock step with software prefetches
/// staged one step ahead.
pub(crate) fn run_walk_batch<'g, G: GraphAccess, W: StateWalk>(
    lanes: &mut [(&mut WalkSession<'g, G, W>, usize)],
) {
    if let [(s, n)] = lanes {
        run_one_lane(s, *n);
        return;
    }
    let mut states: Vec<BatchLane<W::Choice>> = Vec::with_capacity(lanes.len());
    for (s, n) in lanes.iter_mut() {
        let n = *n;
        // A fresh lane scores its primed window before the first step, so
        // n windows need only n − 1 steps; a resumed lane must first
        // slide over the state the previous call stopped at.
        let steps_left = if n == 0 {
            0
        } else if s.scored > 0 {
            n
        } else {
            n - 1
        };
        let mut lane = BatchLane {
            steps_left,
            skip_score: s.scored > 0,
            pending: None,
            push_deg: 0,
            push_slot: 0,
        };
        if steps_left > 0 {
            let c = s.walk.choose(&mut s.rng);
            s.walk.prefetch_next(&c);
            lane.pending = Some(c);
        }
        states.push(lane);
    }
    batched_ticks(lanes, &mut states);
    for (s, n) in lanes.iter_mut() {
        if *n > 0 {
            // Trailing lone score: the last window is scored unstepped.
            s.scorer.score(s.g, &s.window);
            s.scored += *n;
        }
    }
}

/// The one-lane schedule of [`run_walk_batch`]: `choose` → `commit` →
/// score → push, fused per step with no staging and no prefetch hints —
/// with one walker in flight there is no other lane's work to overlap a
/// hinted miss with.
///
/// The walk steps *before* the window is scored — legal because scoring
/// consumes no randomness and never touches the walk — which puts the
/// whole scoring computation between choosing the next state and probing
/// its adjacency in `push`, giving the out-of-order core independent
/// work to overlap that (cold, data-dependent) fetch with.
// gx-lint: no_alloc
#[inline(always)]
fn run_one_lane<G: GraphAccess, W: StateWalk>(s: &mut WalkSession<'_, G, W>, n: usize) {
    if n == 0 {
        return;
    }
    if s.scored > 0 {
        // Resumed lane: slide over the state the previous call stopped
        // at, unscored.
        let c = s.walk.choose(&mut s.rng);
        s.walk.commit(c);
        let deg = s.walk.state_degree();
        s.window.push(s.g, s.walk.state(), deg);
    }
    for _ in 1..n {
        let c = s.walk.choose(&mut s.rng);
        s.walk.commit(c);
        s.scorer.score(s.g, &s.window);
        let deg = s.walk.state_degree();
        s.window.push(s.g, s.walk.state(), deg);
    }
    s.scorer.score(s.g, &s.window);
    s.scored += n;
}

/// The hot tick loop of [`run_walk_batch`]. One tick advances every live
/// lane one step, in three lock-step phases over the lane array:
///
/// 1. **commit** — apply last tick's staged choice and hint the lines
///    the lane's upcoming `push` will probe. The commit's own loads were
///    prefetched a full tick ago, so this pass retires without stalling.
/// 2. **choose** — draw next tick's transition for every lane, back to
///    back, and prefetch what its commit will load. Each draw's
///    data-dependent neighbor read is independent of every other
///    lane's, so up to B cache misses are in flight at once; this
///    cross-lane overlap (the phase split keeps the draws within one
///    out-of-order window) is most of the batched win on DRAM-resident
///    graphs — a single interleaved loop puts a full lane-segment of
///    window/CSS work between consecutive draws and overlaps almost
///    nothing.
/// 3. **score + push** — classification and CSS, then window
///    maintenance as three further sub-passes (ring admission, first
///    acquire, remaining acquires), all against lines phases 1 and 2
///    already requested.
///
/// Per lane the phases preserve the one-lane op order on every piece of
/// shared state: `choose` touches only walk + RNG, `score`/`push` only
/// window + scorer, so hoisting a lane's next draw above its score is
/// unobservable (bit-identity is pinned by the `batched_identity`
/// suite). Lanes with unequal budgets simply drop out of the rotation
/// as they finish.
// gx-lint: no_alloc
#[inline(always)]
fn batched_ticks<'g, G: GraphAccess, W: StateWalk>(
    lanes: &mut [(&mut WalkSession<'g, G, W>, usize)],
    states: &mut [BatchLane<W::Choice>],
) {
    loop {
        let mut live = false;
        for ((s, _), lane) in lanes.iter_mut().zip(states.iter_mut()) {
            if lane.steps_left == 0 {
                continue;
            }
            live = true;
            let Some(c) = lane.pending.take() else {
                // Unreachable by construction — a live lane always has a
                // staged choice; retire the lane rather than panic.
                lane.steps_left = 0;
                continue;
            };
            s.walk.commit(c);
            s.walk.prefetch_entering(&c);
        }
        if !live {
            break;
        }
        for ((s, _), lane) in lanes.iter_mut().zip(states.iter_mut()) {
            if lane.steps_left > 1 {
                let next = s.walk.choose(&mut s.rng);
                s.walk.prefetch_next(&next);
                lane.pending = Some(next);
            }
        }
        for ((s, _), lane) in lanes.iter_mut().zip(states.iter_mut()) {
            if lane.steps_left == 0 {
                continue;
            }
            if lane.skip_score {
                lane.skip_score = false;
            } else {
                s.scorer.score(s.g, &s.window);
            }
        }
        // Push as three sub-passes mirroring the pieces `NodeWindow::push`
        // is composed of. A whole push is hundreds of µops per lane —
        // monolithic, it fills the out-of-order window with one or two
        // lanes' work and serializes their probe chains; split, each
        // sub-pass body is small enough that the cold acquire probes of
        // many lanes (each a serial binary-search chain into an adjacency
        // list) are in flight together. Per lane the operation sequence
        // is exactly `push`'s, so bit-identity is untouched. The budget
        // decrement lives in the last sub-pass, at the end of the tick,
        // so every phase above sees the pre-step value.
        for ((s, _), lane) in lanes.iter_mut().zip(states.iter_mut()) {
            if lane.steps_left == 0 {
                continue;
            }
            lane.push_deg = s.walk.state_degree();
            s.window.push_admit(s.walk.state(), lane.push_deg);
        }
        for ((s, _), lane) in lanes.iter_mut().zip(states.iter_mut()) {
            if lane.steps_left == 0 {
                continue;
            }
            lane.push_slot = s.window.push_acquire_first(s.g, s.walk.state(), lane.push_deg);
        }
        for ((s, _), lane) in lanes.iter_mut().zip(states.iter_mut()) {
            if lane.steps_left == 0 {
                continue;
            }
            s.window.push_acquire_rest(s.g, s.walk.state(), lane.push_deg, lane.push_slot);
            lane.steps_left -= 1;
        }
    }
}

/// [`WalkSession`] with the walk flavor resolved at runtime from
/// `cfg.d`: SRW on `G`, the O(1) edge walk on `G(2)`, or the
/// enumerating walk on `G(d ≥ 3)`, started from a random state drawn
/// with the walker's seed.
pub(crate) enum AnySession<'g, G: GraphAccess> {
    D1(WalkSession<'g, G, SrwWalk<'g, G>>),
    D2(WalkSession<'g, G, G2Walk<'g, G>>),
    Dn(WalkSession<'g, G, GdWalk<'g, G>>),
}

impl<'g, G: GraphAccess> AnySession<'g, G> {
    pub(crate) fn new(
        g: &'g G,
        cfg: &EstimatorConfig,
        seed: u64,
        batch_len: usize,
        max_series_batches: usize,
    ) -> Self {
        let cap = max_series_batches;
        let mut rng = rng_from_seed(seed);
        match cfg.d {
            1 => {
                let start = random_start_node(g, &mut rng);
                let walk = SrwWalk::new(g, start, cfg.non_backtracking);
                Self::D1(WalkSession::from_parts(g, cfg, walk, rng, batch_len, cap))
            }
            2 => {
                let (u, v) = random_start_edge(g, &mut rng);
                let walk = G2Walk::new(g, u, v, cfg.non_backtracking);
                Self::D2(WalkSession::from_parts(g, cfg, walk, rng, batch_len, cap))
            }
            _ => {
                let start = random_start_state(g, cfg.d, &mut rng);
                let walk = GdWalk::new(g, &start, cfg.non_backtracking);
                Self::Dn(WalkSession::from_parts(g, cfg, walk, rng, batch_len, cap))
            }
        }
    }

    /// Serializes the walker's full chain state — the per-walker
    /// payload of a [`crate::runner::RunHandle::checkpoint`]: the flavor
    /// tag, then [`WalkSession::encode_into`] with the walk's
    /// non-backtracking memory.
    pub(crate) fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Self::D1(s) => {
                put_u8(buf, 1);
                s.encode_into(buf, s.walk.prev_node().as_ref().map(std::slice::from_ref));
            }
            Self::D2(s) => {
                put_u8(buf, 2);
                s.encode_into(
                    buf,
                    s.walk.prev_edge().map(|(u, v)| [u, v]).as_ref().map(|e| &e[..]),
                );
            }
            Self::Dn(s) => {
                put_u8(buf, 3);
                s.encode_into(buf, s.walk.prev_state());
            }
        }
    }

    /// Inverse of [`AnySession::encode_into`]. A checksum-valid but
    /// inconsistent payload is a typed [`CheckpointError`], never a panic.
    pub(crate) fn decode_from(
        r: &mut Reader<'_>,
        g: &'g G,
        cfg: &EstimatorConfig,
    ) -> Result<Self, CheckpointError> {
        let nb = cfg.non_backtracking;
        match (r.u8("session.tag")?, cfg.d) {
            (1, 1) => Ok(Self::D1(WalkSession::decode_from(r, g, cfg, |cur, prev| {
                SrwWalk::resume(g, cur[0], prev.map(|p| p[0]), nb)
            })?)),
            (2, 2) => Ok(Self::D2(WalkSession::decode_from(r, g, cfg, |cur, prev| {
                G2Walk::resume(g, (cur[0], cur[1]), prev.map(|p| (p[0], p[1])), nb)
            })?)),
            (3, 3..) => Ok(Self::Dn(WalkSession::decode_from(r, g, cfg, |cur, prev| {
                GdWalk::resume(g, cur, prev, nb)
            })?)),
            _ => Err(CheckpointError::Malformed { what: "session.tag" }),
        }
    }

    /// Runs a group of sessions through [`run_walk_batch`], dispatching
    /// once on the leading session's walk flavor (a runner's sessions
    /// all share `cfg.d`, so a group is always homogeneous). Any session
    /// of a different flavor — never produced in-tree — runs as its own
    /// one-lane group.
    pub(crate) fn run_batch(group: &mut [(&mut Self, usize)]) {
        match group.first() {
            None => {}
            Some((Self::D1(_), _)) => Self::run_flavor(group, |s| match s {
                Self::D1(inner) => Ok(inner),
                other => Err(other),
            }),
            Some((Self::D2(_), _)) => Self::run_flavor(group, |s| match s {
                Self::D2(inner) => Ok(inner),
                other => Err(other),
            }),
            Some((Self::Dn(_), _)) => Self::run_flavor(group, |s| match s {
                Self::Dn(inner) => Ok(inner),
                other => Err(other),
            }),
        }
    }

    /// [`AnySession::run_batch`] for one flavor: `pick` unwraps the
    /// sessions of that flavor into lanes and hands back the rest.
    fn run_flavor<'a, W: StateWalk + 'a>(
        group: &'a mut [(&mut Self, usize)],
        pick: impl Fn(&'a mut Self) -> Result<&'a mut WalkSession<'g, G, W>, &'a mut Self>,
    ) {
        let mut lanes = Vec::with_capacity(group.len());
        for (s, n) in group.iter_mut() {
            match pick(s) {
                Ok(inner) => lanes.push((inner, *n)),
                Err(other) => Self::run_batch(&mut [(other, *n)]),
            }
        }
        run_walk_batch(&mut lanes);
    }

    pub(crate) fn stats(&self) -> &BatchStats {
        match self {
            Self::D1(s) => s.stats(),
            Self::D2(s) => s.stats(),
            Self::Dn(s) => s.stats(),
        }
    }

    /// The accumulator's bounded-memory series cap (0 = unbounded).
    pub(crate) fn series_cap(&self) -> usize {
        match self {
            Self::D1(s) => s.scorer.acc.series_cap(),
            Self::D2(s) => s.scorer.acc.series_cap(),
            Self::Dn(s) => s.scorer.acc.series_cap(),
        }
    }

    /// Raw-score accumulator (all tracked types).
    pub(crate) fn raw(&self) -> &[f64] {
        let (scorer, types) = match self {
            Self::D1(s) => (&s.scorer, num_graphlets(s.scorer.k)),
            Self::D2(s) => (&s.scorer, num_graphlets(s.scorer.k)),
            Self::Dn(s) => (&s.scorer, num_graphlets(s.scorer.k)),
        };
        &scorer.raw[..types]
    }

    pub(crate) fn valid(&self) -> usize {
        match self {
            Self::D1(s) => s.scorer.valid,
            Self::D2(s) => s.scorer.valid,
            Self::Dn(s) => s.scorer.valid,
        }
    }

    /// Windows scored so far (the chain's own step bookkeeping).
    pub(crate) fn scored(&self) -> usize {
        match self {
            Self::D1(s) => s.scored,
            Self::D2(s) => s.scored,
            Self::Dn(s) => s.scored,
        }
    }
}

/// Measures initialization bias of the chain `(g, cfg, seed)` and
/// suggests a burn-in, per the batch-mean comparison documented on
/// [`BurnInReport`]: run a `pilot_steps` pilot (the chain a one-walker
/// [`crate::Runner`] with this seed walks), split it into
/// `batch_len`-step batches, and flag leading batches whose total-score
/// mean disagrees with the trailing half's distribution.
///
/// Run it with `cfg.burn_in == 0` (measuring the raw chain) and feed
/// `suggested_burn_in` back into the config an adaptive run uses; the
/// pilot is wasted work only if the suggestion is zero — on the graphs
/// the paper targets it usually is, which is itself the useful answer
/// ("burn-in is not your problem").
///
/// Rejects an invalid `cfg` as [`GxError::Config`], `batch_len == 0`
/// as [`RuleError::ZeroBatchLen`], and a pilot shorter than four
/// complete batches as [`GxError::PilotTooShort`].
pub fn measure_burn_in<G: GraphAccess>(
    g: &G,
    cfg: &EstimatorConfig,
    seed: u64,
    pilot_steps: usize,
    batch_len: usize,
) -> Result<BurnInReport, GxError> {
    cfg.try_validate()?;
    if batch_len == 0 {
        return Err(RuleError::ZeroBatchLen.into());
    }
    let batches = pilot_steps / batch_len;
    if batches < 4 {
        return Err(GxError::PilotTooShort { batches });
    }
    let mut session = AnySession::new(g, cfg, seed, batch_len, 0);
    let mut means = Vec::with_capacity(batches);
    let mut prev = 0.0;
    for _ in 0..batches {
        AnySession::run_batch(&mut [(&mut session, batch_len)]);
        let sum: f64 = session.raw().iter().sum();
        means.push((sum - prev) / batch_len as f64);
        prev = sum;
    }
    Ok(BurnInReport::from_batch_means(means, batch_len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy::StoppingRule;
    use crate::runner::Runner;
    use gx_exact::exact_counts;
    use gx_graph::generators::{classic, erdos_renyi_gnm, holme_kim};
    use gx_graph::Graph;

    /// Asserts that the estimator converges to the exact concentrations
    /// on `g` within `tol` (absolute), for the given configuration.
    fn assert_converges(g: &Graph, cfg: &EstimatorConfig, steps: usize, seed: u64, tol: f64) {
        let exact = exact_counts(g, cfg.k).concentrations();
        let est = Runner::new(cfg.clone()).steps(steps).seed(seed).run(g).unwrap().concentrations();
        for (i, (e, x)) in est.iter().zip(&exact).enumerate() {
            assert!(
                (e - x).abs() < tol,
                "{} type {}: estimated {e:.4}, exact {x:.4} (tol {tol})",
                cfg.name(),
                i + 1,
            );
        }
    }

    #[test]
    fn srw1_converges_on_figure1_graph() {
        let g = classic::paper_figure1();
        let cfg = EstimatorConfig { k: 3, d: 1, ..Default::default() };
        assert_converges(&g, &cfg, 60_000, 1, 0.02);
    }

    #[test]
    fn srw1_variants_converge_k3() {
        let g = classic::lollipop(5, 4);
        for (css, nb) in [(false, false), (true, false), (false, true), (true, true)] {
            let cfg = EstimatorConfig { k: 3, d: 1, css, non_backtracking: nb, burn_in: 0 };
            assert_converges(&g, &cfg, 80_000, 11, 0.02);
        }
    }

    #[test]
    fn srw2_is_psrw_for_k3() {
        let g = classic::lollipop(5, 4);
        let cfg = EstimatorConfig::psrw(3);
        assert_converges(&g, &cfg, 80_000, 5, 0.02);
    }

    #[test]
    fn k4_configurations_converge_on_er() {
        use rand::SeedableRng;
        let mut rng = rand_pcg::Pcg64::seed_from_u64(42);
        let g = erdos_renyi_gnm(60, 180, &mut rng);
        let g = gx_graph::connectivity::largest_connected_component(&g).0;
        for cfg in [
            EstimatorConfig { k: 4, d: 2, ..Default::default() },
            EstimatorConfig { k: 4, d: 2, css: true, ..Default::default() },
            EstimatorConfig { k: 4, d: 2, non_backtracking: true, ..Default::default() },
            EstimatorConfig::psrw(4),
        ] {
            assert_converges(&g, &cfg, 150_000, 19, 0.03);
        }
    }

    #[test]
    fn k5_srw2css_converges_on_small_dense_graph() {
        use rand::SeedableRng;
        let mut rng = rand_pcg::Pcg64::seed_from_u64(9);
        let g = holme_kim(40, 4, 0.5, &mut rng);
        let cfg = EstimatorConfig { k: 5, d: 2, css: true, ..Default::default() };
        assert_converges(&g, &cfg, 200_000, 23, 0.04);
    }

    #[test]
    fn d_equals_k_subgraph_walk_converges() {
        // The SRW-on-G(k) special case of [36] (l = 1).
        let g = classic::lollipop(5, 3);
        let cfg = EstimatorConfig { k: 3, d: 3, ..Default::default() };
        assert_converges(&g, &cfg, 60_000, 31, 0.03);
    }

    /// The dense-table / windowed-CSS rewrite must not move a single bit
    /// of any estimate: raw-score bit patterns for fixed (graph, config,
    /// seed) captured from the seed `HashMap` implementation.
    #[test]
    fn css_raw_scores_bit_identical_to_seed() {
        fn bits(est: &crate::Estimate) -> Vec<u64> {
            est.raw_scores.iter().map(|x| x.to_bits()).collect()
        }

        let g = classic::petersen();
        let cfg = EstimatorConfig { k: 4, d: 2, css: true, ..Default::default() };
        let est = Runner::new(cfg.clone()).steps(5_000).seed(77).run(&g).unwrap();
        assert_eq!(est.valid_samples, 3709);
        assert_eq!(bits(&est), vec![0x40b3180000000000, 0x408a5aaaaaaaaa38, 0, 0, 0, 0]);

        let g = holme_kim(40, 4, 0.5, &mut rng_from_seed(9));
        let cfg = EstimatorConfig { k: 5, d: 2, css: true, ..Default::default() };
        let est = Runner::new(cfg.clone()).steps(20_000).seed(23).run(&g).unwrap();
        assert_eq!(est.valid_samples, 16494);
        assert_eq!(
            bits(&est),
            vec![
                0x40e67e7000000000,
                0x40fc1212924b98ef,
                0x40e4d14a26d74fc1,
                0x40e7d287b0fdc97c,
                0x40d93f27471d50ab,
                0x40ed684fcbec857b,
                0x4099248a95a014f5,
                0x40cae0b8bf6029d2,
                0x40e2877cc7cec35a,
                0x40b84ad8a9b49cfc,
                0x40ceb82059f75574,
                0x4072e70164677852,
                0x40b4b5fe77a44ae1,
                0x40b2b69ae35e4427,
                0x40b8a58278ff0ede,
                0x40c246e348190317,
                0x408b10f457935da4,
                0x40b090459d459fc9,
                0x40748b888fddf216,
                0x409021fd28a7582d,
                0x40568ee095b0470f,
            ]
        );

        let g = classic::lollipop(5, 4);
        let cfg = EstimatorConfig { k: 3, d: 1, css: true, non_backtracking: true, burn_in: 0 };
        let est = Runner::new(cfg.clone()).steps(10_000).seed(11).run(&g).unwrap();
        assert_eq!(est.valid_samples, 9621);
        assert_eq!(bits(&est), vec![0x40a4ba0000000000, 0x40ab1c2e8ba2e798]);

        // d = 3 exercises the G(d)-degree fallback + state-degree reuse.
        let g = classic::petersen();
        let cfg = EstimatorConfig { k: 5, d: 3, css: true, ..Default::default() };
        let est = Runner::new(cfg.clone()).steps(3_000).seed(5).run(&g).unwrap();
        assert_eq!(est.valid_samples, 2372);
        assert_eq!(
            bits(&est),
            vec![
                0x408e900000000000,
                0x408ff800000000f0,
                0,
                0,
                0,
                0,
                0x4069933333333308,
                0,
                0,
                0,
                0,
                0,
                0,
                0,
                0,
                0,
                0,
                0,
                0,
                0,
                0
            ]
        );

        // d = 3 on a skewed graph: Petersen is 3-regular and triangle-free,
        // so hubs and dense states (large, overlapping G(3) neighborhoods)
        // only show up here. Plain and non-backtracking walks.
        let g = holme_kim(60, 4, 0.5, &mut rng_from_seed(9));
        let cfg = EstimatorConfig { k: 5, d: 3, css: true, ..Default::default() };
        let est = Runner::new(cfg.clone()).steps(5_000).seed(13).run(&g).unwrap();
        assert_eq!(est.valid_samples, 4801);
        assert_eq!(
            bits(&est),
            vec![
                0x4096740000000000,
                0x40a9e4415a984219,
                0x408fc4817f422cf6,
                0x408effd208360a57,
                0x4082c7804a600756,
                0x409206f06552d257,
                0x4031b24a96e810ff,
                0x4072f5af05d99a76,
                0x40822c9e812d5de9,
                0x40582ca45ae5fdf9,
                0x406f78530ecf6d43,
                0x4009bbcb5bf34e0d,
                0x4059b3621e1d3454,
                0x404b49f3d9cd5281,
                0x404e7b03cf58d9a7,
                0x405bb9738e533043,
                0x402b8bf80c39a77b,
                0x4049d96abcac5878,
                0x400fb3e3866065ec,
                0x402066659a7ccbef,
                0x3fdd69d3acefb136,
            ]
        );
        let cfg = EstimatorConfig { non_backtracking: true, ..cfg };
        let est = Runner::new(cfg.clone()).steps(5_000).seed(13).run(&g).unwrap();
        assert_eq!(est.valid_samples, 4903);
        assert_eq!(
            bits(&est),
            vec![
                0x40957e0000000000,
                0x40a724fc1ae0d425,
                0x40917254403774f5,
                0x4092580c2fac4dd1,
                0x40835607e4bc6dfa,
                0x4091b8101be51468,
                0x4044db1a8e9174b0,
                0x407037a8572f0b56,
                0x40839faf22186b30,
                0x405c33f54a469ac3,
                0x406a06b8ca61ff8c,
                0x4011bbdec35e20cc,
                0x405a742177221b51,
                0x4048965bb4551f6a,
                0x4054a8d9503c823f,
                0x405c90256167e3e3,
                0x4029eebc6d5353e0,
                0x4047102ff54da9df,
                0x4017310492c556a7,
                0x401748db195e2715,
                0x3fdffb66c3d0490f,
            ]
        );
    }

    #[test]
    fn estimator_is_deterministic_given_seed() {
        let g = classic::petersen();
        let cfg = EstimatorConfig { k: 4, d: 2, css: true, ..Default::default() };
        let a = Runner::new(cfg.clone()).steps(5_000).seed(77).run(&g).unwrap();
        let b = Runner::new(cfg.clone()).steps(5_000).seed(77).run(&g).unwrap();
        assert_eq!(a.raw_scores, b.raw_scores);
        assert_eq!(a.valid_samples, b.valid_samples);
        let c = Runner::new(cfg.clone()).steps(5_000).seed(78).run(&g).unwrap();
        assert_ne!(a.raw_scores, c.raw_scores);
    }

    #[test]
    fn star_has_zero_alpha_types_unsampled() {
        // On a star graph, SRW2 for k = 4 sees only 3-stars; the estimator
        // must put the whole mass there.
        let g = classic::star(12);
        let cfg = EstimatorConfig { k: 4, d: 2, ..Default::default() };
        let est = Runner::new(cfg.clone()).steps(20_000).seed(3).run(&g).unwrap();
        let c = est.concentrations();
        assert!((c[1] - 1.0).abs() < 1e-12, "3-star concentration {c:?}");
    }

    #[test]
    fn valid_fraction_is_sane() {
        let g = classic::petersen();
        let cfg = EstimatorConfig { k: 3, d: 1, ..Default::default() };
        let est = Runner::new(cfg.clone()).steps(10_000).seed(5).run(&g).unwrap();
        assert!(est.valid_fraction() > 0.5);
        assert!(est.valid_fraction() <= 1.0);
        // NB improves the valid fraction (§4.2's whole point).
        let cfg_nb = EstimatorConfig { k: 3, d: 1, non_backtracking: true, ..Default::default() };
        let est_nb = Runner::new(cfg_nb.clone()).steps(10_000).seed(5).run(&g).unwrap();
        assert!(est_nb.valid_fraction() > est.valid_fraction());
    }

    #[test]
    fn burn_in_only_shifts_the_stream() {
        let g = classic::petersen();
        let cfg = EstimatorConfig { k: 3, d: 1, burn_in: 100, ..Default::default() };
        let est = Runner::new(cfg.clone()).steps(10_000).seed(5).run(&g).unwrap();
        assert_eq!(est.steps, 10_000);
        assert!(est.valid_samples > 0);
    }

    #[test]
    fn estimates_carry_accuracy_stats() {
        let g = classic::petersen();
        let cfg = EstimatorConfig { k: 3, d: 1, ..Default::default() };
        let est = Runner::new(cfg.clone()).steps(10_000).seed(5).run(&g).unwrap();
        let stats = est.accuracy().expect("estimator runs collect accuracy");
        assert_eq!(stats.batch_len(), crate::accuracy::default_batch_len(10_000));
        assert_eq!(stats.batches() as usize, 10_000 / stats.batch_len());
        // The batch-means mean-score estimate tracks raw/steps (they
        // differ only by the dropped partial batch).
        for i in 0..est.raw_scores.len() {
            let per_step = est.raw_scores[i] / est.steps as f64;
            assert!(
                (stats.mean_score(i) - per_step).abs() <= 0.1 * per_step.max(1e-9),
                "type {i}: batch mean {} vs per-step {per_step}",
                stats.mean_score(i)
            );
        }
        // The frequent type (wedges — the triangle-free Petersen graph
        // has no type 1 mass) carries a finite, nonzero error bar.
        assert!(est.std_error(0).is_finite());
        assert!(est.relative_half_width(0, 1.96) > 0.0);
    }

    #[test]
    fn estimate_until_stops_on_tight_intervals() {
        let g = classic::petersen();
        let cfg = EstimatorConfig { k: 3, d: 1, ..Default::default() };
        let rule = StoppingRule {
            target_rel_ci: 0.2,
            check_every: 2_000,
            max_steps: 2_000_000,
            batch_len: 128,
            ..Default::default()
        };
        let est = Runner::new(cfg.clone()).until(rule.clone()).seed(7).run(&g).unwrap();
        assert!(est.steps < rule.max_steps, "converged before the cap (took {})", est.steps);
        assert_eq!(est.steps % rule.check_every, 0, "stopped at a check point");
        let w = est.max_relative_half_width(rule.z, rule.min_concentration);
        assert!(w <= rule.target_rel_ci, "measured width {w} above target");
    }

    #[test]
    fn estimate_until_at_the_cap_matches_fixed_budget_bitwise() {
        // Scoring consumes no randomness, so a run that exhausts
        // max_steps scores exactly the windows a fixed budget scores.
        let g = classic::lollipop(5, 4);
        let cfg = EstimatorConfig { k: 4, d: 2, css: true, ..Default::default() };
        let rule = StoppingRule {
            target_rel_ci: 1e-9, // unreachable: always runs to the cap
            check_every: 1_000,
            max_steps: 5_000,
            ..Default::default()
        };
        let until = Runner::new(cfg.clone()).until(rule.clone()).seed(77).run(&g).unwrap();
        let fixed = Runner::new(cfg.clone()).steps(5_000).seed(77).run(&g).unwrap();
        assert_eq!(until.steps, 5_000);
        assert_eq!(until.raw_scores, fixed.raw_scores);
        assert_eq!(until.valid_samples, fixed.valid_samples);
    }

    #[test]
    fn estimate_until_zero_cap_scores_nothing() {
        let g = classic::petersen();
        let cfg = EstimatorConfig { k: 3, d: 1, ..Default::default() };
        let rule = StoppingRule { max_steps: 0, ..Default::default() };
        let est = Runner::new(cfg.clone()).until(rule.clone()).seed(3).run(&g).unwrap();
        assert_eq!(est.steps, 0);
        assert_eq!(est.valid_samples, 0);
        assert!(est.raw_scores.iter().all(|&x| x == 0.0));
        assert_eq!(est.counts(10.0), vec![0.0; est.raw_scores.len()]);
    }

    #[test]
    fn measure_burn_in_reports_pilot_batches() {
        let g = classic::lollipop(6, 5);
        let cfg = EstimatorConfig::recommended(3);
        let report = measure_burn_in(&g, &cfg, 7, 4_096, 256).unwrap();
        assert_eq!(report.batch_len, 256);
        assert_eq!(report.batch_means.len(), 16);
        assert_eq!(report.suggested_burn_in % 256, 0);
        assert!(report.first_batch_z.is_finite());
        // The pilot replays the runner's chain: batch means must be the
        // per-batch raw-score deltas of the fixed-budget run.
        let est = Runner::new(cfg.clone()).steps(4_096).seed(7).run(&g).unwrap();
        let total: f64 = report.batch_means.iter().sum::<f64>() * 256.0;
        let raw: f64 = est.raw_scores.iter().sum();
        assert!((total - raw).abs() < 1e-9 * raw.max(1.0), "pilot total {total} vs raw {raw}");
    }

    #[test]
    fn measure_burn_in_is_deterministic() {
        let g = classic::petersen();
        let cfg = EstimatorConfig { k: 3, d: 1, ..Default::default() };
        let a = measure_burn_in(&g, &cfg, 3, 2_048, 128).unwrap();
        let b = measure_burn_in(&g, &cfg, 3, 2_048, 128).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn measure_burn_in_rejects_tiny_pilots() {
        let g = classic::petersen();
        let cfg = EstimatorConfig { k: 3, d: 1, ..Default::default() };
        let err = measure_burn_in(&g, &cfg, 3, 300, 128).unwrap_err();
        assert_eq!(err, GxError::PilotTooShort { batches: 2 });
        assert!(err.to_string().contains("at least 4 complete batches"));
        let err = measure_burn_in(&g, &cfg, 3, 4_096, 0).unwrap_err();
        assert_eq!(err, GxError::Rule(RuleError::ZeroBatchLen));
        let bad = EstimatorConfig { k: 7, ..cfg };
        let err = measure_burn_in(&g, &bad, 3, 4_096, 128).unwrap_err();
        assert_eq!(err, GxError::Config(crate::ConfigError::UnsupportedK { k: 7 }));
    }

    #[test]
    #[should_panic(expected = "walk dimension")]
    fn walk_dimension_must_match() {
        let g = classic::petersen();
        let cfg = EstimatorConfig { k: 3, d: 2, ..Default::default() };
        let walk = SrwWalk::new(&g, 0, false);
        // The runner rejects the pairing as a typed error before a
        // session exists; the session itself still guards the invariant.
        let _ = WalkSession::from_parts(&g, &cfg, walk, rng_from_seed(1), 1, 0);
    }
}
