//! The expanded-Markov-chain window: the last `l` walk states, their
//! distinct underlying nodes, and the induced subgraph among them.
//!
//! This implements the paper's §5 bookkeeping: when the walk advances, at
//! most one node enters the union and at most one leaves, so the induced
//! edge set is maintained with k − 1 adjacency probes per step instead of
//! C(k,2) — the edges among surviving nodes are reused from the previous
//! window.
//!
//! Everything lives in fixed-size arrays (`MAX_NODES` slots, `MAX_STATES`
//! ring entries): the steady-state `push` touches no heap at all, and the
//! window additionally caches each slot's *node degree* at entry time, so
//! downstream consumers (CSS in particular) never re-derive degrees the
//! walk has already paid for. For d = 1 walks the cached degree is the
//! walk's own recorded state degree; for d ≥ 2 it is fetched once per node
//! entry (an O(1) CSR offset difference) instead of once per CSS subset
//! per sample.
//!
//! # Interplay with the batched walker engine
//!
//! The slot bookkeeping is laid out struct-of-arrays (`distinct`,
//! `degrees`, `refcount`, `adj` are parallel fixed arrays) so that the
//! window/classify/CSS work of one lock-step lane reads plain array
//! loads with no pointer chasing — the only cache-miss-prone loads in
//! `push` are against the *graph*: the entering node's CSR offset pair
//! (for the `acquire` degree fill) and its neighbor slice (for the
//! k − 1 adjacency probes, each a binary search of that one list).
//! Those are precisely the lines [`gx_walks::StateWalk::prefetch_next`]
//! and [`gx_walks::StateWalk::prefetch_entering`] hint one lane-batch
//! tick ahead of this `push`, which is why the batched engine overlaps
//! the probe misses of up to B walkers instead of serializing them.
//!
//! # Checkpoints
//!
//! All of the bookkeeping above is a function of the ring, the slot
//! order and the graph, so a snapshot stores only the first two. The
//! slot order is the one fact kept beyond the ring. Swap-removes set
//! it over the whole eviction history, it labels the sample mask, and
//! it fixes the CSS summation order, so replaying the ring into a fresh
//! window would permute it. Resume checks the ring and the slots against
//! the graph and rebuilds the degrees, refcounts and adjacency rows (and
//! a d ≥ 3, l ≥ 3 window's list copies) with one neighbor-list visit per
//! slot (`NodeWindow::decode_from`).

use crate::checkpoint::{put_u32, Reader};
use crate::error::CheckpointError;
use gx_graph::{GraphAccess, NodeId};
use gx_graphlets::mask::pair_index;
use gx_walks::gd::subset_is_connected;
use gx_walks::gd_state_degree;

/// Maximum union size (k ≤ 6 supported by the taxonomy, + headroom).
const MAX_NODES: usize = 8;
/// Maximum subgraph size d per state.
const MAX_D: usize = 7;
/// Ring capacity for remembered states (l ≤ 6; power of two for cheap
/// wraparound).
const MAX_STATES: usize = 8;

/// One remembered walk state.
#[derive(Debug, Clone, Copy)]
pub struct StateRec {
    nodes: [NodeId; MAX_D],
    len: u8,
    /// Degree of the state in `G(d)` at visit time.
    pub degree: u32,
}

impl StateRec {
    const EMPTY: StateRec = StateRec { nodes: [0; MAX_D], len: 0, degree: 0 };

    /// The state's node set.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes[..self.len as usize]
    }
}

/// Sliding window of the last `l` states of a walk on `G(d)`.
#[derive(Debug, Clone)]
pub struct NodeWindow {
    l: usize,
    k: usize,
    d: usize,
    /// Ring buffer of the last `l` states (`head` is the oldest).
    states: [StateRec; MAX_STATES],
    head: usize,
    count: usize,
    /// Distinct nodes currently in the union, in slot order.
    distinct: [NodeId; MAX_NODES],
    /// Node degree in the host graph, parallel to `distinct` — cached at
    /// slot entry so per-sample consumers read it as an array load.
    degrees: [u32; MAX_NODES],
    /// Reference counts parallel to `distinct`.
    refcount: [u8; MAX_NODES],
    /// Number of occupied slots.
    dlen: usize,
    /// Adjacency among slots: bit `q` of `adj[p]` is set iff slots `p`
    /// and `q` are adjacent in the host graph. A per-slot bitmask keeps
    /// [`NodeWindow::sample`] pure bit manipulation instead of a scan
    /// over a `bool` matrix.
    adj: [u64; MAX_NODES],
    /// Each slot's adjacency list, parallel to `distinct`, copied from
    /// the slice `acquire` probes. Kept only by d ≥ 3, l ≥ 3 windows,
    /// whose CSS neighbourhood profile takes an entering node's list from
    /// here rather than fetching it again; boxed, so other windows carry
    /// one pointer.
    lists: Option<Box<[Vec<NodeId>; MAX_NODES]>>,
    /// Adjacency probes issued so far (the paper's per-step cost metric).
    probes: u64,
}

impl NodeWindow {
    /// Window for `l` consecutive states of d-node subgraphs
    /// (`k = l + d − 1`).
    ///
    /// # Panics
    ///
    /// Unless `l ≥ 1`, `d ≤ 7` and `k ≤ 8` (every configuration
    /// [`EstimatorConfig::try_validate`](crate::EstimatorConfig::try_validate)
    /// admits has `k ≤ 6`).
    pub fn new(l: usize, d: usize) -> Self {
        // gx-lint: allow(panic_surface) -- documented precondition, like an index out of range; the estimator passes a validated config
        assert!(l >= 1, "window needs l >= 1");
        let k = l + d - 1;
        // gx-lint: allow(panic_surface) -- documented precondition, as above
        assert!(k <= MAX_NODES, "union size k={k} exceeds {MAX_NODES}");
        // gx-lint: allow(panic_surface) -- documented precondition, as above (implied by k ≤ 8)
        assert!(l <= MAX_STATES, "window length l={l} exceeds {MAX_STATES}");
        // gx-lint: allow(panic_surface) -- documented precondition, as above
        assert!(d <= MAX_D, "state size d={d} exceeds {MAX_D}");
        Self {
            l,
            k,
            d,
            states: [StateRec::EMPTY; MAX_STATES],
            head: 0,
            count: 0,
            distinct: [0; MAX_NODES],
            degrees: [0; MAX_NODES],
            refcount: [0; MAX_NODES],
            dlen: 0,
            adj: [0; MAX_NODES],
            lists: (d >= 3 && l >= 3).then(Box::default),
            probes: 0,
        }
    }

    /// Number of states currently held.
    #[inline]
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when no states are held.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// True when the window holds `l` states.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.count == self.l
    }

    /// Number of distinct underlying nodes in the union.
    #[inline]
    pub fn distinct_count(&self) -> usize {
        self.dlen
    }

    /// Whether the current window is a *valid* sample: full and covering
    /// exactly `k = l + d − 1` distinct nodes (paper §3.1 discards the
    /// rest).
    #[inline]
    pub fn is_valid_sample(&self) -> bool {
        self.is_full() && self.dlen == self.k
    }

    /// The remembered states, oldest first.
    pub fn states(&self) -> impl Iterator<Item = &StateRec> {
        (0..self.count).map(move |i| &self.states[(self.head + i) & (MAX_STATES - 1)])
    }

    /// Degrees of the *interior* states X₂ … X_{l−1} (the ones whose
    /// degrees enter π_e for l > 2, Theorem 2).
    pub fn interior_degrees(&self) -> impl Iterator<Item = u32> + '_ {
        let end = self.count.saturating_sub(1);
        self.states().take(end).skip(1).map(|s| s.degree)
    }

    /// The distinct underlying nodes, in slot order (the labeling of
    /// [`NodeWindow::sample`]'s mask).
    #[inline]
    pub fn distinct_nodes(&self) -> &[NodeId] {
        &self.distinct[..self.dlen]
    }

    /// Host-graph degree of each distinct node, parallel to
    /// [`NodeWindow::distinct_nodes`] — the degree information the walk
    /// already paid for, cached at slot entry.
    #[inline]
    pub fn slot_degrees(&self) -> &[u32] {
        &self.degrees[..self.dlen]
    }

    /// Adjacency rows among the distinct nodes, parallel to
    /// [`NodeWindow::distinct_nodes`]: bit `q` of row `p` is set iff slots
    /// `p` and `q` are adjacent in the host graph.
    #[inline]
    pub(crate) fn slot_adjacency(&self) -> &[u64] {
        &self.adj[..self.dlen]
    }

    /// The adjacency list of slot `p`, as `acquire` visited it. Held only
    /// by d ≥ 3, l ≥ 3 windows; empty for the others.
    #[inline]
    pub(crate) fn slot_list(&self, p: usize) -> &[NodeId] {
        self.lists.as_ref().map_or(&[], |lists| &lists[p])
    }

    /// Slot-position bitmask and recorded `G(d)` degree of each remembered
    /// state, oldest first. The bitmask uses the same slot labeling as
    /// [`NodeWindow::sample`], so a CSS subset whose bits equal a state's
    /// bitmask *is* that state and can reuse its degree instead of
    /// re-enumerating `G(d)` neighbors. Every state node holds a slot
    /// (`push` acquires it, and a resumed window's slots are checked to
    /// be its ring's node union); a node without one would only drop its bit,
    /// leaving a mask that matches no d-subset, so the degree would be
    /// counted rather than reused.
    pub fn state_slot_masks(&self) -> impl Iterator<Item = (u8, u32)> + '_ {
        self.states().map(move |s| {
            let bits =
                s.nodes().iter().fold(0u8, |bits, &v| bits | self.slot_of(v).map_or(0, |p| 1 << p));
            (bits, s.degree)
        })
    }

    /// Total adjacency probes issued (k − 1 per step once warm).
    pub fn probes(&self) -> u64 {
        self.probes
    }

    // --- Checkpoint field encoding -----------------------------------------

    /// Serializes what the graph cannot tell (see the module docs): the
    /// ring's `l` states, oldest first, each node list as pushed, then the
    /// slot order. `l` and `d` come from the run configuration, and a
    /// session's window is always full (priming pushes `l` states), so no
    /// size is stored.
    pub(crate) fn encode_into(&self, buf: &mut Vec<u8>) {
        debug_assert!(self.is_full(), "only a primed window is checkpointed");
        for s in self.states() {
            for &v in s.nodes() {
                put_u32(buf, v);
            }
        }
        for &v in self.distinct_nodes() {
            put_u32(buf, v);
        }
    }

    /// Inverse of [`NodeWindow::encode_into`] — the one constructor of a
    /// resumed window. The ring must hold `l` states of `G(d)` (see
    /// [`decode_state`]), consecutive ones `G(d)`-adjacent, so the union
    /// has at most `k` nodes, and the slot order must be a permutation of
    /// that union. The rest is rebuilt from `g` as `push` builds it: each
    /// slot is acquired in the stored order (degree from `g.degree`,
    /// adjacency row and list copy from one `visit_neighbors` pass), refcounts
    /// are the occurrence counts, and each state's `G(d)` degree is
    /// recomputed as its walk computes it — `d_v`, `d_a + d_b − 2`, or
    /// `gd_state_degree`. [`NodeWindow::probes`] is a run-local
    /// diagnostic, so a resumed window counts it from 0.
    pub(crate) fn decode_from<G: GraphAccess>(
        r: &mut Reader<'_>,
        g: &G,
        l: usize,
        d: usize,
    ) -> Result<Self, CheckpointError> {
        let mut w = NodeWindow::new(l, d);
        for i in 0..l {
            let rec = decode_state(r, g, d, "window.state")?;
            if i > 0 && !is_step(g, w.states[i - 1].nodes(), rec.nodes()) {
                return Err(CheckpointError::Malformed { what: "window.state.step" });
            }
            w.states[i] = rec;
        }
        w.count = l;
        // The union in first-seen order, with each node's occurrences.
        let mut union = [(0, 0u8); MAX_NODES];
        let mut n = 0;
        for &v in w.states[..l].iter().flat_map(StateRec::nodes) {
            match union[..n].iter().position(|&(u, _)| u == v) {
                Some(i) => union[i].1 += 1,
                None => {
                    union[n] = (v, 1);
                    n += 1;
                }
            }
        }
        for _ in 0..n {
            let v = r.u32("window.slot")?;
            let Some(&(_, count)) = union[..n].iter().find(|&&(u, _)| u == v) else {
                return Err(CheckpointError::Malformed { what: "window.slot" });
            };
            if w.slot_of(v).is_some() {
                return Err(CheckpointError::Malformed { what: "window.slot" });
            }
            let p = w.acquire_any(g, v, None, None);
            w.refcount[p] = count;
        }
        for rec in &mut w.states[..l] {
            let degree = match *rec.nodes() {
                [v] => g.degree(v),
                [a, b] => (g.degree(a) + g.degree(b)).saturating_sub(2),
                _ => gd_state_degree(g, rec.nodes()),
            };
            rec.degree = degree as u32;
        }
        w.probes = 0;
        Ok(w)
    }

    /// Pushes the walk's current state. `degree` is the state's degree in
    /// `G(d)` at this time.
    ///
    /// # Panics
    ///
    /// If the window's union would exceed 8 nodes. A walk on `G(d)`
    /// changes one node per step, so the union of `l` consecutive states
    /// holds at most `k = l + d − 1` nodes (at l = 1, `d + 1` while the
    /// old state is released after the new one is acquired), which
    /// [`NodeWindow::new`] bounds by 8; only states that are no walk's
    /// consecutive steps can overflow it.
    ///
    /// Composed from three crate-internal pieces (`push_admit`,
    /// `push_acquire_first`, `push_acquire_rest`) so the engine's
    /// multi-lane schedule can run each piece as its own lock-step pass
    /// over the lanes (see `estimator::batched_ticks`): both schedules
    /// execute literally the same sequence of window operations per push — the split exists so
    /// the acquire probes of *different* lanes, each a serial
    /// dependent-load chain into a cold adjacency list, sit close enough
    /// together to overlap in one out-of-order window.
    // gx-lint: no_alloc
    pub fn push<G: GraphAccess>(&mut self, g: &G, state_nodes: &[NodeId], degree: usize) {
        self.push_admit(state_nodes, degree);
        let first = self.push_acquire_first(g, state_nodes, degree);
        self.push_acquire_rest(g, state_nodes, degree, first);
    }

    /// Ring admission half of [`NodeWindow::push`]: evict the oldest
    /// state once the window is full, then write the new record into its
    /// ring slot. Touches only window-resident state — no graph probes.
    ///
    /// At l = 1 the evicted state is the new one's predecessor and shares
    /// d − 1 of its nodes, so its eviction waits for the end of
    /// [`NodeWindow::push_acquire_rest`]: the shared nodes keep their
    /// slots (a refcount bump) instead of being released and fetched and
    /// probed again. The ring briefly holds two states for it.
    // gx-lint: no_alloc
    #[inline]
    pub(crate) fn push_admit(&mut self, state_nodes: &[NodeId], degree: usize) {
        debug_assert!(
            u32::try_from(degree).is_ok(),
            "state degree {degree} exceeds u32 (would truncate)"
        );
        if self.count == self.l && self.l > 1 {
            self.evict_oldest();
        }
        // Write the record straight into its ring slot (no stack copy).
        let slot = (self.head + self.count) & (MAX_STATES - 1);
        let rec = &mut self.states[slot];
        rec.len = state_nodes.len() as u8;
        rec.degree = degree as u32;
        rec.nodes[..state_nodes.len()].copy_from_slice(state_nodes);
        self.count += 1;
    }

    /// First acquire of [`NodeWindow::push`] — the probe-heavy entry of
    /// the state's first node. Returns that node's slot so
    /// [`NodeWindow::push_acquire_rest`] can reuse its cached degree.
    // gx-lint: no_alloc
    #[inline]
    pub(crate) fn push_acquire_first<G: GraphAccess>(
        &mut self,
        g: &G,
        state_nodes: &[NodeId],
        degree: usize,
    ) -> usize {
        if self.d == 2 && state_nodes.len() == 2 {
            // A G(2) state *is* an edge: each endpoint's adjacency to the
            // other is known without a probe (one of the paper's k − 1
            // per-step probes comes for free on the edge walk).
            self.acquire::<G, false>(g, state_nodes[0], None, Some(state_nodes[1]))
        } else {
            // For d = 1 the state degree *is* the node degree — reuse it
            // so the walk's own degree lookups are never repeated.
            let known = if state_nodes.len() == 1 { Some(degree as u32) } else { None };
            match state_nodes.first() {
                Some(&v) => self.acquire_any(g, v, known, None),
                None => 0,
            }
        }
    }

    /// Remaining acquires of [`NodeWindow::push`], then the l = 1
    /// eviction [`NodeWindow::push_admit`] deferred. `first` is
    /// [`NodeWindow::push_acquire_first`]'s slot: for a G(2) edge state
    /// the second endpoint's node degree follows from the first's cached
    /// slot degree (state degree = d_a + d_b − 2) without touching the
    /// graph.
    // gx-lint: no_alloc
    #[inline]
    pub(crate) fn push_acquire_rest<G: GraphAccess>(
        &mut self,
        g: &G,
        state_nodes: &[NodeId],
        degree: usize,
        first: usize,
    ) {
        if self.d == 2 && state_nodes.len() == 2 {
            let (a, b) = (state_nodes[0], state_nodes[1]);
            let db = (degree + 2 - self.degrees[first] as usize) as u32;
            self.acquire::<G, false>(g, b, Some(db), Some(a));
        } else {
            for &v in state_nodes.iter().skip(1) {
                let _ = self.acquire_any(g, v, None, None);
            }
        }
        if self.count > self.l {
            self.evict_deferred();
        }
    }

    /// The l = 1 eviction [`NodeWindow::push_admit`] deferred, out of
    /// line so the l > 1 push passes keep their size: they never take it.
    #[cold]
    #[inline(never)]
    fn evict_deferred(&mut self) {
        self.evict_oldest();
    }

    /// Drops the oldest state from the ring and releases its nodes.
    // gx-lint: no_alloc
    #[inline]
    fn evict_oldest(&mut self) {
        let old = self.states[self.head];
        self.head = (self.head + 1) & (MAX_STATES - 1);
        self.count -= 1;
        for &v in old.nodes() {
            self.release(v);
        }
    }

    #[inline]
    fn slot_of(&self, v: NodeId) -> Option<usize> {
        self.distinct[..self.dlen].iter().position(|&x| x == v)
    }

    /// [`NodeWindow::acquire`], keeping the list copy iff this window
    /// holds list copies.
    #[inline]
    fn acquire_any<G: GraphAccess>(
        &mut self,
        g: &G,
        v: NodeId,
        known_degree: Option<u32>,
        known_adjacent: Option<NodeId>,
    ) -> usize {
        if self.lists.is_some() {
            self.acquire::<G, true>(g, v, known_degree, known_adjacent)
        } else {
            self.acquire::<G, false>(g, v, known_degree, known_adjacent)
        }
    }

    /// Takes a reference to `v`'s slot, opening the slot if `v` has none:
    /// its adjacency row from one visit of `v`'s list, its degree, and
    /// with `KEEP` (only for a window that holds list copies) a copy of
    /// the list. A d = 2 window holds none, so its edge-state passes call
    /// the `KEEP = false` probe loop directly.
    fn acquire<G: GraphAccess, const KEEP: bool>(
        &mut self,
        g: &G,
        v: NodeId,
        known_degree: Option<u32>,
        known_adjacent: Option<NodeId>,
    ) -> usize {
        if let Some(p) = self.slot_of(v) {
            self.refcount[p] += 1;
            return p;
        }
        let p = self.dlen;
        // gx-lint: allow(panic_surface) -- `push`'s documented precondition: consecutive walk states never overflow the union
        assert!(p < MAX_NODES, "window union overflow");
        // probe adjacency vs every existing slot: the paper's k − 1
        // binary searches per step (minus any pair the walk already
        // knows, passed as `known_adjacent`). Every probe searches the
        // entering node's own list — fetched once and cache-warm across
        // the k − 1 probes — which measures faster than the generic
        // `has_edge` (no per-pair hub-index or degree-comparison
        // overhead, one hot list instead of k − 1 cold ones).
        // `visit_neighbors` (rather than `neighbors`) lets out-of-core
        // backends lend a scoped, cache-resident slice without any
        // allocation or copy; on the in-RAM `Graph` it compiles to the
        // same direct subslice as before.
        let distinct = &self.distinct[..p];
        let adj = &mut self.adj;
        let mut copy =
            if KEEP { self.lists.as_deref_mut().map(|lists| &mut lists[p]) } else { None };
        let mut row = 0u64;
        let mut probed = 0u64;
        g.visit_neighbors(v, &mut |nbrs| {
            // `KEEP` is a constant, so the d ≤ 2 probe loop carries no
            // test for a copy: a runtime test here slowed the d = 2 push
            // path measurably.
            if KEEP {
                if let Some(list) = copy.as_deref_mut() {
                    list.clear();
                    list.extend_from_slice(nbrs);
                }
            }
            for (q, &u) in distinct.iter().enumerate() {
                let adjacent = if known_adjacent == Some(u) {
                    true
                } else {
                    probed += 1;
                    nbrs.binary_search(&u).is_ok()
                };
                if adjacent {
                    row |= 1 << q;
                    adj[q] |= 1 << p;
                }
            }
        });
        self.probes += probed;
        self.adj[p] = row;
        self.distinct[p] = v;
        self.degrees[p] = known_degree.unwrap_or_else(|| g.degree(v) as u32);
        self.refcount[p] = 1;
        self.dlen += 1;
        p
    }

    /// Drops one reference to `v`'s slot. Only `evict_oldest` releases,
    /// and only the nodes of the state it evicts, each acquired by the
    /// push that admitted that state.
    fn release(&mut self, v: NodeId) {
        let Some(p) = self.slot_of(v) else {
            debug_assert!(false, "released node {v} holds no slot");
            return;
        };
        self.refcount[p] -= 1;
        if self.refcount[p] > 0 {
            return;
        }
        // swap-remove slot p, relocating the last slot's adjacency bits.
        let last = self.dlen - 1;
        self.distinct[p] = self.distinct[last];
        self.degrees[p] = self.degrees[last];
        self.refcount[p] = self.refcount[last];
        if let Some(lists) = self.lists.as_deref_mut() {
            lists.swap(p, last);
        }
        self.dlen = last;
        let pbit = 1u64 << p;
        let lastbit = 1u64 << last;
        if p != last {
            // Move `last`'s row into slot p, dropping its (p, last) bit.
            self.adj[p] = self.adj[last] & !pbit;
            // In every other row, rewrite the `last` bit as the `p` bit,
            // branchlessly. (For q = p the moved row has no `last` bit —
            // it would be a self-loop — so the or-in is a no-op there.)
            for q in 0..=last {
                let row = self.adj[q];
                let had_last = (row >> last) & 1;
                self.adj[q] = (row & !(pbit | lastbit)) | (had_last << p);
            }
        } else {
            for row in self.adj.iter_mut() {
                *row &= !pbit;
            }
        }
        self.adj[last] = 0;
    }

    /// The induced edge mask over the distinct nodes, in slot order
    /// (labeling compatible with [`gx_graphlets::classify_mask`] for
    /// `distinct_count()` nodes), together with the nodes.
    ///
    /// Extracted with bit operations from the per-slot adjacency masks:
    /// for each slot `i`, the bits `j > i` of `adj[i]` are exactly the
    /// edges `(i, j)`, and the upper-triangle pair layout stores them
    /// contiguously — so each row contributes one shifted bit-block, no
    /// per-pair scan.
    // gx-lint: no_alloc
    #[inline]
    pub fn sample(&self) -> (u32, &[NodeId]) {
        let m = self.dlen;
        let mut mask = 0u32;
        // pair_index(i, j, m) = base(i) + (j - i - 1) with
        // base(i) = i*m - i(i+1)/2: within a row the pair bits are
        // consecutive in j, so the whole row moves in one shift.
        let mut base = 0usize;
        for i in 0..m {
            let above = (self.adj[i] >> (i + 1)) as u32; // bits j > i, j at j-i-1
            mask |= (above & ((1u32 << (m - i - 1)) - 1)) << base;
            base += m - i - 1;
        }
        debug_assert_eq!(mask, self.reference_mask(), "bit-block mask extraction");
        (mask, &self.distinct[..m])
    }

    /// Reference mask built pairwise (debug cross-check for `sample`).
    fn reference_mask(&self) -> u32 {
        let m = self.dlen;
        let mut mask = 0u32;
        for i in 0..m {
            for j in (i + 1)..m {
                if self.adj[i] & (1 << j) != 0 {
                    mask |= 1 << pair_index(i, j, m);
                }
            }
        }
        mask
    }
}

/// Reads one `d`-node walk state and checks that it is a state of
/// `G(d)` as the walks store it: every node in range, and at d = 1 a node
/// with a neighbor, at d ≥ 2 a strictly ascending node list inducing a
/// connected subgraph (at d = 2, an edge). These are the preconditions
/// the walk constructors assert, so a resumed walk never trips them.
pub(crate) fn decode_state<G: GraphAccess>(
    r: &mut Reader<'_>,
    g: &G,
    d: usize,
    what: &'static str,
) -> Result<StateRec, CheckpointError> {
    let mut rec = StateRec { len: d as u8, ..StateRec::EMPTY };
    for v in rec.nodes.iter_mut().take(d) {
        *v = r.u32(what)?;
    }
    let nodes = rec.nodes();
    let valid = nodes.iter().all(|&v| (v as usize) < g.num_nodes())
        && nodes.windows(2).all(|p| p[0] < p[1])
        && subset_is_connected(g, nodes)
        && (d > 1 || g.degree(nodes[0]) > 0);
    if valid {
        Ok(rec)
    } else {
        Err(CheckpointError::Malformed { what })
    }
}

/// Whether `b` is one `G(d)` step from `a`: the two states share d − 1
/// nodes, and at d = 1 the two nodes are adjacent.
fn is_step<G: GraphAccess>(g: &G, a: &[NodeId], b: &[NodeId]) -> bool {
    let shared = b.iter().filter(|v| a.contains(v)).count();
    shared + 1 == b.len() && (b.len() > 1 || g.has_edge(a[0], b[0]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gx_graph::generators::classic;
    use gx_graphlets::{classify_mask, classify_nodes};

    #[test]
    fn window_tracks_distinct_nodes_srw1() {
        let g = classic::paper_figure1();
        let mut w = NodeWindow::new(3, 1);
        assert!(w.is_empty());
        // walk 0 -> 1 -> 0: only 2 distinct nodes -> invalid
        w.push(&g, &[0], 3);
        assert_eq!(w.len(), 1);
        w.push(&g, &[1], 2);
        w.push(&g, &[0], 3);
        assert!(w.is_full());
        assert_eq!(w.distinct_count(), 2);
        assert!(!w.is_valid_sample());
        // continue 0 -> 3: window = (1, 0, 3): wedge (1-0, 0-3, no 1-3)
        w.push(&g, &[3], 2);
        assert!(w.is_valid_sample());
        let (mask, nodes) = w.sample();
        assert_eq!(classify_mask(3, mask), classify_nodes(&g, nodes));
        assert_eq!(classify_mask(3, mask).unwrap().name(), "wedge");
        // continue 3 -> 2: window = (0, 3, 2): triangle {0,3,2}
        w.push(&g, &[2], 3);
        let (mask, _) = w.sample();
        assert_eq!(classify_mask(3, mask).unwrap().name(), "triangle");
    }

    #[test]
    fn window_matches_paper_g2_example() {
        // §3.1 example (b): states (1,2) -> (1,3) -> (3,4) on G(2) give the
        // 4-node sample {1,2,3,4} = chordal-cycle (0-based: shift by −1).
        let g = classic::paper_figure1();
        let mut w = NodeWindow::new(3, 2);
        w.push(&g, &[0, 1], 3);
        w.push(&g, &[0, 2], 4);
        w.push(&g, &[2, 3], 3);
        assert!(w.is_valid_sample());
        let (mask, nodes) = w.sample();
        assert_eq!(classify_mask(4, mask).unwrap().name(), "chordal-cycle");
        let mut sorted = nodes.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
        // interior degree: only the middle state (0,2) with degree 4
        assert_eq!(w.interior_degrees().collect::<Vec<_>>(), vec![4]);
    }

    #[test]
    fn interior_degrees_for_l2_is_empty() {
        let g = classic::paper_figure1();
        let mut w = NodeWindow::new(2, 3);
        w.push(&g, &[0, 1, 2], 5);
        w.push(&g, &[0, 2, 3], 6);
        assert_eq!(w.interior_degrees().count(), 0);
    }

    #[test]
    fn probes_are_k_minus_1_per_new_node() {
        let g = classic::complete(6);
        let mut w = NodeWindow::new(3, 1);
        w.push(&g, &[0], 5);
        assert_eq!(w.probes(), 0);
        w.push(&g, &[1], 5);
        assert_eq!(w.probes(), 1);
        w.push(&g, &[2], 5);
        assert_eq!(w.probes(), 3); // 1 + 2

        // steady state: one node leaves, one enters: k-1 = 2 probes
        w.push(&g, &[3], 5);
        assert_eq!(w.probes(), 5);
    }

    #[test]
    fn slot_degrees_track_host_graph() {
        let g = classic::paper_figure1(); // degrees: 3, 2, 3, 2
        let mut w = NodeWindow::new(3, 2);
        w.push(&g, &[0, 1], 3);
        w.push(&g, &[0, 2], 4);
        w.push(&g, &[2, 3], 3);
        for (&v, &deg) in w.distinct_nodes().iter().zip(w.slot_degrees()) {
            assert_eq!(deg as usize, g.degree(v), "slot degree of node {v}");
        }
        // slot degrees survive evictions / slot relocation
        w.push(&g, &[1, 2], 3);
        w.push(&g, &[1, 3], 2);
        for (&v, &deg) in w.distinct_nodes().iter().zip(w.slot_degrees()) {
            assert_eq!(deg as usize, g.degree(v), "slot degree of node {v}");
        }
    }

    #[test]
    fn state_slot_masks_identify_visited_states() {
        let g = classic::paper_figure1();
        let mut w = NodeWindow::new(3, 2);
        w.push(&g, &[0, 1], 3);
        w.push(&g, &[0, 2], 4);
        w.push(&g, &[2, 3], 3);
        let nodes = w.distinct_nodes();
        for ((bits, deg), rec) in w.state_slot_masks().zip(w.states()) {
            assert_eq!(deg, rec.degree);
            // the bitmask decodes back to exactly the state's node set
            let mut decoded: Vec<_> =
                (0..nodes.len()).filter(|&p| bits & (1 << p) != 0).map(|p| nodes[p]).collect();
            decoded.sort_unstable();
            let mut want = rec.nodes().to_vec();
            want.sort_unstable();
            assert_eq!(decoded, want);
        }
    }

    #[test]
    fn mask_stays_consistent_under_long_random_walks() {
        use gx_walks::{rng_from_seed, SrwWalk, StateWalk};
        let g = classic::petersen();
        let mut rng = rng_from_seed(77);
        let mut walk = SrwWalk::new(&g, 0, false);
        let mut w = NodeWindow::new(4, 1);
        for _ in 0..5000 {
            let deg = walk.state_degree();
            w.push(&g, &[walk.state()[0]], deg);
            if w.is_full() {
                let (mask, nodes) = w.sample();
                // reference: classify from scratch
                let m = nodes.len();
                let expected = gx_graphlets::induced_mask(&g, nodes);
                assert_eq!(mask, expected, "incremental mask diverged at {nodes:?} (m={m})");
            }
            walk.step(&mut rng);
        }
    }

    #[test]
    fn mask_consistent_for_g2_windows() {
        use gx_walks::{rng_from_seed, G2Walk, StateWalk};
        let g = classic::lollipop(5, 3);
        let mut rng = rng_from_seed(13);
        let mut walk = G2Walk::new(&g, 0, 1, false);
        let mut w = NodeWindow::new(4, 2);
        for _ in 0..5000 {
            let deg = walk.state_degree();
            w.push(&g, walk.state(), deg);
            if w.is_full() {
                let (mask, nodes) = w.sample();
                assert_eq!(mask, gx_graphlets::induced_mask(&g, nodes));
                assert!(w.distinct_count() >= 2 && w.distinct_count() <= 5);
            }
            walk.step(&mut rng);
        }
    }

    #[test]
    #[should_panic(expected = "union size")]
    fn rejects_oversized_window() {
        let _ = NodeWindow::new(9, 1);
    }

    /// Everything a consumer can observe of a window.
    type Observed = (u32, Vec<NodeId>, Vec<u32>, Vec<(u8, u32)>, Vec<Vec<NodeId>>);

    fn observe(w: &NodeWindow) -> Observed {
        let (mask, nodes) = w.sample();
        (
            mask,
            nodes.to_vec(),
            w.slot_degrees().to_vec(),
            w.state_slot_masks().collect(),
            w.states().map(|s| s.nodes().to_vec()).collect(),
        )
    }

    /// Walks 2,000 steps through a length-`l` window, rebuilding it from
    /// its checkpoint encoding every 97 steps: the rebuilt window must
    /// equal the live one in every observable and then track it exactly
    /// under the same pushes. Returns how many rebuilds saw a slot order
    /// that differs from the ring's first-seen node order — windows only
    /// the stored slot order can reproduce.
    fn assert_rebuild_is_exact<G: GraphAccess, W: gx_walks::StateWalk>(
        g: &G,
        mut walk: W,
        l: usize,
        seed: u64,
    ) -> usize {
        let mut rng = gx_walks::rng_from_seed(seed);
        let d = walk.d();
        let mut live = NodeWindow::new(l, d);
        let mut rebuilt: Option<NodeWindow> = None;
        let mut permuted = 0;
        for step in 0..2_000 {
            let deg = walk.state_degree();
            live.push(g, walk.state(), deg);
            if let Some(back) = rebuilt.as_mut() {
                back.push(g, walk.state(), deg);
                assert_eq!(observe(back), observe(&live), "diverged after a push, step {step}");
            }
            if live.is_full() && step % 97 == 0 {
                let mut buf = Vec::new();
                live.encode_into(&mut buf);
                let mut r = Reader::new(&buf);
                let back = NodeWindow::decode_from(&mut r, g, l, d).unwrap();
                r.finish().unwrap();
                assert_eq!(observe(&back), observe(&live), "rebuild differs, step {step}");
                assert_eq!(back.probes(), 0);
                let mut first_seen: Vec<NodeId> = Vec::new();
                for &v in live.states().flat_map(StateRec::nodes) {
                    if !first_seen.contains(&v) {
                        first_seen.push(v);
                    }
                }
                permuted += usize::from(first_seen != live.distinct_nodes());
                rebuilt = Some(back);
            }
            walk.step(&mut rng);
        }
        permuted
    }

    #[test]
    fn rebuilt_window_equals_the_live_one() {
        use gx_walks::{G2Walk, GdWalk, SrwWalk};
        let petersen = classic::petersen();
        let lollipop = classic::lollipop(6, 4);
        let permuted = [
            assert_rebuild_is_exact(&petersen, SrwWalk::new(&petersen, 0, false), 4, 41),
            assert_rebuild_is_exact(&lollipop, SrwWalk::new(&lollipop, 0, true), 3, 42),
            assert_rebuild_is_exact(&lollipop, G2Walk::new(&lollipop, 0, 1, false), 4, 43),
            assert_rebuild_is_exact(&petersen, G2Walk::new(&petersen, 0, 1, true), 3, 44),
            assert_rebuild_is_exact(&lollipop, GdWalk::new(&lollipop, &[0, 1, 2], false), 3, 45),
            assert_rebuild_is_exact(&petersen, GdWalk::new(&petersen, &[0, 1, 2], true), 2, 46),
        ];
        // Swap-removes reorder the slots on every graph and dimension, so
        // the stored slot order is load-bearing in each case.
        assert!(permuted.iter().all(|&n| n > 0), "{permuted:?}");
    }

    /// Encodes a ring and a slot list the way `encode_into` lays them out.
    fn payload(states: &[&[NodeId]], slots: &[NodeId]) -> Vec<u8> {
        let mut buf = Vec::new();
        for &v in states.iter().copied().flatten().chain(slots) {
            put_u32(&mut buf, v);
        }
        buf
    }

    /// Decodes a whole payload: the window, then nothing left over.
    fn decode(g: &gx_graph::Graph, l: usize, d: usize, buf: &[u8]) -> Result<(), CheckpointError> {
        let mut r = Reader::new(buf);
        NodeWindow::decode_from(&mut r, g, l, d)?;
        r.finish()
    }

    #[test]
    fn decode_rejects_inconsistent_payloads() {
        // Petersen: outer cycle 0-1-2-3-4, spokes i-(i+5), no triangles.
        let g = classic::petersen();
        let malformed = |what| Err(CheckpointError::Malformed { what });
        // d = 1, l = 3: the walk 0 → 1 → 2.
        let ring: &[&[NodeId]] = &[&[0], &[1], &[2]];
        let good = payload(ring, &[2, 0, 1]);
        assert_eq!(decode(&g, 3, 1, &good), Ok(()));
        for cut in 0..good.len() {
            assert!(decode(&g, 3, 1, &good[..cut]).is_err(), "cut {cut}");
        }
        // A node id past the graph.
        assert_eq!(
            decode(&g, 3, 1, &payload(&[&[0], &[1], &[10]], &[0, 1, 10])),
            malformed("window.state")
        );
        // 0 and 2 are not adjacent, so 0 → 2 is no step of the walk.
        assert_eq!(
            decode(&g, 3, 1, &payload(&[&[0], &[2], &[1]], &[0, 1, 2])),
            malformed("window.state.step")
        );
        // The slot list must be a permutation of the union {0, 1, 2}.
        assert_eq!(decode(&g, 3, 1, &payload(ring, &[0, 0, 2])), malformed("window.slot"));
        assert_eq!(decode(&g, 3, 1, &payload(ring, &[0, 1, 3])), malformed("window.slot"));
        assert!(decode(&g, 3, 1, &payload(ring, &[0, 1])).is_err(), "missing slot");
        assert!(decode(&g, 3, 1, &payload(ring, &[0, 1, 2, 3])).is_err(), "extra slot");
        // d = 2: a non-edge, an unsorted edge, and edges sharing no node.
        assert_eq!(decode(&g, 2, 2, &payload(&[&[0, 1], &[1, 2]], &[0, 1, 2])), Ok(()));
        assert_eq!(
            decode(&g, 2, 2, &payload(&[&[0, 2], &[1, 2]], &[0, 1, 2])),
            malformed("window.state")
        );
        assert_eq!(
            decode(&g, 2, 2, &payload(&[&[1, 0], &[1, 2]], &[0, 1, 2])),
            malformed("window.state")
        );
        assert_eq!(
            decode(&g, 2, 2, &payload(&[&[0, 1], &[2, 3]], &[0, 1, 2, 3])),
            malformed("window.state.step")
        );
        // d = 3, l = 2: {0, 1, 2} → {1, 2, 3}; then a disconnected state
        // ({0, 2, 7}: only 2-7 is an edge) and an unsorted one.
        let slots = [3, 2, 1, 0];
        assert_eq!(decode(&g, 2, 3, &payload(&[&[0, 1, 2], &[1, 2, 3]], &slots)), Ok(()));
        assert_eq!(
            decode(&g, 2, 3, &payload(&[&[0, 2, 7], &[2, 3, 7]], &[0, 2, 3, 7])),
            malformed("window.state")
        );
        assert_eq!(
            decode(&g, 2, 3, &payload(&[&[1, 0, 2], &[1, 2, 3]], &slots)),
            malformed("window.state")
        );
    }
}
