//! Random walk on `G(d)` for d ≥ 3 with on-the-fly neighbor enumeration.
//!
//! A state is a connected induced d-node subgraph. Its `G(d)`-neighbors are
//! obtained by replacing one node with an outside node such that the result
//! is still connected (states adjacent in `G(d)` share d − 1 nodes). To
//! select a *uniform* neighbor the full neighbor set must be enumerated
//! each step — the paper's §5 puts this at O(d² |E|/|V|) per step, and it
//! is exactly why the paper argues for small d: [`crate::G2Walk`] does the
//! same job in O(1).
//!
//! # Cost of one enumeration
//!
//! [`GdWalk`] keeps each state position's adjacency list across steps. A
//! step changes one state node, so `commit` drops the leaving node's
//! list and fetches only the entering node's, through
//! [`GraphAccess::visit_neighbors`]: once primed, a step costs one list
//! request (a walk built by `new` or `resume` fetches all `d` lists on
//! its first enumeration) and no adjacency probes.
//!
//! An enumeration starts from the state's shape. Its induced adjacency
//! rows come from d(d − 1)/2 binary searches of the lists the walk
//! already holds, and `kept ∪ {w}` is connected iff `w` touches every
//! component of the kept nodes, so the shape fixes, for every candidate
//! mask (the state positions a candidate is adjacent to), the drop
//! positions it keeps connected. For d ≤ 4 (every walk state at l ≥ 3
//! for k ≤ 6, and every CSS profile subset) that map is one row of a
//! process-wide table built once from `DropSets::rebuild`, the one
//! implementation of the rule ([`drop_row`]); larger states rebuild it
//! per enumeration.
//!
//! Every backend stores its lists strictly ascending, so one merge of the
//! `d` runs visits each outside candidate once, in ascending order, with
//! its mask, and files it, with branch-free stores, into the block of
//! every drop position its mask keeps connected. Block `p` holds the
//! neighbors that replace position `p`, ascending; the block lengths are
//! the per-drop neighbor counts and the degree is their sum. The walk
//! draws its `r`-th neighbor by index into one block, in the same
//! `(drop, w)` order and with the same RNG calls as drawing from the
//! materialized list; the non-backtracking rule's skip is a binary search
//! of the at most d avoided nodes in that block.
//! [`gd_state_degree_with`] (the CSS d ≥ 3 fallback) runs the same merge
//! over freshly fetched lists.

use crate::rng::WalkRng;
use crate::traits::StateWalk;
use gx_graph::{GraphAccess, NodeId};
use rand::Rng;
use std::sync::OnceLock;

/// Random walk on `G(d)`, d ≥ 2 (d = 2 is accepted for cross-validation
/// against [`crate::G2Walk`], but the dedicated walk is faster).
pub struct GdWalk<'g, G: GraphAccess> {
    g: &'g G,
    d: usize,
    /// Current state, sorted ascending.
    state: Vec<NodeId>,
    /// Previous state (sorted) when `has_prev`; kept as a reused buffer so
    /// the steady-state step path performs zero heap allocation.
    prev: Vec<NodeId>,
    has_prev: bool,
    nb: bool,
    /// `lists[p]` is the adjacency list of `state[p]` once `lists_valid`;
    /// a step swaps one list, the others carry over.
    lists: Vec<Vec<NodeId>>,
    lists_valid: bool,
    /// The current state's enumeration (see [`GdWalk::enumerate`]),
    /// valid when `enumerated`: its neighbors filed by drop position, and
    /// the drop sets of a state too large for the shared table (both
    /// boxed, so a walk stays small to move).
    blocks: Box<Blocks>,
    sets: Box<DropSets>,
    degree: usize,
    enumerated: bool,
    /// The materialized `(drop, w)` list the oracle tests compare.
    #[cfg(test)]
    neighbors: Vec<(u8, NodeId)>,
}

impl<'g, G: GraphAccess> GdWalk<'g, G> {
    /// Starts at the given connected induced d-subgraph (sorted or not).
    ///
    /// # Panics
    ///
    /// Unless `2 ≤ d ≤ 8` and `start` holds distinct nodes inducing a
    /// connected subgraph (the estimator draws its start with
    /// [`crate::random_start_state`], which returns such a state, and a
    /// resumed walk's state is checked before it gets here).
    pub fn new(g: &'g G, start: &[NodeId], non_backtracking: bool) -> Self {
        let d = start.len();
        // gx-lint: allow(panic_surface) -- documented precondition, like an index out of range; every caller passes a validated dimension
        assert!(d >= 2, "GdWalk needs d >= 2 (use SrwWalk for d = 1)");
        // gx-lint: allow(panic_surface) -- documented precondition, as above
        assert!(d <= TABLE_D, "GdWalk supports d <= {TABLE_D}");
        let mut state = start.to_vec();
        state.sort_unstable();
        // gx-lint: allow(panic_surface) -- documented precondition, as above; a start state is drawn or checkpoint-validated
        assert!(state.windows(2).all(|w| w[0] < w[1]), "start state has duplicate nodes");
        // gx-lint: allow(panic_surface) -- documented precondition, as above
        assert!(
            subset_is_connected(g, &state),
            "start state {state:?} does not induce a connected subgraph"
        );
        Self {
            g,
            d,
            state,
            prev: Vec::with_capacity(d),
            has_prev: false,
            nb: non_backtracking,
            lists: vec![Vec::new(); d],
            lists_valid: false,
            blocks: Box::default(),
            sets: Box::default(),
            degree: 0,
            enumerated: false,
            #[cfg(test)]
            neighbors: Vec::new(),
        }
    }

    /// Rebuilds a walk at a checkpointed position: current state plus the
    /// previous state the non-backtracking rule remembers. The adjacency
    /// lists and the enumeration are rebuilt lazily on the next step
    /// (they are pure functions of the state), so resuming against the
    /// same graph is bit-identical to never having stopped.
    ///
    /// # Panics
    ///
    /// As [`GdWalk::new`] for `current`, and if `prev` does not hold as
    /// many nodes as `current` (a checkpoint's states are decoded at the
    /// run's `d`).
    pub fn resume(
        g: &'g G,
        current: &[NodeId],
        prev: Option<&[NodeId]>,
        non_backtracking: bool,
    ) -> Self {
        let mut walk = Self::new(g, current, non_backtracking);
        if let Some(p) = prev {
            // gx-lint: allow(panic_surface) -- documented precondition, as in `new`
            assert_eq!(p.len(), walk.d, "previous state must have the walk's dimension");
            walk.prev.extend_from_slice(p);
            walk.prev.sort_unstable();
            walk.has_prev = true;
        }
        walk
    }

    /// The previous state remembered for the non-backtracking rule
    /// (sorted; `None` before the first step) — the only walk state
    /// besides [`StateWalk::state`] a checkpoint must carry.
    pub fn prev_state(&self) -> Option<&[NodeId]> {
        self.has_prev.then_some(self.prev.as_slice())
    }

    /// Enumerates the current state (idempotent per state): files its
    /// neighbors by drop position and sums the degree. The first call
    /// after `new` or `resume` fetches all `d` lists; later states reuse
    /// the lists `apply` keeps current.
    // gx-lint: no_alloc
    fn enumerate(&mut self) {
        if self.enumerated {
            return;
        }
        if !self.lists_valid {
            for (list, &v) in self.lists.iter_mut().zip(&self.state) {
                fetch_list(self.g, v, list);
            }
            self.lists_valid = true;
        }
        let mut runs: [&[NodeId]; TABLE_D] = [&[]; TABLE_D];
        for (run, list) in runs.iter_mut().zip(&self.lists) {
            *run = list;
        }
        self.degree = self.blocks.fill(&self.state, &runs[..self.d], &mut self.sets);
        self.enumerated = true;
    }

    /// The `r`-th neighbor, in the order drop ascending then `w`
    /// ascending, among those `avoid` does not skip; `r` is below their
    /// number. An index into one block: each avoided node at or before
    /// the target moves it one entry on.
    // gx-lint: no_alloc
    fn nth_neighbor(&self, mut r: usize, avoid: &Avoid) -> (u8, NodeId) {
        let mut drop = 0usize;
        while drop + 1 < self.d && r >= self.blocks.len[drop] - avoid.count[drop] {
            r -= self.blocks.len[drop] - avoid.count[drop];
            drop += 1;
        }
        let block = self.blocks.block(drop);
        if (avoid.drops >> drop) & 1 == 1 {
            // `avoid.nodes` is ascending, so their positions are too.
            for &v in &avoid.nodes[..avoid.len] {
                if block.binary_search(&v).is_ok_and(|i| i <= r) {
                    r += 1;
                }
            }
        }
        (drop as u8, block[r])
    }

    /// The neighbors the non-backtracking rule avoids: the one move back
    /// to `prev`, i.e. `(drop, w)` with `state[drop] ∉ prev` and
    /// `w ∈ prev`. Avoids nothing for a plain walk, before the first
    /// step, or when going back is the only move (a forced backtrack).
    // gx-lint: no_alloc
    fn avoided(&self) -> Avoid {
        let mut avoid = Avoid::default();
        if !(self.nb && self.has_prev) {
            return avoid;
        }
        for (pos, v) in self.state.iter().enumerate() {
            if self.prev.binary_search(v).is_err() {
                avoid.drops |= 1 << pos;
            }
        }
        for &v in &self.prev {
            if self.state.binary_search(&v).is_err() {
                avoid.nodes[avoid.len] = v;
                avoid.len += 1;
                let mut drops = avoid.drops;
                while drops != 0 {
                    let drop = drops.trailing_zeros() as usize;
                    avoid.count[drop] +=
                        usize::from(self.blocks.block(drop).binary_search(&v).is_ok());
                    drops &= drops - 1;
                }
            }
        }
        if avoid.count.iter().sum::<usize>() == self.degree {
            return Avoid::default();
        }
        avoid
    }

    /// Materializes the `(drop, w)` list into `neighbors`, one
    /// [`GdWalk::nth_neighbor`] per entry.
    #[cfg(test)]
    fn refresh_neighbors(&mut self) {
        self.enumerate();
        let all = Avoid::default();
        self.neighbors = (0..self.degree).map(|r| self.nth_neighbor(r, &all)).collect();
    }

    /// Moves to the state with position `drop` replaced by `incoming`,
    /// swapping the leaving node's list for the entering node's: the one
    /// list request of a primed step.
    // gx-lint: no_alloc
    fn apply(&mut self, drop: usize, incoming: NodeId) {
        self.prev.clear();
        self.prev.extend_from_slice(&self.state);
        self.has_prev = true;
        self.state.remove(drop);
        let pos = self.state.partition_point(|&v| v < incoming);
        self.state.insert(pos, incoming);
        if self.lists_valid {
            let mut list = self.lists.remove(drop);
            fetch_list(self.g, incoming, &mut list);
            self.lists.insert(pos, list);
        }
        self.enumerated = false;
    }
}

/// Neighbors a draw skips: `(drop, w)` with `drop` in `drops` and `w` in
/// `nodes` (ascending), `count[drop]` of them per drop position.
#[derive(Default)]
struct Avoid {
    drops: u8,
    nodes: [NodeId; TABLE_D],
    len: usize,
    count: [usize; TABLE_D],
}

/// Replaces `out` with the adjacency list of `v` (one request).
#[inline]
fn fetch_list<G: GraphAccess>(g: &G, v: NodeId, out: &mut Vec<NodeId>) {
    out.clear();
    g.visit_neighbors(v, &mut |nbrs| out.extend_from_slice(nbrs));
}

/// Whether `nodes` (distinct) induce a connected subgraph. O(d²) adjacency
/// probes.
pub fn subset_is_connected<G: GraphAccess>(g: &G, nodes: &[NodeId]) -> bool {
    let d = nodes.len();
    if d == 0 {
        return false;
    }
    if d == 1 {
        return true;
    }
    debug_assert!(d <= 16);
    let mut adj = [0u16; 16];
    for i in 0..d {
        for j in (i + 1)..d {
            if g.has_edge(nodes[i], nodes[j]) {
                adj[i] |= 1 << j;
                adj[j] |= 1 << i;
            }
        }
    }
    let full: u16 = if d == 16 { u16::MAX } else { (1 << d) - 1 };
    let mut reached: u16 = 1;
    loop {
        let mut next = reached;
        for (i, &row) in adj.iter().enumerate().take(d) {
            if reached & (1 << i) != 0 {
                next |= row;
            }
        }
        if next == reached {
            return reached == full;
        }
        reached = next;
    }
}

/// Largest walk state, and largest state whose candidate masks index a
/// table of drop sets (2^8 entries). Wider degree queries (d ≤ 16) test
/// each candidate mask against the kept components instead.
const TABLE_D: usize = 8;

/// Largest state the process-wide drop table covers ([`drop_row`]).
const SHAPE_D: usize = 4;

/// Drop rows of the shared table: one per candidate mask of a
/// [`SHAPE_D`]-node state.
const ROW: usize = 1 << SHAPE_D;

/// Shapes of a [`SHAPE_D`]-node state: one bit per node pair.
const SHAPES: usize = 1 << (SHAPE_D * (SHAPE_D - 1) / 2);

/// `drop_table()[d][shape]` is the drop set of every candidate mask of
/// the connected `d`-node shape `shape` (see [`shape_key`]), copied from
/// [`DropSets::rebuild`] once per process; rows of disconnected shapes
/// stay zero and are never read. 5 KiB, shared by every walk and CSS
/// profile, like the reciprocal table of the CSS weights.
fn drop_table() -> &'static [[[u8; ROW]; SHAPES]; SHAPE_D + 1] {
    static TABLE: OnceLock<Box<[[[u8; ROW]; SHAPES]; SHAPE_D + 1]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = Box::new([[[0u8; ROW]; SHAPES]; SHAPE_D + 1]);
        let mut sets = DropSets::default();
        for (d, rows) in table.iter_mut().enumerate().skip(2) {
            for (shape, row) in rows.iter_mut().enumerate().take(1 << (d * (d - 1) / 2)) {
                let adj = shape_rows(shape, d);
                let full = (1u16 << d) - 1;
                if closure(&adj, full, 1) == full {
                    sets.rebuild(&adj, d);
                    row[..1 << d].copy_from_slice(&sets.table[..1 << d]);
                }
            }
        }
        table
    })
}

/// The shape key of a `d`-node state (d ≤ [`SHAPE_D`]) with induced
/// adjacency rows `adj`: bit `pair_index(i, j, d)` set iff positions
/// `i < j` are adjacent, pairs in the row-major upper-triangle order of
/// `gx_graphlets::mask::pair_index`.
#[inline]
fn shape_key(adj: &[u16; 16], d: usize) -> usize {
    let (mut shape, mut bit) = (0usize, 0usize);
    for (i, &row) in adj.iter().enumerate().take(d) {
        let above = usize::from(row >> (i + 1));
        shape |= (above & ((1 << (d - i - 1)) - 1)) << bit;
        bit += d - i - 1;
    }
    shape
}

/// The adjacency rows of the `d`-node shape `shape` ([`shape_key`]'s
/// inverse).
fn shape_rows(shape: usize, d: usize) -> [u16; 16] {
    let (mut adj, mut bit) = ([0u16; 16], 0usize);
    for i in 0..d {
        for j in (i + 1)..d {
            if (shape >> bit) & 1 == 1 {
                adj[i] |= 1 << j;
                adj[j] |= 1 << i;
            }
            bit += 1;
        }
    }
    adj
}

/// The drop row of the connected `d`-node state (2 ≤ d ≤ 4)
/// with induced adjacency rows `adj` (bit `j` of `adj[i]`: positions `i`
/// and `j` adjacent): entry `x < 2^d` holds the drop positions whose kept
/// nodes a node adjacent to exactly the positions in `x` keeps
/// connected. One lookup into a table built once per process, which
/// lets a caller that holds candidate masks another way (the CSS window
/// neighbourhood profile) count a degree without fetching or merging
/// lists.
///
/// # Panics
///
/// If `d > 4`: larger states derive their drop sets per state.
#[inline]
pub fn drop_row(adj: &[u16; 16], d: usize) -> &'static [u8; 16] {
    debug_assert!((2..=SHAPE_D).contains(&d), "the drop table covers 2 <= d <= {SHAPE_D}");
    &drop_table()[d][shape_key(adj, d)]
}

/// The induced adjacency rows of the sorted `state` whose position `p`
/// has the strictly ascending list `runs[p]`: d(d − 1)/2 binary searches.
#[inline]
fn induced_rows(state: &[NodeId], runs: &[&[NodeId]]) -> [u16; 16] {
    let mut adj = [0u16; 16];
    for (i, run) in runs.iter().enumerate() {
        for (j, v) in state.iter().enumerate().skip(i + 1) {
            if run.binary_search(v).is_ok() {
                adj[i] |= 1 << j;
                adj[j] |= 1 << i;
            }
        }
    }
    adj
}

/// The positions in `within` reachable from `seed` over the adjacency
/// rows `adj` (bit `j` of `adj[i]` = positions `i` and `j` adjacent).
#[inline]
fn closure(adj: &[u16; 16], within: u16, seed: u16) -> u16 {
    let mut reached = seed;
    loop {
        let (mut next, mut bits) = (reached, reached);
        while bits != 0 {
            next |= adj[bits.trailing_zeros() as usize] & within;
            bits &= bits - 1;
        }
        if next == reached {
            return reached;
        }
        reached = next;
    }
}

/// For one connected state, the drop positions each candidate mask keeps
/// connected: `state \ {drop} ∪ {w}` is connected iff `w`'s mask touches
/// every component of `state \ {drop}`.
#[derive(Debug)]
struct DropSets {
    d: usize,
    /// The kept nodes' components, drop by drop: drop `p`'s are
    /// `comps[ends[p − 1]..ends[p]]` (each drop leaves at most d − 1).
    comps: [u16; 16 * 15],
    ends: [u8; 16],
    /// `table[mask]` = [`DropSets::scan`] of `mask`, for d ≤ [`TABLE_D`].
    table: [u8; 1 << TABLE_D],
}

impl Default for DropSets {
    fn default() -> Self {
        DropSets { d: 0, comps: [0; 16 * 15], ends: [0; 16], table: [0; 1 << TABLE_D] }
    }
}

impl DropSets {
    /// Rebuilds the sets for the state with induced adjacency rows `adj`.
    // gx-lint: no_alloc
    fn rebuild(&mut self, adj: &[u16; 16], d: usize) {
        let full = ((1u32 << d) - 1) as u16;
        debug_assert_eq!(closure(adj, full, 1), full, "state must induce a connected subgraph");
        self.d = d;
        let mut n = 0usize;
        for drop in 0..d {
            let kept = full & !(1 << drop);
            let mut left = kept;
            while left != 0 {
                let c = closure(adj, kept, left & left.wrapping_neg());
                self.comps[n] = c;
                n += 1;
                left &= !c;
            }
            self.ends[drop] = n as u8;
        }
        if d <= TABLE_D {
            for mask in 1..1usize << d {
                self.table[mask] = self.scan(mask as u16) as u8;
            }
        }
    }

    /// The drops `mask` keeps connected, testing it against every
    /// component.
    fn scan(&self, mask: u16) -> u16 {
        let (mut drops, mut start) = (0u16, 0usize);
        for drop in 0..self.d {
            let end = usize::from(self.ends[drop]);
            if self.comps[start..end].iter().all(|&c| mask & c != 0) {
                drops |= 1 << drop;
            }
            start = end;
        }
        drops
    }
}

/// One state's neighbors filed by drop position, reused across
/// enumerations: block `p`, the outside nodes that may replace position
/// `p`, is `buf[p × stride..][..len[p]]`, ascending, where `stride` is
/// the total length of the state's lists (no block can be longer).
#[derive(Debug, Default)]
struct Blocks {
    buf: Vec<NodeId>,
    stride: usize,
    len: [usize; 16],
}

impl Blocks {
    /// Block `drop` of the last [`Blocks::fill`].
    #[inline]
    fn block(&self, drop: usize) -> &[NodeId] {
        &self.buf[drop * self.stride..][..self.len[drop]]
    }

    /// Files the neighbors of the connected sorted `state` (d ≤ 16)
    /// whose position `p` has the strictly ascending list `runs[p]`, and
    /// returns their number, the state's `G(d)` degree. The drop rule
    /// comes from the shared table for d ≤ [`SHAPE_D`] and from `sets`,
    /// rebuilt, otherwise. The run count is fixed at compile time so the
    /// per-node loops unroll: exactly d for the paper's d = 3, 4, 5,
    /// otherwise padded with empty runs.
    // gx-lint: no_alloc
    fn fill(&mut self, state: &[NodeId], runs: &[&[NodeId]], sets: &mut DropSets) -> usize {
        let d = runs.len();
        debug_assert!((2..=16).contains(&d) && state.len() == d);
        let adj = induced_rows(state, runs);
        if d <= SHAPE_D {
            let row = drop_row(&adj, d);
            let drops = |mask: usize| u16::from(row[mask]);
            return if d <= 3 {
                self.merge::<3>(state, runs, drops)
            } else {
                self.merge::<4>(state, runs, drops)
            };
        }
        sets.rebuild(&adj, d);
        let sets = &*sets;
        match d {
            5 => self.merge::<5>(state, runs, |mask| u16::from(sets.table[mask])),
            6..=TABLE_D => self.merge::<TABLE_D>(state, runs, |mask| u16::from(sets.table[mask])),
            _ => self.merge::<16>(state, runs, |mask| sets.scan(mask as u16)),
        }
    }

    /// [`Blocks::fill`]'s merge over `N ≥ d` runs (the missing ones
    /// empty), with `drops(mask)` the drop set of a candidate mask.
    /// Branch-free per node: every run holding the smallest head
    /// contributes its bit and advances, and the node is written at the
    /// end of every block, whose length then grows by its drop bit (a
    /// state node's drop set is taken as empty).
    // gx-lint: no_alloc
    #[inline]
    fn merge<const N: usize>(
        &mut self,
        state: &[NodeId],
        runs: &[&[NodeId]],
        drops: impl Fn(usize) -> u16,
    ) -> usize {
        const DONE: u64 = u64::MAX;
        let runs: [&[NodeId]; N] = std::array::from_fn(|i| runs.get(i).copied().unwrap_or(&[]));
        let at = |run: &[NodeId], i: usize| run.get(i).map_or(DONE, |&v| u64::from(v));
        let mut cursor = [0usize; N];
        let mut head: [u64; N] = std::array::from_fn(|i| at(runs[i], 0));
        let stride = runs.iter().map(|r| r.len()).sum::<usize>();
        // Block `p` receives at most one store per merged node, and the
        // merge visits at most `stride` nodes.
        if self.buf.len() < N * stride {
            self.buf.resize(N * stride, 0);
        }
        self.stride = stride;
        let buf = &mut self.buf[..N * stride];
        let mut len = [0usize; N];
        let mut p = 0usize;
        loop {
            let node = head.iter().fold(DONE, |m, &h| m.min(h));
            if node == DONE {
                break;
            }
            let mut mask = 0usize;
            for i in 0..N {
                let hit = head[i] == node;
                mask |= usize::from(hit) << i;
                cursor[i] += usize::from(hit);
                head[i] = at(runs[i], cursor[i]);
            }
            while p < state.len() && u64::from(state[p]) < node {
                p += 1;
            }
            let outside = !(p < state.len() && u64::from(state[p]) == node);
            let filed = drops(mask) & 0u16.wrapping_sub(u16::from(outside));
            for i in 0..N {
                buf[i * stride + len[i]] = node as NodeId;
                len[i] += usize::from((filed >> i) & 1);
            }
        }
        self.len = [0; 16];
        self.len[..N].copy_from_slice(&len);
        len.iter().sum()
    }
}

/// Reusable buffers for [`gd_state_degree_with`], so repeated degree
/// queries (the CSS d ≥ 3 fallback issues several per sample) allocate
/// nothing after the first call.
#[derive(Debug, Default)]
pub struct GdDegreeScratch {
    state: Vec<NodeId>,
    /// The state nodes' lists, concatenated in state order.
    lists: Vec<NodeId>,
    blocks: Blocks,
    sets: DropSets,
}

/// Degree of an arbitrary state in `G(d)` by neighbor enumeration — the
/// expensive generic fallback (the paper's reason to prefer d ≤ 2, and the
/// reason it skips SRW3CSS). Exposed for the estimator's d ≥ 3 paths.
pub fn gd_state_degree<G: GraphAccess>(g: &G, nodes: &[NodeId]) -> usize {
    gd_state_degree_with(g, nodes, &mut GdDegreeScratch::default())
}

/// [`gd_state_degree`] with caller-provided scratch. Counts the `G(d)`
/// neighbors of `nodes` (a connected induced d-subgraph, d ≤ 16, any
/// order) without constructing a walk: one fetch per node and the walk's
/// own merge.
// gx-lint: no_alloc
pub fn gd_state_degree_with<G: GraphAccess>(
    g: &G,
    nodes: &[NodeId],
    s: &mut GdDegreeScratch,
) -> usize {
    let d = nodes.len();
    debug_assert!((2..=16).contains(&d), "G(d) enumeration needs 2 <= d <= 16");
    s.state.clear();
    s.state.extend_from_slice(nodes);
    s.state.sort_unstable();
    debug_assert!(s.state.windows(2).all(|w| w[0] < w[1]), "state has duplicate nodes");
    s.lists.clear();
    let mut ends = [0usize; 16];
    for (end, &v) in ends.iter_mut().zip(&s.state) {
        let lists = &mut s.lists;
        g.visit_neighbors(v, &mut |nbrs| lists.extend_from_slice(nbrs));
        *end = s.lists.len();
    }
    let mut runs: [&[NodeId]; 16] = [&[]; 16];
    let mut start = 0usize;
    for (run, &end) in runs.iter_mut().zip(&ends[..d]) {
        *run = &s.lists[start..end];
        start = end;
    }
    s.blocks.fill(&s.state, &runs[..d], &mut s.sets)
}

impl<G: GraphAccess> StateWalk for GdWalk<'_, G> {
    /// `(drop_position, incoming_node)`: the state with position `drop`
    /// replaced by the outside node `incoming`.
    type Choice = (u8, NodeId);

    fn d(&self) -> usize {
        self.d
    }

    fn state(&self) -> &[NodeId] {
        &self.state
    }

    fn state_degree(&mut self) -> usize {
        self.enumerate();
        self.degree
    }

    fn is_non_backtracking(&self) -> bool {
        self.nb
    }

    /// Uniform over the neighbors, or under non-backtracking uniform over
    /// those other than `prev` (a forced backtrack if there are none):
    /// the draw a materialized neighbor list would make, with the same
    /// RNG call.
    // gx-lint: no_alloc
    fn choose(&mut self, rng: &mut WalkRng) -> (u8, NodeId) {
        self.enumerate();
        debug_assert!(self.degree > 0, "connected G(d) state must have neighbors");
        let avoid = self.avoided();
        let allowed = self.degree - avoid.count.iter().sum::<usize>();
        self.nth_neighbor(rng.gen_range(0..allowed), &avoid)
    }

    // gx-lint: no_alloc
    fn commit(&mut self, (drop, incoming): (u8, NodeId)) {
        self.apply(drop as usize, incoming);
    }

    #[inline]
    fn prefetch_next(&self, c: &(u8, NodeId)) {
        self.g.prefetch_degree(c.1);
    }

    #[inline]
    fn prefetch_entering(&self, c: &(u8, NodeId)) {
        // `commit` fetches the incoming node's list, the one request of a
        // primed step; the kept nodes' lists are already held.
        self.g.prefetch_neighbors(c.1);
    }
}

/// The probe-based enumeration `GdWalk` and `gd_state_degree_with` ran
/// before the shared enumerator — per drop position, copy the kept nodes'
/// lists, sort, and test every candidate with [`subset_is_connected`] —
/// kept verbatim as the oracle the enumerator must reproduce exactly.
#[cfg(test)]
mod probe_oracle {
    use super::subset_is_connected;
    use crate::rng::WalkRng;
    use gx_graph::{GraphAccess, NodeId};
    use rand::Rng;

    /// The `(drop, incoming)` neighbor list of `state` (sorted).
    pub fn neighbors<G: GraphAccess>(g: &G, state: &[NodeId]) -> Vec<(u8, NodeId)> {
        let mut out = Vec::new();
        let mut candidates = Vec::new();
        let mut scratch = Vec::new();
        for drop in 0..state.len() {
            candidates.clear();
            for (pos, &b) in state.iter().enumerate() {
                if pos != drop {
                    g.extend_neighbors(b, &mut candidates);
                }
            }
            candidates.sort_unstable();
            candidates.dedup();
            for &w in &candidates {
                if state.binary_search(&w).is_ok() {
                    continue;
                }
                scratch.clear();
                for (pos, &b) in state.iter().enumerate() {
                    if pos != drop {
                        scratch.push(b);
                    }
                }
                scratch.push(w);
                if subset_is_connected(g, &scratch) {
                    out.push((drop as u8, w));
                }
            }
        }
        out
    }

    /// The neighbors `GdWalk::choose` draws from: all of them, or under
    /// non-backtracking those that are not `prev` (all of them again if
    /// going back is the only move).
    pub fn allowed(
        neighbors: &[(u8, NodeId)],
        state: &[NodeId],
        prev: Option<&[NodeId]>,
    ) -> Vec<(u8, NodeId)> {
        let Some(prev) = prev else {
            return neighbors.to_vec();
        };
        let non_prev: Vec<(u8, NodeId)> = neighbors
            .iter()
            .copied()
            .filter(|&(drop, w)| {
                let dropped = state[drop as usize];
                !(prev.binary_search(&w).is_ok() && prev.binary_search(&dropped).is_err())
            })
            .collect();
        if non_prev.is_empty() {
            neighbors.to_vec()
        } else {
            non_prev
        }
    }

    /// `GdWalk::choose` over an oracle neighbor list: uniform over
    /// [`allowed`].
    pub fn choose(
        neighbors: &[(u8, NodeId)],
        state: &[NodeId],
        prev: Option<&[NodeId]>,
        rng: &mut WalkRng,
    ) -> (u8, NodeId) {
        let allowed = allowed(neighbors, state, prev);
        allowed[rng.gen_range(0..allowed.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{rng_from_seed, WalkRng};
    use crate::start::random_start_state;
    use gx_graph::connectivity::largest_connected_component;
    use gx_graph::generators::{classic, erdos_renyi_gnm, holme_kim};
    use gx_graph::subrel::{enumerate_connected_subgraphs, subgraph_relationship_graph};
    use gx_graph::Graph;
    use proptest::prelude::*;

    #[test]
    fn subset_connectivity() {
        let g = classic::paper_figure1();
        assert!(subset_is_connected(&g, &[0, 1, 2]));
        assert!(subset_is_connected(&g, &[1, 3, 0]));
        assert!(!subset_is_connected(&g, &[1, 3]));
        assert!(subset_is_connected(&g, &[2]));
        assert!(!subset_is_connected::<gx_graph::Graph>(&g, &[]));
    }

    #[test]
    fn moves_along_g3_edges_and_degrees_match() {
        let g = classic::lollipop(4, 3);
        let rel = subgraph_relationship_graph(&g, 3);
        let mut rng = rng_from_seed(31);
        let mut w = GdWalk::new(&g, &[0, 1, 2], false);
        let mut prev_idx = rel.state_index(w.state()).unwrap();
        for _ in 0..400 {
            assert_eq!(
                w.state_degree(),
                rel.graph.degree(prev_idx as NodeId),
                "degree mismatch at {:?}",
                w.state()
            );
            w.step(&mut rng);
            let idx = rel.state_index(w.state()).unwrap();
            assert!(rel.graph.has_edge(prev_idx as NodeId, idx as NodeId));
            prev_idx = idx;
        }
    }

    #[test]
    fn stationary_distribution_on_g3() {
        let g = classic::paper_figure1();
        let rel = subgraph_relationship_graph(&g, 3);
        let mut rng = rng_from_seed(37);
        let mut w = GdWalk::new(&g, &[0, 1, 2], false);
        let steps = 200_000usize;
        let mut visits = vec![0u64; rel.states.len()];
        for _ in 0..steps {
            w.step(&mut rng);
            visits[rel.state_index(w.state()).unwrap()] += 1;
        }
        let two_r = rel.graph.degree_sum() as f64;
        for (i, &v) in visits.iter().enumerate() {
            let expected = rel.graph.degree(i as NodeId) as f64 / two_r;
            let got = v as f64 / steps as f64;
            assert!(
                (got - expected).abs() < 0.01,
                "state {:?}: got {got:.4} expected {expected:.4}",
                rel.states[i]
            );
        }
    }

    #[test]
    fn walk_on_g4_visits_all_states() {
        let g = classic::petersen();
        let rel = subgraph_relationship_graph(&g, 4);
        let mut rng = rng_from_seed(41);
        let mut w = GdWalk::new(&g, &[0, 1, 2, 3], false);
        // {0,1,2,3}: 0-1, 1-2, 2-3 path along the outer cycle — connected.
        let mut seen = std::collections::HashSet::new();
        for _ in 0..60_000 {
            w.step(&mut rng);
            seen.insert(rel.state_index(w.state()).unwrap());
        }
        assert_eq!(seen.len(), rel.states.len(), "ergodicity on G(4)");
    }

    #[test]
    fn gd_state_degree_matches_materialization() {
        let g = classic::grid(3, 3);
        let rel = subgraph_relationship_graph(&g, 3);
        let mut scratch = GdDegreeScratch::default();
        for (i, s) in rel.states.iter().enumerate() {
            assert_eq!(gd_state_degree(&g, s), rel.graph.degree(i as NodeId), "state {s:?}");
            // the scratch-reusing path counts exactly what the walk
            // materializes, regardless of input order
            let mut rev = s.to_vec();
            rev.reverse();
            assert_eq!(
                gd_state_degree_with(&g, &rev, &mut scratch),
                rel.graph.degree(i as NodeId),
                "scratch path, state {s:?}"
            );
        }
    }

    #[test]
    fn non_backtracking_avoids_previous_state() {
        let g = classic::complete(6);
        let mut rng = rng_from_seed(43);
        let mut w = GdWalk::new(&g, &[0, 1, 2], true);
        let mut prev: Option<Vec<NodeId>> = None;
        for _ in 0..500 {
            let before = w.state().to_vec();
            w.step(&mut rng);
            if let Some(p) = prev {
                assert_ne!(w.state(), p.as_slice(), "backtracked");
            }
            prev = Some(before);
        }
    }

    #[test]
    fn non_backtracking_preserves_stationarity_on_g3() {
        let g = classic::paper_figure1();
        let rel = subgraph_relationship_graph(&g, 3);
        let mut rng = rng_from_seed(47);
        let mut w = GdWalk::new(&g, &[0, 1, 2], true);
        let steps = 200_000usize;
        let mut visits = vec![0u64; rel.states.len()];
        for _ in 0..steps {
            w.step(&mut rng);
            visits[rel.state_index(w.state()).unwrap()] += 1;
        }
        let two_r = rel.graph.degree_sum() as f64;
        for (i, &v) in visits.iter().enumerate() {
            let expected = rel.graph.degree(i as NodeId) as f64 / two_r;
            let got = v as f64 / steps as f64;
            assert!((got - expected).abs() < 0.012, "state {i}: {got:.4} vs {expected:.4}");
        }
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn rejects_disconnected_start() {
        let g = classic::path(4);
        let _ = GdWalk::new(&g, &[0, 2, 3], false);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn rejects_duplicate_start() {
        let g = classic::path(4);
        let _ = GdWalk::new(&g, &[0, 1, 1], false);
    }

    /// The paper's cost unit (§6.2.1, adjacency fetches): the first
    /// enumeration after `new` or `resume` fetches the `d` state lists;
    /// once primed, a `G(d)` step plus the new state's degree costs
    /// exactly one list request — the entering node's — and no adjacency
    /// probes.
    #[test]
    fn step_costs_d_adjacency_fetches() {
        use gx_graph::ApiGraph;
        let g = holme_kim(200, 4, 0.5, &mut rng_from_seed(17));
        for (d, nb) in [(3, false), (3, true), (4, false), (5, true)] {
            let api = ApiGraph::new(&g);
            let mut rng = rng_from_seed(19);
            let start = random_start_state(&g, d, &mut rng);
            let mut walk = GdWalk::new(&api, &start, nb);
            let before = api.stats().total_requests;
            walk.state_degree();
            assert_eq!(api.stats().total_requests - before, d as u64, "new: d = {d}, nb = {nb}");
            for _ in 0..300 {
                let before = api.stats().total_requests;
                walk.step(&mut rng);
                assert!(walk.state_degree() > 0);
                assert_eq!(api.stats().total_requests - before, 1, "d = {d}, nb = {nb}");
            }
            let state = walk.state().to_vec();
            let prev = walk.prev_state().map(<[NodeId]>::to_vec);
            let mut resumed = GdWalk::resume(&api, &state, prev.as_deref(), nb);
            let before = api.stats().total_requests;
            assert_eq!(resumed.state_degree(), walk.state_degree());
            assert_eq!(api.stats().total_requests - before, d as u64, "resume: d = {d}, nb = {nb}");
        }
    }

    /// Degree queries take states of up to 16 nodes (the walk itself
    /// stops at 8).
    #[test]
    fn wide_state_degrees_match_probe_oracle() {
        let g = holme_kim(60, 4, 0.6, &mut rng_from_seed(23));
        let mut scratch = GdDegreeScratch::default();
        for d in [9, 12, 16] {
            let mut rng = rng_from_seed(d as u64);
            for _ in 0..5 {
                let s = random_start_state(&g, d, &mut rng);
                let want = probe_oracle::neighbors(&g, &s).len();
                assert_eq!(gd_state_degree_with(&g, &s, &mut scratch), want, "state {s:?}");
            }
        }
    }

    /// One of the oracle suite's graph families at two sizes: `small`
    /// ones have few enough connected d-states (d ≤ 6) to check them all.
    fn family(kind: usize, small: bool, seed: u64) -> Graph {
        let rng = &mut rng_from_seed(seed);
        match (kind, small) {
            (0, true) => holme_kim(12, 3, 0.6, rng),
            (0, false) => holme_kim(120, 4, 0.6, rng),
            (1, true) => classic::star(9),
            (1, false) => classic::star(40),
            (2, true) => classic::complete(8),
            (2, false) => classic::complete(13),
            (3, true) => classic::lollipop(5, 4),
            (3, false) => classic::lollipop(9, 30),
            (_, true) => erdos_renyi_gnm(12, 18, rng),
            (_, false) => largest_connected_component(&erdos_renyi_gnm(150, 330, rng)).0,
        }
    }

    /// Checks the shared enumerator against the probe oracle at `state`:
    /// the walk's `(drop, node)` list and the scratch-path degree.
    fn assert_matches_oracle(g: &Graph, state: &[NodeId], scratch: &mut GdDegreeScratch) {
        let want = probe_oracle::neighbors(g, state);
        let mut walk = GdWalk::new(g, state, false);
        walk.refresh_neighbors();
        assert_eq!(walk.neighbors, want, "neighbor sequence at {state:?}");
        let mut rev = state.to_vec();
        rev.reverse();
        assert_eq!(gd_state_degree_with(g, &rev, scratch), want.len(), "degree at {state:?}");
    }

    /// The shared drop table holds, for every connected shape of d ≤ 4
    /// nodes, exactly the drop sets `DropSets::rebuild` derives, and
    /// nothing for a disconnected one.
    #[test]
    fn drop_table_matches_rebuild() {
        let mut sets = DropSets::default();
        for d in 2..=SHAPE_D {
            let full = (1u16 << d) - 1;
            let mut connected = 0;
            for shape in 0..1usize << (d * (d - 1) / 2) {
                let adj = shape_rows(shape, d);
                assert_eq!(shape_key(&adj, d), shape, "d = {d}");
                let row = &drop_table()[d][shape];
                if closure(&adj, full, 1) != full {
                    assert_eq!(row, &[0; ROW], "disconnected shape {shape:#b}, d = {d}");
                    continue;
                }
                connected += 1;
                sets.rebuild(&adj, d);
                assert_eq!(row[..1 << d], sets.table[..1 << d], "shape {shape:#b}, d = {d}");
                assert!(row[1 << d..].iter().all(|&x| x == 0));
                assert!(std::ptr::eq(drop_row(&adj, d), row));
            }
            // Labelled connected graphs on 2, 3, 4 nodes.
            assert_eq!(connected, [1, 4, 38][d - 2], "d = {d}");
        }
    }

    /// Every rank of the index draw, plain and non-backtracking, is the
    /// probe oracle's neighbor at that rank among the allowed ones: the
    /// block-skip arithmetic checked exhaustively at each visited state,
    /// not only where random draws land. d = 5 takes the `rebuild` path.
    #[test]
    fn every_draw_rank_matches_probe_oracle() {
        let graphs = [
            classic::complete(7),
            classic::lollipop(6, 5),
            holme_kim(300, 5, 0.5, &mut rng_from_seed(29)),
        ];
        for (gi, g) in graphs.iter().enumerate() {
            for (d, nb) in [3, 4, 5].into_iter().flat_map(|d| [(d, false), (d, true)]) {
                let mut rng = rng_from_seed(100 + gi as u64 * 10 + d as u64);
                let start = random_start_state(g, d, &mut rng);
                let mut walk = GdWalk::new(g, &start, nb);
                for step in 0..40 {
                    let state = walk.state().to_vec();
                    let prev = walk.prev_state().filter(|_| nb).map(<[NodeId]>::to_vec);
                    let want = probe_oracle::neighbors(g, &state);
                    let allowed = probe_oracle::allowed(&want, &state, prev.as_deref());
                    walk.enumerate();
                    let avoid = walk.avoided();
                    let at = format!("graph {gi}, d = {d}, nb = {nb}, step {step}, {state:?}");
                    assert_eq!(walk.degree, want.len(), "{at}");
                    let skipped: usize = avoid.count.iter().sum();
                    assert_eq!(walk.degree - skipped, allowed.len(), "{at}");
                    for (r, &expect) in allowed.iter().enumerate() {
                        assert_eq!(walk.nth_neighbor(r, &avoid), expect, "rank {r}, {at}");
                    }
                    walk.step(&mut rng);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]
        #[test]
        fn enumerator_matches_probe_oracle(seed in 0u64..1_000_000) {
            let mut scratch = GdDegreeScratch::default();
            for (kind, d) in (0..5).flat_map(|kind| (2..=6).map(move |d| (kind, d))) {
                // Every connected d-state of a small graph.
                let g = family(kind, true, seed);
                enumerate_connected_subgraphs(&g, d, |s| {
                    assert_matches_oracle(&g, s, &mut scratch)
                });

                // Walk-visited states of a larger one, plain and
                // non-backtracking: same list, same degree, and `choose`
                // picks what the oracle's list picks for the same RNG.
                let g = family(kind, false, seed);
                for nb in [false, true] {
                    let mut rng = rng_from_seed(seed ^ 0x9e37);
                    let start = random_start_state(&g, d, &mut rng);
                    let mut walk = GdWalk::new(&g, &start, nb);
                    for _ in 0..60 {
                        let state = walk.state().to_vec();
                        assert_matches_oracle(&g, &state, &mut scratch);
                        let want = probe_oracle::neighbors(&g, &state);
                        prop_assert_eq!(walk.state_degree(), want.len());
                        let prev = walk.prev_state().filter(|_| nb).map(<[NodeId]>::to_vec);
                        let mut oracle_rng: WalkRng = rng.clone();
                        let expect =
                            probe_oracle::choose(&want, &state, prev.as_deref(), &mut oracle_rng);
                        let c = walk.choose(&mut rng);
                        prop_assert_eq!(c, expect);
                        prop_assert_eq!(&rng, &oracle_rng);
                        walk.commit(c);
                    }
                }
            }
        }
    }
}
