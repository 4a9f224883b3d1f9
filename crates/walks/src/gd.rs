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
//! Every backend stores its lists strictly ascending, so the enumeration
//! merges the `d` runs instead of sorting them, ORing the position bits
//! of equal nodes. Each outside candidate gets the bitmask of state
//! positions it is adjacent to, and the state's own nodes' masks are its
//! induced adjacency rows. `kept ∪ {w}` is connected iff `w` touches
//! every component of the kept nodes, so one small per-state table maps
//! a candidate mask to the drop positions it keeps connected, and a
//! candidate's validity is one lookup.
//!
//! Degrees never need the neighbor list: candidates are counted per
//! position mask (at most 2^d − 1 masks) and the degree is
//! `Σ count[mask] × |drops(mask)|`. The walk draws its `r`-th neighbor
//! straight from the candidates, in the same `(drop, w)` order and with
//! the same RNG calls as drawing from the materialized list.
//! [`gd_state_degree_with`] (the CSS d ≥ 3 fallback) is the same merge
//! and count over freshly fetched lists.

use crate::rng::WalkRng;
use crate::traits::StateWalk;
use gx_graph::{GraphAccess, NodeId};
use rand::Rng;

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
    /// valid when `enumerated`: its outside candidates, the drop sets of
    /// their masks, and how many neighbors each drop position has (the
    /// tables boxed, so a walk stays small to move).
    keys: Box<Keys>,
    sets: Box<DropSets>,
    blocks: [usize; TABLE_D],
    degree: usize,
    enumerated: bool,
    /// The materialized `(drop, w)` list the oracle tests compare.
    #[cfg(test)]
    neighbors: Vec<(u8, NodeId)>,
}

impl<'g, G: GraphAccess> GdWalk<'g, G> {
    /// Starts at the given connected induced d-subgraph (sorted or not;
    /// connectivity is asserted).
    pub fn new(g: &'g G, start: &[NodeId], non_backtracking: bool) -> Self {
        let d = start.len();
        assert!(d >= 2, "GdWalk needs d >= 2 (use SrwWalk for d = 1)");
        assert!(d <= TABLE_D, "GdWalk supports d <= {TABLE_D}");
        let mut state = start.to_vec();
        state.sort_unstable();
        assert!(state.windows(2).all(|w| w[0] < w[1]), "start state has duplicate nodes");
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
            keys: Box::default(),
            sets: Box::default(),
            blocks: [0; TABLE_D],
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
    pub fn resume(
        g: &'g G,
        current: &[NodeId],
        prev: Option<&[NodeId]>,
        non_backtracking: bool,
    ) -> Self {
        let mut walk = Self::new(g, current, non_backtracking);
        if let Some(p) = prev {
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

    /// Enumerates the current state (idempotent per state): merges the
    /// state's lists into candidates, tabulates the drop sets and counts
    /// each drop position's neighbors. The first call after `new` or
    /// `resume` fetches all `d` lists; later states reuse the lists
    /// `apply` keeps current.
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
        let d = self.d;
        self.sets.rebuild(&self.keys.merge(&self.state, &runs[..d]), d);
        self.blocks = [0; TABLE_D];
        for (&count, &drops) in self.keys.count.iter().zip(&self.sets.table).take(1 << d) {
            let mut drops = drops;
            while drops != 0 {
                self.blocks[drops.trailing_zeros() as usize] += count as usize;
                drops &= drops - 1;
            }
        }
        self.degree = self.blocks.iter().sum();
        self.enumerated = true;
    }

    /// The `r`-th neighbor, in the order drop ascending then `w`
    /// ascending, among those `avoid` does not skip. `r` is below their
    /// number, so the scan always ends on its target (were it not, it
    /// would return the block's last neighbor, still a valid move).
    // gx-lint: no_alloc
    fn nth_neighbor(&self, mut r: usize, avoid: &Avoid) -> (u8, NodeId) {
        let mut drop = 0usize;
        while drop + 1 < self.d && r >= self.blocks[drop] - avoid.count[drop] {
            r -= self.blocks[drop] - avoid.count[drop];
            drop += 1;
        }
        let skip = if (avoid.drops >> drop) & 1 == 1 { &avoid.nodes[..avoid.len] } else { &[] };
        let mut pick = 0;
        for &key in &self.keys.keys {
            let w = (key >> 16) as NodeId;
            if (self.sets.table[usize::from(key as u16)] >> drop) & 1 == 1 && !skip.contains(&w) {
                pick = w;
                if r == 0 {
                    break;
                }
                r -= 1;
            }
        }
        (drop as u8, pick)
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
                if let Ok(i) = self.keys.keys.binary_search_by_key(&v, |&key| (key >> 16) as NodeId)
                {
                    let mut drops =
                        self.sets.table[usize::from(self.keys.keys[i] as u16)] & avoid.drops;
                    while drops != 0 {
                        avoid.count[drops.trailing_zeros() as usize] += 1;
                        drops &= drops - 1;
                    }
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
/// `nodes`, `count[drop]` of them per drop position.
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

/// Largest state whose candidate masks index a table of drop sets and
/// mask counts (2^8 entries each): every walk state. Wider degree
/// queries (d ≤ 16) test each candidate mask against the kept components
/// instead.
const TABLE_D: usize = 8;

/// The outside candidates of one enumeration as `(node << 16) | mask`
/// keys, ascending by node, where `mask` holds the state positions
/// adjacent to `node`; for d ≤ [`TABLE_D`], also how many candidates
/// carry each mask. Reused across enumerations.
#[derive(Debug)]
struct Keys {
    keys: Vec<u64>,
    count: [u32; 1 << TABLE_D],
}

impl Default for Keys {
    fn default() -> Self {
        Keys { keys: Vec::new(), count: [0; 1 << TABLE_D] }
    }
}

impl Keys {
    /// Merges the state's adjacency runs (`runs[p]` is the strictly
    /// ascending list of state position `p`, `state` is sorted) into the
    /// candidate keys and mask counts, and returns the state's induced
    /// adjacency rows: the masks of its own nodes. The run count is fixed
    /// at compile time so the per-node loop unrolls: exactly d for the
    /// paper's d = 3, 4, 5, otherwise padded with empty runs.
    // gx-lint: no_alloc
    fn merge(&mut self, state: &[NodeId], runs: &[&[NodeId]]) -> [u16; 16] {
        match runs.len() {
            ..=3 => self.merge_n::<3>(state, runs),
            4 => self.merge_n::<4>(state, runs),
            5 => self.merge_n::<5>(state, runs),
            6..=8 => self.merge_n::<8>(state, runs),
            _ => self.merge_n::<16>(state, runs),
        }
    }

    /// [`Keys::merge`] over `N ≥ d` runs (the missing ones empty).
    /// Branch-free per node: every run holding the smallest head
    /// contributes its bit and advances.
    // gx-lint: no_alloc
    #[inline]
    fn merge_n<const N: usize>(&mut self, state: &[NodeId], runs: &[&[NodeId]]) -> [u16; 16] {
        const DONE: u64 = u64::MAX;
        debug_assert!((2..=N).contains(&runs.len()) && state.len() == runs.len());
        let runs: [&[NodeId]; N] = std::array::from_fn(|i| runs.get(i).copied().unwrap_or(&[]));
        let at = |run: &[NodeId], i: usize| run.get(i).map_or(DONE, |&v| u64::from(v));
        let mut cursor = [0usize; N];
        let mut head: [u64; N] = std::array::from_fn(|i| at(runs[i], 0));
        self.keys.clear();
        self.keys.resize(runs.iter().map(|r| r.len()).sum(), 0);
        if N <= TABLE_D {
            self.count[..1 << N].fill(0);
        }
        let (mut adj, mut out, mut p) = ([0u16; 16], 0usize, 0usize);
        loop {
            let node = head.iter().fold(DONE, |m, &h| m.min(h));
            if node == DONE {
                self.keys.truncate(out);
                return adj;
            }
            let mut mask = 0u16;
            for i in 0..N {
                let hit = head[i] == node;
                mask |= u16::from(hit) << i;
                cursor[i] += usize::from(hit);
                head[i] = at(runs[i], cursor[i]);
            }
            while p < state.len() && u64::from(state[p]) < node {
                p += 1;
            }
            if p < state.len() && u64::from(state[p]) == node {
                adj[p] = mask;
            } else {
                self.keys[out] = (node << 16) | u64::from(mask);
                out += 1;
                if N <= TABLE_D {
                    self.count[usize::from(mask)] += 1;
                }
            }
        }
    }
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

/// Reusable buffers for [`gd_state_degree_with`], so repeated degree
/// queries (the CSS d ≥ 3 fallback issues several per sample) allocate
/// nothing after the first call.
#[derive(Debug, Default)]
pub struct GdDegreeScratch {
    state: Vec<NodeId>,
    /// The state nodes' lists, concatenated in state order.
    lists: Vec<NodeId>,
    keys: Keys,
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
/// order) without materializing the neighbor list or constructing a
/// walk: one fetch per node and one merge, then candidates counted per
/// position mask.
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
    s.sets.rebuild(&s.keys.merge(&s.state, &runs[..d]), d);
    if d <= TABLE_D {
        let per_mask = s.keys.count.iter().zip(&s.sets.table).take(1 << d);
        per_mask.map(|(&c, &drops)| c as usize * drops.count_ones() as usize).sum()
    } else {
        s.keys.keys.iter().map(|&key| s.sets.scan(key as u16).count_ones() as usize).sum()
    }
}

/// The factor a `G(d)` degree counts each outside candidate by, per
/// candidate mask: for the connected state with induced adjacency rows
/// `adj` (bit `j` of `adj[i]`: positions `i` and `j` adjacent, d ≤ 8),
/// `nd[x]` for `x < 2^d` is the number of drop positions whose kept
/// nodes a node adjacent to exactly the positions in `x` keeps connected.
/// A degree is `Σ nd[mask]` over the candidates, which lets a caller
/// that holds the candidate masks another way (the CSS window
/// neighbourhood profile) count one without fetching or merging lists.
// gx-lint: no_alloc
pub fn drop_counts(adj: &[u16; 16], d: usize, nd: &mut [u8]) {
    debug_assert!(d <= TABLE_D && nd.len() >= 1 << d, "drop counts need d <= {TABLE_D}");
    let mut sets = DropSets::default();
    sets.rebuild(adj, d);
    for (n, &drops) in nd.iter_mut().zip(&sets.table).take(1 << d) {
        *n = drops.count_ones() as u8;
    }
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

    /// `GdWalk::choose` over an oracle neighbor list: uniform, or uniform
    /// over the neighbors that are not `prev` under non-backtracking.
    pub fn choose(
        neighbors: &[(u8, NodeId)],
        state: &[NodeId],
        prev: Option<&[NodeId]>,
        rng: &mut WalkRng,
    ) -> (u8, NodeId) {
        let Some(prev) = prev else {
            return neighbors[rng.gen_range(0..neighbors.len())];
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
            neighbors[rng.gen_range(0..neighbors.len())]
        } else {
            non_prev[rng.gen_range(0..non_prev.len())]
        }
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
