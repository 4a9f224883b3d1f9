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
//! One shared enumerator (`for_each_gd_neighbor`) serves both the walk and
//! [`gd_state_degree_with`] (the CSS d ≥ 3 degree fallback). It fetches
//! each state node's adjacency list exactly once, through
//! [`GraphAccess::visit_neighbors`], as `(node << 16) | (1 << position)`
//! keys, and sorts the Σ deg keys once. ORing the keys of equal nodes
//! gives every candidate the bitmask of state positions it is adjacent
//! to, and the keys of the state's own nodes give the state's induced
//! adjacency rows. Whether `kept ∪ {w}` is connected is then a bitmask
//! test — `w` must touch every component of the kept nodes — so a step
//! costs `d` list fetches plus one sort and no adjacency probes.

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
    /// Neighbor states of `state`, materialized as (drop_position,
    /// incoming_node) pairs; refreshed lazily once per state.
    neighbors: Vec<(u8, NodeId)>,
    neighbors_valid: bool,
    /// Enumeration keys, reused across steps.
    keys: Vec<u64>,
    /// Scratch: indices of neighbors that differ from `prev` (NB steps).
    non_prev: Vec<usize>,
}

impl<'g, G: GraphAccess> GdWalk<'g, G> {
    /// Starts at the given connected induced d-subgraph (sorted or not;
    /// connectivity is asserted).
    pub fn new(g: &'g G, start: &[NodeId], non_backtracking: bool) -> Self {
        let d = start.len();
        assert!(d >= 2, "GdWalk needs d >= 2 (use SrwWalk for d = 1)");
        assert!(d <= 8, "GdWalk supports d <= 8");
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
            neighbors: Vec::new(),
            neighbors_valid: false,
            keys: Vec::new(),
            non_prev: Vec::new(),
        }
    }

    /// Rebuilds a walk at a checkpointed position: current state plus the
    /// previous state the non-backtracking rule remembers. The neighbor
    /// materialization is rebuilt lazily on the next step (it is a pure
    /// function of the state), so resuming against the same graph is
    /// bit-identical to never having stopped.
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

    /// Enumerates the neighbor set of the current state (idempotent per
    /// state).
    fn refresh_neighbors(&mut self) {
        if self.neighbors_valid {
            return;
        }
        self.neighbors.clear();
        let neighbors = &mut self.neighbors;
        for_each_gd_neighbor(self.g, &self.state, &mut self.keys, |drop, w| {
            neighbors.push((drop, w));
        });
        self.neighbors_valid = true;
    }

    /// The materialized neighbor list (for tests and for the CSS helper
    /// that needs degrees of arbitrary states).
    pub fn neighbor_count(&mut self) -> usize {
        self.refresh_neighbors();
        self.neighbors.len()
    }

    fn apply(&mut self, drop: usize, incoming: NodeId) {
        self.prev.clear();
        self.prev.extend_from_slice(&self.state);
        self.has_prev = true;
        self.state.remove(drop);
        let pos = self.state.binary_search(&incoming).unwrap_err();
        self.state.insert(pos, incoming);
        self.neighbors_valid = false;
    }
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

/// Calls `emit(drop, w)` once per `G(d)` neighbor of `state` — the state
/// with position `drop` replaced by the outside node `w` — in the order
/// drop ascending, then `w` ascending.
///
/// `state` must be sorted, distinct, connected and hold 2 ≤ d ≤ 16 nodes.
/// Each state node's list is fetched once; `keys` is reused scratch.
// gx-lint: no_alloc
fn for_each_gd_neighbor<G: GraphAccess>(
    g: &G,
    state: &[NodeId],
    keys: &mut Vec<u64>,
    mut emit: impl FnMut(u8, NodeId),
) {
    let d = state.len();
    debug_assert!((2..=16).contains(&d), "G(d) enumeration needs 2 <= d <= 16");
    keys.clear();
    for (pos, &b) in state.iter().enumerate() {
        let bit = 1u64 << pos;
        g.visit_neighbors(b, &mut |nbrs| {
            keys.extend(nbrs.iter().map(|&w| (u64::from(w) << 16) | bit));
        });
    }
    keys.sort_unstable();

    // One pass over the sorted keys: OR each node's keys into one, keep
    // the outside nodes (compacted in place) and read the state nodes'
    // masks as the state's induced adjacency rows.
    let mut adj = [0u16; 16];
    let (mut read, mut len, mut p) = (0usize, 0usize, 0usize);
    while read < keys.len() {
        let node = keys[read] >> 16;
        let mut mask = keys[read] as u16;
        read += 1;
        while read < keys.len() && keys[read] >> 16 == node {
            mask |= keys[read] as u16;
            read += 1;
        }
        while p < d && u64::from(state[p]) < node {
            p += 1;
        }
        if p < d && u64::from(state[p]) == node {
            adj[p] = mask;
        } else {
            keys[len] = (node << 16) | u64::from(mask);
            len += 1;
        }
    }
    keys.truncate(len);

    let full = ((1u32 << d) - 1) as u16;
    debug_assert_eq!(closure(&adj, full, 1), full, "state must induce a connected subgraph");
    for drop in 0..d {
        // kept ∪ {w} is connected iff w touches every component of kept.
        let kept = full & !(1 << drop);
        let mut comps = [0u16; 16];
        let (mut n_comps, mut left) = (0usize, kept);
        while left != 0 {
            let c = closure(&adj, kept, left & left.wrapping_neg());
            comps[n_comps] = c;
            n_comps += 1;
            left &= !c;
        }
        for &key in keys.iter() {
            let mask = key as u16;
            if comps[..n_comps].iter().all(|&c| mask & c != 0) {
                emit(drop as u8, (key >> 16) as NodeId);
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

/// Reusable buffers for [`gd_state_degree_with`], so repeated degree
/// queries (the CSS d ≥ 3 fallback issues several per sample) allocate
/// nothing after the first call.
#[derive(Debug, Default)]
pub struct GdDegreeScratch {
    state: Vec<NodeId>,
    keys: Vec<u64>,
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
/// walk: the same enumeration as `GdWalk::refresh_neighbors`, reduced to
/// a counter.
pub fn gd_state_degree_with<G: GraphAccess>(
    g: &G,
    nodes: &[NodeId],
    s: &mut GdDegreeScratch,
) -> usize {
    s.state.clear();
    s.state.extend_from_slice(nodes);
    s.state.sort_unstable();
    debug_assert!(s.state.windows(2).all(|w| w[0] < w[1]), "state has duplicate nodes");
    let mut count = 0usize;
    for_each_gd_neighbor(g, &s.state, &mut s.keys, |_, _| count += 1);
    count
}

impl<G: GraphAccess> StateWalk for GdWalk<'_, G> {
    /// `(drop_position, incoming_node)` — one entry of the materialized
    /// neighbor list.
    type Choice = (u8, NodeId);

    fn d(&self) -> usize {
        self.d
    }

    fn state(&self) -> &[NodeId] {
        &self.state
    }

    fn state_degree(&mut self) -> usize {
        self.refresh_neighbors();
        self.neighbors.len()
    }

    fn is_non_backtracking(&self) -> bool {
        self.nb
    }

    // gx-lint: no_alloc
    fn choose(&mut self, rng: &mut WalkRng) -> (u8, NodeId) {
        self.refresh_neighbors();
        debug_assert!(!self.neighbors.is_empty(), "connected G(d) state must have neighbors");
        if self.nb && self.has_prev {
            // uniform over neighbors != prev; forced backtrack if none.
            // `non_prev` is a reused scratch buffer — no per-step clone of
            // the previous state, no per-step index Vec.
            self.non_prev.clear();
            for i in 0..self.neighbors.len() {
                let (drop, w) = self.neighbors[i];
                // next state equals prev iff prev = state \ {dropped} ∪ {w}
                let dropped = self.state[drop as usize];
                let matches_prev = self.prev.binary_search(&w).is_ok()
                    && self.prev.binary_search(&dropped).is_err()
                    && self.prev.len() == self.state.len();
                if !matches_prev {
                    self.non_prev.push(i);
                }
            }
            if self.non_prev.is_empty() {
                self.neighbors[rng.gen_range(0..self.neighbors.len())]
            } else {
                self.neighbors[self.non_prev[rng.gen_range(0..self.non_prev.len())]]
            }
        } else {
            self.neighbors[rng.gen_range(0..self.neighbors.len())]
        }
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
        // The d ≥ 3 re-enumeration after commit reads every kept node's
        // list too, but the incoming node's is the only one not already
        // resident from building the last neighbor set.
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

    /// The paper's cost unit (§6.2.1, adjacency fetches): once primed, a
    /// `G(d)` step plus the new state's degree costs exactly `d` list
    /// requests — one per state node — and no adjacency probes.
    #[test]
    fn step_costs_d_adjacency_fetches() {
        use gx_graph::ApiGraph;
        let g = holme_kim(200, 4, 0.5, &mut rng_from_seed(17));
        for (d, nb) in [(3, false), (3, true), (4, false), (5, true)] {
            let api = ApiGraph::new(&g);
            let mut rng = rng_from_seed(19);
            let start = random_start_state(&g, d, &mut rng);
            let mut walk = GdWalk::new(&api, &start, nb);
            walk.state_degree();
            for _ in 0..300 {
                let before = api.stats().total_requests;
                walk.step(&mut rng);
                assert!(walk.state_degree() > 0);
                assert_eq!(api.stats().total_requests - before, d as u64, "d = {d}, nb = {nb}");
            }
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
