//! Random walk on `G(2)` — the edge space — with O(1) neighbor selection.
//!
//! A state is an edge `(u, v)`; its neighbors in `G(2)` are the edges
//! sharing exactly one endpoint, so `deg((u,v)) = d_u + d_v − 2`. The
//! paper's §5 selection procedure is used verbatim: pick endpoint `u` with
//! probability `d_u / (d_u + d_v)`, then a uniform neighbor `w` of `u`;
//! restart if `w = v`. Conditioned on acceptance every neighboring edge is
//! equally likely, and the expected number of restarts is
//! `(d_u + d_v) / (d_u + d_v − 2) ≤ 2` on graphs with ≥ 3 nodes — hence
//! O(1) per step, an order of magnitude cheaper than populating `G(3)`
//! neighborhoods (the paper's core argument for small d).

use crate::rng::WalkRng;
use crate::traits::StateWalk;
use gx_graph::{GraphAccess, NodeId};
use rand::Rng;

/// An uncommitted [`G2Walk`] step: the next edge, the endpoint degrees
/// known so far, and which endpoint's degree `commit` still has to
/// fetch. Keeping that one data-dependent degree load out of `choose`
/// is what gives a lock-step group a window to prefetch it.
#[derive(Debug, Clone, Copy)]
pub struct G2Choice {
    /// Next edge, sorted ascending.
    edge: [NodeId; 2],
    /// Endpoint degrees, parallel to `edge`; the `fetch` entry is a
    /// placeholder until `commit` fills it.
    deg: [u32; 2],
    /// Index (0/1) of the endpoint whose degree `commit` must fetch, or
    /// 2 when both are already known (forced backtrack reuses the
    /// previous edge's cached degrees).
    fetch: u8,
}

/// Random walk on the edges of `G`.
pub struct G2Walk<'g, G: GraphAccess> {
    g: &'g G,
    /// Current edge, sorted ascending.
    state: [NodeId; 2],
    /// Endpoint degrees, parallel to `state` — cached so the per-step
    /// endpoint pick, the state degree and the next-state bookkeeping
    /// never re-read the graph for a degree the walk already fetched.
    deg: [u32; 2],
    prev: Option<([NodeId; 2], [u32; 2])>,
    nb: bool,
}

impl<'g, G: GraphAccess> G2Walk<'g, G> {
    /// Starts at edge `(u, v)` (must exist).
    pub fn new(g: &'g G, u: NodeId, v: NodeId, non_backtracking: bool) -> Self {
        assert!(g.has_edge(u, v), "G2Walk start ({u},{v}) is not an edge");
        let state = if u < v { [u, v] } else { [v, u] };
        let deg = [g.degree(state[0]) as u32, g.degree(state[1]) as u32];
        Self { g, state, deg, prev: None, nb: non_backtracking }
    }

    /// Rebuilds a walk at a checkpointed position: current edge plus the
    /// previous edge the non-backtracking rule remembers. Endpoint-degree
    /// caches are re-fetched from `g`, so resuming against the same graph
    /// is bit-identical to never having stopped.
    pub fn resume(
        g: &'g G,
        current: (NodeId, NodeId),
        prev: Option<(NodeId, NodeId)>,
        non_backtracking: bool,
    ) -> Self {
        let mut walk = Self::new(g, current.0, current.1, non_backtracking);
        walk.prev = prev.map(|(u, v)| {
            let e = if u < v { [u, v] } else { [v, u] };
            ([e[0], e[1]], [g.degree(e[0]) as u32, g.degree(e[1]) as u32])
        });
        walk
    }

    /// Current edge (sorted).
    pub fn current(&self) -> (NodeId, NodeId) {
        (self.state[0], self.state[1])
    }

    /// The previous edge remembered for the non-backtracking rule — the
    /// only walk state besides [`G2Walk::current`] a checkpoint must
    /// carry (its cached degrees are re-derivable from the graph).
    pub fn prev_edge(&self) -> Option<(NodeId, NodeId)> {
        self.prev.map(|(e, _)| (e[0], e[1]))
    }

    /// Degree of the current edge-state in `G(2)`: `d_u + d_v − 2`.
    #[inline]
    pub fn edge_degree(&self) -> usize {
        (self.deg[0] + self.deg[1]) as usize - 2
    }

    /// Samples one uniformly random neighboring edge of the current edge
    /// as an uncommitted [`G2Choice`]: the kept endpoint's degree is
    /// already cached, the new endpoint's is left for `commit` (so a
    /// lock-step group can prefetch its offset line first).
    // gx-lint: no_alloc
    #[inline]
    fn sample_neighbor_choice(&self, rng: &mut WalkRng) -> G2Choice {
        let [u, v] = self.state;
        let [du, dv] = [self.deg[0] as usize, self.deg[1] as usize];
        debug_assert!(du + dv > 2, "isolated edge cannot step");
        loop {
            // endpoint-weighted choice, then uniform neighbor, reject w = other
            let pick_u = rng.gen_range(0..du + dv) < du;
            let (a, b, da) = if pick_u { (u, v, du) } else { (v, u, dv) };
            let w = self.g.neighbor_at(a, rng.gen_range(0..da));
            if w != b {
                let da = da as u32;
                return if a < w {
                    G2Choice { edge: [a, w], deg: [da, 0], fetch: 1 }
                } else {
                    G2Choice { edge: [w, a], deg: [0, da], fetch: 0 }
                };
            }
        }
    }
}

impl<G: GraphAccess> StateWalk for G2Walk<'_, G> {
    type Choice = G2Choice;

    fn d(&self) -> usize {
        2
    }

    #[inline]
    fn state(&self) -> &[NodeId] {
        &self.state
    }

    #[inline]
    fn state_degree(&mut self) -> usize {
        self.edge_degree()
    }

    fn is_non_backtracking(&self) -> bool {
        self.nb
    }

    // gx-lint: no_alloc
    #[inline]
    fn choose(&mut self, rng: &mut WalkRng) -> G2Choice {
        let deg = self.edge_degree();
        if self.nb {
            match self.prev {
                Some((p, _)) if deg > 1 => loop {
                    let cand = self.sample_neighbor_choice(rng);
                    if cand.edge != p {
                        break cand;
                    }
                },
                // pendant edge-state: forced backtrack, both degrees
                // still cached from when the previous edge was current.
                Some((p, pd)) => G2Choice { edge: p, deg: pd, fetch: 2 },
                None => self.sample_neighbor_choice(rng),
            }
        } else {
            self.sample_neighbor_choice(rng)
        }
    }

    // gx-lint: no_alloc
    #[inline]
    fn commit(&mut self, c: G2Choice) {
        if self.nb {
            // `prev` is only ever read on the non-backtracking path; the
            // plain walk skips the bookkeeping store entirely.
            self.prev = Some((self.state, self.deg));
        }
        let mut deg = c.deg;
        if c.fetch < 2 {
            let i = c.fetch as usize;
            deg[i] = self.g.degree(c.edge[i]) as u32;
        }
        self.state = c.edge;
        self.deg = deg;
    }

    #[inline]
    fn prefetch_next(&self, c: &G2Choice) {
        if c.fetch < 2 {
            self.g.prefetch_degree(c.edge[c.fetch as usize]);
        }
    }

    #[inline]
    fn prefetch_entering(&self, c: &G2Choice) {
        // The window push probes with the entering node's own list; the
        // kept endpoint is already resident in the window's union.
        if c.fetch < 2 {
            self.g.prefetch_neighbors(c.edge[c.fetch as usize]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;
    use gx_graph::generators::classic;
    use gx_graph::subrel::subgraph_relationship_graph;

    #[test]
    fn moves_along_g2_edges() {
        let g = classic::paper_figure1();
        let rel = subgraph_relationship_graph(&g, 2);
        let mut rng = rng_from_seed(5);
        let mut w = G2Walk::new(&g, 0, 1, false);
        let mut prev = rel.state_index(w.state()).unwrap();
        for _ in 0..500 {
            w.step(&mut rng);
            let cur = rel.state_index(w.state()).unwrap();
            assert!(
                rel.graph.has_edge(prev as NodeId, cur as NodeId),
                "transition not a G(2) edge"
            );
            prev = cur;
        }
    }

    #[test]
    fn state_degree_matches_materialized_g2() {
        let g = classic::lollipop(4, 3);
        let rel = subgraph_relationship_graph(&g, 2);
        let mut rng = rng_from_seed(6);
        let mut w = G2Walk::new(&g, 0, 1, false);
        for _ in 0..300 {
            w.step(&mut rng);
            let idx = rel.state_index(w.state()).unwrap();
            assert_eq!(w.state_degree(), rel.graph.degree(idx as NodeId));
        }
    }

    #[test]
    fn stationary_distribution_proportional_to_state_degree() {
        let g = classic::paper_figure1();
        let rel = subgraph_relationship_graph(&g, 2);
        let mut rng = rng_from_seed(9);
        let mut w = G2Walk::new(&g, 0, 1, false);
        let steps = 300_000usize;
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
    fn neighbor_sampling_is_uniform() {
        // On Figure 1's graph, edge (0,2) has degree 3+3-2 = 4; each of its
        // 4 neighboring edges must come up ~1/4 of the time.
        let g = classic::paper_figure1();
        let mut rng = rng_from_seed(13);
        let mut w = G2Walk::new(&g, 0, 2, false);
        let mut counts = std::collections::HashMap::new();
        let n = 80_000;
        for _ in 0..n {
            // `choose` draws without committing, so the current edge —
            // and therefore the sampled distribution — never moves.
            let nb = w.choose(&mut rng);
            *counts.entry(nb.edge).or_insert(0u64) += 1;
        }
        assert_eq!(counts.len(), 4);
        for (&edge, &c) in &counts {
            let frac = c as f64 / n as f64;
            assert!((frac - 0.25).abs() < 0.01, "edge {edge:?}: {frac:.3}");
        }
    }

    #[test]
    fn non_backtracking_avoids_previous_edge() {
        let g = classic::complete(5);
        let mut rng = rng_from_seed(17);
        let mut w = G2Walk::new(&g, 0, 1, true);
        let mut prev = w.current();
        w.step(&mut rng);
        for _ in 0..2000 {
            let before = w.current();
            w.step(&mut rng);
            assert_ne!(w.current(), prev, "returned to previous edge-state");
            prev = before;
        }
    }

    #[test]
    fn non_backtracking_preserves_stationarity() {
        let g = classic::paper_figure1();
        let rel = subgraph_relationship_graph(&g, 2);
        let mut rng = rng_from_seed(21);
        let mut w = G2Walk::new(&g, 0, 1, true);
        let steps = 300_000usize;
        let mut visits = vec![0u64; rel.states.len()];
        for _ in 0..steps {
            w.step(&mut rng);
            visits[rel.state_index(w.state()).unwrap()] += 1;
        }
        let two_r = rel.graph.degree_sum() as f64;
        for (i, &v) in visits.iter().enumerate() {
            let expected = rel.graph.degree(i as NodeId) as f64 / two_r;
            let got = v as f64 / steps as f64;
            assert!((got - expected).abs() < 0.01, "state {i}");
        }
    }

    #[test]
    fn forced_backtrack_on_pendant_edge_state() {
        // P3: edges (0,1),(1,2); each has degree 1 in G(2) — the NB walk
        // must still be able to move (forced reversal).
        let g = classic::path(3);
        let mut rng = rng_from_seed(2);
        let mut w = G2Walk::new(&g, 0, 1, true);
        w.step(&mut rng);
        assert_eq!(w.current(), (1, 2));
        w.step(&mut rng);
        assert_eq!(w.current(), (0, 1));
    }

    #[test]
    #[should_panic(expected = "not an edge")]
    fn rejects_non_edge_start() {
        let g = classic::path(3);
        let _ = G2Walk::new(&g, 0, 2, false);
    }
}
