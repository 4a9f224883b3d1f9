//! Simple (and non-backtracking) random walk on `G` itself (d = 1).

use crate::rng::WalkRng;
use crate::traits::StateWalk;
use gx_graph::{GraphAccess, NodeId};
use rand::Rng;

/// Random walk on the nodes of `G`. With `non_backtracking`, the next node
/// is uniform over the neighbors excluding the previous node, unless the
/// current node is a leaf (degree 1), in which case the walk must return
/// (paper §4.2's transition matrix).
pub struct SrwWalk<'g, G: GraphAccess> {
    g: &'g G,
    state: [NodeId; 1],
    /// Cached degree of the current node (fetched once per transition,
    /// reused by both the next step's neighbor pick and `state_degree`).
    deg: usize,
    prev: Option<NodeId>,
    nb: bool,
}

impl<'g, G: GraphAccess> SrwWalk<'g, G> {
    /// Starts a walk at `start` (which must have at least one neighbor).
    pub fn new(g: &'g G, start: NodeId, non_backtracking: bool) -> Self {
        let deg = g.degree(start);
        assert!(deg > 0, "walk start {start} is isolated");
        Self { g, state: [start], deg, prev: None, nb: non_backtracking }
    }

    /// Rebuilds a walk at a checkpointed position: current node plus the
    /// previous node the non-backtracking rule remembers (`None` for a
    /// plain walk, or before the first step). The degree cache is
    /// re-fetched from `g`, so resuming against the same graph is
    /// bit-identical to never having stopped.
    pub fn resume(g: &'g G, current: NodeId, prev: Option<NodeId>, non_backtracking: bool) -> Self {
        let deg = g.degree(current);
        assert!(deg > 0, "walk position {current} is isolated");
        Self { g, state: [current], deg, prev, nb: non_backtracking }
    }

    /// Current node.
    pub fn current(&self) -> NodeId {
        self.state[0]
    }

    /// The previous node remembered for the non-backtracking rule
    /// (`None` for a plain walk, or before the first step) — the only
    /// walk state besides [`SrwWalk::current`] a checkpoint must carry.
    pub fn prev_node(&self) -> Option<NodeId> {
        self.prev
    }
}

impl<G: GraphAccess> StateWalk for SrwWalk<'_, G> {
    /// The next node. Its degree is deliberately *not* fetched here:
    /// deferring that data-dependent offset load to `commit` is what
    /// lets a lock-step group prefetch it in between.
    type Choice = NodeId;

    #[inline]
    fn d(&self) -> usize {
        1
    }

    #[inline]
    fn state(&self) -> &[NodeId] {
        &self.state
    }

    #[inline]
    fn state_degree(&mut self) -> usize {
        self.deg
    }

    fn is_non_backtracking(&self) -> bool {
        self.nb
    }

    // gx-lint: no_alloc
    #[inline]
    fn choose(&mut self, rng: &mut WalkRng) -> NodeId {
        let v = self.state[0];
        let deg = self.deg;
        if self.nb {
            match self.prev {
                Some(p) if deg > 1 => loop {
                    let w = self.g.neighbor_at(v, rng.gen_range(0..deg));
                    if w != p {
                        break w;
                    }
                },
                Some(p) => p, // leaf: forced backtrack
                None => self.g.neighbor_at(v, rng.gen_range(0..deg)),
            }
        } else {
            self.g.neighbor_at(v, rng.gen_range(0..deg))
        }
    }

    // gx-lint: no_alloc
    #[inline]
    fn commit(&mut self, next: NodeId) {
        if self.nb {
            self.prev = Some(self.state[0]);
        }
        self.state[0] = next;
        self.deg = self.g.degree(next);
    }

    #[inline]
    fn prefetch_next(&self, next: &NodeId) {
        self.g.prefetch_degree(*next);
    }

    #[inline]
    fn prefetch_entering(&self, next: &NodeId) {
        self.g.prefetch_neighbors(*next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;
    use gx_graph::generators::classic;

    #[test]
    fn stays_on_graph_and_moves_along_edges() {
        let g = classic::petersen();
        let mut rng = rng_from_seed(3);
        let mut w = SrwWalk::new(&g, 0, false);
        let mut prev = w.current();
        for _ in 0..1000 {
            w.step(&mut rng);
            assert!(g.has_edge(prev, w.current()));
            prev = w.current();
        }
    }

    #[test]
    fn stationary_distribution_proportional_to_degree() {
        // Lollipop has degrees from 1 to 4: visit frequency must track
        // degree (π(v) = d_v / 2|E|).
        let g = classic::lollipop(4, 3);
        let mut rng = rng_from_seed(7);
        let mut w = SrwWalk::new(&g, 0, false);
        let steps = 400_000usize;
        let mut visits = vec![0u64; g.num_nodes()];
        for _ in 0..steps {
            w.step(&mut rng);
            visits[w.current() as usize] += 1;
        }
        let two_m = g.degree_sum() as f64;
        for (v, &count) in visits.iter().enumerate() {
            let expected = g.degree(v as NodeId) as f64 / two_m;
            let got = count as f64 / steps as f64;
            assert!((got - expected).abs() < 0.01, "node {v}: got {got:.4} expected {expected:.4}");
        }
    }

    #[test]
    fn non_backtracking_never_reverses_off_leaves() {
        let g = classic::petersen(); // 3-regular: never forced
        let mut rng = rng_from_seed(11);
        let mut w = SrwWalk::new(&g, 0, true);
        let mut trail = vec![w.current()];
        for _ in 0..2000 {
            w.step(&mut rng);
            trail.push(w.current());
        }
        for win in trail.windows(3) {
            assert_ne!(win[0], win[2], "backtracked at {win:?}");
        }
    }

    #[test]
    fn non_backtracking_forced_on_leaf() {
        let g = classic::path(2); // single edge: must oscillate
        let mut rng = rng_from_seed(1);
        let mut w = SrwWalk::new(&g, 0, true);
        w.step(&mut rng);
        assert_eq!(w.current(), 1);
        w.step(&mut rng);
        assert_eq!(w.current(), 0);
    }

    #[test]
    fn non_backtracking_preserves_stationary_distribution() {
        // NB-SRW has the same π(v) ∝ d_v (paper §4.2).
        let g = classic::lollipop(4, 2);
        let mut rng = rng_from_seed(23);
        let mut w = SrwWalk::new(&g, 0, true);
        let steps = 400_000usize;
        let mut visits = vec![0u64; g.num_nodes()];
        for _ in 0..steps {
            w.step(&mut rng);
            visits[w.current() as usize] += 1;
        }
        let two_m = g.degree_sum() as f64;
        for (v, &count) in visits.iter().enumerate() {
            let expected = g.degree(v as NodeId) as f64 / two_m;
            let got = count as f64 / steps as f64;
            assert!((got - expected).abs() < 0.01, "node {v}: got {got:.4} expected {expected:.4}");
        }
    }

    #[test]
    fn trait_surface() {
        let g = classic::star(4);
        let mut w = SrwWalk::new(&g, 0, false);
        assert_eq!(w.d(), 1);
        assert_eq!(w.state(), &[0]);
        assert_eq!(w.state_degree(), 3);
        assert!(!w.is_non_backtracking());
    }

    #[test]
    #[should_panic(expected = "isolated")]
    fn rejects_isolated_start() {
        let g = gx_graph::Graph::from_edges(3, [(0, 1)]).unwrap();
        let _ = SrwWalk::new(&g, 2, false);
    }
}
