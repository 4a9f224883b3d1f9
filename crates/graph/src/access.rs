//! The restricted-access model of the paper.
//!
//! The paper assumes the graph "has to be externally accessed, either
//! through remote databases or by calling APIs provided by the operators of
//! OSNs" (§1). Concretely: given a node you may fetch its adjacency list;
//! nothing else is visible. [`GraphAccess`] encodes exactly that surface,
//! and every sampling algorithm in the workspace is generic over it, so the
//! same code runs against an in-memory [`Graph`], an on-disk snapshot, or
//! a metered [`ApiGraph`] over any of them that simulates a crawler.

use crate::csr::Graph;
use crate::NodeId;
use std::cell::{Cell, RefCell};

/// Neighborhood-level access to an undirected graph, mirroring an OSN
/// crawling API ("retrieve a list of user's friends").
///
/// `num_nodes` is exposed because our remote graphs are simulations; the
/// estimators themselves never rely on it except to pick a starting node.
pub trait GraphAccess {
    /// Total number of nodes (for choosing walk starting points in
    /// simulations).
    fn num_nodes(&self) -> usize;

    /// Degree of `v` (the length of its friend list).
    fn degree(&self, v: NodeId) -> usize;

    /// Sorted adjacency list of `v`.
    fn neighbors(&self, v: NodeId) -> &[NodeId];

    /// Whether edge `(u, v)` exists. Derived: a crawler answers this by
    /// binary-searching the smaller endpoint's friend list, read through
    /// [`GraphAccess::visit_neighbors`].
    #[inline]
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return false;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        let mut found = false;
        self.visit_neighbors(a, &mut |nbrs| found = nbrs.binary_search(&b).is_ok());
        found
    }

    /// The `i`-th neighbor of `v` (`i < degree(v)`), read through
    /// [`GraphAccess::visit_neighbors`].
    #[inline]
    fn neighbor_at(&self, v: NodeId, i: usize) -> NodeId {
        let mut w = 0;
        self.visit_neighbors(v, &mut |nbrs| w = nbrs[i]);
        w
    }

    /// Visits the sorted adjacency list of `v` through a scoped borrow.
    ///
    /// Semantically identical to calling `f` on
    /// [`GraphAccess::neighbors`] — and that is the default — but the
    /// slice is only guaranteed to live for the duration of the call.
    /// This is the one adjacency read the other derived accessors
    /// (`has_edge`, `neighbor_at`, `extend_neighbors`) go through.
    /// Backends that *decode* adjacency on demand (the compressed
    /// on-disk variant, `gx_graph::disk::CompressedGraph`) implement
    /// this without pinning a long-lived slice, which is what keeps
    /// their decode cache bounded. Hot paths that probe a list
    /// transiently (the scoring window's per-step binary searches)
    /// should prefer this over `neighbors`.
    ///
    /// `f` is `&mut dyn FnMut` rather than a generic closure so the
    /// trait stays object-safe; for concrete backends the indirect call
    /// devirtualizes after inlining.
    #[inline]
    fn visit_neighbors(&self, v: NodeId, f: &mut dyn FnMut(&[NodeId])) {
        f(self.neighbors(v));
    }

    /// Appends the sorted adjacency list of `v` to `out` — the copy-out
    /// form of [`GraphAccess::visit_neighbors`], for callers that were
    /// going to `extend_from_slice` anyway. Decoding backends fill `out`
    /// straight from their block cache without pinning a slice.
    #[inline]
    fn extend_neighbors(&self, v: NodeId, out: &mut Vec<NodeId>) {
        self.visit_neighbors(v, &mut |nbrs| out.extend_from_slice(nbrs));
    }

    /// Hints that `degree(v)` will be asked soon. Purely a cache-warming
    /// hint for in-memory backends; the default (and any remote/metered
    /// backend, where "prefetch" would be a real API call) is a no-op.
    /// Implementations must not change observable state.
    #[inline]
    fn prefetch_degree(&self, _v: NodeId) {}

    /// Hints that `neighbors(v)` will be probed soon. Same contract as
    /// [`GraphAccess::prefetch_degree`]: hint only, no-op by default.
    #[inline]
    fn prefetch_neighbors(&self, _v: NodeId) {}
}

impl GraphAccess for Graph {
    #[inline]
    fn num_nodes(&self) -> usize {
        Graph::num_nodes(self)
    }
    #[inline]
    fn degree(&self, v: NodeId) -> usize {
        Graph::degree(self, v)
    }
    #[inline]
    fn neighbors(&self, v: NodeId) -> &[NodeId] {
        Graph::neighbors(self, v)
    }
    #[inline]
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        Graph::has_edge(self, u, v)
    }
    #[inline]
    fn neighbor_at(&self, v: NodeId, i: usize) -> NodeId {
        // One offset load instead of the trait default's slice
        // construction (two offset loads + bounds check) — this sits on
        // the walk's per-step critical path.
        Graph::neighbor_at(self, v, i)
    }
    #[inline]
    fn prefetch_degree(&self, v: NodeId) {
        Graph::prefetch_degree(self, v);
    }
    #[inline]
    fn prefetch_neighbors(&self, v: NodeId) {
        Graph::prefetch_neighbors(self, v);
    }
}

impl<T: GraphAccess + ?Sized> GraphAccess for &T {
    // Every accessor forwards explicitly: the `visit_neighbors` default
    // would route through `neighbors` on the *reference*, bypassing a
    // backend's bounded-cache read, and the derived defaults would
    // bypass its own overrides (one-load `neighbor_at`, metered
    // `has_edge`).
    fn num_nodes(&self) -> usize {
        (**self).num_nodes()
    }
    fn degree(&self, v: NodeId) -> usize {
        (**self).degree(v)
    }
    fn neighbors(&self, v: NodeId) -> &[NodeId] {
        (**self).neighbors(v)
    }
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        (**self).has_edge(u, v)
    }
    fn neighbor_at(&self, v: NodeId, i: usize) -> NodeId {
        (**self).neighbor_at(v, i)
    }
    fn visit_neighbors(&self, v: NodeId, f: &mut dyn FnMut(&[NodeId])) {
        (**self).visit_neighbors(v, f);
    }
    fn extend_neighbors(&self, v: NodeId, out: &mut Vec<NodeId>) {
        (**self).extend_neighbors(v, out);
    }
    fn prefetch_degree(&self, v: NodeId) {
        (**self).prefetch_degree(v);
    }
    fn prefetch_neighbors(&self, v: NodeId) {
        (**self).prefetch_neighbors(v);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit digest, shared by checkpoint envelopes, snapshot
/// headers and [`graph_fingerprint`].
/// Every byte step (xor, then multiply by an odd prime) is a bijection
/// of the running state, so same-length inputs differing in any single
/// bit hash differently — the guarantee the corruption tests lean on.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a digest from state `h` over `bytes`.
#[inline]
fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Structural fingerprint of a graph: FNV-1a over the node count, every
/// degree, and every (sorted) neighbor list. Two graphs with the same
/// fingerprint present the same adjacency structure to a walk, which is
/// all a resumed run observes; a mismatch means resuming would silently
/// estimate statistics of the wrong graph, so `gx_core::Runner::resume`
/// refuses it.
///
/// The same value is embedded in on-disk snapshot headers
/// ([`crate::disk`]), which is what lets a mapped snapshot be adopted by
/// trusted-resume paths and fingerprint-keyed caches without an O(edges)
/// rescan: the converter computes it once, over exactly this traversal.
pub fn graph_fingerprint<G: GraphAccess + ?Sized>(g: &G) -> u64 {
    fn eat(h: &mut u64, x: u64) {
        *h = fnv1a_extend(*h, &x.to_le_bytes());
    }
    let mut h = FNV_OFFSET;
    let n = g.num_nodes();
    eat(&mut h, n as u64);
    for v in 0..n {
        let v = v as NodeId;
        eat(&mut h, g.degree(v) as u64);
        // Scoped visit instead of `neighbors`: fingerprinting a
        // decode-on-demand backend must not pin every block.
        g.visit_neighbors(v, &mut |nbrs| {
            for &w in nbrs {
                eat(&mut h, u64::from(w));
            }
        });
    }
    h
}

/// Usage statistics reported by [`ApiGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ApiStats {
    /// Distinct nodes whose adjacency list was fetched at least once. This
    /// is the paper's cost unit: a crawler caches responses, so re-reading
    /// a known node is free.
    pub distinct_nodes_fetched: u64,
    /// Total adjacency-list requests, counting repeats (what an un-cached
    /// crawler would pay).
    pub total_requests: u64,
}

impl ApiStats {
    /// Fraction of the graph's nodes touched, the "we only exploit 0.03% of
    /// Sinaweibo" number from §6.2.1.
    pub fn coverage(&self, num_nodes: usize) -> f64 {
        if num_nodes == 0 {
            0.0
        } else {
            self.distinct_nodes_fetched as f64 / num_nodes as f64
        }
    }
}

/// A metered wrapper that simulates crawling a remote graph through an API.
///
/// Wraps any [`GraphAccess`] backend — the in-RAM [`Graph`], a mapped
/// GXSN or a compressed GXSC snapshot, or a reference to one
/// (`ApiGraph::new(&g)`). Every [`GraphAccess`] method that needs a
/// node's adjacency list counts as one API request; distinct nodes are
/// tracked separately to model a caching crawler. Adjacency reads are
/// forwarded to the inner backend's `visit_neighbors`, so a decoding
/// backend is read through its bounded cache, never through a pinned
/// `neighbors()` slice.
pub struct ApiGraph<G: GraphAccess> {
    inner: G,
    fetched: RefCell<Vec<bool>>,
    distinct: Cell<u64>,
    total: Cell<u64>,
}

impl<G: GraphAccess> ApiGraph<G> {
    /// Wraps `inner` as a simulated remote graph.
    pub fn new(inner: G) -> Self {
        let n = inner.num_nodes();
        Self {
            inner,
            fetched: RefCell::new(vec![false; n]),
            distinct: Cell::new(0),
            total: Cell::new(0),
        }
    }

    fn record(&self, v: NodeId) {
        self.total.set(self.total.get() + 1);
        let mut fetched = self.fetched.borrow_mut();
        let slot = &mut fetched[v as usize];
        if !*slot {
            *slot = true;
            self.distinct.set(self.distinct.get() + 1);
        }
    }

    /// Current usage statistics.
    pub fn stats(&self) -> ApiStats {
        ApiStats { distinct_nodes_fetched: self.distinct.get(), total_requests: self.total.get() }
    }

    /// Resets the meters (the fetched-set and counters).
    pub fn reset(&self) {
        self.fetched.borrow_mut().fill(false);
        self.distinct.set(0);
        self.total.set(0);
    }

    /// The wrapped graph.
    pub fn inner(&self) -> &G {
        &self.inner
    }
}

impl<G: GraphAccess> GraphAccess for ApiGraph<G> {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn degree(&self, v: NodeId) -> usize {
        self.record(v);
        self.inner.degree(v)
    }

    fn neighbors(&self, v: NodeId) -> &[NodeId] {
        self.record(v);
        self.inner.neighbors(v)
    }

    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        // A crawler resolves adjacency by fetching one endpoint's list;
        // fetch the cheaper endpoint like the in-memory fast path does.
        if u == v {
            return false;
        }
        let probe = if self.inner.degree(u) <= self.inner.degree(v) { u } else { v };
        self.record(probe);
        self.inner.has_edge(u, v)
    }

    // `neighbor_at` and `extend_neighbors` keep their defaults, which
    // read through this one request.
    fn visit_neighbors(&self, v: NodeId, f: &mut dyn FnMut(&[NodeId])) {
        self.record(v);
        self.inner.visit_neighbors(v, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_and_fingerprints_keep_their_bits() {
        // Pinned values: checkpoint checksums, snapshot-header checksums
        // and graph fingerprints are all stored on disk, so a change of
        // bits here would refuse every existing file.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"graphlet"), 0xfce5_2f89_fadf_78f8);
        use crate::generators::classic;
        assert_eq!(graph_fingerprint(&classic::petersen()), 0xd1d5_2612_38a2_d20e);
        assert_eq!(graph_fingerprint(&classic::lollipop(6, 5)), 0x447d_ce0a_6c87_c622);
    }

    fn small() -> Graph {
        Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn graph_implements_access() {
        let g = small();
        let a: &dyn GraphAccess = &g;
        assert_eq!(a.num_nodes(), 4);
        assert_eq!(a.degree(0), 3);
        assert_eq!(a.neighbors(0), &[1, 2, 3]);
        assert!(a.has_edge(0, 1));
        assert!(!a.has_edge(1, 3));
        assert_eq!(a.neighbor_at(0, 2), 3);
    }

    #[test]
    fn reference_forwarding_works() {
        let g = small();
        fn takes_access<G: GraphAccess>(g: G) -> usize {
            g.degree(0)
        }
        assert_eq!(takes_access(&g), 3);
        assert_eq!(takes_access(&g), 3);
    }

    #[test]
    fn api_graph_counts_distinct_and_total() {
        let g = small();
        let api = ApiGraph::new(&g);
        api.neighbors(0);
        api.neighbors(0);
        api.neighbors(1);
        let s = api.stats();
        assert_eq!(s.distinct_nodes_fetched, 2);
        assert_eq!(s.total_requests, 3);
        assert!((s.coverage(4) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn api_graph_has_edge_charges_one_probe() {
        let g = small();
        let api = ApiGraph::new(&g);
        assert!(!api.has_edge(1, 3));
        assert_eq!(api.stats().total_requests, 1);
    }

    #[test]
    fn api_graph_reset_clears_meters() {
        let g = small();
        let api = ApiGraph::new(&g);
        api.neighbors(2);
        api.reset();
        assert_eq!(api.stats(), ApiStats::default());
        assert_eq!(api.inner().num_edges(), 5);
        // after reset the same node counts as distinct again
        api.neighbors(2);
        assert_eq!(api.stats().distinct_nodes_fetched, 1);
    }

    #[test]
    fn coverage_of_empty_graph_is_zero() {
        assert_eq!(ApiStats::default().coverage(0), 0.0);
    }

    /// A backend with only the required methods plus `visit_neighbors`:
    /// every derived accessor must be served without `neighbors()`.
    struct VisitOnly<'g>(&'g Graph);

    impl GraphAccess for VisitOnly<'_> {
        fn num_nodes(&self) -> usize {
            self.0.num_nodes()
        }
        fn degree(&self, v: NodeId) -> usize {
            self.0.degree(v)
        }
        fn neighbors(&self, v: NodeId) -> &[NodeId] {
            panic!("neighbors({v}) called through a derived accessor")
        }
        fn visit_neighbors(&self, v: NodeId, f: &mut dyn FnMut(&[NodeId])) {
            f(self.0.neighbors(v));
        }
    }

    #[test]
    fn derived_accessors_read_through_visit_neighbors() {
        use crate::generators::classic;
        for g in [classic::paper_figure1(), classic::lollipop(5, 4)] {
            let scoped = VisitOnly(&g);
            let n = g.num_nodes() as NodeId;
            for u in 0..n {
                for v in 0..n {
                    assert_eq!(scoped.has_edge(u, v), g.has_edge(u, v), "has_edge({u},{v})");
                }
                for i in 0..g.degree(u) {
                    assert_eq!(
                        scoped.neighbor_at(u, i),
                        g.neighbor_at(u, i),
                        "neighbor_at({u},{i})"
                    );
                }
                let mut out = vec![NodeId::MAX];
                scoped.extend_neighbors(u, &mut out);
                assert_eq!(out[0], NodeId::MAX, "extend_neighbors appends");
                assert_eq!(&out[1..], g.neighbors(u), "extend_neighbors({u})");
            }
            assert_eq!(graph_fingerprint(&scoped), graph_fingerprint(&g));
        }
    }

    #[test]
    fn api_graph_derived_reads_charge_one_request_each() {
        let g = small();
        let api = ApiGraph::new(&g);
        assert_eq!(api.neighbor_at(0, 2), 3);
        assert_eq!(api.stats().total_requests, 1);
        let mut out = Vec::new();
        api.extend_neighbors(2, &mut out);
        assert_eq!(out, g.neighbors(2));
        assert_eq!(api.stats(), ApiStats { distinct_nodes_fetched: 2, total_requests: 2 });
    }
}
