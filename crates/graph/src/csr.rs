//! Immutable CSR (compressed sparse row) graph storage.
//!
//! The representation is the workhorse of the whole workspace: adjacency
//! lists are stored back-to-back in one `Vec<NodeId>`, per-node slices are
//! delimited by an offsets array, and every adjacency list is sorted so
//! `has_edge` is a binary search. This matches the access pattern of the
//! paper's walks: O(1) uniform neighbor selection and O(log d) adjacency
//! probes (the "k − 1 binary searches" of Section 5).

use crate::builder::GraphBuilder;
use crate::error::GraphError;
use crate::NodeId;

/// Issues a read prefetch for the cache line holding `p` (T0 hint —
/// all cache levels). On non-x86-64 targets this is a no-op, so callers
/// can hint unconditionally.
///
/// `PREFETCHT0` never faults, regardless of the address, so hinting a
/// pointer that is never dereferenced is sound — which is exactly how
/// the batched walk engine uses it: the *next* step's line is requested
/// while the current step's scoring work is still in flight. A real
/// (discarded) demand load was tried here instead — it would also walk
/// the page table on a TLB miss, which `PREFETCHT0` silently drops —
/// but measured strictly slower on DRAM-sized graphs: demand misses
/// occupy the ROB until in-order retirement catches up, stalling the
/// very lanes the hint was meant to unblock.
#[inline(always)]
pub(crate) fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a pure cache hint; it performs no memory
    // access that can fault and has no architectural side effects.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Best-effort `madvise(MADV_HUGEPAGE)` on the buffer behind `ptr..+bytes`.
///
/// CSR arrays for DRAM-sized graphs span hundreds of megabytes; under 4 KiB
/// pages that is far beyond TLB reach, so every random neighbor-slice access
/// pays a page walk on top of the cache miss — and `PREFETCHT0` (see
/// [`prefetch_read`]) is silently dropped on TLB misses, which blunts the
/// batched engine's one-tick-ahead hints exactly where they matter most.
/// Backing the arrays with 2 MiB transparent hugepages keeps the whole CSR
/// within TLB reach (a ~1 GiB adjacency array needs ~512 entries).
///
/// Callers advise *before* populating the buffer: with THP in `madvise`
/// mode the kernel then faults the region in as hugepages synchronously,
/// instead of waiting for `khugepaged` to collapse already-faulted 4 KiB
/// pages minutes later. The advice is a pure hint — the kernel may ignore
/// it (THP disabled, memory pressure) and the return value is deliberately
/// discarded; correctness never depends on it.
///
/// Implemented as a raw `madvise` syscall on x86-64 Linux (`std` exposes no
/// allocator hints and the workspace takes no libc-style dependency); a
/// no-op everywhere else.
pub(crate) fn advise_hugepages(ptr: *const u8, bytes: usize) {
    madvise_raw(ptr, bytes, MADV_HUGEPAGE);
}

/// `madvise` advice values used by the workspace (Linux ABI).
pub(crate) const MADV_WILLNEED: usize = 3;
pub(crate) const MADV_HUGEPAGE: usize = 14;

/// Best-effort raw `madvise(advice)` over the pages fully inside
/// `ptr..ptr+bytes` — the shared syscall plumbing behind
/// [`advise_hugepages`] and the mapped-snapshot reader's
/// `MADV_WILLNEED`/`MADV_HUGEPAGE` hints. Pure hint: the return value is
/// discarded and correctness never depends on the kernel honoring it.
/// No-op off x86-64 Linux.
pub(crate) fn madvise_raw(ptr: *const u8, bytes: usize, advice: usize) {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        const SYS_MADVISE: usize = 28;
        const PAGE: usize = 4096;
        // `madvise` demands a page-aligned start; round the range inward so
        // a mid-page Vec allocation advises only the pages it fully owns.
        let start = (ptr as usize).next_multiple_of(PAGE);
        let end = (ptr as usize).saturating_add(bytes) & !(PAGE - 1);
        if end <= start {
            return;
        }
        let mut _ret: isize;
        // SAFETY: the syscall only attaches advice to VMAs in our own
        // address space; it reads/writes no user memory through the pointer
        // and EINVAL/ENOMEM outcomes are ignored by design. The asm block
        // declares every register the `syscall` instruction clobbers
        // (rax, rcx, r11).
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") SYS_MADVISE as isize => _ret,
                in("rdi") start,
                in("rsi") end - start,
                in("rdx") advice,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    {
        let _ = (ptr, bytes, advice);
    }
}

/// An immutable, undirected, simple graph in CSR form.
///
/// Invariants (enforced by [`GraphBuilder`]):
/// * no self-loops, no duplicate edges;
/// * each adjacency list is sorted ascending;
/// * edge `(u, v)` appears in both `neighbors(u)` and `neighbors(v)`.
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    pub(crate) offsets: Vec<usize>,
    pub(crate) adjacency: Vec<NodeId>,
}

impl Graph {
    /// Builds a graph from an edge list over nodes `0..num_nodes`.
    ///
    /// Self-loops and duplicate edges are silently dropped (the paper works
    /// on simple graphs). Returns an error if an endpoint is out of range.
    pub fn from_edges(
        num_nodes: usize,
        edges: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> Result<Self, GraphError> {
        let mut b = GraphBuilder::new(num_nodes);
        for (u, v) in edges {
            b.add_edge(u, v)?;
        }
        Ok(b.build())
    }

    /// Builds a graph from an edge list, inferring the node count as
    /// `max endpoint + 1`.
    ///
    /// Infallible: every endpoint is in range by construction of the
    /// inferred node count, so no error path exists (unlike
    /// [`Graph::from_edges`], whose caller-supplied count can be
    /// exceeded). The builder is fed directly rather than routed through
    /// the fallible constructor to keep that guarantee structural.
    pub fn from_edges_auto(edges: &[(NodeId, NodeId)]) -> Self {
        let n = edges.iter().map(|&(u, v)| u.max(v) as usize + 1).max().unwrap_or(0);
        let mut b = GraphBuilder::with_edge_capacity(n, edges.len());
        for &(u, v) in edges {
            b.add_edge_unchecked(u, v);
        }
        b.build()
    }

    /// Assembles a graph directly from already-built CSR arrays, with no
    /// further pass over them. The caller must guarantee the [`Graph`]
    /// invariants (sorted, deduplicated, symmetric, self-loop-free
    /// adjacency; `offsets.len() == num_nodes + 1` with `offsets[0] == 0`
    /// and `offsets[n] == adjacency.len()`). Used by the streaming
    /// edge-list loader, which establishes those invariants without ever
    /// materializing the full edge list.
    pub(crate) fn from_csr_parts(offsets: Vec<usize>, adjacency: Vec<NodeId>) -> Self {
        debug_assert!(!offsets.is_empty() && offsets[0] == 0);
        debug_assert_eq!(*offsets.last().unwrap_or(&0), adjacency.len());
        Self { offsets, adjacency }
    }

    /// Number of nodes (including isolated ones).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adjacency.len() / 2
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Sorted adjacency list of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.adjacency[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Whether the undirected edge `(u, v)` exists: a binary search of
    /// the smaller endpoint's adjacency list.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return false;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// The `i`-th neighbor of `v` (`i < degree(v)`), with a single
    /// offset load.
    #[inline]
    pub fn neighbor_at(&self, v: NodeId, i: usize) -> NodeId {
        debug_assert!(i < self.degree(v), "neighbor_at({v}, {i}) out of range");
        self.adjacency[self.offsets[v as usize] + i]
    }

    /// Hints the CPU to pull `v`'s CSR offset pair into cache ahead of a
    /// [`Graph::degree`] or [`Graph::neighbors`] call. Purely a
    /// performance hint: never faults, never changes observable state,
    /// and compiles to nothing off x86-64. Out-of-range `v` is a silent
    /// no-op (the address is computed without loading through it).
    // gx-lint: no_alloc
    #[inline(always)]
    pub fn prefetch_degree(&self, v: NodeId) {
        let v = v as usize;
        if v + 1 < self.offsets.len() {
            // `offsets[v]` and `offsets[v + 1]` are 8 bytes apart, so a
            // single line fetch covers both loads `degree` will issue.
            prefetch_read(self.offsets.as_ptr().wrapping_add(v));
        }
    }

    /// Hints the CPU to pull the probe lines of `v`'s adjacency slice
    /// into cache ahead of a [`Graph::neighbors`] walk or binary search
    /// — the slice head, and for longer lists the midpoint (a binary
    /// search's first probe, whose next level stays within a line of
    /// the head or midpoint for all but the heaviest hubs; quartile
    /// pulls were tried and measured flat — extra hints past the first
    /// search level just crowd the line-fill buffers, which silently
    /// drop prefetches when full). Costs one offset load
    /// (cheap when [`Graph::prefetch_degree`] ran earlier, or when the
    /// caller just read the degree); same no-fault, no-op-off-x86-64
    /// contract as [`Graph::prefetch_degree`].
    // gx-lint: no_alloc
    #[inline(always)]
    pub fn prefetch_neighbors(&self, v: NodeId) {
        let v = v as usize;
        if v + 1 < self.offsets.len() {
            let start = self.offsets[v];
            let end = self.offsets[v + 1];
            let base = self.adjacency.as_ptr();
            prefetch_read(base.wrapping_add(start));
            let len = end - start;
            if len > 16 {
                prefetch_read(base.wrapping_add(start + len / 2));
            }
        }
    }

    /// Iterator over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.num_nodes() as NodeId
    }

    /// Iterator over each undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u).iter().copied().filter(move |&v| u < v).map(move |v| (u, v))
        })
    }

    /// Sum of degrees, i.e. `2|E|`.
    #[inline]
    pub fn degree_sum(&self) -> usize {
        self.adjacency.len()
    }

    /// Maximum degree over all nodes.
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes()).map(|v| self.degree(v as NodeId)).max().unwrap_or(0)
    }

    /// Extracts the induced subgraph on `keep` (nodes renumbered to
    /// `0..keep.len()` in the given order). `keep` must not contain
    /// duplicates. Returns the subgraph together with the mapping from new
    /// id to original id (a copy of `keep`).
    pub fn induced_subgraph(&self, keep: &[NodeId]) -> (Graph, Vec<NodeId>) {
        let mut remap = vec![NodeId::MAX; self.num_nodes()];
        for (new, &old) in keep.iter().enumerate() {
            debug_assert!(remap[old as usize] == NodeId::MAX, "duplicate node in keep");
            remap[old as usize] = new as NodeId;
        }
        let mut b = GraphBuilder::new(keep.len());
        for &old in keep {
            let new_u = remap[old as usize];
            for &w in self.neighbors(old) {
                let new_w = remap[w as usize];
                if new_w != NodeId::MAX && new_u < new_w {
                    // Remapped ids are `< keep.len()` by construction.
                    b.add_edge_unchecked(new_u, new_w);
                }
            }
        }
        (b.build(), keep.to_vec())
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("num_nodes", &self.num_nodes())
            .field("num_edges", &self.num_edges())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 4-node example graph of the paper's Figure 1:
    /// edges {1-2, 1-3, 1-4, 2-3, 3-4} with nodes relabeled to 0..4.
    pub(crate) fn figure1_graph() -> Graph {
        Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let g = figure1_graph();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 2);
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
        assert_eq!(g.degree_sum(), 10);
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn has_edge_is_symmetric_and_rejects_loops() {
        let g = figure1_graph();
        for u in 0..4u32 {
            assert!(!g.has_edge(u, u));
            for v in 0..4u32 {
                assert_eq!(g.has_edge(u, v), g.has_edge(v, u));
            }
        }
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 3));
    }

    #[test]
    fn edges_iterates_each_edge_once() {
        let g = figure1_graph();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]);
    }

    #[test]
    fn duplicate_and_loop_edges_are_dropped() {
        let g = Graph::from_edges(3, [(0, 1), (1, 0), (0, 1), (2, 2), (1, 2)]).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn out_of_range_edge_is_an_error() {
        let err = Graph::from_edges(2, [(0, 5)]).unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfRange { node: 5, num_nodes: 2 }));
    }

    #[test]
    fn from_edges_auto_infers_size() {
        let g = Graph::from_edges_auto(&[(0, 7), (3, 4)]);
        assert_eq!(g.num_nodes(), 8);
        assert_eq!(g.num_edges(), 2);
        let empty = Graph::from_edges_auto(&[]);
        assert_eq!(empty.num_nodes(), 0);
        assert_eq!(empty.num_edges(), 0);
    }

    #[test]
    fn hub_fast_path_agrees_with_binary_search() {
        // Star with 200 leaves: whichever argument order, the probe
        // searches the leaf's one-entry list, never the hub's.
        let hub = 0u32;
        let edges: Vec<(NodeId, NodeId)> = (1..=200).map(|v| (hub, v)).collect();
        let g = Graph::from_edges(201, edges.iter().copied()).unwrap();
        for v in 1..=200u32 {
            assert!(g.has_edge(hub, v));
            assert!(g.has_edge(v, hub));
        }
        assert!(!g.has_edge(1, 2));
        assert!(!g.has_edge(hub, hub));
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = figure1_graph();
        // keep nodes {0, 1, 2}: triangle
        let (sub, map) = g.induced_subgraph(&[0, 1, 2]);
        assert_eq!(map, vec![0, 1, 2]);
        assert_eq!(sub.num_nodes(), 3);
        assert_eq!(sub.num_edges(), 3);
        // keep nodes {1, 3}: no edge between them
        let (sub, _) = g.induced_subgraph(&[1, 3]);
        assert_eq!(sub.num_edges(), 0);
    }

    #[test]
    fn induced_subgraph_respects_order() {
        let g = figure1_graph();
        let (sub, map) = g.induced_subgraph(&[3, 0]);
        assert_eq!(map, vec![3, 0]);
        // original edge (0,3) becomes (1,0)
        assert!(sub.has_edge(0, 1));
    }

    #[test]
    fn debug_format_is_compact() {
        let g = figure1_graph();
        let s = format!("{g:?}");
        assert!(s.contains("num_nodes"));
        assert!(s.contains("num_edges"));
    }
}
