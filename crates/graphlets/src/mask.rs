//! Small graphs on up to 7 nodes encoded as edge bitmasks.
//!
//! A graph on `k` nodes is a `u32` whose bit `pair_index(i, j, k)` is set
//! iff edge `(i, j)` exists (`i < j`, C(7,2) = 21 bits max). Everything the
//! classifiers need — degrees, connectivity, permutation, canonical form —
//! is a few bit operations.

/// Maximum supported node count for mask-encoded graphs.
pub const MAX_K: usize = 7;

/// Index of pair `(i, j)` (`i < j`) within the upper-triangle bit layout
/// for a k-node graph.
#[inline]
pub fn pair_index(i: usize, j: usize, k: usize) -> usize {
    debug_assert!(i < j && j < k, "pair_index({i},{j},{k})");
    i * k - i * (i + 1) / 2 + (j - i - 1)
}

/// Number of node pairs, C(k, 2).
#[inline]
pub fn num_pairs(k: usize) -> usize {
    k * (k - 1) / 2
}

/// A labeled simple graph on `k ≤ 7` nodes, stored as an edge bitmask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SmallGraph {
    k: u8,
    mask: u32,
}

impl SmallGraph {
    /// Empty graph on `k` nodes.
    pub fn empty(k: usize) -> Self {
        assert!((1..=MAX_K).contains(&k), "SmallGraph supports 1..={MAX_K} nodes, got {k}");
        Self { k: k as u8, mask: 0 }
    }

    /// From a raw mask (bits beyond C(k,2) must be zero).
    pub fn from_mask(k: usize, mask: u32) -> Self {
        assert!((1..=MAX_K).contains(&k));
        assert!(
            mask < (1u32 << num_pairs(k)) || num_pairs(k) == 32,
            "mask {mask:#x} out of range for k={k}"
        );
        Self { k: k as u8, mask }
    }

    /// From an explicit edge list.
    pub fn from_edges(k: usize, edges: &[(u8, u8)]) -> Self {
        let mut g = Self::empty(k);
        for &(a, b) in edges {
            g.add_edge(a as usize, b as usize);
        }
        g
    }

    /// Node count.
    #[inline]
    pub fn k(&self) -> usize {
        self.k as usize
    }

    /// Raw bitmask.
    #[inline]
    pub fn mask(&self) -> u32 {
        self.mask
    }

    /// Add edge `(i, j)`.
    #[inline]
    pub fn add_edge(&mut self, i: usize, j: usize) {
        assert!(i != j, "no self loops");
        let (i, j) = if i < j { (i, j) } else { (j, i) };
        self.mask |= 1 << pair_index(i, j, self.k());
    }

    /// Whether edge `(i, j)` exists.
    #[inline]
    pub fn has_edge(&self, i: usize, j: usize) -> bool {
        if i == j {
            return false;
        }
        let (i, j) = if i < j { (i, j) } else { (j, i) };
        self.mask & (1 << pair_index(i, j, self.k())) != 0
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.mask.count_ones() as usize
    }

    /// Degree of node `i`.
    pub fn degree(&self, i: usize) -> usize {
        self.neighbors_bits(i).count_ones() as usize
    }

    /// Sorted (ascending) degree sequence.
    pub fn degree_sequence(&self) -> Vec<u8> {
        let mut d: Vec<u8> = (0..self.k()).map(|i| self.degree(i) as u8).collect();
        d.sort_unstable();
        d
    }

    /// Neighbors of `i` as a node bitmask (bit j set iff edge (i,j)).
    pub fn neighbors_bits(&self, i: usize) -> u8 {
        let mut bits = 0u8;
        for j in 0..self.k() {
            if j != i && self.has_edge(i, j) {
                bits |= 1 << j;
            }
        }
        bits
    }

    /// Whether the graph is connected (single node counts as connected).
    pub fn is_connected(&self) -> bool {
        let k = self.k();
        if k == 1 {
            return true;
        }
        let mut reached: u8 = 1; // start at node 0
        loop {
            let mut next = reached;
            for i in 0..k {
                if reached & (1 << i) != 0 {
                    next |= self.neighbors_bits(i);
                }
            }
            if next == reached {
                break;
            }
            reached = next;
        }
        reached == (1u8 << k) - 1
    }

    /// The graph relabeled by `perm`: the result has edge `(i, j)` iff
    /// `self` has edge `(perm[i], perm[j])`.
    pub fn permute(&self, perm: &[usize]) -> SmallGraph {
        debug_assert_eq!(perm.len(), self.k());
        let mut out = SmallGraph::empty(self.k());
        for i in 0..self.k() {
            for j in (i + 1)..self.k() {
                if self.has_edge(perm[i], perm[j]) {
                    out.add_edge(i, j);
                }
            }
        }
        out
    }

    /// Canonical form: the minimum mask over all k! relabelings. Two small
    /// graphs are isomorphic iff their canonical masks are equal.
    pub fn canonical_mask(&self) -> u32 {
        let mut best = u32::MAX;
        for perm in permutations(self.k()) {
            best = best.min(self.permute(perm).mask);
        }
        best
    }

    /// Edge list `(i, j)` with `i < j`.
    pub fn edges(&self) -> Vec<(u8, u8)> {
        let mut out = Vec::with_capacity(self.num_edges());
        for i in 0..self.k() {
            for j in (i + 1)..self.k() {
                if self.has_edge(i, j) {
                    out.push((i as u8, j as u8));
                }
            }
        }
        out
    }

    /// Per-node count of triangles through that node, sorted ascending.
    /// Used by the degree-signature classifier's tie-break.
    pub fn triangle_profile(&self) -> Vec<u8> {
        let k = self.k();
        let mut t = vec![0u8; k];
        for i in 0..k {
            for j in (i + 1)..k {
                if !self.has_edge(i, j) {
                    continue;
                }
                for l in (j + 1)..k {
                    if self.has_edge(i, l) && self.has_edge(j, l) {
                        t[i] += 1;
                        t[j] += 1;
                        t[l] += 1;
                    }
                }
            }
        }
        t.sort_unstable();
        t
    }
}

/// All permutations of `0..k`, built on first use of each `k` and cached
/// (k ≤ 7 → at most 5040); asking for one `k` builds no other.
pub fn permutations(k: usize) -> impl Iterator<Item = &'static [usize]> {
    permutation_list(k).iter().map(|p| p.as_slice())
}

/// The cached list behind [`permutations`], indexable by position.
pub(crate) fn permutation_list(k: usize) -> &'static [Vec<usize>] {
    use std::sync::OnceLock;
    static CACHE: [OnceLock<Vec<Vec<usize>>>; MAX_K + 1] = [const { OnceLock::new() }; MAX_K + 1];
    CACHE[k].get_or_init(|| {
        let mut out = Vec::new();
        let mut items: Vec<usize> = (0..k).collect();
        heap_permutations(&mut items, k, &mut out);
        out
    })
}

fn heap_permutations(items: &mut Vec<usize>, n: usize, out: &mut Vec<Vec<usize>>) {
    if n <= 1 {
        out.push(items.clone());
        return;
    }
    for i in 0..n {
        heap_permutations(items, n - 1, out);
        if n.is_multiple_of(2) {
            items.swap(i, n - 1);
        } else {
            items.swap(0, n - 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_index_layout_is_dense_and_unique() {
        for k in 2..=MAX_K {
            let mut seen = vec![false; num_pairs(k)];
            for i in 0..k {
                for j in (i + 1)..k {
                    let idx = pair_index(i, j, k);
                    assert!(!seen[idx], "collision at ({i},{j}) k={k}");
                    seen[idx] = true;
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn edge_basics() {
        let mut g = SmallGraph::empty(4);
        g.add_edge(2, 0);
        g.add_edge(1, 3);
        assert!(g.has_edge(0, 2) && g.has_edge(2, 0));
        assert!(!g.has_edge(0, 1));
        assert!(!g.has_edge(1, 1));
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edges(), vec![(0, 2), (1, 3)]);
    }

    #[test]
    fn degrees_and_sequence() {
        let g = SmallGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]); // star
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(1), 1);
        assert_eq!(g.degree_sequence(), vec![1, 1, 1, 3]);
    }

    #[test]
    fn connectivity() {
        assert!(SmallGraph::from_edges(3, &[(0, 1), (1, 2)]).is_connected());
        assert!(!SmallGraph::from_edges(3, &[(0, 1)]).is_connected());
        assert!(SmallGraph::empty(1).is_connected());
        assert!(!SmallGraph::empty(2).is_connected());
        // two disjoint edges on 4 nodes
        assert!(!SmallGraph::from_edges(4, &[(0, 1), (2, 3)]).is_connected());
    }

    #[test]
    fn permutation_group_action() {
        let g = SmallGraph::from_edges(3, &[(0, 1)]);
        // perm maps new label -> old label; [2,1,0] swaps 0 and 2
        let h = g.permute(&[2, 1, 0]);
        assert!(h.has_edge(1, 2));
        assert!(!h.has_edge(0, 1));
        // identity
        assert_eq!(g.permute(&[0, 1, 2]), g);
    }

    #[test]
    fn canonical_mask_is_isomorphism_invariant() {
        // a path 0-1-2-3 in two labelings
        let a = SmallGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let b = SmallGraph::from_edges(4, &[(2, 0), (0, 3), (3, 1)]);
        assert_eq!(a.canonical_mask(), b.canonical_mask());
        // ...and differs from the star
        let s = SmallGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        assert_ne!(a.canonical_mask(), s.canonical_mask());
    }

    #[test]
    fn permutations_have_correct_count() {
        assert_eq!(permutations(3).count(), 6);
        assert_eq!(permutations(5).count(), 120);
        let unique: std::collections::HashSet<_> = permutations(4).collect();
        assert_eq!(unique.len(), 24);
    }

    #[test]
    fn triangle_profile_distinguishes() {
        let tri_tail = SmallGraph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        assert_eq!(tri_tail.triangle_profile(), vec![0, 1, 1, 1]);
        let cycle = SmallGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(cycle.triangle_profile(), vec![0, 0, 0, 0]);
    }

    #[test]
    fn from_mask_roundtrip() {
        let g = SmallGraph::from_edges(5, &[(0, 4), (1, 3)]);
        let h = SmallGraph::from_mask(5, g.mask());
        assert_eq!(g, h);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_mask_rejects_overflow_bits() {
        let _ = SmallGraph::from_mask(3, 0b1000);
    }

    #[test]
    #[should_panic(expected = "no self loops")]
    fn no_self_loops() {
        let mut g = SmallGraph::empty(3);
        g.add_edge(1, 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Canonicalization is invariant under arbitrary relabeling.
        #[test]
        fn canonical_invariant_under_permutation(
            mask in 0u32..1024,
            perm_seed in 0usize..120,
        ) {
            let g = SmallGraph::from_mask(5, mask);
            let perm: Vec<usize> = permutations(5).nth(perm_seed).unwrap().to_vec();
            let h = g.permute(&perm);
            prop_assert_eq!(g.canonical_mask(), h.canonical_mask());
            // permutation preserves edge count, degree sequence, connectivity
            prop_assert_eq!(g.num_edges(), h.num_edges());
            prop_assert_eq!(g.degree_sequence(), h.degree_sequence());
            prop_assert_eq!(g.is_connected(), h.is_connected());
            prop_assert_eq!(g.triangle_profile(), h.triangle_profile());
        }
    }
}
