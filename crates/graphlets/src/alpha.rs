//! Algorithm 2: the state corresponding coefficient α.
//!
//! For a graphlet g on k nodes and a walk on `G(d)`, α counts the ordered
//! sequences of `l = k − d + 1` *distinct* connected induced d-subgraphs of
//! g such that consecutive subgraphs are adjacent in the subgraph
//! relationship graph (share d − 1 nodes; for d = 1, are joined by an edge)
//! and the union covers all k nodes. Each valid l-step window of the walk
//! that lands on a copy of g corresponds to exactly one such sequence, so α
//! is the number of times g is "replicated" in the expanded chain's state
//! space (paper Definition 3).
//!
//! Equivalently (paper's remark), α is twice the number of undirected
//! Hamilton paths of the subgraph relationship graph of g restricted to
//! covering sequences. Tables 2 and 3 of the paper list α/2; the test suite
//! regenerates both tables from this module and fails on any mismatch.

use crate::atlas::atlas;
use crate::mask::{SmallGraph, MAX_K};
use crate::GraphletId;
use std::sync::OnceLock;

/// The most d-subsets a graph on k ≤ 7 nodes has: C(7, 3).
const MAX_SUBSETS: usize = 35;

/// Whether the node set `bits` induces a connected subgraph of the graph
/// whose node `i` has neighbour bits `nbrs[i]`.
fn subset_connected(nbrs: &[u8], bits: u8) -> bool {
    if bits == 0 {
        return false;
    }
    let mut reached: u8 = 1 << bits.trailing_zeros();
    loop {
        let mut next = reached;
        for (i, &n) in nbrs.iter().enumerate() {
            if reached & (1 << i) != 0 {
                next |= n & bits;
            }
        }
        if next == reached {
            return reached == bits;
        }
        reached = next;
    }
}

/// The corresponding-state structure of a graphlet under SRW(d): its
/// connected d-subgraphs and every covering l-sequence (the states of
/// `C(s)` in Definition 3, as index sequences into `subsets`).
#[derive(Debug, Clone)]
pub struct CoveringSequences {
    /// Connected induced d-subgraphs of the graphlet, as node bitmasks in
    /// ascending order.
    pub subsets: Vec<u8>,
    /// Every ordered sequence of l = k − d + 1 distinct subsets with
    /// consecutive subsets adjacent in the relationship graph and union
    /// covering all k nodes, in lexicographic order, flattened with
    /// stride l (see [`CoveringSequences::iter`]).
    pub sequences: Vec<u8>,
    /// The sequence length l (≥ 1).
    l: usize,
}

impl CoveringSequences {
    /// The number of covering sequences: α.
    pub fn count(&self) -> usize {
        self.sequences.len() / self.l
    }

    /// The covering sequences, each a slice of l subset indices.
    pub fn iter(&self) -> std::slice::ChunksExact<'_, u8> {
        self.sequences.chunks_exact(self.l)
    }

    /// The interior subset-indices (X₂ … X_{l−1}) of every sequence,
    /// flattened into one contiguous array with constant stride `l − 2`
    /// (empty for `l ≤ 2`, where sequences have no interior states).
    ///
    /// CSS sums `Π 1/d_{X_i}` over exactly these interiors (Algorithm 3);
    /// the flat layout lets that sum stream through one cache-friendly
    /// array instead of chasing one heap pointer per sequence.
    pub fn flat_interiors(&self) -> Vec<u8> {
        if self.l <= 2 {
            return Vec::new();
        }
        self.iter().flat_map(|seq| &seq[1..self.l - 1]).copied().collect()
    }
}

/// Enumerates the covering sequences of `g` under SRW(d) — the machinery
/// shared by Algorithm 2 (α = number of sequences) and Algorithm 3 (CSS
/// sums π_e over exactly these sequences). `None` unless `1 ≤ d ≤ k` and
/// `g` is connected.
///
/// Adjacent subsets share d − 1 nodes, so each step adds at most one
/// node, and the l − 1 steps from a d-subset reach all k = d + l − 1
/// nodes only if every step adds one. The depth-first search therefore
/// extends a sequence only by an adjacent subset holding an uncovered
/// node. Such a subset cannot repeat an earlier one (those are covered),
/// so the states are distinct as Algorithm 2 requires, and every
/// sequence that reaches length l covers g. Candidates are taken in
/// ascending subset order, which lists the sequences lexicographically.
pub fn covering_sequences(g: &SmallGraph, d: usize) -> Option<CoveringSequences> {
    let k = g.k();
    if !(1..=k).contains(&d) || !g.is_connected() {
        return None;
    }
    let l = k - d + 1;
    let mut nbrs = [0u8; MAX_K];
    for (i, n) in nbrs.iter_mut().enumerate().take(k) {
        *n = g.neighbors_bits(i);
    }
    let nbrs = &nbrs[..k];
    let subsets: Vec<u8> = (0..1u16 << k)
        .map(|bits| bits as u8)
        .filter(|&bits| bits.count_ones() as usize == d && subset_connected(nbrs, bits))
        .collect();
    // `adj[i]`: the subsets adjacent to subset i in the relationship
    // graph; `holding[v]`: the subsets that hold node v.
    let mut adj = [0u64; MAX_SUBSETS];
    let mut holding = [0u64; MAX_K];
    for (i, &a) in subsets.iter().enumerate() {
        for (v, h) in holding.iter_mut().enumerate().take(k) {
            if a & (1 << v) != 0 {
                *h |= 1 << i;
            }
        }
        for (j, &b) in subsets.iter().enumerate().skip(i + 1) {
            let adjacent = if d == 1 {
                nbrs[a.trailing_zeros() as usize] & b != 0
            } else {
                (a & b).count_ones() as usize == d - 1
            };
            if adjacent {
                adj[i] |= 1 << j;
                adj[j] |= 1 << i;
            }
        }
    }
    let full: u8 = ((1u16 << k) - 1) as u8;
    // The subsets that would add a node to `covered`.
    let growing = |covered: u8| {
        let mut rest = full & !covered;
        let mut out = 0u64;
        while rest != 0 {
            out |= holding[rest.trailing_zeros() as usize];
            rest &= rest - 1;
        }
        out
    };
    // The search stack, one level per sequence position: the subset
    // taken, the nodes covered through it, and the candidates not yet
    // tried for the next position.
    let (mut seq, mut covered, mut untried) = ([0u8; MAX_K], [0u8; MAX_K], [0u64; MAX_K]);
    let mut sequences = Vec::new();
    for (start, &bits) in subsets.iter().enumerate() {
        if l == 1 {
            sequences.push(start as u8);
            continue;
        }
        (seq[0], covered[0], untried[1]) = (start as u8, bits, adj[start] & growing(bits));
        let mut depth = 1;
        while depth > 0 {
            if untried[depth] == 0 {
                depth -= 1;
                continue;
            }
            let j = untried[depth].trailing_zeros() as usize;
            untried[depth] &= untried[depth] - 1;
            seq[depth] = j as u8;
            if depth + 1 == l {
                sequences.extend_from_slice(&seq[..l]);
                continue;
            }
            covered[depth] = covered[depth - 1] | subsets[j];
            untried[depth + 1] = adj[j] & growing(covered[depth]);
            depth += 1;
        }
    }
    Some(CoveringSequences { subsets, sequences, l })
}

/// α for graphlet `g` under SRW(d). `1 ≤ d ≤ k`; `d = k` gives l = 1 and
/// α = 1 for every connected g (the single state covering g).
///
/// # Panics
///
/// If `d` is outside `1..=k` or `g` is disconnected.
pub fn alpha(g: &SmallGraph, d: usize) -> u64 {
    match covering_sequences(g, d) {
        Some(cover) => cover.count() as u64,
        // gx-lint: allow(panic_surface) -- documented precondition of a public fn, pinned by `alpha_rejects_bad_d` and `alpha_rejects_disconnected`; `covering_sequences` is the typed form
        None => panic!("alpha: d={d} must be in 1..=k={} and the graph connected", g.k()),
    }
}

/// α for every k-node graphlet type in paper order, under SRW(d). Cached.
///
/// # Panics
///
/// Unless `3 ≤ k ≤ 6` and `1 ≤ d ≤ k`.
pub fn alpha_table(k: usize, d: usize) -> &'static [u64] {
    static TABLES: [[OnceLock<Vec<u64>>; 7]; 7] = [const { [const { OnceLock::new() }; 7] }; 7];
    // gx-lint: allow(panic_surface) -- documented precondition, like an index out of range; in-tree callers pass a (k, d) checked by `EstimatorConfig::try_validate` or literals
    assert!((3..=6).contains(&k) && (1..=k).contains(&d), "alpha_table: k={k}, d={d} unsupported");
    TABLES[k][d].get_or_init(|| {
        atlas(k)
            .iter()
            .map(|info| alpha(&SmallGraph::from_mask(k, info.canonical_mask), d))
            .collect()
    })
}

/// α for one graphlet id under SRW(d).
pub fn alpha_of(id: GraphletId, d: usize) -> u64 {
    alpha_table(id.k as usize, d)[id.index as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::canon_table;

    /// Table 2 of the paper, times two (the paper lists α/2): 3-node
    /// graphlets (wedge, triangle) under SRW(1..3).
    #[test]
    fn table2_three_node_alphas_match_paper() {
        assert_eq!(alpha_table(3, 1), &[2, 6]);
        assert_eq!(alpha_table(3, 2), &[2, 6]);
        assert_eq!(alpha_table(3, 3), &[1, 1]);
    }

    /// Table 2 of the paper, times two: 4-node graphlets under SRW(1..3).
    #[test]
    fn table2_four_node_alphas_match_paper() {
        assert_eq!(alpha_table(4, 1), &[2, 0, 8, 4, 12, 24]);
        assert_eq!(alpha_table(4, 2), &[2, 6, 8, 10, 24, 48]);
        assert_eq!(alpha_table(4, 3), &[2, 6, 12, 6, 12, 12]);
    }

    /// Table 3 of the paper, times two: all 21 five-node graphlets under
    /// SRW(1..4). This test *pins the paper's column ordering*: each
    /// column's (SRW1..SRW4) α-vector is unique, so a wrong
    /// `PAPER_TO_CANON_5` permutation cannot pass. On failure the error
    /// message prints the permutation that would make it pass.
    #[test]
    fn table3_five_node_alphas_match_paper() {
        // Paper Table 3 (α/2), columns 1..21, rows SRW(1..4).
        //
        // ERRATUM (documented in EXPERIMENTS.md): the published SRW(4) row
        // reads 12 in columns 8, 9, 10, 11 and 15. Those are exactly the
        // five graphlets with |S| = 4 connected 4-node subgraphs, for
        // which the paper's own PSRW closed form (Appendix B:
        // α = (|S|−1)·|S|) gives α = 12, i.e. α/2 = 6 — the published
        // cells list α instead of α/2 (for every |S| = 5 column the table
        // correctly lists (|S|−1)|S|/2 = 10). The row below carries the
        // corrected value 6; `table3_published_srw4_cells_are_alpha_not_half`
        // pins the relationship to the published 12s.
        const TABLE3_HALF: [[u64; 21]; 4] = [
            [1, 0, 0, 1, 2, 0, 5, 2, 2, 4, 4, 6, 7, 6, 6, 10, 14, 18, 24, 36, 60],
            [1, 2, 12, 5, 4, 16, 5, 6, 24, 24, 12, 18, 15, 54, 36, 42, 34, 82, 76, 144, 240],
            [1, 5, 24, 8, 5, 24, 5, 16, 30, 24, 16, 63, 26, 63, 30, 43, 63, 63, 90, 90, 90],
            [1, 3, 6, 3, 3, 6, 10, 6, 6, 6, 6, 10, 10, 10, 6, 10, 10, 10, 10, 10, 10],
        ];
        // Vector per paper column.
        let want: Vec<[u64; 4]> = (0..21)
            .map(|c| {
                [
                    2 * TABLE3_HALF[0][c],
                    2 * TABLE3_HALF[1][c],
                    2 * TABLE3_HALF[2][c],
                    2 * TABLE3_HALF[3][c],
                ]
            })
            .collect();
        // Vector per canonical class.
        let t = canon_table(5);
        let got: Vec<[u64; 4]> = (0..21)
            .map(|i| {
                let g = SmallGraph::from_mask(5, t.representative(i));
                [alpha(&g, 1), alpha(&g, 2), alpha(&g, 3), alpha(&g, 4)]
            })
            .collect();
        // Derive the permutation paper -> canonical by unique matching.
        let mut derived = [usize::MAX; 21];
        for (paper_idx, w) in want.iter().enumerate() {
            let matches: Vec<usize> = (0..21).filter(|&i| &got[i] == w).collect();
            assert_eq!(
                matches.len(),
                1,
                "paper column {} (α-vector {:?}) matches canonical classes {:?}; \
                 expected exactly one",
                paper_idx + 1,
                w,
                matches
            );
            derived[paper_idx] = matches[0];
        }
        assert_eq!(
            crate::atlas::PAPER_TO_CANON_5.as_slice(),
            derived.as_slice(),
            "PAPER_TO_CANON_5 must be {derived:?}"
        );
        // And the atlas-facing table must therefore equal the paper's.
        for d in 1..=4 {
            let table = alpha_table(5, d);
            for c in 0..21 {
                assert_eq!(table[c], 2 * TABLE3_HALF[d - 1][c], "d={d} col={}", c + 1);
            }
        }
    }

    /// The five published Table-3 SRW(4) cells that read 12 are α, not
    /// α/2: each of those graphlets has exactly |S| = 4 connected 4-node
    /// subgraphs, so α = (|S|−1)|S| = 12 by the paper's own PSRW formula.
    #[test]
    fn table3_published_srw4_cells_are_alpha_not_half() {
        // paper columns (1-based): banner 8, dart 9, bowtie 10, kite 11,
        // tailed-clique 15.
        for paper_col in [8usize, 9, 10, 11, 15] {
            let a = alpha_table(5, 4)[paper_col - 1];
            assert_eq!(a, 12, "α itself equals the published cell");
            assert_eq!(a / 2, 6, "the corrected α/2 value");
        }
        // Sanity: every non-erratum PSRW cell satisfies α = (|S|−1)|S|
        // with integral |S| ∈ {2,...,5}.
        for (c, &a) in alpha_table(5, 4).iter().enumerate() {
            let s = (1.0 + (1.0 + 4.0 * a as f64).sqrt()) / 2.0;
            assert!(
                (s - s.round()).abs() < 1e-9 && (2.0..=5.0).contains(&s),
                "column {}: α = {a} is not (s−1)s for integral s",
                c + 1
            );
        }
    }

    #[test]
    fn flat_interiors_matches_nested_layout() {
        // Tailed triangle under SRW(2): l = 3, stride 1, α = 10 interiors.
        let tt = SmallGraph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let cover = covering_sequences(&tt, 2).unwrap();
        let flat = cover.flat_interiors();
        assert_eq!(flat.len(), cover.count());
        for (chunk, seq) in flat.chunks_exact(1).zip(cover.iter()) {
            assert_eq!(chunk, &seq[1..2]);
        }
        // l = 2 (PSRW) and l = 1 have no interiors.
        assert!(covering_sequences(&tt, 3).unwrap().flat_interiors().is_empty());
        let tri = SmallGraph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        assert!(covering_sequences(&tri, 3).unwrap().flat_interiors().is_empty());
        // k = 5, d = 2: l = 4, stride 2.
        let k5 = SmallGraph::from_mask(5, (1 << 10) - 1);
        let cover5 = covering_sequences(&k5, 2).unwrap();
        let flat5 = cover5.flat_interiors();
        assert_eq!(flat5.len(), 2 * cover5.count());
        for (chunk, seq) in flat5.chunks_exact(2).zip(cover5.iter()) {
            assert_eq!(chunk, &seq[1..3]);
        }
    }

    /// The per-sequence-allocating enumerator the stack search replaced,
    /// kept as its oracle: the connected d-subsets in ascending order and
    /// every covering sequence in lexicographic order.
    fn covering_sequences_oracle(g: &SmallGraph, d: usize) -> (Vec<u8>, Vec<Vec<u8>>) {
        let k = g.k();
        let connected = |bits: u8| {
            let mut reached: u8 = 1 << bits.trailing_zeros();
            loop {
                let mut next = reached;
                for i in 0..k {
                    if reached & (1 << i) != 0 {
                        next |= g.neighbors_bits(i) & bits;
                    }
                }
                if next == reached {
                    return reached == bits;
                }
                reached = next;
            }
        };
        let subs: Vec<u8> = (0u8..(1u16 << k) as u8)
            .filter(|&b| b.count_ones() as usize == d && connected(b))
            .collect();
        let adjacent = |a: u8, b: u8| {
            if d == 1 {
                g.has_edge(a.trailing_zeros() as usize, b.trailing_zeros() as usize)
            } else {
                (a & b).count_ones() as usize == d - 1
            }
        };
        let (l, full) = (k - d + 1, ((1u16 << k) - 1) as u8);
        let mut out = Vec::new();
        let mut stack: Vec<Vec<u8>> = (0..subs.len() as u8).rev().map(|s| vec![s]).collect();
        while let Some(seq) = stack.pop() {
            let covered = seq.iter().fold(0u8, |acc, &i| acc | subs[i as usize]);
            if seq.len() == l {
                if covered == full {
                    out.push(seq);
                }
                continue;
            }
            let last = subs[*seq.last().unwrap() as usize];
            for j in (0..subs.len() as u8).rev() {
                if !seq.contains(&j) && adjacent(last, subs[j as usize]) {
                    let mut next = seq.clone();
                    next.push(j);
                    stack.push(next);
                }
            }
        }
        (subs, out)
    }

    fn assert_matches_oracle(k: usize, mask: u32) {
        let g = SmallGraph::from_mask(k, mask);
        for d in 1..=k {
            let got = covering_sequences(&g, d);
            if !g.is_connected() {
                assert!(got.is_none(), "k={k} mask {mask:#x}");
                continue;
            }
            let got = got.unwrap();
            let (subsets, sequences) = covering_sequences_oracle(&g, d);
            assert_eq!(got.subsets, subsets, "k={k} d={d} mask {mask:#x}");
            assert_eq!(got.iter().collect::<Vec<_>>(), sequences, "k={k} d={d} mask {mask:#x}");
        }
    }

    /// Every mask for k ≤ 5, every 41st mask for k = 6, every d: the
    /// same subsets and the same sequences in the same order.
    #[test]
    fn covering_sequences_match_oracle() {
        for k in 1..=5 {
            for mask in 0..1u32 << crate::mask::num_pairs(k) {
                assert_matches_oracle(k, mask);
            }
        }
        for mask in (0..1u32 << 15).step_by(41) {
            assert_matches_oracle(6, mask);
        }
        assert!(covering_sequences(&SmallGraph::from_mask(4, 0b111), 0).is_none());
        assert!(covering_sequences(&SmallGraph::from_mask(4, 0b111), 5).is_none());
    }

    #[test]
    fn alpha_hand_checked_cases() {
        // Triangle under SRW(1): all 6 node orderings traverse it.
        let tri = SmallGraph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(alpha(&tri, 1), 6);
        // Wedge under SRW(1): 2 orderings (each end to the other).
        let wedge = SmallGraph::from_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(alpha(&wedge, 1), 2);
        // 3-star under SRW(1): no Hamilton path.
        let star = SmallGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(alpha(&star, 1), 0);
        // K5 under SRW(4): 5 K4-subgraphs, all pairs share 3 nodes, any
        // ordered pair covers 5 nodes: 5 * 4 = 20.
        let k5 = SmallGraph::from_mask(5, (1 << 10) - 1);
        assert_eq!(alpha(&k5, 4), 20);
        // d = k: the single full state, α = 1.
        assert_eq!(alpha(&k5, 5), 1);
        assert_eq!(alpha(&tri, 3), 1);
    }

    #[test]
    fn alpha_tailed_triangle_worked_example() {
        // Worked in DESIGN review: tailed triangle under SRW(2) has α = 10
        // (paper Table 2: α/2 = 5).
        let tt = SmallGraph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        assert_eq!(alpha(&tt, 2), 10);
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn alpha_rejects_disconnected() {
        let g = SmallGraph::from_edges(4, &[(0, 1), (2, 3)]);
        let _ = alpha(&g, 1);
    }

    #[test]
    #[should_panic(expected = "must be in")]
    fn alpha_rejects_bad_d() {
        let tri = SmallGraph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let _ = alpha(&tri, 4);
    }

    #[test]
    fn alpha_of_uses_paper_ordering() {
        use crate::GraphletId;
        // g4_2 is the 3-star; under SRW(1) it cannot be sampled.
        assert_eq!(alpha_of(GraphletId::new(4, 1), 1), 0);
        // g4_6 is the clique; Table 2: α/2 = 24 under SRW(2).
        assert_eq!(alpha_of(GraphletId::new(4, 5), 2), 48);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::mask::permutations;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// α is an isomorphism invariant.
        #[test]
        fn alpha_invariant_under_relabeling(
            mask in 0u32..1024,
            perm_seed in 0usize..120,
            d in 1usize..=4,
        ) {
            let g = SmallGraph::from_mask(5, mask);
            prop_assume!(g.is_connected());
            let perm: Vec<usize> = permutations(5).nth(perm_seed).unwrap().to_vec();
            let h = g.permute(&perm);
            prop_assert_eq!(alpha(&g, d), alpha(&h, d));
        }
    }
}
