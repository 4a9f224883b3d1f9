//! The graphlet catalogue, ordered as in the paper.
//!
//! * k = 3, 4: Figure 2 of the paper fixes the order (wedge, triangle;
//!   4-path, 3-star, cycle, tailed-triangle, chordal-cycle, clique). We
//!   hardcode those edge lists directly.
//! * k = 5: Table 3 fixes the order through its shape row, which we cannot
//!   see in text form — but the table's α-coefficient columns pin it down
//!   uniquely: the (SRW1..SRW4) α-vector of every 5-node graphlet is
//!   distinct. `PAPER_TO_CANON_5` stores the resulting permutation from
//!   paper index to canonical class index; the `gx-graphlets` test
//!   `alpha::tests::table3_five_node_alphas_match_paper` recomputes every α
//!   with Algorithm 2 and verifies the assignment, so a wrong permutation
//!   cannot survive the test suite.
//! * k = 6: the paper assigns no order; canonical order is used.

use crate::canon::canon_table;
use crate::mask::SmallGraph;
use crate::{num_graphlets, GraphletId};
use std::sync::OnceLock;

/// Static description of one graphlet type.
#[derive(Debug, Clone)]
pub struct GraphletInfo {
    /// Identifier (paper ordering).
    pub id: GraphletId,
    /// Human-readable name.
    pub name: &'static str,
    /// Edge list of a canonical representative labeling.
    pub edges: Vec<(u8, u8)>,
    /// Canonical mask of the class (see [`crate::mask`]).
    pub canonical_mask: u32,
    /// Ascending degree sequence.
    pub degree_sequence: Vec<u8>,
    /// Number of edges.
    pub num_edges: usize,
}

/// Paper-ordered edge lists for the 3-node graphlets (Figure 2).
const PAPER_3: [(&str, &[(u8, u8)]); 2] =
    [("wedge", &[(0, 1), (1, 2)]), ("triangle", &[(0, 1), (1, 2), (0, 2)])];

/// Paper-ordered edge lists for the 4-node graphlets (Figure 2).
const PAPER_4: [(&str, &[(u8, u8)]); 6] = [
    ("4-path", &[(0, 1), (1, 2), (2, 3)]),
    ("3-star", &[(0, 1), (0, 2), (0, 3)]),
    ("4-cycle", &[(0, 1), (1, 2), (2, 3), (3, 0)]),
    ("tailed-triangle", &[(0, 1), (1, 2), (0, 2), (2, 3)]),
    ("chordal-cycle", &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
    ("4-clique", &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
];

/// Permutation from paper index (Table 3 column, 0-based) to canonical
/// class index for 5-node graphlets. Derived by matching Algorithm-2 α
/// vectors against Table 3 (unique match per column on the SRW(1..3)
/// rows); verified by the alpha test suite.
pub(crate) const PAPER_TO_CANON_5: [usize; 21] =
    [2, 1, 0, 4, 6, 3, 7, 5, 8, 11, 10, 9, 12, 13, 14, 15, 16, 17, 18, 19, 20];

/// Names for the 5-node graphlets in paper (Table 3) order. Standard names
/// from the graphlet-counting literature where they exist:
/// fork = star with one subdivided edge; bull = triangle with pendants on
/// two vertices; tadpole = triangle with a 2-path tail; cricket = triangle
/// with two pendants on one vertex; banner = 4-cycle with a pendant;
/// dart = chordal-cycle with a pendant on a degree-3 vertex; kite = the
/// same with the pendant on a degree-2 vertex; 3-book = three triangles
/// sharing an edge; gem = 4-path plus a dominating vertex;
/// subdivided-k4 = K4 with one edge subdivided (≅ 4-wheel minus a spoke);
/// k5-minus-p3 = K5 minus two adjacent edges; k5-minus-e = K5 minus one
/// edge.
pub(crate) const NAMES_5: [&str; 21] = [
    "5-path",
    "fork",
    "4-star",
    "bull",
    "tadpole",
    "cricket",
    "5-cycle",
    "banner",
    "dart",
    "bowtie",
    "kite",
    "k2-3",
    "house",
    "3-book",
    "tailed-clique",
    "gem",
    "subdivided-k4",
    "k5-minus-p3",
    "4-wheel",
    "k5-minus-e",
    "5-clique",
];

fn build_atlas(k: usize) -> Vec<GraphletInfo> {
    let table = canon_table(k);
    debug_assert_eq!(table.num_classes(), num_graphlets(k));
    let make = |index: usize, name: &'static str, rep: SmallGraph, canonical_mask| GraphletInfo {
        id: GraphletId { k: k as u8, index: index as u8 },
        name,
        edges: rep.edges(),
        canonical_mask,
        degree_sequence: rep.degree_sequence(),
        num_edges: rep.num_edges(),
    };
    // k = 5 and 6 take the class representatives themselves, which are
    // canonical by construction.
    let class = |index: usize, name: &'static str, canon_idx: usize| {
        let mask = table.representative(canon_idx);
        make(index, name, SmallGraph::from_mask(k, mask), mask)
    };
    match k {
        3 | 4 => {
            let paper: &[(&str, &[(u8, u8)])] = if k == 3 { &PAPER_3 } else { &PAPER_4 };
            paper
                .iter()
                .enumerate()
                .map(|(i, &(name, edges))| {
                    let rep = SmallGraph::from_edges(k, edges);
                    make(i, name, rep, rep.canonical_mask())
                })
                .collect()
        }
        5 => PAPER_TO_CANON_5
            .iter()
            .enumerate()
            .map(|(paper_idx, &canon_idx)| class(paper_idx, NAMES_5[paper_idx], canon_idx))
            .collect(),
        // k = 6 (`atlas` admits nothing else): canonical order.
        _ => (0..table.num_classes())
            .map(|i| class(i, Box::leak(format!("g6_{}", i + 1).into_boxed_str()), i))
            .collect(),
    }
}

/// The paper-ordered atlas for `k`, built on first use and cached.
///
/// # Panics
///
/// If `k` is outside `3..=6`.
pub fn atlas(k: usize) -> &'static [GraphletInfo] {
    static ATLASES: [OnceLock<Vec<GraphletInfo>>; 7] = [const { OnceLock::new() }; 7];
    // gx-lint: allow(panic_surface) -- documented precondition, like an index out of range; in-tree callers pass a k checked by `EstimatorConfig::try_validate` or a literal
    assert!((3..=6).contains(&k), "atlas: k={k} unsupported (3..=6)");
    ATLASES[k].get_or_init(|| build_atlas(k))
}

/// Maps a canonical class index to the paper index for `k` (3..=6). The
/// atlas holds one entry per class, so the map is a bijection
/// (`canon_to_paper_is_a_bijection`).
pub(crate) fn canon_to_paper(k: usize) -> &'static [u8] {
    static MAPS: [OnceLock<Vec<u8>>; 7] = [const { OnceLock::new() }; 7];
    MAPS[k].get_or_init(|| {
        let table = canon_table(k);
        let mut map = vec![u8::MAX; table.num_classes()];
        for info in atlas(k) {
            if let Some(canon_idx) = table.class_of(info.canonical_mask) {
                map[canon_idx] = info.id.index;
            }
        }
        debug_assert!(map.iter().all(|&x| x != u8::MAX), "atlas(k={k}) misses a class");
        map
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_figure2_degree_sequences() {
        let a = atlas(4);
        assert_eq!(a[0].degree_sequence, vec![1, 1, 2, 2]); // 4-path
        assert_eq!(a[1].degree_sequence, vec![1, 1, 1, 3]); // 3-star
        assert_eq!(a[2].degree_sequence, vec![2, 2, 2, 2]); // cycle
        assert_eq!(a[3].degree_sequence, vec![1, 2, 2, 3]); // tailed-triangle
        assert_eq!(a[4].degree_sequence, vec![2, 2, 3, 3]); // chordal-cycle
        assert_eq!(a[5].degree_sequence, vec![3, 3, 3, 3]); // clique
    }

    #[test]
    fn three_node_atlas() {
        let a = atlas(3);
        assert_eq!(a[0].name, "wedge");
        assert_eq!(a[0].num_edges, 2);
        assert_eq!(a[1].name, "triangle");
        assert_eq!(a[1].num_edges, 3);
    }

    #[test]
    fn atlas_entries_are_distinct_classes() {
        for k in 3..=6 {
            let masks: std::collections::HashSet<u32> =
                atlas(k).iter().map(|i| i.canonical_mask).collect();
            assert_eq!(masks.len(), num_graphlets(k));
        }
    }

    #[test]
    fn canon_to_paper_is_a_bijection() {
        for k in 3..=6 {
            let map = canon_to_paper(k);
            let mut seen: Vec<bool> = vec![false; map.len()];
            for &p in map {
                assert!(!seen[p as usize]);
                seen[p as usize] = true;
            }
        }
    }

    #[test]
    fn ids_and_names_line_up() {
        for k in 3..=5 {
            for (i, info) in atlas(k).iter().enumerate() {
                assert_eq!(info.id, GraphletId::new(k as u8, i as u8));
                assert_eq!(info.id.name(), info.name);
                assert_eq!(info.edges.len(), info.num_edges);
            }
        }
    }

    /// The k = 6 atlas is in canonical order, and every entry's mask is
    /// its own canonical form.
    #[test]
    fn six_node_atlas_is_canonical() {
        let a = atlas(6);
        assert_eq!(a.len(), 112);
        for (i, info) in a.iter().enumerate() {
            let rep = SmallGraph::from_mask(6, info.canonical_mask);
            assert_eq!(rep.canonical_mask(), info.canonical_mask, "g6_{}", i + 1);
            assert_eq!(canon_to_paper(6)[i] as usize, i);
        }
    }

    #[test]
    fn five_node_extremes() {
        let a = atlas(5);
        // Table 3 column 1 is the 5-path (α/2 = 1 under SRW1: unique
        // Hamilton path), column 21 is K5.
        assert_eq!(a[0].num_edges, 4);
        assert_eq!(a[20].num_edges, 10);
        assert_eq!(a[20].degree_sequence, vec![4, 4, 4, 4, 4]);
    }
}
