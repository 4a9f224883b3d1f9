//! Classifying concrete node sets of a host graph.

use crate::atlas::canon_to_paper;
use crate::canon::canon_table;
use crate::mask::{num_pairs, pair_index, SmallGraph};
use crate::GraphletId;
use gx_graph::{GraphAccess, NodeId};
use std::sync::OnceLock;

/// Edge bitmask of the subgraph induced by `nodes` in `g` (pair layout of
/// [`crate::mask`]). `nodes` must be distinct; order defines the labeling.
pub fn induced_mask<G: GraphAccess>(g: &G, nodes: &[NodeId]) -> u32 {
    let k = nodes.len();
    let mut mask = 0u32;
    for i in 0..k {
        for j in (i + 1)..k {
            debug_assert_ne!(nodes[i], nodes[j], "induced_mask: duplicate node");
            if g.has_edge(nodes[i], nodes[j]) {
                mask |= 1 << pair_index(i, j, k);
            }
        }
    }
    mask
}

/// Sentinel for disconnected masks in [`classify_table`].
pub const NOT_A_GRAPHLET: u8 = u8::MAX;

/// The dense `mask → paper graphlet index` table for `k` in `3..=6`:
/// `table[mask]` is the 0-based paper index, or [`NOT_A_GRAPHLET`] for a
/// disconnected mask (2^C(k,2) bytes: 1 KB at k = 5, 32 KB at k = 6).
/// `None` for any other `k`. Fuses the two lookups of the canonical path
/// (`canon_table` + `canon_to_paper`) into one byte load, built once per
/// process from the orbit-built canonical table.
///
/// Exposed so per-step hot loops can resolve the `OnceLock` once and
/// classify with a single byte load per sample afterwards.
pub fn classify_table(k: usize) -> Option<&'static [u8]> {
    static TABLES: [OnceLock<Vec<u8>>; 7] = [const { OnceLock::new() }; 7];
    if !(3..=6).contains(&k) {
        return None;
    }
    let table = TABLES[k].get_or_init(|| {
        let canon = canon_table(k);
        let paper = canon_to_paper(k);
        (0..1u32 << num_pairs(k))
            .map(|mask| canon.class_of(mask).map_or(NOT_A_GRAPHLET, |c| paper[c]))
            .collect()
    });
    Some(table)
}

/// Classifies an edge mask on `k` labeled nodes with one lookup in
/// [`classify_table`]. Returns `None` for disconnected subgraphs (which
/// are not graphlets), and for a `k` outside `3..=6`.
#[inline]
pub fn classify_mask(k: usize, mask: u32) -> Option<GraphletId> {
    let index = *classify_table(k)?.get(mask as usize)?;
    (index != NOT_A_GRAPHLET).then_some(GraphletId { k: k as u8, index })
}

/// Classifies the subgraph induced by `nodes` (distinct) in `g`.
pub fn classify_nodes<G: GraphAccess>(g: &G, nodes: &[NodeId]) -> Option<GraphletId> {
    classify_mask(nodes.len(), induced_mask(g, nodes))
}

/// Classifies a [`SmallGraph`] directly.
pub fn classify_small(g: &SmallGraph) -> Option<GraphletId> {
    classify_mask(g.k(), g.mask())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gx_graph::generators::classic;
    use gx_graph::Graph;

    #[test]
    fn figure1_worked_examples() {
        // Paper §2.1: G of Figure 1 has two triangles ({1,3,4}, {1,2,3})
        // and two wedges ({4,1,2}, {2,3,4}); 0-based: nodes shifted by -1.
        let g = classic::paper_figure1();
        let triangle = GraphletId::new(3, 1);
        let wedge = GraphletId::new(3, 0);
        assert_eq!(classify_nodes(&g, &[0, 2, 3]), Some(triangle));
        assert_eq!(classify_nodes(&g, &[0, 1, 2]), Some(triangle));
        assert_eq!(classify_nodes(&g, &[3, 0, 1]), Some(wedge));
        assert_eq!(classify_nodes(&g, &[1, 2, 3]), Some(wedge));
    }

    #[test]
    fn figure1_four_node_sample_is_chordal_cycle() {
        // Paper §3.1 example (b): the walk on G(2) visiting states
        // (1,2) -> (1,3) -> (3,4) yields the sample {1,2,3,4}, identified
        // as g4_5 (chordal-cycle).
        let g = classic::paper_figure1();
        assert_eq!(classify_nodes(&g, &[0, 1, 2, 3]), Some(GraphletId::new(4, 4)));
        assert_eq!(GraphletId::new(4, 4).name(), "chordal-cycle");
    }

    #[test]
    fn classify_handles_disconnected() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert_eq!(classify_nodes(&g, &[0, 1, 2, 3]), None);
        assert_eq!(classify_nodes(&g, &[0, 1, 2]), None);
    }

    #[test]
    fn order_of_nodes_does_not_matter() {
        let g = classic::petersen();
        let nodes = [0u32, 1, 2, 5];
        let base = classify_nodes(&g, &nodes);
        assert!(base.is_some());
        let mut perm = nodes;
        perm.reverse();
        assert_eq!(classify_nodes(&g, &perm), base);
    }

    #[test]
    fn cliques_classify_as_cliques() {
        let k5 = classic::complete(5);
        assert_eq!(classify_nodes(&k5, &[0, 1, 2, 3]), Some(GraphletId::new(4, 5)));
        assert_eq!(classify_nodes(&k5, &[0, 1, 2, 3, 4]), Some(GraphletId::new(5, 20)));
        assert_eq!(classify_nodes(&k5, &[0, 1, 2]), Some(GraphletId::new(3, 1)));
    }

    #[test]
    fn cycles_classify_as_cycles() {
        let c4 = classic::cycle(4);
        assert_eq!(classify_nodes(&c4, &[0, 1, 2, 3]), Some(GraphletId::new(4, 2)));
        let c5 = classic::cycle(5);
        let five = classify_nodes(&c5, &[0, 1, 2, 3, 4]).unwrap();
        // 5-cycle: the unique 5-node graphlet with all degrees 2.
        let info = &crate::atlas::atlas(5)[five.index as usize];
        assert_eq!(info.degree_sequence, vec![2, 2, 2, 2, 2]);
    }

    #[test]
    fn classify_small_agrees_with_mask_path() {
        for mask in 0u32..64 {
            let g = SmallGraph::from_mask(4, mask);
            assert_eq!(classify_small(&g), classify_mask(4, mask));
        }
    }

    #[test]
    fn fused_table_agrees_with_canonical_path_for_all_masks() {
        for k in 3..=5usize {
            for mask in 0u32..1 << crate::mask::num_pairs(k) {
                let fused = classify_mask(k, mask);
                let canonical = crate::canon::canon_table(k)
                    .class_of(mask)
                    .map(|c| GraphletId { k: k as u8, index: crate::atlas::canon_to_paper(k)[c] });
                assert_eq!(fused, canonical, "k={k} mask={mask:#x}");
            }
        }
    }

    /// k = 6 classifies through the dense table too, and its indices are
    /// the canonical class order.
    #[test]
    fn six_node_table_indices_are_canonical_order() {
        let canon = crate::canon::canon_table(6);
        let table = classify_table(6).expect("k = 6 has a dense table");
        assert_eq!(table.len(), 1 << 15);
        for (mask, &index) in (0u32..).zip(table) {
            let want = canon.class_of(mask).map_or(NOT_A_GRAPHLET, |c| c as u8);
            assert_eq!(index, want, "mask {mask:#x}");
        }
        assert!(classify_table(2).is_none() && classify_table(7).is_none());
        assert_eq!(classify_mask(7, 0), None);
    }

    #[test]
    fn induced_mask_respects_labeling_order() {
        let g = classic::path(3); // 0-1-2

        // ordering [0,1,2]: edges (0,1),(1,2) -> wedge centered at label 1
        let m = induced_mask(&g, &[0, 1, 2]);
        let sg = SmallGraph::from_mask(3, m);
        assert!(sg.has_edge(0, 1) && sg.has_edge(1, 2) && !sg.has_edge(0, 2));
        // ordering [0,2,1]: center is now label 2
        let m = induced_mask(&g, &[0, 2, 1]);
        let sg = SmallGraph::from_mask(3, m);
        assert!(sg.has_edge(0, 2) && sg.has_edge(1, 2) && !sg.has_edge(0, 1));
    }
}
