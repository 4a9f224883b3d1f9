//! Graphlet taxonomy for the `graphlet-rw` workspace.
//!
//! Graphlets are connected, non-isomorphic, induced subgraphs (paper
//! Definition 1). This crate owns everything about *identifying* them:
//!
//! * [`mask`] — small graphs on k ≤ 7 nodes as edge bitmasks;
//! * [`canon`] — exact classification tables built once per isomorphism
//!   orbit: k! relabelings per orbit, every mask of the orbit labeled in
//!   the same pass (k = 1..6);
//! * [`mod@atlas`] — the catalogue of graphlet types, ordered to match the
//!   paper's Figure 2 (k = 3, 4) and Table 3 (k = 5), with names, canonical
//!   edge lists and degree sequences;
//! * [`classify`] — classifying a concrete node set of a host graph;
//! * [`signature`] — the degree-signature fast path described in the
//!   paper's §5 (after GUISE \[6\]), kept as an independently-implemented
//!   classifier that the tests cross-validate against the canonical tables.
//!
//! There are 2 three-node, 6 four-node, 21 five-node and 112 six-node
//! graphlets; all four counts are asserted in tests.

pub mod alpha;
pub mod atlas;
pub mod canon;
pub mod classify;
pub mod mask;
pub mod signature;

pub use atlas::{atlas, GraphletInfo};
pub use classify::{classify_mask, classify_nodes, classify_table, induced_mask, NOT_A_GRAPHLET};
pub use mask::SmallGraph;

/// Identifies a graphlet type: `k` nodes, `index` in the paper's ordering
/// (0-based: the paper's g³₁ is `GraphletId { k: 3, index: 0 }`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GraphletId {
    /// Number of nodes (3..=6 supported).
    pub k: u8,
    /// 0-based index within the k-node graphlets, paper ordering.
    pub index: u8,
}

impl GraphletId {
    /// Construct, asserting the index is in range for `k`.
    pub fn new(k: u8, index: u8) -> Self {
        assert!(
            (index as usize) < num_graphlets(k as usize),
            "graphlet index {index} out of range for k={k}"
        );
        Self { k, index }
    }

    /// Human-readable name (e.g. "triangle", "4-path"); `g6_17`-style names
    /// for k = 6 where the paper assigns none.
    pub fn name(&self) -> &'static str {
        atlas::atlas(self.k as usize)[self.index as usize].name
    }
}

impl std::fmt::Display for GraphletId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{}_{}", self.k, self.index + 1)
    }
}

/// Number of distinct k-node graphlets (k = 1..=6).
pub fn num_graphlets(k: usize) -> usize {
    match k {
        1 => 1,
        2 => 1,
        3 => 2,
        4 => 6,
        5 => 21,
        6 => 112,
        _ => panic!("num_graphlets: k={k} unsupported (1..=6)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_display_uses_one_based_paper_numbering() {
        let id = GraphletId::new(3, 1);
        assert_eq!(id.to_string(), "g3_2");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn id_rejects_out_of_range() {
        let _ = GraphletId::new(4, 6);
    }

    #[test]
    fn graphlet_counts_match_the_paper() {
        // §2.1: "There are 2 different 3-node graphlets and 6 different
        // 4-node graphlets... 21 different 5-node graphlets... 112
        // different 6-node graphlets".
        assert_eq!(num_graphlets(3), 2);
        assert_eq!(num_graphlets(4), 6);
        assert_eq!(num_graphlets(5), 21);
        assert_eq!(num_graphlets(6), 112);
    }

    #[test]
    #[should_panic(expected = "unsupported")]
    fn k7_is_rejected() {
        num_graphlets(7);
    }
}
