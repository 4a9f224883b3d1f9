//! Exact classification tables.
//!
//! For each k, a table over all 2^C(k,2) edge masks mapping a labeled
//! induced subgraph to its graphlet class in O(1). The table is built once
//! per process by walking isomorphism orbits: the first mask not yet
//! labeled is relabeled by all k! permutations, the least image is the
//! orbit's canonical mask (the definition of
//! [`SmallGraph::canonical_mask`]), and every image is labeled in the same
//! pass. That costs k! relabelings per orbit — 34 orbits × 120 for k = 5,
//! 156 × 720 for k = 6 — instead of k! per mask — and records which
//! relabeling produced each mask ([`CanonTable::relabeling`]).
//!
//! Classes are numbered here in *canonical order* (ascending edge count,
//! then ascending canonical mask). The [`mod@crate::atlas`] module maps
//! canonical order to the paper's ordering.

use crate::mask::{num_pairs, pair_index, permutation_list, SmallGraph};
use std::sync::OnceLock;

/// Classification table for one k.
pub struct CanonTable {
    /// Node count.
    pub k: usize,
    /// `table[mask]` = canonical class index, or `NONE` if the mask is a
    /// disconnected graph.
    table: Vec<i16>,
    /// Canonical representative mask of each class, in canonical order.
    reps: Vec<u32>,
    /// `perm_of[mask]` indexes [`permutation_list`]: see `relabeling`.
    perm_of: Vec<u16>,
}

const NONE: i16 = -1;

impl CanonTable {
    fn build(k: usize) -> CanonTable {
        let pairs = num_pairs(k);
        // For each permutation, the pair of a mask that lands on each pair
        // of its image (the relabeling of `SmallGraph::permute`).
        let sources: Vec<Vec<u8>> = permutation_list(k)
            .iter()
            .map(|perm| {
                (0..k)
                    .flat_map(|i| ((i + 1)..k).map(move |j| (perm[i], perm[j])))
                    .map(|(a, b)| pair_index(a.min(b), a.max(b), k) as u8)
                    .collect()
            })
            .collect();
        // Label every mask with its orbit and the relabeling that produced
        // it, and note each orbit's canonical mask (its least image) and
        // whether it is connected.
        const UNSEEN: u16 = u16::MAX;
        let mut orbit_of = vec![UNSEEN; 1usize << pairs];
        let mut perm_of = vec![0u16; 1usize << pairs];
        let mut orbits: Vec<(u32, bool)> = Vec::new();
        let mut images: Vec<u32> = Vec::with_capacity(sources.len());
        for m in 0..orbit_of.len() as u32 {
            if orbit_of[m as usize] != UNSEEN {
                continue;
            }
            images.clear();
            images.extend(sources.iter().map(|src| {
                src.iter().enumerate().fold(0u32, |acc, (q, &p)| acc | ((m >> p) & 1) << q)
            }));
            let id = orbits.len() as u16;
            for (p, &image) in images.iter().enumerate() {
                orbit_of[image as usize] = id;
                perm_of[image as usize] = p as u16;
            }
            // Masks go in ascending order, so an orbit's first unseen
            // mask is its least image: the canonical mask.
            orbits.push((m, SmallGraph::from_mask(k, m).is_connected()));
        }
        // Canonical order: ascending (edge count, mask value).
        let mut reps: Vec<u32> =
            orbits.iter().filter(|&&(_, connected)| connected).map(|&(c, _)| c).collect();
        reps.sort_unstable_by_key(|&m| (m.count_ones(), m));
        let class_of_orbit: Vec<i16> = orbits
            .iter()
            .map(|&(c, _)| reps.iter().position(|&r| r == c).map_or(NONE, |i| i as i16))
            .collect();
        let table = orbit_of.into_iter().map(|o| class_of_orbit[o as usize]).collect();
        CanonTable { k, table, reps, perm_of }
    }

    /// Canonical class index of `mask`, or `None` if disconnected.
    #[inline]
    pub fn class_of(&self, mask: u32) -> Option<usize> {
        match self.table[mask as usize] {
            NONE => None,
            c => Some(c as usize),
        }
    }

    /// Number of classes (distinct connected k-node graphs up to
    /// isomorphism).
    pub fn num_classes(&self) -> usize {
        self.reps.len()
    }

    /// Canonical representative mask of class `i`.
    pub fn representative(&self, i: usize) -> u32 {
        self.reps[i]
    }

    /// A `perm` with `representative.permute(perm) == mask` for a
    /// connected `mask`: its node `i` plays the representative's `perm[i]`.
    pub fn relabeling(&self, mask: u32) -> &'static [usize] {
        &permutation_list(self.k)[self.perm_of[mask as usize] as usize]
    }
}

/// The classification table for `k`, built on first use and cached.
///
/// # Panics
///
/// If `k` is outside `1..=6`.
pub fn canon_table(k: usize) -> &'static CanonTable {
    static TABLES: [OnceLock<CanonTable>; 7] = [const { OnceLock::new() }; 7];
    // gx-lint: allow(panic_surface) -- documented precondition, like an index out of range; in-tree callers pass a k checked by `atlas` or `EstimatorConfig::try_validate`
    assert!((1..=6).contains(&k), "canon_table: k={k} unsupported (1..=6)");
    TABLES[k].get_or_init(|| CanonTable::build(k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::permutations;

    #[test]
    fn class_counts_match_known_sequence() {
        // Connected graphs on n nodes up to isomorphism (OEIS A001349):
        // 1, 1, 2, 6, 21, 112.
        assert_eq!(canon_table(1).num_classes(), 1);
        assert_eq!(canon_table(2).num_classes(), 1);
        assert_eq!(canon_table(3).num_classes(), 2);
        assert_eq!(canon_table(4).num_classes(), 6);
        assert_eq!(canon_table(5).num_classes(), 21);
    }

    #[test]
    fn six_node_class_count() {
        assert_eq!(canon_table(6).num_classes(), 112);
    }

    /// The class of `mask` per the definition: the representative of a
    /// connected mask is its own `canonical_mask()`.
    fn assert_table_matches_canonical_mask(k: usize, masks: impl Iterator<Item = u32>) {
        let t = canon_table(k);
        for mask in masks {
            let g = SmallGraph::from_mask(k, mask);
            let want = g.is_connected().then(|| g.canonical_mask());
            assert_eq!(t.class_of(mask).map(|c| t.representative(c)), want, "k={k} mask {mask:#x}");
        }
    }

    #[test]
    fn table_matches_per_mask_canonical_form_through_k5() {
        for k in 1..=5 {
            assert_table_matches_canonical_mask(k, 0..1u32 << num_pairs(k));
        }
    }

    /// Every 7th mask in the debug profile (each check relabels 720
    /// times), every mask in release.
    #[test]
    fn table_matches_per_mask_canonical_form_k6() {
        let stride = if cfg!(debug_assertions) { 7 } else { 1 };
        assert_table_matches_canonical_mask(6, (0..1u32 << 15).step_by(stride));
    }

    /// Every connected mask is its representative relabeled by
    /// `relabeling` (k = 6 strided in the debug profile, like the pin
    /// above).
    #[test]
    fn relabeling_maps_representative_to_mask() {
        for k in 3..=6 {
            let t = canon_table(k);
            let stride = if cfg!(debug_assertions) && k == 6 { 7 } else { 1 };
            for mask in (0..1u32 << num_pairs(k)).step_by(stride) {
                let Some(class) = t.class_of(mask) else { continue };
                let rep = SmallGraph::from_mask(k, t.representative(class));
                assert_eq!(rep.permute(t.relabeling(mask)).mask(), mask, "k={k} mask {mask:#x}");
            }
        }
    }

    #[test]
    fn disconnected_masks_have_no_class() {
        let t = canon_table(4);
        assert_eq!(t.class_of(0), None); // empty graph
        let two_disjoint = SmallGraph::from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(t.class_of(two_disjoint.mask()), None);
    }

    #[test]
    fn representatives_classify_to_themselves() {
        for k in 3..=5 {
            let t = canon_table(k);
            for i in 0..t.num_classes() {
                assert_eq!(t.class_of(t.representative(i)), Some(i));
            }
        }
    }

    #[test]
    fn canonical_order_is_by_edge_count() {
        let t = canon_table(5);
        let counts: Vec<u32> = (0..21).map(|i| t.representative(i).count_ones()).collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(counts[0], 4); // tree (path/star/...)
        assert_eq!(counts[20], 10); // K5
    }

    #[test]
    fn classification_is_permutation_invariant_k4() {
        let t = canon_table(4);
        for mask in 0u32..64 {
            let g = SmallGraph::from_mask(4, mask);
            let class = t.class_of(mask);
            for perm in permutations(4) {
                assert_eq!(t.class_of(g.permute(perm).mask()), class);
            }
        }
    }

    #[test]
    fn every_connected_mask_is_classified_k5() {
        let t = canon_table(5);
        for mask in 0u32..1024 {
            let g = SmallGraph::from_mask(5, mask);
            assert_eq!(t.class_of(mask).is_some(), g.is_connected(), "mask {mask:#x}");
        }
    }
}
