//! Corresponding state sampling (paper §4.1, Algorithm 3).
//!
//! The basic estimator de-biases a sample by `α^k_i · π_e(X^{(l)})`, which
//! only uses the degrees of the states the walk *actually* visited. CSS
//! instead divides by the full sampling probability
//! `p(X^{(l)}) = Σ_{X' ∈ C(s)} π_e(X')` — the probability that the
//! subgraph `s` is generated in *any* visiting order — which uses the
//! degree information of every node in the subgraph (the paper's Table 4
//! examples) and provably never increases the estimator's variance
//! (Lemma 5).
//!
//! # Dense-table layout
//!
//! The covering sequences of a sampled subgraph depend only on its edge
//! mask, so the per-(k, d) structure is precomputed *once per process*
//! into a dense, direct-indexed table (`DenseCss`, shared via
//! `OnceLock` across estimators and walker threads), for every k:
//!
//! * `entries[mask]` — one fixed-width record per edge mask (`2^C(k,2)`
//!   entries; masks fit `u32` for k ≤ 6), holding offsets into two flat
//!   arenas. Disconnected masks keep the all-zero record and are never
//!   queried (a valid window always induces a connected subgraph).
//! * `subset_bits` / `subset_pos` — the connected d-subsets of every
//!   mask, concatenated; `subset_pos` pre-extracts each subset's two
//!   lowest node positions so the d ≤ 2 degree formulas are pure array
//!   loads at sample time.
//! * `interiors` — the interior subset-indices of every covering
//!   sequence, flattened with constant stride `l − 2` (see
//!   [`gx_graphlets::alpha::CoveringSequences::flat_interiors`]).
//!
//! k ≤ 5 enumerate each mask's sequences. k = 6 enumerates them once per
//! graphlet class, on its representative (paper §4.1): every mask of the
//! class stores the representative's subsets relabeled onto its own
//! nodes, in the same order, and shares the class's interiors.
//!
//! # Why the hot loop is allocation- and hash-free
//!
//! Per sample, [`CssWeights::sampling_probability_windowed`] performs: one
//! array index into `entries` (no hashing), one pass over the mask's
//! subsets computing `1/d_eff` into a fixed stack array (`recip`), and one
//! streaming pass over the mask's `interiors` slice accumulating the sum
//! of products. Subset degrees come from the [`NodeWindow`]'s cached slot
//! degrees (d ≤ 2) or the window's own recorded state degrees (d ≥ 3)
//! — the graph is not touched at all for d ≤ 2. Nothing is heap-allocated
//! and nothing is recomputed that the walk already paid for, which is
//! exactly the paper's Lemma-5 pitch: CSS reuses observed degree
//! information, it does not buy new information.
//!
//! For k ≤ 5 the summation order is identical to the seed `HashMap`
//! implementation (same subset enumeration, same covering-sequence order,
//! same fold direction), so results are bit-for-bit identical — enforced
//! by the exhaustive oracle tests at the bottom of this file. At k = 6
//! the sum follows the representative's order and may move in the last
//! bits.
//!
//! # Unvisited d ≥ 3 subsets: the window neighbourhood profile
//!
//! CSS needs the `G(d)` degree of every connected d-subset of the
//! window, including the ones the walk did not visit. A d ≥ 3 instance
//! owns a `Profile` of the window's neighbourhood: each tracked window
//! node's adjacency list, an open-addressing table mapping every node
//! `w` adjacent to a tracked node to the mask of tracked nodes it
//! touches, and `count[m]`, how many nodes carry mask `m`. It follows
//! the window lazily, once per sample that meets an unvisited subset: a
//! node entering costs a copy of the list the window kept when the node
//! took its slot (no fetch) and one table update per list entry, a node
//! leaving clears its bit over its copied list, and the nodes that stay
//! cost nothing. A subset `S`'s degree is
//! then exact integer arithmetic over at most 2^k mask counts,
//!
//! `deg(S) = Σ_m count[m] · nd_S(m ∩ S) − Σ_{u ∈ S} nd_S(adj_u ∩ S)`,
//!
//! where the second sum takes out S's own nodes (the table holds them
//! too, and their S-masks are S's induced rows) and `nd_S(x)` counts the
//! drop positions `p ∈ S` for which a node with S-mask `x` touches every
//! component of `S ∖ p`: the popcounts of S's shape's row in the
//! process-wide drop table ([`drop_row`], the rule the `G(d)` walk and
//! [`gd_state_degree_with`] count by, derived once per shape, not per
//! subset). No list is re-fetched or merged, and the degree, hence every
//! bit of p̃, equals the counted one. The
//! table holds at most the tracked nodes' Σ degrees entries at load
//! ≤ 1/2 and never shrinks, so its memory is bounded by the largest
//! window neighbourhood the walk has met, never by the graph.

use crate::window::NodeWindow;
use gx_graph::{GraphAccess, NodeId};
use gx_graphlets::alpha::covering_sequences;
use gx_graphlets::canon::canon_table;
use gx_graphlets::mask::num_pairs;
use gx_graphlets::SmallGraph;
use gx_walks::{
    drop_row, effective_degree, effective_degree_recip, gd_state_degree_with, GdDegreeScratch,
};
use std::sync::OnceLock;

/// Entries in the shared reciprocal table (covers effective degrees up to
/// 4095; larger degrees fall back to one division).
const RECIP_TABLE: usize = 4096;

/// `recip_table()[d] = 1.0 / d as f64` — IEEE division is deterministic,
/// so the lookup is bit-identical to dividing on the spot, and it turns
/// the per-subset division (the dominant cost of a CSS sample: ~6 `divsd`
/// at 13+ cycles each) into one L1/L2 load. Index 0 holds `inf`, which no
/// caller reads: effective degrees are ≥ 1 by construction for any state
/// the walk can occupy.
fn recip_table() -> &'static [f64; RECIP_TABLE] {
    static TABLE: OnceLock<Box<[f64; RECIP_TABLE]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = Box::new([0.0f64; RECIP_TABLE]);
        for (d, slot) in t.iter_mut().enumerate() {
            *slot = 1.0 / d as f64;
        }
        t
    })
}

/// Maximum connected d-subsets of a k ≤ 6 graphlet (C(6,3) = 20).
const MAX_SUBSETS: usize = 32;

/// One mask's slice descriptors into the [`DenseCss`] arenas. All-zero
/// (the `Default`) for disconnected masks.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    /// Offset of the mask's subsets in `subset_bits` / `subset_pos`.
    subs_off: u32,
    /// Offset of the mask's flattened interiors in `interiors`.
    seq_off: u32,
    /// Number of covering sequences (α of the mask).
    seq_cnt: u32,
    /// Bit `i` set iff subset `i` appears as some sequence's interior —
    /// only those subsets need a degree/reciprocal at sample time.
    used: u32,
    /// Number of connected d-subsets.
    subs_len: u8,
}

/// The precomputed CSS structure for one (k, d): a direct-indexed entry
/// per edge mask plus flat subset/interior arenas (see the module doc).
#[derive(Debug)]
struct DenseCss {
    entries: Vec<Entry>,
    subset_bits: Vec<u8>,
    /// The two lowest node positions of each subset (`pos[1]` is 0 and
    /// unused for d = 1); positions index the sample's slot labeling.
    subset_pos: Vec<[u8; 2]>,
    interiors: Vec<u8>,
}

impl DenseCss {
    fn build(k: usize, d: usize) -> Self {
        let canon = canon_table(k);
        let n_masks = 1usize << num_pairs(k);
        let mut t = DenseCss {
            entries: vec![Entry::default(); n_masks],
            subset_bits: Vec::new(),
            subset_pos: Vec::new(),
            interiors: Vec::new(),
        };
        // Ascending masks reach each class representative (its orbit's
        // least mask) before the rest of its class.
        for mask in 0..n_masks as u32 {
            // Disconnected masks have no class and keep the zero entry.
            let Some(class) = canon.class_of(mask) else {
                continue;
            };
            let rep = canon.representative(class);
            let entry = if k <= 5 || mask == rep {
                t.push_enumerated(k, d, mask)
            } else {
                Some(t.push_relabeled(rep, canon.relabeling(mask)))
            };
            t.entries[mask as usize] = entry.unwrap_or_default();
        }
        t.subset_pos = t.subset_bits.iter().map(|&bits| lowest_two_positions(bits)).collect();
        t
    }

    /// Enumerates `mask`'s covering sequences into the arenas (`None` only
    /// for a disconnected mask, which the caller never passes).
    fn push_enumerated(&mut self, k: usize, d: usize, mask: u32) -> Option<Entry> {
        let cover = covering_sequences(&SmallGraph::from_mask(k, mask), d)?;
        debug_assert!(cover.subsets.len() <= MAX_SUBSETS, "C(k, d) ≤ C(6, 3) = 20");
        let flat = cover.flat_interiors();
        let entry = Entry {
            subs_off: self.subset_bits.len() as u32,
            seq_off: self.interiors.len() as u32,
            seq_cnt: cover.count() as u32,
            used: interior_used_bits(&flat),
            subs_len: cover.subsets.len() as u8,
        };
        self.subset_bits.extend_from_slice(&cover.subsets);
        self.interiors.extend_from_slice(&flat);
        Some(entry)
    }

    /// `rep`'s entry for the mask that `perm` relabels it into: subset `i`
    /// is the image of `rep`'s subset `i`, so `rep`'s interiors (subset
    /// indices) serve unchanged.
    fn push_relabeled(&mut self, rep: u32, perm: &[usize]) -> Entry {
        let src = self.entries[rep as usize];
        let subs_off = self.subset_bits.len() as u32;
        for i in src.subs_off..src.subs_off + u32::from(src.subs_len) {
            let rep_bits = self.subset_bits[i as usize];
            let bits = (0..perm.len())
                .filter(|&v| rep_bits & (1 << perm[v]) != 0)
                .fold(0u8, |acc, v| acc | (1 << v));
            self.subset_bits.push(bits);
        }
        Entry { subs_off, ..src }
    }

    /// The mask's slices into the arenas.
    #[inline]
    fn view(&self, stride: usize, mask: u32) -> EntryView<'_> {
        let e = self.entries[mask as usize];
        let (s0, s1) = (e.subs_off as usize, e.subs_off as usize + e.subs_len as usize);
        let (i0, i1) = (e.seq_off as usize, e.seq_off as usize + e.seq_cnt as usize * stride);
        EntryView {
            subset_bits: &self.subset_bits[s0..s1],
            subset_pos: &self.subset_pos[s0..s1],
            interiors: &self.interiors[i0..i1],
            seq_cnt: e.seq_cnt,
            used: e.used,
        }
    }
}

/// Bitmask over subset indices of the subsets referenced by any interior.
fn interior_used_bits(flat_interiors: &[u8]) -> u32 {
    flat_interiors.iter().fold(0u32, |acc, &i| acc | (1 << i))
}

/// The two lowest set-bit positions of a subset bitmask (second is 0 for
/// singletons) — the order in which the seed implementation gathered
/// subset nodes, so the d ≤ 2 degree formulas read the same slots.
#[inline]
fn lowest_two_positions(bits: u8) -> [u8; 2] {
    let p0 = bits.trailing_zeros() as u8;
    let rest = bits & bits.wrapping_sub(1);
    let p1 = if rest != 0 { rest.trailing_zeros() as u8 } else { 0 };
    [p0, p1]
}

/// The process-wide dense table for `(k, d)`, built on first use and
/// shared by every estimator and walker thread; nothing mutates it after
/// the build.
fn dense_css(k: usize, d: usize) -> &'static DenseCss {
    static TABLES: OnceLock<[[OnceLock<DenseCss>; 7]; 7]> = OnceLock::new();
    debug_assert!((3..=6).contains(&k) && (1..=k).contains(&d));
    let tables = TABLES.get_or_init(Default::default);
    tables[k][d].get_or_init(|| DenseCss::build(k, d))
}

/// Borrowed view of one mask's CSS structure.
#[derive(Clone, Copy)]
struct EntryView<'a> {
    subset_bits: &'a [u8],
    subset_pos: &'a [[u8; 2]],
    interiors: &'a [u8],
    seq_cnt: u32,
    /// See [`Entry::used`].
    used: u32,
}

/// Computes CSS sampling probabilities for one estimator run.
///
/// Constructed with the estimator's `(k, d)` so every per-(k, mask)
/// structure is resolved before the first step — the steady-state query
/// paths perform zero heap allocation and zero hashing.
pub struct CssWeights {
    k: usize,
    d: usize,
    l: usize,
    /// Interiors per covering sequence, `l − 2` (0 for l ≤ 2).
    stride: usize,
    table: &'static DenseCss,
    /// Scratch: `1/d_eff` per subset for the current sample (stack array,
    /// never reallocated).
    recip: [f64; MAX_SUBSETS],
    /// Scratch: concrete nodes of a subset (general path, d ≥ 3).
    subset_nodes: [NodeId; 8],
    /// Scratch for the general path's d ≥ 3 `G(d)`-degree enumeration.
    deg_scratch: GdDegreeScratch,
    /// The windowed path's source of unvisited d ≥ 3 subset degrees
    /// (`None` for d ≤ 2, which never needs one).
    profile: Option<Box<Profile>>,
    /// Shared `1/d` lookup (see [`recip_table`]).
    recip_of: &'static [f64; RECIP_TABLE],
}

impl CssWeights {
    /// CSS helper for estimating k-node graphlets with a walk on `G(d)`.
    ///
    /// Taking `k` here (every call site knows it at construction) lets the
    /// whole dense table be ready before the first sample, removing the
    /// per-step lazy-init/hash path of the seed implementation. The table
    /// is built by the first instance for its `(k, d)` in the process;
    /// later instances only fetch it.
    ///
    /// # Panics
    ///
    /// Unless `3 ≤ k ≤ 6` and `1 ≤ d ≤ k` (what
    /// [`EstimatorConfig::try_validate`](crate::EstimatorConfig::try_validate)
    /// admits).
    pub fn new(k: usize, d: usize) -> Self {
        // gx-lint: allow(panic_surface) -- documented precondition, like an index out of range; the estimator passes a validated config
        assert!((3..=6).contains(&k), "CssWeights: k={k} unsupported (3..=6)");
        // gx-lint: allow(panic_surface) -- documented precondition, as above
        assert!((1..=k).contains(&d), "CssWeights: d={d} must be in 1..=k={k}");
        let l = k - d + 1;
        Self {
            k,
            d,
            l,
            stride: l.saturating_sub(2),
            table: dense_css(k, d),
            recip: [0.0; MAX_SUBSETS],
            subset_nodes: [0; 8],
            deg_scratch: GdDegreeScratch::default(),
            profile: (d >= 3).then(|| Box::new(Profile::new())),
            recip_of: recip_table(),
        }
    }

    /// `p̃(X^{(l)}) = 2|R(d)| · p(X^{(l)})` for the sample with induced
    /// edge `mask` over `nodes` (slot labeling), with degrees derived from
    /// `g` — the general-purpose path (tests, ad-hoc queries). The
    /// estimator's hot loop uses
    /// [`CssWeights::sampling_probability_windowed`], which reads the same
    /// degrees from the window instead of the graph.
    ///
    /// # Panics
    ///
    /// If `nodes` does not hold exactly the configured k nodes.
    pub fn sampling_probability<G: GraphAccess>(
        &mut self,
        g: &G,
        mask: u32,
        nodes: &[NodeId],
        non_backtracking: bool,
    ) -> f64 {
        // gx-lint: allow(panic_surface) -- documented precondition of the general-purpose path; the estimator's hot loop takes the windowed path
        assert_eq!(nodes.len(), self.k, "sample size must match the configured k");
        let view = self.table.view(self.stride, mask);
        match self.l {
            1 => {
                // p̃ = the single full-subgraph state's own degree.
                debug_assert_eq!(view.subset_bits.len(), 1);
                debug_assert_eq!(view.subset_bits[0].count_ones() as usize, self.k);
                let deg = gd_state_degree_with(g, nodes, &mut self.deg_scratch);
                effective_degree(deg, non_backtracking) as f64
            }
            2 => l2_probability(view.seq_cnt),
            _ => {
                let mut used = view.used;
                while used != 0 {
                    let si = used.trailing_zeros() as usize;
                    used &= used - 1;
                    let (bits, [p0, p1]) = (view.subset_bits[si], view.subset_pos[si]);
                    let deg = match self.d {
                        1 => g.degree(nodes[p0 as usize]),
                        2 => g.degree(nodes[p0 as usize]) + g.degree(nodes[p1 as usize]) - 2,
                        _ => {
                            let n = gather_subset_nodes(bits, nodes, &mut self.subset_nodes);
                            gd_state_degree_with(g, n, &mut self.deg_scratch)
                        }
                    };
                    self.recip[si] = lookup_recip(self.recip_of, deg, non_backtracking);
                }
                accumulate(view.interiors, self.stride, &self.recip)
            }
        }
    }

    /// The estimator's hot path: same value as
    /// [`CssWeights::sampling_probability`] (bit-for-bit), but every
    /// degree comes from bookkeeping the walk already paid for — the
    /// window's cached slot degrees for d ≤ 2, the window's recorded
    /// state degrees for the d ≥ 3 subsets the walk itself visited, and
    /// the window neighbourhood profile (see the module doc) for the d ≥ 3
    /// subsets it did not.
    ///
    /// One instance serves one graph: the profile keys adjacency by node
    /// id alone, the same contract the window's cached slot degrees rely
    /// on. The profile is a cache, not state — checkpoints do not carry
    /// it, and a resumed run refills it with the same values.
    pub fn sampling_probability_windowed<G: GraphAccess>(
        &mut self,
        g: &G,
        mask: u32,
        window: &NodeWindow,
        non_backtracking: bool,
    ) -> f64 {
        debug_assert_eq!(window.distinct_count(), self.k);
        let view = self.table.view(self.stride, mask);
        let slot_deg = window.slot_degrees();
        match self.l {
            1 => {
                // The full-subgraph state is the walk's current (and
                // only) state — its degree was recorded at push time.
                debug_assert_eq!(view.subset_bits.len(), 1);
                debug_assert_eq!(window.len(), 1);
                let deg: usize = window.states().map(|s| s.degree as usize).sum();
                effective_degree(deg, non_backtracking) as f64
            }
            2 => l2_probability(view.seq_cnt),
            _ => {
                let Some(profile) = self.profile.as_deref_mut() else {
                    // d ≤ 2: only the subsets some sequence actually uses
                    // as an interior need a reciprocal; the rest of
                    // `recip` stays stale and unread.
                    let mut used = view.used;
                    while used != 0 {
                        let si = used.trailing_zeros() as usize;
                        used &= used - 1;
                        let [p0, p1] = view.subset_pos[si];
                        let deg = if self.d == 1 {
                            slot_deg[p0 as usize] as usize
                        } else {
                            slot_deg[p0 as usize] as usize + slot_deg[p1 as usize] as usize - 2
                        };
                        self.recip[si] = lookup_recip(self.recip_of, deg, non_backtracking);
                    }
                    return accumulate(view.interiors, self.stride, &self.recip);
                };
                // d ≥ 3: reuse the degrees of the l states the walk
                // visited (matched by slot bitmask); take the remaining
                // subsets' degrees from the profile, synced to this
                // window at the first of them.
                //
                // Audited for the duplicate-node / revisit case: the
                // bitmask match cannot alias. This path only runs for
                // a *valid* sample (`distinct_count == k`, asserted
                // above), where the l states' union has exactly
                // k = d + l − 1 nodes — each transition must have
                // introduced a union-new node, so the l states are
                // pairwise-distinct node sets. A node re-entering the
                // window shares its original slot (`acquire` keys
                // slots by node, bumping a refcount, never minting a
                // second slot), so distinct node sets always have
                // distinct slot bitmasks, every state mask has
                // popcount d, and a bitmask equal to a subset's mask
                // identifies exactly that subset's node set — whose
                // recorded degree is `gd_state_degree` of those
                // nodes, the same value the profile would compute.
                // Revisit-heavy walks (windows with refcount > 1
                // slots) are pinned bitwise against the graph-derived
                // path by `windowed_matches_general_on_revisit_heavy_walks`.
                let mut state_bits = [0u8; 8];
                let mut state_degs = [0u32; 8];
                let mut n_states = 0usize;
                for (bits, deg) in window.state_slot_masks() {
                    state_bits[n_states] = bits;
                    state_degs[n_states] = deg;
                    n_states += 1;
                }
                let mut synced = false;
                let mut used = view.used;
                while used != 0 {
                    let si = used.trailing_zeros() as usize;
                    used &= used - 1;
                    let bits = view.subset_bits[si];
                    let visited = state_bits[..n_states]
                        .iter()
                        .position(|&b| b == bits)
                        .map(|i| state_degs[i] as usize);
                    let deg = visited.unwrap_or_else(|| {
                        if !synced {
                            profile.sync(g, window);
                            synced = true;
                        }
                        profile.degree(bits, window.slot_adjacency())
                    });
                    self.recip[si] = lookup_recip(self.recip_of, deg, non_backtracking);
                }
                accumulate(view.interiors, self.stride, &self.recip)
            }
        }
    }
}

/// Window nodes a [`Profile`] tracks at most, one mask bit each (the
/// window's union never exceeds 8 nodes).
const PROFILE_NODES: usize = 8;

/// Largest subset the profile counts degrees for: the windowed d ≥ 3
/// path runs at l ≥ 3, so d ≤ k − 2 ≤ 4.
const PROFILE_D: usize = 4;

/// Slots a fresh profile table starts with (a power of two; the table
/// doubles whenever it would pass load 1/2).
const PROFILE_SLOTS: usize = 64;

/// The window neighbourhood profile (see the module doc): the tracked
/// window nodes, each one's adjacency list, and per neighbourhood node
/// the mask of tracked nodes it is adjacent to.
#[derive(Debug)]
struct Profile {
    /// The node behind each bit of `live`.
    nodes: [NodeId; PROFILE_NODES],
    /// Each tracked node's adjacency list, copied from the window when it
    /// entered.
    lists: [Vec<NodeId>; PROFILE_NODES],
    /// Bits of the tracked nodes.
    live: u8,
    /// Profile bit of each window slot as of the last [`Profile::sync`].
    slot_bit: [u8; PROFILE_NODES],
    table: MaskTable,
}

impl Profile {
    fn new() -> Self {
        Profile {
            nodes: [0; PROFILE_NODES],
            lists: Default::default(),
            live: 0,
            slot_bit: [0; PROFILE_NODES],
            table: MaskTable::with_slots(PROFILE_SLOTS),
        }
    }

    /// Makes the tracked set the window's distinct nodes: a node that
    /// left clears its bit over its list, a node that entered takes a
    /// free bit, copies its list from the window and sets the bit over it.
    /// `_g` is the graph the window was pushed against: the window
    /// already visited every list the profile needs, so it is not read.
    // gx-lint: no_alloc
    fn sync<G: GraphAccess>(&mut self, _g: &G, window: &NodeWindow) {
        let nodes = window.distinct_nodes();
        debug_assert!(nodes.len() <= PROFILE_NODES);
        let (mut kept, mut entering) = (0u8, 0u8);
        for (p, &v) in nodes.iter().enumerate() {
            match self.bit_of(v) {
                Some(b) => {
                    kept |= 1 << b;
                    self.slot_bit[p] = b;
                }
                None => entering |= 1 << p,
            }
        }
        let mut leaving = self.live & !kept;
        while leaving != 0 {
            let b = leaving.trailing_zeros() as usize;
            leaving &= leaving - 1;
            for &w in &self.lists[b] {
                self.table.clear(w, 1 << b);
            }
        }
        self.live = kept;
        while entering != 0 {
            let p = entering.trailing_zeros() as usize;
            entering &= entering - 1;
            // Tracked plus entering nodes are the window's ≤ 8, so a
            // free bit exists.
            let b = (!self.live).trailing_zeros() as usize;
            let list = &mut self.lists[b];
            list.clear();
            list.extend_from_slice(window.slot_list(p));
            self.table.reserve(list.len());
            for &w in list.iter() {
                self.table.set(w, 1 << b);
            }
            self.nodes[b] = nodes[p];
            self.live |= 1 << b;
            self.slot_bit[p] = b as u8;
        }
    }

    /// The bit tracking `v`, if any.
    #[inline]
    fn bit_of(&self, v: NodeId) -> Option<u8> {
        let mut live = self.live;
        while live != 0 {
            let b = live.trailing_zeros() as u8;
            if self.nodes[usize::from(b)] == v {
                return Some(b);
            }
            live &= live - 1;
        }
        None
    }

    /// The `G(d)` degree of the window subset with slot bitmask `bits`,
    /// the profile synced to that window and `adj` its slot adjacency
    /// rows: the module doc's formula, in exact integers.
    // gx-lint: no_alloc
    fn degree(&self, bits: u8, adj: &[u64]) -> usize {
        let (pos, d, rows) = subset_rows(bits, adj);
        let mut pbit = [0u8; PROFILE_D];
        for (b, &p) in pbit.iter_mut().zip(&pos[..d]) {
            *b = self.slot_bit[p];
        }
        let nd = drops_per_mask(&rows, d);
        // Σ_m count[m] · nd[m ∩ S], grouped by the S-local mask x: the
        // masks meeting S in exactly x are x's bits plus any submask of
        // the other tracked bits (the table holds no mask outside `live`).
        let rest = self.live & !pbit[..d].iter().fold(0u8, |m, &b| m | (1 << b));
        let mut all = 0usize;
        for (x, &n) in nd.iter().enumerate().take(1 << d).filter(|&(_, &n)| n != 0) {
            let on_s = (0..d).filter(|&i| x & (1 << i) != 0).fold(0u8, |m, i| m | (1 << pbit[i]));
            let (mut meeting, mut r) = (0usize, rest);
            loop {
                meeting += self.table.count[usize::from(on_s | r)] as usize;
                if r == 0 {
                    break;
                }
                r = (r - 1) & rest;
            }
            all += meeting * usize::from(n);
        }
        let own: usize = rows[..d].iter().map(|&r| usize::from(nd[usize::from(r)])).sum();
        all - own
    }
}

/// The slot positions of the window subset with slot bitmask `bits`
/// (3 to [`PROFILE_D`] of them, ascending), their number, and the
/// subset's induced rows over `adj`, the window's slot adjacency.
#[inline]
fn subset_rows(bits: u8, adj: &[u64]) -> ([usize; PROFILE_D], usize, [u16; 16]) {
    let (mut pos, mut d, mut rest) = ([0usize; PROFILE_D], 0usize, bits);
    while rest != 0 {
        pos[d] = rest.trailing_zeros() as usize;
        d += 1;
        rest &= rest - 1;
    }
    debug_assert!((3..=PROFILE_D).contains(&d), "windowed d ≥ 3 subset of {d} nodes");
    let mut rows = [0u16; 16];
    for i in 0..d {
        for j in 0..d {
            rows[i] |= (((adj[pos[i]] >> pos[j]) & 1) as u16) << j;
        }
    }
    (pos, d, rows)
}

/// `nd[x]`, the drop positions a node with subset mask `x` keeps
/// connected, for the connected `d`-node subset with induced rows `rows`:
/// the popcounts of its shape's row in the shared drop table.
#[inline]
fn drops_per_mask(rows: &[u16; 16], d: usize) -> [u8; 1 << PROFILE_D] {
    let mut nd = [0u8; 1 << PROFILE_D];
    for (n, &drops) in nd.iter_mut().zip(drop_row(rows, d)) {
        *n = drops.count_ones() as u8;
    }
    nd
}

/// A linear-probing map `w → mask` with a fixed multiplicative hash (no
/// per-process seed: the `determinism` rule) and backward-shift
/// deletion, plus the number of keys holding each mask.
#[derive(Debug)]
struct MaskTable {
    /// `(w << 8) | mask` per slot; mask 0 marks an empty slot.
    slots: Vec<u64>,
    /// Occupied slots.
    len: usize,
    /// `32 − log2(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
    /// `count[m]` = keys whose mask is `m`.
    count: [u32; 1 << PROFILE_NODES],
}

impl MaskTable {
    /// An empty table of `slots` slots (a power of two).
    fn with_slots(slots: usize) -> Self {
        debug_assert!(slots.is_power_of_two());
        MaskTable {
            slots: vec![0; slots],
            len: 0,
            shift: 32 - slots.trailing_zeros(),
            count: [0; 1 << PROFILE_NODES],
        }
    }

    #[inline]
    fn home(&self, w: NodeId) -> usize {
        (w.wrapping_mul(0x9E37_79B9) >> self.shift) as usize
    }

    /// The slot holding `w`, or the empty slot ending its probe run.
    #[inline]
    fn find(&self, w: NodeId) -> usize {
        let wrap = self.slots.len() - 1;
        let mut i = self.home(w);
        loop {
            let s = self.slots[i];
            if s == 0 || (s >> 8) as NodeId == w {
                return i;
            }
            i = (i + 1) & wrap;
        }
    }

    /// ORs `bit` into `w`'s mask, adding `w` if absent (after
    /// [`MaskTable::reserve`], so the table stays at most half full).
    // gx-lint: no_alloc
    #[inline]
    fn set(&mut self, w: NodeId, bit: u8) {
        let i = self.find(w);
        let old = self.slots[i] as u8;
        if old == 0 {
            self.len += 1;
        } else {
            self.count[usize::from(old)] -= 1;
        }
        let mask = old | bit;
        self.count[usize::from(mask)] += 1;
        self.slots[i] = (u64::from(w) << 8) | u64::from(mask);
    }

    /// Clears `bit` from `w`'s mask, removing `w` when none is left.
    // gx-lint: no_alloc
    #[inline]
    fn clear(&mut self, w: NodeId, bit: u8) {
        let i = self.find(w);
        let old = self.slots[i] as u8;
        debug_assert!(old & bit != 0, "node {w} does not carry bit {bit:#x}");
        if old == 0 {
            return;
        }
        self.count[usize::from(old)] -= 1;
        let mask = old & !bit;
        if mask == 0 {
            self.remove_at(i);
        } else {
            self.count[usize::from(mask)] += 1;
            self.slots[i] = (u64::from(w) << 8) | u64::from(mask);
        }
    }

    /// Empties slot `i` and shifts back the entries of its probe run
    /// that may move into the hole, so no tombstone is left.
    // gx-lint: no_alloc
    fn remove_at(&mut self, mut i: usize) {
        let wrap = self.slots.len() - 1;
        self.len -= 1;
        let mut j = i;
        loop {
            j = (j + 1) & wrap;
            let s = self.slots[j];
            if s == 0 {
                break;
            }
            // The entry at j stays put iff its home lies cyclically in
            // (i, j]; otherwise it fills the hole, which moves to j.
            let home = self.home((s >> 8) as NodeId);
            if (j.wrapping_sub(home) & wrap) >= (j.wrapping_sub(i) & wrap) {
                self.slots[i] = s;
                i = j;
            }
        }
        self.slots[i] = 0;
    }

    /// Doubles the table until `extra` more keys keep it at most half
    /// full: the one place it allocates, at a new peak neighbourhood.
    fn reserve(&mut self, extra: usize) {
        while (self.len + extra) * 2 > self.slots.len() {
            let doubled = vec![0; self.slots.len() * 2];
            let old = std::mem::replace(&mut self.slots, doubled);
            self.shift -= 1;
            for s in old.into_iter().filter(|&s| s != 0) {
                let i = self.find((s >> 8) as NodeId);
                self.slots[i] = s;
            }
        }
    }
}

/// `1/d_eff` via the shared table (one load), falling back to the
/// division it is bit-identical to for out-of-table degrees.
#[inline]
fn lookup_recip(table: &[f64; RECIP_TABLE], degree: usize, non_backtracking: bool) -> f64 {
    let eff = effective_degree(degree, non_backtracking);
    if eff < RECIP_TABLE {
        table[eff]
    } else {
        effective_degree_recip(degree, non_backtracking)
    }
}

/// The l = 2 (PSRW) probability: every covering sequence contributes an
/// empty interior product of 1.0, so p̃ is just the sequence count — with
/// the seed's `-0.0` for the empty sum, preserving bit-identity.
#[inline]
fn l2_probability(seq_cnt: u32) -> f64 {
    if seq_cnt == 0 {
        -0.0
    } else {
        seq_cnt as f64
    }
}

/// Gathers the concrete nodes of a subset bitmask (ascending position
/// order, matching the seed implementation) into `out`.
#[inline]
fn gather_subset_nodes<'a>(bits: u8, nodes: &[NodeId], out: &'a mut [NodeId; 8]) -> &'a [NodeId] {
    let mut n = 0usize;
    for (pos, &node) in nodes.iter().enumerate() {
        if bits & (1 << pos) != 0 {
            out[n] = node;
            n += 1;
        }
    }
    &out[..n]
}

/// `Σ over covering sequences of Π over interiors of 1/d_eff`, streaming
/// the flat interior arena in the same order and fold direction as the
/// seed implementation (bit-for-bit identical results; the sum starts at
/// `-0.0` and the product at `1.0` exactly like `Iterator::sum` /
/// `Iterator::product` for `f64`, so even the α = 0 empty sum keeps the
/// seed's sign bit).
#[inline]
fn accumulate(interiors: &[u8], stride: usize, recip: &[f64; MAX_SUBSETS]) -> f64 {
    debug_assert!(stride >= 1);
    let mut sum = -0.0f64;
    if stride == 1 {
        // l = 3, the recommended SRW2CSS shape for k = 4: one interior
        // per sequence, so the product collapses to a gather-sum
        // (1.0 * x = x exactly; same bits as the general fold).
        for &i in interiors {
            sum += recip[i as usize];
        }
        return sum;
    }
    for chunk in interiors.chunks_exact(stride) {
        let mut prod = 1.0f64;
        for &i in chunk {
            prod *= recip[i as usize];
        }
        sum += prod;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use gx_graph::generators::classic;
    use gx_graph::Graph;
    use gx_graphlets::induced_mask;

    /// Table 4, row g3_2 (triangle, SRW1): 2|R|·p/2 = 1/d₁ + 1/d₂ + 1/d₃.
    #[test]
    fn table4_triangle_srw1() {
        let g = classic::paper_figure1();
        // triangle {0, 1, 2}: degrees 3, 2, 3.
        let nodes = [0u32, 1, 2];
        let mask = induced_mask(&g, &nodes);
        let mut css = CssWeights::new(3, 1);
        let p = css.sampling_probability(&g, mask, &nodes, false);
        let want = 2.0 * (1.0 / 3.0 + 1.0 / 2.0 + 1.0 / 3.0);
        assert!((p - want).abs() < 1e-12, "{p} vs {want}");
    }

    /// Table 4, row g3_1 (wedge, SRW1): 2|R|·p/2 = 1/d₂ (center only) —
    /// CSS is a no-op relative to α·π̃_e for the wedge? No: the wedge has
    /// exactly two corresponding states (both traversal directions share
    /// the same center), so p̃ = 2/d_center.
    #[test]
    fn table4_wedge_srw1() {
        let g = classic::paper_figure1();
        // wedge 1-2-3 (0-based: 0-1-2 is a triangle; use {3,0,1}: path
        // 3-0-1 with center 0, non-edge (1,3)).
        let nodes = [3u32, 0, 1];
        let mask = induced_mask(&g, &nodes);
        let mut css = CssWeights::new(3, 1);
        let p = css.sampling_probability(&g, mask, &nodes, false);
        let want = 2.0 / 3.0; // center 0 has degree 3
        assert!((p - want).abs() < 1e-12, "{p} vs {want}");
    }

    /// Table 4, row g4_6 (4-clique, SRW2): 2|R|·p/2 = 4·Σ_{j=1..6} 1/d_ej.
    #[test]
    fn table4_clique_srw2() {
        // K5: every edge has degree 4+4-2 = 6 in G(2); the 4-clique on
        // nodes {0,1,2,3} has 6 inner edges: p̃ = 2·4·6·(1/6) = 8.
        let g = classic::complete(5);
        let nodes = [0u32, 1, 2, 3];
        let mask = induced_mask(&g, &nodes);
        let mut css = CssWeights::new(4, 2);
        let p = css.sampling_probability(&g, mask, &nodes, false);
        assert!((p - 8.0).abs() < 1e-12, "{p}");
    }

    /// Table 4, row g4_4 (tailed-triangle, SRW2):
    /// 2|R|·p/2 = 2/d_e2 + 2/d_e3 + 1/d_e4 with the paper's Figure-2 edge
    /// labels (e1 = tail, e2, e3 = triangle edges at the tail vertex,
    /// e4 = opposite triangle edge).
    #[test]
    fn table4_tailed_triangle_srw2() {
        // Build an isolated tailed triangle: triangle {0,1,2}, tail 2-3.
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)]).unwrap();
        let nodes = [0u32, 1, 2, 3];
        let mask = induced_mask(&g, &nodes);
        let mut css = CssWeights::new(4, 2);
        let p = css.sampling_probability(&g, mask, &nodes, false);
        // Edge degrees in G(2): (0,1): 2+2-2=2... degrees: d0=2, d1=2,
        // d2=3, d3=1. e(0,1)=2, e(1,2)=3, e(0,2)=3, e(2,3)=2.
        // Walk sequences of 3 distinct edges covering all 4 nodes with
        // consecutive sharing: computed by hand in the alpha worked
        // example: {(0,1),(1,2),(2,3)} path orders ×2, {(0,1),(0,2),(2,3)}
        // ×2, {(1,2),(0,2),(2,3)} all-pairs-adjacent ×6. Interior states:
        // (1,2):3, (0,2):3, and for the 6 orderings of the triple, each of
        // the three edges is interior twice: p̃ = 2·(1/3) + 2·(1/3) +
        // 2·(1/3 + 1/3 + 1/2).
        let want = 2.0 / 3.0 + 2.0 / 3.0 + 2.0 * (1.0 / 3.0 + 1.0 / 3.0 + 1.0 / 2.0);
        assert!((p - want).abs() < 1e-12, "{p} vs {want}");
    }

    /// For l = 2 (PSRW), CSS must reduce to 1/α-weighting: p̃ = α·π̃ = α.
    #[test]
    fn l2_css_equals_alpha() {
        let g = classic::paper_figure1();
        let nodes = [0u32, 1, 2];
        let mask = induced_mask(&g, &nodes);
        let mut css = CssWeights::new(3, 2);
        let p = css.sampling_probability(&g, mask, &nodes, false);
        // triangle under SRW2: α = 6.
        assert!((p - 6.0).abs() < 1e-12);
    }

    /// l = 1 (d = k): p̃ is the state's own degree in G(k).
    #[test]
    fn l1_css_is_state_degree() {
        let g = classic::paper_figure1();
        let nodes = [0u32, 1, 2];
        let mask = induced_mask(&g, &nodes);
        let mut css = CssWeights::new(3, 3);
        let p = css.sampling_probability(&g, mask, &nodes, false);
        use gx_walks::gd::gd_state_degree;
        let want = gd_state_degree(&g, &[0, 1, 2]) as f64;
        assert!((p - want).abs() < 1e-12, "{p} vs {want}");
    }

    /// Lemma 4's underlying identity: E[1/(α π_e)] = E[1/p] holds because
    /// p(s) = Σ_{X ∈ C(s)} π_e(X). Check the sum directly for a triangle
    /// under SRW1: Σ over the 6 orderings of 1/d_center equals p̃.
    #[test]
    fn p_is_sum_over_corresponding_states() {
        let g = classic::paper_figure1();
        let nodes = [0u32, 2, 3]; // triangle with degrees 3, 3, 2
        let mask = induced_mask(&g, &nodes);
        let mut css = CssWeights::new(3, 1);
        let p = css.sampling_probability(&g, mask, &nodes, false);
        // each node is the interior of exactly 2 of the 6 orderings
        let manual: f64 = [3.0, 3.0, 2.0].iter().map(|d| 2.0 / d).sum();
        assert!((p - manual).abs() < 1e-12);
    }

    /// Non-backtracking CSS uses nominal degrees.
    #[test]
    fn nb_uses_nominal_degrees() {
        let g = classic::paper_figure1();
        let nodes = [0u32, 1, 2];
        let mask = induced_mask(&g, &nodes);
        let mut css = CssWeights::new(3, 1);
        let plain = css.sampling_probability(&g, mask, &nodes, false);
        let nb = css.sampling_probability(&g, mask, &nodes, true);
        // degrees 3,2,3 → nominal 2,1,2: p̃ grows.
        let want_nb = 2.0 * (1.0 / 2.0 + 1.0 / 1.0 + 1.0 / 2.0);
        assert!((nb - want_nb).abs() < 1e-12);
        assert!(nb > plain);
    }

    /// Table reuse must not change results.
    #[test]
    fn table_is_transparent() {
        let g = classic::complete(5);
        let nodes = [0u32, 1, 2, 3];
        let mask = induced_mask(&g, &nodes);
        let mut css = CssWeights::new(4, 2);
        let p1 = css.sampling_probability(&g, mask, &nodes, false);
        let p2 = css.sampling_probability(&g, mask, &nodes, false);
        assert_eq!(p1, p2);
        // same mask, different concrete nodes
        let nodes2 = [1u32, 2, 3, 4];
        let p3 = css.sampling_probability(&g, mask, &nodes2, false);
        assert!((p1 - p3).abs() < 1e-12, "K5 symmetry");
    }

    /// The k = 6 table agrees with a hand-computable case: the 6-path
    /// under SRW2 (l = 5).
    #[test]
    fn k6_table_path_works() {
        let g = classic::path(6);
        let nodes = [0u32, 1, 2, 3, 4, 5];
        let mask = induced_mask(&g, &nodes);
        let mut css = CssWeights::new(6, 2);
        let p = css.sampling_probability(&g, mask, &nodes, false);
        // 5 path edges; the only covering sequences are the two
        // end-to-end traversals; interiors are the 3 middle edges with
        // G(2)-degrees 2, 2, 2: p̃ = 2 · (1/2)³.
        assert!((p - 0.25).abs() < 1e-12, "{p}");
    }

    /// The windowed hot path must be bit-identical to the general path
    /// (which the oracle test below ties to the seed implementation).
    #[test]
    fn windowed_path_matches_general_path() {
        use crate::window::NodeWindow;
        use gx_walks::{rng_from_seed, G2Walk, GdWalk, SrwWalk, StateWalk};
        let g = classic::petersen();

        // d = 1, k = 4
        {
            let mut rng = rng_from_seed(3);
            let mut walk = SrwWalk::new(&g, 0, false);
            let mut w = NodeWindow::new(4, 1);
            let mut css = CssWeights::new(4, 1);
            for _ in 0..2000 {
                let deg = walk.state_degree();
                w.push(&g, walk.state(), deg);
                if w.is_valid_sample() {
                    let (mask, nodes) = w.sample();
                    let a = css.sampling_probability_windowed(&g, mask, &w, false);
                    let b = css.sampling_probability(&g, mask, nodes, false);
                    assert_eq!(a.to_bits(), b.to_bits(), "d=1 mask {mask:#x}");
                }
                walk.step(&mut rng);
            }
        }
        // d = 2, k = 5 (incl. non-backtracking weighting)
        {
            let mut rng = rng_from_seed(5);
            let mut walk = G2Walk::new(&g, 0, 4, false);
            let mut w = NodeWindow::new(4, 2);
            let mut css = CssWeights::new(5, 2);
            for _ in 0..2000 {
                let deg = walk.state_degree();
                w.push(&g, walk.state(), deg);
                if w.is_valid_sample() {
                    let (mask, nodes) = w.sample();
                    for nb in [false, true] {
                        let a = css.sampling_probability_windowed(&g, mask, &w, nb);
                        let b = css.sampling_probability(&g, mask, nodes, nb);
                        assert_eq!(a.to_bits(), b.to_bits(), "d=2 mask {mask:#x} nb={nb}");
                    }
                }
                walk.step(&mut rng);
            }
        }
        // d = 3, k = 5 (state-degree reuse + enumeration fallback)
        {
            let mut rng = rng_from_seed(7);
            let mut walk = GdWalk::new(&g, &[0, 1, 2], false);
            let mut w = NodeWindow::new(3, 3);
            let mut css = CssWeights::new(5, 3);
            for _ in 0..300 {
                let deg = walk.state_degree();
                w.push(&g, walk.state(), deg);
                if w.is_valid_sample() {
                    let (mask, nodes) = w.sample();
                    let a = css.sampling_probability_windowed(&g, mask, &w, false);
                    let b = css.sampling_probability(&g, mask, nodes, false);
                    assert_eq!(a.to_bits(), b.to_bits(), "d=3 mask {mask:#x}");
                }
                walk.step(&mut rng);
            }
        }
    }

    /// Regression for the d ≥ 3 slot-bitmask degree-reuse audit (see the
    /// comment in `sampling_probability_windowed`): on a revisit-heavy
    /// graph — a lollipop's pendant path traps the walk into sliding the
    /// same nodes in and out of the window — the windowed path must stay
    /// bit-identical to the graph-derived path for every scored window,
    /// plain and non-backtracking. A bitmask aliasing bug between two
    /// states sharing nodes would surface here as a wrong reused degree.
    #[test]
    fn windowed_matches_general_on_revisit_heavy_walks() {
        use crate::window::NodeWindow;
        use gx_walks::{rng_from_seed, GdWalk, StateWalk};
        // Small clique head + pendant path: states at the joint revisit
        // clique nodes constantly, and the path forces backtracking.
        let g = classic::lollipop(5, 4);
        for nb in [false, true] {
            let mut rng = rng_from_seed(29);
            let mut walk = GdWalk::new(&g, &[0, 1, 2], nb);
            let mut w = NodeWindow::new(3, 3); // k = 5, d = 3, l = 3
            let mut css = CssWeights::new(5, 3);
            let mut scored = 0usize;
            for _ in 0..4_000 {
                let deg = walk.state_degree();
                w.push(&g, walk.state(), deg);
                if w.is_valid_sample() {
                    let (mask, nodes) = w.sample();
                    let a = css.sampling_probability_windowed(&g, mask, &w, nb);
                    let b = css.sampling_probability(&g, mask, nodes, nb);
                    assert_eq!(a.to_bits(), b.to_bits(), "nb={nb} mask {mask:#x}");
                    scored += 1;
                    // The invariants the degree-reuse match rests on:
                    // every state's slot bitmask has popcount d, and the
                    // l states' bitmasks are pairwise distinct — even
                    // though here 3 states × 3 nodes share only 5 slots,
                    // so every window has refcount-shared slots.
                    let masks: Vec<u8> = w.state_slot_masks().map(|(b, _)| b).collect();
                    for (i, &bi) in masks.iter().enumerate() {
                        assert_eq!(bi.count_ones(), 3, "state mask popcount");
                        for &bj in &masks[i + 1..] {
                            assert_ne!(bi, bj, "valid-sample states must have distinct masks");
                        }
                    }
                }
                walk.step(&mut rng);
            }
            assert!(scored > 50, "walk must score enough windows to exercise reuse ({scored})");
        }
    }

    /// The d ≥ 3 windowed path — reused state degrees, the subset-degree
    /// memo and the merge-and-count fallback under it — on adversarial
    /// shapes, bit for bit against the graph-derived path, plain and
    /// non-backtracking: a star, where every state has an articulation
    /// position (the hub); a clique, where every candidate is valid for
    /// every drop; and k = 6 with d = 3 on a skewed graph, which runs the
    /// per-class k = 6 table, stride-2 interiors, and a memo that sees many
    /// distinct subsets with distinct degrees.
    #[test]
    fn windowed_matches_general_on_adversarial_graphs() {
        use crate::window::NodeWindow;
        use gx_graph::generators::holme_kim;
        use gx_walks::{random_start_state, rng_from_seed, GdWalk, StateWalk};
        let cases = [
            ("star", classic::star(12), 5, 3),
            ("star", classic::star(12), 6, 3),
            ("clique", classic::complete(9), 5, 3),
            ("clique", classic::complete(9), 6, 4),
            ("skewed", holme_kim(150, 3, 0.4, &mut rng_from_seed(11)), 6, 3),
        ];
        for (name, g, k, d) in &cases {
            for nb in [false, true] {
                let mut rng = rng_from_seed(41);
                let start = random_start_state(g, *d, &mut rng);
                let mut walk = GdWalk::new(g, &start, nb);
                let mut w = NodeWindow::new(k - d + 1, *d);
                let mut css = CssWeights::new(*k, *d);
                let mut scored = 0usize;
                for _ in 0..2_000 {
                    let deg = walk.state_degree();
                    w.push(g, walk.state(), deg);
                    if w.is_valid_sample() {
                        let (mask, nodes) = w.sample();
                        let a = css.sampling_probability_windowed(g, mask, &w, nb);
                        let b = css.sampling_probability(g, mask, nodes, nb);
                        let at = format!("{name} k={k} d={d} nb={nb} mask {mask:#x}");
                        assert_eq!(a.to_bits(), b.to_bits(), "{at}");
                        scored += 1;
                    }
                    walk.step(&mut rng);
                }
                assert!(scored > 200, "{name} k={k} d={d} nb={nb}: {scored} windows scored");
            }
        }
    }

    /// The window neighbourhood profile against the counted degree, at
    /// (k, d) ∈ {(5, 3), (6, 3), (6, 4)} on walks over a star, a clique, a
    /// lollipop and a hub-heavy Holme–Kim graph: every used subset of a
    /// scored window that the walk did not visit gets its
    /// `gd_state_degree` from `Profile::degree`, and the table holds
    /// exactly the tracked nodes' neighbourhood with the right masks and
    /// counts. The profile syncs only at every third valid window, so
    /// between syncs several nodes enter and leave, across invalid
    /// windows too; the hub-heavy graph grows the table past its first
    /// size.
    #[test]
    fn profile_degrees_match_counted_degrees() {
        use crate::window::NodeWindow;
        use gx_graph::generators::holme_kim;
        use gx_walks::gd::gd_state_degree;
        use gx_walks::{random_start_state, rng_from_seed, GdWalk, StateWalk};

        /// The table holds the masks and counts a scan of the tracked
        /// nodes' lists gives.
        fn assert_table_exact(g: &Graph, p: &Profile, at: &str) {
            let mut want: Vec<(NodeId, u8)> = Vec::new();
            for b in (0..PROFILE_NODES).filter(|&b| p.live & (1 << b) != 0) {
                for &w in g.neighbors(p.nodes[b]) {
                    match want.iter_mut().find(|(u, _)| *u == w) {
                        Some((_, m)) => *m |= 1 << b,
                        None => want.push((w, 1 << b)),
                    }
                }
            }
            assert_eq!(p.table.len, want.len(), "{at}: table size");
            let mut count = [0u32; 1 << PROFILE_NODES];
            for &(w, m) in &want {
                assert_eq!(
                    p.table.slots[p.table.find(w)],
                    (u64::from(w) << 8) | u64::from(m),
                    "{at}"
                );
                count[usize::from(m)] += 1;
            }
            assert_eq!(p.table.count, count, "{at}: mask counts");
        }

        let graphs = [
            ("star", classic::star(12)),
            ("clique", classic::complete(9)),
            ("lollipop", classic::lollipop(6, 5)),
            ("hubs", holme_kim(400, 8, 0.5, &mut rng_from_seed(19))),
        ];
        let mut spanned_invalid = 0usize;
        for (name, g) in &graphs {
            for (k, d) in [(5usize, 3usize), (6, 3), (6, 4)] {
                let mut rng = rng_from_seed(53);
                let start = random_start_state(g, d, &mut rng);
                let mut walk = GdWalk::new(g, &start, false);
                let mut w = NodeWindow::new(k - d + 1, d);
                let mut profile = Profile::new();
                let mut tracked: Vec<NodeId> = Vec::new();
                let (mut valid, mut checked, mut most_entered) = (0usize, 0usize, 0usize);
                let mut invalid_since_sync = false;
                for _ in 0..1_500 {
                    let deg = walk.state_degree();
                    w.push(g, walk.state(), deg);
                    walk.step(&mut rng);
                    if !w.is_valid_sample() {
                        invalid_since_sync |= w.is_full();
                        continue;
                    }
                    valid += 1;
                    if valid % 3 != 0 {
                        continue;
                    }
                    let (mask, nodes) = w.sample();
                    let at = format!("{name} k={k} d={d} window {nodes:?}");
                    let entered = nodes.iter().filter(|v| !tracked.contains(v)).count();
                    most_entered = most_entered.max(entered);
                    spanned_invalid += usize::from(invalid_since_sync && entered > 0);
                    invalid_since_sync = false;
                    tracked = nodes.to_vec();
                    profile.sync(g, &w);
                    assert_table_exact(g, &profile, &at);
                    let visited: Vec<u8> = w.state_slot_masks().map(|(b, _)| b).collect();
                    let view = dense_css(k, d).view(k - d - 1, mask);
                    let mut used = view.used;
                    while used != 0 {
                        let bits = view.subset_bits[used.trailing_zeros() as usize];
                        used &= used - 1;
                        if visited.contains(&bits) {
                            continue;
                        }
                        let subset: Vec<NodeId> = (0..nodes.len())
                            .filter(|&p| bits & (1 << p) != 0)
                            .map(|p| nodes[p])
                            .collect();
                        let got = profile.degree(bits, w.slot_adjacency());
                        assert_eq!(got, gd_state_degree(g, &subset), "{at}: subset {subset:?}");
                        checked += 1;
                    }
                }
                assert!(checked > 50, "{name} k={k} d={d}: {checked} unvisited subsets checked");
                assert!(most_entered >= 2, "{name} k={k} d={d}: at most {most_entered} entered");
                if *name == "hubs" {
                    assert!(
                        profile.table.slots.len() > PROFILE_SLOTS,
                        "{name}: the table never grew"
                    );
                }
            }
        }
        assert!(spanned_invalid > 0, "no sync followed an invalid window");
    }

    /// The profile's `nd` for every connected 3- and 4-node shape, its
    /// nodes spread over the window's slots: for each subset mask `x`,
    /// the number of drop positions after which the kept nodes plus a
    /// node adjacent to exactly `x` are connected, counted on a realized
    /// graph with `subset_is_connected`, and the popcount of the shape's
    /// drop-table row.
    #[test]
    fn profile_nd_matches_the_drop_rule() {
        use gx_walks::gd::subset_is_connected;
        let mut shapes = 0;
        for (d, slots) in [(3usize, [1usize, 4, 6, 0]), (4, [0, 2, 5, 7])] {
            let pairs: Vec<(usize, usize)> =
                (0..d).flat_map(|i| ((i + 1)..d).map(move |j| (i, j))).collect();
            let bits = slots[..d].iter().fold(0u8, |b, &p| b | (1 << p));
            for shape in 0..1u32 << pairs.len() {
                let edges: Vec<(NodeId, NodeId)> = pairs
                    .iter()
                    .enumerate()
                    .filter(|&(e, _)| shape & (1 << e) != 0)
                    .map(|(_, &(i, j))| (i as NodeId, j as NodeId))
                    .collect();
                let nodes: Vec<NodeId> = (0..d as NodeId).collect();
                let g = Graph::from_edges(d, edges.iter().copied()).unwrap();
                if !subset_is_connected(&g, &nodes) {
                    continue;
                }
                shapes += 1;
                // The window's slot rows: the subset's edges between its
                // slots, every other slot adjacent to everything.
                let mut adj = [0u64; 8];
                for (p, row) in adj.iter_mut().enumerate() {
                    if bits & (1 << p) == 0 {
                        *row = 0xff & !(1 << p);
                    }
                }
                for &(i, j) in &edges {
                    let (si, sj) = (slots[i as usize], slots[j as usize]);
                    adj[si] |= 1 << sj;
                    adj[sj] |= 1 << si;
                }
                let (_, n, rows) = subset_rows(bits, &adj);
                assert_eq!(n, d);
                let nd = drops_per_mask(&rows, d);
                let row = drop_row(&rows, d);
                for x in 1..1usize << d {
                    let mut with_w = edges.clone();
                    with_w.extend(
                        (0..d).filter(|&i| x & (1 << i) != 0).map(|i| (i as NodeId, d as NodeId)),
                    );
                    let h = Graph::from_edges(d + 1, with_w).unwrap();
                    let want = (0..d)
                        .filter(|&drop| {
                            let kept: Vec<NodeId> =
                                (0..=d as NodeId).filter(|&v| v != drop as NodeId).collect();
                            subset_is_connected(&h, &kept)
                        })
                        .count();
                    let at = format!("d = {d}, shape {shape:#b}, x = {x:#b}");
                    assert_eq!(usize::from(nd[x]), want, "{at}");
                    assert_eq!(nd[x], row[x].count_ones() as u8, "{at}");
                }
            }
        }
        // Labelled connected graphs on 3 and 4 nodes.
        assert_eq!(shapes, 4 + 38);
    }

    /// Every CSS engine path — walk steps, the window and the CSS degree
    /// lookups, for d = 1, 2 and 3 and the k = 6 table — reads adjacency
    /// only through
    /// `visit_neighbors` and the trait defaults derived from it, so a
    /// backend whose `neighbors()` would have to pin a decoded block for
    /// its lifetime (the compressed snapshot) never has to. Scalar and
    /// lock-step batched engines, and the same bits as the plain graph.
    #[test]
    fn css_engines_never_borrow_a_neighbor_slice() {
        use crate::config::EstimatorConfig;
        use crate::runner::Runner;
        use gx_graph::generators::holme_kim;
        use gx_walks::rng_from_seed;

        /// Implements only the required methods, the scoped read and the
        /// prefetch hints; `neighbors()` panics.
        struct ScopedOnly<'g>(&'g Graph);
        impl GraphAccess for ScopedOnly<'_> {
            fn num_nodes(&self) -> usize {
                self.0.num_nodes()
            }
            fn degree(&self, v: NodeId) -> usize {
                GraphAccess::degree(self.0, v)
            }
            fn neighbors(&self, v: NodeId) -> &[NodeId] {
                panic!("neighbors({v}) called on an engine path")
            }
            fn visit_neighbors(&self, v: NodeId, f: &mut dyn FnMut(&[NodeId])) {
                self.0.visit_neighbors(v, f)
            }
            fn prefetch_degree(&self, v: NodeId) {
                self.0.prefetch_degree(v)
            }
            fn prefetch_neighbors(&self, v: NodeId) {
                self.0.prefetch_neighbors(v)
            }
        }

        let g = holme_kim(80, 4, 0.5, &mut rng_from_seed(3));
        let scoped = ScopedOnly(&g);
        for (k, d) in [(3, 1), (4, 2), (5, 3), (6, 3)] {
            let cfg = EstimatorConfig { k, d, css: true, ..Default::default() };
            for runner in [
                Runner::new(cfg.clone()).steps(6_000).seed(21),
                Runner::new(cfg.clone()).steps(6_000).seed(21).walkers(4).batch_width(4),
            ] {
                let got = runner.run_local(&scoped).unwrap();
                let want = runner.run_local(&g).unwrap();
                assert!(got.valid_samples > 5_000, "k={k} d={d}: {} windows", got.valid_samples);
                assert_eq!(got.valid_samples, want.valid_samples, "k={k} d={d}");
                let bits = |e: &crate::Estimate| -> Vec<u64> {
                    e.raw_scores.iter().map(|x| x.to_bits()).collect()
                };
                assert_eq!(bits(&got), bits(&want), "k={k} d={d}");
            }
        }
    }

    /// k = 6 through the shared table: a threaded run (`prewarm`, then
    /// walker threads reading one table) gives the raw bits of the same
    /// walkers run one after another.
    #[test]
    fn k6_threaded_run_matches_local_run() {
        use crate::config::EstimatorConfig;
        use crate::runner::Runner;
        use gx_graph::generators::holme_kim;
        use gx_walks::rng_from_seed;
        let g = holme_kim(300, 4, 0.5, &mut rng_from_seed(13));
        for d in [1, 2, 3] {
            let cfg = EstimatorConfig { k: 6, d, css: true, ..Default::default() };
            let runner = Runner::new(cfg).steps(3_000).seed(8).walkers(4);
            let threaded = runner.run(&g).unwrap();
            let local = runner.run_local(&g).unwrap();
            assert!(threaded.valid_samples > 1_000, "d={d}: {} windows", threaded.valid_samples);
            assert_eq!(threaded.valid_samples, local.valid_samples, "d={d}");
            let bits = |e: &crate::Estimate| -> Vec<u64> {
                e.raw_scores.iter().map(|x| x.to_bits()).collect()
            };
            assert_eq!(bits(&threaded), bits(&local), "d={d}");
        }
    }
}

/// The seed `HashMap` implementation, kept verbatim as the bit-for-bit
/// oracle for the dense-table rewrite (satellite: "keep the old path
/// behind `#[cfg(test)]`").
#[cfg(test)]
mod seed_oracle {
    use gx_graph::{GraphAccess, NodeId};
    use gx_graphlets::alpha::covering_sequences;
    use gx_graphlets::SmallGraph;
    use gx_walks::effective_degree;
    use gx_walks::gd::gd_state_degree;
    use std::collections::HashMap;

    #[derive(Debug, Clone)]
    struct CssEntry {
        subsets: Vec<u8>,
        interiors: Vec<Vec<u8>>,
        l_is_one: bool,
    }

    pub struct SeedCssWeights {
        d: usize,
        cache: HashMap<(usize, u32), CssEntry>,
        degrees: Vec<f64>,
        subset_nodes: Vec<NodeId>,
    }

    impl SeedCssWeights {
        pub fn new(d: usize) -> Self {
            Self { d, cache: HashMap::new(), degrees: Vec::new(), subset_nodes: Vec::new() }
        }

        pub fn sampling_probability<G: GraphAccess>(
            &mut self,
            g: &G,
            mask: u32,
            nodes: &[NodeId],
            non_backtracking: bool,
        ) -> f64 {
            let k = nodes.len();
            let d = self.d;
            let entry = self.cache.entry((k, mask)).or_insert_with(|| {
                let small = SmallGraph::from_mask(k, mask);
                let cover = covering_sequences(&small, d).unwrap();
                let l = k - d + 1;
                CssEntry {
                    interiors: cover
                        .iter()
                        .map(|seq| {
                            if seq.len() <= 2 {
                                Vec::new()
                            } else {
                                seq[1..seq.len() - 1].to_vec()
                            }
                        })
                        .collect(),
                    subsets: cover.subsets,
                    l_is_one: l == 1,
                }
            });
            self.degrees.clear();
            for &bits in &entry.subsets {
                self.subset_nodes.clear();
                for (pos, &node) in nodes.iter().enumerate() {
                    if bits & (1 << pos) != 0 {
                        self.subset_nodes.push(node);
                    }
                }
                let deg = match d {
                    1 => g.degree(self.subset_nodes[0]),
                    2 => g.degree(self.subset_nodes[0]) + g.degree(self.subset_nodes[1]) - 2,
                    _ => gd_state_degree(g, &self.subset_nodes),
                };
                self.degrees.push(effective_degree(deg, non_backtracking) as f64);
            }
            if entry.l_is_one {
                debug_assert_eq!(entry.interiors.len(), 1);
                let full_idx = entry
                    .subsets
                    .iter()
                    .position(|&b| b.count_ones() as usize == k)
                    .expect("l = 1 sequence is the full subgraph");
                return self.degrees[full_idx];
            }
            entry
                .interiors
                .iter()
                .map(|interior| {
                    interior.iter().map(|&i| 1.0 / self.degrees[i as usize]).product::<f64>()
                })
                .sum()
        }
    }
}

#[cfg(test)]
mod oracle_tests {
    use super::seed_oracle::SeedCssWeights;
    use super::*;
    use gx_graph::Graph;
    use gx_graphlets::mask::num_pairs;

    /// A host graph realizing `mask` on nodes `0..k` exactly (no other
    /// edges among them), with pendant leaves attached to diversify node
    /// degrees so degree-formula mistakes cannot cancel out.
    fn realize(k: usize, mask: u32) -> Graph {
        let small = SmallGraph::from_mask(k, mask);
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for i in 0..k {
            for j in (i + 1)..k {
                if small.has_edge(i, j) {
                    edges.push((i as u32, j as u32));
                }
            }
        }
        // node i gets i + 1 pendant leaves: degrees become distinct-ish
        let mut next = k as u32;
        for i in 0..k {
            for _ in 0..=i {
                edges.push((i as u32, next));
                next += 1;
            }
        }
        Graph::from_edges(next as usize, edges).unwrap()
    }

    /// Satellite: for every connected mask at k ∈ {3, 4, 5} and every
    /// walk dimension d (including the l = 1 and l = 2 degenerate
    /// shapes), the dense-table `sampling_probability` equals the seed
    /// `HashMap` implementation bit-for-bit, plain and non-backtracking.
    #[test]
    fn dense_table_matches_seed_oracle_exhaustively() {
        for k in 3..=5usize {
            let nodes: Vec<u32> = (0..k as u32).collect();
            for mask in 0u32..(1 << num_pairs(k)) {
                if !SmallGraph::from_mask(k, mask).is_connected() {
                    continue;
                }
                let g = realize(k, mask);
                for d in 1..=k {
                    let mut dense = CssWeights::new(k, d);
                    let mut seed = SeedCssWeights::new(d);
                    for nb in [false, true] {
                        let a = dense.sampling_probability(&g, mask, &nodes, nb);
                        let b = seed.sampling_probability(&g, mask, &nodes, nb);
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "k={k} d={d} nb={nb} mask={mask:#x}: dense {a} vs seed {b}"
                        );
                    }
                }
            }
        }
    }

    /// Same oracle comparison on a scale-free host graph with realistic
    /// degree skew, driven by the masks an actual walk produces.
    #[test]
    fn dense_table_matches_seed_oracle_on_walk_samples() {
        use crate::window::NodeWindow;
        use gx_walks::{rng_from_seed, G2Walk, StateWalk};
        let g = gx_graph::generators::holme_kim(60, 4, 0.4, &mut rng_from_seed(2));
        let mut rng = rng_from_seed(17);
        let mut walk = G2Walk::new(&g, 0, g.neighbors(0)[0], false);
        let mut w = NodeWindow::new(4, 2);
        let mut dense = CssWeights::new(5, 2);
        let mut seed = SeedCssWeights::new(2);
        let mut seen = 0usize;
        for _ in 0..4000 {
            let deg = walk.state_degree();
            w.push(&g, walk.state(), deg);
            if w.is_valid_sample() {
                let (mask, nodes) = w.sample();
                let a = dense.sampling_probability_windowed(&g, mask, &w, false);
                let b = seed.sampling_probability(&g, mask, nodes, false);
                assert_eq!(a.to_bits(), b.to_bits(), "mask {mask:#x} nodes {nodes:?}");
                seen += 1;
            }
            walk.step(&mut rng);
        }
        assert!(seen > 500, "walk produced too few valid samples ({seen})");
    }

    /// Every connected 6-node mask (every 41st in the debug profile), every
    /// d, plain and non-backtracking: the per-class k = 6 table gives the
    /// seed's value, within a relative 1e-12 where sequences are summed
    /// in the representative's order (l ≥ 3) and bit for bit where no
    /// product is formed (l ≤ 2). Each entry's sequence count is α of its
    /// class.
    #[test]
    fn k6_table_matches_seed_oracle_for_every_mask() {
        use gx_graphlets::alpha::alpha_table;
        use gx_graphlets::classify_table;
        let classify = classify_table(6).unwrap();
        let nodes: Vec<u32> = (0..6).collect();
        let stride = if cfg!(debug_assertions) { 41 } else { 1 };
        let mut checked = 0usize;
        for mask in (0u32..1 << num_pairs(6)).step_by(stride) {
            if !SmallGraph::from_mask(6, mask).is_connected() {
                continue;
            }
            let g = realize(6, mask);
            for d in 1..=6 {
                let alpha = alpha_table(6, d)[classify[mask as usize] as usize];
                assert_eq!(u64::from(dense_css(6, d).entries[mask as usize].seq_cnt), alpha);
                let mut table = CssWeights::new(6, d);
                let mut seed = SeedCssWeights::new(d);
                for nb in [false, true] {
                    let a = table.sampling_probability(&g, mask, &nodes, nb);
                    let b = seed.sampling_probability(&g, mask, &nodes, nb);
                    let at = format!("d={d} nb={nb} mask={mask:#x}: table {a} vs seed {b}");
                    if d >= 5 {
                        assert_eq!(a.to_bits(), b.to_bits(), "{at}");
                    } else {
                        assert!((a - b).abs() <= 1e-12 * b.abs(), "{at}");
                    }
                }
            }
            checked += 1;
        }
        assert!(stride > 1 || checked == 26_704, "{checked} connected masks checked");
    }

    /// Every (6, d) table stays well under 2 MB: per-mask entries and
    /// relabeled subsets, interiors once per class.
    #[test]
    fn k6_tables_are_small() {
        for d in 1..=6 {
            let t = dense_css(6, d);
            let bytes = t.entries.len() * std::mem::size_of::<Entry>()
                + t.subset_bits.len() * 3
                + t.interiors.len();
            assert!(bytes < 2 << 20, "(6, {d}) table: {bytes} bytes");
        }
    }
}
