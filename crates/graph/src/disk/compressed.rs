//! Decode-on-demand reader for delta-varint **GXSC** snapshots.
//!
//! [`CompressedGraph`] keeps the compressed bytes mapped (or RAM-loaded)
//! and decodes adjacency in fixed-size *node blocks* through a bounded
//! LRU, so resident memory stays O(cache) no matter how large the graph
//! is — the format for snapshots whose raw CSR exceeds the RAM+disk
//! budget. Degrees live in an explicit mapped `u32` array, so
//! `degree(v)` never touches a block.
//!
//! The one hot accessor is [`GraphAccess::visit_neighbors`]: it holds
//! the decoded block on the caller's stack via `Arc`, serves the slice,
//! and lets eviction proceed elsewhere — which is what makes the bounded
//! cache *sound* under concurrent walkers. `has_edge`, `neighbor_at` and
//! `extend_neighbors` are the trait's defaults over it. The long-lived
//! `neighbors()` slice contract is honored too, and in safe code: the
//! first call into a block pins the LRU's `Arc` in that block's cell for
//! the reader's lifetime. It is the cold-path escape hatch the walk
//! engines never take, and a caller that does take it pays for exactly
//! the blocks it touches.

use super::{
    as_u32s, as_u64s, ck_add, ck_mul, page_align, to_usize, varint_decode, Backing, SnapshotError,
    SnapshotHeader, SnapshotKind, HEADER_LEN, PAGE,
};
use crate::access::GraphAccess;
use crate::csr::MADV_WILLNEED;
use crate::NodeId;
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Decoded blocks kept hot. With the default 64-node blocks this bounds
/// the decode cache to a few MiB on power-law graphs while one walker's
/// locality (current node + window probes) stays resident.
const CACHE_BLOCKS: usize = 64;

/// Recovers the guard from a poisoned lock: the caches hold plain data
/// that is valid at every step, so a panicking peer cannot leave them
/// torn.
fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// One decoded block: the concatenated neighbor lists of nodes
/// `first .. first + nodes_in_block`, with per-node extents.
struct DecodedBlock {
    /// First node of the block.
    first: NodeId,
    /// `starts[i]..starts[i + 1]` delimits node `first + i`'s list in
    /// `neighbors`; `nodes_in_block + 1` entries.
    starts: Vec<usize>,
    /// Concatenated sorted neighbor lists.
    neighbors: Vec<NodeId>,
}

impl DecodedBlock {
    /// The sorted neighbor list of `v`, a node of this block.
    #[inline]
    fn list(&self, v: NodeId) -> &[NodeId] {
        let i = (v - self.first) as usize;
        &self.neighbors[self.starts[i]..self.starts[i + 1]]
    }
}

struct BlockCache {
    map: HashMap<u32, (u64, Arc<DecodedBlock>)>,
    tick: u64,
}

/// A read-only graph served by decoding a GXSC snapshot on demand.
///
/// Implements [`GraphAccess`]; `Sync`, so the parallel and batched walk
/// engines share one instance across walker threads (the caches are
/// internally locked). Opening runs a full streaming decode-validation
/// pass, so every post-open decode is infallible by construction and
/// the accessors never panic on corrupt data — corrupt files simply
/// refuse to open, with a typed [`SnapshotError`].
pub struct CompressedGraph {
    backing: Backing,
    num_nodes: usize,
    num_edges: usize,
    fingerprint: u64,
    /// Nodes per decode block (header `aux_a`).
    block: usize,
    /// Byte (start, len) of the degrees section: `n × u32`.
    deg: (usize, usize),
    /// Byte (start, len) of the block index: `(nb + 1) × u64` data
    /// offsets.
    idx: (usize, usize),
    /// Byte (start, len) of the varint data section.
    data: (usize, usize),
    /// Byte (start, len) of the optional original-id section.
    ids: Option<(usize, usize)>,
    cache: Mutex<BlockCache>,
    /// Blocks pinned by the long-lived `neighbors()` contract, one cell
    /// per block, allocated on the first `neighbors()` call. A filled
    /// cell is never cleared while `self` lives, so the slices it hands
    /// out borrow from `&self` directly.
    pinned: OnceLock<Box<[OnceLock<Arc<DecodedBlock>>]>>,
}

impl CompressedGraph {
    /// Opens a GXSC snapshot zero-copy (mapped where supported, RAM
    /// fallback elsewhere), validating the header, layout, and the
    /// entire varint stream before returning.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, SnapshotError> {
        Self::from_backing(Backing::map(path.as_ref())?)
    }

    /// Opens a GXSC snapshot by reading it fully into RAM — the
    /// portable path.
    pub fn open_in_ram<P: AsRef<Path>>(path: P) -> Result<Self, SnapshotError> {
        Self::from_backing(Backing::read_owned(path.as_ref())?)
    }

    fn from_backing(mut backing: Backing) -> Result<Self, SnapshotError> {
        let len = backing.bytes().len();
        if len < HEADER_LEN {
            return Err(SnapshotError::Truncated {
                expected: HEADER_LEN as u64,
                found: len as u64,
            });
        }
        let header = SnapshotHeader::parse(&backing.bytes()[..HEADER_LEN])?;
        if header.kind != SnapshotKind::Gxsc {
            return Err(SnapshotError::BadMagic);
        }
        if header.aux_a == 0 {
            return Err(SnapshotError::Malformed { what: "block size must be >= 1" });
        }
        let n = to_usize(header.num_nodes, "node count")?;
        let block = to_usize(header.aux_a, "block size")?;
        let data_len = to_usize(header.aux_b, "data section")?;
        let nb = n.div_ceil(block);
        let deg = (PAGE, ck_mul(n, 4, "degree bytes")?);
        let idx_start = page_align(ck_add(deg.0, deg.1, "layout")?, "layout")?;
        let idx = (idx_start, ck_mul(ck_add(nb, 1, "index entries")?, 8, "index bytes")?);
        let data_start = page_align(ck_add(idx.0, idx.1, "layout")?, "layout")?;
        let data = (data_start, data_len);
        let mut total = page_align(ck_add(data_start, data_len, "layout")?, "layout")?;
        let ids = if header.has_id_map() {
            let ids_len = ck_mul(n, 8, "id map bytes")?;
            let ids = (total, ids_len);
            total = page_align(ck_add(total, ids_len, "layout")?, "layout")?;
            Some(ids)
        } else {
            None
        };
        if len < total {
            return Err(SnapshotError::Truncated { expected: total as u64, found: len as u64 });
        }
        if len > total {
            return Err(SnapshotError::Malformed { what: "trailing bytes after last section" });
        }
        backing.normalize_u32s(deg.0, deg.1);
        backing.normalize_u64s(idx.0, idx.1);
        if let Some(ids) = ids {
            backing.normalize_u64s(ids.0, ids.1);
        }
        let g = CompressedGraph {
            backing,
            num_nodes: n,
            num_edges: to_usize(header.num_edges, "edge count")?,
            fingerprint: header.fingerprint,
            block,
            deg,
            idx,
            data,
            ids,
            cache: Mutex::new(BlockCache { map: HashMap::new(), tick: 0 }),
            pinned: OnceLock::new(),
        };
        g.validate_stream(nb)?;
        g.backing.advise(0, total, MADV_WILLNEED);
        Ok(g)
    }

    /// Streaming decode-validation of the whole data section: block
    /// index monotone and exact, every list the length its degree
    /// declares, strictly ascending, in `0..n`, and the degree sum equal
    /// to `2 × num_edges`. After this passes, [`Self::decode_block`] can
    /// never fail.
    fn validate_stream(&self, nb: usize) -> Result<(), SnapshotError> {
        let idx = self.index();
        let data = self.data_bytes();
        let degrees = self.degrees();
        if idx.first() != Some(&0) {
            return Err(SnapshotError::Malformed { what: "block index[0] != 0" });
        }
        if idx.last() != Some(&(data.len() as u64)) {
            return Err(SnapshotError::Malformed { what: "block index end != data length" });
        }
        if idx.windows(2).any(|w| w[1] < w[0]) {
            return Err(SnapshotError::Malformed { what: "block index not monotone" });
        }
        // Monotone + exact final entry bounds every offset by the data
        // length, so the per-block slices below cannot go out of range.
        let n64 = self.num_nodes as u64;
        let mut dsum = 0u64;
        for b in 0..nb {
            let (lo, hi) = self.block_span(b as u32);
            let mut pos = to_usize(idx[b], "block offset")?;
            let stop = to_usize(idx[b + 1], "block offset")?;
            for &d in &degrees[lo..hi] {
                dsum += u64::from(d);
                let mut prev = 0u64;
                for i in 0..d {
                    let Some((x, next)) = varint_decode(&data[..stop], pos) else {
                        return Err(SnapshotError::Malformed {
                            what: "varint stream out of bounds",
                        });
                    };
                    pos = next;
                    if i > 0 && x == 0 {
                        return Err(SnapshotError::Malformed {
                            what: "adjacency list not strictly ascending",
                        });
                    }
                    let w = if i == 0 { x } else { prev.saturating_add(x) };
                    if w >= n64 {
                        return Err(SnapshotError::Malformed { what: "neighbor id out of range" });
                    }
                    prev = w;
                }
            }
            if pos != stop {
                return Err(SnapshotError::Malformed { what: "block length disagrees with index" });
            }
        }
        if dsum != 2 * self.num_edges as u64 {
            return Err(SnapshotError::Malformed { what: "degree sum != 2 * num_edges" });
        }
        Ok(())
    }

    #[inline]
    fn degrees(&self) -> &[u32] {
        as_u32s(&self.backing.bytes()[self.deg.0..self.deg.0 + self.deg.1])
    }

    #[inline]
    fn index(&self) -> &[u64] {
        as_u64s(&self.backing.bytes()[self.idx.0..self.idx.0 + self.idx.1])
    }

    #[inline]
    fn data_bytes(&self) -> &[u8] {
        &self.backing.bytes()[self.data.0..self.data.0 + self.data.1]
    }

    /// Node range `[lo, hi)` of block `b`.
    #[inline]
    fn block_span(&self, b: u32) -> (usize, usize) {
        let lo = (b as usize).saturating_mul(self.block).min(self.num_nodes);
        let hi = (b as usize + 1).saturating_mul(self.block).min(self.num_nodes);
        (lo, hi)
    }

    /// Decodes block `b`. Infallible by construction: the open-time
    /// [`Self::validate_stream`] pass proved every varint in bounds and
    /// every value in range, so the defensive fallbacks below are
    /// unreachable (kept instead of panics to honor the never-panic
    /// contract even against logic bugs).
    fn decode_block(&self, b: u32) -> DecodedBlock {
        let (lo, hi) = self.block_span(b);
        let data = self.data_bytes();
        let degrees = self.degrees();
        let mut pos = self.index()[b as usize] as usize;
        let total: usize = degrees[lo..hi].iter().map(|&d| d as usize).sum();
        let mut starts = Vec::with_capacity(hi - lo + 1);
        let mut neighbors = Vec::with_capacity(total);
        starts.push(0);
        for &dv in &degrees[lo..hi] {
            let d = dv as usize;
            let mut prev = 0u64;
            for i in 0..d {
                let (x, next) = varint_decode(data, pos).unwrap_or((0, pos + 1));
                pos = next;
                let w = if i == 0 { x } else { prev + x };
                neighbors.push(w as NodeId);
                prev = w;
            }
            starts.push(neighbors.len());
        }
        DecodedBlock { first: lo as NodeId, starts, neighbors }
    }

    /// The decoded block holding `v`, served from the bounded LRU.
    fn cached_block(&self, b: u32) -> Arc<DecodedBlock> {
        {
            let mut c = locked(&self.cache);
            c.tick += 1;
            let tick = c.tick;
            if let Some(entry) = c.map.get_mut(&b) {
                entry.0 = tick;
                return entry.1.clone();
            }
        }
        // Decode outside the lock: concurrent walkers may both decode
        // the same block; both Arcs are identical in content and the
        // loser's insert simply refreshes the entry.
        let decoded = Arc::new(self.decode_block(b));
        let mut c = locked(&self.cache);
        c.tick += 1;
        let tick = c.tick;
        if c.map.len() >= CACHE_BLOCKS && !c.map.contains_key(&b) {
            let victim = c.map.iter().min_by_key(|(_, (t, _))| *t).map(|(k, _)| *k);
            if let Some(k) = victim {
                c.map.remove(&k);
            }
        }
        c.map.insert(b, (tick, decoded.clone()));
        decoded
    }

    /// Index of the block holding `v`.
    #[inline]
    fn block_of(&self, v: NodeId) -> u32 {
        (v as usize / self.block) as u32
    }

    /// Number of nodes (including isolated ones).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The header-embedded [`crate::access::graph_fingerprint`].
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Nodes per decode block (the writer's granularity choice).
    #[inline]
    pub fn block_size(&self) -> usize {
        self.block
    }

    /// Original dataset ids (`compact id → source id`), when the
    /// converter stored them.
    pub fn original_ids(&self) -> Option<&[u64]> {
        self.ids.map(|(start, len)| as_u64s(&self.backing.bytes()[start..start + len]))
    }

    /// True when served from a zero-copy mapping (false on the RAM
    /// fallback path).
    pub fn is_mapped(&self) -> bool {
        self.backing.is_mapped()
    }

    #[cfg(test)]
    fn decode_cache_len(&self) -> usize {
        locked(&self.cache).map.len()
    }

    #[cfg(test)]
    fn pinned_len(&self) -> usize {
        self.pinned.get().map_or(0, |cells| cells.iter().filter(|c| c.get().is_some()).count())
    }
}

impl std::fmt::Debug for CompressedGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompressedGraph")
            .field("num_nodes", &self.num_nodes)
            .field("num_edges", &self.num_edges)
            .field("fingerprint", &self.fingerprint)
            .field("block", &self.block)
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

impl GraphAccess for CompressedGraph {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    #[inline]
    fn degree(&self, v: NodeId) -> usize {
        self.degrees()[v as usize] as usize
    }

    /// Cold-path escape hatch: pins `v`'s decoded block for the
    /// reader's lifetime (once per block) and serves the slice from it.
    /// Walk-engine hot paths read through
    /// [`GraphAccess::visit_neighbors`] instead and never land here.
    fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let b = self.block_of(v);
        let cells = self.pinned.get_or_init(|| {
            (0..self.num_nodes.div_ceil(self.block)).map(|_| OnceLock::new()).collect()
        });
        let block = cells[b as usize].get_or_init(|| self.cached_block(b));
        block.list(v)
    }

    fn visit_neighbors(&self, v: NodeId, f: &mut dyn FnMut(&[NodeId])) {
        f(self.cached_block(self.block_of(v)).list(v));
    }

    // `prefetch_degree` / `prefetch_neighbors` stay the no-op defaults
    // deliberately: decoding from a prefetch hook would mutate the cache,
    // violating the "no observable state change" contract — and the
    // useful prefetch distance here is the block, not the cache line.
}

#[cfg(test)]
mod tests {
    use super::super::{write_gxsc, write_gxsc_with_block, write_gxsn, SnapshotKind};
    use super::*;
    use crate::access::graph_fingerprint;
    use crate::generators::classic;
    use crate::Graph;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("gx_gxsc_test_{}_{name}", std::process::id()));
        p
    }

    fn sample() -> Graph {
        let mut edges: Vec<(NodeId, NodeId)> = (1..40).map(|v| (0, v)).collect();
        edges.extend([(1, 2), (2, 3), (3, 4), (5, 6), (37, 38), (10, 30)]);
        Graph::from_edges_auto(&edges)
    }

    #[test]
    fn gxsc_roundtrips_adjacency_bit_for_bit() {
        let g = sample();
        for block in [1u64, 3, 64, 1024] {
            let path = tmp(&format!("rt_{block}.gxsc"));
            let info = write_gxsc_with_block(&g, None, &path, block).expect("write");
            assert_eq!(info.kind, SnapshotKind::Gxsc);
            let c = CompressedGraph::open(&path).expect("open");
            assert_eq!(c.num_nodes(), g.num_nodes());
            assert_eq!(c.num_edges(), g.num_edges());
            assert_eq!(c.block_size(), block as usize);
            assert_eq!(c.fingerprint(), graph_fingerprint(&g));
            // The fingerprint recomputed *through the decode path* must
            // match too — proves visit_neighbors serves identical bits.
            assert_eq!(graph_fingerprint(&c), graph_fingerprint(&g));
            for v in 0..g.num_nodes() as NodeId {
                assert_eq!(GraphAccess::degree(&c, v), g.degree(v), "degree({v})");
                assert_eq!(c.neighbors(v), g.neighbors(v), "neighbors({v})");
                let mut out = Vec::new();
                c.extend_neighbors(v, &mut out);
                assert_eq!(out, g.neighbors(v), "extend({v})");
            }
            for u in 0..g.num_nodes() as NodeId {
                for v in 0..g.num_nodes() as NodeId {
                    assert_eq!(c.has_edge(u, v), g.has_edge(u, v), "has_edge({u},{v})");
                }
            }
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn decode_cache_stays_bounded() {
        let g = classic::cycle(600);
        let path = tmp("bounded.gxsc");
        // Block size 1: 600 blocks, far above the cache cap.
        write_gxsc_with_block(&g, None, &path, 1).expect("write");
        let c = CompressedGraph::open(&path).expect("open");
        // Every accessor but `neighbors()` reads through the bounded
        // cache and pins nothing.
        for v in 0..600u32 {
            c.visit_neighbors(v, &mut |nbrs| assert_eq!(nbrs.len(), 2));
            assert_eq!(GraphAccess::degree(&c, v), 2);
            let next = (v + 1) % 600;
            assert!(c.has_edge(v, next) && !c.has_edge(v, (v + 300) % 600));
            assert_eq!(c.neighbor_at(v, 1), g.neighbors(v)[1]);
            let mut out = Vec::new();
            c.extend_neighbors(v, &mut out);
            assert_eq!(out, g.neighbors(v));
            assert!(c.decode_cache_len() <= CACHE_BLOCKS, "cache grew past its bound");
        }
        assert_eq!(graph_fingerprint(&c), graph_fingerprint(&g));
        assert!(c.decode_cache_len() <= CACHE_BLOCKS, "cache grew past its bound");
        assert_eq!(c.pinned_len(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn materialized_neighbors_slice_is_stable() {
        // Block size 1 over 150 nodes: more blocks than the LRU holds.
        let g = classic::star(150);
        let path = tmp("stable.gxsc");
        write_gxsc_with_block(&g, None, &path, 1).expect("write");
        let c = CompressedGraph::open(&path).expect("open");
        let first = c.neighbors(0);
        let first_ptr = first.as_ptr();
        assert_eq!(c.pinned_len(), 1);
        assert_eq!(c.neighbors(0).as_ptr(), first_ptr);
        assert_eq!(c.pinned_len(), 1, "a second read reuses the pinned cell");
        // Churn the LRU past its bound so block 0 is evicted from it.
        for _ in 0..2 {
            for v in 1..c.num_nodes() as NodeId {
                c.visit_neighbors(v, &mut |_| {});
            }
        }
        assert_eq!(c.decode_cache_len(), CACHE_BLOCKS);
        assert!(!locked(&c.cache).map.contains_key(&0), "block 0 left the LRU");
        // Pin every block: exactly one cell per block touched.
        for v in 1..c.num_nodes() as NodeId {
            assert_eq!(c.neighbors(v), g.neighbors(v));
            assert_eq!(c.pinned_len(), v as usize + 1);
        }
        let again = c.neighbors(0);
        assert_eq!(first_ptr, again.as_ptr(), "pinned block moved");
        assert_eq!(first, g.neighbors(0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn gxsn_file_is_refused_by_gxsc_reader() {
        let g = classic::path(4);
        let path = tmp("wrongkind.gxsn");
        write_gxsn(&g, None, &path).expect("write");
        assert_eq!(CompressedGraph::open(&path).unwrap_err(), SnapshotError::BadMagic);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn id_map_roundtrips_through_gxsc() {
        let g = classic::path(3);
        let ids: Vec<u64> = vec![7, 900, 1_000_000_007];
        let path = tmp("ids.gxsc");
        write_gxsc(&g, Some(&ids), &path).expect("write");
        let c = CompressedGraph::open(&path).expect("open");
        assert_eq!(c.original_ids(), Some(&ids[..]));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_walkers_share_one_reader() {
        let g = classic::complete(24);
        let path = tmp("threads.gxsc");
        write_gxsc_with_block(&g, None, &path, 4).expect("write");
        let c = std::sync::Arc::new(CompressedGraph::open(&path).expect("open"));
        let mut handles = Vec::new();
        for t in 0..4 {
            let c = std::sync::Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                let mut sum = 0usize;
                for round in 0..50 {
                    let v = ((t * 7 + round * 5) % 24) as NodeId;
                    c.visit_neighbors(v, &mut |nbrs| sum += nbrs.len());
                }
                sum
            }));
        }
        for h in handles {
            assert_eq!(h.join().expect("thread"), 50 * 23);
        }
        let _ = std::fs::remove_file(&path);
    }
}
