//! Zero-copy reader for raw-CSR **GXSN** snapshots.
//!
//! [`MmapGraph`] maps the snapshot read-only and serves [`GraphAccess`]
//! straight out of the mapping: `neighbors(v)` is a subslice of the
//! page cache, never a copy, so N walker threads — and N *processes* —
//! share one physical copy of a billion-edge CSR. On x86-64 Linux the
//! mapping is a raw `mmap` syscall (the workspace takes no libc-style
//! dependency; same precedent as the `madvise` call in `csr.rs`);
//! everywhere else, and via [`MmapGraph::open_in_ram`], the file is
//! read into an owned aligned buffer behind the identical API.

use super::{
    as_u32s, as_u64s, ck_add, ck_mul, page_align, to_usize, Backing, SnapshotError, SnapshotHeader,
    SnapshotKind, HEADER_LEN, PAGE,
};
use crate::access::{graph_fingerprint, GraphAccess};
use crate::csr::{prefetch_read, MADV_HUGEPAGE, MADV_WILLNEED};
use crate::NodeId;
use std::path::Path;

/// A read-only CSR graph served from a mapped (or RAM-loaded) GXSN
/// snapshot. Implements [`GraphAccess`], so every walk engine — scalar
/// and lock-step batched — runs on it unmodified and bit-identically to
/// the in-RAM [`crate::Graph`] built from the same edges.
///
/// Opening validates the header checksum, the exact file length, and
/// the monotonicity/bounds of the offset array before any accessor can
/// run, so the accessors themselves are plain bounds-checked loads.
/// The neighbor *values* are trusted from the (checksummed) writer; a
/// paranoid consumer can call [`MmapGraph::validate_deep`] for the full
/// O(edges) scan.
///
/// `has_edge` is the trait's derived binary search of the smaller
/// endpoint's list — O(log d), the same probe the in-RAM graph runs.
pub struct MmapGraph {
    backing: Backing,
    num_nodes: usize,
    num_edges: usize,
    fingerprint: u64,
    /// Byte (start, len) of the offsets section: `(n + 1) × u64`.
    off: (usize, usize),
    /// Byte (start, len) of the adjacency section: `2E × u32`.
    adj: (usize, usize),
    /// Byte (start, len) of the optional original-id section: `n × u64`.
    ids: Option<(usize, usize)>,
}

impl MmapGraph {
    /// Opens a GXSN snapshot zero-copy (mapped where supported, RAM
    /// fallback elsewhere), validating header and index bounds first.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, SnapshotError> {
        Self::from_backing(Backing::map(path.as_ref())?)
    }

    /// Opens a GXSN snapshot by reading it fully into RAM — the
    /// portable path, and the bench's page-cache A/B baseline.
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
        if header.kind != SnapshotKind::Gxsn {
            return Err(SnapshotError::BadMagic);
        }
        if header.aux_a != 0 || header.aux_b != 0 {
            return Err(SnapshotError::Malformed { what: "GXSN reserves aux header words" });
        }
        let n = to_usize(header.num_nodes, "node count")?;
        let entries = to_usize(header.num_edges.saturating_mul(2), "adjacency entries")?;
        let off_len = ck_mul(ck_add(n, 1, "offsets entries")?, 8, "offsets bytes")?;
        let adj_len = ck_mul(entries, 4, "adjacency bytes")?;
        let off = (PAGE, off_len);
        let adj_start = page_align(ck_add(PAGE, off_len, "layout")?, "layout")?;
        let adj = (adj_start, adj_len);
        let mut total = page_align(ck_add(adj_start, adj_len, "layout")?, "layout")?;
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
        backing.normalize_u64s(off.0, off.1);
        backing.normalize_u32s(adj.0, adj.1);
        if let Some(ids) = ids {
            backing.normalize_u64s(ids.0, ids.1);
        }
        let g = MmapGraph {
            backing,
            num_nodes: n,
            num_edges: to_usize(header.num_edges, "edge count")?,
            fingerprint: header.fingerprint,
            off,
            adj,
            ids,
        };
        // Offsets must be a valid CSR index: start at 0, never decrease,
        // and end exactly at the adjacency entry count. With that, every
        // accessor's slice arithmetic is in-bounds by construction.
        {
            let offsets = g.offsets();
            if offsets.first() != Some(&0) {
                return Err(SnapshotError::Malformed { what: "offsets[0] != 0" });
            }
            if offsets.last() != Some(&(entries as u64)) {
                return Err(SnapshotError::Malformed { what: "offsets[n] != 2 * num_edges" });
            }
            if offsets.windows(2).any(|w| w[1] < w[0]) {
                return Err(SnapshotError::Malformed { what: "offsets not monotone" });
            }
        }
        // Pure hints, in walk-priority order: fault the index arrays in
        // soon, and back them with hugepages so random neighbor probes
        // stay within TLB reach (see `csr::advise_hugepages`).
        g.backing.advise(0, total, MADV_WILLNEED);
        g.backing.advise(off.0, adj.0 + adj.1 - off.0, MADV_HUGEPAGE);
        Ok(g)
    }

    #[inline]
    fn offsets(&self) -> &[u64] {
        as_u64s(&self.backing.bytes()[self.off.0..self.off.0 + self.off.1])
    }

    #[inline]
    fn adjacency(&self) -> &[u32] {
        as_u32s(&self.backing.bytes()[self.adj.0..self.adj.0 + self.adj.1])
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

    /// The [`graph_fingerprint`] embedded (and checksummed) in the
    /// header at write time — what trusted-resume and the service's
    /// snapshot cache key on without rescanning the edges.
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Original dataset ids (`compact id → source id`), when the
    /// converter stored them.
    pub fn original_ids(&self) -> Option<&[u64]> {
        self.ids.map(|(start, len)| as_u64s(&self.backing.bytes()[start..start + len]))
    }

    /// True when served zero-copy from a mapping (false on the RAM
    /// fallback path).
    pub fn is_mapped(&self) -> bool {
        self.backing.is_mapped()
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let o = self.offsets();
        let v = v as usize;
        (o[v + 1] - o[v]) as usize
    }

    /// Sorted adjacency list of `v` — a subslice of the mapping, zero
    /// copies.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let o = self.offsets();
        let v = v as usize;
        &self.adjacency()[o[v] as usize..o[v + 1] as usize]
    }

    /// Full O(edges) integrity scan: every neighbor id in range, every
    /// list strictly ascending (sorted, deduplicated, self-loop-free is
    /// implied together with symmetry of the writer), and the
    /// recomputed [`graph_fingerprint`] equal to the header's. `open`
    /// skips this deliberately — the header checksum already guards
    /// against torn writes — but a consumer adopting a snapshot from an
    /// untrusted producer can insist.
    pub fn validate_deep(&self) -> Result<(), SnapshotError> {
        let n = self.num_nodes as u64;
        for v in 0..self.num_nodes {
            let nbrs = self.neighbors(v as NodeId);
            let mut prev: Option<NodeId> = None;
            for &w in nbrs {
                if u64::from(w) >= n {
                    return Err(SnapshotError::Malformed { what: "neighbor id out of range" });
                }
                if prev.is_some_and(|p| p >= w) {
                    return Err(SnapshotError::Malformed {
                        what: "adjacency list not strictly ascending",
                    });
                }
                prev = Some(w);
            }
        }
        if graph_fingerprint(self) != self.fingerprint {
            return Err(SnapshotError::Malformed { what: "fingerprint mismatch" });
        }
        Ok(())
    }
}

impl std::fmt::Debug for MmapGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapGraph")
            .field("num_nodes", &self.num_nodes)
            .field("num_edges", &self.num_edges)
            .field("fingerprint", &self.fingerprint)
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

impl GraphAccess for MmapGraph {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    #[inline]
    fn degree(&self, v: NodeId) -> usize {
        MmapGraph::degree(self, v)
    }

    #[inline]
    fn neighbors(&self, v: NodeId) -> &[NodeId] {
        MmapGraph::neighbors(self, v)
    }

    #[inline]
    fn neighbor_at(&self, v: NodeId, i: usize) -> NodeId {
        // One offset load, as in the in-RAM graph: this sits on the
        // walk's per-step critical path.
        let o = self.offsets();
        self.adjacency()[o[v as usize] as usize + i]
    }

    // gx-lint: no_alloc
    #[inline(always)]
    fn prefetch_degree(&self, v: NodeId) {
        let o = self.offsets();
        let v = v as usize;
        if v + 1 < o.len() {
            // `offsets[v]` and `offsets[v + 1]` share a line fetch.
            prefetch_read(o.as_ptr().wrapping_add(v));
        }
    }

    // gx-lint: no_alloc
    #[inline(always)]
    fn prefetch_neighbors(&self, v: NodeId) {
        let o = self.offsets();
        let v = v as usize;
        if v + 1 < o.len() {
            let start = o[v] as usize;
            let len = (o[v + 1] - o[v]) as usize;
            let base = self.adjacency().as_ptr();
            prefetch_read(base.wrapping_add(start));
            if len > 16 {
                prefetch_read(base.wrapping_add(start + len / 2));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{read_header, write_gxsn, SnapshotKind};
    use super::*;
    use crate::generators::classic;
    use crate::Graph;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("gx_mmap_test_{}_{name}", std::process::id()));
        p
    }

    fn sample() -> Graph {
        // Star-heavy graph: degrees span 1..=39.
        let mut edges: Vec<(NodeId, NodeId)> = (1..40).map(|v| (0, v)).collect();
        edges.extend([(1, 2), (2, 3), (3, 4), (5, 6)]);
        Graph::from_edges_auto(&edges)
    }

    #[test]
    fn gxsn_roundtrips_structure_and_fingerprint() {
        let g = sample();
        let path = tmp("roundtrip.gxsn");
        let info = write_gxsn(&g, None, &path).expect("write");
        assert_eq!(info.kind, SnapshotKind::Gxsn);
        assert_eq!(info.num_nodes, g.num_nodes() as u64);
        assert_eq!(info.num_edges, g.num_edges() as u64);
        assert_eq!(read_header(&path).expect("header").fingerprint, info.fingerprint);

        for m in
            [MmapGraph::open(&path).expect("open"), MmapGraph::open_in_ram(&path).expect("ram")]
        {
            assert_eq!(m.num_nodes(), g.num_nodes());
            assert_eq!(m.num_edges(), g.num_edges());
            assert_eq!(m.fingerprint(), graph_fingerprint(&g));
            assert_eq!(m.original_ids(), None);
            for v in 0..g.num_nodes() as NodeId {
                assert_eq!(m.neighbors(v), g.neighbors(v), "node {v}");
                assert_eq!(GraphAccess::degree(&m, v), g.degree(v));
            }
            m.validate_deep().expect("deep validation");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn id_map_section_roundtrips() {
        let g = classic::path(5);
        let ids: Vec<u64> = vec![100, 205, 307, 409, 511];
        let path = tmp("ids.gxsn");
        write_gxsn(&g, Some(&ids), &path).expect("write");
        let m = MmapGraph::open(&path).expect("open");
        assert_eq!(m.original_ids(), Some(&ids[..]));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn id_map_length_mismatch_is_refused() {
        let g = classic::path(5);
        let err = write_gxsn(&g, Some(&[1, 2]), tmp("badids.gxsn")).unwrap_err();
        assert_eq!(err, SnapshotError::Malformed { what: "id map length != num_nodes" });
    }

    #[test]
    fn has_edge_matches_ram_graph_for_every_pair() {
        let g = sample();
        let path = tmp("has_edge.gxsn");
        write_gxsn(&g, None, &path).expect("write");
        for m in
            [MmapGraph::open(&path).expect("open"), MmapGraph::open_in_ram(&path).expect("ram")]
        {
            for u in 0..g.num_nodes() as NodeId {
                for v in 0..g.num_nodes() as NodeId {
                    assert_eq!(m.has_edge(u, v), g.has_edge(u, v), "has_edge({u},{v})");
                }
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_and_isolated_graphs_roundtrip() {
        for g in [Graph::from_edges(0, []).expect("empty"), Graph::from_edges(3, []).expect("iso")]
        {
            let path = tmp("empty.gxsn");
            write_gxsn(&g, None, &path).expect("write");
            let m = MmapGraph::open(&path).expect("open");
            assert_eq!(m.num_nodes(), g.num_nodes());
            assert_eq!(m.num_edges(), 0);
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn gxsc_file_is_refused_by_gxsn_reader() {
        let g = classic::path(4);
        let path = tmp("wrongkind.gxsc");
        super::super::write_gxsc(&g, None, &path).expect("write");
        assert_eq!(MmapGraph::open(&path).unwrap_err(), SnapshotError::BadMagic);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_io_not_found() {
        let err = MmapGraph::open(tmp("nonexistent.gxsn")).unwrap_err();
        assert_eq!(err, SnapshotError::Io(std::io::ErrorKind::NotFound));
    }
}
