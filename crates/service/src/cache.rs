//! The shared-snapshot cache: one loaded CSR per distinct graph, keyed
//! by the checkpoint subsystem's [`graph_fingerprint`].
//!
//! N concurrent jobs over the same snapshot must share one in-memory
//! CSR — both for memory (the snapshot dominates a job's footprint) and
//! so the trusted-fingerprint resume path
//! ([`gx_core::Runner::resume_trusted`]) can skip the O(edges)
//! fingerprint rescan on every scheduler lease. [`SnapshotCache::intern`]
//! canonicalizes a submitted `Arc<Graph>`: content-identical graphs
//! (same fingerprint) collapse onto the first `Arc` seen, and
//! re-submitting a previously-interned `Arc` is a pointer-equality hit
//! that skips the fingerprint scan entirely.

use crate::sync::locked;
use gx_core::graph_fingerprint;
use gx_graph::{Graph, GraphAccess, MmapGraph, NodeId, SnapshotError};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// A job's graph: either an in-RAM CSR or an out-of-core mapped
/// snapshot, shared across every job that submits the same content.
///
/// Walk engines are generic over [`GraphAccess`], so the service only
/// needs one concrete type that is both; every accessor is a direct
/// `match` dispatch onto the backend's own implementation (including
/// the scoped/copy-out accessors and the prefetch hints — delegating
/// keeps a backend's own overrides, such as the one-load `neighbor_at`,
/// in play, where the trait defaults would bypass them).
#[derive(Debug, Clone)]
pub enum SharedGraph {
    /// The classic in-RAM CSR.
    Ram(Arc<Graph>),
    /// A `.gxsn` snapshot served from the page cache (zero copies).
    Mapped(Arc<MmapGraph>),
}

impl SharedGraph {
    /// Pointer identity of the underlying allocation — two jobs share
    /// one snapshot iff these match.
    pub fn data_ptr(&self) -> usize {
        match self {
            Self::Ram(g) => Arc::as_ptr(g) as usize,
            Self::Mapped(g) => Arc::as_ptr(g) as usize,
        }
    }
}

impl GraphAccess for SharedGraph {
    #[inline]
    fn num_nodes(&self) -> usize {
        match self {
            Self::Ram(g) => g.num_nodes(),
            Self::Mapped(g) => g.num_nodes(),
        }
    }

    #[inline]
    fn degree(&self, v: NodeId) -> usize {
        match self {
            Self::Ram(g) => GraphAccess::degree(&**g, v),
            Self::Mapped(g) => GraphAccess::degree(&**g, v),
        }
    }

    #[inline]
    fn neighbors(&self, v: NodeId) -> &[NodeId] {
        match self {
            Self::Ram(g) => GraphAccess::neighbors(&**g, v),
            Self::Mapped(g) => GraphAccess::neighbors(&**g, v),
        }
    }

    #[inline]
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        match self {
            Self::Ram(g) => GraphAccess::has_edge(&**g, u, v),
            Self::Mapped(g) => GraphAccess::has_edge(&**g, u, v),
        }
    }

    #[inline]
    fn neighbor_at(&self, v: NodeId, i: usize) -> NodeId {
        match self {
            Self::Ram(g) => GraphAccess::neighbor_at(&**g, v, i),
            Self::Mapped(g) => GraphAccess::neighbor_at(&**g, v, i),
        }
    }

    #[inline]
    fn visit_neighbors(&self, v: NodeId, f: &mut dyn FnMut(&[NodeId])) {
        match self {
            Self::Ram(g) => GraphAccess::visit_neighbors(&**g, v, f),
            Self::Mapped(g) => GraphAccess::visit_neighbors(&**g, v, f),
        }
    }

    #[inline]
    fn extend_neighbors(&self, v: NodeId, out: &mut Vec<NodeId>) {
        match self {
            Self::Ram(g) => GraphAccess::extend_neighbors(&**g, v, out),
            Self::Mapped(g) => GraphAccess::extend_neighbors(&**g, v, out),
        }
    }

    #[inline]
    fn prefetch_degree(&self, v: NodeId) {
        match self {
            Self::Ram(g) => GraphAccess::prefetch_degree(&**g, v),
            Self::Mapped(g) => GraphAccess::prefetch_degree(&**g, v),
        }
    }

    #[inline]
    fn prefetch_neighbors(&self, v: NodeId) {
        match self {
            Self::Ram(g) => GraphAccess::prefetch_neighbors(&**g, v),
            Self::Mapped(g) => GraphAccess::prefetch_neighbors(&**g, v),
        }
    }
}

/// Fingerprint-keyed cache of loaded graph snapshots.
///
/// Entries live until [`SnapshotCache::evict_unused`] removes the ones
/// no job references anymore; the cache is bounded by the number of
/// *distinct* graphs submitted, which a serving deployment controls.
#[derive(Debug, Default)]
pub struct SnapshotCache {
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    /// Canonical snapshot per fingerprint.
    by_fp: HashMap<u64, Arc<Graph>>,
    /// Data-pointer → fingerprint, for canonical `Arc`s only. Keys are
    /// only ever pointers of `Arc`s held alive in `by_fp`, so a key can
    /// never dangle onto a recycled allocation.
    by_ptr: HashMap<usize, u64>,
    /// Canonical *mapped* snapshot per fingerprint. Keyed by the
    /// header-embedded fingerprint — O(1), no rescan, by the GXSN
    /// write-time contract. Kept separate from `by_fp` so an in-RAM and
    /// a mapped copy of the same content can coexist (jobs share within
    /// a backend, never silently switch backends).
    mapped: HashMap<u64, Arc<MmapGraph>>,
}

impl SnapshotCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Canonicalizes `g`: returns the shared snapshot for its content
    /// and the content's fingerprint. The first submission of a graph
    /// pays one O(edges) fingerprint scan; re-submitting the *returned*
    /// (canonical) `Arc` afterwards is a pointer lookup.
    pub fn intern(&self, g: Arc<Graph>) -> (Arc<Graph>, u64) {
        let mut inner = locked(&self.inner);
        let ptr = Arc::as_ptr(&g) as usize;
        if let Some(&fp) = inner.by_ptr.get(&ptr) {
            // `by_ptr` keys are only ever canonical `Arc`s held in
            // `by_fp`, but degrade to a rescan rather than panic if
            // that invariant is ever broken.
            if let Some(canonical) = inner.by_fp.get(&fp) {
                return (canonical.clone(), fp);
            }
        }
        let fp = graph_fingerprint(&*g);
        let canonical = match inner.by_fp.get(&fp) {
            Some(existing) => existing.clone(),
            None => {
                inner.by_fp.insert(fp, g.clone());
                inner.by_ptr.insert(ptr, fp);
                g
            }
        };
        (canonical, fp)
    }

    /// Canonicalizes a mapped snapshot: all jobs over the same content
    /// share the first mapping seen. O(1) — the key is the fingerprint
    /// already embedded (and checksummed) in the snapshot header, not a
    /// rescan.
    pub fn intern_mapped(&self, g: Arc<MmapGraph>) -> (Arc<MmapGraph>, u64) {
        let fp = g.fingerprint();
        let mut inner = locked(&self.inner);
        let canonical = inner.mapped.entry(fp).or_insert(g).clone();
        (canonical, fp)
    }

    /// Maps `path` and interns it — or, if a snapshot with the same
    /// header fingerprint is already cached, returns the existing
    /// mapping *without mapping the file again* (the header read is 64
    /// bytes). This is what makes repeated submissions of one snapshot
    /// path share a single mmap.
    pub fn from_mapped(
        &self,
        path: impl AsRef<Path>,
    ) -> Result<(Arc<MmapGraph>, u64), SnapshotError> {
        let header = gx_graph::read_header(&path)?;
        {
            let inner = locked(&self.inner);
            if let Some(existing) = inner.mapped.get(&header.fingerprint) {
                return Ok((existing.clone(), header.fingerprint));
            }
        }
        // Map outside the lock (it touches the filesystem), then race
        // benignly: if another thread mapped the same content first,
        // theirs wins and ours unmaps on drop.
        let g = Arc::new(MmapGraph::open(path)?);
        Ok(self.intern_mapped(g))
    }

    /// Canonicalizes either backend of a [`SharedGraph`].
    pub(crate) fn intern_shared(&self, g: SharedGraph) -> (SharedGraph, u64) {
        match g {
            SharedGraph::Ram(g) => {
                let (g, fp) = self.intern(g);
                (SharedGraph::Ram(g), fp)
            }
            SharedGraph::Mapped(g) => {
                let (g, fp) = self.intern_mapped(g);
                (SharedGraph::Mapped(g), fp)
            }
        }
    }

    /// Distinct snapshots currently cached (in-RAM + mapped).
    pub fn len(&self) -> usize {
        let inner = locked(&self.inner);
        inner.by_fp.len() + inner.mapped.len()
    }

    /// Whether the cache holds no snapshots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every snapshot no longer referenced outside the cache,
    /// returning how many were evicted. Call between bursts; jobs keep
    /// their own `Arc` clones, so an in-flight job's snapshot is never
    /// evicted from under it.
    pub fn evict_unused(&self) -> usize {
        let mut inner = locked(&self.inner);
        let dead: Vec<u64> = inner
            .by_fp
            .iter()
            .filter(|(_, g)| Arc::strong_count(g) == 1)
            .map(|(&fp, _)| fp)
            .collect();
        for fp in &dead {
            if let Some(g) = inner.by_fp.remove(fp) {
                inner.by_ptr.remove(&(Arc::as_ptr(&g) as usize));
            }
        }
        let before = inner.mapped.len();
        // Dropping the last `Arc<MmapGraph>` unmaps the snapshot.
        inner.mapped.retain(|_, g| Arc::strong_count(g) > 1);
        dead.len() + (before - inner.mapped.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gx_graph::generators::classic;

    #[test]
    fn content_identical_arcs_collapse_to_one_snapshot() {
        let cache = SnapshotCache::new();
        let a = Arc::new(classic::lollipop(8, 4));
        let b = Arc::new(classic::lollipop(8, 4));
        let (ca, fa) = cache.intern(a);
        let (cb, fb) = cache.intern(b);
        assert_eq!(fa, fb, "same content, same fingerprint");
        assert!(Arc::ptr_eq(&ca, &cb), "jobs must share one CSR");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_graphs_keep_distinct_entries() {
        let cache = SnapshotCache::new();
        let (_, fa) = cache.intern(Arc::new(classic::lollipop(8, 4)));
        let (_, fb) = cache.intern(Arc::new(classic::petersen()));
        assert_ne!(fa, fb);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinterning_the_canonical_arc_is_a_pointer_hit() {
        let cache = SnapshotCache::new();
        let (canonical, fp) = cache.intern(Arc::new(classic::petersen()));
        let (again, fp2) = cache.intern(canonical.clone());
        assert_eq!(fp, fp2);
        assert!(Arc::ptr_eq(&canonical, &again));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn evict_unused_drops_only_unreferenced_snapshots() {
        let cache = SnapshotCache::new();
        let (held, _) = cache.intern(Arc::new(classic::lollipop(8, 4)));
        let (dropped, _) = cache.intern(Arc::new(classic::petersen()));
        drop(dropped);
        assert_eq!(cache.evict_unused(), 1);
        assert_eq!(cache.len(), 1);
        // The held snapshot survived and is still the canonical entry.
        let (again, _) = cache.intern(held.clone());
        assert!(Arc::ptr_eq(&held, &again));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn from_mapped_shares_one_mapping_per_fingerprint() {
        let g = classic::lollipop(8, 4);
        let path = std::env::temp_dir().join("gx_service_cache_shared.gxsn");
        gx_graph::write_gxsn(&g, None, &path).unwrap();
        let cache = SnapshotCache::new();
        let (a, fa) = cache.from_mapped(&path).unwrap();
        let (b, fb) = cache.from_mapped(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(fa, fb);
        assert!(Arc::ptr_eq(&a, &b), "second open must reuse the first mapping");
        assert_eq!(cache.len(), 1);
        // The header fingerprint the cache keys on is the same value an
        // O(edges) rescan would compute — resume_trusted stays safe.
        assert_eq!(fa, graph_fingerprint(&*a));
        assert_eq!(fa, graph_fingerprint(&g));
        // Eviction: drop both handles, the mapping goes away.
        drop((a, b));
        assert_eq!(cache.evict_unused(), 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn mapped_and_ram_copies_of_one_graph_stay_per_backend() {
        let g = classic::petersen();
        let path = std::env::temp_dir().join("gx_service_cache_backends.gxsn");
        gx_graph::write_gxsn(&g, None, &path).unwrap();
        let cache = SnapshotCache::new();
        let (_ram, f1) = cache.intern(Arc::new(g));
        let (_mapped, f2) = cache.from_mapped(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(f1, f2, "same content, same fingerprint");
        assert_eq!(cache.len(), 2, "one entry per backend — jobs never switch backends silently");
    }

    #[test]
    fn fingerprint_matches_core_graph_fingerprint() {
        // resume_trusted relies on the cached value being exactly what
        // core would compute — a drifted cache would forfeit the
        // wrong-graph protection.
        let cache = SnapshotCache::new();
        let g = Arc::new(classic::petersen());
        let (_, fp) = cache.intern(g.clone());
        assert_eq!(fp, graph_fingerprint(&*g));
    }
}
