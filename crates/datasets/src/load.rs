//! Loading *real* snapshots (SNAP/KONECT edge lists) as datasets.
//!
//! The synthetic registry in [`crate`] covers every in-tree experiment,
//! but the north star is dropping actual KONECT crawls in. Those files
//! use sparse original ids (user ids around 10⁹ are routine), so the
//! loader goes through [`gx_graph::io::read_edge_list_compact`] and —
//! crucially — *keeps* the [`NodeIdMap`] next to the graph: every
//! estimate, sampled graphlet, or per-node statistic computed on the
//! compact graph can be translated back to the snapshot's own ids.
//! Dropping the map (the previous state of affairs: datasets and
//! examples assumed dense ids) made results on remapped graphs
//! unreportable.

use gx_graph::io::{read_edge_list_compact, read_edge_list_compact_file, NodeIdMap};
use gx_graph::{Graph, GraphError, MmapGraph, NodeId, SnapshotError};
use std::io::Read;
use std::path::Path;
use std::sync::Arc;

/// A graph loaded from an external edge list, with the id remap needed
/// to translate results back to the file's original ids.
#[derive(Debug)]
pub struct LoadedDataset {
    /// Dataset name (the file stem for path-based loads).
    pub name: String,
    /// The compact graph (nodes `0..n` in sorted-original-id order).
    pub graph: Graph,
    /// Compact ↔ original id translation.
    pub ids: NodeIdMap,
}

impl LoadedDataset {
    /// Loads an edge list (SNAP/KONECT plain-text convention: `u v`
    /// per line, `#`/`%` comments, duplicates tolerated) with id
    /// compaction. A stray id like 10⁹ costs one map entry, not a
    /// billion-node allocation.
    ///
    /// Path-based loads stream the file twice (degree count, then CSR
    /// fill) instead of buffering every edge, so peak RAM is the final
    /// CSR plus the id map — edge lists larger than memory convert fine.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, GraphError> {
        let path = path.as_ref();
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "dataset".to_string());
        let (graph, ids) = read_edge_list_compact_file(path)?;
        Ok(Self { name, graph, ids })
    }

    /// [`LoadedDataset::load`] from any reader, with an explicit name.
    pub fn from_reader(name: impl Into<String>, reader: impl Read) -> Result<Self, GraphError> {
        let (graph, ids) = read_edge_list_compact(reader)?;
        Ok(Self { name: name.into(), graph, ids })
    }

    /// Original file id of compact node `node`.
    pub fn original_id(&self, node: NodeId) -> u64 {
        self.ids.original(node)
    }

    /// Compact node of original file id `original` (`None` if the id
    /// never appeared in the file).
    pub fn compact_id(&self, original: u64) -> Option<NodeId> {
        self.ids.compact(original)
    }

    /// Translates a compact node set (e.g. a sampled graphlet's nodes)
    /// back to original file ids, preserving order.
    pub fn originals_of(&self, nodes: &[NodeId]) -> Vec<u64> {
        nodes.iter().map(|&n| self.ids.original(n)).collect()
    }
}

/// A dataset served straight from an on-disk `.gxsn` snapshot — the
/// out-of-core analog of [`LoadedDataset`].
///
/// The adjacency arrays stay in the page cache (zero-copy mmap on
/// Linux/x86-64, read-into-RAM elsewhere), and the id translation reads
/// the snapshot's embedded id-map section in place instead of
/// materializing a [`NodeIdMap`]. Snapshots without an id map use
/// identity ids (`original == compact`), which is what `gx-snapshot`
/// writes for already-dense inputs.
#[derive(Debug)]
pub struct MappedDataset {
    /// Dataset name (the file stem of the snapshot path).
    pub name: String,
    /// The mapped graph; `Arc` so jobs and caches can share one mapping.
    pub graph: Arc<MmapGraph>,
}

impl MappedDataset {
    /// Maps a `.gxsn` snapshot. Header, section bounds, and offset
    /// monotonicity are validated before any accessor is exposed.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        let path = path.as_ref();
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "dataset".to_string());
        let graph = Arc::new(MmapGraph::open(path)?);
        Ok(Self { name, graph })
    }

    /// Original file id of compact node `node` (identity when the
    /// snapshot carries no id map).
    pub fn original_id(&self, node: NodeId) -> u64 {
        match self.graph.original_ids() {
            Some(ids) => ids[node as usize],
            None => u64::from(node),
        }
    }

    /// Compact node of original file id `original` (`None` if the id is
    /// not present).
    pub fn compact_id(&self, original: u64) -> Option<NodeId> {
        match self.graph.original_ids() {
            Some(ids) => ids.binary_search(&original).ok().map(|i| i as NodeId),
            None if original < self.graph.num_nodes() as u64 => Some(original as NodeId),
            None => None,
        }
    }

    /// Translates a compact node set back to original ids, preserving
    /// order.
    pub fn originals_of(&self, nodes: &[NodeId]) -> Vec<u64> {
        nodes.iter().map(|&n| self.original_id(n)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// KONECT-style sparse ids around 10⁹: a triangle plus a pendant.
    const SPARSE: &str = "% sparse-id fixture\n\
        1000000000 1000000007\n\
        1000000007 2000000042\n\
        2000000042 1000000000\n\
        # pendant\n\
        2000000042 3000000000\n";

    #[test]
    fn sparse_id_round_trip() {
        let d = LoadedDataset::from_reader("sparse", SPARSE.as_bytes()).unwrap();
        assert_eq!(d.graph.num_nodes(), 4, "four distinct ids, not 3×10⁹ slots");
        assert_eq!(d.graph.num_edges(), 4);
        // Compact ids follow sorted original order; every node round-trips.
        for n in 0..d.graph.num_nodes() as NodeId {
            assert_eq!(d.compact_id(d.original_id(n)), Some(n));
        }
        assert_eq!(d.original_id(0), 1_000_000_000);
        assert_eq!(d.original_id(3), 3_000_000_000);
        assert_eq!(d.compact_id(999), None);
        // The triangle survives the remap.
        let (a, b, c) = (
            d.compact_id(1_000_000_000).unwrap(),
            d.compact_id(1_000_000_007).unwrap(),
            d.compact_id(2_000_000_042).unwrap(),
        );
        assert!(d.graph.has_edge(a, b) && d.graph.has_edge(b, c) && d.graph.has_edge(c, a));
        assert_eq!(d.originals_of(&[c, a]), vec![2_000_000_042, 1_000_000_000]);
    }

    #[test]
    fn file_round_trip_and_estimation_end_to_end() {
        let path = std::env::temp_dir().join("gx_datasets_sparse_fixture.txt");
        std::fs::write(&path, SPARSE).unwrap();
        let d = LoadedDataset::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(d.name, "gx_datasets_sparse_fixture");
        // The compact graph is a first-class estimation target: exact
        // counting sees the one triangle, reported in original ids.
        let counts = gx_exact::exact_counts(&d.graph, 3);
        assert_eq!(counts.counts[1], 1, "exactly one triangle");
        let tri: Vec<u64> = d.originals_of(&[0, 1, 2]);
        assert_eq!(tri, vec![1_000_000_000, 1_000_000_007, 2_000_000_042]);
    }

    #[test]
    fn load_missing_file_is_an_io_error() {
        let err = LoadedDataset::load("/nonexistent/gx-no-such-file.txt").unwrap_err();
        assert!(matches!(err, GraphError::Io(_)), "got {err:?}");
    }

    #[test]
    fn mapped_dataset_round_trips_ids_through_the_snapshot() {
        let d = LoadedDataset::from_reader("sparse", SPARSE.as_bytes()).unwrap();
        let path = std::env::temp_dir().join("gx_datasets_mapped_fixture.gxsn");
        gx_graph::write_gxsn(&d.graph, Some(d.ids.originals()), &path).unwrap();
        let m = MappedDataset::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(m.name, "gx_datasets_mapped_fixture");
        assert_eq!(m.graph.num_nodes(), d.graph.num_nodes());
        assert_eq!(m.graph.num_edges(), d.graph.num_edges());
        // Same id translation as the in-RAM loader, read from the mapped
        // id-map section.
        for n in 0..d.graph.num_nodes() as NodeId {
            assert_eq!(m.original_id(n), d.original_id(n));
            assert_eq!(m.compact_id(m.original_id(n)), Some(n));
        }
        assert_eq!(m.compact_id(999), None);
        assert_eq!(m.originals_of(&[2, 0]), d.originals_of(&[2, 0]));
    }

    #[test]
    fn mapped_dataset_without_id_map_uses_identity() {
        let g = gx_graph::generators::classic::cycle(5);
        let path = std::env::temp_dir().join("gx_datasets_mapped_identity.gxsn");
        gx_graph::write_gxsn(&g, None, &path).unwrap();
        let m = MappedDataset::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(m.original_id(3), 3);
        assert_eq!(m.compact_id(4), Some(4));
        assert_eq!(m.compact_id(5), None, "past num_nodes");
    }

    #[test]
    fn mapped_dataset_missing_file_is_a_typed_snapshot_error() {
        let err = MappedDataset::open("/nonexistent/gx-no-such.gxsn").unwrap_err();
        assert_eq!(err, SnapshotError::Io(std::io::ErrorKind::NotFound));
    }
}
