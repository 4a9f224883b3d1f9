//! Graph substrate for the `graphlet-rw` workspace.
//!
//! This crate provides everything the random-walk framework of
//! Chen et al. (VLDB 2016) needs from the *underlying* graph `G`:
//!
//! * [`Graph`] — an immutable, CSR-backed, undirected simple graph with
//!   sorted adjacency lists (O(log d) edge queries, O(1) uniform neighbor
//!   access);
//! * [`GraphBuilder`] — ingestion with de-duplication and self-loop removal;
//! * [`GraphAccess`] — the *restricted access* abstraction of the paper:
//!   algorithms written against this trait can only look at one node's
//!   neighborhood at a time, exactly like crawling an OSN through its API.
//!   [`ApiGraph`] wraps any `GraphAccess` backend and meters API usage;
//! * [`generators`] — seeded synthetic graph families used as substitutes
//!   for the paper's proprietary datasets (see `DESIGN.md` §3);
//! * [`subrel`] — explicit construction of the d-node subgraph relationship
//!   graph `G(d)` for small graphs, used to validate stationary
//!   distributions and mixing times against theory;
//! * [`connectivity`] — BFS, connected components and LCC extraction (the
//!   paper evaluates on the largest connected component of every dataset);
//! * [`disk`] — out-of-core snapshots: the page-aligned `GXSN` format
//!   served zero-copy by [`MmapGraph`], the delta-varint `GXSC` format
//!   behind [`CompressedGraph`]'s bounded decode cache, and atomic
//!   writers for both. Both implement [`GraphAccess`], so every walk
//!   engine runs unmodified — and bit-identically — off disk.
//!
//! All randomness is injected through [`rand::Rng`], and the workspace uses
//! PCG64 seeds everywhere so experiments are exactly reproducible.

pub mod access;
pub mod builder;
pub mod connectivity;
pub mod csr;
pub mod disk;
pub mod error;
pub mod generators;
pub mod io;
pub mod stats;
pub mod subrel;

pub use access::{graph_fingerprint, ApiGraph, ApiStats, GraphAccess};
pub use builder::GraphBuilder;
pub use csr::Graph;
pub use disk::{
    read_header, write_gxsc, write_gxsn, CompressedGraph, MmapGraph, SnapshotError, SnapshotHeader,
    SnapshotInfo, SnapshotKind,
};
pub use error::GraphError;

/// Node identifier. Kept as a bare `u32`: graphs in this workspace are
/// node-addressed arrays, and a newtype would add friction at every call
/// site without preventing any realistic bug class.
pub type NodeId = u32;
