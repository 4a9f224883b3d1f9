//! Cached, verified workload inputs.
//!
//! Every graph a workload reads is generated once into the cache
//! directory as an on-disk snapshot (`GXSN` or `GXSC`), next to a small
//! `.meta` record of what the writer produced: node and edge counts, the
//! header fingerprint and the file length. The file name carries the
//! generator parameters. On reuse the 64-byte header is read and checked
//! against the record, so a stale, foreign or truncated file is rebuilt
//! rather than trusted. Exact graphlet counts are cached the same way,
//! keyed by the fingerprint of the graph they were counted on.
//!
//! All of this runs in the `prepare` step, in its own process, so neither
//! its time nor its memory reaches a measured run.

use gx_core::write_atomic;
use gx_exact::exact_counts;
use gx_graph::disk::{read_header, write_gxsc, write_gxsn, SnapshotKind};
use gx_graph::generators::barabasi_albert;
use gx_graph::{graph_fingerprint, Graph, GraphAccess, NodeId};
use gx_graphlets::num_graphlets;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

/// The graphs the workloads run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// `epinion-sim` (Holme–Kim, 1500 nodes, m = 4) as GXSN; loaded into
    /// a RAM `Graph` by the cache-resident and service workloads.
    Epinion,
    /// `facebook-sim` (Holme–Kim, 1000 nodes) as GXSC; exact k = 5
    /// counts exist for it.
    Facebook,
    /// Barabási–Albert, 8M nodes, m = 8 (64M edges) as GXSN: the
    /// DRAM-resident graph, 5.5× the L3.
    Ba8m,
}

/// Seed of the 8M-node BA generator (part of the cache key).
const BA_SEED: u64 = 0xDA7A_0008;
const BA_NODES: usize = 8_000_000;
const BA_M: usize = 8;

impl Input {
    /// Cache key: names the generator and every parameter, so changing
    /// one never reuses the old file.
    fn key(self) -> String {
        match self {
            Input::Epinion => "epinion-sim-hk-n1500-m4-p025-se919-v1".to_string(),
            Input::Facebook => "facebook-sim-hk-n1000-m5-p060-sface-v1".to_string(),
            Input::Ba8m => format!("ba-n{BA_NODES}-m{BA_M}-s{BA_SEED:x}-v1"),
        }
    }

    /// Snapshot format the input is stored in.
    pub fn kind(self) -> SnapshotKind {
        match self {
            Input::Facebook => SnapshotKind::Gxsc,
            Input::Epinion | Input::Ba8m => SnapshotKind::Gxsn,
        }
    }

    fn build(self) -> Graph {
        match self {
            Input::Epinion => gx_datasets::dataset("epinion-sim").graph().clone(),
            Input::Facebook => gx_datasets::dataset("facebook-sim").graph().clone(),
            Input::Ba8m => {
                let mut rng = rand_pcg::Pcg64::seed_from_u64(BA_SEED);
                barabasi_albert(BA_NODES, BA_M, &mut rng)
            }
        }
    }

    /// Path of the snapshot in `cache`.
    pub fn path(self, cache: &Path) -> PathBuf {
        let ext = match self.kind() {
            SnapshotKind::Gxsn => "gxsn",
            SnapshotKind::Gxsc => "gxsc",
        };
        cache.join(format!("{}.{ext}", self.key()))
    }

    fn meta_path(self, cache: &Path) -> PathBuf {
        cache.join(format!("{}.meta", self.key()))
    }

    fn counts_path(self, cache: &Path, k: usize) -> PathBuf {
        cache.join(format!("{}-k{k}.counts", self.key()))
    }
}

/// What the writer produced, as recorded next to the snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Meta {
    pub nodes: u64,
    pub edges: u64,
    pub fingerprint: u64,
    pub bytes: u64,
}

impl Meta {
    fn encode(&self) -> String {
        format!("{} {} {} {}\n", self.nodes, self.edges, self.fingerprint, self.bytes)
    }

    fn decode(text: &str) -> Option<Self> {
        let v: Vec<u64> = text.split_whitespace().map(|t| t.parse().ok()).collect::<Option<_>>()?;
        match v[..] {
            [nodes, edges, fingerprint, bytes] => Some(Self { nodes, edges, fingerprint, bytes }),
            _ => None,
        }
    }
}

/// The recorded metadata of `input`'s snapshot if the file on disk
/// still matches it: same format, counts and fingerprint in a
/// checksum-valid header, and the recorded length.
pub fn verified(cache: &Path, input: Input) -> Option<Meta> {
    let meta = Meta::decode(&std::fs::read_to_string(input.meta_path(cache)).ok()?)?;
    let path = input.path(cache);
    let header = read_header(&path).ok()?;
    let len = std::fs::metadata(&path).ok()?.len();
    let fresh = header.kind == input.kind()
        && header.num_nodes == meta.nodes
        && header.num_edges == meta.edges
        && header.fingerprint == meta.fingerprint
        && len == meta.bytes;
    fresh.then_some(meta)
}

/// Makes sure `input`'s snapshot exists and verifies, building it if
/// not. Returns its metadata.
pub fn ensure_snapshot(cache: &Path, input: Input) -> Result<Meta, String> {
    if let Some(meta) = verified(cache, input) {
        return Ok(meta);
    }
    std::fs::create_dir_all(cache).map_err(|e| format!("create {}: {e}", cache.display()))?;
    eprintln!("prepare: generating {}", input.key());
    let g = input.build();
    let path = input.path(cache);
    let info = match input.kind() {
        SnapshotKind::Gxsn => write_gxsn(&g, None, &path),
        SnapshotKind::Gxsc => write_gxsc(&g, None, &path),
    }
    .map_err(|e| format!("write {}: {e}", path.display()))?;
    let meta = Meta {
        nodes: info.num_nodes,
        edges: info.num_edges,
        fingerprint: info.fingerprint,
        bytes: info.bytes,
    };
    write_atomic(input.meta_path(cache), meta.encode().as_bytes())
        .map_err(|e| format!("write meta: {e}"))?;
    verified(cache, input).ok_or_else(|| format!("{} does not verify after writing", input.key()))
}

/// Exact `k`-node graphlet concentrations of `input`, from the cache
/// when the stored record names the snapshot's fingerprint, otherwise
/// counted with `gx-exact` and stored.
pub fn ensure_exact(cache: &Path, input: Input, k: usize) -> Result<Vec<f64>, String> {
    let meta = ensure_snapshot(cache, input)?;
    let path = input.counts_path(cache, k);
    if let Some(c) = read_counts(&path, meta.fingerprint, k) {
        return Ok(concentrations(&c));
    }
    eprintln!("prepare: counting exact k={k} graphlets of {}", input.key());
    let g = input.build();
    if graph_fingerprint(&g) != meta.fingerprint {
        return Err(format!("{}: generator output differs from its snapshot", input.key()));
    }
    let counts = exact_counts(&g, k).counts;
    let text: Vec<String> = std::iter::once(meta.fingerprint.to_string())
        .chain(counts.iter().map(u64::to_string))
        .collect();
    write_atomic(&path, text.join(" ").as_bytes()).map_err(|e| format!("write counts: {e}"))?;
    Ok(concentrations(&counts))
}

/// Cached exact concentrations, for a run (never computes).
pub fn cached_exact(cache: &Path, input: Input, k: usize, meta: &Meta) -> Result<Vec<f64>, String> {
    read_counts(&input.counts_path(cache, k), meta.fingerprint, k)
        .map(|c| concentrations(&c))
        .ok_or_else(|| format!("exact k={k} counts of {} missing: run prepare", input.key()))
}

fn read_counts(path: &Path, fingerprint: u64, k: usize) -> Option<Vec<u64>> {
    let text = std::fs::read_to_string(path).ok()?;
    let v: Vec<u64> = text.split_whitespace().map(|t| t.parse().ok()).collect::<Option<_>>()?;
    let (&fp, counts) = v.split_first()?;
    (fp == fingerprint && counts.len() == num_graphlets(k)).then(|| counts.to_vec())
}

fn concentrations(counts: &[u64]) -> Vec<f64> {
    let total: u64 = counts.iter().sum();
    counts.iter().map(|&c| c as f64 / total.max(1) as f64).collect()
}

/// Copies any backend into an in-RAM CSR `Graph` (with the builder's
/// hub index) — how the RAM workloads load a snapshot.
pub fn to_ram<G: GraphAccess>(g: &G) -> Result<Graph, String> {
    let n = g.num_nodes();
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    for v in 0..n as NodeId {
        g.visit_neighbors(v, &mut |nbrs| {
            edges.extend(nbrs.iter().filter(|&&w| w > v).map(|&w| (v, w)));
        });
    }
    Graph::from_edges(n, edges).map_err(|e| format!("rebuild graph: {e}"))
}
