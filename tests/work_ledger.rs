//! The work ledger: the paper's cost unit (§6.2.1), pinned per seed.
//!
//! The paper measures a restricted-access estimator by the adjacency
//! requests it issues and the distinct nodes it fetches. Both are a pure
//! function of `(graph, config, budget, seed, walkers)`, so unlike a
//! timing they carry no noise and can gate every change: this suite runs
//! one fixed setup through the metered [`ApiGraph`] for every `(k, d)`
//! with `k ∈ {3, 4, 5}` and `1 ≤ d ≤ k`, over the in-RAM `Graph`, a
//! mapped GXSN snapshot and a compressed GXSC snapshot, each at group
//! width 1 and 4.
//!
//! * The six cells of a row must agree exactly: storage and group width
//!   may change how fast a chain runs, never what it reads.
//! * The row must equal [`LEDGER`]. Any difference fails — a rise is a
//!   cost regression, and a fall is a win to be re-ratcheted in the same
//!   change, by pasting the replacement table the failure prints.
//!
//! Run it with `cargo test -q --test work_ledger`.

use graphlet_rw::datasets::dataset;
use graphlet_rw::graph::{disk, ApiGraph, GraphAccess};
use graphlet_rw::{CompressedGraph, EstimatorConfig, MmapGraph, Runner};

/// Scored windows per run, split over [`WALKERS`].
const WINDOWS: usize = 4_000;
const WALKERS: usize = 4;
const SEED: u64 = 5;

/// One ledger row: `(k, d, total_requests, distinct_nodes_fetched,
/// valid_samples)` for SRW(d)CSS on epinion-sim.
type Row = (usize, usize, u64, u64, usize);

const LEDGER: [Row; 12] = [
    (3, 1, 11556, 1222, 3532), // 2.889 requests/window
    (3, 2, 13055, 1196, 4000), // 3.264 requests/window
    (3, 3, 36034, 1036, 4000), // 9.008 requests/window
    (4, 1, 11540, 1222, 3080), // 2.885 requests/window
    (4, 2, 12913, 1196, 3887), // 3.228 requests/window
    (4, 3, 20070, 1038, 4000), // 5.018 requests/window
    (4, 4, 48056, 1030, 4000), // 12.014 requests/window
    (5, 1, 11498, 1222, 2687), // 2.874 requests/window
    (5, 2, 12826, 1196, 3705), // 3.207 requests/window
    (5, 3, 45142, 1038, 3941), // 11.286 requests/window
    (5, 4, 24104, 1031, 4000), // 6.026 requests/window
    (5, 5, 60080, 918, 4000),  // 15.020 requests/window
];

/// `(total_requests, distinct_nodes_fetched, valid_samples)` of one
/// metered run.
fn metered<G: GraphAccess>(g: G, cfg: &EstimatorConfig, width: usize) -> (u64, u64, usize) {
    let api = ApiGraph::new(g);
    let est = Runner::new(cfg.clone())
        .steps(WINDOWS)
        .walkers(WALKERS)
        .batch_width(width)
        .seed(SEED)
        .run_local(&api)
        .expect("valid ledger configuration");
    let stats = api.stats();
    (stats.total_requests, stats.distinct_nodes_fetched, est.valid_samples)
}

#[test]
fn work_ledger_is_pinned_and_backend_and_width_independent() {
    let g = dataset("epinion-sim").graph();
    let dir = std::env::temp_dir();
    let sn = dir.join(format!("gx_work_ledger_{}.gxsn", std::process::id()));
    let sc = dir.join(format!("gx_work_ledger_{}.gxsc", std::process::id()));
    disk::write_gxsn(g, None, &sn).expect("write GXSN");
    disk::write_gxsc(g, None, &sc).expect("write GXSC");
    let mmap = MmapGraph::open(&sn).expect("open GXSN");
    let compressed = CompressedGraph::open(&sc).expect("open GXSC");

    let mut measured = Vec::new();
    let mut disagreements = Vec::new();
    for k in 3..=5 {
        for d in 1..=k {
            let cfg = EstimatorConfig { k, d, css: true, non_backtracking: false, burn_in: 0 };
            let mut cells = Vec::new();
            for width in [1, 4] {
                cells.push((format!("ram/B={width}"), metered(g, &cfg, width)));
                cells.push((format!("gxsn/B={width}"), metered(&mmap, &cfg, width)));
                cells.push((format!("gxsc/B={width}"), metered(&compressed, &cfg, width)));
            }
            let (requests, distinct, valid) = cells[0].1;
            if cells.iter().any(|(_, cost)| *cost != cells[0].1) {
                disagreements.push(format!("k{k}d{d}: {cells:?}"));
            }
            measured.push((k, d, requests, distinct, valid));
        }
    }
    let _ = std::fs::remove_file(&sn);
    let _ = std::fs::remove_file(&sc);

    assert!(disagreements.is_empty(), "cells of a row disagree:\n{}", disagreements.join("\n"));
    if measured != LEDGER {
        let rows: String = measured
            .iter()
            .map(|(k, d, r, n, v)| {
                let per_window = *r as f64 / WINDOWS as f64;
                format!("    ({k}, {d}, {r}, {n}, {v}), // {per_window:.3} requests/window\n")
            })
            .collect();
        panic!(
            "the work ledger moved; if the change is intended, replace LEDGER with:\n\
             const LEDGER: [Row; 12] = [\n{rows}];"
        );
    }
}
