//! Conformance suite for the out-of-core graph backends.
//!
//! The hard contract: an estimation run is a function of the graph's
//! *content*, never of its storage. A `.gxsn` snapshot served zero-copy
//! through [`MmapGraph`] (or its portable read-into-RAM fallback) and a
//! `.gxsc` delta-varint snapshot decoded through [`CompressedGraph`]
//! must produce **bit-identical** raw scores, `BatchStats`, and
//! checkpoints to the in-RAM [`Graph`] they were written from — for
//! every walk flavor, both engines, and any walker fan-out. And a
//! corrupted snapshot must always refuse as a typed
//! [`SnapshotError`]: never a panic, never a silently wrong graph.

use graphlet_rw::graph::generators::classic;
use graphlet_rw::graph::{disk, GraphAccess};
use graphlet_rw::{
    graph_fingerprint, CompressedGraph, EstimatorConfig, Graph, MmapGraph, Runner, SnapshotError,
};
use std::path::PathBuf;

/// Unique temp path per test (tests run concurrently in one process).
fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gx_mmap_backend_{name}"))
}

/// The reference graph: a degree-40 hub glued to structure the d = 2
/// and d = 3 walks can mix on.
fn reference_graph() -> Graph {
    let mut b = graphlet_rw::graph::GraphBuilder::new(61);
    // A 40-leaf star (node 0 is a hub) …
    for v in 1..=40u32 {
        b.add_edge(0, v).unwrap();
    }
    // … whose first leaves close into a clique (graphlet-rich) …
    for u in 1..=8u32 {
        for v in (u + 1)..=8 {
            b.add_edge(u, v).unwrap();
        }
    }
    // … plus a long tail so degrees span 1..=40.
    for v in 40..60u32 {
        b.add_edge(v, v + 1).unwrap();
    }
    b.build()
}

fn bits(est: &graphlet_rw::Estimate) -> Vec<u64> {
    est.raw_scores.iter().map(|x| x.to_bits()).collect()
}

fn assert_estimates_bit_identical(a: &graphlet_rw::Estimate, b: &graphlet_rw::Estimate) {
    assert_eq!(bits(a), bits(b));
    assert_eq!(a.steps, b.steps);
    assert_eq!(a.valid_samples, b.valid_samples);
    assert_eq!(a.accuracy, b.accuracy);
    assert_eq!(a.adaptive, b.adaptive);
}

/// Every (d, css, nb) flavor the suite drives: d = 1 SRW-CSS, d = 2
/// edge walk, d = 3 enumerating walk.
fn flavors() -> Vec<EstimatorConfig> {
    vec![
        EstimatorConfig { k: 3, d: 1, css: true, non_backtracking: false, burn_in: 16 },
        EstimatorConfig { k: 4, d: 2, css: true, non_backtracking: true, burn_in: 16 },
        EstimatorConfig::psrw(4), // d = 3
    ]
}

#[test]
fn structure_round_trips_through_both_formats() {
    let g = reference_graph();
    let sn = tmp("roundtrip.gxsn");
    let sc = tmp("roundtrip.gxsc");
    let info_n = disk::write_gxsn(&g, None, &sn).unwrap();
    let info_c = disk::write_gxsc(&g, None, &sc).unwrap();
    assert_eq!(info_n.fingerprint, graph_fingerprint(&g));
    assert_eq!(info_c.fingerprint, info_n.fingerprint);
    // The compressed form should actually compress this adjacency.
    assert!(info_c.num_edges == info_n.num_edges && info_n.num_nodes == g.num_nodes() as u64);

    let m = MmapGraph::open(&sn).unwrap();
    let r = MmapGraph::open_in_ram(&sn).unwrap();
    let c = CompressedGraph::open(&sc).unwrap();
    for b in [&m as &dyn GraphAccess, &r as &dyn GraphAccess, &c as &dyn GraphAccess] {
        assert_eq!(b.num_nodes(), g.num_nodes());
        for v in 0..g.num_nodes() as u32 {
            assert_eq!(b.degree(v), g.degree(v));
            let mut got = Vec::new();
            b.extend_neighbors(v, &mut got);
            assert_eq!(got, g.neighbors(v));
        }
    }
    // The header fingerprint, the mapped recomputation, and the in-RAM
    // graph all agree — this is what lets resume_trusted and the service
    // cache adopt a snapshot without an O(edges) rescan.
    assert_eq!(m.fingerprint(), graph_fingerprint(&g));
    assert_eq!(graph_fingerprint(&m), graph_fingerprint(&g));
    assert_eq!(graph_fingerprint(&c), graph_fingerprint(&g));
    m.validate_deep().unwrap();
    std::fs::remove_file(&sn).ok();
    std::fs::remove_file(&sc).ok();
}

#[test]
fn every_backend_flavor_engine_cell_matches_the_ram_golden_bits() {
    let g = reference_graph();
    let sn = tmp("matrix.gxsn");
    let sc = tmp("matrix.gxsc");
    disk::write_gxsn(&g, None, &sn).unwrap();
    disk::write_gxsc(&g, None, &sc).unwrap();
    let mapped = MmapGraph::open(&sn).unwrap();
    let compressed = CompressedGraph::open(&sc).unwrap();
    std::fs::remove_file(&sn).ok();
    std::fs::remove_file(&sc).ok();

    for cfg in flavors() {
        for walkers in [1usize, 8] {
            let runner = Runner::new(cfg.clone()).steps(3_000).seed(42).walkers(walkers);
            let golden = runner.run_local(&g).unwrap();
            for width in [1usize, 8] {
                let r = Runner::new(cfg.clone())
                    .steps(3_000)
                    .seed(42)
                    .walkers(walkers)
                    .batch_width(width);
                assert_estimates_bit_identical(&golden, &r.run_local(&mapped).unwrap());
                assert_estimates_bit_identical(&golden, &r.run_local(&compressed).unwrap());
            }
        }
    }
}

#[test]
fn checkpoints_cross_backends_bit_identically() {
    let g = reference_graph();
    let sn = tmp("checkpoint.gxsn");
    disk::write_gxsn(&g, None, &sn).unwrap();
    let mapped = MmapGraph::open(&sn).unwrap();
    std::fs::remove_file(&sn).ok();
    let cfg = EstimatorConfig::recommended(4);

    for walkers in [1usize, 8] {
        let golden =
            Runner::new(cfg.clone()).steps(6_000).seed(9).walkers(walkers).run_local(&g).unwrap();

        // Start on the in-RAM graph, checkpoint mid-run, resume on the
        // mapped snapshot — the bytes must match and the finished
        // estimate must be the golden one.
        let mut handle =
            Runner::new(cfg.clone()).steps(6_000).seed(9).walkers(walkers).start(&g).unwrap();
        handle.advance(1_500);
        let mut snap_ram = Vec::new();
        handle.checkpoint(&mut snap_ram).unwrap();
        drop(handle);

        let mut on_map =
            Runner::new(cfg.clone()).steps(6_000).seed(9).walkers(walkers).start(&mapped).unwrap();
        on_map.advance(1_500);
        let mut snap_map = Vec::new();
        on_map.checkpoint(&mut snap_map).unwrap();
        drop(on_map);
        assert_eq!(snap_ram, snap_map, "checkpoint bytes are backend-independent");

        // Untrusted resume recomputes the fingerprint over the mapped
        // backend; trusted resume adopts the header value directly.
        let mut resumed = Runner::resume(&mapped, &mut snap_ram.as_slice()).unwrap();
        while !resumed.is_finished() {
            resumed.advance(1_500);
        }
        assert_estimates_bit_identical(&golden, &resumed.finish());

        let mut trusted =
            Runner::resume_trusted(&mapped, mapped.fingerprint(), &mut snap_map.as_slice())
                .unwrap();
        while !trusted.is_finished() {
            trusted.advance(1_500);
        }
        assert_estimates_bit_identical(&golden, &trusted.finish());
    }
}

#[test]
fn truncation_at_every_length_is_a_typed_error() {
    let g = classic::lollipop(6, 5);
    for (name, compressed) in [("trunc.gxsn", false), ("trunc.gxsc", true)] {
        let path = tmp(name);
        if compressed {
            disk::write_gxsc(&g, None, &path).unwrap();
        } else {
            disk::write_gxsn(&g, None, &path).unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        let cut = tmp(&format!("{name}.cut"));
        for len in 0..bytes.len() {
            std::fs::write(&cut, &bytes[..len]).unwrap();
            // Every proper prefix must refuse, both through the mmap
            // path and the portable read-into-RAM path.
            let err = if compressed {
                CompressedGraph::open(&cut).map(|_| ()).unwrap_err()
            } else {
                MmapGraph::open(&cut).map(|_| ()).unwrap_err()
            };
            assert!(
                matches!(err, SnapshotError::Truncated { .. } | SnapshotError::Malformed { .. }),
                "len {len}: {err:?}"
            );
            if compressed {
                CompressedGraph::open_in_ram(&cut).map(|_| ()).unwrap_err();
            } else {
                MmapGraph::open_in_ram(&cut).map(|_| ()).unwrap_err();
            }
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&cut).ok();
    }
}

#[test]
fn every_single_bit_flip_in_the_header_is_a_typed_error() {
    let g = classic::lollipop(6, 5);
    for (name, compressed) in [("flip.gxsn", false), ("flip.gxsc", true)] {
        let path = tmp(name);
        if compressed {
            disk::write_gxsc(&g, None, &path).unwrap();
        } else {
            disk::write_gxsn(&g, None, &path).unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        let flipped = tmp(&format!("{name}.flip"));
        for byte in 0..64 {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte] ^= 1 << bit;
                std::fs::write(&flipped, &corrupt).unwrap();
                let res = if compressed {
                    CompressedGraph::open(&flipped).map(|_| ())
                } else {
                    MmapGraph::open(&flipped).map(|_| ())
                };
                // Never Ok (the checksum covers bytes 0..56, the
                // checksum itself is bytes 56..64), and via `Result`,
                // never a panic.
                res.unwrap_err();
            }
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&flipped).ok();
    }
}

#[test]
fn corrupted_offsets_are_refused_at_open_and_adjacency_by_validate_deep() {
    let g = classic::lollipop(6, 5);
    let path = tmp("body.gxsn");
    disk::write_gxsn(&g, None, &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();

    // Break monotonicity in the offsets section (second u64 at 4096).
    let mut corrupt = bytes.clone();
    corrupt[4096 + 8] = 0xFF;
    std::fs::write(&path, &corrupt).unwrap();
    let err = MmapGraph::open(&path).map(|_| ()).unwrap_err();
    assert!(matches!(err, SnapshotError::Malformed { .. }), "{err:?}");

    // Adjacency bit-rot is not caught by the O(nodes) open validation —
    // that is validate_deep's job (range / order / fingerprint).
    let mut corrupt = bytes.clone();
    corrupt[2 * 4096] ^= 0x01;
    std::fs::write(&path, &corrupt).unwrap();
    let m = MmapGraph::open(&path).unwrap();
    let err = m.validate_deep().unwrap_err();
    assert!(matches!(err, SnapshotError::Malformed { .. }), "{err:?}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn wrong_format_and_missing_file_are_typed_errors() {
    let g = classic::petersen();
    let sn = tmp("crossed.gxsn");
    let sc = tmp("crossed.gxsc");
    disk::write_gxsn(&g, None, &sn).unwrap();
    disk::write_gxsc(&g, None, &sc).unwrap();
    assert_eq!(MmapGraph::open(&sc).map(|_| ()).unwrap_err(), SnapshotError::BadMagic);
    assert_eq!(CompressedGraph::open(&sn).map(|_| ()).unwrap_err(), SnapshotError::BadMagic);
    assert_eq!(
        MmapGraph::open(tmp("no-such-file.gxsn")).map(|_| ()).unwrap_err(),
        SnapshotError::Io(std::io::ErrorKind::NotFound)
    );
    std::fs::remove_file(&sn).ok();
    std::fs::remove_file(&sc).ok();
}

#[test]
fn two_mapped_jobs_share_one_mmap_with_pointer_equal_neighbors() {
    use graphlet_rw::{EstimationService, JobSpec, ServiceConfig};

    let g = reference_graph();
    let path = tmp("service.gxsn");
    disk::write_gxsn(&g, None, &path).unwrap();

    let service = EstimationService::start(ServiceConfig::default());
    // Two submissions resolve the same snapshot through the cache: the
    // second `from_mapped` is a 64-byte header read, not a second mmap.
    let (g1, f1) = service.snapshot_cache().from_mapped(&path).unwrap();
    let (g2, f2) = service.snapshot_cache().from_mapped(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(f1, f2);
    assert!(std::sync::Arc::ptr_eq(&g1, &g2), "one mapping, shared");
    assert!(
        std::ptr::eq(g1.neighbors(0).as_ptr(), g2.neighbors(0).as_ptr()),
        "both jobs read the very same mapped bytes"
    );
    assert_eq!(f1, g1.fingerprint());

    let cfg = EstimatorConfig::recommended(4);
    let golden = Runner::new(cfg.clone()).steps(2_000).seed(3).run_local(&g).unwrap();
    let j1 = service.submit(JobSpec::new_mapped(g1, cfg.clone()).steps(2_000).seed(3)).unwrap();
    let j2 = service.submit(JobSpec::new_mapped(g2, cfg.clone()).steps(2_000).seed(3)).unwrap();
    let r1 = j1.wait().outcome.unwrap();
    let r2 = j2.wait().outcome.unwrap();
    assert_estimates_bit_identical(&golden, &r1);
    assert_estimates_bit_identical(&golden, &r2);
    assert_eq!(service.stats().cached_snapshots, 1, "both jobs interned onto one snapshot");
    service.shutdown();
}
