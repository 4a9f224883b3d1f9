//! Steps/second throughput bench: the perf trajectory tracker.
//!
//! Measures raw walk stepping and end-to-end estimation throughput
//! (sequential and parallel), and writes `BENCH_walks.json` at the repo
//! root so successive PRs can be compared. Run with:
//!
//! ```text
//! cargo bench -p gx-bench --bench throughput
//! ```
//!
//! Knobs: `GX_STEPS` (default 200_000 — the acceptance budget for the
//! SRW2CSS speedup check), `GX_WALKERS` (default: available cores),
//! `GX_TRIALS` (default 3 — each section is timed this many times and
//! the fastest trial is kept, the standard steady-state-throughput
//! protocol on shared/noisy machines), `GX_BATCH` (default 24 — the
//! lock-step lane count for the batched-engine rows), `GX_LARGE_NODES`
//! (default 16M — node count of the DRAM-resident Barabási–Albert
//! workload behind the batched-vs-scalar acceptance comparison; 0
//! skips that section), `GX_DATASET` (path to a real
//! KONECT/SNAP edge list to bench on instead of the synthetic
//! epinion-sim — loaded through `gx_datasets::LoadedDataset`, so sparse
//! original ids are compacted and the largest connected component is
//! used).

// Benchmark harness: wall-clock timing is the whole point here.
#![allow(clippy::disallowed_methods)]

use gx_core::{EstimatorConfig, NodeWindow, Runner, StoppingRule};
use gx_datasets::{dataset, LoadedDataset};
use gx_graph::Graph;
use gx_graphlets::classify_mask;
use gx_walks::{random_start_edge, rng_from_seed, G2Walk, SrwWalk, StateWalk};
use std::hint::black_box;
use std::time::Instant;

fn steps_per_sec(steps: usize, secs: f64) -> f64 {
    steps as f64 / secs
}

fn trials() -> usize {
    std::env::var("GX_TRIALS").ok().and_then(|v| v.parse().ok()).unwrap_or(3).max(1)
}

/// Times one closure `GX_TRIALS` times, returning the fastest trial in
/// seconds. Minimum-of-N is the robust throughput estimator on machines
/// with scheduler/co-tenant noise: the minimum is the run least
/// disturbed by interference, and interference only ever adds time.
fn time<F: FnMut()>(mut f: F) -> f64 {
    (0..trials())
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    // A real snapshot via GX_DATASET exercises the NodeIdMap-compacting
    // loader end to end; default is the in-tree epinion analog.
    let external: Option<(String, Graph)> = std::env::var("GX_DATASET").ok().map(|path| {
        let ds = LoadedDataset::load(&path).expect("GX_DATASET must be a readable edge list");
        let (lcc, _nodes) = gx_graph::connectivity::largest_connected_component(&ds.graph);
        println!(
            "external dataset {}: {} nodes, {} edges (LCC of the compacted snapshot)",
            ds.name,
            lcc.num_nodes(),
            lcc.num_edges()
        );
        (ds.name, lcc)
    });
    let (ds_name, g): (&str, &Graph) = match &external {
        Some((name, lcc)) => (name, lcc),
        None => ("epinion-sim", dataset("epinion-sim").graph()),
    };
    let steps: usize =
        std::env::var("GX_STEPS").ok().and_then(|v| v.parse().ok()).unwrap_or(200_000);
    let walkers: usize = std::env::var("GX_WALKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(gx_core::parallel::available_cores);

    println!(
        "throughput bench: {} nodes, {} edges, {steps} steps, {walkers} walkers",
        g.num_nodes(),
        g.num_edges()
    );

    let mut json = serde_json::Map::new();
    json.insert("dataset".into(), serde_json::json!(ds_name));
    json.insert("nodes".into(), serde_json::json!(g.num_nodes()));
    json.insert("edges".into(), serde_json::json!(g.num_edges()));
    json.insert("steps".into(), serde_json::json!(steps));
    json.insert("walkers".into(), serde_json::json!(walkers));
    // Bench honesty: the speedup numbers below mean nothing without the
    // hardware context they ran on.
    json.insert(
        "available_parallelism".into(),
        serde_json::json!(gx_core::parallel::available_cores()),
    );
    json.insert("trials".into(), serde_json::json!(trials()));

    // Raw walk stepping (no estimator), the paper's per-step cost unit.
    {
        let mut rng = rng_from_seed(1);
        let mut w = SrwWalk::new(g, 0, false);
        let secs = time(|| {
            for _ in 0..steps {
                w.step(&mut rng);
            }
        });
        let rate = steps_per_sec(steps, secs);
        println!("srw1 raw step           {rate:>14.0} steps/s");
        json.insert("srw1_raw_steps_per_sec".into(), serde_json::json!(rate));
    }
    {
        let mut rng = rng_from_seed(2);
        let (u, v) = random_start_edge(g, &mut rng);
        let mut w = G2Walk::new(g, u, v, false);
        let secs = time(|| {
            for _ in 0..steps {
                w.step(&mut rng);
            }
        });
        let rate = steps_per_sec(steps, secs);
        println!("g2 raw step             {rate:>14.0} steps/s");
        json.insert("g2_raw_steps_per_sec".into(), serde_json::json!(rate));
    }

    // End-to-end SRW2CSS (the paper's recommended k=4 method) plus its
    // per-stage breakdown (walk, window bookkeeping, classification —
    // the full estimator is the "+css" row), so a regression in any
    // single stage is visible in the telemetry instead of hiding inside
    // the end-to-end number. Every stage uses the same seed and budget.
    let cfg = EstimatorConfig::recommended(4);
    assert_eq!(cfg.name(), "SRW2CSS");
    // Warm-up: classification tables, dense CSS tables. The bench
    // drives the `Runner` front door, the only way to run the estimator.
    let _ = Runner::new(cfg.clone()).steps(2_000).seed(7).run(g).expect("valid config");
    let seq_runner = Runner::new(cfg.clone()).steps(steps).seed(42);

    // One trial = the three stage rows and the end-to-end sequential run,
    // timed back to back; the reported breakdown is the one trial with
    // the fastest *end-to-end* time. Taking per-metric minima instead
    // (the protocol before this note) lets every row come from a
    // different trial, so rows move independently under co-tenant noise
    // — which is exactly why the sequential numbers appeared to drift
    // between the PR 6 and PR 7 BENCH_walks.json snapshots with no code
    // change behind them. A breakdown sampled from a single trial is
    // internally consistent with the e2e number it decomposes.
    struct StageTrial {
        walk_secs: f64,
        window_secs: f64,
        classify_secs: f64,
        e2e_secs: f64,
    }
    let mut best: Option<StageTrial> = None;
    for _ in 0..trials() {
        // walk-only: the raw G(2) chain, nothing else.
        let walk_secs = {
            let mut rng = rng_from_seed(42);
            let (u, v) = random_start_edge(g, &mut rng);
            let mut w = G2Walk::new(g, u, v, false);
            let t = Instant::now();
            for _ in 0..steps {
                w.step(&mut rng);
            }
            black_box(w.state());
            t.elapsed().as_secs_f64()
        };
        // + window: sliding-union maintenance (§5 bookkeeping).
        let window_secs = {
            let mut rng = rng_from_seed(42);
            let (u, v) = random_start_edge(g, &mut rng);
            let mut w = G2Walk::new(g, u, v, false);
            let mut win = NodeWindow::new(3, 2);
            let t = Instant::now();
            for _ in 0..steps {
                let deg = w.state_degree();
                win.push(g, w.state(), deg);
                black_box(win.is_valid_sample());
                w.step(&mut rng);
            }
            t.elapsed().as_secs_f64()
        };
        // + classify: mask extraction and graphlet identification.
        let classify_secs = {
            let mut rng = rng_from_seed(42);
            let (u, v) = random_start_edge(g, &mut rng);
            let mut w = G2Walk::new(g, u, v, false);
            let mut win = NodeWindow::new(3, 2);
            let t = Instant::now();
            for _ in 0..steps {
                let deg = w.state_degree();
                win.push(g, w.state(), deg);
                if win.is_valid_sample() {
                    let (mask, _) = win.sample();
                    black_box(classify_mask(4, mask));
                }
                w.step(&mut rng);
            }
            t.elapsed().as_secs_f64()
        };
        // + css = the full single-walker estimator, end to end.
        let e2e_secs = {
            let t = Instant::now();
            let est = seq_runner.run(g).expect("valid config");
            assert!(est.valid_samples > 0);
            t.elapsed().as_secs_f64()
        };
        let trial = StageTrial { walk_secs, window_secs, classify_secs, e2e_secs };
        if best.as_ref().is_none_or(|b| trial.e2e_secs < b.e2e_secs) {
            best = Some(trial);
        }
    }
    let best = best.expect("GX_TRIALS is clamped to >= 1");
    let seq_secs = best.e2e_secs;
    let seq_rate = steps_per_sec(steps, seq_secs);
    for (label, key, secs) in [
        ("walk    ", "srw2css_stage_walk_steps_per_sec", best.walk_secs),
        ("+window ", "srw2css_stage_window_steps_per_sec", best.window_secs),
        ("+classify", "srw2css_stage_classify_steps_per_sec", best.classify_secs),
    ] {
        let rate = steps_per_sec(steps, secs);
        println!("SRW2CSS stage: {label}{rate:>14.0} steps/s");
        json.insert(key.into(), serde_json::json!(rate));
    }
    println!("SRW2CSS sequential      {seq_rate:>14.0} steps/s  ({seq_secs:.3} s)");

    // Lock-step batched engine on the same single-core budget — the
    // tentpole's acceptance comparison, in the same invocation as the
    // scalar number above. `GX_BATCH` walkers advance in lock-step on
    // the calling thread (`run_local`), splitting the same total step
    // budget; the win is memory-level parallelism, so the run is first
    // pinned bit-identical to the scalar engine at the same fan-out
    // before the clock starts.
    let batch: usize =
        std::env::var("GX_BATCH").ok().and_then(|v| v.parse().ok()).unwrap_or(24).max(1);
    let bat_runner =
        Runner::new(cfg.clone()).steps(steps).seed(42).walkers(batch).batch_width(batch);
    {
        let scalar = Runner::new(cfg.clone())
            .steps(steps)
            .seed(42)
            .walkers(batch)
            .run_local(g)
            .expect("valid config");
        let batched = bat_runner.run_local(g).expect("valid config");
        let bits =
            |e: &gx_core::Estimate| e.raw_scores.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&scalar), bits(&batched), "batched engine must be bit-identical");
    }
    let bat_secs = time(|| {
        let est = bat_runner.run_local(g).expect("valid config");
        assert!(est.valid_samples > 0);
    });
    let bat_rate = steps_per_sec(steps, bat_secs);
    let bat_speedup = seq_secs / bat_secs;
    println!(
        "SRW2CSS batched B={batch:<4} {bat_rate:>14.0} steps/s  ({bat_secs:.3} s)  vs seq {bat_speedup:.2}x"
    );

    // Memory-bound acceptance workload for the batched engine. The
    // epinion-sim analog above fits in L2, where prefetching has
    // nothing to hide (the batched row there is expected to sit at
    // ~0.8–1.0× — pure lock-step overhead); batching exists for graphs
    // that *miss*. A Barabási–Albert graph at `GX_LARGE_NODES`
    // (default 16M nodes, m = 10: ~1.3 GB of CSR, far past LLC and TLB
    // reach) makes every step a DRAM-latency neighbor-slice load, which
    // is exactly
    // what the one-tick-ahead prefetch overlaps across the B lanes.
    // Scalar and batched runs share fan-out, seed, and total budget on
    // one thread, differing in the engine alone — and the engines are
    // bit-identical, so the speedup cannot come from a sampling change.
    // `GX_LARGE_NODES=0` skips the section (smoke runs use a small n).
    let large_nodes: usize =
        std::env::var("GX_LARGE_NODES").ok().and_then(|v| v.parse().ok()).unwrap_or(16_000_000);
    let large_m: usize =
        std::env::var("GX_LARGE_M").ok().and_then(|v| v.parse().ok()).unwrap_or(10).max(1);
    if large_nodes > 0 {
        let mut grng = rng_from_seed(9);
        let big = gx_graph::generators::barabasi_albert(large_nodes, large_m, &mut grng);
        println!(
            "large workload: barabasi-albert {} nodes, {} edges",
            big.num_nodes(),
            big.num_edges()
        );
        // 4× the standard budget: per-trial windows under ~100 ms are
        // jitter-dominated at DRAM-bound step rates.
        let large_steps = steps * 4;
        let scalar_runner = Runner::new(cfg.clone()).steps(large_steps).seed(42).walkers(batch);
        let large_bat_runner =
            Runner::new(cfg.clone()).steps(large_steps).seed(42).walkers(batch).batch_width(batch);
        // The two engines are timed *alternately* within each trial, not
        // as two separate best-of-N blocks: machine conditions drift
        // across a run (co-tenant load on the shared box, frequency
        // steps), and a block protocol hands whichever engine runs
        // later a different machine than the one the other was measured
        // on. Alternation samples both engines across the same span, so
        // the trial pairs — and the speedup ratio the acceptance gate
        // reads — compare like with like.
        //
        // Unlike the small-graph rows, this section reports the *median*
        // trial, not the minimum. Min-of-N answers "how fast on an idle
        // machine" — but the scalar engine is a serial dependent-load
        // chain, so any co-tenant memory traffic lands directly on its
        // critical path, while the batched engine's overlapped misses
        // absorb the same interference. Min-of-N therefore hands the
        // scalar side its one quiet window and discards exactly the
        // latency tolerance lock-step batching exists to provide;
        // the median measures both engines under the machine conditions
        // they actually share. Per-trial pairs are printed so the
        // spread is visible in the log.
        let mut scalar_trials: Vec<f64> = Vec::new();
        let mut batched_trials: Vec<f64> = Vec::new();
        for i in 0..trials().max(3) {
            let t = Instant::now();
            let est = scalar_runner.run_local(&big).expect("valid config");
            assert!(est.valid_samples > 0);
            scalar_trials.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let est = large_bat_runner.run_local(&big).expect("valid config");
            assert!(est.valid_samples > 0);
            batched_trials.push(t.elapsed().as_secs_f64());
            println!(
                "  large trial {i}: scalar {:.3} s, batched {:.3} s",
                scalar_trials[i], batched_trials[i]
            );
        }
        // Upper median (element at len / 2 of the sorted trials).
        let median = |xs: &[f64]| {
            let mut s = xs.to_vec();
            s.sort_by(|a, b| a.partial_cmp(b).expect("trial times are finite"));
            s[s.len() / 2]
        };
        let scalar_secs = median(&scalar_trials);
        let large_bat_secs = median(&batched_trials);
        let scalar_rate = steps_per_sec(large_steps, scalar_secs);
        let large_bat_rate = steps_per_sec(large_steps, large_bat_secs);
        let large_speedup = scalar_secs / large_bat_secs;
        println!("SRW2CSS large scalar    {scalar_rate:>14.0} steps/s  ({scalar_secs:.3} s)");
        println!(
            "SRW2CSS large B={batch:<4}   {large_bat_rate:>14.0} steps/s  ({large_bat_secs:.3} s)  vs scalar {large_speedup:.2}x"
        );
        let mut row = serde_json::Map::new();
        row.insert("nodes".into(), serde_json::json!(big.num_nodes()));
        row.insert("edges".into(), serde_json::json!(big.num_edges()));
        row.insert("batch_width".into(), serde_json::json!(batch));
        row.insert("scalar_steps_per_sec".into(), serde_json::json!(scalar_rate));
        row.insert("batched_steps_per_sec".into(), serde_json::json!(large_bat_rate));
        row.insert("batched_speedup".into(), serde_json::json!(large_speedup));
        json.insert("srw2css_large".into(), serde_json::Value::Object(row));
        json.insert("srw2css_large_scalar_steps_per_sec".into(), serde_json::json!(scalar_rate));
        json.insert(
            "srw2css_large_batched_steps_per_sec".into(),
            serde_json::json!(large_bat_rate),
        );
        json.insert("srw2css_large_batched_speedup".into(), serde_json::json!(large_speedup));
    }

    let par_runner = Runner::new(cfg.clone()).steps(steps).seed(42).walkers(walkers);
    let par_secs = time(|| {
        let est = par_runner.run(g).expect("valid config");
        assert!(est.valid_samples > 0);
    });
    let par_rate = steps_per_sec(steps, par_secs);
    let speedup = seq_secs / par_secs;
    println!(
        "SRW2CSS parallel x{walkers:<3}   {par_rate:>14.0} steps/s  ({par_secs:.3} s)  speedup {speedup:.2}x"
    );

    json.insert("srw2css_seq_steps_per_sec".into(), serde_json::json!(seq_rate));
    json.insert("srw2css_stage_css_steps_per_sec".into(), serde_json::json!(seq_rate));
    json.insert("srw2css_batched_steps_per_sec".into(), serde_json::json!(bat_rate));
    json.insert("srw2css_batched_width".into(), serde_json::json!(batch));
    json.insert("srw2css_batched_speedup_vs_seq".into(), serde_json::json!(bat_speedup));
    json.insert("srw2css_par_steps_per_sec".into(), serde_json::json!(par_rate));
    json.insert("srw2css_speedup".into(), serde_json::json!(speedup));

    // CI-width-vs-steps telemetry: the widest relative 95% half-width
    // over common types (concentration ≥ 1%) at a quarter, half, and the
    // full budget — the error-bar subsystem's convergence trajectory,
    // tracked alongside the throughput numbers it rides on.
    {
        let mut curve: Vec<serde_json::Value> = Vec::new();
        for div in [4usize, 2, 1] {
            let budget = steps / div;
            let est = Runner::new(cfg.clone()).steps(budget).seed(42).run(g).expect("valid");
            let width = est.max_relative_half_width(1.96, 0.01);
            println!("SRW2CSS 95% CI width  @ {budget:>9} steps  {:>7.3}%", 100.0 * width);
            let mut row = serde_json::Map::new();
            row.insert("steps".into(), serde_json::json!(budget));
            row.insert("rel_ci_half_width_95".into(), serde_json::json!(width));
            curve.push(serde_json::Value::Object(row));
        }
        json.insert("srw2css_ci_curve".into(), serde_json::Value::Array(curve));
    }

    // Adaptive CI-width-vs-wallclock curve: what the coordinator
    // actually costs to hit a given target — the budget-planning data
    // behind README's "how many steps for ±x%?" recipe. Each row runs
    // an adaptive multi-walker `Runner` against one target (capped at the
    // bench's step budget so a smoke run stays fast) and records the
    // steps it chose to spend, the wallclock, and the width it reached.
    {
        let mut curve: Vec<serde_json::Value> = Vec::new();
        for target in [0.10, 0.05, 0.03] {
            let rule = StoppingRule {
                target_rel_ci: target,
                check_every: (steps / 8).max(1_000),
                max_steps: steps,
                batch_len: 256,
                min_batches: 8,
                ..Default::default()
            };
            let t = Instant::now();
            let est = Runner::new(cfg.clone())
                .until(rule.clone())
                .seed(42)
                .walkers(walkers)
                .run(g)
                .expect("valid rule");
            let secs = t.elapsed().as_secs_f64();
            let report = est.adaptive().expect("adaptive runs carry a report");
            let width = est.max_relative_half_width(report.critical_value, rule.min_concentration);
            println!(
                "SRW2CSS adaptive ±{:>4.1}%  {:>9} steps  {secs:.3} s  reached {:>6.3}%{}",
                100.0 * target,
                est.steps,
                100.0 * width,
                if report.target_met { "" } else { "  (budget-capped)" }
            );
            let mut row = serde_json::Map::new();
            row.insert("target_rel_ci".into(), serde_json::json!(target));
            row.insert("steps".into(), serde_json::json!(est.steps));
            row.insert("secs".into(), serde_json::json!(secs));
            row.insert("rel_ci_half_width".into(), serde_json::json!(width));
            row.insert("target_met".into(), serde_json::json!(report.target_met));
            curve.push(serde_json::Value::Object(row));
        }
        json.insert("srw2css_adaptive_curve".into(), serde_json::Value::Array(curve));
    }

    // Checkpoint cost telemetry: what a crash-resilient run pays per
    // snapshot — encode (serialize the full run state to memory), the
    // atomic file round trip (write-fsync-rename + read back), and
    // resume (decode + revalidate against the graph) — plus the
    // snapshot size, which scales with the stored batch-means series.
    {
        let runner = Runner::new(cfg.clone()).steps(steps).seed(42);
        let mut handle = runner.start(g).expect("valid config");
        handle.advance(steps / 2);

        let mut snapshot = Vec::new();
        handle.checkpoint(&mut snapshot).expect("in-memory checkpoint");
        let bytes = snapshot.len();

        let encode_secs = time(|| {
            let mut buf = Vec::with_capacity(bytes);
            handle.checkpoint(&mut buf).expect("in-memory checkpoint");
            black_box(&buf);
        });
        let path = std::env::temp_dir().join("gx_bench_checkpoint.gxcp");
        let file_secs = time(|| {
            handle.checkpoint_to_file(&path).expect("atomic checkpoint write");
            black_box(std::fs::read(&path).expect("read snapshot back"));
        });
        let resume_secs = time(|| {
            let resumed = Runner::resume(g, &mut snapshot.as_slice()).expect("valid snapshot");
            black_box(resumed.steps());
        });
        let _ = std::fs::remove_file(&path);

        println!(
            "SRW2CSS checkpoint      {bytes:>8} bytes  encode {:.1} µs  file {:.1} µs  resume {:.1} µs",
            encode_secs * 1e6,
            file_secs * 1e6,
            resume_secs * 1e6
        );
        let mut row = serde_json::Map::new();
        row.insert("snapshot_bytes".into(), serde_json::json!(bytes));
        row.insert("encode_secs".into(), serde_json::json!(encode_secs));
        row.insert("file_roundtrip_secs".into(), serde_json::json!(file_secs));
        row.insert("resume_secs".into(), serde_json::json!(resume_secs));
        json.insert("srw2css_checkpoint".into(), serde_json::Value::Object(row));
    }

    // Out-of-core backend telemetry: the same SRW2CSS budget stepped off
    // a `.gxsn` snapshot. Reports map+validate latency, steps/s mapped
    // vs in-RAM, and the RSS cost of each open — the mapped open must
    // not copy the neighbor arrays (its RSS delta is the O(nodes)
    // offset-validation scan, not the adjacency), while the portable
    // read-into-RAM fallback pays for the whole file. `GX_DATASET_MMAP`
    // points the section at an existing snapshot (e.g. a KONECT crawl
    // converted with `gx-snapshot`) instead of the bench graph's own.
    {
        use gx_graph::{disk, MmapGraph};
        fn vm_rss_kb() -> u64 {
            std::fs::read_to_string("/proc/self/status")
                .ok()
                .and_then(|s| {
                    s.lines()
                        .find(|l| l.starts_with("VmRSS:"))
                        .and_then(|l| l.split_whitespace().nth(1))
                        .and_then(|v| v.parse().ok())
                })
                .unwrap_or(0)
        }
        let override_path = std::env::var(gx_datasets::MMAP_ENV).ok();
        let tmp_path = std::env::temp_dir().join("gx_bench_snapshot.gxsn");
        let (snap_path, snap_bytes) = match &override_path {
            Some(p) => {
                let bytes = std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
                (std::path::PathBuf::from(p), bytes)
            }
            None => {
                let info = disk::write_gxsn(g, None, &tmp_path).expect("write bench snapshot");
                (tmp_path.clone(), info.bytes)
            }
        };

        // Open latency = mmap + header checksum + O(nodes) offset
        // validation; this is the whole cost of adopting a snapshot.
        let map_secs = time(|| {
            let m = MmapGraph::open(&snap_path).expect("mapped snapshot opens");
            black_box(m.num_edges());
        });

        let rss0 = vm_rss_kb();
        let mapped = MmapGraph::open(&snap_path).expect("mapped snapshot opens");
        let mapped_rss_kb = vm_rss_kb().saturating_sub(rss0);
        let rss0 = vm_rss_kb();
        let in_ram = MmapGraph::open_in_ram(&snap_path).expect("snapshot reads into RAM");
        let in_ram_rss_kb = vm_rss_kb().saturating_sub(rss0);
        if in_ram_rss_kb > 1024 {
            assert!(
                mapped_rss_kb < in_ram_rss_kb,
                "mapped open copied the snapshot: {mapped_rss_kb} kB vs {in_ram_rss_kb} kB in RAM"
            );
        }

        let mmap_runner = Runner::new(cfg.clone()).steps(steps).seed(42);
        // Pin bit-identity before the clock starts: storage must never
        // move a sample. With an external override the reference is the
        // fallback reader over the same bytes; without one it is the
        // bench's own in-RAM CSR the snapshot was written from.
        {
            let a = mmap_runner.run_local(&mapped).expect("valid config");
            let b = mmap_runner.run_local(&in_ram).expect("valid config");
            let bits = |e: &gx_core::Estimate| {
                e.raw_scores.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            };
            assert_eq!(bits(&a), bits(&b), "mapped and fallback backends must agree");
            if override_path.is_none() {
                let c = mmap_runner.run_local(g).expect("valid config");
                assert_eq!(bits(&a), bits(&c), "mapped must be bit-identical to the RAM graph");
            }
        }
        let mapped_secs = time(|| {
            let est = mmap_runner.run_local(&mapped).expect("valid config");
            assert!(est.valid_samples > 0);
        });
        let ram_secs = match &override_path {
            None => time(|| {
                let est = mmap_runner.run_local(g).expect("valid config");
                assert!(est.valid_samples > 0);
            }),
            // With an external snapshot there is no in-RAM `Graph` of the
            // same content; the fallback reader is the RAM comparator.
            Some(_) => time(|| {
                let est = mmap_runner.run_local(&in_ram).expect("valid config");
                assert!(est.valid_samples > 0);
            }),
        };
        let mapped_rate = steps_per_sec(steps, mapped_secs);
        let ram_rate = steps_per_sec(steps, ram_secs);
        println!(
            "SRW2CSS mmap            {mapped_rate:>14.0} steps/s  (RAM {ram_rate:.0}, map+validate {:.1} µs, RSS map {mapped_rss_kb} kB vs RAM {in_ram_rss_kb} kB)",
            map_secs * 1e6
        );
        let mut row = serde_json::Map::new();
        row.insert("snapshot_bytes".into(), serde_json::json!(snap_bytes));
        row.insert("map_validate_secs".into(), serde_json::json!(map_secs));
        row.insert("mapped_steps_per_sec".into(), serde_json::json!(mapped_rate));
        row.insert("ram_steps_per_sec".into(), serde_json::json!(ram_rate));
        row.insert("mapped_open_rss_delta_kb".into(), serde_json::json!(mapped_rss_kb));
        row.insert("in_ram_open_rss_delta_kb".into(), serde_json::json!(in_ram_rss_kb));
        row.insert("external_snapshot".into(), serde_json::json!(override_path.is_some()));
        json.insert("srw2css_mmap".into(), serde_json::Value::Object(row));
        if override_path.is_none() {
            let _ = std::fs::remove_file(&tmp_path);
        }
    }

    // Multi-job serving throughput: eight equal jobs (the bench budget
    // split evenly) multiplexed onto the service's worker pool. Tracks
    // jobs/sec, the p50/p95 job-latency spread, and the fairness ratio
    // (slowest job latency / fastest) — for identical jobs under
    // deficit-round-robin the ratio should stay near 1, and a regression
    // toward run-to-completion scheduling shows up here immediately.
    {
        use gx_service::{EstimationService, JobSpec, ServiceConfig};
        let service_workers = walkers.max(1);
        let service = EstimationService::start(ServiceConfig {
            workers: service_workers,
            ..ServiceConfig::default()
        });
        let shared = std::sync::Arc::new(g.clone());
        let n_jobs = 8usize;
        let job_steps = (steps / n_jobs).max(1_000);
        let t0 = std::time::Instant::now();
        let mut pending: Vec<(usize, gx_service::JobHandle)> = (0..n_jobs)
            .map(|i| {
                let spec = JobSpec::new(shared.clone(), cfg.clone())
                    .steps(job_steps)
                    .round_windows((job_steps / 8).max(1))
                    .seed(42 + i as u64);
                (i, service.submit(spec).expect("bench jobs fit under admission"))
            })
            .collect();
        let mut latencies = vec![0.0f64; n_jobs];
        while !pending.is_empty() {
            pending.retain(|(i, handle)| match handle.try_result() {
                Some(result) => {
                    result.outcome.expect("fault-free bench job");
                    latencies[*i] = t0.elapsed().as_secs_f64();
                    false
                }
                None => true,
            });
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        let total_secs = t0.elapsed().as_secs_f64();
        service.shutdown();

        let mut sorted = latencies.clone();
        sorted.sort_by(f64::total_cmp);
        let p50 = sorted[n_jobs / 2];
        let p95 = sorted[((n_jobs as f64 * 0.95) as usize).min(n_jobs - 1)];
        let fairness = sorted[n_jobs - 1] / sorted[0].max(1e-9);
        let jobs_per_sec = n_jobs as f64 / total_secs;
        println!(
            "SRW2CSS service x{service_workers:<3}   {jobs_per_sec:>10.2} jobs/s   p50 {:.3} s  p95 {:.3} s  fairness {fairness:.2}",
            p50, p95
        );
        let mut row = serde_json::Map::new();
        row.insert("workers".into(), serde_json::json!(service_workers));
        row.insert("jobs".into(), serde_json::json!(n_jobs));
        row.insert("job_steps".into(), serde_json::json!(job_steps));
        row.insert("jobs_per_sec".into(), serde_json::json!(jobs_per_sec));
        row.insert("p50_latency_secs".into(), serde_json::json!(p50));
        row.insert("p95_latency_secs".into(), serde_json::json!(p95));
        row.insert("fairness_ratio".into(), serde_json::json!(fairness));
        json.insert("srw2css_service".into(), serde_json::Value::Object(row));
    }

    // Persist at the repo root so the perf trajectory is tracked in-tree.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_walks.json");
    let body = serde_json::to_string_pretty(&serde_json::Value::Object(json)).expect("serialize");
    std::fs::write(path, body + "\n").expect("write BENCH_walks.json");
    println!("[results written to {path}]");
}
