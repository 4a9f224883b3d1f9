//! Crash-resilience conformance suite: serializable `RunHandle`
//! checkpoints and fault-injected resume.
//!
//! The acceptance contract:
//! * **golden-bit resume** — checkpoint → drop → resume → `finish()` is
//!   bit-identical to the uninterrupted run, for fixed and adaptive
//!   budgets, d ∈ {1, 2, 3} with and without non-backtracking, walkers
//!   ∈ {1, 2, 3, 8}, and several checkpoint cadences;
//! * **no panic on rot** — every truncation and every single-bit flip of
//!   a valid snapshot resumes as a typed [`GxError::Checkpoint`], never
//!   a panic, never a silently-wrong run;
//! * **no panic on crafted input** — a resealed (checksum-valid) image
//!   with any single byte changed resumes as a typed
//!   [`GxError::Checkpoint`] or runs, reports and estimates without a
//!   panic, in a debug build where integer overflow panics;
//! * **fault tolerance** — a failed checkpoint write (injected at the
//!   byte level, or a snapshot over the 64 MiB ceiling refused before a
//!   byte is written) leaves the run able to finish bit-identical;
//! * **bounded memory** — `StoppingRule::bounded_memory` is bit-identical
//!   to unbounded below the cap, collapses at the cap, and is a typed
//!   error with more than one walker.

use graphlet_rw::graph::generators::classic;
use graphlet_rw::walks::{rng_from_seed, SrwWalk};
use graphlet_rw::{CheckpointError, EstimatorConfig, GxError, Progress, Runner, StoppingRule};
use rand::Rng;
use std::io::Write;

/// One deterministic way to damage a serialized snapshot before handing
/// it to `Runner::resume`. Every corrupted image must surface as a typed
/// `CheckpointError`, never a panic or a silently-wrong resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Corruption {
    /// Keep only the first `len` bytes of the image.
    Truncate { len: usize },
    /// Flip the single bit at global bit index `bit` (byte `bit / 8`,
    /// mask `1 << (bit % 8)`).
    FlipBit { bit: usize },
}

impl Corruption {
    /// Applies the corruption to a snapshot image, returning the damaged
    /// copy (the original is untouched).
    fn apply(self, snapshot: &[u8]) -> Vec<u8> {
        match self {
            Self::Truncate { len } => snapshot[..len.min(snapshot.len())].to_vec(),
            Self::FlipBit { bit } => {
                assert!(bit / 8 < snapshot.len(), "bit index outside the snapshot");
                let mut out = snapshot.to_vec();
                out[bit / 8] ^= 1 << (bit % 8);
                out
            }
        }
    }
}

/// A `Write` adapter that forwards up to `byte_budget` bytes and then
/// fails every further write with `ErrorKind::WriteZero` — the
/// byte-granular checkpoint-write fault. A failed `RunHandle::checkpoint`
/// through this writer must leave the handle able to finish
/// bit-identically.
#[derive(Debug)]
struct FailingWriter<W> {
    inner: W,
    remaining: usize,
}

impl<W> FailingWriter<W> {
    fn new(inner: W, byte_budget: usize) -> Self {
        Self { inner, remaining: byte_budget }
    }
}

impl<W: Write> Write for FailingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        if self.remaining == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                "injected checkpoint write fault",
            ));
        }
        let n = buf.len().min(self.remaining);
        let written = self.inner.write(&buf[..n])?;
        self.remaining -= written;
        Ok(written)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

fn rule() -> StoppingRule {
    StoppingRule {
        target_rel_ci: 0.12,
        check_every: 1_000,
        max_steps: 40_000,
        batch_len: 128,
        min_batches: 6,
        ..Default::default()
    }
}

/// Bit-level fingerprint of an estimate's raw scores.
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

/// Drives `runner` to completion in `advance`-sized increments with no
/// interruption — the baseline every resumed run must reproduce.
fn run_uninterrupted<G: graphlet_rw::GraphAccess>(
    g: &G,
    runner: &Runner,
    advance: usize,
) -> graphlet_rw::Estimate {
    let mut handle = runner.start(g).unwrap();
    while !handle.is_finished() {
        handle.advance(advance);
    }
    handle.finish()
}

/// Same schedule, interrupted: after `resume_after` increments the run is
/// checkpointed into memory, the handle dropped (the "crash"), and a
/// fresh handle resumed from the snapshot finishes the remaining budget.
fn run_with_crash<G: graphlet_rw::GraphAccess>(
    g: &G,
    runner: &Runner,
    advance: usize,
    resume_after: usize,
) -> graphlet_rw::Estimate {
    let mut handle = runner.start(g).unwrap();
    for _ in 0..resume_after {
        if handle.is_finished() {
            break;
        }
        handle.advance(advance);
    }
    let mut snap = Vec::new();
    handle.checkpoint(&mut snap).unwrap();
    drop(handle);
    let mut resumed = Runner::resume(g, &mut snap.as_slice()).unwrap();
    while !resumed.is_finished() {
        resumed.advance(advance);
    }
    resumed.finish()
}

// --- Golden-bit resume matrix ----------------------------------------------

#[test]
fn fixed_budget_resume_is_bit_identical() {
    let g = classic::lollipop(6, 5);
    let cfg = EstimatorConfig::recommended(4);
    for walkers in [1usize, 2, 8] {
        let runner = Runner::new(cfg.clone()).steps(12_000).seed(42).walkers(walkers);
        // Three cadences × three interruption points each.
        for advance in [700usize, 1_500, 5_000] {
            let base = run_uninterrupted(&g, &runner, advance);
            for resume_after in [0usize, 1, 3] {
                let crashed = run_with_crash(&g, &runner, advance, resume_after);
                assert_estimates_bit_identical(&base, &crashed);
            }
        }
        // And the handle runs must match the one-shot entry point.
        let one_shot = runner.run(&g).unwrap();
        assert_eq!(bits(&one_shot), bits(&run_uninterrupted(&g, &runner, 700)));
    }
    for cfg in more_resume_configs() {
        for walkers in [1usize, 3] {
            let runner = Runner::new(cfg.clone()).steps(9_000).seed(42).walkers(walkers);
            let base = run_uninterrupted(&g, &runner, 1_000);
            assert_estimates_bit_identical(&base, &run_with_crash(&g, &runner, 1_000, 1));
        }
    }
}

/// The configurations beyond `recommended(3)` (d = 1) and
/// `recommended(4)` (d = 2) that the resume matrix pins: CSS on `G(3)`
/// at k = 5, and non-backtracking CSS on `G(3)` and `G(2)` at k = 4.
fn more_resume_configs() -> [EstimatorConfig; 3] {
    let cfg =
        |k, d, non_backtracking| EstimatorConfig { k, d, css: true, non_backtracking, burn_in: 0 };
    [cfg(5, 3, false), cfg(4, 3, true), cfg(4, 2, true)]
}

#[test]
fn adaptive_resume_is_bit_identical() {
    let g = classic::lollipop(6, 5);
    let cfg = EstimatorConfig::recommended(3);
    for walkers in [1usize, 2, 8] {
        let runner = Runner::new(cfg.clone()).until(rule()).seed(7).walkers(walkers);
        // The rule's check cadence is the natural advance size; the
        // checkpoint cadence (interruption point) is what varies.
        let advance = rule().check_every;
        let base = run_uninterrupted(&g, &runner, advance);
        assert!(base.adaptive.is_some());
        for resume_after in [0usize, 1, 2, 5] {
            let crashed = run_with_crash(&g, &runner, advance, resume_after);
            assert_estimates_bit_identical(&base, &crashed);
        }
        // Natural-cadence handle driving matches the one-shot runner.
        assert_eq!(bits(&runner.run(&g).unwrap()), bits(&base));
    }
    for cfg in more_resume_configs() {
        for walkers in [1usize, 3] {
            let runner = Runner::new(cfg.clone()).until(rule()).seed(7).walkers(walkers);
            let advance = rule().check_every;
            let base = run_uninterrupted(&g, &runner, advance);
            assert_estimates_bit_identical(&base, &run_with_crash(&g, &runner, advance, 1));
        }
    }
}

#[test]
fn resume_survives_repeated_crashes_every_round() {
    // Checkpoint after *every* advance and restart from each snapshot:
    // the harshest cadence, fixed and adaptive.
    let g = classic::petersen();
    for runner in [
        Runner::new(EstimatorConfig::recommended(3)).steps(6_000).seed(5),
        Runner::new(EstimatorConfig::recommended(3)).until(rule()).seed(5),
    ] {
        let base = run_uninterrupted(&g, &runner, 1_000);
        let mut handle = runner.start(&g).unwrap();
        while !handle.is_finished() {
            handle.advance(1_000);
            let mut snap = Vec::new();
            handle.checkpoint(&mut snap).unwrap();
            drop(handle);
            handle = Runner::resume(&g, &mut snap.as_slice()).unwrap();
        }
        assert_estimates_bit_identical(&base, &handle.finish());
    }
}

#[test]
fn checkpoint_images_are_deterministic() {
    let g = classic::petersen();
    let runner = Runner::new(EstimatorConfig::recommended(3)).steps(5_000).seed(9).walkers(2);
    let mut handle = runner.start(&g).unwrap();
    handle.advance(1_000);
    let (mut a, mut b) = (Vec::new(), Vec::new());
    handle.checkpoint(&mut a).unwrap();
    handle.checkpoint(&mut b).unwrap();
    assert_eq!(a, b, "back-to-back snapshots of an idle handle must be byte-identical");
}

// --- advance(0) is a documented no-op --------------------------------------

#[test]
fn advance_zero_is_a_noop_returning_current_progress() {
    fn assert_progress_eq(a: &Progress, b: &Progress) {
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.width.to_bits(), b.width.to_bits());
        assert_eq!(a.converged, b.converged);
        assert_eq!(a.finished, b.finished);
    }

    let g = classic::lollipop(6, 5);
    let runner = Runner::new(EstimatorConfig::recommended(3)).until(rule()).seed(3).walkers(2);
    let base = run_uninterrupted(&g, &runner, 1_000);

    let mut handle = runner.start(&g).unwrap();
    let before = handle.progress();
    assert_progress_eq(&before, &handle.advance(0));
    while !handle.is_finished() {
        handle.advance(1_000);
        // Poll with both advance flavors mid-run: pure observation.
        let snap = handle.progress();
        assert_progress_eq(&snap, &handle.advance(0));
        assert_progress_eq(&snap, &handle.advance_par(0));
    }
    assert_estimates_bit_identical(&base, &handle.finish());
}

// --- Corruption: typed errors, never panics --------------------------------

/// A small valid snapshot to corrupt: adaptive, mid-run.
fn sample_snapshot(g: &graphlet_rw::Graph) -> Vec<u8> {
    let runner = Runner::new(EstimatorConfig::recommended(3)).until(rule()).seed(11);
    let mut handle = runner.start(g).unwrap();
    handle.advance(2_000);
    let mut snap = Vec::new();
    handle.checkpoint(&mut snap).unwrap();
    snap
}

#[test]
fn every_truncation_is_a_typed_checkpoint_error() {
    let g = classic::petersen();
    let snap = sample_snapshot(&g);
    for len in 0..snap.len() {
        let cut = Corruption::Truncate { len }.apply(&snap);
        match Runner::resume(&g, &mut cut.as_slice()) {
            Err(GxError::Checkpoint(_)) => {}
            Err(e) => panic!("truncation at {len}: unexpected error {e:?}"),
            Ok(_) => panic!("truncation at {len} resumed successfully"),
        }
    }
}

#[test]
fn every_single_bit_flip_is_a_typed_checkpoint_error() {
    // Exhaustive over the whole image: the envelope checksum (FNV-1a's
    // per-byte bijection) catches every payload flip; header flips fall
    // out as BadMagic / UnsupportedVersion / Truncated / mismatch.
    let g = classic::petersen();
    let snap = sample_snapshot(&g);
    for bit in 0..snap.len() * 8 {
        let bad = Corruption::FlipBit { bit }.apply(&snap);
        match Runner::resume(&g, &mut bad.as_slice()) {
            Err(GxError::Checkpoint(_)) => {}
            Err(e) => panic!("flip at bit {bit}: unexpected error {e:?}"),
            Ok(_) => panic!("flip at bit {bit} resumed successfully"),
        }
    }
}

mod corruption_properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random double-corruptions (truncate then flip inside the
        /// remainder) still come back typed — the property form of the
        /// exhaustive single-fault sweeps above.
        #[test]
        fn compound_corruptions_never_panic(cut in 1usize..10_000, bit in 0usize..80_000) {
            let g = classic::petersen();
            let snap = sample_snapshot(&g);
            let cut = cut % snap.len();
            let damaged = Corruption::Truncate { len: cut }.apply(&snap);
            let damaged = if damaged.is_empty() {
                damaged
            } else {
                Corruption::FlipBit { bit: bit % (damaged.len() * 8) }.apply(&damaged)
            };
            match Runner::resume(&g, &mut damaged.as_slice()) {
                Err(GxError::Checkpoint(_)) => {}
                Err(e) => panic!("unexpected error {e:?}"),
                Ok(_) => panic!("corrupted snapshot resumed successfully"),
            }
        }
    }
}

#[test]
fn resume_refuses_a_different_graph() {
    let g = classic::petersen();
    let snap = sample_snapshot(&g);
    let other = classic::lollipop(6, 5);
    match Runner::resume(&other, &mut snap.as_slice()) {
        Err(GxError::Checkpoint(CheckpointError::GraphMismatch { expected, found })) => {
            assert_ne!(expected, found);
            assert_eq!(expected, graphlet_rw::graph_fingerprint(&g));
            assert_eq!(found, graphlet_rw::graph_fingerprint(&other));
        }
        other => panic!("expected GraphMismatch, got {other:?}"),
    }
    // Same structure, different Graph value: fingerprints agree, resume
    // works — the guard is structural, not pointer identity.
    let twin = classic::petersen();
    assert!(Runner::resume(&twin, &mut snap.as_slice()).is_ok());
}

// --- Format v5: the batch_width field, older versions refused -------------

/// Re-wraps a payload in a fresh envelope (recomputed length + checksum)
/// stamped with `version` — the tool for crafting checksum-valid
/// snapshots, of this or another format version.
fn seal(payload: &[u8], version: u32) -> Vec<u8> {
    use graphlet_rw::core::checkpoint::{fnv1a, MAGIC};
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Byte offset of the handle's `batch_width` field inside the payload,
/// found by diffing two snapshots of the same idle handle that differ
/// only in the engine mode — the bit-identity contract guarantees
/// nothing else moves.
fn batch_width_offset(snap_a: &[u8], snap_b: &[u8]) -> usize {
    const HEADER: usize = 24; // magic(4) + version(4) + len(8) + fnv(8)
    assert_eq!(snap_a.len(), snap_b.len());
    let diffs: Vec<usize> = (HEADER..snap_a.len()).filter(|&i| snap_a[i] != snap_b[i]).collect();
    // Width 1 vs 2 and the checksum: the field's low byte plus digest
    // bytes. The one payload diff is the field.
    let payload_diffs: Vec<usize> = diffs.iter().copied().filter(|&i| i >= HEADER).collect();
    assert_eq!(payload_diffs.len(), 1, "engine mode must be the only differing payload byte");
    payload_diffs[0] - HEADER
}

/// Two snapshots of the same mid-run handle, scalar engine vs width-2
/// lock-step engine — identical except the `batch_width` field (and the
/// envelope checksum, which `batch_width_offset` ignores by diffing
/// payload bytes only).
fn engine_mode_snapshot_pair(g: &graphlet_rw::Graph) -> (Vec<u8>, Vec<u8>) {
    let runner = Runner::new(EstimatorConfig::recommended(4)).steps(8_000).seed(13).walkers(2);
    let mut handle = runner.start(g).unwrap();
    handle.advance(1_000);
    let (mut scalar, mut wide) = (Vec::new(), Vec::new());
    handle.checkpoint(&mut scalar).unwrap();
    handle.set_batch_width(2);
    handle.checkpoint(&mut wide).unwrap();
    (scalar, wide)
}

#[test]
fn pre_v5_snapshots_are_refused_with_a_typed_error() {
    // Versions 1 to 3 carried state that later versions rebuild (the
    // pooled statistics, per-walker counts, caps and batch length; the
    // walk position and the window's degrees, refcounts and adjacency
    // rows), and version 4 a per-walker health byte that version 5
    // dropped; a checksum-valid image stamped with an older version is
    // refused before its payload is read, never misparsed.
    let g = classic::lollipop(6, 5);
    let (snap, _) = engine_mode_snapshot_pair(&g);
    for old in [1u32, 2, 3, 4] {
        let crafted = seal(&snap[24..], old);
        match Runner::resume(&g, &mut crafted.as_slice()) {
            Err(GxError::Checkpoint(CheckpointError::UnsupportedVersion { found })) => {
                assert_eq!(found, old);
            }
            other => panic!("version {old}: expected UnsupportedVersion, got {other:?}"),
        }
    }
    // The same payload sealed as the current version resumes.
    let current = seal(&snap[24..], graphlet_rw::core::checkpoint::VERSION);
    assert!(Runner::resume(&g, &mut current.as_slice()).is_ok());
}

#[test]
fn batch_width_out_of_domain_is_malformed() {
    let g = classic::lollipop(6, 5);
    let (v2, v2_wide) = engine_mode_snapshot_pair(&g);
    let off = batch_width_offset(&v2, &v2_wide);
    // Zero lanes, more lanes than the 2 walkers, and a giant value: all
    // checksum-valid, all out of domain.
    for bad in [0u64, 3, u64::MAX] {
        let mut payload = v2[24..].to_vec();
        payload[off..off + 8].copy_from_slice(&bad.to_le_bytes());
        let crafted = seal(&payload, graphlet_rw::core::checkpoint::VERSION);
        match Runner::resume(&g, &mut crafted.as_slice()) {
            Err(GxError::Checkpoint(CheckpointError::Malformed { what })) => {
                assert_eq!(what, "handle.batch_width");
            }
            other => panic!("batch_width={bad}: expected Malformed, got {other:?}"),
        }
    }
}

/// `snap` with the last occurrence of the little-endian `u64` `from` in
/// its payload rewritten to `to`, resealed with a fresh checksum.
fn rewrite_last_u64(snap: &[u8], from: u64, to: u64) -> Vec<u8> {
    let mut payload = snap[24..].to_vec();
    let at = payload
        .windows(8)
        .rposition(|w| w == from.to_le_bytes())
        .expect("the value occurs in the payload");
    payload[at..at + 8].copy_from_slice(&to.to_le_bytes());
    seal(&payload, graphlet_rw::core::checkpoint::VERSION)
}

/// Resumes `crafted` and advances it, expecting a typed `Malformed`
/// refusal at resume — never a handle that panics later.
fn assert_malformed_at_resume(g: &graphlet_rw::Graph, crafted: &[u8]) {
    match Runner::resume(g, &mut &crafted[..]) {
        Err(GxError::Checkpoint(CheckpointError::Malformed { .. })) => {}
        Err(e) => panic!("expected Malformed, got {e:?}"),
        Ok(mut handle) => {
            handle.advance(1_000);
            handle.progress();
            panic!("an inconsistent snapshot resumed");
        }
    }
}

#[test]
fn adaptive_session_batch_len_mismatch_is_malformed() {
    // The walker accumulator's batch length (the last 37 in the payload)
    // disagrees with the rule's: pooling would merge unequal batches.
    let g = classic::lollipop(6, 5);
    let rule = StoppingRule { batch_len: 37, ..rule() };
    let mut handle =
        Runner::new(EstimatorConfig::recommended(4)).until(rule).seed(3).start(&g).unwrap();
    handle.advance(1_000);
    let mut snap = Vec::new();
    handle.checkpoint(&mut snap).unwrap();
    assert_malformed_at_resume(&g, &rewrite_last_u64(&snap, 37, 38));
}

#[test]
fn fixed_session_batch_len_mismatch_is_malformed() {
    // Fixed twin: 20,000 steps give batches of 141; walker 1's
    // accumulator claims 142.
    let g = classic::lollipop(6, 5);
    let runner = Runner::new(EstimatorConfig::recommended(4)).steps(20_000).seed(3).walkers(2);
    let mut handle = runner.start(&g).unwrap();
    handle.advance(5_000);
    let mut snap = Vec::new();
    handle.checkpoint(&mut snap).unwrap();
    assert_malformed_at_resume(&g, &rewrite_last_u64(&snap, 141, 142));
}

#[test]
fn future_format_version_is_refused_even_with_valid_checksum() {
    let g = classic::petersen();
    let snap = sample_snapshot(&g);
    let ahead = graphlet_rw::core::checkpoint::VERSION + 1;
    let crafted = seal(&snap[24..], ahead);
    match Runner::resume(&g, &mut crafted.as_slice()) {
        Err(GxError::Checkpoint(CheckpointError::UnsupportedVersion { found })) => {
            assert_eq!(found, ahead);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

// --- Resealed mutations: typed error or a panic-free run -------------------

/// The checksum-valid single-byte mutations of `snap`'s payload: every
/// byte offset in `offsets` set to 0x00, 0xff, `b ^ 1` and `b + 1`, each
/// image resealed with a fresh checksum so it reaches the decoder.
fn resealed_mutations<'a>(
    snap: &'a [u8],
    offsets: impl Iterator<Item = usize> + 'a,
) -> impl Iterator<Item = (usize, Vec<u8>)> + 'a {
    let payload = &snap[24..];
    offsets.flat_map(move |at| {
        let b = payload[at];
        let mut values = vec![0x00, 0xff, b ^ 1, b.wrapping_add(1)];
        values.sort_unstable();
        values.dedup();
        values.into_iter().filter(move |&v| v != b).map(move |v| {
            let mut mutated = payload.to_vec();
            mutated[at] = v;
            (at, seal(&mutated, graphlet_rw::core::checkpoint::VERSION))
        })
    })
}

/// Resumes each image and, if it resumes, drives it through `advance`,
/// `progress` and `estimate`. Returns the offsets whose image panicked or
/// failed with an error other than `GxError::Checkpoint`.
fn mutation_failures(
    g: &graphlet_rw::Graph,
    images: impl Iterator<Item = (usize, Vec<u8>)>,
) -> Vec<(usize, String)> {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let mut failures = Vec::new();
    for (at, image) in images {
        let outcome =
            catch_unwind(AssertUnwindSafe(|| match Runner::resume(g, &mut image.as_slice()) {
                Err(GxError::Checkpoint(_)) => Ok(()),
                Err(e) => Err(format!("non-checkpoint error {e:?}")),
                Ok(mut handle) => {
                    handle.advance(500);
                    handle.progress();
                    handle.estimate();
                    Ok(())
                }
            }));
        match outcome {
            Ok(Ok(())) => {}
            Ok(Err(e)) => failures.push((at, e)),
            Err(_) => failures.push((at, "panicked".to_string())),
        }
    }
    failures
}

/// A Petersen snapshot of a fixed 20,000-step run (seed 5) whose
/// walkers advance as one lock-step group, taken after `advance(400)`.
fn petersen_snapshot(cfg: EstimatorConfig, walkers: usize) -> Vec<u8> {
    let g = classic::petersen();
    let runner = Runner::new(cfg).steps(20_000).seed(5).walkers(walkers).batch_width(walkers);
    let mut handle = runner.start(&g).unwrap();
    handle.advance(400);
    let mut snap = Vec::new();
    handle.checkpoint(&mut snap).unwrap();
    snap
}

#[test]
fn resealed_single_byte_mutations_are_typed_errors_or_panic_free_runs() {
    // Debug builds check overflow, so a resumed value that disagrees with
    // the graph panics here instead of wrapping silently. A seed-pinned
    // sample of offsets keeps the sweep near 20 s: one in two for the
    // k = 5 SRW2CSS case (2 walkers in one width-2 group), one in eight
    // for d ∈ {1, 2, 3} × width {1, 4} (4 walkers at width 4).
    let g = classic::petersen();
    let d3 = EstimatorConfig { k: 4, d: 3, css: true, non_backtracking: true, burn_in: 0 };
    let cases = [
        (EstimatorConfig::recommended(5), 2, 2),
        (EstimatorConfig::recommended(3), 1, 8),
        (EstimatorConfig::recommended(3), 4, 8),
        (EstimatorConfig::recommended(4), 1, 8),
        (EstimatorConfig::recommended(4), 4, 8),
        (d3.clone(), 1, 8),
        (d3, 4, 8),
    ];
    let mut rng = rng_from_seed(2024);
    let mut failures = Vec::new();
    for (cfg, walkers, one_in) in cases {
        let snap = petersen_snapshot(cfg.clone(), walkers);
        let offsets: Vec<usize> =
            (0..snap.len() - 24).filter(|_| rng.gen_range(0..one_in) == 0).collect();
        for (at, what) in mutation_failures(&g, resealed_mutations(&snap, offsets.into_iter())) {
            failures.push(format!(
                "k = {}, d = {}, {walkers} walkers, byte {at}: {what}",
                cfg.k, cfg.d
            ));
        }
    }
    assert!(failures.is_empty(), "{} failing images: {failures:#?}", failures.len());
}

// --- Checkpoint-write faults leave the run unharmed ------------------------

#[test]
fn failing_writer_yields_io_error_and_run_finishes_bit_identical() {
    let g = classic::lollipop(6, 5);
    let runner = Runner::new(EstimatorConfig::recommended(3)).until(rule()).seed(21).walkers(2);
    let base = run_uninterrupted(&g, &runner, 1_000);

    let mut handle = runner.start(&g).unwrap();
    handle.advance(1_000);
    // Every byte budget from zero up to (almost) the full image fails.
    let full = {
        let mut buf = Vec::new();
        handle.checkpoint(&mut buf).unwrap();
        buf.len()
    };
    for budget in [0usize, 1, 4, full / 2, full - 1] {
        let mut w = FailingWriter::new(Vec::new(), budget);
        match handle.checkpoint(&mut w) {
            Err(GxError::Io(_)) => {}
            other => panic!("budget {budget}: expected Io error, got {other:?}"),
        }
    }
    // The failed writes must not have perturbed the run.
    while !handle.is_finished() {
        handle.advance(1_000);
    }
    assert_estimates_bit_identical(&base, &handle.finish());
}

/// A run whose snapshot would pass the 64 MiB ceiling resume enforces:
/// one walker, an adaptive rule that never converges and batch length 1,
/// so the batch-means series keeps one k = 5 mean vector (21 × 8 bytes)
/// per scored window — 67.2 MB after 400,000 windows. The writer refuses
/// it, typed, before a byte is written, and the run goes on unperturbed.
#[test]
fn over_ceiling_checkpoint_is_refused_typed_and_harmless() {
    let g = classic::lollipop(8, 6);
    let runner = Runner::new(EstimatorConfig::recommended(5))
        .until(StoppingRule {
            target_rel_ci: 1e-9, // unreachable: runs to the cap
            check_every: 100_000,
            max_steps: 410_000,
            batch_len: 1,
            min_batches: 2,
            ..Default::default()
        })
        .seed(1);
    let base = run_uninterrupted(&g, &runner, 100_000);

    let mut handle = runner.start(&g).unwrap();
    for _ in 0..4 {
        handle.advance(100_000);
    }
    let mut buf = Vec::new();
    match handle.checkpoint(&mut buf) {
        Err(GxError::Checkpoint(CheckpointError::TooLarge { len })) => {
            assert!(len > 64 << 20, "refused a {len}-byte payload under the ceiling");
        }
        other => panic!("expected TooLarge, got {other:?}"),
    }
    assert!(buf.is_empty(), "the refusal must come before a byte is written");
    let dir = std::env::temp_dir().join(format!("gxcp_too_large_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.gxcp");
    assert!(matches!(
        handle.checkpoint_to_file(&path),
        Err(GxError::Checkpoint(CheckpointError::TooLarge { .. }))
    ));
    assert!(!path.exists() && !dir.join("run.gxcp.tmp").exists(), "no file for a refusal");
    std::fs::remove_dir_all(&dir).unwrap();

    while !handle.is_finished() {
        handle.advance(100_000);
    }
    assert_estimates_bit_identical(&base, &handle.finish());
}

#[test]
fn checkpoint_files_are_atomic_and_resumable() {
    let dir = std::env::temp_dir().join(format!("gxcp_resume_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.gxcp");

    let g = classic::lollipop(6, 5);
    let runner = Runner::new(EstimatorConfig::recommended(4)).steps(10_000).seed(13).walkers(2);
    let base = run_uninterrupted(&g, &runner, 2_500);

    let mut handle = runner.start(&g).unwrap();
    handle.advance(2_500);
    handle.checkpoint_to_file(&path).unwrap();
    handle.advance(2_500);
    handle.checkpoint_to_file(&path).unwrap(); // overwrite, atomically
    assert!(!dir.join("run.gxcp.tmp").exists());
    drop(handle);

    let mut resumed = Runner::resume_from_file(&g, &path).unwrap();
    while !resumed.is_finished() {
        resumed.advance(2_500);
    }
    assert_estimates_bit_identical(&base, &resumed.finish());

    // Missing file: typed I/O error, not a panic.
    assert!(matches!(
        Runner::resume_from_file::<_, _>(&g, dir.join("missing.gxcp")),
        Err(GxError::Io(std::io::ErrorKind::NotFound))
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

// --- Bounded-memory batch-mean series --------------------------------------

#[test]
fn bounded_memory_below_the_cap_is_bit_identical_to_unbounded() {
    let g = classic::lollipop(6, 5);
    let cfg = EstimatorConfig::recommended(3);
    let unbounded = Runner::new(cfg.clone()).until(rule()).seed(31).run(&g).unwrap();
    // A cap the run never reaches: identical to the letter.
    let capped_rule = rule().bounded_memory(4_096);
    let capped = Runner::new(cfg).until(capped_rule).seed(31).run(&g).unwrap();
    assert_estimates_bit_identical(&unbounded, &capped);
}

#[test]
fn bounded_memory_collapses_at_the_cap() {
    let g = classic::petersen();
    let cfg = EstimatorConfig::recommended(3);
    let r = StoppingRule {
        target_rel_ci: 1e-9, // run to the cap
        check_every: 2_000,
        max_steps: 16_000,
        batch_len: 64,
        min_batches: 6,
        ..Default::default()
    };
    let capped = Runner::new(cfg.clone()).until(r.clone().bounded_memory(8)).seed(3).run(&g);
    let capped = capped.unwrap();
    let stats = capped.accuracy.as_ref().unwrap();
    // 16_000 / 64 = 250 base batches; the cap keeps at most 8 stored.
    assert!(stats.batches() <= 8, "series must stay under the cap, got {}", stats.batches());
    assert!(
        stats.batch_len() > 64 && stats.batch_len().is_multiple_of(64),
        "R-batching doubles batch_len"
    );
    // Mass is conserved: raw scores are untouched by collapsing.
    let unbounded = Runner::new(cfg).until(r).seed(3).run(&g).unwrap();
    assert_eq!(bits(&capped), bits(&unbounded));
    assert_eq!(capped.steps, unbounded.steps);

    // A bounded-memory run checkpoints and resumes bit-identically too.
    let runner =
        Runner::new(EstimatorConfig::recommended(3)).until(rule().bounded_memory(8)).seed(3);
    let base = run_uninterrupted(&g, &runner, 1_000);
    let crashed = run_with_crash(&g, &runner, 1_000, 2);
    assert_estimates_bit_identical(&base, &crashed);
}

#[test]
fn bounded_memory_rejects_multi_walker_fanout() {
    let g = classic::petersen();
    let runner =
        Runner::new(EstimatorConfig::recommended(3)).until(rule().bounded_memory(8)).walkers(2);
    assert_eq!(runner.run(&g).unwrap_err(), GxError::BoundedMemoryParallel { walkers: 2 });
    assert_eq!(runner.start(&g).unwrap_err(), GxError::BoundedMemoryParallel { walkers: 2 });
    // And the rule itself validates its domain.
    assert!(StoppingRule { max_series_batches: 3, ..rule() }.try_validate().is_err());
    assert!(StoppingRule { max_series_batches: 6, ..rule() }.try_validate().is_ok());
}

#[test]
fn bounded_memory_works_with_custom_walks() {
    let g = classic::petersen();
    let cfg = EstimatorConfig { k: 3, d: 1, ..Default::default() };
    let r = StoppingRule {
        target_rel_ci: 1e-9,
        check_every: 1_000,
        max_steps: 8_000,
        batch_len: 64,
        min_batches: 6,
        ..Default::default()
    };
    let walk = || SrwWalk::new(&g, 0, false);
    let unbounded = Runner::new(cfg.clone())
        .until(r.clone())
        .run_with_walk(&g, walk(), rng_from_seed(5))
        .unwrap();
    let capped = Runner::new(cfg.clone())
        .until(r.clone().bounded_memory(8))
        .run_with_walk(&g, walk(), rng_from_seed(5))
        .unwrap();
    assert_eq!(bits(&unbounded), bits(&capped));
    assert!(capped.accuracy.as_ref().unwrap().batches() <= 8);
}
