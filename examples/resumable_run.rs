//! Crash-resilient estimation: checkpoint a live run, "crash", resume,
//! and land on the *bit-identical* estimate the uninterrupted run
//! produces.
//!
//! Three modes:
//!
//! * `cargo run --release --example resumable_run` — in-process demo:
//!   runs half the budget, checkpoints to memory, drops the handle (the
//!   simulated crash), resumes, and verifies golden-bit identity against
//!   an uninterrupted reference run.
//! * `... --example resumable_run -- save <file>` — runs half the budget
//!   and atomically checkpoints it to `<file>`, then exits (the CI
//!   kill-resume smoke uses this as the "killed" process). Prints the
//!   partial step count.
//! * `... --example resumable_run -- resume <file>` — resumes from
//!   `<file>`, finishes the run, and prints the final estimate's raw
//!   score bits and accuracy bits (batch count, then each type's mean
//!   score and standard error) — byte-comparable across process
//!   boundaries. The pooled statistics are rebuilt from the walkers at
//!   resume, so the accuracy line catches any drift there.
//! * `... --example resumable_run -- reference` — the uninterrupted run,
//!   printing the same bit lines: what a kill → resume pair must match.

use graphlet_rw::graph::generators::holme_kim;
use graphlet_rw::{EstimatorConfig, Runner, StoppingRule};
use rand::SeedableRng;

/// The one fixed scenario every mode shares — the golden-bit contract
/// only means something if the killed and resumed processes agree on it.
fn scenario() -> (graphlet_rw::Graph, Runner) {
    let mut rng = rand_pcg::Pcg64::seed_from_u64(7);
    let g = holme_kim(500, 4, 0.4, &mut rng);
    let rule = StoppingRule {
        target_rel_ci: 0.08,
        check_every: 5_000,
        max_steps: 400_000,
        ..Default::default()
    };
    let runner = Runner::new(EstimatorConfig::recommended(4)).until(rule).seed(42).walkers(2);
    (g, runner)
}

const HALF_ROUNDS: usize = 1;

fn print_bits(est: &graphlet_rw::Estimate) {
    print!("raw_bits:");
    for x in &est.raw_scores {
        print!(" {:016x}", x.to_bits());
    }
    println!();
    let acc = est.accuracy().expect("every run carries error bars");
    print!("accuracy_bits: {}", acc.batches());
    for i in 0..acc.types() {
        print!(" {:016x}/{:016x}", acc.mean_score(i).to_bits(), acc.std_error(i).to_bits());
    }
    println!();
    println!("steps: {}  valid: {}", est.steps, est.valid_samples);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (g, runner) = scenario();
    match args.as_slice() {
        [] => demo(&g, &runner),
        [cmd] if cmd == "reference" => reference(&g, &runner),
        [cmd, path] if cmd == "save" => save(&g, &runner, path),
        [cmd, path] if cmd == "resume" => resume(&g, path),
        _ => {
            eprintln!("usage: resumable_run [reference | save <file> | resume <file>]");
            std::process::exit(2);
        }
    }
}

/// The uninterrupted run's final bits — the target a killed-and-resumed
/// pair of processes must reproduce exactly.
fn reference(g: &graphlet_rw::Graph, runner: &Runner) {
    let mut handle = runner.start(g).expect("valid configuration");
    while !handle.is_finished() {
        handle.advance(5_000);
    }
    print_bits(&handle.finish());
}

/// In-process: run → checkpoint → crash → resume → compare bits.
fn demo(g: &graphlet_rw::Graph, runner: &Runner) {
    println!("graph: {} nodes, {} edges", g.num_nodes(), g.num_edges());

    // Reference: the uninterrupted run.
    let mut reference = runner.start(g).expect("valid configuration");
    while !reference.is_finished() {
        reference.advance(5_000);
    }
    let reference = reference.finish();

    // Interrupted twin: same schedule, checkpointed and dropped halfway.
    let mut handle = runner.start(g).expect("valid configuration");
    for _ in 0..HALF_ROUNDS {
        if handle.is_finished() {
            break;
        }
        handle.advance(5_000);
    }
    let mut snapshot = Vec::new();
    handle.checkpoint(&mut snapshot).expect("in-memory checkpoint");
    println!(
        "\ncheckpointed at {} steps ({} bytes) — dropping the handle (simulated crash)",
        handle.progress().steps,
        snapshot.len()
    );
    drop(handle);

    let mut resumed = Runner::resume(g, &mut snapshot.as_slice()).expect("valid snapshot");
    while !resumed.is_finished() {
        resumed.advance(5_000);
    }
    let resumed = resumed.finish();

    println!("\nuninterrupted:");
    print_bits(&reference);
    println!("resumed:");
    print_bits(&resumed);
    let identical = reference
        .raw_scores
        .iter()
        .zip(&resumed.raw_scores)
        .all(|(a, b)| a.to_bits() == b.to_bits())
        && reference.steps == resumed.steps
        && reference.valid_samples == resumed.valid_samples
        && reference.accuracy == resumed.accuracy;
    println!("\ngolden-bit identical: {identical}");
    assert!(identical, "checkpoint/resume must be bit-exact");
}

/// First half of the cross-process smoke: run halfway, checkpoint to
/// disk atomically, exit as if killed.
fn save(g: &graphlet_rw::Graph, runner: &Runner, path: &str) {
    let mut handle = runner.start(g).expect("valid configuration");
    for _ in 0..HALF_ROUNDS {
        if handle.is_finished() {
            break;
        }
        handle.advance(5_000);
    }
    handle.checkpoint_to_file(path).expect("atomic checkpoint write");
    println!("saved at {} steps to {path}", handle.progress().steps);
}

/// Second half: a fresh process resumes the snapshot and finishes.
fn resume(g: &graphlet_rw::Graph, path: &str) {
    let mut handle = Runner::resume_from_file(g, path).expect("valid snapshot");
    println!("resumed at {} steps from {path}", handle.progress().steps);
    while !handle.is_finished() {
        handle.advance(5_000);
    }
    print_bits(&handle.finish());
}
