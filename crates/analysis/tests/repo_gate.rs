//! The repo's own lint gate, enforced from inside tier-1 `cargo test`:
//! this workspace must lint clean against its committed baseline, so a
//! change that introduces a violation (or fixes one without
//! re-ratcheting) fails the test suite even before CI's dedicated
//! `gx-lint --check` step runs.

use gx_lint::{find_root, Workspace};
use std::path::Path;

#[test]
fn workspace_lints_clean_against_committed_baseline() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_root(here).expect("gx-lint.manifest reachable from crates/analysis");
    let ws = Workspace::load(&root).expect("workspace manifests load");
    let (_, drift) = ws.check().expect("lint runs");
    let report: Vec<String> = drift.iter().map(|d| d.to_string()).collect();
    assert!(
        drift.is_empty(),
        "gx-lint ratchet drift — run `cargo run -p gx-lint -- --list` to see findings,\n\
         fix new violations (or re-ratchet after fixes with `--update-baseline`):\n{}",
        report.join("\n")
    );
}

#[test]
fn committed_baseline_is_materially_smaller_than_the_initial_scan() {
    // PR 8's fix tranche dropped the scan from 78 findings to the
    // committed baseline; the ratchet direction only ever shrinks this.
    // That scan predates `panic_surface` counting `assert!`, `assert_eq!`
    // and `assert_ne!`, so their findings (ratcheted per file by the
    // baseline like every other) stay out of this comparison.
    const INITIAL_SCAN: usize = 78;
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_root(here).expect("gx-lint.manifest reachable from crates/analysis");
    let ws = Workspace::load(&root).expect("workspace manifests load");
    let total = ws.baseline().expect("baseline parses").total();
    let (findings, _) = ws.check().expect("lint runs");
    let asserts = findings.iter().filter(|f| f.message.starts_with("`assert")).count();
    let scanned_before = total.saturating_sub(asserts);
    assert!(
        scanned_before + 25 <= INITIAL_SCAN,
        "baseline without asserts ({scanned_before}) must stay >= 25 findings under the \
         initial scan ({INITIAL_SCAN})"
    );
}
