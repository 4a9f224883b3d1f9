//! `gx-perfbench`: the repo benchmark's measuring binary.
//!
//! ```text
//! gx-perfbench prepare --cache <dir>
//! gx-perfbench setup --workload <name> --cache <dir>
//! gx-perfbench run --workload <name> --seed <n> --seconds <s> --trace <0|1> --cache <dir>
//! ```
//!
//! `prepare` builds or verifies the cached inputs of every workload (its own
//! process, so generation never shows in a measured run's time or
//! memory). `setup` times one process's set-up and prints `open_s warm_s`;
//! `run` starts it several times to measure `setup_s`. `run` measures:
//! human-readable lines first, then, as the last line of standard output,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! Usually driven through `perfbench/run.py`.

// The repository's clippy.toml bans clocks from estimator code; a
// benchmark is timing code throughout.
#![allow(clippy::disallowed_methods)]

mod inputs;
mod jobs;
mod openloop;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use workloads::Workload;

/// What a run measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, String)>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push((name.to_string(), value, unit.to_string()));
    }

    pub fn line(&mut self, s: String) {
        self.lines.push(s);
    }

    fn print(&self) {
        for l in &self.lines {
            println!("# {l}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name} = {value} {unit}");
        }
        let correct = self.failed == 0 && self.metrics.iter().all(|(_, v, _)| v.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_number(*v))
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives (non-finite values, which JSON cannot hold, become `null`).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        let s = format!("{x}");
        if s.contains(['.', 'e', 'E']) {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

/// What the process was started to do.
#[derive(PartialEq, Eq)]
enum Mode {
    Prepare,
    Setup,
    Run,
}

struct Args {
    mode: Mode,
    workload: Workload,
    seed: u64,
    /// Required by `run`, which `perfbench/run.py` hands the run length
    /// `BENCHMARK.json` declares.
    seconds: Option<f64>,
    trace: bool,
    cache: PathBuf,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut it = std::env::args().skip(1);
        let mode = match it.next().as_deref() {
            Some("prepare") => Mode::Prepare,
            Some("setup") => Mode::Setup,
            Some("run") => Mode::Run,
            other => return Err(format!("expected `prepare`, `setup` or `run`, got {other:?}")),
        };
        let mut workload = None;
        let mut a = Args {
            mode,
            workload: Workload::K4Cache,
            seed: 1,
            seconds: None,
            trace: false,
            cache: PathBuf::from(".bench_cache"),
        };
        while let Some(flag) = it.next() {
            let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&val).ok_or_else(|| format!("unknown workload {val}"))?,
                    )
                }
                "--seed" => a.seed = val.parse().map_err(|e| format!("--seed {val}: {e}"))?,
                "--seconds" => {
                    a.seconds = Some(val.parse().map_err(|e| format!("--seconds {val}: {e}"))?)
                }
                "--trace" => a.trace = val != "0",
                "--cache" => a.cache = PathBuf::from(val),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        match workload {
            Some(w) => a.workload = w,
            None if a.mode == Mode::Prepare => {}
            None => return Err("--workload is required".into()),
        }
        match a.seconds {
            Some(s) if !s.is_finite() || s <= 0.0 => Err("--seconds must be positive".into()),
            None if a.mode == Mode::Run => Err("--seconds is required".into()),
            _ => Ok(a),
        }
    }
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gx-perfbench: {e}");
            std::process::exit(2);
        }
    };
    match args.mode {
        Mode::Prepare => {
            if let Err(e) = workloads::prepare(&args.cache) {
                eprintln!("gx-perfbench prepare: {e}");
                std::process::exit(1);
            }
            return;
        }
        Mode::Setup => {
            match workloads::setup_once(&args.cache, args.workload) {
                Ok((open_s, warm_s)) => println!("{open_s} {warm_s}"),
                Err(e) => {
                    eprintln!("gx-perfbench setup: {e}");
                    std::process::exit(1);
                }
            }
            return;
        }
        Mode::Run => {}
    }
    let mut report = Report::default();
    let seconds = args.seconds.unwrap_or_default();
    match workloads::run(&args.cache, args.workload, args.seed, seconds, args.trace, &mut report) {
        Ok(()) => report.print(),
        Err(e) => {
            for l in &report.lines {
                eprintln!("# {l}");
            }
            eprintln!("gx-perfbench run: {e}");
            std::process::exit(1);
        }
    }
}
