//! Small order-statistics and process helpers shared by every workload.

use std::time::Instant;

/// Median of `xs` (mean of the two middle values for even lengths);
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linearly interpolated quantile `q ∈ [0, 1]` of `xs`; `NaN` when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The tail figure of a job-time distribution: the value at the highest
/// of p90, p99 and p99.9 that still has at least 10 jobs beyond it (the
/// median under 100 jobs). A fixed ladder, rather than the quantile
/// `1 − 10/n`, keeps the percentile the same when a faster program
/// finishes more jobs in the same time. Returns `(value, percentile)`.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let q = [0.999, 0.99, 0.9].into_iter().find(|q| n * (1.0 - q) >= 10.0).unwrap_or(0.5);
    (quantile(xs, q), 100.0 * q)
}

/// Peak resident set size of this process (`VmHWM`) in MB, or `NaN`
/// where `/proc` is unavailable.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Mean cost in ns of one timed empty section (an `Instant::now()` …
/// `elapsed()` pair) — the overhead every per-call timing in the trace
/// carries, subtracted from the reported layer costs. The median of
/// several calibrations.
pub fn timer_overhead_ns() -> f64 {
    const N: u32 = 100_000;
    let mut runs: Vec<f64> = (0..7)
        .map(|_| {
            let mut sum = 0u128;
            for _ in 0..N {
                let t = Instant::now();
                sum += t.elapsed().as_nanos();
            }
            sum as f64 / f64::from(N)
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    runs[runs.len() / 2]
}

/// Seconds since `t0` as `f64`.
pub fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// On-CPU seconds of the calling thread (`CLOCK_THREAD_CPUTIME_ID`):
/// time the thread ran, excluding time it waited for a CPU, whether
/// behind other threads or, under a hypervisor with steal accounting,
/// behind other guests. `None` where the clock is unavailable.
pub fn thread_cpu_secs() -> Option<f64> {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        const SYS_CLOCK_GETTIME: usize = 228;
        const CLOCK_THREAD_CPUTIME_ID: usize = 3;
        let mut ts = [0i64; 2];
        let ret: isize;
        // SAFETY: clock_gettime writes one `struct timespec` (two i64 on
        // x86-64) to the pointer, which points at `ts`. The asm block
        // declares every register the `syscall` instruction clobbers
        // (rax, rcx, r11).
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") SYS_CLOCK_GETTIME as isize => ret,
                in("rdi") CLOCK_THREAD_CPUTIME_ID,
                in("rsi") ts.as_mut_ptr(),
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        (ret == 0).then(|| ts[0] as f64 + ts[1] as f64 * 1e-9)
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    {
        None
    }
}
