//! Error bars for running estimates: streaming batch-means variance and
//! the adaptive stopping rule built on it.
//!
//! The paper evaluates estimators by after-the-fact NRMSE over many
//! repeated runs (§6.1). A production service answering "how many
//! triangles?" cannot repeat the run a thousand times — it must ship a
//! confidence interval *with* the point estimate, computed online from
//! the one chain it has. The samples of that chain are serially
//! correlated (consecutive windows share `l − 1` states), so the naive
//! i.i.d. variance `s²/n` is badly optimistic. The standard fix from the
//! MCMC / steady-state-simulation literature is **batch means**: split
//! the step stream into `b` non-overlapping batches of `B` consecutive
//! steps, average each batch, and treat the `b` batch means as
//! approximately independent draws — valid once `B` exceeds the chain's
//! mixing scale. With the classic `B ≈ √n` policy both `b` and `B` grow
//! with the budget, which makes the variance estimator consistent under
//! geometric mixing.
//!
//! The accumulator here ([`ScoreAccumulator`]) threads through the fused
//! estimator loop at near-zero cost: the per-step work is one counter
//! increment and one predictable branch, because a batch mean is
//! recovered at the batch boundary as a *difference of running raw-score
//! snapshots* — the hot loop's own `raw[idx] += weight` store doubles as
//! the accumulation, and nothing else is touched per step. Per-type
//! means, second moments, and the cross-moment with the per-step score
//! total (needed for concentration error bars via the delta method) are
//! maintained with Welford updates per *batch*, not per step.
//!
//! [`BatchStats`] is mergeable: independent walkers produce independent
//! batches, so [`BatchStats::merge`] pools them with the standard
//! parallel Welford (Chan) combination — in walker order, keeping
//! multi-walker [`crate::Runner`] runs deterministic per
//! `(seed, walkers)`. That merge is the only way walkers are pooled, for
//! fixed and adaptive budgets alike: the runner rebuilds the pool from
//! the walkers' own accumulators whenever it reads it, so a single
//! walker's pool is its accumulator bit for bit.

use crate::checkpoint::{put_f64, put_u64, put_u8, put_usize, Reader};
use crate::error::{CheckpointError, RuleError};
use std::sync::{Mutex, PoisonError};

/// Streaming batch-means statistics over per-step score vectors.
///
/// For each graphlet type `i` this tracks, across completed batches, the
/// batch-mean average `mean(i)` (an estimate of the per-step expected
/// score `E[Y_i]`), its second central moment, and the cross-moment with
/// the per-step score *total* `T = Σ_i Y_i` — enough to put error bars
/// on both count estimates (linear in `E[Y_i]`) and concentration
/// estimates (`E[Y_i]/E[T]`, via the delta method).
///
/// All quantities are on the *per-step score* scale; callers rescale
/// (counts multiply by `2|R(d)|`, see [`crate::Estimate`]). Only steps
/// inside completed batches contribute; a trailing partial batch is
/// ignored, which is the usual batch-means convention.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchStats {
    batch_len: usize,
    /// Completed batches folded so far.
    batches: u64,
    /// Per-type average of batch means.
    mean: Vec<f64>,
    /// Per-type sum of squared deviations of batch means (Welford M2).
    m2: Vec<f64>,
    /// Per-type co-moment of (batch mean, batch total mean).
    cov_total: Vec<f64>,
    /// Average of batch total means.
    mean_total: f64,
    /// M2 of batch total means.
    m2_total: f64,
    /// Per-type batch means in fold order (`series[i][j]` is batch `j`'s
    /// mean of type `i`; a merge concatenates its constituents' series
    /// in merge order). This is what makes the statistics
    /// *cross-checkable*: the overlapping-batch-means estimator
    /// ([`BatchStats::obm_var_of_mean`]) re-reads the series to
    /// cross-check the Welford moments, and the bounded-memory collapse
    /// refolds it. Memory is `types × batches`
    /// floats: ~√n per type under the fixed-budget `B ≈ √n` policy, and
    /// `steps / batch_len` per type for adaptive runs (whose rule fixes
    /// the batch length) — a ROADMAP item sketches the pair-collapsing
    /// bounded-memory variant for extreme (≫10⁹-step) budgets.
    series: Vec<Vec<f64>>,
}

impl BatchStats {
    /// Empty statistics for `types` graphlet types and batches of
    /// `batch_len` steps.
    pub fn new(types: usize, batch_len: usize) -> Self {
        assert!(batch_len >= 1, "batch length must be at least 1");
        Self {
            batch_len,
            batches: 0,
            mean: vec![0.0; types],
            m2: vec![0.0; types],
            cov_total: vec![0.0; types],
            mean_total: 0.0,
            m2_total: 0.0,
            series: vec![Vec::new(); types],
        }
    }

    /// The batch means of type `i`, in fold order. Batch `j`'s mean per-
    /// step score of type `i` is `batch_means(i)[j]`; after a merge the
    /// series concatenates the constituents in merge order.
    pub fn batch_means(&self, i: usize) -> &[f64] {
        &self.series[i]
    }

    /// Number of graphlet types tracked.
    pub fn types(&self) -> usize {
        self.mean.len()
    }

    /// Steps per batch.
    pub fn batch_len(&self) -> usize {
        self.batch_len
    }

    /// Completed batches folded so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Average per-step score of type `i` over completed batches (the
    /// batch-means estimate of `E[Y_i]`).
    pub fn mean_score(&self, i: usize) -> f64 {
        self.mean[i]
    }

    /// Average per-step score total over completed batches.
    pub fn mean_total(&self) -> f64 {
        self.mean_total
    }

    /// Batch-means concentration of type `i`: `mean(i) / mean_total`.
    /// `NaN` when no score mass has been seen.
    pub fn concentration(&self, i: usize) -> f64 {
        self.mean[i] / self.mean_total
    }

    /// Variance of the *mean-score estimator* for type `i`:
    /// `s²_batch / b` with the sample variance of the `b` batch means.
    /// `NaN` with fewer than two completed batches.
    pub fn var_of_mean(&self, i: usize) -> f64 {
        if self.batches < 2 {
            return f64::NAN;
        }
        let b = self.batches as f64;
        self.m2[i] / (b - 1.0) / b
    }

    /// Standard error of the mean score of type `i` (`NaN` with fewer
    /// than two completed batches).
    pub fn std_error(&self, i: usize) -> f64 {
        self.var_of_mean(i).sqrt()
    }

    /// Standard error of the concentration of type `i` by the delta
    /// method on `c_i = E[Y_i] / E[T]`:
    /// `Var(ĉ_i) ≈ (Var(μ̂_i) + c² Var(μ̂_T) − 2c Cov(μ̂_i, μ̂_T)) / μ_T²`.
    /// `NaN` with fewer than two batches or zero score mass.
    pub fn concentration_std_error(&self, i: usize) -> f64 {
        if self.batches < 2 || self.mean_total <= 0.0 {
            return f64::NAN;
        }
        let b = self.batches as f64;
        let scale = 1.0 / (b - 1.0) / b;
        let c = self.concentration(i);
        let var_i = self.m2[i] * scale;
        let var_t = self.m2_total * scale;
        let cov_it = self.cov_total[i] * scale;
        let var_c =
            (var_i + c * c * var_t - 2.0 * c * cov_it) / (self.mean_total * self.mean_total);
        // The delta-method quadratic form can dip below zero by rounding
        // when the terms nearly cancel; clamp instead of returning NaN.
        var_c.max(0.0).sqrt()
    }

    /// Relative half-width of the `z`-confidence interval of type `i`'s
    /// mean score: `z · SE(i) / mean(i)`. Since count estimates are the
    /// mean score times a constant, this is also the relative half-width
    /// of the count CI. `NaN` when the mean is zero or batches < 2.
    pub fn relative_half_width(&self, i: usize, z: f64) -> f64 {
        z * self.std_error(i) / self.mean[i]
    }

    /// The widest [`BatchStats::relative_half_width`] over the types
    /// whose concentration is at least `min_concentration` — the scalar
    /// the adaptive stopping rule drives to its target. Types rarer than
    /// the floor are excluded (their relative error decays like
    /// `1/√(n·c_i)` and would dominate the maximum forever). The floor
    /// is capped at `1/types`: concentrations sum to 1, so by pigeonhole
    /// at least one type always qualifies — a diffuse distribution over
    /// many types (k = 6 has 112) cannot silently disqualify every type
    /// and leave the stopping rule unable to ever fire. `NaN` when
    /// nothing has been sampled or batches < 2.
    pub fn max_relative_half_width(&self, z: f64, min_concentration: f64) -> f64 {
        if self.batches < 2 {
            return f64::NAN;
        }
        let floor = self.qualifying_floor(min_concentration);
        let mut widest = f64::NAN;
        for i in 0..self.types() {
            if self.concentration(i) >= floor {
                let w = self.relative_half_width(i, z);
                if w.is_nan() {
                    // A qualifying type with an undefined width (possible
                    // only at floor 0, for a type never sampled) keeps
                    // the whole bound undefined.
                    return f64::NAN;
                }
                if widest.is_nan() || w > widest {
                    widest = w; // first qualifying type, or a wider one
                }
            }
        }
        widest
    }

    /// The concentration floor actually applied when deciding which
    /// types qualify for the stopping metric: the caller's floor capped
    /// at `1/types` — the single source of the qualification rule shared
    /// by [`BatchStats::max_relative_half_width`] and the adaptive
    /// tracker's per-type latching, so the latch set can never diverge
    /// from the stopping decision.
    pub(crate) fn qualifying_floor(&self, min_concentration: f64) -> f64 {
        min_concentration.min(1.0 / self.types() as f64)
    }

    /// Folds one completed batch given the raw-score snapshot difference
    /// already divided down to batch means. `delta[i]` must be the mean
    /// per-step score of type `i` over the batch.
    fn fold_batch(&mut self, delta: &[f64], total: f64) {
        self.batches += 1;
        let n = self.batches as f64;
        let dt_old = total - self.mean_total;
        self.mean_total += dt_old / n;
        let dt_new = total - self.mean_total;
        self.m2_total += dt_old * dt_new;
        for (i, &x) in delta.iter().enumerate() {
            let dx_old = x - self.mean[i];
            self.mean[i] += dx_old / n;
            let dx_new = x - self.mean[i];
            self.m2[i] += dx_old * dx_new;
            self.cov_total[i] += dx_old * dt_new;
            self.series[i].push(x);
        }
    }

    /// Pools another chain's batches into this one (parallel Welford /
    /// Chan combination). Batches from independent walkers are
    /// independent draws of the same batch-mean distribution, so pooling
    /// is exact — provided both sides used the same `batch_len`
    /// (asserted). Merge order matters at the bit level: callers must
    /// fold walkers in a fixed order for deterministic output.
    pub fn merge(&mut self, other: &BatchStats) {
        assert_eq!(self.batch_len, other.batch_len, "pooled batch means need equal batch lengths");
        assert_eq!(self.types(), other.types(), "mismatched type counts");
        if other.batches == 0 {
            return;
        }
        if self.batches == 0 {
            *self = other.clone();
            return;
        }
        let na = self.batches as f64;
        let nb = other.batches as f64;
        let w = na * nb / (na + nb);
        let dt = other.mean_total - self.mean_total;
        self.m2_total += other.m2_total + dt * dt * w;
        for i in 0..self.mean.len() {
            let dx = other.mean[i] - self.mean[i];
            self.m2[i] += other.m2[i] + dx * dx * w;
            self.cov_total[i] += other.cov_total[i] + dx * dt * w;
            self.mean[i] += dx * nb / (na + nb);
            self.series[i].extend_from_slice(&other.series[i]);
        }
        self.mean_total += dt * nb / (na + nb);
        self.batches += other.batches;
    }

    // --- Overlapping batch means (OBM) cross-check -------------------------
    //
    // Non-overlapping batch means (the streaming estimator above) and
    // overlapping batch means estimate the same asymptotic variance; OBM
    // reuses every window of consecutive batches and so has ~2/3 the
    // asymptotic variance of NOBM at the same batch length (Meketon &
    // Schmeiser 1984). Agreement between the two is a practical sanity
    // check that the batch length exceeded the chain's mixing scale: a
    // large discrepancy means the "independent batches" assumption is
    // broken and *both* interval estimates are suspect.

    /// The default OBM window: `⌈√b⌉` consecutive batch means pooled per
    /// overlapping window (so the effective OBM batch length grows with
    /// the run, like the underlying `B ≈ √n` policy).
    pub fn default_obm_window(&self) -> usize {
        (self.batches as f64).sqrt().ceil().max(1.0) as usize
    }

    /// Overlapping-batch-means estimate of `Var(mean(i))`: windows of
    /// `window` consecutive batch means (over the stored series, in fold
    /// order), with the standard OBM scaling
    /// `m · Σ_j (O_j − x̄)² / ((b − m + 1)(b − m))` for `b` base batch
    /// means and window `m`. At `window == 1` the formula reduces to the
    /// non-overlapping [`BatchStats::var_of_mean`] — the same sample
    /// variance over the same batch means, equal up to floating-point
    /// association — which pins the two estimators together; larger
    /// windows give the genuine overlapping cross-check. `NaN` when
    /// `window` leaves fewer than two windows (`b ≤ m`).
    pub fn obm_var_of_mean(&self, i: usize, window: usize) -> f64 {
        let b = self.batches as usize;
        let m = window;
        if m == 0 || b <= m {
            return f64::NAN;
        }
        let series = &self.series[i];
        let xbar = self.mean[i];
        // Sliding window sum over the series: O(b) total.
        let mut wsum: f64 = series[..m].iter().sum();
        let inv_m = 1.0 / m as f64;
        let mut ss = {
            let d = wsum * inv_m - xbar;
            d * d
        };
        for j in m..b {
            wsum += series[j] - series[j - m];
            let d = wsum * inv_m - xbar;
            ss += d * d;
        }
        let (b, m) = (b as f64, m as f64);
        m * ss / ((b - m + 1.0) * (b - m))
    }

    /// Standard error of the mean score of type `i` by overlapping batch
    /// means at the [`BatchStats::default_obm_window`] — the cross-check
    /// companion of [`BatchStats::std_error`]. `NaN` until the series
    /// holds more batches than the window.
    pub fn obm_std_error(&self, i: usize) -> f64 {
        self.obm_var_of_mean(i, self.default_obm_window()).sqrt()
    }

    // --- Bounded-memory series (R-batching) --------------------------------

    /// Collapses adjacent pairs of batch means into single means over
    /// doubled batches — the R-batching step of the bounded-memory
    /// series. Each collapsed mean is the average of its pair (batches
    /// have equal length, so the average over `2B` steps *is* the mean
    /// of the two `B`-step means), the batch length doubles, the batch
    /// count halves, and all Welford moments are refolded from the
    /// collapsed series so they remain exactly the statistics a fresh
    /// fold of those means would produce. Requires an even batch count.
    pub(crate) fn collapse_pairs(&mut self) {
        assert!(
            self.batches >= 2 && self.batches.is_multiple_of(2),
            "pair collapse needs an even batch count, got {}",
            self.batches
        );
        let types = self.types();
        let mut collapsed = BatchStats::new(types, self.batch_len * 2);
        let half = (self.batches / 2) as usize;
        let mut delta = vec![0.0f64; types];
        for j in 0..half {
            let mut total = 0.0;
            for (i, d) in delta.iter_mut().enumerate() {
                let x = 0.5 * (self.series[i][2 * j] + self.series[i][2 * j + 1]);
                *d = x;
                total += x;
            }
            collapsed.fold_batch(&delta, total);
        }
        *self = collapsed;
    }

    // --- Checkpoint field encoding -----------------------------------------

    /// Serializes every field into a checkpoint payload. The series is
    /// written in full: resumed statistics must be *bit-identical* to
    /// never having stopped, and the OBM cross-check and the
    /// bounded-memory collapse re-read the series.
    pub(crate) fn encode_into(&self, buf: &mut Vec<u8>) {
        put_usize(buf, self.batch_len);
        put_u64(buf, self.batches);
        put_usize(buf, self.types());
        put_f64(buf, self.mean_total);
        put_f64(buf, self.m2_total);
        for i in 0..self.types() {
            put_f64(buf, self.mean[i]);
            put_f64(buf, self.m2[i]);
            put_f64(buf, self.cov_total[i]);
        }
        for s in &self.series {
            debug_assert_eq!(s.len() as u64, self.batches);
            for &x in s {
                put_f64(buf, x);
            }
        }
    }

    /// Inverse of [`BatchStats::encode_into`], with typed rejection of
    /// out-of-domain counts. Vectors are grown by pushing while reading
    /// (never pre-allocated from a decoded count), so a malformed count
    /// fails on the first missing element instead of a giant reserve.
    pub(crate) fn decode_from(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let batch_len = r.usize("stats.batch_len")?;
        if batch_len == 0 {
            return Err(CheckpointError::Malformed { what: "stats.batch_len" });
        }
        let batches = r.u64("stats.batches")?;
        let types = r.count(1 << 20, "stats.types")?;
        let mean_total = r.f64("stats.mean_total")?;
        let m2_total = r.f64("stats.m2_total")?;
        let mut out = BatchStats::new(types, batch_len);
        out.batches = batches;
        out.mean_total = mean_total;
        out.m2_total = m2_total;
        for i in 0..types {
            out.mean[i] = r.f64("stats.mean")?;
            out.m2[i] = r.f64("stats.m2")?;
            out.cov_total[i] = r.f64("stats.cov_total")?;
        }
        for s in &mut out.series {
            for _ in 0..batches {
                s.push(r.f64("stats.series")?);
            }
        }
        Ok(out)
    }
}

/// The hot-loop side of the batch-means machinery: ticks once per scored
/// window and recovers batch means as snapshot differences of the
/// estimator's running raw-score array.
///
/// Per-step cost is one increment plus one predictable compare; the
/// `O(types)` fold runs once per `batch_len` steps.
#[derive(Debug, Clone)]
pub struct ScoreAccumulator {
    stats: BatchStats,
    /// Raw-score array as of the last batch boundary.
    snapshot: Vec<f64>,
    /// Scratch for the per-batch mean vector (avoids a per-fold alloc).
    delta: Vec<f64>,
    in_batch: usize,
    /// Bounded-memory cap on the stored series (0 = unbounded): when a
    /// fold brings the batch count to the cap, adjacent pairs collapse
    /// ([`BatchStats::collapse_pairs`]) — batch length doubles, count
    /// halves. The series then never exceeds `cap` entries per type
    /// (O(cap·types) memory for any run length; the batch length grows
    /// as O(n/cap), i.e. the cap is hit only O(log n) times).
    max_series_batches: usize,
}

impl ScoreAccumulator {
    /// Accumulator for `types` graphlet types with `batch_len`-step
    /// batches.
    pub fn new(types: usize, batch_len: usize) -> Self {
        Self::bounded(types, batch_len, 0)
    }

    /// Accumulator with a bounded-memory series cap
    /// ([`StoppingRule::bounded_memory`]): at most `max_series_batches`
    /// batch means are retained per type; reaching the cap collapses
    /// adjacent pairs into double-length batches. `0` means unbounded.
    /// Until the cap is first hit the statistics are *bit-identical* to
    /// the unbounded accumulator — the cap only changes behavior at the
    /// collapse boundary.
    pub fn bounded(types: usize, batch_len: usize, max_series_batches: usize) -> Self {
        assert!(
            max_series_batches == 0
                || (max_series_batches >= 4 && max_series_batches.is_multiple_of(2)),
            "max_series_batches must be 0 (unbounded) or an even count >= 4"
        );
        Self {
            stats: BatchStats::new(types, batch_len),
            snapshot: vec![0.0; types],
            delta: vec![0.0; types],
            in_batch: 0,
            max_series_batches,
        }
    }

    /// Registers one scored window. `raw` is the estimator's running
    /// raw-score accumulator *after* this window's contribution (its
    /// first `types` entries are read; extra capacity is ignored).
    #[inline(always)]
    pub fn tick(&mut self, raw: &[f64]) {
        self.in_batch += 1;
        if self.in_batch == self.stats.batch_len {
            self.fold(raw);
        }
    }

    #[cold]
    #[inline(never)]
    fn fold(&mut self, raw: &[f64]) {
        let inv = 1.0 / (self.stats.batch_len as f64);
        let mut total = 0.0;
        for ((snap, d), &r) in self.snapshot.iter_mut().zip(&mut self.delta).zip(raw) {
            let x = (r - *snap) * inv;
            *d = x;
            total += x;
            *snap = r;
        }
        let delta = std::mem::take(&mut self.delta);
        self.stats.fold_batch(&delta, total);
        self.delta = delta;
        self.in_batch = 0;
        if self.max_series_batches != 0 && self.stats.batches as usize >= self.max_series_batches {
            self.stats.collapse_pairs();
        }
    }

    /// The statistics folded so far (a trailing partial batch is not
    /// included).
    pub fn stats(&self) -> &BatchStats {
        &self.stats
    }

    /// Consumes the accumulator, returning the folded statistics.
    pub fn into_stats(self) -> BatchStats {
        self.stats
    }

    /// The bounded-memory series cap (0 = unbounded).
    pub(crate) fn series_cap(&self) -> usize {
        self.max_series_batches
    }

    /// Serializes the accumulator (statistics, snapshot, in-batch
    /// counter, cap) into a checkpoint payload. `delta` is pure
    /// per-fold scratch — fully overwritten before every read — so it
    /// is not carried.
    pub(crate) fn encode_into(&self, buf: &mut Vec<u8>) {
        self.stats.encode_into(buf);
        put_usize(buf, self.max_series_batches);
        put_usize(buf, self.in_batch);
        for &s in &self.snapshot {
            put_f64(buf, s);
        }
    }

    /// Inverse of [`ScoreAccumulator::encode_into`].
    pub(crate) fn decode_from(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let stats = BatchStats::decode_from(r)?;
        let cap = r.usize("acc.max_series_batches")?;
        if cap != 0 && (cap < 4 || cap % 2 != 0) {
            return Err(CheckpointError::Malformed { what: "acc.max_series_batches" });
        }
        if cap != 0 && stats.batches() >= cap as u64 {
            // A fold collapses the series the moment it reaches the cap;
            // a stored count at or above it would make the next fold's
            // pair collapse fail on an odd count.
            return Err(CheckpointError::Malformed { what: "acc.stats.batches" });
        }
        let in_batch = r.usize("acc.in_batch")?;
        if in_batch >= stats.batch_len() {
            // `fold` fires exactly at the batch boundary, so a live
            // accumulator always satisfies `in_batch < batch_len`.
            return Err(CheckpointError::Malformed { what: "acc.in_batch" });
        }
        let types = stats.types();
        let mut snapshot = Vec::new();
        for _ in 0..types {
            snapshot.push(r.f64("acc.snapshot")?);
        }
        Ok(Self { stats, snapshot, delta: vec![0.0; types], in_batch, max_series_batches: cap })
    }
}

/// The default batch-length policy: `B ≈ √n` for an `n`-step budget
/// (floored at 16 so tiny runs still form batches), giving `b ≈ √n`
/// batches — the classic consistent choice for batch means under
/// geometrically mixing chains.
pub fn default_batch_len(steps: usize) -> usize {
    ((steps as f64).sqrt() as usize).max(16)
}

// --- Studentized critical values -------------------------------------------
//
// Batch-means intervals divide by an *estimated* standard error, so the
// pivotal quantity is Student-t with `batches − 1` degrees of freedom,
// not normal. With the default √n batching a short adaptive run easily
// reaches its first convergence check with 10–20 batches, where the
// normal quantile understates the interval by 5–15% — exactly the regime
// where an adaptive stopping rule would otherwise stop too early with an
// overconfident CI. The inverse-t below replaces the z quantile whenever
// the pooled batch count is small (see [`studentized_critical`]).

/// Batch counts below this use the Student-t quantile in place of `z`
/// when sizing confidence intervals (30 is the classic rule-of-thumb
/// boundary where t and normal quantiles differ by under ~2%).
pub const STUDENTIZE_BELOW: u64 = 30;

/// Degrees of freedom at which [`student_t_quantile`] switches to the
/// normal quantile outright. At 200 df the exact t quantile is within
/// ~1.2% of z at the 95% level — far below the batch-means estimator's
/// own resolution — and the clamp makes the df → ∞ limit exact.
pub const T_DF_NORMAL_LIMIT: u64 = 200;

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 5): the only special function the
/// incomplete beta below needs.
fn ln_gamma(x: f64) -> f64 {
    const COF: [f64; 6] = [
        76.180_091_729_471_46,
        -86.505_320_329_416_77,
        24.014_098_240_830_91,
        -1.231_739_572_450_155,
        0.120_865_097_386_617_9e-2,
        -0.539_523_938_495_3e-5,
    ];
    let tmp = x + 5.5;
    let tmp = tmp - (x + 0.5) * tmp.ln();
    let mut ser = 1.000_000_000_190_015;
    let mut y = x;
    for c in COF {
        y += 1.0;
        ser += c / y;
    }
    -tmp + (2.506_628_274_631_000_5 * ser / x).ln()
}

/// Continued fraction for the regularized incomplete beta (Lentz's
/// method, Numerical Recipes §6.4).
fn betacf(a: f64, b: f64, x: f64) -> f64 {
    const FPMIN: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=200 {
        let m = m as f64;
        let m2 = 2.0 * m;
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 3e-14 {
            break;
        }
    }
    h
}

/// Regularized incomplete beta `I_x(a, b)`.
fn reg_inc_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let bt = (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        bt * betacf(a, b, x) / a
    } else {
        1.0 - bt * betacf(b, a, 1.0 - x) / b
    }
}

/// CDF of Student's t with `df` degrees of freedom, via the standard
/// incomplete-beta identity `P(T ≤ t) = 1 − I_{df/(df+t²)}(df/2, 1/2)/2`
/// for `t ≥ 0` (symmetry for `t < 0`). Exact at every df, so the
/// quantile inversion below is monotone by construction.
pub fn student_t_cdf(t: f64, df: f64) -> f64 {
    debug_assert!(df >= 1.0);
    let x = df / (df + t * t);
    let tail = 0.5 * reg_inc_beta(0.5 * df, 0.5, x);
    if t >= 0.0 {
        1.0 - tail
    } else {
        tail
    }
}

/// Standard normal CDF `Φ(z)` via the complementary error function
/// (Chebyshev fit, |error| < 1.2 × 10⁻⁷ — far below batch-means noise).
pub fn normal_cdf(z: f64) -> f64 {
    let x = -z / std::f64::consts::SQRT_2;
    // erfc on [0, ∞), reflected for negative arguments.
    let ax = x.abs();
    let t = 1.0 / (1.0 + 0.5 * ax);
    let erfc_ax = t
        * (-ax * ax - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77)))))))))
            .exp();
    let erfc_x = if x >= 0.0 { erfc_ax } else { 2.0 - erfc_ax };
    0.5 * erfc_x
}

/// Standard normal quantile `Φ⁻¹(p)` (Acklam's rational approximation,
/// relative error < 1.15 × 10⁻⁹). Panics outside `(0, 1)`.
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "normal_quantile needs p in (0, 1), got {p}");
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -normal_quantile(1.0 - p)
    }
}

/// Student-t quantile: the `p`-quantile of the t distribution with `df`
/// degrees of freedom — the inverse-t lookup behind studentized batch-
/// means intervals. Computed by bisection on [`student_t_cdf`] (monotone
/// by construction, accurate at every df); at `df ≥`
/// [`T_DF_NORMAL_LIMIT`] it returns the normal quantile outright (the
/// exact difference there is already below the CI's resolution).
///
/// Panics for `df == 0` or `p` outside `(0, 1)`.
pub fn student_t_quantile(p: f64, df: u64) -> f64 {
    assert!(df >= 1, "student_t_quantile needs df >= 1");
    assert!(p > 0.0 && p < 1.0, "student_t_quantile needs p in (0, 1), got {p}");
    if df >= T_DF_NORMAL_LIMIT {
        return normal_quantile(p);
    }
    if p < 0.5 {
        return -student_t_quantile(1.0 - p, df);
    }
    if p == 0.5 {
        return 0.0;
    }
    let dff = df as f64;
    // Bracket: the normal quantile is a lower-ish init; double until the
    // CDF crosses p (heavy df = 1 tails need a few doublings).
    let mut hi = normal_quantile(p).max(1.0);
    while student_t_cdf(hi, dff) < p && hi < 1e300 {
        hi *= 2.0;
    }
    let mut lo = 0.0;
    for _ in 0..120 {
        let mid = 0.5 * (lo + hi);
        if student_t_cdf(mid, dff) < p {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// The critical value for a two-sided CI specified by the normal
/// critical value `z` (e.g. 1.96 for 95%), studentized for `batches`
/// batch means: with fewer than [`STUDENTIZE_BELOW`] batches the
/// matching Student-t quantile at `batches − 1` degrees of freedom
/// replaces `z` (always ≥ `z`, widening the interval to honest small-
/// sample coverage); with `batches < 2` no variance estimate exists and
/// the result is `NaN`.
///
/// The matched coverage level is clamped below 1: `normal_cdf` rounds
/// to exactly 1.0 for `z ≳ 8.3`, which must yield a huge-but-finite
/// critical value, not a domain panic halfway through a paid-for run.
/// (Tail precision already degrades for `z ≳ 5.5` — far beyond any
/// practical confidence level; every sane `z` is unaffected.)
///
/// Each `(z, df)` value is computed once per process (the bisection
/// costs tens of µs, and a run asks for the same few values every round)
/// and read from a small process-wide memo after that.
pub fn studentized_critical(z: f64, batches: u64) -> f64 {
    if batches < 2 {
        return f64::NAN;
    }
    if batches >= STUDENTIZE_BELOW {
        return z;
    }
    let df = batches - 1;
    let slot = (df - 1) as usize;
    let key = z.to_bits();
    let memo = || CRITICAL_MEMO.lock().unwrap_or_else(PoisonError::into_inner);
    let cached = memo().iter().find(|row| row.0 == key).map(|row| row.1[slot]);
    if let Some(t) = cached.filter(|t| !t.is_nan()) {
        return t;
    }
    // Computed outside the lock: the quantile asserts its domain, and a
    // panic must not poison the memo for every other run.
    let t = student_t_quantile(normal_cdf(z).min(1.0 - 1e-12), df);
    let mut memo = memo();
    if let Some(row) = memo.iter_mut().find(|row| row.0 == key) {
        row.1[slot] = t;
    } else if memo.len() < CRITICAL_MEMO_ROWS {
        let mut row = [f64::NAN; STUDENTIZE_SLOTS];
        row[slot] = t;
        memo.push((key, row));
    }
    t
}

/// Studentized degrees of freedom: `1..STUDENTIZE_BELOW − 1`.
const STUDENTIZE_SLOTS: usize = (STUDENTIZE_BELOW - 2) as usize;

/// Distinct `z` values [`CRITICAL_MEMO`] holds; a further `z` is
/// computed on every call. A rule sizes every interval with its one `z`,
/// and the workspace uses a handful.
const CRITICAL_MEMO_ROWS: usize = 8;

/// The [`studentized_critical`] memo: one row per `z` (keyed by its
/// bits), one slot per df, `NaN` until first use. Scanned linearly —
/// no hashing, so no iteration order to leak into results; a memoized
/// value has the bits the bisection returns.
static CRITICAL_MEMO: Mutex<Vec<(u64, [f64; STUDENTIZE_SLOTS])>> = Mutex::new(Vec::new());

/// When to stop an adaptive estimation run ([`crate::Runner::until`]).
///
/// The run stops at the first convergence check where at least
/// `min_batches` batches have completed and the widest relative
/// CI half-width over types with concentration ≥ `min_concentration`
/// is at most `target_rel_ci` — or unconditionally at `max_steps`.
/// Intervals are studentized: while the pooled batch count is below
/// [`STUDENTIZE_BELOW`], the Student-t quantile matching `z`'s coverage
/// replaces `z` (see [`StoppingRule::critical_value`]).
///
/// With `per_type` set, each type's convergence is *latched* the first
/// time its own half-width meets the target, and the run stops once
/// every qualifying type has latched — reported per type in the
/// [`AdaptiveReport`] the adaptive runners attach to their estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct StoppingRule {
    /// Target relative half-width of the `z`-CI (e.g. 0.05 for ±5%).
    pub target_rel_ci: f64,
    /// Steps between convergence checks. In the parallel coordinator
    /// this is the per-walker round length: pooled checks happen every
    /// `walkers × check_every` total steps.
    pub check_every: usize,
    /// Hard step budget (total across walkers); the run never exceeds
    /// it.
    pub max_steps: usize,
    /// Nominal CI critical value (1.96 ≈ 95% normal coverage).
    /// Studentized at evaluation time — see
    /// [`StoppingRule::critical_value`].
    pub z: f64,
    /// Steps per batch for the batch-means variance. Must exceed the
    /// chain's mixing scale for honest intervals; the default (512)
    /// is generous for the small-world graphs the estimator targets.
    pub batch_len: usize,
    /// Minimum completed batches before stopping is allowed — below
    /// ~20 the batch variance itself is too noisy to trust.
    pub min_batches: u64,
    /// Types with batch-means concentration below this floor are
    /// excluded from the stopping metric (their relative error decays
    /// like `1/√(n·c_i)` and would hold the run hostage).
    pub min_concentration: f64,
    /// Per-type stopping: latch each qualifying type the first time its
    /// own half-width meets the target and stop once all have latched,
    /// instead of requiring the *current* widest width to meet it. Can
    /// stop earlier (a type that converged and later wobbled wider stays
    /// converged) and fills [`AdaptiveReport::steps_used`] with each
    /// type's own convergence step.
    pub per_type: bool,
    /// Bounded-memory cap on the stored batch-mean series (0 =
    /// unbounded, the default). When nonzero, reaching the cap collapses
    /// adjacent batch-mean pairs into double-length batches
    /// (R-batching), keeping memory at O(cap · types) for any run
    /// length with only O(log n) collapses. Must be an even count ≥ 4.
    /// Restricted to single-walker runs: independent per-walker
    /// collapses would desynchronize the pooled batch lengths.
    pub max_series_batches: usize,
}

impl StoppingRule {
    /// A rule with the given target, check cadence, and budget (default
    /// `z` / batching / floor parameters), or the typed reason it could
    /// never fire — so a rule that could never fire is rejected at
    /// construction, not after a silent full-budget run.
    pub fn try_new(
        target_rel_ci: f64,
        check_every: usize,
        max_steps: usize,
    ) -> Result<Self, RuleError> {
        let rule = Self { target_rel_ci, check_every, max_steps, ..Self::default() };
        rule.try_validate()?;
        Ok(rule)
    }

    /// Checks the rule's domain, returning the offending field as a
    /// typed [`RuleError`]. Every adaptive [`crate::runner::Runner`] path
    /// checks it before walking.
    pub fn try_validate(&self) -> Result<(), RuleError> {
        if self.target_rel_ci <= 0.0 || self.target_rel_ci.is_nan() {
            return Err(RuleError::TargetNotPositive { target_rel_ci: self.target_rel_ci });
        }
        if self.check_every < 1 {
            return Err(RuleError::ZeroCheckEvery);
        }
        if self.z <= 0.0 || self.z.is_nan() {
            return Err(RuleError::ZNotPositive { z: self.z });
        }
        if self.batch_len < 1 {
            return Err(RuleError::ZeroBatchLen);
        }
        if self.min_batches < 2 {
            return Err(RuleError::MinBatchesTooSmall { min_batches: self.min_batches });
        }
        if !(0.0..=1.0).contains(&self.min_concentration) {
            return Err(RuleError::ConcentrationOutOfRange {
                min_concentration: self.min_concentration,
            });
        }
        if self.max_series_batches != 0
            && (self.max_series_batches < 4 || !self.max_series_batches.is_multiple_of(2))
        {
            return Err(RuleError::BoundedMemoryCap {
                max_series_batches: self.max_series_batches,
            });
        }
        Ok(())
    }

    /// Returns this rule with a bounded-memory series cap: at most
    /// `max_series_batches` batch means retained per type (an even
    /// count ≥ 4), with adjacent pairs collapsing into double-length
    /// batches whenever the cap is reached. Until the first collapse the
    /// statistics are bit-identical to the unbounded rule. Single-walker
    /// runs only — the runner rejects the combination with
    /// [`crate::GxError::BoundedMemoryParallel`].
    pub fn bounded_memory(mut self, max_series_batches: usize) -> Self {
        self.max_series_batches = max_series_batches;
        self
    }

    /// The critical value this rule sizes intervals with once `batches`
    /// batch means are pooled: `z` studentized for small batch counts
    /// (see [`studentized_critical`]).
    pub fn critical_value(&self, batches: u64) -> f64 {
        studentized_critical(self.z, batches)
    }

    /// Whether `stats` satisfies the (non-latching) stopping criterion:
    /// enough batches, and the widest studentized relative half-width
    /// over qualifying types at or below the target.
    pub fn converged(&self, stats: &BatchStats) -> bool {
        if stats.batches() < self.min_batches {
            return false;
        }
        let crit = self.critical_value(stats.batches());
        let w = stats.max_relative_half_width(crit, self.min_concentration);
        w.is_finite() && w <= self.target_rel_ci
    }
}

impl Default for StoppingRule {
    /// ±5% at 95% confidence, checked every 10 000 steps, capped at one
    /// million steps.
    fn default() -> Self {
        Self {
            target_rel_ci: 0.05,
            check_every: 10_000,
            max_steps: 1_000_000,
            z: 1.96,
            batch_len: 512,
            min_batches: 20,
            min_concentration: 0.01,
            per_type: false,
            max_series_batches: 0,
        }
    }
}

/// What an adaptive run ([`crate::Runner::until`]) learned about its own
/// convergence, attached to the [`crate::Estimate`] it returns.
///
/// `steps_used[i]` is the pooled step count at the first convergence
/// check where type `i`'s studentized relative half-width met the
/// target (with `converged[i] == true`); for types still pending at the
/// end it is the run's total step count (`converged[i] == false`).
/// Types below the concentration floor typically never latch — they are
/// excluded from the stopping decision, not estimated to target.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveReport {
    /// Walkers that cooperated on the budget (1 for the sequential
    /// runner).
    pub walkers: usize,
    /// Convergence checks (coordinator rounds) performed.
    pub rounds: usize,
    /// Whether the stopping criterion was met (as opposed to exhausting
    /// `max_steps`).
    pub target_met: bool,
    /// The studentized critical value in effect at the final check
    /// (`NaN` if no check gathered two batches).
    pub critical_value: f64,
    /// Per-type pooled steps at first convergence (total steps for
    /// types still pending).
    pub steps_used: Vec<usize>,
    /// Per-type converged/pending status.
    pub converged: Vec<bool>,
}

/// The latching convergence bookkeeping shared by the sequential and
/// parallel adaptive runners: one `observe` per convergence check,
/// recording each type's first convergence step and answering whether
/// the rule says stop.
#[derive(Debug, Clone)]
pub(crate) struct AdaptiveTracker {
    latched: Vec<Option<usize>>,
}

impl AdaptiveTracker {
    pub(crate) fn new(types: usize) -> Self {
        Self { latched: vec![None; types] }
    }

    /// Graphlet types tracked (the latch-table length) — lets the
    /// checkpoint decoder cross-validate a snapshot against its config.
    pub(crate) fn types(&self) -> usize {
        self.latched.len()
    }

    /// Evaluates one convergence check against `stats` (the pooled
    /// statistics) at `pooled_steps` total scored windows. Latches
    /// newly converged types, and returns whether the run should stop:
    /// all qualifying types latched (`per_type`), or the current widest
    /// qualifying half-width at target (default) — both studentized.
    pub(crate) fn observe(
        &mut self,
        rule: &StoppingRule,
        stats: &BatchStats,
        pooled_steps: usize,
    ) -> bool {
        if stats.batches() < rule.min_batches {
            return false;
        }
        let crit = rule.critical_value(stats.batches());
        // The capped floor shared with `max_relative_half_width`:
        // pigeonhole guarantees at least one type qualifies once
        // anything scored. One pass serves both stop modes: per-type
        // latching, and the widest-qualifying-width criterion (with the
        // same NaN poisoning as `max_relative_half_width` — a qualifying
        // type with an undefined width keeps the bound undefined).
        let floor = stats.qualifying_floor(rule.min_concentration);
        let (mut any, mut all) = (false, true);
        let mut widest = f64::NAN;
        let mut undefined = false;
        for (i, latch) in self.latched.iter_mut().enumerate() {
            let c = stats.concentration(i);
            if c.is_nan() || c < floor {
                continue; // NaN concentration (nothing scored) is excluded too
            }
            any = true;
            let w = stats.relative_half_width(i, crit);
            if w.is_nan() {
                undefined = true;
            } else if widest.is_nan() || w > widest {
                widest = w;
            }
            if latch.is_none() {
                if w.is_finite() && w <= rule.target_rel_ci {
                    *latch = Some(pooled_steps);
                } else {
                    all = false;
                }
            }
        }
        if rule.per_type {
            any && all
        } else {
            !undefined && widest.is_finite() && widest <= rule.target_rel_ci
        }
    }

    /// Packs the latched state into the user-facing report.
    pub(crate) fn report(
        &self,
        walkers: usize,
        rounds: usize,
        total_steps: usize,
        target_met: bool,
        critical_value: f64,
    ) -> AdaptiveReport {
        AdaptiveReport {
            walkers,
            rounds,
            target_met,
            critical_value,
            steps_used: self.latched.iter().map(|l| l.unwrap_or(total_steps)).collect(),
            converged: self.latched.iter().map(|l| l.is_some()).collect(),
        }
    }

    /// Serializes the latch table into a checkpoint payload.
    pub(crate) fn encode_into(&self, buf: &mut Vec<u8>) {
        put_usize(buf, self.latched.len());
        for l in &self.latched {
            match l {
                Some(step) => {
                    put_u8(buf, 1);
                    put_usize(buf, *step);
                }
                None => put_u8(buf, 0),
            }
        }
    }

    /// Inverse of [`AdaptiveTracker::encode_into`].
    pub(crate) fn decode_from(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let n = r.count(1 << 20, "tracker.types")?;
        let mut latched = Vec::new();
        for _ in 0..n {
            latched.push(match r.u8("tracker.latch.tag")? {
                0 => None,
                1 => Some(r.usize("tracker.latch.step")?),
                _ => return Err(CheckpointError::Malformed { what: "tracker.latch.tag" }),
            });
        }
        Ok(Self { latched })
    }
}

/// The verdict of [`crate::measure_burn_in`]: initialization bias
/// measured as the disagreement between early batch means and the
/// chain's steady-state batch-mean distribution (ROADMAP's "compare
/// first-batch mean vs the rest").
///
/// The reference distribution is the trailing half of the pilot batches
/// (mean `μ`, standard deviation `σ`); a leading batch is flagged
/// *biased* when its total-score mean sits more than `3σ` from `μ`.
/// `suggested_burn_in` is the step count covering everything up to and
/// including the *last* flagged leading batch (a start state can pass
/// through an in-band batch before drifting atypical, so the scan must
/// not stop at the first conforming batch) — pass it as
/// [`crate::EstimatorConfig::burn_in`] (zero when the chain shows no
/// measurable initialization bias, the common case on well-connected
/// graphs).
#[derive(Debug, Clone, PartialEq)]
pub struct BurnInReport {
    /// Steps per pilot batch.
    pub batch_len: usize,
    /// Total-score mean of every pilot batch, in chain order.
    pub batch_means: Vec<f64>,
    /// Standardized deviation of the first batch's mean from the
    /// steady-state reference: `(mean₀ − μ) / σ`. Beyond ±3 the start
    /// state's neighborhood is measurably atypical.
    pub first_batch_z: f64,
    /// Steps to discard before sampling (a multiple of `batch_len`).
    pub suggested_burn_in: usize,
}

impl BurnInReport {
    /// Diagnoses initialization bias from a pilot chain's per-batch
    /// total-score means. Needs at least four batches (two of reference
    /// tail).
    pub fn from_batch_means(batch_means: Vec<f64>, batch_len: usize) -> Self {
        assert!(batch_len >= 1, "batch length must be at least 1");
        let n = batch_means.len();
        assert!(n >= 4, "burn-in diagnosis needs at least 4 pilot batches, got {n}");
        let tail = &batch_means[n / 2..];
        let mu = tail.iter().sum::<f64>() / tail.len() as f64;
        let var = tail.iter().map(|x| (x - mu) * (x - mu)).sum::<f64>() / (tail.len() - 1) as f64;
        // Guard a degenerate (constant-score) tail: fall back to a tiny
        // relative scale so exact agreement still reads as unbiased.
        let sd = var.sqrt().max(1e-12 * mu.abs().max(1.0));
        let first_batch_z = (batch_means[0] - mu) / sd;
        let biased_lead = batch_means[..n / 2]
            .iter()
            .rposition(|m| (m - mu).abs() > 3.0 * sd)
            .map_or(0, |last| last + 1);
        Self { batch_len, batch_means, first_batch_z, suggested_burn_in: biased_lead * batch_len }
    }

    /// Whether any leading batch was flagged.
    pub fn biased(&self) -> bool {
        self.suggested_burn_in > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Drives an accumulator with a known per-step score stream.
    fn accumulate(stream: &[Vec<f64>], batch_len: usize) -> BatchStats {
        let types = stream[0].len();
        let mut acc = ScoreAccumulator::new(types, batch_len);
        let mut raw = vec![0.0; types];
        for step in stream {
            for (r, x) in raw.iter_mut().zip(step) {
                *r += x;
            }
            acc.tick(&raw);
        }
        acc.into_stats()
    }

    #[test]
    fn batch_means_match_direct_computation() {
        // 7 steps, batch_len 2 -> 3 complete batches, 1 step dropped.
        let stream: Vec<Vec<f64>> =
            [1.0, 3.0, 2.0, 2.0, 0.0, 4.0, 9.0].iter().map(|&x| vec![x, 2.0 * x]).collect();
        let stats = accumulate(&stream, 2);
        assert_eq!(stats.batches(), 3);
        // batch means of type 0: [2.0, 2.0, 2.0]; type 1 doubles them.
        assert!((stats.mean_score(0) - 2.0).abs() < 1e-12);
        assert!((stats.mean_score(1) - 4.0).abs() < 1e-12);
        assert!((stats.mean_total() - 6.0).abs() < 1e-12);
        // zero variance across identical batch means
        assert!(stats.var_of_mean(0).abs() < 1e-12);
        assert!((stats.concentration(0) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn variance_of_mean_is_sample_variance_over_batches() {
        // batch means of type 0: [1.0, 3.0] -> s² = 2, var(mean) = 1.
        let stream: Vec<Vec<f64>> = [1.0, 1.0, 3.0, 3.0].iter().map(|&x| vec![x]).collect();
        let stats = accumulate(&stream, 2);
        assert_eq!(stats.batches(), 2);
        assert!((stats.var_of_mean(0) - 1.0).abs() < 1e-12);
        assert!((stats.std_error(0) - 1.0).abs() < 1e-12);
        // relative half-width at z = 2: 2 * 1 / 2 = 1.
        assert!((stats.relative_half_width(0, 2.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn insufficient_batches_give_nan() {
        let stats = accumulate(&[vec![1.0], vec![2.0]], 2);
        assert_eq!(stats.batches(), 1);
        assert!(stats.var_of_mean(0).is_nan());
        assert!(stats.std_error(0).is_nan());
        assert!(stats.concentration_std_error(0).is_nan());
        assert!(stats.max_relative_half_width(1.96, 0.0).is_nan());
    }

    #[test]
    fn concentration_delta_method_is_exact_for_constant_total() {
        // Total is constant (4.0) per step; concentration variance then
        // reduces to Var(μ̂_i)/μ_T² exactly, and the cross term vanishes
        // in expectation but not per-sample — check against a direct
        // delta-method computation on the same batch means.
        let stream: Vec<Vec<f64>> =
            [[1.0, 3.0], [3.0, 1.0], [2.0, 2.0], [0.0, 4.0]].iter().map(|x| x.to_vec()).collect();
        let stats = accumulate(&stream, 1);
        let b = 4.0f64;
        // direct: batch means are the steps themselves (batch_len 1)
        let m0 = 1.5;
        let var0 = [1.0f64, 3.0, 2.0, 0.0].iter().map(|x| (x - m0) * (x - m0)).sum::<f64>()
            / (b - 1.0)
            / b;
        let c = m0 / 4.0;
        // total variance and covariance are 0 (total constant at 4).
        let want = (var0 / (4.0 * 4.0)).sqrt();
        assert!((stats.concentration(0) - c).abs() < 1e-12);
        assert!((stats.concentration_std_error(0) - want).abs() < 1e-12);
    }

    #[test]
    fn merge_matches_single_stream_fold() {
        // Folding one stream must equal merging its two halves, up to
        // floating-point association (compare loosely).
        let stream: Vec<Vec<f64>> = (0..40).map(|i| vec![(i % 7) as f64, (i % 3) as f64]).collect();
        let whole = accumulate(&stream, 4);
        let mut left = accumulate(&stream[..20], 4);
        let right = accumulate(&stream[20..], 4);
        left.merge(&right);
        assert_eq!(left.batches(), whole.batches());
        for i in 0..2 {
            assert!((left.mean_score(i) - whole.mean_score(i)).abs() < 1e-12);
            assert!((left.var_of_mean(i) - whole.var_of_mean(i)).abs() < 1e-12);
            assert!(
                (left.concentration_std_error(i) - whole.concentration_std_error(i)).abs() < 1e-12
            );
        }
        assert!((left.mean_total() - whole.mean_total()).abs() < 1e-12);
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let stream: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64]).collect();
        let stats = accumulate(&stream, 2);
        let mut a = stats.clone();
        a.merge(&BatchStats::new(1, 2));
        assert_eq!(a, stats);
        let mut b = BatchStats::new(1, 2);
        b.merge(&stats);
        assert_eq!(b, stats);
    }

    #[test]
    #[should_panic(expected = "equal batch lengths")]
    fn merge_rejects_mismatched_batch_len() {
        let mut a = BatchStats::new(1, 2);
        a.merge(&BatchStats::new(1, 4));
    }

    #[test]
    fn max_relative_half_width_respects_floor() {
        // Type 0 carries ~99% of mass with tight batches; type 1 is rare
        // and noisy. With a 5% floor the rare type is excluded.
        let stream: Vec<Vec<f64>> = (0..64)
            .map(|i| vec![10.0 + ((i % 2) as f64) * 0.1, if i % 16 == 0 { 1.0 } else { 0.0 }])
            .collect();
        let stats = accumulate(&stream, 4);
        let with_floor = stats.max_relative_half_width(1.96, 0.05);
        let without = stats.max_relative_half_width(1.96, 0.0);
        assert!(with_floor < without, "{with_floor} vs {without}");
    }

    #[test]
    fn floor_is_capped_so_some_type_always_qualifies() {
        // 112 types (k = 6) with near-uniform mass: every concentration
        // (~0.009) sits below the default 0.01 floor, but the 1/types
        // cap keeps the bound defined — the stopping rule can still
        // fire on a diffuse distribution.
        let types = 112;
        let stream: Vec<Vec<f64>> = (0..32)
            .map(|i| {
                let mut step = vec![1.0; types];
                step[i % types] += 0.01; // tiny jitter so variance > 0
                step
            })
            .collect();
        let stats = accumulate(&stream, 4);
        let w = stats.max_relative_half_width(1.96, 0.01);
        assert!(w.is_finite(), "capped floor must keep the bound defined, got {w}");
    }

    #[test]
    fn stopping_rule_gates_on_batches_and_width() {
        let rule = StoppingRule { min_batches: 4, target_rel_ci: 0.5, ..Default::default() };
        assert_eq!(rule.try_validate(), Ok(()));
        // Identical batches -> zero width, but too few batches.
        let tight: Vec<Vec<f64>> = (0..3 * 512).map(|_| vec![1.0]).collect();
        let stats = accumulate(&tight, 512);
        assert_eq!(stats.batches(), 3);
        assert!(!rule.converged(&stats));
        let tight: Vec<Vec<f64>> = (0..4 * 512).map(|_| vec![1.0]).collect();
        let stats = accumulate(&tight, 512);
        assert!(rule.converged(&stats));
    }

    #[test]
    fn batch_mean_series_is_recorded_and_concatenates_on_merge() {
        let stream: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64]).collect();
        let stats = accumulate(&stream, 2);
        assert_eq!(stats.batch_means(0), &[0.5, 2.5, 4.5, 6.5]);
        let mut left = accumulate(&stream[..4], 2);
        let right = accumulate(&stream[4..], 2);
        left.merge(&right);
        assert_eq!(left.batch_means(0), stats.batch_means(0), "merge keeps fold order");
    }

    #[test]
    fn obm_window_one_agrees_with_nobm_and_larger_windows_track_it() {
        // A noisy-but-stationary stream (SplitMix64-style hash, so
        // per-step scores are effectively i.i.d. — OBM and NOBM then
        // estimate the same quantity at every window): window 1 is the
        // NOBM sample variance (same formula, direct summation); larger
        // windows must agree to within estimator noise on 32 batches.
        fn mix(i: u64) -> f64 {
            let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            x ^= x >> 29;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^= x >> 32;
            (x % 1_000) as f64 / 1_000.0
        }
        let stream: Vec<Vec<f64>> = (0..1024).map(|i| vec![3.0 + mix(i)]).collect();
        let stats = accumulate(&stream, 8);
        assert_eq!(stats.batches(), 128);
        let nobm = stats.var_of_mean(0);
        let obm1 = stats.obm_var_of_mean(0, 1);
        assert!((obm1 - nobm).abs() <= 1e-12 * nobm, "window 1: {obm1} vs {nobm}");
        for window in [2usize, 4, 8] {
            let obm = stats.obm_var_of_mean(0, window);
            assert!(obm.is_finite() && obm > 0.0);
            let ratio = obm / nobm;
            assert!((0.4..=2.5).contains(&ratio), "window {window}: ratio {ratio}");
        }
        // The default-window accessor is the same computation.
        let w = stats.default_obm_window();
        assert_eq!(w, 12, "⌈√128⌉");
        assert_eq!(stats.obm_std_error(0), stats.obm_var_of_mean(0, w).sqrt());
    }

    #[test]
    fn obm_is_nan_without_enough_batches_for_the_window() {
        let stream: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64]).collect();
        let stats = accumulate(&stream, 2); // 4 batches
        assert!(stats.obm_var_of_mean(0, 4).is_nan(), "b == m leaves one window");
        assert!(stats.obm_var_of_mean(0, 5).is_nan());
        assert!(stats.obm_var_of_mean(0, 0).is_nan());
        assert!(stats.obm_var_of_mean(0, 3).is_finite());
        let empty = BatchStats::new(1, 2);
        assert!(empty.obm_std_error(0).is_nan());
    }

    #[test]
    fn stopping_rule_try_new_returns_typed_errors() {
        assert_eq!(
            StoppingRule::try_new(0.0, 1_000, 10_000),
            Err(RuleError::TargetNotPositive { target_rel_ci: 0.0 })
        );
        assert_eq!(
            StoppingRule::try_new(-0.05, 1_000, 10_000),
            Err(RuleError::TargetNotPositive { target_rel_ci: -0.05 })
        );
        assert_eq!(StoppingRule::try_new(0.05, 0, 10_000), Err(RuleError::ZeroCheckEvery));
        assert!(StoppingRule::try_new(0.05, 1_000, 10_000).is_ok());
        let bad = StoppingRule { z: -1.0, ..Default::default() };
        assert_eq!(bad.try_validate(), Err(RuleError::ZNotPositive { z: -1.0 }));
        let bad = StoppingRule { batch_len: 0, ..Default::default() };
        assert_eq!(bad.try_validate(), Err(RuleError::ZeroBatchLen));
        let bad = StoppingRule { min_batches: 1, ..Default::default() };
        assert_eq!(bad.try_validate(), Err(RuleError::MinBatchesTooSmall { min_batches: 1 }));
        let bad = StoppingRule { min_concentration: 1.5, ..Default::default() };
        assert_eq!(
            bad.try_validate(),
            Err(RuleError::ConcentrationOutOfRange { min_concentration: 1.5 })
        );
        // NaN fields are rejected, not silently accepted by `!(x > 0)`
        // double negation.
        let bad = StoppingRule { target_rel_ci: f64::NAN, ..Default::default() };
        assert!(matches!(bad.try_validate(), Err(RuleError::TargetNotPositive { .. })));
    }

    #[test]
    fn default_batch_len_scales_as_sqrt() {
        assert_eq!(default_batch_len(0), 16);
        assert_eq!(default_batch_len(100), 16);
        assert_eq!(default_batch_len(10_000), 100);
        assert_eq!(default_batch_len(1_000_000), 1000);
    }

    // Regression (constructor validation): a rule with a non-positive
    // target can never fire and used to silently burn the whole
    // max_steps budget on every run; check_every == 0 never reached a
    // convergence check at all. `new` now rejects both up front.
    #[test]
    fn studentized_critical_widens_small_batch_intervals() {
        // Below the studentization threshold the critical value must
        // exceed z (t-tails are heavier), approaching z from above.
        let mut prev = f64::INFINITY;
        for batches in 2..STUDENTIZE_BELOW {
            let crit = studentized_critical(1.96, batches);
            assert!(crit > 1.96, "batches={batches}: {crit}");
            assert!(crit <= prev, "critical value must shrink with more batches");
            prev = crit;
        }
        assert_eq!(studentized_critical(1.96, STUDENTIZE_BELOW), 1.96);
        assert_eq!(studentized_critical(1.96, 1_000), 1.96);
        assert!(studentized_critical(1.96, 0).is_nan());
        assert!(studentized_critical(1.96, 1).is_nan());
    }

    #[test]
    fn memoized_critical_values_equal_the_bisection_bit_for_bit() {
        // Twice over: the first pass may fill the memo, the second reads
        // it; both must return the quantile's own bits.
        for _ in 0..2 {
            for z in [1.96, 2.576, 9.0] {
                for df in 1..=28u64 {
                    let exact = student_t_quantile(normal_cdf(z).min(1.0 - 1e-12), df);
                    let memo = studentized_critical(z, df + 1);
                    assert_eq!(memo.to_bits(), exact.to_bits(), "z={z} df={df}");
                }
            }
        }
    }

    #[test]
    fn t_quantile_matches_reference_table() {
        // Classic two-sided 95% (p = 0.975) column of the t table.
        for (df, want) in
            [(1u64, 12.706), (2, 4.303), (5, 2.571), (10, 2.228), (30, 2.042), (100, 1.984)]
        {
            let got = student_t_quantile(0.975, df);
            assert!((got - want).abs() < 1.5e-3, "df={df}: got {got}, want {want}");
        }
        // 99% two-sided (p = 0.995).
        for (df, want) in [(1u64, 63.657), (5, 4.032), (20, 2.845)] {
            let got = student_t_quantile(0.995, df);
            assert!((got - want).abs() < 1.5e-3, "df={df}: got {got}, want {want}");
        }
        // Symmetry and the median.
        assert_eq!(student_t_quantile(0.5, 7), 0.0);
        assert!((student_t_quantile(0.1, 7) + student_t_quantile(0.9, 7)).abs() < 1e-9);
    }

    #[test]
    fn normal_quantile_inverts_normal_cdf() {
        for z in [-3.0, -1.96, -0.5, 0.0, 0.5, 1.0, 1.645, 1.96, 2.576, 3.29] {
            if z == 0.0 {
                assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
                continue;
            }
            let p = normal_cdf(z);
            assert!((normal_quantile(p) - z).abs() < 1e-5, "z={z}: round trip {}", {
                normal_quantile(p)
            });
        }
    }

    #[test]
    fn t_quantile_converges_to_z_by_df_200() {
        // The inverse-t lookup clamps to the normal quantile at
        // T_DF_NORMAL_LIMIT; the property the stopping rule relies on is
        // that by df = 200 the lookup and z agree to well under 1e-3.
        for p in [0.8, 0.9, 0.95, 0.975, 0.995] {
            let t = student_t_quantile(p, 200);
            let z = normal_quantile(p);
            assert!((t - z).abs() < 1e-3, "p={p}: t {t} vs z {z}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Strictly increasing in the confidence level at fixed df.
        #[test]
        fn t_quantile_monotone_in_confidence(
            df in 1u64..60,
            p in 0.55f64..0.98,
            gap in 0.005f64..0.015,
        ) {
            let lo = student_t_quantile(p, df);
            let hi = student_t_quantile(p + gap, df);
            prop_assert!(hi > lo, "df={df}: q({p})={lo} !< q({})={hi}", p + gap);
        }

        /// Decreasing in df at fixed upper-tail level (heavier tails at
        /// fewer degrees of freedom), down to the normal quantile.
        #[test]
        fn t_quantile_decreasing_in_df(df in 1u64..260, p in 0.75f64..0.999) {
            let here = student_t_quantile(p, df);
            let next = student_t_quantile(p, df + 1);
            prop_assert!(here >= next, "df={df}, p={p}: {here} < {next}");
            let z = normal_quantile(p);
            prop_assert!(here >= z - 1e-12, "df={df}, p={p}: t {here} below z {z}");
        }

        /// The studentized interval is wider than the z interval at
        /// small batch counts: same standard error, larger multiplier.
        #[test]
        fn t_interval_wider_than_z_at_small_df(batches in 2u64..30, z in 1.2f64..3.0) {
            let crit = studentized_critical(z, batches);
            let se = 0.37; // arbitrary positive standard error
            prop_assert!(crit * se > z * se, "batches={batches}: t width {} vs z width {}",
                crit * se, z * se);
        }
    }

    #[test]
    fn tracker_latches_types_and_reports_steps_used() {
        // Type 0 tight from the start, type 1 noisy: per-type mode must
        // latch 0 at the first check and 1 only once its width drops.
        let rule = StoppingRule {
            target_rel_ci: 0.2,
            min_batches: 2,
            min_concentration: 0.0,
            per_type: true,
            ..Default::default()
        };
        let mut tracker = AdaptiveTracker::new(2);
        // Check 1 (batch_len 2, so (i/2) % 2 varies *across* batches):
        // type 0 batch means 10 ± 0.0005, type 1 batch means 0 / 1.
        let noisy: Vec<Vec<f64>> = (0..8)
            .map(|i| vec![10.0 + 0.001 * ((i / 2) % 2) as f64, ((i / 2) % 2) as f64])
            .collect();
        let stats = accumulate(&noisy, 2);
        assert!(!tracker.observe(&rule, &stats, 100), "type 1 still wide");
        // Check 2: both tight now.
        let tight: Vec<Vec<f64>> = (0..8)
            .map(|i| vec![10.0 + 0.001 * ((i / 2) % 2) as f64, 1.0 + 0.001 * ((i / 2) % 2) as f64])
            .collect();
        let stats = accumulate(&tight, 2);
        assert!(tracker.observe(&rule, &stats, 200), "all types latched");
        let report = tracker.report(1, 2, 200, true, 2.2);
        assert_eq!(report.steps_used, vec![100, 200]);
        assert_eq!(report.converged, vec![true, true]);
        assert!(report.target_met);
        assert_eq!(report.rounds, 2);
        assert_eq!(report.walkers, 1);
    }

    #[test]
    fn tracker_pending_types_report_total_steps() {
        let rule = StoppingRule {
            target_rel_ci: 1e-6,
            min_batches: 2,
            min_concentration: 0.0,
            per_type: true,
            ..Default::default()
        };
        let mut tracker = AdaptiveTracker::new(1);
        // Batch means 0.5, 2.5, 4.5, 6.5 — far too noisy for the target.
        let stream: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64]).collect();
        let stats = accumulate(&stream, 2);
        assert!(!tracker.observe(&rule, &stats, 500));
        let report = tracker.report(2, 1, 500, false, f64::NAN);
        assert_eq!(report.steps_used, vec![500]);
        assert_eq!(report.converged, vec![false]);
        assert!(!report.target_met);
    }

    #[test]
    fn tracker_respects_min_batches_gate() {
        let rule = StoppingRule { target_rel_ci: 10.0, min_batches: 5, ..Default::default() };
        let mut tracker = AdaptiveTracker::new(1);
        let stream: Vec<Vec<f64>> = (0..8).map(|i| vec![1.0 + (i % 2) as f64]).collect();
        let stats = accumulate(&stream, 2); // 4 batches < 5
        assert!(!tracker.observe(&rule, &stats, 8));
        assert!(!tracker.report(1, 1, 8, false, f64::NAN).converged[0]);
    }

    #[test]
    fn bounded_accumulator_matches_unbounded_below_the_cap() {
        // 7 complete batches at cap 8: the collapse never fires, so
        // every statistic — moments and series — is bit-identical to the
        // unbounded accumulator.
        let stream: Vec<Vec<f64>> =
            (0..30).map(|i| vec![(i % 7) as f64 * 0.25, (i % 5) as f64]).collect();
        let unbounded = accumulate(&stream, 4);
        let mut acc = ScoreAccumulator::bounded(2, 4, 8);
        let mut raw = vec![0.0; 2];
        for step in &stream {
            for (r, x) in raw.iter_mut().zip(step) {
                *r += x;
            }
            acc.tick(&raw);
        }
        assert_eq!(acc.stats(), &unbounded);
    }

    #[test]
    fn bounded_accumulator_collapses_at_the_cap() {
        // 64 base batches at cap 4: batch_len doubles every time the
        // count hits 4, ending at 64/4 · 4 = len 64 … concretely the
        // series never exceeds the cap and total mass is conserved.
        let stream: Vec<Vec<f64>> = (0..256).map(|i| vec![(i % 11) as f64]).collect();
        let mut acc = ScoreAccumulator::bounded(1, 4, 4);
        let mut raw = vec![0.0; 1];
        for step in &stream {
            raw[0] += step[0];
            acc.tick(&raw);
        }
        let stats = acc.stats();
        assert!(stats.batches() < 4, "series stays under the cap, got {}", stats.batches());
        assert_eq!(stats.batch_len() * stats.batches() as usize, 256, "mass conserved");
        // The overall mean is the mean of all steps regardless of
        // batching (all batches cover equal step counts).
        let want = stream.iter().map(|s| s[0]).sum::<f64>() / 256.0;
        assert!((stats.mean_score(0) - want).abs() < 1e-12);
        // Moments agree with a fresh fold of the collapsed series.
        let mut refold = BatchStats::new(1, stats.batch_len());
        for &x in stats.batch_means(0) {
            refold.fold_batch(&[x], x);
        }
        assert_eq!(&refold, stats, "collapsed moments are a clean refold of the series");
    }

    #[test]
    fn collapse_pairs_averages_adjacent_means() {
        let stream: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64]).collect();
        let mut stats = accumulate(&stream, 2); // series [0.5, 2.5, 4.5, 6.5]
        stats.collapse_pairs();
        assert_eq!(stats.batch_len(), 4);
        assert_eq!(stats.batches(), 2);
        assert_eq!(stats.batch_means(0), &[1.5, 5.5]);
    }

    #[test]
    fn stopping_rule_bounded_memory_validation() {
        assert!(StoppingRule::default().bounded_memory(64).try_validate().is_ok());
        assert!(StoppingRule::default().bounded_memory(0).try_validate().is_ok());
        for bad in [1usize, 2, 3, 5, 7] {
            assert_eq!(
                StoppingRule::default().bounded_memory(bad).try_validate(),
                Err(RuleError::BoundedMemoryCap { max_series_batches: bad }),
                "cap {bad}"
            );
        }
    }

    #[test]
    fn bounded_accumulator_at_or_over_its_cap_is_malformed() {
        // A live bounded accumulator always holds fewer batches than its
        // cap (the fold that reaches the cap collapses the series). An
        // unbounded one with 4 batches, relabelled cap 4, would fail its
        // next fold's pair collapse on an odd count; decoding refuses it.
        let mut acc = ScoreAccumulator::new(1, 2);
        for i in 1..=8 {
            acc.tick(&[i as f64]);
        }
        assert_eq!(acc.stats().batches(), 4);
        let mut buf = Vec::new();
        acc.encode_into(&mut buf);
        // The cap follows the statistics: 5 header words, 3 moments and
        // 4 series entries for the one type.
        let at = 8 * (5 + 3 + 4);
        assert_eq!(buf[at..at + 8], 0u64.to_le_bytes());
        buf[at..at + 8].copy_from_slice(&4u64.to_le_bytes());
        let mut r = crate::checkpoint::Reader::new(&buf);
        assert_eq!(
            ScoreAccumulator::decode_from(&mut r).unwrap_err(),
            CheckpointError::Malformed { what: "acc.stats.batches" }
        );
    }

    #[test]
    fn accumulator_and_tracker_checkpoint_round_trip_bitwise() {
        let stream: Vec<Vec<f64>> =
            (0..37).map(|i| vec![(i % 7) as f64 * 0.25, (i % 5) as f64 * 0.5]).collect();
        let mut acc = ScoreAccumulator::bounded(2, 4, 8);
        let mut raw = vec![0.0; 2];
        for step in &stream {
            for (r, x) in raw.iter_mut().zip(step) {
                *r += x;
            }
            acc.tick(&raw);
        }
        let mut buf = Vec::new();
        acc.encode_into(&mut buf);
        let mut r = crate::checkpoint::Reader::new(&buf);
        let mut back = ScoreAccumulator::decode_from(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.stats(), acc.stats());
        // The decoded accumulator continues the stream identically —
        // including the trailing partial batch the snapshot carried.
        let more: Vec<Vec<f64>> =
            (37..60).map(|i| vec![(i % 7) as f64 * 0.25, (i % 5) as f64 * 0.5]).collect();
        for step in &more {
            for (r, x) in raw.iter_mut().zip(step) {
                *r += x;
            }
            acc.tick(&raw);
            back.tick(&raw);
        }
        assert_eq!(back.stats(), acc.stats(), "resumed fold diverged");

        let mut tracker = AdaptiveTracker::new(3);
        tracker.latched = vec![None, Some(123), Some(0)];
        let mut buf = Vec::new();
        tracker.encode_into(&mut buf);
        let mut r = crate::checkpoint::Reader::new(&buf);
        let back = AdaptiveTracker::decode_from(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.latched, tracker.latched);
    }

    #[test]
    fn burn_in_report_flags_biased_lead_batches() {
        // Two hot leading batches, then a stationary tail.
        let mut means = vec![9.0, 7.5];
        means.extend((0..10).map(|i| 1.0 + 0.01 * (i % 3) as f64));
        let report = BurnInReport::from_batch_means(means, 128);
        assert!(report.biased());
        assert_eq!(report.suggested_burn_in, 2 * 128);
        assert!(report.first_batch_z > 3.0, "z = {}", report.first_batch_z);
    }

    #[test]
    fn studentized_critical_survives_extreme_z() {
        // Regression: normal_cdf rounds to exactly 1.0 for z ≳ 8.3, and
        // an unclamped level paniced inside student_t_quantile halfway
        // through a paid-for run. Absurd-but-validated z must produce a
        // huge finite critical value instead.
        for batches in [2u64, 5, 10, 29] {
            let crit = studentized_critical(9.0, batches);
            assert!(crit.is_finite() && crit > 9.0, "batches={batches}: {crit}");
        }
        // Above the studentization threshold z passes through untouched.
        assert_eq!(studentized_critical(9.0, 30), 9.0);
    }

    #[test]
    fn burn_in_scan_does_not_stop_at_a_lucky_in_band_batch() {
        // Regression: the first batch can land in-band by luck before
        // the chain drifts through an atypical region; the scan must
        // cover through the *last* out-of-band leading batch.
        let mut means = vec![1.0, 9.0, 9.0, 9.0, 1.01, 0.99];
        means.extend((0..6).map(|i| 1.0 + 0.01 * (i % 3) as f64));
        let report = BurnInReport::from_batch_means(means, 64);
        assert!(report.biased());
        assert_eq!(report.suggested_burn_in, 4 * 64, "covers through the last hot batch");
        assert!(report.first_batch_z.abs() < 3.0, "first batch itself was in-band");
    }

    #[test]
    fn burn_in_report_accepts_stationary_chain() {
        let means: Vec<f64> = (0..12).map(|i| 5.0 + 0.02 * (i % 4) as f64).collect();
        let report = BurnInReport::from_batch_means(means, 64);
        assert!(!report.biased());
        assert_eq!(report.suggested_burn_in, 0);
        assert!(report.first_batch_z.abs() < 3.0);
    }

    #[test]
    fn burn_in_report_constant_scores_read_as_unbiased() {
        // A degenerate zero-variance tail must not divide by zero.
        let report = BurnInReport::from_batch_means(vec![2.0; 8], 32);
        assert!(!report.biased());
        assert_eq!(report.first_batch_z, 0.0);
    }

    #[test]
    fn burn_in_suggestion_capped_at_half_the_pilot() {
        // Every batch "biased" relative to the tail is impossible by
        // construction (the tail defines the reference), but a first
        // half entirely outside the tail band caps at n/2 batches.
        let mut means = vec![100.0, 90.0, 80.0, 70.0];
        means.extend([1.0, 1.1, 0.9, 1.05]);
        let report = BurnInReport::from_batch_means(means, 16);
        assert_eq!(report.suggested_burn_in, 4 * 16);
    }

    #[test]
    #[should_panic(expected = "at least 4 pilot batches")]
    fn burn_in_report_needs_enough_batches() {
        let _ = BurnInReport::from_batch_means(vec![1.0, 2.0, 3.0], 16);
    }
}
