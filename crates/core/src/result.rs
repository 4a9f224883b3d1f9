//! Estimation results.

use crate::accuracy::{studentized_critical, AdaptiveReport, BatchStats};
use crate::config::EstimatorConfig;
use gx_graphlets::GraphletId;

/// The outcome of one estimator run.
#[derive(Debug, Clone)]
pub struct Estimate {
    /// The configuration that produced this estimate.
    pub config: EstimatorConfig,
    /// Number of windows scored (the paper's "random walk steps" budget).
    pub steps: usize,
    /// Windows that were valid samples (k distinct nodes).
    pub valid_samples: usize,
    /// Per-type accumulated scores `Σ_s h_i(X_s) / (α_i π̃_e(X_s))` (or
    /// `Σ_s h_i(X_s)/p̃(X_s)` under CSS). Divide by `steps` and multiply
    /// by `2|R(d)|` for unbiased counts (Eq. 4 / Eq. 7).
    pub raw_scores: Vec<f64>,
    /// Streaming batch-means statistics collected alongside the raw
    /// scores, powering the error-bar accessors below. `None` for
    /// estimates assembled without the accumulator (hand-built results);
    /// every estimator entry point populates it.
    pub accuracy: Option<BatchStats>,
    /// Per-type convergence report from an adaptive run
    /// ([`crate::Runner::until`]); `None` for fixed-budget runs.
    pub adaptive: Option<AdaptiveReport>,
}

impl Estimate {
    /// Concentration estimates ĉ^k_i (paper Eq. 5 / Eq. 8). Returns zeros
    /// when no valid sample was seen.
    pub fn concentrations(&self) -> Vec<f64> {
        let total: f64 = self.raw_scores.iter().sum();
        if total <= 0.0 {
            return vec![0.0; self.raw_scores.len()];
        }
        self.raw_scores.iter().map(|&x| x / total).collect()
    }

    /// Concentration of one type.
    pub fn concentration(&self, id: GraphletId) -> f64 {
        assert_eq!(id.k as usize, self.config.k);
        self.concentrations()[id.index as usize]
    }

    /// Count estimates Ĉ^k_i given `2|R(d)|` (paper Eq. 4): requires the
    /// relationship-graph edge count, see
    /// [`crate::counts::relationship_edge_count`]. A zero-step run has
    /// estimated nothing: all-zero counts (not `NaN` from the 0/0).
    pub fn counts(&self, two_r: f64) -> Vec<f64> {
        if self.steps == 0 {
            return vec![0.0; self.raw_scores.len()];
        }
        self.raw_scores.iter().map(|&x| x / self.steps as f64 * two_r).collect()
    }

    /// Fraction of windows that yielded a valid sample (the paper's
    /// "invalid samples" discussion in §4.2).
    pub fn valid_fraction(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.valid_samples as f64 / self.steps as f64
        }
    }

    /// The batch-means statistics behind the error-bar accessors, when
    /// collected.
    pub fn accuracy(&self) -> Option<&BatchStats> {
        self.accuracy.as_ref()
    }

    /// The adaptive-run convergence report, when this estimate came
    /// from an adaptive ([`crate::Runner::until`]) run.
    pub fn adaptive(&self) -> Option<&AdaptiveReport> {
        self.adaptive.as_ref()
    }

    /// The studentized critical value for this estimate's intervals:
    /// `z` while the batch count is comfortable, the matching Student-t
    /// quantile when it is small (see
    /// [`crate::accuracy::studentized_critical`]). Pass the result as
    /// the `z` argument of the interval accessors for honest
    /// small-sample coverage. `NaN` without accuracy data or under two
    /// batches.
    pub fn studentized_critical(&self, z: f64) -> f64 {
        self.accuracy().map_or(f64::NAN, |a| studentized_critical(z, a.batches()))
    }

    /// Standard error of the *per-step mean score* of type `i` — the
    /// native scale of the batch-means accumulator. Count standard
    /// errors are this times `2|R(d)|`. `NaN` without accuracy data or
    /// with fewer than two completed batches.
    pub fn std_error(&self, i: usize) -> f64 {
        self.accuracy().map_or(f64::NAN, |a| a.std_error(i))
    }

    /// Standard error of the count estimate of type `i` given `2|R(d)|`.
    pub fn count_std_error(&self, i: usize, two_r: f64) -> f64 {
        two_r * self.std_error(i)
    }

    /// Standard error of the per-step mean score of type `i` by the
    /// *overlapping*-batch-means estimator (default window) — the
    /// independent cross-check on [`Estimate::std_error`]. The two agree
    /// within estimator noise when the batch length exceeded the chain's
    /// mixing scale; a large discrepancy means both intervals are
    /// suspect. See [`BatchStats::obm_var_of_mean`]. `NaN` without
    /// accuracy data or with too few batches for the window.
    pub fn obm_std_error(&self, i: usize) -> f64 {
        self.accuracy().map_or(f64::NAN, |a| a.obm_std_error(i))
    }

    /// `z`-confidence interval for the count of type `i` (e.g. `z = 1.96`
    /// for 95%), centered on the point estimate of [`Estimate::counts`]
    /// (computed directly for type `i` — no per-type vector is built).
    /// The lower bound may be negative for noisy rare types; counts are
    /// non-negative, so callers may clamp. `(NaN, NaN)` without accuracy
    /// data.
    pub fn count_confidence_interval(&self, i: usize, two_r: f64, z: f64) -> (f64, f64) {
        let center =
            if self.steps == 0 { 0.0 } else { self.raw_scores[i] / self.steps as f64 * two_r };
        let half = z * self.count_std_error(i, two_r);
        (center - half, center + half)
    }

    /// Standard error of the concentration of type `i` (delta method on
    /// the batch means, see
    /// [`BatchStats::concentration_std_error`]).
    pub fn concentration_std_error(&self, i: usize) -> f64 {
        self.accuracy().map_or(f64::NAN, |a| a.concentration_std_error(i))
    }

    /// `z`-confidence interval for the concentration of type `i`,
    /// centered on the point estimate of [`Estimate::concentrations`]
    /// (computed directly for type `i` — no per-type vector is built).
    pub fn confidence_interval(&self, i: usize, z: f64) -> (f64, f64) {
        let total: f64 = self.raw_scores.iter().sum();
        let center = if total <= 0.0 { 0.0 } else { self.raw_scores[i] / total };
        let half = z * self.concentration_std_error(i);
        (center - half, center + half)
    }

    /// Relative half-width of the `z`-CI of type `i`'s mean score (and
    /// therefore of its count estimate — the `2|R(d)|` scale cancels).
    pub fn relative_half_width(&self, i: usize, z: f64) -> f64 {
        self.accuracy().map_or(f64::NAN, |a| a.relative_half_width(i, z))
    }

    /// Widest relative CI half-width over types with concentration at
    /// least `min_concentration` — the quantity adaptive stopping drives
    /// below its target (see
    /// [`BatchStats::max_relative_half_width`]).
    pub fn max_relative_half_width(&self, z: f64, min_concentration: f64) -> f64 {
        self.accuracy().map_or(f64::NAN, |a| a.max_relative_half_width(z, min_concentration))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(raw: Vec<f64>) -> Estimate {
        Estimate {
            config: EstimatorConfig { k: 3, d: 1, ..Default::default() },
            steps: 100,
            valid_samples: 80,
            raw_scores: raw,
            accuracy: None,
            adaptive: None,
        }
    }

    #[test]
    fn concentrations_normalize() {
        let e = mk(vec![1.0, 3.0]);
        assert_eq!(e.concentrations(), vec![0.25, 0.75]);
        assert!((e.concentration(GraphletId::new(3, 1)) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn zero_scores_give_zero_concentrations() {
        let e = mk(vec![0.0, 0.0]);
        assert_eq!(e.concentrations(), vec![0.0, 0.0]);
    }

    #[test]
    fn counts_scale_by_two_r_over_n() {
        let e = mk(vec![10.0, 40.0]);
        let c = e.counts(200.0);
        assert_eq!(c, vec![20.0, 80.0]);
    }

    #[test]
    fn zero_step_counts_are_zero_not_nan() {
        // Regression: `counts` divided by `steps` unguarded and returned
        // NaN for an empty run, unlike `valid_fraction`.
        let mut e = mk(vec![0.0, 0.0]);
        e.steps = 0;
        e.valid_samples = 0;
        let c = e.counts(200.0);
        assert_eq!(c, vec![0.0, 0.0]);
        assert!(c.iter().all(|x| !x.is_nan()));
        assert_eq!(e.valid_fraction(), 0.0);
    }

    #[test]
    fn valid_fraction() {
        assert!((mk(vec![]).valid_fraction() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn error_bar_accessors_are_nan_without_accuracy() {
        let e = mk(vec![1.0, 3.0]);
        assert!(e.std_error(0).is_nan());
        assert!(e.count_std_error(0, 10.0).is_nan());
        assert!(e.concentration_std_error(1).is_nan());
        assert!(e.relative_half_width(0, 1.96).is_nan());
        assert!(e.max_relative_half_width(1.96, 0.01).is_nan());
        let (lo, hi) = e.confidence_interval(0, 1.96);
        assert!(lo.is_nan() && hi.is_nan());
        let (lo, hi) = e.count_confidence_interval(0, 10.0, 1.96);
        assert!(lo.is_nan() && hi.is_nan());
    }

    #[test]
    fn count_ci_centers_on_point_estimate() {
        let mut e = mk(vec![10.0, 40.0]);
        // Hand-built batch stats: two batches with type-0 means 0.05 and
        // 0.15 -> mean 0.1, var of mean 0.0025, SE 0.05.
        let mut acc = crate::accuracy::ScoreAccumulator::new(2, 10);
        let mut raw = [0.0f64; 2];
        for step in 0..20 {
            // type 0 scores 0.05/step in batch 1, 0.15/step in batch 2.
            raw[0] += if step < 10 { 0.05 } else { 0.15 };
            raw[1] += 0.4;
            acc.tick(&raw);
        }
        e.accuracy = Some(acc.into_stats());
        assert!((e.std_error(0) - 0.05).abs() < 1e-12);
        assert!((e.count_std_error(0, 200.0) - 10.0).abs() < 1e-12);
        let (lo, hi) = e.count_confidence_interval(0, 200.0, 2.0);
        // point estimate: 10/100 * 200 = 20; half-width 2 * 10 = 20.
        assert!((lo - 0.0).abs() < 1e-9 && (hi - 40.0).abs() < 1e-9, "({lo}, {hi})");
        // relative half-width: 2 * 0.05 / 0.1 = 1.0
        assert!((e.relative_half_width(0, 2.0) - 1.0).abs() < 1e-9);
    }
}
