//! Estimator configuration.

use crate::error::ConfigError;

/// Configuration of one estimator instance, following the paper's method
/// naming: `SRW{d}[CSS][NB]` for graphlet size k.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EstimatorConfig {
    /// Graphlet size to estimate (3..=6).
    pub k: usize,
    /// Walk on `G(d)`; `1 ≤ d ≤ k`. `d = k − 1` is PSRW; `d = k` is the
    /// plain subgraph random walk of \[36\] (l = 1).
    pub d: usize,
    /// Corresponding state sampling (§4.1). A no-op when `l ≤ 2` (the
    /// inclusion probabilities coincide, paper footnote 4).
    pub css: bool,
    /// Non-backtracking walk (§4.2).
    pub non_backtracking: bool,
    /// Walk steps discarded before sampling starts (the paper's burn-in
    /// discussion in §6.2.2). Zero by default: the estimator is
    /// asymptotically unbiased regardless.
    pub burn_in: usize,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        Self { k: 3, d: 1, css: false, non_backtracking: false, burn_in: 0 }
    }
}

impl EstimatorConfig {
    /// Upper bound accepted for [`EstimatorConfig::burn_in`]: beyond
    /// ~4 × 10⁹ discarded steps the configuration is a typo, not a
    /// burn-in (the estimator would walk for hours before its first
    /// sample — and `usize::MAX` would spin effectively forever).
    /// `u64` so the constant exists on 32-bit targets, where every
    /// representable `burn_in` is below it anyway.
    pub const MAX_BURN_IN: u64 = 1 << 32;

    /// Window length `l = k − d + 1`.
    ///
    /// Defined only for validated configurations (`1 ≤ d ≤ k`). Calling
    /// it with `d > k + 1` is a domain error: debug builds panic with
    /// the domain message (not the bare subtraction-overflow panic the
    /// unguarded `k − d + 1` produced), and release builds saturate to 0
    /// — an impossible window length every consumer rejects immediately
    /// — instead of silently wrapping to a huge length.
    pub fn l(&self) -> usize {
        debug_assert!(
            self.d >= 1 && self.d <= self.k,
            "d={} must be in 1..=k (k={}) — try_validate() the config before use",
            self.d,
            self.k
        );
        (self.k + 1).saturating_sub(self.d)
    }

    /// Checks the configuration against the supported domain, returning
    /// the offending dimension as a typed [`ConfigError`]. Every
    /// [`crate::runner::Runner`] path checks it before walking.
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        if !(3..=6).contains(&self.k) {
            return Err(ConfigError::UnsupportedK { k: self.k });
        }
        if self.d < 1 || self.d > self.k {
            return Err(ConfigError::DOutOfRange { k: self.k, d: self.d });
        }
        if self.burn_in as u64 > Self::MAX_BURN_IN {
            return Err(ConfigError::BurnInTooLarge { burn_in: self.burn_in as u64 });
        }
        Ok(())
    }

    /// The paper's method name, e.g. `SRW2CSS`, `SRW1CSSNB`.
    pub fn name(&self) -> String {
        let mut s = format!("SRW{}", self.d);
        if self.css {
            s.push_str("CSS");
        }
        if self.non_backtracking {
            s.push_str("NB");
        }
        s
    }

    /// The PSRW configuration for graphlet size `k` (d = k − 1), the
    /// state-of-the-art baseline the paper compares against.
    pub fn psrw(k: usize) -> Self {
        Self { k, d: k - 1, ..Default::default() }
    }

    /// The paper's recommended configuration per k (§6.2.1 findings):
    /// SRW1CSSNB for k = 3, SRW2CSS for k = 4, 5.
    pub fn recommended(k: usize) -> Self {
        if k == 3 {
            Self { k, d: 1, css: true, non_backtracking: true, burn_in: 0 }
        } else {
            Self { k, d: 2, css: true, non_backtracking: false, burn_in: 0 }
        }
    }

    /// This configuration with `burn_in` discarded steps — the natural
    /// receiver for [`crate::measure_burn_in`]'s `suggested_burn_in`:
    ///
    /// ```
    /// use gx_core::{measure_burn_in, EstimatorConfig};
    /// let g = gx_graph::generators::classic::petersen();
    /// let cfg = EstimatorConfig::recommended(3);
    /// let pilot = measure_burn_in(&g, &cfg, 7, 4_096, 256).expect("a valid pilot");
    /// let cfg = cfg.with_burn_in(pilot.suggested_burn_in);
    /// # assert_eq!(cfg.burn_in % 256, 0);
    /// ```
    pub fn with_burn_in(self, burn_in: usize) -> Self {
        Self { burn_in, ..self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_paper_convention() {
        let cfg = EstimatorConfig { k: 3, d: 1, css: true, non_backtracking: true, burn_in: 0 };
        assert_eq!(cfg.name(), "SRW1CSSNB");
        assert_eq!(EstimatorConfig::psrw(4).name(), "SRW3");
        assert_eq!(EstimatorConfig::psrw(5).name(), "SRW4");
        assert_eq!(EstimatorConfig::recommended(4).name(), "SRW2CSS");
        assert_eq!(EstimatorConfig::recommended(3).name(), "SRW1CSSNB");
    }

    #[test]
    fn window_length() {
        assert_eq!(EstimatorConfig { k: 4, d: 2, ..Default::default() }.l(), 3);
        assert_eq!(EstimatorConfig::psrw(5).l(), 2);
        assert_eq!(EstimatorConfig { k: 3, d: 3, ..Default::default() }.l(), 1);
    }

    // Regression: `l()` on an unvalidated config with d > k + 1 used to
    // wrap (`k - d + 1` on usize) in release builds and panic with the
    // bare overflow message in debug builds. Now debug builds panic
    // with the domain message, and release builds saturate to 0, which
    // no window consumer accepts.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "must be in 1..=k")]
    fn l_debug_panics_with_domain_message_on_unvalidated_d() {
        let _ = EstimatorConfig { k: 3, d: 6, ..Default::default() }.l();
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn l_saturates_instead_of_wrapping_in_release() {
        assert_eq!(EstimatorConfig { k: 3, d: 6, ..Default::default() }.l(), 0);
    }

    #[test]
    fn try_validate_returns_typed_errors() {
        use crate::error::ConfigError;
        assert_eq!(
            EstimatorConfig { k: 7, d: 1, ..Default::default() }.try_validate(),
            Err(ConfigError::UnsupportedK { k: 7 })
        );
        assert_eq!(
            EstimatorConfig { k: 2, d: 1, ..Default::default() }.try_validate(),
            Err(ConfigError::UnsupportedK { k: 2 })
        );
        assert_eq!(
            EstimatorConfig { k: 3, d: 4, ..Default::default() }.try_validate(),
            Err(ConfigError::DOutOfRange { k: 3, d: 4 })
        );
        assert_eq!(
            EstimatorConfig { k: 3, d: 0, ..Default::default() }.try_validate(),
            Err(ConfigError::DOutOfRange { k: 3, d: 0 })
        );
        #[cfg(target_pointer_width = "64")]
        {
            let burn_in = (EstimatorConfig::MAX_BURN_IN + 1) as usize;
            assert_eq!(
                EstimatorConfig { burn_in, ..Default::default() }.try_validate(),
                Err(ConfigError::BurnInTooLarge { burn_in: burn_in as u64 })
            );
        }
        assert_eq!(EstimatorConfig::recommended(4).try_validate(), Ok(()));
    }

    #[test]
    fn validate_accepts_large_but_sane_burn_in() {
        #[cfg(target_pointer_width = "64")]
        assert_eq!(
            EstimatorConfig {
                burn_in: EstimatorConfig::MAX_BURN_IN as usize,
                ..Default::default()
            }
            .try_validate(),
            Ok(())
        );
        assert_eq!(
            EstimatorConfig { burn_in: 1_000_000, ..Default::default() }.try_validate(),
            Ok(())
        );
    }
}
