//! Typed errors for the estimation front-end.
//!
//! Historically every entry point policed its domain with `assert!`, so a
//! bad configuration took the whole process down — acceptable in a
//! research harness, not in a serving layer. The [`crate::runner::Runner`]
//! paths, the `try_validate()` checks and [`crate::measure_burn_in`]
//! return these enums instead.

use std::fmt;

/// Why an [`crate::EstimatorConfig`] is outside the supported domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `k` outside `3..=6`.
    UnsupportedK {
        /// The rejected graphlet size.
        k: usize,
    },
    /// `d` outside `1..=k`.
    DOutOfRange {
        /// The configuration's graphlet size.
        k: usize,
        /// The rejected walk dimension.
        d: usize,
    },
    /// `burn_in` beyond [`crate::EstimatorConfig::MAX_BURN_IN`].
    BurnInTooLarge {
        /// The rejected burn-in step count.
        burn_in: u64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::UnsupportedK { k } => write!(f, "k={k} unsupported (3..=6)"),
            Self::DOutOfRange { k, d } => write!(f, "d={d} must be in 1..=k (k={k})"),
            Self::BurnInTooLarge { burn_in } => write!(
                f,
                "burn_in={burn_in} is pathological (max {}) — the walk would never reach sampling",
                crate::EstimatorConfig::MAX_BURN_IN
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Why a [`crate::StoppingRule`] could never fire (or never checks).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RuleError {
    /// `target_rel_ci ≤ 0` (or NaN): no width ever satisfies it.
    TargetNotPositive {
        /// The rejected target.
        target_rel_ci: f64,
    },
    /// `check_every == 0`: the run would never reach a convergence check.
    ZeroCheckEvery,
    /// `z ≤ 0` (or NaN): not a critical value.
    ZNotPositive {
        /// The rejected critical value.
        z: f64,
    },
    /// `batch_len == 0`: batch means need at least one step per batch.
    ZeroBatchLen,
    /// `min_batches < 2`: no variance estimate exists below two batches.
    MinBatchesTooSmall {
        /// The rejected minimum.
        min_batches: u64,
    },
    /// `min_concentration` outside `0..=1`.
    ConcentrationOutOfRange {
        /// The rejected floor.
        min_concentration: f64,
    },
    /// `max_series_batches` is nonzero but not an even count ≥ 4: the
    /// bounded-memory series collapses *pairs* of batch means, so the
    /// cap must be even, and below 4 no variance estimate would survive
    /// a collapse.
    BoundedMemoryCap {
        /// The rejected cap.
        max_series_batches: usize,
    },
}

impl fmt::Display for RuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::TargetNotPositive { target_rel_ci } => {
                write!(f, "target_rel_ci must be positive (got {target_rel_ci})")
            }
            Self::ZeroCheckEvery => write!(f, "check_every must be at least 1"),
            Self::ZNotPositive { z } => write!(f, "z must be positive (got {z})"),
            Self::ZeroBatchLen => write!(f, "batch_len must be at least 1"),
            Self::MinBatchesTooSmall { min_batches } => {
                write!(f, "min_batches must be at least 2 (got {min_batches})")
            }
            Self::ConcentrationOutOfRange { min_concentration } => {
                write!(
                    f,
                    "min_concentration must be a concentration in 0..=1 (got {min_concentration})"
                )
            }
            Self::BoundedMemoryCap { max_series_batches } => {
                write!(
                    f,
                    "max_series_batches must be an even count >= 4 (got {max_series_batches}) — \
                     the bounded-memory series collapses pairs of batch means"
                )
            }
        }
    }
}

impl std::error::Error for RuleError {}

/// Why a checkpoint was refused — at resume time, or at write time for
/// a snapshot resume would refuse.
///
/// Every variant is a *typed* rejection: a truncated, bit-flipped, or
/// mismatched snapshot must never panic or silently resume wrong. The
/// reader verifies the envelope (magic, version, length, checksum) before
/// trusting a single payload field, so a corrupted payload surfaces as
/// [`CheckpointError::Truncated`] / [`CheckpointError::ChecksumMismatch`]
/// rather than as garbage state. The writer refuses what the reader
/// would ([`CheckpointError::TooLarge`]), so a snapshot that was written
/// always resumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointError {
    /// The stream does not start with the checkpoint magic bytes.
    BadMagic,
    /// The format version is not one this build can decode.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// The stream ended before the declared payload was read.
    Truncated,
    /// The payload checksum does not match the header's.
    ChecksumMismatch,
    /// The snapshot was taken against a different graph (or the graph
    /// changed since): resuming would silently produce wrong estimates.
    GraphMismatch {
        /// Fingerprint recorded in the snapshot.
        expected: u64,
        /// Fingerprint of the graph offered for resume.
        found: u64,
    },
    /// A checksum-valid payload decoded to an out-of-domain value — a
    /// format/version confusion, not bit rot.
    Malformed {
        /// Which field or invariant failed.
        what: &'static str,
    },
    /// The writer refused a payload over the 64 MiB ceiling the reader
    /// enforces, before writing a byte; the run is unperturbed. Only
    /// the batch-means series of a long single-walker adaptive run grows
    /// this large — [`crate::StoppingRule::bounded_memory`] caps it.
    TooLarge {
        /// The refused payload's length in bytes.
        len: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::BadMagic => write!(f, "not a checkpoint: bad magic bytes"),
            Self::UnsupportedVersion { found } => {
                write!(f, "unsupported checkpoint version {found}")
            }
            Self::Truncated => write!(f, "checkpoint truncated before the declared payload end"),
            Self::ChecksumMismatch => write!(f, "checkpoint payload checksum mismatch"),
            Self::GraphMismatch { expected, found } => write!(
                f,
                "checkpoint was taken against a different graph \
                 (fingerprint {expected:#018x}, offered graph {found:#018x})"
            ),
            Self::Malformed { what } => write!(f, "malformed checkpoint payload: {what}"),
            Self::TooLarge { len } => write!(
                f,
                "checkpoint payload of {len} bytes exceeds the 64 MiB ceiling \
                 (bound the batch-means series with StoppingRule::bounded_memory)"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Why the estimation *service* terminated (or refused) a job.
///
/// These are the typed terminal outcomes of the multi-job serving layer
/// (`gx-service`): every job submitted to a service ends in exactly one
/// of `Ok(Estimate)` or one of these — never a hang, never an untyped
/// panic escaping the worker pool. The variants that end a job in
/// flight ([`ServiceError::DeadlineExceeded`],
/// [`ServiceError::Cancelled`], [`ServiceError::Checkpoint`]) travel
/// with a best-effort partial estimate at the service layer; the error
/// itself stays `Copy` so [`GxError`] remains cheap to pass around and
/// compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceError {
    /// Admission control shed the job: the service's bounded queue was
    /// full at submit time. Queuing it anyway would trade an honest
    /// rejection now for unbounded latency later.
    Rejected {
        /// The service's estimate of when capacity frees up — resubmit
        /// after roughly this long. A hint, not a reservation.
        retry_after_hint: std::time::Duration,
    },
    /// The job's deadline passed before its budget (or stopping rule)
    /// completed. The partial estimate accumulated so far is attached
    /// at the service layer.
    DeadlineExceeded,
    /// The submitter cancelled the job. Cooperative: the worker observes
    /// the flag between scheduler rounds, so cancellation is prompt but
    /// never tears a round. The partial estimate is attached at the
    /// service layer.
    Cancelled,
    /// The service shut down before the job completed. Waiters are
    /// released with this instead of hanging on a dead pool.
    Shutdown,
    /// The job's end-of-lease snapshot was refused — in practice
    /// [`CheckpointError::TooLarge`]. A descheduled job *is* its
    /// snapshot, so the job ends here, once; the live run's estimate is
    /// attached as the partial at the service layer.
    Checkpoint(CheckpointError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::Rejected { retry_after_hint } => write!(
                f,
                "job rejected: admission queue full (retry after ~{} ms)",
                retry_after_hint.as_millis()
            ),
            Self::DeadlineExceeded => {
                write!(f, "job deadline exceeded before the estimate completed")
            }
            Self::Cancelled => write!(f, "job cancelled by its submitter"),
            Self::Shutdown => write!(f, "service shut down before the job completed"),
            Self::Checkpoint(e) => write!(f, "job snapshot refused: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

/// Everything a [`crate::runner::Runner`] run can reject up front.
///
/// Runner paths are panic-free on bad input: every invalid configuration,
/// stopping rule, fan-out, or walk pairing comes back as one of these.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GxError {
    /// The estimator configuration is out of domain.
    Config(ConfigError),
    /// The stopping rule is out of domain.
    Rule(RuleError),
    /// A fan-out of zero walkers was requested.
    NoWalkers,
    /// [`crate::runner::Runner::run`] was called before a budget was
    /// chosen with `.steps(n)` or `.until(rule)`.
    NoBudget,
    /// A batch width of zero walkers was requested — every engine
    /// group needs at least one lane.
    ZeroBatchWidth,
    /// A caller-supplied walk's dimension does not match the
    /// configuration's `d`.
    WalkDimensionMismatch {
        /// The supplied walk's `d`.
        walk_d: usize,
        /// The configuration's `d`.
        cfg_d: usize,
    },
    /// A caller-supplied walk is a single chain: it cannot be fanned out
    /// over more than one walker.
    ParallelCustomWalk {
        /// The requested fan-out.
        walkers: usize,
    },
    /// A bounded-memory stopping rule (`max_series_batches > 0`) was
    /// combined with a multi-walker fan-out. Pooled batch means require
    /// equal batch lengths across walkers, and independent pair-collapses
    /// would desynchronize them — run bounded-memory rules with one
    /// walker.
    BoundedMemoryParallel {
        /// The requested fan-out.
        walkers: usize,
    },
    /// A checkpoint payload was refused (truncated, corrupted, wrong
    /// version, or taken against a different graph).
    Checkpoint(CheckpointError),
    /// An on-disk graph snapshot (GXSN/GXSC) was refused — corrupted
    /// header, truncated file, malformed index, or unreadable path.
    Snapshot(gx_graph::SnapshotError),
    /// The estimation service refused or terminated the job (shed load,
    /// deadline passed, cancelled, shut down, or snapshot refused).
    Service(ServiceError),
    /// A burn-in pilot ([`crate::measure_burn_in`]) too short for four
    /// complete batches: the diagnosis compares the leading half of the
    /// batch means against a trailing half of at least two.
    PilotTooShort {
        /// Complete batches the pilot budget covers.
        batches: usize,
    },
    /// An I/O error while writing or reading a checkpoint. Only the
    /// [`std::io::ErrorKind`] is kept so the error stays `Copy` and
    /// comparable; the OS-level message is reported at the call site.
    Io(std::io::ErrorKind),
}

impl fmt::Display for GxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::Config(e) => write!(f, "invalid estimator configuration: {e}"),
            Self::Rule(e) => write!(f, "invalid stopping rule: {e}"),
            Self::NoWalkers => write!(f, "estimation needs at least one walker"),
            Self::NoBudget => {
                write!(f, "runner has no budget: call .steps(n) or .until(rule) before running")
            }
            Self::ZeroBatchWidth => {
                write!(f, "batch width must be at least 1 (1 runs each walker as its own group)")
            }
            Self::WalkDimensionMismatch { walk_d, cfg_d } => write!(
                f,
                "walk dimension must match configuration (walk d={walk_d}, config d={cfg_d})"
            ),
            Self::ParallelCustomWalk { walkers } => write!(
                f,
                "a caller-supplied walk is one chain; it cannot fan out over {walkers} walkers"
            ),
            Self::BoundedMemoryParallel { walkers } => write!(
                f,
                "bounded-memory stopping rule requires a single walker \
                 (requested {walkers}): pair-collapses would desynchronize pooled batch lengths"
            ),
            Self::PilotTooShort { batches } => {
                write!(f, "burn-in pilot needs at least 4 complete batches, got {batches}")
            }
            Self::Checkpoint(e) => write!(f, "checkpoint refused: {e}"),
            Self::Snapshot(e) => write!(f, "graph snapshot refused: {e}"),
            Self::Service(e) => write!(f, "estimation service: {e}"),
            Self::Io(kind) => write!(f, "checkpoint I/O error: {kind}"),
        }
    }
}

impl std::error::Error for GxError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Config(e) => Some(e),
            Self::Rule(e) => Some(e),
            Self::Checkpoint(e) => Some(e),
            Self::Snapshot(e) => Some(e),
            Self::Service(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for GxError {
    fn from(e: ConfigError) -> Self {
        Self::Config(e)
    }
}

impl From<RuleError> for GxError {
    fn from(e: RuleError) -> Self {
        Self::Rule(e)
    }
}

impl From<CheckpointError> for GxError {
    fn from(e: CheckpointError) -> Self {
        Self::Checkpoint(e)
    }
}

impl From<ServiceError> for GxError {
    fn from(e: ServiceError) -> Self {
        Self::Service(e)
    }
}

impl From<gx_graph::SnapshotError> for GxError {
    fn from(e: gx_graph::SnapshotError) -> Self {
        Self::Snapshot(e)
    }
}

impl From<std::io::Error> for GxError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e.kind())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_keep_the_legacy_panic_substrings() {
        // The messages keep the wording of the panics these errors
        // replaced, so callers matching on the old text still match.
        assert!(ConfigError::UnsupportedK { k: 7 }.to_string().contains("unsupported"));
        assert!(ConfigError::DOutOfRange { k: 3, d: 4 }.to_string().contains("must be in 1..=k"));
        assert!(ConfigError::BurnInTooLarge { burn_in: 1 << 33 }
            .to_string()
            .contains("pathological"));
        assert!(RuleError::TargetNotPositive { target_rel_ci: 0.0 }
            .to_string()
            .contains("target_rel_ci"));
        assert!(RuleError::ZeroCheckEvery.to_string().contains("check_every"));
        assert!(RuleError::ConcentrationOutOfRange { min_concentration: 2.0 }
            .to_string()
            .contains("min_concentration must be a concentration"));
        assert!(GxError::NoWalkers.to_string().contains("at least one walker"));
        assert!(GxError::WalkDimensionMismatch { walk_d: 1, cfg_d: 2 }
            .to_string()
            .contains("walk dimension"));
        assert!(GxError::PilotTooShort { batches: 2 }
            .to_string()
            .contains("at least 4 complete batches"));
    }

    #[test]
    fn error_trait_chains_sources() {
        use std::error::Error;
        let e = GxError::from(ConfigError::UnsupportedK { k: 9 });
        assert!(e.source().is_some());
        assert_eq!(e.source().unwrap().to_string(), "k=9 unsupported (3..=6)");
        let e = GxError::from(RuleError::ZeroBatchLen);
        assert!(e.source().unwrap().to_string().contains("batch_len"));
        assert!(GxError::NoBudget.source().is_none());
        let e = GxError::from(CheckpointError::ChecksumMismatch);
        assert!(e.source().unwrap().to_string().contains("checksum"));
    }

    #[test]
    fn service_errors_display_every_variant() {
        use std::time::Duration;
        // Exhaustive: one substring assertion per variant, so a renamed
        // or reworded terminal outcome fails here before it confuses a
        // service client matching on messages.
        let rejected = ServiceError::Rejected { retry_after_hint: Duration::from_millis(250) };
        assert!(rejected.to_string().contains("admission queue full"));
        assert!(rejected.to_string().contains("250 ms"));
        assert!(ServiceError::DeadlineExceeded.to_string().contains("deadline exceeded"));
        assert!(ServiceError::Cancelled.to_string().contains("cancelled by its submitter"));
        assert!(ServiceError::Shutdown.to_string().contains("shut down before"));
        let refused = ServiceError::Checkpoint(CheckpointError::TooLarge { len: 70_000_000 });
        assert!(refused.to_string().contains("snapshot refused"));
        assert!(refused.to_string().contains("70000000 bytes"));
    }

    #[test]
    fn service_errors_wire_into_gx_error() {
        use std::error::Error;
        // From + Display prefix + source chaining, matching the
        // ConfigError/RuleError/CheckpointError pattern exactly.
        let e = GxError::from(ServiceError::Cancelled);
        assert_eq!(e, GxError::Service(ServiceError::Cancelled));
        assert!(e.to_string().contains("estimation service:"));
        assert!(e.source().unwrap().to_string().contains("cancelled"));
        let hint = std::time::Duration::from_millis(5);
        let e = GxError::from(ServiceError::Rejected { retry_after_hint: hint });
        assert!(e.to_string().contains("retry after"));
        assert_eq!(
            e.source().unwrap().to_string(),
            ServiceError::Rejected { retry_after_hint: hint }.to_string()
        );
    }

    #[test]
    fn snapshot_errors_wire_into_gx_error() {
        use gx_graph::SnapshotError;
        use std::error::Error;
        // From + Display prefix + source chaining, matching the
        // CheckpointError pattern exactly.
        let e = GxError::from(SnapshotError::HeaderChecksumMismatch);
        assert_eq!(e, GxError::Snapshot(SnapshotError::HeaderChecksumMismatch));
        assert!(e.to_string().contains("graph snapshot refused:"));
        assert!(e.source().unwrap().to_string().contains("checksum"));
        let e = GxError::from(SnapshotError::Truncated { expected: 64, found: 7 });
        assert!(e.to_string().contains("need 64 bytes, found 7"));
        let e = GxError::from(SnapshotError::Io(std::io::ErrorKind::NotFound));
        assert_eq!(e, GxError::Snapshot(SnapshotError::Io(std::io::ErrorKind::NotFound)));
    }

    #[test]
    fn checkpoint_errors_are_typed_and_comparable() {
        assert_eq!(
            GxError::from(CheckpointError::BadMagic),
            GxError::Checkpoint(CheckpointError::BadMagic)
        );
        assert!(CheckpointError::UnsupportedVersion { found: 9 }.to_string().contains("version 9"));
        assert!(CheckpointError::GraphMismatch { expected: 1, found: 2 }
            .to_string()
            .contains("different graph"));
        assert!(CheckpointError::Malformed { what: "window.count" }
            .to_string()
            .contains("window.count"));
        assert!(CheckpointError::TooLarge { len: 1 << 27 }.to_string().contains("64 MiB"));
        let io = GxError::from(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert_eq!(io, GxError::Io(std::io::ErrorKind::NotFound));
        assert!(GxError::BoundedMemoryParallel { walkers: 4 }
            .to_string()
            .contains("single walker"));
        assert!(RuleError::BoundedMemoryCap { max_series_batches: 3 }
            .to_string()
            .contains("max_series_batches"));
    }
}
