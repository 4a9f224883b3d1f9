//! Random-walk machinery for the `graphlet-rw` workspace.
//!
//! The framework of Chen et al. collects graphlet samples from consecutive
//! steps of a simple random walk on the subgraph relationship graph `G(d)`
//! (paper §3.1). This crate implements those walks *without materializing*
//! `G(d)` — neighbors are generated on the fly from the underlying graph
//! exactly as the paper's §5 prescribes:
//!
//! * [`SrwWalk`] — walk on `G(1) = G`: O(1) per step;
//! * [`G2Walk`] — walk on `G(2)` (edge space): O(1) per step via
//!   endpoint-weighted choice plus rejection;
//! * [`GdWalk`] — walk on `G(d ≥ 3)`: per-step neighbor-set enumeration,
//!   O(d² · deg);
//! * non-backtracking variants of all three (paper §4.2), which preserve
//!   the stationary distribution while avoiding immediate reversals;
//! * [`MhWalk`] — Metropolis–Hastings walk targeting an arbitrary node
//!   weight function (used by the adapted wedge sampling baseline,
//!   Algorithm 4).
//!
//! All walks implement [`StateWalk`], the small trait the estimator crate
//! is written against.

pub mod g2;
pub mod gd;
pub mod mh;
pub mod rng;
pub mod srw;
pub mod start;
pub mod traits;

pub use g2::{G2Choice, G2Walk};
pub use gd::{drop_row, gd_state_degree, gd_state_degree_with, GdDegreeScratch, GdWalk};
pub use mh::MhWalk;
pub use rng::{derive_seed, export_rng_state, import_rng_state, rng_from_seed, WalkRng};
pub use srw::SrwWalk;
pub use start::{random_start_edge, random_start_node, random_start_state};
pub use traits::{effective_degree, effective_degree_recip, StateWalk};
