//! The walk abstraction the estimator is written against.

use crate::rng::WalkRng;
use gx_graph::NodeId;

/// A random walk over the states of `G(d)` for some fixed `d`.
///
/// A state is a connected induced d-node subgraph of the underlying graph,
/// exposed as its (sorted) node set. The estimator needs three things per
/// step: the new state's nodes, the state's degree in `G(d)` (for the
/// stationary re-weighting of Theorem 2), and whether the walk is
/// non-backtracking (which substitutes nominal degrees `d' = max(d − 1, 1)`
/// in the re-weighting, paper §4.2).
///
/// A step splits into a *choose* half (draw the next state, consuming
/// RNG) and a *commit* half (apply it), so the next state's memory
/// addresses are known before they are touched. The estimator engine
/// advances every chain through this pair: a group of B walkers runs in
/// lock step, and walker *i*'s `choose` result is prefetched
/// ([`StateWalk::prefetch_next`]) while walkers *i+1..B* — and walker
/// *i*'s own window/classify/CSS scoring — execute, hiding the
/// data-dependent CSR misses a single in-flight walker cannot. A
/// one-walker group runs `choose` → `commit` back to back without hints.
///
/// [`StateWalk::step`] is `commit(choose(rng))` by definition. The
/// prefetch methods are pure cache hints: they must not change
/// observable state, and the default no-ops are always legal.
pub trait StateWalk {
    /// An uncommitted step decision — everything `commit` needs to apply
    /// the transition without drawing more randomness.
    type Choice: Copy;

    /// Subgraph size d of the relationship graph being walked.
    fn d(&self) -> usize;

    /// Node set of the current state, sorted ascending.
    fn state(&self) -> &[NodeId];

    /// Degree of the current state in `G(d)`. Takes `&mut self` so walks
    /// that must enumerate the neighbor set (d ≥ 3) can cache it for the
    /// following [`StateWalk::choose`].
    fn state_degree(&mut self) -> usize;

    /// Whether steps avoid returning to the previous state.
    fn is_non_backtracking(&self) -> bool;

    /// Draws the next state without applying it. The walk's observable
    /// state is unchanged.
    ///
    /// Takes the concrete workspace RNG rather than `&mut dyn RngCore`:
    /// this is the hottest call in the estimator loop, and the concrete
    /// type lets every walk's sampling inline without virtual dispatch.
    fn choose(&mut self, rng: &mut WalkRng) -> Self::Choice;

    /// Applies a decision from [`StateWalk::choose`].
    fn commit(&mut self, choice: Self::Choice);

    /// Advances one step: `commit(choose(rng))`.
    #[inline]
    fn step(&mut self, rng: &mut WalkRng) {
        let c = self.choose(rng);
        self.commit(c);
    }

    /// Hints the graph to prefetch what `commit(choice)` will load (the
    /// incoming state's CSR offset entries). Call between `choose` and
    /// `commit`, ideally with unrelated work in between.
    #[inline]
    fn prefetch_next(&self, _choice: &Self::Choice) {}

    /// Hints the graph to prefetch the adjacency lines the *post-commit*
    /// window push will binary-search (the entering nodes' neighbor
    /// slices). Call right after `commit(choice)`, with the same choice.
    #[inline]
    fn prefetch_entering(&self, _choice: &Self::Choice) {}
}

/// The effective degree used in stationary-distribution formulas: the true
/// state degree for a simple walk, the nominal degree `max(deg − 1, 1)` for
/// a non-backtracking walk (paper §4.2).
#[inline]
pub fn effective_degree(degree: usize, non_backtracking: bool) -> usize {
    if non_backtracking {
        degree.saturating_sub(1).max(1)
    } else {
        degree
    }
}

/// `1 / effective_degree` as `f64` — the per-subset quantity of the CSS
/// hot loop (each covering sequence multiplies these reciprocals over its
/// interior states). Kept next to [`effective_degree`] so the simple-walk
/// vs non-backtracking substitution has a single source of truth.
#[inline]
pub fn effective_degree_recip(degree: usize, non_backtracking: bool) -> f64 {
    1.0 / (effective_degree(degree, non_backtracking) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_degree_nominal_rules() {
        assert_eq!(effective_degree(5, false), 5);
        assert_eq!(effective_degree(5, true), 4);
        assert_eq!(effective_degree(1, true), 1);
        assert_eq!(effective_degree(0, true), 1);
        assert_eq!(effective_degree(0, false), 0);
    }

    /// The prefetch hints are unobservable: a walk driven with both
    /// hints interleaved around every `choose`/`commit` — the lock-step
    /// engine's schedule — visits the same states, reports the same
    /// cached degrees, and leaves the RNG at the same position as one
    /// driven by bare `step`s. The engine's golden-bit guarantee across
    /// group widths rests on this.
    #[test]
    fn prefetch_hints_are_unobservable() {
        use crate::rng::{export_rng_state, rng_from_seed};
        use crate::{G2Walk, GdWalk, SrwWalk};
        use gx_graph::generators::classic;

        fn check<W: StateWalk>(mut bare: W, mut hinted: W, seed: u64, steps: usize) {
            let mut ra = rng_from_seed(seed);
            let mut rb = rng_from_seed(seed);
            for _ in 0..steps {
                bare.step(&mut ra);
                let c = hinted.choose(&mut rb);
                hinted.prefetch_next(&c);
                hinted.prefetch_entering(&c);
                hinted.commit(c);
                hinted.prefetch_next(&c);
                hinted.prefetch_entering(&c);
                assert_eq!(bare.state(), hinted.state());
                assert_eq!(bare.state_degree(), hinted.state_degree());
                assert_eq!(export_rng_state(&ra), export_rng_state(&rb));
            }
        }

        // Lollipop: degree range 1..=5, leaves force NB backtracks.
        let g = classic::lollipop(6, 5);
        for nb in [false, true] {
            check(SrwWalk::new(&g, 0, nb), SrwWalk::new(&g, 0, nb), 99, 5_000);
            check(G2Walk::new(&g, 0, 1, nb), G2Walk::new(&g, 0, 1, nb), 17, 5_000);
            let start = [0, 1, 2];
            check(GdWalk::new(&g, &start, nb), GdWalk::new(&g, &start, nb), 4, 400);
        }
        // Pendant-edge forced backtrack for G(2): P3's edge states have
        // G(2)-degree 1, exercising the cached-degree reuse in `choose`.
        let p = classic::path(3);
        check(G2Walk::new(&p, 0, 1, true), G2Walk::new(&p, 0, 1, true), 2, 64);
    }

    #[test]
    fn recip_matches_effective_degree_bitwise() {
        for deg in 0..64usize {
            for nb in [false, true] {
                let want = 1.0 / (effective_degree(deg, nb) as f64);
                assert_eq!(effective_degree_recip(deg, nb).to_bits(), want.to_bits());
            }
        }
    }
}
