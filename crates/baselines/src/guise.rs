//! GUISE (Bhuiyan et al. \[6\]): uniform Metropolis–Hastings sampling over
//! the union of all 3-, 4-, 5-node connected induced subgraphs,
//! estimating all three concentration vectors simultaneously.
//!
//! The state graph connects subgraphs differing by one node
//! (grow/shrink); a proposal from the uniform distribution over the
//! current state's neighborhood is accepted with
//! `min(1, |N(x)| / |N(y)|)`, which makes the stationary distribution
//! uniform over *all* states — so within each size class the visit
//! frequencies estimate concentrations directly.
//!
//! Deviations from the original: GUISE also proposes same-size swaps; the
//! grow/shrink moves alone already connect the state space and satisfy
//! detailed balance, so they suffice for correctness. The neighborhood
//! enumeration each step is exactly the cost (and the sample rejection the
//! paper's §1.1 criticizes) that motivated the framework's walks.

use gx_graph::{GraphAccess, NodeId};
use gx_graphlets::{classify_nodes, num_graphlets};
use gx_walks::gd::subset_is_connected;
use gx_walks::{random_start_state, rng_from_seed};
use rand::Rng;

/// Concentration estimates for k = 3, 4, 5 from one GUISE run.
#[derive(Debug, Clone)]
pub struct GuiseEstimate {
    /// Visit tallies per type, for k = 3, 4, 5.
    pub tallies: [Vec<u64>; 3],
    /// Steps taken.
    pub steps: usize,
    /// Proposals rejected (the method's known inefficiency).
    pub rejected: u64,
}

impl GuiseEstimate {
    /// Concentration vector for `k ∈ {3, 4, 5}`.
    pub fn concentrations(&self, k: usize) -> Vec<f64> {
        assert!((3..=5).contains(&k));
        let tally = &self.tallies[k - 3];
        let total: u64 = tally.iter().sum();
        if total == 0 {
            return vec![0.0; tally.len()];
        }
        tally.iter().map(|&c| c as f64 / total as f64).collect()
    }

    /// Fraction of proposals rejected.
    pub fn rejection_rate(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.rejected as f64 / self.steps as f64
        }
    }
}

/// All neighbor states of `state` in the GUISE state graph:
/// grow by one adjacent node (size < 5) or shrink by one node keeping
/// connectivity (size > 3).
fn neighbors<G: GraphAccess>(g: &G, state: &[NodeId]) -> Vec<Vec<NodeId>> {
    let mut out = Vec::new();
    let size = state.len();
    if size < 5 {
        let mut candidates: Vec<NodeId> = Vec::new();
        for &v in state {
            g.extend_neighbors(v, &mut candidates);
        }
        candidates.sort_unstable();
        candidates.dedup();
        for w in candidates {
            if !state.contains(&w) {
                let mut next = state.to_vec();
                next.push(w);
                next.sort_unstable();
                out.push(next);
            }
        }
    }
    if size > 3 {
        for drop in 0..size {
            let mut next: Vec<NodeId> =
                state.iter().enumerate().filter(|&(i, _)| i != drop).map(|(_, &v)| v).collect();
            if subset_is_connected(g, &next) {
                next.sort_unstable();
                out.push(next);
            }
        }
    }
    out
}

/// Runs GUISE for `steps` steps from a random 4-node start state.
pub fn guise_estimate<G: GraphAccess>(g: &G, steps: usize, seed: u64) -> GuiseEstimate {
    let mut rng = rng_from_seed(seed);
    let mut state = random_start_state(g, 4, &mut rng);
    let mut est = GuiseEstimate {
        tallies: [vec![0; num_graphlets(3)], vec![0; num_graphlets(4)], vec![0; num_graphlets(5)]],
        steps,
        rejected: 0,
    };
    let mut cur_neighbors = neighbors(g, &state);
    for _ in 0..steps {
        // tally the current state
        let k = state.len();
        let id = classify_nodes(g, &state).expect("GUISE states are connected");
        est.tallies[k - 3][id.index as usize] += 1;
        // propose uniform neighbor, accept with min(1, |N(x)|/|N(y)|)
        let proposal = &cur_neighbors[rng.gen_range(0..cur_neighbors.len())];
        let prop_neighbors = neighbors(g, proposal);
        let ratio = cur_neighbors.len() as f64 / prop_neighbors.len() as f64;
        if ratio >= 1.0 || rng.gen::<f64>() < ratio {
            state = proposal.clone();
            cur_neighbors = prop_neighbors;
        } else {
            est.rejected += 1;
        }
    }
    est
}

#[cfg(test)]
mod tests {
    use super::*;
    use gx_exact::exact_counts;
    use gx_graph::generators::classic;
    use gx_graph::Graph;

    #[test]
    fn neighbor_moves_are_symmetric() {
        let g = classic::lollipop(5, 3);
        let state = vec![0u32, 1, 2];
        for next in neighbors(&g, &state) {
            let back = neighbors(&g, &next);
            assert!(back.iter().any(|s| s == &state), "asymmetric move {state:?} -> {next:?}");
        }
    }

    #[test]
    fn states_stay_connected_and_sized() {
        use gx_walks::gd::subset_is_connected;
        let g = classic::petersen();
        let mut rng = gx_walks::rng_from_seed(3);
        let mut state = vec![0u32, 1, 2];
        for _ in 0..2000 {
            let ns = neighbors(&g, &state);
            state = ns[rand::Rng::gen_range(&mut rng, 0..ns.len())].clone();
            assert!((3..=5).contains(&state.len()));
            assert!(subset_is_connected(&g, &state));
        }
    }

    #[test]
    fn converges_to_exact_concentrations_all_k() {
        let g: Graph = classic::lollipop(6, 3);
        let est = guise_estimate(&g, 400_000, 7);
        for k in 3..=5 {
            let exact = exact_counts(&g, k).concentrations();
            let got = est.concentrations(k);
            for (i, (e, x)) in got.iter().zip(&exact).enumerate() {
                assert!((e - x).abs() < 0.03, "k={k} type {}: {e:.4} vs {x:.4}", i + 1);
            }
        }
    }

    #[test]
    fn rejection_rate_is_nonzero_on_irregular_graphs() {
        let g = classic::lollipop(5, 4);
        let est = guise_estimate(&g, 20_000, 5);
        assert!(est.rejection_rate() > 0.05, "rate {}", est.rejection_rate());
        assert!(est.rejection_rate() < 0.95);
    }

    #[test]
    fn empty_estimate_behaviour() {
        let g = classic::complete(6);
        let est = guise_estimate(&g, 0, 1);
        assert_eq!(est.concentrations(3), vec![0.0, 0.0]);
        assert_eq!(est.rejection_rate(), 0.0);
    }
}
