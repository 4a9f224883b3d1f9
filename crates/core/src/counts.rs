//! Reconstructing absolute counts (paper Eq. 4 and §3.3 Remarks).
//!
//! Concentrations need no global knowledge, but counts need `2|R(d)|`,
//! the (doubled) edge count of the relationship graph:
//! * `|R(1)| = |E|`;
//! * `|R(2)| = ½ Σ_{(u,v)∈E} (d_u + d_v − 2)` — "a single pass of graph
//!   data is enough" (§3.3);
//! * `|R(d ≥ 3)|` has no closed form; we materialize `G(d)` (only viable
//!   for small graphs, which is exactly the paper's position: counts for
//!   restricted-access graphs are estimated with d ≤ 2).

use gx_graph::stats::g2_edge_count;
use gx_graph::subrel::subgraph_relationship_graph;
use gx_graph::Graph;

/// `|R(d)|` — the number of edges of `G(d)`.
pub fn relationship_edge_count(g: &Graph, d: usize) -> u64 {
    match d {
        1 => g.num_edges() as u64,
        2 => g2_edge_count(g),
        _ => subgraph_relationship_graph(g, d).graph.num_edges() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EstimatorConfig, Runner};
    use gx_exact::exact_counts;
    use gx_graph::generators::classic;

    #[test]
    fn r_d_on_figure1() {
        let g = classic::paper_figure1();
        assert_eq!(relationship_edge_count(&g, 1), 5);
        assert_eq!(relationship_edge_count(&g, 2), 8);
        assert_eq!(relationship_edge_count(&g, 3), 6);
    }

    #[test]
    fn count_estimates_converge_srw1() {
        let g = classic::lollipop(5, 4);
        let cfg = EstimatorConfig { k: 3, d: 1, ..Default::default() };
        let est = Runner::new(cfg.clone()).steps(150_000).seed(3).run(&g).unwrap();
        let two_r = 2.0 * relationship_edge_count(&g, 1) as f64;
        let counts = est.counts(two_r);
        let exact = exact_counts(&g, 3);
        for (i, (c, x)) in counts.iter().zip(&exact.counts).enumerate() {
            let rel = (c - *x as f64).abs() / *x as f64;
            assert!(rel < 0.08, "type {i}: estimated {c:.2}, exact {x} (rel {rel:.3})");
        }
    }

    #[test]
    fn count_estimates_converge_srw2_css() {
        let g = classic::lollipop(6, 4);
        let cfg = EstimatorConfig { k: 4, d: 2, css: true, ..Default::default() };
        let est = Runner::new(cfg.clone()).steps(150_000).seed(7).run(&g).unwrap();
        let two_r = 2.0 * relationship_edge_count(&g, 2) as f64;
        let counts = est.counts(two_r);
        let exact = exact_counts(&g, 4);
        for (i, (c, x)) in counts.iter().zip(&exact.counts).enumerate() {
            if *x == 0 {
                assert_eq!(*c, 0.0, "type {i} does not occur");
                continue;
            }
            let rel = (c - *x as f64).abs() / *x as f64;
            assert!(rel < 0.1, "type {i}: estimated {c:.2}, exact {x} (rel {rel:.3})");
        }
    }
}
