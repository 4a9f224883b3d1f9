//! The expanded chain's stationary distribution π_e (Theorem 2), up to the
//! common factor 2|R(d)| that cancels in concentration estimates.

use crate::window::NodeWindow;
use gx_walks::effective_degree;

/// `π̃_e(X^{(l)}) = 2|R(d)| · π_e(X^{(l)})`, computed from the window's
/// remembered state degrees (Theorem 2):
///
/// * l = 1: `d_{X_1}`;
/// * l = 2: `1`;
/// * l > 2: `Π_{i=2}^{l−1} 1 / d_{X_i}` (interior states only).
///
/// With `non_backtracking`, degrees are replaced by nominal degrees
/// `d' = max(d − 1, 1)` (§4.2) — the NB chain's π'_e has the same shape.
///
/// The engine only scores primed (full, non-empty) windows; an empty
/// window is a debug-build assertion and reads as `1.0` in release.
pub fn pie_tilde(window: &NodeWindow, non_backtracking: bool) -> f64 {
    match window.len() {
        0 => {
            debug_assert!(false, "π_e of an empty window");
            1.0
        }
        1 => {
            // The window's one state, summed so no lookup can fail.
            let deg: usize = window.states().map(|s| s.degree as usize).sum();
            effective_degree(deg, non_backtracking) as f64
        }
        2 => 1.0,
        _ => window
            .interior_degrees()
            .map(|d| 1.0 / effective_degree(d as usize, non_backtracking) as f64)
            .product(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gx_graph::generators::classic;

    #[test]
    fn paper_worked_example_g2_l3() {
        // §3.2 example: walk on G(2) of the Figure-1 graph visiting
        // X₁=(1,2), X₂=(1,3), X₃=(3,4); |R(2)| = 8, deg(X₂) = 4:
        // π_e = (1/16)·(1/4) = 1/64, so π̃_e = 2·8·(1/64) = 1/4.
        let g = classic::paper_figure1();
        let mut w = NodeWindow::new(3, 2);
        w.push(&g, &[0, 1], 3);
        w.push(&g, &[0, 2], 4);
        w.push(&g, &[2, 3], 3);
        assert!((pie_tilde(&w, false) - 0.25).abs() < 1e-12);
        // NB: nominal degree 3 → 1/3.
        assert!((pie_tilde(&w, true) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn l2_is_uniform() {
        let g = classic::paper_figure1();
        let mut w = NodeWindow::new(2, 2);
        w.push(&g, &[0, 1], 3);
        w.push(&g, &[1, 2], 3);
        assert_eq!(pie_tilde(&w, false), 1.0);
        assert_eq!(pie_tilde(&w, true), 1.0);
    }

    #[test]
    fn l1_is_state_degree() {
        let g = classic::paper_figure1();
        let mut w = NodeWindow::new(1, 3);
        w.push(&g, &[0, 1, 2], 5);
        assert_eq!(pie_tilde(&w, false), 5.0);
        assert_eq!(pie_tilde(&w, true), 4.0);
    }

    #[test]
    fn l4_multiplies_both_interiors() {
        let g = classic::paper_figure1();
        let mut w = NodeWindow::new(4, 1);
        w.push(&g, &[1], 2);
        w.push(&g, &[0], 3);
        w.push(&g, &[2], 3);
        w.push(&g, &[3], 2);
        // interiors: nodes 0 and 2, degrees 3 and 3.
        assert!((pie_tilde(&w, false) - 1.0 / 9.0).abs() < 1e-12);
        assert!((pie_tilde(&w, true) - 0.25).abs() < 1e-12);
    }

    /// An empty window is a debug-build assertion; release builds compile
    /// it out and read the documented `1.0`.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "empty window"))]
    fn empty_window_panics() {
        let w = NodeWindow::new(3, 1);
        assert_eq!(pie_tilde(&w, false), 1.0);
    }
}
