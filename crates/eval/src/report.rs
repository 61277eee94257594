//! Experiment result containers.
//!
//! The figure binaries (`fig5_recall`, `fig6_popularity`) collect one
//! [`Series`] per algorithm and print its rows themselves.

/// A named series of `(x, y)` points — one line of Figure 5 or Figure 6.
#[derive(Debug, Clone)]
pub struct Series {
    /// Algorithm / configuration label.
    pub label: String,
    /// X positions (e.g. N).
    pub x: Vec<f64>,
    /// Y values (e.g. Recall@N).
    pub y: Vec<f64>,
}
