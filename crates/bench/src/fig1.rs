//! Paper Fig. 1: memory cost of storing Jacobians as circuit size grows.
//!
//! Sweeps a circuit family over sizes and reports, per size, the raw CSR
//! cost, the shared-indices cost (values + one index set), and the
//! MASC-compressed cost — the three storage regimes the paper's motivation
//! section contrasts.

use crate::render_table;
use masc_adjoint::{CompressedStore, JacobianStore};
use masc_compress::MascConfig;
use masc_datasets::registry::{DatasetSpec, Family};

/// One point of the Fig. 1 sweep.
#[derive(Debug, Clone)]
pub struct Point {
    /// Element count of this size step.
    pub elements: usize,
    /// Unknown count.
    pub unknowns: usize,
    /// Steps stored.
    pub steps: usize,
    /// Raw CSR bytes (per-step indices + values, both tensors).
    pub raw_csr: usize,
    /// Shared-indices bytes (one index set + raw values).
    pub shared_indices: usize,
    /// MASC-compressed bytes (plus the one shared index set).
    pub compressed: usize,
}

/// Runs the sweep over `sizes` (in family size units).
pub fn run(sizes: &[usize], steps: usize) -> Vec<Point> {
    let mut out = Vec::new();
    for &size in sizes {
        let spec = DatasetSpec {
            name: "fig1",
            family: Family::MosChain,
            size,
            steps,
        };
        let dataset = spec.generate(1.0).expect("sweep sizes generate");
        // Drive the adjoint crate's compressed store through the
        // JacobianStore trait; sealing reports the compressed payload.
        let mut store: Box<dyn JacobianStore> = Box::new(CompressedStore::new(
            dataset.g_pattern.clone(),
            dataset.c_pattern.clone(),
            MascConfig::default(),
        ));
        for (step, (g, c)) in dataset.g_series.iter().zip(&dataset.c_series).enumerate() {
            store
                .put(step, g, c)
                .expect("in-memory compression is infallible");
        }
        let (_, compressed_values) = store
            .finish()
            .expect("sealing an in-memory store is infallible");
        let index_bytes = dataset.g_pattern.index_bytes() + dataset.c_pattern.index_bytes();
        out.push(Point {
            elements: dataset.elements,
            unknowns: dataset.g_pattern.rows(),
            steps: dataset.steps(),
            raw_csr: dataset.s_csr_bytes(),
            shared_indices: dataset.s_nz_bytes() + index_bytes,
            compressed: compressed_values as usize + index_bytes,
        });
    }
    out
}

/// Renders the sweep as a table (one row per size).
pub fn render(points: &[Point]) -> String {
    let data: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.elements.to_string(),
                p.unknowns.to_string(),
                p.steps.to_string(),
                format!("{:.2}", p.raw_csr as f64 / 1e6),
                format!("{:.2}", p.shared_indices as f64 / 1e6),
                format!("{:.3}", p.compressed as f64 / 1e6),
                format!("{:.1}x", p.raw_csr as f64 / p.compressed as f64),
            ]
        })
        .collect();
    render_table(
        &[
            "#Elem",
            "#Unk",
            "#Steps",
            "CSR(MB)",
            "Shared(MB)",
            "MASC(MB)",
            "Reduction",
        ],
        &data,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_grows_with_size_and_compression_wins() {
        let points = run(&[10, 30], 40);
        assert_eq!(points.len(), 2);
        assert!(points[1].raw_csr > points[0].raw_csr);
        for p in &points {
            assert!(p.shared_indices < p.raw_csr);
            assert!(p.compressed < p.shared_indices);
        }
        let text = render(&points);
        assert!(text.contains("Reduction"));
    }
}
