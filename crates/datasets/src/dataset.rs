//! Dataset extraction: run a generated circuit's transient and capture the
//! Jacobian tensors (the paper Table 2 artifacts).

use masc_adjoint::{ForwardRecord, StepMatrices, StoreConfig, TensorLayout};
use masc_circuit::transient::{transient_into, TranError, TranOptions};
use masc_circuit::Circuit;
use masc_sparse::{LuWorkspace, Pattern};
use std::sync::Arc;

/// A captured Jacobian-tensor dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset name (paper Table 2 row).
    pub name: String,
    /// Number of circuit elements (`#CirElem`).
    pub elements: usize,
    /// The shared sparsity pattern of the `G` tensor.
    pub g_pattern: Arc<Pattern>,
    /// The shared sparsity pattern of the `C` tensor.
    pub c_pattern: Arc<Pattern>,
    /// `G = ∂f/∂x` values per step (compact, over `g_pattern`).
    pub g_series: Vec<Vec<f64>>,
    /// `C = ∂q/∂x` values per step (compact, over `c_pattern`).
    pub c_series: Vec<Vec<f64>>,
    /// Step sizes.
    pub hs: Vec<f64>,
}

impl Dataset {
    /// Number of time points (`#Steps`).
    pub fn steps(&self) -> usize {
        self.g_series.len()
    }

    /// Total non-zeros per step across both tensors.
    pub fn nnz_per_step(&self) -> usize {
        self.g_pattern.nnz() + self.c_pattern.nnz()
    }

    /// Bytes to store every matrix in CSR form, indices included
    /// (`S_CSR`). Without shared indices each step pays for its own copy.
    pub fn s_csr_bytes(&self) -> usize {
        self.steps()
            * (self.g_pattern.index_bytes()
                + self.g_pattern.nnz() * 8
                + self.c_pattern.index_bytes()
                + self.c_pattern.nnz() * 8)
    }

    /// Bytes of the non-zero values alone (`S_NZ`) — the compression
    /// target.
    pub fn s_nz_bytes(&self) -> usize {
        self.steps() * self.nnz_per_step() * 8
    }

    /// The full non-zero value stream (G then C per step, concatenated) as
    /// the pattern-blind baselines see it.
    #[expect(
        clippy::disallowed_methods,
        reason = "sized by the held G and C series"
    )]
    pub fn value_stream(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.steps() * self.nnz_per_step());
        for (g, c) in self.g_series.iter().zip(&self.c_series) {
            out.extend_from_slice(g);
            out.extend_from_slice(c);
        }
        out
    }
}

/// Runs the circuit's transient and captures both Jacobian tensors. The
/// raw record is drained newest-first, so each step's arrays move into
/// the dataset instead of being copied.
///
/// # Errors
///
/// Returns [`TranError`] if the simulation fails.
pub fn capture(name: &str, mut circuit: Circuit, tran: &TranOptions) -> Result<Dataset, TranError> {
    let elements = circuit.devices().len();
    let mut system = circuit
        .elaborate()
        .expect("generated circuits always elaborate");
    let mut record = ForwardRecord::new(TensorLayout::of(&system), &StoreConfig::RawMemory)
        .expect("raw store cannot fail");
    transient_into(
        &circuit,
        &mut system,
        tran,
        &mut record,
        &mut LuWorkspace::new(),
    )?;
    let (meta, mut reader) = record.into_parts().expect("raw store cannot fail");
    let (mut g_series, mut c_series) = (Vec::new(), Vec::new());
    while let Some((_, matrices)) = reader.next_back().expect("raw store holds every step") {
        let StepMatrices::Stored { g, c } = matrices else {
            unreachable!("a raw store returns stored matrices");
        };
        g_series.push(g);
        c_series.push(c);
    }
    g_series.reverse();
    c_series.reverse();
    Ok(Dataset {
        name: name.to_string(),
        elements,
        g_pattern: system.g_pattern.clone(),
        c_pattern: system.c_pattern.clone(),
        g_series,
        c_series,
        hs: meta.hs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::rc_ladder;

    #[test]
    fn capture_produces_consistent_tensors() {
        let tran = TranOptions::new(1e-6, 1e-8);
        let ds = capture("test", rc_ladder(10, 1e-6), &tran).unwrap();
        assert_eq!(ds.steps(), 101); // DC + 100 steps
        assert_eq!(ds.g_series.len(), ds.c_series.len());
        for g in &ds.g_series {
            assert_eq!(g.len(), ds.g_pattern.nnz());
        }
        for c in &ds.c_series {
            assert_eq!(c.len(), ds.c_pattern.nnz());
        }
        assert_eq!(ds.value_stream().len(), 101 * ds.nnz_per_step());
        assert!(ds.s_csr_bytes() > ds.s_nz_bytes());
        assert_eq!(ds.elements, 21); // V + 10×(R + C)
    }

    #[test]
    fn linear_circuit_tensors_are_time_constant() {
        // RC ladders are linear: G and C must be identical at every step —
        // the temporal predictor's best case.
        let tran = TranOptions::new(1e-6, 5e-8);
        let ds = capture("test", rc_ladder(5, 1e-6), &tran).unwrap();
        for g in &ds.g_series[1..] {
            assert_eq!(g, &ds.g_series[0]);
        }
        for c in &ds.c_series[1..] {
            assert_eq!(c, &ds.c_series[0]);
        }
    }
}
