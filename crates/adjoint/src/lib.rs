//! Transient sensitivity analysis: adjoint (with pluggable Jacobian
//! stores), direct, and finite-difference engines.
//!
//! This crate assembles the MASC pipeline end to end (paper Algorithm 2):
//!
//! 1. run the forward transient with a [`store::ForwardRecord`] sink that
//!    captures states and — per [`store::StoreConfig`] — Jacobians
//!    (recompute / raw / MASC-compressed; custom stores plug in through
//!    [`store::ForwardRecord::with_store`]);
//! 2. run the [`adjoint`] reverse pass, which consumes the matrices in
//!    reverse order with one transpose solve per step per objective;
//! 3. validate against the [`direct`] forward method and [`fd`] finite
//!    differences.
//!
//! # Examples
//!
//! ```
//! use masc_adjoint::{run_adjoint, Objective, StoreConfig};
//! use masc_circuit::parser::parse_netlist;
//! use masc_compress::MascConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut parsed = parse_netlist(
//!     "V1 in 0 DC 5\n\
//!      R1 in out 1k\n\
//!      C1 out 0 1u\n\
//!      .tran 50u 1m\n\
//!      .end",
//! )?;
//! let tran = parsed.tran.clone().expect(".tran present");
//! let out = parsed.circuit.find_node("out").expect("node").unknown().expect("not ground");
//! let objectives = [Objective::FinalValue { unknown: out }];
//! let params = [parsed.circuit.find_param("R1.r").expect("param")];
//! let run = run_adjoint(
//!     &mut parsed.circuit,
//!     &tran,
//!     &StoreConfig::Compressed(MascConfig::default()),
//!     &objectives,
//!     &params,
//! )?;
//! // The capacitor has fully charged to 5 V: dVout/dR ≈ 0.
//! assert!(run.sensitivities.values[0][0].abs() < 1e-3);
//! # Ok(())
//! # }
//! ```

// Shipping code never unwraps (DESIGN.md §3.10); the store module
// carries the full rule R1.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adjoint;
pub mod direct;
pub mod fd;
pub mod lanes;
pub mod objective;
pub mod store;

#[cfg(feature = "mutation-hooks")]
pub mod mutation;

pub use adjoint::{
    adjoint_sensitivities, adjoint_sensitivities_per_objective, check_objective_steps,
    AdjointCursor, AdjointError, AdjointStats, SensitivityResult, WindowTerminal,
};
pub use direct::{direct_sensitivities, DirectError};
pub use fd::{finite_difference, objective_value, FdError};
pub use objective::Objective;
pub use store::{
    BackwardJacobians, BackwardReader, CompressedStore, ForwardRecord, JacobianStore, RawStore,
    RecomputeStore, RunMeta, StepMatrices, StoreConfig, StoreError, StoreMetrics, TensorLayout,
    TensorSlot,
};

use masc_circuit::transient::{transient_into, TranError, TranOptions, TranStats};
use masc_circuit::{Circuit, ParamRef, System};
use masc_sparse::LuWorkspace;

/// Errors from the end-to-end pipeline.
#[derive(Debug)]
pub enum RunError {
    /// Circuit elaboration failed.
    Circuit(masc_circuit::CircuitError),
    /// The forward transient failed.
    Tran(TranError),
    /// The Jacobian store failed.
    Store(StoreError),
    /// The adjoint pass failed.
    Adjoint(AdjointError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Circuit(e) => write!(f, "elaboration failed: {e}"),
            RunError::Tran(e) => write!(f, "forward transient failed: {e}"),
            RunError::Store(e) => write!(f, "jacobian store failed: {e}"),
            RunError::Adjoint(e) => write!(f, "adjoint pass failed: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<masc_circuit::CircuitError> for RunError {
    fn from(e: masc_circuit::CircuitError) -> Self {
        RunError::Circuit(e)
    }
}

impl From<TranError> for RunError {
    fn from(e: TranError) -> Self {
        RunError::Tran(e)
    }
}

impl From<StoreError> for RunError {
    fn from(e: StoreError) -> Self {
        RunError::Store(e)
    }
}

impl From<AdjointError> for RunError {
    fn from(e: AdjointError) -> Self {
        RunError::Adjoint(e)
    }
}

/// Results and accounting of one forward + adjoint run.
#[derive(Debug, Clone)]
pub struct SensitivityRun {
    /// Objective values on the nominal trajectory.
    pub objective_values: Vec<f64>,
    /// The sensitivity matrix and reverse-pass statistics.
    pub sensitivities: SensitivityResult,
    /// Forward transient statistics.
    pub tran_stats: TranStats,
    /// Jacobian-store telemetry for the whole run (forward capture +
    /// reverse fetch).
    pub store_metrics: StoreMetrics,
}

/// Runs transient + the *Xyce-like* sensitivity schedule: nothing stored,
/// one reverse sweep per objective, Jacobians re-evaluated on every sweep
/// (see [`adjoint_sensitivities_per_objective`]). This is the conventional
/// baseline of paper Table 1 / Fig. 7. Its `store_metrics` are the forward
/// recompute record's: zero bytes written, and no reverse fetch time.
///
/// # Errors
///
/// Returns [`RunError`] if any stage fails.
pub fn run_xyce_like(
    circuit: &mut Circuit,
    tran: &TranOptions,
    objectives: &[Objective],
    params: &[ParamRef],
) -> Result<SensitivityRun, RunError> {
    let mut system = circuit.elaborate()?;
    let record = ForwardRecord::new(store::TensorLayout::of(&system), &StoreConfig::Recompute)?;
    let (tran_stats, objective_values, meta, reader) =
        forward(circuit, &mut system, tran, record, objectives)?;
    let sensitivities =
        adjoint_sensitivities_per_objective(circuit, &mut system, &meta, objectives, params)?;
    Ok(SensitivityRun {
        objective_values,
        sensitivities,
        tran_stats,
        store_metrics: reader.metrics().clone(),
    })
}

/// Runs transient + adjoint sensitivity end to end with the chosen
/// Jacobian store — all objectives batched into one reverse sweep (the
/// schedule Jacobian storage makes possible).
///
/// # Errors
///
/// Returns [`RunError`] if any stage fails.
pub fn run_adjoint(
    circuit: &mut Circuit,
    tran: &TranOptions,
    store: &StoreConfig,
    objectives: &[Objective],
    params: &[ParamRef],
) -> Result<SensitivityRun, RunError> {
    let mut system = circuit.elaborate()?;
    let record = ForwardRecord::new(store::TensorLayout::of(&system), store)?;
    let (run, _) = run_recorded(circuit, &mut system, tran, record, objectives, params)?;
    Ok(run)
}

/// The forward + reverse body of [`run_adjoint`] over a caller-prepared
/// record (a custom [`JacobianStore`], or a [`CompressedStore`] that
/// captures its sealed tensors): transient into `record`, objective values
/// off the trajectory the record kept, then one batched reverse sweep.
/// Also returns the run metadata, which `masc-serve` keeps next to the
/// tensors its record's store captured.
///
/// # Errors
///
/// Returns [`RunError`] if any stage fails.
pub fn run_recorded(
    circuit: &Circuit,
    system: &mut System,
    tran: &TranOptions,
    record: ForwardRecord,
    objectives: &[Objective],
    params: &[ParamRef],
) -> Result<(SensitivityRun, RunMeta), RunError> {
    let (tran_stats, objective_values, meta, mut reader) =
        forward(circuit, system, tran, record, objectives)?;
    let sensitivities =
        adjoint_sensitivities(circuit, system, &meta, &mut reader, objectives, params)?;
    let run = SensitivityRun {
        objective_values,
        sensitivities,
        tran_stats,
        store_metrics: reader.metrics().clone(),
    };
    Ok((run, meta))
}

/// The forward half shared by [`run_recorded`] and [`run_xyce_like`]:
/// transient into `record`, then the record split into its metadata and
/// reader, with the objective values read off the one trajectory the
/// record kept. On a fixed grid a bad [`Objective::AtStep`] is rejected
/// before the DC point; an adaptive grid only knows its step count after
/// the run. The forward LU workspace is freed once the store is sealed:
/// its factors are dead weight once the reverse pass allocates its own.
fn forward(
    circuit: &Circuit,
    system: &mut System,
    tran: &TranOptions,
    mut record: ForwardRecord,
    objectives: &[Objective],
) -> Result<(TranStats, Vec<f64>, RunMeta, BackwardJacobians), RunError> {
    if tran.adaptive.is_none() {
        check_objective_steps(objectives, tran.step_count().saturating_add(1))?;
    }
    let mut lu = LuWorkspace::new();
    let tran_stats = transient_into(circuit, system, tran, &mut record, &mut lu)?;
    // Seal before the workspace is freed: the seal's small allocations then
    // stay out of the hole the workspace leaves, and the reverse pass's own
    // LU storage refills it whole (on `rc_mesh` this keeps the peak RSS
    // from depending on the seed).
    let (meta, reader) = record.into_parts()?;
    drop(lu);
    check_objective_steps(objectives, meta.times.len())?;
    let objective_values = objectives
        .iter()
        .map(|o| o.value(&meta.states, &meta.hs))
        .collect();
    Ok((tran_stats, objective_values, meta, reader))
}
