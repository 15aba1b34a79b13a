//! Parallel-in-time windowed adjoint sensitivity (DESIGN.md §3.14).
//!
//! [`run_windowed`] splits a fixed-grid transient into `W` contiguous time
//! windows, seeds each window's initial state with a cheap coarse
//! propagator (a large-step backward-Euler transient sharing the run's one
//! [`masc_sparse::SymbolicLu`]), and then iterates Parareal corrections:
//! every iteration integrates the stale windows *concurrently* on
//! `std::thread::scope` lanes, each lane sealing its own compressed
//! tensor pair ([`masc_compress::TensorCompressor`]),
//! until the interface jumps between consecutive windows fall below
//! `tol`. The reverse pass mirrors the scheme: per-window adjoint chains
//! run concurrently, adjoint terminal conditions are stitched backward
//! across window boundaries via [`masc_adjoint::WindowTerminal`], and the
//! per-parameter sensitivities are accumulated with a deterministic serial
//! fold — bitwise reproducible for any lane count.
//!
//! With `tol = 0` the Parareal corrections carry a bitwise-stability
//! guard (an unchanged seed forwards the fine end state verbatim, no
//! correction arithmetic), so the iteration converges *exactly* in at most
//! `W` sweeps and the windowed trajectory equals the monolithic one
//! bit for bit. `W = 1` skips the coarse machinery entirely and is
//! bit-identical to [`masc_adjoint::run_adjoint`].
//!
//! # Examples
//!
//! ```
//! use masc_adjoint::Objective;
//! use masc_circuit::parser::parse_netlist;
//! use masc_window::{run_windowed, WindowOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut parsed = parse_netlist(
//!     "I1 0 out DC 1m\n\
//!      R1 out 0 1k\n\
//!      C1 out 0 1u\n\
//!      .tran 50u 2m\n\
//!      .end",
//! )?;
//! let tran = parsed.tran.clone().expect(".tran present");
//! let out = parsed.circuit.find_node("out").expect("node").unknown().expect("not ground");
//! let r1 = parsed.circuit.find_param("R1.r").expect("param");
//! let opts = WindowOptions::new(4);
//! let run = run_windowed(
//!     &mut parsed.circuit,
//!     &tran,
//!     &opts,
//!     &[Objective::FinalValue { unknown: out }],
//!     &[r1],
//! )?;
//! // V = I·R at steady state: dV/dR ≈ I = 1 mA.
//! assert!((run.sensitivities[0][0] - 1e-3).abs() < 1e-5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coarse;
mod engine;
pub mod split;

pub use engine::run_windowed;
pub use split::{split_steps, WindowSpan};

use masc_adjoint::{AdjointError, RunMeta, StoreError};
use masc_circuit::{CircuitError, NewtonError};
use masc_compress::MascConfig;
use std::time::Duration;

/// Options for a windowed run.
#[derive(Debug, Clone)]
pub struct WindowOptions {
    /// Number of time windows `W` (clamped to the step count; `0` is an
    /// error).
    pub windows: usize,
    /// Worker lanes for the concurrent fine-integration and adjoint waves
    /// (`0` and `1` both mean serial). Results are bitwise identical for
    /// every lane count.
    pub lanes: usize,
    /// Interface-jump tolerance in *coupling-residual* units: the L∞ of
    /// `Δq/h` across each window boundary, i.e. exactly the perturbation a
    /// seed update injects into the successor's first backward-Euler
    /// residual (the seed enters the fine recursion only through
    /// `q(x_seed)/h`). A jump below the Newton residual tolerance is
    /// therefore indistinguishable from solver noise. With `0.0` the
    /// Parareal iteration runs to *bitwise* convergence — exact in at most
    /// `W` sweeps — and the results match a monolithic run.
    pub tol: f64,
    /// Adjoint interface-jump tolerance; `None` reuses `tol`. The adjoint
    /// jump is likewise a coupling residual — `‖CᵀΔw‖∞/h`, the
    /// perturbation a terminal update injects into its consumer's adjoint
    /// recursion (`v += Cᵀw/h`) — but `w` carries objective units, so the
    /// two metrics are not commensurate and benchmarks may tune this knob
    /// independently. `Some(0.0)` means bitwise convergence.
    pub adjoint_tol: Option<f64>,
    /// Close the time loop: the coarse problem solves `x(0) = x(T)` and
    /// the correction sweep wraps window `W−1` around to window `0`.
    /// Requires `tol > 0.0`.
    pub periodic: bool,
    /// Backward-Euler substeps of the coarse propagator per window.
    pub coarse_substeps: usize,
    /// Compressor configuration for the per-window tensors.
    pub masc: MascConfig,
    /// Test-only fault hook: panic inside the fine integration of this
    /// window index to exercise the lane-failure path.
    #[doc(hidden)]
    pub fault_panic_window: Option<usize>,
}

impl WindowOptions {
    /// Options for `windows` windows with serial lanes, exact (`tol = 0`)
    /// convergence, and default coarse/compressor settings.
    pub fn new(windows: usize) -> Self {
        Self {
            windows,
            lanes: 1,
            tol: 0.0,
            adjoint_tol: None,
            periodic: false,
            coarse_substeps: 8,
            masc: MascConfig::default(),
            fault_panic_window: None,
        }
    }

    /// Sets the lane count.
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.lanes = lanes;
        self
    }

    /// Sets the interface-jump tolerance.
    pub fn with_tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }
}

/// Errors from a windowed run.
#[derive(Debug)]
pub enum WindowError {
    /// `windows == 0` or the transient has no steps.
    InvalidWindows {
        /// The requested window count.
        windows: usize,
        /// The transient step count.
        n_steps: usize,
    },
    /// Adaptive stepping is set; windows need one shared fixed time grid.
    AdaptiveUnsupported,
    /// Periodic mode with `tol == 0.0` (the wrap-around fixed point only
    /// terminates against a positive tolerance).
    PeriodicNeedsTol,
    /// Circuit elaboration failed.
    Circuit(CircuitError),
    /// The seed DC operating point failed.
    Dc(NewtonError),
    /// The coarse propagator failed to converge.
    Coarse {
        /// The window whose coarse sweep failed.
        window: usize,
        /// Underlying Newton failure.
        source: NewtonError,
    },
    /// A fine transient step failed to converge.
    Step {
        /// The window that failed.
        window: usize,
        /// The failing *global* step index.
        step: usize,
        /// Underlying Newton failure.
        source: NewtonError,
    },
    /// A window's compressed tensor could not be decoded.
    Store(StoreError),
    /// A window's adjoint pass failed.
    Adjoint {
        /// The window that failed.
        window: usize,
        /// Underlying adjoint failure.
        source: AdjointError,
    },
    /// The Parareal iteration hit the iteration cap above `tol`.
    Unconverged {
        /// Iterations performed.
        iterations: usize,
        /// The last interface jump (L∞).
        jump: f64,
    },
    /// A worker lane panicked.
    WorkerPanicked,
    /// An internal invariant was violated.
    Internal(&'static str),
}

impl std::fmt::Display for WindowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WindowError::InvalidWindows { windows, n_steps } => {
                write!(f, "cannot split {n_steps} steps into {windows} windows")
            }
            WindowError::AdaptiveUnsupported => {
                write!(
                    f,
                    "windowed runs require a fixed time grid (adaptive stepping set)"
                )
            }
            WindowError::PeriodicNeedsTol => {
                write!(f, "periodic mode requires tol > 0")
            }
            WindowError::Circuit(e) => write!(f, "elaboration failed: {e}"),
            WindowError::Dc(e) => write!(f, "seed dc operating point failed: {e}"),
            WindowError::Coarse { window, source } => {
                write!(
                    f,
                    "coarse propagation into window {window} failed: {source}"
                )
            }
            WindowError::Step {
                window,
                step,
                source,
            } => write!(f, "window {window} step {step} failed: {source}"),
            WindowError::Store(e) => write!(f, "per-window tensor store failed: {e}"),
            WindowError::Adjoint { window, source } => {
                write!(f, "window {window} adjoint pass failed: {source}")
            }
            WindowError::Unconverged { iterations, jump } => {
                write!(
                    f,
                    "interface jumps still {jump:.3e} after {iterations} iterations"
                )
            }
            WindowError::WorkerPanicked => write!(f, "a window worker lane panicked"),
            WindowError::Internal(what) => write!(f, "window internal error: {what}"),
        }
    }
}

impl std::error::Error for WindowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WindowError::Circuit(e) => Some(e),
            WindowError::Dc(e) => Some(e),
            WindowError::Coarse { source, .. } | WindowError::Step { source, .. } => Some(source),
            WindowError::Store(e) => Some(e),
            WindowError::Adjoint { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<StoreError> for WindowError {
    fn from(e: StoreError) -> Self {
        WindowError::Store(e)
    }
}

/// Convergence telemetry and timing of one windowed run.
///
/// The timings report the serial sections (`coarse_time`, `serial_time`);
/// a caller that wants the end-to-end wall times the call.
#[derive(Debug, Clone, Default)]
pub struct WindowStats {
    /// Windows actually used (after clamping to the step count).
    pub windows: usize,
    /// Transient steps (excluding DC).
    pub steps: usize,
    /// Forward Parareal iterations performed.
    pub forward_iterations: usize,
    /// Adjoint Parareal iterations performed (0 when `W == 1`).
    pub adjoint_iterations: usize,
    /// Max interface coupling-residual jump (`‖Δq‖∞/h` over the window
    /// boundaries) after each forward iteration. Periodic runs fold the
    /// state-space wrap residual into the same maximum.
    pub forward_jumps: Vec<f64>,
    /// Max terminal coupling-residual jump (`‖CᵀΔw‖∞/h` over the window
    /// boundaries) after each adjoint iteration.
    pub adjoint_jumps: Vec<f64>,
    /// Compressed bytes of each window's final sealed tensor pair.
    pub window_bytes: Vec<usize>,
    /// Fine forward integrations run (dirty windows only, all iterations).
    pub fine_runs: usize,
    /// Full adjoint passes run (dirty windows only, all iterations).
    pub adjoint_runs: usize,
    /// Wall time in the serial coarse propagator (seeding + corrections).
    pub coarse_time: Duration,
    /// Wall time of the remaining serial sections (DC, correction sweeps,
    /// terminal stitching, the deterministic fold).
    pub serial_time: Duration,
    /// Final wrap-around residual in periodic mode.
    pub periodic_residual: Option<f64>,
}

/// The result of a windowed sensitivity run.
#[derive(Debug, Clone)]
pub struct WindowResult {
    /// Objective values on the stitched trajectory.
    pub objective_values: Vec<f64>,
    /// `sensitivities[i][j] = dO_i/dp_j`, folded deterministically over
    /// the windows.
    pub sensitivities: Vec<Vec<f64>>,
    /// The stitched global forward metadata (times, step sizes, states).
    pub meta: RunMeta,
    /// Convergence telemetry and timing.
    pub stats: WindowStats,
}
