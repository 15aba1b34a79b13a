//! A SPICE-like analog circuit simulator: the substrate MASC runs on.
//!
//! The paper implements MASC inside Xyce; this crate is the from-scratch
//! equivalent used by this reproduction. It provides:
//!
//! - netlist construction ([`Circuit`]) and a SPICE-subset text
//!   [`parser`];
//! - device models ([`devices`]): R, C, L, V/I sources with DC/PULSE/SIN/
//!   PWL [`waveform`]s, diode, BJT, MOSFET — each with analytic Jacobian
//!   *and* parameter-derivative stamps;
//! - MNA assembly over a single shared sparsity pattern
//!   ([`circuit::System`]) — the structural invariant the paper's
//!   shared-indices compression relies on;
//! - DC operating point with gmin stepping ([`dc`]) and backward-Euler
//!   transient analysis ([`mod@transient`]) with a [`transient::JacobianSink`]
//!   hook that feeds every per-step `G`/`C` matrix pair to the caller
//!   (paper Algorithm 2, forward half).
//!
//! # Examples
//!
//! ```
//! use masc_circuit::parser::parse_netlist;
//! use masc_circuit::transient::{transient, NullSink};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut parsed = parse_netlist(
//!     "V1 in 0 PULSE(0 5 0 1n 1n 1u 2u)\n\
//!      R1 in out 1k\n\
//!      C1 out 0 1n\n\
//!      .tran 20n 2u\n\
//!      .end",
//! )?;
//! let mut system = parsed.circuit.elaborate()?;
//! let opts = parsed.tran.clone().expect("netlist has .tran");
//! let result = transient(&parsed.circuit, &mut system, &opts, &mut NullSink)?;
//! assert_eq!(result.times.len(), opts.step_count() + 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod circuit;
pub mod dc;
pub mod devices;
pub mod netlist;
pub mod newton;
pub mod parser;
pub mod stamp;
pub mod transient;
pub mod waveform;

pub use circuit::{gather_into, Circuit, CircuitError, Evaluation, Node, ParamRef, System};
pub use dc::{dc_operating_point, DcSolution};
pub use devices::Device;
pub use newton::{NewtonError, NewtonOptions};
pub use transient::{
    transient, BeStepper, JacobianSink, NullSink, SinkError, TranError, TranOptions, TranResult,
};
pub use waveform::Waveform;
