//! Device models.
//!
//! Every element type the paper's workloads use: linear R/C/L, independent
//! V/I sources, and the nonlinear diode, BJT (Ebers–Moll transport form)
//! and MOSFET (Shichman–Hodges level 1). Each device knows how to:
//!
//! - list its Jacobian stamp sites in its kernel's local order
//!   ([`Device::sites`]) — the union of the reserved sites *is* the shared
//!   sparsity pattern, and elaboration binds every site to a value index
//!   once;
//! - evaluate its contributions ([`Device::eval`]): the kernel adds `f`,
//!   `q`, `b` directly and hands its local `G`/`C` values, in site order,
//!   to the context's scatter. A block gated by a parameter (diode `cj0`,
//!   BJT `tf`/`tr`, MOSFET `cgs`/`cgd`) keeps its sites whatever the
//!   parameter, and the kernel skips the block while the parameter is 0;
//! - report and perturb its named parameters, and stamp the analytic
//!   parameter derivatives `∂f/∂p`, `∂q/∂p`, `∂b/∂p` that the sensitivity
//!   engines consume ([`Device::stamp_param_deriv`]).

mod bjt;
mod controlled;
mod diode;
mod linear;
mod mosfet;
mod sources;

pub use bjt::{Bjt, BjtPolarity};
pub use controlled::{Vccs, Vcvs};
pub use diode::Diode;
pub use linear::{Capacitor, Inductor, Resistor};
pub use mosfet::{MosPolarity, Mosfet};
pub use sources::{CurrentSource, VoltageSource};

use crate::stamp::{EvalContext, ParamDerivContext, Scatter, Sites, Unknown};

/// Thermal voltage at ~300 K, used by all junction devices.
pub const VT: f64 = 0.02585;

/// Junction minimum conductance for convergence (SPICE `GMIN`).
pub const GMIN: f64 = 1e-12;

/// Exponent cap for the limited exponential.
const EXP_LIM: f64 = 40.0;

/// Limited exponential: `exp(x)` below the cap, linear extension above.
///
/// Returns `(value, derivative)`; the derivative is consistent with the
/// extension so Newton iterations see a smooth function.
#[inline]
pub(crate) fn limexp(x: f64) -> (f64, f64) {
    if x < EXP_LIM {
        let e = x.exp();
        (e, e)
    } else {
        let e = EXP_LIM.exp();
        (e * (1.0 + (x - EXP_LIM)), e)
    }
}

/// A circuit element.
///
/// This is a closed enum rather than a trait object: the simulator needs
/// `Clone` + parameter enumeration across the whole netlist, and the device
/// set is fixed by the paper's workloads.
#[derive(Debug, Clone, PartialEq)]
pub enum Device {
    /// Linear resistor.
    Resistor(Resistor),
    /// Linear capacitor.
    Capacitor(Capacitor),
    /// Linear inductor (adds one branch current).
    Inductor(Inductor),
    /// Independent voltage source (adds one branch current).
    VoltageSource(VoltageSource),
    /// Independent current source.
    CurrentSource(CurrentSource),
    /// Junction diode with depletion capacitance.
    Diode(Diode),
    /// NPN bipolar transistor (Ebers–Moll transport form with diffusion
    /// capacitance).
    Bjt(Bjt),
    /// MOSFET, Shichman–Hodges level 1 with constant gate capacitances.
    Mosfet(Mosfet),
    /// Voltage-controlled current source (SPICE `G` card).
    Vccs(Vccs),
    /// Voltage-controlled voltage source (SPICE `E` card; adds one branch
    /// current).
    Vcvs(Vcvs),
}

macro_rules! dispatch {
    ($self:expr, $inner:ident => $body:expr) => {
        match $self {
            Device::Resistor($inner) => $body,
            Device::Capacitor($inner) => $body,
            Device::Inductor($inner) => $body,
            Device::VoltageSource($inner) => $body,
            Device::CurrentSource($inner) => $body,
            Device::Diode($inner) => $body,
            Device::Bjt($inner) => $body,
            Device::Mosfet($inner) => $body,
            Device::Vccs($inner) => $body,
            Device::Vcvs($inner) => $body,
        }
    };
}

impl Device {
    /// Instance name (e.g. `R1`, `Q3`).
    pub fn name(&self) -> &str {
        dispatch!(self, d => d.name())
    }

    /// Number of extra branch unknowns this device introduces.
    pub fn branch_count(&self) -> usize {
        match self {
            Device::Inductor(_) | Device::VoltageSource(_) | Device::Vcvs(_) => 1,
            _ => 0,
        }
    }

    /// Assigns branch unknown indices starting at `start`.
    pub(crate) fn assign_branches(&mut self, start: usize) {
        match self {
            Device::Inductor(d) => d.branch = Some(start),
            Device::VoltageSource(d) => d.branch = Some(start),
            Device::Vcvs(d) => d.branch = Some(start),
            _ => {}
        }
    }

    /// Appends every `G`/`C` site the device's kernel writes, in its
    /// local order.
    pub fn sites(&self, sites: &mut Sites) {
        dispatch!(self, d => d.sites(sites))
    }

    /// Accumulates `f`, `q`, `b` at the context's state and time, and
    /// scatters the local `G`, `C` values in the order of
    /// [`Device::sites`].
    pub fn eval<S: Scatter>(&self, ctx: &mut EvalContext<'_, S>) {
        dispatch!(self, d => d.eval(ctx))
    }

    /// Number of named parameters.
    pub fn param_count(&self) -> usize {
        dispatch!(self, d => d.param_names().len())
    }

    /// Name of local parameter `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= param_count()`.
    pub fn param_name(&self, i: usize) -> &'static str {
        dispatch!(self, d => d.param_names()[i])
    }

    /// Value of local parameter `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= param_count()`.
    pub fn param(&self, i: usize) -> f64 {
        dispatch!(self, d => d.param(i))
    }

    /// Sets local parameter `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= param_count()`.
    pub fn set_param(&mut self, i: usize, value: f64) {
        dispatch!(self, d => d.set_param(i, value))
    }

    /// Accumulates `∂f/∂p`, `∂q/∂p`, `∂b/∂p` for local parameter `i` at the
    /// context's state.
    ///
    /// # Panics
    ///
    /// Panics if `i >= param_count()`.
    pub fn stamp_param_deriv(&self, i: usize, ctx: &mut ParamDerivContext<'_>) {
        dispatch!(self, d => d.stamp_param_deriv(i, ctx))
    }

    /// The unknowns this device touches (for objective/debug tooling).
    pub fn unknowns(&self) -> Vec<Unknown> {
        dispatch!(self, d => d.unknowns())
    }
}

/// Internal trait each concrete device implements; `Device` dispatches to
/// it. Not exported: the public surface is the enum.
pub(crate) trait DeviceImpl {
    fn name(&self) -> &str;
    fn sites(&self, sites: &mut Sites);
    fn eval<S: Scatter>(&self, ctx: &mut EvalContext<'_, S>);
    fn param_names(&self) -> &'static [&'static str];
    fn param(&self, i: usize) -> f64;
    fn set_param(&mut self, i: usize, value: f64);
    fn stamp_param_deriv(&self, i: usize, ctx: &mut ParamDerivContext<'_>);
    fn unknowns(&self) -> Vec<Unknown>;
}

/// Evaluates `device` alone over `x.len()` unknowns through the
/// production bind-and-scatter path; its branch unknowns are the last ones.
#[cfg(test)]
pub(crate) fn eval_alone(device: Device, x: &[f64], t: f64) -> crate::Evaluation {
    let mut ckt = crate::Circuit::new();
    for i in 0..x.len() - device.branch_count() {
        ckt.node(&format!("n{i}"));
    }
    ckt.add(device).expect("one device");
    let mut sys = ckt.elaborate().expect("elaborates");
    let mut ev = sys.new_evaluation();
    sys.eval_into(&ckt, x, t, &mut ev);
    ev
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limexp_is_smooth_at_the_cap() {
        let below = limexp(EXP_LIM - 1e-9);
        let above = limexp(EXP_LIM + 1e-9);
        assert!((below.0 - above.0).abs() / below.0 < 1e-6);
        assert!((below.1 - above.1).abs() / below.1 < 1e-6);
    }

    #[test]
    fn limexp_matches_exp_in_normal_range() {
        for &x in &[-30.0, -1.0, 0.0, 1.0, 20.0] {
            let (v, d) = limexp(x);
            assert!((v - x.exp()).abs() < 1e-12 * x.exp().max(1.0));
            assert_eq!(v, d);
        }
    }

    #[test]
    fn limexp_grows_linearly_above_cap() {
        let (v1, d1) = limexp(50.0);
        let (v2, d2) = limexp(51.0);
        assert!((v2 - v1 - d1).abs() < 1e-3 * d1);
        assert_eq!(d1, d2);
        assert!(v1.is_finite() && v2.is_finite());
    }
}
