//! Independent voltage and current sources.

use super::DeviceImpl;
use crate::stamp::{EvalContext, ParamDerivContext, Scatter, Sites, Unknown};
use crate::waveform::Waveform;

/// An independent voltage source; introduces a branch-current unknown.
///
/// Branch residual: `va − vb − V(t) = 0`; KCL rows receive `±i`.
/// The sensitivity parameter is the waveform's scale (DC level, pulse
/// level, or sine amplitude — see [`Waveform::dvalue_dscale`]).
#[derive(Debug, Clone, PartialEq)]
pub struct VoltageSource {
    name: String,
    a: Unknown,
    b: Unknown,
    pub(crate) branch: Unknown,
    /// The source waveform.
    pub waveform: Waveform,
}

impl VoltageSource {
    /// Creates a voltage source with `+` at `a` and `−` at `b`.
    pub fn new(name: impl Into<String>, a: Unknown, b: Unknown, waveform: Waveform) -> Self {
        Self {
            name: name.into(),
            a,
            b,
            branch: None,
            waveform,
        }
    }

    /// The branch-current unknown (available after elaboration).
    pub fn branch(&self) -> Unknown {
        self.branch
    }
}

impl DeviceImpl for VoltageSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn sites(&self, sites: &mut Sites) {
        let br = self.branch;
        sites.push_g(self.a, br);
        sites.push_g(self.b, br);
        sites.push_g(br, self.a);
        sites.push_g(br, self.b);
    }

    fn eval<S: Scatter>(&self, ctx: &mut EvalContext<'_, S>) {
        let br = self.branch;
        let i = ctx.value(br);
        // Positive branch current flows from `a` through the source to `b`.
        ctx.add_f(self.a, i);
        ctx.add_f(self.b, -i);
        // Branch: va − vb − V(t) = 0.
        let v = ctx.value(self.a) - ctx.value(self.b);
        ctx.add_f(br, v);
        ctx.scatter_g(0, &[1.0, -1.0, 1.0, -1.0]);
        ctx.add_b(br, -self.waveform.value(ctx.t));
    }

    fn param_names(&self) -> &'static [&'static str] {
        &["scale"]
    }

    fn param(&self, i: usize) -> f64 {
        assert_eq!(i, 0);
        self.waveform.scale()
    }

    fn set_param(&mut self, i: usize, value: f64) {
        assert_eq!(i, 0);
        self.waveform.set_scale(value);
    }

    fn stamp_param_deriv(&self, i: usize, ctx: &mut ParamDerivContext<'_>) {
        assert_eq!(i, 0);
        // b_br = −V(t)  →  ∂b/∂scale = −dV/dscale.
        ctx.add_db(self.branch, -self.waveform.dvalue_dscale(ctx.t));
    }

    fn unknowns(&self) -> Vec<Unknown> {
        vec![self.a, self.b, self.branch]
    }
}

/// An independent current source.
///
/// A positive value drives current from `a` through the source into `b`
/// (SPICE convention), contributing `+I` to node `a`'s KCL and `−I` to `b`'s.
#[derive(Debug, Clone, PartialEq)]
pub struct CurrentSource {
    name: String,
    a: Unknown,
    b: Unknown,
    /// The source waveform.
    pub waveform: Waveform,
}

impl CurrentSource {
    /// Creates a current source pushing current from `a` to `b`.
    pub fn new(name: impl Into<String>, a: Unknown, b: Unknown, waveform: Waveform) -> Self {
        Self {
            name: name.into(),
            a,
            b,
            waveform,
        }
    }
}

impl DeviceImpl for CurrentSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn sites(&self, _sites: &mut Sites) {
        // Purely an rhs contribution; no Jacobian sites.
    }

    fn eval<S: Scatter>(&self, ctx: &mut EvalContext<'_, S>) {
        let i = self.waveform.value(ctx.t);
        ctx.add_b(self.a, i);
        ctx.add_b(self.b, -i);
    }

    fn param_names(&self) -> &'static [&'static str] {
        &["scale"]
    }

    fn param(&self, i: usize) -> f64 {
        assert_eq!(i, 0);
        self.waveform.scale()
    }

    fn set_param(&mut self, i: usize, value: f64) {
        assert_eq!(i, 0);
        self.waveform.set_scale(value);
    }

    fn stamp_param_deriv(&self, i: usize, ctx: &mut ParamDerivContext<'_>) {
        assert_eq!(i, 0);
        let d = self.waveform.dvalue_dscale(ctx.t);
        ctx.add_db(self.a, d);
        ctx.add_db(self.b, -d);
    }

    fn unknowns(&self) -> Vec<Unknown> {
        vec![self.a, self.b]
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "sizes chosen by the test")]
mod tests {
    use super::*;
    use crate::devices::{eval_alone, Device};

    #[test]
    fn vsource_branch_equation() {
        let v = VoltageSource::new("V1", Some(0), None, Waveform::Dc(5.0));
        let e = eval_alone(Device::VoltageSource(v), &[5.0, -0.25], 0.0);
        // KCL at node 0 sees the branch current.
        assert_eq!(e.f[0], -0.25);
        // Branch row: f + b = va − V = 5 − 5 = 0 at the solution.
        assert_eq!(e.f[1] + e.b[1], 0.0);
        assert_eq!(e.g.get(1, 0), Some(1.0));
        assert_eq!(e.g.get(0, 1), Some(1.0));
    }

    #[test]
    fn isource_pushes_current() {
        let i = CurrentSource::new("I1", Some(0), Some(1), Waveform::Dc(1e-3));
        let e = eval_alone(Device::CurrentSource(i), &[0.0, 0.0], 0.0);
        assert_eq!(e.b, vec![1e-3, -1e-3]);
        // No Jacobian sites: only the node diagonals elaboration reserves
        // for gmin stepping, all zero.
        assert_eq!(e.g.nnz(), 2);
        assert!(e.g.values().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn vsource_param_deriv_is_minus_one_for_dc() {
        let mut v = VoltageSource::new("V1", Some(0), None, Waveform::Dc(5.0));
        v.branch = Some(1);
        let x = [5.0, 0.0];
        let (mut df, mut dq, mut db) = (vec![0.0; 2], vec![0.0; 2], vec![0.0; 2]);
        v.stamp_param_deriv(
            0,
            &mut ParamDerivContext {
                x: &x,
                t: 0.0,
                df_dp: &mut df,
                dq_dp: &mut dq,
                db_dp: &mut db,
            },
        );
        assert_eq!(db[1], -1.0);
        assert!(df.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn time_varying_source_follows_waveform() {
        let i = CurrentSource::new(
            "I1",
            Some(0),
            None,
            Waveform::Sin {
                vo: 0.0,
                va: 1.0,
                freq: 1.0,
                td: 0.0,
                theta: 0.0,
            },
        );
        let e = eval_alone(Device::CurrentSource(i), &[0.0], 0.25);
        assert!((e.b[0] - 1.0).abs() < 1e-12);
    }
}
