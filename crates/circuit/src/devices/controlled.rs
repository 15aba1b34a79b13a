//! Linear controlled sources: VCCS (`G` card) and VCVS (`E` card).
//!
//! These are the standard SPICE linear dependent sources; they appear
//! throughout extracted analog macromodels (the paper's CHIP netlists are
//! exactly that kind of deck). Both couple two node pairs, producing the
//! asymmetric off-diagonal stamps that distinguish real MNA matrices from
//! textbook symmetric ones.

use super::DeviceImpl;
use crate::stamp::{EvalContext, ParamDerivContext, Scatter, Sites, Unknown};

/// A voltage-controlled current source: `I(a→b) = gm · (V(cp) − V(cn))`.
#[derive(Debug, Clone, PartialEq)]
pub struct Vccs {
    name: String,
    a: Unknown,
    b: Unknown,
    cp: Unknown,
    cn: Unknown,
    /// Transconductance in siemens.
    pub gm: f64,
}

impl Vccs {
    /// Creates a VCCS driving current from `a` to `b`, controlled by the
    /// voltage from `cp` to `cn`.
    pub fn new(
        name: impl Into<String>,
        a: Unknown,
        b: Unknown,
        cp: Unknown,
        cn: Unknown,
        gm: f64,
    ) -> Self {
        Self {
            name: name.into(),
            a,
            b,
            cp,
            cn,
            gm,
        }
    }
}

impl DeviceImpl for Vccs {
    fn name(&self) -> &str {
        &self.name
    }

    fn sites(&self, sites: &mut Sites) {
        for row in [self.a, self.b] {
            for col in [self.cp, self.cn] {
                sites.push_g(row, col);
            }
        }
    }

    fn eval<S: Scatter>(&self, ctx: &mut EvalContext<'_, S>) {
        let vc = ctx.value(self.cp) - ctx.value(self.cn);
        let i = self.gm * vc;
        ctx.add_f(self.a, i);
        ctx.add_f(self.b, -i);
        ctx.scatter_g(0, &[self.gm, -self.gm, -self.gm, self.gm]);
    }

    fn param_names(&self) -> &'static [&'static str] {
        &["gm"]
    }

    fn param(&self, i: usize) -> f64 {
        assert_eq!(i, 0);
        self.gm
    }

    fn set_param(&mut self, i: usize, value: f64) {
        assert_eq!(i, 0);
        self.gm = value;
    }

    fn stamp_param_deriv(&self, i: usize, ctx: &mut ParamDerivContext<'_>) {
        assert_eq!(i, 0);
        // I = gm · vc  →  ∂I/∂gm = vc.
        let vc = ctx.value(self.cp) - ctx.value(self.cn);
        ctx.add_df(self.a, vc);
        ctx.add_df(self.b, -vc);
    }

    fn unknowns(&self) -> Vec<Unknown> {
        vec![self.a, self.b, self.cp, self.cn]
    }
}

/// A voltage-controlled voltage source:
/// `V(a) − V(b) = gain · (V(cp) − V(cn))`; adds one branch current.
#[derive(Debug, Clone, PartialEq)]
pub struct Vcvs {
    name: String,
    a: Unknown,
    b: Unknown,
    cp: Unknown,
    cn: Unknown,
    pub(crate) branch: Unknown,
    /// Voltage gain.
    pub gain: f64,
}

impl Vcvs {
    /// Creates a VCVS with output `a`/`b` controlled by `cp`/`cn`.
    pub fn new(
        name: impl Into<String>,
        a: Unknown,
        b: Unknown,
        cp: Unknown,
        cn: Unknown,
        gain: f64,
    ) -> Self {
        Self {
            name: name.into(),
            a,
            b,
            cp,
            cn,
            branch: None,
            gain,
        }
    }
}

impl DeviceImpl for Vcvs {
    fn name(&self) -> &str {
        &self.name
    }

    fn sites(&self, sites: &mut Sites) {
        let br = self.branch;
        sites.push_g(self.a, br);
        sites.push_g(self.b, br);
        sites.push_g(br, self.a);
        sites.push_g(br, self.b);
        sites.push_g(br, self.cp);
        sites.push_g(br, self.cn);
    }

    fn eval<S: Scatter>(&self, ctx: &mut EvalContext<'_, S>) {
        let br = self.branch;
        let i = ctx.value(br);
        ctx.add_f(self.a, i);
        ctx.add_f(self.b, -i);
        // Branch: (va − vb) − gain·(vcp − vcn) = 0.
        let v = ctx.value(self.a)
            - ctx.value(self.b)
            - self.gain * (ctx.value(self.cp) - ctx.value(self.cn));
        ctx.add_f(br, v);
        ctx.scatter_g(0, &[1.0, -1.0, 1.0, -1.0, -self.gain, self.gain]);
    }

    fn param_names(&self) -> &'static [&'static str] {
        &["gain"]
    }

    fn param(&self, i: usize) -> f64 {
        assert_eq!(i, 0);
        self.gain
    }

    fn set_param(&mut self, i: usize, value: f64) {
        assert_eq!(i, 0);
        self.gain = value;
    }

    fn stamp_param_deriv(&self, i: usize, ctx: &mut ParamDerivContext<'_>) {
        assert_eq!(i, 0);
        // f_br contains −gain·vc  →  ∂f_br/∂gain = −vc.
        let vc = ctx.value(self.cp) - ctx.value(self.cn);
        ctx.add_df(self.branch, -vc);
    }

    fn unknowns(&self) -> Vec<Unknown> {
        vec![self.a, self.b, self.cp, self.cn, self.branch]
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "sizes chosen by the test")]
mod tests {
    use super::*;
    use crate::devices::{eval_alone, Device};

    fn eval3(dev: Device, x: &[f64]) -> (Vec<f64>, masc_sparse::CsrMatrix) {
        let e = eval_alone(dev, x, 0.0);
        (e.f, e.g)
    }

    #[test]
    fn vccs_injects_proportional_current() {
        let g = Vccs::new("G1", Some(0), Some(1), Some(2), None, 2e-3);
        let (f, gm) = eval3(Device::Vccs(g), &[0.0, 0.0, 1.5]);
        assert!((f[0] - 3e-3).abs() < 1e-15);
        assert!((f[1] + 3e-3).abs() < 1e-15);
        assert_eq!(gm.get(0, 2), Some(2e-3));
        assert_eq!(gm.get(1, 2), Some(-2e-3));
    }

    #[test]
    fn vcvs_branch_equation_balances_at_solution() {
        let mut e = Vcvs::new("E1", Some(0), None, Some(1), None, 10.0);
        e.branch = Some(2);
        // x = [out, ctrl, i]: out = 10·ctrl at the solution.
        let (f, g) = eval3(Device::Vcvs(e), &[5.0, 0.5, -1e-3]);
        assert_eq!(f[2], 0.0); // branch residual zero
        assert!((f[0] + 1e-3).abs() < 1e-15); // branch current into out
        assert_eq!(g.get(2, 0), Some(1.0));
        assert_eq!(g.get(2, 1), Some(-10.0));
    }

    #[test]
    fn param_derivs_match_fd() {
        let x = [0.7, 0.3, 2e-4];
        let g = Vccs::new("G1", Some(0), Some(1), Some(0), Some(1), 1e-3);
        let mut df = vec![0.0; 3];
        let mut dq = vec![0.0; 3];
        let mut db = vec![0.0; 3];
        g.stamp_param_deriv(
            0,
            &mut ParamDerivContext {
                x: &x,
                t: 0.0,
                df_dp: &mut df,
                dq_dp: &mut dq,
                db_dp: &mut db,
            },
        );
        // vc = 0.4 → ∂I/∂gm = 0.4 at node a.
        assert!((df[0] - 0.4).abs() < 1e-15);
        assert!((df[1] + 0.4).abs() < 1e-15);
    }
}
