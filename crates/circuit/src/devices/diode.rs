//! Junction diode with depletion capacitance.
//!
//! `I = Is·(exp(Vd/(n·VT)) − 1) + GMIN·Vd`, with the limited exponential of
//! [`super::limexp`] for Newton robustness, plus a SPICE-style depletion
//! charge `q(Vd)` (forward-bias linearization above `FC·VJ`). The nonlinear
//! charge makes the `C` matrix state-dependent, which matters for the
//! compression study: both `G` and `C` tensors vary over time.

use super::{limexp, DeviceImpl, GMIN, VT};
use crate::stamp::{pair, EvalContext, ParamDerivContext, Scatter, Sites, Unknown};

/// Forward-bias depletion-capacitance linearization point.
const FC: f64 = 0.5;

/// A junction diode.
#[derive(Debug, Clone, PartialEq)]
pub struct Diode {
    name: String,
    anode: Unknown,
    cathode: Unknown,
    /// Saturation current `IS` (A).
    pub is_sat: f64,
    /// Emission coefficient `N`.
    pub n_emission: f64,
    /// Zero-bias junction capacitance `CJ0` (F); zero disables the charge.
    pub cj0: f64,
    /// Junction potential `VJ` (V).
    pub vj: f64,
    /// Grading coefficient `M`.
    pub mj: f64,
}

impl Diode {
    /// Creates a diode with default SPICE-like parameters
    /// (`IS = 1e-14`, `N = 1`, `CJ0 = 0`, `VJ = 1`, `M = 0.5`).
    pub fn new(name: impl Into<String>, anode: Unknown, cathode: Unknown) -> Self {
        Self {
            name: name.into(),
            anode,
            cathode,
            is_sat: 1e-14,
            n_emission: 1.0,
            cj0: 0.0,
            vj: 1.0,
            mj: 0.5,
        }
    }

    /// Sets the zero-bias junction capacitance, enabling the depletion
    /// charge model.
    pub fn with_junction_cap(mut self, cj0: f64) -> Self {
        self.cj0 = cj0;
        self
    }

    /// Static current and conductance `(i, g)` at junction voltage `vd`.
    fn current(&self, vd: f64) -> (f64, f64) {
        let nvt = self.n_emission * VT;
        let (e, de) = limexp(vd / nvt);
        let i = self.is_sat * (e - 1.0) + GMIN * vd;
        let g = self.is_sat * de / nvt + GMIN;
        (i, g)
    }

    /// Depletion charge and capacitance `(q, c)` at junction voltage `vd`.
    fn charge(&self, vd: f64) -> (f64, f64) {
        if self.cj0 == 0.0 {
            return (0.0, 0.0);
        }
        let (cj0, vj, m) = (self.cj0, self.vj, self.mj);
        let fcv = FC * vj;
        if vd < fcv {
            let arg = 1.0 - vd / vj;
            let q = cj0 * vj / (1.0 - m) * (1.0 - arg.powf(1.0 - m));
            let c = cj0 * arg.powf(-m);
            (q, c)
        } else {
            // Linear extension above FC·VJ (SPICE F1/F2/F3 formulation).
            let f1 = vj / (1.0 - m) * (1.0 - (1.0 - FC).powf(1.0 - m));
            let f2 = (1.0 - FC).powf(1.0 + m);
            let f3 = 1.0 - FC * (1.0 + m);
            let q =
                cj0 * f1 + cj0 / f2 * (f3 * (vd - fcv) + m / (2.0 * vj) * (vd * vd - fcv * fcv));
            let c = cj0 / f2 * (f3 + m * vd / vj);
            (q, c)
        }
    }
}

impl DeviceImpl for Diode {
    fn name(&self) -> &str {
        &self.name
    }

    fn sites(&self, sites: &mut Sites) {
        sites.push_g_pair(self.anode, self.cathode);
        sites.push_c_pair(self.anode, self.cathode, self.cj0 != 0.0);
    }

    fn eval<S: Scatter>(&self, ctx: &mut EvalContext<'_, S>) {
        let vd = ctx.value(self.anode) - ctx.value(self.cathode);
        let (i, g) = self.current(vd);
        let (a, c) = (self.anode, self.cathode);
        ctx.add_f(a, i);
        ctx.add_f(c, -i);
        ctx.scatter_g(0, &pair(g));
        if self.cj0 != 0.0 {
            let (q, cd) = self.charge(vd);
            ctx.add_q(a, q);
            ctx.add_q(c, -q);
            ctx.scatter_c(0, &pair(cd));
        }
    }

    fn param_names(&self) -> &'static [&'static str] {
        &["is", "n", "cj0"]
    }

    fn param(&self, i: usize) -> f64 {
        match i {
            0 => self.is_sat,
            1 => self.n_emission,
            2 => self.cj0,
            _ => panic!("diode has 3 parameters, asked for {i}"),
        }
    }

    fn set_param(&mut self, i: usize, value: f64) {
        match i {
            0 => self.is_sat = value,
            1 => self.n_emission = value,
            2 => self.cj0 = value,
            _ => panic!("diode has 3 parameters, asked for {i}"),
        }
    }

    fn stamp_param_deriv(&self, i: usize, ctx: &mut ParamDerivContext<'_>) {
        let vd = ctx.value(self.anode) - ctx.value(self.cathode);
        let (a, c) = (self.anode, self.cathode);
        match i {
            0 => {
                // ∂I/∂Is = exp(vd/(n VT)) − 1.
                let (e, _) = limexp(vd / (self.n_emission * VT));
                let d = e - 1.0;
                ctx.add_df(a, d);
                ctx.add_df(c, -d);
            }
            1 => {
                // ∂I/∂n = Is · e'(u) · (−vd/(n² VT)),  u = vd/(n VT).
                let nvt = self.n_emission * VT;
                let (_, de) = limexp(vd / nvt);
                let d = self.is_sat * de * (-vd / (self.n_emission * nvt));
                ctx.add_df(a, d);
                ctx.add_df(c, -d);
            }
            2 => {
                // q ∝ CJ0: ∂q/∂CJ0 = q/CJ0 (well-defined via unit CJ0).
                let unit = Diode {
                    cj0: 1.0,
                    ..self.clone()
                };
                let (q1, _) = unit.charge(vd);
                ctx.add_dq(a, q1);
                ctx.add_dq(c, -q1);
            }
            _ => panic!("diode has 3 parameters, asked for {i}"),
        }
    }

    fn unknowns(&self) -> Vec<Unknown> {
        vec![self.anode, self.cathode]
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "sizes chosen by the test")]
mod tests {
    use super::*;

    #[test]
    fn current_sign_and_magnitude() {
        let d = Diode::new("D1", Some(0), None);
        // Forward bias 0.6 V: milliamp-scale current.
        let (i_fwd, g_fwd) = d.current(0.6);
        assert!(i_fwd > 1e-5 && i_fwd < 1.0, "i_fwd = {i_fwd}");
        assert!(g_fwd > 0.0);
        // Reverse bias: ~−Is.
        let (i_rev, g_rev) = d.current(-5.0);
        assert!(i_rev < 0.0 && i_rev > -1e-9);
        assert!(g_rev >= GMIN);
    }

    #[test]
    fn conductance_matches_fd() {
        let d = Diode::new("D1", Some(0), None);
        for &vd in &[-2.0, -0.2, 0.0, 0.3, 0.55, 0.7, 1.2] {
            let eps = 1e-7;
            let fd = (d.current(vd + eps).0 - d.current(vd - eps).0) / (2.0 * eps);
            let (_, g) = d.current(vd);
            assert!(
                (g - fd).abs() < 1e-4 * (1.0 + fd.abs()),
                "vd={vd}: g={g} fd={fd}"
            );
        }
    }

    #[test]
    fn charge_continuous_at_fc() {
        let d = Diode::new("D1", Some(0), None).with_junction_cap(1e-12);
        let fcv = FC * d.vj;
        let (q_lo, c_lo) = d.charge(fcv - 1e-9);
        let (q_hi, c_hi) = d.charge(fcv + 1e-9);
        assert!((q_lo - q_hi).abs() < 1e-18);
        assert!((c_lo - c_hi).abs() < 1e-16);
    }

    #[test]
    fn capacitance_matches_fd_of_charge() {
        let d = Diode::new("D1", Some(0), None).with_junction_cap(2e-12);
        for &vd in &[-3.0, -0.5, 0.0, 0.3, 0.49, 0.51, 0.8, 2.0] {
            let eps = 1e-7;
            let fd = (d.charge(vd + eps).0 - d.charge(vd - eps).0) / (2.0 * eps);
            let (_, c) = d.charge(vd);
            assert!(
                (c - fd).abs() < 1e-5 * (c.abs() + 1e-15),
                "vd={vd}: c={c} fd={fd}"
            );
        }
    }

    #[test]
    fn capacitance_rises_toward_junction() {
        let d = Diode::new("D1", Some(0), None).with_junction_cap(1e-12);
        let (_, c_rev) = d.charge(-2.0);
        let (_, c_zero) = d.charge(0.0);
        let (_, c_fwd) = d.charge(0.4);
        assert!(c_rev < c_zero && c_zero < c_fwd);
        assert!((c_zero - 1e-12).abs() < 1e-18);
    }

    #[test]
    fn param_derivs_match_fd() {
        let x = [0.62, 0.02];
        for p in 0..3 {
            let base = Diode {
                cj0: 3e-12,
                ..Diode::new("D", Some(0), Some(1))
            };
            let mut df = vec![0.0; 2];
            let mut dq = vec![0.0; 2];
            let mut db = vec![0.0; 2];
            base.stamp_param_deriv(
                p,
                &mut ParamDerivContext {
                    x: &x,
                    t: 0.0,
                    df_dp: &mut df,
                    dq_dp: &mut dq,
                    db_dp: &mut db,
                },
            );
            // Finite difference on f (params 0,1) or q (param 2).
            let v0 = base.param(p);
            let eps = (v0.abs() * 1e-6).max(1e-20);
            let eval_fq = |pv: f64| {
                let mut d = base.clone();
                d.set_param(p, pv);
                let vd = x[0] - x[1];
                (d.current(vd).0, d.charge(vd).0)
            };
            let (f_hi, q_hi) = eval_fq(v0 + eps);
            let (f_lo, q_lo) = eval_fq(v0 - eps);
            let fd_f = (f_hi - f_lo) / (2.0 * eps);
            let fd_q = (q_hi - q_lo) / (2.0 * eps);
            assert!(
                (df[0] - fd_f).abs() < 1e-5 * (1.0 + fd_f.abs()),
                "param {p}: df {} vs fd {fd_f}",
                df[0]
            );
            assert!(
                (dq[0] - fd_q).abs() < 1e-5 * (1.0 + fd_q.abs()),
                "param {p}: dq {} vs fd {fd_q}",
                dq[0]
            );
        }
    }

    #[test]
    fn zero_cj0_has_no_charge() {
        let d = Diode::new("D1", Some(0), None);
        assert_eq!(d.charge(0.5), (0.0, 0.0));
    }
}
