//! NPN bipolar transistor: Ebers–Moll transport form with diffusion
//! capacitance.
//!
//! Currents (into each terminal, with `eF = exp(Vbe/VT) − 1`,
//! `eR = exp(Vbc/VT) − 1` via the limited exponential):
//!
//! ```text
//! ICT = IS (eF − eR)            transport current, C → E
//! IBE = (IS/βF) eF              base–emitter recombination
//! IBC = (IS/βR) eR              base–collector recombination
//! IC  =  ICT − IBC
//! IB  =  IBE + IBC
//! IE  = −ICT − IBE
//! ```
//!
//! Diffusion charges `q_be = TF·IS·eF` (between B and E) and
//! `q_bc = TR·IS·eR` (between B and C) give the state-dependent `C` matrix.
//! GMIN conductances across both junctions aid convergence.

use super::{limexp, DeviceImpl, GMIN, VT};
use crate::stamp::{pair, EvalContext, ParamDerivContext, Scatter, Sites, Unknown};

/// Bipolar transistor polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BjtPolarity {
    /// NPN.
    Npn,
    /// PNP (mirrored junctions: `I_pnp(v) = −I_npn(−v)`).
    Pnp,
}

/// A bipolar transistor (Ebers–Moll transport form).
#[derive(Debug, Clone, PartialEq)]
pub struct Bjt {
    name: String,
    collector: Unknown,
    base: Unknown,
    emitter: Unknown,
    /// Device polarity (default NPN).
    pub polarity: BjtPolarity,
    /// Transport saturation current `IS` (A).
    pub is_sat: f64,
    /// Forward beta `BF`.
    pub beta_f: f64,
    /// Reverse beta `BR`.
    pub beta_r: f64,
    /// Forward transit time `TF` (s); scales the B–E diffusion charge.
    pub tf: f64,
    /// Reverse transit time `TR` (s); scales the B–C diffusion charge.
    pub tr: f64,
}

/// All junction currents and conductances at one bias point.
#[derive(Debug, Clone, Copy, Default)]
struct BjtOp {
    ic: f64,
    ib: f64,
    ie: f64,
    /// d(ic)/dVbe, d(ic)/dVbc, …
    dic_dvbe: f64,
    dic_dvbc: f64,
    dib_dvbe: f64,
    dib_dvbc: f64,
    /// Diffusion charges and their derivatives.
    qbe: f64,
    qbc: f64,
    dqbe_dvbe: f64,
    dqbc_dvbc: f64,
}

impl Bjt {
    /// Creates an NPN with defaults `IS = 1e-16`, `BF = 100`, `BR = 1`,
    /// `TF = 0`, `TR = 0`.
    pub fn new(
        name: impl Into<String>,
        collector: Unknown,
        base: Unknown,
        emitter: Unknown,
    ) -> Self {
        Self {
            name: name.into(),
            collector,
            base,
            emitter,
            polarity: BjtPolarity::Npn,
            is_sat: 1e-16,
            beta_f: 100.0,
            beta_r: 1.0,
            tf: 0.0,
            tr: 0.0,
        }
    }

    /// Enables diffusion capacitance via forward/reverse transit times.
    pub fn with_transit_times(mut self, tf: f64, tr: f64) -> Self {
        self.tf = tf;
        self.tr = tr;
        self
    }

    /// Sets the polarity (PNP mirrors all junction voltages and currents).
    pub fn with_polarity(mut self, polarity: BjtPolarity) -> Self {
        self.polarity = polarity;
        self
    }

    fn sign(&self) -> f64 {
        match self.polarity {
            BjtPolarity::Npn => 1.0,
            BjtPolarity::Pnp => -1.0,
        }
    }

    fn op(&self, vbe: f64, vbc: f64) -> BjtOp {
        let (ef, def) = limexp(vbe / VT);
        let (er, der) = limexp(vbc / VT);
        let ef1 = ef - 1.0;
        let er1 = er - 1.0;
        let is = self.is_sat;
        let ict = is * (ef1 - er1);
        let ibe = is / self.beta_f * ef1 + GMIN * vbe;
        let ibc = is / self.beta_r * er1 + GMIN * vbc;
        let dict_dvbe = is * def / VT;
        let dict_dvbc = -is * der / VT;
        let dibe_dvbe = is / self.beta_f * def / VT + GMIN;
        let dibc_dvbc = is / self.beta_r * der / VT + GMIN;
        BjtOp {
            ic: ict - ibc,
            ib: ibe + ibc,
            ie: -ict - ibe,
            dic_dvbe: dict_dvbe,
            dic_dvbc: dict_dvbc - dibc_dvbc,
            dib_dvbe: dibe_dvbe,
            dib_dvbc: dibc_dvbc,
            qbe: self.tf * is * ef1,
            qbc: self.tr * is * er1,
            dqbe_dvbe: self.tf * is * def / VT,
            dqbc_dvbc: self.tr * is * der / VT,
        }
    }
}

impl DeviceImpl for Bjt {
    fn name(&self) -> &str {
        &self.name
    }

    fn sites(&self, sites: &mut Sites) {
        let (c, b, e) = (self.collector, self.base, self.emitter);
        // Full 3×3 coupling block in G, row by row with the base column
        // first.
        for row in [c, b, e] {
            for col in [b, e, c] {
                sites.push_g(row, col);
            }
        }
        sites.push_c_pair(b, e, self.tf != 0.0);
        sites.push_c_pair(b, c, self.tr != 0.0);
    }

    fn eval<S: Scatter>(&self, ctx: &mut EvalContext<'_, S>) {
        let (c, b, e) = (self.collector, self.base, self.emitter);
        let s = self.sign();
        // Polarity mirroring: I_pnp(v) = −I_npn(−v). Conductances and
        // capacitances pick up s² = 1 and are unchanged; currents and
        // charges are negated.
        let vbe = s * (ctx.value(b) - ctx.value(e));
        let vbc = s * (ctx.value(b) - ctx.value(c));
        let op = self.op(vbe, vbc);

        ctx.add_f(c, s * op.ic);
        ctx.add_f(b, s * op.ib);
        ctx.add_f(e, s * op.ie);

        // Chain rule: ∂/∂Vb = ∂/∂Vbe + ∂/∂Vbc, ∂/∂Ve = −∂/∂Vbe,
        // ∂/∂Vc = −∂/∂Vbc. KCL guarantees column sums cancel for the
        // emitter row, derived from ie = −(ic + ib).
        let die_dvbe = -(op.dic_dvbe + op.dib_dvbe);
        let die_dvbc = -(op.dic_dvbc + op.dib_dvbc);

        ctx.scatter_g(
            0,
            &[
                op.dic_dvbe + op.dic_dvbc,
                -op.dic_dvbe,
                -op.dic_dvbc,
                op.dib_dvbe + op.dib_dvbc,
                -op.dib_dvbe,
                -op.dib_dvbc,
                die_dvbe + die_dvbc,
                -die_dvbe,
                -die_dvbc,
            ],
        );

        if self.tf != 0.0 {
            ctx.add_q(b, s * op.qbe);
            ctx.add_q(e, -s * op.qbe);
            ctx.scatter_c(0, &pair(op.dqbe_dvbe));
        }
        if self.tr != 0.0 {
            ctx.add_q(b, s * op.qbc);
            ctx.add_q(c, -s * op.qbc);
            ctx.scatter_c(4, &pair(op.dqbc_dvbc));
        }
    }

    fn param_names(&self) -> &'static [&'static str] {
        &["is", "bf", "br", "tf", "tr"]
    }

    fn param(&self, i: usize) -> f64 {
        match i {
            0 => self.is_sat,
            1 => self.beta_f,
            2 => self.beta_r,
            3 => self.tf,
            4 => self.tr,
            _ => panic!("bjt has 5 parameters, asked for {i}"),
        }
    }

    fn set_param(&mut self, i: usize, value: f64) {
        match i {
            0 => self.is_sat = value,
            1 => self.beta_f = value,
            2 => self.beta_r = value,
            3 => self.tf = value,
            4 => self.tr = value,
            _ => panic!("bjt has 5 parameters, asked for {i}"),
        }
    }

    fn stamp_param_deriv(&self, i: usize, ctx: &mut ParamDerivContext<'_>) {
        let (c, b, e) = (self.collector, self.base, self.emitter);
        // Parameter derivatives mirror like the currents:
        // ∂I_pnp/∂p = −∂I_npn/∂p evaluated at mirrored voltages.
        let s = self.sign();
        let vbe = s * (ctx.value(b) - ctx.value(e));
        let vbc = s * (ctx.value(b) - ctx.value(c));
        let (ef, _) = limexp(vbe / VT);
        let (er, _) = limexp(vbc / VT);
        let (ef1, er1) = (ef - 1.0, er - 1.0);
        match i {
            0 => {
                // Everything scales linearly with IS (except GMIN terms).
                let dict = ef1 - er1;
                let dibe = ef1 / self.beta_f;
                let dibc = er1 / self.beta_r;
                ctx.add_df(c, s * (dict - dibc));
                ctx.add_df(b, s * (dibe + dibc));
                ctx.add_df(e, s * (-dict - dibe));
                if self.tf != 0.0 {
                    ctx.add_dq(b, s * self.tf * ef1);
                    ctx.add_dq(e, -s * self.tf * ef1);
                }
                if self.tr != 0.0 {
                    ctx.add_dq(b, s * self.tr * er1);
                    ctx.add_dq(c, -s * self.tr * er1);
                }
            }
            1 => {
                // ∂IBE/∂βF = −IS eF1/βF².
                let d = -s * self.is_sat * ef1 / (self.beta_f * self.beta_f);
                ctx.add_df(b, d);
                ctx.add_df(e, -d);
            }
            2 => {
                // ∂IBC/∂βR = −IS eR1/βR²; IBC appears in IC (−) and IB (+).
                let d = -s * self.is_sat * er1 / (self.beta_r * self.beta_r);
                ctx.add_df(c, -d);
                ctx.add_df(b, d);
            }
            3 => {
                // ∂q_be/∂TF = IS eF1.
                let d = s * self.is_sat * ef1;
                ctx.add_dq(b, d);
                ctx.add_dq(e, -d);
            }
            4 => {
                let d = s * self.is_sat * er1;
                ctx.add_dq(b, d);
                ctx.add_dq(c, -d);
            }
            _ => panic!("bjt has 5 parameters, asked for {i}"),
        }
    }

    fn unknowns(&self) -> Vec<Unknown> {
        vec![self.collector, self.base, self.emitter]
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "sizes chosen by the test")]
mod tests {
    use super::*;
    use crate::devices::{eval_alone, Device};

    fn eval_at(
        bjt: &Bjt,
        x: &[f64; 3],
    ) -> (
        Vec<f64>,
        Vec<f64>,
        masc_sparse::CsrMatrix,
        masc_sparse::CsrMatrix,
    ) {
        let e = eval_alone(Device::Bjt(bjt.clone()), x, 0.0);
        (e.f, e.q, e.g, e.c)
    }

    fn forward_active() -> ([f64; 3], Bjt) {
        // x = [Vc, Vb, Ve]: forward active — Vbe = 0.65, Vbc = −2.35.
        let x = [3.0, 0.65, 0.0];
        let q = Bjt::new("Q1", Some(0), Some(1), Some(2)).with_transit_times(1e-9, 10e-9);
        (x, q)
    }

    #[test]
    fn kcl_currents_sum_to_zero() {
        let (x, q) = forward_active();
        let (f, _, _, _) = eval_at(&q, &x);
        let total: f64 = f.iter().sum();
        assert!(total.abs() < 1e-18, "sum of terminal currents = {total}");
    }

    #[test]
    fn forward_active_gain() {
        let (x, q) = forward_active();
        let (f, _, _, _) = eval_at(&q, &x);
        let (ic, ib) = (f[0], f[1]);
        assert!(ic > 0.0 && ib > 0.0);
        let beta = ic / ib;
        assert!(
            (beta - q.beta_f).abs() / q.beta_f < 0.05,
            "effective beta {beta}"
        );
    }

    #[test]
    fn jacobian_matches_fd() {
        let (x, q) = forward_active();
        let (_, _, g, _) = eval_at(&q, &x);
        let eps = 1e-8;
        for col in 0..3 {
            let mut xp = x;
            xp[col] += eps;
            let (fp, _, _, _) = eval_at(&q, &xp);
            let mut xm = x;
            xm[col] -= eps;
            let (fm, _, _, _) = eval_at(&q, &xm);
            for row in 0..3 {
                let fd = (fp[row] - fm[row]) / (2.0 * eps);
                let analytic = g.get(row, col).unwrap_or(0.0);
                assert!(
                    (analytic - fd).abs() < 1e-4 * (1.0 + fd.abs()),
                    "G[{row},{col}] = {analytic} vs fd {fd}"
                );
            }
        }
    }

    #[test]
    fn c_matrix_matches_fd_of_charge() {
        let (x, q) = forward_active();
        let (_, _, _, c) = eval_at(&q, &x);
        let eps = 1e-8;
        for col in 0..3 {
            let mut xp = x;
            xp[col] += eps;
            let (_, qp, _, _) = eval_at(&q, &xp);
            let mut xm = x;
            xm[col] -= eps;
            let (_, qm, _, _) = eval_at(&q, &xm);
            for row in 0..3 {
                let fd = (qp[row] - qm[row]) / (2.0 * eps);
                let analytic = c.get(row, col).unwrap_or(0.0);
                assert!(
                    (analytic - fd).abs() < 1e-4 * (1e-12 + fd.abs()),
                    "C[{row},{col}] = {analytic} vs fd {fd}"
                );
            }
        }
    }

    #[test]
    fn param_derivs_match_fd() {
        let (x, base) = forward_active();
        for p in 0..5 {
            let mut df = vec![0.0; 3];
            let mut dq = vec![0.0; 3];
            let mut db = vec![0.0; 3];
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
            let v0 = base.param(p);
            let eps = (v0.abs() * 1e-3).max(1e-20);
            let eval_param = |pv: f64| {
                let mut d = base.clone();
                d.set_param(p, pv);
                let (f, q, _, _) = eval_at(&d, &x);
                (f, q)
            };
            let (f_hi, q_hi) = eval_param(v0 + eps);
            let (f_lo, q_lo) = eval_param(v0 - eps);
            for r in 0..3 {
                let fd_f = (f_hi[r] - f_lo[r]) / (2.0 * eps);
                let fd_q = (q_hi[r] - q_lo[r]) / (2.0 * eps);
                assert!(
                    (df[r] - fd_f).abs() < 1e-4 * (1.0 + fd_f.abs()),
                    "param {p} df[{r}] {} vs {fd_f}",
                    df[r]
                );
                assert!(
                    (dq[r] - fd_q).abs() < 1e-4 * (1e-15 + fd_q.abs()),
                    "param {p} dq[{r}] {} vs {fd_q}",
                    dq[r]
                );
            }
        }
    }

    #[test]
    fn pnp_mirrors_npn_exactly() {
        let npn = Bjt::new("QN", Some(0), Some(1), Some(2)).with_transit_times(1e-9, 5e-9);
        let pnp = Bjt::new("QP", Some(0), Some(1), Some(2))
            .with_transit_times(1e-9, 5e-9)
            .with_polarity(BjtPolarity::Pnp);
        let xn = [3.0, 0.65, 0.0];
        let xp = [-3.0, -0.65, 0.0];
        let (fn_, qn, gn, cn) = eval_at(&npn, &xn);
        let (fp, qp, gp, cp) = eval_at(&pnp, &xp);
        for k in 0..3 {
            assert!((fn_[k] + fp[k]).abs() < 1e-18, "f[{k}]");
            assert!((qn[k] + qp[k]).abs() < 1e-24, "q[{k}]");
        }
        // Conductances and capacitances are even under mirroring.
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(gn.get(r, c), gp.get(r, c), "G[{r},{c}]");
                assert_eq!(cn.get(r, c), cp.get(r, c), "C[{r},{c}]");
            }
        }
    }

    #[test]
    fn pnp_param_derivs_mirror() {
        let pnp = Bjt::new("QP", Some(0), Some(1), Some(2))
            .with_transit_times(1e-9, 5e-9)
            .with_polarity(BjtPolarity::Pnp);
        let npn = Bjt::new("QN", Some(0), Some(1), Some(2)).with_transit_times(1e-9, 5e-9);
        let xp = [-3.0, -0.65, 0.0];
        let xn = [3.0, 0.65, 0.0];
        for p in 0..5 {
            let run = |dev: &Bjt, x: &[f64; 3]| {
                let mut df = vec![0.0; 3];
                let mut dq = vec![0.0; 3];
                let mut db = vec![0.0; 3];
                dev.stamp_param_deriv(
                    p,
                    &mut ParamDerivContext {
                        x,
                        t: 0.0,
                        df_dp: &mut df,
                        dq_dp: &mut dq,
                        db_dp: &mut db,
                    },
                );
                (df, dq)
            };
            let (dfn, dqn) = run(&npn, &xn);
            let (dfp, dqp) = run(&pnp, &xp);
            for k in 0..3 {
                assert!((dfn[k] + dfp[k]).abs() < 1e-24, "param {p} df[{k}]");
                assert!((dqn[k] + dqp[k]).abs() < 1e-30, "param {p} dq[{k}]");
            }
        }
    }

    #[test]
    fn saturation_region_conducts_both_junctions() {
        // Vbe = 0.7, Vbc = 0.5: both junctions forward.
        let x = [0.2, 0.7, 0.0];
        let q = Bjt::new("Q1", Some(0), Some(1), Some(2));
        let (f, _, _, _) = eval_at(&q, &x);
        assert!(f[1] > 0.0); // base current flows
        let total: f64 = f.iter().sum();
        assert!(total.abs() < 1e-18);
    }
}
