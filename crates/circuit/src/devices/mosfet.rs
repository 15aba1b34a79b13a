//! MOSFET: Shichman–Hodges (SPICE level 1) with constant gate capacitances.
//!
//! Square-law model with channel-length modulation; drain/source symmetry is
//! handled by swapping roles when `Vds < 0`. PMOS devices are modelled by
//! voltage/current mirroring. Gate–source and gate–drain capacitances are
//! constant (a simplified Meyer model) — the state-dependent part of the `C`
//! tensor comes from the junction devices; MOS contributes the large static
//! background typical of the paper's MOS datasets.

use super::{DeviceImpl, GMIN};
use crate::stamp::{pair, EvalContext, ParamDerivContext, Scatter, Sites, Unknown};

/// Channel polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosPolarity {
    /// N-channel.
    Nmos,
    /// P-channel.
    Pmos,
}

/// A three-terminal MOSFET (bulk tied to source).
#[derive(Debug, Clone, PartialEq)]
pub struct Mosfet {
    name: String,
    drain: Unknown,
    gate: Unknown,
    source: Unknown,
    /// Channel polarity.
    pub polarity: MosPolarity,
    /// Threshold voltage `VT0` (V, positive for NMOS enhancement).
    pub vt0: f64,
    /// Transconductance parameter `KP` (A/V²).
    pub kp: f64,
    /// Channel-length modulation `LAMBDA` (1/V).
    pub lambda: f64,
    /// Channel width `W` (m).
    pub w: f64,
    /// Channel length `L` (m).
    pub l: f64,
    /// Constant gate–source capacitance (F).
    pub cgs: f64,
    /// Constant gate–drain capacitance (F).
    pub cgd: f64,
}

/// Drain current and small-signal params in unswapped NMOS convention.
#[derive(Debug, Clone, Copy, Default)]
struct MosOp {
    id: f64,
    gm: f64,
    gds: f64,
}

impl Mosfet {
    /// Creates an NMOS with defaults `VT0 = 0.7`, `KP = 2e-5`,
    /// `LAMBDA = 0.01`, `W/L = 10µ/1µ`, zero gate caps.
    pub fn new(
        name: impl Into<String>,
        drain: Unknown,
        gate: Unknown,
        source: Unknown,
        polarity: MosPolarity,
    ) -> Self {
        Self {
            name: name.into(),
            drain,
            gate,
            source,
            polarity,
            vt0: 0.7,
            kp: 2e-5,
            lambda: 0.01,
            w: 10e-6,
            l: 1e-6,
            cgs: 0.0,
            cgd: 0.0,
        }
    }

    /// Sets the constant gate capacitances.
    pub fn with_gate_caps(mut self, cgs: f64, cgd: f64) -> Self {
        self.cgs = cgs;
        self.cgd = cgd;
        self
    }

    fn sign(&self) -> f64 {
        match self.polarity {
            MosPolarity::Nmos => 1.0,
            MosPolarity::Pmos => -1.0,
        }
    }

    /// Square-law drain current for `vgs`, `vds >= 0` (NMOS convention).
    fn square_law(&self, vgs: f64, vds: f64) -> MosOp {
        debug_assert!(vds >= 0.0);
        let beta = self.kp * self.w / self.l;
        let vov = vgs - self.vt0;
        if vov <= 0.0 {
            return MosOp {
                id: 0.0,
                gm: 0.0,
                gds: 0.0,
            };
        }
        let clm = 1.0 + self.lambda * vds;
        if vds < vov {
            // Triode.
            let core = vov * vds - 0.5 * vds * vds;
            MosOp {
                id: beta * core * clm,
                gm: beta * vds * clm,
                gds: beta * ((vov - vds) * clm + core * self.lambda),
            }
        } else {
            // Saturation.
            let core = 0.5 * vov * vov;
            MosOp {
                id: beta * core * clm,
                gm: beta * vov * clm,
                gds: beta * core * self.lambda,
            }
        }
    }

    /// Current into the drain and conductances in circuit orientation,
    /// handling polarity and drain/source swap.
    ///
    /// Returns `(id, did_dvd, did_dvg, did_dvs)`.
    fn current(&self, vd: f64, vg: f64, vs: f64) -> (f64, f64, f64, f64) {
        let s = self.sign();
        // Map to NMOS-equivalent voltages.
        let (nvd, nvg, nvs) = (s * vd, s * vg, s * vs);
        let (swapped, evd, evg, evs) = if nvd >= nvs {
            (false, nvd, nvg, nvs)
        } else {
            (true, nvs, nvg, nvd)
        };
        let op = self.square_law(evg - evs, evd - evs);
        // Derivatives in the effective frame.
        let did_devd = op.gds;
        let did_devg = op.gm;
        let did_devs = -(op.gm + op.gds);
        // Undo the swap: current reverses, drain/source derivative roles swap.
        let (mut id, mut dvd, dvg, mut dvs) = if swapped {
            (-op.id, -did_devs, -did_devg, -did_devd)
        } else {
            (op.id, did_devd, did_devg, did_devs)
        };
        // Undo polarity mirroring: I(vd,vg,vs) = s · I_n(s·vd, s·vg, s·vs);
        // derivatives pick up s², i.e. stay unchanged.
        id *= s;
        // Leakage for convergence.
        id += GMIN * (vd - vs);
        dvd += GMIN;
        dvs -= GMIN;
        (id, dvd, dvg * s * s, dvs)
    }
}

impl DeviceImpl for Mosfet {
    fn name(&self) -> &str {
        &self.name
    }

    fn sites(&self, sites: &mut Sites) {
        let (d, g, s) = (self.drain, self.gate, self.source);
        for row in [d, s] {
            for col in [d, g, s] {
                sites.push_g(row, col);
            }
        }
        sites.push_c_pair(g, s, self.cgs != 0.0);
        sites.push_c_pair(g, d, self.cgd != 0.0);
    }

    fn eval<S: Scatter>(&self, ctx: &mut EvalContext<'_, S>) {
        let (d, g, s) = (self.drain, self.gate, self.source);
        let (vd, vg, vs) = (ctx.value(d), ctx.value(g), ctx.value(s));
        let (id, dvd, dvg, dvs) = self.current(vd, vg, vs);
        ctx.add_f(d, id);
        ctx.add_f(s, -id);
        ctx.scatter_g(0, &[dvd, dvg, dvs, -dvd, -dvg, -dvs]);
        if self.cgs != 0.0 {
            let q = self.cgs * (vg - vs);
            ctx.add_q(g, q);
            ctx.add_q(s, -q);
            ctx.scatter_c(0, &pair(self.cgs));
        }
        if self.cgd != 0.0 {
            let q = self.cgd * (vg - vd);
            ctx.add_q(g, q);
            ctx.add_q(d, -q);
            ctx.scatter_c(4, &pair(self.cgd));
        }
    }

    fn param_names(&self) -> &'static [&'static str] {
        &["kp", "vt0", "lambda", "w", "l", "cgs", "cgd"]
    }

    fn param(&self, i: usize) -> f64 {
        match i {
            0 => self.kp,
            1 => self.vt0,
            2 => self.lambda,
            3 => self.w,
            4 => self.l,
            5 => self.cgs,
            6 => self.cgd,
            _ => panic!("mosfet has 7 parameters, asked for {i}"),
        }
    }

    fn set_param(&mut self, i: usize, value: f64) {
        match i {
            0 => self.kp = value,
            1 => self.vt0 = value,
            2 => self.lambda = value,
            3 => self.w = value,
            4 => self.l = value,
            5 => self.cgs = value,
            6 => self.cgd = value,
            _ => panic!("mosfet has 7 parameters, asked for {i}"),
        }
    }

    fn stamp_param_deriv(&self, i: usize, ctx: &mut ParamDerivContext<'_>) {
        let (d, g, s) = (self.drain, self.gate, self.source);
        let (vd, vg, vs) = (ctx.value(d), ctx.value(g), ctx.value(s));
        match i {
            // Static current parameters: central finite difference of the
            // device equation itself is exact enough and avoids a second
            // analytic derivation of the swap/polarity plumbing; the model
            // is smooth in each parameter.
            0..=4 => {
                let v0 = self.param(i);
                let eps = (v0.abs() * 1e-7).max(1e-16);
                let mut hi = self.clone();
                hi.set_param(i, v0 + eps);
                let mut lo = self.clone();
                lo.set_param(i, v0 - eps);
                let d_id = (hi.current(vd, vg, vs).0 - lo.current(vd, vg, vs).0) / (2.0 * eps);
                ctx.add_df(d, d_id);
                ctx.add_df(s, -d_id);
            }
            5 => {
                let v = vg - vs;
                ctx.add_dq(g, v);
                ctx.add_dq(s, -v);
            }
            6 => {
                let v = vg - vd;
                ctx.add_dq(g, v);
                ctx.add_dq(d, -v);
            }
            _ => panic!("mosfet has 7 parameters, asked for {i}"),
        }
    }

    fn unknowns(&self) -> Vec<Unknown> {
        vec![self.drain, self.gate, self.source]
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "sizes chosen by the test")]
mod tests {
    use super::*;

    fn nmos() -> Mosfet {
        Mosfet::new("M1", Some(0), Some(1), Some(2), MosPolarity::Nmos)
    }

    #[test]
    fn cutoff_region() {
        let m = nmos();
        let (id, _, _, _) = m.current(1.0, 0.3, 0.0);
        assert!(id.abs() < 1e-9); // only GMIN leakage
    }

    #[test]
    fn saturation_square_law() {
        let mut m = nmos();
        m.lambda = 0.0;
        let (id, _, _, _) = m.current(3.0, 1.7, 0.0); // vov = 1.0, sat
        let beta = m.kp * m.w / m.l;
        assert!((id - 0.5 * beta).abs() < 1e-9, "id = {id}");
    }

    #[test]
    fn triode_region() {
        let mut m = nmos();
        m.lambda = 0.0;
        let (id, _, _, _) = m.current(0.1, 1.7, 0.0); // vds < vov
        let beta = m.kp * m.w / m.l;
        let expect = beta * (1.0 * 0.1 - 0.005);
        assert!((id - expect).abs() < 1e-9);
    }

    #[test]
    fn current_continuous_at_pinchoff() {
        let m = nmos();
        let vov = 1.0;
        let (lo, _, _, _) = m.current(vov - 1e-9, m.vt0 + vov, 0.0);
        let (hi, _, _, _) = m.current(vov + 1e-9, m.vt0 + vov, 0.0);
        assert!((lo - hi).abs() < 1e-10 * lo.abs().max(1e-12));
    }

    #[test]
    fn derivatives_match_fd() {
        let m = nmos();
        // Points in cutoff, triode, saturation, and reversed.
        for &(vd, vg, vs) in &[
            (2.0, 0.2, 0.0),
            (0.2, 1.5, 0.0),
            (3.0, 1.5, 0.0),
            (0.0, 1.5, 2.0), // vds < 0 → swap
            (1.0, 2.0, 0.5),
        ] {
            let (_, dvd, dvg, dvs) = m.current(vd, vg, vs);
            let eps = 1e-7;
            let fd_vd =
                (m.current(vd + eps, vg, vs).0 - m.current(vd - eps, vg, vs).0) / (2.0 * eps);
            let fd_vg =
                (m.current(vd, vg + eps, vs).0 - m.current(vd, vg - eps, vs).0) / (2.0 * eps);
            let fd_vs =
                (m.current(vd, vg, vs + eps).0 - m.current(vd, vg, vs - eps).0) / (2.0 * eps);
            assert!(
                (dvd - fd_vd).abs() < 1e-5 * (1.0 + fd_vd.abs()),
                "dvd at ({vd},{vg},{vs})"
            );
            assert!(
                (dvg - fd_vg).abs() < 1e-5 * (1.0 + fd_vg.abs()),
                "dvg at ({vd},{vg},{vs})"
            );
            assert!(
                (dvs - fd_vs).abs() < 1e-5 * (1.0 + fd_vs.abs()),
                "dvs at ({vd},{vg},{vs})"
            );
        }
    }

    #[test]
    fn pmos_mirrors_nmos() {
        let n = nmos();
        let mut p = Mosfet::new("M2", Some(0), Some(1), Some(2), MosPolarity::Pmos);
        p.vt0 = n.vt0;
        // PMOS with all voltages negated must give the negated current.
        let (idn, ..) = n.current(2.0, 1.5, 0.0);
        let (idp, ..) = p.current(-2.0, -1.5, 0.0);
        assert!((idn + idp).abs() < 1e-15, "{idn} vs {idp}");
    }

    #[test]
    fn reverse_conduction_is_symmetric() {
        let m = nmos();
        // Swap drain/source voltages: current must reverse exactly
        // (up to GMIN leakage which also reverses).
        let (fwd, ..) = m.current(1.0, 2.0, 0.0);
        let (rev, ..) = m.current(0.0, 2.0, 1.0);
        assert!((fwd + rev).abs() < 1e-15);
    }

    #[test]
    fn param_derivs_match_fd() {
        let m = nmos().with_gate_caps(1e-15, 0.5e-15);
        let x = [2.0, 1.4, 0.1];
        for p in 0..7 {
            let mut df = vec![0.0; 3];
            let mut dq = vec![0.0; 3];
            let mut db = vec![0.0; 3];
            m.stamp_param_deriv(
                p,
                &mut ParamDerivContext {
                    x: &x,
                    t: 0.0,
                    df_dp: &mut df,
                    dq_dp: &mut dq,
                    db_dp: &mut db,
                },
            );
            let v0 = m.param(p);
            let eps = (v0.abs() * 1e-6).max(1e-18);
            let id_at = |pv: f64| {
                let mut mm = m.clone();
                mm.set_param(p, pv);
                mm.current(x[0], x[1], x[2]).0
            };
            let fd = (id_at(v0 + eps) - id_at(v0 - eps)) / (2.0 * eps);
            if p <= 4 {
                assert!(
                    (df[0] - fd).abs() < 1e-3 * (1e-9 + fd.abs()),
                    "param {p}: {} vs {fd}",
                    df[0]
                );
            } else {
                // Capacitance params affect q only.
                assert!(df.iter().all(|&v| v == 0.0));
                assert!(dq.iter().any(|&v| v != 0.0));
            }
        }
    }
}
