//! DC operating-point analysis with gmin and source stepping.
//!
//! Solves `f(x) + b(t₀) = 0` by damped Newton. If the plain solve fails
//! (strongly nonlinear circuits far from bias), two standard SPICE
//! continuation strategies follow: *gmin stepping* (a shunt conductance
//! from every node to ground swept from `1e-2` S down to zero) and
//! *source stepping* (all independent sources ramped from 5 % to 100 %,
//! each level warm-starting the next). Source stepping is what saves long
//! amplifying chains: intermediate damped-Newton iterates of a cold start
//! can otherwise wander into all-stages-saturated states whose small-signal
//! gain — and matrix condition number — grows exponentially with depth.

use crate::circuit::{Circuit, System};
use crate::newton::{newton_solve, NewtonError, NewtonOptions};
use masc_sparse::{CsrMatrix, LuWorkspace};

/// Result of a DC operating-point solve.
#[derive(Debug, Clone)]
pub struct DcSolution {
    /// The operating point (nodes then branch currents).
    pub x: Vec<f64>,
    /// Newton iterations summed over the stages of the schedule that
    /// converged.
    pub iterations: usize,
    /// Number of gmin stages used (1 = converged without stepping).
    pub gmin_stages: usize,
}

/// Computes the DC operating point at `t = 0`.
///
/// # Errors
///
/// Returns [`NewtonError`] if even the most heavily shunted stage fails.
pub fn dc_operating_point(
    circuit: &Circuit,
    system: &mut System,
    opts: &NewtonOptions,
) -> Result<DcSolution, NewtonError> {
    let mut lu = LuWorkspace::new();
    dc_operating_point_ws(circuit, system, opts, &mut lu)
}

/// [`dc_operating_point`] with a caller-provided LU workspace.
///
/// All schedule stages share the workspace's symbolic analysis (the MNA
/// pattern never changes mid-solve), and a caller running a larger
/// simulation — the transient stepper, or a `masc-sweep` instance seeded
/// with a shared analysis — passes the same workspace here so the DC solve
/// contributes to (and benefits from) the one symbolic factorization.
///
/// # Errors
///
/// Returns [`NewtonError`] if even the most heavily shunted stage fails.
#[expect(
    clippy::disallowed_methods,
    reason = "sized by the elaborated system dimension `n`"
)]
pub fn dc_operating_point_ws(
    circuit: &Circuit,
    system: &mut System,
    opts: &NewtonOptions,
    lu: &mut LuWorkspace,
) -> Result<DcSolution, NewtonError> {
    let n = system.n;
    let mut x = vec![0.0; n];
    let mut j = CsrMatrix::zeros(system.pattern.clone());
    let mut r = vec![0.0; n];
    let mut ev = system.new_evaluation();
    // Value indices of the node diagonals the gmin shunts add to,
    // reserved at elaboration.
    let node_diag: Vec<usize> = (0..system.n_nodes)
        .map(|i| {
            system
                .pattern
                .diag_of(i)
                .expect("node diagonal reserved at elaboration")
        })
        .collect();
    // Long device chains settle roughly one stage per iteration (cutoff
    // regions have no gain to propagate corrections through), so the DC
    // budget must scale with the circuit, not be a fixed constant.
    let opts = NewtonOptions {
        max_iter: opts.max_iter.max(4 * n + 100),
        ..*opts
    };
    let opts = &opts;

    // Plain attempt, then gmin stepping, then source stepping.
    // Each schedule entry is (gshunt, source_scale).
    let plain: Vec<(f64, f64)> = vec![(0.0, 1.0)];
    let gmin: Vec<(f64, f64)> = [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 0.0]
        .iter()
        .map(|&g| (g, 1.0))
        .collect();
    let source: Vec<(f64, f64)> = [0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 1.0]
        .iter()
        .map(|&a| (0.0, a))
        .collect();
    let schedules = [plain, gmin, source];
    let mut last_err = None;
    for schedule in &schedules {
        let mut stage_x = x.clone();
        let mut ok = true;
        let mut stages = 0usize;
        let mut iterations = 0usize;
        for &(gshunt, scale) in schedule.iter() {
            stages += 1;
            let result = newton_solve(&mut stage_x, opts, lu, &mut j, &mut r, |x, r, j| {
                system.eval_into(circuit, x, 0.0, &mut ev);
                for (ri, (fi, bi)) in r.iter_mut().zip(ev.f.iter().zip(&ev.b)) {
                    *ri = fi + scale * bi;
                }
                let jv = j.values_mut();
                jv.copy_from_slice(ev.g.values());
                if gshunt > 0.0 {
                    for (node, &k) in node_diag.iter().enumerate() {
                        r[node] += gshunt * x[node];
                        jv[k] += gshunt;
                    }
                }
            });
            match result {
                Ok(it) => iterations += it,
                Err(e) => {
                    ok = false;
                    last_err = Some(e);
                    break;
                }
            }
        }
        if ok {
            return Ok(DcSolution {
                x: stage_x,
                iterations,
                gmin_stages: stages,
            });
        }
        // Schedule failed — the next one restarts from scratch.
        x.iter_mut().for_each(|v| *v = 0.0);
    }
    Err(last_err.expect("failure recorded"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{Bjt, Device, Diode, MosPolarity, Mosfet, Resistor, VoltageSource};
    use crate::waveform::Waveform;

    fn solve(ckt: &mut Circuit) -> (DcSolution, System) {
        let mut sys = ckt.elaborate().unwrap();
        let sol = dc_operating_point(ckt, &mut sys, &NewtonOptions::default()).unwrap();
        (sol, sys)
    }

    #[test]
    fn resistive_divider() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in").unknown();
        let vout = ckt.node("out").unknown();
        ckt.add(Device::VoltageSource(VoltageSource::new(
            "V1",
            vin,
            None,
            Waveform::Dc(10.0),
        )))
        .unwrap();
        ckt.add(Device::Resistor(Resistor::new("R1", vin, vout, 1000.0)))
            .unwrap();
        ckt.add(Device::Resistor(Resistor::new("R2", vout, None, 3000.0)))
            .unwrap();
        let (sol, _) = solve(&mut ckt);
        assert!((sol.x[0] - 10.0).abs() < 1e-9);
        assert!((sol.x[1] - 7.5).abs() < 1e-9);
        // Source current = −10/4000.
        assert!((sol.x[2] + 2.5e-3).abs() < 1e-9);
    }

    #[test]
    fn diode_forward_drop() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in").unknown();
        let vd = ckt.node("d").unknown();
        ckt.add(Device::VoltageSource(VoltageSource::new(
            "V1",
            vin,
            None,
            Waveform::Dc(5.0),
        )))
        .unwrap();
        ckt.add(Device::Resistor(Resistor::new("R1", vin, vd, 1000.0)))
            .unwrap();
        ckt.add(Device::Diode(Diode::new("D1", vd, None))).unwrap();
        let (sol, _) = solve(&mut ckt);
        let vdio = sol.x[1];
        assert!(vdio > 0.5 && vdio < 0.8, "diode drop {vdio}");
        // KCL: resistor current equals diode current.
        let ir = (5.0 - vdio) / 1000.0;
        assert!(ir > 0.0);
    }

    #[test]
    fn bjt_common_emitter_bias() {
        let mut ckt = Circuit::new();
        let vcc = ckt.node("vcc").unknown();
        let vb = ckt.node("b").unknown();
        let vc = ckt.node("c").unknown();
        ckt.add(Device::VoltageSource(VoltageSource::new(
            "VCC",
            vcc,
            None,
            Waveform::Dc(5.0),
        )))
        .unwrap();
        ckt.add(Device::Resistor(Resistor::new("RB", vcc, vb, 100_000.0)))
            .unwrap();
        ckt.add(Device::Resistor(Resistor::new("RC", vcc, vc, 1_000.0)))
            .unwrap();
        ckt.add(Device::Bjt(Bjt::new("Q1", vc, vb, None))).unwrap();
        let (sol, _) = solve(&mut ckt);
        let (vb_v, vc_v) = (sol.x[1], sol.x[2]);
        assert!(vb_v > 0.5 && vb_v < 0.9, "Vbe = {vb_v}");
        // Collector pulled down from 5 V but above saturation.
        assert!(vc_v < 5.0 && vc_v > 0.0, "Vc = {vc_v}");
    }

    #[test]
    fn nmos_inverter_high_input() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd").unknown();
        let vin = ckt.node("in").unknown();
        let vout = ckt.node("out").unknown();
        ckt.add(Device::VoltageSource(VoltageSource::new(
            "VDD",
            vdd,
            None,
            Waveform::Dc(3.3),
        )))
        .unwrap();
        ckt.add(Device::VoltageSource(VoltageSource::new(
            "VIN",
            vin,
            None,
            Waveform::Dc(3.3),
        )))
        .unwrap();
        ckt.add(Device::Resistor(Resistor::new("RL", vdd, vout, 10_000.0)))
            .unwrap();
        ckt.add(Device::Mosfet(Mosfet::new(
            "M1",
            vout,
            vin,
            None,
            MosPolarity::Nmos,
        )))
        .unwrap();
        let (sol, _) = solve(&mut ckt);
        let vout_v = sol.x[2];
        assert!(vout_v < 1.0, "inverter output should be low, got {vout_v}");
        // Consistency: load current equals device current.
        let il = (3.3 - vout_v) / 10_000.0;
        assert!(il > 1e-5);
    }

    #[test]
    fn floating_node_shunted_by_gmin_fails_or_resolves() {
        // A node connected only through a capacitor has no DC path: the
        // G matrix is singular without stepping. The solver must not hang;
        // either stepping resolves it (shunt defines the node) or it errors.
        use crate::devices::Capacitor;
        let mut ckt = Circuit::new();
        let a = ckt.node("a").unknown();
        let b = ckt.node("b").unknown();
        ckt.add(Device::VoltageSource(VoltageSource::new(
            "V1",
            a,
            None,
            Waveform::Dc(1.0),
        )))
        .unwrap();
        ckt.add(Device::Capacitor(Capacitor::new("C1", a, b, 1e-9)))
            .unwrap();
        ckt.add(Device::Resistor(Resistor::new("R1", a, None, 1000.0)))
            .unwrap();
        let mut sys = ckt.elaborate().unwrap();
        let result = dc_operating_point(&ckt, &mut sys, &NewtonOptions::default());
        // Singular without shunt; must terminate promptly either way.
        match result {
            Ok(sol) => assert!(sol.x[1].abs() < 1e-6),
            Err(e) => assert!(matches!(e, NewtonError::Lu(_))),
        }
    }
}
