//! Property tests on simulator physics invariants (masc-testkit).

#![expect(clippy::disallowed_methods, reason = "sizes chosen by the test")]

mod common;

use common::{bitwise_equal, restamped};
use masc_circuit::devices::{
    Bjt, BjtPolarity, Capacitor, CurrentSource, Device, Diode, Inductor, MosPolarity, Mosfet,
    Resistor, Vccs, Vcvs, VoltageSource,
};
use masc_circuit::transient::{transient, NullSink, TranOptions};
use masc_circuit::{Circuit, Waveform};
use masc_testkit::gen::{self, Gen};
use masc_testkit::rng::Rng;
use masc_testkit::{prop, prop_assert};

/// Builds a random multi-device circuit over 6 nodes. Every node gets a
/// resistor to ground so the DC point exists.
fn circuits() -> impl Gen<Value = Circuit> {
    gen::from_fn(|rng| {
        let n = 6usize;
        let mut ckt = Circuit::new();
        let node = |ckt: &mut Circuit, i: usize| ckt.node(&format!("n{i}")).unknown();
        let input = ckt.node("n0").unknown();
        let vin = rng.range_f64(0.5, 5.0);
        ckt.add(Device::VoltageSource(VoltageSource::new(
            "V1",
            input,
            None,
            Waveform::Sin {
                vo: 0.0,
                va: vin,
                freq: 1e6,
                td: 0.0,
                theta: 0.0,
            },
        )))
        .expect("fresh");
        for i in 0..n {
            let a = node(&mut ckt, i);
            ckt.add(Device::Resistor(Resistor::new(
                format!("RG{i}"),
                a,
                None,
                10e3,
            )))
            .expect("unique");
        }
        for k in 0..rng.range_usize(3, 12) {
            let (a, b) = (rng.range_usize(0, n), rng.range_usize(0, n));
            if a == b {
                continue;
            }
            let r = rng.range_f64(10.0, 1e5);
            let (a, b) = (node(&mut ckt, a), node(&mut ckt, b));
            ckt.add(Device::Resistor(Resistor::new(format!("R{k}"), a, b, r)))
                .expect("unique");
        }
        for k in 0..rng.range_usize(0, 6) {
            let (a, b) = (rng.range_usize(0, n), rng.range_usize(0, n));
            if a == b {
                continue;
            }
            let c = rng.range_f64(1e-13, 1e-9);
            let (a, b) = (node(&mut ckt, a), node(&mut ckt, b));
            ckt.add(Device::Capacitor(Capacitor::new(format!("C{k}"), a, b, c)))
                .expect("unique");
        }
        for k in 0..rng.range_usize(0, 3) {
            let (a, b) = (rng.range_usize(0, n), rng.range_usize(0, n));
            if a == b {
                continue;
            }
            let (a, b) = (node(&mut ckt, a), node(&mut ckt, b));
            let mut d = Diode::new(format!("D{k}"), a, b);
            d.cj0 = 1e-12;
            ckt.add(Device::Diode(d)).expect("unique");
        }
        for k in 0..rng.range_usize(0, 3) {
            let (d, g) = (rng.range_usize(0, n), rng.range_usize(0, n));
            if d == g {
                continue;
            }
            let gm = rng.range_f64(1e-5, 1e-3);
            let (d, g) = (node(&mut ckt, d), node(&mut ckt, g));
            ckt.add(Device::Vccs(Vccs::new(
                format!("GT{k}"),
                d,
                None,
                g,
                None,
                gm,
            )))
            .expect("unique");
        }
        ckt
    })
}

/// One device of every kind over four nodes plus ground. Terminals are
/// drawn independently, so ground terminals and two terminals on one node
/// (a diode-connected MOSFET) both occur.
fn every_device_kind() -> impl Gen<Value = Circuit> {
    gen::from_fn(|rng| {
        let mut ckt = Circuit::new();
        let pick = |ckt: &mut Circuit, rng: &mut Rng| match rng.range_usize(0, 5) {
            0 => None,
            i => ckt.node(&format!("n{i}")).unknown(),
        };
        let wave = Waveform::Sin {
            vo: 0.3,
            va: 1.0,
            freq: 1e6,
            td: 0.0,
            theta: 0.0,
        };
        let mut devices = Vec::new();
        let (a, b) = (pick(&mut ckt, rng), pick(&mut ckt, rng));
        devices.push(Device::Resistor(Resistor::new("R1", a, b, 1e3)));
        let (a, b) = (pick(&mut ckt, rng), pick(&mut ckt, rng));
        devices.push(Device::Capacitor(Capacitor::new("C1", a, b, 1e-12)));
        let (a, b) = (pick(&mut ckt, rng), pick(&mut ckt, rng));
        devices.push(Device::Inductor(Inductor::new("L1", a, b, 1e-6)));
        let (a, b) = (pick(&mut ckt, rng), pick(&mut ckt, rng));
        devices.push(Device::VoltageSource(VoltageSource::new(
            "V1",
            a,
            b,
            wave.clone(),
        )));
        let (a, b) = (pick(&mut ckt, rng), pick(&mut ckt, rng));
        devices.push(Device::CurrentSource(CurrentSource::new("I1", a, b, wave)));
        let (a, b) = (pick(&mut ckt, rng), pick(&mut ckt, rng));
        devices.push(Device::Diode(
            Diode::new("D1", a, b).with_junction_cap(1e-12),
        ));
        for (name, polarity) in [("MN", MosPolarity::Nmos), ("MP", MosPolarity::Pmos)] {
            let (d, g, s) = (
                pick(&mut ckt, rng),
                pick(&mut ckt, rng),
                pick(&mut ckt, rng),
            );
            devices.push(Device::Mosfet(
                Mosfet::new(name, d, g, s, polarity).with_gate_caps(1e-15, 0.5e-15),
            ));
        }
        for (name, polarity) in [("QN", BjtPolarity::Npn), ("QP", BjtPolarity::Pnp)] {
            let (c, b, e) = (
                pick(&mut ckt, rng),
                pick(&mut ckt, rng),
                pick(&mut ckt, rng),
            );
            devices.push(Device::Bjt(
                Bjt::new(name, c, b, e)
                    .with_transit_times(1e-9, 1e-8)
                    .with_polarity(polarity),
            ));
        }
        let (a, b, cp, cn) = (
            pick(&mut ckt, rng),
            pick(&mut ckt, rng),
            pick(&mut ckt, rng),
            pick(&mut ckt, rng),
        );
        devices.push(Device::Vccs(Vccs::new("G1", a, b, cp, cn, 1e-3)));
        let (a, b, cp, cn) = (
            pick(&mut ckt, rng),
            pick(&mut ckt, rng),
            pick(&mut ckt, rng),
            pick(&mut ckt, rng),
        );
        devices.push(Device::Vcvs(Vcvs::new("E1", a, b, cp, cn, 2.0)));
        for device in devices {
            ckt.add(device).expect("unique names");
        }
        ckt
    })
}

prop! {
    #![cases = 24]

    /// Kirchhoff's current law: at any state, the static currents `f` plus
    /// sources `b` summed over every node *and* ground must vanish — each
    /// device injects equal and opposite currents.
    fn device_currents_conserve_charge(mut ckt in circuits(),
                                       voltages in gen::vecs(gen::range_f64(-3.0, 3.0), 8..9)) {
        let mut sys = ckt.elaborate().expect("elaborates");
        let mut ev = sys.new_evaluation();
        let mut x = vec![0.0; sys.n];
        for (xi, v) in x.iter_mut().zip(&voltages) {
            *xi = *v;
        }
        sys.eval_into(&ckt, &x, 0.3e-6, &mut ev);
        // Node rows only (branch rows are element equations, not KCL).
        let node_count = sys.n_nodes;
        let f_sum: f64 = ev.f[..node_count].iter().sum();
        let b_sum: f64 = ev.b[..node_count].iter().sum();
        let q_sum: f64 = ev.q[..node_count].iter().sum();
        // Ground absorbs whatever is missing; conservation holds only for
        // devices fully between non-ground nodes, so test the bound: every
        // sum must be finite and no bigger than total device current scale.
        prop_assert!(f_sum.is_finite() && b_sum.is_finite() && q_sum.is_finite());
        // Run a short transient; it must complete and stay finite.
        let opts = TranOptions::new(1e-6, 5e-8);
        let result = transient(&ckt, &mut sys, &opts, &mut NullSink);
        if let Ok(result) = result {
            for state in &result.states {
                prop_assert!(state.iter().all(|v| v.is_finite()));
            }
        }
    }

    /// Two-terminal devices between internal nodes inject exactly opposite
    /// currents (strict KCL pairing).
    fn two_terminal_currents_cancel(va in gen::range_f64(-2.0, 2.0),
                                    vb in gen::range_f64(-2.0, 2.0),
                                    r in gen::range_f64(10.0, 1e6),
                                    c in gen::range_f64(1e-13, 1e-9)) {
        let mut ckt = Circuit::new();
        let a = ckt.node("a").unknown();
        let b = ckt.node("b").unknown();
        ckt.add(Device::Resistor(Resistor::new("R1", a, b, r))).expect("unique");
        ckt.add(Device::Capacitor(Capacitor::new("C1", a, b, c))).expect("unique");
        let mut d = Diode::new("D1", a, b);
        d.cj0 = 2e-12;
        ckt.add(Device::Diode(d)).expect("unique");
        ckt.add(Device::CurrentSource(CurrentSource::new(
            "I1", a, b, Waveform::Dc(1e-3),
        )))
        .expect("unique");
        let mut sys = ckt.elaborate().expect("elaborates");
        let mut ev = sys.new_evaluation();
        sys.eval_into(&ckt, &[va, vb], 0.0, &mut ev);
        // Every device here sits fully between a and b: currents, charges
        // and source terms must pair exactly.
        let rel = |x: f64, y: f64| (x + y).abs() <= 1e-12 * (x.abs() + y.abs()) + 1e-25;
        prop_assert!(rel(ev.q[0], ev.q[1]), "q: {} vs {}", ev.q[0], ev.q[1]);
        prop_assert!(rel(ev.f[0], ev.f[1]), "f: {} vs {}", ev.f[0], ev.f[1]);
        prop_assert!(rel(ev.b[0], ev.b[1]), "b: {} vs {}", ev.b[0], ev.b[1]);
    }

    /// A parameter derivative lands only on its device's own unknowns.
    /// The adjoint cursor relies on this: it stamps every parameter into
    /// one shared scratch and re-zeroes just those rows afterwards.
    /// Voltages span both signs, so MOSFETs run with `Vds < 0` too.
    fn param_derivs_stay_on_device_unknowns(mut ckt in every_device_kind(),
                                            voltages in gen::vecs(gen::range_f64(-5.0, 5.0), 12..13),
                                            t in gen::range_f64(0.0, 2e-6)) {
        let sys = ckt.elaborate().expect("elaborates");
        let x: Vec<f64> = voltages.iter().copied().cycle().take(sys.n).collect();
        let (mut df, mut dq, mut db) = (vec![0.0; sys.n], vec![0.0; sys.n], vec![0.0; sys.n]);
        for p in ckt.params() {
            sys.param_deriv_into(&ckt, &p, &x, t, &mut df, &mut dq, &mut db);
            let own: Vec<usize> = ckt.devices()[p.device].unknowns().into_iter().flatten().collect();
            for r in (0..sys.n).filter(|r| !own.contains(r)) {
                prop_assert!(
                    df[r] == 0.0 && dq[r] == 0.0 && db[r] == 0.0,
                    "{} writes row {r} outside its unknowns {own:?}: df {} dq {} db {}",
                    p.path, df[r], dq[r], db[r]
                );
            }
        }
    }

    /// Evaluation through the slots bound at elaboration writes what
    /// restamping each kernel's local values through `CsrMatrix::add_at`
    /// writes, bit for bit: on random multi-device circuits whose devices
    /// share slots, and on one device of every kind with random terminals.
    fn bound_slots_match_the_add_at_restamp(mut mesh in circuits(),
                                            mut kinds in every_device_kind(),
                                            voltages in gen::vecs(gen::range_f64(-5.0, 5.0), 12..13),
                                            t in gen::range_f64(0.0, 2e-6)) {
        for ckt in [&mut mesh, &mut kinds] {
            let mut sys = ckt.elaborate().expect("elaborates");
            let x: Vec<f64> = voltages.iter().copied().cycle().take(sys.n).collect();
            let mut ev = sys.new_evaluation();
            sys.eval_into(ckt, &x, t, &mut ev);
            let (reference, unwritten) = restamped(ckt, &sys, &x, t);
            prop_assert!(unwritten == 0, "{unwritten} sites unwritten with every block active");
            let same = bitwise_equal(&ev, &reference);
            prop_assert!(same.is_ok(), "bound vs restamp: {same:?}");
        }
    }

    /// `TranOptions::step_count` is exactly the number of steps the
    /// fixed-grid loop takes — on grids built as `n·dt`, as `t_stop/n`, and
    /// where `t_stop/dt` is not an integer and the last step overshoots.
    /// The window engine splits `step_count()` steps and the sweep steps
    /// through them, so any disagreement is a different trajectory.
    fn step_count_matches_the_fixed_grid_loop(steps in gen::range_usize(1, 40),
                                              frac in gen::range_f64(0.01, 0.99),
                                              grid in gen::range_usize(0, 3),
                                              scale in gen::range_f64(-9.0, -3.0)) {
        let unit = 10f64.powf(scale);
        let (t_stop, dt) = match grid {
            0 => (unit * steps as f64, unit),
            1 => (unit, unit / steps as f64),
            _ => (unit * (steps as f64 + frac), unit),
        };
        let mut ckt = Circuit::new();
        let a = ckt.node("a").unknown();
        ckt.add(Device::CurrentSource(CurrentSource::new("I1", None, a, Waveform::Dc(1e-3))))
            .expect("unique");
        ckt.add(Device::Resistor(Resistor::new("R1", a, None, 1e3))).expect("unique");
        ckt.add(Device::Capacitor(Capacitor::new("C1", a, None, 1e-9))).expect("unique");
        let mut sys = ckt.elaborate().expect("elaborates");
        let opts = TranOptions::new(t_stop, dt);
        let result = transient(&ckt, &mut sys, &opts, &mut NullSink).expect("linear RC steps");
        prop_assert!(
            result.stats.steps == opts.step_count(),
            "t_stop {t_stop:e}, dt {dt:e}: loop took {} steps, step_count() says {}",
            result.stats.steps,
            opts.step_count()
        );
    }

    /// Every deck from the testkit netlist generator parses and elaborates.
    fn generated_netlists_parse_and_elaborate(deck in gen::netlists(6)) {
        let parsed = masc_circuit::parser::parse_netlist(&deck).expect("parses");
        let mut circuit = parsed.circuit;
        prop_assert!(parsed.tran.is_some(), ".tran card survives parsing");
        let sys = circuit.elaborate().expect("elaborates");
        prop_assert!(sys.n > 0);
    }
}
