//! Stamp slots bound at elaboration (DESIGN.md §3.16).
//!
//! - Every device kind, over every assignment of its terminals to ground
//!   and three nodes (so grounded and repeated terminals both occur),
//!   evaluates bitwise equal to a restamp of the same kernel's local
//!   values through `CsrMatrix::add_at`.
//! - A stamp block gated by a parameter keeps the outcome it had when
//!   evaluation searched the pattern per stamp, whichever way the
//!   parameter crosses zero after elaboration: skipped at 0, written where
//!   the union pattern has the position, and otherwise a panic with the
//!   same message.
//! - `eval_into` with a circuit of another device count fails an assert
//!   that says so.

mod common;

use common::{bitwise_equal, restamped};
use masc_circuit::devices::{
    Bjt, BjtPolarity, Capacitor, CurrentSource, Device, Diode, Inductor, MosPolarity, Mosfet,
    Resistor, Vccs, Vcvs, VoltageSource,
};
use masc_circuit::stamp::Unknown;
use masc_circuit::{Circuit, Evaluation, Waveform};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Evaluation time: the sine sources are off their zero crossing.
const T: f64 = 0.4e-6;

/// Terminal choices: ground and the three nodes every test circuit has.
const TERMINALS: [Unknown; 4] = [None, Some(0), Some(1), Some(2)];

/// States over the three nodes and at most one branch. The first has
/// rising node voltages, so a MOSFET with drain on node 0 and source on
/// node 2 runs with `Vds < 0`; the second falls; the third forward-biases
/// junctions from node 0.
const STATES: [[f64; 4]; 3] = [
    [-1.3, 0.2, 1.9, 3e-3],
    [1.9, 0.2, -1.3, -2e-3],
    [0.72, 0.05, -0.6, 1e-3],
];

fn wave() -> Waveform {
    Waveform::Sin {
        vo: 0.3,
        va: 1.0,
        freq: 1e6,
        td: 0.0,
        theta: 0.0,
    }
}

/// `(label, terminal count, builder)` for every device kind and polarity.
type Kind = (&'static str, usize, fn(&[Unknown]) -> Device);

const KINDS: [Kind; 12] = [
    ("R", 2, |t| {
        Device::Resistor(Resistor::new("X", t[0], t[1], 1e3))
    }),
    ("C", 2, |t| {
        Device::Capacitor(Capacitor::new("X", t[0], t[1], 1e-12))
    }),
    ("L", 2, |t| {
        Device::Inductor(Inductor::new("X", t[0], t[1], 1e-6))
    }),
    ("V", 2, |t| {
        Device::VoltageSource(VoltageSource::new("X", t[0], t[1], wave()))
    }),
    ("I", 2, |t| {
        Device::CurrentSource(CurrentSource::new("X", t[0], t[1], wave()))
    }),
    ("D", 2, |t| {
        Device::Diode(Diode::new("X", t[0], t[1]).with_junction_cap(1e-12))
    }),
    ("Q npn", 3, |t| {
        Device::Bjt(Bjt::new("X", t[0], t[1], t[2]).with_transit_times(1e-9, 1e-8))
    }),
    ("Q pnp", 3, |t| {
        Device::Bjt(
            Bjt::new("X", t[0], t[1], t[2])
                .with_transit_times(1e-9, 1e-8)
                .with_polarity(BjtPolarity::Pnp),
        )
    }),
    ("M nmos", 3, |t| {
        Device::Mosfet(
            Mosfet::new("X", t[0], t[1], t[2], MosPolarity::Nmos).with_gate_caps(1e-15, 5e-16),
        )
    }),
    ("M pmos", 3, |t| {
        Device::Mosfet(
            Mosfet::new("X", t[0], t[1], t[2], MosPolarity::Pmos).with_gate_caps(1e-15, 5e-16),
        )
    }),
    ("G", 4, |t| {
        Device::Vccs(Vccs::new("X", t[0], t[1], t[2], t[3], 1e-3))
    }),
    ("E", 4, |t| {
        Device::Vcvs(Vcvs::new("X", t[0], t[1], t[2], t[3], 2.0))
    }),
];

/// A circuit with nodes 0, 1, 2 and `devices`.
fn circuit(devices: impl IntoIterator<Item = Device>) -> Circuit {
    let mut ckt = Circuit::new();
    for name in ["n0", "n1", "n2"] {
        ckt.node(name);
    }
    for dev in devices {
        ckt.add(dev).expect("unique names");
    }
    ckt
}

#[test]
fn every_device_kind_matches_the_add_at_restamp_bitwise() {
    let mut cases = 0;
    for (label, arity, build) in KINDS {
        for code in 0..TERMINALS.len().pow(arity as u32) {
            let terminals: Vec<Unknown> = (0..arity)
                .map(|i| TERMINALS[code / TERMINALS.len().pow(i as u32) % TERMINALS.len()])
                .collect();
            let mut ckt = circuit([build(&terminals)]);
            let mut sys = ckt.elaborate().expect("three nodes");
            let mut ev = sys.new_evaluation();
            for state in &STATES {
                let x = &state[..sys.n];
                sys.eval_into(&ckt, x, T, &mut ev);
                let (reference, unwritten) = restamped(&ckt, &sys, x, T);
                assert_eq!(unwritten, 0, "{label} {terminals:?}: every block is active");
                if let Err(diff) = bitwise_equal(&ev, &reference) {
                    panic!("{label} on {terminals:?} at {x:?}: {diff}");
                }
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 3 * (5 * 16 + 16 + 4 * 64 + 2 * 256));
}

/// The panic message of `payload`.
fn message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => payload
            .downcast_ref::<&str>()
            .map_or_else(String::new, |s| (*s).to_string()),
    }
}

fn set(ckt: &mut Circuit, path: &str, value: f64) {
    let p = ckt.find_param(path).expect("parameter exists");
    ckt.set_param_value(&p, value);
}

/// Elaborates `ckt` with `path` at `from`, then moves it to `to` and
/// evaluates at state 2; `Err` carries a panic's message.
fn eval_moved(mut ckt: Circuit, path: &str, from: f64, to: f64) -> Result<Evaluation, String> {
    set(&mut ckt, path, from);
    let mut sys = ckt.elaborate().expect("three nodes");
    set(&mut ckt, path, to);
    let mut ev = sys.new_evaluation();
    catch_unwind(AssertUnwindSafe(|| {
        sys.eval_into(&ckt, &STATES[2][..sys.n], T, &mut ev)
    }))
    .map_err(message)?;
    Ok(ev)
}

/// Elaborates and evaluates `ckt` with `path` at `value` throughout.
fn eval_fresh(mut ckt: Circuit, path: &str, value: f64) -> Evaluation {
    set(&mut ckt, path, value);
    let mut sys = ckt.elaborate().expect("three nodes");
    let mut ev = sys.new_evaluation();
    sys.eval_into(&ckt, &STATES[2][..sys.n], T, &mut ev);
    ev
}

/// Bitwise equality of `G` and `C` as dense matrices (the two systems'
/// union patterns may differ) and of `f`, `q`, `b`.
fn same_values(a: &Evaluation, b: &Evaluation) -> bool {
    let dense_bits = |e: &Evaluation| {
        let (g, c) = (e.g.to_dense(), e.c.to_dense());
        let n = e.f.len();
        let mut bits = Vec::new();
        for r in 0..n {
            for col in 0..n {
                bits.push((g[(r, col)].to_bits(), c[(r, col)].to_bits()));
            }
        }
        bits
    };
    let vec_bits = |e: &Evaluation| -> Vec<u64> {
        e.f.iter()
            .chain(&e.q)
            .chain(&e.b)
            .map(|v| v.to_bits())
            .collect()
    };
    dense_bits(a) == dense_bits(b) && vec_bits(a) == vec_bits(b)
}

enum Outcome {
    /// The block is skipped: as if elaborated with the parameter at 0.
    Skipped,
    /// The block writes: as if elaborated with the parameter already set.
    Writes,
    /// The write hits a position the union lacks.
    Panics,
}

fn check(label: &str, ckt: &Circuit, path: &str, from: f64, to: f64, expect: Outcome) {
    let moved = eval_moved(ckt.clone(), path, from, to);
    match (expect, moved) {
        (Outcome::Skipped, Ok(ev)) => {
            assert!(same_values(&ev, &eval_fresh(ckt.clone(), path, 0.0)));
            assert_eq!(to, 0.0, "{label}: only a zero parameter skips");
        }
        (Outcome::Writes, Ok(ev)) => {
            assert!(
                same_values(&ev, &eval_fresh(ckt.clone(), path, to)),
                "{label}: {path} {from} → {to}"
            );
            assert!(
                ev.c.values().iter().any(|&v| v != 0.0),
                "{label}: C written"
            );
        }
        (Outcome::Panics, Err(msg)) => assert!(
            msg.starts_with("C stamp outside reserved pattern"),
            "{label}: {msg}"
        ),
        (_, Ok(_)) => panic!("{label}: {path} {from} → {to} evaluated"),
        (_, Err(msg)) => panic!("{label}: {path} {from} → {to} panicked: {msg}"),
    }
}

#[test]
fn parameter_gated_blocks_keep_their_outcome_across_zero() {
    let (n0, n1, n2) = (Some(0), Some(1), Some(2));
    // Diode and BJT capacitance blocks lie inside the device's own G
    // block, so moving their parameter off 0 always finds the slots.
    let diode = circuit([Device::Diode(Diode::new("D1", n0, n1))]);
    check("diode", &diode, "D1.cj0", 1e-12, 0.0, Outcome::Skipped);
    check("diode", &diode, "D1.cj0", 0.0, 1e-12, Outcome::Writes);
    let bjt = circuit([Device::Bjt(Bjt::new("Q1", n1, n0, n2))]);
    for path in ["Q1.tf", "Q1.tr"] {
        check("bjt", &bjt, path, 1e-9, 0.0, Outcome::Skipped);
        check("bjt", &bjt, path, 0.0, 1e-9, Outcome::Writes);
    }
    // A MOSFET's G block has no gate row, so a gate capacitance turned on
    // after elaboration finds (g, s) or (g, d) only if another device put
    // it in the union.
    let mos = |extra: Vec<Device>| {
        let m = Mosfet::new("M1", n0, n1, n2, MosPolarity::Nmos);
        circuit(std::iter::once(Device::Mosfet(m)).chain(extra))
    };
    let alone = mos(vec![]);
    let gate_to_source = mos(vec![Device::Resistor(Resistor::new("R1", n1, n2, 1e3))]);
    let gate_to_drain = mos(vec![Device::Resistor(Resistor::new("R1", n1, n0, 1e3))]);
    for path in ["M1.cgs", "M1.cgd"] {
        check("mos", &alone, path, 1e-15, 0.0, Outcome::Skipped);
        check("mos", &alone, path, 0.0, 1e-15, Outcome::Panics);
    }
    check(
        "mos",
        &gate_to_source,
        "M1.cgs",
        0.0,
        1e-15,
        Outcome::Writes,
    );
    check(
        "mos",
        &gate_to_source,
        "M1.cgd",
        0.0,
        1e-15,
        Outcome::Panics,
    );
    check("mos", &gate_to_drain, "M1.cgd", 0.0, 1e-15, Outcome::Writes);
    check("mos", &gate_to_drain, "M1.cgs", 0.0, 1e-15, Outcome::Panics);
    // With the source on ground the cgs block's only non-ground site is
    // the gate diagonal, which elaboration reserves for gmin stepping.
    let grounded = circuit([Device::Mosfet(Mosfet::new(
        "M1",
        n0,
        n1,
        None,
        MosPolarity::Nmos,
    ))]);
    check("mos", &grounded, "M1.cgs", 0.0, 1e-15, Outcome::Writes);
}

#[test]
fn eval_into_rejects_a_circuit_with_another_device_count() {
    let r = |name: &str| Device::Resistor(Resistor::new(name, Some(0), Some(1), 1e3));
    let mut ckt = circuit([r("R1"), r("R2")]);
    let mut sys = ckt.elaborate().expect("three nodes");
    let mut ev = sys.new_evaluation();
    let x = [0.1, 0.2, 0.3];
    for (other, count) in [
        (circuit([r("R1")]), 1),
        (circuit([r("R1"), r("R2"), r("R3")]), 3),
    ] {
        let err = catch_unwind(AssertUnwindSafe(|| sys.eval_into(&other, &x, 0.0, &mut ev)))
            .expect_err("device count differs");
        assert_eq!(
            message(err),
            format!("circuit has {count} devices but this system was elaborated from 2")
        );
    }
}
