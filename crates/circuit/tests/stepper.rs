//! The one backward-Euler stepper is the whole of `transient`'s arithmetic:
//! a loop written directly against [`BeStepper`] with `transient_ws`'s
//! schedule reproduces `transient` bit for bit on a nonlinear deck — fixed
//! grid and adaptive, the latter through a forced Newton failure + retry.

#![allow(clippy::disallowed_methods)] // tests may unwrap/expect

use masc_circuit::dc::dc_operating_point_ws;
use masc_circuit::parser::parse_netlist;
use masc_circuit::transient::{transient, BeStepper, NullSink, TranOptions};
use masc_circuit::NewtonOptions;
use masc_sparse::LuWorkspace;

/// A diode clipper hit by a fast 0 → 40 V edge: at DC the source is off
/// (trivial operating point), then the edge drags the junction through its
/// exponential knee, where damped Newton needs many iterations per volt.
const DECK: &str = "V1 in 0 PULSE(0 40 1u 400n 400n 4u 10u)\n\
                    R1 in out 1k\n\
                    D1 out 0 IS=1e-14 CJ0=10p\n\
                    C1 out 0 100p\n\
                    .tran 200n 4u\n\
                    .end";

struct Trace {
    times: Vec<f64>,
    hs: Vec<f64>,
    states: Vec<Vec<f64>>,
    retries: usize,
}

/// `transient_ws`'s schedule, written out against the stepper.
fn stepper_loop(opts: &TranOptions) -> Trace {
    let parsed = parse_netlist(DECK).unwrap();
    let mut circuit = parsed.circuit;
    let mut system = circuit.elaborate().unwrap();
    let mut lu = LuWorkspace::new();
    let mut x_prev = dc_operating_point_ws(&circuit, &mut system, &opts.newton, &mut lu)
        .unwrap()
        .x;
    let mut be = BeStepper::new(&system, opts.newton);
    be.start(&circuit, &mut system, &x_prev, 0.0);
    let mut trace = Trace {
        times: vec![0.0],
        hs: vec![opts.dt],
        states: vec![x_prev.clone()],
        retries: 0,
    };
    let mut x = x_prev.clone();
    let (mut t_now, mut h, mut step) = (0.0f64, opts.dt, 0usize);
    while t_now < opts.t_stop * (1.0 - 1e-12) {
        step += 1;
        let (t, h_used) = match &opts.adaptive {
            None => (step as f64 * opts.dt, opts.dt),
            Some(_) => {
                let h_clamped = h.min(opts.t_stop - t_now);
                (t_now + h_clamped, h_clamped)
            }
        };
        let attempt = be.step(&circuit, &mut system, &mut lu, &mut x, t, h_used);
        let newton = match (attempt, &opts.adaptive) {
            (Ok(newton), _) => newton,
            (Err(e), None) => panic!("fixed-grid step {step} failed: {e}"),
            (Err(e), Some(adaptive)) => {
                assert!(h / 2.0 >= adaptive.h_min, "step {step} underflowed: {e}");
                h /= 2.0;
                x.copy_from_slice(&x_prev);
                step -= 1;
                trace.retries += 1;
                continue;
            }
        };
        x_prev.copy_from_slice(&x);
        t_now = t;
        trace.times.push(t);
        trace.hs.push(h_used);
        trace.states.push(x.clone());
        if let Some(adaptive) = &opts.adaptive {
            if newton.iterations <= adaptive.grow_below {
                h = (h * 1.5).min(adaptive.h_max);
            } else if newton.iterations >= adaptive.shrink_above {
                h = (h * 0.5).max(adaptive.h_min);
            }
        }
    }
    trace
}

fn assert_matches_transient(opts: &TranOptions, trace: &Trace) {
    let parsed = parse_netlist(DECK).unwrap();
    let mut circuit = parsed.circuit;
    let mut system = circuit.elaborate().unwrap();
    let reference = transient(&circuit, &mut system, opts, &mut NullSink).unwrap();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&trace.times), bits(&reference.times));
    assert_eq!(bits(&trace.hs), bits(&reference.steps));
    assert_eq!(trace.states.len(), reference.states.len());
    for (n, (a, b)) in trace.states.iter().zip(&reference.states).enumerate() {
        assert_eq!(bits(a), bits(b), "state {n} differs");
    }
}

#[test]
fn stepper_loop_is_transient_on_the_fixed_grid() {
    let opts = parse_netlist(DECK).unwrap().tran.unwrap();
    let trace = stepper_loop(&opts);
    assert_eq!(trace.times.len(), opts.step_count() + 1);
    assert_matches_transient(&opts, &trace);
}

#[test]
fn stepper_loop_is_transient_through_adaptive_retries() {
    let mut opts = parse_netlist(DECK)
        .unwrap()
        .tran
        .unwrap()
        .with_adaptive(4.0, 64.0);
    // Too few iterations to cross the diode knee in one full-size step:
    // the edge must fail and be retried at a halved `h`.
    opts.newton = NewtonOptions {
        max_iter: 14,
        ..NewtonOptions::default()
    };
    let trace = stepper_loop(&opts);
    assert!(
        trace.retries > 0,
        "the deck must force at least one Newton failure + retry"
    );
    assert_matches_transient(&opts, &trace);
}
