//! The one backward-Euler stepper is the whole of `transient`'s arithmetic:
//! a loop written directly against [`BeStepper`] with `transient_into`'s
//! schedule reproduces `transient` bit for bit on a nonlinear deck — fixed
//! grid and adaptive, the latter through a forced Newton failure + retry —
//! and its Newton iteration count (the DC solve's plus each accepted step's)
//! is `transient`'s.
//! And `transient`'s collected trajectory is exactly what a recording sink
//! sees through `transient_into`, failures included.

use masc_circuit::dc::dc_operating_point_ws;
use masc_circuit::parser::parse_netlist;
use masc_circuit::transient::{
    transient, transient_into, BeStepper, JacobianSink, NullSink, SinkError, TranError, TranOptions,
};
use masc_circuit::{Circuit, NewtonOptions, System};
use masc_sparse::{CsrMatrix, LuWorkspace};

/// A diode clipper hit by a fast 0 → 40 V edge: at DC the source is off
/// (trivial operating point), then the edge drags the junction through its
/// exponential knee, where damped Newton needs many iterations per volt.
const DECK: &str = "V1 in 0 PULSE(0 40 1u 400n 400n 4u 10u)\n\
                    R1 in out 1k\n\
                    D1 out 0 IS=1e-14 CJ0=10p\n\
                    C1 out 0 100p\n\
                    .tran 200n 4u\n\
                    .end";

/// The deck's circuit and a freshly elaborated system.
fn fresh_system() -> (Circuit, System) {
    let mut circuit = parse_netlist(DECK).unwrap().circuit;
    let system = circuit.elaborate().unwrap();
    (circuit, system)
}

struct Trace {
    times: Vec<f64>,
    hs: Vec<f64>,
    states: Vec<Vec<f64>>,
    retries: usize,
    newton_iterations: usize,
}

/// `transient_into`'s schedule, written out against the stepper.
fn stepper_loop(opts: &TranOptions) -> Trace {
    let (circuit, mut system) = fresh_system();
    let mut lu = LuWorkspace::new();
    let dc = dc_operating_point_ws(&circuit, &mut system, &opts.newton, &mut lu).unwrap();
    let mut x_prev = dc.x;
    let mut be = BeStepper::new(&system, opts.newton);
    be.start(&circuit, &mut system, &x_prev, 0.0);
    let mut trace = Trace {
        times: vec![0.0],
        hs: vec![opts.dt],
        states: vec![x_prev.clone()],
        retries: 0,
        newton_iterations: dc.iterations,
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
        let iterations = match (attempt, &opts.adaptive) {
            (Ok(iterations), _) => iterations,
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
        trace.newton_iterations += iterations;
        if let Some(adaptive) = &opts.adaptive {
            if iterations <= adaptive.grow_below {
                h = (h * 1.5).min(adaptive.h_max);
            } else if iterations >= adaptive.shrink_above {
                h = (h * 0.5).max(adaptive.h_min);
            }
        }
    }
    trace
}

fn assert_matches_transient(opts: &TranOptions, trace: &Trace) {
    let (circuit, mut system) = fresh_system();
    let reference = transient(&circuit, &mut system, opts, &mut NullSink).unwrap();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&trace.times), bits(&reference.times));
    assert_eq!(bits(&trace.hs), bits(&reference.steps));
    assert_eq!(trace.states.len(), reference.states.len());
    for (n, (a, b)) in trace.states.iter().zip(&reference.states).enumerate() {
        assert_eq!(bits(a), bits(b), "state {n} differs");
    }
    assert_eq!(trace.newton_iterations, reference.stats.newton_iterations);
}

#[test]
fn stepper_loop_is_transient_on_the_fixed_grid() {
    let opts = parse_netlist(DECK).unwrap().tran.unwrap();
    let trace = stepper_loop(&opts);
    assert_eq!(trace.times.len(), opts.step_count() + 1);
    assert_matches_transient(&opts, &trace);
}

/// The deck's grid made adaptive, with too few Newton iterations to cross
/// the diode knee in one full-size step: the edge must fail and be retried
/// at a halved `h`.
fn adaptive_with_retries() -> TranOptions {
    let mut opts = parse_netlist(DECK)
        .unwrap()
        .tran
        .unwrap()
        .with_adaptive(4.0, 64.0);
    opts.newton = NewtonOptions {
        max_iter: 14,
        ..NewtonOptions::default()
    };
    opts
}

#[test]
fn stepper_loop_is_transient_through_adaptive_retries() {
    let opts = adaptive_with_retries();
    let trace = stepper_loop(&opts);
    assert!(
        trace.retries > 0,
        "the deck must force at least one Newton failure + retry"
    );
    assert_matches_transient(&opts, &trace);
}

/// A sink that keeps every `(t, h, x)` it is offered and rejects step
/// `fail_at`, if set.
#[derive(Default)]
struct Recorder {
    trace: Vec<(f64, f64, Vec<f64>)>,
    fail_at: Option<usize>,
}

impl JacobianSink for Recorder {
    fn on_step(
        &mut self,
        step: usize,
        t: f64,
        h: f64,
        x: &[f64],
        _: &CsrMatrix,
        _: &CsrMatrix,
    ) -> Result<(), SinkError> {
        if self.fail_at == Some(step) {
            return Err(SinkError::new(std::io::Error::other("sink full")));
        }
        self.trace.push((t, h, x.to_vec()));
        Ok(())
    }
}

/// `transient`'s collected result equals what a recording sink sees
/// through `transient_into`, bit for bit, with the same step counts.
fn assert_collection_is_the_sink_view(opts: &TranOptions) {
    let (circuit, mut system) = fresh_system();
    let reference = transient(&circuit, &mut system, opts, &mut NullSink).unwrap();

    let (circuit, mut system) = fresh_system();
    let mut recorder = Recorder::default();
    let stats = transient_into(
        &circuit,
        &mut system,
        opts,
        &mut recorder,
        &mut LuWorkspace::new(),
    )
    .unwrap();

    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let times: Vec<f64> = recorder.trace.iter().map(|p| p.0).collect();
    let hs: Vec<f64> = recorder.trace.iter().map(|p| p.1).collect();
    assert_eq!(bits(&times), bits(&reference.times));
    assert_eq!(bits(&hs), bits(&reference.steps));
    assert_eq!(recorder.trace.len(), reference.states.len());
    for (n, (p, x)) in recorder.trace.iter().zip(&reference.states).enumerate() {
        assert_eq!(bits(&p.2), bits(x), "state {n} differs");
    }
    assert_eq!(stats.steps, reference.stats.steps);
    assert_eq!(stats.newton_iterations, reference.stats.newton_iterations);
    assert_eq!(stats.steps + 1, reference.times.len());
}

#[test]
fn transient_collects_what_transient_into_feeds_the_sink() {
    let fixed = parse_netlist(DECK).unwrap().tran.unwrap();
    assert_collection_is_the_sink_view(&fixed);

    // 4 µs / 300 ns is not an integer: the last step overshoots t_stop.
    let uneven = TranOptions::new(4e-6, 3e-7);
    assert_eq!(uneven.step_count(), 14);
    assert_collection_is_the_sink_view(&uneven);

    assert_collection_is_the_sink_view(&adaptive_with_retries());
}

#[test]
fn a_failing_sink_stops_both_entry_points_at_the_same_step() {
    let fixed = parse_netlist(DECK).unwrap().tran.unwrap();
    for opts in [fixed, adaptive_with_retries()] {
        for fail_at in [0, 1, 7] {
            let (circuit, mut system) = fresh_system();
            let mut sink = Recorder {
                fail_at: Some(fail_at),
                ..Recorder::default()
            };
            let collected = transient(&circuit, &mut system, &opts, &mut sink).unwrap_err();

            let (circuit, mut system) = fresh_system();
            let mut sink = Recorder {
                fail_at: Some(fail_at),
                ..Recorder::default()
            };
            let streamed = transient_into(
                &circuit,
                &mut system,
                &opts,
                &mut sink,
                &mut LuWorkspace::new(),
            )
            .unwrap_err();
            assert_eq!(sink.trace.len(), fail_at);

            match (collected, streamed) {
                (
                    TranError::Sink {
                        step: s0, t: t0, ..
                    },
                    TranError::Sink {
                        step: s1, t: t1, ..
                    },
                ) => {
                    assert_eq!(s0, fail_at);
                    assert_eq!(s1, fail_at);
                    assert_eq!(t0.to_bits(), t1.to_bits());
                }
                other => panic!("expected two sink errors, got {other:?}"),
            }
        }
    }
}

#[test]
fn a_step_evaluates_once_per_newton_iteration_plus_the_converged_point() {
    let opts = parse_netlist(DECK).unwrap().tran.unwrap();
    let (circuit, mut system) = fresh_system();
    let mut lu = LuWorkspace::new();
    let mut x = dc_operating_point_ws(&circuit, &mut system, &opts.newton, &mut lu)
        .unwrap()
        .x;
    let mut be = BeStepper::new(&system, opts.newton);
    be.start(&circuit, &mut system, &x, 0.0);
    let mut check = system.new_evaluation();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for step in 1..=opts.step_count() {
        let t = step as f64 * opts.dt;
        let before = system.device_eval_count();
        let iterations = be
            .step(&circuit, &mut system, &mut lu, &mut x, t, opts.dt)
            .unwrap();
        assert_eq!(
            system.device_eval_count() - before,
            iterations as u64 + 1,
            "step {step}"
        );
        // What the stepper holds is the evaluation of the converged point.
        system.eval_into(&circuit, &x, t, &mut check);
        assert_eq!(bits(be.ev.g.values()), bits(check.g.values()));
        assert_eq!(bits(be.ev.c.values()), bits(check.c.values()));
        assert_eq!(bits(&be.ev.f), bits(&check.f));
        assert_eq!(bits(&be.ev.q), bits(&check.q));
        assert_eq!(bits(&be.ev.b), bits(&check.b));
        assert_eq!(bits(be.q_prev()), bits(&check.q));
    }
}
