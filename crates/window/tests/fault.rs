//! Fault injection: a panicking window lane must surface as the
//! structured [`WindowError::WorkerPanicked`] — never a process abort or
//! a poisoned hang.

use masc_adjoint::Objective;
use masc_circuit::devices::{Capacitor, CurrentSource, Device, Resistor};
use masc_circuit::transient::TranOptions;
use masc_circuit::waveform::Waveform;
use masc_circuit::Circuit;
use masc_window::{run_windowed, WindowError, WindowOptions};

fn ladder(stages: usize) -> Circuit {
    let mut ckt = Circuit::new();
    let nodes: Vec<_> = (0..stages)
        .map(|s| ckt.node(&format!("n{s}")).unknown())
        .collect();
    ckt.add(Device::CurrentSource(CurrentSource::new(
        "I1",
        None,
        nodes[0],
        Waveform::Pulse {
            v1: 0.0,
            v2: 1e-3,
            td: 0.0,
            tr: 1e-9,
            tf: 1e-9,
            pw: 1.0,
            per: 2.0,
        },
    )))
    .unwrap();
    for s in 0..stages {
        ckt.add(Device::Resistor(Resistor::new(
            format!("R{s}"),
            nodes[s],
            None,
            1000.0,
        )))
        .unwrap();
        ckt.add(Device::Capacitor(Capacitor::new(
            format!("C{s}"),
            nodes[s],
            None,
            1e-6,
        )))
        .unwrap();
        if s + 1 < stages {
            ckt.add(Device::Resistor(Resistor::new(
                format!("RS{s}"),
                nodes[s],
                nodes[s + 1],
                500.0,
            )))
            .unwrap();
        }
    }
    ckt
}

/// A lane that panics mid-wave is caught by the scoped join: the caller
/// gets `WorkerPanicked` and the sibling lanes finish or unwind cleanly. A
/// rerun of the same circuit without the fault succeeds, proving nothing
/// global was poisoned.
#[test]
fn panicking_lane_surfaces_as_structured_error() {
    let base = ladder(4);
    let tran = TranOptions::new(1e-3, 5e-5);
    let out = base.find_node("n3").unwrap().unknown().unwrap();
    let objectives = vec![Objective::FinalValue { unknown: out }];
    let params = vec![base.find_param("R0.r").unwrap()];

    let opts = WindowOptions {
        fault_panic_window: Some(1),
        ..WindowOptions::new(4).with_lanes(2)
    };
    let mut ckt = base.clone();

    // The injected panic unwinds inside a scoped worker; silence the
    // default hook so the test log stays clean.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let err = run_windowed(&mut ckt, &tran, &opts, &objectives, &params);
    std::panic::set_hook(prev_hook);

    match err {
        Err(WindowError::WorkerPanicked) => {}
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    // The error is first-class: Display works, source chain terminates.
    let msg = WindowError::WorkerPanicked.to_string();
    assert!(msg.contains("panicked"), "{msg}");

    // Nothing global was poisoned: the same deck runs clean afterwards.
    let mut retry_ckt = base.clone();
    let clean_opts = WindowOptions::new(4).with_lanes(2);
    let run = run_windowed(&mut retry_ckt, &tran, &clean_opts, &objectives, &params)
        .expect("clean rerun after a faulted one");
    assert_eq!(run.stats.windows, 4);
}

/// The fault hook fires regardless of lane count: with serial lanes the
/// panic happens on the caller's thread, so `run_windowed` itself panics —
/// which is why the engine only promises the structured error for
/// concurrent waves. Pin the concurrent contract at lanes = 4 too.
#[test]
fn structured_error_holds_at_higher_lane_counts() {
    let base = ladder(4);
    let tran = TranOptions::new(1e-3, 5e-5);
    let out = base.find_node("n3").unwrap().unknown().unwrap();
    let objectives = vec![Objective::FinalValue { unknown: out }];
    let params = vec![base.find_param("R0.r").unwrap()];
    let opts = WindowOptions {
        fault_panic_window: Some(3),
        ..WindowOptions::new(4).with_lanes(4)
    };
    let mut ckt = base.clone();
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let err = run_windowed(&mut ckt, &tran, &opts, &objectives, &params);
    std::panic::set_hook(prev_hook);
    assert!(matches!(err, Err(WindowError::WorkerPanicked)));
}
