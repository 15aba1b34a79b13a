//! Property pins for degenerate window splits (ISSUE 9 satellite): across
//! randomized step counts and window requests, `split_steps` must cover
//! every transient step exactly once with balanced, boundary-sharing
//! spans; `W = 0` fails structurally; `W > steps` clamps; and the full
//! windowed engine accepts any such split, matching the monolithic
//! pipeline bit for bit at `tol = 0`.
//!
//! Failures replay with `MASC_PROP_REPRO` (masc-testkit seed replay).

use masc_adjoint::{run_adjoint, Objective, StoreConfig};
use masc_circuit::devices::{Capacitor, CurrentSource, Device, Resistor};
use masc_circuit::transient::TranOptions;
use masc_circuit::waveform::Waveform;
use masc_circuit::Circuit;
use masc_testkit::gen;
use masc_testkit::{prop, prop_assert, prop_assert_eq};
use masc_window::{run_windowed, split_steps, WindowError, WindowOptions};

/// A 3-stage pulse-driven RC ladder (no branch unknowns, so windowed runs
/// are bit-comparable to the monolithic pipeline).
fn ladder() -> Circuit {
    let mut ckt = Circuit::new();
    let nodes: Vec<_> = (0..3)
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
    for s in 0..3 {
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
        if s + 1 < 3 {
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

prop! {
    #![cases = 40]

    /// Every transient step `1..=n_steps` lands in exactly one span, spans
    /// share boundary steps, and loads stay within one step of each other.
    fn splits_cover_every_step_exactly_once(
        (n_steps, windows) in (gen::range_usize(1, 200), gen::range_usize(1, 32))
    ) {
        let spans = split_steps(n_steps, windows).unwrap();
        prop_assert_eq!(spans.len(), windows.min(n_steps));
        prop_assert_eq!(spans[0].start, 0);
        prop_assert_eq!(spans.last().unwrap().end, n_steps);
        let mut covered = 0usize;
        for pair in spans.windows(2) {
            prop_assert_eq!(pair[0].end, pair[1].start);
        }
        for span in &spans {
            prop_assert!(!span.is_empty());
            covered += span.len();
        }
        prop_assert_eq!(covered, n_steps);
        let lens: Vec<usize> = spans.iter().map(|s| s.len()).collect();
        let min = *lens.iter().min().unwrap();
        let max = *lens.iter().max().unwrap();
        prop_assert!(max - min <= 1, "unbalanced spans: {:?}", lens);
    }

    /// `W = 0` is a structured error (with Display), never a panic.
    fn zero_windows_is_a_structured_error(n_steps in gen::range_usize(0, 100)) {
        let err = split_steps(n_steps, 0);
        prop_assert!(matches!(err, Err(WindowError::InvalidWindows { .. })));
        let msg = err.unwrap_err().to_string();
        prop_assert!(!msg.is_empty());
    }

    /// Requests for more windows than steps clamp to one step per window.
    fn oversized_requests_clamp(
        (n_steps, excess) in (gen::range_usize(1, 20), gen::range_usize(1, 40))
    ) {
        let spans = split_steps(n_steps, n_steps + excess).unwrap();
        prop_assert_eq!(spans.len(), n_steps);
        prop_assert!(spans.iter().all(|s| s.len() == 1));
    }

    /// The full engine accepts any (steps, windows) split — including
    /// non-divisible and clamped ones — and at `tol = 0` reproduces the
    /// monolithic gradients bit for bit through the per-window compressed
    /// tensors and the deterministic fold... for `W = 1`; multi-window
    /// folds match to 1e-9 (summation order).
    fn any_split_matches_monolithic(
        (steps, windows, lanes) in (
            gen::range_usize(4, 24),
            gen::range_usize(1, 8),
            gen::range_usize(1, 4),
        )
    ) {
        let base = ladder();
        let dt = 5e-5;
        let tran = TranOptions::new(dt * steps as f64, dt);
        let out = base.find_node("n2").unwrap().unknown().unwrap();
        let objectives = vec![
            Objective::FinalValue { unknown: out },
            Objective::Integral { unknown: out },
        ];
        let params = vec![
            base.find_param("R0.r").unwrap(),
            base.find_param("C1.c").unwrap(),
        ];

        let mut ckt = base.clone();
        let opts = WindowOptions::new(windows).with_lanes(lanes);
        let win = run_windowed(&mut ckt, &tran, &opts, &objectives, &params).unwrap();
        prop_assert_eq!(win.stats.windows, windows.min(steps));

        let mut mono_ckt = base.clone();
        let single = run_adjoint(
            &mut mono_ckt,
            &tran,
            &StoreConfig::RawMemory,
            &objectives,
            &params,
        )
        .unwrap();
        for (i, row) in single.sensitivities.values.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                let a = win.sensitivities[i][j];
                if win.stats.windows == 1 {
                    prop_assert_eq!(a.to_bits(), v.to_bits());
                } else {
                    let scale = a.abs().max(v.abs()).max(1e-30);
                    prop_assert!(
                        (a - v).abs() / scale <= 1e-9,
                        "W={} obj {} param {}: {:e} vs {:e}",
                        win.stats.windows, i, j, a, v
                    );
                }
            }
        }
        for (i, &v) in single.objective_values.iter().enumerate() {
            prop_assert_eq!(win.objective_values[i].to_bits(), v.to_bits());
        }
    }
}
