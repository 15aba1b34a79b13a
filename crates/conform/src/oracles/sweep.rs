//! Batched-sweep equivalence oracle.
//!
//! `sweep-equivalence` is the differential check behind `masc-sweep`'s two
//! headline claims: an N-instance sweep over one shared-structure
//! super-tensor must produce exactly the gradients of N independent
//! single runs, and neither the stored byte count nor a gradient bit may
//! depend on how many worker threads produced them.
//!
//! Cases are current-source-driven RC ladders: linear, diagonally
//! dominant decks where the pivot sequence is the structural diagonal for
//! every parameter variant, so bit-for-bit equality between the
//! shared-symbolic sweep and fresh per-variant factorizations is the
//! *expected* outcome, not a lucky one.

use crate::oracle::Oracle;
use masc_adjoint::{run_adjoint, Objective, StoreConfig};
use masc_circuit::devices::{Capacitor, CurrentSource, Device, Resistor};
use masc_circuit::transient::TranOptions;
use masc_circuit::waveform::Waveform;
use masc_circuit::Circuit;
use masc_sweep::{run_sweep, SweepPlan};
use masc_testkit::Rng;

/// A decoded sweep case: ladder size, step count, and per-variant
/// resistor scale factors.
struct SweepCase {
    stages: usize,
    steps: usize,
    scales: Vec<f64>,
}

/// Byte layout: `[stages][n_variants][steps][scale byte per variant]`.
/// Anything too short is a vacuous pass.
fn decode_case(input: &[u8]) -> Option<SweepCase> {
    let (&stages_b, rest) = input.split_first()?;
    let (&nvar_b, rest) = rest.split_first()?;
    let (&steps_b, rest) = rest.split_first()?;
    let stages = 2 + usize::from(stages_b) % 4;
    let n_variants = 2 + usize::from(nvar_b) % 3;
    let steps = 5 + usize::from(steps_b) % 16;
    if rest.len() < n_variants {
        return None;
    }
    let scales = rest[..n_variants]
        .iter()
        .map(|&b| 1.0 + 0.02 * f64::from(b % 32))
        .collect();
    Some(SweepCase {
        stages,
        steps,
        scales,
    })
}

/// Builds the current-source RC ladder for `stages`.
fn ladder(stages: usize) -> Result<Circuit, String> {
    let mut ckt = Circuit::new();
    let nodes: Vec<_> = (0..stages)
        .map(|s| ckt.node(&format!("n{s}")).unknown())
        .collect();
    let mut add = |d: Device| ckt.add(d).map(|_| ()).map_err(|e| format!("{e:?}"));
    add(Device::CurrentSource(CurrentSource::new(
        "I1",
        None,
        nodes[0],
        Waveform::Dc(1e-3),
    )))?;
    for s in 0..stages {
        add(Device::Resistor(Resistor::new(
            format!("R{s}"),
            nodes[s],
            None,
            1000.0,
        )))?;
        add(Device::Capacitor(Capacitor::new(
            format!("C{s}"),
            nodes[s],
            None,
            1e-6,
        )))?;
        if s + 1 < stages {
            add(Device::Resistor(Resistor::new(
                format!("RS{s}"),
                nodes[s],
                nodes[s + 1],
                500.0,
            )))?;
        }
    }
    Ok(ckt)
}

fn plan_for(base: &Circuit, case: &SweepCase, workers: usize) -> Result<SweepPlan, String> {
    let dt = 5e-5;
    let tran = TranOptions::new(dt * case.steps as f64, dt);
    let probe = base
        .find_node("n0")
        .and_then(|n| n.unknown())
        .ok_or("ladder has no n0 unknown")?;
    let objectives = vec![
        Objective::FinalValue { unknown: probe },
        Objective::Integral { unknown: probe },
    ];
    let r0 = base.find_param("R0.r").ok_or("R0.r missing")?;
    let c0 = base.find_param("C0.c").ok_or("C0.c missing")?;
    let params = vec![r0.clone(), c0];
    let mut plan = SweepPlan::new(tran, objectives, params).with_workers(workers);
    for &scale in &case.scales {
        plan.push_variant(vec![(r0.clone(), 1000.0 * scale)]);
    }
    Ok(plan)
}

/// N-instance sweep equals N independent single runs, and its stored
/// bytes and gradients are invariant to the worker count.
pub struct SweepEquivalence;

impl Oracle for SweepEquivalence {
    fn name(&self) -> &'static str {
        "sweep-equivalence"
    }

    fn describe(&self) -> &'static str {
        "batched sweep matches independent runs bit-exact; stored bytes and gradients worker-invariant"
    }

    fn generate(&self, rng: &mut Rng) -> Vec<u8> {
        let n_variants = 2 + rng.below(3) as usize;
        let mut case = vec![
            rng.below(256) as u8,
            (n_variants - 2) as u8,
            rng.below(256) as u8,
        ];
        for _ in 0..n_variants {
            case.push(rng.below(256) as u8);
        }
        case
    }

    fn check(&self, input: &[u8]) -> Result<(), String> {
        let Some(case) = decode_case(input) else {
            return Ok(());
        };
        let base = ladder(case.stages)?;
        let plan = plan_for(&base, &case, 1)?;
        let serial = run_sweep(&base, &plan).map_err(|e| format!("serial sweep failed: {e}"))?;

        // Claim 1: the stored bytes and the gradients must not depend on
        // the worker count.
        let threaded_plan = plan_for(&base, &case, 3)?;
        let threaded =
            run_sweep(&base, &threaded_plan).map_err(|e| format!("threaded sweep failed: {e}"))?;
        let (a, b) = (
            serial.stats.super_tensor_bytes,
            threaded.stats.super_tensor_bytes,
        );
        if a != b {
            return Err(format!(
                "stored bytes depend on worker count: {a} vs {b} bytes"
            ));
        }
        for (k, (s, t)) in serial
            .sensitivities
            .iter()
            .zip(&threaded.sensitivities)
            .enumerate()
        {
            let differs = s
                .values
                .iter()
                .flatten()
                .zip(t.values.iter().flatten())
                .any(|(x, y)| x.to_bits() != y.to_bits());
            if differs {
                return Err(format!("instance {k} gradients depend on worker count"));
            }
        }

        // Claim 2: each instance equals an independent single run.
        for (k, variant) in plan.variants.iter().enumerate() {
            let mut ckt = base.clone();
            for (p, v) in variant {
                ckt.set_param_value(p, *v);
            }
            let single = run_adjoint(
                &mut ckt,
                &plan.tran,
                &StoreConfig::RawMemory,
                &plan.objectives,
                &plan.params,
            )
            .map_err(|e| format!("single run {k} failed where sweep succeeded: {e:?}"))?;
            for run in [&serial, &threaded] {
                for (oi, single_row) in single.sensitivities.values.iter().enumerate() {
                    let sweep_row = &run.sensitivities[k].values[oi];
                    for (pi, (&a, &b)) in sweep_row.iter().zip(single_row).enumerate() {
                        if a.to_bits() != b.to_bits() {
                            return Err(format!(
                                "instance {k} d(obj {oi})/d(param {pi}): sweep {a:?} vs single {b:?}"
                            ));
                        }
                    }
                }
            }
            for (oi, (&a, &b)) in serial.objective_values[k]
                .iter()
                .zip(&single.objective_values)
                .enumerate()
            {
                if a.to_bits() != b.to_bits() {
                    return Err(format!(
                        "instance {k} objective {oi}: sweep {a:?} vs single {b:?}"
                    ));
                }
            }
        }
        Ok(())
    }
}
