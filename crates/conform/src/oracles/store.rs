//! End-to-end store and adjoint oracles.
//!
//! `store-equiv` is the differential check behind the paper's lossless
//! claim at system level: the MASC-compressed store, with and without the
//! Markov selection predictor, must produce the same objective values and
//! adjoint gradients as the raw in-memory store, bit for bit, on the same
//! deck — compression may change *how* bytes are kept but never *what*
//! the reverse pass reads. This is the oracle that catches the
//! `StaleReplayBlock` injected defect.
//!
//! `adjoint-oracle` cross-checks the adjoint gradients against two
//! independent computations of the same quantity: direct (forward)
//! sensitivities on the recorded trajectory, and central finite
//! differences.

use crate::oracle::Oracle;
use masc_adjoint::store::TensorLayout;
use masc_adjoint::{
    direct_sensitivities, finite_difference, run_adjoint, ForwardRecord, Objective, SensitivityRun,
    StoreConfig,
};
use masc_circuit::parser::{parse_netlist, ParsedNetlist};
use masc_circuit::transient::{transient, TranOptions};
use masc_circuit::{Circuit, ParamRef};
use masc_compress::MascConfig;
use masc_testkit::gen::{self, Gen};
use masc_testkit::Rng;

/// A deck parsed and size-bounded for end-to-end runs.
struct DeckCase {
    circuit: Circuit,
    tran: TranOptions,
    objectives: Vec<Objective>,
    params: Vec<ParamRef>,
}

/// Parses `input` as a deck and rejects cases too large for an
/// end-to-end differential run (vacuous pass — fuzz budget control, not
/// correctness).
fn decode_deck(input: &[u8], max_params: usize) -> Option<DeckCase> {
    let text = String::from_utf8_lossy(input);
    let parsed: ParsedNetlist = parse_netlist(&text).ok()?;
    let tran = parsed.tran.clone()?;
    let circuit = parsed.circuit;
    if circuit.node_count() == 0
        || circuit.node_count() > 40
        || circuit.devices().len() > 80
        || tran.dt <= 0.0
        || tran.dt.is_nan()
        || tran.t_stop / tran.dt > 220.0
    {
        return None;
    }
    let objectives = vec![
        Objective::Integral { unknown: 0 },
        Objective::FinalValue { unknown: 0 },
    ];
    let mut params = circuit.params();
    params.truncate(max_params);
    if params.is_empty() {
        return None;
    }
    Some(DeckCase {
        circuit,
        tran,
        objectives,
        params,
    })
}

pub(crate) fn deck_gen(rng: &mut Rng) -> Vec<u8> {
    let mut deck = gen::netlists(3).generate(rng).into_bytes();
    if rng.below(5) == 0 {
        crate::geninput::mutate(rng, &mut deck);
    }
    deck
}

fn run_with(case: &DeckCase, store: &StoreConfig) -> Result<SensitivityRun, String> {
    let mut circuit = case.circuit.clone();
    run_adjoint(
        &mut circuit,
        &case.tran,
        store,
        &case.objectives,
        &case.params,
    )
    .map_err(|e| format!("{e:?}"))
}

fn compare_runs(
    name: &str,
    reference: &SensitivityRun,
    got: &SensitivityRun,
) -> Result<(), String> {
    for (i, (a, b)) in reference
        .objective_values
        .iter()
        .zip(&got.objective_values)
        .enumerate()
    {
        if a.to_bits() != b.to_bits() {
            return Err(format!(
                "{name}: objective {i} diverged from raw store: {a:?} vs {b:?}"
            ));
        }
    }
    for (oi, (ra, rb)) in reference
        .sensitivities
        .values
        .iter()
        .zip(&got.sensitivities.values)
        .enumerate()
    {
        if ra.len() != rb.len() {
            return Err(format!("{name}: sensitivity row {oi} length mismatch"));
        }
        for (pi, (a, b)) in ra.iter().zip(rb).enumerate() {
            if a.to_bits() != b.to_bits() {
                return Err(format!(
                    "{name}: d(obj {oi})/d(param {pi}) diverged from raw store: {a:?} vs {b:?}"
                ));
            }
        }
    }
    Ok(())
}

/// Both compressed-store configurations yield the same objectives and
/// gradients as the raw in-memory store.
pub struct StoreEquivalence;

impl Oracle for StoreEquivalence {
    fn name(&self) -> &'static str {
        "store-equiv"
    }

    fn describe(&self) -> &'static str {
        "compressed stores (Markov on/off) match the raw store bit-exact"
    }

    fn generate(&self, rng: &mut Rng) -> Vec<u8> {
        deck_gen(rng)
    }

    fn check(&self, input: &[u8]) -> Result<(), String> {
        let Some(mut case) = decode_deck(input, 4) else {
            return Ok(());
        };
        // Node 0 is usually pinned by a source, so its gradients barely
        // read the stored `G`; the last-named node sees the whole deck.
        case.objectives.push(Objective::Integral {
            unknown: case.circuit.node_count() - 1,
        });
        let reference = match run_with(&case, &StoreConfig::RawMemory) {
            Ok(run) => run,
            // A deck the solver rejects (singular matrix, Newton failure)
            // is a vacuous pass — backend equivalence is only defined for
            // decks the reference backend can run.
            Err(_) => return Ok(()),
        };
        let configs = [
            ("compressed", MascConfig::default()),
            (
                "compressed-no-markov",
                MascConfig::default().with_markov(false),
            ),
        ];
        for (name, masc) in configs {
            let got = run_with(&case, &StoreConfig::Compressed(masc))
                .map_err(|e| format!("{name} store run failed where raw succeeded: {e}"))?;
            compare_runs(name, &reference, &got)?;
        }
        Ok(())
    }

    fn shrink(&self, input: &[u8]) -> Vec<Vec<u8>> {
        crate::minimize::line_candidates(input)
    }
}

/// Adjoint gradients agree with direct (forward) sensitivities tightly
/// and with central finite differences loosely.
pub struct AdjointOracle;

impl Oracle for AdjointOracle {
    fn name(&self) -> &'static str {
        "adjoint-oracle"
    }

    fn describe(&self) -> &'static str {
        "adjoint ≈ direct sensitivities ≈ finite differences"
    }

    fn generate(&self, rng: &mut Rng) -> Vec<u8> {
        deck_gen(rng)
    }

    fn check(&self, input: &[u8]) -> Result<(), String> {
        let Some(case) = decode_deck(input, 2) else {
            return Ok(());
        };
        let adjoint = match run_with(&case, &StoreConfig::Compressed(MascConfig::default())) {
            Ok(run) => run,
            // A deck the solver rejects (singular matrix, Newton failure)
            // is a vacuous pass — convergence is not this oracle's claim.
            Err(_) => return Ok(()),
        };

        // Independent reference 1: direct sensitivities on a fresh
        // forward trajectory.
        let mut circuit = case.circuit.clone();
        let mut system = circuit.elaborate().map_err(|e| format!("{e:?}"))?;
        let mut record = ForwardRecord::new(TensorLayout::of(&system), &StoreConfig::RawMemory)
            .map_err(|e| format!("{e:?}"))?;
        if transient(&circuit, &mut system, &case.tran, &mut record).is_err() {
            return Ok(());
        }
        let (meta, _) = record.into_parts().map_err(|e| format!("{e:?}"))?;
        let direct =
            direct_sensitivities(&circuit, &mut system, &meta, &case.objectives, &case.params)
                .map_err(|e| format!("direct sensitivities failed: {e:?}"))?;

        for (oi, (arow, drow)) in adjoint.sensitivities.values.iter().zip(&direct).enumerate() {
            for (pi, (&a, &d)) in arow.iter().zip(drow).enumerate() {
                let scale = a.abs().max(d.abs()).max(1e-9);
                if !a.is_finite() || !d.is_finite() || (a - d).abs() > 1e-5 * scale {
                    return Err(format!(
                        "adjoint vs direct mismatch at obj {oi} param {pi}: {a:?} vs {d:?}"
                    ));
                }
            }
        }

        // Independent reference 2: central finite differences (loose —
        // FD carries truncation and cancellation error).
        for (pi, param) in case.params.iter().enumerate() {
            let fd = match finite_difference(
                &case.circuit,
                &case.tran,
                &case.objectives[0],
                param,
                1e-5,
            ) {
                Ok(v) => v,
                Err(_) => continue,
            };
            let a = adjoint.sensitivities.values[0][pi];
            let scale = a.abs().max(fd.abs()).max(1e-6);
            if !fd.is_finite() || (a - fd).abs() > 5e-2 * scale {
                return Err(format!(
                    "adjoint vs finite difference mismatch at param {pi}: {a:?} vs {fd:?}"
                ));
            }
        }
        Ok(())
    }

    fn shrink(&self, input: &[u8]) -> Vec<Vec<u8>> {
        crate::minimize::line_candidates(input)
    }
}
