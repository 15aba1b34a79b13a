//! Cross-crate integration tests: netlist text → simulator → Jacobian
//! stores → adjoint sensitivities → compression, exercised together.

use masc::adjoint::{finite_difference, run_adjoint, run_xyce_like, Objective, StoreConfig};
use masc::baselines::{Compressor, GzipLike, NdzipLike, SpiceMate};
use masc::circuit::parser::parse_netlist;
use masc::circuit::transient::TranOptions;
use masc::compress::{MascConfig, TensorCompressor};
use masc::datasets::capture;
use masc::datasets::generators::rc_ladder;
use masc::datasets::registry::{table1_circuits, table2_datasets};
use masc_testkit::rng::Rng;

/// Full pipeline from netlist text through the compressed-store adjoint.
#[test]
fn netlist_to_sensitivity_with_compression() {
    let mut parsed = parse_netlist(
        "integration test deck\n\
         V1 in 0 PULSE(0 3.3 0 20n 20n 400n 1u)\n\
         R1 in mid 2.2k\n\
         D1 mid load IS=1e-14 CJ0=4p\n\
         R2 load 0 10k\n\
         C1 load 0 3p\n\
         M1 out mid 0 NMOS KP=1e-4 CGS=15f CGD=5f\n\
         RL vdd out 12k\n\
         VDD vdd 0 DC 3.3\n\
         C2 out 0 10f\n\
         .tran 2n 1u\n\
         .end",
    )
    .expect("valid netlist");
    let tran = parsed.tran.clone().expect(".tran present");
    let out = parsed
        .circuit
        .find_node("out")
        .expect("node")
        .unknown()
        .expect("not ground");
    let objectives = [
        Objective::Integral { unknown: out },
        Objective::FinalValue { unknown: out },
    ];
    let params: Vec<_> = parsed.circuit.params();
    assert!(params.len() >= 10);

    let run = run_adjoint(
        &mut parsed.circuit,
        &tran,
        &StoreConfig::Compressed(MascConfig::default()),
        &objectives,
        &params,
    )
    .expect("pipeline runs");
    assert_eq!(run.sensitivities.values.len(), 2);
    assert_eq!(run.sensitivities.values[0].len(), params.len());
    // The integral of a driven node must depend on the drive level.
    let j_vin = params
        .iter()
        .position(|p| p.path == "V1.scale")
        .expect("param exists");
    assert!(
        run.sensitivities.values[0][j_vin].abs() > 1e-12,
        "output must be sensitive to its input"
    );
    // Everything finite.
    for row in &run.sensitivities.values {
        assert!(row.iter().all(|v| v.is_finite()));
    }
}

/// The Xyce-like schedule and the batched compressed store agree exactly.
#[test]
fn xyce_like_and_masc_store_agree() {
    let spec = &table1_circuits()[0]; // CHIP_01 analogue
    let (circuit, tran) = spec.build_circuit(0.2);
    let params: Vec<_> = circuit
        .params()
        .into_iter()
        .filter(|p| p.path.ends_with(".r"))
        .take(6)
        .collect();
    let objectives = [Objective::Integral { unknown: 2 }];

    let mut a = circuit.clone();
    let xyce = run_xyce_like(&mut a, &tran, &objectives, &params).expect("runs");
    let mut b = circuit.clone();
    let masc = run_adjoint(
        &mut b,
        &tran,
        &StoreConfig::Compressed(MascConfig::default()),
        &objectives,
        &params,
    )
    .expect("runs");
    for (x, m) in xyce.sensitivities.values[0]
        .iter()
        .zip(&masc.sensitivities.values[0])
    {
        let scale = x.abs().max(1e-15);
        assert!(
            ((x - m) / scale).abs() < 1e-9,
            "xyce-like {x:e} vs masc {m:e}"
        );
    }
}

/// Every registry dataset compresses losslessly through the tensor path
/// and beats the pattern-blind NDZIP-style baseline.
#[test]
fn registry_datasets_compress_losslessly() {
    for spec in table2_datasets().iter().take(3) {
        let dataset = spec.generate(0.06).expect("generates");
        // MASC tensor round trip, both tensors.
        for (pattern, series) in [
            (&dataset.g_pattern, &dataset.g_series),
            (&dataset.c_pattern, &dataset.c_series),
        ] {
            let mut tc = TensorCompressor::new(pattern.clone(), MascConfig::default());
            for m in series.iter() {
                tc.push(m);
            }
            let tensor = tc.finish();
            let all = tensor.decompress_all().expect("lossless");
            for (a, b) in all.iter().zip(series.iter()) {
                assert_eq!(a, b, "{}", spec.name);
            }
        }
        // Baselines round-trip the same stream.
        let stream = dataset.value_stream();
        for c in [
            Box::new(GzipLike::new()) as Box<dyn Compressor>,
            Box::new(NdzipLike::new()),
        ] {
            let out = c.decompress(&c.compress(&stream)).expect("valid");
            assert_eq!(out.len(), stream.len());
        }
        // Lossy baseline honors its bound on simulator data.
        let sm = SpiceMate::new(1e-9);
        let out = sm.decompress(&sm.compress(&stream)).expect("valid");
        for (a, b) in stream.iter().zip(&out) {
            if a.is_finite() {
                assert!((a - b).abs() <= 1e-9 * 1.0001, "{a} vs {b}");
            }
        }
    }
}

/// End-to-end on an RC ladder: transient → capture both Jacobian tensors →
/// MASC compress → decompress byte-exactly, then validate the compressed
/// store's adjoint gradients against central finite differences.
#[test]
fn rc_ladder_end_to_end() {
    // 20 ns window: comparable to the ladder's aggregate RC delay, so the
    // objective is genuinely sensitive to every R and C.
    let sections = 12usize;
    let period = 2e-8;
    let circuit = rc_ladder(sections, period);
    let tran = TranOptions::new(period, period / 100.0);

    // 1. Transient run, capturing the G and C tensors at every step.
    let dataset = capture("rc12", circuit.clone(), &tran).expect("transient runs");
    assert!(dataset.steps() > 10, "transient produced too few steps");

    // 2. Tensor compress → decompress must be a byte-exact round trip.
    for (pattern, series) in [
        (&dataset.g_pattern, &dataset.g_series),
        (&dataset.c_pattern, &dataset.c_series),
    ] {
        let mut tc = TensorCompressor::new(pattern.clone(), MascConfig::default());
        for m in series.iter() {
            tc.push(m);
        }
        let tensor = tc.finish();
        let restored = tensor.decompress_all().expect("lossless");
        assert_eq!(restored.len(), series.len());
        for (step, (a, b)) in restored.iter().zip(series.iter()).enumerate() {
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "step {step} differs");
            }
        }
    }

    // 3. Adjoint through the compressed store vs finite differences, on a
    //    deterministic random sample of R and C parameters.
    let mut circuit = circuit;
    let tail = circuit
        .find_node(&format!("n{}", sections - 1))
        .expect("ladder tail exists")
        .unknown()
        .expect("not ground");
    let objectives = [Objective::Integral { unknown: tail }];
    let mut params: Vec<_> = circuit
        .params()
        .into_iter()
        .filter(|p| p.path.ends_with(".r") || p.path.ends_with(".c"))
        .collect();
    let mut rng = Rng::new(0x4C41_4444_4552); // "LADDER"
    let mut picked = Vec::new();
    for _ in 0..6 {
        picked.push(params.remove(rng.range_usize(0, params.len())));
    }
    let run = run_adjoint(
        &mut circuit,
        &tran,
        &StoreConfig::Compressed(MascConfig::default()),
        &objectives,
        &picked,
    )
    .expect("adjoint runs");
    for (j, param) in picked.iter().enumerate() {
        let a = run.sensitivities.values[0][j];
        assert!(a.is_finite(), "{}: non-finite sensitivity", param.path);
        let fd = finite_difference(&circuit, &tran, &objectives[0], param, 1e-5).expect("fd runs");
        let scale = a.abs().max(fd.abs());
        assert!(
            scale > 1e-15,
            "{}: objective insensitive to param",
            param.path
        );
        assert!(
            (a - fd).abs() / scale < 1e-6,
            "{}: adjoint {a:e} vs fd {fd:e}",
            param.path
        );
    }
}

/// Store choice does not change results even with Markov + many small
/// chunks per matrix.
#[test]
fn chunked_markov_store_matches_raw() {
    let spec = &table2_datasets()[0];
    let (mut circuit, tran) = spec.build_circuit(0.06);
    let params: Vec<_> = circuit.params().into_iter().take(4).collect();
    let objectives = [Objective::IntegralSquared { unknown: 1 }];
    let config = MascConfig {
        chunk_size: 64,
        markov_min_warmup: 16,
        ..MascConfig::default()
    };
    let raw = run_adjoint(
        &mut circuit.clone(),
        &tran,
        &StoreConfig::RawMemory,
        &objectives,
        &params,
    )
    .expect("runs");
    let masc = run_adjoint(
        &mut circuit,
        &tran,
        &StoreConfig::Compressed(config),
        &objectives,
        &params,
    )
    .expect("runs");
    for (a, b) in raw.sensitivities.values[0]
        .iter()
        .zip(&masc.sensitivities.values[0])
    {
        assert_eq!(a.to_bits(), b.to_bits(), "lossless ⇒ bit-identical");
    }
}
