//! The layer replay of the traced run.
//!
//! Up to 64 states sampled evenly from the workload's own forward run are
//! replayed, one call at a time, through each layer's public API:
//! `System::eval_into` and `param_deriv_sparse_into` (`circuit`),
//! `SymbolicLu::analyze`, `LuWorkspace::factor` and the two solves
//! (`sparse`), and `TensorCompressor` / `BackwardDecompressor` over a run
//! of consecutive matrices (`compress`). `_us`/`_ns` numbers are medians
//! per call.

use crate::jobs::{Facts, Samples};
use crate::stats::median;
use masc_circuit::dc::dc_operating_point;
use masc_circuit::parser::parse_netlist;
use masc_circuit::{NewtonOptions, ParamRef};
use masc_compress::{MascConfig, TensorCompressor};
use masc_sparse::{CsrMatrix, LuWorkspace, SymbolicLu};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of the once-per-run calls (parse, elaborate, analyze).
const ONCE_REPS: usize = 3;

fn seconds<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Replays `samples` through the `circuit`, `sparse` and `compress`
/// layers and records the per-layer metrics in `facts`. `params` are the
/// job's parameters.
pub fn replay(
    deck: &str,
    samples: &Samples,
    params: &[ParamRef],
    facts: &mut Facts,
) -> Result<(), String> {
    if samples.spread.is_empty() {
        return Ok(());
    }
    let mut parse_s = Vec::new();
    let mut elaborate_s = Vec::new();
    let mut built = None;
    for _ in 0..ONCE_REPS {
        let (s, parsed) = seconds(|| parse_netlist(deck));
        let mut parsed = parsed.map_err(|e| e.to_string())?;
        parse_s.push(s);
        let (s, system) = seconds(|| parsed.circuit.elaborate());
        elaborate_s.push(s);
        built = Some((parsed, system.map_err(|e| e.to_string())?));
    }
    let (parsed, mut system) = built.ok_or("no replay repetition ran")?;
    let circuit = &parsed.circuit;
    facts.layer("circuit.parse_ms", median(&parse_s) * 1e3);
    facts.layer("circuit.elaborate_ms", median(&elaborate_s) * 1e3);
    let (dc_s, dc) =
        seconds(|| dc_operating_point(circuit, &mut system, &NewtonOptions::default()));
    dc.map_err(|e| e.to_string())?;
    facts.layer("circuit.dc_ms", dc_s * 1e3);

    // circuit: device evaluation and parameter derivatives per state.
    let n = system.n;
    let mut ev = system.new_evaluation();
    let (mut df, mut dq, mut db) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    let mut eval_s = Vec::new();
    let mut deriv_s = Vec::new();
    for (t, _, x) in &samples.spread {
        eval_s.push(seconds(|| system.eval_into(circuit, x, *t, &mut ev)).0);
        if !params.is_empty() {
            for buf in [&mut df, &mut dq, &mut db] {
                buf.fill(0.0);
            }
            let (s, ()) = seconds(|| {
                for p in params {
                    system.param_deriv_sparse_into(circuit, p, x, *t, &mut df, &mut dq, &mut db);
                }
            });
            black_box((&df, &dq, &db));
            deriv_s.push(s / params.len() as f64);
        }
    }
    facts.layer("circuit.eval_us", median(&eval_s) * 1e6);
    facts.layer("circuit.param_deriv_ns", median(&deriv_s) * 1e9);

    // sparse: the step matrix J = G + C/h of each state.
    let mut j = CsrMatrix::zeros(system.pattern.clone());
    let fill = |j: &mut CsrMatrix, ev: &masc_circuit::Evaluation, h: f64| {
        for ((jv, gv), cv) in j
            .values_mut()
            .iter_mut()
            .zip(ev.g.values())
            .zip(ev.c.values())
        {
            *jv = gv + cv / h;
        }
    };
    let (t0, h0, x0) = &samples.spread[samples.spread.len() / 2];
    system.eval_into(circuit, x0, *t0, &mut ev);
    fill(&mut j, &ev, *h0);
    let mut analyze_s = Vec::new();
    for _ in 0..ONCE_REPS {
        let (s, sym) = seconds(|| SymbolicLu::analyze(&j));
        sym.map_err(|e| e.to_string())?;
        analyze_s.push(s);
    }
    facts.layer("sparse.analyze_ms", median(&analyze_s) * 1e3);
    let mut lu = LuWorkspace::new();
    // The first factorization also analyzes; time only refactors.
    lu.factor(&j).map_err(|e| e.to_string())?;
    let rhs: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
    let (mut work, mut out) = (Vec::new(), Vec::new());
    let (mut refactor_s, mut solve_s, mut solve_t_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut lu_nnz, mut fill_ratio) = (0usize, 0.0);
    for (t, h, x) in &samples.spread {
        system.eval_into(circuit, x, *t, &mut ev);
        fill(&mut j, &ev, *h);
        let (s, factors) = seconds(|| lu.factor(&j));
        let factors = factors.map_err(|e| e.to_string())?;
        refactor_s.push(s);
        solve_s.push(seconds(|| factors.solve_into(&rhs, &mut work, &mut out)).0);
        black_box(&out);
        solve_t_s.push(seconds(|| factors.solve_transpose_into(&rhs, &mut work, &mut out)).0);
        black_box(&out);
        lu_nnz = factors.l_nnz() + factors.u_nnz();
        fill_ratio = factors.fill_ratio(j.nnz());
    }
    facts.layer("sparse.refactor_us", median(&refactor_s) * 1e6);
    facts.layer("sparse.solve_us", median(&solve_s) * 1e6);
    facts.layer("sparse.solve_t_us", median(&solve_t_s) * 1e6);
    facts.layer("sparse.lu_nnz", lu_nnz as f64);
    facts.layer("sparse.fill_ratio", fill_ratio);

    // compress: a run of consecutive matrices, encoded then decoded.
    let mut g_series = Vec::new();
    let mut c_series = Vec::new();
    for (t, _, x) in &samples.consecutive {
        system.eval_into(circuit, x, *t, &mut ev);
        g_series.push(system.gather_g(ev.g.values()));
        c_series.push(system.gather_c(ev.c.values()));
    }
    let (mut raw, mut encode_s, mut decode_s) = (0usize, 0.0, 0.0);
    for (pattern, series) in [
        (&system.g_pattern, &g_series),
        (&system.c_pattern, &c_series),
    ] {
        let (s, tensor) = seconds(|| {
            let mut compressor = TensorCompressor::new(pattern.clone(), MascConfig::default());
            for values in series {
                compressor.push(values);
            }
            compressor.finish()
        });
        encode_s += s;
        raw += tensor.raw_bytes();
        let mut backward = tensor.into_backward();
        let (s, decoded) = seconds(|| {
            let mut count = 0usize;
            while let Some((_, values)) = backward.next_matrix()? {
                black_box(&values);
                count += 1;
            }
            Ok::<usize, masc_compress::CompressError>(count)
        });
        decode_s += s;
        if decoded.map_err(|e| e.to_string())? != series.len() {
            return Err("replayed tensor decoded to the wrong length".to_string());
        }
    }
    facts.layer(
        "compress.encode_mbps",
        raw as f64 / 1e6 / encode_s.max(1e-12),
    );
    facts.layer(
        "compress.decode_mbps",
        raw as f64 / 1e6 / decode_s.max(1e-12),
    );
    Ok(())
}
