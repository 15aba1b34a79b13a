//! The jobs: what a child process runs between reading the deck text and
//! reporting its result.
//!
//! A job starts at `parse_netlist(text)` and ends when the gradient matrix
//! is returned and all run state is dropped. Everything here calls the
//! crates' public entry points only.

use crate::spans::{in_span, Tracer};
use crate::workloads::{
    Workload, CODEC_PASSES, N_OBJECTIVES, N_PARAMS, SERVE_SELECTIONS, SWEEP_VARIANTS, WINDOWS,
};
use masc_adjoint::{
    run_adjoint, run_xyce_like, AdjointCursor, ForwardRecord, Objective, RunMeta, StoreConfig,
    TensorLayout,
};
use masc_circuit::parser::{parse_netlist, ParsedNetlist};
use masc_circuit::transient::{transient, JacobianSink, SinkError, TranOptions};
use masc_circuit::{Circuit, ParamRef};
use masc_compress::{MascConfig, TensorCompressor};
use masc_datasets::dataset::{capture, Dataset};
use masc_serve::protocol::{JobRequest, ObjectiveSpec, ParamSelector};
use masc_serve::server::{ServeConfig, Server};
use masc_sparse::CsrMatrix;
use masc_sweep::{run_sweep, SweepPlan};
use masc_window::{run_windowed, WindowOptions};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// A gradient matrix: `m[i][j] = dO_i/dp_j`.
pub type Matrix = Vec<Vec<f64>>;

/// What one job produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobOut {
    /// Wall-clock seconds of the job.
    pub solve_s: f64,
    /// One hash per gradient matrix the job returned.
    pub hashes: Vec<u64>,
    /// The matrices themselves, for workloads verified to a tolerance.
    pub grads: Vec<Matrix>,
}

/// Facts a job reports beside its gradients.
#[derive(Debug, Clone, Default)]
pub struct Facts {
    /// Raw non-zero bytes the run would store uncompressed.
    pub raw_bytes: f64,
    /// Bytes the run actually stored.
    pub stored_bytes: f64,
    /// Counts that repeat exactly for a fixed seed.
    pub counts: BTreeMap<String, f64>,
    /// Per-layer numbers: reported by a public stats struct or timed here.
    pub layers: BTreeMap<String, f64>,
}

impl Facts {
    fn count(&mut self, name: &str, value: f64) {
        self.counts.insert(name.to_string(), value);
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }
}

/// States sampled from a job's own forward run, for the layer replay.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// Up to 64 `(t, h, x)` points spread evenly over the run.
    pub spread: Vec<(f64, f64, Vec<f64>)>,
    /// Up to 64 consecutive points from the middle of the run.
    pub consecutive: Vec<(f64, f64, Vec<f64>)>,
}

/// Most states the layer replay looks at.
const MAX_SAMPLES: usize = 64;

impl Samples {
    pub fn of(meta: &RunMeta) -> Self {
        let n = meta.times.len();
        let point = |i: usize| (meta.times[i], meta.hs[i], meta.states[i].clone());
        let take = n.min(MAX_SAMPLES);
        let spread = (0..take)
            .map(|k| {
                point(if take > 1 {
                    k * (n - 1) / (take - 1)
                } else {
                    0
                })
            })
            .collect();
        let start = (n - take) / 2;
        let consecutive = (start..start + take).map(point).collect();
        Self {
            spread,
            consecutive,
        }
    }
}

/// Where every hash starts (the FNV-1a offset basis).
const HASH_SEED: u64 = 0xCBF2_9CE4_8422_2325;

/// Folds the bit patterns of `values` into `h`, one word at a time.
pub fn hash_words(mut h: u64, values: &[f64]) -> u64 {
    for v in values {
        h = (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Hash of a gradient matrix over its `f64` bit patterns and its shape.
pub fn hash_matrix(m: &Matrix) -> u64 {
    let mut h = HASH_SEED;
    for row in m {
        h = hash_words(h ^ row.len() as u64, row);
    }
    h
}

/// Threads a job may use: `min(2, nproc)`.
pub fn job_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// The deck's own `.tran` grid. Every job integrates on it with fixed
/// steps: with adaptive stepping the ±2 % parameter jitter moves the step
/// count — and with it time, memory and tensor size — by 10 % and more
/// from seed to seed, which would drown the changes this benchmark is
/// meant to show.
fn deck_tran(parsed: &ParsedNetlist) -> Result<TranOptions, String> {
    parsed
        .tran
        .clone()
        .ok_or_else(|| "deck has no .tran".to_string())
}

/// `count` items spread evenly over `items` (all of them when fewer).
fn strided<T: Clone>(items: &[T], count: usize) -> Vec<T> {
    if items.len() <= count {
        return items.to_vec();
    }
    (0..count)
        .map(|k| items[(2 * k + 1) * items.len() / (2 * count)].clone())
        .collect()
}

/// Every parameter that is part of the deck text.
fn deck_params(circuit: &Circuit) -> Vec<ParamRef> {
    circuit
        .params()
        .into_iter()
        .filter(|p| !p.path.ends_with(".scale"))
        .collect()
}

/// `count` time-integral objectives on evenly spread node voltages.
fn integral_objectives(circuit: &Circuit, count: usize) -> Vec<Objective> {
    let nodes: Vec<usize> = (0..circuit.node_count()).collect();
    strided(&nodes, count)
        .into_iter()
        .map(|unknown| Objective::Integral { unknown })
        .collect()
}

struct AdjointPlan {
    tran: TranOptions,
    objectives: Vec<Objective>,
    params: Vec<ParamRef>,
}

fn adjoint_plan(workload: Workload, parsed: &ParsedNetlist) -> Result<AdjointPlan, String> {
    let all = deck_params(&parsed.circuit);
    Ok(AdjointPlan {
        tran: deck_tran(parsed)?,
        objectives: integral_objectives(&parsed.circuit, N_OBJECTIVES),
        params: match workload {
            Workload::RamFanout => all,
            _ => strided(&all, N_PARAMS),
        },
    })
}

/// The parameters the jobs of `workload` differentiate against, for the
/// layer replay.
pub fn job_params(workload: Workload, deck: &str) -> Result<Vec<ParamRef>, String> {
    let parsed = parse_netlist(deck).map_err(|e| e.to_string())?;
    Ok(match workload {
        Workload::SweepBatch => sweep_plan(&parsed)?.params,
        Workload::WindowPit => window_plan(&parsed)?.params,
        _ => adjoint_plan(workload, &parsed)?.params,
    })
}

/// Raw non-zero bytes of `points` stored `G`/`C` pairs of this deck.
fn raw_nz_bytes(deck: &str, points: usize) -> Result<f64, String> {
    let mut parsed = parse_netlist(deck).map_err(|e| e.to_string())?;
    let system = parsed.circuit.elaborate().map_err(|e| e.to_string())?;
    let nnz = system.g_pattern.nnz() + system.c_pattern.nnz();
    Ok((points * nnz * 8) as f64)
}

/// Times `f`, which owns all of a job's run state and returns only what
/// outlives the job: the timer stops after that state is dropped.
fn timed<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(f64, T), String> {
    let start = Instant::now();
    let out = f()?;
    Ok((start.elapsed().as_secs_f64(), out))
}

fn job_out(solve_s: f64, grads: Vec<Matrix>, keep_grads: bool) -> JobOut {
    JobOut {
        solve_s,
        hashes: grads.iter().map(hash_matrix).collect(),
        grads: if keep_grads { grads } else { Vec::new() },
    }
}

/// One `run_adjoint` job through the public entry point.
pub fn adjoint_job(
    workload: Workload,
    deck: &str,
    store: &StoreConfig,
) -> Result<(JobOut, Facts), String> {
    let (solve_s, (grad, stored, steps, newton)) = timed(|| {
        let mut parsed = parse_netlist(deck).map_err(|e| e.to_string())?;
        let plan = adjoint_plan(workload, &parsed)?;
        let run = run_adjoint(
            &mut parsed.circuit,
            &plan.tran,
            store,
            &plan.objectives,
            &plan.params,
        )
        .map_err(|e| e.to_string())?;
        Ok((
            run.sensitivities.values,
            run.store_metrics.bytes_written,
            run.tran_stats.steps,
            run.tran_stats.newton_iterations,
        ))
    })?;
    let mut facts = Facts {
        raw_bytes: raw_nz_bytes(deck, steps + 1)?,
        stored_bytes: stored as f64,
        ..Facts::default()
    };
    facts.count("circuit.steps", steps as f64);
    facts.count("circuit.newton_iters", newton as f64);
    Ok((job_out(solve_s, vec![grad], false), facts))
}

/// The Xyce-like baseline on the same deck: nothing stored, one reverse
/// sweep per objective. Returns its wall-clock seconds.
pub fn xyce_like_job(workload: Workload, deck: &str) -> Result<f64, String> {
    let (seconds, ()) = timed(|| {
        let mut parsed = parse_netlist(deck).map_err(|e| e.to_string())?;
        let plan = adjoint_plan(workload, &parsed)?;
        run_xyce_like(
            &mut parsed.circuit,
            &plan.tran,
            &plan.objectives,
            &plan.params,
        )
        .map(drop)
        .map_err(|e| e.to_string())
    })?;
    Ok(seconds)
}

/// A [`ForwardRecord`] whose every `on_step` is a span.
struct TimedSink<'a> {
    inner: ForwardRecord,
    tracer: &'a RefCell<Tracer>,
}

impl JacobianSink for TimedSink<'_> {
    fn on_step(
        &mut self,
        step: usize,
        t: f64,
        h: f64,
        x: &[f64],
        g: &CsrMatrix,
        c: &CsrMatrix,
    ) -> Result<(), SinkError> {
        in_span(self.tracer, "adjoint.sink", || {
            self.inner.on_step(step, t, h, x, g, c)
        })
    }

    fn on_finish(&mut self) -> Result<(), SinkError> {
        self.inner.on_finish()
    }
}

/// The body of `run_adjoint`, re-expressed from its public pieces with a
/// span around each. It must return the gradient bits `run_adjoint` does.
pub fn adjoint_job_traced(
    workload: Workload,
    deck: &str,
    tracer: &RefCell<Tracer>,
) -> Result<(JobOut, Facts, Samples), String> {
    let store = StoreConfig::Compressed(MascConfig::default());
    let job = tracer.borrow_mut().enter("job");
    let mut parsed =
        in_span(tracer, "circuit.parse", || parse_netlist(deck)).map_err(|e| e.to_string())?;
    let plan = adjoint_plan(workload, &parsed)?;
    let circuit = &mut parsed.circuit;
    let mut system =
        in_span(tracer, "circuit.elaborate", || circuit.elaborate()).map_err(|e| e.to_string())?;
    let record = in_span(tracer, "adjoint.record_new", || {
        ForwardRecord::new(TensorLayout::of(&system), &store)
    })
    .map_err(|e| e.to_string())?;
    let mut sink = TimedSink {
        inner: record,
        tracer,
    };
    let tran_result = in_span(tracer, "adjoint.forward", || {
        transient(circuit, &mut system, &plan.tran, &mut sink)
    })
    .map_err(|e| e.to_string())?;
    // run_adjoint evaluates the objectives here; the values are not part
    // of the gradient but the work is part of the job.
    let objective_values: Vec<f64> = in_span(tracer, "adjoint.objectives", || {
        plan.objectives
            .iter()
            .map(|o| o.value(&tran_result.states, &tran_result.steps))
            .collect()
    });
    let (meta, mut reader) =
        in_span(tracer, "adjoint.seal", || sink.inner.into_parts()).map_err(|e| e.to_string())?;
    if meta.times.is_empty() {
        return Err("forward record is empty".to_string());
    }

    let reverse = tracer.borrow_mut().enter("adjoint.reverse");
    let mut cursor = in_span(tracer, "adjoint.cursor_new", || {
        AdjointCursor::new(circuit, &system, &meta, &plan.objectives, &plan.params)
    });
    while let Some((step, matrices)) =
        in_span(tracer, "adjoint.fetch", || reader.next_back()).map_err(|e| e.to_string())?
    {
        in_span(tracer, "adjoint.offer", || {
            cursor.offer(&mut system, step, matrices)
        })
        .map_err(|e| e.to_string())?;
    }
    let result = in_span(tracer, "adjoint.finish", || cursor.finish());
    tracer.borrow_mut().exit(reverse);

    let metrics = reader.metrics().clone();
    let mut facts = Facts {
        stored_bytes: metrics.bytes_written as f64,
        ..Facts::default()
    };
    facts.count("circuit.steps", tran_result.stats.steps as f64);
    facts.count(
        "circuit.newton_iters",
        tran_result.stats.newton_iterations as f64,
    );
    facts.layer("adjoint.stored_bytes", metrics.bytes_written as f64);
    facts.layer(
        "adjoint.peak_store_bytes",
        metrics.peak_resident_bytes as f64,
    );
    // Copying states out is the harness's own work; it shows up as
    // tracing overhead.
    let samples = in_span(tracer, "trace.sample", || Samples::of(&meta));
    let grad = result.values;
    in_span(tracer, "adjoint.teardown", || {
        drop((result.stats, reader, meta, tran_result, objective_values));
        drop(system);
        drop(parsed);
    });
    tracer.borrow_mut().exit(job);
    let solve_s = tracer.borrow().duration_s(job);
    facts.raw_bytes = raw_nz_bytes(deck, facts.counts["circuit.steps"] as usize + 1)?;
    Ok((job_out(solve_s, vec![grad], false), facts, samples))
}

/// The sweep's objectives, parameters and variants, read off the deck.
fn sweep_plan(parsed: &ParsedNetlist) -> Result<SweepPlan, String> {
    let circuit = &parsed.circuit;
    let tran = deck_tran(parsed)?;
    let unknown = |name: &str| {
        circuit
            .find_node(name)
            .and_then(|n| n.unknown())
            .ok_or(format!("deck has no node {name}"))
    };
    let probe = unknown("p0")?;
    // Nodes are d0 … d{stages-1}, then the probe.
    let last = circuit.node_count().saturating_sub(2);
    let objectives = vec![
        Objective::FinalValue { unknown: probe },
        Objective::Integral { unknown: probe },
        Objective::Integral {
            unknown: unknown("d0")?,
        },
        Objective::FinalValue { unknown: last },
    ];
    let param = |path: &str| {
        circuit
            .find_param(path)
            .ok_or(format!("deck has no {path}"))
    };
    let (r0, c0) = (param("R0.r")?, param("C0.c")?);
    let mut params = vec![r0.clone(), c0.clone()];
    let ladder: Vec<ParamRef> = deck_params(circuit)
        .into_iter()
        .filter(|p| p.device != r0.device && p.device != c0.device)
        .collect();
    params.extend(strided(&ladder, 30));
    let (r, c) = (circuit.param_value(&r0), circuit.param_value(&c0));
    let mut plan = SweepPlan::new(tran, objectives, params).with_workers(job_threads());
    plan.push_variant(vec![]);
    plan.push_variant(vec![(r0.clone(), r * 1.05)]);
    plan.push_variant(vec![(c0.clone(), c * 0.95)]);
    plan.push_variant(vec![(r0, r * 1.05), (c0, c * 0.95)]);
    debug_assert_eq!(plan.variants.len(), SWEEP_VARIANTS);
    Ok(plan)
}

/// One `run_sweep` batch. With `sample`, also returns states of instance
/// 0 for the layer replay.
pub fn sweep_job(
    deck: &str,
    sample: bool,
    tracer: &RefCell<Tracer>,
) -> Result<(JobOut, Facts, Samples), String> {
    let job = tracer.borrow_mut().enter("job");
    let parsed =
        in_span(tracer, "circuit.parse", || parse_netlist(deck)).map_err(|e| e.to_string())?;
    let plan = sweep_plan(&parsed)?;
    let result = in_span(tracer, "sweep.batch", || run_sweep(&parsed.circuit, &plan))
        .map_err(|e| e.to_string())?;
    let stats = result.stats.clone();
    let samples = if sample {
        in_span(tracer, "trace.sample", || Samples::of(&result.metas[0]))
    } else {
        Samples::default()
    };
    let grads: Vec<Matrix> = result
        .sensitivities
        .iter()
        .map(|s| s.values.clone())
        .collect();
    in_span(tracer, "teardown", || drop((result, plan, parsed)));
    tracer.borrow_mut().exit(job);
    let solve_s = tracer.borrow().duration_s(job);

    let mut facts = Facts {
        raw_bytes: stats.raw_bytes as f64,
        stored_bytes: stats.super_tensor_bytes as f64,
        ..Facts::default()
    };
    facts.count("circuit.steps", stats.steps as f64);
    facts.count("sweep.instances", stats.instances as f64);
    facts.layer("sweep.forward_s", stats.forward_time.as_secs_f64());
    facts.layer("sweep.adjoint_s", stats.adjoint_time.as_secs_f64());
    facts.layer("sweep.serial_s", stats.serial_time.as_secs_f64());
    facts.layer(
        "sweep.bytes_per_instance",
        stats.super_tensor_bytes as f64 / stats.instances.max(1) as f64,
    );
    facts.layer("sweep.workers", job_threads() as f64);
    Ok((job_out(solve_s, grads, false), facts, samples))
}

/// The sweep's reference: every variant through its own `run_adjoint`,
/// one after the other. Its time is the base `sweep.independent_s`.
pub fn sweep_reference(deck: &str) -> Result<JobOut, String> {
    let (solve_s, grads) = timed(|| {
        let parsed = parse_netlist(deck).map_err(|e| e.to_string())?;
        let plan = sweep_plan(&parsed)?;
        let store = StoreConfig::Compressed(plan.masc.clone());
        let mut grads = Vec::new();
        for overrides in &plan.variants {
            let mut circuit = parsed.circuit.clone();
            for (p, value) in overrides {
                circuit.set_param_value(p, *value);
            }
            let run = run_adjoint(
                &mut circuit,
                &plan.tran,
                &store,
                &plan.objectives,
                &plan.params,
            )
            .map_err(|e| e.to_string())?;
            grads.push(run.sensitivities.values);
        }
        Ok(grads)
    })?;
    Ok(job_out(solve_s, grads, false))
}

struct WindowPlan {
    tran: TranOptions,
    opts: WindowOptions,
    objectives: Vec<Objective>,
    params: Vec<ParamRef>,
}

/// The set-up of `crates/bench/src/window.rs`: two objectives at the ends
/// of the ladder and every ladder parameter.
fn window_plan(parsed: &ParsedNetlist) -> Result<WindowPlan, String> {
    let tran = deck_tran(parsed)?;
    let mut opts = WindowOptions::new(WINDOWS)
        .with_lanes(job_threads())
        .with_tol(1e-8);
    opts.adjoint_tol = Some(1e-7);
    opts.coarse_substeps = 4;
    let last = parsed.circuit.node_count().saturating_sub(1);
    Ok(WindowPlan {
        tran,
        opts,
        objectives: vec![
            Objective::FinalValue { unknown: last },
            Objective::Integral { unknown: 0 },
        ],
        params: deck_params(&parsed.circuit),
    })
}

/// One `run_windowed` job. With `sample`, also returns states of the
/// stitched trajectory for the layer replay.
pub fn window_job(
    deck: &str,
    sample: bool,
    tracer: &RefCell<Tracer>,
) -> Result<(JobOut, Facts, Samples), String> {
    let job = tracer.borrow_mut().enter("job");
    let mut parsed =
        in_span(tracer, "circuit.parse", || parse_netlist(deck)).map_err(|e| e.to_string())?;
    let plan = window_plan(&parsed)?;
    let result = in_span(tracer, "window.run", || {
        run_windowed(
            &mut parsed.circuit,
            &plan.tran,
            &plan.opts,
            &plan.objectives,
            &plan.params,
        )
    })
    .map_err(|e| e.to_string())?;
    let stats = result.stats.clone();
    let samples = if sample {
        in_span(tracer, "trace.sample", || Samples::of(&result.meta))
    } else {
        Samples::default()
    };
    let grad = result.sensitivities.clone();
    in_span(tracer, "teardown", || drop((result, plan, parsed)));
    tracer.borrow_mut().exit(job);
    let solve_s = tracer.borrow().duration_s(job);

    let bytes: usize = stats.window_bytes.iter().sum();
    let mut facts = Facts {
        raw_bytes: raw_nz_bytes(deck, stats.steps + 1)?,
        stored_bytes: bytes as f64,
        ..Facts::default()
    };
    facts.count("circuit.steps", stats.steps as f64);
    for (name, value) in [
        ("window.forward_iters", stats.forward_iterations),
        ("window.adjoint_iters", stats.adjoint_iterations),
        ("window.fine_runs", stats.fine_runs),
        ("window.bytes", bytes),
    ] {
        facts.count(name, value as f64);
        facts.layer(name, value as f64);
    }
    facts.layer("window.coarse_s", stats.coarse_time.as_secs_f64());
    facts.layer("window.serial_s", stats.serial_time.as_secs_f64());
    facts.layer("window.lanes", job_threads() as f64);
    Ok((job_out(solve_s, vec![grad], true), facts, samples))
}

/// The window's reference: the same deck through monolithic `run_adjoint`.
/// Its time is the base `window.mono_s`.
pub fn window_reference(deck: &str) -> Result<JobOut, String> {
    let (solve_s, grad) = timed(|| {
        let mut parsed = parse_netlist(deck).map_err(|e| e.to_string())?;
        let plan = window_plan(&parsed)?;
        let run = run_adjoint(
            &mut parsed.circuit,
            &plan.tran,
            &StoreConfig::Compressed(plan.opts.masc.clone()),
            &plan.objectives,
            &plan.params,
        )
        .map_err(|e| e.to_string())?;
        Ok(run.sensitivities.values)
    })?;
    Ok(job_out(solve_s, vec![grad], true))
}

/// Objectives and parameters the serve selections are cut from: selection
/// `k` takes every `SERVE_SELECTIONS`-th entry starting at `k`.
fn serve_universe(circuit: &Circuit) -> (Vec<usize>, Vec<ParamRef>) {
    let nodes: Vec<usize> = (0..circuit.node_count()).collect();
    (
        strided(&nodes, 2 * SERVE_SELECTIONS),
        strided(&deck_params(circuit), 16 * SERVE_SELECTIONS),
    )
}

fn selection<T: Clone>(universe: &[T], k: usize) -> Vec<T> {
    universe
        .iter()
        .skip(k)
        .step_by(SERVE_SELECTIONS)
        .cloned()
        .collect()
}

/// The requests of the serve workload, one per selection.
fn serve_requests(deck: &str) -> Result<Vec<JobRequest>, String> {
    let parsed = parse_netlist(deck).map_err(|e| e.to_string())?;
    let (nodes, params) = serve_universe(&parsed.circuit);
    Ok((0..SERVE_SELECTIONS)
        .map(|k| JobRequest {
            id: format!("sel{k}"),
            objectives: selection(&nodes, k)
                .into_iter()
                .map(|u| ObjectiveSpec::Integral {
                    node: parsed.circuit.node_name(u).to_string(),
                })
                .collect(),
            params: ParamSelector::Named(
                selection(&params, k).into_iter().map(|p| p.path).collect(),
            ),
            deck: deck.to_string(),
        })
        .collect())
}

/// The serve reference: one monolithic `run_adjoint` over the union of
/// all selections, keeping raw matrices; entry `(i, j)` of an adjoint
/// gradient does not depend on which other objectives and parameters ride
/// along, so each selection's expected answer is a sub-block.
pub fn serve_reference(deck: &str) -> Result<JobOut, String> {
    let (solve_s, grads) = timed(|| {
        let mut parsed = parse_netlist(deck).map_err(|e| e.to_string())?;
        let tran = deck_tran(&parsed)?;
        let (nodes, params) = serve_universe(&parsed.circuit);
        let objectives: Vec<Objective> = nodes
            .iter()
            .map(|&unknown| Objective::Integral { unknown })
            .collect();
        let run = run_adjoint(
            &mut parsed.circuit,
            &tran,
            &StoreConfig::RawMemory,
            &objectives,
            &params,
        )
        .map_err(|e| e.to_string())?;
        let full = run.sensitivities.values;
        let rows: Vec<usize> = (0..full.len()).collect();
        let cols: Vec<usize> = (0..params.len()).collect();
        Ok((0..SERVE_SELECTIONS)
            .map(|k| {
                selection(&rows, k)
                    .into_iter()
                    .map(|i| {
                        selection(&cols, k)
                            .into_iter()
                            .map(|j| full[i][j])
                            .collect()
                    })
                    .collect()
            })
            .collect::<Vec<Matrix>>())
    })?;
    Ok(job_out(solve_s, grads, false))
}

/// Everything one child process reports to the parent.
#[derive(Debug, Default)]
pub struct Report {
    /// Set-up repetitions done inside the child (resident workloads).
    pub setup_s: Vec<f64>,
    pub jobs: Vec<JobOut>,
    /// Hashes of answers produced during set-up (the cold submit).
    pub setup_hashes: Vec<u64>,
    /// Hashes the jobs must reproduce, when the child itself holds the
    /// reference (the codec's input bits).
    pub expected: Vec<u64>,
    pub facts: Facts,
    /// `VmHWM` of the child after its last job.
    pub rss_mb: f64,
    /// Threads a job was allowed to use.
    pub threads: usize,
    pub spans: Vec<crate::spans::Span>,
}

impl Report {
    /// The report of a child that ran one job.
    pub fn one(job: JobOut, facts: Facts) -> Self {
        Self {
            jobs: vec![job],
            facts,
            ..Self::default()
        }
    }
}

/// How long a resident child keeps issuing jobs.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub min_jobs: usize,
    pub setup_reps: usize,
}

impl Budget {
    /// Exactly one job, no repeated set-up: what a child that runs one job
    /// per process gets.
    pub const ONE_JOB: Budget = Budget {
        seconds: 0.0,
        min_jobs: 1,
        setup_reps: 1,
    };

    fn more(&self, done: usize, start: Instant) -> bool {
        done < self.min_jobs || start.elapsed().as_secs_f64() < self.seconds
    }
}

/// The serve workload: start a server, submit once cold (set-up), then
/// time cache hits round-robin over the selections.
pub fn serve_resident(
    deck: &str,
    budget: Budget,
    tracer: &RefCell<Tracer>,
) -> Result<Report, String> {
    let requests = serve_requests(deck)?;
    let mut out = Report::default();
    let mut server = None;
    let mut cold_s = Vec::new();
    for _ in 0..budget.setup_reps.max(1) {
        let start = Instant::now();
        let fresh = Server::new(ServeConfig::default()).map_err(|e| e.to_string())?;
        let cold_start = Instant::now();
        let cold = fresh.submit(&requests[0]).map_err(|e| e.to_string())?;
        cold_s.push(cold_start.elapsed().as_secs_f64());
        out.setup_s.push(start.elapsed().as_secs_f64());
        if cold.hit {
            return Err("a fresh server answered from its cache".to_string());
        }
        out.setup_hashes = vec![hash_matrix(&cold.sensitivities)];
        out.facts
            .count("circuit.steps", cold.tran_stats.steps as f64);
        out.facts.count(
            "circuit.newton_iters",
            cold.tran_stats.newton_iterations as f64,
        );
        server = Some(fresh);
    }
    let server = server.ok_or("no set-up repetition ran")?;
    let start = Instant::now();
    while budget.more(out.jobs.len(), start) {
        let request = &requests[out.jobs.len() % SERVE_SELECTIONS];
        let (solve_s, grad) = timed(|| {
            let hit = in_span(tracer, "serve.hit", || server.submit(request))
                .map_err(|e| e.to_string())?;
            if !hit.hit {
                return Err("a resubmission missed the cache".to_string());
            }
            Ok(hit.sensitivities)
        })?;
        out.jobs.push(job_out(solve_s, vec![grad], false));
    }
    let cache = server.cache_metrics();
    let steps = out.facts.counts["circuit.steps"] as usize;
    out.facts.raw_bytes = raw_nz_bytes(deck, steps + 1)?;
    out.facts.stored_bytes = cache.mem_bytes as f64;
    out.facts.count("serve.entry_bytes", cache.mem_bytes as f64);
    out.facts.layer("serve.entry_bytes", cache.mem_bytes as f64);
    out.facts
        .layer("serve.cold_s", crate::stats::median(&cold_s));
    out.facts.layer("serve.cache_hits", cache.hits as f64);
    out.facts.layer("serve.cache_misses", cache.misses as f64);
    Ok(out)
}

/// Order-sensitive hash of a tensor's matrices in decode order.
fn tensor_hash(series: &[Vec<f64>]) -> u64 {
    series.iter().rev().fold(HASH_SEED, |h, m| hash_words(h, m))
}

/// One encode + decode pass over one tensor. Returns `(encode_s,
/// decode_s, compressed bytes, decoded hash)`; hashing the decoded bits is
/// verification, so it happens between the timed segments.
fn codec_pass(
    pattern: &std::sync::Arc<masc_sparse::Pattern>,
    series: &[Vec<f64>],
    tracer: &RefCell<Tracer>,
) -> Result<(f64, f64, usize, u64), String> {
    let (encode_s, tensor) = timed(|| {
        Ok(in_span(tracer, "compress.encode", || {
            let mut compressor = TensorCompressor::new(pattern.clone(), MascConfig::default());
            for values in series {
                compressor.push(values);
            }
            compressor.finish()
        }))
    })?;
    let bytes = tensor.compressed_bytes();
    let mut backward = tensor.into_backward();
    let mut decode_s = 0.0;
    let mut hash = HASH_SEED;
    loop {
        let start = Instant::now();
        let next = in_span(tracer, "compress.decode", || backward.next_matrix())
            .map_err(|e| e.to_string())?;
        decode_s += start.elapsed().as_secs_f64();
        match next {
            Some((_, values)) => hash = hash_words(hash, &values),
            None => break,
        }
    }
    Ok((encode_s, decode_s, bytes, hash))
}

/// The codec workload: capture the deck's `G` and `C` tensors (set-up),
/// then time `CODEC_PASSES` encode + decode passes per job.
pub fn codec_resident(
    deck: &str,
    budget: Budget,
    quick: bool,
    tracer: &RefCell<Tracer>,
) -> Result<Report, String> {
    let mut out = Report::default();
    let mut dataset: Option<Dataset> = None;
    for _ in 0..budget.setup_reps.max(1) {
        // Free the previous capture first, so that repetitions do not
        // stack up in the peak RSS.
        drop(dataset.take());
        let start = Instant::now();
        let parsed = parse_netlist(deck).map_err(|e| e.to_string())?;
        let tran = deck_tran(&parsed)?;
        dataset = Some(capture("tensor_codec", parsed.circuit, &tran).map_err(|e| e.to_string())?);
        out.setup_s.push(start.elapsed().as_secs_f64());
    }
    let dataset = dataset.ok_or("no set-up repetition ran")?;
    let tensors = [
        (&dataset.g_pattern, &dataset.g_series),
        (&dataset.c_pattern, &dataset.c_series),
    ];
    out.expected = tensors.iter().map(|(_, s)| tensor_hash(s)).collect();
    let passes = if quick { 1 } else { CODEC_PASSES };
    let raw = dataset.s_nz_bytes() as f64;
    let (mut encode_s, mut decode_s, mut stored) = (0.0, 0.0, 0usize);
    let start = Instant::now();
    while budget.more(out.jobs.len(), start) {
        let mut job = JobOut::default();
        for _ in 0..passes {
            stored = 0;
            job.hashes.clear();
            for (pattern, series) in tensors {
                let (e, d, bytes, hash) = codec_pass(pattern, series, tracer)?;
                job.solve_s += e + d;
                encode_s += e;
                decode_s += d;
                stored += bytes;
                job.hashes.push(hash);
            }
        }
        out.jobs.push(job);
    }
    let total_passes = (out.jobs.len() * passes) as f64;
    out.facts.raw_bytes = raw;
    out.facts.stored_bytes = stored as f64;
    out.facts
        .count("circuit.steps", (dataset.steps() - 1) as f64);
    out.facts.count("compress.stored_bytes", stored as f64);
    out.facts.layer(
        "compress.encode_mbps",
        raw * total_passes / 1e6 / encode_s.max(1e-12),
    );
    out.facts.layer(
        "compress.decode_mbps",
        raw * total_passes / 1e6 / decode_s.max(1e-12),
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strided_picks_are_spread_and_bounded() {
        let items: Vec<usize> = (0..100).collect();
        assert_eq!(strided(&items, 4), vec![12, 37, 62, 87]);
        assert_eq!(strided(&items[..3], 8), vec![0, 1, 2]);
        assert_eq!(selection(&items[..16], 3), vec![3, 11]);
    }

    #[test]
    fn matrix_hash_sees_every_bit_and_the_shape() {
        let m = vec![vec![1.0, -2.5], vec![0.0, 3.0e-9]];
        let h = hash_matrix(&m);
        assert_eq!(h, hash_matrix(&m.clone()));
        let mut flipped = m.clone();
        flipped[1][1] = f64::from_bits(flipped[1][1].to_bits() ^ 1);
        assert_ne!(h, hash_matrix(&flipped));
        // -0.0 == 0.0 as floats, but not as bits.
        let mut signed = m.clone();
        signed[1][0] = -0.0;
        assert_ne!(h, hash_matrix(&signed));
        assert_ne!(h, hash_matrix(&vec![vec![1.0, -2.5, 0.0, 3.0e-9]]));
    }

    #[test]
    fn samples_cover_the_run() {
        let n = 200;
        let meta = RunMeta {
            times: (0..n).map(|i| i as f64).collect(),
            hs: vec![1.0; n],
            states: (0..n).map(|i| vec![i as f64]).collect(),
        };
        let s = Samples::of(&meta);
        assert_eq!(s.spread.len(), 64);
        assert_eq!(s.spread[0].0, 0.0);
        assert_eq!(s.spread[63].0, 199.0);
        assert_eq!(s.consecutive.len(), 64);
        assert_eq!(s.consecutive[0].0, 68.0);
        assert!(s.consecutive.windows(2).all(|w| w[1].0 == w[0].0 + 1.0));
        let short = Samples::of(&RunMeta {
            times: vec![0.0],
            hs: vec![1.0],
            states: vec![vec![0.0]],
        });
        assert_eq!((short.spread.len(), short.consecutive.len()), (1, 1));
    }
}
