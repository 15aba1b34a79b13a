//! Batched parameter-sweep sensitivity over one shared-structure
//! compressed *super-tensor*.
//!
//! A [`SweepPlan`] elaborates N parameter variants of one netlist — same
//! topology, same MNA pattern, different device values — and runs their
//! forward transients in lockstep on `std::thread::scope` workers. Every
//! instance shares one [`masc_sparse::SymbolicLu`] (minted by instance 0's
//! DC factorization) and one set of stamp maps. Instance 0's Jacobians are
//! stored exactly as a single run stores them: two
//! [`masc_compress::TensorCompressor`]s seal a `G`/`C` tensor pair, each
//! matrix compressed one step late against its successor. Every instance
//! `k ≥ 1` keeps one era-3 *cross-instance* `(G, C)` block pair per step,
//! encoded against instance `k − 1`'s same-step matrix (adjacent variants
//! differ only in the swept stamps, so those residuals are far sparser
//! than the temporal axis — the paper's spatiotemporal prediction gaining
//! a third, batch axis).
//!
//! The reverse pass replays instance 0's pair through
//! [`masc_adjoint::BackwardJacobians::from_tensors`] — the reader every
//! other driver replays through — decodes each step's cross blocks
//! newest-first against the previous instance's decoded matrix, freeing
//! each block as it goes, and feeds N [`masc_adjoint::AdjointCursor`]s
//! concurrently. Per-instance sensitivities are bit-comparable to N
//! independent single runs, and the stored bytes are identical for any
//! worker count: each instance's Newton arithmetic is independent and
//! deterministic, and all encoding happens serially between waves.
//!
//! # Examples
//!
//! ```
//! use masc_circuit::parser::parse_netlist;
//! use masc_sweep::{run_sweep, SweepPlan};
//! use masc_adjoint::Objective;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut parsed = parse_netlist(
//!     "I1 0 out DC 1m\n\
//!      R1 out 0 1k\n\
//!      C1 out 0 1u\n\
//!      .tran 100u 1m\n\
//!      .end",
//! )?;
//! let tran = parsed.tran.clone().expect(".tran present");
//! let out = parsed.circuit.find_node("out").expect("node").unknown().expect("not ground");
//! let r1 = parsed.circuit.find_param("R1.r").expect("param");
//! let mut plan = SweepPlan::new(
//!     tran,
//!     vec![Objective::FinalValue { unknown: out }],
//!     vec![r1.clone()],
//! );
//! for i in 0..4 {
//!     plan.push_variant(vec![(r1.clone(), 1000.0 * (1.0 + 0.05 * i as f64))]);
//! }
//! let result = run_sweep(&parsed.circuit, &plan)?;
//! assert_eq!(result.sensitivities.len(), 4);
//! // V = I·R at DC steady state: dV/dR ≈ I = 1 mA for every variant.
//! for s in &result.sensitivities {
//!     assert!((s.values[0][0] - 1e-3).abs() < 1e-5);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use masc_adjoint::lanes::wave;
use masc_adjoint::{
    check_objective_steps, AdjointCursor, AdjointError, BackwardJacobians, Objective, RunMeta,
    SensitivityResult, StepMatrices,
};
use masc_circuit::dc::dc_operating_point_ws;
use masc_circuit::transient::{BeStepper, TranOptions};
use masc_circuit::{gather_into, Circuit, CircuitError, NewtonError, ParamRef, System};
use masc_compress::{
    compress_matrix_cross, decompress_matrix, CompressError, MascConfig, StampMaps,
    TensorCompressor,
};
use masc_sparse::LuWorkspace;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A batched sweep: N parameter variants of one netlist, integrated in
/// lockstep and differentiated together.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// Per instance: the parameter overrides applied to the base netlist
    /// before elaboration. An empty override list is the base itself.
    pub variants: Vec<Vec<(ParamRef, f64)>>,
    /// Transient options shared by every instance. Adaptive stepping is
    /// rejected — lockstep integration and the per-step cross-instance
    /// blocks need one shared fixed time grid.
    pub tran: TranOptions,
    /// Objectives differentiated for every instance.
    pub objectives: Vec<Objective>,
    /// Parameters differentiated against for every instance.
    pub params: Vec<ParamRef>,
    /// Compressor configuration for the super-tensor.
    pub masc: MascConfig,
    /// Worker threads for the forward Newton and reverse adjoint waves
    /// (`0` and `1` both mean serial). The stored bytes and the
    /// sensitivities are identical for every worker count.
    pub workers: usize,
}

impl SweepPlan {
    /// Creates a plan with no variants yet (add them with
    /// [`push_variant`](Self::push_variant)).
    pub fn new(tran: TranOptions, objectives: Vec<Objective>, params: Vec<ParamRef>) -> Self {
        Self {
            variants: Vec::new(),
            tran,
            objectives,
            params,
            masc: MascConfig::default(),
            workers: 1,
        }
    }

    /// Appends one instance with the given parameter overrides.
    pub fn push_variant(&mut self, overrides: Vec<(ParamRef, f64)>) -> &mut Self {
        self.variants.push(overrides);
        self
    }

    /// Sets the worker-thread count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the compressor configuration.
    pub fn with_masc(mut self, masc: MascConfig) -> Self {
        self.masc = masc;
        self
    }
}

/// Errors from a sweep run.
#[derive(Debug)]
pub enum SweepError {
    /// The plan has no variants.
    EmptyPlan,
    /// The plan requests adaptive stepping, which the lockstep sweep does
    /// not support (instances must share one fixed time grid).
    AdaptiveUnsupported,
    /// A parameter reference does not exist in the base circuit.
    InvalidParam {
        /// The offending reference's path.
        path: String,
    },
    /// A variant failed to elaborate.
    Circuit(CircuitError),
    /// A variant elaborated to a different MNA pattern than instance 0
    /// (the sweep requires shared structure).
    PatternMismatch {
        /// The offending instance.
        instance: usize,
    },
    /// An instance's DC operating point failed.
    Dc {
        /// The failing instance.
        instance: usize,
        /// Underlying Newton failure.
        source: NewtonError,
    },
    /// An instance's transient step failed to converge.
    Step {
        /// The failing instance.
        instance: usize,
        /// The failing step.
        step: usize,
        /// Underlying Newton failure.
        source: NewtonError,
    },
    /// An instance's adjoint pass failed.
    Adjoint {
        /// The failing instance.
        instance: usize,
        /// Underlying adjoint failure.
        source: AdjointError,
    },
    /// A cross-instance block failed to decode.
    Compress(CompressError),
    /// A worker thread panicked.
    WorkerPanicked,
    /// An internal invariant was violated.
    Internal(&'static str),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::EmptyPlan => write!(f, "sweep plan has no variants"),
            SweepError::AdaptiveUnsupported => {
                write!(
                    f,
                    "sweep requires a fixed time grid (adaptive stepping set)"
                )
            }
            SweepError::InvalidParam { path } => {
                write!(f, "parameter {path:?} does not exist in the base circuit")
            }
            SweepError::Circuit(e) => write!(f, "variant elaboration failed: {e}"),
            SweepError::PatternMismatch { instance } => {
                write!(
                    f,
                    "instance {instance} elaborated to a different MNA pattern"
                )
            }
            SweepError::Dc { instance, source } => {
                write!(f, "instance {instance} dc operating point failed: {source}")
            }
            SweepError::Step {
                instance,
                step,
                source,
            } => write!(f, "instance {instance} step {step} failed: {source}"),
            SweepError::Adjoint { instance, source } => {
                write!(f, "instance {instance} adjoint pass failed: {source}")
            }
            SweepError::Compress(e) => write!(f, "cross-instance block failed to decode: {e}"),
            SweepError::WorkerPanicked => write!(f, "a sweep worker thread panicked"),
            SweepError::Internal(what) => write!(f, "sweep internal error: {what}"),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Circuit(e) => Some(e),
            SweepError::Dc { source, .. } | SweepError::Step { source, .. } => Some(source),
            SweepError::Adjoint { source, .. } => Some(source),
            SweepError::Compress(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CompressError> for SweepError {
    fn from(e: CompressError) -> Self {
        SweepError::Compress(e)
    }
}

/// Aggregate statistics of one sweep run.
#[derive(Debug, Clone, Default)]
pub struct SweepStats {
    /// Number of instances integrated.
    pub instances: usize,
    /// Transient steps per instance (excluding DC).
    pub steps: usize,
    /// Wall time of the lockstep forward pass (all instances).
    pub forward_time: Duration,
    /// Wall time of the reverse pass (decode + N adjoint cursors).
    pub adjoint_time: Duration,
    /// Wall time of the serial sections: compression during the forward
    /// pass, sealing, and the per-step decode of the reverse pass.
    /// Everything outside this is per-instance work that worker lanes run
    /// concurrently.
    pub serial_time: Duration,
    /// Compressed payload stored for the batch: instance 0's sealed `G`/`C`
    /// tensors plus every cross-instance block. This is the definition of
    /// `StoreMetrics::bytes_written`, so an N = 1 sweep stores exactly what
    /// `run_adjoint` over `StoreConfig::Compressed` does.
    pub super_tensor_bytes: usize,
    /// Raw size of every instance's stored non-zeros (`N · (T+1) ·
    /// (nnz_G + nnz_C) · 8`).
    pub raw_bytes: usize,
}

/// The result of a sweep: per-instance sensitivities, objective values and
/// forward metadata.
#[derive(Debug)]
pub struct SweepResult {
    /// `sensitivities[k].values[i][j] = dO_i/dp_j` for instance `k`.
    pub sensitivities: Vec<SensitivityResult>,
    /// `objective_values[k][i]` = objective `i` evaluated on instance `k`.
    pub objective_values: Vec<Vec<f64>>,
    /// Per-instance forward metadata (times, step sizes, states).
    pub metas: Vec<RunMeta>,
    /// Run statistics.
    pub stats: SweepStats,
}

/// Per-instance forward-integration state.
struct ForwardInst {
    system: System,
    lu: LuWorkspace,
    x: Vec<f64>,
    be: BeStepper,
    meta: RunMeta,
    g_compact: Vec<f64>,
    c_compact: Vec<f64>,
}

impl ForwardInst {
    /// Records the accepted point `(t, h)` the stepper just evaluated:
    /// gathers the compact `G`/`C` arrays and extends the history.
    fn record(&mut self, t: f64, h: f64) {
        let ev = &self.be.ev;
        gather_into(&self.system.g_slots, ev.g.values(), &mut self.g_compact);
        gather_into(&self.system.c_slots, ev.c.values(), &mut self.c_compact);
        self.meta.times.push(t);
        self.meta.hs.push(h);
        self.meta.states.push(self.x.clone());
    }
}

/// Per-instance reverse-pass state: the cursor does not borrow the system,
/// so the pair can travel to a worker thread together.
struct ReverseInst<'a> {
    cursor: AdjointCursor<'a>,
    system: System,
}

fn validate_param(base: &Circuit, p: &ParamRef) -> Result<(), SweepError> {
    let valid = base
        .devices()
        .get(p.device)
        .is_some_and(|d| p.local < d.param_count());
    if valid {
        Ok(())
    } else {
        Err(SweepError::InvalidParam {
            path: p.path.clone(),
        })
    }
}

/// Runs the batched sweep: N lockstep forward transients sharing one
/// symbolic LU analysis, one compressed super-tensor, and N concurrent
/// adjoint reverse passes over it.
///
/// Per-instance sensitivities match N independent single runs; the
/// stored bytes are invariant to `plan.workers`.
///
/// # Errors
///
/// Returns [`SweepError`] on an invalid plan, a failed solve, or a
/// stored block that fails to decode.
pub fn run_sweep(base: &Circuit, plan: &SweepPlan) -> Result<SweepResult, SweepError> {
    if plan.variants.is_empty() {
        return Err(SweepError::EmptyPlan);
    }
    if plan.tran.adaptive.is_some() {
        return Err(SweepError::AdaptiveUnsupported);
    }
    for p in plan
        .params
        .iter()
        .chain(plan.variants.iter().flat_map(|v| v.iter().map(|(p, _)| p)))
    {
        validate_param(base, p)?;
    }
    let n_steps = plan.tran.step_count();
    // Every instance shares the one fixed grid, so instance 0 stands for all.
    check_objective_steps(&plan.objectives, n_steps + 1).map_err(|source| SweepError::Adjoint {
        instance: 0,
        source,
    })?;
    let n_inst = plan.variants.len();
    let workers = plan.workers.max(1);
    let dt = plan.tran.dt;

    // Elaborate every variant; all must share instance 0's MNA structure.
    let mut circuits = Vec::with_capacity(n_inst);
    let mut insts: Vec<ForwardInst> = Vec::with_capacity(n_inst);
    for variant in &plan.variants {
        let mut ckt = base.clone();
        for (p, value) in variant {
            ckt.set_param_value(p, *value);
        }
        let system = ckt.elaborate().map_err(SweepError::Circuit)?;
        let n = system.n;
        insts.push(ForwardInst {
            x: vec![0.0; n],
            be: BeStepper::new(&system, plan.tran.newton),
            meta: RunMeta::default(),
            g_compact: vec![0.0; system.g_slots.len()],
            c_compact: vec![0.0; system.c_slots.len()],
            lu: LuWorkspace::new(),
            system,
        });
        circuits.push(ckt);
    }
    for (k, inst) in insts.iter().enumerate().skip(1) {
        if inst.system.pattern != insts[0].system.pattern
            || inst.system.g_pattern != insts[0].system.g_pattern
            || inst.system.c_pattern != insts[0].system.c_pattern
        {
            return Err(SweepError::PatternMismatch { instance: k });
        }
    }
    let g_pattern = insts[0].system.g_pattern.clone();
    let c_pattern = insts[0].system.c_pattern.clone();
    let g_maps = Arc::new(StampMaps::new(&g_pattern));
    let c_maps = Arc::new(StampMaps::new(&c_pattern));
    let circuits = circuits; // frozen: workers share &circuits

    let forward_start = Instant::now();

    // DC phase. Instance 0 goes first and mints the one symbolic analysis
    // everyone else reuses; the rest solve concurrently from it.
    let dc = |k: usize, inst: &mut ForwardInst| -> Result<(), SweepError> {
        let circuit = &circuits[k];
        let sol = dc_operating_point_ws(circuit, &mut inst.system, &plan.tran.newton, &mut inst.lu)
            .map_err(|source| SweepError::Dc {
                instance: k,
                source,
            })?;
        inst.x.copy_from_slice(&sol.x);
        inst.be.start(circuit, &mut inst.system, &inst.x, 0.0);
        inst.record(0.0, dt);
        Ok(())
    };
    dc(0, &mut insts[0])?;
    let shared_symbolic = insts[0].lu.symbolic().cloned();
    if let Some(sym) = &shared_symbolic {
        for inst in insts.iter_mut().skip(1) {
            inst.lu = LuWorkspace::with_symbolic(sym.clone());
        }
    }
    {
        let (_, rest) = insts.split_at_mut(1);
        wave(rest, 1, workers, SweepError::WorkerPanicked, &dc)?;
    }

    // Instance 0 flows through the temporal chain of two TensorCompressors
    // (G and C share nothing but the MASC config — they have distinct
    // patterns and maps); `cross[k - 1]` holds instance k's per-step
    // `(G, C)` blocks, encoded serially after each wave against instance
    // k − 1's same-step values.
    let mut tc_g =
        TensorCompressor::with_maps(g_pattern.clone(), g_maps.clone(), plan.masc.clone());
    let mut tc_c =
        TensorCompressor::with_maps(c_pattern.clone(), c_maps.clone(), plan.masc.clone());
    let mut cross: Vec<Vec<(Vec<u8>, Vec<u8>)>> = (1..n_inst)
        .map(|_| Vec::with_capacity(n_steps + 1))
        .collect();
    let mut serial_time = Duration::ZERO;
    let mut collect_step = |insts: &[ForwardInst]| {
        let serial_start = Instant::now();
        tc_g.push(&insts[0].g_compact);
        tc_c.push(&insts[0].c_compact);
        for (pair, blocks) in insts.windows(2).zip(cross.iter_mut()) {
            let (prev, cur) = (&pair[0], &pair[1]);
            let (g, _) =
                compress_matrix_cross(&cur.g_compact, &prev.g_compact, &g_maps, &plan.masc);
            let (c, _) =
                compress_matrix_cross(&cur.c_compact, &prev.c_compact, &c_maps, &plan.masc);
            blocks.push((g, c));
        }
        serial_time += serial_start.elapsed();
    };
    collect_step(&insts);

    // Lockstep transient on `transient_into`'s fixed grid (`t = step·dt`),
    // every instance advancing through the one shared stepper, so its
    // states and matrices are bitwise those of an independent single run.
    for step in 1..=n_steps {
        let t = step as f64 * dt;
        let advance = |k: usize, inst: &mut ForwardInst| -> Result<(), SweepError> {
            inst.be
                .step(
                    &circuits[k],
                    &mut inst.system,
                    &mut inst.lu,
                    &mut inst.x,
                    t,
                    dt,
                )
                .map_err(|source| SweepError::Step {
                    instance: k,
                    step,
                    source,
                })?;
            inst.record(t, dt);
            Ok(())
        };
        wave(&mut insts, 0, workers, SweepError::WorkerPanicked, &advance)?;
        collect_step(&insts);
    }

    // Seal instance 0's temporal chains into the tensor pair every other
    // driver stores.
    let seal_start = Instant::now();
    let (g_tensor, c_tensor) = (tc_g.finish(), tc_c.finish());
    let super_tensor_bytes = g_tensor.compressed_bytes()
        + c_tensor.compressed_bytes()
        + cross
            .iter()
            .flatten()
            .map(|(g, c)| g.len() + c.len())
            .sum::<usize>();
    serial_time += seal_start.elapsed();
    let forward_time = forward_start.elapsed();

    // Reverse pass: replay instance 0's pair newest-first through the
    // shared pair reader, decode each step's cross blocks against the
    // previous instance's decoded matrix (freeing each block as it goes),
    // and feed N adjoint cursors concurrently.
    let adjoint_start = Instant::now();
    let mut metas = Vec::with_capacity(n_inst);
    let mut systems = Vec::with_capacity(n_inst);
    for inst in insts {
        metas.push(inst.meta);
        systems.push(inst.system);
    }
    let mut rev: Vec<ReverseInst> = Vec::with_capacity(n_inst);
    for (k, system) in systems.into_iter().enumerate() {
        // Instance 0 gets a fresh workspace — exactly what a single run's
        // adjoint does, keeping it bit-comparable; the rest reuse the
        // forward pass's shared symbolic.
        let lu = match (&shared_symbolic, k) {
            (Some(sym), k) if k > 0 => LuWorkspace::with_symbolic(sym.clone()),
            _ => LuWorkspace::new(),
        };
        let cursor = AdjointCursor::with_workspace(
            &circuits[k],
            &system,
            &metas[k],
            &plan.objectives,
            &plan.params,
            lu,
        );
        rev.push(ReverseInst { cursor, system });
    }
    let mut reader = BackwardJacobians::from_tensors(g_tensor, c_tensor);
    loop {
        let decode_start = Instant::now();
        let replayed = reader.next_back().map_err(|e| SweepError::Adjoint {
            instance: 0,
            source: e.into(),
        })?;
        let Some((t, matrices)) = replayed else {
            break;
        };
        let StepMatrices::Stored { g, c } = matrices else {
            return Err(SweepError::Internal(
                "compressed replay yielded no matrices",
            ));
        };
        let mut gs = Vec::with_capacity(n_inst);
        let mut cs = Vec::with_capacity(n_inst);
        gs.push(g);
        cs.push(c);
        // Instance k + 1 decodes against instance k's matrices at step t.
        for (k, blocks) in cross.iter_mut().enumerate() {
            let (g_block, c_block) = blocks
                .pop()
                .ok_or(SweepError::Internal("cross-instance block missing"))?;
            let g = decompress_matrix(&g_block, &gs[k], &g_maps)?;
            let c = decompress_matrix(&c_block, &cs[k], &c_maps)?;
            gs.push(g);
            cs.push(c);
        }
        let mats = gs
            .into_iter()
            .zip(cs)
            .map(|(g, c)| Some(StepMatrices::Stored { g, c }));
        let mut items: Vec<(&mut ReverseInst, Option<StepMatrices>)> =
            rev.iter_mut().zip(mats).collect();
        serial_time += decode_start.elapsed();
        let on_panic = SweepError::WorkerPanicked;
        wave(&mut items, 0, workers, on_panic, &|k, (inst, mat)| {
            let matrices = mat
                .take()
                .ok_or(SweepError::Internal("step matrices consumed twice"))?;
            inst.cursor
                .offer(&mut inst.system, t, matrices)
                .map_err(|source| SweepError::Adjoint {
                    instance: k,
                    source,
                })
        })?;
    }
    let mut sensitivities = Vec::with_capacity(n_inst);
    let mut objective_values = Vec::with_capacity(n_inst);
    for (inst, meta) in rev.into_iter().zip(&metas) {
        objective_values.push(
            plan.objectives
                .iter()
                .map(|o| o.value(&meta.states, &meta.hs))
                .collect(),
        );
        sensitivities.push(inst.cursor.finish());
    }
    let adjoint_time = adjoint_start.elapsed();

    let stats = SweepStats {
        instances: n_inst,
        steps: n_steps,
        forward_time,
        adjoint_time,
        serial_time,
        super_tensor_bytes,
        raw_bytes: n_inst * (n_steps + 1) * (g_pattern.nnz() + c_pattern.nnz()) * 8,
    };
    Ok(SweepResult {
        sensitivities,
        objective_values,
        metas,
        stats,
    })
}
