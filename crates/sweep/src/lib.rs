//! Batched parameter-sweep sensitivity over one shared-structure
//! super-tensor.
//!
//! A [`SweepPlan`] elaborates N parameter variants of one netlist — same
//! topology, same MNA pattern, different device values — and runs their
//! forward transients in lockstep on `std::thread::scope` workers. Every
//! instance shares one [`masc_sparse::SymbolicLu`] (minted by instance 0's
//! DC factorization) and one set of stamp maps, and each timestep's N
//! Jacobian pairs are written into a single compressed *super-tensor*:
//! instance 0 flows through the ordinary temporal chain, instances
//! `1..N` are era-3 *cross-instance* blocks encoded against their
//! neighbor's same-step matrix (adjacent variants differ only in the swept
//! stamps, so those residuals are far sparser than the temporal axis —
//! the paper's spatiotemporal prediction gaining a third, batch axis).
//!
//! The reverse pass parses the super-tensor back ([`wire`]), decodes each
//! step's blocks (temporal chain for instance 0, neighbor reference for
//! the rest), and feeds N [`masc_adjoint::AdjointCursor`]s concurrently.
//! Per-instance sensitivities are bit-comparable to N independent single
//! runs, and the super-tensor bytes are identical for any worker count:
//! each instance's Newton arithmetic is independent and deterministic, and
//! all encoding happens serially between waves.
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

// Unit tests may assert with unwrap/expect; shipping code may not (see
// clippy.toml and masc-lint rule R1).
#![cfg_attr(test, allow(clippy::disallowed_methods))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod wire;

pub use wire::{SuperTensorHeader, SuperTensorIndex, WireError, WIRE_VERSION};

use masc_adjoint::lanes::wave;
use masc_adjoint::{
    check_objective_steps, AdjointCursor, AdjointError, Objective, RunMeta, SensitivityResult,
    StepMatrices,
};
use masc_circuit::dc::dc_operating_point_ws;
use masc_circuit::transient::{BeStepper, TranOptions};
use masc_circuit::{Circuit, CircuitError, NewtonError, ParamRef, System};
use masc_compress::{
    compress_matrix_cross, decompress_matrix, BackwardDecompressor, CompressError, MascConfig,
    StampMaps, TensorCompressor,
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
    /// rejected — lockstep integration and the per-step super-blocks need
    /// one shared fixed time grid.
    pub tran: TranOptions,
    /// Objectives differentiated for every instance.
    pub objectives: Vec<Objective>,
    /// Parameters differentiated against for every instance.
    pub params: Vec<ParamRef>,
    /// Compressor configuration for the super-tensor.
    pub masc: MascConfig,
    /// Worker threads for the forward Newton and reverse adjoint waves
    /// (`0` and `1` both mean serial). The super-tensor bytes and the
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
    /// The super-tensor failed to frame or parse.
    Wire(WireError),
    /// A super-tensor block failed to decode.
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
            SweepError::Wire(e) => write!(f, "super-tensor framing failed: {e}"),
            SweepError::Compress(e) => write!(f, "super-tensor block failed to decode: {e}"),
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
            SweepError::Wire(e) => Some(e),
            SweepError::Compress(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for SweepError {
    fn from(e: WireError) -> Self {
        SweepError::Wire(e)
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
    /// Wall time of the serial sections: super-tensor compression during
    /// the forward pass, framing, and the per-step decode chain of the
    /// reverse pass. Everything outside this is per-instance work that
    /// worker lanes run concurrently, so `serial_time` plus
    /// `(total_time - serial_time) / N` models the N-worker critical
    /// path.
    pub serial_time: Duration,
    /// End-to-end wall time.
    pub total_time: Duration,
    /// Size of the framed super-tensor.
    pub super_tensor_bytes: usize,
    /// Raw size of every instance's stored non-zeros (`N · (T+1) ·
    /// (nnz_G + nnz_C) · 8`).
    pub raw_bytes: usize,
}

/// The result of a sweep: per-instance sensitivities plus the shared
/// super-tensor.
#[derive(Debug)]
pub struct SweepResult {
    /// `sensitivities[k].values[i][j] = dO_i/dp_j` for instance `k`.
    pub sensitivities: Vec<SensitivityResult>,
    /// `objective_values[k][i]` = objective `i` evaluated on instance `k`.
    pub objective_values: Vec<Vec<f64>>,
    /// Per-instance forward metadata (times, step sizes, states).
    pub metas: Vec<RunMeta>,
    /// The framed compressed super-tensor (parse with
    /// [`wire::SuperTensorIndex`]).
    pub super_tensor: Vec<u8>,
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
        let gv = self.be.ev.g.values();
        for (dst, &slot) in self.g_compact.iter_mut().zip(self.system.g_slots.iter()) {
            *dst = gv[slot];
        }
        let cv = self.be.ev.c.values();
        for (dst, &slot) in self.c_compact.iter_mut().zip(self.system.c_slots.iter()) {
            *dst = cv[slot];
        }
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
/// super-tensor bytes are invariant to `plan.workers`.
///
/// # Errors
///
/// Returns [`SweepError`] on an invalid plan, a failed solve, or a
/// super-tensor fault.
pub fn run_sweep(base: &Circuit, plan: &SweepPlan) -> Result<SweepResult, SweepError> {
    let run_start = Instant::now();
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

    // Super-tensor accumulators. Instance 0 flows through the temporal
    // chain of two TensorCompressors (G and C share nothing but the MASC
    // config — they have distinct patterns and maps); instances 1..N are
    // encoded serially after each wave as cross blocks against their
    // neighbor's same-step values.
    let mut tc_g =
        TensorCompressor::with_maps(g_pattern.clone(), g_maps.clone(), plan.masc.clone());
    let mut tc_c =
        TensorCompressor::with_maps(c_pattern.clone(), c_maps.clone(), plan.masc.clone());
    let mut g_rows: Vec<Vec<Vec<u8>>> = Vec::new();
    let mut c_rows: Vec<Vec<Vec<u8>>> = Vec::new();
    let mut serial_time = Duration::ZERO;
    let mut collect_step = |insts: &[ForwardInst]| {
        let serial_start = Instant::now();
        tc_g.push(&insts[0].g_compact);
        tc_c.push(&insts[0].c_compact);
        let mut g_row = Vec::with_capacity(n_inst);
        let mut c_row = Vec::with_capacity(n_inst);
        // Placeholder for instance 0, filled from the sealed chain below.
        g_row.push(Vec::new());
        c_row.push(Vec::new());
        for k in 1..n_inst {
            let (bytes, _) = compress_matrix_cross(
                &insts[k].g_compact,
                &insts[k - 1].g_compact,
                &g_maps,
                &plan.masc,
            );
            g_row.push(bytes);
            let (bytes, _) = compress_matrix_cross(
                &insts[k].c_compact,
                &insts[k - 1].c_compact,
                &c_maps,
                &plan.masc,
            );
            c_row.push(bytes);
        }
        g_rows.push(g_row);
        c_rows.push(c_row);
        serial_time += serial_start.elapsed();
    };
    collect_step(&insts);

    // Lockstep transient on `transient_ws`'s fixed grid (`t = step·dt`),
    // every instance advancing through the one shared stepper, so its
    // states and matrices are bitwise those of an independent single run.
    let mut t_now = 0.0f64;
    let mut step = 0usize;
    let t_end = plan.tran.t_stop * (1.0 - 1e-12);
    while t_now < t_end {
        step += 1;
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
        t_now = t;
    }

    // Seal the temporal chains and frame the super-tensor.
    let frame_start = Instant::now();
    tc_g.seal();
    tc_c.seal();
    let n_blocks = g_rows.len();
    if tc_g.sealed_len() != n_blocks || tc_c.sealed_len() != n_blocks {
        return Err(SweepError::Internal("temporal chain length != step count"));
    }
    for t in 0..n_blocks {
        g_rows[t][0] = tc_g
            .take_block(t)
            .ok_or(SweepError::Internal("temporal G block missing"))?;
        c_rows[t][0] = tc_c
            .take_block(t)
            .ok_or(SweepError::Internal("temporal C block missing"))?;
    }
    let header = SuperTensorHeader {
        n_instances: n_inst,
        n_blocks,
        g_nnz: g_pattern.nnz(),
        c_nnz: c_pattern.nnz(),
    };
    let super_tensor = wire::encode_super_tensor(&header, &g_rows, &c_rows)?;
    drop(g_rows);
    drop(c_rows);
    serial_time += frame_start.elapsed();
    let forward_time = forward_start.elapsed();

    // Reverse pass: decode each step's super-block group newest-first and
    // feed N adjoint cursors concurrently. Going end-to-end through the
    // serialized stream keeps the wire path honest.
    let adjoint_start = Instant::now();
    let index = SuperTensorIndex::parse(&super_tensor)?;
    let mut metas = Vec::with_capacity(n_inst);
    let mut systems = Vec::with_capacity(n_inst);
    for inst in insts {
        metas.push(inst.meta);
        systems.push(inst.system);
    }
    // Every instance shares the one fixed grid, so instance 0 stands for all.
    check_objective_steps(&plan.objectives, metas[0].times.len()).map_err(|source| {
        SweepError::Adjoint {
            instance: 0,
            source,
        }
    })?;
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
    let mut g_chain = BackwardDecompressor::chained(&g_pattern, g_maps.clone());
    let mut c_chain = BackwardDecompressor::chained(&c_pattern, c_maps.clone());
    for t in (0..n_blocks).rev() {
        let decode_start = Instant::now();
        let mut gs = Vec::with_capacity(n_inst);
        let mut cs = Vec::with_capacity(n_inst);
        gs.push(g_chain.decode_block(index.g_block(&super_tensor, t, 0)?)?);
        cs.push(c_chain.decode_block(index.c_block(&super_tensor, t, 0)?)?);
        for k in 1..n_inst {
            let g = decompress_matrix(index.g_block(&super_tensor, t, k)?, &gs[k - 1], &g_maps)?;
            gs.push(g);
            let c = decompress_matrix(index.c_block(&super_tensor, t, k)?, &cs[k - 1], &c_maps)?;
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
        steps: step,
        forward_time,
        adjoint_time,
        serial_time,
        total_time: run_start.elapsed(),
        super_tensor_bytes: super_tensor.len(),
        raw_bytes: n_inst * n_blocks * (g_pattern.nnz() + c_pattern.nnz()) * 8,
    };
    Ok(SweepResult {
        sensitivities,
        objective_values,
        metas,
        super_tensor,
        stats,
    })
}
