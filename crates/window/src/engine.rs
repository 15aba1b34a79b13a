//! The parallel-in-time windowed adjoint engine (DESIGN.md §3.14).
//!
//! Forward: seed window-initial states with the serial coarse propagator,
//! then Parareal-iterate — stale windows re-integrate concurrently, each
//! sealing its own compressed tensor pair (two [`TensorCompressor`]s),
//! and a serial ascending sweep corrects the seeds. A bitwise-stability
//! guard (an unchanged seed forwards the fine end state verbatim) makes the
//! iteration *exactly* convergent in at most `W` sweeps at `tol = 0`.
//!
//! Reverse: the mirror image. Per-window adjoint passes run concurrently
//! against the sealed tensors; [`WindowTerminal`]s stitch the deferred
//! `Cᵀw/h` update backward across boundaries in a serial descending sweep
//! with the same guard. Every pass is a *full* pass — the `w` recursion
//! is parameter-independent and `φ` accumulation is cheap next to
//! decode + factor + solve — so the converged iteration's per-window
//! `dO/dp` partials are final and no dedicated accumulation row lands on
//! the critical path. A deterministic serial fold over descending window
//! index sums the partials, so results are bitwise reproducible for any
//! lane count.

use crate::coarse::Coarse;
use crate::split::{split_steps, WindowSpan};
use crate::{WindowError, WindowOptions, WindowResult, WindowStats};
use masc_adjoint::lanes::wave;
use masc_adjoint::store::StepMatrices;
use masc_adjoint::{
    check_objective_steps, AdjointCursor, AdjointError, BackwardJacobians, Objective, RunMeta,
    WindowTerminal,
};
use masc_circuit::dc::dc_operating_point_ws;
use masc_circuit::transient::{BeStepper, TranOptions};
use masc_circuit::{gather_into, Circuit, ParamRef, System};
use masc_compress::{CompressedTensor, StampMaps, TensorCompressor};
use masc_sparse::{CsrMatrix, LuWorkspace};
use std::sync::Arc;
use std::time::Instant;

/// L∞ distance between two equally sized vectors.
fn linf(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f64, f64::max)
}

/// Whether two vectors differ in any bit (the stability guard's test —
/// value equality would let `±0.0` slip through).
fn bits_differ(a: &[f64], b: &[f64]) -> bool {
    a.len() != b.len() || a.iter().zip(b).any(|(x, y)| x.to_bits() != y.to_bits())
}

/// One window's forward-integration state.
struct Lane {
    span: WindowSpan,
    system: System,
    lu: LuWorkspace,
    seed: Vec<f64>,
    /// Local states of the last fine run (`span.len() + 1`, index 0 = the
    /// seed the run started from).
    states: Vec<Vec<f64>>,
    tensors: Option<(CompressedTensor, CompressedTensor)>,
    /// Seed changed since the last fine run (re-integration required).
    dirty: bool,
    /// Seed changed since `gc_end` was computed (coarse correction
    /// arithmetic required; otherwise the fine end state is forwarded
    /// verbatim — the bitwise-stability guard).
    changed: bool,
    gc_end: Option<Vec<f64>>,
}

/// The `G` and `C` stamp maps, built once per run and shared by every
/// window's compressors.
type TensorMaps = (Arc<StampMaps>, Arc<StampMaps>);

/// Fine backward-Euler integration of one window on the global grid
/// (`t = step·dt`) through the same stepper as
/// [`masc_circuit::transient::transient_into`], so a converged windowed
/// trajectory is bitwise the monolithic one. Seals the window's compressed
/// tensor pair (local block 0 holds the matrices at the seed state and
/// anchors the compression chain).
fn fine_run(
    k: usize,
    lane: &mut Lane,
    circuit: &Circuit,
    tran: &TranOptions,
    opts: &WindowOptions,
    maps: &TensorMaps,
) -> Result<(), WindowError> {
    if opts.fault_panic_window == Some(k) {
        panic!("injected fault in window {k}");
    }
    let span = lane.span;
    let dt = tran.dt;
    let system = &mut lane.system;
    let mut tc_g =
        TensorCompressor::with_maps(system.g_pattern.clone(), maps.0.clone(), opts.masc.clone());
    let mut tc_c =
        TensorCompressor::with_maps(system.c_pattern.clone(), maps.1.clone(), opts.masc.clone());
    let mut states = Vec::with_capacity(span.len() + 1);
    let (mut g, mut c) = (Vec::new(), Vec::new());
    let mut be = BeStepper::new(system, tran.newton);
    let mut x = lane.seed.clone();
    be.start(circuit, system, &x, span.start as f64 * dt);
    for ls in 0..=span.len() {
        if ls > 0 {
            let gstep = span.start + ls;
            be.step(circuit, system, &mut lane.lu, &mut x, gstep as f64 * dt, dt)
                .map_err(|source| WindowError::Step {
                    window: k,
                    step: gstep,
                    source,
                })?;
        }
        gather_into(&system.g_slots, be.ev.g.values(), &mut g);
        gather_into(&system.c_slots, be.ev.c.values(), &mut c);
        tc_g.push(&g);
        tc_c.push(&c);
        states.push(x.clone());
    }
    lane.tensors = Some((tc_g.finish(), tc_c.finish()));
    lane.states = states;
    lane.dirty = false;
    Ok(())
}

/// One window's reverse-pass state.
struct RevLane {
    span: WindowSpan,
    system: System,
    tensors: (CompressedTensor, CompressedTensor),
    /// Incoming terminal condition (`Λ_k`) — `None` for the last window.
    term_in: Option<WindowTerminal>,
    /// Outgoing terminal of the last pass.
    term_out: Option<WindowTerminal>,
    /// Per-window `dO/dp` partial of the last pass (final once the
    /// terminal iteration converges).
    partial: Option<Vec<Vec<f64>>>,
    dirty: bool,
    changed: bool,
    gc_end: Option<WindowTerminal>,
}

/// One full reverse pass over a window's sealed tensors: replay them
/// newest-first through the shared pair reader, feed an [`AdjointCursor`],
/// accumulate the `dO/dp` partial, export the outgoing terminal. The `w`
/// recursion is
/// parameter-independent and `φ` accumulation is cheap next to
/// decode + factor + solve, so every Parareal iteration runs full passes:
/// at convergence the incoming terminals are the accepted ones, which
/// makes the last pass's partial exactly what a dedicated final pass
/// would recompute — no extra reverse row on the critical path.
fn adjoint_pass(
    k: usize,
    lane: &mut RevLane,
    circuit: &Circuit,
    meta: &RunMeta,
    objectives: &[Objective],
    params: &[ParamRef],
) -> Result<(), WindowError> {
    let mut reader =
        BackwardJacobians::from_tensors(lane.tensors.0.clone(), lane.tensors.1.clone());
    let mut cursor = AdjointCursor::new(circuit, &lane.system, meta, objectives, params);
    if let Some(t) = &lane.term_in {
        cursor.inject_terminal(t.ws.clone(), t.h);
    }
    while let Some((ls, matrices)) = reader.next_back()? {
        if ls == 0 && lane.span.start > 0 {
            // Local block 0 anchors the compression chain but duplicates
            // the predecessor window's boundary step — skip it.
            continue;
        }
        cursor
            .offer(&mut lane.system, lane.span.start + ls, matrices)
            .map_err(|source| WindowError::Adjoint { window: k, source })?;
    }
    let (result, term) = cursor.finish_window();
    lane.term_out = term;
    lane.partial = Some(result.values);
    lane.dirty = false;
    Ok(())
}

/// The coarse adjoint propagator of one window — the reverse-pass analog
/// of [`Coarse`]: `substeps` large-step backward-Euler transpose solves
/// against *frozen* matrices, walking the adjoint recursion
/// `v ← g + Cᵀw/h_c`, `Jᵀw = v` from the right edge to the left with
/// coarse-node gradient sources. The matrices are taken from the window's
/// *left-boundary* block — the predecessor window's newest stored step,
/// one block decode — because that is the operating point where
/// the exported terminal acts; on networks whose Jacobian swings with the
/// drive, a right-edge freeze would bias the terminal by the full
/// within-window drift. Freezing keeps it a fixed linear map, which is
/// all Parareal needs for consistency; the substeps capture the
/// within-window adjoint decay, which is what makes the seeds accurate on
/// strongly dissipative networks.
struct AdjCoarse {
    span: WindowSpan,
    substeps: usize,
    /// Coarse substep width `span_h / substeps`.
    h_c: f64,
    j: CsrMatrix,
    c: CsrMatrix,
    lu: LuWorkspace,
    grad: Vec<f64>,
    v: Vec<f64>,
    work: Vec<f64>,
}

impl AdjCoarse {
    /// Builds the propagator from the window's left-boundary block —
    /// `tensors` must be the *predecessor* window's sealed pair, whose
    /// newest stored step is this window's boundary.
    fn new(
        k: usize,
        span: WindowSpan,
        system: &System,
        tensors: &(CompressedTensor, CompressedTensor),
        dt: f64,
        substeps: usize,
    ) -> Result<Self, WindowError> {
        let substeps = substeps.max(1).min(span.len());
        let h_c = span.len() as f64 * dt / substeps as f64;
        let newest =
            BackwardJacobians::from_tensors(tensors.0.clone(), tensors.1.clone()).next_back()?;
        let Some((_, StepMatrices::Stored { g: g_b, c: c_b })) = newest else {
            return Err(WindowError::Internal("window tensor is empty"));
        };
        let mut g_mat = CsrMatrix::zeros(system.pattern.clone());
        let mut c_mat = CsrMatrix::zeros(system.pattern.clone());
        system.scatter_g(&g_b, g_mat.values_mut());
        system.scatter_c(&c_b, c_mat.values_mut());
        let mut j = g_mat;
        for (jv, cv) in j.values_mut().iter_mut().zip(c_mat.values()) {
            *jv += cv / h_c;
        }
        let n = system.n;
        let mut this = Self {
            span,
            substeps,
            h_c,
            j,
            c: c_mat,
            lu: LuWorkspace::new(),
            grad: vec![0.0; n],
            v: vec![0.0; n],
            work: Vec::new(),
        };
        // Factor `j` now: it never changes afterwards, so every later
        // apply gets the workspace's held factors without an elimination.
        this.lu
            .factor(&this.j)
            .map_err(|source| WindowError::Adjoint {
                window: k,
                source: AdjointError::Lu {
                    step: span.start,
                    source,
                },
            })?;
        Ok(this)
    }

    /// Maps an incoming terminal to an approximate outgoing one.
    fn apply(
        &mut self,
        k: usize,
        meta: &RunMeta,
        objectives: &[Objective],
        term_in: Option<&WindowTerminal>,
    ) -> Result<WindowTerminal, WindowError> {
        let n_steps = meta.times.len().saturating_sub(1);
        let span_len = self.span.len();
        let factors = self
            .lu
            .factor(&self.j)
            .map_err(|source| WindowError::Adjoint {
                window: k,
                source: AdjointError::Lu {
                    step: self.span.start,
                    source,
                },
            })?;
        let mut ws = Vec::with_capacity(objectives.len());
        for (i, objective) in objectives.iter().enumerate() {
            let mut w: Vec<f64> = Vec::new();
            for s in 0..self.substeps {
                // The fine step this coarse node stands in for, walking
                // right edge → left; gradient sources carry the coarse
                // quadrature weight `h_c` so the window's total source
                // mass is consistent with the fine recursion's.
                let step =
                    self.span.start + ((self.substeps - s) * span_len).div_ceil(self.substeps);
                objective.gradient_into(
                    step,
                    n_steps,
                    self.h_c,
                    &meta.states[step],
                    &mut self.grad,
                );
                self.v.copy_from_slice(&self.grad);
                if s == 0 {
                    if let Some(t) = term_in {
                        let ct_w = self.c.mul_vec_transpose(&t.ws[i]);
                        for (vi, ci) in self.v.iter_mut().zip(&ct_w) {
                            *vi += ci / t.h;
                        }
                    }
                } else {
                    let ct_w = self.c.mul_vec_transpose(&w);
                    for (vi, ci) in self.v.iter_mut().zip(&ct_w) {
                        *vi += ci / self.h_c;
                    }
                }
                factors.solve_transpose_into(&self.v, &mut self.work, &mut w);
            }
            // Normalize to the fine grid's divisor: a terminal `(w, h)`
            // acts as `Cᵀw/h`, so the coarse-grid adjoint (whose natural
            // pending update is `Cᵀw/h_c`) is rescaled to an equivalent
            // terminal over `h = hs[span.end]` before it meets candidates
            // exported by fine passes.
            let h_out = meta.hs[self.span.end];
            if h_out.to_bits() != self.h_c.to_bits() {
                let scale = h_out / self.h_c;
                for v in &mut w {
                    *v *= scale;
                }
            }
            ws.push(w);
        }
        Ok(WindowTerminal {
            ws,
            h: meta.hs[self.span.end],
        })
    }
}

/// Coupling-residual distance between a candidate terminal and the
/// current one (`INFINITY` when no current terminal exists).
///
/// A terminal `(w, h)` acts on its consumer only through the pending
/// update `Cᵀw/h`, so the honest jump metric is `‖CᵀΔw‖∞/h` with `C`
/// taken at the window boundary — the exact perturbation the update would
/// inject into the predecessor's adjoint recursion. On stiff networks the
/// raw `Δw` can sit orders of magnitude above its dynamical influence.
fn terminal_jump(cand: &WindowTerminal, current: Option<&WindowTerminal>, c: &CsrMatrix) -> f64 {
    let Some(cur) = current else {
        return f64::INFINITY;
    };
    let mut jump = (cand.h - cur.h).abs();
    for (a, b) in cand.ws.iter().zip(&cur.ws) {
        let diff: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
        let ct = c.mul_vec_transpose(&diff);
        jump = ct.iter().map(|v| (v / cand.h).abs()).fold(jump, f64::max);
    }
    jump
}

/// Whether a candidate terminal differs bitwise from the current one.
fn terminal_differs(cand: &WindowTerminal, current: Option<&WindowTerminal>) -> bool {
    let Some(cur) = current else {
        return true;
    };
    cand.h.to_bits() != cur.h.to_bits()
        || cand.ws.len() != cur.ws.len()
        || cand.ws.iter().zip(&cur.ws).any(|(a, b)| bits_differ(a, b))
}

/// Runs the parallel-in-time windowed adjoint: `W` windows integrated and
/// differentiated with Parareal iteration, per-window compressed tensors,
/// and deterministic cross-window stitching (see the crate docs and
/// DESIGN.md §3.14).
///
/// At `tol = 0.0` the result is bitwise independent of `opts.lanes` and
/// `opts.windows == 1` reproduces [`masc_adjoint::run_adjoint`] bit for
/// bit; converged multi-window sensitivities match the monolithic run to
/// floating-point summation order (≲ 1e-9 relative on the conformance
/// decks).
///
/// # Errors
///
/// Returns [`WindowError`] on invalid options, a failed solve, a tensor
/// fault, or a non-converging iteration.
pub fn run_windowed(
    circuit: &mut Circuit,
    tran: &TranOptions,
    opts: &WindowOptions,
    objectives: &[Objective],
    params: &[ParamRef],
) -> Result<WindowResult, WindowError> {
    if tran.adaptive.is_some() {
        return Err(WindowError::AdaptiveUnsupported);
    }
    if opts.periodic && opts.tol <= 0.0 {
        return Err(WindowError::PeriodicNeedsTol);
    }
    let n_steps = tran.step_count();
    let spans = split_steps(n_steps, opts.windows)?;
    let w = spans.len();
    check_objective_steps(objectives, n_steps + 1).map_err(|source| WindowError::Adjoint {
        window: w - 1,
        source,
    })?;
    let dt = tran.dt;

    // One elaborated system per window lane plus one for the coarse
    // propagator (elaboration is idempotent on the circuit).
    let mut systems = Vec::with_capacity(w);
    for _ in 0..w {
        systems.push(circuit.elaborate().map_err(WindowError::Circuit)?);
    }
    let need_coarse = w > 1 || opts.periodic;
    let coarse_system = if need_coarse {
        Some(circuit.elaborate().map_err(WindowError::Circuit)?)
    } else {
        None
    };
    let circuit: &Circuit = circuit;

    let mut stats = WindowStats {
        windows: w,
        steps: n_steps,
        ..WindowStats::default()
    };

    // Seed phase: one DC solve with a fresh workspace mints the symbolic
    // LU analysis every lane and the coarse propagator share.
    let serial_start = Instant::now();
    let mut seed_lu = LuWorkspace::new();
    let sys0 = systems
        .first_mut()
        .ok_or(WindowError::Internal("no window systems"))?;
    let maps: TensorMaps = (
        Arc::new(StampMaps::new(&sys0.g_pattern)),
        Arc::new(StampMaps::new(&sys0.c_pattern)),
    );
    let dc = dc_operating_point_ws(circuit, sys0, &tran.newton, &mut seed_lu)
        .map_err(WindowError::Dc)?;
    let sym = seed_lu.symbolic().cloned();
    let mk_lu = || {
        sym.as_ref()
            .map_or_else(LuWorkspace::new, |s| LuWorkspace::with_symbolic(s.clone()))
    };
    let mut coarse =
        coarse_system.map(|cs| Coarse::new(cs, mk_lu(), tran.newton, opts.coarse_substeps));
    let mut lanes: Vec<Lane> = Vec::with_capacity(w);
    for (system, span) in systems.into_iter().zip(spans.iter()) {
        lanes.push(Lane {
            span: *span,
            system,
            lu: mk_lu(),
            seed: Vec::new(),
            states: Vec::new(),
            tensors: None,
            dirty: true,
            changed: false,
            gc_end: None,
        });
    }
    stats.serial_time += serial_start.elapsed();

    // Window-initial seeds. Non-periodic runs start window 0 from the DC
    // point; periodic runs first close the time loop on the coarse
    // problem (x(0) = x(T) by fixed-point iteration over full coarse
    // sweeps).
    let coarse_start = Instant::now();
    let mut u0 = dc.x;
    if opts.periodic {
        let c = coarse
            .as_mut()
            .ok_or(WindowError::Internal("periodic run without coarse"))?;
        for _ in 0..50 {
            let mut y = u0.clone();
            for (kk, span) in spans.iter().enumerate() {
                c.propagate(circuit, &mut y, *span, dt)
                    .map_err(|source| WindowError::Coarse { window: kk, source })?;
            }
            let jump = linf(&y, &u0);
            u0 = y;
            if jump <= opts.tol {
                break;
            }
        }
    }
    lanes[0].seed = u0;
    for k in 0..w - 1 {
        let c = coarse
            .as_mut()
            .ok_or(WindowError::Internal("multi-window run without coarse"))?;
        let mut x = lanes[k].seed.clone();
        c.propagate(circuit, &mut x, spans[k], dt)
            .map_err(|source| WindowError::Coarse { window: k, source })?;
        lanes[k].gc_end = Some(x.clone());
        lanes[k + 1].seed = x;
    }
    stats.coarse_time += coarse_start.elapsed();

    // Forward Parareal iteration, capped at `w + 1` sweeps (enough for the
    // guaranteed exact cascade); a periodic run gets a larger cap.
    let cap = if opts.periodic { 8 * (w + 1) } else { w + 1 };
    let mut converged = false;
    while stats.forward_iterations < cap {
        stats.fine_runs += lanes.iter().filter(|l| l.dirty).count();
        let refine = |k: usize, lane: &mut Lane| {
            if !lane.dirty {
                return Ok(());
            }
            fine_run(k, lane, circuit, tran, opts, &maps)
        };
        wave(
            &mut lanes,
            0,
            opts.lanes,
            WindowError::WorkerPanicked,
            &refine,
        )?;
        stats.forward_iterations += 1;

        // Serial ascending correction sweep. An unchanged seed forwards
        // the fine end state verbatim (no coarse arithmetic), which is
        // what makes the cascade exact and ≤ W iterations at tol = 0.
        let sweep_start = Instant::now();
        let coarse_before = stats.coarse_time;
        let mut max_jump = 0.0f64;
        for k in 0..w.saturating_sub(1) {
            let f_end = lanes[k]
                .states
                .last()
                .ok_or(WindowError::Internal("window has no states"))?
                .clone();
            let cand: Vec<f64> = if lanes[k].changed {
                let c = coarse
                    .as_mut()
                    .ok_or(WindowError::Internal("multi-window run without coarse"))?;
                let mut gc = lanes[k].seed.clone();
                let t0 = Instant::now();
                c.propagate(circuit, &mut gc, spans[k], dt)
                    .map_err(|source| WindowError::Coarse { window: k, source })?;
                stats.coarse_time += t0.elapsed();
                let old_gc = lanes[k]
                    .gc_end
                    .as_ref()
                    .ok_or(WindowError::Internal("stale coarse end missing"))?;
                let cand = f_end
                    .iter()
                    .zip(&gc)
                    .zip(old_gc)
                    .map(|((f, g), o)| f + g - o)
                    .collect();
                lanes[k].gc_end = Some(gc);
                lanes[k].changed = false;
                cand
            } else {
                f_end
            };
            // Convergence is judged on the coupling residual `‖Δq‖∞/h`:
            // the seed enters window k+1's recursion only through
            // `q(x_seed)/h`, so this is the exact perturbation the update
            // would inject (see `Coarse::coupling_gap`).
            let jump = coarse
                .as_mut()
                .ok_or(WindowError::Internal("multi-window run without coarse"))?
                .coupling_gap(
                    circuit,
                    &cand,
                    &lanes[k + 1].seed,
                    spans[k].end as f64 * dt,
                    dt,
                );
            max_jump = max_jump.max(jump);
            if bits_differ(&cand, &lanes[k + 1].seed) {
                lanes[k + 1].seed = cand;
                lanes[k + 1].dirty = true;
                lanes[k + 1].changed = true;
            }
        }
        if opts.periodic {
            let f_end = lanes[w - 1]
                .states
                .last()
                .ok_or(WindowError::Internal("window has no states"))?
                .clone();
            let jump = linf(&f_end, &lanes[0].seed);
            stats.periodic_residual = Some(jump);
            max_jump = max_jump.max(jump);
            if jump > opts.tol && bits_differ(&f_end, &lanes[0].seed) {
                lanes[0].seed = f_end;
                lanes[0].dirty = true;
                lanes[0].changed = true;
            }
        }
        stats.forward_jumps.push(max_jump);
        stats.serial_time += sweep_start
            .elapsed()
            .saturating_sub(stats.coarse_time.saturating_sub(coarse_before));
        if max_jump <= opts.tol {
            converged = true;
            break;
        }
    }
    if !converged {
        return Err(WindowError::Unconverged {
            iterations: stats.forward_iterations,
            jump: stats.forward_jumps.last().copied().unwrap_or(f64::INFINITY),
        });
    }

    // Stitch the global forward metadata, moving each lane's states out.
    // Fixed grid: `times[s] = s·dt` exactly as the monolithic transient
    // computes them; every window after the first drops its local state 0,
    // which duplicates its predecessor's last.
    let assemble_start = Instant::now();
    let mut meta = RunMeta::default();
    meta.times.reserve(n_steps + 1);
    meta.hs.reserve(n_steps + 1);
    meta.states.reserve(n_steps + 1);
    for s in 0..=n_steps {
        meta.times.push(s as f64 * dt);
        meta.hs.push(dt);
    }
    for (k, lane) in lanes.iter_mut().enumerate() {
        let states = std::mem::take(&mut lane.states);
        meta.states
            .extend(states.into_iter().skip(usize::from(k > 0)));
    }
    if meta.states.len() != n_steps + 1 {
        return Err(WindowError::Internal("stitched state count mismatch"));
    }
    let objective_values: Vec<f64> = objectives
        .iter()
        .map(|o| o.value(&meta.states, &meta.hs))
        .collect();

    // Reverse pass. Move each window's system and sealed tensors into a
    // reverse lane; adjoint cursors use fresh workspaces, mirroring the
    // monolithic `run_adjoint`.
    let mut rev: Vec<RevLane> = Vec::with_capacity(w);
    for lane in lanes {
        let tensors = lane
            .tensors
            .ok_or(WindowError::Internal("window tensors missing"))?;
        rev.push(RevLane {
            span: lane.span,
            system: lane.system,
            tensors,
            term_in: None,
            term_out: None,
            partial: None,
            dirty: true,
            changed: false,
            gc_end: None,
        });
    }
    // Each window's coarse adjoint freezes the matrices of its *left*
    // boundary (where the exported terminal acts), which are the newest
    // stored block of the predecessor window's tensors — one decode.
    let mut adj_coarse: Vec<Option<AdjCoarse>> = Vec::with_capacity(w);
    adj_coarse.push(None);
    for k in 1..w {
        adj_coarse.push(Some(AdjCoarse::new(
            k,
            rev[k].span,
            &rev[k].system,
            &rev[k - 1].tensors,
            dt,
            opts.coarse_substeps,
        )?));
    }
    stats.window_bytes = rev
        .iter()
        .map(|l| l.tensors.0.compressed_bytes() + l.tensors.1.compressed_bytes())
        .collect();
    stats.serial_time += assemble_start.elapsed();

    if w > 1 {
        // Seed terminal conditions with the coarse adjoint, newest window
        // first (the true terminal of window W−1 is "no pending update").
        let seed_start = Instant::now();
        for k in (1..w).rev() {
            let ac = adj_coarse[k]
                .as_mut()
                .ok_or(WindowError::Internal("adjoint coarse missing"))?;
            let out = ac.apply(k, &meta, objectives, rev[k].term_in.as_ref())?;
            rev[k].gc_end = Some(out.clone());
            rev[k - 1].term_in = Some(out);
        }
        stats.serial_time += seed_start.elapsed();

        // Adjoint Parareal iteration. Every pass is a full pass (the `w`
        // recursion is parameter-independent and `φ` is cheap), so the
        // converged iteration's partials are final: no dedicated
        // accumulation row ever lands on the critical path.
        let a_cap = w + 1;
        let mut a_converged = false;
        while stats.adjoint_iterations < a_cap {
            stats.adjoint_runs += rev.iter().filter(|l| l.dirty).count();
            let repass = |k: usize, lane: &mut RevLane| {
                if !lane.dirty {
                    return Ok(());
                }
                adjoint_pass(k, lane, circuit, &meta, objectives, params)
            };
            wave(
                &mut rev,
                0,
                opts.lanes,
                WindowError::WorkerPanicked,
                &repass,
            )?;
            stats.adjoint_iterations += 1;

            // Serial descending correction sweep, mirror of the forward
            // one: an unchanged incoming terminal forwards the chain's
            // outgoing terminal verbatim.
            let sweep_start = Instant::now();
            let mut max_jump = 0.0f64;
            for k in (1..w).rev() {
                let t_out = rev[k]
                    .term_out
                    .clone()
                    .ok_or(WindowError::Internal("adjoint pass exported no terminal"))?;
                let cand: WindowTerminal = if rev[k].changed {
                    let ac = adj_coarse[k]
                        .as_mut()
                        .ok_or(WindowError::Internal("adjoint coarse missing"))?;
                    let out = ac.apply(k, &meta, objectives, rev[k].term_in.as_ref())?;
                    let old = rev[k]
                        .gc_end
                        .as_ref()
                        .ok_or(WindowError::Internal("stale adjoint coarse end missing"))?;
                    let ws = t_out
                        .ws
                        .iter()
                        .zip(&out.ws)
                        .zip(&old.ws)
                        .map(|((f, g), o)| {
                            f.iter()
                                .zip(g)
                                .zip(o)
                                .map(|((fv, gv), ov)| fv + gv - ov)
                                .collect()
                        })
                        .collect();
                    let cand = WindowTerminal { ws, h: t_out.h };
                    rev[k].gc_end = Some(out);
                    rev[k].changed = false;
                    cand
                } else {
                    t_out
                };
                let boundary_c = &adj_coarse[k]
                    .as_ref()
                    .ok_or(WindowError::Internal("adjoint coarse missing"))?
                    .c;
                let jump = terminal_jump(&cand, rev[k - 1].term_in.as_ref(), boundary_c);
                max_jump = max_jump.max(jump);
                if terminal_differs(&cand, rev[k - 1].term_in.as_ref()) {
                    rev[k - 1].term_in = Some(cand);
                    rev[k - 1].dirty = true;
                    rev[k - 1].changed = true;
                }
            }
            stats.adjoint_jumps.push(max_jump);
            stats.serial_time += sweep_start.elapsed();
            if max_jump <= opts.adjoint_tol.unwrap_or(opts.tol) {
                a_converged = true;
                break;
            }
        }
        if !a_converged {
            return Err(WindowError::Unconverged {
                iterations: stats.adjoint_iterations,
                jump: stats.adjoint_jumps.last().copied().unwrap_or(f64::INFINITY),
            });
        }
    } else {
        // Single window: one full pass is the whole reverse schedule.
        stats.adjoint_runs += 1;
        let pass = |k: usize, lane: &mut RevLane| {
            adjoint_pass(k, lane, circuit, &meta, objectives, params)
        };
        wave(&mut rev, 0, opts.lanes, WindowError::WorkerPanicked, &pass)?;
    }

    // Deterministic serial fold, descending window index (the order the
    // monolithic reverse pass visits these steps). A single window's
    // partial is returned verbatim, keeping W = 1 bitwise monolithic.
    let fold_start = Instant::now();
    let mut parts = Vec::with_capacity(w);
    for lane in rev.iter_mut() {
        parts.push(
            lane.partial
                .take()
                .ok_or(WindowError::Internal("full pass produced no partial"))?,
        );
    }
    let sensitivities = if w == 1 {
        parts
            .pop()
            .ok_or(WindowError::Internal("full pass produced no partial"))?
    } else {
        let mut dodp = vec![vec![0.0f64; params.len()]; objectives.len()];
        for part in parts.iter().rev() {
            for (acc_row, part_row) in dodp.iter_mut().zip(part) {
                for (acc, v) in acc_row.iter_mut().zip(part_row) {
                    *acc += v;
                }
            }
        }
        dodp
    };
    stats.serial_time += fold_start.elapsed();

    Ok(WindowResult {
        objective_values,
        sensitivities,
        meta,
        stats,
    })
}
