//! The adjoint sensitivity engine (paper eq. 4, Algorithm 2's reverse
//! half).
//!
//! With backward Euler, `G = ∂f/∂x`, `C = ∂q/∂x`, `J_n = C_n/h_n + G_n`,
//! and an objective `O = Σ_n ζ_n(x_n)` with per-step gradients
//! `g_n = (∂O/∂x)_n`, the reverse recursion is
//!
//! ```text
//! v_N = g_N
//! for n = N … 1:
//!     solve J_nᵀ w_n = v_n
//!     dO/dp −= w_nᵀ φ_n(p)        for every parameter p
//!     v_{n−1} = g_{n−1} + C_{n−1}ᵀ w_n / h_n
//! solve G_0ᵀ w_0 = v_0;  dO/dp −= w_0ᵀ φ_0(p)
//! ```
//!
//! with `φ_n(p) = (∂q/∂p(x_n) − ∂q/∂p(x_{n−1}))/h_n + ∂f/∂p(x_n) +
//! ∂b/∂p(t_n)` (paper eq. 5). One transpose solve per step per objective,
//! regardless of the parameter count — the reason adjoint beats the direct
//! method at scale.
//!
//! The matrices arrive through a [`BackwardJacobians`] reader in reverse
//! order, so the `C_{n−1}ᵀ w_n / h_n` term is *deferred*: each iteration
//! completes the previous iteration's pending update once the older step's
//! `C` becomes available.

use crate::objective::Objective;
use crate::store::{BackwardJacobians, RunMeta, StepMatrices, StoreError};
use masc_circuit::{Circuit, Evaluation, ParamRef, System};
use masc_sparse::{CsrMatrix, LuError, LuWorkspace};
use std::time::{Duration, Instant};

/// Errors from the adjoint pass.
#[derive(Debug)]
pub enum AdjointError {
    /// A Jacobian could not be factored.
    Lu {
        /// The step whose matrix failed.
        step: usize,
        /// Underlying factorization failure.
        source: LuError,
    },
    /// The Jacobian store failed.
    Store(StoreError),
    /// The record is empty (no forward run captured).
    EmptyRecord,
    /// An [`Objective::AtStep`] points past the end of the run.
    StepOutOfRange {
        /// The requested step.
        step: usize,
        /// The last valid step index.
        max: usize,
    },
}

impl std::fmt::Display for AdjointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdjointError::Lu { step, source } => {
                write!(f, "adjoint solve at step {step} failed: {source}")
            }
            AdjointError::Store(e) => write!(f, "jacobian store failed: {e}"),
            AdjointError::EmptyRecord => write!(f, "forward record is empty"),
            AdjointError::StepOutOfRange { step, max } => {
                write!(f, "objective step {step} out of range (last step {max})")
            }
        }
    }
}

impl std::error::Error for AdjointError {}

impl From<StoreError> for AdjointError {
    fn from(e: StoreError) -> Self {
        AdjointError::Store(e)
    }
}

/// Rejects [`Objective::AtStep`] objectives that point past a run of
/// `n_times` recorded points (DC included) — they would otherwise index
/// out of bounds when evaluated. Every driver calls this before it reads
/// an objective value.
///
/// # Errors
///
/// Returns [`AdjointError::StepOutOfRange`] for the first offender.
pub fn check_objective_steps(objectives: &[Objective], n_times: usize) -> Result<(), AdjointError> {
    let max = n_times.saturating_sub(1);
    for o in objectives {
        if let Objective::AtStep { step, .. } = *o {
            if step > max {
                return Err(AdjointError::StepOutOfRange { step, max });
            }
        }
    }
    Ok(())
}

/// Timing breakdown of an adjoint pass (Fig. 7's bar segments).
#[derive(Debug, Clone, Default)]
pub struct AdjointStats {
    /// Steps traversed (including DC).
    pub steps: usize,
    /// Wall time of the whole reverse pass.
    pub total_time: Duration,
    /// Time re-evaluating devices (non-zero only for the recompute store;
    /// the `T_Jac` of paper Table 1).
    pub recompute_time: Duration,
}

/// The sensitivity matrix `dO_i/dp_j` plus run statistics.
#[derive(Debug, Clone)]
pub struct SensitivityResult {
    /// `values[i][j] = dO_i / dp_j`.
    pub values: Vec<Vec<f64>>,
    /// Statistics of the reverse pass.
    pub stats: AdjointStats,
}

/// The adjoint state flowing across a time-window boundary.
///
/// After a cursor has processed steps `hi .. lo` of a windowed reverse
/// pass, its deferred update — the solution vectors `w_lo` (one per
/// objective) and the step size `h_lo` they are scaled by — is exactly
/// what the *preceding* window needs as its terminal condition: injecting
/// `(ws, h)` into a fresh cursor via
/// [`AdjointCursor::inject_terminal`] makes that cursor's first offered
/// step compute `v = g + Cᵀ·w_lo/h_lo`, bit-identical to a monolithic
/// pass arriving at the same step. `masc-window` ships these across
/// window boundaries during its parallel-in-time reverse stitch.
#[derive(Debug, Clone)]
pub struct WindowTerminal {
    /// One transpose-solve solution per objective, at the lowest step the
    /// exporting cursor processed.
    pub ws: Vec<Vec<f64>>,
    /// The step size `h` of that lowest step (divides the `Cᵀw` term).
    pub h: f64,
}

/// Runs the adjoint reverse pass.
///
/// `meta`/`reader` come from [`crate::store::ForwardRecord::into_parts`];
/// `system` must be the elaborated system of `circuit` (mutable for the
/// recompute store's device re-evaluation). The reader is drained, and its
/// [`metrics`](BackwardJacobians::metrics) then hold the run's store
/// telemetry, reverse fetches included.
///
/// # Errors
///
/// Returns [`AdjointError`] on factorization or store failure.
pub fn adjoint_sensitivities(
    circuit: &Circuit,
    system: &mut System,
    meta: &RunMeta,
    reader: &mut BackwardJacobians,
    objectives: &[Objective],
    params: &[ParamRef],
) -> Result<SensitivityResult, AdjointError> {
    if meta.times.is_empty() {
        return Err(AdjointError::EmptyRecord);
    }
    let mut cursor = AdjointCursor::new(circuit, system, meta, objectives, params);
    while let Some((step, matrices)) = reader.next_back().map_err(AdjointError::from)? {
        cursor.offer(system, step, matrices)?;
    }
    Ok(cursor.finish())
}

/// `∂f/∂p`, `∂q/∂p` and `∂b/∂p` of every parameter at one state, packed
/// over each parameter's support (see [`ParamSupports`]).
#[derive(Clone)]
struct PackedDerivs {
    df: Vec<f64>,
    dq: Vec<f64>,
    db: Vec<f64>,
}

impl PackedDerivs {
    #[expect(
        clippy::disallowed_methods,
        reason = "sized by the support-row count of the elaborated circuit"
    )]
    fn zeros(len: usize) -> Self {
        Self {
            df: vec![0.0; len],
            dq: vec![0.0; len],
            db: vec![0.0; len],
        }
    }
}

/// Where each parameter's derivatives can be non-zero, plus the one dense
/// scratch triple every parameter is stamped into.
///
/// Parameter derivatives are device-local: parameter `j` touches only the
/// rows `rows[offsets[j]..offsets[j + 1]]` — its device's unknowns, ground
/// dropped and each row listed once, in order of first occurrence. The
/// pattern is found once per cursor; each step only refills values, so a
/// pool costs `O(Σ|support|)` rather than `O(n · n_par)`.
struct ParamSupports {
    rows: Vec<usize>,
    offsets: Vec<usize>,
    df: Vec<f64>,
    dq: Vec<f64>,
    db: Vec<f64>,
}

impl ParamSupports {
    #[expect(
        clippy::disallowed_methods,
        reason = "sized by the caller's parameter list and the system dimension `n`"
    )]
    fn new(circuit: &Circuit, params: &[ParamRef], n: usize) -> Self {
        let mut rows = Vec::new();
        let mut offsets = Vec::with_capacity(params.len() + 1);
        offsets.push(0);
        for p in params {
            let start = rows.len();
            // A device with two terminals on one node (a diode-connected
            // MOSFET) lists that node twice; counting it once is what keeps
            // its gradient from being summed twice.
            for r in circuit.devices()[p.device].unknowns().into_iter().flatten() {
                if !rows[start..].contains(&r) {
                    rows.push(r);
                }
            }
            offsets.push(rows.len());
        }
        Self {
            rows,
            offsets,
            df: vec![0.0; n],
            dq: vec![0.0; n],
            db: vec![0.0; n],
        }
    }

    /// The packed index range of parameter `j`.
    fn span(&self, j: usize) -> std::ops::Range<usize> {
        self.offsets[j]..self.offsets[j + 1]
    }

    /// Stamps every parameter's derivatives at `(x, t)` into the scratch,
    /// gathers its support into `out` and re-zeroes what it gathered.
    ///
    /// Correct only because a device stamps nothing outside its
    /// `unknowns()`; the circuit crate's property tests pin that.
    fn refill(
        &mut self,
        system: &System,
        circuit: &Circuit,
        params: &[ParamRef],
        x: &[f64],
        t: f64,
        out: &mut PackedDerivs,
    ) {
        for (j, p) in params.iter().enumerate() {
            system.param_deriv_sparse_into(
                circuit,
                p,
                x,
                t,
                &mut self.df,
                &mut self.dq,
                &mut self.db,
            );
            for k in self.span(j) {
                let r = self.rows[k];
                out.df[k] = std::mem::take(&mut self.df[r]);
                out.dq[k] = std::mem::take(&mut self.dq[r]);
                out.db[k] = std::mem::take(&mut self.db[r]);
            }
        }
    }
}

/// The per-step reverse-recursion engine behind [`adjoint_sensitivities`].
///
/// A cursor owns everything one adjoint pass accumulates — the deferred
/// `C_{n-1}^T w_n / h_n` update, per-parameter derivatives packed over each
/// parameter's support, the LU workspace whose symbolic analysis is shared
/// across all reverse steps, and the running `dO/dp` matrix — while the
/// *source* of each step's matrices stays with the caller.
/// [`adjoint_sensitivities`] feeds it from a [`BackwardJacobians`] reader;
/// `masc-sweep` feeds N cursors per timestep: instance 0 from the same
/// reader, the rest from the cross-instance blocks it decodes against
/// their neighbor. Both drive the identical arithmetic, which is what
/// makes sweep results bit-comparable to independent single runs.
///
/// Feed steps in strictly descending order (`n_steps` down to `0`) via
/// [`offer`], then call [`finish`].
///
/// [`offer`]: AdjointCursor::offer
/// [`finish`]: AdjointCursor::finish
pub struct AdjointCursor<'a> {
    circuit: &'a Circuit,
    meta: &'a RunMeta,
    objectives: &'a [Objective],
    params: &'a [ParamRef],
    n_steps: usize,
    start: Instant,
    stats: AdjointStats,
    dodp: Vec<Vec<f64>>,
    g_mat: CsrMatrix,
    c_mat: CsrMatrix,
    j_mat: CsrMatrix,
    ev: Evaluation,
    lu: LuWorkspace,
    pending_w: Option<Vec<Vec<f64>>>,
    pending_h: f64,
    /// Recycled solution buffers (and the container for them), so steady
    /// state allocates nothing per step.
    w_free: Vec<Vec<f64>>,
    w_spare: Vec<Vec<f64>>,
    supports: ParamSupports,
    pool_here: PackedDerivs,
    pool_prev: PackedDerivs,
    here_valid: bool,
    grad: Vec<f64>,
    v: Vec<f64>,
    ct_w: Vec<f64>,
    solve_work: Vec<f64>,
}

impl<'a> AdjointCursor<'a> {
    /// Creates a cursor with a fresh LU workspace.
    pub fn new(
        circuit: &'a Circuit,
        system: &System,
        meta: &'a RunMeta,
        objectives: &'a [Objective],
        params: &'a [ParamRef],
    ) -> Self {
        Self::with_workspace(
            circuit,
            system,
            meta,
            objectives,
            params,
            LuWorkspace::new(),
        )
    }

    /// Creates a cursor around a caller-provided LU workspace — typically
    /// one seeded via [`masc_sparse::LuWorkspace::with_symbolic`] so N
    /// sweep instances share a single symbolic analysis.
    #[expect(
        clippy::disallowed_methods,
        reason = "sized by the system dimension `n` and the caller's objective and parameter lists"
    )]
    pub fn with_workspace(
        circuit: &'a Circuit,
        system: &System,
        meta: &'a RunMeta,
        objectives: &'a [Objective],
        params: &'a [ParamRef],
        lu: LuWorkspace,
    ) -> Self {
        let n = system.n;
        let n_par = params.len();
        let supports = ParamSupports::new(circuit, params, n);
        let pool_here = PackedDerivs::zeros(supports.rows.len());
        Self {
            circuit,
            meta,
            objectives,
            params,
            n_steps: meta.times.len().saturating_sub(1),
            start: Instant::now(),
            stats: AdjointStats::default(),
            dodp: vec![vec![0.0f64; n_par]; objectives.len()],
            g_mat: CsrMatrix::zeros(system.pattern.clone()),
            c_mat: CsrMatrix::zeros(system.pattern.clone()),
            j_mat: CsrMatrix::zeros(system.pattern.clone()),
            ev: system.new_evaluation(),
            lu,
            pending_w: None,
            pending_h: 0.0,
            w_free: Vec::new(),
            w_spare: Vec::new(),
            supports,
            pool_prev: pool_here.clone(),
            pool_here,
            here_valid: false,
            grad: vec![0.0f64; n],
            v: vec![0.0f64; n],
            ct_w: vec![0.0f64; n],
            solve_work: Vec::new(),
        }
    }

    /// Processes one reverse step given its matrices.
    ///
    /// # Errors
    ///
    /// Returns [`AdjointError::Lu`] if the step's system matrix cannot be
    /// factored.
    pub fn offer(
        &mut self,
        system: &mut System,
        step: usize,
        matrices: StepMatrices,
    ) -> Result<(), AdjointError> {
        let meta = self.meta;
        let t = meta.times[step];
        let x = &meta.states[step];
        // Obtain G_step, C_step.
        match matrices {
            StepMatrices::Stored { g, c } => {
                system.scatter_g(&g, self.g_mat.values_mut());
                system.scatter_c(&c, self.c_mat.values_mut());
            }
            StepMatrices::Recompute => {
                let t0 = Instant::now();
                system.eval_into(self.circuit, x, t, &mut self.ev);
                self.g_mat.values_mut().copy_from_slice(self.ev.g.values());
                self.c_mat.values_mut().copy_from_slice(self.ev.c.values());
                self.stats.recompute_time += t0.elapsed();
            }
        }

        // Parameter derivatives at this step's state: left in `pool_here`
        // by the newer step's iteration, or computed fresh on the first.
        if !self.here_valid {
            self.supports
                .refill(system, self.circuit, self.params, x, t, &mut self.pool_here);
            self.here_valid = true;
        }
        // Derivatives at the predecessor state (consumed as dq_{n-1} now,
        // becoming this-step derivatives after the pool swap below).
        if step > 0 {
            let xp = &meta.states[step - 1];
            let tp = meta.times[step - 1];
            self.supports.refill(
                system,
                self.circuit,
                self.params,
                xp,
                tp,
                &mut self.pool_prev,
            );
        }

        // Factor the step's system matrix. The workspace replays the
        // recorded pivot sequence values-only; every reverse step shares
        // the one symbolic analysis.
        let factors = if step > 0 {
            let h = meta.hs[step];
            let jv = self.j_mat.values_mut();
            jv.copy_from_slice(self.g_mat.values());
            for (jv, cv) in jv.iter_mut().zip(self.c_mat.values()) {
                *jv += cv / h;
            }
            self.lu.factor(&self.j_mat)
        } else {
            self.lu.factor(&self.g_mat)
        }
        .map_err(|source| AdjointError::Lu { step, source })?;

        let mut w_now = std::mem::take(&mut self.w_spare);
        for (i, objective) in self.objectives.iter().enumerate() {
            // v_step = grad + C_step^T w_{step+1} / h_{step+1}.
            objective.gradient_into(step, self.n_steps, meta.hs[step], x, &mut self.grad);
            self.v.copy_from_slice(&self.grad);
            if let Some(ws) = &self.pending_w {
                self.c_mat.mul_vec_transpose_into(&ws[i], &mut self.ct_w);
                for (vi, ci) in self.v.iter_mut().zip(&self.ct_w) {
                    *vi += ci / self.pending_h;
                }
            }
            let mut w = self.w_free.pop().unwrap_or_default();
            factors.solve_transpose_into(&self.v, &mut self.solve_work, &mut w);
            // Accumulate -w^T phi(p), summing only over each parameter's
            // support.
            let h = meta.hs[step];
            let (here, prev, rows) = (&self.pool_here, &self.pool_prev, &self.supports.rows);
            for (j, dodp) in self.dodp[i].iter_mut().enumerate() {
                let mut acc = 0.0;
                if step > 0 {
                    for k in self.supports.span(j) {
                        let phi = (here.dq[k] - prev.dq[k]) / h + here.df[k] + here.db[k];
                        acc += w[rows[k]] * phi;
                    }
                } else {
                    for k in self.supports.span(j) {
                        acc += w[rows[k]] * (here.df[k] + here.db[k]);
                    }
                }
                *dodp -= acc;
            }
            w_now.push(w);
        }

        if let Some(mut old) = self.pending_w.replace(w_now) {
            self.w_free.append(&mut old);
            self.w_spare = old;
        }
        self.pending_h = meta.hs[step];
        // The predecessor's derivatives become the next iteration's
        // "here" derivatives.
        std::mem::swap(&mut self.pool_here, &mut self.pool_prev);
        self.stats.steps += 1;
        Ok(())
    }

    /// Seeds the cursor with a terminal condition from a *newer* time
    /// window before its first [`offer`](AdjointCursor::offer).
    ///
    /// A monolithic pass starts from `v_N = g_N` (no pending update); a
    /// window-scoped pass over steps `hi .. lo` with `hi < N` must instead
    /// start from the deferred `Cᵀ·w/h` update the window to its right
    /// exported via [`finish_window`](AdjointCursor::finish_window). Call
    /// before the first offer; `ws` must hold one vector per objective.
    pub fn inject_terminal(&mut self, ws: Vec<Vec<f64>>, h: f64) {
        debug_assert_eq!(
            ws.len(),
            self.objectives.len(),
            "one terminal vector per objective"
        );
        debug_assert!(self.stats.steps == 0, "inject before the first offer");
        self.pending_w = Some(ws);
        self.pending_h = h;
    }

    /// Completes the pass, yielding the sensitivity matrix and statistics.
    pub fn finish(self) -> SensitivityResult {
        self.finish_window().0
    }

    /// Completes a window-scoped pass, yielding the sensitivities of the
    /// steps this cursor processed plus the outgoing terminal condition —
    /// the pending `(w, h)` pair at the lowest offered step, ready to be
    /// [injected](AdjointCursor::inject_terminal) into the cursor of the
    /// next-older window. `None` if no step was ever offered.
    pub fn finish_window(mut self) -> (SensitivityResult, Option<WindowTerminal>) {
        self.stats.total_time = self.start.elapsed();
        let terminal = self.pending_w.take().map(|ws| WindowTerminal {
            ws,
            h: self.pending_h,
        });
        (
            SensitivityResult {
                values: self.dodp,
                stats: self.stats,
            },
            terminal,
        )
    }
}

/// Runs the adjoint with one *separate reverse sweep per objective*,
/// re-evaluating the Jacobians on every sweep — the Xyce-like baseline of
/// paper Table 1 and Fig. 7.
///
/// This is how a conventional simulator without Jacobian storage behaves:
/// each objective's adjoint system is solved independently, and every
/// sweep pays the full device-evaluation and factorization cost again.
/// The paper's `T_Sens/T_Tran` ratios (which grow with the objective
/// count) and `T_Jac/T_Sens` fractions (~46–65 %) are properties of this
/// schedule; MASC amortizes one stored/decompressed matrix stream across
/// all objectives in a single sweep ([`adjoint_sensitivities`]).
///
/// # Errors
///
/// Returns [`AdjointError`] on factorization failure.
#[expect(
    clippy::disallowed_methods,
    reason = "sized by the caller's objective list"
)]
pub fn adjoint_sensitivities_per_objective(
    circuit: &Circuit,
    system: &mut System,
    meta: &RunMeta,
    objectives: &[Objective],
    params: &[ParamRef],
) -> Result<SensitivityResult, AdjointError> {
    let run_start = Instant::now();
    let mut values = Vec::with_capacity(objectives.len());
    let mut stats = AdjointStats::default();
    for objective in objectives {
        let result = adjoint_sensitivities(
            circuit,
            system,
            meta,
            &mut BackwardJacobians::recompute(meta.times.len()),
            std::slice::from_ref(objective),
            params,
        )?;
        values.extend(result.values);
        stats.steps += result.stats.steps;
        stats.recompute_time += result.stats.recompute_time;
    }
    stats.total_time = run_start.elapsed();
    Ok(SensitivityResult { values, stats })
}
