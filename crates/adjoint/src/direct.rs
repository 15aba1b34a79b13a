//! Direct (forward) sensitivity analysis — the classical baseline the
//! paper's introduction contrasts with the adjoint method.
//!
//! Differentiating the backward-Euler residual with respect to a parameter
//! `p` gives, for `s_n = dx_n/dp`:
//!
//! ```text
//! G₀ s₀ = −φ₀              (DC)
//! J_n s_n = C_{n−1} s_{n−1}/h_n − φ_n
//! dO/dp = Σ_n (∂O/∂x)_n · s_n
//! ```
//!
//! One linear solve per parameter per step (against the adjoint's one per
//! objective per step) — fine for few parameters, hopeless for many, which
//! is precisely why adjoint + MASC matters.

use crate::objective::Objective;
use crate::store::RunMeta;
use masc_circuit::{Circuit, ParamRef, System};
use masc_sparse::{CsrMatrix, LuError, LuWorkspace};

/// Errors from the direct method.
#[derive(Debug)]
pub enum DirectError {
    /// Factorization failed at a step.
    Lu {
        /// The failing step.
        step: usize,
        /// Underlying failure.
        source: LuError,
    },
    /// The record is empty.
    EmptyRecord,
}

impl std::fmt::Display for DirectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DirectError::Lu { step, source } => {
                write!(f, "direct sensitivity at step {step} failed: {source}")
            }
            DirectError::EmptyRecord => write!(f, "forward record is empty"),
        }
    }
}

impl std::error::Error for DirectError {}

/// Computes `dO_i/dp_j` by forward sensitivity propagation.
///
/// Matrices are re-evaluated from the recorded states (the direct method
/// needs them in *forward* order, so the backward stores don't apply).
///
/// # Errors
///
/// Returns [`DirectError`] if any step's matrix cannot be factored.
#[expect(
    clippy::disallowed_methods,
    reason = "sized by the system dimension `n` and the caller's objective and parameter lists"
)]
pub fn direct_sensitivities(
    circuit: &Circuit,
    system: &mut System,
    meta: &RunMeta,
    objectives: &[Objective],
    params: &[ParamRef],
) -> Result<Vec<Vec<f64>>, DirectError> {
    if meta.times.is_empty() {
        return Err(DirectError::EmptyRecord);
    }
    let n = system.n;
    let n_steps = meta.times.len() - 1;
    let n_par = params.len();
    let n_obj = objectives.len();

    let mut ev = system.new_evaluation();
    let mut j_mat = CsrMatrix::zeros(system.pattern.clone());
    let mut grad = vec![0.0f64; n];
    let mut dodp = vec![vec![0.0f64; n_par]; n_obj];

    // Parameter derivative scratch.
    let mut df = vec![0.0f64; n];
    let mut dq = vec![0.0f64; n];
    let mut db = vec![0.0f64; n];
    // dq/dp at the previous step, per parameter.
    let mut dq_prev: Vec<Vec<f64>> = vec![vec![0.0; n]; n_par];

    // --- DC step: G₀ s₀ = −(df + db).
    system.eval_into(circuit, &meta.states[0], meta.times[0], &mut ev);
    let mut g0 = CsrMatrix::zeros(system.pattern.clone());
    g0.values_mut().copy_from_slice(ev.g.values());
    let c_prev_values: Vec<f64> = ev.c.values().to_vec();
    // One symbolic analysis shared by the DC factor and every step's
    // J = G + C/h refactorization (same MNA pattern throughout).
    let mut lu_ws = LuWorkspace::new();
    let lu0 = lu_ws
        .factor(&g0)
        .map_err(|source| DirectError::Lu { step: 0, source })?;
    let mut s: Vec<Vec<f64>> = Vec::with_capacity(n_par);
    for (j, p) in params.iter().enumerate() {
        system.param_deriv_into(
            circuit,
            p,
            &meta.states[0],
            meta.times[0],
            &mut df,
            &mut dq,
            &mut db,
        );
        let rhs: Vec<f64> = (0..n).map(|r| -(df[r] + db[r])).collect();
        let s0 = lu0.solve(&rhs);
        dq_prev[j].copy_from_slice(&dq);
        s.push(s0);
    }
    for (i, objective) in objectives.iter().enumerate() {
        objective.gradient_into(0, n_steps, meta.hs[0], &meta.states[0], &mut grad);
        for (j, sj) in s.iter().enumerate() {
            dodp[i][j] += grad.iter().zip(sj).map(|(a, b)| a * b).sum::<f64>();
        }
    }

    // --- Transient steps.
    let mut c_prev = CsrMatrix::zeros(system.pattern.clone());
    c_prev.values_mut().copy_from_slice(&c_prev_values);
    for step in 1..=n_steps {
        let x = &meta.states[step];
        let t = meta.times[step];
        let h = meta.hs[step];
        system.eval_into(circuit, x, t, &mut ev);
        {
            let jv = j_mat.values_mut();
            jv.copy_from_slice(ev.g.values());
            for (jv, cv) in jv.iter_mut().zip(ev.c.values()) {
                *jv += cv / h;
            }
        }
        let lu = lu_ws
            .factor(&j_mat)
            .map_err(|source| DirectError::Lu { step, source })?;
        for (j, p) in params.iter().enumerate() {
            system.param_deriv_into(circuit, p, x, t, &mut df, &mut dq, &mut db);
            // rhs = C_{n−1} s_{n−1} / h − φ_n,
            // φ_n = (dq − dq_prev)/h + df + db.
            let c_s = c_prev.mul_vec(&s[j]);
            let rhs: Vec<f64> = (0..n)
                .map(|r| c_s[r] / h - ((dq[r] - dq_prev[j][r]) / h + df[r] + db[r]))
                .collect();
            s[j] = lu.solve(&rhs);
            dq_prev[j].copy_from_slice(&dq);
        }
        for (i, objective) in objectives.iter().enumerate() {
            objective.gradient_into(step, n_steps, h, x, &mut grad);
            for (j, sj) in s.iter().enumerate() {
                dodp[i][j] += grad.iter().zip(sj).map(|(a, b)| a * b).sum::<f64>();
            }
        }
        c_prev.values_mut().copy_from_slice(ev.c.values());
    }
    Ok(dodp)
}
