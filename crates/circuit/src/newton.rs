//! Damped Newton–Raphson iteration over the shared-pattern Jacobian.

use masc_sparse::{CsrMatrix, LuError, LuWorkspace};

/// Newton iteration controls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonOptions {
    /// Maximum iterations per solve.
    pub max_iter: usize,
    /// Absolute update tolerance (V / A).
    pub abstol: f64,
    /// Relative update tolerance.
    pub reltol: f64,
    /// Maximum per-unknown update magnitude per iteration (damping);
    /// junction devices explode without this.
    pub damping_limit: f64,
    /// Maximum residual `‖r‖∞` accepted at convergence. Without this a
    /// small *step* can masquerade as convergence on ill-conditioned
    /// Jacobians (`‖J⁻¹ r‖` tiny while `‖r‖` is not).
    pub residual_tol: f64,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        Self {
            max_iter: 500,
            abstol: 1e-9,
            reltol: 1e-6,
            damping_limit: 2.0,
            residual_tol: 1e-9,
        }
    }
}

/// Why a Newton solve failed.
#[derive(Debug, Clone, PartialEq)]
pub enum NewtonError {
    /// Iteration limit reached; carries the last update norm.
    NoConvergence {
        /// Iterations performed.
        iterations: usize,
        /// Final `‖Δx‖∞`.
        update_norm: f64,
    },
    /// The Jacobian could not be factored.
    Lu(LuError),
}

impl std::fmt::Display for NewtonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NewtonError::NoConvergence {
                iterations,
                update_norm,
            } => write!(
                f,
                "newton failed to converge after {iterations} iterations (‖Δx‖∞ = {update_norm:.3e})"
            ),
            NewtonError::Lu(e) => write!(f, "jacobian factorization failed: {e}"),
        }
    }
}

impl std::error::Error for NewtonError {}

impl From<LuError> for NewtonError {
    fn from(e: LuError) -> Self {
        NewtonError::Lu(e)
    }
}

/// Runs damped Newton on `x` until the update norm passes tolerance and
/// returns the number of updates it applied.
///
/// `assemble(x, r, j)` must fill the residual `r` and Jacobian `j` at `x`.
///
/// # Errors
///
/// Returns [`NewtonError`] if the Jacobian is singular or the iteration
/// limit is exceeded.
pub fn newton_solve<F>(
    x: &mut [f64],
    opts: &NewtonOptions,
    lu: &mut LuWorkspace,
    j: &mut CsrMatrix,
    r: &mut Vec<f64>,
    mut assemble: F,
) -> Result<usize, NewtonError>
where
    F: FnMut(&[f64], &mut Vec<f64>, &mut CsrMatrix),
{
    let mut last_norm = f64::INFINITY;
    let mut work = Vec::new();
    let mut delta = Vec::new();
    for it in 0..opts.max_iter {
        assemble(x, r, j);
        // Converged: the previous step was below tolerance AND the fresh
        // residual at the updated point is small.
        let rmax = r.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let xmax_now = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        if last_norm <= opts.abstol + opts.reltol * xmax_now && rmax <= opts.residual_tol {
            return Ok(it);
        }
        let factors = lu.factor(j)?;
        // Solve J Δ = −r.
        for v in r.iter_mut() {
            *v = -*v;
        }
        factors.solve_into(r, &mut work, &mut delta);

        // Damping: scale the whole step if any component is too large.
        let max_step = delta.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        if max_step > opts.damping_limit {
            let scale = opts.damping_limit / max_step;
            for d in delta.iter_mut() {
                *d *= scale;
            }
        }
        let mut norm = 0.0f64;
        for (xi, di) in x.iter_mut().zip(&delta) {
            *xi += di;
            norm = norm.max(di.abs());
        }
        last_norm = norm;
    }
    Err(NewtonError::NoConvergence {
        iterations: opts.max_iter,
        update_norm: last_norm,
    })
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "sizes chosen by the test")]
mod tests {
    use super::*;
    use masc_sparse::TripletMatrix;

    /// Solve x² = 4 via Newton on a 1×1 system.
    #[test]
    fn scalar_quadratic_converges() {
        let mut t = TripletMatrix::new(1, 1);
        t.add(0, 0, 1.0);
        let mut j = t.to_csr();
        let mut r = vec![0.0];
        let mut x = vec![3.0];
        let mut ws = LuWorkspace::new();
        let iterations = newton_solve(
            &mut x,
            &NewtonOptions::default(),
            &mut ws,
            &mut j,
            &mut r,
            |x, r, j| {
                r[0] = x[0] * x[0] - 4.0;
                j.clear();
                j.add_at(0, 0, 2.0 * x[0]).unwrap();
            },
        )
        .unwrap();
        assert!((x[0] - 2.0).abs() < 1e-8);
        assert!(iterations < 20);
    }

    /// A 2×2 nonlinear system with a known root.
    #[test]
    fn coupled_system_converges() {
        let mut t = TripletMatrix::new(2, 2);
        for r in 0..2 {
            for c in 0..2 {
                t.add(r, c, 1.0);
            }
        }
        let mut j = t.to_csr();
        let mut r = vec![0.0; 2];
        let mut x = vec![0.5, 1.7];
        // f0 = x0 + x1 − 3, f1 = x0·x1 − 2  → (1, 2) or (2, 1).
        let mut ws = LuWorkspace::new();
        newton_solve(
            &mut x,
            &NewtonOptions::default(),
            &mut ws,
            &mut j,
            &mut r,
            |x, r, j| {
                r[0] = x[0] + x[1] - 3.0;
                r[1] = x[0] * x[1] - 2.0;
                j.clear();
                j.add_at(0, 0, 1.0).unwrap();
                j.add_at(0, 1, 1.0).unwrap();
                j.add_at(1, 0, x[1]).unwrap();
                j.add_at(1, 1, x[0]).unwrap();
            },
        )
        .unwrap();
        assert!((x[0] + x[1] - 3.0).abs() < 1e-8);
        assert!((x[0] * x[1] - 2.0).abs() < 1e-8);
    }

    #[test]
    fn singular_jacobian_reported() {
        let mut t = TripletMatrix::new(1, 1);
        t.add(0, 0, 0.0);
        let mut j = t.to_csr();
        let mut r = vec![0.0];
        let mut x = vec![1.0];
        let mut ws = LuWorkspace::new();
        let err = newton_solve(
            &mut x,
            &NewtonOptions::default(),
            &mut ws,
            &mut j,
            &mut r,
            |_x, r, j| {
                r[0] = 1.0;
                j.clear(); // leaves a structurally-present zero
            },
        )
        .unwrap_err();
        assert!(matches!(err, NewtonError::Lu(_)));
    }

    #[test]
    fn divergent_iteration_hits_limit() {
        let mut t = TripletMatrix::new(1, 1);
        t.add(0, 0, 1.0);
        let mut j = t.to_csr();
        let mut r = vec![0.0];
        let mut x = vec![0.5];
        // f = atan-like with no root: f(x) = 1 + x², f' = 2x — Newton
        // oscillates/diverges (no real root).
        let opts = NewtonOptions {
            max_iter: 30,
            ..NewtonOptions::default()
        };
        let mut ws = LuWorkspace::new();
        let err = newton_solve(&mut x, &opts, &mut ws, &mut j, &mut r, |x, r, j| {
            r[0] = 1.0 + x[0] * x[0];
            j.clear();
            j.add_at(0, 0, 2.0 * x[0].max(0.05)).unwrap();
        })
        .unwrap_err();
        assert!(matches!(err, NewtonError::NoConvergence { .. }));
    }

    #[test]
    fn damping_limits_first_step() {
        let mut t = TripletMatrix::new(1, 1);
        t.add(0, 0, 1.0);
        let mut j = t.to_csr();
        let mut r = vec![0.0];
        let mut x = vec![0.0];
        let mut first_x = None;
        let opts = NewtonOptions {
            damping_limit: 0.5,
            max_iter: 300,
            ..NewtonOptions::default()
        };
        // Linear system with solution far away: x = 100.
        let mut ws = LuWorkspace::new();
        newton_solve(&mut x, &opts, &mut ws, &mut j, &mut r, |x, r, j| {
            if first_x.is_none() && x[0] != 0.0 {
                first_x = Some(x[0]);
            }
            r[0] = x[0] - 100.0;
            j.clear();
            j.add_at(0, 0, 1.0).unwrap();
        })
        .unwrap();
        // The first accepted update must respect the damping limit.
        assert!(first_x.unwrap().abs() <= 0.5 + 1e-12);
        assert!((x[0] - 100.0).abs() < 1e-6);
    }
}
