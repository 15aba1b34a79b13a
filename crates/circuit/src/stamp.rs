//! Stamping interfaces: how devices contribute to the MNA system.
//!
//! The DAE is `g(x, t) = d/dt q(x) + f(x) + b(t) = 0` (paper eq. 1). Each
//! device accumulates into:
//!
//! - `f` — static currents, and `G = ∂f/∂x`;
//! - `q` — charges/fluxes, and `C = ∂q/∂x`;
//! - `b` — independent-source terms.
//!
//! Ground (node 0) is eliminated: unknown indices are `Option<usize>` and
//! stamps touching ground are silently dropped, which is exactly the row/
//! column deletion of standard MNA.

use masc_sparse::{CsrMatrix, TripletMatrix};

/// An unknown index: `None` is ground.
pub type Unknown = Option<usize>;

/// Pattern-reservation sink used during elaboration.
///
/// Devices declare every `(row, col)` slot they will ever stamp so the
/// shared [`masc_sparse::Pattern`] can be built once.
#[derive(Debug)]
pub struct Reserver<'a> {
    g: &'a mut TripletMatrix,
    c: &'a mut TripletMatrix,
}

impl<'a> Reserver<'a> {
    /// Creates a reserver over the G- and C-pattern assembly buffers.
    pub fn new(g: &'a mut TripletMatrix, c: &'a mut TripletMatrix) -> Self {
        Self { g, c }
    }

    /// Reserves a slot in `G = ∂f/∂x`.
    pub fn reserve_g(&mut self, row: Unknown, col: Unknown) {
        if let (Some(r), Some(c)) = (row, col) {
            self.g.add(r, c, 0.0);
        }
    }

    /// Reserves a slot in `C = ∂q/∂x`.
    pub fn reserve_c(&mut self, row: Unknown, col: Unknown) {
        if let (Some(r), Some(col_)) = (row, col) {
            self.c.add(r, col_, 0.0);
        }
    }

    /// Reserves the full 2×2 stamp {(a,a),(a,b),(b,a),(b,b)} in `G`.
    pub fn reserve_g_pair(&mut self, a: Unknown, b: Unknown) {
        self.reserve_g(a, a);
        self.reserve_g(a, b);
        self.reserve_g(b, a);
        self.reserve_g(b, b);
    }

    /// Reserves the full 2×2 stamp in `C`.
    pub fn reserve_c_pair(&mut self, a: Unknown, b: Unknown) {
        self.reserve_c(a, a);
        self.reserve_c(a, b);
        self.reserve_c(b, a);
        self.reserve_c(b, b);
    }
}

/// Evaluation sink: one pass accumulates `f`, `q`, `b`, `G`, `C` at a given
/// state `x` and time `t`.
#[derive(Debug)]
pub struct EvalContext<'a> {
    /// Current solution vector (node voltages then branch currents).
    pub x: &'a [f64],
    /// Evaluation time.
    pub t: f64,
    /// `∂f/∂x` accumulator.
    pub g: &'a mut CsrMatrix,
    /// `∂q/∂x` accumulator.
    pub c: &'a mut CsrMatrix,
    /// Static residual accumulator.
    pub f: &'a mut [f64],
    /// Charge/flux accumulator.
    pub q: &'a mut [f64],
    /// Independent-source accumulator.
    pub b: &'a mut [f64],
}

impl<'a> EvalContext<'a> {
    /// Voltage/current of unknown `u` (0 for ground).
    #[inline]
    pub fn value(&self, u: Unknown) -> f64 {
        u.map_or(0.0, |i| self.x[i])
    }

    /// Accumulates into the static residual `f`.
    #[inline]
    pub fn add_f(&mut self, row: Unknown, v: f64) {
        if let Some(r) = row {
            self.f[r] += v;
        }
    }

    /// Accumulates into the charge vector `q`.
    #[inline]
    pub fn add_q(&mut self, row: Unknown, v: f64) {
        if let Some(r) = row {
            self.q[r] += v;
        }
    }

    /// Accumulates into the source vector `b`.
    #[inline]
    pub fn add_b(&mut self, row: Unknown, v: f64) {
        if let Some(r) = row {
            self.b[r] += v;
        }
    }

    /// Accumulates into `G = ∂f/∂x`.
    ///
    /// # Panics
    ///
    /// Panics if the slot was not reserved during elaboration — that is a
    /// device implementation bug, not a user error.
    #[inline]
    pub fn add_g(&mut self, row: Unknown, col: Unknown, v: f64) {
        if let (Some(r), Some(c)) = (row, col) {
            self.g
                .add_at(r, c, v)
                .expect("G stamp outside reserved pattern");
        }
    }

    /// Accumulates into `C = ∂q/∂x`.
    ///
    /// # Panics
    ///
    /// Panics if the slot was not reserved during elaboration.
    #[inline]
    pub fn add_c(&mut self, row: Unknown, col: Unknown, v: f64) {
        if let (Some(r), Some(c)) = (row, col) {
            self.c
                .add_at(r, c, v)
                .expect("C stamp outside reserved pattern");
        }
    }

    /// Stamps a conductance `g` between `a` and `b` into `G` and the
    /// corresponding current into `f` (the standard two-terminal resistive
    /// stamp).
    pub fn stamp_conductance(&mut self, a: Unknown, b: Unknown, g: f64) {
        let v = self.value(a) - self.value(b);
        self.add_f(a, g * v);
        self.add_f(b, -g * v);
        self.add_g(a, a, g);
        self.add_g(b, b, g);
        self.add_g(a, b, -g);
        self.add_g(b, a, -g);
    }
}

/// Parameter-derivative sink: accumulates `∂f/∂p`, `∂q/∂p`, `∂b/∂p` at a
/// fixed state (paper eq. 5 ingredients).
#[derive(Debug)]
pub struct ParamDerivContext<'a> {
    /// State at which derivatives are evaluated.
    pub x: &'a [f64],
    /// Evaluation time.
    pub t: f64,
    /// `∂f/∂p` accumulator.
    pub df_dp: &'a mut [f64],
    /// `∂q/∂p` accumulator.
    pub dq_dp: &'a mut [f64],
    /// `∂b/∂p` accumulator.
    pub db_dp: &'a mut [f64],
}

impl<'a> ParamDerivContext<'a> {
    /// Voltage/current of unknown `u` (0 for ground).
    #[inline]
    pub fn value(&self, u: Unknown) -> f64 {
        u.map_or(0.0, |i| self.x[i])
    }

    /// Accumulates into `∂f/∂p`.
    #[inline]
    pub fn add_df(&mut self, row: Unknown, v: f64) {
        if let Some(r) = row {
            self.df_dp[r] += v;
        }
    }

    /// Accumulates into `∂q/∂p`.
    #[inline]
    pub fn add_dq(&mut self, row: Unknown, v: f64) {
        if let Some(r) = row {
            self.dq_dp[r] += v;
        }
    }

    /// Accumulates into `∂b/∂p`.
    #[inline]
    pub fn add_db(&mut self, row: Unknown, v: f64) {
        if let Some(r) = row {
            self.db_dp[r] += v;
        }
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "sizes chosen by the test")]
mod tests {
    use super::*;
    use masc_sparse::TripletMatrix;

    #[test]
    fn ground_stamps_are_dropped() {
        let mut gt = TripletMatrix::new(1, 1);
        let mut ct = TripletMatrix::new(1, 1);
        {
            let mut res = Reserver::new(&mut gt, &mut ct);
            res.reserve_g_pair(Some(0), None); // only (0,0) lands
            res.reserve_c_pair(None, None); // nothing lands
        }
        let g = gt.to_csr();
        assert_eq!(g.nnz(), 1);
        let c = ct.to_csr();
        assert_eq!(c.nnz(), 0);
    }

    #[test]
    fn conductance_stamp_matches_hand_math() {
        let mut gt = TripletMatrix::new(2, 2);
        let mut ct = TripletMatrix::new(2, 2);
        {
            let mut res = Reserver::new(&mut gt, &mut ct);
            res.reserve_g_pair(Some(0), Some(1));
        }
        let mut g = gt.to_csr();
        let mut c = ct.to_csr();
        let x = [2.0, 0.5];
        let (mut f, mut q, mut b) = (vec![0.0; 2], vec![0.0; 2], vec![0.0; 2]);
        let mut ctx = EvalContext {
            x: &x,
            t: 0.0,
            g: &mut g,
            c: &mut c,
            f: &mut f,
            q: &mut q,
            b: &mut b,
        };
        ctx.stamp_conductance(Some(0), Some(1), 0.1);
        assert!((f[0] - 0.15).abs() < 1e-15);
        assert!((f[1] + 0.15).abs() < 1e-15);
        assert_eq!(g.get(0, 0), Some(0.1));
        assert_eq!(g.get(0, 1), Some(-0.1));
        assert_eq!(g.get(1, 0), Some(-0.1));
        assert_eq!(g.get(1, 1), Some(0.1));
    }

    #[test]
    fn value_of_ground_is_zero() {
        let gt = TripletMatrix::new(1, 1);
        let ct = TripletMatrix::new(1, 1);
        let mut g = gt.to_csr();
        let mut c = ct.to_csr();
        let x = [7.0];
        let (mut f, mut q, mut b) = (vec![0.0; 1], vec![0.0; 1], vec![0.0; 1]);
        let ctx = EvalContext {
            x: &x,
            t: 0.0,
            g: &mut g,
            c: &mut c,
            f: &mut f,
            q: &mut q,
            b: &mut b,
        };
        assert_eq!(ctx.value(None), 0.0);
        assert_eq!(ctx.value(Some(0)), 7.0);
        let _ = (gt.len(), ct.len());
    }
}
