//! The coarse propagator: a large-step backward-Euler transient that jumps
//! a state across one window span in a handful of Newton solves.
//!
//! Parareal only needs the coarse map to be *cheap* and *consistent* —
//! the same inputs must give the same outputs on every call, because the
//! correction `Gc(U_k^{j+1}) − Gc(U_k^j)` cancels its error as the seeds
//! converge. Accuracy just buys fewer iterations. One propagator instance
//! serves the whole run serially, so its scratch state never races.

use crate::split::WindowSpan;
use masc_circuit::newton::{NewtonError, NewtonOptions};
use masc_circuit::transient::BeStepper;
use masc_circuit::{Circuit, System};
use masc_sparse::LuWorkspace;

pub(crate) struct Coarse {
    system: System,
    lu: LuWorkspace,
    be: BeStepper,
    substeps: usize,
}

impl Coarse {
    /// Builds a propagator around its own elaborated system and an LU
    /// workspace seeded with the run's shared symbolic analysis.
    pub(crate) fn new(
        system: System,
        lu: LuWorkspace,
        newton: NewtonOptions,
        substeps: usize,
    ) -> Self {
        Self {
            be: BeStepper::new(&system, newton),
            lu,
            substeps: substeps.max(1),
            system,
        }
    }

    /// Advances `x` across `span` of the `dt` grid with `substeps`
    /// backward-Euler steps, in place.
    pub(crate) fn propagate(
        &mut self,
        circuit: &Circuit,
        x: &mut [f64],
        span: WindowSpan,
        dt: f64,
    ) -> Result<(), NewtonError> {
        let (t_a, t_b) = (span.start as f64 * dt, span.end as f64 * dt);
        let h = (t_b - t_a) / self.substeps as f64;
        self.be.start(circuit, &mut self.system, x, t_a);
        for s in 1..=self.substeps {
            let t = t_a + s as f64 * h;
            self.be
                .step(circuit, &mut self.system, &mut self.lu, x, t, h)?;
        }
        Ok(())
    }

    /// The interface coupling residual `‖q(a) − q(b)‖∞ / h` between two
    /// candidate boundary states at time `t`.
    ///
    /// A window seed enters the successor's fine recursion *only* through
    /// the charge term `q(x_seed)/h` of the first backward-Euler residual,
    /// so this is exactly the perturbation a seed update injects — the
    /// honest convergence metric for stiff networks, where the raw state
    /// gap can sit far above any useful tolerance while its dynamical
    /// influence is below Newton noise.
    pub(crate) fn coupling_gap(
        &mut self,
        circuit: &Circuit,
        a: &[f64],
        b: &[f64],
        t: f64,
        h: f64,
    ) -> f64 {
        self.be.start(circuit, &mut self.system, a, t);
        self.system.eval_into(circuit, b, t, &mut self.be.ev);
        self.be
            .ev
            .q
            .iter()
            .zip(self.be.q_prev())
            .map(|(x, y)| ((x - y) / h).abs())
            .fold(0.0f64, f64::max)
    }
}
