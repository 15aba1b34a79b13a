//! Transient analysis (backward Euler) with a pluggable Jacobian sink.
//!
//! At every accepted timestep the converged state and the `G`/`C` matrices
//! are offered to a [`JacobianSink`]. MASC's whole premise lives in that
//! hook: the adjoint crate plugs in stores that keep the matrices raw in
//! memory, stream them to disk, or compress them with the spatiotemporal
//! compressor (paper Algorithm 2, lines 2–8).

use crate::circuit::{Circuit, Evaluation, System};
use crate::dc::{dc_operating_point_ws, DcSolution};
use crate::newton::{newton_solve, NewtonError, NewtonOptions};
use masc_sparse::{CsrMatrix, LuWorkspace};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A failure raised by a [`JacobianSink`] while persisting a step.
///
/// Sinks live above this crate (the adjoint crate's Jacobian stores), so
/// the payload is an opaque boxed error: a full disk, a compressor fault —
/// whatever kept the sink from accepting the step. The transient loop
/// aborts with [`TranError::Sink`] instead of panicking.
#[derive(Debug, Clone)]
pub struct SinkError(Arc<dyn std::error::Error + Send + Sync + 'static>);

impl SinkError {
    /// Wraps the underlying failure.
    pub fn new(source: impl std::error::Error + Send + Sync + 'static) -> Self {
        Self(Arc::new(source))
    }

    /// The wrapped failure.
    pub fn inner(&self) -> &(dyn std::error::Error + Send + Sync + 'static) {
        self.0.as_ref()
    }
}

impl std::fmt::Display for SinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "jacobian sink failed: {}", self.0)
    }
}

impl std::error::Error for SinkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(self.0.as_ref() as &(dyn std::error::Error + 'static))
    }
}

/// Observer of per-step Jacobians during forward integration.
///
/// `step = 0` is the DC operating point (paper: "store `M₀`"); steps
/// `1..=n` are transient points. Implementations must not assume the
/// matrices outlive the call — copy or compress what they need.
pub trait JacobianSink {
    /// Called once per accepted step with the converged state and matrices.
    ///
    /// # Errors
    ///
    /// Returns [`SinkError`] when the step cannot be persisted (e.g. a
    /// full disk); the transient loop aborts with [`TranError::Sink`].
    fn on_step(
        &mut self,
        step: usize,
        t: f64,
        h: f64,
        x: &[f64],
        g: &CsrMatrix,
        c: &CsrMatrix,
    ) -> Result<(), SinkError>;

    /// Called once after the last accepted step, before the transient run
    /// returns; an error aborts the run as [`TranError::Sink`] at the
    /// final step. Every sink in this workspace persists inside `on_step`
    /// and keeps the default no-op (DESIGN.md §3.8); the hook remains for
    /// sinks that wrap another sink and forward it.
    ///
    /// # Errors
    ///
    /// Returns [`SinkError`] when a previously accepted step turned out
    /// not to be persistable.
    fn on_finish(&mut self) -> Result<(), SinkError> {
        Ok(())
    }
}

/// A sink that ignores everything (plain transient analysis).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl JacobianSink for NullSink {
    fn on_step(
        &mut self,
        _: usize,
        _: f64,
        _: f64,
        _: &[f64],
        _: &CsrMatrix,
        _: &CsrMatrix,
    ) -> Result<(), SinkError> {
        Ok(())
    }
}

/// Adaptive timestep controls (SPICE-style iteration-count heuristic).
#[derive(Debug, Clone, PartialEq)]
pub struct Adaptive {
    /// Smallest allowed step; a Newton failure below this aborts.
    pub h_min: f64,
    /// Largest allowed step.
    pub h_max: f64,
    /// Grow the step after a convergence in at most this many iterations.
    pub grow_below: usize,
    /// Shrink the step after needing at least this many iterations.
    pub shrink_above: usize,
}

/// Transient-analysis options.
#[derive(Debug, Clone, PartialEq)]
pub struct TranOptions {
    /// Stop time (s).
    pub t_stop: f64,
    /// Timestep (s): fixed, or the initial step in adaptive mode.
    pub dt: f64,
    /// Newton controls per step.
    pub newton: NewtonOptions,
    /// Adaptive stepping; `None` = fixed `dt`.
    pub adaptive: Option<Adaptive>,
}

impl TranOptions {
    /// Creates options for `[0, t_stop]` at a fixed `dt`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < dt <= t_stop`.
    pub fn new(t_stop: f64, dt: f64) -> Self {
        assert!(dt > 0.0 && dt <= t_stop, "need 0 < dt <= t_stop");
        Self {
            t_stop,
            dt,
            newton: NewtonOptions::default(),
            adaptive: None,
        }
    }

    /// Enables adaptive stepping: `dt` becomes the initial step, growing to
    /// `h_max_factor·dt` when Newton converges quickly and shrinking to
    /// `dt/h_min_divisor` when it struggles — the step-size behavior the
    /// paper's `#Steps` counts come from.
    pub fn with_adaptive(mut self, h_max_factor: f64, h_min_divisor: f64) -> Self {
        self.adaptive = Some(Adaptive {
            h_min: self.dt / h_min_divisor.max(1.0),
            h_max: self.dt * h_max_factor.max(1.0),
            grow_below: 4,
            shrink_above: 12,
        });
        self
    }

    /// Number of transient steps (excluding DC) in *fixed* mode: exactly
    /// the count [`transient_into`] takes, i.e. the smallest `n` whose
    /// `n·dt` reaches `t_stop` less a relative `1e-12`. On a grid where
    /// `t_stop/dt` is not an integer the last step overshoots `t_stop`.
    /// Adaptive runs determine their own count.
    pub fn step_count(&self) -> usize {
        let t_end = self.t_end();
        let mut n = (t_end / self.dt).ceil().max(0.0) as usize;
        // The quotient is correctly rounded, so its ceiling is off by at
        // most one; settle on the predicate the stepping loop tests.
        if n > 0 && (n - 1) as f64 * self.dt >= t_end {
            n -= 1;
        } else if (n as f64) * self.dt < t_end {
            n = n.saturating_add(1);
        }
        n
    }

    /// The time the stepping loop integrates to: `t_stop` less a relative
    /// `1e-12`, so round-off in `step·dt` never adds a sliver step.
    fn t_end(&self) -> f64 {
        self.t_stop * (1.0 - 1e-12)
    }
}

/// Errors from transient analysis.
#[derive(Debug, Clone)]
pub enum TranError {
    /// The DC operating point failed.
    Dc(NewtonError),
    /// A transient step failed to converge.
    Step {
        /// The failing step index.
        step: usize,
        /// The failing time.
        t: f64,
        /// Underlying Newton failure.
        source: NewtonError,
    },
    /// The Jacobian sink rejected an accepted step (e.g. a full disk).
    Sink {
        /// The step the sink rejected.
        step: usize,
        /// The time of the rejected step.
        t: f64,
        /// Underlying sink failure.
        source: SinkError,
    },
}

impl std::fmt::Display for TranError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TranError::Dc(e) => write!(f, "dc operating point failed: {e}"),
            TranError::Step { step, t, source } => {
                write!(f, "transient step {step} at t = {t:.3e} failed: {source}")
            }
            TranError::Sink { step, t, source } => {
                write!(f, "transient step {step} at t = {t:.3e}: {source}")
            }
        }
    }
}

impl std::error::Error for TranError {}

/// Timing and iteration statistics of a transient run.
#[derive(Debug, Clone, Copy, Default)]
pub struct TranStats {
    /// Accepted transient steps (excluding DC).
    pub steps: usize,
    /// Total Newton iterations.
    pub newton_iterations: usize,
    /// End-to-end wall time of the transient run.
    pub total_time: Duration,
}

/// The result of a transient run.
#[derive(Debug, Clone)]
pub struct TranResult {
    /// Time points `t₀ = 0, t₁, …, t_N`.
    pub times: Vec<f64>,
    /// Solution at each time point (`times.len()` × `n`).
    pub states: Vec<Vec<f64>>,
    /// Step sizes `h_n = t_n − t_{n−1}` (index 0 unused, set to `dt`).
    pub steps: Vec<f64>,
    /// Run statistics.
    pub stats: TranStats,
}

impl TranResult {
    /// Waveform of unknown `i` over time.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn waveform(&self, i: usize) -> Vec<f64> {
        self.states.iter().map(|x| x[i]).collect()
    }
}

/// One fixed-`h` backward-Euler step: the single home of the implicit
/// Newton solve every driver integrates with ([`transient_into`], the sweep's
/// lockstep waves, the window engine's fine and coarse propagators), so
/// their trajectories agree bit for bit by construction.
///
/// The stepper owns the Newton controls, the evaluation buffers, the
/// Jacobian/residual scratch and the previous accepted charge `q_prev`; the
/// caller owns the state vector, the [`System`] and the schedule (which
/// `(t, h)` to step to, what to do on failure).
#[derive(Debug)]
pub struct BeStepper {
    newton: NewtonOptions,
    /// The latest device evaluation. After [`start`](Self::start) or a
    /// successful [`step`](Self::step) it holds `G`, `C`, `f`, `q`, `b` at
    /// the accepted point — what a [`JacobianSink`] is offered.
    pub ev: Evaluation,
    j: CsrMatrix,
    r: Vec<f64>,
    q_prev: Vec<f64>,
}

impl BeStepper {
    /// Allocates the buffers for `system`'s pattern.
    #[expect(
        clippy::disallowed_methods,
        reason = "sized by the elaborated system dimension `n`"
    )]
    pub fn new(system: &System, newton: NewtonOptions) -> Self {
        Self {
            newton,
            ev: system.new_evaluation(),
            j: CsrMatrix::zeros(system.pattern.clone()),
            r: vec![0.0; system.n],
            q_prev: vec![0.0; system.n],
        }
    }

    /// Evaluates at the start point `(x, t)` and takes its charge as the
    /// history the first step differentiates against.
    pub fn start(&mut self, circuit: &Circuit, system: &mut System, x: &[f64], t: f64) {
        system.eval_into(circuit, x, t, &mut self.ev);
        self.q_prev.copy_from_slice(&self.ev.q);
    }

    /// The charge at the last accepted point.
    pub fn q_prev(&self) -> &[f64] {
        &self.q_prev
    }

    /// Newton-solves `(q(x) − q_prev)/h + f(x) + b(t) = 0` for `x` in place
    /// (starting from its current contents) and rolls `q_prev` forward.
    /// The solve's last evaluation is of the converged point, so `ev`
    /// already holds it: a step evaluates the devices once per Newton
    /// iteration plus once at the converged point. On failure `q_prev` is
    /// untouched, so the caller may restore `x` and retry with another `h`.
    /// Returns the number of Newton iterations the solve took.
    ///
    /// # Errors
    ///
    /// Returns [`NewtonError`] if the iteration fails to converge or the
    /// Jacobian is singular.
    pub fn step(
        &mut self,
        circuit: &Circuit,
        system: &mut System,
        lu: &mut LuWorkspace,
        x: &mut [f64],
        t: f64,
        h: f64,
    ) -> Result<usize, NewtonError> {
        let (ev, q_prev) = (&mut self.ev, &self.q_prev);
        let iterations = newton_solve(x, &self.newton, lu, &mut self.j, &mut self.r, |x, r, j| {
            system.eval_into(circuit, x, t, ev);
            for (i, ri) in r.iter_mut().enumerate() {
                *ri = (ev.q[i] - q_prev[i]) / h + ev.f[i] + ev.b[i];
            }
            // J = G + C/h over the shared pattern.
            let jv = j.values_mut();
            jv.copy_from_slice(ev.g.values());
            for (jv, cv) in jv.iter_mut().zip(ev.c.values()) {
                *jv += cv / h;
            }
        })?;
        self.q_prev.copy_from_slice(&self.ev.q);
        Ok(iterations)
    }
}

/// Runs a backward-Euler transient analysis, feeding every accepted step's
/// Jacobians to `sink` and collecting the trajectory into a
/// [`TranResult`]: [`transient_into`] with a fresh LU workspace and a
/// collecting sink wrapped around `sink`.
///
/// # Errors
///
/// Returns [`TranError`] if the DC point or any step fails.
pub fn transient<S: JacobianSink>(
    circuit: &Circuit,
    system: &mut System,
    opts: &TranOptions,
    sink: &mut S,
) -> Result<TranResult, TranError> {
    let mut collect = Collect::new(sink, opts.step_count().saturating_add(1));
    let stats = transient_into(circuit, system, opts, &mut collect, &mut LuWorkspace::new())?;
    Ok(TranResult {
        times: collect.times,
        states: collect.states,
        steps: collect.hs,
        stats,
    })
}

/// The sink [`transient`] wraps around its caller's: forwards every call
/// and records `(t, h, x)` once the inner sink has accepted the step, so a
/// sink failure aborts at the same step it always did.
struct Collect<'a, S> {
    inner: &'a mut S,
    times: Vec<f64>,
    hs: Vec<f64>,
    states: Vec<Vec<f64>>,
}

/// The most points [`Collect`] reserves up front. Above every grid the
/// workloads run (the largest has 16 000 steps); a longer run grows its
/// vectors as it goes, and a `.tran` grid with an absurd step count
/// reserves no more than this before its first step.
const MAX_RESERVED_POINTS: usize = 1 << 16;

impl<'a, S: JacobianSink> Collect<'a, S> {
    #[expect(
        clippy::disallowed_methods,
        reason = "at most `MAX_RESERVED_POINTS`, a constant"
    )]
    fn new(inner: &'a mut S, points: usize) -> Self {
        let points = points.min(MAX_RESERVED_POINTS);
        Self {
            inner,
            times: Vec::with_capacity(points),
            hs: Vec::with_capacity(points),
            states: Vec::with_capacity(points),
        }
    }
}

impl<S: JacobianSink> JacobianSink for Collect<'_, S> {
    fn on_step(
        &mut self,
        step: usize,
        t: f64,
        h: f64,
        x: &[f64],
        g: &CsrMatrix,
        c: &CsrMatrix,
    ) -> Result<(), SinkError> {
        self.inner.on_step(step, t, h, x, g, c)?;
        self.times.push(t);
        self.hs.push(h);
        self.states.push(x.to_vec());
        Ok(())
    }

    fn on_finish(&mut self) -> Result<(), SinkError> {
        self.inner.on_finish()
    }
}

/// Runs a backward-Euler transient analysis with a caller-provided LU
/// workspace, feeding every accepted step — the DC point as step 0, with
/// `h = opts.dt` — to `sink`, and keeping nothing itself: whatever of the
/// trajectory a caller needs, its sink keeps ([`transient`] collects it
/// all).
///
/// The workspace's symbolic analysis is computed once (at the first DC
/// factorization) and every subsequent Newton iteration of every timestep
/// refactors values-only into the same preallocated `L`/`U` storage.
///
/// # Errors
///
/// Returns [`TranError`] if the DC point or any step fails.
pub fn transient_into<S: JacobianSink>(
    circuit: &Circuit,
    system: &mut System,
    opts: &TranOptions,
    sink: &mut S,
    lu: &mut LuWorkspace,
) -> Result<TranStats, TranError> {
    let run_start = Instant::now();
    system.reset_stats();
    let mut stats = TranStats::default();

    // DC operating point, offered to the sink as step 0.
    let DcSolution {
        x: mut x_prev,
        iterations: dc_iterations,
        ..
    } = dc_operating_point_ws(circuit, system, &opts.newton, lu).map_err(TranError::Dc)?;
    stats.newton_iterations += dc_iterations;

    let mut be = BeStepper::new(system, opts.newton);
    be.start(circuit, system, &x_prev, 0.0);
    sink.on_step(0, 0.0, opts.dt, &x_prev, &be.ev.g, &be.ev.c)
        .map_err(|source| TranError::Sink {
            step: 0,
            t: 0.0,
            source,
        })?;

    let mut x = x_prev.clone();

    let mut t_now = 0.0f64;
    let mut h = opts.dt;
    let mut step = 0usize;
    let t_end = opts.t_end();
    while t_now < t_end {
        step += 1;
        // Fixed mode keeps the uniform grid exactly; adaptive mode clamps
        // the final step to land on t_stop.
        let (t, h_used) = match &opts.adaptive {
            None => (step as f64 * opts.dt, opts.dt),
            Some(_) => {
                let h_clamped = h.min(opts.t_stop - t_now);
                (t_now + h_clamped, h_clamped)
            }
        };
        let attempt = be.step(circuit, system, lu, &mut x, t, h_used);
        let iterations = match (attempt, &opts.adaptive) {
            (Ok(iterations), _) => iterations,
            (Err(source), None) => return Err(TranError::Step { step, t, source }),
            (Err(source), Some(adaptive)) => {
                // Retry from the last accepted state with a smaller step.
                if h / 2.0 < adaptive.h_min {
                    return Err(TranError::Step { step, t, source });
                }
                h /= 2.0;
                x.copy_from_slice(&x_prev);
                step -= 1;
                continue;
            }
        };
        stats.newton_iterations += iterations;

        // A sink failure aborts the whole run: the Newton accept path
        // must not keep integrating past a state the reverse pass can
        // never read.
        sink.on_step(step, t, h_used, &x, &be.ev.g, &be.ev.c)
            .map_err(|source| TranError::Sink { step, t, source })?;

        x_prev.copy_from_slice(&x);
        t_now = t;
        stats.steps += 1;

        if let Some(adaptive) = &opts.adaptive {
            if iterations <= adaptive.grow_below {
                h = (h * 1.5).min(adaptive.h_max);
            } else if iterations >= adaptive.shrink_above {
                h = (h * 0.5).max(adaptive.h_min);
            }
        }
    }

    // A sink that deferred work past on_step reports its failure here.
    sink.on_finish().map_err(|source| TranError::Sink {
        step,
        t: t_now,
        source,
    })?;

    stats.total_time = run_start.elapsed();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{Capacitor, Device, Inductor, Resistor, VoltageSource};
    use crate::waveform::Waveform;

    /// RC charging circuit: V — R — node — C — gnd.
    fn rc_circuit(r: f64, c: f64, v: f64) -> (Circuit, System) {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in").unknown();
        let vout = ckt.node("out").unknown();
        ckt.add(Device::VoltageSource(VoltageSource::new(
            "V1",
            vin,
            None,
            Waveform::Pulse {
                v1: 0.0,
                v2: v,
                td: 0.0,
                tr: 1e-9,
                tf: 1e-9,
                pw: 1.0,
                per: 2.0,
            },
        )))
        .unwrap();
        ckt.add(Device::Resistor(Resistor::new("R1", vin, vout, r)))
            .unwrap();
        ckt.add(Device::Capacitor(Capacitor::new("C1", vout, None, c)))
            .unwrap();
        let sys = ckt.elaborate().unwrap();
        (ckt, sys)
    }

    #[test]
    fn rc_charging_matches_analytic() {
        let (r, c, v) = (1000.0, 1e-6, 5.0);
        let tau = r * c;
        let (ckt, mut sys) = rc_circuit(r, c, v);
        let opts = TranOptions::new(5.0 * tau, tau / 200.0);
        let result = transient(&ckt, &mut sys, &opts, &mut NullSink).unwrap();
        // Compare v_out(t) against v(1 − e^{−t/τ}); BE at τ/200 is ~0.5 %.
        for (k, &t) in result.times.iter().enumerate().skip(10) {
            let analytic = v * (1.0 - (-t / tau).exp());
            let sim = result.states[k][1];
            assert!(
                (sim - analytic).abs() < 0.02 * v,
                "t = {t}: sim {sim} vs analytic {analytic}"
            );
        }
        assert_eq!(result.stats.steps, opts.step_count());
    }

    #[test]
    fn rlc_oscillation_period() {
        // Series RLC driven by a step; check ringing frequency ~ 1/(2π√LC).
        let mut ckt = Circuit::new();
        let vin = ckt.node("in").unknown();
        let mid = ckt.node("mid").unknown();
        let out = ckt.node("out").unknown();
        let (l, c): (f64, f64) = (1e-3, 1e-9);
        let period = 2.0 * std::f64::consts::PI * (l * c).sqrt();
        // A step input so the DC point (0 V) is away from the final value —
        // a DC source would start the run at equilibrium with no ringing.
        ckt.add(Device::VoltageSource(VoltageSource::new(
            "V1",
            vin,
            None,
            Waveform::Pulse {
                v1: 0.0,
                v2: 1.0,
                td: 0.0,
                tr: period / 100.0,
                tf: period / 100.0,
                pw: 1.0,
                per: 2.0,
            },
        )))
        .unwrap();
        ckt.add(Device::Resistor(Resistor::new("R1", vin, mid, 10.0)))
            .unwrap();
        ckt.add(Device::Inductor(Inductor::new("L1", mid, out, l)))
            .unwrap();
        ckt.add(Device::Capacitor(Capacitor::new("C1", out, None, c)))
            .unwrap();
        let mut sys = ckt.elaborate().unwrap();
        let opts = TranOptions::new(3.0 * period, period / 400.0);
        let result = transient(&ckt, &mut sys, &opts, &mut NullSink).unwrap();
        let wave = result.waveform(2); // v(out)
                                       // DC starts at 1.0 (inductor shorts at DC) — look for ringing
                                       // around 1.0 and measure the first two upward crossings.
        let mut crossings = Vec::new();
        for k in 1..wave.len() {
            if wave[k - 1] < 1.0 && wave[k] >= 1.0 {
                crossings.push(result.times[k]);
            }
        }
        assert!(
            crossings.len() >= 2,
            "expected ringing, wave head: {:?}",
            &wave[..10.min(wave.len())]
        );
        let measured = crossings[1] - crossings[0];
        assert!(
            (measured - period).abs() < 0.15 * period,
            "period {measured} vs {period}"
        );
    }

    #[test]
    fn sink_sees_every_step() {
        #[derive(Default)]
        struct Counter {
            calls: Vec<(usize, f64)>,
            nnz: usize,
        }
        impl JacobianSink for Counter {
            fn on_step(
                &mut self,
                step: usize,
                t: f64,
                _h: f64,
                _x: &[f64],
                g: &CsrMatrix,
                _c: &CsrMatrix,
            ) -> Result<(), SinkError> {
                self.calls.push((step, t));
                self.nnz = g.nnz();
                Ok(())
            }
        }
        let (ckt, mut sys) = rc_circuit(1000.0, 1e-6, 1.0);
        let opts = TranOptions::new(1e-3, 1e-4);
        let mut sink = Counter::default();
        let result = transient(&ckt, &mut sys, &opts, &mut sink).unwrap();
        assert_eq!(sink.calls.len(), result.times.len());
        assert_eq!(sink.calls[0], (0, 0.0));
        assert_eq!(sink.calls.last().unwrap().0, 10);
        assert!(sink.nnz > 0);
    }

    #[test]
    fn collect_reserves_a_bounded_number_of_points() {
        // `.tran 1e-300 1`: the step count saturates.
        let opts = TranOptions::new(1.0, 1e-300);
        assert_eq!(opts.step_count(), usize::MAX);
        let mut sink = NullSink;
        let collect = Collect::new(&mut sink, opts.step_count().saturating_add(1));
        assert!(collect.times.capacity() < 2 * MAX_RESERVED_POINTS);
    }

    #[test]
    fn failing_sink_aborts_with_structured_error() {
        struct FailAfter(usize);
        impl JacobianSink for FailAfter {
            fn on_step(
                &mut self,
                step: usize,
                _: f64,
                _: f64,
                _: &[f64],
                _: &CsrMatrix,
                _: &CsrMatrix,
            ) -> Result<(), SinkError> {
                if step >= self.0 {
                    Err(SinkError::new(std::io::Error::other("disk full")))
                } else {
                    Ok(())
                }
            }
        }
        let (ckt, mut sys) = rc_circuit(1000.0, 1e-6, 1.0);
        let opts = TranOptions::new(1e-3, 1e-4);
        let err = transient(&ckt, &mut sys, &opts, &mut FailAfter(3)).unwrap_err();
        match err {
            TranError::Sink { step, source, .. } => {
                assert_eq!(step, 3);
                assert!(source.to_string().contains("disk full"));
            }
            other => panic!("expected sink error, got {other:?}"),
        }
    }

    #[test]
    fn dc_failure_is_reported() {
        // Two capacitors in series leave the middle node floating at DC
        // with no resistive path at all — DC must fail or settle to zero;
        // a circuit with *no* DC path from source cannot converge when the
        // matrix is singular even with shunts removed at the final stage.
        let mut ckt = Circuit::new();
        let a = ckt.node("a").unknown();
        ckt.add(Device::Capacitor(Capacitor::new("C1", a, None, 1e-9)))
            .unwrap();
        ckt.add(Device::Resistor(Resistor::new("R1", a, None, 1e3)))
            .unwrap();
        let mut sys = ckt.elaborate().unwrap();
        // This one actually converges (R defines the node): x = 0.
        let opts = TranOptions::new(1e-6, 1e-7);
        let result = transient(&ckt, &mut sys, &opts, &mut NullSink).unwrap();
        assert!(result.states.iter().all(|x| x[0].abs() < 1e-9));
    }

    #[test]
    fn stats_are_populated() {
        let (ckt, mut sys) = rc_circuit(1000.0, 1e-6, 1.0);
        let opts = TranOptions::new(1e-3, 1e-5);
        let result = transient(&ckt, &mut sys, &opts, &mut NullSink).unwrap();
        assert_eq!(result.stats.steps, 100);
        assert!(result.stats.newton_iterations >= 100);
        assert!(result.stats.total_time > Duration::ZERO);
        assert_eq!(result.steps.len(), result.times.len());
    }
}
