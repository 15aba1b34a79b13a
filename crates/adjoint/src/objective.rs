//! Objective functions over the transient solution (paper eq. 2).
//!
//! `O = ζ(x₀, x₁, …, x_N)` — the sensitivity engines need two things from
//! an objective: its value on a computed waveform and its gradient
//! `(dO/dx)_n` at each time point (paper eq. 3's left factor).

/// An objective function of the transient solution.
#[derive(Debug, Clone, PartialEq)]
pub enum Objective {
    /// The value of unknown `unknown` at the final time point.
    FinalValue {
        /// Unknown index (node voltage or branch current).
        unknown: usize,
    },
    /// The value of unknown `unknown` at a specific step.
    AtStep {
        /// Unknown index.
        unknown: usize,
        /// Step index (0 = DC point).
        step: usize,
    },
    /// `∫ x_u dt` over the whole run (rectangle rule over accepted steps).
    Integral {
        /// Unknown index.
        unknown: usize,
    },
    /// `∫ x_u² dt` — a smooth nonlinear functional (power-like).
    IntegralSquared {
        /// Unknown index.
        unknown: usize,
    },
}

impl Objective {
    /// The unknown this objective observes.
    pub fn unknown(&self) -> usize {
        match self {
            Objective::FinalValue { unknown }
            | Objective::AtStep { unknown, .. }
            | Objective::Integral { unknown }
            | Objective::IntegralSquared { unknown } => *unknown,
        }
    }

    /// Evaluates the objective on a waveform.
    ///
    /// `states[n]` is the solution at step `n`; `hs[n]` the step size used
    /// to reach step `n` (`hs[0]` is unused).
    ///
    /// # Panics
    ///
    /// Panics if the referenced step or unknown is out of range.
    #[expect(
        clippy::expect_used,
        reason = "documented panicking contract on caller-held waveforms, not decoded data"
    )]
    pub fn value(&self, states: &[Vec<f64>], hs: &[f64]) -> f64 {
        match *self {
            Objective::FinalValue { unknown } => {
                states.last().expect("non-empty waveform")[unknown]
            }
            Objective::AtStep { unknown, step } => states[step][unknown],
            Objective::Integral { unknown } => {
                (1..states.len()).map(|n| hs[n] * states[n][unknown]).sum()
            }
            Objective::IntegralSquared { unknown } => (1..states.len())
                .map(|n| {
                    let v = states[n][unknown];
                    hs[n] * v * v
                })
                .sum(),
        }
    }

    /// Accumulates `(dO/dx)_n` into `out` (cleared first).
    ///
    /// `n_steps` is the final step index `N`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` does not cover the observed unknown.
    pub fn gradient_into(&self, step: usize, n_steps: usize, h: f64, x: &[f64], out: &mut [f64]) {
        out.iter_mut().for_each(|v| *v = 0.0);
        match *self {
            Objective::FinalValue { unknown } => {
                if step == n_steps {
                    out[unknown] = 1.0;
                }
            }
            Objective::AtStep { unknown, step: s } => {
                if step == s {
                    out[unknown] = 1.0;
                }
            }
            Objective::Integral { unknown } => {
                if step > 0 {
                    out[unknown] = h;
                }
            }
            Objective::IntegralSquared { unknown } => {
                if step > 0 {
                    out[unknown] = 2.0 * h * x[unknown];
                }
            }
        }
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "sizes chosen by the test")]
mod tests {
    use super::*;

    fn ramp_waveform() -> (Vec<Vec<f64>>, Vec<f64>) {
        // x(t) at steps 0..4 with x = [t, 2t]; h = 0.5.
        let states: Vec<Vec<f64>> = (0..5)
            .map(|n| {
                let t = n as f64 * 0.5;
                vec![t, 2.0 * t]
            })
            .collect();
        let hs = vec![0.5; 5];
        (states, hs)
    }

    #[test]
    fn final_value() {
        let (states, hs) = ramp_waveform();
        let o = Objective::FinalValue { unknown: 1 };
        assert_eq!(o.value(&states, &hs), 4.0);
        let mut g = vec![0.0; 2];
        o.gradient_into(4, 4, 0.5, &states[4], &mut g);
        assert_eq!(g, vec![0.0, 1.0]);
        o.gradient_into(3, 4, 0.5, &states[3], &mut g);
        assert_eq!(g, vec![0.0, 0.0]);
    }

    #[test]
    fn at_step() {
        let (states, hs) = ramp_waveform();
        let o = Objective::AtStep {
            unknown: 0,
            step: 2,
        };
        assert_eq!(o.value(&states, &hs), 1.0);
        let mut g = vec![0.0; 2];
        o.gradient_into(2, 4, 0.5, &states[2], &mut g);
        assert_eq!(g, vec![1.0, 0.0]);
    }

    #[test]
    fn integral_matches_rectangle_rule() {
        let (states, hs) = ramp_waveform();
        let o = Objective::Integral { unknown: 0 };
        // Σ h·t_n for n = 1..4: 0.5·(0.5 + 1.0 + 1.5 + 2.0) = 2.5.
        assert!((o.value(&states, &hs) - 2.5).abs() < 1e-12);
        let mut g = vec![0.0; 2];
        o.gradient_into(3, 4, 0.5, &states[3], &mut g);
        assert_eq!(g, vec![0.5, 0.0]);
        o.gradient_into(0, 4, 0.5, &states[0], &mut g);
        assert_eq!(g, vec![0.0, 0.0]); // DC point excluded
    }

    #[test]
    fn integral_squared_gradient_is_2hx() {
        let (states, hs) = ramp_waveform();
        let o = Objective::IntegralSquared { unknown: 1 };
        let expected: f64 = (1..5).map(|n| 0.5 * (n as f64).powi(2)).sum();
        assert!((o.value(&states, &hs) - expected).abs() < 1e-12);
        let mut g = vec![0.0; 2];
        o.gradient_into(2, 4, 0.5, &states[2], &mut g);
        assert!((g[1] - 2.0 * 0.5 * 2.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_accessor() {
        assert_eq!(Objective::FinalValue { unknown: 7 }.unknown(), 7);
        assert_eq!(Objective::Integral { unknown: 3 }.unknown(), 3);
    }
}
