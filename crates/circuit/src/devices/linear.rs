//! Linear two-terminal devices: resistor, capacitor, inductor.
//!
//! These produce exactly the textbook MNA stamps the paper's spatial
//! predictor exploits: for a resistor or capacitor,
//! `S(i,i) = S(j,j) = -S(i,j) = -S(j,i)`.

use super::DeviceImpl;
use crate::stamp::{pair, EvalContext, ParamDerivContext, Scatter, Sites, Unknown};

/// A linear resistor.
#[derive(Debug, Clone, PartialEq)]
pub struct Resistor {
    name: String,
    a: Unknown,
    b: Unknown,
    /// Resistance in ohms (must be positive).
    pub resistance: f64,
}

impl Resistor {
    /// Creates a resistor between unknowns `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `resistance <= 0`.
    pub fn new(name: impl Into<String>, a: Unknown, b: Unknown, resistance: f64) -> Self {
        assert!(resistance > 0.0, "resistance must be positive");
        Self {
            name: name.into(),
            a,
            b,
            resistance,
        }
    }
}

impl DeviceImpl for Resistor {
    fn name(&self) -> &str {
        &self.name
    }

    fn sites(&self, sites: &mut Sites) {
        sites.push_g_pair(self.a, self.b);
    }

    fn eval<S: Scatter>(&self, ctx: &mut EvalContext<'_, S>) {
        let g = 1.0 / self.resistance;
        let v = ctx.value(self.a) - ctx.value(self.b);
        ctx.add_f(self.a, g * v);
        ctx.add_f(self.b, -g * v);
        ctx.scatter_g(0, &pair(g));
    }

    fn param_names(&self) -> &'static [&'static str] {
        &["r"]
    }

    fn param(&self, i: usize) -> f64 {
        assert_eq!(i, 0);
        self.resistance
    }

    fn set_param(&mut self, i: usize, value: f64) {
        assert_eq!(i, 0);
        self.resistance = value;
    }

    fn stamp_param_deriv(&self, i: usize, ctx: &mut ParamDerivContext<'_>) {
        assert_eq!(i, 0);
        // f = (va - vb)/R  →  ∂f/∂R = -(va - vb)/R².
        let v = ctx.value(self.a) - ctx.value(self.b);
        let d = -v / (self.resistance * self.resistance);
        ctx.add_df(self.a, d);
        ctx.add_df(self.b, -d);
    }

    fn unknowns(&self) -> Vec<Unknown> {
        vec![self.a, self.b]
    }
}

/// A linear capacitor.
#[derive(Debug, Clone, PartialEq)]
pub struct Capacitor {
    name: String,
    a: Unknown,
    b: Unknown,
    /// Capacitance in farads (must be positive).
    pub capacitance: f64,
}

impl Capacitor {
    /// Creates a capacitor between unknowns `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `capacitance <= 0`.
    pub fn new(name: impl Into<String>, a: Unknown, b: Unknown, capacitance: f64) -> Self {
        assert!(capacitance > 0.0, "capacitance must be positive");
        Self {
            name: name.into(),
            a,
            b,
            capacitance,
        }
    }
}

impl DeviceImpl for Capacitor {
    fn name(&self) -> &str {
        &self.name
    }

    fn sites(&self, sites: &mut Sites) {
        sites.push_c_pair(self.a, self.b, true);
    }

    fn eval<S: Scatter>(&self, ctx: &mut EvalContext<'_, S>) {
        let v = ctx.value(self.a) - ctx.value(self.b);
        let q = self.capacitance * v;
        ctx.add_q(self.a, q);
        ctx.add_q(self.b, -q);
        ctx.scatter_c(0, &pair(self.capacitance));
    }

    fn param_names(&self) -> &'static [&'static str] {
        &["c"]
    }

    fn param(&self, i: usize) -> f64 {
        assert_eq!(i, 0);
        self.capacitance
    }

    fn set_param(&mut self, i: usize, value: f64) {
        assert_eq!(i, 0);
        self.capacitance = value;
    }

    fn stamp_param_deriv(&self, i: usize, ctx: &mut ParamDerivContext<'_>) {
        assert_eq!(i, 0);
        // q = C (va - vb)  →  ∂q/∂C = va - vb.
        let v = ctx.value(self.a) - ctx.value(self.b);
        ctx.add_dq(self.a, v);
        ctx.add_dq(self.b, -v);
    }

    fn unknowns(&self) -> Vec<Unknown> {
        vec![self.a, self.b]
    }
}

/// A linear inductor; introduces a branch-current unknown.
///
/// Branch residual: `L di/dt − (va − vb) = 0`, i.e. `q_br = L·i`,
/// `f_br = −(va − vb)`; KCL rows receive `±i`.
#[derive(Debug, Clone, PartialEq)]
pub struct Inductor {
    name: String,
    a: Unknown,
    b: Unknown,
    /// Branch-current unknown, assigned at elaboration.
    pub(crate) branch: Unknown,
    /// Inductance in henries (must be positive).
    pub inductance: f64,
}

impl Inductor {
    /// Creates an inductor between unknowns `a` and `b`. The branch unknown
    /// is assigned by the circuit at elaboration.
    ///
    /// # Panics
    ///
    /// Panics if `inductance <= 0`.
    pub fn new(name: impl Into<String>, a: Unknown, b: Unknown, inductance: f64) -> Self {
        assert!(inductance > 0.0, "inductance must be positive");
        Self {
            name: name.into(),
            a,
            b,
            branch: None,
            inductance,
        }
    }
}

impl DeviceImpl for Inductor {
    fn name(&self) -> &str {
        &self.name
    }

    fn sites(&self, sites: &mut Sites) {
        let br = self.branch;
        sites.push_g(self.a, br);
        sites.push_g(self.b, br);
        sites.push_g(br, self.a);
        sites.push_g(br, self.b);
        sites.push_c(br, br);
    }

    fn eval<S: Scatter>(&self, ctx: &mut EvalContext<'_, S>) {
        let br = self.branch;
        let i = ctx.value(br);
        // KCL: current i flows a → b through the inductor.
        ctx.add_f(self.a, i);
        ctx.add_f(self.b, -i);
        // Branch: L di/dt = va − vb  →  f_br = −(va − vb), q_br = L i.
        let v = ctx.value(self.a) - ctx.value(self.b);
        ctx.add_f(br, -v);
        ctx.scatter_g(0, &[1.0, -1.0, -1.0, 1.0]);
        ctx.add_q(br, self.inductance * i);
        ctx.scatter_c(0, &[self.inductance]);
    }

    fn param_names(&self) -> &'static [&'static str] {
        &["l"]
    }

    fn param(&self, i: usize) -> f64 {
        assert_eq!(i, 0);
        self.inductance
    }

    fn set_param(&mut self, i: usize, value: f64) {
        assert_eq!(i, 0);
        self.inductance = value;
    }

    fn stamp_param_deriv(&self, i: usize, ctx: &mut ParamDerivContext<'_>) {
        assert_eq!(i, 0);
        // q_br = L i  →  ∂q_br/∂L = i.
        let ibr = ctx.value(self.branch);
        ctx.add_dq(self.branch, ibr);
    }

    fn unknowns(&self) -> Vec<Unknown> {
        vec![self.a, self.b, self.branch]
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "sizes chosen by the test")]
mod tests {
    use super::*;
    use crate::devices::{eval_alone, Device};

    #[test]
    fn resistor_stamp_symmetry() {
        let r = Resistor::new("R1", Some(0), Some(1), 100.0);
        let e = eval_alone(Device::Resistor(r), &[1.0, 0.0], 0.0);
        // The paper's stamp relation: S(i,i) = S(j,j) = -S(i,j) = -S(j,i).
        assert_eq!(e.g.get(0, 0), Some(0.01));
        assert_eq!(e.g.get(1, 1), Some(0.01));
        assert_eq!(e.g.get(0, 1), Some(-0.01));
        assert_eq!(e.g.get(1, 0), Some(-0.01));
        assert!((e.f[0] - 0.01).abs() < 1e-15);
        assert!((e.f[1] + 0.01).abs() < 1e-15);
        assert_eq!(e.b, vec![0.0, 0.0]);
    }

    #[test]
    fn resistor_to_ground() {
        let r = Resistor::new("R1", Some(0), None, 50.0);
        let e = eval_alone(Device::Resistor(r), &[2.0], 0.0);
        assert_eq!(e.g.get(0, 0), Some(0.02));
        assert!((e.f[0] - 0.04).abs() < 1e-15);
    }

    #[test]
    fn capacitor_charge_and_c_matrix() {
        let c = Capacitor::new("C1", Some(0), Some(1), 1e-6);
        let e = eval_alone(Device::Capacitor(c), &[3.0, 1.0], 0.0);
        assert!((e.q[0] - 2e-6).abs() < 1e-18);
        assert!((e.q[1] + 2e-6).abs() < 1e-18);
        assert_eq!(e.c.get(0, 0), Some(1e-6));
        assert_eq!(e.c.get(0, 1), Some(-1e-6));
        assert_eq!(e.f, vec![0.0, 0.0]);
    }

    #[test]
    fn inductor_branch_equations() {
        let mut l = Inductor::new("L1", Some(0), Some(1), 1e-3);
        l.branch = Some(2);
        // x = [va, vb, i]
        let e = eval_alone(Device::Inductor(l), &[2.0, 0.5, 0.1], 0.0);
        assert!((e.f[0] - 0.1).abs() < 1e-15); // i into node a
        assert!((e.f[1] + 0.1).abs() < 1e-15);
        assert!((e.f[2] + 1.5).abs() < 1e-15); // −(va − vb)
        assert!((e.q[2] - 1e-4).abs() < 1e-18); // L i
        assert_eq!(e.c.get(2, 2), Some(1e-3));
        assert_eq!(e.g.get(0, 2), Some(1.0));
        assert_eq!(e.g.get(2, 0), Some(-1.0));
    }

    #[test]
    fn resistor_param_deriv_matches_fd() {
        let x = [1.7, -0.4];
        let r0 = 220.0;
        let analytic = {
            let r = Resistor::new("R", Some(0), Some(1), r0);
            let mut df = vec![0.0; 2];
            let mut dq = vec![0.0; 2];
            let mut db = vec![0.0; 2];
            r.stamp_param_deriv(
                0,
                &mut ParamDerivContext {
                    x: &x,
                    t: 0.0,
                    df_dp: &mut df,
                    dq_dp: &mut dq,
                    db_dp: &mut db,
                },
            );
            df
        };
        let eps = r0 * 1e-7;
        let f_at = |rv: f64| {
            let r = Resistor::new("R", Some(0), Some(1), rv);
            eval_alone(Device::Resistor(r), &x, 0.0).f
        };
        let hi = f_at(r0 + eps);
        let lo = f_at(r0 - eps);
        for k in 0..2 {
            let fd = (hi[k] - lo[k]) / (2.0 * eps);
            assert!((analytic[k] - fd).abs() < 1e-9 * (1.0 + fd.abs()));
        }
    }

    #[test]
    fn invalid_values_panic() {
        assert!(std::panic::catch_unwind(|| Resistor::new("R", None, None, 0.0)).is_err());
        assert!(std::panic::catch_unwind(|| Capacitor::new("C", None, None, -1.0)).is_err());
        assert!(std::panic::catch_unwind(|| Inductor::new("L", None, None, 0.0)).is_err());
    }
}
