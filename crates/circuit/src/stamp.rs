//! Stamping interfaces: how devices contribute to the MNA system.
//!
//! The DAE is `g(x, t) = d/dt q(x) + f(x) + b(t) = 0` (paper eq. 1). Each
//! device accumulates into:
//!
//! - `f` — static currents, and `G = ∂f/∂x`;
//! - `q` — charges/fluxes, and `C = ∂q/∂x`;
//! - `b` — independent-source terms.
//!
//! `f`, `q` and `b` are dense and written directly. `G` and `C` go through
//! one seam with two halves (DESIGN.md §3.16):
//!
//! - **Sites, bound once.** A device lists every `G`/`C` position its
//!   kernel writes, in the kernel's local order ([`Sites`]). Elaboration
//!   reserves them in the shared pattern and then binds each site off
//!   ground to its union value index: one `u32` slot entry per site.
//! - **Kernel, then scatter.** At evaluation the device kernel computes its
//!   local values and hands them to [`EvalContext::scatter_g`] /
//!   [`EvalContext::scatter_c`]. The evaluation [`Scatter`] adds them
//!   through the device's slot entries in local order, `values[k] += v`:
//!   no pattern search on the evaluation path.
//!
//! Ground (node 0) is eliminated: unknown indices are `Option<usize>` and
//! a site touching ground gets no slot entry, so its value is silently
//! dropped, which is exactly the row/column deletion of standard MNA.

/// An unknown index: `None` is ground.
pub type Unknown = Option<usize>;

/// Low bits of a slot entry: the site's union value index. The bits above
/// hold its local index, `G` sites from 0 and `C` sites from [`C_LOCAL`].
pub(crate) const SLOT_BITS: u32 = 27;

/// Local index of a device's first `C` site in its slot entries; a device
/// lists at most this many `G` and this many `C` sites.
pub(crate) const C_LOCAL: usize = 16;

/// Slot of a position the union pattern lacks (a block whose parameter was
/// 0 at elaboration): a write panics.
pub(crate) const UNRESERVED: u32 = (1 << SLOT_BITS) - 1;

/// The `G` and `C` positions one device's kernel writes, in the kernel's
/// local order: the order in which its [`EvalContext::scatter_g`] and
/// [`EvalContext::scatter_c`] values arrive.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sites {
    g: Vec<(Unknown, Unknown)>,
    c: Vec<(Unknown, Unknown)>,
    /// Per `C` site: whether elaboration reserves it in the pattern.
    c_reserved: Vec<bool>,
}

impl Sites {
    /// Empties the lists, keeping their allocations.
    pub fn clear(&mut self) {
        self.g.clear();
        self.c.clear();
        self.c_reserved.clear();
    }

    /// The `G` sites, in local order.
    pub fn g(&self) -> &[(Unknown, Unknown)] {
        &self.g
    }

    /// The `C` sites, in local order.
    pub fn c(&self) -> &[(Unknown, Unknown)] {
        &self.c
    }

    /// Per `C` site, whether elaboration reserves it in the pattern. A
    /// block whose parameter is 0 is not reserved, but its sites are still
    /// bound, against the union pattern.
    pub(crate) fn c_reserved(&self) -> &[bool] {
        &self.c_reserved
    }

    /// Appends the `G` site `(row, col)`.
    pub(crate) fn push_g(&mut self, row: Unknown, col: Unknown) {
        self.g.push((row, col));
    }

    /// Appends the 2×2 `G` block of `a` and `b` in [`pair`] order.
    pub(crate) fn push_g_pair(&mut self, a: Unknown, b: Unknown) {
        self.g.extend([(a, a), (b, b), (a, b), (b, a)]);
    }

    /// Appends the `C` site `(row, col)`, reserved.
    pub(crate) fn push_c(&mut self, row: Unknown, col: Unknown) {
        self.c.push((row, col));
        self.c_reserved.push(true);
    }

    /// Appends the 2×2 `C` block of `a` and `b` in [`pair`] order,
    /// reserved in the pattern only if `reserve` (a block gated by a
    /// parameter passes whether the parameter is non-zero).
    pub(crate) fn push_c_pair(&mut self, a: Unknown, b: Unknown, reserve: bool) {
        self.c.extend([(a, a), (b, b), (a, b), (b, a)]);
        self.c_reserved.extend([reserve; 4]);
    }
}

/// Local values of a 2×2 block in the order of [`Sites::push_g_pair`]:
/// `(a,a), (b,b), (a,b), (b,a)` ← `v, v, −v, −v`.
#[inline]
pub(crate) fn pair(v: f64) -> [f64; 4] {
    [v, v, -v, -v]
}

/// The scatter half of the seam: where a kernel's local `G`/`C` values go.
///
/// `first` is the index of the first value's site in the device's
/// [`Sites`] list; the values arrive in local order.
pub trait Scatter {
    /// Accumulates `vals` at `G` sites `first..first + vals.len()`.
    fn g(&mut self, first: usize, vals: &[f64]);
    /// Accumulates `vals` at `C` sites `first..first + vals.len()`.
    fn c(&mut self, first: usize, vals: &[f64]);
}

/// A slot entry: local index `local` (a `C` site's plus [`C_LOCAL`]) bound
/// to union value index `slot`.
#[inline]
pub(crate) fn slot_entry(local: usize, slot: u32) -> u32 {
    ((local as u32) << SLOT_BITS) | slot
}

/// The evaluation scatter: union-pattern value arrays written through the
/// current device's slot entries.
#[derive(Debug)]
pub(crate) struct Bound<'a> {
    g: &'a mut [f64],
    c: &'a mut [f64],
    entries: &'a [u32],
}

impl<'a> Bound<'a> {
    /// A scatter into the union values `g` and `c`, bound to no device.
    pub(crate) fn new(g: &'a mut [f64], c: &'a mut [f64]) -> Self {
        Self { g, c, entries: &[] }
    }

    /// Binds the next device's slot entries.
    #[inline]
    pub(crate) fn bind(&mut self, entries: &'a [u32]) {
        self.entries = entries;
    }
}

impl Scatter for Bound<'_> {
    #[inline]
    fn g(&mut self, first: usize, vals: &[f64]) {
        assert!(first + vals.len() <= C_LOCAL, "G block past the G sites");
        add_through(self.g, self.entries, first, vals, "G");
    }

    #[inline]
    fn c(&mut self, first: usize, vals: &[f64]) {
        add_through(self.c, self.entries, C_LOCAL + first, vals, "C");
    }
}

/// `values[slot] += vals[local − first]` for every entry whose local index
/// lies in `first..first + vals.len()`, in entry order, which is local
/// order, so the loop stops at the first entry past the block. A ground
/// site has no entry, so its value is dropped.
///
/// # Panics
///
/// Panics on a site the union pattern lacks — a device implementation
/// bug, or a parameter moved off 0 after elaboration where no other
/// device reserved the position.
#[inline]
fn add_through(values: &mut [f64], entries: &[u32], first: usize, vals: &[f64], matrix: &str) {
    let end = first + vals.len();
    for &e in entries {
        let local = (e >> SLOT_BITS) as usize;
        if local >= end {
            break;
        }
        if local >= first {
            let k = e & UNRESERVED;
            if k == UNRESERVED {
                panic!("{matrix} stamp outside reserved pattern");
            }
            values[k as usize] += vals[local - first];
        }
    }
}

/// Evaluation sink: one pass accumulates `f`, `q`, `b`, and through the
/// scatter `S`, `G` and `C`, at a given state `x` and time `t`.
#[derive(Debug)]
pub struct EvalContext<'a, S> {
    /// Current solution vector (node voltages then branch currents).
    pub x: &'a [f64],
    /// Evaluation time.
    pub t: f64,
    /// Static residual accumulator.
    pub f: &'a mut [f64],
    /// Charge/flux accumulator.
    pub q: &'a mut [f64],
    /// Independent-source accumulator.
    pub b: &'a mut [f64],
    scatter: S,
}

impl<'a, S: Scatter> EvalContext<'a, S> {
    /// A context over the given state and accumulators.
    pub fn new(
        x: &'a [f64],
        t: f64,
        f: &'a mut [f64],
        q: &'a mut [f64],
        b: &'a mut [f64],
        scatter: S,
    ) -> Self {
        Self {
            x,
            t,
            f,
            q,
            b,
            scatter,
        }
    }

    /// The scatter `G`/`C` values go through.
    pub fn scatter_mut(&mut self) -> &mut S {
        &mut self.scatter
    }

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

    /// Scatters local `G = ∂f/∂x` values to the device's `G` sites
    /// `first..first + vals.len()`.
    #[inline]
    pub fn scatter_g(&mut self, first: usize, vals: &[f64]) {
        self.scatter.g(first, vals);
    }

    /// Scatters local `C = ∂q/∂x` values to the device's `C` sites
    /// `first..first + vals.len()`.
    #[inline]
    pub fn scatter_c(&mut self, first: usize, vals: &[f64]) {
        self.scatter.c(first, vals);
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
mod tests {
    use super::*;

    #[test]
    fn ground_stamps_are_dropped() {
        // A conductance from unknown 0 to ground: only its (0,0) site,
        // local 0, has an entry.
        let entries = [slot_entry(0, 0)];
        let mut g = [0.0; 1];
        let mut c = [0.0; 1];
        let mut bound = Bound::new(&mut g, &mut c);
        bound.bind(&entries);
        bound.g(0, &pair(0.5));
        bound.c(0, &[9.0]);
        assert_eq!(g, [0.5]);
        assert_eq!(c, [0.0]);
    }

    #[test]
    fn conductance_stamp_matches_hand_math() {
        // Sites of a conductance between unknowns 0 and 1 over a 2×2 dense
        // pattern: (0,0)→0, (1,1)→3, (0,1)→1, (1,0)→2.
        let mut sites = Sites::default();
        sites.push_g_pair(Some(0), Some(1));
        assert_eq!(
            sites.g(),
            [
                (Some(0), Some(0)),
                (Some(1), Some(1)),
                (Some(0), Some(1)),
                (Some(1), Some(0))
            ]
        );
        let entries = [
            slot_entry(0, 0),
            slot_entry(1, 3),
            slot_entry(2, 1),
            slot_entry(3, 2),
        ];
        let mut g = [0.0; 4];
        let mut c: [f64; 0] = [];
        let mut bound = Bound::new(&mut g, &mut c);
        bound.bind(&entries);
        let x = [2.0, 0.5];
        let (mut f, mut q, mut b) = ([0.0; 2], [0.0; 2], [0.0; 2]);
        let mut ctx = EvalContext::new(&x, 0.0, &mut f, &mut q, &mut b, bound);
        let v = ctx.value(Some(0)) - ctx.value(Some(1));
        ctx.add_f(Some(0), 0.1 * v);
        ctx.add_f(Some(1), -0.1 * v);
        ctx.scatter_g(0, &pair(0.1));
        assert!((f[0] - 0.15).abs() < 1e-15);
        assert!((f[1] + 0.15).abs() < 1e-15);
        assert_eq!(g, [0.1, -0.1, -0.1, 0.1]);
    }

    #[test]
    fn value_of_ground_is_zero() {
        let x = [7.0];
        let (mut f, mut q, mut b) = ([0.0; 1], [0.0; 1], [0.0; 1]);
        let (mut g, mut c): ([f64; 0], [f64; 0]) = ([], []);
        let ctx = EvalContext::new(&x, 0.0, &mut f, &mut q, &mut b, Bound::new(&mut g, &mut c));
        assert_eq!(ctx.value(None), 0.0);
        assert_eq!(ctx.value(Some(0)), 7.0);
    }

    #[test]
    fn blocks_write_only_their_own_entries() {
        // G site 0 → slot 0; C sites 0 and 1 → slots 1 and 2, one block
        // each; C site 2 is on ground.
        let entries = [
            slot_entry(0, 0),
            slot_entry(C_LOCAL, 1),
            slot_entry(C_LOCAL + 1, 2),
        ];
        let mut g = [0.0; 3];
        let mut c = [0.0; 3];
        let mut bound = Bound::new(&mut g, &mut c);
        bound.bind(&entries);
        bound.c(1, &[4.0, 5.0]);
        bound.g(0, &[1.0]);
        bound.c(0, &[3.0]);
        assert_eq!(g, [1.0, 0.0, 0.0]);
        assert_eq!(c, [0.0, 3.0, 4.0]);
    }

    #[test]
    fn unreserved_site_panics_only_when_written() {
        let entries = [slot_entry(C_LOCAL, UNRESERVED), slot_entry(C_LOCAL + 1, 0)];
        let mut g = [0.0; 1];
        let mut c = [0.0; 1];
        let mut bound = Bound::new(&mut g, &mut c);
        bound.bind(&entries);
        // A block that is skipped never touches its sentinel.
        bound.c(1, &[2.0]);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| bound.c(0, &[1.0])))
            .expect_err("an unreserved C site panics");
        assert_eq!(
            err.downcast_ref::<String>().map(String::as_str),
            Some("C stamp outside reserved pattern")
        );
    }
}
