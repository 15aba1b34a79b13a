//! The reference every bound evaluation is checked against: the same
//! device kernels, with each local `G`/`C` value restamped at its site
//! through `CsrMatrix::add_at` — a pattern search per value, the way
//! evaluation wrote before stamp slots were bound at elaboration.

use masc_circuit::stamp::{EvalContext, Scatter, Sites, Unknown};
use masc_circuit::{Circuit, Evaluation, System};
use masc_sparse::CsrMatrix;

/// Restamps one device's local values at its sites.
struct Restamp<'a> {
    sites: &'a Sites,
    g: &'a mut CsrMatrix,
    c: &'a mut CsrMatrix,
    /// Writes per site, `G` sites then `C` sites.
    writes: Vec<u32>,
}

impl Scatter for Restamp<'_> {
    fn g(&mut self, first: usize, vals: &[f64]) {
        let sites = &self.sites.g()[first..first + vals.len()];
        restamp(self.g, sites, vals, "G");
        count(&mut self.writes[first..first + vals.len()]);
    }

    fn c(&mut self, first: usize, vals: &[f64]) {
        let sites = &self.sites.c()[first..first + vals.len()];
        restamp(self.c, sites, vals, "C");
        let at = self.sites.g().len() + first;
        count(&mut self.writes[at..at + vals.len()]);
    }
}

fn restamp(m: &mut CsrMatrix, sites: &[(Unknown, Unknown)], vals: &[f64], matrix: &str) {
    for (&(r, c), &v) in sites.iter().zip(vals) {
        if let (Some(r), Some(c)) = (r, c) {
            m.add_at(r, c, v)
                .unwrap_or_else(|e| panic!("{matrix} stamp outside reserved pattern: {e:?}"));
        }
    }
}

fn count(writes: &mut [u32]) {
    for w in writes {
        *w += 1;
    }
}

/// Evaluates `circuit` at `(x, t)` through [`Restamp`] over `system`'s
/// pattern. Returns the evaluation and the number of sites no kernel
/// wrote (a block whose parameter is 0).
///
/// # Panics
///
/// Panics if a kernel writes one site twice in one evaluation: its local
/// order would no longer name each value's position.
#[expect(
    clippy::disallowed_methods,
    reason = "one write counter per site of the device"
)]
pub fn restamped(circuit: &Circuit, system: &System, x: &[f64], t: f64) -> (Evaluation, usize) {
    let mut ev = system.new_evaluation();
    let mut sites = Sites::default();
    let mut unwritten = 0;
    for dev in circuit.devices() {
        sites.clear();
        dev.sites(&mut sites);
        let scatter = Restamp {
            sites: &sites,
            g: &mut ev.g,
            c: &mut ev.c,
            writes: vec![0; sites.g().len() + sites.c().len()],
        };
        let mut ctx = EvalContext::new(x, t, &mut ev.f, &mut ev.q, &mut ev.b, scatter);
        dev.eval(&mut ctx);
        let writes = &ctx.scatter_mut().writes;
        assert!(
            writes.iter().all(|&w| w <= 1),
            "{} writes a site twice: {writes:?}",
            dev.name()
        );
        unwritten += writes.iter().filter(|&&w| w == 0).count();
    }
    (ev, unwritten)
}

/// `Ok` if every `G`, `C`, `f`, `q`, `b` value of `a` and `b` has the same
/// bits; otherwise the first difference.
pub fn bitwise_equal(a: &Evaluation, b: &Evaluation) -> Result<(), String> {
    let arrays = [
        ("G", a.g.values(), b.g.values()),
        ("C", a.c.values(), b.c.values()),
        ("f", &a.f[..], &b.f[..]),
        ("q", &a.q[..], &b.q[..]),
        ("b", &a.b[..], &b.b[..]),
    ];
    for (name, x, y) in arrays {
        if x.len() != y.len() {
            return Err(format!("{name}: {} values vs {}", x.len(), y.len()));
        }
        if let Some(k) = (0..x.len()).find(|&k| x[k].to_bits() != y[k].to_bits()) {
            return Err(format!("{name}[{k}]: {:e} vs {:e}", x[k], y[k]));
        }
    }
    Ok(())
}
