//! The circuit container: nodes, devices, elaboration, system evaluation.
//!
//! A [`Circuit`] is built by naming nodes and adding devices; `elaborate`
//! freezes it into a [`System`] with a single shared sparsity [`Pattern`]
//! covering the union of all `G` and `C` stamps (one structure for the whole
//! run — the precondition for the paper's shared-indices technique), and
//! binds every device's stamp sites to value indices of that pattern once,
//! so evaluation never searches it (DESIGN.md §3.16).

use crate::devices::Device;
use crate::stamp::{
    slot_entry, Bound, EvalContext, ParamDerivContext, Sites, Unknown, C_LOCAL, UNRESERVED,
};
use masc_sparse::{CsrMatrix, Pattern, TripletMatrix};
use std::collections::HashMap;
use std::sync::Arc;

/// A node handle returned by [`Circuit::node`]; ground is `Node::GROUND`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Node(pub(crate) Unknown);

impl Node {
    /// The ground (reference) node.
    pub const GROUND: Node = Node(None);

    /// The unknown index backing this node (`None` for ground).
    pub fn unknown(self) -> Unknown {
        self.0
    }
}

/// A reference to one named device parameter, the unit of sensitivity
/// analysis.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ParamRef {
    /// Index of the owning device in the circuit.
    pub device: usize,
    /// Local parameter index within the device.
    pub local: usize,
    /// `"<device>.<param>"`, e.g. `"R1.r"`.
    pub path: String,
}

/// Errors from circuit construction and elaboration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CircuitError {
    /// A device name was used twice.
    DuplicateDevice(String),
    /// The circuit has no devices or no non-ground nodes.
    Empty,
}

impl std::fmt::Display for CircuitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CircuitError::DuplicateDevice(name) => write!(f, "duplicate device name {name}"),
            CircuitError::Empty => write!(f, "circuit has no devices or nodes"),
        }
    }
}

impl std::error::Error for CircuitError {}

/// A netlist under construction.
#[derive(Debug, Clone)]
pub struct Circuit {
    node_names: Vec<String>,
    node_by_name: HashMap<String, Node>,
    devices: Vec<Device>,
    device_names: HashMap<String, usize>,
    model_effort: u32,
}

impl Default for Circuit {
    fn default() -> Self {
        Self::new()
    }
}

impl Circuit {
    /// Creates an empty circuit.
    pub fn new() -> Self {
        Self {
            node_names: Vec::new(),
            node_by_name: HashMap::new(),
            devices: Vec::new(),
            device_names: HashMap::new(),
            model_effort: 1,
        }
    }

    /// Sets the model-evaluation effort multiplier inherited by every
    /// [`System`] this circuit elaborates (see
    /// [`System::set_model_effort`]).
    pub fn set_model_effort(&mut self, effort: u32) {
        self.model_effort = effort.max(1);
    }

    /// Returns (creating if needed) the node with the given name.
    ///
    /// The names `"0"` and `"gnd"` (any case) are ground.
    pub fn node(&mut self, name: &str) -> Node {
        let lower = name.to_ascii_lowercase();
        if lower == "0" || lower == "gnd" {
            return Node::GROUND;
        }
        if let Some(&n) = self.node_by_name.get(&lower) {
            return n;
        }
        let node = Node(Some(self.node_names.len()));
        self.node_names.push(lower.clone());
        self.node_by_name.insert(lower, node);
        node
    }

    /// Number of non-ground nodes.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Name of non-ground node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= node_count()`.
    pub fn node_name(&self, i: usize) -> &str {
        &self.node_names[i]
    }

    /// Looks up an existing node by name.
    pub fn find_node(&self, name: &str) -> Option<Node> {
        let lower = name.to_ascii_lowercase();
        if lower == "0" || lower == "gnd" {
            return Some(Node::GROUND);
        }
        self.node_by_name.get(&lower).copied()
    }

    /// Adds a device.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::DuplicateDevice`] if the name is taken.
    pub fn add(&mut self, device: Device) -> Result<usize, CircuitError> {
        let name = device.name().to_string();
        if self.device_names.contains_key(&name) {
            return Err(CircuitError::DuplicateDevice(name));
        }
        let idx = self.devices.len();
        self.device_names.insert(name, idx);
        self.devices.push(device);
        Ok(idx)
    }

    /// The device list.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Mutable device access (for parameter perturbation).
    pub fn device_mut(&mut self, idx: usize) -> &mut Device {
        &mut self.devices[idx]
    }

    /// Finds a device index by name.
    pub fn find_device(&self, name: &str) -> Option<usize> {
        self.device_names.get(name).copied()
    }

    /// Enumerates every named parameter in the circuit.
    pub fn params(&self) -> Vec<ParamRef> {
        let mut out = Vec::new();
        for (di, dev) in self.devices.iter().enumerate() {
            for li in 0..dev.param_count() {
                out.push(ParamRef {
                    device: di,
                    local: li,
                    path: format!("{}.{}", dev.name(), dev.param_name(li)),
                });
            }
        }
        out
    }

    /// Looks up a parameter by `"device.param"` path.
    pub fn find_param(&self, path: &str) -> Option<ParamRef> {
        let (dev_name, param_name) = path.split_once('.')?;
        let device = self.find_device(dev_name)?;
        let dev = &self.devices[device];
        (0..dev.param_count())
            .find(|&i| dev.param_name(i) == param_name)
            .map(|local| ParamRef {
                device,
                local,
                path: path.to_string(),
            })
    }

    /// Current value of a parameter.
    pub fn param_value(&self, p: &ParamRef) -> f64 {
        self.devices[p.device].param(p.local)
    }

    /// Sets a parameter (used by finite-difference validation and sweeps).
    pub fn set_param_value(&mut self, p: &ParamRef, value: f64) {
        self.devices[p.device].set_param(p.local, value);
    }

    /// Freezes the circuit into a solvable [`System`].
    ///
    /// Assigns branch unknowns, reserves every stamp site, builds the
    /// single shared pattern (union of `G` and `C` structures plus all node
    /// diagonals, which gmin stepping needs), and binds each device's sites
    /// to value indices of that pattern.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::Empty`] for a circuit with no unknowns.
    #[expect(
        clippy::disallowed_methods,
        reason = "sized by `nnz` of the held sub-pattern"
    )]
    pub fn elaborate(&mut self) -> Result<System, CircuitError> {
        let n_nodes = self.node_names.len();
        let mut next_branch = n_nodes;
        for dev in &mut self.devices {
            let count = dev.branch_count();
            if count > 0 {
                dev.assign_branches(next_branch);
                next_branch += count;
            }
        }
        let n = next_branch;
        if n == 0 || self.devices.is_empty() {
            return Err(CircuitError::Empty);
        }
        let mut gt = TripletMatrix::new(n, n);
        let mut ct = TripletMatrix::new(n, n);
        let mut sites = Sites::default();
        let mut entry_count = 0;
        for dev in &self.devices {
            sites.clear();
            dev.sites(&mut sites);
            for &(r, c) in sites.g() {
                if let (Some(r), Some(c)) = (r, c) {
                    gt.add(r, c, 0.0);
                    entry_count += 1;
                }
            }
            for (&(r, c), &reserve) in sites.c().iter().zip(sites.c_reserved()) {
                if let (Some(r), Some(c)) = (r, c) {
                    if reserve {
                        ct.add(r, c, 0.0);
                    }
                    entry_count += 1;
                }
            }
        }
        // Node diagonals for gmin stepping / shunt conductances.
        for i in 0..n_nodes {
            gt.add(i, i, 0.0);
        }
        // Per-tensor sub-patterns: G and C each keep only their own
        // structural non-zeros (the paper's S_NZ definition), with gather
        // maps back into the union for assembly.
        let g_pattern = gt.to_csr().pattern().clone();
        drop(gt);
        let c_pattern = ct.to_csr().pattern().clone();
        drop(ct);
        // Union pattern: stamp G and C over one structure so that
        // J = G + C/h shares it too.
        let mut union = TripletMatrix::new(n, n);
        for sub in [&g_pattern, &c_pattern] {
            for r in 0..n {
                for &c in &sub.col_idx()[sub.row_ptr()[r]..sub.row_ptr()[r + 1]] {
                    union.add(r, c, 0.0);
                }
            }
        }
        let pattern = union.to_csr().pattern().clone();
        drop(union);
        assert!(
            pattern.nnz() < UNRESERVED as usize,
            "pattern too large for u32 value indices"
        );
        let slots_of = |sub: &Pattern| -> Arc<Vec<u32>> {
            let mut slots = Vec::with_capacity(sub.nnz());
            for r in 0..sub.rows() {
                for k in sub.row_ptr()[r]..sub.row_ptr()[r + 1] {
                    let c = sub.col_idx()[k];
                    let slot = pattern.find(r, c).expect("union covers sub-pattern");
                    slots.push(slot as u32);
                }
            }
            Arc::new(slots)
        };
        let g_slots = slots_of(&g_pattern);
        let c_slots = slots_of(&c_pattern);
        let stamp_slots = Arc::new(SlotTable::bind(
            &self.devices,
            &pattern,
            &mut sites,
            entry_count,
        ));
        Ok(System {
            n,
            n_nodes,
            pattern,
            g_pattern,
            c_pattern,
            g_slots,
            c_slots,
            stamp_slots,
            device_eval_count: 0,
            model_effort: self.model_effort,
        })
    }
}

/// Every device's stamp sites bound to value indices of the union pattern
/// (DESIGN.md §3.16): one flat `u32` table sized exactly, with one entry
/// per site off ground packing the site's local index with its value index
/// (see [`slot_entry`]), device after device in local order.
#[derive(Debug)]
struct SlotTable {
    entries: Box<[u32]>,
    /// Entries of each device, in device order.
    counts: Box<[u8]>,
}

impl SlotTable {
    /// Binds the sites of `devices`, `entry_count` of them off ground,
    /// against `pattern`, reusing `sites` as scratch.
    #[expect(
        clippy::disallowed_methods,
        reason = "sized by the device count and by `entry_count`, the sites the same devices just listed"
    )]
    fn bind(devices: &[Device], pattern: &Pattern, sites: &mut Sites, entry_count: usize) -> Self {
        let mut entries = Vec::with_capacity(entry_count);
        let mut counts = Vec::with_capacity(devices.len());
        for dev in devices {
            sites.clear();
            dev.sites(sites);
            assert!(
                sites.g().len() <= C_LOCAL && sites.c().len() <= C_LOCAL,
                "{} lists more than {C_LOCAL} G or C stamp sites",
                dev.name()
            );
            let start = entries.len();
            let g = sites.g().iter().enumerate();
            let c = (C_LOCAL..).zip(sites.c());
            for (local, &(r, c)) in g.chain(c) {
                if let (Some(r), Some(c)) = (r, c) {
                    let slot = pattern.find(r, c).map_or(UNRESERVED, |k| k as u32);
                    entries.push(slot_entry(local, slot));
                }
            }
            counts.push((entries.len() - start) as u8);
        }
        debug_assert_eq!(entries.len(), entry_count);
        Self {
            entries: entries.into_boxed_slice(),
            counts: counts.into_boxed_slice(),
        }
    }

    /// Number of devices bound.
    fn devices(&self) -> usize {
        self.counts.len()
    }

    /// Each device's slot entries, in device order.
    fn per_device(&self) -> impl Iterator<Item = &[u32]> {
        let mut rest = &self.entries[..];
        self.counts.iter().map(move |&n| {
            let (head, tail) = rest.split_at(usize::from(n));
            rest = tail;
            head
        })
    }
}

/// An elaborated system: dimensions, the shared pattern, and evaluation
/// machinery. Cheap to clone (the pattern is shared).
#[derive(Debug, Clone)]
pub struct System {
    /// Total unknowns (nodes + branches).
    pub n: usize,
    /// Node unknowns (the first `n_nodes` entries of `x`).
    pub n_nodes: usize,
    /// The single shared sparsity pattern for `G`, `C`, and `J`.
    pub pattern: Arc<Pattern>,
    /// Sub-pattern of slots `G` actually populates.
    pub g_pattern: Arc<Pattern>,
    /// Sub-pattern of slots `C` actually populates.
    pub c_pattern: Arc<Pattern>,
    /// `g_slots[i]` = union value index of `g_pattern`'s `i`-th non-zero.
    pub g_slots: Arc<Vec<u32>>,
    /// `c_slots[i]` = union value index of `c_pattern`'s `i`-th non-zero.
    pub c_slots: Arc<Vec<u32>>,
    stamp_slots: Arc<SlotTable>,
    device_eval_count: u64,
    model_effort: u32,
}

/// Gathers `union_values` at `slots` (a [`System`]'s `g_slots` or
/// `c_slots`: a sub-tensor's compact form) into `out`, replacing its
/// contents and keeping its allocation.
pub fn gather_into(slots: &[u32], union_values: &[f64], out: &mut Vec<f64>) {
    out.clear();
    out.extend(slots.iter().map(|&s| union_values[s as usize]));
}

/// One full evaluation of the system at `(x, t)`.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// `G = ∂f/∂x`.
    pub g: CsrMatrix,
    /// `C = ∂q/∂x`.
    pub c: CsrMatrix,
    /// Static residual `f(x)`.
    pub f: Vec<f64>,
    /// Charges `q(x)`.
    pub q: Vec<f64>,
    /// Sources `b(t)`.
    pub b: Vec<f64>,
}

impl System {
    /// Evaluates `f`, `q`, `b`, `G`, `C` at `(x, t)`, reusing the buffers of
    /// `out`.
    ///
    /// Each call counts one sweep in [`System::device_eval_count`].
    ///
    /// Every device writes `G` and `C` through the slots bound at
    /// elaboration, in the order of its sites.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.n`, if `circuit` does not have the
    /// devices this system was elaborated from, or if `out` was not created
    /// by [`System::new_evaluation`].
    pub fn eval_into(&mut self, circuit: &Circuit, x: &[f64], t: f64, out: &mut Evaluation) {
        assert_eq!(x.len(), self.n, "state vector length mismatch");
        let devices = circuit.devices();
        let slots = &*self.stamp_slots;
        assert!(
            devices.len() == slots.devices(),
            "circuit has {} devices but this system was elaborated from {}",
            devices.len(),
            slots.devices()
        );
        assert!(
            out.g.nnz() == self.pattern.nnz() && out.c.nnz() == self.pattern.nnz(),
            "evaluation buffers do not match this system's pattern"
        );
        // `model_effort` repeats the evaluation sweep: each round clears
        // and restamps, so results are identical — only the cost scales.
        for _ in 0..self.model_effort.max(1) {
            out.g.clear();
            out.c.clear();
            out.f.iter_mut().for_each(|v| *v = 0.0);
            out.q.iter_mut().for_each(|v| *v = 0.0);
            out.b.iter_mut().for_each(|v| *v = 0.0);
            let scatter = Bound::new(out.g.values_mut(), out.c.values_mut());
            let mut ctx = EvalContext::new(x, t, &mut out.f, &mut out.q, &mut out.b, scatter);
            for (dev, entries) in devices.iter().zip(slots.per_device()) {
                ctx.scatter_mut().bind(entries);
                dev.eval(&mut ctx);
            }
        }
        self.device_eval_count += 1;
    }

    /// Allocates an [`Evaluation`] over the shared pattern.
    #[expect(
        clippy::disallowed_methods,
        reason = "sized by the elaborated system dimension `n`"
    )]
    pub fn new_evaluation(&self) -> Evaluation {
        Evaluation {
            g: CsrMatrix::zeros(self.pattern.clone()),
            c: CsrMatrix::zeros(self.pattern.clone()),
            f: vec![0.0; self.n],
            q: vec![0.0; self.n],
            b: vec![0.0; self.n],
        }
    }

    /// Accumulates `∂f/∂p`, `∂q/∂p`, `∂b/∂p` for one parameter at `(x, t)`
    /// into the provided buffers (cleared first).
    ///
    /// # Panics
    ///
    /// Panics if buffer lengths differ from `self.n`.
    #[expect(
        clippy::too_many_arguments,
        reason = "caller-owned output buffers, reused across parameters with no allocation"
    )]
    pub fn param_deriv_into(
        &self,
        circuit: &Circuit,
        p: &ParamRef,
        x: &[f64],
        t: f64,
        df_dp: &mut [f64],
        dq_dp: &mut [f64],
        db_dp: &mut [f64],
    ) {
        assert_eq!(df_dp.len(), self.n);
        assert_eq!(dq_dp.len(), self.n);
        assert_eq!(db_dp.len(), self.n);
        df_dp.iter_mut().for_each(|v| *v = 0.0);
        dq_dp.iter_mut().for_each(|v| *v = 0.0);
        db_dp.iter_mut().for_each(|v| *v = 0.0);
        let mut ctx = ParamDerivContext {
            x,
            t,
            df_dp,
            dq_dp,
            db_dp,
        };
        circuit.devices()[p.device].stamp_param_deriv(p.local, &mut ctx);
    }

    /// Like [`System::param_deriv_into`] but without clearing the buffers:
    /// the caller guarantees every row in the device's
    /// [`unknowns`](crate::devices::Device::unknowns) is zero on entry, and
    /// only those rows are written. A caller can therefore reuse one dense
    /// scratch triple for every parameter — stamp, read the device's rows,
    /// zero them again — at a per-parameter cost proportional to the device
    /// size instead of the system size.
    ///
    /// # Panics
    ///
    /// Panics if buffer lengths differ from `self.n`.
    #[expect(
        clippy::too_many_arguments,
        reason = "caller-owned output buffers, reused across parameters with no allocation"
    )]
    pub fn param_deriv_sparse_into(
        &self,
        circuit: &Circuit,
        p: &ParamRef,
        x: &[f64],
        t: f64,
        df_dp: &mut [f64],
        dq_dp: &mut [f64],
        db_dp: &mut [f64],
    ) {
        assert_eq!(df_dp.len(), self.n);
        assert_eq!(dq_dp.len(), self.n);
        assert_eq!(db_dp.len(), self.n);
        let mut ctx = ParamDerivContext {
            x,
            t,
            df_dp,
            dq_dp,
            db_dp,
        };
        circuit.devices()[p.device].stamp_param_deriv(p.local, &mut ctx);
    }

    /// Gathers a union-pattern value array into the `G` sub-tensor's
    /// compact form (the stored/compressed representation).
    pub fn gather_g(&self, union_values: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        gather_into(&self.g_slots, union_values, &mut out);
        out
    }

    /// Gathers a union-pattern value array into the `C` sub-tensor's
    /// compact form.
    pub fn gather_c(&self, union_values: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        gather_into(&self.c_slots, union_values, &mut out);
        out
    }

    /// Scatters a compact `G` array back onto a union-pattern value array
    /// (entries outside the sub-pattern are zeroed).
    ///
    /// # Panics
    ///
    /// Panics if lengths do not match the patterns.
    pub fn scatter_g(&self, compact: &[f64], union_values: &mut [f64]) {
        assert_eq!(compact.len(), self.g_slots.len());
        union_values.iter_mut().for_each(|v| *v = 0.0);
        for (&slot, &v) in self.g_slots.iter().zip(compact) {
            union_values[slot as usize] = v;
        }
    }

    /// Scatters a compact `C` array back onto a union-pattern value array.
    ///
    /// # Panics
    ///
    /// Panics if lengths do not match the patterns.
    pub fn scatter_c(&self, compact: &[f64], union_values: &mut [f64]) {
        assert_eq!(compact.len(), self.c_slots.len());
        union_values.iter_mut().for_each(|v| *v = 0.0);
        for (&slot, &v) in self.c_slots.iter().zip(compact) {
            union_values[slot as usize] = v;
        }
    }

    /// Number of full device-evaluation sweeps performed.
    pub fn device_eval_count(&self) -> u64 {
        self.device_eval_count
    }

    /// Sets the model-evaluation effort multiplier (default 1).
    ///
    /// Production device models (BSIM, Gummel-Poon/VBIC) cost one to two
    /// orders of magnitude more than this crate's textbook models; setting
    /// an effort of `k` repeats each evaluation sweep `k` times — results
    /// are bit-identical, only the cost changes. The benchmark harness
    /// uses this as a calibrated surrogate so the Jacobian-computation
    /// fraction of sensitivity time matches what the paper measures on
    /// Xyce (`T_Jac/T_Sens ≈ 46–65 %`); see `DESIGN.md` §5.
    pub fn set_model_effort(&mut self, effort: u32) {
        self.model_effort = effort.max(1);
    }

    /// The current model-evaluation effort multiplier.
    pub fn model_effort(&self) -> u32 {
        self.model_effort
    }

    /// Resets the device-evaluation count.
    pub fn reset_stats(&mut self) {
        self.device_eval_count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{Capacitor, Device, Resistor, VoltageSource};
    use crate::waveform::Waveform;

    fn divider() -> (Circuit, System) {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let vout = ckt.node("out");
        ckt.add(Device::VoltageSource(VoltageSource::new(
            "V1",
            vin.unknown(),
            None,
            Waveform::Dc(10.0),
        )))
        .unwrap();
        ckt.add(Device::Resistor(Resistor::new(
            "R1",
            vin.unknown(),
            vout.unknown(),
            1000.0,
        )))
        .unwrap();
        ckt.add(Device::Resistor(Resistor::new(
            "R2",
            vout.unknown(),
            None,
            1000.0,
        )))
        .unwrap();
        let sys = ckt.elaborate().unwrap();
        (ckt, sys)
    }

    #[test]
    fn node_identity_and_ground() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let a2 = ckt.node("A"); // case-insensitive
        assert_eq!(a, a2);
        assert_eq!(ckt.node("0"), Node::GROUND);
        assert_eq!(ckt.node("GND"), Node::GROUND);
        assert_eq!(ckt.node_count(), 1);
    }

    #[test]
    fn duplicate_device_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add(Device::Resistor(Resistor::new(
            "R1",
            a.unknown(),
            None,
            1.0,
        )))
        .unwrap();
        let err = ckt.add(Device::Resistor(Resistor::new(
            "R1",
            a.unknown(),
            None,
            2.0,
        )));
        assert!(matches!(err, Err(CircuitError::DuplicateDevice(_))));
    }

    #[test]
    fn elaboration_assigns_branches_and_sizes() {
        let (_, sys) = divider();
        // 2 nodes + 1 vsource branch.
        assert_eq!(sys.n, 3);
        assert_eq!(sys.n_nodes, 2);
        // Pattern covers both resistor stamps, the source rows, and node
        // diagonals.
        assert!(sys.pattern.nnz() >= 6);
        assert!(sys.pattern.find(2, 0).is_some()); // branch row, node col
    }

    #[test]
    fn evaluation_at_exact_solution_balances() {
        let (ckt, mut sys) = divider();
        let mut ev = sys.new_evaluation();
        // Known solution: in = 10, out = 5, source current = −5 mA.
        let x = [10.0, 5.0, -5e-3];
        sys.eval_into(&ckt, &x, 0.0, &mut ev);
        for i in 0..sys.n {
            let residual = ev.f[i] + ev.b[i];
            assert!(residual.abs() < 1e-12, "row {i}: {residual}");
        }
        assert!(sys.device_eval_count() == 1);
    }

    #[test]
    fn params_enumerated_with_paths() {
        let (ckt, _) = divider();
        let params = ckt.params();
        let paths: Vec<&str> = params.iter().map(|p| p.path.as_str()).collect();
        assert_eq!(paths, vec!["V1.scale", "R1.r", "R2.r"]);
        let r1 = ckt.find_param("R1.r").unwrap();
        assert_eq!(ckt.param_value(&r1), 1000.0);
        assert!(ckt.find_param("R9.r").is_none());
        assert!(ckt.find_param("R1.zzz").is_none());
    }

    #[test]
    fn set_param_round_trip() {
        let (mut ckt, _) = divider();
        let r1 = ckt.find_param("R1.r").unwrap();
        ckt.set_param_value(&r1, 2200.0);
        assert_eq!(ckt.param_value(&r1), 2200.0);
    }

    #[test]
    fn empty_circuit_rejected() {
        let mut ckt = Circuit::new();
        assert!(matches!(ckt.elaborate(), Err(CircuitError::Empty)));
    }

    #[test]
    fn capacitor_contributes_to_union_pattern() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add(Device::Resistor(Resistor::new(
            "R1",
            a.unknown(),
            None,
            1.0,
        )))
        .unwrap();
        ckt.add(Device::Capacitor(Capacitor::new(
            "C1",
            a.unknown(),
            None,
            1e-9,
        )))
        .unwrap();
        let sys = ckt.elaborate().unwrap();
        // One node: diagonal present for both G and C through the union.
        assert_eq!(sys.n, 1);
        assert!(sys.pattern.find(0, 0).is_some());
        let mut ev = sys.new_evaluation();
        let mut sys = sys;
        sys.eval_into(&ckt, &[2.0], 0.0, &mut ev);
        assert_eq!(ev.g.get(0, 0), Some(1.0));
        assert_eq!(ev.c.get(0, 0), Some(1e-9));
        assert!((ev.q[0] - 2e-9).abs() < 1e-20);
    }
}
