//! Deck text for every workload, made from `--seed`.
//!
//! Each input is built from `masc_datasets::generators` (or the diode
//! ladder the sweep and window benches of `crates/bench` use), every
//! serialized device parameter is jittered by ±2 % from a PRNG seeded with
//! `--seed`, and the result is rendered with `write_netlist`. The program
//! under test sees only that text.

use crate::workloads::Workload;
use masc_circuit::devices::{Capacitor, CurrentSource, Device, Diode, Resistor};
use masc_circuit::netlist::write_netlist;
use masc_circuit::parser::ParsedNetlist;
use masc_circuit::transient::TranOptions;
use masc_circuit::{Circuit, Waveform};
use masc_datasets::generators;

/// Relative half-width of the per-parameter jitter.
const JITTER: f64 = 0.02;

/// splitmix64: a seedable generator with no state beyond one word.
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The sine-driven diode RC ladder of `crates/bench/src/{sweep,window}.rs`.
/// With `probe`, one isolated DC-driven RC stage is added: the section the
/// sweep's variants perturb.
fn diode_ladder(stages: usize, cap: f64, junction_cap: f64, probe: bool) -> Circuit {
    let mut ckt = Circuit::new();
    let nodes: Vec<_> = (0..stages)
        .map(|s| ckt.node(&format!("d{s}")).unknown())
        .collect();
    let mut devices = Vec::new();
    devices.push(Device::CurrentSource(CurrentSource::new(
        "IL",
        None,
        nodes[0],
        Waveform::Sin {
            vo: 1e-3,
            va: 8e-4,
            freq: 200.0,
            td: 0.0,
            theta: 0.0,
        },
    )));
    for s in 0..stages {
        devices.push(Device::Resistor(Resistor::new(
            format!("RL{s}"),
            nodes[s],
            None,
            1000.0,
        )));
        devices.push(Device::Capacitor(Capacitor::new(
            format!("CL{s}"),
            nodes[s],
            None,
            cap,
        )));
        devices.push(Device::Diode(
            Diode::new(format!("DL{s}"), nodes[s], None).with_junction_cap(junction_cap),
        ));
        if s + 1 < stages {
            devices.push(Device::Resistor(Resistor::new(
                format!("RS{s}"),
                nodes[s],
                nodes[s + 1],
                500.0,
            )));
        }
    }
    if probe {
        let p0 = ckt.node("p0").unknown();
        devices.push(Device::CurrentSource(CurrentSource::new(
            "IP",
            None,
            p0,
            Waveform::Dc(1e-3),
        )));
        devices.push(Device::Resistor(Resistor::new("R0", p0, None, 1000.0)));
        devices.push(Device::Capacitor(Capacitor::new("C0", p0, None, 1e-6)));
    }
    for device in devices {
        ckt.add(device).expect("ladder device names are unique");
    }
    ckt
}

/// Builds the deck text of `workload` for `seed`.
pub fn build_deck(workload: Workload, quick: bool, seed: u64) -> String {
    let size = workload.size(quick);
    // The registry's time scale: a 1 µs run driven at four cycles per run,
    // so the Jacobians keep switching.
    let period = 1e-6;
    let drive = period / 4.0;
    let registry_tran = TranOptions::new(period, period / size.steps as f64);
    let ladder_dt = 5e-5;
    let ladder_tran = TranOptions::new(ladder_dt * size.steps as f64, ladder_dt);
    let (circuit, tran) = match workload {
        Workload::MosChain | Workload::TensorCodec | Workload::ServeReplay => (
            generators::mos_inverter_chain(size.elements, drive),
            registry_tran,
        ),
        Workload::RcMesh => (
            generators::rc_mesh(size.elements, size.elements, drive),
            registry_tran,
        ),
        Workload::RamFanout => (generators::ram_array(size.elements, drive), registry_tran),
        Workload::SweepBatch => (diode_ladder(size.elements, 1e-6, 1e-9, true), ladder_tran),
        Workload::WindowPit => (diode_ladder(size.elements, 1e-9, 1e-12, false), ladder_tran),
    };
    let mut parsed = ParsedNetlist {
        circuit,
        tran: Some(tran),
        title: Some(format!("masc-benchmark {} seed={seed}", workload.name())),
    };
    // One stream per (seed, workload), so two workloads never share draws.
    let mut rng = SplitMix(seed ^ (workload as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
    for p in parsed.circuit.params() {
        // A source's `scale` is not part of its card; jittering it would
        // be lost in the text.
        if p.path.ends_with(".scale") {
            continue;
        }
        let factor = 1.0 + JITTER * (2.0 * rng.unit() - 1.0);
        let value = parsed.circuit.param_value(&p);
        parsed.circuit.set_param_value(&p, value * factor);
    }
    write_netlist(&parsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use masc_circuit::parser::parse_netlist;

    #[test]
    fn same_seed_same_text_other_seed_other_text_both_parse() {
        for w in Workload::ALL {
            let a = build_deck(w, true, 11);
            let b = build_deck(w, true, 11);
            let c = build_deck(w, true, 12);
            assert_eq!(a, b, "{}: same seed must give identical text", w.name());
            assert_ne!(a, c, "{}: another seed must change the text", w.name());
            for text in [&a, &c] {
                let parsed = parse_netlist(text).expect("generated deck parses");
                assert!(parsed.tran.is_some());
                assert!(!parsed.circuit.devices().is_empty());
            }
        }
    }

    #[test]
    fn every_serialized_parameter_moves_by_at_most_two_percent() {
        let side = Workload::RcMesh.size(true).elements;
        let nominal = generators::rc_mesh(side, side, 0.25e-6);
        let parsed = parse_netlist(&build_deck(Workload::RcMesh, true, 3)).unwrap();
        let mut moved = 0;
        for p in nominal.params() {
            let q = parsed.circuit.find_param(&p.path).expect("same devices");
            let ratio = parsed.circuit.param_value(&q) / nominal.param_value(&p);
            if p.path.ends_with(".scale") {
                assert_eq!(ratio, 1.0, "{} is not part of the text", p.path);
            } else {
                assert!((0.98..=1.02).contains(&ratio), "{}: {ratio}", p.path);
                moved += usize::from(ratio != 1.0);
            }
        }
        assert!(moved > nominal.params().len() / 2);
    }
}
