//! The named workloads and metrics — the vocabulary later issues refer to.
//!
//! `BENCHMARK.json` carries the same names; `check-names` fails when the
//! two drift apart.

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MosChain,
    RcMesh,
    RamFanout,
    TensorCodec,
    SweepBatch,
    WindowPit,
    ServeReplay,
}

/// Problem size of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Family-specific size knob: stages, mesh side, cells.
    pub elements: usize,
    /// Nominal transient steps (the `.tran` grid).
    pub steps: usize,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::MosChain,
        Workload::RcMesh,
        Workload::RamFanout,
        Workload::TensorCodec,
        Workload::SweepBatch,
        Workload::WindowPit,
        Workload::ServeReplay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MosChain => "mos_chain",
            Workload::RcMesh => "rc_mesh",
            Workload::RamFanout => "ram_fanout",
            Workload::TensorCodec => "tensor_codec",
            Workload::SweepBatch => "sweep_batch",
            Workload::WindowPit => "window_pit",
            Workload::ServeReplay => "serve_replay",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::MosChain => {
                "nonlinear MOS chain through run_adjoint: device evaluation and Newton dominate, \
                 so a circuit-layer win shows here and a sparse-layer win barely does"
            }
            Workload::RcMesh => {
                "linear RC mesh with 2-D fill: LU refactor and solves dominate and device \
                 evaluation is small, the mirror image of mos_chain"
            }
            Workload::RamFanout => {
                "every parameter of a RAM array (#Param > #Elem): reverse-pass set-up, phi and \
                 accumulation dominate and peak RSS is set by the adjoint pools"
            }
            Workload::TensorCodec => {
                "captured G and C tensors pushed through TensorCompressor and decoded backward: \
                 the compress layer does all of the work, the solver layers none"
            }
            Workload::SweepBatch => {
                "run_sweep over 4 parameter variants on real worker threads: measures what \
                 BENCH_sweep.json only models"
            }
            Workload::WindowPit => {
                "run_windowed with 4 windows on real lanes: where parallel-in-time does or does \
                 not beat the monolithic run"
            }
            Workload::ServeReplay => {
                "Server::submit cache hits (decode and reverse replay only) round-robin over 8 \
                 selections after one cold submit that is counted in setup_s"
            }
        }
    }

    /// Frozen problem sizes. Full sizes were scaled once so that one job
    /// takes about 1 to 2 s on the 2-core reference box (see README.md);
    /// quick sizes are about an eighth of that work.
    pub fn size(self, quick: bool) -> Size {
        let (elements, steps) = match (self, quick) {
            (Workload::MosChain | Workload::TensorCodec, false) => (1500, 300),
            (Workload::MosChain | Workload::TensorCodec, true) => (300, 120),
            (Workload::RcMesh, false) => (60, 64),
            (Workload::RcMesh, true) => (30, 32),
            (Workload::RamFanout, false) => (800, 100),
            (Workload::RamFanout, true) => (280, 50),
            (Workload::SweepBatch, false) => (300, 1500),
            (Workload::SweepBatch, true) => (100, 600),
            (Workload::WindowPit, false) => (128, 16000),
            (Workload::WindowPit, true) => (64, 4000),
            (Workload::ServeReplay, false) => (600, 240),
            (Workload::ServeReplay, true) => (150, 120),
        };
        Size { elements, steps }
    }

    /// Whether every job runs in a fresh child process. The deck →
    /// gradient drivers do: that is what a user pays (a first run costs
    /// several times a warm repeat, because the allocator keeps the pages)
    /// and it makes `VmHWM` clean. The codec loop and the server are
    /// resident by nature.
    pub fn process_per_job(self) -> bool {
        !matches!(self, Workload::TensorCodec | Workload::ServeReplay)
    }
}

/// Objectives per `run_adjoint` job.
pub const N_OBJECTIVES: usize = 8;
/// Strided parameters per job (`ram_fanout` takes every parameter).
pub const N_PARAMS: usize = 64;
/// Variants in one sweep batch.
pub const SWEEP_VARIANTS: usize = 4;
/// Windows in one windowed run.
pub const WINDOWS: usize = 4;
/// Objective/parameter selections the serve hits cycle through.
pub const SERVE_SELECTIONS: usize = 8;
/// Encode + decode passes per `tensor_codec` job.
pub const CODEC_PASSES: usize = 10;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Definition of one metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics, which have no bound.
    pub bound: Option<f64>,
    /// How the samples of one run become the value the run reports.
    pub estimate: Estimate,
}

/// How the samples of one run become the value the run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Estimate {
    Median,
    /// The smallest sample. For `setup_s`: building a deck takes
    /// milliseconds of allocation-heavy work, and on the reference box
    /// such work flips between two speeds 1.8× apart every few seconds,
    /// whatever core it runs on. A median over a run lands on either; the
    /// fastest of ten repetitions spread over the run is the cost of the
    /// work itself.
    Fastest,
}

impl MetricDef {
    /// The value one run reports for this metric.
    pub fn estimate(&self, summary: &crate::stats::Summary) -> f64 {
        match self.estimate {
            Estimate::Median => summary.median,
            Estimate::Fastest => summary.min,
        }
    }
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        estimate: Estimate::Median,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        estimate: Estimate::Median,
    }
}

/// The end-to-end metrics, reported for every workload with tracing off.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("solve_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.20),
    e2e("compress_ratio", "ratio", Better::Higher, 0.05),
    MetricDef {
        estimate: Estimate::Fastest,
        ..e2e("setup_s", "s", Better::Lower, 0.25)
    },
];

use Better::{Higher, Lower};

/// The per-layer metrics of the traced run. A metric whose layer a
/// workload does not touch reads 0 there (README.md has the matrix).
pub const PER_LAYER: [MetricDef; 53] = [
    layer("circuit.parse_ms", "ms", Lower),
    layer("circuit.elaborate_ms", "ms", Lower),
    layer("circuit.dc_ms", "ms", Lower),
    layer("circuit.eval_us", "us", Lower),
    layer("circuit.param_deriv_ns", "ns", Lower),
    layer("circuit.forward_self_s", "s", Lower),
    layer("circuit.steps", "count", Lower),
    layer("circuit.newton_iters", "count", Lower),
    layer("sparse.analyze_ms", "ms", Lower),
    layer("sparse.refactor_us", "us", Lower),
    layer("sparse.solve_us", "us", Lower),
    layer("sparse.solve_t_us", "us", Lower),
    layer("sparse.lu_nnz", "count", Lower),
    layer("sparse.fill_ratio", "ratio", Lower),
    layer("compress.encode_mbps", "MB/s", Higher),
    layer("compress.decode_mbps", "MB/s", Higher),
    layer("compress.ratio", "ratio", Higher),
    layer("compress.bytes_per_step", "bytes", Lower),
    layer("adjoint.forward_s", "s", Lower),
    layer("adjoint.sink_s", "s", Lower),
    layer("adjoint.seal_s", "s", Lower),
    layer("adjoint.cursor_new_s", "s", Lower),
    layer("adjoint.fetch_s", "s", Lower),
    layer("adjoint.offer_s", "s", Lower),
    layer("adjoint.teardown_s", "s", Lower),
    layer("adjoint.reverse_s", "s", Lower),
    layer("adjoint.stored_bytes", "bytes", Lower),
    layer("adjoint.peak_store_bytes", "bytes", Lower),
    layer("adjoint.raw_store_s", "s", Lower),
    layer("adjoint.xyce_like_s", "s", Lower),
    layer("sweep.batch_s", "s", Lower),
    layer("sweep.independent_s", "s", Lower),
    layer("sweep.forward_s", "s", Lower),
    layer("sweep.adjoint_s", "s", Lower),
    layer("sweep.serial_s", "s", Lower),
    layer("sweep.bytes_per_instance", "bytes", Lower),
    layer("sweep.workers", "count", Higher),
    layer("window.mono_s", "s", Lower),
    layer("window.coarse_s", "s", Lower),
    layer("window.serial_s", "s", Lower),
    layer("window.forward_iters", "count", Lower),
    layer("window.adjoint_iters", "count", Lower),
    layer("window.fine_runs", "count", Lower),
    layer("window.bytes", "bytes", Lower),
    layer("window.lanes", "count", Higher),
    layer("window.max_rel_err", "ratio", Lower),
    layer("serve.cold_s", "s", Lower),
    layer("serve.hit_p50_ms", "ms", Lower),
    layer("serve.hit_p90_ms", "ms", Lower),
    layer("serve.entry_bytes", "bytes", Lower),
    layer("serve.cache_hits", "count", Higher),
    layer("serve.cache_misses", "count", Lower),
    layer("trace.overhead_frac", "frac", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_well_formed_and_round_trip() {
        let mut seen = std::collections::BTreeSet::new();
        let names = Workload::ALL
            .iter()
            .map(|w| w.name())
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64);
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert_eq!(Workload::from_name("nope"), None);
        assert!(END_TO_END
            .iter()
            .all(|m| matches!(m.bound, Some(b) if b > 0.0 && b <= 0.25)));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
    }
}
