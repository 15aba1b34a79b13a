//! The child side: one process that reads a deck on stdin, runs the jobs
//! it is asked for and prints one JSON line for the parent.

use crate::jobs::{self, Budget, Facts, JobOut, Matrix, Samples};
use crate::json::{self, Value};
use crate::layers;
use crate::spans::{spans_from_json, spans_to_json, Tracer};
use crate::workloads::Workload;
use masc_adjoint::StoreConfig;
use masc_compress::MascConfig;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Read;

/// What the parent asks a child to do with the deck.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The workload's job(s), tracing off.
    Timed,
    /// The job(s) with harness spans recorded, then the layer replay.
    Traced,
    /// The independent computation the job's gradients are checked against.
    Reference,
    /// The Xyce-like recompute baseline (the base of the Fig. 7 ratio).
    Xyce,
}

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::Timed => "timed",
            Mode::Traced => "traced",
            Mode::Reference => "reference",
            Mode::Xyce => "xyce",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        [Mode::Timed, Mode::Traced, Mode::Reference, Mode::Xyce]
            .into_iter()
            .find(|m| m.name() == name)
    }
}

/// Everything one child reports.
pub use crate::jobs::Report as ChildOut;

/// `VmHWM` of this process in MB, read from `/proc/self/status`.
fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs the child: reads the deck from stdin and does what `mode` asks.
pub fn run(
    workload: Workload,
    mode: Mode,
    quick: bool,
    budget: Budget,
) -> Result<ChildOut, String> {
    let mut deck = String::new();
    std::io::stdin()
        .read_to_string(&mut deck)
        .map_err(|e| format!("reading the deck: {e}"))?;
    let tracer = RefCell::new(Tracer::new(0));
    let traced = mode == Mode::Traced;
    let mut samples = Samples::default();
    let mut out = match (workload, mode) {
        (_, Mode::Xyce) => {
            let job = JobOut {
                solve_s: jobs::xyce_like_job(workload, &deck)?,
                ..JobOut::default()
            };
            ChildOut::one(job, Facts::default())
        }
        (Workload::SweepBatch, Mode::Reference) => {
            ChildOut::one(jobs::sweep_reference(&deck)?, Facts::default())
        }
        (Workload::WindowPit, Mode::Reference) => {
            ChildOut::one(jobs::window_reference(&deck)?, Facts::default())
        }
        (Workload::ServeReplay, Mode::Reference) => {
            ChildOut::one(jobs::serve_reference(&deck)?, Facts::default())
        }
        (Workload::TensorCodec, Mode::Reference) => {
            return Err("tensor_codec carries its own reference".to_string());
        }
        (_, Mode::Reference) => {
            let (job, facts) = jobs::adjoint_job(workload, &deck, &StoreConfig::RawMemory)?;
            ChildOut::one(job, facts)
        }
        (Workload::SweepBatch, _) => {
            let (job, facts, s) = jobs::sweep_job(&deck, traced, &tracer)?;
            samples = s;
            ChildOut::one(job, facts)
        }
        (Workload::WindowPit, _) => {
            let (job, facts, s) = jobs::window_job(&deck, traced, &tracer)?;
            samples = s;
            ChildOut::one(job, facts)
        }
        (Workload::ServeReplay, _) => jobs::serve_resident(&deck, budget, &tracer)?,
        (Workload::TensorCodec, _) => jobs::codec_resident(&deck, budget, quick, &tracer)?,
        (_, Mode::Traced) => {
            let (job, facts, s) = jobs::adjoint_job_traced(workload, &deck, &tracer)?;
            samples = s;
            ChildOut::one(job, facts)
        }
        (_, Mode::Timed) => {
            let store = StoreConfig::Compressed(MascConfig::default());
            let (job, facts) = jobs::adjoint_job(workload, &deck, &store)?;
            ChildOut::one(job, facts)
        }
    };
    out.threads = jobs::job_threads();
    // Peak RSS belongs to the jobs; the replay below would inflate it.
    out.rss_mb = vm_hwm_mb();
    if traced && !samples.spread.is_empty() {
        let params = jobs::job_params(workload, &deck)?;
        layers::replay(&deck, &samples, &params, &mut out.facts)?;
    }
    out.spans = tracer.into_inner().into_spans();
    Ok(out)
}

fn hex_list(hashes: &[u64]) -> Value {
    Value::Arr(
        hashes
            .iter()
            .map(|h| Value::str(format!("{h:016x}")))
            .collect(),
    )
}

fn unhex_list(v: Option<&Value>) -> Vec<u64> {
    v.and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|h| u64::from_str_radix(h.as_str()?, 16).ok())
        .collect()
}

fn map_from_json(v: Option<&Value>) -> BTreeMap<String, f64> {
    v.and_then(Value::as_obj)
        .map(|o| {
            o.iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect()
        })
        .unwrap_or_default()
}

// Gradients travel as bit patterns (hex), so that the parent compares
// exactly what the job returned.
fn matrix_to_json(m: &Matrix) -> Value {
    Value::Arr(
        m.iter()
            .map(|row| {
                Value::Arr(
                    row.iter()
                        .map(|v| Value::str(format!("{:016x}", v.to_bits())))
                        .collect(),
                )
            })
            .collect(),
    )
}

fn matrix_from_json(v: &Value) -> Matrix {
    v.as_arr()
        .unwrap_or_default()
        .iter()
        .map(|row| {
            unhex_list(Some(row))
                .into_iter()
                .map(f64::from_bits)
                .collect()
        })
        .collect()
}

impl ChildOut {
    pub fn to_json(&self) -> Value {
        let jobs = self
            .jobs
            .iter()
            .map(|j| {
                Value::obj([
                    ("solve_s", Value::Num(j.solve_s)),
                    ("hashes", hex_list(&j.hashes)),
                    (
                        "grads",
                        Value::Arr(j.grads.iter().map(matrix_to_json).collect()),
                    ),
                ])
            })
            .collect();
        Value::obj([
            ("setup_s", Value::nums(&self.setup_s)),
            ("jobs", Value::Arr(jobs)),
            ("setup_hashes", hex_list(&self.setup_hashes)),
            ("expected", hex_list(&self.expected)),
            ("rss_mb", Value::Num(self.rss_mb)),
            ("threads", Value::Num(self.threads as f64)),
            ("raw_bytes", Value::Num(self.facts.raw_bytes)),
            ("stored_bytes", Value::Num(self.facts.stored_bytes)),
            ("counts", Value::num_map(&self.facts.counts)),
            ("layers", Value::num_map(&self.facts.layers)),
            ("spans", spans_to_json(&self.spans)),
        ])
    }

    /// Reads a child's report back.
    ///
    /// # Errors
    ///
    /// Returns a message when the text is not a child report.
    pub fn from_json_text(text: &str) -> Result<Self, String> {
        let v = json::parse(text)?;
        let num = |k: &str| {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or(format!("child report lacks {k}"))
        };
        let jobs = v
            .get("jobs")
            .and_then(Value::as_arr)
            .ok_or("child report lacks jobs")?
            .iter()
            .map(|j| {
                Ok(JobOut {
                    solve_s: j
                        .get("solve_s")
                        .and_then(Value::as_f64)
                        .ok_or("job lacks solve_s")?,
                    hashes: unhex_list(j.get("hashes")),
                    grads: j
                        .get("grads")
                        .and_then(Value::as_arr)
                        .unwrap_or_default()
                        .iter()
                        .map(matrix_from_json)
                        .collect(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self {
            setup_s: v.num_list("setup_s"),
            jobs,
            setup_hashes: unhex_list(v.get("setup_hashes")),
            expected: unhex_list(v.get("expected")),
            rss_mb: num("rss_mb")?,
            threads: num("threads")? as usize,
            facts: Facts {
                raw_bytes: num("raw_bytes")?,
                stored_bytes: num("stored_bytes")?,
                counts: map_from_json(v.get("counts")),
                layers: map_from_json(v.get("layers")),
            },
            spans: v.get("spans").map(spans_from_json).unwrap_or_default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Span;

    #[test]
    fn report_round_trips_bit_for_bit() {
        let mut facts = Facts {
            raw_bytes: 4.8e7,
            stored_bytes: 1_234_567.0,
            ..Facts::default()
        };
        facts.counts.insert("circuit.steps".into(), 517.0);
        facts.layer("sweep.forward_s", 1.0 / 7.0);
        let grad = vec![vec![1.0e-300, -0.0, f64::MIN_POSITIVE], vec![3.5, 2.0, 1.0]];
        let out = ChildOut {
            setup_s: vec![0.5, 0.25],
            jobs: vec![JobOut {
                solve_s: 1.987_654_321,
                hashes: vec![u64::MAX, 1],
                grads: vec![grad.clone()],
            }],
            setup_hashes: vec![42],
            expected: vec![],
            rss_mb: 887.25,
            threads: 2,
            facts,
            spans: vec![Span {
                name: "job".into(),
                start_ns: 5,
                end_ns: 9,
                parent: None,
                job: 0,
            }],
        };
        let back = ChildOut::from_json_text(&out.to_json().render()).expect("parses");
        assert_eq!(back.jobs, out.jobs);
        assert_eq!(back.jobs[0].grads[0][0][1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(back.setup_s, out.setup_s);
        assert_eq!(back.setup_hashes, vec![42]);
        assert_eq!(back.facts.counts, out.facts.counts);
        assert_eq!(back.facts.layers, out.facts.layers);
        assert_eq!((back.rss_mb, back.threads), (887.25, 2));
        assert_eq!(back.spans, out.spans);
        assert!(ChildOut::from_json_text("{}").is_err());
    }

    #[test]
    fn reads_peak_rss() {
        assert!(vm_hwm_mb() > 0.0, "VmHWM is readable on Linux");
    }
}
