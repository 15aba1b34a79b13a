//! The two-lane reverse replay of `adjoint_sensitivities` (the caller's
//! thread decodes step `n − 1` while a scoped lane offers step `n` to the
//! cursor) against a serial fetch–offer loop over one cursor: the same
//! gradient bits, the same first error, no hang when the lane fails, and
//! the lane used only from the third offered step on.

use masc_adjoint::store::{
    BackwardJacobians, BackwardReader, ForwardRecord, JacobianStore, RawStore, RunMeta,
    StepMatrices, StoreConfig, StoreError, TensorLayout,
};
use masc_adjoint::{
    adjoint_sensitivities, AdjointCursor, AdjointError, CompressedStore, Objective,
    SensitivityResult,
};
use masc_circuit::parser::parse_netlist;
use masc_circuit::transient::{transient, transient_into, JacobianSink, NullSink};
use masc_circuit::{Circuit, ParamRef, System};
use masc_compress::MascConfig;
use masc_sparse::LuWorkspace;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

/// A diode clipper with a junction capacitance and a MOSFET load: both
/// `G` and `C` change from step to step.
const DECK: &str = "V1 in 0 SIN(0 2 100k)\n\
     R1 in out 1k\n\
     D1 out 0 IS=1e-14 CJ0=10p\n\
     VDD vdd 0 DC 3.3\n\
     RL vdd d 10k\n\
     M1 d out 0 NMOS KP=2e-4 VT0=0.7 CGS=10f CGD=5f\n\
     .tran 50n 5u\n\
     .end";

/// What a faulty reader does at one step instead of returning its
/// matrices.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    /// The fetch fails with `TensorTruncated`.
    Fetch(usize),
    /// The matrices are all zeros, so the cursor's factorization fails.
    Singular(usize),
    /// The matrices are empty, so the cursor's scatter panics.
    Panic(usize),
}

/// A raw store whose reader injects `faults`.
#[derive(Debug)]
struct FaultyStore {
    inner: RawStore,
    faults: Vec<Fault>,
}

#[derive(Debug)]
struct FaultyReader {
    inner: Box<dyn BackwardReader>,
    faults: Vec<Fault>,
}

impl JacobianStore for FaultyStore {
    fn put(&mut self, step: usize, g: &[f64], c: &[f64]) -> Result<(), StoreError> {
        self.inner.put(step, g, c)
    }

    fn resident_bytes(&self) -> usize {
        self.inner.resident_bytes()
    }

    fn finish(self: Box<Self>) -> Result<(Box<dyn BackwardReader>, u64), StoreError> {
        let (inner, bytes) = Box::new(self.inner).finish()?;
        let reader = FaultyReader {
            inner,
            faults: self.faults,
        };
        Ok((Box::new(reader), bytes))
    }
}

impl BackwardReader for FaultyReader {
    fn fetch(&mut self, step: usize) -> Result<StepMatrices, StoreError> {
        let matrices = self.inner.fetch(step)?;
        let StepMatrices::Stored { g, c } = matrices else {
            return Ok(matrices);
        };
        if self.faults.contains(&Fault::Fetch(step)) {
            return Err(StoreError::TensorTruncated { step });
        }
        if self.faults.contains(&Fault::Singular(step)) {
            let zeros = |v: Vec<f64>| v.iter().map(|_| 0.0).collect();
            return Ok(StepMatrices::Stored {
                g: zeros(g),
                c: zeros(c),
            });
        }
        if self.faults.contains(&Fault::Panic(step)) {
            return Ok(StepMatrices::Stored {
                g: Vec::new(),
                c: Vec::new(),
            });
        }
        Ok(StepMatrices::Stored { g, c })
    }
}

/// The elaborated deck with its objectives and every parameter.
struct Job {
    circuit: Circuit,
    system: System,
    objectives: Vec<Objective>,
    params: Vec<ParamRef>,
}

fn job() -> Job {
    let parsed = parse_netlist(DECK).expect("valid netlist");
    let mut circuit = parsed.circuit;
    let system = circuit.elaborate().expect("elaborates");
    let node = |name: &str| {
        circuit
            .find_node(name)
            .and_then(|n| n.unknown())
            .expect("node exists")
    };
    let objectives = vec![
        Objective::FinalValue { unknown: node("d") },
        Objective::Integral {
            unknown: node("out"),
        },
        Objective::IntegralSquared { unknown: node("d") },
    ];
    let params = circuit.params();
    Job {
        circuit,
        system,
        objectives,
        params,
    }
}

/// A record of the deck's first `points` time points (DC included) in a
/// faulty raw store: the transient's states, with `G` and `C` evaluated
/// at each of them as the forward pass stores them.
fn faulty_record(job: &mut Job, points: usize, faults: &[Fault]) -> (RunMeta, BackwardJacobians) {
    let tran = parse_netlist(DECK).expect("valid").tran.expect(".tran");
    let run = transient(&job.circuit, &mut job.system, &tran, &mut NullSink).expect("transient");
    assert!(run.states.len() >= points, "the deck has {points} points");
    let store = FaultyStore {
        inner: RawStore::new(),
        faults: faults.to_vec(),
    };
    let mut record = ForwardRecord::with_store(TensorLayout::of(&job.system), Box::new(store));
    let mut ev = job.system.new_evaluation();
    for s in 0..points {
        let (t, x) = (run.times[s], &run.states[s]);
        job.system.eval_into(&job.circuit, x, t, &mut ev);
        record
            .on_step(s, t, run.steps[s], x, &ev.g, &ev.c)
            .expect("raw store accepts");
    }
    record.into_parts().expect("seals")
}

/// A serial fetch–offer loop over one cursor, on this thread: the oracle
/// for bits and for errors.
fn serial(
    job: &mut Job,
    meta: &RunMeta,
    reader: &mut BackwardJacobians,
) -> Result<SensitivityResult, AdjointError> {
    let mut cursor = AdjointCursor::new(
        &job.circuit,
        &job.system,
        meta,
        &job.objectives,
        &job.params,
    );
    while let Some((step, matrices)) = reader.next_back()? {
        cursor.offer(&mut job.system, step, matrices)?;
    }
    Ok(cursor.finish())
}

fn two_lane(
    job: &mut Job,
    meta: &RunMeta,
    reader: &mut BackwardJacobians,
) -> Result<SensitivityResult, AdjointError> {
    adjoint_sensitivities(
        &job.circuit,
        &mut job.system,
        meta,
        reader,
        &job.objectives,
        &job.params,
    )
}

/// Both loops over identical records of `points` points with `faults`.
fn both(
    points: usize,
    faults: &[Fault],
) -> (
    Result<SensitivityResult, AdjointError>,
    Result<SensitivityResult, AdjointError>,
) {
    let mut job = job();
    let (meta, mut reader) = faulty_record(&mut job, points, faults);
    let lanes = two_lane(&mut job, &meta, &mut reader);
    let (meta, mut reader) = faulty_record(&mut job, points, faults);
    (lanes, serial(&mut job, &meta, &mut reader))
}

fn bits(result: &SensitivityResult) -> Vec<Vec<u64>> {
    result
        .values
        .iter()
        .map(|row| row.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// The outcome as a comparable string: the gradient bits or the error.
fn outcome(result: &Result<SensitivityResult, AdjointError>) -> String {
    match result {
        Ok(r) => format!("ok {:?} steps {}", bits(r), r.stats.steps),
        Err(e) => format!("err {e:?}"),
    }
}

/// Runs `f` on a detached thread and fails if it has not returned within
/// 60 s, so a replay that deadlocks fails the test instead of hanging it.
fn within_deadline<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    #[expect(
        clippy::disallowed_methods,
        reason = "a watchdog cannot join the thread it gives up on"
    )]
    let _detached = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(60))
        .expect("the replay returned within 60 s")
}

#[test]
fn gradients_are_bitwise_equal_to_the_serial_loop_on_every_store() {
    within_deadline(gradients_match_on_every_store);
}

fn gradients_match_on_every_store() {
    let tran = parse_netlist(DECK).expect("valid").tran.expect(".tran");
    let masc = MascConfig::default();
    for config in [
        StoreConfig::RawMemory,
        StoreConfig::Compressed(masc.clone()),
        StoreConfig::Recompute,
    ] {
        let mut results = Vec::new();
        for split in [true, false] {
            let mut job = job();
            let mut record =
                ForwardRecord::new(TensorLayout::of(&job.system), &config).expect("record");
            transient_into(
                &job.circuit,
                &mut job.system,
                &tran,
                &mut record,
                &mut LuWorkspace::new(),
            )
            .expect("transient");
            let (meta, mut reader) = record.into_parts().expect("seals");
            assert!(
                meta.times.len() > 50,
                "a long record: the lane does most steps"
            );
            let result = if split {
                two_lane(&mut job, &meta, &mut reader)
            } else {
                serial(&mut job, &meta, &mut reader)
            };
            let result = result.expect("the pass succeeds");
            assert_eq!(result.stats.steps, meta.times.len());
            results.push(bits(&result));
        }
        assert_eq!(results[0], results[1], "{config:?}: two lanes ≡ serial");
    }

    // A sealed pair replayed twice through `from_tensors`, as serve's
    // cache hits replay it.
    let mut job = job();
    let layout = TensorLayout::of(&job.system);
    let mut capture =
        CompressedStore::new(layout.g_pattern.clone(), layout.c_pattern.clone(), masc);
    let slot = capture.capture();
    let mut record = ForwardRecord::with_store(layout, Box::new(capture));
    transient_into(
        &job.circuit,
        &mut job.system,
        &tran,
        &mut record,
        &mut LuWorkspace::new(),
    )
    .expect("transient");
    let (meta, _) = record.into_parts().expect("seals");
    let (g, c) = slot.lock().expect("slot").take().expect("captured pair");
    let lanes = two_lane(
        &mut job,
        &meta,
        &mut BackwardJacobians::from_tensors(g.clone(), c.clone()),
    )
    .expect("replays");
    let oracle =
        serial(&mut job, &meta, &mut BackwardJacobians::from_tensors(g, c)).expect("replays");
    assert_eq!(
        bits(&lanes),
        bits(&oracle),
        "sealed pair: two lanes ≡ serial"
    );
}

#[test]
fn the_first_failure_in_serial_order_wins() {
    // Steps 7 and 6 are offered inline, the rest on the lane.
    const POINTS: usize = 8;
    let outcomes = within_deadline(|| {
        let mut outcomes = Vec::new();
        for k in 0..POINTS {
            for j in 0..POINTS {
                let faults = [Fault::Fetch(k), Fault::Singular(j)];
                let (lanes, serial) = both(POINTS, &faults);
                outcomes.push((k, j, outcome(&lanes), outcome(&serial), lanes));
            }
        }
        outcomes
    });
    for (k, j, lanes, serial, result) in outcomes {
        assert_eq!(lanes, serial, "fetch fault at {k}, cursor fault at {j}");
        // Reverse order visits newer steps first; a fetch fault at the
        // same step as a cursor fault comes first, since the step is
        // fetched before it is offered.
        match result {
            Err(AdjointError::Lu { step, .. }) if j > k => assert_eq!(step, j),
            Err(AdjointError::Store(StoreError::TensorTruncated { step })) if j <= k => {
                assert_eq!(step, k);
            }
            other => panic!("fetch {k}, cursor {j}: unexpected {other:?}"),
        }
    }
}

#[test]
fn a_cursor_failure_returns_promptly_wherever_it_happens() {
    const POINTS: usize = 40;
    for j in [POINTS - 1, POINTS - 2, POINTS - 3, POINTS / 2, 0] {
        let (lanes, serial) = within_deadline(move || {
            let (lanes, serial) = both(POINTS, &[Fault::Singular(j)]);
            (outcome(&lanes), outcome(&serial))
        });
        assert_eq!(lanes, serial, "cursor fault at {j}");
        assert!(
            lanes.starts_with(&format!("err Lu {{ step: {j},")),
            "cursor fault at {j}: {lanes}"
        );
    }
    // A fetch failure alone, newest step included.
    for k in [POINTS - 1, POINTS - 3, 0] {
        let (lanes, serial) = within_deadline(move || {
            let (lanes, serial) = both(POINTS, &[Fault::Fetch(k)]);
            (outcome(&lanes), outcome(&serial))
        });
        assert_eq!(lanes, serial, "fetch fault at {k}");
        assert!(lanes.contains("TensorTruncated"), "{lanes}");
    }
}

/// Threads on which a scatter assertion in the cursor panicked.
static PANICKED_ON: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());

#[test]
fn the_lane_starts_at_the_third_point_and_its_panic_resumes_on_the_caller() {
    within_deadline(lane_starts_at_the_third_point);
}

fn lane_starts_at_the_third_point() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info
            .location()
            .is_some_and(|l| l.file().ends_with("circuit.rs"))
        {
            PANICKED_ON
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(std::thread::current().id());
        } else {
            previous(info);
        }
    }));

    for points in 1..=4 {
        // Without faults, both loops agree bit for bit.
        let (lanes, serial) = both(points, &[]);
        assert_eq!(outcome(&lanes), outcome(&serial), "{points} points");
        assert_eq!(lanes.expect("succeeds").stats.steps, points);

        // The oldest step is offered last: inline for one and two points,
        // on the lane from three on. Its panic reaches this thread either
        // way, carrying the original payload.
        let mut job = job();
        let (meta, mut reader) = faulty_record(&mut job, points, &[Fault::Panic(0)]);
        PANICKED_ON.lock().expect("unpoisoned").clear();
        let caught = catch_unwind(AssertUnwindSafe(|| two_lane(&mut job, &meta, &mut reader)))
            .expect_err("the cursor's panic reaches the caller");
        let message = caught
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert!(message.contains("assertion"), "payload kept: {message:?}");
        let on = PANICKED_ON.lock().expect("unpoisoned").clone();
        assert_eq!(on.len(), 1, "{points} points: one panic");
        let inline = on[0] == std::thread::current().id();
        assert_eq!(inline, points <= 2, "{points} points: inline only below 3");
    }
    let _ = std::panic::take_hook();
}
