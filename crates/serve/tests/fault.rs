//! Fault-injection suite: worker death mid-job, corrupt disk cache
//! entries, concurrent identical jobs, and shutdown with queued work.
//! The queue and single-flight tests run the server's real coordination
//! code under real threads, repeated to vary the interleavings.

use masc_serve::engine::{resolve, run_cold, run_hit};
use masc_serve::server::run_lines;
use masc_serve::{JobRequest, ObjectiveSpec, ParamSelector, ServeConfig, ServeError, Server};
use std::path::PathBuf;
use std::sync::Barrier;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("masc-serve-fault-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn ladder_deck(sections: usize) -> String {
    let mut deck = String::from("* fault test ladder\nI1 n0 0 DC 1e-3\nR0 n0 0 2000\n");
    for s in 0..sections {
        deck.push_str(&format!("RL{s} n{s} n{} {}\n", s + 1, 1000 + 10 * s));
        deck.push_str(&format!("CL{s} n{} 0 1e-9\n", s + 1));
        deck.push_str(&format!("RG{s} n{} 0 1e6\n", s + 1));
    }
    deck.push_str(".tran 0.2u 20u\n.end\n");
    deck
}

fn ladder_request(id: &str, sections: usize) -> JobRequest {
    JobRequest {
        id: id.to_string(),
        objectives: vec![ObjectiveSpec::FinalValue {
            node: "n1".to_string(),
        }],
        params: ParamSelector::All,
        deck: ladder_deck(sections),
    }
}

fn bits(rows: &[Vec<f64>]) -> Vec<Vec<u64>> {
    rows.iter()
        .map(|r| r.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// A worker that dies mid-job answers that job with an `ERR … panic` line
/// and keeps serving subsequent jobs on the same connection.
#[test]
fn worker_death_mid_job_is_absorbed() {
    let server = Server::new(ServeConfig {
        workers: 1,
        fault_panic_job: Some("boom".to_string()),
        ..ServeConfig::default()
    })
    .expect("server");
    let deck = masc_serve::protocol::escape_deck(&ladder_deck(2));
    let input =
        format!("SOLVE boom final:n1 * {deck}\nSOLVE ok final:n1 * {deck}\nSTATS\nSHUTDOWN\n");
    let mut output = Vec::new();

    // The injected panic unwinds inside the worker; the default panic hook
    // would spam stderr, so silence it for the duration.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = run_lines(&server, input.as_bytes(), &mut output);
    std::panic::set_hook(prev_hook);
    assert!(result.expect("loop survives the panic"));

    let text = String::from_utf8(output).expect("utf8 output");
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines[0].starts_with("ERR boom panic "),
        "panicking job answers with a structured error: {}",
        lines[0]
    );
    assert!(
        lines[1].starts_with("OK ok miss "),
        "the same worker keeps serving: {}",
        lines[1]
    );
    assert!(lines[2].contains("worker_panics=1"), "{}", lines[2]);
    assert_eq!(server.worker_panics(), 1);
}

/// A corrupt on-disk entry is a miss plus a cold rerun, never a panic,
/// and the rerun's answer is bit-identical to an uncorrupted run.
#[test]
fn corrupt_disk_entry_degrades_to_cold_rerun() {
    let dir = scratch_dir("corrupt");
    let cfg = ServeConfig {
        workers: 1,
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let req = ladder_request("j", 2);

    let first = Server::new(cfg.clone()).expect("server");
    let cold = first.submit(&req).expect("cold run");
    drop(first);

    // Flip a byte in the middle of every persisted entry.
    let mut flipped = 0;
    for f in std::fs::read_dir(&dir).expect("cache dir") {
        let path = f.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "msc") {
            let mut bytes = std::fs::read(&path).expect("entry bytes");
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
            std::fs::write(&path, bytes).expect("rewrite entry");
            flipped += 1;
        }
    }
    assert_eq!(flipped, 1, "exactly one entry persisted");

    let second = Server::new(cfg).expect("reopened server");
    let rerun = second
        .submit(&req)
        .expect("corrupt entry degrades, not fails");
    assert!(!rerun.hit, "corrupt entry must not present as a hit");
    assert_eq!(bits(&rerun.sensitivities), bits(&cold.sensitivities));
    let m = second.cache_metrics();
    assert_eq!(m.corrupt_entries, 1);
    assert_eq!(m.disk_hits, 0);
    assert_eq!(second.cold_runs(), 1);
    // The rerun re-persisted a good entry; a fresh probe hits.
    let hit = second.submit(&req).expect("hit after repair");
    assert!(hit.hit);

    let _ = std::fs::remove_dir_all(&dir);
}

/// An entry whose embedded fingerprint belongs to a *different* job —
/// what a constructed 64-bit key collision between same-topology,
/// different-value decks would look like — is rejected as a cache
/// mismatch, never replayed as the wrong answer.
#[test]
fn colliding_entry_with_foreign_fingerprint_is_rejected() {
    let masc = ServeConfig::default().masc;
    let mut other = ladder_request("other", 2);
    // Same topology and sparsity pattern, different element value: the
    // structural (pattern/shape) checks alone cannot tell these apart.
    other.deck = other.deck.replace("R0 n0 0 2000", "R0 n0 0 2001");

    let job = resolve(&ladder_request("j", 2), &masc).expect("resolve job");
    let other_job = resolve(&other, &masc).expect("resolve other");
    assert_ne!(job.fingerprint, other_job.fingerprint);

    let (_, foreign_entry) = run_cold(&other_job).expect("cold run");
    assert!(
        matches!(
            run_hit(&job, &foreign_entry),
            Err(ServeError::CacheMismatch)
        ),
        "an entry carrying another job's fingerprint must be a mismatch"
    );
    // The entry still replays fine for the job that owns it.
    let replay = run_hit(&other_job, &foreign_entry).expect("owner replay");
    assert!(replay.hit);
}

/// A client deck whose `.tran` grid would step for ever is refused at
/// resolution with the parser's error, before any pipeline stage runs.
#[test]
fn unbounded_tran_grid_is_a_parse_error() {
    let masc = ServeConfig::default().masc;
    for tran in [".tran 1e-300 1", ".tran 1e-12 1"] {
        let mut req = ladder_request("j", 2);
        req.deck = req.deck.replace(".tran 0.2u 20u", tran);
        match resolve(&req, &masc) {
            Err(ServeError::Parse(e)) => assert!(e.message.contains("steps"), "{tran}: {e}"),
            other => panic!("{tran}: expected a parse error, got {other:?}"),
        }
    }
}

/// Two identical jobs submitted concurrently run the pipeline once; the
/// follower coalesces behind the leader and replays the cached entry.
#[test]
fn concurrent_identical_jobs_single_flight() {
    let server = Server::new(ServeConfig::default()).expect("server");
    let req = ladder_request("j", 3);

    // Both submits leave the barrier together, so they overlap in flight.
    let start = Barrier::new(2);
    let (a, b) = std::thread::scope(|scope| {
        let ta = scope.spawn(|| {
            start.wait();
            server.submit(&req).expect("submit a")
        });
        let tb = scope.spawn(|| {
            start.wait();
            server.submit(&req).expect("submit b")
        });
        (ta.join().expect("join a"), tb.join().expect("join b"))
    });

    assert_eq!(
        server.cold_runs(),
        1,
        "identical concurrent jobs must share one pipeline run"
    );
    assert_eq!(bits(&a.sensitivities), bits(&b.sensitivities));
    assert_eq!(a.objective_values, b.objective_values);
    // One of the two was served without a cold run (hit or coalesced
    // replay); the cache saw at most one insert.
    assert_eq!(server.cache_metrics().inserts, 1);
}

/// `SHUTDOWN` behind a queue of jobs drains the queue — every queued job
/// is answered before `BYE`, and no temp files are stranded on disk.
#[test]
fn shutdown_drains_queued_jobs_and_strands_no_files() {
    let dir = scratch_dir("drain");
    let server = Server::new(ServeConfig {
        workers: 1,
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("server");
    // Three distinct decks so each queued job is real work.
    let mut input = String::new();
    for (i, sections) in [2usize, 3, 4].iter().enumerate() {
        let deck = masc_serve::protocol::escape_deck(&ladder_deck(*sections));
        input.push_str(&format!("SOLVE q{i} final:n1 * {deck}\n"));
    }
    input.push_str("SHUTDOWN\n");
    let mut output = Vec::new();
    let got_shutdown = run_lines(&server, input.as_bytes(), &mut output).expect("loop completes");
    assert!(got_shutdown);

    let text = String::from_utf8(output).expect("utf8 output");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "three answers plus BYE: {text}");
    for i in 0..3 {
        assert!(
            lines
                .iter()
                .any(|l| l.starts_with(&format!("OK q{i} miss "))),
            "queued job q{i} must be answered before shutdown: {text}"
        );
    }
    assert_eq!(*lines.last().expect("BYE line"), "BYE");
    assert_eq!(server.jobs(), 3);

    let stranded: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "tmp"))
        .collect();
    assert!(
        stranded.is_empty(),
        "no temp files after shutdown: {stranded:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The worker queue on the real code: three workers share one channel
/// of eight jobs and a `STATS` line, ended by `SHUTDOWN` or by plain end
/// of input. Every job is answered exactly once, `STATS` counts the jobs
/// queued before it, `BYE` comes last, and no run hangs (a lost close
/// would park a worker and hang the join).
#[test]
fn queue_answers_every_job_once_then_closes() {
    let decks = [2usize, 3].map(|s| masc_serve::protocol::escape_deck(&ladder_deck(s)));
    for ending in ["SHUTDOWN\n", ""] {
        for _ in 0..20 {
            let server = Server::new(ServeConfig {
                workers: 3,
                ..ServeConfig::default()
            })
            .expect("server");
            let mut input = String::new();
            for i in 0..8 {
                let deck = &decks[i % 2];
                input.push_str(&format!("SOLVE q{i} final:n1 * {deck}\n"));
                if i == 3 {
                    input.push_str("STATS\n");
                }
            }
            input.push_str(ending);
            let mut output = Vec::new();
            let got_shutdown =
                run_lines(&server, input.as_bytes(), &mut output).expect("loop completes");
            assert_eq!(got_shutdown, !ending.is_empty());

            let text = String::from_utf8(output).expect("utf8 output");
            let lines: Vec<&str> = text.lines().collect();
            assert_eq!(lines.len(), 10, "eight answers, STATS and BYE: {text}");
            for i in 0..8 {
                let answers = lines
                    .iter()
                    .filter(|l| l.starts_with(&format!("OK q{i} ")))
                    .count();
                assert_eq!(answers, 1, "q{i} answered exactly once: {text}");
            }
            let stats: Vec<&str> = lines
                .iter()
                .copied()
                .filter(|l| l.starts_with("STATS "))
                .collect();
            assert_eq!(stats.len(), 1, "{text}");
            // STATS counts every SOLVE queued before it.
            let jobs: u64 = stats[0]
                .split_whitespace()
                .find_map(|f| f.strip_prefix("jobs="))
                .and_then(|n| n.parse().ok())
                .expect("jobs= field");
            assert!(jobs >= 4, "{}", stats[0]);
            assert_eq!(*lines.last().expect("BYE line"), "BYE");
            assert_eq!(server.jobs(), 8);
        }
    }
}

/// Four concurrent identical submits share one pipeline run and one
/// cache insert, and all four answers are bit-identical. A barrier lines
/// the four up, and ten rounds vary who leads.
#[test]
fn four_concurrent_identical_jobs_run_cold_once() {
    let req = ladder_request("j", 3);
    for _ in 0..10 {
        let server = Server::new(ServeConfig::default()).expect("server");
        let start = Barrier::new(4);
        let outcomes: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        server.submit(&req).expect("submit")
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("join"))
                .collect()
        });

        assert_eq!(server.cold_runs(), 1);
        assert_eq!(server.cache_metrics().inserts, 1);
        for outcome in &outcomes[1..] {
            assert_eq!(
                bits(&outcome.sensitivities),
                bits(&outcomes[0].sensitivities)
            );
        }
    }
}

/// Two jobs that share a cache key (it leaves out the objectives) do not
/// share errors: when one fails its step check, the other still runs —
/// cold itself if the failing job held the key first — and answers
/// exactly as it would alone.
#[test]
fn a_failing_job_does_not_fail_its_key_sibling() {
    let server = Server::new(ServeConfig::default()).expect("server");
    let mut failing = ladder_request("bad", 3);
    failing.objectives = vec![ObjectiveSpec::AtStep {
        node: "n1".to_string(),
        step: 99_999,
    }];
    let ok = ladder_request("ok", 3);

    let start = Barrier::new(2);
    let (bad, good) = std::thread::scope(|scope| {
        let tb = scope.spawn(|| {
            start.wait();
            server.submit(&failing)
        });
        let tg = scope.spawn(|| {
            start.wait();
            server.submit(&ok)
        });
        (tb.join().expect("join bad"), tg.join().expect("join ok"))
    });

    assert!(
        matches!(bad, Err(ServeError::StepOutOfRange { step: 99_999, .. })),
        "{bad:?}"
    );
    let good = good.expect("the sibling succeeds");
    let alone = Server::new(ServeConfig::default())
        .expect("fresh server")
        .submit(&ok)
        .expect("sequential run");
    assert_eq!(bits(&good.sensitivities), bits(&alone.sensitivities));
    assert_eq!(server.cache_metrics().inserts, 1);
    assert!(
        (1..=2).contains(&server.cold_runs()),
        "{}",
        server.cold_runs()
    );
}
