//! End-to-end serve tests: miss→hit bit-identity, the forward-pass-skip
//! telemetry proof, disk-tier restarts, resolution errors, and the wire
//! protocol loop.

use masc_adjoint::{run_adjoint, StoreConfig};
use masc_circuit::parser::parse_netlist;
use masc_compress::MascConfig;
use masc_serve::engine::resolve;
use masc_serve::server::run_lines;
use masc_serve::{JobRequest, ObjectiveSpec, ParamSelector, ServeConfig, ServeError, Server};
use std::path::PathBuf;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("masc-serve-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A diode-free RC ladder driven by a DC current source: deterministic,
/// a few hundred accepted steps, every internal node grounded through a
/// bleed resistor.
fn ladder_deck(sections: usize) -> String {
    let mut deck = String::from("* serve test ladder\nI1 n0 0 DC 1e-3\nR0 n0 0 2000\n");
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
        objectives: vec![
            ObjectiveSpec::FinalValue {
                node: "n1".to_string(),
            },
            ObjectiveSpec::Integral {
                node: format!("n{sections}"),
            },
        ],
        params: ParamSelector::All,
        deck: ladder_deck(sections),
    }
}

fn bits(rows: &[Vec<f64>]) -> Vec<Vec<u64>> {
    rows.iter()
        .map(|r| r.iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn hit_skips_forward_pass_and_is_bit_identical() {
    let server = Server::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("server");
    let req = ladder_request("j", 3);

    let cold = server.submit(&req).expect("cold run");
    assert!(!cold.hit);
    assert!(
        cold.tran_stats.steps > 0,
        "cold run must step the transient"
    );
    assert!(cold.store_metrics.bytes_written > 0);
    assert_eq!(cold.objective_values.len(), 2);
    assert!(!cold.sensitivities.is_empty());

    let hit = server.submit(&req).expect("hit run");
    assert!(hit.hit);
    assert_eq!(
        hit.tran_stats.steps, 0,
        "hit must not run the forward transient"
    );
    assert_eq!(hit.tran_stats.newton_iterations, 0);
    assert_eq!(hit.store_metrics.bytes_written, 0);
    assert_eq!(hit.objective_values, cold.objective_values);
    assert_eq!(
        bits(&hit.sensitivities),
        bits(&cold.sensitivities),
        "hit sensitivities must be bit-identical to the cold run"
    );

    let m = server.cache_metrics();
    assert_eq!(m.misses, 1);
    assert_eq!(m.hits, 1);
    assert_eq!(m.mem_hits, 1);
    assert_eq!(m.inserts, 1);
    assert_eq!(server.cold_runs(), 1);
    assert_eq!(server.jobs(), 2);

    // The cold path is the plain driver over the synchronous compressed
    // store: same answer bit for bit, and exactly the bytes that store
    // seals.
    let masc = MascConfig::default();
    let job = resolve(&req, &masc).expect("resolves");
    let mut circuit = parse_netlist(&job.canonical_deck).expect("parses").circuit;
    let plain = run_adjoint(
        &mut circuit,
        &job.tran,
        &StoreConfig::Compressed(masc),
        &job.objectives,
        &job.params,
    )
    .expect("plain driver runs");
    assert_eq!(
        bits(&[cold.objective_values]),
        bits(&[plain.objective_values])
    );
    assert_eq!(
        bits(&cold.sensitivities),
        bits(&plain.sensitivities.values),
        "cold serve answer must be bit-identical to run_adjoint"
    );
    assert_eq!(
        cold.store_metrics.bytes_written,
        plain.store_metrics.bytes_written
    );
}

#[test]
fn disk_tier_survives_server_restart() {
    let dir = scratch_dir("restart");
    let cfg = ServeConfig {
        workers: 1,
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let req = ladder_request("j", 2);

    let first = Server::new(cfg.clone()).expect("server");
    let cold = first.submit(&req).expect("cold run");
    drop(first);

    let second = Server::new(cfg).expect("reopened server");
    let hit = second.submit(&req).expect("disk hit");
    assert!(hit.hit);
    assert_eq!(hit.tran_stats.steps, 0);
    assert_eq!(bits(&hit.sensitivities), bits(&cold.sensitivities));
    let m = second.cache_metrics();
    assert_eq!(m.disk_hits, 1);
    assert_eq!(second.cold_runs(), 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resolution_errors_are_structured() {
    let server = Server::new(ServeConfig::default()).expect("server");

    let mut bad_node = ladder_request("j", 2);
    bad_node.objectives = vec![ObjectiveSpec::FinalValue {
        node: "zz".to_string(),
    }];
    assert!(matches!(
        server.submit(&bad_node),
        Err(ServeError::UnknownNode(n)) if n == "zz"
    ));

    let mut no_tran = ladder_request("j", 2);
    no_tran.deck = "R1 n1 0 1000\n.end\n".to_string();
    assert!(matches!(server.submit(&no_tran), Err(ServeError::NoTran)));

    let mut bad_param = ladder_request("j", 2);
    bad_param.params = ParamSelector::Named(vec!["R9.r".to_string()]);
    assert!(matches!(
        server.submit(&bad_param),
        Err(ServeError::UnknownParam(p)) if p == "R9.r"
    ));

    let mut bad_step = ladder_request("j", 2);
    bad_step.objectives = vec![ObjectiveSpec::AtStep {
        node: "n1".to_string(),
        step: 1_000_000,
    }];
    assert!(matches!(
        server.submit(&bad_step),
        Err(ServeError::StepOutOfRange {
            step: 1_000_000,
            ..
        })
    ));

    // Errors never populate the cache.
    assert_eq!(server.cache_metrics().inserts, 0);
}

/// A line past the protocol cap answers `ERR … line-too-long` without
/// buffering the oversized payload, and the connection keeps serving.
#[test]
fn oversized_line_is_rejected_and_connection_survives() {
    let server = Server::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("server");
    let huge = "x".repeat(2 * masc_serve::protocol::MAX_LINE_BYTES);
    let input = format!("{huge}\nSTATS\nSHUTDOWN\n");
    let mut output = Vec::new();
    let got_shutdown =
        run_lines(&server, input.as_bytes(), &mut output).expect("loop survives the long line");
    assert!(got_shutdown);

    let text = String::from_utf8(output).expect("utf8 output");
    assert!(
        text.lines()
            .any(|l| l.starts_with("ERR - protocol ") && l.contains("exceeds")),
        "over-long line answers with a structured error: {text}"
    );
    assert!(
        text.lines().any(|l| l.starts_with("STATS jobs=0 ")),
        "commands after the long line still answer: {text}"
    );
    assert!(text.lines().any(|l| l == "BYE"), "{text}");
}

/// End-of-input with idle workers always drains and says `BYE` — a
/// stress for the close/wait handshake (a lost wake-up here hangs the
/// scoped worker join forever).
#[test]
fn eof_with_idle_workers_never_hangs() {
    for _ in 0..200 {
        let server = Server::new(ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        })
        .expect("server");
        let mut output = Vec::new();
        let got_shutdown = run_lines(&server, &b""[..], &mut output).expect("empty input drains");
        assert!(!got_shutdown);
        assert_eq!(String::from_utf8(output).expect("utf8 output"), "BYE\n");
    }
}

#[test]
fn line_protocol_round_trip() {
    let server = Server::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("server");
    let deck = masc_serve::protocol::escape_deck(&ladder_deck(2));
    let input = format!(
        "SOLVE j1 final:n1 * {deck}\nSOLVE j2 final:n1 * {deck}\nSTATS\nnot a command\nSHUTDOWN\n"
    );
    let mut output = Vec::new();
    let got_shutdown =
        run_lines(&server, input.as_bytes(), &mut output).expect("protocol loop succeeds");
    assert!(got_shutdown);

    let text = String::from_utf8(output).expect("utf8 output");
    // The reader thread answers malformed lines immediately, so the ERR
    // line may interleave anywhere before BYE; the worker answers queued
    // requests in FIFO order.
    assert!(
        text.lines().any(|l| l.starts_with("ERR - protocol ")),
        "malformed line answers with a protocol error: {text}"
    );
    let lines: Vec<&str> = text
        .lines()
        .filter(|l| !l.starts_with("ERR - protocol "))
        .collect();
    assert!(
        lines[0].starts_with("OK j1 miss steps="),
        "first solve is a miss: {}",
        lines[0]
    );
    assert!(
        lines[1].starts_with("OK j2 hit steps=0 "),
        "second solve hits with zero forward steps: {}",
        lines[1]
    );
    // Identical job ⇒ identical payload after the hit/miss and steps
    // tokens (steps legitimately differ: cold counts, hit is 0).
    let payload = |l: &str| l.splitn(5, ' ').nth(4).map(str::to_string);
    assert_eq!(payload(lines[0]), payload(lines[1]));
    assert!(
        lines[2].starts_with("STATS jobs=2 cold_runs=1 "),
        "{}",
        lines[2]
    );
    assert_eq!(*lines.last().expect("BYE line"), "BYE");
}

/// Two clients connecting *sequentially* over `--socket` share one
/// server process and one cache: the first connection's cold run primes
/// the cache, the second connection (after the first hangs up without
/// `SHUTDOWN`) hits it bit-identically, and an explicit `SHUTDOWN` stops
/// the listener and removes the socket file.
#[test]
fn socket_serves_sequential_connections_from_one_cache() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    let sock = std::env::temp_dir().join(format!(
        "masc-serve-multiclient-{}.sock",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&sock);

    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_masc-serve"))
        .args(["--socket"])
        .arg(&sock)
        .args(["--workers", "1"])
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn masc-serve");

    // Wait for the listener to bind.
    let mut bound = false;
    for _ in 0..200 {
        if sock.exists() {
            bound = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    assert!(bound, "server never bound {}", sock.display());

    let deck = masc_serve::protocol::escape_deck(&ladder_deck(2));
    let solve = format!("SOLVE j final:n1 * {deck}\n");
    let ask = |input: &str| -> Vec<String> {
        let mut stream = UnixStream::connect(&sock).expect("connect");
        stream.write_all(input.as_bytes()).expect("send");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        BufReader::new(stream)
            .lines()
            .map(|l| l.expect("response line"))
            .collect()
    };

    // Client 1: cold run, then hangs up (no SHUTDOWN).
    let first = ask(&solve);
    assert!(
        first[0].starts_with("OK j miss "),
        "first client's solve is a miss: {first:?}"
    );
    assert_eq!(first.last().map(String::as_str), Some("BYE"));

    // Client 2: a fresh connection against the same still-running server
    // hits the cache primed by client 1, then shuts the server down.
    let second = ask(&format!("{solve}STATS\nSHUTDOWN\n"));
    assert!(
        second[0].starts_with("OK j hit steps=0 "),
        "second client must hit the first client's cache entry: {second:?}"
    );
    // Identical payload after the hit/miss and steps tokens.
    let payload = |l: &str| l.splitn(5, ' ').nth(4).map(str::to_string);
    assert_eq!(payload(&first[0]), payload(&second[0]));
    assert!(
        second[1].starts_with("STATS jobs=2 cold_runs=1 "),
        "one cold run across both connections: {second:?}"
    );
    assert_eq!(second.last().map(String::as_str), Some("BYE"));

    // SHUTDOWN stops the process and removes the socket file.
    let status = child.wait().expect("server exit");
    assert!(status.success(), "clean exit after SHUTDOWN: {status:?}");
    assert!(
        !sock.exists(),
        "socket file must be removed on shutdown: {}",
        sock.display()
    );
}
