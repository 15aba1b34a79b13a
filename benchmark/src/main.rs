//! Measured deck → gradients wall-clock benchmark with an outside-in
//! per-layer trace. See README.md for workloads, metrics and process
//! model.
//!
//! ```text
//! masc-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, JSON last line
//! masc-benchmark run       [--workload W] [--seed N] [--seconds S] [--quick] [--out FILE]
//! masc-benchmark trace     [--workload W] [--seed N] [--seconds S] [--quick] [--out FILE]
//! masc-benchmark selfcheck [--workload W] [--seed N] [--seconds S] [--quick]
//! masc-benchmark list
//! masc-benchmark deck --workload W [--seed N] [--quick]             the input text itself
//! masc-benchmark check-names BENCHMARK.json
//! ```

mod child;
mod decks;
mod jobs;
mod json;
mod layers;
mod run;
mod spans;
mod stats;
mod workloads;

use child::Mode;
use jobs::Budget;
use json::Value;
use run::{measure, trace, Measured, Options, Traced};
use stats::Summary;
use std::collections::BTreeMap;
use std::process::ExitCode;
use workloads::{Better, MetricDef, Workload, END_TO_END, PER_LAYER};

/// Seconds one workload is measured for unless `--seconds` says otherwise
/// (`run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 10.0;

/// Command-line flags, all optional.
#[derive(Debug, Default)]
struct Flags {
    values: BTreeMap<String, String>,
    quick: bool,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut flags = Flags::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some("quick") => flags.quick = true,
                Some(name) => {
                    let value = it.next().ok_or(format!("--{name} needs a value"))?;
                    flags.values.insert(name.to_string(), value.clone());
                }
                None => flags.positional.push(arg.clone()),
            }
        }
        Ok(flags)
    }

    fn number(&self, name: &str, default: f64) -> Result<f64, String> {
        match self.values.get(name) {
            None => Ok(default),
            Some(text) => text
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or(format!("--{name} {text}: not a non-negative number")),
        }
    }

    /// The workloads a subcommand covers: all, or the one `--workload` names.
    fn selected(&self) -> Result<Vec<Workload>, String> {
        if self.values.contains_key("workload") {
            Ok(vec![self.workload()?])
        } else {
            Ok(Workload::ALL.to_vec())
        }
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.values.get("workload").ok_or("--workload is missing")?;
        Workload::from_name(name).ok_or(format!("unknown workload {name}; see `list`"))
    }

    fn options(&self) -> Result<Options, String> {
        let seed = match self.values.get("seed") {
            None => 1,
            Some(text) => text
                .parse::<u64>()
                .map_err(|_| format!("--seed {text}: not a whole number"))?,
        };
        Ok(Options {
            seed,
            // A quick run is sized by job counts alone.
            seconds: self.number("seconds", if self.quick { 0.0 } else { DEFAULT_SECONDS })?,
            quick: self.quick,
        })
    }
}

fn metric_json(value: f64, unit: &str) -> Value {
    Value::obj([("value", Value::Num(value)), ("unit", Value::str(unit))])
}

/// The result line of the driver contract.
fn result_line(tally: &run::Tally, metrics: Vec<(String, Value)>) -> String {
    Value::obj([
        (
            "correct",
            Value::Bool(tally.failed == 0 && tally.attempted > 0),
        ),
        ("attempted", Value::Num(tally.attempted.max(1) as f64)),
        ("failed", Value::Num(tally.failed as f64)),
        ("metrics", Value::Obj(metrics.into_iter().collect())),
    ])
    .render()
}

fn report_errors(tally: &run::Tally) {
    for why in &tally.errors {
        eprintln!("FAILED: {why}");
    }
}

/// Whether a metric's spread within one run exceeds its bound, in which
/// case a change within the bound cannot be told from noise.
fn unresolved(def: &MetricDef, summary: &Summary) -> bool {
    def.bound.is_some_and(|bound| summary.spread() > bound)
}

fn print_measured(m: &Measured) {
    println!(
        "{:<13} jobs {}/{} ok, failed_frac {:.3}, threads/job {}",
        m.workload.name(),
        m.tally.attempted - m.tally.failed,
        m.tally.attempted,
        m.tally.failed_frac(),
        m.threads
    );
    for def in &END_TO_END {
        let Some(s) = m.samples.get(def.name).and_then(|v| Summary::of(v)) else {
            println!("  {:<15} no samples", def.name);
            continue;
        };
        println!(
            "  {:<15} {:>12.6} {:<5} n={:<3} median {:.6} q1 {:.6} q3 {:.6} min {:.6} max {:.6} iqr/median {:.4} (bound {:.2}){}",
            def.name,
            def.estimate(&s),
            def.unit,
            s.n,
            s.median,
            s.q1,
            s.q3,
            s.min,
            s.max,
            s.spread(),
            def.bound.unwrap_or(0.0),
            if unresolved(def, &s) { " unresolved" } else { "" }
        );
    }
    let counts: Vec<String> = m.counts.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("  exact-repeat counts: {}", counts.join(" "));
    report_errors(&m.tally);
}

fn measured_json(m: &Measured) -> Value {
    let metrics = END_TO_END.iter().filter_map(|def| {
        let samples = m.samples.get(def.name)?;
        let s = Summary::of(samples)?;
        Some((
            def.name,
            Value::obj([
                ("unit", Value::str(def.unit)),
                ("value", Value::Num(def.estimate(&s))),
                ("median", Value::Num(s.median)),
                ("q1", Value::Num(s.q1)),
                ("q3", Value::Num(s.q3)),
                ("samples", Value::nums(samples)),
                ("unresolved", Value::Bool(unresolved(def, &s))),
            ]),
        ))
    });
    Value::obj([
        ("attempted", Value::Num(m.tally.attempted as f64)),
        ("failed", Value::Num(m.tally.failed as f64)),
        ("threads_per_job", Value::Num(m.threads as f64)),
        ("metrics", Value::obj(metrics)),
        ("counts", Value::num_map(&m.counts)),
    ])
}

fn print_traced(t: &Traced) {
    println!(
        "{:<13} traced, jobs {}/{} ok",
        t.workload.name(),
        t.tally.attempted - t.tally.failed,
        t.tally.attempted
    );
    for def in &PER_LAYER {
        let value = t.layers.get(def.name).copied().unwrap_or(0.0);
        // 0 marks a layer the workload does not touch; the overhead is
        // always shown.
        if value != 0.0 || def.name == "trace.overhead_frac" {
            if value != 0.0 && value.abs() < 1e-3 {
                println!("  {:<26} {:>16.6e} {}", def.name, value, def.unit);
            } else {
                println!("  {:<26} {:>16.6} {}", def.name, value, def.unit);
            }
        }
    }
    let hot: Vec<String> = t
        .hot
        .iter()
        .map(|(name, s)| format!("{name} {s:.4} s"))
        .collect();
    println!("  largest self times: {}", hot.join(", "));
    if let Some(path) = &t.span_file {
        println!("  spans: {}", path.display());
    }
    report_errors(&t.tally);
}

fn traced_json(t: &Traced) -> Value {
    Value::obj([
        ("attempted", Value::Num(t.tally.attempted as f64)),
        ("failed", Value::Num(t.tally.failed as f64)),
        ("layers", Value::num_map(&t.layers)),
        (
            "hot",
            Value::Arr(
                t.hot
                    .iter()
                    .map(|(name, s)| {
                        Value::obj([
                            ("span", Value::str(name.clone())),
                            ("self_s", Value::Num(*s)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn write_out(flags: &Flags, opts: &Options, body: Value) -> Result<(), String> {
    let Some(path) = flags.values.get("out") else {
        return Ok(());
    };
    let doc = Value::obj([
        ("seed", Value::Num(opts.seed as f64)),
        ("seconds", Value::Num(opts.seconds)),
        ("quick", Value::Bool(opts.quick)),
        (
            "nproc",
            Value::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("workloads", body),
    ]);
    std::fs::write(path, doc.render() + "\n").map_err(|e| format!("writing {path}: {e}"))
}

/// `run`: every workload, tracing off, every end-to-end metric by name.
fn cmd_run(flags: &Flags) -> Result<bool, String> {
    let opts = flags.options()?;
    let mut ok = true;
    let mut body = BTreeMap::new();
    for workload in flags.selected()? {
        let m = measure(workload, &opts);
        print_measured(&m);
        ok &= m.tally.failed == 0 && m.tally.attempted > 0;
        body.insert(workload.name().to_string(), measured_json(&m));
    }
    write_out(flags, &opts, Value::Obj(body))?;
    Ok(ok)
}

/// `trace`: every workload once more with harness spans recorded.
fn cmd_trace(flags: &Flags) -> Result<bool, String> {
    let opts = flags.options()?;
    let mut ok = true;
    let mut body = BTreeMap::new();
    for workload in flags.selected()? {
        let t = trace(workload, &opts);
        print_traced(&t);
        ok &= t.tally.failed == 0 && t.tally.attempted > 0;
        body.insert(workload.name().to_string(), traced_json(&t));
    }
    write_out(flags, &opts, Value::Obj(body))?;
    Ok(ok)
}

/// By how much `second` is worse than `first`, as a share of `first`.
fn worsening(def: &MetricDef, first: f64, second: f64) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    match def.better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// `selfcheck`: the full untraced set twice, back to back; every
/// end-to-end metric of the second set must be within its bound of the
/// first, counts identical and no job failed.
fn cmd_selfcheck(flags: &Flags) -> Result<bool, String> {
    let opts = flags.options()?;
    let mut ok = true;
    for workload in flags.selected()? {
        let first = measure(workload, &opts);
        let second = measure(workload, &opts);
        for m in [&first, &second] {
            if m.tally.failed > 0 || m.tally.attempted == 0 {
                report_errors(&m.tally);
                ok = false;
            }
        }
        if first.counts != second.counts {
            println!("{:<13} counts differ between the two sets", workload.name());
            ok = false;
        }
        for def in &END_TO_END {
            let medians = [&first, &second].map(|m| {
                m.samples
                    .get(def.name)
                    .and_then(|samples| Summary::of(samples))
                    .map_or(0.0, |s| def.estimate(&s))
            });
            let worse = worsening(def, medians[0], medians[1]);
            let bound = def.bound.unwrap_or(0.0);
            let within = worse <= bound;
            println!(
                "{:<13} {:<15} first {:>12.6} second {:>12.6} {} worse by {:+.4} (bound {:.2}) {}",
                workload.name(),
                def.name,
                medians[0],
                medians[1],
                def.unit,
                worse,
                bound,
                if within { "ok" } else { "OUT OF BOUND" }
            );
            ok &= within;
        }
    }
    Ok(ok)
}

/// `name unit better [bound]`: how a metric reads in `list` and how an
/// entry of `BENCHMARK.json` is compared with it.
fn metric_line(def: &MetricDef) -> String {
    let mut line = format!("{} {} {}", def.name, def.unit, def.better.as_str());
    if let Some(bound) = def.bound {
        line.push_str(&format!(" {bound}"));
    }
    line
}

/// `list`: every workload and metric name this binary emits.
fn cmd_list() {
    for w in Workload::ALL {
        println!("workload {}", w.name());
    }
    for def in &END_TO_END {
        println!("end_to_end {}", metric_line(def));
    }
    for def in &PER_LAYER {
        println!("per_layer {}", metric_line(def));
    }
}

/// `check-names`: `BENCHMARK.json` and this binary must name the same
/// workloads and metrics, with the same units, directions and bounds.
fn cmd_check_names(flags: &Flags) -> Result<bool, String> {
    let path = flags.positional.first().ok_or("check-names needs a file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = json::parse(&text)?;
    // An entry reads like `metric_line`: name, unit, direction and, where
    // it has one, bound.
    let listed = |key: &str| -> Result<Vec<String>, String> {
        Ok(doc
            .get(key)
            .and_then(Value::as_arr)
            .ok_or(format!("{path} has no {key} list"))?
            .iter()
            .map(|entry| {
                let field = |k: &str| entry.get(k).and_then(Value::as_str).unwrap_or("?");
                let mut line = format!("{} {} {}", field("name"), field("unit"), field("better"));
                if let Some(bound) = entry.get("bound").and_then(Value::as_f64) {
                    line.push_str(&format!(" {bound}"));
                }
                line
            })
            .collect())
    };
    let mut ok = true;
    let mut compare = |what: &str, mut file: Vec<String>, mut ours: Vec<String>| {
        file.sort();
        ours.sort();
        for line in file.iter().filter(|l| !ours.contains(l)) {
            println!("{what}: only in {path}: {line}");
            ok = false;
        }
        for line in ours.iter().filter(|l| !file.contains(l)) {
            println!("{what}: only in the binary: {line}");
            ok = false;
        }
    };
    let file_workloads = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .ok_or(format!("{path} has no workloads list"))?
        .iter()
        .map(|w| {
            let field = |k: &str| w.get(k).and_then(Value::as_str).unwrap_or("?");
            format!("{} | {}", field("name"), field("why"))
        })
        .collect();
    let our_workloads = Workload::ALL
        .iter()
        .map(|w| format!("{} | {}", w.name(), w.why()))
        .collect();
    compare("workloads", file_workloads, our_workloads);
    compare(
        "end_to_end",
        listed("end_to_end")?,
        END_TO_END.iter().map(metric_line).collect(),
    );
    compare(
        "per_layer",
        listed("per_layer")?,
        PER_LAYER.iter().map(metric_line).collect(),
    );
    let seconds = doc.get("run_seconds").and_then(Value::as_f64);
    if seconds != Some(DEFAULT_SECONDS) {
        println!("run_seconds: {path} says {seconds:?}, the binary {DEFAULT_SECONDS}");
        ok = false;
    }
    if ok {
        println!("{path} and the binary agree on every name");
    }
    Ok(ok)
}

/// The driver's form: one workload, one JSON object as the last line.
fn cmd_contract(flags: &Flags) -> Result<bool, String> {
    let workload = flags.workload()?;
    let opts = flags.options()?;
    let tracing = match flags.values.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    if tracing {
        let t = trace(workload, &opts);
        print_traced(&t);
        let metrics = PER_LAYER
            .iter()
            .map(|def| {
                let value = t.layers.get(def.name).copied().unwrap_or(0.0);
                (def.name.to_string(), metric_json(value, def.unit))
            })
            .collect();
        println!("{}", result_line(&t.tally, metrics));
        return Ok(t.tally.failed == 0 && t.tally.attempted > 0);
    }
    let m = measure(workload, &opts);
    print_measured(&m);
    let mut metrics = Vec::new();
    for def in &END_TO_END {
        match m.samples.get(def.name).and_then(|v| Summary::of(v)) {
            Some(s) => metrics.push((
                def.name.to_string(),
                metric_json(def.estimate(&s), def.unit),
            )),
            None => return Err(format!("no sample of {} was measured", def.name)),
        }
    }
    println!("{}", result_line(&m.tally, metrics));
    Ok(m.tally.failed == 0 && m.tally.attempted > 0)
}

/// The internal form the parent spawns: `job --workload W --mode M …`.
fn cmd_job(flags: &Flags) -> Result<bool, String> {
    let workload = flags.workload()?;
    let mode = flags
        .values
        .get("mode")
        .and_then(|m| Mode::from_name(m))
        .ok_or("job needs --mode timed|traced|reference|xyce")?;
    let budget = Budget {
        seconds: flags.number("seconds", 0.0)?,
        min_jobs: flags.number("min-jobs", 1.0)? as usize,
        setup_reps: flags.number("setup-reps", 1.0)? as usize,
    };
    let out = child::run(workload, mode, flags.quick, budget)?;
    println!("{}", out.to_json().render());
    Ok(true)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let command = args.first().map(String::as_str);
    let rest = || Flags::parse(&args[1..]);
    match command {
        Some("run") => cmd_run(&rest()?),
        Some("trace") => cmd_trace(&rest()?),
        Some("selfcheck") => cmd_selfcheck(&rest()?),
        Some("list") => {
            cmd_list();
            Ok(true)
        }
        Some("deck") => {
            let flags = rest()?;
            let opts = flags.options()?;
            print!(
                "{}",
                decks::build_deck(flags.workload()?, opts.quick, opts.seed)
            );
            Ok(true)
        }
        Some("check-names") => cmd_check_names(&rest()?),
        Some("job") => cmd_job(&rest()?),
        Some(flag) if flag.starts_with("--") => cmd_contract(&Flags::parse(args)?),
        _ => Err(
            "usage: masc-benchmark run|trace|selfcheck|list|deck|check-names FILE \
                  | --workload W --seed N --seconds S --trace 0|1"
                .to_string(),
        ),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("masc-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Result<Flags, String> {
        Flags::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_flags_parse() {
        let f = flags(&[
            "--workload",
            "rc_mesh",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(f.workload().unwrap(), Workload::RcMesh);
        let opts = f.options().unwrap();
        assert_eq!((opts.seed, opts.seconds, opts.quick), (7, 3.0, false));
        assert!(flags(&["--seed"]).is_err());
        assert!(flags(&["--seed", "x"]).unwrap().options().is_err());
        assert!(flags(&["--seconds", "-1"]).unwrap().options().is_err());
        assert!(flags(&["--workload", "nope"]).unwrap().workload().is_err());
        let quick = flags(&["--quick"]).unwrap().options().unwrap();
        assert_eq!((quick.seed, quick.seconds, quick.quick), (1, 0.0, true));
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let lower = &END_TO_END[0];
        let higher = END_TO_END
            .iter()
            .find(|d| d.better == Better::Higher)
            .unwrap();
        assert!((worsening(lower, 2.0, 2.2) - 0.1).abs() < 1e-12);
        assert!(worsening(lower, 2.0, 1.8) < 0.0);
        assert!((worsening(higher, 4.0, 3.8) - 0.05).abs() < 1e-12);
        assert!(worsening(higher, 4.0, 4.4) < 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let tally = run::Tally {
            attempted: 5,
            ..run::Tally::default()
        };
        let line = result_line(&tally, vec![("solve_s".into(), metric_json(1.25, "s"))]);
        let v = json::parse(&line).unwrap();
        let keys: Vec<_> = v.as_obj().unwrap().keys().cloned().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        let metric = v.get("metrics").and_then(|m| m.get("solve_s")).unwrap();
        assert_eq!(metric.get("value").and_then(Value::as_f64), Some(1.25));
        assert_eq!(metric.get("unit").and_then(Value::as_str), Some("s"));
    }
}
