//! `e2e` — the end-to-end benchmark: raw text to clusters on the batch
//! path, and to served queries on the streaming path, with a per-layer
//! traced mode. See README.md for workloads, metrics and protocol.

mod batch;
mod counts;
mod run;
mod stats;
mod stream;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use er_obs::json::{self, Value};

use run::{Outcome, Params};
use workload::Workload;

const USAGE: &str =
    "usage: e2e --workload <name|all> [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
       e2e --fingerprints
workloads: paper-batch, product-batch, census-batch, census-stream";

/// Measured window per run when `--seconds` is not given: the
/// `run_seconds` of `BENCHMARK.json`, whose runners pass it as
/// `--seconds` (a test keeps the two equal).
const DEFAULT_SECONDS: f64 = 20.0;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    fingerprints: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut pending: Option<String> = None;
    loop {
        let Some(flag) = pending.take().or_else(|| it.next()) else {
            return Ok(args);
        };
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                args.seed = Some(v.parse().map_err(|_| format!("bad --seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {v}"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                // `--trace`, `--trace 1` and `--trace 0` are all accepted.
                args.trace = true;
                match it.next() {
                    Some(v) if v == "0" => args.trace = false,
                    Some(v) if v == "1" => {}
                    other => pending = other,
                }
            }
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--fingerprints" => args.fingerprints = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => return usage_error(&e),
    };
    if args.fingerprints {
        print_fingerprints();
        return ExitCode::SUCCESS;
    }
    match args.workload.as_deref() {
        Some("all") => run_all(&args),
        Some(name) => match Workload::parse(name) {
            Some(w) => run_one(w, &args),
            None => usage_error(&format!("unknown workload {name:?}")),
        },
        None => usage_error("--workload is required"),
    }
}

fn usage_error(why: &str) -> ExitCode {
    eprintln!("e2e: {why}\n{USAGE}");
    ExitCode::from(2)
}

/// What the results were measured on.
struct Host {
    nproc: usize,
    threads: usize,
    target_features: Vec<&'static str>,
    dispatch: String,
}

impl Host {
    fn detect(w: Workload) -> Self {
        let compiled = [
            ("avx2", cfg!(target_feature = "avx2")),
            ("avx512f", cfg!(target_feature = "avx512f")),
            ("fma", cfg!(target_feature = "fma")),
            ("neon", cfg!(target_feature = "neon")),
        ];
        let policy = er_pool::DispatchPolicy::from_env();
        let dispatch = match policy.serial_below {
            0 => "parallel".to_owned(),
            usize::MAX => "serial".to_owned(),
            n => format!("serial_below={n}"),
        };
        Self {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            threads: w.threads(),
            target_features: compiled.iter().filter(|f| f.1).map(|f| f.0).collect(),
            dispatch,
        }
    }
}

fn run_one(w: Workload, args: &Args) -> ExitCode {
    let host = Host::detect(w);
    if host.nproc < host.threads {
        eprintln!(
            "e2e: warning: {} threads on {} cores; timings include time-slicing",
            host.threads, host.nproc
        );
    }
    let p = Params {
        seed: args.seed.unwrap_or(workload::DEFAULT_SEED),
        seconds: args.seconds.unwrap_or(DEFAULT_SECONDS),
        trace: args.trace,
        scale: 1.0,
    };
    let mut out = execute(w, &p);
    out.validate(p.trace);
    for note in &out.notes {
        eprintln!("e2e: {}: {note}", w.name());
    }
    for &(name, unit, _) in Outcome::table(p.trace) {
        println!("{} {name} {} {unit}", w.name(), out.metrics[name]);
    }
    let record = record(&host, &p, &out);
    let traces: Vec<(String, Value)> = p
        .trace
        .then(|| (w.name().to_owned(), out.tracer.to_value()))
        .into_iter()
        .collect();
    if let Some(path) = &args.out {
        if let Err(e) = write_outputs(path, vec![record.clone()], &traces) {
            eprintln!("e2e: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    // `--workload all` reads these two lines back from its children.
    println!("record {}", one_line(&record));
    for (_, spans) in &traces {
        println!("trace {}", one_line(spans));
    }
    println!("{}", one_line(&result_line(&out, p.trace)));
    ExitCode::SUCCESS
}

fn execute(w: Workload, p: &Params) -> Outcome {
    match w {
        Workload::CensusStream => stream::run(w, p),
        _ => batch::run(w, p),
    }
}

fn num(v: f64) -> Value {
    Value::Num(v)
}

fn str_value(s: &str) -> Value {
    Value::Str(s.to_owned())
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(out: &Outcome, trace: bool) -> Value {
    let metrics = Outcome::table(trace)
        .iter()
        .map(|&(name, unit, _)| {
            let m = Value::Obj(vec![
                ("value".to_owned(), num(out.metrics[name])),
                ("unit".to_owned(), str_value(unit)),
            ]);
            (name.to_owned(), m)
        })
        .collect();
    Value::Obj(vec![
        ("correct".to_owned(), Value::Bool(out.failed == 0)),
        ("attempted".to_owned(), num(out.attempted as f64)),
        ("failed".to_owned(), num(out.failed as f64)),
        ("metrics".to_owned(), Value::Obj(metrics)),
    ])
}

/// One workload's record: the result plus what it was measured on.
fn record(host: &Host, p: &Params, out: &Outcome) -> Value {
    let mut fields = vec![
        ("workload".to_owned(), str_value(out.workload.name())),
        ("seed".to_owned(), num(p.seed as f64)),
        ("seconds".to_owned(), num(p.seconds)),
        ("trace".to_owned(), Value::Bool(p.trace)),
        ("records".to_owned(), num(out.records as f64)),
        ("nproc".to_owned(), num(host.nproc as f64)),
        ("threads".to_owned(), num(host.threads as f64)),
        (
            "target_features".to_owned(),
            Value::Arr(host.target_features.iter().map(|f| str_value(f)).collect()),
        ),
        ("dispatch".to_owned(), str_value(&host.dispatch)),
        (
            "notes".to_owned(),
            Value::Arr(out.notes.iter().map(|n| str_value(n)).collect()),
        ),
    ];
    if let Value::Obj(result) = result_line(out, p.trace) {
        fields.extend(result);
    }
    Value::Obj(fields)
}

/// JSON on one line: the pretty form with its line breaks folded. No
/// string spans lines (newlines are escaped), so this stays valid.
fn one_line(v: &Value) -> String {
    v.to_pretty()
        .lines()
        .map(str::trim)
        .collect::<Vec<_>>()
        .join(" ")
}

/// Appends `records` to the `runs` of the JSON file at `path` (created
/// if absent) and writes each workload's spans to
/// `trace-<workload>.json` beside it.
fn write_outputs(
    path: &Path,
    records: Vec<Value>,
    traces: &[(String, Value)],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => read_runs(&text).map_err(std::io::Error::other)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    runs.extend(records);
    let doc = Value::Obj(vec![("runs".to_owned(), Value::Arr(runs))]);
    std::fs::write(path, doc.to_pretty())?;
    for (workload, spans) in traces {
        std::fs::write(
            path.with_file_name(format!("trace-{workload}.json")),
            spans.to_pretty(),
        )?;
    }
    Ok(())
}

fn read_runs(text: &str) -> Result<Vec<Value>, String> {
    let doc = json::parse(text)?;
    let runs = doc
        .get("runs")
        .and_then(Value::as_arr)
        .ok_or("no \"runs\" array")?;
    Ok(runs.to_vec())
}

/// Runs every workload in a child process of its own (so each reports
/// its own peak memory), forwards their metric lines, and writes all
/// records to `--out`.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("e2e: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut records, mut traces) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0.0, 0.0);
    let mut metrics = Vec::new();
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--workload",
            w.name(),
            "--trace",
            if args.trace { "1" } else { "0" },
        ]);
        if let Some(seed) = args.seed {
            cmd.args(["--seed", &seed.to_string()]);
        }
        if let Some(seconds) = args.seconds {
            cmd.args(["--seconds", &seconds.to_string()]);
        }
        let output = match cmd.output() {
            Ok(o) if o.status.success() => o,
            Ok(o) => {
                eprint!("{}", String::from_utf8_lossy(&o.stderr));
                eprintln!("e2e: {} exited with {}", w.name(), o.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("e2e: cannot run {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        let stdout = String::from_utf8_lossy(&output.stdout);
        let lines: Vec<&str> = stdout.lines().collect();
        for line in &lines[..lines.len().saturating_sub(1)] {
            let (kind, body) = line.split_once(' ').unwrap_or((line, ""));
            let parsed = || json::parse(body).map_err(|e| eprintln!("e2e: {}: {e}", w.name()));
            match kind {
                "record" => records.extend(parsed()),
                "trace" => traces.extend(parsed().map(|t| (w.name().to_owned(), t))),
                _ => println!("{line}"),
            }
        }
        let Some(result) = lines.last().and_then(|l| json::parse(l).ok()) else {
            eprintln!("e2e: {} printed no result line", w.name());
            return ExitCode::FAILURE;
        };
        attempted += result
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        failed += result.get("failed").and_then(Value::as_f64).unwrap_or(1.0);
        if let Some(Value::Obj(m)) = result.get("metrics") {
            metrics.extend(
                m.iter()
                    .map(|(k, v)| (format!("{}/{k}", w.name()), v.clone())),
            );
        }
    }
    if let Some(path) = &args.out {
        if let Err(e) = write_outputs(path, records, &traces) {
            eprintln!("e2e: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let combined = Value::Obj(vec![
        ("correct".to_owned(), Value::Bool(failed == 0.0)),
        ("attempted".to_owned(), num(attempted)),
        ("failed".to_owned(), num(failed)),
        ("metrics".to_owned(), Value::Obj(metrics)),
    ]);
    println!("{}", one_line(&combined));
    ExitCode::SUCCESS
}

/// Prints the table stored in `fingerprints.txt`: the fingerprint of
/// each workload's dataset.
fn print_fingerprints() {
    for w in Workload::ALL {
        println!("{} {:016x}", w.name(), workload::fingerprint(&w.base(1.0)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload census-batch --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!(a.workload.as_deref(), Some("census-batch"));
        assert_eq!((a.seed, a.seconds, a.trace), (Some(7), Some(10.0), false));
        assert!(parse("--workload all --trace 1").unwrap().trace);
        // A bare --trace means on and leaves the next flag alone.
        let a = parse("--trace --workload all --out x.json").unwrap();
        assert!(a.trace && a.workload.is_some() && a.out.is_some());
    }

    #[test]
    fn rejects_malformed_arguments() {
        assert!(parse("--seed x").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seconds").is_err());
        assert!(parse("--bogus").is_err());
    }

    /// Each workload function, at a tiny scale, emits exactly the
    /// metrics `BENCHMARK.json` declares, in both modes. (Tiny inputs
    /// cannot support every percentile or F1 floor, so failures are
    /// not checked here.)
    #[test]
    fn smoke_runs_emit_the_declared_metrics() {
        let bench =
            json::parse(include_str!("../../../../BENCHMARK.json")).expect("BENCHMARK.json");
        assert_eq!(
            bench.get("run_seconds").and_then(Value::as_f64),
            Some(DEFAULT_SECONDS),
            "the default window is BENCHMARK.json's run_seconds"
        );
        let declared = |key: &str| -> Vec<(String, String, String)> {
            let field = |m: &Value, f: &str| m.get(f).and_then(Value::as_str).expect(f).to_owned();
            let mut metrics: Vec<_> = bench
                .get(key)
                .and_then(Value::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
                .collect();
            metrics.sort();
            metrics
        };
        let workloads: Vec<String> = bench
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_owned()
            })
            .collect();
        assert_eq!(
            workloads,
            Workload::ALL.map(Workload::name).to_vec(),
            "BENCHMARK.json lists the workloads in order"
        );
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let mut want: Vec<_> = Outcome::table(trace)
                .iter()
                .map(|&(n, u, b)| {
                    let better = if b == run::Better::Lower {
                        "lower"
                    } else {
                        "higher"
                    };
                    (n.to_owned(), u.to_owned(), better.to_owned())
                })
                .collect();
            want.sort();
            assert_eq!(declared(key), want, "{key}");
        }
        for w in Workload::ALL {
            for trace in [false, true] {
                let p = Params {
                    seed: 5,
                    seconds: 0.05,
                    trace,
                    scale: 0.02,
                };
                let mut out = execute(w, &p);
                out.validate(trace);
                assert!(out.attempted >= 1, "{}", w.name());
            }
        }
    }
}
