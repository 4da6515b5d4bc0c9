//! The repository benchmark: host time of the simulator, end to end and
//! per crate.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out-dir DIR]
//! ```
//!
//! Without `--workload` every workload runs in its own child process, one
//! after another. Each workload process warms the host up on one small
//! cell, then runs the plain pass (tracing off; the end-to-end metrics)
//! and the traced pass (a quarter of the budget; the per-layer metrics) —
//! only the first with `--trace 0`, only the second with `--trace 1`. It
//! writes `<out-dir>/<workload>.json` (an `eeat-run-artifact/v1` file
//! holding every metric under its name) and, after a traced pass,
//! `<out-dir>/<workload>.trace.json` (chrome://tracing spans), and prints
//! as its last line one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. See `benchmark/README.md` for the metrics.

mod calibrate;
mod check;
mod engine;
mod metrics;
mod plain;
mod plan;
mod spans;
mod stats;
mod traced;

use std::fs;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use eeat_obs::json::{self, Json};
use eeat_obs::{RunArtifact, RunManifest};
use eeat_workloads::WorkloadSpec;

use crate::check::Tally;
use crate::engine::Trace;
use crate::plan::{Plan, Scale, Workload};

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--smoke] [--out-dir DIR]";

/// Parsed command line.
#[derive(Clone, Debug)]
struct Opts {
    seed: u64,
    workload: Option<Workload>,
    seconds: f64,
    /// `Some(false)`: plain pass only; `Some(true)`: traced pass only;
    /// `None`: both.
    trace: Option<bool>,
    smoke: bool,
    out_dir: PathBuf,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            seed: 42,
            workload: None,
            seconds: 12.0,
            trace: None,
            smoke: false,
            out_dir: PathBuf::from(".bench_out"),
        }
    }
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts::default();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--seed" => {
                let v = value()?;
                opts.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--workload" => {
                let v = value()?;
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                opts.workload = Some(Workload::from_name(v).ok_or_else(|| {
                    format!("unknown workload {v:?} (one of {})", names.join(", "))
                })?);
            }
            "--seconds" => {
                let v = value()?;
                opts.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {v:?}"))?;
            }
            "--trace" => {
                opts.trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad trace {v:?} (0 or 1)")),
                });
            }
            "--out-dir" => opts.out_dir = PathBuf::from(value()?),
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

/// What one workload process measured.
struct Outcome {
    tally: Tally,
    /// Every metric measured, in `BENCHMARK.json` order.
    metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// The last line of a workload process's output.
    fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value)| {
                let entry = json::obj(vec![
                    ("value", json::num(value)),
                    ("unit", json::str(metrics::unit(name))),
                ]);
                (name.to_string(), entry)
            })
            .collect();
        json::obj(vec![
            ("correct", Json::Bool(self.tally.failed == 0)),
            ("attempted", json::num(self.tally.attempted as f64)),
            ("failed", json::num(self.tally.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_compact()
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is listed");
    kb / 1024.0
}

/// Runs one small cell untimed so the first timed cell does not pay for
/// cold host caches and page faults.
fn warm_up(workload: Workload, trace: Option<&Trace>, seed: u64) {
    let plan = Plan::new(workload, Scale::Smoke);
    let cell = &plan.cells[0];
    let spec = cell.program.spec();
    let accesses = trace.map(|t| t.parse_timed().0);
    engine::build_reference(&plan, cell, &spec, seed, accesses.as_deref()).run_once(cell);
}

/// Runs `workload`'s passes in this process and writes its artifacts.
fn run_workload(workload: Workload, opts: &Opts) -> Result<Outcome, String> {
    let start = Instant::now();
    let scale = |traced| match (opts.smoke, traced) {
        (true, _) => Scale::Smoke,
        (false, false) => Scale::Plain,
        (false, true) => Scale::Traced,
    };
    let plan = Plan::new(workload, scale(false));
    let specs: Vec<WorkloadSpec> = plan.cells.iter().map(|c| c.program.spec()).collect();
    let name = workload.name();
    let trace = if plan.trace_accesses > 0 {
        let path = opts.out_dir.join(format!("{name}.trace"));
        let program = plan.cells[0].program;
        Some(
            Trace::record(path.clone(), program, plan.trace_accesses, opts.seed)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?,
        )
    } else {
        None
    };
    warm_up(workload, trace.as_ref(), opts.seed);

    let mut tally = Tally::default();
    let mut metrics = Vec::new();
    let mut extra = Vec::new();
    let mut series = Vec::new();
    if opts.trace != Some(true) {
        let p = plain::run(
            &plan,
            &specs,
            trace.as_ref(),
            opts.seed,
            opts.seconds,
            opts.smoke,
            &mut tally,
        );
        metrics.extend(p.scaled());
        metrics.push(("peak_rss_mb", peak_rss_mb()));
        let measured = p
            .measured()
            .map(|(key, value)| (format!("measured.{key}"), value));
        extra.extend(measured);
        extra.push(("host.ns_per_step".into(), p.calibration.ns_per_step()));
        extra.push(("host.slowdown".into(), p.calibration.slowdown()));
        extra.push(("plain.rounds".into(), p.rounds as f64));
        extra.push(("plain.chunks".into(), p.chunk_ns.len() as f64));
        println!(
            "{name}: plain pass, {} rounds, {} chunks timed, host {:.3}x slower than the reference",
            p.rounds,
            p.chunk_ns.len(),
            p.calibration.slowdown()
        );
    }
    if opts.trace != Some(false) {
        let traced_plan = Plan::new(workload, scale(true));
        let t = traced::run(
            &traced_plan,
            &specs,
            trace.as_ref(),
            opts.seed,
            opts.seconds,
            opts.smoke,
            &mut tally,
        );
        let file = format!("{name}.trace.json");
        let path = opts.out_dir.join(&file);
        fs::write(&path, t.spans.to_chrome_json(&format!("benchmark {name}")))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        series.push(file);
        extra.push(("traced.rounds".into(), t.rounds as f64));
        extra.push(("traced.spans".into(), t.spans.len() as f64));
        println!(
            "{name}: traced pass, {} rounds, {} spans",
            t.rounds,
            t.spans.len()
        );
        metrics.extend(t.metrics);
    }

    let descriptions: Vec<String> = plan
        .cells
        .iter()
        .map(|c| format!("{:?}", c.config))
        .collect();
    let manifest = RunManifest::discover(
        &format!("benchmark.{name}"),
        &descriptions,
        opts.seed,
        plan.cells[0].instructions,
        1,
    );
    let mut artifact = RunArtifact::new(manifest);
    for &(key, value) in &metrics {
        artifact.push_metric(key, value);
    }
    for (key, value) in extra {
        artifact.push_metric(key, value);
    }
    artifact.push_metric("attempted", tally.attempted as f64);
    artifact.push_metric("failed", tally.failed as f64);
    artifact.push_metric("fail_rate", tally.fail_rate());
    artifact.series = series;
    artifact.manifest.stamp_wall(start);
    let path = opts.out_dir.join(format!("{name}.json"));
    fs::write(&path, artifact.to_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    for (key, value) in &metrics {
        println!("{name}: {key} = {value:.6} {}", metrics::unit(key));
    }
    println!(
        "{name}: {} of {} cell runs failed; wrote {}",
        tally.failed,
        tally.attempted,
        path.display()
    );
    Ok(Outcome { tally, metrics })
}

/// Runs every workload in its own child process, one after another, and
/// prints a combined result line.
fn run_children(opts: &Opts) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let (mut attempted, mut failed) = (0.0, 0.0);
    let mut combined = Vec::new();
    for workload in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload.name()])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .arg("--out-dir")
            .arg(&opts.out_dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(trace) = opts.trace {
            cmd.args(["--trace", if trace { "1" } else { "0" }]);
        }
        if opts.smoke {
            cmd.arg("--smoke");
        }
        let output = match cmd.output() {
            Ok(output) => output,
            Err(e) => {
                eprintln!("benchmark: cannot run {}: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        let result = stdout.lines().last().and_then(|l| json::parse(l).ok());
        match (output.status.success(), result) {
            (true, Some(doc)) => {
                let number = |key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0);
                attempted += number("attempted");
                failed += number("failed");
                ok &= doc.get("correct") == Some(&Json::Bool(true));
                for (key, value) in doc.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
                    combined.push((format!("{}.{key}", workload.name()), value.clone()));
                }
            }
            _ => {
                eprintln!("benchmark: {} failed ({})", workload.name(), output.status);
                ok = false;
            }
        }
    }
    println!(
        "{}",
        json::obj(vec![
            ("correct", Json::Bool(ok)),
            ("attempted", json::num(attempted)),
            ("failed", json::num(failed)),
            ("metrics", Json::Obj(combined)),
        ])
        .to_compact()
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = fs::create_dir_all(&opts.out_dir) {
        eprintln!("benchmark: cannot create {}: {e}", opts.out_dir.display());
        return ExitCode::FAILURE;
    }
    let Some(workload) = opts.workload else {
        return run_children(&opts);
    };
    match run_workload(workload, &opts) {
        Ok(outcome) => {
            println!("{}", outcome.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let o = parse_args(&args("--workload virt_walk --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(o.workload, Some(Workload::VirtWalk));
        assert_eq!((o.seed, o.seconds, o.trace), (7, 3.0, Some(true)));
        assert_eq!(parse_args(&[]).unwrap().trace, None);
        for bad in [
            "--workload nope",
            "--seed x",
            "--trace 2",
            "--seconds -1",
            "--seed",
            "--frobnicate",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    fn smoke(workload: Workload) {
        let opts = Opts {
            workload: Some(workload),
            smoke: true,
            seconds: 0.0,
            out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.bench_out/smoke")),
            ..Opts::default()
        };
        fs::create_dir_all(&opts.out_dir).unwrap();
        let outcome = run_workload(workload, &opts).unwrap();
        assert_eq!((outcome.tally.attempted, outcome.tally.failed), (2, 0));
        let names: Vec<&str> = outcome.metrics.iter().map(|(n, _)| *n).collect();
        let expected: Vec<&str> = metrics::END_TO_END
            .iter()
            .chain(&metrics::PER_LAYER)
            .map(|m| m.name)
            .collect();
        assert_eq!(names, expected);
        for (name, value) in &outcome.metrics {
            assert!(value.is_finite(), "{name} = {value}");
        }
        let line = json::parse(&outcome.result_line()).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));

        let read = |file: String| fs::read_to_string(opts.out_dir.join(file)).unwrap();
        let artifact = json::parse(&read(format!("{}.json", workload.name()))).unwrap();
        assert_eq!(eeat_obs::validate(&artifact), Vec::<String>::new());
        let spans = read(format!("{}.trace.json", workload.name()));
        assert_eq!(
            eeat_obs::validate_chrome_trace(&spans),
            Vec::<String>::new()
        );
    }

    #[test]
    fn smoke_matrix_native() {
        smoke(Workload::MatrixNative);
    }

    #[test]
    fn smoke_virt_walk() {
        smoke(Workload::VirtWalk);
    }

    #[test]
    fn smoke_cores_coherence() {
        smoke(Workload::CoresCoherence);
    }

    #[test]
    fn smoke_replay_trace() {
        smoke(Workload::ReplayTrace);
    }
}
