//! `eeat` — command-line front end to the simulator.
//!
//! ```text
//! eeat list
//! eeat run --workload mcf --config rmm_lite [--instructions N] [--seed S] [--breakdown]
//! eeat compare --workload mcf [--instructions N] [--seed S]
//! eeat replay --trace FILE --config thp [--seed S] [--breakdown]
//! eeat --help
//! ```
//!
//! Every report goes to stdout through one fallible writer: when the reader
//! closes the pipe early (`eeat run … | head -1`) the command stops quietly
//! instead of panicking.

use std::io::{self, Write};
use std::process::ExitCode;

use eeat::core::{Config, RunResult, Simulator};
use eeat::workloads::Workload;

const USAGE: &str = "usage: eeat <list|run|compare|replay|help> [--workload W] [--config C] \
                     [--trace FILE] [--instructions N] [--seed S] [--breakdown]";

/// A command's outcome: bad input as a message, or the `io::Error` of a
/// report write (a closed pipe among them).
type Outcome = Result<(), Box<dyn std::error::Error>>;

/// Every named configuration: the organization registry plus the
/// extension configs that ride outside it.
fn config_catalog() -> Vec<Config> {
    let mut named = Config::all_registered().to_vec();
    named.extend([Config::tlb_pred(), Config::fa_thp(), Config::fa_lite()]);
    named
}

fn config_by_name(name: &str) -> Option<Config> {
    config_catalog().into_iter().find(|c| {
        c.name.eq_ignore_ascii_case(name) || c.name.replace('_', "-").eq_ignore_ascii_case(name)
    })
}

struct Args {
    workload: Option<Workload>,
    config: Option<Config>,
    trace: Option<String>,
    instructions: u64,
    seed: u64,
    breakdown: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        config: None,
        trace: None,
        instructions: 10_000_000,
        seed: 42,
        breakdown: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" | "-w" => {
                let name = it.next().ok_or("--workload needs a value")?;
                parsed.workload = Some(
                    Workload::by_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--config" | "-c" => {
                let name = it.next().ok_or("--config needs a value")?;
                parsed.config =
                    Some(config_by_name(name).ok_or_else(|| format!("unknown config {name}"))?);
            }
            "--instructions" | "-n" => {
                let v = it.next().ok_or("--instructions needs a value")?;
                parsed.instructions = v
                    .replace('_', "")
                    .parse()
                    .map_err(|_| format!("bad instruction count {v}"))?;
                if parsed.instructions == 0 {
                    return Err("--instructions must be at least 1".to_string());
                }
            }
            "--seed" | "-s" => {
                let v = it.next().ok_or("--seed needs a value")?;
                parsed.seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
            }
            "--trace" | "-t" => {
                parsed.trace = Some(it.next().ok_or("--trace needs a value")?.clone());
            }
            "--breakdown" | "-b" => parsed.breakdown = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(parsed)
}

fn cmd_list(out: &mut impl Write) -> Outcome {
    writeln!(out, "workloads (TLB-intensive set first):")?;
    for w in Workload::all() {
        let spec = w.spec();
        writeln!(
            out,
            "  {:<14} {:>6} MiB  {:>3} VMAs  [{}]",
            w.name(),
            spec.footprint_bytes() >> 20,
            spec.vma_count(),
            w.suite()
        )?;
    }
    let names: Vec<&str> = config_catalog().iter().map(|c| c.name).collect();
    writeln!(out, "\nconfigs: {}", names.join(" "))?;
    Ok(())
}

/// The stats, miss-cycle and dynamic-energy lines of one run.
fn write_result(out: &mut impl Write, r: &RunResult) -> io::Result<()> {
    writeln!(out, "{}", r.stats)?;
    writeln!(out, "{}", r.cycles)?;
    writeln!(
        out,
        "dynamic energy: {:.3} uJ ({:.2} pJ/op)",
        r.energy.total_pj() / 1e6,
        r.energy.total_pj() / r.stats.accesses as f64
    )
}

fn cmd_run(argv: &[String], out: &mut impl Write) -> Outcome {
    let args = parse_args(argv)?;
    let workload = args.workload.ok_or("run needs --workload")?;
    let config = args.config.ok_or("run needs --config")?;
    writeln!(out, "{config}")?;
    let mut sim = Simulator::from_workload(config, workload, args.seed);
    let r = sim.run(args.instructions);
    write_result(out, &r)?;
    if let Some(lite) = sim.lite() {
        writeln!(out, "{lite}")?;
    }
    if let Some(p) = sim.predictor() {
        writeln!(out, "{p}")?;
    }
    if args.breakdown {
        writeln!(out, "{}", r.energy)?;
    }
    Ok(())
}

fn cmd_compare(argv: &[String], out: &mut impl Write) -> Outcome {
    let args = parse_args(argv)?;
    let workload = args.workload.ok_or("compare needs --workload")?;
    writeln!(
        out,
        "{workload}: {} instructions, seed {}\n",
        args.instructions, args.seed
    )?;
    writeln!(
        out,
        "{:<9}  {:>8}  {:>8}  {:>11}  {:>12}  {:>10}",
        "config", "L1 MPKI", "L2 MPKI", "energy (uJ)", "miss cycles", "vs 4KB"
    )?;
    let mut baseline = None;
    for config in Config::all_registered() {
        let name = config.name;
        let mut sim = Simulator::from_workload(config, workload, args.seed);
        let r = sim.run(args.instructions);
        let energy = r.energy.total_pj();
        let base = *baseline.get_or_insert(energy);
        writeln!(
            out,
            "{name:<9}  {:>8.2}  {:>8.2}  {:>11.2}  {:>12}  {:>9.2}x",
            r.stats.l1_mpki(),
            r.stats.l2_mpki(),
            energy / 1e6,
            r.cycles.total(),
            energy / base
        )?;
    }
    Ok(())
}

fn cmd_replay(argv: &[String], out: &mut impl Write) -> Outcome {
    use eeat::workloads::trace_file;
    let args = parse_args(argv)?;
    let path = args.trace.ok_or("replay needs --trace")?;
    let config = args.config.unwrap_or_else(Config::thp);
    let file = std::fs::File::open(&path).map_err(|e| format!("open {path}: {e}"))?;
    let accesses =
        trace_file::read_trace(std::io::BufReader::new(file)).map_err(|e| e.to_string())?;
    if accesses.is_empty() {
        return Err("trace is empty".into());
    }
    let one_pass: u64 = accesses.iter().map(|a| u64::from(a.instructions())).sum();
    writeln!(
        out,
        "{}: {} accesses, {} instructions per pass",
        path,
        accesses.len(),
        one_pass
    )?;
    writeln!(out, "{config}")?;
    let mut sim = Simulator::from_trace(config, accesses, args.seed);
    let r = sim.run(one_pass);
    write_result(out, &r)?;
    if args.breakdown {
        writeln!(out, "{}", r.energy)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let stdout = io::stdout();
    let mut out = stdout.lock();
    let result = match command.as_str() {
        "help" | "--help" | "-h" => writeln!(out, "{USAGE}").map_err(Into::into),
        "list" => cmd_list(&mut out),
        "run" => cmd_run(&argv[1..], &mut out),
        "compare" => cmd_compare(&argv[1..], &mut out),
        "replay" => cmd_replay(&argv[1..], &mut out),
        other => Err(format!("unknown command {other}\n{USAGE}").into()),
    };
    match result.and_then(|()| Ok(out.flush()?)) {
        Ok(()) => ExitCode::SUCCESS,
        // A reader that stopped early (`| head`) is not a failure.
        Err(e)
            if e.downcast_ref::<io::Error>()
                .is_some_and(|e| e.kind() == io::ErrorKind::BrokenPipe) =>
        {
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
