//! The `eeat` command-line front end, driven as a subprocess: help output,
//! budget validation, trace validation, the compare header, and a reader
//! that closes the pipe early.

use std::io::{BufRead, BufReader};
use std::process::{Command, Output, Stdio};

fn eeat(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_eeat"))
        .args(args)
        .output()
        .expect("eeat runs")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn help_prints_usage_to_stdout_and_succeeds() {
    for flag in ["--help", "-h", "help"] {
        let output = eeat(&[flag]);
        assert!(output.status.success(), "{flag}: {}", stderr(&output));
        assert!(
            stdout(&output).starts_with("usage: eeat"),
            "{flag}: {}",
            stdout(&output)
        );
        assert_eq!(stderr(&output), "", "{flag}");
    }
}

#[test]
fn zero_instruction_budget_is_rejected() {
    for args in [
        &["run", "-w", "mcf", "-c", "thp", "-n", "0"][..],
        &["compare", "-w", "mcf", "-n", "0"][..],
    ] {
        let output = eeat(args);
        assert_eq!(output.status.code(), Some(1), "{args:?}");
        assert!(stderr(&output).contains("--instructions"), "{args:?}");
        assert_eq!(stdout(&output), "", "{args:?} printed a report");
    }
}

#[test]
fn trace_address_beyond_the_page_table_is_rejected() {
    // The two addresses differ only above bit 47, which the 4-level page
    // table cannot tell apart.
    let path = std::env::temp_dir().join(format!("eeat-cli-{}.trace", std::process::id()));
    std::fs::write(&path, "L 1000 1\nL 1000000001000 1\n").expect("trace written");
    let output = eeat(&["replay", "--trace", path.to_str().unwrap(), "-c", "4kb"]);
    std::fs::remove_file(&path).expect("trace removed");
    assert_eq!(output.status.code(), Some(1), "{}", stderr(&output));
    assert!(stderr(&output).contains("line 2"), "{}", stderr(&output));
    assert!(!stderr(&output).contains("panicked"));
}

#[test]
fn compare_reports_the_real_budget() {
    let output = eeat(&["compare", "-w", "mcf", "-n", "300000"]);
    assert!(output.status.success(), "{}", stderr(&output));
    let report = stdout(&output);
    let header = report.lines().next().expect("a header line");
    assert!(header.contains("300000 instructions"), "{header}");
}

#[test]
fn closed_pipe_ends_the_report_quietly() {
    for args in [
        &["run", "-w", "mcf", "-c", "thp", "-n", "300000"][..],
        &["compare", "-w", "mcf", "-n", "300000"][..],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_eeat"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("eeat starts");
        // Read the first line, then close the pipe while the simulation
        // still has lines to write (what `| head -1` does).
        let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut first = String::new();
        reader.read_line(&mut first).expect("first line");
        drop(reader);
        let output = child.wait_with_output().expect("eeat exits");
        assert!(
            output.status.success(),
            "{args:?}: {:?} {}",
            output.status,
            stderr(&output)
        );
        assert!(!stderr(&output).contains("panicked"), "{args:?}");
    }
}
