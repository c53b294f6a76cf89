//! Runs each workload at a tiny length and checks the printed result:
//! every metric named in `BENCHMARK.json` appears with its unit, the
//! answers all passed their checks, and the run left no files behind.

use solvebench::layers::PER_LAYER;
use solvebench::END_TO_END;
use std::path::Path;
use std::process::Command;

fn run(workload: &str, trace: u8) -> (String, std::process::ExitStatus) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_solvebench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert!(
        !dir.join(solvebench::env::RUN_DIR).exists(),
        "the run directory must be removed on exit"
    );
    (String::from_utf8(out.stdout).unwrap(), out.status)
}

/// The unit printed for `name` in the result line, if present.
fn unit_of<'a>(json: &'a str, name: &str) -> Option<&'a str> {
    let at = json.find(&format!("\"{name}\": {{\"value\": "))?;
    let rest = &json[at..];
    let unit = rest.find("\"unit\": \"")? + "\"unit\": \"".len();
    let end = rest[unit..].find('"')?;
    Some(&rest[unit..unit + end])
}

fn assert_reports(workload: &str, trace: u8, metrics: &[(&str, &str)]) -> String {
    let (stdout, status) = run(workload, trace);
    assert!(
        status.success(),
        "{workload} trace={trace} failed:\n{stdout}"
    );
    let last = stdout.lines().last().unwrap();
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "bad result line: {last}"
    );
    assert!(last.contains("\"failed\": 0,"), "failures: {last}");
    for (name, unit) in metrics {
        assert_eq!(unit_of(last, name), Some(*unit), "{name} in {last}");
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(name) && l.ends_with(unit)),
            "{name} missing from the printed table"
        );
    }
    let printed = last.matches("\"value\": ").count();
    assert_eq!(printed, metrics.len(), "unexpected extra metrics: {last}");
    assert!(stdout.starts_with("# solvebench workload="));
    assert!(stdout.contains(" nproc=") && stdout.contains(" store_fs="));
    stdout
}

#[test]
fn dp_dense_prints_every_end_to_end_metric() {
    let stdout = assert_reports("dp-dense", 0, END_TO_END);
    assert!(
        stdout.contains("# latency_p99_ms: "),
        "the tail must be printed"
    );
    assert!(stdout.contains("# failed_frac: 0 (ratio)"));
    assert!(stdout.contains("# degraded_frac: 0 (ratio)"));
}

#[test]
fn path_hot_prints_every_end_to_end_metric() {
    let stdout = assert_reports("path-hot", 0, END_TO_END);
    assert!(
        stdout.contains("# latency_p99_ms: "),
        "the tail must be printed"
    );
    assert!(stdout.contains("offered_rps=2000"));
}

#[test]
fn dp_dense_traced_prints_every_layer_metric() {
    assert_reports("dp-dense", 1, PER_LAYER);
}

#[test]
fn path_hot_traced_prints_every_layer_metric() {
    assert_reports("path-hot", 1, PER_LAYER);
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_solvebench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let spec =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .unwrap();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        spec.matches("\"name\": ").count(),
        END_TO_END.len() + PER_LAYER.len() + solvebench::workloads::Workload::ALL.len()
    );
    for w in solvebench::workloads::Workload::ALL {
        assert!(spec.contains(&format!("\"name\": \"{}\"", w.name())));
    }
}
