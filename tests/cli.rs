//! End-to-end tests of the `pcmax` CLI binary.

use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};

fn pcmax() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pcmax"))
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("pcmax-cli-tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name)
}

#[test]
fn gen_then_solve_roundtrip() {
    let inst = temp_path("roundtrip.inst");
    let out = pcmax()
        .args([
            "gen", "--seed", "5", "--jobs", "30", "--machines", "6", "--lo", "10", "--hi", "80",
            "-o",
        ])
        .arg(&inst)
        .output()
        .expect("run gen");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = pcmax()
        .arg("solve")
        .arg(&inst)
        .args(["--epsilon", "0.3", "--strategy", "quarter"])
        .output()
        .expect("run solve");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("makespan"), "{stdout}");
    assert!(stdout.contains("target T*"), "{stdout}");
}

#[test]
fn gen_to_stdout_is_parseable() {
    let out = pcmax()
        .args(["gen", "--seed", "3", "--jobs", "12", "--machines", "3"])
        .output()
        .expect("run gen");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let inst = pcmax::core::io::parse_instance(&text).expect("parseable");
    assert_eq!(inst.num_jobs(), 12);
    assert_eq!(inst.machines(), 3);
}

#[test]
fn compare_lists_all_algorithms() {
    let inst = temp_path("compare.inst");
    assert!(pcmax()
        .args(["gen", "--seed", "8", "--jobs", "24", "--machines", "4", "-o"])
        .arg(&inst)
        .status()
        .expect("gen")
        .success());
    let out = pcmax().arg("compare").arg(&inst).output().expect("compare");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in ["list", "LPT", "LPT+local", "MULTIFIT", "PTAS eps=0.3"] {
        assert!(stdout.contains(needle), "missing {needle} in:\n{stdout}");
    }
}

#[test]
fn solve_verbose_shows_rounds() {
    let inst = temp_path("verbose.inst");
    assert!(pcmax()
        .args(["gen", "--seed", "2", "--jobs", "20", "--machines", "5", "-o"])
        .arg(&inst)
        .status()
        .expect("gen")
        .success());
    let out = pcmax()
        .arg("solve")
        .arg(&inst)
        .arg("--verbose")
        .output()
        .expect("solve");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("round  1"), "{stdout}");
    assert!(stdout.contains("loads:"), "{stdout}");
}

#[test]
fn simulate_writes_trace() {
    let inst = temp_path("sim.inst");
    let trace = temp_path("sim-trace.json");
    assert!(pcmax()
        .args(["gen", "--seed", "9", "--jobs", "20", "--machines", "6", "-o"])
        .arg(&inst)
        .status()
        .expect("gen")
        .success());
    let out = pcmax()
        .arg("simulate")
        .arg(&inst)
        .args(["--dim", "4", "--trace"])
        .arg(&trace)
        .output()
        .expect("simulate");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let json = std::fs::read_to_string(&trace).expect("trace written");
    assert!(json.contains("traceEvents"));
}

/// The number after the first `σ = ` in `text`.
fn sigma_after(text: &str) -> u64 {
    let rest = &text[text.find("σ = ").unwrap_or_else(|| panic!("no σ in:\n{text}")) + "σ = ".len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().expect("σ is a number")
}

#[test]
fn simulate_traces_the_largest_table_at_the_requested_epsilon() {
    let inst = temp_path("sim-eps.inst");
    let trace = temp_path("sim-eps-trace.json");
    assert!(pcmax()
        .args(["gen", "--seed", "3", "--jobs", "30", "--machines", "6", "-o"])
        .arg(&inst)
        .status()
        .expect("gen")
        .success());
    let out = pcmax()
        .arg("simulate")
        .arg(&inst)
        .args(["--epsilon", "0.2", "--trace"])
        .arg(&trace)
        .output()
        .expect("simulate");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let reported = sigma_after(&String::from_utf8_lossy(&out.stdout));
    let traced = sigma_after(&String::from_utf8_lossy(&out.stderr));
    assert_eq!(traced, reported, "the trace must be of the largest table probed");
}

/// Runs `cmd` to completion, failing the test if it is still running
/// after `secs` seconds.
fn output_within(cmd: &mut Command, secs: u64) -> Output {
    let child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    wait_within(child, secs, cmd)
}

/// Waits for `child`, spawned from `cmd`, as [`output_within`] does.
fn wait_within(mut child: Child, secs: u64, cmd: &Command) -> Output {
    use std::time::{Duration, Instant};
    let deadline = Instant::now() + Duration::from_secs(secs);
    while child.try_wait().expect("wait").is_none() {
        if Instant::now() >= deadline {
            child.kill().expect("kill");
            panic!("{cmd:?} still running after {secs} s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("output")
}

#[test]
fn a_reader_that_closes_early_ends_the_command_cleanly() {
    let inst = temp_path("pipe.inst");
    std::fs::write(&inst, "3\n12 7 9 14 5 8 11 6 10 13\n").expect("write");
    for args in [["solve", "--verbose"], ["trace", "--json"]] {
        let mut cmd = pcmax();
        cmd.args(args).arg(&inst).stdout(Stdio::piped()).stderr(Stdio::piped());
        let mut child = cmd.spawn().expect("spawn");
        // Close the read end before the command writes its first line.
        drop(child.stdout.take());
        let out = wait_within(child, 60, &cmd);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "`{args:?}`: {stderr}");
        assert!(out.status.success(), "`{args:?}`: {stderr}");
    }
}

#[test]
fn out_of_range_epsilon_is_rejected() {
    let inst = temp_path("eps.inst");
    std::fs::write(&inst, "2\n5 6 7\n").expect("write");
    for (cmd, flag) in [("solve", "--epsilon"), ("trace", "--eps"), ("simulate", "--epsilon")] {
        for eps in ["0", "2"] {
            let out = output_within(pcmax().arg(cmd).arg(&inst).args([flag, eps]), 60);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!out.status.success(), "`{cmd} {flag} {eps}` must fail");
            assert!(!stderr.contains("panicked"), "`{cmd} {flag} {eps}`: {stderr}");
            assert!(stderr.contains("epsilon must be in (0, 1]"), "{stderr}");
        }
    }
}

#[test]
fn out_of_range_gen_flags_are_rejected() {
    let max = u64::MAX.to_string();
    let cases: [(&[&str], &str); 8] = [
        (&["--machines", "0"], "--jobs and --machines must be at least 1"),
        (&["--jobs", "0"], "--jobs and --machines must be at least 1"),
        (&["--lo", "0"], "need 0 < --lo <= --hi"),
        (&["--lo", "50", "--hi", "10"], "need 0 < --lo <= --hi"),
        (&["--family", "bimodal", "--lo", "0"], "need 0 < --lo <= --hi"),
        (&["--family", "nearequal", "--hi", "0"], "nearequal needs --hi of at least 2"),
        (&["--family", "nearequal", "--hi", &max], "no room for the nearequal spread"),
        (&["--jobs", "2", "--hi", &max], "total work exceeds u64::MAX"),
    ];
    for (flags, message) in cases {
        let out = output_within(pcmax().arg("gen").args(flags), 60);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "`gen {flags:?}` must fail");
        assert!(!stderr.contains("panicked"), "`gen {flags:?}`: {stderr}");
        assert!(stderr.starts_with("error: "), "`gen {flags:?}`: {stderr}");
        assert!(stderr.contains(message), "`gen {flags:?}`: {stderr}");
    }
    // The edges just inside the ranges still generate.
    let accepted: [&[&str]; 3] = [
        &["--family", "bimodal", "--lo", "1", "--hi", "1"],
        &["--family", "nonuniform", "--jobs", "1", "--hi", &max],
        &["--family", "nearequal", "--hi", "2"],
    ];
    for flags in accepted {
        let out = output_within(pcmax().arg("gen").args(flags), 60);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "`gen {flags:?}`: {stderr}");
    }
}

#[test]
fn improve_runs_the_descent_and_rejects_ga() {
    let inst = temp_path("improve.inst");
    std::fs::write(&inst, "3\n9 7 6 5 4 4 3 2 2\n").expect("write");
    let out = output_within(pcmax().arg("improve").arg(&inst), 60);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("\"mode\":\"greedy\""), "{stdout}");
    assert!(!stdout.contains("generations"), "{stdout}");

    let out = output_within(pcmax().arg("improve").arg(&inst).args(["--improve", "ga"]), 60);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "`--improve ga` must fail");
    assert!(stderr.contains("off|greedy"), "{stderr}");
}

#[test]
fn bad_inputs_fail_cleanly() {
    // Unknown command.
    let out = pcmax().arg("frobnicate").output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Missing file.
    let out = pcmax().args(["solve", "/nonexistent.inst"]).output().expect("run");
    assert!(!out.status.success());

    // Corrupt instance.
    let bad = temp_path("bad.inst");
    std::fs::write(&bad, "3\n5 x 7\n").expect("write");
    let out = pcmax().arg("solve").arg(&bad).output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad job time"));

    // Bad flag value.
    let inst = temp_path("flags.inst");
    std::fs::write(&inst, "2\n5 6 7\n").expect("write");
    let out = pcmax()
        .arg("solve")
        .arg(&inst)
        .args(["--epsilon", "pi"])
        .output()
        .expect("run");
    assert!(!out.status.success());

    // Unknown engine.
    let out = pcmax()
        .arg("solve")
        .arg(&inst)
        .args(["--engine", "quantum"])
        .output()
        .expect("run");
    assert!(!out.status.success());

    // Unknown flags fail instead of running at a default: a misspelt
    // flag, and flags of removed knobs on the commands that would
    // otherwise bind a port and serve forever.
    let eps_typo = [&inst.to_string_lossy(), "--epsilonn", "0.01"];
    let cases: [(&str, &[&str], &str); 6] = [
        ("solve", &eps_typo, "--epsilonn"),
        ("serve", &["--warmsync", "off"], "--warmsync"),
        ("cluster", &["--warmsync", "off"], "--warmsync"),
        ("audit", &["--bogus", "3"], "--bogus"),
        ("serve", &["--improve", "greedy"], "--improve"),
        ("cluster", &["--improve-budget-us", "5"], "--improve-budget-us"),
    ];
    for (cmd, flags, bad) in cases {
        let out = output_within(pcmax().arg(cmd).args(flags), 60);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "`{cmd} {flags:?}` must fail");
        assert!(stderr.contains(&format!("error: unknown flag {bad}")), "{stderr}");
    }

    // The portfolio has no exact arm (lptrev solves tiny instances).
    let out = output_within(pcmax().args(["serve", "--portfolio", "fixed:exact"]), 60);
    assert!(!out.status.success(), "`serve --portfolio fixed:exact` must fail");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown arm"));

    // The removed benchmark commands are unknown.
    for cmd in ["bench-cluster", "bench-sparse", "store-stats"] {
        let out = output_within(pcmax().arg(cmd), 60);
        assert!(!out.status.success(), "`{cmd}` must fail");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
    }
}

#[test]
fn help_prints_usage() {
    let out = pcmax().arg("--help").output().expect("run");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn nary_strategy_solves_and_bad_variants_fail() {
    let inst = temp_path("nary.inst");
    std::fs::write(&inst, "3\n12 7 9 14 5 8 11 6 10 13\n").expect("write");

    let out = pcmax()
        .arg("solve")
        .arg(&inst)
        .args(["--strategy", "nary8"])
        .output()
        .expect("run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("makespan"));

    for bad in ["nary0", "naryx", "nary", "splits"] {
        let out = pcmax()
            .arg("solve")
            .arg(&inst)
            .args(["--strategy", bad])
            .output()
            .expect("run");
        assert!(!out.status.success(), "strategy `{bad}` should be rejected");
    }
}
