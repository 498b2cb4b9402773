//! End-to-end tests of the `mbbc` binary itself (argument handling, exit
//! codes, stdin input), using the path Cargo exports for integration tests.

use std::io::Write as _;
use std::process::{Command, Stdio};

fn mbbc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mbbc"))
}

const SRC: &str = "array a[64]\nscalar s  // printed\nfor i = 0, 63\n  s = (s + a[i])\nend for\n";

fn write_temp(name: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("mbbc_test_{name}_{}.loop", std::process::id()));
    std::fs::write(&path, SRC).unwrap();
    path
}

#[test]
fn run_command_succeeds() {
    let p = write_temp("run");
    let out = mbbc().args(["run", p.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("64 iterations"), "{stdout}");
    let _ = std::fs::remove_file(p);
}

#[test]
fn report_with_machine_flag() {
    let p = write_temp("report");
    let out =
        mbbc().args(["report", p.to_str().unwrap(), "--machine", "exemplar"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Exemplar"), "{stdout}");
    let _ = std::fs::remove_file(p);
}

#[test]
fn out_of_range_machine_scale_exits_2() {
    let p = write_temp("scale");
    for machine in ["origin/0", "origin/100000000"] {
        let out =
            mbbc().args(["report", p.to_str().unwrap(), "--machine", machine]).output().unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "{machine}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let _ = std::fs::remove_file(p);
}

#[test]
fn stdin_input_via_dash() {
    let mut child =
        mbbc().args(["run", "-"]).stdin(Stdio::piped()).stdout(Stdio::piped()).spawn().unwrap();
    child.stdin.as_mut().unwrap().write_all(SRC.as_bytes()).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("s = "));
}

#[test]
fn unknown_command_exits_2() {
    let out = mbbc().args(["frobnicate", "x"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn missing_file_exits_5_for_io() {
    let out = mbbc().args(["run", "/nonexistent/prog.loop"]).output().unwrap();
    assert_eq!(out.status.code(), Some(5), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn parse_error_reports_line_and_exits_3() {
    let mut child =
        mbbc().args(["run", "-"]).stdin(Stdio::piped()).stderr(Stdio::piped()).spawn().unwrap();
    child.stdin.as_mut().unwrap().write_all(b"for i = 0, 3\n  nope[i] = 1\nend for\n").unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 2"));
}

#[test]
fn validation_error_exits_4() {
    let mut child =
        mbbc().args(["run", "-"]).stdin(Stdio::piped()).stderr(Stdio::piped()).spawn().unwrap();
    // Parses fine, but the inner loop rebinding `i` fails validation.
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"array a[16]\nfor i = 0, 3\n  for i = 0, 3\n    a[i] = 1\n  end for\nend for\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(4), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("validation"));
}

#[test]
fn trace_stats_command_reports_hierarchy_traffic() {
    let p = write_temp("tstats");
    let out = mbbc().args(["trace-stats", p.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("tlb misses"), "{stdout}");
    let _ = std::fs::remove_file(p);
}

#[test]
fn serve_option_errors_exit_2() {
    let out = mbbc().args(["serve", "--workers", "many"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = mbbc().args(["serve", "--bogus-flag", "1"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn serve_budget_flags_reject_zero_and_garbage() {
    for (flag, value) in [
        ("--request-budget", "0"),
        ("--request-budget", "lots"),
        ("--deadline-ms", "0"),
        ("--deadline-ms", "-5"),
    ] {
        let out = mbbc().args(["serve", flag, value]).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag} {value} should be a usage error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{flag} {value}: {stderr}");
    }
}

#[test]
fn serve_overload_flags_reject_garbage() {
    for (flag, value) in [("--brownout", "1"), ("--brownout", "maybe")] {
        let out = mbbc().args(["serve", flag, value]).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag} {value} should be a usage error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{flag} {value}: {stderr}");
    }
}

#[test]
fn serve_tier_flags_reject_garbage() {
    for (flag, value) in [("--pipeline-depth", "0"), ("--pipeline-depth", "deep")] {
        let out = mbbc().args(["serve", flag, value]).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag} {value} should be a usage error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{flag} {value}: {stderr}");
    }
    // A non-member advertise is a config error caught at bind time,
    // before the listener ever comes up.
    let out = mbbc()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--peers",
            "10.0.0.1:1,10.0.0.2:1",
            "--advertise",
            "10.9.9.9:9",
        ])
        .output()
        .unwrap();
    assert_ne!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--advertise"), "{stderr}");
}

#[test]
fn serve_accepts_tier_flags_and_drains_on_idle() {
    // The advertised name is a member of the peers list, so the tier view
    // builds; the peers never exist, but with no traffic nothing forwards
    // and the idle clock drains the server cleanly.
    let out = mbbc()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--idle-timeout",
            "1",
            "--pipeline-depth",
            "8",
            "--peers",
            "me:1,other:2",
            "--advertise",
            "me:1",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("listening on"), "{stdout}");
}

#[test]
fn serve_accepts_overload_flags_and_drains_on_idle() {
    let out = mbbc()
        .args(["serve", "--addr", "127.0.0.1:0", "--idle-timeout", "1", "--brownout", "on"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("listening on"), "{stdout}");
}

#[test]
fn serve_accepts_budget_flags_and_drains_on_idle() {
    // Ephemeral port + 1 s idle timeout: the server must come up with the
    // budget caps applied and exit 0 once the idle clock fires.
    let out = mbbc()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--idle-timeout",
            "1",
            "--request-budget",
            "4096",
            "--deadline-ms",
            "2000",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("listening on"), "{stdout}");
}

#[test]
fn trace_emits_dinero_lines() {
    let p = write_temp("trace");
    let out = mbbc().args(["trace", p.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let first = stdout.lines().next().unwrap();
    assert!(first.starts_with("r "), "{first}");
    assert_eq!(stdout.lines().count(), 64);
    let _ = std::fs::remove_file(p);
}

#[test]
fn optimize_emit_round_trips() {
    let p = write_temp("opt");
    let out =
        mbbc().args(["optimize", p.to_str().unwrap(), "--emit", "--no-shrink"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("equivalence:      verified"), "{stdout}");
    assert!(stdout.contains("for i = 0, 63"), "{stdout}");
    let _ = std::fs::remove_file(p);
}

#[test]
fn pipeline_replay_refusals_exit_with_their_kind() {
    let p = write_temp("replay");
    let file = p.to_str().unwrap();
    // (args, exit code, stderr fragment)
    let cases: [(&[&str], i32, &str); 5] = [
        (&["optimize", file, "--pipeline", "frob"], 2, "bad --pipeline spec"),
        (&["optimize", file, "--pipeline", "interchange=9:1.0"], 1, "pipeline spec failed"),
        (&["optimize", file, "--search", "--pipeline", "shrink"], 2, "mutually exclusive"),
        (&["optimize", file, "--pipeline", "shrink", "--profile"], 2, "--pipeline"),
        (&["report", file, "--pipeline", "shrink"], 2, "only apply to `optimize`"),
    ];
    for (args, code, fragment) in cases {
        let out = mbbc().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
        assert!(stderr.contains(fragment), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_file(p);
}

#[test]
fn exhaustive_fusion_beyond_its_bound_exits_2() {
    // 13 independent reductions: one nest more than exhaustive fusion takes.
    let mut src = String::from("scalar s = 0  // printed\n");
    for k in 0..13 {
        src += &format!("array a{k}[64]\nfor i{k} = 0, 63\n  s = (s + a{k}[i{k}])\nend for\n");
    }
    let p = std::env::temp_dir().join(format!("mbbc_test_nests13_{}.loop", std::process::id()));
    std::fs::write(&p, src).unwrap();
    let file = p.to_str().unwrap();
    for args in
        [&["optimize", file, "--exhaustive"][..], &["optimize", file, "--search", "--exhaustive"]]
    {
        let out = mbbc().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("at most 12 nests"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_file(p);
}

#[test]
fn trace_out_writes_one_track_named_by_the_kind() {
    use mbb_obs::json::Json;
    let p = write_temp("traceout");
    let file = p.to_str().unwrap();
    let cases: [(&[&str], &str); 5] = [
        (&["report"], "report"),
        (&["advise"], "advise"),
        (&["trace-stats"], "trace-stats"),
        (&["optimize"], "optimize"),
        (&["optimize", "--search"], "optimize-search"),
    ];
    for (command, label) in cases {
        let trace = std::env::temp_dir()
            .join(format!("mbbc_test_trace_{label}_{}.json", std::process::id()));
        let out = mbbc()
            .args([command[0], file])
            .args(&command[1..])
            .args(["--trace-out", trace.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(out.status.success(), "{command:?}: {}", String::from_utf8_lossy(&out.stderr));
        let doc = Json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let Some(Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("{command:?}: no traceEvents array");
        };
        let tracks: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .map(|e| e.get("args").and_then(|a| a.get("name")).and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(tracks, [label], "{command:?}");
        // Every span lands on that one track.
        assert!(events.iter().all(|e| e.get("tid").and_then(Json::as_f64) == Some(1.0)));
        assert!(events.len() > 1, "{command:?}: no spans recorded");
        let _ = std::fs::remove_file(trace);
    }
    let _ = std::fs::remove_file(p);
}
