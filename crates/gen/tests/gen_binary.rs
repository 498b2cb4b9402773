//! The `gen` binary's command line: each subcommand takes only its own
//! flags, an unknown one is a usage error (exit 2) that names it, and the
//! replay command a generated program prints runs as printed.

use std::process::{Command, Output};

fn gen(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gen")).args(args).output().expect("gen runs")
}

#[test]
fn an_unknown_flag_exits_2_and_names_it() {
    for (args, flag) in [
        (&["one", "--bogus", "7"][..], "--bogus"),
        (&["fuzz", "--iter", "3"][..], "--iter"),
        (&["one", "--iters", "3"][..], "--iters"),
        (&["fuzz", "--full"][..], "--full"),
        (&["replay", "--count", "3"][..], "--count"),
    ] {
        let out = gen(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(&format!("unknown flag `{flag}`")), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}

#[test]
fn the_printed_replay_command_runs() {
    let out = gen(&["one", "--template", "chain", "--seed", "42", "--scale", "1"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let replay = stdout
        .lines()
        .find_map(|l| l.strip_prefix("// replay: gen "))
        .unwrap_or_else(|| panic!("no replay line in:\n{stdout}"));
    let args: Vec<&str> = replay.split_whitespace().collect();
    let out = gen(&args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{replay}: {stdout}");
    assert!(stdout.contains("case passes"), "{stdout}");
}
