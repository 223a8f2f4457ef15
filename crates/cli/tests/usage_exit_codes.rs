//! Exit codes of the `dramdig` binary on its error paths: a malformed
//! command line exits 2 and prints the usage text; a well-formed command
//! that fails (an address beyond the module) exits 1 without it.

use std::process::{Command, Output};

fn dramdig(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dramdig"))
        .args(args)
        .output()
        .unwrap()
}

#[test]
fn malformed_command_lines_exit_2_with_usage() {
    for (line, reason) in [
        (
            &["uncover", "--machine", "4", "--chekpoint", "d"][..],
            "unknown flag `--chekpoint`",
        ),
        (
            &[
                "decode",
                "--machine",
                "4",
                "--addr",
                "0x10",
                "--addr",
                "0x20",
            ],
            "`--addr` is given twice",
        ),
        (
            &["uncover", "--machine", "4", "--checkpoint", "--resume"],
            "`--checkpoint` requires a value, not the flag `--resume`",
        ),
        (
            &["eval", "--grid", "big"],
            "unknown --grid `big` (expected quick, ci or full)",
        ),
        (&["uncover", "--machine", "260"], "expected 1..=9"),
    ] {
        let output = dramdig(line);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{line:?}: {stderr}");
        assert!(stderr.contains(reason), "{line:?}: {stderr}");
        assert!(stderr.contains("USAGE:"), "{line:?}: {stderr}");
        assert!(output.stdout.is_empty(), "{line:?}");
    }
}

#[test]
fn an_address_beyond_the_module_exits_1_without_usage() {
    let output = dramdig(&["decode", "--machine", "4", "--addr", "0xffffffffffff"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("is beyond the"), "{stderr}");
    assert!(!stderr.contains("USAGE:"), "{stderr}");
}
