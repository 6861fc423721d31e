//! Process-level check that every experiment binary parses the shared
//! global flags: a bad `--threads` value is a usage error (exit 2) before
//! any experiment work starts.

use std::process::Command;

#[test]
fn fig3_rejects_zero_threads() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig3"))
        .args(["--threads", "0"])
        .output()
        .expect("fig3 binary runs");
    assert_eq!(out.status.code(), Some(2), "stderr: {:?}", out.stderr);
    assert!(
        out.stdout.is_empty(),
        "fig3 ran its experiment despite the usage error"
    );
}
