//! The `tables` binary's command line.

use std::process::Command;

#[test]
fn unknown_key_exits_nonzero_and_lists_the_valid_keys() {
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(["t1", "nosuch"])
        .output()
        .expect("tables runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing runs before the keys check");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`nosuch`"), "{stderr}");
    for key in ["t1", "t8", "f3", "stats-json"] {
        assert!(stderr.contains(key), "{key} not listed: {stderr}");
    }
}
