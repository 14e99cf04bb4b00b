//! End-to-end tests of the `rchaos` durability harness binary: the
//! gen → prove → check loop, crash injection in both modes (typed error
//! and real process abort), resume-to-identical-bytes, fault injection
//! with checker rejection, and the randomized workload driver.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("rchaos-test-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&p);
    p
}

fn rchaos(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rchaos"))
        .args(args)
        .output()
        .expect("binary launches")
}

fn gen_prove(dir: &Path, pair: &str, width: &str) {
    let dir_flag = format!("--dir={}", dir.display());
    let out = rchaos(&[
        "gen",
        &dir_flag,
        &format!("--pair={pair}"),
        &format!("--width={width}"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let out = rchaos(&["prove", &dir_flag]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("EQUIVALENT"));
}

#[test]
fn gen_prove_check_loop_is_clean() {
    let dir = tmp("loop");
    gen_prove(&dir, "adder", "4");
    let dir_flag = format!("--dir={}", dir.display());
    let out = rchaos(&["check", &dir_flag]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("0 errors"));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_artifacts_are_rejected_with_stable_codes() {
    let dir = tmp("corrupt");
    gen_prove(&dir, "parity", "6");
    let dir_flag = format!("--dir={}", dir.display());
    for (artifact, mode) in [
        ("proof.tc", "flip"),
        ("miter.cnf", "multiflip"),
        ("run.journal", "truncate"),
        ("a.aag", "flip"),
    ] {
        let original = fs::read(dir.join(artifact)).unwrap();
        let out = rchaos(&[
            "corrupt",
            &dir_flag,
            &format!("--artifact={artifact}"),
            &format!("--mode={mode}"),
            "--seed=5",
        ]);
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        let out = rchaos(&["check", &dir_flag, "--json"]);
        assert_eq!(out.status.code(), Some(1), "{artifact}/{mode}: {out:?}");
        let json = String::from_utf8_lossy(&out.stdout);
        assert!(json.contains("XB010"), "{artifact}/{mode}: {json}");
        fs::write(dir.join(artifact), original).unwrap();
    }
    // Restored bundle is clean again.
    let out = rchaos(&["check", &dir_flag]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crash_and_resume_reproduce_the_uninterrupted_bytes() {
    let base = tmp("crash-base");
    let crashed = tmp("crash-hit");
    gen_prove(&base, "popcount", "6");

    let dir_flag = format!("--dir={}", crashed.display());
    let out = rchaos(&["gen", &dir_flag, "--pair=popcount", "--width=6"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let out = rchaos(&["prove", &dir_flag, "--crash=sweep"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("injected crash"),
        "{out:?}"
    );
    let out = rchaos(&["prove", &dir_flag, "--resume"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    for artifact in ["proof.tc", "run.journal", "manifest.json"] {
        assert_eq!(
            fs::read(base.join(artifact)).unwrap(),
            fs::read(crashed.join(artifact)).unwrap(),
            "{artifact} differs after crash+resume"
        );
    }
    let out = rchaos(&["check", &dir_flag]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    fs::remove_dir_all(&base).unwrap();
    fs::remove_dir_all(&crashed).unwrap();
}

#[test]
fn crash_specs_outside_the_phase_list_are_usage_errors() {
    // `round` was the round engine's per-round checkpoint, and no phase
    // checkpoints twice, so a `PHASE:HIT` count is meaningless.
    let dir = tmp("crash-spec");
    let dir_flag = format!("--dir={}", dir.display());
    let out = rchaos(&["gen", &dir_flag, "--pair=adder", "--width=4"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    for spec in ["--crash=round", "--crash=sweep:2", "--abort-at=round:3"] {
        let out = rchaos(&["prove", &dir_flag, spec]);
        assert_eq!(out.status.code(), Some(2), "{spec}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("expected one of miter, sim, sweep, final_solve, trim"),
            "{spec}: {err}"
        );
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn kill_nine_mid_sweep_leaves_a_resumable_journal() {
    let base = tmp("abort-base");
    let aborted = tmp("abort-hit");
    gen_prove(&base, "comparator", "5");

    let dir_flag = format!("--dir={}", aborted.display());
    let out = rchaos(&["gen", &dir_flag, "--pair=comparator", "--width=5"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    // --abort-at dies via process::abort — no exit code, a real SIGABRT.
    let out = rchaos(&["prove", &dir_flag, "--abort-at=sim"]);
    assert!(!out.status.success(), "{out:?}");
    assert_ne!(out.status.code(), Some(1), "{out:?}");
    assert_ne!(out.status.code(), Some(2), "{out:?}");

    // The synced journal survives the kill and resumes to the same bytes.
    let out = rchaos(&["prove", &dir_flag, "--resume"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    for artifact in ["proof.tc", "run.journal"] {
        assert_eq!(
            fs::read(base.join(artifact)).unwrap(),
            fs::read(aborted.join(artifact)).unwrap(),
            "{artifact} differs after abort+resume"
        );
    }
    fs::remove_dir_all(&base).unwrap();
    fs::remove_dir_all(&aborted).unwrap();
}

#[test]
fn workload_run_is_clean_and_reports_counts() {
    let dir = tmp("run");
    let dir_flag = format!("--dir={}", dir.display());
    let out = rchaos(&["run", &dir_flag, "--ops=2", "--seed=3", "--crash-every=2"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("2 ops"), "{text}");
    assert!(text.contains("0 failures"), "{text}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn usage_errors_exit_two() {
    for args in [
        &["prove"][..],
        &["warp", "--dir=/tmp/x"][..],
        &[
            "corrupt",
            "--dir=/tmp/x",
            "--artifact=evil.bin",
            "--mode=flip",
        ][..],
        &["prove", "--dir=/nonexistent-rchaos"][..],
    ] {
        let out = rchaos(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    }
}

#[test]
fn rplint_lints_journals_and_lists_the_jn_family() {
    let dir = tmp("rplint");
    gen_prove(&dir, "adder", "3");
    let journal = dir.join("run.journal");
    let out = Command::new(env!("CARGO_BIN_EXE_rplint"))
        .arg(journal.to_str().unwrap())
        .output()
        .expect("binary launches");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("journal: 0 errors"),
        "{out:?}"
    );

    // Mid-file damage flips the exit code and names a JN code.
    let text = fs::read_to_string(&journal).unwrap();
    let damaged = text.replacen("checkpoint", "checkpoinX", 1);
    fs::write(&journal, damaged).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_rplint"))
        .arg(journal.to_str().unwrap())
        .output()
        .expect("binary launches");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("JN002"),
        "{out:?}"
    );

    let out = Command::new(env!("CARGO_BIN_EXE_rplint"))
        .arg("--list")
        .output()
        .expect("binary launches");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("JN — durability run-state journals"),
        "{text}"
    );
    assert!(text.contains("JN005"), "{text}");
    fs::remove_dir_all(&dir).unwrap();
}
