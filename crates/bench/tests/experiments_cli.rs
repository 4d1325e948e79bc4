//! The `experiments` binary's exit status: an unknown id is an error the
//! caller's shell can see, and does not stop the known ids from running.

use std::process::Command;

fn experiments(ids: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(ids)
        .output()
        .expect("run the experiments binary")
}

#[test]
fn a_known_id_exits_zero() {
    let out = experiments(&["T3"]);
    assert!(out.status.success(), "T3 exited {:?}", out.status);
    assert!(!out.stdout.is_empty(), "T3 printed its report");
}

#[test]
fn an_unknown_id_exits_non_zero_after_running_the_known_ones() {
    let out = experiments(&["F2", "no-such-id"]);
    assert!(!out.status.success(), "a bad id must not exit 0");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown experiment id") && err.contains("no-such-id"),
        "stderr names the bad id: {err}"
    );
    assert!(!out.stdout.is_empty(), "F2 still ran");
}
