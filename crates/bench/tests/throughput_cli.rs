//! The `throughput` binary's exit status when its reader goes away early:
//! `throughput | head -1` is a reader that is done, not a failure.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::SystemTime;

#[test]
fn stdout_closed_after_the_first_line_exits_zero_with_the_file_written() {
    let file = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_engine.json");
    let start = SystemTime::now();
    let mut child = Command::new(env!("CARGO_BIN_EXE_throughput"))
        .stdout(Stdio::piped())
        .spawn()
        .expect("run the throughput binary");
    let mut first = String::new();
    let stdout = child.stdout.take().expect("stdout is piped");
    BufReader::new(stdout)
        .read_line(&mut first)
        .expect("read the first line");
    // The reader (and with it the pipe's read end) is gone: every later
    // write fails with a broken pipe.
    let status = child.wait().expect("wait for the throughput binary");
    assert_eq!(first.trim_end(), format!("wrote {file}"));
    assert!(status.success(), "a closed stdout exited {status:?}");
    let written = std::fs::metadata(file).and_then(|m| m.modified());
    assert!(
        written.expect("the file exists") >= start,
        "the file was written by this run"
    );
}
