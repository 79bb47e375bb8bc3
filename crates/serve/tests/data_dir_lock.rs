//! The data-directory lock across real processes: a second `gf-serve` on
//! a directory another one serves must fail its boot.
//!
//! Its own test binary on purpose: between fork and exec a child holds
//! every descriptor of the test process, so an in-process sibling that
//! releases a data-directory lock and re-boots could find it still held.

use std::fs;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gf-lock-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn a_second_server_process_on_a_data_dir_fails_its_boot() {
    let dir = tmpdir("lock-procs");
    let serve = |dir: &Path| {
        Command::new(env!("CARGO_BIN_EXE_gf-serve"))
            .args(["--addr", "127.0.0.1", "--port", "0", "--synth", "40x10"])
            .args(["--data-dir", dir.to_str().unwrap()])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap()
    };
    let mut first = serve(&dir);
    let mut stdout = BufReader::new(first.stdout.take().unwrap());
    let mut line = String::new();
    while !line.contains("listening on") {
        line.clear();
        assert!(
            stdout.read_line(&mut line).unwrap() > 0,
            "first server exited"
        );
    }
    let second = serve(&dir).wait_with_output().unwrap();
    let _ = first.kill();
    let _ = first.wait();
    assert!(!second.status.success(), "second server must not boot");
    let stderr = String::from_utf8_lossy(&second.stderr);
    assert!(stderr.contains("LOCK"), "{stderr}");
    assert!(stderr.contains("another process"), "{stderr}");
    fs::remove_dir_all(&dir).unwrap();
}
