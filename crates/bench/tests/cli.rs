//! `pciebench_cli` rejects bad input with exit code 2 and a message,
//! never with a panic (exit code 101).

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pciebench_cli"))
        .args(args)
        .env_remove("PCIE_BENCH_BER")
        .output()
        .expect("spawn pciebench_cli")
}

#[test]
fn bad_input_exits_2() {
    for args in [
        &["LAT_RD", "--path", "cmdif", "--size", "256"][..],
        &["BW_RD", "--path", "cmdif", "--size", "256"],
        &["LAT_RD", "--system", "netfpga-hsw", "--path", "cmdif"],
        &["LAT_RD", "--window", "2048m"],
        &["LAT_RD", "--window", "1048576m"],
        &["LAT_RD", "--window", "99999999999999m"],
        &["LAT_RD", "--no-such-flag"],
    ] {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(!stderr.trim().is_empty(), "{args:?}: no message");
    }
}

#[test]
fn small_command_interface_read_runs() {
    let out = run(&["LAT_RD", "--path", "cmdif", "--size", "64", "--count", "10"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("n=10"));
}
