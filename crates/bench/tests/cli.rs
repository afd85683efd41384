//! `pciebench_cli`, and the `ext_rpc` and `ext_drivers` selectors,
//! reject bad input with exit code 2 and a message, never with a panic
//! (exit code 101).

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pciebench_cli"))
        .args(args)
        .env_remove("PCIE_BENCH_BER")
        .output()
        .expect("spawn pciebench_cli")
}

fn assert_exits_2(what: &str, out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
    assert!(!stderr.contains("panicked"), "{what}: {stderr}");
    assert!(!stderr.trim().is_empty(), "{what}: no message");
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
        assert_exits_2(&format!("{args:?}"), &run(args));
    }
}

#[test]
fn unknown_selectors_exit_2() {
    let rpc = env!("CARGO_BIN_EXE_ext_rpc");
    let drivers = env!("CARGO_BIN_EXE_ext_drivers");
    for (bin, args, env) in [
        (rpc, &["--path", "bogus"][..], None),
        (rpc, &[], Some(("PCIE_BENCH_RPC_PATH", "bogus"))),
        (drivers, &[], Some(("PCIE_BENCH_DRIVER", "bogus"))),
    ] {
        let mut cmd = Command::new(bin);
        cmd.args(args).env_remove("PCIE_BENCH_RPC_PATH");
        if let Some((k, v)) = env {
            cmd.env(k, v);
        }
        let out = cmd.output().expect("spawn");
        assert_exits_2(&format!("{bin} {args:?} {env:?}"), &out);
    }
}

#[test]
fn small_command_interface_read_runs() {
    let out = run(&["LAT_RD", "--path", "cmdif", "--size", "64", "--count", "10"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("n=10"));
}
