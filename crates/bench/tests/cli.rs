//! `pciebench_cli`, the `ext_rpc` and `ext_drivers` selectors and the
//! binaries' environment knobs reject bad input with exit code 2 and a
//! message, never with a panic (exit code 101) or by running with a
//! default instead. A `PCIE_BENCH_N` that scales `ext_rpc` or
//! `ext_flows` below the smallest run their checks need is bad input
//! too.

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

/// Every knob a case below sets, cleared first so the caller's
/// environment cannot mask a case.
const KNOBS: [&str; 7] = [
    "PCIE_BENCH_QUEUES",
    "PCIE_BENCH_FLOWS",
    "PCIE_BENCH_N",
    "PCIE_BENCH_SUITE",
    "PCIE_BENCH_SYSTEM",
    "PCIE_BENCH_BER",
    "PCIE_BENCH_RPC_PATH",
];

#[test]
fn bad_knobs_exit_2_naming_the_variable() {
    let rpc = env!("CARGO_BIN_EXE_ext_rpc");
    let flows = env!("CARGO_BIN_EXE_ext_flows");
    let suite = env!("CARGO_BIN_EXE_suite");
    let cli = env!("CARGO_BIN_EXE_pciebench_cli");
    for (bin, args, (var, value)) in [
        (rpc, &["--quick"][..], ("PCIE_BENCH_QUEUES", "0")),
        (rpc, &["--quick"], ("PCIE_BENCH_QUEUES", "257")),
        (rpc, &["--quick"], ("PCIE_BENCH_QUEUES", "abc")),
        (rpc, &["--quick"], ("PCIE_BENCH_N", "abc")),
        (rpc, &["--quick"], ("PCIE_BENCH_N", "inf")),
        (rpc, &["--quick"], ("PCIE_BENCH_N", "NaN")),
        (rpc, &["--quick"], ("PCIE_BENCH_N", "0")),
        (rpc, &["--quick"], ("PCIE_BENCH_N", "-1")),
        (rpc, &["--quick"], ("PCIE_BENCH_N", "1e30")),
        (rpc, &["--quick"], ("PCIE_BENCH_N", "0.001")),
        (rpc, &["--quick"], ("PCIE_BENCH_N", "0.1")),
        (rpc, &[], ("PCIE_BENCH_N", "0.01")),
        (flows, &["--quick"], ("PCIE_BENCH_QUEUES", "0")),
        (flows, &["--quick"], ("PCIE_BENCH_QUEUES", "abc")),
        (flows, &["--quick"], ("PCIE_BENCH_FLOWS", "0")),
        (flows, &["--quick"], ("PCIE_BENCH_FLOWS", "abc")),
        (flows, &["--quick"], ("PCIE_BENCH_N", "0.001")),
        (flows, &["--quick"], ("PCIE_BENCH_N", "0.05")),
        (flows, &[], ("PCIE_BENCH_QUEUES", "1")),
        (flows, &[], ("PCIE_BENCH_QUEUES", "2")),
        (flows, &[], ("PCIE_BENCH_QUEUES", "3")),
        (flows, &[], ("PCIE_BENCH_FLOWS", "999999")),
        (suite, &[], ("PCIE_BENCH_SUITE", "bogus")),
        (suite, &[], ("PCIE_BENCH_SYSTEM", "bogus")),
        (cli, &["LAT_RD"], ("PCIE_BENCH_BER", "abc")),
        (cli, &["LAT_RD"], ("PCIE_BENCH_BER", "2")),
    ] {
        let mut cmd = Command::new(bin);
        cmd.args(args);
        for k in KNOBS {
            cmd.env_remove(k);
        }
        let out = cmd.env(var, value).output().expect("spawn");
        let what = format!("{var}={value} {bin} {args:?}");
        assert_exits_2(&what, &out);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(var),
            "{what}: message must name {var}: {stderr}"
        );
    }
}

/// An unknown system lists the names that are accepted, whichever way
/// it was given, and a rate out of range set by the flag names the
/// flag.
#[test]
fn knob_errors_name_their_source() {
    let suite = env!("CARGO_BIN_EXE_suite");
    let mut cmd = Command::new(suite);
    for k in KNOBS {
        cmd.env_remove(k);
    }
    let from_env = cmd
        .env("PCIE_BENCH_SYSTEM", "bogus")
        .output()
        .expect("spawn suite");
    for (what, out, source) in [
        (
            "PCIE_BENCH_SYSTEM=bogus suite",
            from_env,
            "PCIE_BENCH_SYSTEM",
        ),
        (
            "pciebench_cli --system bogus",
            run(&["LAT_RD", "--system", "bogus"]),
            "--system",
        ),
    ] {
        assert_exits_2(what, &out);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(source), "{what}: names {source}: {stderr}");
        for name in ["nfp6000-hsw", "netfpga-hsw", "nfp6000-ib"] {
            assert!(stderr.contains(name), "{what}: lists {name}: {stderr}");
        }
    }
    let out = run(&["LAT_RD", "--ber", "2"]);
    assert_exits_2("--ber 2", &out);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--ber") && !stderr.contains("PCIE_BENCH_BER"),
        "--ber 2 names the flag: {stderr}"
    );
}

/// A run too small for `ext_rpc`'s or `ext_flows`' asserted checks
/// names the smallest `PCIE_BENCH_N` that is not, and that factor
/// runs them and passes.
#[test]
fn too_small_a_run_names_the_smallest_factor() {
    for bin in [
        env!("CARGO_BIN_EXE_ext_rpc"),
        env!("CARGO_BIN_EXE_ext_flows"),
    ] {
        let run = |n: &str| {
            let mut cmd = Command::new(bin);
            for k in KNOBS {
                cmd.env_remove(k);
            }
            cmd.arg("--quick")
                .env("PCIE_BENCH_N", n)
                .output()
                .expect("spawn")
        };
        let out = run("0.001");
        assert_exits_2(&format!("PCIE_BENCH_N=0.001 {bin}"), &out);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let factor = stderr
            .trim()
            .rsplit_once("PCIE_BENCH_N to at least ")
            .map(|(_, f)| f.to_string())
            .unwrap_or_else(|| panic!("{bin}: names no factor: {stderr}"));
        let out = run(&factor);
        assert_eq!(
            out.status.code(),
            Some(0),
            "PCIE_BENCH_N={factor} {bin}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
