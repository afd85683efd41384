//! The §5.4 control program: run a full pcie-bench parameter grid on
//! one system and print every result.
//!
//! Usage:
//!   cargo run --release --bin suite              # quick grid
//!   PCIE_BENCH_SUITE=paper cargo run --release --bin suite
//!   PCIE_BENCH_SYSTEM=netfpga-hsw cargo run --release --bin suite
//!   PCIE_BENCH_THREADS=8 cargo run --release --bin suite   # pool width
//!
//! `PCIE_BENCH_SUITE` takes `quick` (the default) or `paper`; any
//! other value, or an unknown system, exits 2.
//!
//! Independent grid points run on the `pcie-par` worker pool; output
//! is bit-identical for every thread count.

use pcie_bench_harness::{env_or, exit_usage, header};
use pciebench::suite::{format_suite, run_suite_timed, SuiteConfig};
use pciebench::{BenchSetup, Pool};

fn main() {
    let system = std::env::var("PCIE_BENCH_SYSTEM").unwrap_or_else(|_| "nfp6000-hsw".into());
    let setup = match system.as_str() {
        "nfp6000-hsw" => BenchSetup::nfp6000_hsw(),
        "netfpga-hsw" => BenchSetup::netfpga_hsw(),
        "nfp6000-hsw-e3" => BenchSetup::nfp6000_hsw_e3(),
        "nfp6000-bdw" => BenchSetup::nfp6000_bdw(),
        "nfp6000-snb" => BenchSetup::nfp6000_snb(),
        "nfp6000-ib" => BenchSetup::nfp6000_ib(),
        other => {
            eprintln!("unknown system {other}; see source for the list");
            std::process::exit(2);
        }
    };
    let cfg = match env_or("PCIE_BENCH_SUITE", String::from("quick")).as_str() {
        "quick" => SuiteConfig::quick(),
        "paper" => SuiteConfig::paper(),
        other => exit_usage(format_args!(
            "unknown PCIE_BENCH_SUITE '{other}'; expected quick or paper"
        )),
    };
    header(&format!(
        "pcie-bench full suite on {} — {} individual tests",
        setup.preset.name,
        cfg.test_count()
    ));
    let pool = Pool::from_env();
    let (entries, stats) = run_suite_timed(&setup, &cfg, &pool);
    print!("{}", format_suite(&entries));
    println!(
        "\n# {} tests in {:.1}s on {} thread(s) (the paper's hardware run: ~2500 tests in ~4 hours)",
        entries.len(),
        stats.wall.as_secs_f64(),
        stats.threads,
    );
    println!(
        "# sequential-equivalent ~{:.1}s, speedup ~{:.2}x, {:.0} tests/s",
        stats.sequential_equivalent().as_secs_f64(),
        stats.speedup(),
        stats.jobs_per_sec(),
    );
}
