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
//! other value, or an unknown `PCIE_BENCH_SYSTEM`, exits 2 with a
//! message naming the variable.
//!
//! Independent grid points run on the `pcie-par` worker pool; output
//! is bit-identical for every thread count.

use pcie_bench_harness::{env_or, exit_usage, header};
use pciebench::suite::{format_suite, run_suite_timed, SuiteConfig};
use pciebench::{BenchSetup, Pool};

fn main() {
    let system = env_or("PCIE_BENCH_SYSTEM", String::from("nfp6000-hsw"));
    let setup = BenchSetup::named(&system)
        .unwrap_or_else(|e| exit_usage(format_args!("PCIE_BENCH_SYSTEM: {e}")));
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
