//! What the benchmark reads from the host: process CPU time, peak
//! resident memory, and a fingerprint that makes a result
//! attributable to a machine, a toolchain and a commit.

use std::process::Command;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// On-CPU time of the whole process (all threads), in ns. Excludes
/// steal and time spent waiting, unlike wall time.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is a constant the
    // kernel defines; the call writes only into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}

/// One line naming the CPU model, the CPUs available, the compiler
/// and the source commit (`unknown` where a fact cannot be read, as
/// in a checkout that is not a git repository).
pub fn fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = output("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let commit = match output("git", &["rev-parse", "HEAD"]) {
        Some(head) => {
            let dirty = output("git", &["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
            format!("{head}{}", if dirty { "-dirty" } else { "" })
        }
        None => "unknown".into(),
    };
    format!("cpu=\"{cpu}\" nproc={nproc} rustc=\"{rustc}\" commit={commit}")
}

/// Trimmed standard output of a command that exited 0.
fn output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}
