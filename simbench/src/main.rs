//! `simbench`: the simulator's end-to-end and per-layer host-cost
//! benchmark. See `README.md` beside this package for the workloads,
//! the metrics and the noise they were designed around.
//!
//! ```text
//! simbench --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! One process runs one workload, single-threaded. It first times the
//! one-op pass (the set-up), then repeats the full workload until
//! `--seconds` have passed, checking every configuration's outputs,
//! and prints one JSON result as its last line: the end-to-end
//! metrics untraced, the per-layer metrics traced.

mod alloc;
mod dma_sweep;
mod driver_zoo;
mod flow_rx;
mod host;
mod rpc_fabric;
mod trace;
mod workload;

use alloc::AllocCount;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::{Recorder, Summary};
use workload::{Counts, Fnv, Metric, Outcome, Pass, Run, Traced, Workload, ALL};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: simbench --workload <dma_sweep|driver_zoo|flow_rx|rpc_fabric> \
                     [--seed <u64>] [--seconds <0..=3600>] [--trace <0|1>]";

/// Fresh processes whose one-op pass `setup_s` takes the median of,
/// this one included. A 10 ms pass is mostly first-touch page faults
/// and swings with the host's state, hence more than a few.
const SETUP_SAMPLES: usize = 7;

/// Digests of a full repetition recorded per workload and seed.
const GOLDEN: &str = include_str!("../golden.tsv");

/// Where traced runs write their spans.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// The repetition number of the traced one-op pass.
const SETUP_REP: u32 = u32::MAX;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: Option<u64>,
    seconds: u64,
    trace: bool,
    /// Run only the one-op pass and print its wall time (the fresh
    /// processes `setup_s` samples).
    setup_pass: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut setup_pass = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-pass" {
            setup_pass = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => {
                seed =
                    Some((value.parse()).map_err(|_| {
                        format!("--seed '{value}' is not an unsigned 64-bit integer")
                    })?)
            }
            "--seconds" => {
                seconds = (value.parse().ok()).filter(|&s| s <= 3600).ok_or_else(|| {
                    format!("--seconds '{value}' is not a whole number in 0..=3600")
                })?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace '{value}' is not 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        setup_pass,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.setup_pass {
        let secs = one_op_pass(&args, &mut Vec::new());
        println!("setup_s {secs}");
        return ExitCode::SUCCESS;
    }
    let result = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    match result {
        Ok(r) => {
            print!("{}", r.text);
            let (attempted, failed) = (r.ledger.attempted, r.ledger.failed());
            println!("ops_attempted {attempted} ops_failed {failed}");
            println!("{}", r.json());
            if r.ledger.failed() == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn seed_name(seed: Option<u64>) -> String {
    seed.map_or_else(|| "default".into(), |s| s.to_string())
}

/// Runs the one-op pass into `outs`, returning its wall time in s.
fn one_op_pass(args: &Args, outs: &mut Vec<Outcome>) -> f64 {
    let t0 = Instant::now();
    let run = Run {
        pass: Pass::OneOp,
        seed: args.seed,
    };
    args.workload.run(run, outs, None);
    t0.elapsed().as_secs_f64()
}

/// The one-op pass's wall time in a fresh process of this program.
fn child_setup_seconds(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--setup-pass", "--workload", args.workload.name()]);
    if let Some(s) = args.seed {
        cmd.args(["--seed", &s.to_string()]);
    }
    let out = (cmd.stdin(Stdio::null()).stderr(Stdio::inherit()).output())
        .map_err(|e| format!("starting the set-up process: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    (stdout.lines())
        .find_map(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.trim().parse().ok())
        .filter(|_| out.status.success())
        .ok_or_else(|| format!("set-up process failed ({}): {stdout}", out.status))
}

/// Operations attempted and failed, with the reasons.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed_ops: u64,
    /// A failure not confined to one configuration fails every op.
    global_failure: bool,
    errors: Vec<String>,
}

impl Ledger {
    fn failed(&self) -> u64 {
        if self.global_failure {
            self.attempted
        } else {
            self.failed_ops
        }
    }

    fn fail_all(&mut self, why: String) {
        self.global_failure = true;
        self.errors.push(why);
    }

    /// Failed conservation checks of a pass that counts no ops.
    fn check_pass(&mut self, what: &str, outs: &[Outcome]) {
        for (i, o) in outs.iter().enumerate() {
            if let Err(e) = &o.check {
                self.fail_all(format!("{what}, configuration {i}: {e}"));
            }
        }
    }

    /// Books one timed repetition: a configuration whose check fails
    /// or whose digest differs from the warm-up's fails all
    /// its ops.
    fn book(&mut self, outs: &[Outcome], reference: &[Outcome]) {
        if outs.len() != reference.len() {
            self.fail_all(format!(
                "{} configurations ran, {} in the warm-up",
                outs.len(),
                reference.len()
            ));
        }
        for (i, (o, r)) in outs.iter().zip(reference).enumerate() {
            self.attempted += o.ops;
            let why = match &o.check {
                Err(e) => Some(e.clone()),
                Ok(()) if o.digest != r.digest || o.ops != r.ops => Some(format!(
                    "digest {:016x} differs from the warm-up's {:016x}",
                    o.digest, r.digest
                )),
                Ok(()) => None,
            };
            if let Some(why) = why {
                self.failed_ops += o.ops;
                self.errors.push(format!("configuration {i}: {why}"));
            }
        }
    }
}

/// One timed full repetition.
#[derive(Debug, Clone, Copy)]
struct Rep {
    ops: u64,
    cpu_ns: u64,
    wall_ns: u64,
    allocs: AllocCount,
    traced: bool,
}

impl Rep {
    fn cpu_ns_per_op(&self) -> f64 {
        self.cpu_ns as f64 / self.ops as f64
    }
}

fn full_rep(args: &Args, outs: &mut Vec<Outcome>, traced: bool) -> Rep {
    outs.clear();
    let run = Run {
        pass: Pass::Full,
        seed: args.seed,
    };
    let (a0, c0, t0) = (AllocCount::now(), host::process_cpu_ns(), Instant::now());
    args.workload.run(run, outs, None);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let cpu_ns = host::process_cpu_ns() - c0;
    let allocs = AllocCount::now().since(a0);
    Rep {
        ops: outs.iter().map(|o| o.ops).sum(),
        cpu_ns,
        wall_ns,
        allocs,
        traced,
    }
}

/// Runs one warm-up repetition, whose outputs every later one must
/// reproduce, then repeats the full workload until the repetitions
/// have taken `--seconds` of wall time, at least once. The warm-up
/// pays the first touch of the heap, so it is checked but not
/// measured. `between` runs after every repetition, outside the
/// measurement. With `rec`, untraced and traced repetitions
/// alternate, in equal numbers, the traced ones recording spans into
/// it. Returns the measured repetitions and the warm-up's outcomes.
fn timed_phase(
    args: &Args,
    ledger: &mut Ledger,
    configs: usize,
    mut rec: Option<(&mut Option<Recorder>, usize)>,
    between: &mut dyn FnMut() -> Result<(), String>,
) -> Result<(Vec<Rep>, Vec<Outcome>), String> {
    let mut outs = Vec::with_capacity(configs);
    let warmup = full_rep(args, &mut outs, false);
    let reference = outs.clone();
    ledger.book(&outs, &reference);
    between()?;
    let mut reps: Vec<Rep> = Vec::new();
    let mut measured_ns = 0;
    loop {
        let traced = rec.is_some() && !reps.len().is_multiple_of(2);
        if let (true, Some((r, reserve))) = (traced, rec.as_mut()) {
            trace::install(r.take().expect("recorder present between repetitions"));
            trace::begin_rep(reps.len() as u32, *reserve);
        }
        let rep = full_rep(args, &mut outs, traced);
        if let (true, Some((r, _))) = (traced, rec.as_mut()) {
            **r = trace::uninstall();
        }
        ledger.book(&outs, &reference);
        if rep.allocs.allocs != warmup.allocs.allocs {
            ledger.fail_all(format!(
                "repetition {} allocated {} times, the warm-up {}",
                reps.len() + 1,
                rep.allocs.allocs,
                warmup.allocs.allocs
            ));
        }
        measured_ns += rep.wall_ns;
        reps.push(rep);
        between()?;
        let pairs_done = rec.is_none() || reps.len().is_multiple_of(2);
        if pairs_done && measured_ns >= args.seconds * 1_000_000_000 {
            return Ok((reps, reference));
        }
    }
}

/// Checks a full repetition's digest against the one recorded for
/// this seed, when there is one, and prints it for recording.
fn check_golden(args: &Args, reference: &[Outcome], ledger: &mut Ledger, text: &mut String) {
    let digest = fold(reference);
    let (name, seed) = (args.workload.name(), seed_name(args.seed));
    let _ = writeln!(text, "digest {name} {seed} {digest:016x}");
    let recorded = GOLDEN.lines().find_map(|l| {
        let mut f = l.split_whitespace();
        (f.next() == Some(name) && f.next() == Some(seed.as_str()))
            .then(|| f.next().and_then(|d| u64::from_str_radix(d, 16).ok()))
            .flatten()
    });
    match recorded {
        Some(r) if r != digest => ledger.fail_all(format!(
            "digest {digest:016x} differs from the {r:016x} recorded for seed {seed}"
        )),
        Some(_) => text.push_str("# digest matches the one recorded for this seed\n"),
        None => {
            text.push_str("# no digest recorded for this seed: checked across repetitions only\n")
        }
    }
}

/// A different seed must change the workload's outputs: one more
/// full repetition, untimed, at the next seed.
fn check_seed_reach(args: &Args, reference: &[Outcome], ledger: &mut Ledger) {
    let seed = Some(args.seed.map_or(1, |s| s.wrapping_add(1)));
    let mut alt = Vec::new();
    args.workload.run(
        Run {
            pass: Pass::Full,
            seed,
        },
        &mut alt,
        None,
    );
    ledger.check_pass("repetition at the next seed", &alt);
    if fold(&alt) == fold(reference) {
        ledger.fail_all(format!(
            "seeds {} and {} give the same digest",
            seed_name(args.seed),
            seed_name(seed)
        ));
    }
}

/// The workload digest: the configurations' digests folded in order.
fn fold(outs: &[Outcome]) -> u64 {
    outs.iter()
        .fold(Fnv::new(), |mut h, o| *h.word(o.digest))
        .finish()
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn header(args: &Args) -> String {
    format!(
        "# simbench workload={} seed={} seconds={} trace={}\n# host {}\n",
        args.workload.name(),
        seed_name(args.seed),
        args.seconds,
        u8::from(args.trace),
        host::fingerprint()
    )
}

struct Report {
    text: String,
    ledger: Ledger,
    metrics: Vec<Metric>,
}

impl Report {
    fn json(&self) -> String {
        let mut m = String::new();
        for (i, x) in self.metrics.iter().enumerate() {
            let v = if x.value.is_finite() { x.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                x.name, x.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.ledger.failed() == 0,
            self.ledger.attempted,
            self.ledger.failed()
        )
    }
}

/// The end-to-end run: the timed phase with nothing recorded, with
/// the set-up timed in this process first and then in fresh processes
/// started between repetitions, so that the samples spread over the
/// run instead of sharing one moment's host speed.
fn untraced(args: &Args) -> Result<Report, String> {
    let mut ledger = Ledger::default();
    let mut setup_outs = Vec::new();
    let mut setup = vec![one_op_pass(args, &mut setup_outs)];
    ledger.check_pass("one-op pass", &setup_outs);
    let mut sample_setup = || {
        if setup.len() < SETUP_SAMPLES {
            setup.push(child_setup_seconds(args)?);
        }
        Ok(())
    };
    let (reps, reference) =
        timed_phase(args, &mut ledger, setup_outs.len(), None, &mut sample_setup)?;
    while setup.len() < SETUP_SAMPLES {
        setup.push(child_setup_seconds(args)?);
    }
    let peak_rss_mb = host::peak_rss_mib()?;
    check_seed_reach(args, &reference, &mut ledger);

    let mut text = header(args);
    check_golden(args, &reference, &mut ledger, &mut text);
    let r0 = reps[0];
    let per_rep: Vec<String> = reps
        .iter()
        .map(|r| format!("{:.1}", r.cpu_ns_per_op()))
        .collect();
    let _ = writeln!(
        text,
        "# set-up: one-op pass in {SETUP_SAMPLES} fresh processes (s): {setup:.4?}\n\
         # timed: {} repetitions of {} {}s, {:.2} s CPU each; cpu ns/op per repetition: {}",
        reps.len(),
        r0.ops,
        args.workload.op_name(),
        r0.cpu_ns as f64 / 1e9,
        per_rep.join(" ")
    );
    for e in ledger.errors.iter().take(10) {
        eprintln!("simbench: FAILED: {e}");
    }
    let metrics = vec![
        Metric::new(
            "cpu_ns_per_op",
            median(reps.iter().map(Rep::cpu_ns_per_op).collect()),
            "ns",
        ),
        Metric::new(
            "allocs_per_op",
            r0.allocs.allocs as f64 / r0.ops as f64,
            "count",
        ),
        Metric::new("setup_s", median(setup), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
    ];
    for m in &metrics {
        let _ = writeln!(text, "{} {} {}", m.name, m.value, m.unit);
    }
    Ok(Report {
        text,
        ledger,
        metrics,
    })
}

/// Whole-trace figures the generic per-layer metrics need.
#[derive(Default)]
struct TraceTotals {
    /// Ops over the traced repetitions.
    ops: f64,
    /// Wall time of the traced repetitions, ns.
    wall_ns: f64,
    /// Traced minus untraced median CPU ns per op.
    overhead_ns_per_op: f64,
}

/// Every per-layer metric of workload `w`: its own, one allocation
/// pair per span, and the unattributed share and tracing overhead.
fn layer_metrics(w: Workload, t: &Traced, tt: &TraceTotals) -> Vec<Metric> {
    let mut m = w.layer_metrics(t);
    for &s in w.spans() {
        let st = t.reps.totals(s, |_| true);
        m.push(Metric::new(
            format!("{s}.allocs_per_op"),
            workload::ratio(st.self_allocs as f64, tt.ops),
            "count",
        ));
        m.push(Metric::new(
            format!("{s}.alloc_bytes_per_op"),
            workload::ratio(st.self_bytes as f64, tt.ops),
            "B",
        ));
    }
    let unattributed = tt.wall_ns - t.reps.top_level_ns as f64;
    m.push(Metric::new(
        format!("{}.unattributed_share", w.name()),
        workload::ratio(unattributed, tt.wall_ns),
        "ratio",
    ));
    m.push(Metric::new(
        format!("{}.trace_overhead", w.name()),
        tt.overhead_ns_per_op,
        "ns",
    ));
    m
}

/// Names and units of every per-layer metric of every workload, in
/// workload order.
fn all_layer_metric_names() -> Vec<(String, &'static str)> {
    let (empty, counts) = (Summary::default(), Counts::new());
    let t = Traced {
        reps: &empty,
        rep_count: 0,
        setup: &empty,
        outcomes: &[],
        counts: &counts,
    };
    let mut names: Vec<(String, &'static str)> = Vec::new();
    for w in ALL {
        for m in layer_metrics(w, &t, &TraceTotals::default()) {
            if !names.iter().any(|(n, _)| *n == m.name) {
                names.push((m.name, m.unit));
            }
        }
    }
    names
}

/// The traced run: a traced one-op pass, untraced and traced
/// repetitions alternating, then an untimed counting pass.
fn traced(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let mut ledger = Ledger::default();
    trace::install(Recorder::new());
    trace::begin_rep(SETUP_REP, 1 << 14);
    let mut setup_outs = Vec::new();
    one_op_pass(args, &mut setup_outs);
    let mut rec = trace::uninstall();
    ledger.check_pass("one-op pass", &setup_outs);
    let reserve = rec.as_ref().map_or(0, |r| r.spans().len()) + 64;
    let (reps, reference) = timed_phase(
        args,
        &mut ledger,
        setup_outs.len(),
        Some((&mut rec, reserve)),
        &mut || Ok(()),
    )?;
    check_seed_reach(args, &reference, &mut ledger);

    let mut counts = Counts::new();
    let mut outs = Vec::new();
    let run = Run {
        pass: Pass::Full,
        seed: args.seed,
    };
    w.run(run, &mut outs, Some(&mut counts));
    if outs != reference {
        ledger.fail_all("the counting pass's outputs differ from the timed repetitions'".into());
    }

    let spans = rec.map_or_else(Vec::new, |r| r.spans().to_vec());
    let rep_summary = Summary::of(&spans, |r| r != SETUP_REP);
    let setup_summary = Summary::of(&spans, |r| r == SETUP_REP);
    let traced_reps: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
    let cpu = |traced: bool| {
        median(
            reps.iter()
                .filter(|r| r.traced == traced)
                .map(Rep::cpu_ns_per_op)
                .collect(),
        )
    };
    let tt = TraceTotals {
        ops: traced_reps.iter().map(|r| r.ops as f64).sum(),
        wall_ns: traced_reps.iter().map(|r| r.wall_ns as f64).sum(),
        overhead_ns_per_op: cpu(true) - cpu(false),
    };
    let t = Traced {
        reps: &rep_summary,
        rep_count: traced_reps.len() as u64,
        setup: &setup_summary,
        outcomes: &reference,
        counts: &counts,
    };
    let own = layer_metrics(w, &t, &tt);

    let mut text = header(args);
    check_golden(args, &reference, &mut ledger, &mut text);
    text.push_str(&layer_table(w, &t, &tt, &own));
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let path = format!(
        "{OUT_DIR}/{}-seed-{}.trace.json",
        w.name(),
        seed_name(args.seed)
    );
    std::fs::write(&path, trace::chrome_json(&spans, w.name()))
        .map_err(|e| format!("writing {path}: {e}"))?;
    let _ = writeln!(text, "# spans: {} recorded, written to {path}", spans.len());
    for e in ledger.errors.iter().take(10) {
        eprintln!("simbench: FAILED: {e}");
    }

    let metrics = all_layer_metric_names()
        .into_iter()
        .map(|(name, unit)| {
            let value = own.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
            Metric::new(name, value, unit)
        })
        .collect();
    Ok(Report {
        text,
        ledger,
        metrics,
    })
}

/// The traced run's per-layer table: self host time, its share of the
/// traced time, and allocations per op for every span, then the
/// unattributed and overhead rows, then the workload's layer metrics.
fn layer_table(w: Workload, t: &Traced, tt: &TraceTotals, own: &[Metric]) -> String {
    let mut s = format!(
        "# per-layer table: {} traced repetitions, {} {}s, {:.3} s traced\n\
         # {:<26} {:>10} {:>7} {:>11} {:>11} {:>13}\n",
        t.rep_count,
        tt.ops,
        w.op_name(),
        tt.wall_ns / 1e9,
        "span",
        "self_ms",
        "share",
        "self_ns/op",
        "allocs/op",
        "alloc_B/op"
    );
    for &name in w.spans() {
        let st = t.reps.totals(name, |_| true);
        let _ = writeln!(
            s,
            "# {:<26} {:>10.1} {:>7.4} {:>11.2} {:>11.5} {:>13.2}",
            name,
            st.self_ns as f64 / 1e6,
            workload::ratio(st.self_ns as f64, tt.wall_ns),
            workload::ratio(st.self_ns as f64, tt.ops),
            workload::ratio(st.self_allocs as f64, tt.ops),
            workload::ratio(st.self_bytes as f64, tt.ops),
        );
    }
    let unattributed = tt.wall_ns - t.reps.top_level_ns as f64;
    let _ = writeln!(
        s,
        "# {:<26} {:>10.1} {:>7.4} {:>11.2}\n# {:<26} {:>10} {:>7} {:>11.2}",
        "unattributed",
        unattributed / 1e6,
        workload::ratio(unattributed, tt.wall_ns),
        workload::ratio(unattributed, tt.ops),
        "trace_overhead (cpu)",
        "",
        "",
        tt.overhead_ns_per_op,
    );
    for m in own {
        let _ = writeln!(s, "{} {} {}", m.name, m.value, m.unit);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace::Span;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn malformed_arguments_are_rejected() {
        for bad in [
            "",
            "--workload",
            "--workload nope",
            "--workload flow_rx --seed -1",
            "--workload flow_rx --seed 0x10",
            "--workload flow_rx --trace 2",
            "--workload flow_rx --seconds 1.5",
            "--workload flow_rx --seconds 3601",
            "--workload flow_rx --bogus 1",
            "--seed 3",
        ] {
            assert!(parse(bad).is_err(), "accepted '{bad}'");
        }
        let a = parse("--workload rpc_fabric --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::RpcFabric, Some(7), 3, true)
        );
        assert_eq!(parse("--workload dma_sweep").expect("valid").seed, None);
    }

    #[test]
    fn benchmark_json_lists_every_metric() {
        let json = include_str!("../../BENCHMARK.json");
        let per_layer = &json[json.find("\"per_layer\"").expect("per_layer section")..];
        let names = all_layer_metric_names();
        for (name, unit) in &names {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            assert!(per_layer.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(per_layer.matches("\"name\"").count(), names.len());
        let end_to_end = &json[json.find("\"end_to_end\"").expect("end_to_end")..];
        for (name, unit) in [
            ("cpu_ns_per_op", "ns"),
            ("allocs_per_op", "count"),
            ("setup_s", "s"),
            ("peak_rss_mb", "MiB"),
        ] {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"lower\"");
            assert!(end_to_end.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in ALL {
            assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())));
        }
    }

    #[test]
    fn self_time_and_allocations_exclude_children() {
        let span = |name, parent, start_ns, end_ns, allocs| Span {
            name,
            rep: 0,
            config: 2,
            parent,
            start_ns,
            end_ns,
            allocs,
            bytes: allocs * 8,
        };
        let spans = [
            span("outer", u32::MAX, 0, 100, 5),
            span("inner", 0, 10, 40, 3),
            span("inner", 0, 50, 60, 1),
            span("outer", u32::MAX, 200, 210, 0),
        ];
        let s = Summary::of(&spans, |_| true);
        let outer = s.totals("outer", |c| c == 2);
        assert_eq!((outer.count, outer.total_ns, outer.self_ns), (2, 110, 70));
        assert_eq!((outer.self_allocs, outer.self_bytes), (1, 8));
        let inner = s.totals("inner", |_| true);
        assert_eq!(
            (inner.total_ns, inner.self_ns, inner.self_allocs),
            (40, 40, 4)
        );
        assert_eq!(s.top_level_ns, 110);
        assert_eq!(s.totals("outer", |c| c != 2).count, 0);
    }

    #[test]
    fn one_op_passes_repeat_and_conserve() {
        for w in [Workload::DriverZoo, Workload::RpcFabric] {
            let run = Run {
                pass: Pass::OneOp,
                seed: Some(5),
            };
            let (mut a, mut b) = (Vec::new(), Vec::new());
            w.run(run, &mut a, None);
            w.run(run, &mut b, None);
            assert_eq!(a, b, "{}", w.name());
            assert!(
                a.iter().all(|o| o.check.is_ok() && o.ops == 1),
                "{}",
                w.name()
            );
        }
    }
}
