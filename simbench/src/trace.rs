//! Spans around the public calls the benchmark makes into each layer.
//!
//! Spans are recorded only while a recorder is installed (traced
//! repetitions); otherwise [`span`] is one thread-local check around
//! the call. A span holds its name, wall-clock start and end, its
//! parent, the repetition and configuration it belongs to, and the
//! allocations made while it was open. Spans stay in memory until the
//! run writes them out.
//!
//! The recorder's own storage is reserved before each traced
//! repetition, so recording never allocates inside a span and the
//! allocation deltas belong to the code under the span.

use crate::alloc::AllocCount;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// No parent.
const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name of the call, e.g. `drivers.run`.
    pub name: &'static str,
    /// Repetition the span belongs to.
    pub rep: u32,
    /// Configuration index within the repetition.
    pub config: u32,
    /// Index of the enclosing span, or `u32::MAX` at top level.
    pub parent: u32,
    /// Wall-clock start, ns since the recorder was installed.
    pub start_ns: u64,
    /// Wall-clock end, ns since the recorder was installed.
    pub end_ns: u64,
    /// Allocations made while open (children included).
    pub allocs: u64,
    /// Bytes those allocations asked for.
    pub bytes: u64,
}

/// Spans recorded so far, with the recording state.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<(u32, AllocCount)>,
    rep: u32,
    config: u32,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::with_capacity(16),
            rep: 0,
            config: 0,
        }
    }

    /// Every span recorded, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn open(&mut self, name: &'static str) {
        let parent = self.open.last().map_or(ROOT, |&(i, _)| i);
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            rep: self.rep,
            config: self.config,
            parent,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            allocs: 0,
            bytes: 0,
        });
        self.open.push((idx, AllocCount::now()));
    }

    fn close(&mut self) {
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let (idx, at_open) = self.open.pop().expect("span closed without being opened");
        let d = AllocCount::now().since(at_open);
        let s = &mut self.spans[idx as usize];
        s.end_ns = end_ns;
        s.allocs = d.allocs;
        s.bytes = d.bytes;
    }
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Records spans into `rec` until [`uninstall`].
pub fn install(rec: Recorder) {
    RECORDER.with_borrow_mut(|r| *r = Some(rec));
}

/// Stops recording, handing back the recorder.
pub fn uninstall() -> Option<Recorder> {
    RECORDER.with_borrow_mut(|r| r.take())
}

/// Whether spans are being recorded.
pub fn active() -> bool {
    RECORDER.with_borrow(|r| r.is_some())
}

/// Marks the start of repetition `rep`, reserving room for `spans`
/// more spans so that recording does not allocate during it.
pub fn begin_rep(rep: u32, spans: usize) {
    RECORDER.with_borrow_mut(|r| {
        if let Some(r) = r {
            r.rep = rep;
            r.spans.reserve(spans);
        }
    });
}

/// Runs `f` under a span named `name`, recording it if a recorder is
/// installed.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let opened = RECORDER.with_borrow_mut(|r| r.as_mut().map(|r| r.open(name)));
    let out = f();
    if opened.is_some() {
        RECORDER.with_borrow_mut(|r| {
            if let Some(r) = r {
                r.close();
            }
        });
    }
    out
}

/// Runs `f` as configuration `config` under a top-level span named
/// `name`: every span inside it carries the configuration index.
pub fn config<T>(config: usize, name: &'static str, f: impl FnOnce() -> T) -> T {
    RECORDER.with_borrow_mut(|r| {
        if let Some(r) = r {
            r.config = config as u32;
        }
    });
    span(name, f)
}

/// Totals for one span name over a set of repetitions.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, children included, ns.
    pub total_ns: u64,
    /// Summed duration minus the children's, ns.
    pub self_ns: u64,
    /// Allocations outside any child span.
    pub self_allocs: u64,
    /// Bytes of those allocations.
    pub self_bytes: u64,
}

impl SpanTotals {
    fn add(&mut self, o: &SpanTotals) {
        self.count += o.count;
        self.total_ns += o.total_ns;
        self.self_ns += o.self_ns;
        self.self_allocs += o.self_allocs;
        self.self_bytes += o.self_bytes;
    }
}

/// Self times and allocations of recorded spans, keyed by
/// `(name, configuration)` and restricted to chosen repetitions.
#[derive(Debug, Default)]
pub struct Summary {
    by_name_config: BTreeMap<(&'static str, u32), SpanTotals>,
    /// Summed duration of top-level spans, ns.
    pub top_level_ns: u64,
}

impl Summary {
    /// Summarises the spans of repetitions for which `keep` is true.
    pub fn of(spans: &[Span], keep: impl Fn(u32) -> bool) -> Summary {
        let mut child_ns = vec![0u64; spans.len()];
        let mut child_allocs = vec![(0u64, 0u64); spans.len()];
        for s in spans {
            if s.parent != ROOT {
                let p = s.parent as usize;
                child_ns[p] += s.end_ns - s.start_ns;
                child_allocs[p].0 += s.allocs;
                child_allocs[p].1 += s.bytes;
            }
        }
        let mut out = Summary::default();
        for (i, s) in spans.iter().enumerate() {
            if !keep(s.rep) {
                continue;
            }
            let dur = s.end_ns - s.start_ns;
            if s.parent == ROOT {
                out.top_level_ns += dur;
            }
            let t = out.by_name_config.entry((s.name, s.config)).or_default();
            t.add(&SpanTotals {
                count: 1,
                total_ns: dur,
                self_ns: dur.saturating_sub(child_ns[i]),
                self_allocs: s.allocs - child_allocs[i].0,
                self_bytes: s.bytes - child_allocs[i].1,
            });
        }
        out
    }

    /// Totals of span `name` over the configurations `pick` accepts.
    pub fn totals(&self, name: &str, pick: impl Fn(usize) -> bool) -> SpanTotals {
        let mut t = SpanTotals::default();
        for (&(n, c), v) in &self.by_name_config {
            if n == name && pick(c as usize) {
                t.add(v);
            }
        }
        t
    }
}

/// Renders spans as Chrome trace-event JSON (`ph: "X"` complete
/// events, times in µs), viewable in any trace viewer.
pub fn chrome_json(spans: &[Span], workload: &str) -> String {
    let mut out = String::with_capacity(spans.len() * 160 + 64);
    out.push_str("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == ROOT {
            -1
        } else {
            i64::from(s.parent)
        };
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{workload}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\
             \"rep\":{},\"config\":{},\"allocs\":{},\"alloc_bytes\":{}}}}}{}",
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.rep,
            s.config,
            s.allocs,
            s.bytes,
            if i + 1 < spans.len() { "," } else { "" },
        );
    }
    out.push_str("]}\n");
    out
}
