//! Snapshot assembly and JSON/CSV export.
//!
//! A [`Snapshot`] is the exported unit of telemetry: every component's
//! [`CounterGroup`] plus (when stage attribution is enabled) a
//! [`StageReport`] distilled from [`StageStats`]. `repro_report`,
//! `pciebench_cli --telemetry` and the figure binaries serialise one
//! snapshot per benchmark run.

use crate::counters::CounterGroup;
use crate::json::JsonWriter;
use crate::stages::{StageSet, StageStats};

/// Per-stage summary embedded in a snapshot: one row per pipeline
/// stage, plus the end-to-end aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// One `(stage_name, total_ns, mean_ns, max_ns)` row per stage in
    /// pipeline order.
    pub rows: Vec<(&'static str, f64, f64, f64)>,
    /// Number of transactions the rows aggregate over.
    pub transactions: u64,
    /// Mean end-to-end latency, ns.
    pub end_to_end_mean_ns: f64,
    /// Total end-to-end nanoseconds across all transactions.
    pub end_to_end_total_ns: f64,
    /// Nonzero end-to-end histogram buckets as
    /// `(bucket_start_ns, count)`.
    pub end_to_end_buckets: Vec<(u64, u64)>,
    /// Histogram bucket width, ns.
    pub bucket_width_ns: u64,
}

impl StageReport {
    /// Distils a report from accumulated [`StageStats`].
    pub fn from_stats<S: StageSet>(stats: &StageStats<S>) -> Self {
        let rows = S::ALL
            .iter()
            .map(|&s| {
                (
                    s.name(),
                    stats.total_ns(s),
                    stats.mean_ns(s),
                    stats.histogram(s).max_ns(),
                )
            })
            .collect();
        StageReport {
            rows,
            transactions: stats.count(),
            end_to_end_mean_ns: stats.end_to_end().mean_ns(),
            end_to_end_total_ns: stats.end_to_end().total_ns(),
            end_to_end_buckets: stats.end_to_end().nonzero(),
            bucket_width_ns: stats.end_to_end().bucket_width_ns(),
        }
    }

    /// Sum of the per-stage totals; reconciles with
    /// [`StageReport::end_to_end_total_ns`] within rounding.
    pub fn stage_total_ns(&self) -> f64 {
        self.rows.iter().map(|(_, total, _, _)| total).sum()
    }
}

/// A labelled collection of counter groups and optional stage report,
/// exportable as JSON or CSV.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Snapshot label, e.g. the benchmark name (`"LAT_RD/64"`).
    pub label: String,
    groups: Vec<CounterGroup>,
    stages: Option<StageReport>,
}

impl Snapshot {
    /// Creates an empty snapshot labelled `label`.
    pub fn new(label: impl Into<String>) -> Self {
        Snapshot {
            label: label.into(),
            groups: Vec::new(),
            stages: None,
        }
    }

    /// Appends a component's counter group.
    pub fn add_group(&mut self, group: CounterGroup) -> &mut Self {
        self.groups.push(group);
        self
    }

    /// Attaches the stage-attribution report.
    pub fn set_stages(&mut self, report: StageReport) -> &mut Self {
        self.stages = Some(report);
        self
    }

    /// The counter groups in insertion order.
    pub fn groups(&self) -> &[CounterGroup] {
        &self.groups
    }

    /// Finds a group by its component path.
    pub fn group(&self, component: &str) -> Option<&CounterGroup> {
        self.groups.iter().find(|g| g.component == component)
    }

    /// The stage report, if stage attribution was enabled.
    pub fn stages(&self) -> Option<&StageReport> {
        self.stages.as_ref()
    }

    /// Serialises the snapshot as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("label").string(&self.label);
        w.key("counters").begin_object();
        for g in &self.groups {
            w.key(&g.component).begin_object();
            for &(name, value) in g.counters() {
                w.key(name).u64(value);
            }
            w.end_object();
        }
        w.end_object();
        if let Some(st) = &self.stages {
            w.key("stages").begin_object();
            w.key("transactions").u64(st.transactions);
            w.key("end_to_end_mean_ns").f64(st.end_to_end_mean_ns);
            w.key("end_to_end_total_ns").f64(st.end_to_end_total_ns);
            w.key("stage_total_ns").f64(st.stage_total_ns());
            w.key("bucket_width_ns").u64(st.bucket_width_ns);
            w.key("breakdown").begin_array();
            for &(name, total, mean, max) in &st.rows {
                w.begin_object();
                w.key("stage").string(name);
                w.key("total_ns").f64(total);
                w.key("mean_ns").f64(mean);
                w.key("max_ns").f64(max);
                w.end_object();
            }
            w.end_array();
            w.key("end_to_end_cdf").begin_array();
            let mut cum = 0u64;
            for &(start, count) in &st.end_to_end_buckets {
                cum += count;
                w.begin_object();
                w.key("bucket_start_ns").u64(start);
                w.key("count").u64(count);
                w.key("cumulative").u64(cum);
                w.end_object();
            }
            w.end_array();
            w.end_object();
        }
        w.end_object();
        let mut s = w.finish();
        s.push('\n');
        s
    }

    /// Serialises the counters (and stage rows, if present) as CSV
    /// with a `section,component,name,value` header.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str("section,component,name,value\n");
        for g in &self.groups {
            for &(name, value) in g.counters() {
                out.push_str(&format!("counter,{},{},{}\n", g.component, name, value));
            }
        }
        if let Some(st) = &self.stages {
            out.push_str(&format!("stage,all,transactions,{}\n", st.transactions));
            for &(name, total, mean, max) in &st.rows {
                out.push_str(&format!("stage,{},total_ns,{:.3}\n", name, total));
                out.push_str(&format!("stage,{},mean_ns,{:.3}\n", name, mean));
                out.push_str(&format!("stage,{},max_ns,{:.3}\n", name, max));
            }
            out.push_str(&format!(
                "stage,end_to_end,mean_ns,{:.3}\n",
                st.end_to_end_mean_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stages::{Stage, StageSample};

    fn demo_snapshot() -> Snapshot {
        let mut snap = Snapshot::new("LAT_RD/64");
        let mut g = CounterGroup::new("link.upstream");
        g.push("tlps", 3).push("tlp_bytes", 264);
        snap.add_group(g);
        let mut stats = StageStats::new();
        let mut s = StageSample::default();
        s.set(Stage::Issue, 5.0)
            .set(Stage::Host, 250.0)
            .set(Stage::CompletionWire, 33.6);
        stats.record(&s);
        snap.set_stages(StageReport::from_stats(&stats));
        snap
    }

    #[test]
    fn json_contains_counters_and_stages() {
        let s = demo_snapshot().to_json();
        assert!(s.contains("\"label\": \"LAT_RD/64\""), "{s}");
        assert!(s.contains("\"link.upstream\""), "{s}");
        assert!(s.contains("\"tlp_bytes\": 264"), "{s}");
        assert!(s.contains("\"stage\": \"host\""), "{s}");
        assert!(s.contains("\"transactions\": 1"), "{s}");
        assert!(s.ends_with("}\n"), "{s}");
    }

    #[test]
    fn stage_totals_reconcile_in_report() {
        let snap = demo_snapshot();
        let st = snap.stages().unwrap();
        assert!((st.stage_total_ns() - st.end_to_end_total_ns).abs() < 1e-6);
        assert!((st.end_to_end_mean_ns - 288.6).abs() < 1e-9);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = demo_snapshot().to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("section,component,name,value"));
        assert!(csv.contains("counter,link.upstream,tlp_bytes,264"), "{csv}");
        assert!(csv.contains("stage,host,mean_ns,250.000"), "{csv}");
    }

    #[test]
    fn group_lookup() {
        let snap = demo_snapshot();
        assert!(snap.group("link.upstream").is_some());
        assert!(snap.group("nope").is_none());
        assert_eq!(snap.groups().len(), 1);
    }
}
