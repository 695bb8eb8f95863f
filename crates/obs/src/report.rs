//! The unified observability report: a human-readable funnel/timing tree
//! and a machine-readable JSON document over one capture of the span and
//! metric registries.

use std::fmt::Write as _;

use tgm_granularity::periodic;

use crate::metrics::{self, MetricsSnapshot};
use crate::span::{self, SpanSnapshot, SpanStats};

/// A single named value reported by an [`Observable`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ObsValue {
    /// An unsigned count.
    U64(u64),
    /// A ratio or other real quantity.
    F64(f64),
    /// A flag.
    Bool(bool),
}

impl std::fmt::Display for ObsValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObsValue::U64(v) => write!(f, "{v}"),
            ObsValue::F64(v) => write!(f, "{v:.4}"),
            ObsValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl ObsValue {
    fn write_json(&self, out: &mut String) {
        match self {
            ObsValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            ObsValue::F64(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            ObsValue::F64(_) => out.push_str("null"),
            ObsValue::Bool(v) => {
                let _ = write!(out, "{v}");
            }
        }
    }
}

impl From<u64> for ObsValue {
    fn from(v: u64) -> Self {
        ObsValue::U64(v)
    }
}

impl From<usize> for ObsValue {
    fn from(v: usize) -> Self {
        ObsValue::U64(v as u64)
    }
}

impl From<f64> for ObsValue {
    fn from(v: f64) -> Self {
        ObsValue::F64(v)
    }
}

impl From<bool> for ObsValue {
    fn from(v: bool) -> Self {
        ObsValue::Bool(v)
    }
}

/// Uniform name/value reporting for the workspace's stats structs
/// (`RunStats`, `PipelineStats`, [`CompileStats`](periodic::CompileStats),
/// …), so [`Report`]
/// ingests them all the same way instead of each consumer hand-printing
/// fields.
pub trait Observable {
    /// Appends `(name, value)` pairs describing this value. Names are
    /// short `snake_case` keys, stable across releases of the same
    /// struct.
    fn observe(&self, out: &mut Vec<(&'static str, ObsValue)>);

    /// The pairs as a fresh vector.
    fn observed(&self) -> Vec<(&'static str, ObsValue)> {
        let mut out = Vec::new();
        self.observe(&mut out);
        out
    }

    /// Looks up one reported value by name.
    fn observed_value(&self, name: &str) -> Option<ObsValue> {
        self.observed()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
    }
}

impl Observable for periodic::CompileStats {
    fn observe(&self, out: &mut Vec<(&'static str, ObsValue)>) {
        out.push(("compiled", self.compiled.into()));
        out.push(("fallback", self.fallback.into()));
    }
}

/// One stage of the §5 pruning funnel: how many candidates (or events,
/// or references) went in and how many survived.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FunnelStage {
    /// Stage name, e.g. `"step3.reference_pruning"`.
    pub step: String,
    /// Items entering the stage.
    pub input: u64,
    /// Items surviving the stage.
    pub output: u64,
    /// Free-form qualifier (what the items are, which switch was on).
    pub detail: String,
}

impl FunnelStage {
    /// Fraction of input pruned by this stage (0 on empty input).
    pub fn pruned_frac(&self) -> f64 {
        if self.input == 0 {
            0.0
        } else {
            1.0 - self.output as f64 / self.input as f64
        }
    }
}

/// A captured observability report.
///
/// [`Report::capture`] snapshots the span and metric registries plus the
/// process-wide granularity compile outcomes; callers then attach stats
/// sections ([`Report::add_section`]) and the pruning funnel
/// ([`Report::set_funnel`]) before rendering.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Span aggregates at capture time.
    pub spans: SpanSnapshot,
    /// Counters and histograms at capture time.
    pub metrics: MetricsSnapshot,
    sections: Vec<(String, Vec<(&'static str, ObsValue)>)>,
    funnel: Vec<FunnelStage>,
}

impl Report {
    /// Snapshots the global registries. The periodic compiler's
    /// compiled/fallback outcomes are included automatically as a
    /// `granularity.compile` section.
    pub fn capture() -> Report {
        let mut r = Report {
            spans: span::snapshot(),
            metrics: metrics::snapshot(),
            sections: Vec::new(),
            funnel: Vec::new(),
        };
        r.add_section("granularity.compile", &periodic::stats());
        r
    }

    /// Attaches a named stats section via its [`Observable`] pairs.
    pub fn add_section(&mut self, name: &str, stats: &dyn Observable) {
        self.sections.push((name.to_string(), stats.observed()));
    }

    /// Sets the pruning-funnel stages (replacing any previous funnel).
    pub fn set_funnel(&mut self, stages: Vec<FunnelStage>) {
        self.funnel = stages;
    }

    /// The funnel stages, in order.
    pub fn funnel(&self) -> &[FunnelStage] {
        &self.funnel
    }

    /// The attached sections, in insertion order.
    pub fn sections(&self) -> &[(String, Vec<(&'static str, ObsValue)>)] {
        &self.sections
    }

    /// Renders the human-readable report: span tree, pruning funnel,
    /// counters, histogram summaries and attached sections.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== tgm observability report ==\n");

        if !self.spans.spans.is_empty() {
            out.push_str("\n-- spans --\n");
            render_span_tree(&self.spans, &mut out);
        }

        if !self.funnel.is_empty() {
            out.push_str("\n-- pruning funnel --\n");
            let widest = self.funnel.iter().map(|s| s.step.len()).max().unwrap_or(0);
            for stage in &self.funnel {
                let _ = writeln!(
                    out,
                    "  {:widest$}  {:>10} -> {:<10} ({:5.1}% pruned)  {}",
                    stage.step,
                    stage.input,
                    stage.output,
                    stage.pruned_frac() * 100.0,
                    stage.detail,
                );
            }
        }

        if !self.metrics.counters.is_empty() {
            out.push_str("\n-- counters --\n");
            for (name, v) in &self.metrics.counters {
                let _ = writeln!(out, "  {name} = {v}");
            }
        }

        if !self.metrics.histograms.is_empty() {
            out.push_str("\n-- histograms (log2 buckets) --\n");
            for (name, h) in &self.metrics.histograms {
                let _ = writeln!(
                    out,
                    "  {name}: n={} p50>={} p90>={} max>={}",
                    h.count(),
                    h.quantile_lo(0.5).unwrap_or(0),
                    h.quantile_lo(0.9).unwrap_or(0),
                    h.max_lo().unwrap_or(0),
                );
            }
        }

        for (name, pairs) in &self.sections {
            let _ = writeln!(out, "\n-- {name} --");
            for (k, v) in pairs {
                let _ = writeln!(out, "  {k} = {v}");
            }
        }
        out
    }

    /// Serializes the report as a JSON object (schema
    /// `tgm_obs_report/v1`). Hand-rolled like the workspace's other JSON
    /// writers; `crates/events`' `minijson` parses it back for schema
    /// validation in `obs_report`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"schema\":\"tgm_obs_report/v1\",\"spans\":{");
        for (i, (name, s)) in self.spans.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_str(name, &mut out);
            let _ = write!(
                out,
                ":{{\"count\":{},\"total_ns\":{},\"max_ns\":{}}}",
                s.count, s.total_ns, s.max_ns
            );
        }
        out.push_str("},\"counters\":{");
        for (i, (name, v)) in self.metrics.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_str(name, &mut out);
            let _ = write!(out, ":{v}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.metrics.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_str(name, &mut out);
            let _ = write!(out, ":{{\"count\":{},\"buckets\":[", h.count());
            let mut first = true;
            for (b, &c) in h.buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "[{},{}]", metrics::bucket_lo(b), c);
            }
            out.push_str("]}");
        }
        out.push_str("},\"funnel\":[");
        for (i, stage) in self.funnel.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"step\":");
            json_str(&stage.step, &mut out);
            let _ = write!(out, ",\"in\":{},\"out\":{},\"detail\":", stage.input, stage.output);
            json_str(&stage.detail, &mut out);
            out.push('}');
        }
        out.push_str("],\"sections\":{");
        for (i, (name, pairs)) in self.sections.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_str(name, &mut out);
            out.push_str(":{");
            for (j, (k, v)) in pairs.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                json_str(k, &mut out);
                out.push(':');
                v.write_json(&mut out);
            }
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

/// Renders the dotted span names as an indented tree. Parents that never
/// ran as spans themselves (e.g. `session` under `session.push`)
/// still appear as bare grouping lines.
fn render_span_tree(snap: &SpanSnapshot, out: &mut String) {
    let mut printed: Vec<String> = Vec::new();
    for (name, stats) in &snap.spans {
        let parts: Vec<&str> = name.split('.').collect();
        // Print any grouping ancestors not yet emitted.
        for d in 1..parts.len() {
            let prefix = parts[..d].join(".");
            if !printed.contains(&prefix) {
                if !snap.spans.contains_key(&prefix) {
                    let _ = writeln!(out, "  {}{}", "  ".repeat(d - 1), parts[d - 1]);
                }
                printed.push(prefix);
            }
        }
        let depth = parts.len() - 1;
        let _ = writeln!(
            out,
            "  {}{:24} total {:9.3} ms  n={:<6} mean {:9.1} ns  max {:9.1} us",
            "  ".repeat(depth),
            parts[depth],
            stats.total_ms(),
            stats.count,
            stats.mean_ns(),
            stats.max_ns as f64 / 1e3,
        );
        printed.push(name.clone());
    }
}

/// Writes `s` as a JSON string literal with escaping.
pub(crate) fn json_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Convenience: the combined stats for spans rendered at the root of the
/// tree (total wall time attributed to top-level spans).
pub fn top_level_total(snap: &SpanSnapshot) -> SpanStats {
    let mut total = SpanStats::default();
    for (name, s) in &snap.spans {
        if !name.contains('.') {
            total = total + *s;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::TEST_LOCK;

    #[test]
    fn compile_stats_observable_pairs() {
        let s = periodic::CompileStats {
            compiled: 3,
            fallback: 1,
        };
        let pairs = s.observed();
        assert_eq!(pairs[0], ("compiled", ObsValue::U64(3)));
        assert_eq!(s.observed_value("fallback"), Some(ObsValue::U64(1)));
        assert_eq!(s.observed_value("hit_rate"), None);
    }

    #[test]
    fn funnel_math() {
        let stage = FunnelStage {
            step: "s".into(),
            input: 10,
            output: 4,
            detail: String::new(),
        };
        assert!((stage.pruned_frac() - 0.6).abs() < 1e-12);
        let empty = FunnelStage {
            step: "s".into(),
            input: 0,
            output: 0,
            detail: String::new(),
        };
        assert_eq!(empty.pruned_frac(), 0.0);
    }

    #[test]
    fn report_renders_and_serializes() {
        let _guard = TEST_LOCK.lock();
        crate::set_enabled(true);
        crate::reset();
        {
            let _a = crate::span!("report_test.outer");
            let _b = crate::span!("report_test.outer.inner");
            crate::metrics::counter_add("report_test.count", 7);
            crate::metrics::histogram_record("report_test.hist", 9);
        }
        let mut report = Report::capture();
        crate::set_enabled(false);
        report.set_funnel(vec![FunnelStage {
            step: "step1".into(),
            input: 100,
            output: 25,
            detail: "candidates".into(),
        }]);
        report.add_section(
            "compile",
            &periodic::CompileStats {
                compiled: 1,
                fallback: 7,
            },
        );

        let text = report.render();
        assert!(text.contains("outer"));
        assert!(text.contains("inner"));
        assert!(text.contains("report_test.count = 7"));
        assert!(text.contains("75.0% pruned"));
        assert!(text.contains("fallback = 7"));

        let json = report.to_json();
        assert!(json.starts_with("{\"schema\":\"tgm_obs_report/v1\""));
        assert!(json.contains("\"report_test.outer.inner\""));
        assert!(json.contains("\"report_test.count\":7"));
        assert!(json.contains("\"step\":\"step1\",\"in\":100,\"out\":25"));
        crate::reset();
    }

    #[test]
    fn json_escaping() {
        let mut out = String::new();
        json_str("a\"b\\c\nd\u{1}", &mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn nan_serializes_as_null() {
        let mut out = String::new();
        ObsValue::F64(f64::NAN).write_json(&mut out);
        assert_eq!(out, "null");
    }
}
