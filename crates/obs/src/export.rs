//! The exposition-format exporter: Prometheus-style text.
//!
//! [`render_text`] is a pure function of a [`Registry`] — no I/O, no
//! global state beyond the registry handed in — so the server's
//! `GET /metrics` serves [`crate::render`]'s output verbatim. Output
//! ordering is fully deterministic (entries sorted by `(name, labels)`),
//! which the golden tests in `tests/golden.rs` pin.

use crate::hist::HistogramSnapshot;
use crate::registry::{ExportValue, Registry};
use std::fmt::Write;

/// Escapes a label value per the Prometheus text format: `\`, `"` and
/// newline.
fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes HELP text: `\` and newline (quotes are legal there).
fn escape_help(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders `{k="v",...}`, optionally with one extra pair appended
/// (used for the `quantile` label on summary rows). Empty labels render
/// as an empty string.
fn label_block(labels: &[(&'static str, String)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels.iter().map(|(k, v)| (*k, v.as_str())).chain(extra) {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    out.push('}');
    out
}

/// The quantiles exported for every histogram.
const QUANTILES: [(f64, &str); 3] = [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")];

fn write_summary(
    out: &mut String,
    name: &str,
    labels: &[(&'static str, String)],
    s: &HistogramSnapshot,
) {
    for (q, qs) in QUANTILES {
        let _ = writeln!(
            out,
            "{name}{} {}",
            label_block(labels, Some(("quantile", qs))),
            s.quantile_ns(q)
        );
    }
    let _ = writeln!(
        out,
        "{name}_sum{} {}",
        label_block(labels, None),
        s.sum_ns()
    );
    let _ = writeln!(out, "{name}_count{} {}", label_block(labels, None), s.len());
}

/// Renders a registry in Prometheus text exposition format: `# HELP` /
/// `# TYPE` headers once per metric name, then one line per series
/// (histograms as summaries with `quantile` labels plus `_sum` and
/// `_count`). Deterministic: series sorted by `(name, labels)`.
pub fn render_text(reg: &Registry) -> String {
    let mut out = String::new();
    let mut last_name = "";
    for e in reg.export_entries() {
        if e.name != last_name {
            let kind = match e.value {
                ExportValue::Counter(_) => "counter",
                ExportValue::Gauge(_) => "gauge",
                ExportValue::Summary(_) => "summary",
            };
            let _ = writeln!(out, "# HELP {} {}", e.name, escape_help(e.help));
            let _ = writeln!(out, "# TYPE {} {kind}", e.name);
            last_name = e.name;
        }
        match &e.value {
            ExportValue::Counter(v) => {
                let _ = writeln!(out, "{}{} {v}", e.name, label_block(&e.labels, None));
            }
            ExportValue::Gauge(v) => {
                let _ = writeln!(out, "{}{} {v}", e.name, label_block(&e.labels, None));
            }
            ExportValue::Summary(s) => write_summary(&mut out, e.name, &e.labels, s),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_escaping_covers_the_format_specials() {
        assert_eq!(escape_label(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape_label("x\ny"), r"x\ny");
    }

    #[test]
    fn empty_registry_renders_empty_text() {
        let reg = Registry::new();
        assert_eq!(render_text(&reg), "");
    }

    #[test]
    fn counter_line_shape() {
        let reg = Registry::new();
        reg.counter("x_total", "An x.", &[("k", "v")]).add(7);
        let text = render_text(&reg);
        assert!(text.contains("# HELP x_total An x.\n"));
        assert!(text.contains("# TYPE x_total counter\n"));
        assert!(text.contains("x_total{k=\"v\"} 7\n"));
    }

    #[test]
    fn summary_emits_quantiles_sum_and_count() {
        let reg = Registry::new();
        let h = reg.histogram("lat_ns", "Latency.", &[]);
        h.record_ns(100);
        let text = render_text(&reg);
        assert!(text.contains("# TYPE lat_ns summary\n"));
        assert!(text.contains("lat_ns{quantile=\"0.5\"}"));
        assert!(text.contains("lat_ns_sum 100\n"));
        assert!(text.contains("lat_ns_count 1\n"));
    }
}
