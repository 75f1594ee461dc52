//! The traced run's decomposition table and the metric list printed as
//! the result.

use crate::load::{Phase, Span};
use crate::replay::Layers;
use crate::stats::mean;
use std::collections::BTreeMap;
use std::fmt::Write;

/// Metrics in print order: name → (value, unit).
pub type Metrics = Vec<(String, f64, &'static str)>;

/// Mean duration (µs) of each client phase, and per-trace totals.
pub struct SpanStats {
    by_phase: BTreeMap<&'static str, Vec<f64>>,
    /// Per trace id: summed µs of each phase within that trace.
    per_trace: BTreeMap<u64, BTreeMap<&'static str, f64>>,
}

impl SpanStats {
    pub fn new(spans: &[Span]) -> Self {
        let mut by_phase: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut per_trace: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for s in spans {
            by_phase.entry(s.phase.name()).or_default().push(s.us());
            *per_trace
                .entry(s.trace)
                .or_default()
                .entry(s.phase.name())
                .or_default() += s.us();
        }
        Self {
            by_phase,
            per_trace,
        }
    }

    /// Durations (µs) of every span of `phase`.
    pub fn samples(&self, phase: Phase) -> Vec<f64> {
        self.by_phase.get(phase.name()).cloned().unwrap_or_default()
    }

    /// Mean duration (µs) of `phase`, 0 when never recorded.
    pub fn mean(&self, phase: Phase) -> f64 {
        self.by_phase.get(phase.name()).map_or(0.0, |v| mean(v))
    }

    /// Over the traces that contain `parent`, the mean per-trace total
    /// of `child` (a handshake's initiate spans summed over retries).
    pub fn mean_within(&self, parent: Phase, child: Phase) -> f64 {
        let totals: Vec<f64> = self
            .per_trace
            .values()
            .filter(|t| t.contains_key(parent.name()))
            .map(|t| t.get(child.name()).copied().unwrap_or(0.0))
            .collect();
        mean(&totals)
    }
}

/// One decomposition row: a measured whole and the parts it should be
/// the sum of.
pub struct Row {
    pub name: String,
    pub measured_us: f64,
    pub parts: Vec<(String, f64)>,
    /// Traced over untraced mean, minus one, where the row has an
    /// untraced counterpart.
    pub overhead: Option<f64>,
}

impl Row {
    pub fn new(name: impl Into<String>, measured_us: f64) -> Self {
        Self {
            name: name.into(),
            measured_us,
            parts: Vec::new(),
            overhead: None,
        }
    }

    pub fn part(mut self, name: impl Into<String>, us: f64) -> Self {
        self.parts.push((name.into(), us));
        self
    }

    /// Adds replayed layer `key` of `layers`, `times` times.
    pub fn layer(self, layers: &Layers, key: &str, times: f64) -> Self {
        let us = layers.get(key).copied().unwrap_or(0.0) * times;
        let label = if times == 1.0 {
            key.to_string()
        } else {
            format!("{times}x {key}")
        };
        self.part(label, us)
    }

    pub fn overhead(mut self, overhead: Option<f64>) -> Self {
        self.overhead = overhead;
        self
    }

    /// Share of the measured whole that no part accounts for.
    pub fn unattributed(&self) -> f64 {
        let sum: f64 = self.parts.iter().map(|(_, us)| us).sum();
        if self.measured_us > 0.0 {
            (self.measured_us - sum) / self.measured_us
        } else {
            0.0
        }
    }
}

/// What the traced run observed, for the decomposition table.
pub struct Observed<'a> {
    pub spans: &'a SpanStats,
    /// Tracing overhead of the exchange, handshake and connect phases.
    pub overhead: [Option<f64>; 3],
    /// Layers that do not depend on the parameter set.
    pub sym: &'a Layers,
    /// Layers of the parameter set the workload serves.
    pub served: &'a Layers,
    /// Mean server dispatch time (µs) per op, from `/metrics`.
    pub dispatch_us: &'a dyn Fn(&str) -> f64,
    /// Round trip of `public_key` on a warm connection (µs).
    pub warm_public_key_us: f64,
    /// The workload's payload size as it appears in layer names.
    pub size: &'static str,
}

/// The decomposition: each row's whole should be the sum of its parts.
/// Client rows come from spans, dispatch rows from `/metrics`, the rest
/// from the layer replay.
pub fn decomposition(o: &Observed) -> Vec<Row> {
    let (sp, sym, l, size) = (o.spans, o.sym, o.served, o.size);
    let hs = |p| sp.mean_within(Phase::Handshake, p);
    let sized = |key: &str| key.replace("{size}", size);
    let at = |layers: &Layers, key: &str| layers.get(key).copied().unwrap_or(0.0);
    let [exchange_ovh, handshake_ovh, connect_ovh] = o.overhead;
    vec![
        Row::new("client exchange (mean)", sp.mean(Phase::Exchange))
            .part("seal", sp.mean(Phase::Seal))
            .part("frame round trip", sp.mean(Phase::Frame))
            .part("open", sp.mean(Phase::Open))
            .overhead(exchange_ovh),
        Row::new("client frame round trip (mean)", sp.mean(Phase::Frame)).part(
            "server session_frame dispatch",
            (o.dispatch_us)("session_frame"),
        ),
        Row::new(
            "server session_frame dispatch (mean)",
            (o.dispatch_us)("session_frame"),
        )
        .layer(sym, &sized("engine.session.open_{size}_us"), 1.0)
        .layer(sym, &sized("engine.session.seal_{size}_us"), 1.0),
        Row::new(
            format!("engine seal {size}"),
            at(sym, &sized("engine.session.seal_{size}_us")),
        )
        .layer(sym, &sized("hash.keystream_{size}_us"), 1.0)
        .layer(sym, &sized("hash.frame_tag_{size}_us"), 1.0),
        Row::new(
            format!("engine open {size}"),
            at(sym, &sized("engine.session.open_{size}_us")),
        )
        .layer(sym, &sized("hash.frame_tag_{size}_us"), 1.0)
        .layer(sym, &sized("hash.keystream_{size}_us"), 1.0),
        Row::new("client handshake (mean)", sp.mean(Phase::Handshake))
            .part("pk_from_bytes", hs(Phase::PkFromBytes))
            .part("initiate (all attempts)", hs(Phase::Initiate))
            .part("hello round trips (all attempts)", hs(Phase::Hello))
            .overhead(handshake_ovh),
        Row::new("client hello round trip (mean)", sp.mean(Phase::Hello)).part(
            "server session_hello dispatch",
            (o.dispatch_us)("session_hello"),
        ),
        Row::new(
            "server session_hello dispatch (mean)",
            (o.dispatch_us)("session_hello"),
        )
        .layer(l, "engine.session.accept_us", 1.0),
        Row::new("engine accept", at(l, "engine.session.accept_us"))
            .layer(l, "core.serialize.ct_from_bytes_us", 1.0)
            .layer(l, "core.kem.decap_us", 1.0)
            .layer(l, "hash.sha256_us", 1.0)
            .layer(sym, "hash.kdf2_keys_us", 2.0)
            .layer(sym, "hash.hmac_confirm_us", 1.0),
        Row::new("core decap", at(l, "core.kem.decap_us"))
            .layer(l, "core.pke.decrypt_us", 1.0)
            .layer(l, "core.serialize.ct_to_bytes_us", 1.0)
            .layer(l, "hash.sha256_us", 1.0),
        Row::new("core decrypt", at(l, "core.pke.decrypt_us"))
            .layer(l, "ntt.pointwise_us", 1.0)
            .layer(l, "ntt.inverse_us", 1.0)
            .layer(l, "core.encode.decode_us", 1.0),
        Row::new("engine initiate", at(l, "engine.session.initiate_us"))
            .layer(l, "core.kem.encap_us", 1.0)
            .layer(l, "core.serialize.ct_to_bytes_us", 1.0)
            .layer(l, "hash.sha256_us", 1.0)
            .layer(sym, "hash.kdf2_keys_us", 2.0)
            .layer(sym, "hash.hmac_confirm_us", 1.0),
        Row::new("core encap", at(l, "core.kem.encap_us"))
            .layer(l, "core.pke.encrypt_us", 1.0)
            .layer(l, "core.serialize.ct_to_bytes_us", 1.0)
            .layer(l, "hash.sha256_us", 1.0),
        Row::new("core encrypt", at(l, "core.pke.encrypt_us"))
            .layer(l, "sampler.sample_poly_us", 3.0)
            .layer(l, "core.encode.encode_us", 1.0)
            .layer(l, "ntt.forward_us", 3.0)
            .layer(l, "ntt.pointwise_us", 2.0),
        Row::new("client connect (mean)", sp.mean(Phase::Connect))
            .part("tcp_connect", sp.mean(Phase::TcpConnect))
            .part("warm public_key round trip (p50)", o.warm_public_key_us)
            .overhead(connect_ovh),
        Row::new("warm public_key round trip (p50)", o.warm_public_key_us)
            .part("server public_key dispatch", (o.dispatch_us)("public_key")),
    ]
}

/// Renders the decomposition table.
pub fn table(title: &str, rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:<44} {:>11} {:>11} {:>13} {:>9}",
        "row", "whole_us", "parts_us", "unattributed", "trace_ovh"
    );
    for r in rows {
        let sum: f64 = r.parts.iter().map(|(_, us)| us).sum();
        let ovh = r
            .overhead
            .map_or_else(|| "-".to_string(), |o| format!("{:+.1}%", o * 100.0));
        let _ = writeln!(
            out,
            "{:<44} {:>11.2} {:>11.2} {:>12.1}% {:>9}",
            r.name,
            r.measured_us,
            sum,
            r.unattributed() * 100.0,
            ovh
        );
        for (name, us) in &r.parts {
            let _ = writeln!(out, "    {name:<40} {us:>11.2}");
        }
    }
    out
}

/// Formats the result line: one JSON object with `correct`,
/// `attempted`, `failed` and every metric with its unit.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_report_the_unattributed_share() {
        let r = Row::new("x", 10.0).part("a", 4.0).part("b", 5.0);
        assert!((r.unattributed() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn result_is_one_json_object() {
        let m: Metrics = vec![("setup_s".into(), 0.25, "s"), ("x".into(), 3.0, "us")];
        assert_eq!(
            result_json(true, 5, 0, &m),
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"x\": {\"value\": 3.0, \"unit\": \"us\"}}}"
        );
    }
}
