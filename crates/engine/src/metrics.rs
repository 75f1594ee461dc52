//! Engine observability: operation counters and latency histograms,
//! rebuilt as a thin facade over the `rlwe-obs` registry.
//!
//! Every cell is **mirrored**: a private per-engine cell (what
//! [`EngineMetrics::report`] reads — exact and isolated, so two engines
//! in one process never pollute each other's counts) plus a handle into
//! the process-wide [`rlwe_obs::global`] registry labelled by
//! `param_set` (what `rlwe_obs::render()` exports — aggregated across
//! engines, which is what a metrics endpoint wants). Recording hits
//! both with relaxed atomic ops; the report's text format is unchanged
//! from the pre-registry implementation (now rendered through the
//! shared [`rlwe_obs::TextTable`]).
//!
//! Both sides of a mirrored histogram are the same type,
//! [`rlwe_obs::Histogram`]: the per-engine side is an unregistered
//! instance, so the report's latency summary ([`LatencySnapshot`]) is
//! derived from one consistent [`rlwe_obs::HistogramSnapshot`] — count,
//! mean and every quantile describe the same population even while
//! writers are running.

use rlwe_obs::{Col, HistogramSnapshot, TextTable};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Frozen percentile summary of one histogram, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySnapshot {
    /// Recorded sample count.
    pub samples: u64,
    /// Mean latency (µs).
    pub mean_us: f64,
    /// Median (µs, rounded up).
    pub p50_us: u64,
    /// 90th percentile (µs, rounded up).
    pub p90_us: u64,
    /// 99th percentile (µs, rounded up).
    pub p99_us: u64,
}

impl LatencySnapshot {
    /// Summarizes one nanosecond histogram snapshot; every field derives
    /// from the same frozen copy of the cells.
    fn from_snapshot(s: &HistogramSnapshot) -> Self {
        let us = |q: f64| (s.quantile_ns(q) / 1e3).ceil() as u64;
        Self {
            samples: s.len(),
            mean_us: s.mean_ns() / 1e3,
            p50_us: us(0.50),
            p90_us: us(0.90),
            p99_us: us(0.99),
        }
    }
}

/// A counter that feeds both a private per-engine cell (exact, read by
/// [`EngineMetrics::report`]) and a shared series in the global
/// `rlwe-obs` registry (aggregated across engines, read by
/// `rlwe_obs::render`).
#[derive(Debug)]
pub struct MirroredCounter {
    local: AtomicU64,
    global: rlwe_obs::Counter,
}

impl MirroredCounter {
    fn new(global: rlwe_obs::Counter) -> Self {
        Self {
            local: AtomicU64::new(0),
            global,
        }
    }

    /// Adds one to both cells.
    #[inline]
    pub fn inc(&self) {
        self.add(1)
    }

    /// Adds `n` to both cells.
    #[inline]
    pub fn add(&self, n: u64) {
        self.local.fetch_add(n, Ordering::Relaxed);
        self.global.add(n);
    }

    /// This engine's count (the global series keeps aggregating across
    /// engines and is read through the registry instead).
    pub fn get(&self) -> u64 {
        self.local.load(Ordering::Relaxed)
    }
}

/// A latency histogram that feeds both a private per-engine
/// [`rlwe_obs::Histogram`] (read by [`EngineMetrics::report`]) and a
/// nanosecond histogram series in the global registry.
#[derive(Debug)]
pub struct MirroredHistogram {
    local: rlwe_obs::Histogram,
    global: rlwe_obs::Histogram,
}

impl MirroredHistogram {
    fn new(global: rlwe_obs::Histogram) -> Self {
        Self {
            local: rlwe_obs::Histogram::new(),
            global,
        }
    }

    /// Records one duration into both histograms.
    pub fn record(&self, d: Duration) {
        self.local.record(d);
        self.global.record(d);
    }

    /// Samples recorded by this engine.
    pub fn len(&self) -> u64 {
        self.local.snapshot().len()
    }

    /// Whether this engine recorded nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Live counters for one operation kind.
#[derive(Debug)]
pub struct OpMetrics {
    /// Items completed successfully.
    pub ok: MirroredCounter,
    /// Items that returned an error.
    pub failed: MirroredCounter,
    /// Per-batch wall-clock latency.
    pub batch_latency: MirroredHistogram,
}

impl OpMetrics {
    fn new(op: &'static str, set: &str) -> Self {
        let reg = rlwe_obs::global();
        let labels = [("op", op), ("param_set", set)];
        Self {
            ok: MirroredCounter::new(reg.counter(
                "rlwe_batch_items_total",
                "Batch items completed successfully.",
                &labels,
            )),
            failed: MirroredCounter::new(reg.counter(
                "rlwe_batch_failures_total",
                "Batch items that returned an error.",
                &labels,
            )),
            batch_latency: MirroredHistogram::new(reg.histogram(
                "rlwe_batch_latency_ns",
                "Whole-batch wall-clock latency.",
                &labels,
            )),
        }
    }

    fn snapshot(&self, name: &'static str) -> OpReport {
        OpReport {
            name,
            ok: self.ok.get(),
            failed: self.failed.get(),
            latency: LatencySnapshot::from_snapshot(&self.batch_latency.local.snapshot()),
        }
    }
}

/// All engine metrics, shared by reference with worker threads.
#[derive(Debug)]
pub struct EngineMetrics {
    /// Batch encryption.
    pub encrypt: OpMetrics,
    /// Batch decryption.
    pub decrypt: OpMetrics,
    /// Batch encapsulation.
    pub encap: OpMetrics,
    /// Batch decapsulation.
    pub decap: OpMetrics,
    /// Session frames sealed.
    pub frames_sealed: MirroredCounter,
    /// Session frames opened (MAC verified).
    pub frames_opened: MirroredCounter,
    /// Session frames rejected (bad MAC / sequence / framing).
    pub frames_rejected: MirroredCounter,
    /// Session handshakes initiated through this engine.
    pub handshakes_initiated: MirroredCounter,
    /// Session handshakes accepted through this engine.
    pub handshakes_accepted: MirroredCounter,
    /// Handshakes that failed (KEM decryption failure / bad confirm tag).
    pub handshake_failures: MirroredCounter,
    /// Items currently in flight across batch calls (global-only:
    /// a point-in-time quantity, meaningless to sum per engine).
    queue_depth: rlwe_obs::Gauge,
    /// Items handed to each worker per batch (global-only).
    per_worker_items: rlwe_obs::Histogram,
}

impl Default for EngineMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineMetrics {
    /// Fresh metrics with the global series labelled `param_set="unset"`
    /// (engines label with their real parameter set via
    /// [`EngineMetrics::for_params`]).
    pub fn new() -> Self {
        Self::for_params("unset")
    }

    /// Fresh metrics whose global registry series carry
    /// `param_set=<set>`. The per-engine cells always start at zero;
    /// the global series are shared with every other engine on the same
    /// parameter set.
    pub fn for_params(set: &str) -> Self {
        let reg = rlwe_obs::global();
        let set_label = [("param_set", set)];
        let frames = |name: &'static str, help: &'static str| {
            MirroredCounter::new(reg.counter(name, help, &set_label))
        };
        Self {
            encrypt: OpMetrics::new("encrypt", set),
            decrypt: OpMetrics::new("decrypt", set),
            encap: OpMetrics::new("encap", set),
            decap: OpMetrics::new("decap", set),
            frames_sealed: frames("rlwe_session_frames_sealed_total", "Session frames sealed."),
            frames_opened: frames(
                "rlwe_session_frames_opened_total",
                "Session frames opened (MAC verified).",
            ),
            frames_rejected: frames(
                "rlwe_session_frames_rejected_total",
                "Session frames rejected (bad MAC / sequence / framing).",
            ),
            handshakes_initiated: MirroredCounter::new(reg.counter(
                "rlwe_session_handshakes_total",
                "Session handshakes by role.",
                &[("param_set", set), ("role", "initiator")],
            )),
            handshakes_accepted: MirroredCounter::new(reg.counter(
                "rlwe_session_handshakes_total",
                "Session handshakes by role.",
                &[("param_set", set), ("role", "responder")],
            )),
            handshake_failures: frames(
                "rlwe_session_handshake_failures_total",
                "Handshakes rejected (KEM decryption failure or bad confirm tag).",
            ),
            queue_depth: reg.gauge(
                "rlwe_batch_queue_depth",
                "Batch items currently in flight.",
                &set_label,
            ),
            per_worker_items: reg.histogram(
                "rlwe_batch_items_per_worker",
                "Items assigned to each worker per batch (value = item count, not ns).",
                &set_label,
            ),
        }
    }

    /// Marks `items` entering a batch split across `workers`: raises the
    /// queue-depth gauge and records the per-worker chunk sizes the
    /// engine's contiguous splitter will hand out.
    pub(crate) fn batch_begin(&self, items: usize, workers: usize) {
        self.queue_depth.add(items as i64);
        if items == 0 {
            return;
        }
        // Mirrors `batch::fan_out_with`: `workers` clamped to the item
        // count, contiguous chunks of ceil(items / workers).
        let workers = workers.max(1).min(items);
        let chunk = items.div_ceil(workers);
        let mut remaining = items;
        while remaining > 0 {
            let this = chunk.min(remaining);
            self.per_worker_items.record_ns(this as u64);
            remaining -= this;
        }
    }

    /// Marks `items` leaving the batch: lowers the queue-depth gauge.
    pub(crate) fn batch_end(&self, items: usize) {
        self.queue_depth.sub(items as i64);
    }

    /// A point-in-time report, suitable for `println!`.
    pub fn report(&self) -> MetricsReport {
        MetricsReport {
            ops: vec![
                self.encrypt.snapshot("encrypt"),
                self.decrypt.snapshot("decrypt"),
                self.encap.snapshot("encap"),
                self.decap.snapshot("decap"),
            ],
            frames_sealed: self.frames_sealed.get(),
            frames_opened: self.frames_opened.get(),
            frames_rejected: self.frames_rejected.get(),
        }
    }
}

/// Frozen counters for one operation kind.
#[derive(Debug, Clone)]
pub struct OpReport {
    /// Operation label.
    pub name: &'static str,
    /// Successful items.
    pub ok: u64,
    /// Failed items.
    pub failed: u64,
    /// Batch latency summary.
    pub latency: LatencySnapshot,
}

/// A frozen, displayable snapshot of all engine metrics.
#[derive(Debug, Clone)]
pub struct MetricsReport {
    /// Per-operation rows.
    pub ops: Vec<OpReport>,
    /// Session frames sealed.
    pub frames_sealed: u64,
    /// Session frames opened.
    pub frames_opened: u64,
    /// Session frames rejected.
    pub frames_rejected: u64,
}

impl std::fmt::Display for MetricsReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut table = TextTable::new(vec![
            Col::left("op", 10),
            Col::right("ok", 10),
            Col::right("failed", 8),
            Col::right("batches", 9),
            Col::right("p50(µs)", 10),
            Col::right("p90(µs)", 10),
            Col::right("p99(µs)", 10),
        ]);
        for op in &self.ops {
            if op.ok == 0 && op.failed == 0 {
                continue;
            }
            table.row([
                op.name.to_string(),
                op.ok.to_string(),
                op.failed.to_string(),
                op.latency.samples.to_string(),
                op.latency.p50_us.to_string(),
                op.latency.p90_us.to_string(),
                op.latency.p99_us.to_string(),
            ]);
        }
        write!(f, "{}", table.render())?;
        writeln!(
            f,
            "frames: {} sealed, {} opened, {} rejected",
            self.frames_sealed, self.frames_opened, self.frames_rejected
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_active_ops_only() {
        let m = EngineMetrics::new();
        m.encrypt.ok.add(5);
        m.encrypt.batch_latency.record(Duration::from_micros(300));
        let text = m.report().to_string();
        assert!(text.contains("encrypt"));
        assert!(!text.contains("decap"));
        assert!(text.contains("frames: 0 sealed"));
    }

    #[test]
    fn report_format_is_byte_compatible_with_the_legacy_renderer() {
        let m = EngineMetrics::new();
        m.encrypt.ok.add(6);
        m.encrypt.batch_latency.record(Duration::from_micros(100));
        m.frames_sealed.inc();
        let text = m.report().to_string();
        let snap = m.report().ops[0].latency;
        let legacy = format!(
            "{:<10} {:>10} {:>8} {:>9} {:>10} {:>10} {:>10}\n{:<10} {:>10} {:>8} {:>9} {:>10} {:>10} {:>10}\nframes: 1 sealed, 0 opened, 0 rejected\n",
            "op", "ok", "failed", "batches", "p50(µs)", "p90(µs)", "p99(µs)",
            "encrypt", 6, 0, snap.samples, snap.p50_us, snap.p90_us, snap.p99_us,
        );
        assert_eq!(text, legacy);
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        let m = EngineMetrics::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        m.encrypt.ok.inc();
                        m.encrypt.batch_latency.record(Duration::from_micros(10));
                    }
                });
            }
        });
        assert_eq!(m.encrypt.ok.get(), 4000);
        assert_eq!(m.encrypt.batch_latency.len(), 4000);
    }

    #[test]
    fn per_engine_cells_are_isolated_but_global_series_aggregate() {
        let a = EngineMetrics::for_params("isolation-test");
        let b = EngineMetrics::for_params("isolation-test");
        a.encrypt.ok.add(3);
        b.encrypt.ok.add(4);
        assert_eq!(a.encrypt.ok.get(), 3);
        assert_eq!(b.encrypt.ok.get(), 4);
        // The shared global series sees both engines.
        let global = rlwe_obs::global().counter(
            "rlwe_batch_items_total",
            "Batch items completed successfully.",
            &[("op", "encrypt"), ("param_set", "isolation-test")],
        );
        assert_eq!(global.get(), 7);
    }

    #[test]
    fn batch_begin_matches_the_fan_out_split() {
        let m = EngineMetrics::for_params("split-test");
        // 10 items over 4 workers: chunks of 3,3,3,1 — the same split
        // batch::fan_out_with produces.
        m.batch_begin(10, 4);
        m.batch_end(10);
        let h = rlwe_obs::global().histogram(
            "rlwe_batch_items_per_worker",
            "Items assigned to each worker per batch (value = item count, not ns).",
            &[("param_set", "split-test")],
        );
        let snap = h.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(snap.sum_ns(), 10);
        let g = rlwe_obs::global().gauge(
            "rlwe_batch_queue_depth",
            "Batch items currently in flight.",
            &[("param_set", "split-test")],
        );
        assert_eq!(g.get(), 0);
    }
}
