//! The metrics registry: named, labelled counters, gauges and
//! histograms with cheap pre-resolved handles.
//!
//! Registration takes the registry mutex once and returns a handle
//! ([`Counter`], [`Gauge`], [`crate::Histogram`]) that shares the
//! underlying atomic cells; recording through the handle afterwards
//! never touches the lock. Registering the same `(name, labels)` pair
//! again returns a handle to the *same* cells, so independent callers
//! (two servers on the same parameter set, say) aggregate naturally.

use crate::hist::{Histogram, HistogramSnapshot};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotone counter handle; clones share the cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh zeroed counter (unregistered; for private/local use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one: a single relaxed atomic add.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`: a single relaxed atomic add.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle (a value that can go up and down); clones share the
/// cell.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A fresh zeroed gauge (unregistered; for private/local use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative via [`Gauge::sub`]).
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Subtracts `d`.
    #[inline]
    pub fn sub(&self, d: i64) {
        self.0.fetch_sub(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The three metric kinds a registry entry can hold.
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

struct Entry {
    name: &'static str,
    help: &'static str,
    labels: Vec<(&'static str, String)>,
    metric: Metric,
}

/// A frozen value read out of one registry entry, used by the exporters.
#[derive(Debug, Clone)]
pub(crate) enum ExportValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Full histogram snapshot (rendered as a Prometheus summary).
    Summary(Box<HistogramSnapshot>),
}

/// One exportable `(name, help, labels, value)` row.
pub(crate) struct ExportEntry {
    pub name: &'static str,
    pub help: &'static str,
    pub labels: Vec<(&'static str, String)>,
    pub value: ExportValue,
}

/// A collection of named metrics. See the [module docs](self).
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self {
            entries: Mutex::new(Vec::new()),
        }
    }

    fn get_or_insert<T: Clone>(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
        extract: impl Fn(&Metric) -> Option<T>,
        make: impl FnOnce() -> (T, Metric),
    ) -> T {
        let mut entries = self.entries.lock().expect("registry lock poisoned");
        if let Some(e) = entries.iter().find(|e| {
            e.name == name
                && e.labels.len() == labels.len()
                && e.labels
                    .iter()
                    .zip(labels.iter())
                    .all(|((ka, va), (kb, vb))| ka == kb && va == vb)
        }) {
            return extract(&e.metric).unwrap_or_else(|| {
                panic!(
                    "metric {name:?} already registered as a {}",
                    e.metric.kind()
                )
            });
        }
        let (handle, metric) = make();
        entries.push(Entry {
            name,
            help,
            labels: labels.iter().map(|(k, v)| (*k, (*v).to_string())).collect(),
            metric,
        });
        handle
    }

    /// Registers (or re-resolves) a counter. Labels are `(key, value)`
    /// pairs; the same `(name, labels)` always yields the same cell.
    ///
    /// # Panics
    ///
    /// Panics if `(name, labels)` is already registered as a different
    /// metric kind.
    pub fn counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Counter {
        self.get_or_insert(
            name,
            help,
            labels,
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
            || {
                let c = Counter::new();
                (c.clone(), Metric::Counter(c))
            },
        )
    }

    /// Registers (or re-resolves) a gauge.
    ///
    /// # Panics
    ///
    /// Panics if `(name, labels)` is already registered as a different
    /// metric kind.
    pub fn gauge(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Gauge {
        self.get_or_insert(
            name,
            help,
            labels,
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            || {
                let g = Gauge::new();
                (g.clone(), Metric::Gauge(g))
            },
        )
    }

    /// Registers (or re-resolves) a nanosecond histogram.
    ///
    /// # Panics
    ///
    /// Panics if `(name, labels)` is already registered as a different
    /// metric kind.
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Histogram {
        self.get_or_insert(
            name,
            help,
            labels,
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            || {
                let h = Histogram::new();
                (h.clone(), Metric::Histogram(h))
            },
        )
    }

    /// Number of registered `(name, labels)` entries.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("registry lock poisoned").len()
    }

    /// Whether nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Frozen, deterministically ordered values for the exporters:
    /// sorted by `(name, labels)` so renders are stable regardless of
    /// registration order.
    pub(crate) fn export_entries(&self) -> Vec<ExportEntry> {
        let entries = self.entries.lock().expect("registry lock poisoned");
        let mut out: Vec<ExportEntry> = entries
            .iter()
            .map(|e| ExportEntry {
                name: e.name,
                help: e.help,
                labels: e.labels.clone(),
                value: match &e.metric {
                    Metric::Counter(c) => ExportValue::Counter(c.get()),
                    Metric::Gauge(g) => ExportValue::Gauge(g.get()),
                    Metric::Histogram(h) => ExportValue::Summary(Box::new(h.snapshot())),
                },
            })
            .collect();
        out.sort_by(|a, b| (a.name, &a.labels).cmp(&(b.name, &b.labels)));
        out
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Registry {{ entries: {} }}", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_and_labels_share_the_cell() {
        let reg = Registry::new();
        let a = reg.counter("x_total", "X.", &[("k", "v")]);
        let b = reg.counter("x_total", "X.", &[("k", "v")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn different_labels_are_distinct_series() {
        let reg = Registry::new();
        let a = reg.counter("x_total", "X.", &[("k", "a")]);
        let b = reg.counter("x_total", "X.", &[("k", "b")]);
        a.inc();
        assert_eq!(b.get(), 0);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        let _ = reg.counter("x_total", "X.", &[]);
        let _ = reg.gauge("x_total", "X.", &[]);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Registry::new().gauge("depth", "D.", &[]);
        g.add(5);
        g.sub(2);
        assert_eq!(g.get(), 3);
        g.set(-1);
        assert_eq!(g.get(), -1);
    }

    #[test]
    fn export_entries_are_sorted() {
        let reg = Registry::new();
        let _ = reg.counter("b_total", "B.", &[]);
        let _ = reg.counter("a_total", "A.", &[("k", "z")]);
        let _ = reg.counter("a_total", "A.", &[("k", "a")]);
        let names: Vec<String> = reg
            .export_entries()
            .iter()
            .map(|e| format!("{}{:?}", e.name, e.labels))
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }
}
