//! Unified observability for the rlwe workspace: a metrics registry
//! and exposition-format exporters.
//!
//! Two pieces, both std-only and lock-free on the hot path:
//!
//! - **[`registry`]** — named [`Counter`]s, [`Gauge`]s and sharded
//!   nanosecond [`Histogram`]s with label support. Handles are resolved
//!   *once* at registration (a [`Registry`] lookup under a mutex);
//!   recording through a handle afterwards is a single relaxed atomic
//!   operation, so instrumented hot paths never touch the registry lock.
//!   The encrypt/decrypt pipeline phases are histograms like any other
//!   (`rlwe_phase_ns{op, phase, param_set}`, resolved by `rlwe-core`'s
//!   contexts and recorded on every call).
//! - **[`export`]** — Prometheus-style text exposition, a pure
//!   function of a registry, so the server's `GET /metrics` serves
//!   [`render`] verbatim.
//!
//! The aligned-text-table formatter behind `rlwe-m4sim`'s table
//! reproduction lives in [`table`].
//!
//! # No secret data
//!
//! Metric names and label values must be keyed only by *public* data
//! (parameter set, kernel name, operation name — never key
//! material, messages or noise). Recording a duration or bumping a
//! counter performs no data-dependent branching, so instrumentation
//! cannot perturb constant-time code; the `crates/leakage` invariance
//! gates pin that CCA decapsulation advances every phase series by the
//! same count on its accept and implicit-reject paths.
//!
//! # Example
//!
//! ```
//! use rlwe_obs::Registry;
//!
//! let reg = Registry::new();
//! let hits = reg.counter("cache_hits_total", "Cache hits.", &[("tier", "l1")]);
//! hits.inc();
//! hits.add(2);
//! assert_eq!(hits.get(), 3);
//! let text = rlwe_obs::export::render_text(&reg);
//! assert!(text.contains("cache_hits_total{tier=\"l1\"} 3"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod hist;
pub mod registry;
pub mod table;

pub use hist::{Histogram, HistogramSnapshot};
pub use registry::{Counter, Gauge, Registry};
pub use table::{group_digits, Align, Col, TextTable};

use std::sync::OnceLock;

/// The process-wide default registry. Every crate in the workspace
/// registers its instrumentation here, so one [`render`] call exposes
/// the whole stack.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Renders the global registry in Prometheus text exposition format.
///
/// Pure read: the returned string is exactly what a metrics endpoint
/// should serve.
pub fn render() -> String {
    export::render_text(global())
}

#[cfg(test)]
mod tests {
    #[test]
    fn global_registry_is_a_singleton() {
        let a = super::global() as *const _;
        let b = super::global() as *const _;
        assert_eq!(a, b);
    }
}
