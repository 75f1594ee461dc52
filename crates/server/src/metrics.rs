//! The server's `rlwe-obs` instrumentation, resolved once at startup.
//!
//! All handles point into the process-wide registry
//! ([`rlwe_obs::global`]), so a single `GET /metrics` response carries
//! the server and session series next to the pool/NTT/KEM series the
//! rest of the stack already exports. Series (all prefixed `rlwe_server_`):
//!
//! - `connections_accepted_total`, `connections_rejected_total{reason}`,
//!   `connections_active` — front-door accounting.
//! - `worker_threads` — live worker threads, parked or serving.
//! - `requests_total{op}` / `request_ns{op,param_set}` — per-operation
//!   counts and latency histograms.
//! - `idle_evictions_total` — connections closed for silence.
//! - `http_requests_total{path}` — metrics/health scrapes.
//!
//! The session series keep their `rlwe_session_` prefix and a
//! `param_set` label; `dispatch_request` counts them as it accepts
//! hellos and opens and seals frames:
//!
//! - `rlwe_session_handshakes_total{role="responder"}` — hellos accepted.
//! - `rlwe_session_handshake_failures_total` — hellos whose key
//!   confirmation failed ([`rlwe_engine::SessionError::HandshakeFailed`]),
//!   the per-set KEM decryption-failure signal. Malformed hellos are not
//!   counted here; they show in
//!   `rlwe_server_requests_total{op="session_hello"}`.
//! - `rlwe_session_frames_{sealed,opened,rejected}_total` — frames the
//!   server sealed, opened, and refused on an established session.

use crate::wire::{OpCode, ALL_OPS};
use rlwe_obs::{Counter, Gauge, Histogram};

/// Reasons a connection can be refused at the front door (the
/// `reason` label of `rlwe_server_connections_rejected_total`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The live-connection ceiling was reached (or the OS refused
    /// another worker thread).
    MaxConns,
    /// The server is draining for shutdown.
    Shutdown,
}

impl RejectReason {
    fn label(self) -> &'static str {
        match self {
            RejectReason::MaxConns => "max_conns",
            RejectReason::Shutdown => "shutdown",
        }
    }
}

/// Pre-resolved handles for every server series. See the
/// [module docs](self).
pub struct ServerMetrics {
    accepted: Counter,
    rejected_max_conns: Counter,
    rejected_shutdown: Counter,
    active: Gauge,
    worker_threads: Gauge,
    requests: [Counter; ALL_OPS.len()],
    request_ns: [Histogram; ALL_OPS.len()],
    idle_evictions: Counter,
    http_metrics: Counter,
    http_healthz: Counter,
    http_other: Counter,
    handshakes: Counter,
    handshake_failures: Counter,
    frames_sealed: Counter,
    frames_opened: Counter,
    frames_rejected: Counter,
}

impl ServerMetrics {
    /// Resolves every handle against the global registry. `param_set`
    /// labels the latency histograms and the session series.
    pub fn new(param_set: &str) -> Self {
        let reg = rlwe_obs::global();
        let set_label = [("param_set", param_set)];
        let rejected = |reason: RejectReason| {
            reg.counter(
                "rlwe_server_connections_rejected_total",
                "Connections refused at the front door, by reason.",
                &[("reason", reason.label())],
            )
        };
        Self {
            accepted: reg.counter(
                "rlwe_server_connections_accepted_total",
                "Connections accepted and handed to a worker.",
                &[],
            ),
            rejected_max_conns: rejected(RejectReason::MaxConns),
            rejected_shutdown: rejected(RejectReason::Shutdown),
            active: reg.gauge(
                "rlwe_server_connections_active",
                "Connections currently being served.",
                &[],
            ),
            worker_threads: reg.gauge(
                "rlwe_server_worker_threads",
                "Live worker threads, parked or serving.",
                &[],
            ),
            requests: ALL_OPS.map(|op| {
                reg.counter(
                    "rlwe_server_requests_total",
                    "Requests served, by operation.",
                    &[("op", op.label())],
                )
            }),
            request_ns: ALL_OPS.map(|op| {
                reg.histogram(
                    "rlwe_server_request_ns",
                    "Request service latency in nanoseconds, by operation.",
                    &[("op", op.label()), ("param_set", param_set)],
                )
            }),
            idle_evictions: reg.counter(
                "rlwe_server_idle_evictions_total",
                "Connections closed after sitting idle past the deadline.",
                &[],
            ),
            http_metrics: reg.counter(
                "rlwe_server_http_requests_total",
                "Plaintext HTTP requests served, by path.",
                &[("path", "/metrics")],
            ),
            http_healthz: reg.counter(
                "rlwe_server_http_requests_total",
                "Plaintext HTTP requests served, by path.",
                &[("path", "/healthz")],
            ),
            http_other: reg.counter(
                "rlwe_server_http_requests_total",
                "Plaintext HTTP requests served, by path.",
                &[("path", "other")],
            ),
            handshakes: reg.counter(
                "rlwe_session_handshakes_total",
                "Session handshakes by role.",
                &[("param_set", param_set), ("role", "responder")],
            ),
            handshake_failures: reg.counter(
                "rlwe_session_handshake_failures_total",
                "Handshakes rejected (KEM decryption failure or bad confirm tag).",
                &set_label,
            ),
            frames_sealed: reg.counter(
                "rlwe_session_frames_sealed_total",
                "Session frames sealed.",
                &set_label,
            ),
            frames_opened: reg.counter(
                "rlwe_session_frames_opened_total",
                "Session frames opened (MAC verified).",
                &set_label,
            ),
            frames_rejected: reg.counter(
                "rlwe_session_frames_rejected_total",
                "Session frames rejected (bad MAC / sequence / framing).",
                &set_label,
            ),
        }
    }

    /// One accepted connection.
    pub fn on_accept(&self) {
        self.accepted.inc();
        self.active.add(1);
    }

    fn rejected(&self, reason: RejectReason) -> &Counter {
        match reason {
            RejectReason::MaxConns => &self.rejected_max_conns,
            RejectReason::Shutdown => &self.rejected_shutdown,
        }
    }

    /// One refused connection.
    pub fn on_reject(&self, reason: RejectReason) {
        self.rejected(reason).inc();
    }

    /// A worker thread started.
    pub fn on_worker_start(&self) {
        self.worker_threads.add(1);
    }

    /// A worker thread retired.
    pub fn on_worker_exit(&self) {
        self.worker_threads.sub(1);
    }

    /// A live connection went away (served, evicted, or errored).
    pub fn on_close(&self) {
        self.active.sub(1);
    }

    /// One served request of operation `op` taking `elapsed`.
    pub fn on_request(&self, op: OpCode, elapsed: std::time::Duration) {
        let idx = op_index(op);
        // panic-allow(op_index is an exhaustive match onto 0..ALL_OPS.len())
        self.requests[idx].inc();
        // panic-allow(op_index is an exhaustive match onto 0..ALL_OPS.len())
        self.request_ns[idx].record(elapsed);
    }

    /// One session hello accepted.
    pub fn on_handshake(&self) {
        self.handshakes.inc();
    }

    /// One session hello refused on failed key confirmation (malformed
    /// hellos are not counted).
    pub fn on_handshake_failure(&self) {
        self.handshake_failures.inc();
    }

    /// One session frame opened and its echo sealed.
    pub fn on_frame_echoed(&self) {
        self.frames_opened.inc();
        self.frames_sealed.inc();
    }

    /// One session frame refused on an established session.
    pub fn on_frame_rejected(&self) {
        self.frames_rejected.inc();
    }

    /// One idle eviction.
    pub fn on_idle_eviction(&self) {
        self.idle_evictions.inc();
    }

    /// One plaintext HTTP request for `path`.
    pub fn on_http(&self, path: &str) {
        match path {
            "/metrics" => self.http_metrics.inc(),
            "/healthz" => self.http_healthz.inc(),
            _ => self.http_other.inc(),
        }
    }

    /// Total accepted connections.
    pub fn accepted_total(&self) -> u64 {
        self.accepted.get()
    }

    /// Connections refused at the front door for `reason`.
    pub fn rejected_total(&self, reason: RejectReason) -> u64 {
        self.rejected(reason).get()
    }

    /// Currently live connections.
    pub fn active_connections(&self) -> i64 {
        self.active.get()
    }

    /// Total idle evictions.
    pub fn idle_evictions_total(&self) -> u64 {
        self.idle_evictions.get()
    }

    /// Session hellos accepted.
    pub fn handshakes_total(&self) -> u64 {
        self.handshakes.get()
    }

    /// Session hellos refused on failed key confirmation.
    pub fn handshake_failures_total(&self) -> u64 {
        self.handshake_failures.get()
    }

    /// Session frames sealed.
    pub fn frames_sealed_total(&self) -> u64 {
        self.frames_sealed.get()
    }

    /// Session frames opened.
    pub fn frames_opened_total(&self) -> u64 {
        self.frames_opened.get()
    }

    /// Session frames refused on an established session.
    pub fn frames_rejected_total(&self) -> u64 {
        self.frames_rejected.get()
    }

    /// Requests served for one opcode.
    pub fn requests_total(&self, op: OpCode) -> u64 {
        // panic-allow(op_index is an exhaustive match onto 0..ALL_OPS.len())
        self.requests[op_index(op)].get()
    }
}

/// Slot of `op` in the [`ALL_OPS`]-shaped metric arrays. The exhaustive
/// match (checked against `ALL_OPS` in tests) cannot produce an index
/// out of `0..ALL_OPS.len()`, unlike the `position(..).expect(..)` it
/// replaced.
fn op_index(op: OpCode) -> usize {
    match op {
        OpCode::Ping => 0,
        OpCode::PublicKey => 1,
        OpCode::SessionHello => 2,
        OpCode::SessionFrame => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_index_agrees_with_all_ops_order() {
        for (want, op) in ALL_OPS.into_iter().enumerate() {
            assert_eq!(op_index(op), want, "{op:?}");
            assert!(op_index(op) < ALL_OPS.len());
        }
    }
}
