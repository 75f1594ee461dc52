//! # rlwe-server
//!
//! A std-only TCP serving front-end for the rlwe engine — the piece
//! that finally listens on a socket. Encrypted-controller deployments
//! (arXiv 2406.14372, 2504.13403) assume exactly this shape: a
//! long-lived networked service executing Ring-LWE operations over a
//! stream of client requests.
//!
//! Five design commitments, each with its own module:
//!
//! * **Bounded everywhere** ([`config`], [`wire`]) — live connections
//!   have a hard ceiling (`max_conns`) and frame bodies have a hard byte
//!   bound, so a traffic spike or a hostile length prefix degrades into
//!   typed `Busy`/`BadRequest` responses instead of unbounded memory.
//! * **A pooled thread per live connection** ([`server`]) — one
//!   acceptor, blocked in `accept`, hands each connection to the most
//!   recently idle worker thread and spawns one only when none is idle;
//!   a held idle session never delays another client, and a worker
//!   parked for `idle_timeout` exits.
//! * **One protocol, two dialects** ([`wire`], [`http`]) — a
//!   length-prefixed binary protocol with four ops (ping, public key,
//!   and the engine's authenticated session handshake and frames); the
//!   same port answers plaintext `GET /metrics` (serving
//!   [`rlwe_obs::render`] verbatim) and `GET /healthz`, disambiguated
//!   by the first byte. The server's secret key is used only to accept
//!   session handshakes.
//! * **Config from the environment** ([`config`]) — address, connection
//!   ceiling, parameter set and every timeout come from `RLWE_*`
//!   variables, validated into typed errors.
//! * **Observable by default** ([`metrics`]) — accepted/rejected/active
//!   connections, live worker threads and per-op latency histograms
//!   flow into the process-wide `rlwe-obs` registry the endpoint itself
//!   serves.
//!
//! # Example
//!
//! ```no_run
//! use rlwe_server::{serve, Client, ServerConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = ServerConfig {
//!     addr: "127.0.0.1:0".parse()?, // ephemeral port
//!     ..ServerConfig::default()
//! };
//! let handle = serve(config)?;
//!
//! let mut client = Client::connect(handle.local_addr())?;
//! client.handshake(&[7u8; 32], 8)?;
//! let echo = client.exchange(b"over TCP, authenticated")?;
//! assert_eq!(echo, b"over TCP, authenticated");
//!
//! let scrape = rlwe_server::http_get(handle.local_addr(), "/metrics")?;
//! assert!(scrape.body.starts_with(b"# HELP"));
//! handle.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod config;
pub mod error;
pub mod http;
pub mod metrics;
pub mod server;
pub mod wire;

pub use client::{http_get, Client, HttpResponse};
pub use config::{ConfigError, ServerConfig};
pub use error::ServerError;
pub use metrics::{RejectReason, ServerMetrics};
pub use server::{serve, ServerHandle};
pub use wire::{OpCode, ProtocolError, Request, Response, Status};

#[cfg(test)]
mod tests {
    use super::*;
    use rlwe_core::ParamSet;

    fn loopback_config(param_set: ParamSet) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".parse().unwrap(),
            param_set,
            seed: [42u8; 32],
            ..ServerConfig::default()
        }
    }

    #[test]
    fn sessions_through_the_engine_count_frames() {
        // The only test in this binary serving P2, so the P2 session
        // series move only by what it does.
        let handle = serve(loopback_config(ParamSet::P2)).unwrap();
        let m = handle.metrics();
        let before = [
            m.handshakes_total(),
            m.frames_sealed_total(),
            m.frames_opened_total(),
            m.frames_rejected_total(),
        ];
        let mut client = Client::connect(handle.local_addr()).unwrap();
        client.handshake(&[4u8; 32], 8).unwrap();
        assert_eq!(client.exchange(b"metered").unwrap(), b"metered");
        // A frame that fails authentication on the live session.
        let resp = client
            .request_raw(OpCode::SessionFrame, &[0u8; FRAME_PROBE])
            .unwrap();
        assert_eq!(resp.status, Status::Rejected);
        let after = [
            m.handshakes_total(),
            m.frames_sealed_total(),
            m.frames_opened_total(),
            m.frames_rejected_total(),
        ];
        let delta: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
        assert_eq!(delta, [1, 1, 1, 1]);
        handle.shutdown();
    }

    /// Length of the forged frame: header plus tag plus a short body.
    const FRAME_PROBE: usize = rlwe_engine::FRAME_OVERHEAD + 8;

    #[test]
    fn global_render_exposes_the_stack_metrics() {
        // Drive the whole serving stack once, then check the global
        // registry export names every layer's series. Presence checks
        // only: other tests in this process write the same global
        // series concurrently.
        let handle = serve(loopback_config(ParamSet::P1)).unwrap();
        let mut client = Client::connect(handle.local_addr()).unwrap();
        client.handshake(&[31u8; 32], 8).unwrap();
        client.exchange(b"rendered").unwrap();
        let text = rlwe_obs::render();
        for name in [
            "rlwe_build_info",
            "rlwe_kem_op_ns",
            "rlwe_phase_ns",
            "rlwe_session_frames_sealed_total",
            "rlwe_session_handshakes_total",
            "rlwe_server_requests_total",
            "rlwe_server_request_ns",
        ] {
            assert!(text.contains(name), "render() missing {name}:\n{text}");
        }
        assert!(text.contains("param_set=\"P1\""));
        assert!(text.contains("reducer=\"q7681\""));
        handle.shutdown();
    }
}
