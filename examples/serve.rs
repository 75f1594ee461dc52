//! The serving front-end as a binary: bind a TCP port, serve the
//! ring-LWE protocol plus `GET /metrics`, shut down cleanly.
//!
//! Configuration comes entirely from `RLWE_*` environment variables
//! (see `rlwe_server::config`):
//!
//! ```text
//! RLWE_SERVER_ADDR=0.0.0.0:7681 RLWE_MAX_CONNS=256 \
//!     cargo run --release --example serve
//! ```
//!
//! `--smoke` runs the self-test mode CI uses: bind an ephemeral
//! loopback port, perform one authenticated handshake + sealed
//! exchange and one `/metrics` scrape over real TCP, then shut down
//! gracefully and exit 0.

use rlwe_suite::server::{http_get, serve, Client, ServerConfig};
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut config = ServerConfig::from_env()?;
    if smoke {
        config.addr = "127.0.0.1:0".parse()?;
    }

    let handle = serve(config)?;
    eprintln!(
        "rlwe-server listening on {} (protocol + GET /metrics, GET /healthz)",
        handle.local_addr()
    );
    eprintln!("{}", handle.build_info());

    if smoke {
        return smoke_test(handle);
    }

    // Serve until the process is killed. The acceptor and workers run
    // on their own threads; nothing to do here but wait.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// One full round trip of each surface, then a clean exit — enough to
/// prove the release binary binds, serves, and drains.
fn smoke_test(handle: rlwe_suite::server::ServerHandle) -> Result<(), Box<dyn std::error::Error>> {
    let addr = handle.local_addr();

    let mut client = Client::connect(addr)?;
    let sid = client.handshake(&[7u8; 32], 16)?;
    let echo = client.exchange(b"smoke frame")?;
    assert_eq!(echo, b"smoke frame");
    eprintln!(
        "smoke: handshake ok (session {:02x?}…), sealed echo ok",
        &sid[..4]
    );

    let scrape = http_get(addr, "/metrics")?;
    assert_eq!(scrape.status, 200);
    let body = String::from_utf8_lossy(&scrape.body);
    assert!(body.contains("rlwe_server_connections_accepted_total"));
    assert!(body.contains(&handle.build_info().to_string()));
    eprintln!("smoke: /metrics ok ({} bytes)", scrape.body.len());

    let health = http_get(addr, "/healthz")?;
    assert_eq!(health.status, 200);

    drop(client);
    handle.shutdown();
    eprintln!("smoke: graceful shutdown complete");
    Ok(())
}
