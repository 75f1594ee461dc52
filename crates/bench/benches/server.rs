//! Loopback round-trip latency of the TCP serving front-end: what one
//! request costs once it crosses a real socket, kernel scheduling, and
//! the server's acceptor/worker hand-off — the overhead the in-process
//! session benches (`perf_snapshot`'s `session_*` arms) never see.
//!
//! Arms: `ping` isolates pure transport + dispatch cost (no lattice
//! math), and `sealed_exchange` is the authenticated-session hot path
//! (ChaCha20-Poly1305 seal/open on both ends). Under
//! `cargo test --benches` the criterion shim runs each body once,
//! smoke-testing the whole server stack in CI.

use criterion::{criterion_group, criterion_main, Criterion};
use rlwe_server::{serve, Client, ServerConfig};
use std::hint::black_box;

/// One server + handshaked client pair for every arm.
fn setup() -> (rlwe_server::ServerHandle, Client) {
    let config = ServerConfig {
        addr: "127.0.0.1:0".parse().unwrap(),
        seed: [3u8; 32],
        ..ServerConfig::default()
    };
    let handle = serve(config).expect("bench server failed to start");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    client.handshake(&[4u8; 32], 16).expect("handshake");
    (handle, client)
}

fn bench_server_roundtrips(c: &mut Criterion) {
    let (handle, mut client) = setup();

    c.bench_function("server/ping_roundtrip", |b| {
        b.iter(|| black_box(client.ping(b"bench").unwrap()))
    });

    let payload = [0xA5u8; 64];
    c.bench_function("server/sealed_exchange_roundtrip", |b| {
        b.iter(|| black_box(client.exchange(&payload).unwrap()))
    });

    drop(client);
    handle.shutdown();
}

criterion_group!(benches, bench_server_roundtrips);
criterion_main!(benches);
