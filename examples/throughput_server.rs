//! Throughput demo against the real TCP front-end: an in-process
//! `rlwe-server` on a loopback port, driven by a fleet of client
//! threads that each perform a KEM handshake and stream authenticated
//! frames over actual sockets — plus concurrent `GET /metrics` scrapes
//! of the same port. What used to be an in-memory simulation of a
//! serving loop is now the serving loop.
//!
//! Run with `cargo run --release --example throughput_server`.

use rlwe_suite::server::{http_get, serve, Client, RejectReason, ServerConfig};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 50;
const FRAMES_PER_CLIENT: usize = 20;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let t0 = Instant::now();
    let config = ServerConfig {
        addr: "127.0.0.1:0".parse()?,
        seed: [1u8; 32],
        ..ServerConfig::default()
    };
    let handle = serve(config)?;
    let addr = handle.local_addr();
    println!("server up on {addr} in {:?}", t0.elapsed());

    // --- Scraper: poll /metrics while the fleet is hammering. -----------
    let done = Arc::new(AtomicBool::new(false));
    let scrapes = Arc::new(AtomicUsize::new(0));
    let scraper = {
        let (done, scrapes) = (Arc::clone(&done), Arc::clone(&scrapes));
        std::thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                let resp = http_get(addr, "/metrics").expect("scrape failed");
                assert_eq!(resp.status, 200);
                scrapes.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(20));
            }
        })
    };

    // --- The fleet: real TCP clients, handshake + sealed frames. --------
    let t1 = Instant::now();
    let total_bytes = Arc::new(AtomicUsize::new(0));
    let fleet: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let total_bytes = Arc::clone(&total_bytes);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                // Retries the documented ~1% KEM handshake failure.
                client.handshake(&[i as u8; 32], 16).expect("handshake");
                for frame_no in 0..FRAMES_PER_CLIENT {
                    let payload = format!("client {i} telemetry sample {frame_no}: temp=23.4");
                    let echo = client.exchange(payload.as_bytes()).expect("exchange");
                    assert_eq!(echo, payload.as_bytes());
                    total_bytes.fetch_add(payload.len(), Ordering::Relaxed);
                }
            })
        })
        .collect();
    for t in fleet {
        t.join().expect("client thread panicked");
    }
    let dt = t1.elapsed();
    done.store(true, Ordering::Relaxed);
    scraper.join().expect("scraper panicked");

    let frames = CLIENTS * FRAMES_PER_CLIENT;
    println!(
        "fleet: {CLIENTS} TCP clients, {frames} sealed round trips / {} payload bytes, \
         {} concurrent /metrics scrapes in {dt:?} ({:.0} frames/s)",
        total_bytes.load(Ordering::Relaxed),
        scrapes.load(Ordering::Relaxed),
        frames as f64 / dt.as_secs_f64()
    );
    println!(
        "server: {} accepted, {} refused at max_conns, {} active now",
        handle.metrics().accepted_total(),
        handle.metrics().rejected_total(RejectReason::MaxConns),
        handle.metrics().active_connections()
    );

    // --- The metrics endpoint body, fetched over the wire. --------------
    let scrape = http_get(addr, "/metrics")?;
    handle.shutdown();
    println!(
        "=== GET /metrics ===\n{}",
        String::from_utf8_lossy(&scrape.body)
    );
    Ok(())
}
