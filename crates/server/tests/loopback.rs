//! End-to-end loopback tests against a real TCP server: concurrent
//! authenticated clients, the `max_conns` refusal, prompt service past
//! busy and idle sessions, worker retirement, graceful-shutdown
//! draining, and malformed-frame robustness.
//!
//! Metrics note: the `rlwe-obs` registry is process global, so counter
//! cells are shared by every server these tests start. All numeric
//! assertions are therefore *deltas* from a baseline taken at test
//! start (only one test refuses at `max_conns`, and `>=` bounds absorb
//! the rest); worker-thread counts come from
//! `ServerHandle::worker_threads`, which reads the per-server pool
//! directly.

use rlwe_core::drbg::HashDrbg;
use rlwe_core::{ParamSet, PublicKey};
use rlwe_engine::{Session, SessionError, StreamReceiver, StreamSender, FRAME_OVERHEAD};
use rlwe_server::wire::{
    self, OpCode, ProtocolError, ReadOutcome, Status, MAX_BODY, REJECT_PERMANENT, REJECT_RETRYABLE,
};
use rlwe_server::{http_get, serve, Client, RejectReason, ServerConfig, ServerError, ServerHandle};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn base_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".parse().unwrap(),
        seed: [42u8; 32],
        ..ServerConfig::default()
    }
}

/// Polls until `cond` holds or a generous deadline passes.
fn wait_for(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

// ------------------------------------------------------------------------
// Acceptance criterion: ≥ 32 concurrent clients, handshake + ≥ 10 sealed
// frames each, zero failures, with concurrent /metrics scrapes returning
// the live registry.
// ------------------------------------------------------------------------

#[test]
fn thirty_two_concurrent_clients_with_live_metrics_scrapes() {
    const CLIENTS: usize = 32;
    const FRAMES: usize = 10;

    let handle = serve(base_config()).unwrap();
    let addr = handle.local_addr();
    let accepted0 = handle.metrics().accepted_total();
    let frames0 = handle.metrics().requests_total(OpCode::SessionFrame);

    // Scraper thread: hammer /metrics while the fleet runs.
    let done = Arc::new(AtomicBool::new(false));
    let scraper = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || -> Result<usize, String> {
            let mut scrapes = 0usize;
            while !done.load(Ordering::Relaxed) {
                let resp = http_get(addr, "/metrics").map_err(|e| e.to_string())?;
                if resp.status != 200 {
                    return Err(format!("scrape status {}", resp.status));
                }
                let body = String::from_utf8_lossy(&resp.body);
                if !body.contains("rlwe_server_connections_accepted_total") {
                    return Err("scrape body missing rlwe_server_ series".into());
                }
                scrapes += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
            Ok(scrapes)
        })
    };

    let clients: Vec<_> = (0..CLIENTS)
        .map(|i| {
            std::thread::spawn(move || -> Result<(), String> {
                let fail = |stage: &'static str| move |e| format!("client {i} {stage}: {e}");
                let mut client = Client::connect(addr).map_err(fail("connect"))?;
                let seed = [i as u8 + 1; 32];
                client.handshake(&seed, 16).map_err(fail("handshake"))?;
                for j in 0..FRAMES {
                    let payload = format!("client {i} frame {j}");
                    let echo = client
                        .exchange(payload.as_bytes())
                        .map_err(fail("exchange"))?;
                    if echo != payload.as_bytes() {
                        return Err(format!("client {i}: echo mismatch on frame {j}"));
                    }
                }
                Ok(())
            })
        })
        .collect();

    let failures: Vec<String> = clients
        .into_iter()
        .filter_map(|t| t.join().expect("client thread panicked").err())
        .collect();
    done.store(true, Ordering::Relaxed);
    let scrapes = scraper
        .join()
        .expect("scraper thread panicked")
        .expect("metrics scrape failed mid-load");

    assert!(failures.is_empty(), "client failures: {failures:?}");
    assert!(scrapes >= 1, "no /metrics scrape completed during the run");
    assert!(
        handle.metrics().accepted_total() - accepted0 >= (CLIENTS + scrapes) as u64,
        "accepted counter lost connections"
    );
    assert!(
        handle.metrics().requests_total(OpCode::SessionFrame) - frames0
            >= (CLIENTS * FRAMES) as u64,
        "session-frame counter lost requests"
    );

    // A final scrape shows the per-op series the fleet just exercised.
    let body = String::from_utf8_lossy(&http_get(addr, "/metrics").unwrap().body).into_owned();
    for needle in [
        r#"rlwe_server_requests_total{op="session_frame"}"#,
        r#"rlwe_server_requests_total{op="session_hello"}"#,
        r#"rlwe_server_request_ns"#,
        "\nrlwe_server_worker_threads ",
    ] {
        assert!(body.contains(needle), "missing {needle} in:\n{body}");
    }
    // The contexts behind the server picked their NTT from the host:
    // every KEM latency series carries that one backend label.
    let backend = if rlwe_zq::cpu::avx2() {
        r#"ntt_backend="avx2""#
    } else {
        r#"ntt_backend="reference""#
    };
    let kem: Vec<&str> = body
        .lines()
        .filter(|l| l.starts_with("rlwe_kem_op_ns"))
        .collect();
    assert!(!kem.is_empty(), "no rlwe_kem_op_ns series in:\n{body}");
    for line in kem {
        assert!(line.contains(backend), "expected {backend} on {line}");
    }

    handle.shutdown();
}

// ------------------------------------------------------------------------
// `rlwe_build_info` names the kernels the server runs: its ChaCha20 label
// is the tier the CPU flags select (AVX-512VL, else AVX2, else scalar).
// ------------------------------------------------------------------------

#[test]
fn build_info_on_metrics_names_the_detected_chacha_tier() {
    let handle = serve(base_config()).unwrap();
    let body = String::from_utf8_lossy(&http_get(handle.local_addr(), "/metrics").unwrap().body)
        .into_owned();
    let line = body
        .lines()
        .find(|l| l.starts_with("rlwe_build_info{"))
        .unwrap_or_else(|| panic!("no rlwe_build_info series in:\n{body}"));
    let tier = if rlwe_zq::cpu::avx512vl() {
        "avx512vl"
    } else if rlwe_zq::cpu::avx2() {
        "avx2"
    } else {
        "scalar"
    };
    assert!(
        line.contains(&format!(r#"chacha_backend="{tier}""#)),
        "expected the {tier} ChaCha20 kernel on {line}"
    );
    let features = format!(r#"cpu_features="{}""#, rlwe_zq::cpu::features());
    assert!(line.contains(&features), "expected {features} on {line}");
    assert_eq!(line, handle.build_info().to_string());
    handle.shutdown();
}

// ------------------------------------------------------------------------
// `max_conns` is the one front-door bound: one connection past it gets a
// typed Busy frame and is closed, and the freed slot serves again.
// ------------------------------------------------------------------------

#[test]
fn max_conns_refuses_with_a_typed_busy_frame_until_a_connection_closes() {
    let mut config = base_config();
    config.max_conns = 1;
    config.idle_timeout = Duration::from_secs(60);
    let handle = serve(config).unwrap();
    let addr = handle.local_addr();
    let refused0 = handle.metrics().rejected_total(RejectReason::MaxConns);

    // A: holds the only slot. The ping reply proves a worker serves it.
    let mut a = Client::connect(addr).unwrap();
    a.ping(b"occupy").unwrap();

    // B: over the ceiling — refused with Busy, counted, closed.
    let mut b = TcpStream::connect(addr).unwrap();
    b.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let resp = wire::read_response(&mut b).unwrap();
    assert_eq!(resp.status, Status::Busy, "connection over max_conns");
    assert!(resp.body.is_empty());
    assert_closed(b);
    assert_eq!(
        handle.metrics().rejected_total(RejectReason::MaxConns) - refused0,
        1,
        "connections_rejected_total{{reason=\"max_conns\"}} missed the refusal"
    );

    // Once A closes, its worker parks and serves the next connection:
    // the ceiling also bounds the thread count.
    drop(a);
    wait_for("a connection after A closed to be served", || {
        Client::connect(addr)
            .and_then(|mut c| c.ping(b"next"))
            .is_ok_and(|echo| echo == b"next")
    });
    assert_eq!(handle.worker_threads(), 1);
    handle.shutdown();
}

// ------------------------------------------------------------------------
// Every live connection has a worker thread of its own, so neither a
// busy nor an idle session strands a new connection.
// ------------------------------------------------------------------------

#[test]
fn a_busy_worker_does_not_strand_new_connections() {
    let handle = serve(base_config()).unwrap();
    let addr = handle.local_addr();

    // One worker is held by a long-lived connection; the other is idle.
    let mut held = Client::connect(addr).unwrap();
    held.ping(b"hold").unwrap();

    let mut slow = Vec::new();
    for i in 0..10 {
        std::thread::sleep(Duration::from_millis(2));
        let t0 = Instant::now();
        let mut client = Client::connect(addr).unwrap();
        client.ping(b"short").unwrap();
        let waited = t0.elapsed();
        if waited > Duration::from_millis(20) {
            slow.push((i, waited));
        }
    }
    assert!(
        slow.is_empty(),
        "connections waited for the busy worker: {slow:?}"
    );
    held.ping(b"still held").unwrap();
    drop(held);
    handle.shutdown();
}

/// Connects and pings once; returns the client and how long the first
/// reply took.
fn first_ping(addr: SocketAddr) -> (Client, Duration) {
    let t0 = Instant::now();
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.ping(b"first").unwrap(), b"first");
    (client, t0.elapsed())
}

#[test]
fn idle_sessions_do_not_strand_new_connections() {
    // More than the eight workers a fixed pool once defaulted to at most.
    const HELD: usize = 9;
    let mut config = base_config();
    config.idle_timeout = Duration::from_secs(3);
    let handle = serve(config).unwrap();
    let mut held = Vec::new();
    let mut slow = Vec::new();
    for i in 0..HELD {
        let (client, waited) = first_ping(handle.local_addr());
        if waited > Duration::from_millis(20) {
            slow.push((i, waited));
        }
        held.push(client);
    }
    assert!(
        slow.is_empty(),
        "first replies waited behind idle sessions: {slow:?}"
    );
    for client in &mut held {
        assert_eq!(client.ping(b"still held").unwrap(), b"still held");
    }
    drop(held);
    handle.shutdown();

    // Shutdown neither waits out `idle_timeout` on idle sessions nor on
    // parked workers.
    let mut config = base_config();
    config.idle_timeout = Duration::from_secs(60);
    let handle = serve(config).unwrap();
    let mut held: Vec<Client> = (0..HELD)
        .map(|_| first_ping(handle.local_addr()).0)
        .collect();
    // The closed sessions' workers park on the idle stack.
    held.truncate(HELD / 2);
    std::thread::sleep(Duration::from_millis(50));
    let t0 = Instant::now();
    handle.shutdown();
    let took = t0.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "shutdown with idle sessions took {took:?}"
    );
}

#[test]
fn parked_workers_retire_after_idle_timeout() {
    let mut config = base_config();
    config.idle_timeout = Duration::from_millis(200);
    let handle = serve(config).unwrap();
    let addr = handle.local_addr();

    // Four live connections, four workers.
    let clients: Vec<Client> = (0..4).map(|_| first_ping(addr).0).collect();
    assert_eq!(handle.worker_threads(), 4);
    drop(clients);

    let t0 = Instant::now();
    wait_for("parked workers to retire", || handle.worker_threads() == 0);
    let took = t0.elapsed();
    assert!(
        took < Duration::from_secs(2),
        "workers took {took:?} to retire"
    );

    // A later connection starts a fresh worker.
    let (mut client, _) = first_ping(addr);
    assert_eq!(client.ping(b"again").unwrap(), b"again");
    assert_eq!(handle.worker_threads(), 1);
    drop(client);
    handle.shutdown();
}

// ------------------------------------------------------------------------
// Acceptance criterion: graceful shutdown drains in-flight requests.
// ------------------------------------------------------------------------

/// A protocol session driven over a raw `TcpStream`, keeping the
/// sender/receiver halves in the test's hands (the `Client` wrapper
/// hides them, and these tests need to tamper with and split frames).
struct RawSession {
    stream: TcpStream,
    tx: StreamSender,
    rx: StreamReceiver,
    /// The server's public key.
    pk: PublicKey,
    /// Hellos the server refused as retryable before one was accepted.
    retries: u64,
}

fn raw_handshake(addr: SocketAddr, seed: &[u8; 32]) -> RawSession {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.set_nodelay(true).unwrap();
    wire::write_frame(&mut stream, &wire::encode_request(OpCode::PublicKey, &[])).unwrap();
    let resp = wire::read_response(&mut stream).unwrap();
    assert_eq!(resp.status, Status::Ok);
    let pk = PublicKey::from_bytes(&resp.body).unwrap();
    let set = pk.params().set().expect("server params name a set");
    let ctx = rlwe_engine::global_pool().get(set).unwrap();
    // Retry over the documented ~1% KEM decryption-failure rate.
    for attempt in 0..16u64 {
        let mut rng = HashDrbg::for_stream(seed, attempt);
        let (sess, hello) = Session::initiate(&ctx, &pk, &mut rng).unwrap();
        wire::write_frame(
            &mut stream,
            &wire::encode_request(OpCode::SessionHello, &hello),
        )
        .unwrap();
        let resp = wire::read_response(&mut stream).unwrap();
        match resp.status {
            Status::Ok => {
                return RawSession {
                    stream,
                    tx: sess.sender(),
                    rx: sess.receiver(),
                    pk,
                    retries: attempt,
                }
            }
            Status::Rejected if resp.body.first() == Some(&REJECT_RETRYABLE) => continue,
            status => panic!("handshake rejected: {status:?}"),
        }
    }
    panic!("sixteen consecutive KEM failures — astronomically unlikely");
}

#[test]
fn graceful_shutdown_drains_the_in_flight_request() {
    let mut config = base_config();
    config.drain_timeout = Duration::from_millis(600);
    let handle = serve(config).unwrap();

    let mut sess = raw_handshake(handle.local_addr(), &[5u8; 32]);
    let payload = b"drain me";
    let sealed = sess.tx.seal(payload);
    // Request written but the response deliberately not read yet: it is
    // in flight when shutdown begins.
    wire::write_frame(
        &mut sess.stream,
        &wire::encode_request(OpCode::SessionFrame, &sealed),
    )
    .unwrap();

    // Blocks until the acceptor and every worker have joined — so once
    // it returns, whatever the worker did for us is already on the wire.
    handle.shutdown();

    let resp = wire::read_response(&mut sess.stream).unwrap();
    assert_eq!(
        resp.status,
        Status::Ok,
        "in-flight request was dropped by shutdown"
    );
    let (echo, _) = sess.rx.open(&resp.body).unwrap();
    assert_eq!(echo, payload);

    // After the drain grace the connection is closed, not left hanging.
    use std::io::Read;
    let mut rest = Vec::new();
    assert_eq!(sess.stream.read_to_end(&mut rest).unwrap(), 0);
}

// ------------------------------------------------------------------------
// Acceptance criterion: malformed, truncated and oversized frames are
// rejected without panicking and without advancing session state.
// ------------------------------------------------------------------------

#[test]
fn malformed_frames_are_rejected_without_state_damage() {
    let handle = serve(base_config()).unwrap();
    let addr = handle.local_addr();

    tampered_session_frame_rejected_without_advancing_state(addr);
    session_frame_with_trailing_bytes_rejected_without_advancing_state(addr);
    unknown_opcode_answered_with_bad_request(addr, &handle);
    oversized_length_prefix_rejected_before_the_body(addr, &handle);
    truncated_frame_rejected(addr, &handle);
    non_http_garbage_answered_with_http_400(addr, &handle);

    // The server survived all of it: a fresh client still works.
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.ping(b"alive").unwrap(), b"alive");
    handle.shutdown();
}

fn tampered_session_frame_rejected_without_advancing_state(addr: SocketAddr) {
    let mut sess = raw_handshake(addr, &[6u8; 32]);
    let payload = b"authentic";
    let sealed = sess.tx.seal(payload);

    // Flip one bit of the tag: must be rejected, connection stays open.
    let mut tampered = sealed.clone();
    *tampered.last_mut().unwrap() ^= 0x01;
    wire::write_frame(
        &mut sess.stream,
        &wire::encode_request(OpCode::SessionFrame, &tampered),
    )
    .unwrap();
    let resp = wire::read_response(&mut sess.stream).unwrap();
    assert_eq!(resp.status, Status::Rejected);
    assert_eq!(resp.body.first(), Some(&REJECT_PERMANENT));

    // The pristine frame (sequence 0) still opens on the same
    // connection: the rejected forgery advanced no server-side state.
    wire::write_frame(
        &mut sess.stream,
        &wire::encode_request(OpCode::SessionFrame, &sealed),
    )
    .unwrap();
    let resp = wire::read_response(&mut sess.stream).unwrap();
    assert_eq!(
        resp.status,
        Status::Ok,
        "session state was advanced by a rejected frame"
    );
    let (echo, _) = sess.rx.open(&resp.body).unwrap();
    assert_eq!(echo, payload);
}

fn session_frame_with_trailing_bytes_rejected_without_advancing_state(addr: SocketAddr) {
    let mut sess = raw_handshake(addr, &[7u8; 32]);
    let payload = b"one frame, then junk";
    let sealed = sess.tx.seal(payload);

    // A valid frame with bytes after it is not one frame: rejected.
    let mut padded = sealed.clone();
    padded.extend_from_slice(b"junk");
    wire::write_frame(
        &mut sess.stream,
        &wire::encode_request(OpCode::SessionFrame, &padded),
    )
    .unwrap();
    let resp = wire::read_response(&mut sess.stream).unwrap();
    assert_eq!(resp.status, Status::Rejected);
    assert_eq!(resp.body.first(), Some(&REJECT_PERMANENT));

    // The same frame alone still opens as sequence 0.
    wire::write_frame(
        &mut sess.stream,
        &wire::encode_request(OpCode::SessionFrame, &sealed),
    )
    .unwrap();
    let resp = wire::read_response(&mut sess.stream).unwrap();
    assert_eq!(
        resp.status,
        Status::Ok,
        "the padded frame advanced the server"
    );
    assert_eq!(sess.rx.open_exact(&resp.body).unwrap(), payload);
}

fn unknown_opcode_answered_with_bad_request(addr: SocketAddr, handle: &ServerHandle) {
    // 0x05..=0x08 are the retired raw encrypt/decrypt/encap/decap ops:
    // they must be refused like any unassigned byte.
    for op in [0x05, 0x06, 0x07, 0x08, 0xEE] {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let frame = [wire::MAGIC, op, 0, 0, 0, 0];
        wire::write_frame(&mut stream, &frame).unwrap();
        let resp = wire::read_response(&mut stream).unwrap();
        assert_eq!(resp.status, Status::BadRequest, "opcode 0x{op:02X}");
        assert_closed(stream);
        assert_still_alive(handle);
    }
}

fn oversized_length_prefix_rejected_before_the_body(addr: SocketAddr, handle: &ServerHandle) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut frame = vec![wire::MAGIC, OpCode::Ping as u8];
    frame.extend_from_slice(&((wire::MAX_BODY as u32) + 1).to_be_bytes());
    // No body bytes follow — the response must arrive anyway, proving
    // the bound tripped on the header alone.
    wire::write_frame(&mut stream, &frame).unwrap();
    let resp = wire::read_response(&mut stream).unwrap();
    assert_eq!(resp.status, Status::BadRequest);
    assert_closed(stream);
    assert_still_alive(handle);
}

fn truncated_frame_rejected(addr: SocketAddr, handle: &ServerHandle) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Header promises 10 body bytes; deliver 3, then FIN.
    let mut frame = vec![wire::MAGIC, OpCode::Ping as u8, 0, 0, 0, 10];
    frame.extend_from_slice(b"abc");
    wire::write_frame(&mut stream, &frame).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let resp = wire::read_response(&mut stream).unwrap();
    assert_eq!(resp.status, Status::BadRequest);
    assert_closed(stream);
    assert_still_alive(handle);
}

fn non_http_garbage_answered_with_http_400(addr: SocketAddr, handle: &ServerHandle) {
    use std::io::{Read, Write};
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // First byte is ASCII (not MAGIC), so this lands on the HTTP path
    // and must come back as a clean 400, not a hang or a panic.
    stream.write_all(b"XYZZY\r\n\r\n").unwrap();
    stream.flush().unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.0 400 "), "got: {text}");
    assert_still_alive(handle);
}

fn assert_closed(mut stream: TcpStream) {
    use std::io::Read;
    let mut rest = Vec::new();
    assert_eq!(
        stream.read_to_end(&mut rest).unwrap(),
        0,
        "connection left open after an unrecoverable protocol error"
    );
}

fn assert_still_alive(handle: &ServerHandle) {
    let mut probe = Client::connect(handle.local_addr()).unwrap();
    assert_eq!(probe.ping(b"probe").unwrap(), b"probe");
}

#[test]
fn shutdown_wakes_the_blocked_acceptor_on_loopback_and_unspecified_binds() {
    // The acceptor blocks in `accept`; shutdown's local connect must
    // reach it whether the listener is bound to loopback or to the
    // unspecified address, and the joined acceptor closes the listener.
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let handle = serve(ServerConfig {
            addr: bind.parse().unwrap(),
            ..base_config()
        })
        .unwrap();
        let port = handle.local_addr().port();
        let t0 = Instant::now();
        handle.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "{bind}: slow shutdown"
        );
        let probe = SocketAddr::from(([127, 0, 0, 1], port));
        assert!(
            TcpStream::connect_timeout(&probe, Duration::from_secs(1)).is_err(),
            "{bind}: the listener outlived shutdown"
        );
    }
}

// ------------------------------------------------------------------------
// Client-side framing bounds: a reply must be exactly one frame, and a
// request the server would refuse for size is never sealed or sent.
// ------------------------------------------------------------------------

#[test]
fn client_rejects_a_reply_with_trailing_bytes() {
    let ctx = rlwe_engine::global_pool().get(ParamSet::P1).unwrap();
    let (pk, sk) = ctx.generate_keypair(&mut HashDrbg::new([8u8; 32])).unwrap();
    let pk_bytes = pk.to_bytes().unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // A one-connection peer that echoes correctly but appends junk.
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut halves = None;
        while let ReadOutcome::Frame(req) = wire::read_request(&mut stream) {
            let (status, body) = match req.op {
                OpCode::PublicKey => (Status::Ok, pk_bytes.clone()),
                OpCode::SessionHello => match Session::accept(&ctx, &sk, &req.body) {
                    Ok(sess) => {
                        halves = Some((sess.sender(), sess.receiver()));
                        (Status::Ok, sess.id().to_vec())
                    }
                    Err(_) => (Status::Rejected, vec![REJECT_RETRYABLE]),
                },
                OpCode::SessionFrame => {
                    let (tx, rx) = halves.as_mut().expect("handshake first");
                    let mut reply = tx.seal(&rx.open_exact(&req.body).unwrap());
                    reply.extend_from_slice(b"junk");
                    (Status::Ok, reply)
                }
                op => panic!("unexpected op {op:?}"),
            };
            wire::write_frame(&mut stream, &wire::encode_response(status, &body)).unwrap();
        }
    });

    let mut client = Client::connect(addr).unwrap();
    client.handshake(&[9u8; 32], 16).unwrap();
    let err = client.exchange(b"echo me").unwrap_err();
    assert!(
        matches!(err, ServerError::Session(SessionError::TrailingBytes(4))),
        "{err}"
    );
    drop(client);
    peer.join().unwrap();
}

#[test]
fn oversize_exchange_is_refused_before_it_uses_a_sequence_number() {
    let handle = serve(base_config()).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.handshake(&[10u8; 32], 16).unwrap();

    let largest = MAX_BODY - FRAME_OVERHEAD;
    let err = client.exchange(&vec![0xA5; largest + 1]).unwrap_err();
    assert!(
        matches!(err, ServerError::Protocol(ProtocolError::TooLarge(n)) if n == MAX_BODY as u64 + 1),
        "{err}"
    );
    // Sequence 0 is still unused: the server, which expects 0, opens the
    // next frame, and the largest frame the wire carries goes through.
    assert_eq!(client.exchange(b"next").unwrap(), b"next");
    let big = vec![0x5A; largest];
    assert_eq!(client.exchange(&big).unwrap(), big);

    // A raw request over the bound is refused before anything is
    // written, so the connection stays in step.
    let err = client
        .request_raw(OpCode::Ping, &vec![0; MAX_BODY + 1])
        .unwrap_err();
    assert!(
        matches!(err, ServerError::Protocol(ProtocolError::TooLarge(_))),
        "{err}"
    );
    assert_eq!(client.ping(b"still in step").unwrap(), b"still in step");
    handle.shutdown();
}

// ------------------------------------------------------------------------
// The session counters on `ServerMetrics`: handshakes, confirm failures
// (and only those), and echoed / rejected frames. This is the only test
// in the binary serving P2, so its `param_set="P2"` series move only by
// what it does.
// ------------------------------------------------------------------------

/// Sends one request on `stream` and returns the response.
fn round_trip(stream: &mut TcpStream, op: OpCode, body: &[u8]) -> wire::Response {
    wire::write_frame(stream, &wire::encode_request(op, body)).unwrap();
    wire::read_response(stream).unwrap()
}

#[test]
fn session_counters_track_handshakes_frames_and_confirm_failures() {
    const ECHOES: u64 = 5;
    let mut config = base_config();
    config.param_set = ParamSet::P2;
    let handle = serve(config).unwrap();
    let addr = handle.local_addr();
    let m = handle.metrics();
    let count = || {
        [
            m.handshakes_total(),
            m.handshake_failures_total(),
            m.frames_sealed_total(),
            m.frames_opened_total(),
            m.frames_rejected_total(),
        ]
    };
    let hellos0 = m.requests_total(OpCode::SessionHello);
    let before = count();
    let delta = || -> Vec<u64> { count().iter().zip(&before).map(|(a, b)| a - b).collect() };

    let mut sess = raw_handshake(addr, &[11u8; 32]);
    assert_eq!(delta(), [1, sess.retries, 0, 0, 0]);

    for i in 0..ECHOES {
        let payload = format!("echo {i}");
        let resp = round_trip(
            &mut sess.stream,
            OpCode::SessionFrame,
            &sess.tx.seal(payload.as_bytes()),
        );
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(sess.rx.open_exact(&resp.body).unwrap(), payload.as_bytes());
    }
    assert_eq!(delta(), [1, sess.retries, ECHOES, ECHOES, 0]);

    let mut tampered = sess.tx.seal(b"forged");
    *tampered.last_mut().unwrap() ^= 0x01;
    let resp = round_trip(&mut sess.stream, OpCode::SessionFrame, &tampered);
    assert_eq!(resp.status, Status::Rejected);
    assert_eq!(delta(), [1, sess.retries, ECHOES, ECHOES, 1]);

    // A well-formed hello whose confirm tag is wrong is a handshake
    // failure; a truncated one is a malformed request and is not.
    let ctx = rlwe_engine::global_pool().get(ParamSet::P2).unwrap();
    let mut rng = HashDrbg::new([12u8; 32]);
    let (_, mut hello) = Session::initiate(&ctx, &sess.pk, &mut rng).unwrap();
    *hello.last_mut().unwrap() ^= 0x01;
    let resp = round_trip(&mut sess.stream, OpCode::SessionHello, &hello);
    assert_eq!(resp.status, Status::Rejected);
    assert_eq!(resp.body.first(), Some(&REJECT_RETRYABLE));
    assert_eq!(delta(), [1, sess.retries + 1, ECHOES, ECHOES, 1]);

    let resp = round_trip(&mut sess.stream, OpCode::SessionHello, &hello[..10]);
    assert_eq!(resp.status, Status::Rejected);
    assert_eq!(resp.body.first(), Some(&REJECT_PERMANENT));
    assert_eq!(delta(), [1, sess.retries + 1, ECHOES, ECHOES, 1]);
    // The malformed hello still shows as a served request.
    assert!(m.requests_total(OpCode::SessionHello) - hellos0 >= sess.retries + 3);

    // `/metrics` carries every layer of the stack the server ran on.
    let body = String::from_utf8_lossy(&http_get(addr, "/metrics").unwrap().body).into_owned();
    for needle in [
        "rlwe_pool_hits_total",
        "rlwe_pool_misses_total",
        "rlwe_pool_build_ns",
        "rlwe_ntt_dispatch_total",
        "rlwe_sampler_draws_total",
        "rlwe_kem_op_ns",
        r#"rlwe_phase_ns_count{op="decrypt",phase="decode",param_set="P2"}"#,
        "rlwe_session_frames_sealed_total",
        "rlwe_session_frames_opened_total",
        "rlwe_session_frames_rejected_total",
        r#"rlwe_session_handshakes_total{param_set="P2",role="responder"}"#,
        "rlwe_session_handshake_failures_total",
        r#"param_set="P1""#,
        r#"reducer_kind="q7681""#,
    ] {
        assert!(body.contains(needle), "missing {needle} in:\n{body}");
    }
    // The server never initiates, and nothing runs batches.
    assert!(!body.contains(r#"role="initiator""#), "{body}");
    assert!(!body.contains("rlwe_batch_"), "{body}");
    handle.shutdown();
}
