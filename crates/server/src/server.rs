//! The serving core: acceptor, worker pool, per-connection protocol
//! loop, and graceful shutdown.
//!
//! ## Thread architecture
//!
//! ```text
//!                    ┌─────────────┐   one bounded queue
//!   TCP clients ───▶ │  acceptor   │ ──▶ [conn, conn, …] ──▶ worker 0
//!                    │ (blocking,  │                     ──▶ worker 1
//!                    │  sheds when │                     ──▶ …
//!                    │  full/over) │                     ──▶ worker N-1
//!                    └─────────────┘   (every idle worker waits on it)
//! ```
//!
//! One acceptor thread accepts, enforces the connection ceiling, and
//! pushes connections onto the bounded queue; when the queue is full it
//! answers a typed [`Status::Busy`] frame and closes — load is shed at
//! the front door and queue memory stays bounded. Every idle worker
//! waits on the same queue, so a push wakes whichever worker is free.
//! Each worker pops a connection and serves it to completion (request
//! loop with idle eviction), so `workers` is the true parallelism bound.
//!
//! The protocol has four ops (see [`crate::wire`]). The server's secret
//! key is reached only through `Session::accept` on a `SessionHello`.
//!
//! ## Graceful shutdown
//!
//! [`ServerHandle::shutdown`] flips the shutdown flag, closes the queue
//! and wakes the acceptor, which stops accepting (a connection that
//! races the flag is refused with [`Status::ShuttingDown`], and the
//! backlog closes with the listener); workers drain everything still
//! queued and give every in-flight connection a [`ServerConfig::drain_timeout`]
//! grace window — requests already in the pipe are served, then the
//! connection closes. `shutdown` returns once every thread has joined.

use crate::config::ServerConfig;
use crate::http;
use crate::metrics::{RejectReason, ServerMetrics};
use crate::queue::BoundedQueue;
use crate::wire::{
    self, OpCode, ReadOutcome, Request, Status, MAGIC, REJECT_PERMANENT, REJECT_RETRYABLE,
};
use crate::ServerError;
use rlwe_core::drbg::HashDrbg;
use rlwe_core::{RlweContext, SecretKey};
use rlwe_engine::{Session, SessionError, StreamReceiver, StreamSender};
use std::io::Read;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Granularity at which blocked reads re-check the shutdown flag (the
/// acceptor is woken instead). Bounds shutdown latency without
/// busy-spinning.
const POLL: Duration = Duration::from_millis(25);

/// One accepted connection travelling from acceptor to worker.
struct Conn {
    stream: TcpStream,
    /// Whether this connection's live-count accounting was already
    /// released (metrics scrapes release themselves before rendering so
    /// the served body matches a post-close `render()` byte for byte).
    released: bool,
}

/// Everything the acceptor, workers and handle share.
struct Shared {
    config: ServerConfig,
    ctx: Arc<RlweContext>,
    pk_bytes: Vec<u8>,
    sk: SecretKey,
    queue: BoundedQueue<Conn>,
    metrics: ServerMetrics,
    shutdown: AtomicBool,
    /// Live (queued + serving) connections, for `max_conns`.
    live: AtomicI64,
}

impl Shared {
    fn release(&self, conn: &mut Conn) {
        if !conn.released {
            conn.released = true;
            self.live.fetch_sub(1, Ordering::AcqRel);
            self.metrics.on_close();
        }
    }
}

/// A running server. Dropping the handle shuts the server down
/// (gracefully — same path as [`ServerHandle::shutdown`]).
pub struct ServerHandle {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// Binds the configured address and spawns the acceptor and worker
/// threads. The returned handle reports the bound address (useful with
/// port 0) and owns the server's lifetime.
///
/// # Errors
///
/// [`ServerError::Config`] for invalid configuration,
/// [`ServerError::Io`] if the bind fails, [`ServerError::Scheme`] if
/// context or key construction fails.
pub fn serve(config: ServerConfig) -> Result<ServerHandle, ServerError> {
    config.validate()?;
    let ctx = rlwe_engine::global_pool().get(config.param_set)?;
    // ct-allow(key generation fails only on a parameter-set mismatch, a public property)
    let (pk, sk) = ctx.generate_keypair(&mut HashDrbg::new(config.seed))?;
    // ct-allow(pk is the public half of the keypair; encoding fails only on a parameter mismatch)
    let pk_bytes = pk.to_bytes()?;
    let metrics = ServerMetrics::new(&ctx.params().obs_label());
    let queue = BoundedQueue::new(config.queue_capacity, metrics.queue_depth_gauge());
    let listener = TcpListener::bind(config.addr)?;
    let local_addr = listener.local_addr()?;

    let shared = Arc::new(Shared {
        ctx,
        pk_bytes,
        sk,
        queue,
        metrics,
        shutdown: AtomicBool::new(false),
        live: AtomicI64::new(0),
        config,
    });

    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("rlwe-acceptor".into())
            // ct-allow(the acceptor branches only on public state: the shutdown flag, live count and config)
            .spawn(move || acceptor_loop(&shared, listener))
            // ct-allow(a thread spawn fails only on OS resource limits, never on key material)
            .map_err(ServerError::Io)?
    };
    let workers = (0..shared.config.workers)
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("rlwe-worker-{i}"))
                // ct-allow(workers branch on public queue and request state; sk is used only inside Session::accept)
                .spawn(move || worker_loop(&shared))
                .map_err(ServerError::Io)
        })
        .collect::<Result<Vec<_>, _>>()?;

    Ok(ServerHandle {
        local_addr,
        shared,
        acceptor: Some(acceptor),
        workers,
    })
}

impl ServerHandle {
    /// The address the listener actually bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The server's metrics handles (live values; tests poll these
    /// instead of scraping).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.shared.metrics
    }

    /// Connections currently waiting in the submission queue.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// Graceful shutdown: stop accepting, drain queued and in-flight
    /// connections (each gets the configured drain grace), join every
    /// thread. Idempotent via [`Drop`].
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue.close();
        if let Some(a) = self.acceptor.take() {
            // The acceptor blocks in `accept`; a local connect wakes it
            // to see the flag. Should that connect fail, the thread is
            // left blocked rather than joined forever.
            if TcpStream::connect_timeout(&wake_addr(self.local_addr), POLL).is_ok() {
                let _ = a.join();
            }
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("local_addr", &self.local_addr)
            .field("workers", &self.workers.len())
            .finish()
    }
}

// ---------------------------------------------------------------- acceptor

/// Where a local connect reaches a listener bound to `addr`: an
/// unspecified bind address is reached through loopback.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => Ipv4Addr::LOCALHOST.into(),
        IpAddr::V6(ip) if ip.is_unspecified() => Ipv6Addr::LOCALHOST.into(),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

/// Blocks in `accept`, so a connection is handed to the queue as soon as
/// it arrives. Shutdown wakes it with a local connect; from then on it
/// accepts nothing, and connections still in the backlog close with the
/// listener.
fn acceptor_loop(shared: &Shared, listener: TcpListener) {
    loop {
        match listener.accept() {
            Ok(_) if shared.shutdown.load(Ordering::SeqCst) => return,
            Ok((stream, _peer)) => {
                let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
                let _ = stream.set_nodelay(true);
                handle_accept(shared, stream);
            }
            Err(_) => {
                // Transient accept failure (EMFILE, aborted handshake…):
                // back off briefly rather than spinning.
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                std::thread::sleep(POLL);
            }
        }
    }
}

fn handle_accept(shared: &Shared, mut stream: TcpStream) {
    if shared.shutdown.load(Ordering::Relaxed) {
        shared.metrics.on_reject(RejectReason::Shutdown);
        let _ = wire::write_frame(
            &mut stream,
            &wire::encode_response(Status::ShuttingDown, &[]),
        );
        return;
    }
    if shared.live.load(Ordering::Acquire) >= shared.config.max_conns as i64 {
        shared.metrics.on_reject(RejectReason::MaxConns);
        let _ = wire::write_frame(&mut stream, &wire::encode_response(Status::Busy, &[]));
        return;
    }
    shared.live.fetch_add(1, Ordering::AcqRel);
    shared.metrics.on_accept();
    let conn = Conn {
        stream,
        released: false,
    };
    if let Err(mut conn) = shared.queue.push(conn) {
        // Queue full (or just closed): shed with a typed Busy frame
        // and close — never queue unboundedly.
        shared.metrics.on_reject(RejectReason::QueueFull);
        let _ = wire::write_frame(&mut conn.stream, &wire::encode_response(Status::Busy, &[]));
        shared.release(&mut conn);
    }
}

// ---------------------------------------------------------------- workers

fn worker_loop(shared: &Shared) {
    loop {
        match shared.queue.pop(POLL * 2) {
            Some(conn) => {
                shared.metrics.on_dispatch();
                serve_conn(shared, conn);
            }
            None => {
                if shared.queue.is_closed() {
                    return;
                }
            }
        }
    }
}

/// Session state bound to one connection on the server side.
struct ConnSession {
    tx: StreamSender,
    rx: StreamReceiver,
}

/// How waiting for the start of the next request ended.
enum FirstByte {
    Byte(u8),
    Eof,
    IdleTimeout,
    Err,
}

/// Polls for the first byte of the next request, re-checking the
/// shutdown flag every [`POLL`]. The deadline is `idle_timeout` in
/// normal operation and `drain_timeout` once shutdown begins — either
/// way the wait is bounded, so shutdown can always join.
fn await_first_byte(shared: &Shared, stream: &mut TcpStream) -> FirstByte {
    let start = Instant::now();
    let mut byte = [0u8; 1];
    loop {
        let limit = if shared.shutdown.load(Ordering::Relaxed) {
            shared.config.drain_timeout
        } else {
            shared.config.idle_timeout
        };
        let Some(remaining) = limit.checked_sub(start.elapsed()) else {
            return FirstByte::IdleTimeout;
        };
        if stream.set_read_timeout(Some(remaining.min(POLL))).is_err() {
            return FirstByte::Err;
        }
        match stream.read(&mut byte) {
            Ok(0) => return FirstByte::Eof,
            Ok(_) => return FirstByte::Byte(byte[0]),
            Err(e) if wire::is_timeout(&e) => continue,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return FirstByte::Err,
        }
    }
}

fn serve_conn(shared: &Shared, mut conn: Conn) {
    let mut session: Option<ConnSession> = None;
    loop {
        match await_first_byte(shared, &mut conn.stream) {
            FirstByte::Byte(MAGIC) => {
                if conn
                    .stream
                    .set_read_timeout(Some(shared.config.read_timeout))
                    .is_err()
                {
                    break;
                }
                match wire::read_request_after_magic(&mut conn.stream) {
                    ReadOutcome::Frame(req) => {
                        let (status, body, close) = handle_request(shared, &mut session, req);
                        let frame = wire::encode_response(status, &body);
                        if wire::write_frame(&mut conn.stream, &frame).is_err() || close {
                            break;
                        }
                    }
                    ReadOutcome::Protocol(e) => {
                        // Malformed frame: typed rejection, then close —
                        // there is no way to resynchronise the stream.
                        let frame =
                            wire::encode_response(Status::BadRequest, e.to_string().as_bytes());
                        let _ = wire::write_frame(&mut conn.stream, &frame);
                        break;
                    }
                    _ => break,
                }
            }
            FirstByte::Byte(first) => {
                // Plaintext HTTP (the metrics/health scrape path).
                let _ = conn
                    .stream
                    .set_read_timeout(Some(shared.config.read_timeout));
                serve_http(shared, &mut conn, first);
                break;
            }
            FirstByte::IdleTimeout => {
                if !shared.shutdown.load(Ordering::Relaxed) {
                    shared.metrics.on_idle_eviction();
                }
                break;
            }
            FirstByte::Eof | FirstByte::Err => break,
        }
    }
    shared.release(&mut conn);
}

// ---------------------------------------------------------------- requests

type Reply = (Status, Vec<u8>, bool);

fn ok(body: Vec<u8>) -> Reply {
    (Status::Ok, body, false)
}

fn rejected(code: u8, detail: impl std::fmt::Display) -> Reply {
    let mut body = vec![code];
    body.extend_from_slice(detail.to_string().as_bytes());
    (Status::Rejected, body, false)
}

fn handle_request(shared: &Shared, session: &mut Option<ConnSession>, req: Request) -> Reply {
    let start = Instant::now();
    let op = req.op;
    let reply = dispatch_request(shared, session, req);
    shared.metrics.on_request(op, start.elapsed());
    reply
}

fn dispatch_request(shared: &Shared, session: &mut Option<ConnSession>, req: Request) -> Reply {
    let ctx = &shared.ctx;
    match req.op {
        OpCode::Ping => ok(req.body),
        OpCode::PublicKey => ok(shared.pk_bytes.clone()),
        OpCode::SessionHello => match Session::accept(ctx, &shared.sk, &req.body) {
            Ok(sess) => {
                shared.metrics.on_handshake();
                let sid = sess.id().to_vec();
                *session = Some(ConnSession {
                    tx: sess.sender(),
                    rx: sess.receiver(),
                });
                ok(sid)
            }
            Err(SessionError::HandshakeFailed) => {
                shared.metrics.on_handshake_failure();
                rejected(REJECT_RETRYABLE, SessionError::HandshakeFailed)
            }
            Err(e) => rejected(REJECT_PERMANENT, e),
        },
        OpCode::SessionFrame => match session {
            None => rejected(
                REJECT_PERMANENT,
                "no session established on this connection",
            ),
            // The body must be exactly one frame: junk after a valid
            // frame is rejected before it can advance the receiver.
            Some(s) => match s.rx.open_exact(&req.body) {
                // Authenticated echo: the opened payload goes back
                // sealed in the server→client direction.
                Ok(payload) => {
                    shared.metrics.on_frame_echoed();
                    ok(s.tx.seal(&payload))
                }
                Err(e) => {
                    shared.metrics.on_frame_rejected();
                    rejected(REJECT_PERMANENT, e)
                }
            },
        },
    }
}

// ---------------------------------------------------------------- http

fn serve_http(shared: &Shared, conn: &mut Conn, first_byte: u8) {
    let req = match http::read_request(&mut conn.stream, first_byte) {
        Ok(req) => req,
        Err(_) => {
            let resp = http::response(400, "Bad Request", "text/plain", b"bad request\n");
            let _ = wire::write_frame(&mut conn.stream, &resp);
            return;
        }
    };
    shared.metrics.on_http(&req.path);
    let resp = if req.method != "GET" {
        http::response(
            405,
            "Method Not Allowed",
            "text/plain",
            b"only GET is supported\n",
        )
    } else {
        match req.path.as_str() {
            "/metrics" => {
                // Release this connection's accounting *before*
                // rendering so the served body is byte-identical to a
                // `render()` taken after the scrape completes — the
                // scrape does not observe itself as an active
                // connection.
                shared.release(conn);
                let body = rlwe_obs::render();
                http::response(200, "OK", http::METRICS_CONTENT_TYPE, body.as_bytes())
            }
            "/healthz" => http::response(200, "OK", "text/plain", b"ok\n"),
            _ => http::response(404, "Not Found", "text/plain", b"not found\n"),
        }
    };
    let _ = wire::write_frame(&mut conn.stream, &resp);
}
