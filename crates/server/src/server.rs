//! The serving core: acceptor, pooled worker threads, per-connection
//! protocol loop, and graceful shutdown.
//!
//! ## Thread architecture
//!
//! ```text
//!                    ┌─────────────┐  most recently idle worker,
//!   TCP clients ───▶ │  acceptor   │  else a new thread
//!                    │ (blocking,  │ ──▶ worker ◀──▶ conn
//!                    │  refuses at │ ──▶ worker ◀──▶ conn
//!                    │  max_conns) │ ──▶ …
//!                    └─────────────┘     idle: [worker, worker] (parked)
//! ```
//!
//! One acceptor thread accepts and enforces the `max_conns` ceiling.
//! Every live connection has a worker thread of its own, so a client
//! holding an idle session delays no one. The acceptor hands each
//! connection to the most recently idle worker, through that worker's
//! slot, and wakes it with [`Thread::unpark`]; only when no worker is
//! idle does it spawn one. A worker serves its connection to completion
//! (request loop with idle eviction), then parks on the idle stack, and
//! exits once it has been parked for `idle_timeout`. Busy workers never
//! outnumber live connections, so `max_conns` also bounds the thread
//! count.
//!
//! The protocol has four ops (see [`crate::wire`]). The server's secret
//! key is reached only through `Session::accept` on a `SessionHello`.
//!
//! ## Graceful shutdown
//!
//! [`ServerHandle::shutdown`] flips the shutdown flag and wakes the
//! acceptor, which stops accepting (a connection that races the flag is
//! refused with [`Status::ShuttingDown`], and the backlog closes with
//! the listener). It then wakes every parked worker, which exits at
//! once, and gives every in-flight connection a
//! [`ServerConfig::drain_timeout`] grace window — requests already in
//! the pipe are served, then the connection closes. `shutdown` returns
//! once every thread has joined.

use crate::config::ServerConfig;
use crate::http;
use crate::metrics::{RejectReason, ServerMetrics};
use crate::wire::{
    self, OpCode, ReadOutcome, Request, Status, MAGIC, REJECT_PERMANENT, REJECT_RETRYABLE,
};
use crate::ServerError;
use rlwe_core::drbg::HashDrbg;
use rlwe_core::{RlweContext, SecretKey};
use rlwe_engine::{BuildInfo, Session, SessionError, StreamReceiver, StreamSender};
use std::io::Read;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// Granularity at which blocked reads re-check the shutdown flag (the
/// acceptor and parked workers are woken instead). Bounds shutdown
/// latency without busy-spinning.
const POLL: Duration = Duration::from_millis(25);

/// One accepted connection travelling from acceptor to worker.
struct Conn {
    stream: TcpStream,
    /// Whether this connection's `connections_active` accounting was
    /// already released (metrics scrapes release themselves before
    /// rendering so the served body matches a post-close `render()`
    /// byte for byte).
    released: bool,
}

/// A worker's hand-off cell. The acceptor fills it under the pool lock,
/// so a worker that is no longer on the idle stack finds its next
/// connection here.
type Slot = Mutex<Option<Conn>>;

/// A parked worker: its thread, and the slot it is handed work through.
struct Idle {
    thread: Thread,
    slot: Arc<Slot>,
}

/// The worker threads, behind one lock.
#[derive(Default)]
struct Pool {
    /// Parked workers, the most recently idle last.
    idle: Vec<Idle>,
    /// Live worker threads, parked or serving.
    threads: usize,
    /// Every worker not yet seen to have exited, for shutdown to join.
    handles: Vec<JoinHandle<()>>,
}

/// Everything the acceptor, workers and handle share.
struct Shared {
    config: ServerConfig,
    ctx: Arc<RlweContext>,
    pk_bytes: Vec<u8>,
    sk: SecretKey,
    pool: Mutex<Pool>,
    metrics: ServerMetrics,
    build_info: BuildInfo,
    shutdown: AtomicBool,
}

impl Shared {
    fn release(&self, conn: &mut Conn) {
        if !conn.released {
            conn.released = true;
            self.metrics.on_close();
        }
    }
}

/// Locks `m`, recovering from poisoning instead of panicking. Every
/// critical section here is a few field stores or one `Vec` push, pop
/// or retain, which completes or does not happen, so a peer that
/// panicked cannot leave the state torn; recovering keeps the accept
/// path alive.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A running server. Dropping the handle shuts the server down
/// (gracefully — same path as [`ServerHandle::shutdown`]).
pub struct ServerHandle {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

/// Binds the configured address and spawns the acceptor thread; worker
/// threads start as connections arrive. The returned handle reports the
/// bound address (useful with port 0) and owns the server's lifetime.
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
    let build_info = BuildInfo::detect(&ctx);
    build_info.export();
    let listener = TcpListener::bind(config.addr)?;
    let local_addr = listener.local_addr()?;

    let shared = Arc::new(Shared {
        ctx,
        pk_bytes,
        sk,
        pool: Mutex::default(),
        metrics,
        build_info,
        shutdown: AtomicBool::new(false),
        config,
    });

    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("rlwe-acceptor".into())
            // ct-allow(the acceptor branches only on public state: the shutdown flag, pool counts and config)
            .spawn(move || acceptor_loop(&shared, listener))
            // ct-allow(a thread spawn fails only on OS resource limits, never on key material)
            .map_err(ServerError::Io)?
    };

    Ok(ServerHandle {
        local_addr,
        shared,
        acceptor: Some(acceptor),
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

    /// The kernels this server runs, as exported on `rlwe_build_info`.
    pub fn build_info(&self) -> &BuildInfo {
        &self.shared.build_info
    }

    /// This server's live worker threads, parked or serving (the
    /// `rlwe_server_worker_threads` gauge sums every server in the
    /// process).
    pub fn worker_threads(&self) -> usize {
        lock(&self.shared.pool).threads
    }

    /// Graceful shutdown: stop accepting, wake parked workers, drain
    /// in-flight connections (each gets the configured drain grace),
    /// join every thread. Idempotent via [`Drop`].
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(a) = self.acceptor.take() {
            // The acceptor blocks in `accept`; a local connect wakes it
            // to see the flag. Should that connect fail, the thread is
            // left blocked rather than joined forever.
            if TcpStream::connect_timeout(&wake_addr(self.local_addr), POLL).is_ok() {
                let _ = a.join();
            }
        }
        // A worker parks only after checking the flag under this lock,
        // so every worker is either woken here or never parks.
        let handles = {
            let mut pool = lock(&self.shared.pool);
            for w in &pool.idle {
                w.thread.unpark();
            }
            std::mem::take(&mut pool.handles)
        };
        for w in handles {
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
            .field("worker_threads", &self.worker_threads())
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

/// Blocks in `accept`, so a connection is handed to a worker as soon as
/// it arrives. Shutdown wakes it with a local connect; from then on it
/// accepts nothing, and connections still in the backlog close with the
/// listener.
fn acceptor_loop(shared: &Arc<Shared>, listener: TcpListener) {
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

/// Refuses `stream` at the front door with a typed frame.
fn refuse(shared: &Shared, stream: &mut TcpStream, reason: RejectReason, status: Status) {
    shared.metrics.on_reject(reason);
    let _ = wire::write_frame(stream, &wire::encode_response(status, &[]));
}

fn handle_accept(shared: &Arc<Shared>, mut stream: TcpStream) {
    if shared.shutdown.load(Ordering::Relaxed) {
        refuse(
            shared,
            &mut stream,
            RejectReason::Shutdown,
            Status::ShuttingDown,
        );
        return;
    }
    let mut pool = lock(&shared.pool);
    // Every worker off the idle stack holds (or is just releasing) one
    // connection, so this is the live count `max_conns` bounds.
    if pool.threads - pool.idle.len() >= shared.config.max_conns {
        drop(pool);
        refuse(shared, &mut stream, RejectReason::MaxConns, Status::Busy);
        return;
    }
    shared.metrics.on_accept();
    let conn = Conn {
        stream,
        released: false,
    };
    if let Some(w) = pool.idle.pop() {
        *lock(&w.slot) = Some(conn);
        drop(pool);
        w.thread.unpark();
        return;
    }
    // No idle worker: start one with the connection in its slot. The
    // pool stays locked, so the new worker cannot park before it is
    // counted.
    let slot = Arc::new(Mutex::new(Some(conn)));
    match spawn_worker(shared, Arc::clone(&slot)) {
        Ok(handle) => {
            pool.threads += 1;
            pool.handles.retain(|h| !h.is_finished());
            pool.handles.push(handle);
            shared.metrics.on_worker_start();
        }
        Err(_) => {
            // The OS refused another thread: refuse the connection as
            // if at the ceiling.
            drop(pool);
            if let Some(mut conn) = lock(&slot).take() {
                refuse(
                    shared,
                    &mut conn.stream,
                    RejectReason::MaxConns,
                    Status::Busy,
                );
                shared.release(&mut conn);
            }
        }
    }
}

// ---------------------------------------------------------------- workers

/// Starts a worker on the connection in `slot`. `shared` carries the
/// server's static key into the new thread.
fn spawn_worker(
    /* ct: secret */ shared: &Arc<Shared>,
    slot: Arc<Slot>,
) -> std::io::Result<JoinHandle<()>> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name("rlwe-worker".into())
        // ct-allow(workers branch on public pool and request state; sk is used only inside Session::accept)
        .spawn(move || worker_loop(&shared, &slot))
}

/// Serves connections until [`next_conn`] retires the worker.
fn worker_loop(shared: &Shared, slot: &Arc<Slot>) {
    while let Some(conn) = next_conn(shared, slot) {
        serve_conn(shared, conn);
    }
}

/// The worker's next connection: the one already in its slot, else one
/// handed to it while it is parked on the idle stack. `None` once it
/// has been parked for `idle_timeout` or shutdown has begun; the worker
/// is then off the stack and no longer counted.
fn next_conn(shared: &Shared, slot: &Arc<Slot>) -> Option<Conn> {
    if let Some(conn) = lock(slot).take() {
        return Some(conn);
    }
    let mut pool = lock(&shared.pool);
    if !shared.shutdown.load(Ordering::SeqCst) {
        pool.idle.push(Idle {
            thread: std::thread::current(),
            slot: Arc::clone(slot),
        });
        drop(pool);
        let deadline = Instant::now() + shared.config.idle_timeout;
        loop {
            std::thread::park_timeout(deadline.saturating_duration_since(Instant::now()));
            if let Some(conn) = lock(slot).take() {
                return Some(conn);
            }
            if shared.shutdown.load(Ordering::SeqCst) || Instant::now() >= deadline {
                break;
            }
        }
        pool = lock(&shared.pool);
        // A hand-off that raced the deadline is served, not dropped.
        if let Some(conn) = lock(slot).take() {
            return Some(conn);
        }
        pool.idle.retain(|w| !Arc::ptr_eq(&w.slot, slot));
    }
    pool.threads -= 1;
    shared.metrics.on_worker_exit();
    None
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

/// Reads one request under `read_timeout` as a deadline counted from its
/// first byte, so trickled bytes cannot hold a request open. The socket
/// timeout drops to the time left only once that is a [`POLL`] below it:
/// a prompt request costs one syscall, and a read ends within a `POLL`
/// of the deadline.
struct RequestReader<'a> {
    stream: &'a mut TcpStream,
    deadline: Instant,
    /// The socket's read timeout as last set.
    timeout: Duration,
}

impl<'a> RequestReader<'a> {
    fn new(stream: &'a mut TcpStream, read_timeout: Duration) -> std::io::Result<Self> {
        stream.set_read_timeout(Some(read_timeout))?;
        Ok(Self {
            stream,
            deadline: Instant::now() + read_timeout,
            timeout: read_timeout,
        })
    }
}

impl Read for RequestReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        if left + POLL < self.timeout {
            self.stream.set_read_timeout(Some(left))?;
            self.timeout = left;
        }
        self.stream.read(buf)
    }
}

fn serve_conn(shared: &Shared, mut conn: Conn) {
    let mut session: Option<ConnSession> = None;
    loop {
        match await_first_byte(shared, &mut conn.stream) {
            FirstByte::Byte(MAGIC) => {
                let Ok(mut reader) =
                    RequestReader::new(&mut conn.stream, shared.config.read_timeout)
                else {
                    break;
                };
                match wire::read_request_after_magic(&mut reader) {
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
    let req = RequestReader::new(&mut conn.stream, shared.config.read_timeout)
        .and_then(|mut reader| http::read_request(&mut reader, first_byte));
    let req = match req {
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
