//! The load generator: server set-up, the closed-loop client threads,
//! and the client-side spans of a traced run.
//!
//! Every client blocks on each reply, so the loops are closed: a slow
//! server receives less load rather than a growing queue. Requests go
//! through `rlwe_server::Client` over real loopback sockets; the
//! session crypto runs through `rlwe_engine::Session`, exactly as a
//! protocol client would drive it.

use crate::stats::derive_seed;
use rand::RngCore;
use rlwe_core::drbg::HashDrbg;
use rlwe_core::{ParamSet, PublicKey, RlweContext};
use rlwe_engine::{Session, StreamReceiver, StreamSender};
use rlwe_server::wire::{OpCode, Response, Status, REJECT_RETRYABLE};
use rlwe_server::{Client, ServerConfig, ServerHandle};
use std::fmt::Display;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Client threads, each with its own connection.
pub const CLIENTS: usize = 2;
/// Handshake attempts per session before it counts as failed. A retry
/// answers the parameter set's decryption-failure rate (~1% P1, ~2.4%
/// P2), so eight consecutive rejects do not happen in practice.
const MAX_ATTEMPTS: u64 = 8;
/// Distinct payloads per client; the loops cycle through them.
const PAYLOADS: usize = 16;
/// Pause between server start and the set-up connects.
const SETUP_PAUSE: Duration = Duration::from_millis(1);
/// Equal slices a timed window is cut into for the throughput median.
pub const SLICES: usize = 10;
/// Hellos kept per client for the server-side replay.
const KEEP_HELLOS: usize = 256;
/// Spans kept per client thread; traces that start after the cap are
/// not recorded, which bounds memory on the fast stream workloads.
const MAX_SPANS: usize = 100_000;

/// The protocol ops the benchmark sends, in the order of
/// [`Tally::sent`]. Only the four ops the protocol keeps are used.
pub const OPS: [OpCode; 4] = [
    OpCode::Ping,
    OpCode::PublicKey,
    OpCode::SessionHello,
    OpCode::SessionFrame,
];

fn op_slot(op: OpCode) -> usize {
    OPS.iter()
        .position(|o| *o == op)
        .expect("the benchmark only sends the ops in OPS")
}

/// How a workload uses its connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Connect, handshake, one sealed echo, close — repeatedly.
    Churn,
    /// Sealed echoes on the sessions made during set-up.
    Stream,
}

/// One traffic mix.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Parameter set the server runs.
    pub set: ParamSet,
    /// Connection pattern.
    pub shape: Shape,
    /// Sealed-echo payload size in bytes.
    pub payload: usize,
}

/// The benchmark's workloads. BENCHMARK.json records why each exists
/// and gates all but `stream_64b_p1`, which does not repeat within a
/// bound on a shared 2-vCPU machine (see README.md).
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "session_churn_p2",
        set: ParamSet::P2,
        shape: Shape::Churn,
        payload: 64,
    },
    Workload {
        name: "stream_64b_p1",
        set: ParamSet::P1,
        shape: Shape::Stream,
        payload: 64,
    },
    Workload {
        name: "stream_16k_p1",
        set: ParamSet::P1,
        shape: Shape::Stream,
        payload: 16 * 1024,
    },
];

/// A client-side phase of a traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Churn root: connect through the closing echo.
    Session,
    /// `connect()` until the first reply on the connection.
    Connect,
    /// First reply until the session is established, retries included.
    Handshake,
    /// One sealed echo (the root span of a stream workload).
    Exchange,
    /// `TcpStream::connect` and socket options.
    TcpConnect,
    /// The `public_key` round trip (the connection's first reply).
    PublicKey,
    /// `PublicKey::from_bytes` on the reply.
    PkFromBytes,
    /// `Session::initiate` (KEM encapsulation and key derivation).
    Initiate,
    /// The `session_hello` round trip.
    Hello,
    /// `StreamSender::seal`.
    Seal,
    /// The `session_frame` round trip.
    Frame,
    /// `StreamReceiver::open` on the reply.
    Open,
}

impl Phase {
    /// Stable name for the trace file and the report.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Session => "session",
            Phase::Connect => "connect",
            Phase::Handshake => "handshake",
            Phase::Exchange => "exchange",
            Phase::TcpConnect => "tcp_connect",
            Phase::PublicKey => "public_key",
            Phase::PkFromBytes => "pk_from_bytes",
            Phase::Initiate => "initiate",
            Phase::Hello => "hello",
            Phase::Seal => "seal",
            Phase::Frame => "frame",
            Phase::Open => "open",
        }
    }
}

/// One recorded span. Spans of one session (churn) or one echo
/// (stream) share `trace`: the client index in the top byte, then a
/// per-client sequence number.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub trace: u64,
    pub phase: Phase,
    pub parent: Option<Phase>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// Duration in µs.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// In-memory span recorder for one client thread. When off, `start`
/// returns `None` and `end` does nothing, so the untraced loops pay no
/// clock reads beyond the ones they need for their own metrics.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    /// Whether the current trace is recorded (on, and under the cap).
    recording: bool,
    trace: u64,
    next_trace: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(client: usize, epoch: Instant, on: bool) -> Self {
        let first = (client as u64) << 56;
        Self {
            epoch,
            on,
            recording: false,
            trace: first,
            next_trace: first,
            spans: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Starts the next trace; its spans are recorded whole or not at all.
    fn begin(&mut self) {
        self.trace = self.next_trace;
        self.next_trace += 1;
        self.recording = self.on && self.spans.len() < MAX_SPANS;
    }

    fn start(&self) -> Option<Duration> {
        self.recording.then(|| self.epoch.elapsed())
    }

    fn end(&mut self, start: Option<Duration>, phase: Phase, parent: Option<Phase>) {
        if let Some(start) = start {
            self.spans.push(Span {
                trace: self.trace,
                phase,
                parent,
                start_ns: start.as_nanos() as u64,
                end_ns: self.epoch.elapsed().as_nanos() as u64,
            });
        }
    }
}

/// What one client thread did and saw.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed: a transport error, a non-`Ok` status other
    /// than a retryable reject, or a reply that did not verify.
    pub failed: u64,
    /// Retryable handshake rejects (each was retried).
    pub retries: u64,
    /// Requests sent, per op in [`OPS`] order.
    pub sent: [u64; 4],
    /// Connections opened.
    pub connects: u64,
    /// Churn sessions completed (their echo verified).
    pub sessions: u64,
    /// Sealed echoes that verified.
    pub exchanges: u64,
    pub connect_us: Vec<f64>,
    pub handshake_us: Vec<f64>,
    pub exchange_us: Vec<f64>,
    /// Verified echoes per second in each slice of the timed window.
    pub slice_rates: Vec<f64>,
    /// Hellos sent, with whether the server accepted each.
    pub hellos: Vec<(Vec<u8>, bool)>,
    pub first_error: Option<String>,
}

impl Tally {
    fn fail(&mut self, what: impl Display) {
        self.failed += 1;
        if self.first_error.is_none() {
            self.first_error = Some(what.to_string());
        }
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.retries += other.retries;
        for (a, b) in self.sent.iter_mut().zip(other.sent) {
            *a += b;
        }
        self.connects += other.connects;
        self.sessions += other.sessions;
        self.exchanges += other.exchanges;
        self.connect_us.extend(other.connect_us);
        self.handshake_us.extend(other.handshake_us);
        self.exchange_us.extend(other.exchange_us);
        self.slice_rates.extend(other.slice_rates);
        let room = KEEP_HELLOS.saturating_sub(self.hellos.len());
        self.hellos.extend(other.hellos.into_iter().take(room));
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }

    /// Handshake attempts (hellos sent).
    pub fn hello_attempts(&self) -> u64 {
        self.sent[op_slot(OpCode::SessionHello)]
    }

    /// One request and its reply; transport errors count as failures.
    fn request(&mut self, client: &mut Client, op: OpCode, body: &[u8]) -> Option<Response> {
        self.attempted += 1;
        self.sent[op_slot(op)] += 1;
        match client.request_raw(op, body) {
            Ok(resp) => Some(resp),
            Err(e) => {
                self.fail(format_args!("{}: {e}", op.label()));
                None
            }
        }
    }
}

/// An established session bound to its connection.
pub struct Conn {
    client: Client,
    tx: StreamSender,
    rx: StreamReceiver,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Connects, fetches the public key and handshakes, retrying retryable
/// rejects with the next DRBG stream of `master`. With `one_at_a_time`,
/// the handshake (and its clock) waits until no other client holding
/// the same lock is handshaking.
fn open_session(
    addr: SocketAddr,
    ctx: &RlweContext,
    master: &[u8; 32],
    one_at_a_time: Option<&Mutex<()>>,
    tally: &mut Tally,
    tr: &mut Tracer,
) -> Option<Conn> {
    let connect_span = tr.start();
    let t0 = Instant::now();
    let s = tr.start();
    let client = Client::connect(addr);
    tr.end(s, Phase::TcpConnect, Some(Phase::Connect));
    tally.connects += 1;
    let mut client = match client {
        Ok(c) => c,
        Err(e) => {
            tally.fail(format_args!("connect: {e}"));
            return None;
        }
    };
    let s = tr.start();
    let resp = tally.request(&mut client, OpCode::PublicKey, &[]);
    tr.end(s, Phase::PublicKey, Some(Phase::Connect));
    let t1 = Instant::now();
    tr.end(connect_span, Phase::Connect, Some(Phase::Session));
    let resp = resp?;
    if resp.status != Status::Ok {
        tally.fail(format_args!("public_key: status {:?}", resp.status));
        return None;
    }
    tally.connect_us.push(us(t1 - t0));

    // The lock guards no data, so a poisoned lock is still a valid turn.
    let _turn = one_at_a_time.map(|m| m.lock().unwrap_or_else(|e| e.into_inner()));
    let t1 = Instant::now();
    let handshake_span = tr.start();
    let s = tr.start();
    let pk = PublicKey::from_bytes(&resp.body);
    tr.end(s, Phase::PkFromBytes, Some(Phase::Handshake));
    let pk = match pk {
        Ok(pk) => pk,
        Err(e) => {
            tally.fail(format_args!("public key does not parse: {e}"));
            return None;
        }
    };
    for attempt in 0..MAX_ATTEMPTS {
        let mut rng = HashDrbg::for_stream(master, attempt);
        let s = tr.start();
        let initiated = Session::initiate(ctx, &pk, &mut rng);
        tr.end(s, Phase::Initiate, Some(Phase::Handshake));
        let (session, hello) = match initiated {
            Ok(x) => x,
            Err(e) => {
                tally.fail(format_args!("initiate: {e}"));
                return None;
            }
        };
        let s = tr.start();
        let resp = tally.request(&mut client, OpCode::SessionHello, &hello);
        tr.end(s, Phase::Hello, Some(Phase::Handshake));
        let resp = resp?;
        if tally.hellos.len() < KEEP_HELLOS {
            tally.hellos.push((hello, resp.status == Status::Ok));
        }
        match resp.status {
            Status::Ok if resp.body.as_slice() == session.id().as_slice() => {
                tally.handshake_us.push(us(t1.elapsed()));
                tr.end(handshake_span, Phase::Handshake, Some(Phase::Session));
                return Some(Conn {
                    client,
                    tx: session.sender(),
                    rx: session.receiver(),
                });
            }
            Status::Ok => {
                tally.fail(format_args!(
                    "session id {:02x?} is not the 16-byte id the client derived",
                    resp.body
                ));
                return None;
            }
            Status::Rejected if resp.body.first() == Some(&REJECT_RETRYABLE) => {
                tally.retries += 1;
            }
            status => {
                tally.fail(format_args!("session_hello: status {status:?}"));
                return None;
            }
        }
    }
    tally.fail("session_hello: every attempt was rejected");
    None
}

/// One sealed echo; the reply must open to exactly `payload`.
fn exchange(
    conn: &mut Conn,
    payload: &[u8],
    parent: Option<Phase>,
    tally: &mut Tally,
    tr: &mut Tracer,
) -> bool {
    let root = tr.start();
    let t0 = Instant::now();
    let s = tr.start();
    let sealed = conn.tx.seal(payload);
    tr.end(s, Phase::Seal, Some(Phase::Exchange));
    let s = tr.start();
    let resp = tally.request(&mut conn.client, OpCode::SessionFrame, &sealed);
    tr.end(s, Phase::Frame, Some(Phase::Exchange));
    let Some(resp) = resp else {
        return false;
    };
    if resp.status != Status::Ok {
        tally.fail(format_args!("session_frame: status {:?}", resp.status));
        return false;
    }
    let s = tr.start();
    let opened = conn.rx.open(&resp.body);
    tr.end(s, Phase::Open, Some(Phase::Exchange));
    let t1 = Instant::now();
    tr.end(root, Phase::Exchange, parent);
    match opened {
        Ok((echo, used)) if echo == payload && used == resp.body.len() => {
            tally.exchanges += 1;
            tally.exchange_us.push(us(t1 - t0));
            true
        }
        Ok(_) => {
            tally.fail("session_frame: echo differs from the payload");
            false
        }
        Err(e) => {
            tally.fail(format_args!("session_frame: reply does not open: {e}"));
            false
        }
    }
}

/// The server configuration: defaults, except a loopback ephemeral
/// port and a key seed derived from the workload seed.
pub fn server_config(w: &Workload, seed: u64) -> ServerConfig {
    ServerConfig {
        addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        param_set: w.set,
        seed: derive_seed(seed, "server", 0, 0),
        ..ServerConfig::default()
    }
}

/// A running server with its clients.
pub struct Bench {
    pub w: Workload,
    pub seed: u64,
    pub ctx: Arc<RlweContext>,
    handle: Option<ServerHandle>,
    /// Stream sessions made during set-up (empty for churn).
    conns: Vec<Conn>,
    payloads: Vec<Vec<Vec<u8>>>,
    tracers: Vec<Tracer>,
    /// Next churn session index per client.
    next_session: [u64; CLIENTS],
    /// Wall time of each set-up repetition, in seconds.
    pub setup_s: Vec<f64>,
    /// What the set-up handshakes did.
    pub setup: Tally,
    /// Everything the clients sent since the process started, for
    /// reconciliation against the process-global `/metrics` registry.
    pub total: Tally,
    /// `/metrics` scrapes so far (each is one accepted connection).
    pub scrapes: u64,
}

impl Bench {
    /// Starts the server `reps` times, each time timing server start
    /// (context build, keygen, bind) plus one handshake per client, and
    /// keeps the last server and its sessions for the timed runs.
    pub fn setup(w: Workload, seed: u64, reps: u64, trace: bool) -> Result<Self, String> {
        let err = |e: &dyn Display| format!("set-up: {e}");
        // Warm the process-wide pool the server draws its context from;
        // each repetition then pays the context build explicitly below,
        // as a freshly started server process does.
        let ctx = rlwe_engine::global_pool().get(w.set).map_err(|e| err(&e))?;
        let epoch = Instant::now();
        let mut bench = Bench {
            w,
            seed,
            ctx,
            handle: None,
            conns: Vec::new(),
            payloads: (0..CLIENTS as u64)
                .map(|c| {
                    let mut drbg = HashDrbg::new(derive_seed(seed, "payload", c, 0));
                    (0..PAYLOADS)
                        .map(|_| {
                            let mut p = vec![0u8; w.payload];
                            drbg.fill_bytes(&mut p);
                            p
                        })
                        .collect()
                })
                .collect(),
            tracers: (0..CLIENTS).map(|c| Tracer::new(c, epoch, trace)).collect(),
            next_session: [0; CLIENTS],
            setup_s: Vec::new(),
            setup: Tally::default(),
            total: Tally::default(),
            scrapes: 0,
        };
        for rep in 0..reps {
            bench.close();
            let t0 = Instant::now();
            rlwe_engine::ContextPool::new()
                .get(w.set)
                .map_err(|e| err(&e))?;
            let handle = rlwe_server::serve(server_config(&w, seed)).map_err(|e| err(&e))?;
            let addr = handle.local_addr();
            // Clients arrive once the acceptor thread is polling; without
            // the pause, whether it or the first connect runs first is a
            // race that moves set-up time by a whole poll interval.
            std::thread::sleep(SETUP_PAUSE);
            let ctx = &bench.ctx;
            // Both clients connect at once; their handshakes take turns,
            // so each set-up handshake is timed without the other's.
            let one_at_a_time = Mutex::new(());
            let turn = Some(&one_at_a_time);
            let results: Vec<(Option<Conn>, Tally)> = std::thread::scope(|s| {
                let workers: Vec<_> = bench
                    .tracers
                    .iter_mut()
                    .enumerate()
                    .map(|(c, tr)| {
                        s.spawn(move || {
                            let mut tally = Tally::default();
                            tr.begin();
                            let master = derive_seed(seed, "setup", rep, c as u64);
                            let conn = open_session(addr, ctx, &master, turn, &mut tally, tr);
                            (conn, tally)
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|h| h.join().expect("set-up client thread panicked"))
                    .collect()
            });
            bench.setup_s.push(t0.elapsed().as_secs_f64());
            bench.handle = Some(handle);
            for (conn, tally) in results {
                bench.conns.extend(conn);
                bench.setup.merge(tally);
            }
        }
        bench.total.merge(clone_counts(&bench.setup));
        if bench.setup.failed > 0 || bench.conns.len() != CLIENTS {
            return Err(format!(
                "set-up: handshakes failed: {}",
                bench.setup.first_error.as_deref().unwrap_or("no session")
            ));
        }
        if w.shape == Shape::Churn {
            // Churn opens its own sessions; the set-up ones only warm up.
            bench.conns.clear();
        }
        Ok(bench)
    }

    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.handle
            .as_ref()
            .expect("server is running between set-up and close")
            .local_addr()
    }

    pub fn set_tracing(&mut self, on: bool) {
        for tr in &mut self.tracers {
            tr.set_on(on);
        }
    }

    /// Takes every span recorded so far.
    pub fn take_spans(&mut self) -> Vec<Span> {
        self.tracers
            .iter_mut()
            .flat_map(|tr| std::mem::take(&mut tr.spans))
            .collect()
    }

    /// Drives the workload for `seconds` on [`CLIENTS`] threads and
    /// returns what they did and the window's wall time in seconds.
    ///
    /// The window is [`SLICES`] back-to-back slices, each on freshly
    /// spawned client threads. On two cores the scheduler's placement of
    /// the four busy threads (two clients, two server workers) moves a
    /// small echo's round trip by tens of percent, and a placement tends
    /// to persist; new threads per slice average a run over several.
    pub fn run(&mut self, seconds: f64) -> (Tally, f64) {
        let slice = Duration::from_secs_f64(seconds / SLICES as f64);
        let start = Instant::now();
        let mut all = Tally::default();
        for i in 1..=SLICES as u32 {
            let (mut t, elapsed) = self.drive(self.w.shape, Until::Deadline(start + slice * i));
            t.slice_rates.push(t.exchanges as f64 / elapsed);
            all.merge(t);
        }
        (all, start.elapsed().as_secs_f64())
    }

    /// `per_client` churn sessions on each client: connect, handshake,
    /// one echo, close. A stream workload runs this after its window,
    /// with the stream sessions closed, to measure connect and handshake
    /// on its own server.
    pub fn session_probe(&mut self, per_client: u64) -> Tally {
        self.drive(Shape::Churn, Until::Count(per_client)).0
    }

    fn drive(&mut self, shape: Shape, until: Until) -> (Tally, f64) {
        let addr = self.addr();
        let start = Instant::now();
        let (seed, ctx) = (self.seed, &self.ctx);
        let payloads = &self.payloads;
        let tallies: Vec<Tally> = std::thread::scope(|s| {
            let workers: Vec<_> = match shape {
                Shape::Churn => self
                    .tracers
                    .iter_mut()
                    .zip(self.next_session.iter_mut())
                    .enumerate()
                    .map(|(c, (tr, next))| {
                        let payloads = &payloads[c];
                        s.spawn(move || {
                            let mut tally = Tally::default();
                            let mut done = 0;
                            while !until.reached(done) {
                                done += 1;
                                let i = *next;
                                *next += 1;
                                tr.begin();
                                let root = tr.start();
                                let master = derive_seed(seed, "client", c as u64, i);
                                if let Some(mut conn) =
                                    open_session(addr, ctx, &master, None, &mut tally, tr)
                                {
                                    let payload = &payloads[i as usize % PAYLOADS];
                                    let parent = Some(Phase::Session);
                                    if exchange(&mut conn, payload, parent, &mut tally, tr) {
                                        tally.sessions += 1;
                                    }
                                }
                                tr.end(root, Phase::Session, None);
                            }
                            tally
                        })
                    })
                    .collect(),
                Shape::Stream => self
                    .tracers
                    .iter_mut()
                    .zip(self.conns.iter_mut())
                    .enumerate()
                    .map(|(c, (tr, conn))| {
                        let payloads = &payloads[c];
                        s.spawn(move || {
                            let mut tally = Tally::default();
                            let mut i = 0u64;
                            while !until.reached(i) {
                                tr.begin();
                                let payload = &payloads[i as usize % PAYLOADS];
                                if !exchange(conn, payload, None, &mut tally, tr) {
                                    break;
                                }
                                i += 1;
                            }
                            tally
                        })
                    })
                    .collect(),
            };
            workers
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let elapsed = start.elapsed().as_secs_f64();
        let mut all = Tally::default();
        for t in tallies {
            all.merge(t);
        }
        self.total.merge(clone_counts(&all));
        (all, elapsed)
    }

    /// Round trips of `ping` and `public_key` on one warm connection:
    /// the socket-and-dispatch cost without accept wait or crypto.
    pub fn round_trip_probe(&mut self, n: usize) -> (Vec<f64>, Vec<f64>, Tally) {
        let mut tally = Tally::default();
        let (mut ping_us, mut pk_us) = (Vec::new(), Vec::new());
        tally.connects += 1;
        match Client::connect(self.addr()) {
            Ok(mut client) => {
                let body = [0x5Au8; 64];
                for (op, out) in [
                    (OpCode::Ping, &mut ping_us),
                    (OpCode::PublicKey, &mut pk_us),
                ] {
                    let req: &[u8] = if op == OpCode::Ping { &body } else { &[] };
                    for _ in 0..n {
                        let t0 = Instant::now();
                        let Some(resp) = tally.request(&mut client, op, req) else {
                            break;
                        };
                        out.push(us(t0.elapsed()));
                        let ok =
                            resp.status == Status::Ok && (op != OpCode::Ping || resp.body == body);
                        if !ok {
                            tally.fail(format_args!("{}: bad reply", op.label()));
                        }
                    }
                }
            }
            Err(e) => tally.fail(format_args!("connect: {e}")),
        }
        self.total.merge(clone_counts(&tally));
        (ping_us, pk_us, tally)
    }

    /// Closes the stream sessions' connections, freeing their workers.
    pub fn close_clients(&mut self) {
        self.conns.clear();
    }

    /// Closes the client connections and shuts the server down.
    pub fn close(&mut self) {
        self.close_clients();
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }
}

impl Drop for Bench {
    fn drop(&mut self) {
        self.close();
    }
}

/// When a client loop stops.
#[derive(Debug, Clone, Copy)]
enum Until {
    Deadline(Instant),
    /// After this many iterations.
    Count(u64),
}

impl Until {
    fn reached(self, done: u64) -> bool {
        match self {
            Until::Deadline(d) => Instant::now() >= d,
            Until::Count(n) => done >= n,
        }
    }
}

/// Counters of `t` without its samples (for [`Bench::total`]).
fn clone_counts(t: &Tally) -> Tally {
    Tally {
        attempted: t.attempted,
        failed: t.failed,
        retries: t.retries,
        sent: t.sent,
        connects: t.connects,
        sessions: t.sessions,
        exchanges: t.exchanges,
        ..Tally::default()
    }
}
