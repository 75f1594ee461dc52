//! A small blocking client for the server's protocol — the same crate
//! ships both ends so the wire format has exactly one definition.
//!
//! [`Client`] drives the binary protocol (ops, handshake, sealed
//! frames); [`http_get`] performs a plaintext scrape of `/metrics` or
//! `/healthz`. Both are std-only blocking I/O, intended for examples,
//! integration tests and load generators rather than production client
//! stacks.

use crate::wire::{self, OpCode, ProtocolError, Response, Status, MAX_BODY, REJECT_RETRYABLE};
use crate::ServerError;
use rlwe_core::drbg::HashDrbg;
use rlwe_core::{PublicKey, RlweError};
use rlwe_engine::{Session, SessionError, StreamReceiver, StreamSender, FRAME_OVERHEAD};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Default client-side socket timeouts.
const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

/// Session id length echoed by a successful handshake.
pub const SID_LEN: usize = 16;

/// A blocking protocol client over one TCP connection.
pub struct Client {
    stream: TcpStream,
    session: Option<(StreamSender, StreamReceiver)>,
}

impl Client {
    /// Connects with default 30 s socket timeouts.
    ///
    /// # Errors
    ///
    /// [`ServerError::Io`] on connect/configure failure.
    pub fn connect(addr: SocketAddr) -> Result<Self, ServerError> {
        Self::connect_with_timeout(addr, DEFAULT_TIMEOUT)
    }

    /// Connects with explicit read/write timeouts.
    ///
    /// # Errors
    ///
    /// [`ServerError::Io`] on connect/configure failure.
    pub fn connect_with_timeout(addr: SocketAddr, timeout: Duration) -> Result<Self, ServerError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            session: None,
        })
    }

    /// Sends one request and reads the raw response frame, whatever
    /// its status.
    ///
    /// # Errors
    ///
    /// Transport and framing errors only; non-`Ok` statuses are
    /// returned as `Ok(Response)`. A `body` longer than [`MAX_BODY`],
    /// which the server would refuse, is [`ProtocolError::TooLarge`] and
    /// is never written.
    pub fn request_raw(&mut self, op: OpCode, body: &[u8]) -> Result<Response, ServerError> {
        if body.len() > MAX_BODY {
            return Err(ProtocolError::TooLarge(body.len() as u64).into());
        }
        wire::write_frame(&mut self.stream, &wire::encode_request(op, body))?;
        wire::read_response(&mut self.stream)
    }

    /// Sends one request and returns the `Ok` body, converting any
    /// other status into [`ServerError::Remote`].
    ///
    /// # Errors
    ///
    /// [`ServerError::Remote`] for `Busy`/`Rejected`/… responses, plus
    /// transport and framing errors.
    pub fn request(&mut self, op: OpCode, body: &[u8]) -> Result<Vec<u8>, ServerError> {
        let resp = self.request_raw(op, body)?;
        match resp.status {
            Status::Ok => Ok(resp.body),
            status => Err(ServerError::Remote {
                status,
                detail: reject_detail(&resp),
            }),
        }
    }

    /// Echo probe.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn ping(&mut self, payload: &[u8]) -> Result<Vec<u8>, ServerError> {
        self.request(OpCode::Ping, payload)
    }

    /// Fetches and parses the server's public key.
    ///
    /// # Errors
    ///
    /// See [`Client::request`]; [`ServerError::Scheme`] if the key
    /// bytes fail to parse.
    pub fn public_key(&mut self) -> Result<PublicKey, ServerError> {
        let bytes = self.request(OpCode::PublicKey, &[])?;
        Ok(PublicKey::from_bytes(&bytes)?)
    }

    /// Performs the KEM session handshake, retrying the documented ~1%
    /// decryption-failure case up to `attempts` times (each attempt
    /// uses an independent DRBG stream of `master_seed`). On success
    /// the session is bound to this connection and
    /// [`Client::exchange`] becomes available.
    ///
    /// # Errors
    ///
    /// [`ServerError::Session`] ([`SessionError::HandshakeFailed`])
    /// when every attempt hit the KEM failure; otherwise the first
    /// non-retryable error.
    pub fn handshake(
        &mut self,
        master_seed: &[u8; 32],
        attempts: u64,
    ) -> Result<[u8; SID_LEN], ServerError> {
        let pk = self.public_key()?;
        let set = pk
            .params()
            .set()
            .ok_or(ServerError::Scheme(RlweError::ParamMismatch))?;
        let ctx = rlwe_engine::global_pool().get(set)?;
        for attempt in 0..attempts.max(1) {
            let mut rng = HashDrbg::for_stream(master_seed, attempt);
            let (sess, hello) = Session::initiate(&ctx, &pk, &mut rng)?;
            let resp = self.request_raw(OpCode::SessionHello, &hello)?;
            match resp.status {
                Status::Ok => {
                    let mut sid = [0u8; SID_LEN];
                    if resp.body.len() != SID_LEN {
                        return Err(ServerError::Protocol(wire::ProtocolError::Truncated));
                    }
                    sid.copy_from_slice(&resp.body);
                    self.session = Some((sess.sender(), sess.receiver()));
                    return Ok(sid);
                }
                Status::Rejected if resp.body.first() == Some(&REJECT_RETRYABLE) => continue,
                status => {
                    return Err(ServerError::Remote {
                        status,
                        detail: reject_detail(&resp),
                    })
                }
            }
        }
        Err(ServerError::Session(SessionError::HandshakeFailed))
    }

    /// Whether a session is bound to this connection.
    pub fn has_session(&self) -> bool {
        self.session.is_some()
    }

    /// Seals `payload` to the server over the bound session and opens
    /// the sealed echo that comes back — one authenticated round trip.
    ///
    /// # Errors
    ///
    /// [`ServerError::Session`] if no session is bound or the response
    /// is not exactly one authentic frame; [`ServerError::Protocol`]
    /// ([`ProtocolError::TooLarge`]) if the sealed frame would exceed the
    /// wire's [`MAX_BODY`], checked before sealing so the sequence number
    /// stays unused; see [`Client::request`] for the rest.
    pub fn exchange(&mut self, payload: &[u8]) -> Result<Vec<u8>, ServerError> {
        let (tx, _) = self
            .session
            .as_mut()
            .ok_or(ServerError::Session(SessionError::Scheme(
                "no session; call handshake first".to_string(),
            )))?;
        let frame_len = payload.len() + FRAME_OVERHEAD;
        if frame_len > MAX_BODY {
            return Err(ProtocolError::TooLarge(frame_len as u64).into());
        }
        let sealed = tx.seal(payload);
        let resp = self.request(OpCode::SessionFrame, &sealed)?;
        // `request` never clears an established session, but a typed
        // error beats asserting that invariant at a distance.
        let Some((_, rx)) = self.session.as_mut() else {
            return Err(ServerError::Session(SessionError::Scheme(
                "session dropped mid-exchange".to_string(),
            )));
        };
        Ok(rx.open_exact(&resp)?)
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("peer", &self.stream.peer_addr().ok())
            .field("session", &self.session.is_some())
            .finish()
    }
}

fn reject_detail(resp: &Response) -> String {
    match (resp.status, resp.body.split_first()) {
        (Status::Rejected, Some((code, msg))) => {
            format!("code {}: {}", code, String::from_utf8_lossy(msg))
        }
        _ => String::from_utf8_lossy(&resp.body).into_owned(),
    }
}

/// A parsed plaintext HTTP response.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Raw header lines (without the status line).
    pub headers: Vec<String>,
    /// The response body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// The value of `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find_map(|h| {
            let (k, v) = h.split_once(':')?;
            k.eq_ignore_ascii_case(name).then(|| v.trim())
        })
    }
}

/// Performs one `GET path` scrape against the server's shared port.
///
/// # Errors
///
/// [`ServerError::Io`] on transport failure, [`ServerError::Protocol`]
/// on an unparseable response.
pub fn http_get(addr: SocketAddr, path: &str) -> Result<HttpResponse, ServerError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(DEFAULT_TIMEOUT))?;
    stream.set_write_timeout(Some(DEFAULT_TIMEOUT))?;
    write!(stream, "GET {path} HTTP/1.0\r\nHost: rlwe\r\n\r\n")?;
    stream.flush()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_http_response(&raw)
}

fn parse_http_response(raw: &[u8]) -> Result<HttpResponse, ServerError> {
    let bad = || ServerError::Protocol(wire::ProtocolError::Truncated);
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(bad)?;
    let head = raw.get(..split).ok_or_else(bad)?;
    let head = std::str::from_utf8(head).map_err(|_| bad())?;
    let mut lines = head.lines();
    let status_line = lines.next().ok_or_else(bad)?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    Ok(HttpResponse {
        status,
        headers: lines.map(str::to_string).collect(),
        body: raw.get(split + 4..).ok_or_else(bad)?.to_vec(),
    })
}
