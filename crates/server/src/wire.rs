//! The length-prefixed binary protocol the server speaks.
//!
//! Every message — request and response alike — is one frame:
//!
//! ```text
//! request : 0xC7 ‖ opcode:u8 ‖ len:u32be ‖ body[len]
//! response: 0xC7 ‖ status:u8 ‖ len:u32be ‖ body[len]
//! ```
//!
//! The magic byte `0xC7` is deliberately outside ASCII so the listener
//! can tell a protocol client from a plaintext HTTP scrape (`GET …`) by
//! the first byte alone. Frame bodies are bounded by
//! [`MAX_BODY`]; a length prefix beyond the bound is rejected *before*
//! any body byte is read, so a hostile peer cannot make the server
//! buffer unboundedly.
//!
//! Opcode bodies (requests):
//!
//! | op | body | Ok response body |
//! |----|------|------------------|
//! | [`OpCode::Ping`] | arbitrary bytes | the same bytes |
//! | [`OpCode::PublicKey`] | empty | serialized server public key |
//! | [`OpCode::SessionHello`] | `Session::initiate` hello | 16-byte session id |
//! | [`OpCode::SessionFrame`] | sealed client→server frame | sealed server→client echo |
//!
//! Bytes `0x05..=0x08` once named raw encrypt/decrypt/encap/decap ops
//! on the server's static key; they are retired and parse as unknown
//! opcodes like any other unassigned byte.
//!
//! A [`Status::Rejected`] response body is `code:u8 ‖ utf-8 detail`;
//! code [`REJECT_RETRYABLE`] marks the ~1% KEM handshake failure the
//! client should simply retry. [`Status::Busy`] and
//! [`Status::ShuttingDown`] responses carry empty bodies and are always
//! followed by connection close — that pair is the whole backpressure
//! contract.

use std::io::{self, Read, Write};

/// First byte of every protocol frame (outside ASCII; see module docs).
pub const MAGIC: u8 = 0xC7;

/// Frame header length: magic + opcode/status + length prefix.
pub const HEADER_LEN: usize = 1 + 1 + 4;

/// Upper bound on a frame body. Large enough for any P1/P2 key,
/// ciphertext or sealed session frame with room to spare; small enough
/// that a hostile length prefix cannot balloon server memory.
pub const MAX_BODY: usize = 1 << 20;

/// `Rejected` body code: the request failed in a way the client should
/// retry (KEM handshake decryption failure).
pub const REJECT_RETRYABLE: u8 = 0x01;

/// `Rejected` body code: the request was well-formed but the operation
/// failed permanently (bad ciphertext bytes, wrong message length, …).
pub const REJECT_PERMANENT: u8 = 0x02;

/// Request opcodes. See the module docs for each body shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum OpCode {
    /// Echo: body is returned verbatim. Liveness/latency probe.
    Ping = 0x01,
    /// Fetch the server's serialized public key.
    PublicKey = 0x02,
    /// Deliver a `Session::initiate` hello; the server accepts and
    /// binds the session to this connection.
    SessionHello = 0x03,
    /// Deliver one sealed client→server frame on the bound session;
    /// the payload is echoed back sealed in the server→client direction.
    SessionFrame = 0x04,
}

/// Every opcode, in wire order (for metrics registration and tests).
pub const ALL_OPS: [OpCode; 4] = [
    OpCode::Ping,
    OpCode::PublicKey,
    OpCode::SessionHello,
    OpCode::SessionFrame,
];

impl OpCode {
    /// Parses a wire opcode byte.
    pub fn from_u8(b: u8) -> Option<Self> {
        ALL_OPS.into_iter().find(|op| *op as u8 == b)
    }

    /// Stable label for the `op` dimension of server metrics.
    pub fn label(self) -> &'static str {
        match self {
            OpCode::Ping => "ping",
            OpCode::PublicKey => "public_key",
            OpCode::SessionHello => "session_hello",
            OpCode::SessionFrame => "session_frame",
        }
    }
}

/// Response status codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// The operation succeeded; the body is the result.
    Ok = 0x00,
    /// Load shed: a submission queue (or the connection limit) was
    /// full. The connection is closed after this frame; retry against
    /// a less loaded instant. The body is empty.
    Busy = 0x01,
    /// The request frame itself was malformed (bad magic, unknown
    /// opcode, oversized length). The connection is closed.
    BadRequest = 0x02,
    /// The request was well-formed but the operation failed; body is
    /// `code ‖ detail` and the connection stays open.
    Rejected = 0x03,
    /// The server is draining for shutdown; connection closes.
    ShuttingDown = 0x04,
}

impl Status {
    /// Parses a wire status byte.
    pub fn from_u8(b: u8) -> Option<Self> {
        [
            Status::Ok,
            Status::Busy,
            Status::BadRequest,
            Status::Rejected,
            Status::ShuttingDown,
        ]
        .into_iter()
        .find(|s| *s as u8 == b)
    }
}

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The operation to perform.
    pub op: OpCode,
    /// The operation's argument bytes.
    pub body: Vec<u8>,
}

/// A decoded response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Outcome class.
    pub status: Status,
    /// Result bytes (or `code ‖ detail` for [`Status::Rejected`]).
    pub body: Vec<u8>,
}

/// Structural defects a frame can have. Carried by
/// [`crate::ServerError::Protocol`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The first byte was not [`MAGIC`].
    BadMagic(u8),
    /// The opcode byte names no known operation.
    BadOpcode(u8),
    /// The status byte names no known status.
    BadStatus(u8),
    /// The length prefix exceeds [`MAX_BODY`].
    TooLarge(u64),
    /// The input ended before the frame did.
    Truncated,
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::BadMagic(b) => write!(f, "bad frame magic 0x{b:02X}"),
            ProtocolError::BadOpcode(b) => write!(f, "unknown opcode 0x{b:02X}"),
            ProtocolError::BadStatus(b) => write!(f, "unknown status 0x{b:02X}"),
            ProtocolError::TooLarge(n) => {
                write!(
                    f,
                    "frame body of {n} bytes exceeds the {MAX_BODY}-byte bound"
                )
            }
            ProtocolError::Truncated => write!(f, "truncated frame"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Encodes a request frame.
pub fn encode_request(op: OpCode, body: &[u8]) -> Vec<u8> {
    encode(op as u8, body)
}

/// Encodes a response frame.
pub fn encode_response(status: Status, body: &[u8]) -> Vec<u8> {
    encode(status as u8, body)
}

fn encode(tag: u8, body: &[u8]) -> Vec<u8> {
    debug_assert!(body.len() <= MAX_BODY);
    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    out.push(MAGIC);
    out.push(tag);
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(body);
    out
}

/// Validates a 6-byte header, returning `(tag, body_len)`.
fn parse_header(header: &[u8; HEADER_LEN]) -> Result<(u8, usize), ProtocolError> {
    if header[0] != MAGIC {
        return Err(ProtocolError::BadMagic(header[0]));
    }
    let len = u32::from_be_bytes([header[2], header[3], header[4], header[5]]) as u64;
    if len > MAX_BODY as u64 {
        return Err(ProtocolError::TooLarge(len));
    }
    Ok((header[1], len as usize))
}

/// Decodes one request frame off the front of `buf`, returning it and
/// the number of bytes consumed.
///
/// # Errors
///
/// Any [`ProtocolError`] structural defect; `buf` is never partially
/// consumed on error.
pub fn decode_request(buf: &[u8]) -> Result<(Request, usize), ProtocolError> {
    let (tag, body) = decode(buf)?;
    let op = OpCode::from_u8(tag).ok_or(ProtocolError::BadOpcode(tag))?;
    Ok((
        Request {
            op,
            body: body.to_vec(),
        },
        HEADER_LEN + body.len(),
    ))
}

/// Decodes one response frame off the front of `buf`, returning it and
/// the number of bytes consumed.
///
/// # Errors
///
/// Any [`ProtocolError`] structural defect.
pub fn decode_response(buf: &[u8]) -> Result<(Response, usize), ProtocolError> {
    let (tag, body) = decode(buf)?;
    let status = Status::from_u8(tag).ok_or(ProtocolError::BadStatus(tag))?;
    Ok((
        Response {
            status,
            body: body.to_vec(),
        },
        HEADER_LEN + body.len(),
    ))
}

fn decode(buf: &[u8]) -> Result<(u8, &[u8]), ProtocolError> {
    let header: &[u8; HEADER_LEN] = buf
        .get(..HEADER_LEN)
        .and_then(|h| h.try_into().ok())
        .ok_or(ProtocolError::Truncated)?;
    let (tag, len) = parse_header(header)?;
    let body = buf
        .get(HEADER_LEN..HEADER_LEN + len)
        .ok_or(ProtocolError::Truncated)?;
    Ok((tag, body))
}

/// How a blocking frame read ended without producing a frame.
#[derive(Debug)]
pub enum ReadOutcome<T> {
    /// A whole frame arrived.
    Frame(T),
    /// The peer closed the stream cleanly before any frame byte.
    Eof,
    /// The read timed out before any frame byte (idle connection).
    TimedOut,
    /// The frame was structurally invalid.
    Protocol(ProtocolError),
    /// The transport failed.
    Io(io::Error),
}

/// Reads one request frame from a blocking stream.
///
/// A timeout or clean close *before the first byte* is reported as
/// [`ReadOutcome::TimedOut`] / [`ReadOutcome::Eof`] so callers can
/// distinguish an idle connection from a truncated frame; either of
/// them *mid-frame* is a [`ProtocolError::Truncated`].
pub fn read_request(r: &mut impl Read) -> ReadOutcome<Request> {
    let mut header = [0u8; HEADER_LEN];
    match read_exact_or_eof(r, &mut header) {
        Ok(0) => return ReadOutcome::Eof,
        Ok(n) if n < HEADER_LEN => return ReadOutcome::Protocol(ProtocolError::Truncated),
        Ok(_) => {}
        Err(e) if is_timeout(&e) => return ReadOutcome::TimedOut,
        Err(e) => return ReadOutcome::Io(e),
    }
    finish_request_read(r, header)
}

/// Continues [`read_request`] after the caller already consumed (and
/// verified) the magic byte — the server's HTTP-vs-protocol sniff path.
pub fn read_request_after_magic(r: &mut impl Read) -> ReadOutcome<Request> {
    let mut rest = [0u8; HEADER_LEN - 1];
    if let Err(e) = r.read_exact(&mut rest) {
        return if e.kind() == io::ErrorKind::UnexpectedEof || is_timeout(&e) {
            ReadOutcome::Protocol(ProtocolError::Truncated)
        } else {
            ReadOutcome::Io(e)
        };
    }
    let mut header = [0u8; HEADER_LEN];
    if let Some((first, tail)) = header.split_first_mut() {
        *first = MAGIC;
        tail.copy_from_slice(&rest);
    }
    finish_request_read(r, header)
}

fn finish_request_read(r: &mut impl Read, header: [u8; HEADER_LEN]) -> ReadOutcome<Request> {
    let (tag, len) = match parse_header(&header) {
        Ok(v) => v,
        Err(e) => return ReadOutcome::Protocol(e),
    };
    let op = match OpCode::from_u8(tag) {
        Some(op) => op,
        None => return ReadOutcome::Protocol(ProtocolError::BadOpcode(tag)),
    };
    let mut body = vec![0u8; len];
    match r.read_exact(&mut body) {
        Ok(()) => ReadOutcome::Frame(Request { op, body }),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof || is_timeout(&e) => {
            ReadOutcome::Protocol(ProtocolError::Truncated)
        }
        Err(e) => ReadOutcome::Io(e),
    }
}

/// Reads one response frame from a blocking stream.
///
/// # Errors
///
/// [`ProtocolError::Truncated`] (wrapped in io) on early close; any
/// transport error verbatim.
pub fn read_response(r: &mut impl Read) -> Result<Response, crate::ServerError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header).map_err(truncated_on_eof)?;
    let (tag, len) = parse_header(&header)?;
    let status = Status::from_u8(tag).ok_or(ProtocolError::BadStatus(tag))?;
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(truncated_on_eof)?;
    Ok(Response { status, body })
}

fn truncated_on_eof(e: io::Error) -> crate::ServerError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        crate::ServerError::Protocol(ProtocolError::Truncated)
    } else {
        crate::ServerError::Io(e)
    }
}

/// Writes a whole frame (and flushes).
///
/// # Errors
///
/// Any transport error.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    w.write_all(frame)?;
    w.flush()
}

/// Reads exactly `buf.len()` bytes unless the very first read returns
/// EOF (clean close), in which case 0 is returned.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        // panic-allow(the loop guard keeps `filled` strictly below `buf.len()`)
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Ok(filled),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Whether an io error is a blocking-read timeout (platform-dependent
/// kind: `WouldBlock` on unix, `TimedOut` on windows).
pub fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_through_bytes() {
        let wire = encode_request(OpCode::SessionFrame, b"payload");
        let (req, used) = decode_request(&wire).unwrap();
        assert_eq!(req.op, OpCode::SessionFrame);
        assert_eq!(req.body, b"payload");
        assert_eq!(used, wire.len());
    }

    #[test]
    fn response_round_trips_through_bytes() {
        let wire = encode_response(Status::Rejected, &[REJECT_PERMANENT, b'x']);
        let (resp, used) = decode_response(&wire).unwrap();
        assert_eq!(resp.status, Status::Rejected);
        assert_eq!(resp.body, &[REJECT_PERMANENT, b'x']);
        assert_eq!(used, wire.len());
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_the_body() {
        let mut wire = encode_request(OpCode::Ping, b"");
        wire[2..6].copy_from_slice(&((MAX_BODY as u32) + 1).to_be_bytes());
        assert!(matches!(
            decode_request(&wire),
            Err(ProtocolError::TooLarge(_))
        ));
    }

    #[test]
    fn magic_is_outside_ascii() {
        // The HTTP-vs-protocol sniff depends on this.
        assert!(!MAGIC.is_ascii());
    }

    #[test]
    fn every_opcode_survives_the_byte_round_trip() {
        for op in ALL_OPS {
            assert_eq!(OpCode::from_u8(op as u8), Some(op));
        }
        assert_eq!(OpCode::from_u8(0x00), None);
        assert_eq!(OpCode::from_u8(0xFF), None);
        // The retired raw-op bytes are unknown opcodes.
        for b in 0x05..=0x08 {
            assert_eq!(OpCode::from_u8(b), None, "0x{b:02X}");
        }
    }
}
