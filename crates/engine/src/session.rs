//! Authenticated session streams: one KEM handshake, then cheap
//! symmetric framing for arbitrary-length payloads.
//!
//! This is the "millions of users" shape from the Ring-LWE controller
//! literature: a long-lived context serves continuous streams of small
//! messages, so the lattice operation happens **once per session** (the
//! handshake) and every subsequent frame costs one ChaCha20-Poly1305
//! (RFC 8439) seal or open.
//!
//! ## Handshake
//!
//! ```text
//! initiator                                   responder (has pk/sk)
//!   (ct, ss) = Encapsulate(pk)
//!   hello = ct_bytes ‖ HMAC(mac_i2r, "confirm" ‖ sid)
//!           ────────────────────────────────▶
//!                                             ss = Decapsulate(sk, ct)
//!                                             verify confirm tag
//! ```
//!
//! `sid = SHA-256("rlwe-engine/sid" ‖ ct_bytes)[..16]` names the session;
//! both sides derive two directional key pairs with KDF2:
//! `enc ‖ mac = KDF2(ss, "rlwe-engine/i2r" ‖ sid, 64)` (and `…/r2i`).
//! The confirm tag turns the scheme's documented ~1% decryption-failure
//! probability into a clean, retryable [`SessionError::HandshakeFailed`]
//! instead of a stream that silently fails MAC checks.
//!
//! ## Frames
//!
//! ```text
//! 0xF6 ‖ seq:u64be ‖ len:u32be ‖ ct[len] ‖ tag[16]
//! ```
//!
//! `ct ‖ tag` is ChaCha20-Poly1305 ([`rlwe_hash::ChaCha20Poly1305`])
//! under the direction's `enc` key, with nonce `0x00000000 ‖ seq:u64be`
//! and the 13-byte header as associated data. `sid` needs no place in
//! the frame: it is already bound into the keys through the KDF2 info.
//! The `mac` halves serve only the handshake's confirm tag. A nonce
//! never repeats under one key: each direction has its own key, and its
//! sender numbers frames 0, 1, 2, … . Receivers check the tag before
//! anything else touches the payload or their state, then enforce
//! strictly increasing sequence numbers starting at 0 (no replay, no
//! reorder **within** a session).
//!
//! ## Cross-session replay
//!
//! The handshake is a single message, so the responder contributes no
//! freshness: an attacker who records a `hello` and its subsequent
//! frames can re-deliver the whole conversation later and the responder
//! will accept it as a new, identical session (sequence numbers restart
//! at 0). This is the same caveat as TLS 0-RTT data. Deployments whose
//! traffic is not idempotent must either track accepted session ids
//! ([`Session::id`] is stable and cheap to store) or run a
//! responder-nonce round on top before acting on received frames.

use rlwe_core::{PolyScratch, PublicKey, RlweContext, RlweError, SecretKey};
use rlwe_hash::{kdf2, ChaCha20Poly1305, HmacSha256, Sha256};
use rlwe_zq::ct;

use rand::RngCore;

/// Frame magic byte.
const MAGIC: u8 = 0xF6;
/// Frame header length: magic + seq + len.
const HEADER_LEN: usize = 1 + 8 + 4;
/// AEAD tag length.
const TAG_LEN: usize = rlwe_hash::TAG_LEN;
/// HMAC-SHA256 length of the handshake's confirm tag.
const CONFIRM_LEN: usize = 32;
/// Bytes a frame adds to its payload: the header and the AEAD tag.
pub const FRAME_OVERHEAD: usize = HEADER_LEN + TAG_LEN;
/// Session id length.
const SID_LEN: usize = 16;
/// Refuse length prefixes beyond this (anti-DoS bound for `open`).
pub const MAX_FRAME_PAYLOAD: usize = 1 << 24;

/// Runs `f` with this thread's scratch arena for ring dimension `n`,
/// creating (and thereafter caching) one per dimension per thread — the
/// session handshake paths go through the scheme's `_into` entry points
/// without each handshake paying the working-polynomial allocations.
fn with_thread_scratch<T>(n: usize, f: impl FnOnce(&mut PolyScratch) -> T) -> T {
    use std::cell::RefCell;
    thread_local! {
        static SCRATCH: RefCell<Vec<PolyScratch>> = const { RefCell::new(Vec::new()) };
    }
    SCRATCH.with(|cell| {
        let mut arena = {
            let mut pools = cell.borrow_mut();
            match pools.iter().position(|s| s.n() == n) {
                Some(i) => pools.swap_remove(i),
                None => PolyScratch::new(n),
            }
        };
        let result = f(&mut arena);
        cell.borrow_mut().push(arena);
        result
    })
}

/// Domain-separation labels.
const DS_SID: &[u8] = b"rlwe-engine/sid";
const DS_I2R: &[u8] = b"rlwe-engine/i2r";
const DS_R2I: &[u8] = b"rlwe-engine/r2i";
const DS_CONFIRM: &[u8] = b"rlwe-engine/confirm";

/// Errors from session establishment and frame processing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The underlying scheme failed (mixed parameter sets, malformed
    /// ciphertext bytes, …).
    Scheme(String),
    /// Key confirmation failed — the KEM derived different secrets on the
    /// two sides (expected with ~1% probability; retry the handshake).
    HandshakeFailed,
    /// A frame was shorter than its header + tag demand.
    Truncated,
    /// A frame did not start with the magic byte.
    BadMagic(u8),
    /// Bytes followed the frame where exactly one frame was expected
    /// ([`StreamReceiver::open_exact`]); carries their count.
    TrailingBytes(usize),
    /// A frame's length prefix exceeds [`MAX_FRAME_PAYLOAD`].
    TooLarge(u64),
    /// Tag verification failed — the frame was tampered with or keys
    /// disagree.
    BadTag,
    /// A frame arrived out of order.
    BadSequence {
        /// The sequence number the receiver expected next.
        expected: u64,
        /// The sequence number carried by the frame.
        got: u64,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Scheme(reason) => write!(f, "scheme error: {reason}"),
            SessionError::HandshakeFailed => {
                write!(f, "key confirmation failed (KEM decryption failure); retry")
            }
            SessionError::Truncated => write!(f, "truncated frame"),
            SessionError::BadMagic(b) => write!(f, "bad frame magic 0x{b:02X}"),
            SessionError::TrailingBytes(n) => write!(f, "{n} bytes trail the frame"),
            SessionError::TooLarge(n) => write!(f, "frame payload of {n} bytes exceeds limit"),
            SessionError::BadTag => write!(f, "frame tag verification failed"),
            SessionError::BadSequence { expected, got } => {
                write!(f, "bad sequence number: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for SessionError {}

impl From<RlweError> for SessionError {
    fn from(e: RlweError) -> Self {
        SessionError::Scheme(e.to_string())
    }
}

/// One direction's keys, `enc ‖ mac = KDF2(ss, label ‖ sid, 64)`: the
/// frame AEAD keyed with `enc` (it erases its key on drop, and so does
/// each clone handed to a sender or receiver), and `mac` for the caller
/// (the handshake's confirm tag uses the initiator-to-responder one).
fn derive_direction(
    /* ct: secret */ ss: &[u8],
    label: &[u8],
    sid: &[u8; SID_LEN],
) -> (ChaCha20Poly1305, [u8; 32]) {
    let mut info = Vec::with_capacity(label.len() + SID_LEN);
    info.extend_from_slice(label);
    info.extend_from_slice(sid);
    let mut okm = kdf2(ss, &info, 64);
    let mut enc = [0u8; 32];
    let mut mac = [0u8; 32];
    enc.copy_from_slice(&okm[..32]);
    mac.copy_from_slice(&okm[32..]);
    let aead = ChaCha20Poly1305::new(&enc);
    ct::zeroize(&mut enc);
    ct::zeroize(&mut okm);
    (aead, mac)
}

/// Sending half of one stream direction: seals payloads into
/// authenticated frames with monotonically increasing sequence numbers.
pub struct StreamSender {
    aead: ChaCha20Poly1305,
    seq: u64,
}

impl StreamSender {
    /// Seals `payload` into a self-contained wire frame.
    ///
    /// # Panics
    ///
    /// If `payload` is longer than [`MAX_FRAME_PAYLOAD`], which every
    /// receiver would reject. The check runs before the sequence number
    /// advances.
    pub fn seal(&mut self, payload: &[u8]) -> Vec<u8> {
        assert!(
            payload.len() <= MAX_FRAME_PAYLOAD,
            "frame payload of {} bytes exceeds MAX_FRAME_PAYLOAD",
            payload.len()
        );
        let seq = self.seq;
        self.seq += 1;
        let mut frame = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
        frame.push(MAGIC);
        frame.extend_from_slice(&seq.to_be_bytes());
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(payload);
        let (header, body) = frame.split_at_mut(HEADER_LEN);
        let tag = self.aead.seal_in_place(seq, header, body);
        frame.extend_from_slice(&tag);
        frame
    }

    /// The next sequence number this sender will use.
    pub fn next_seq(&self) -> u64 {
        self.seq
    }
}

/// Receiving half of one stream direction: verifies and opens frames.
pub struct StreamReceiver {
    aead: ChaCha20Poly1305,
    expected_seq: u64,
}

impl StreamReceiver {
    /// Opens the frame at the start of `buf`, returning the payload and
    /// the number of bytes consumed (so frames can be pulled off a
    /// concatenated stream).
    ///
    /// # Errors
    ///
    /// Any [`SessionError`] frame defect; the receiver state only
    /// advances on success, so a tampered frame can be re-delivered
    /// intact and still be accepted.
    pub fn open(&mut self, buf: &[u8]) -> Result<(Vec<u8>, usize), SessionError> {
        self.open_inner(buf, false)
    }

    /// Opens `buf`, which must hold exactly one frame, and returns its
    /// payload — the form for transports that carry one frame per
    /// message.
    ///
    /// # Errors
    ///
    /// As [`StreamReceiver::open`], plus [`SessionError::TrailingBytes`]
    /// when bytes follow the frame. That check runs before the tag
    /// check, so such a buffer never advances the receiver.
    pub fn open_exact(&mut self, buf: &[u8]) -> Result<Vec<u8>, SessionError> {
        self.open_inner(buf, true).map(|(payload, _)| payload)
    }

    fn open_inner(&mut self, buf: &[u8], exact: bool) -> Result<(Vec<u8>, usize), SessionError> {
        if buf.len() < HEADER_LEN + TAG_LEN {
            return Err(SessionError::Truncated);
        }
        if buf[0] != MAGIC {
            return Err(SessionError::BadMagic(buf[0]));
        }
        let seq = u64::from_be_bytes(buf[1..9].try_into().expect("8 bytes"));
        let len = u32::from_be_bytes(buf[9..13].try_into().expect("4 bytes")) as u64;
        if len > MAX_FRAME_PAYLOAD as u64 {
            return Err(SessionError::TooLarge(len));
        }
        let len = len as usize;
        let total = HEADER_LEN + len + TAG_LEN;
        if buf.len() < total {
            return Err(SessionError::Truncated);
        }
        if exact && buf.len() > total {
            return Err(SessionError::TrailingBytes(buf.len() - total));
        }
        // The AEAD checks the tag before it decrypts the copy, and the
        // state moves only after both the tag and the sequence number pass.
        let mut payload = buf[HEADER_LEN..HEADER_LEN + len].to_vec();
        self.aead
            .open_in_place(
                seq,
                &buf[..HEADER_LEN],
                &mut payload,
                &buf[HEADER_LEN + len..total],
            )
            .map_err(|_| SessionError::BadTag)?;
        if seq != self.expected_seq {
            ct::zeroize(&mut payload);
            return Err(SessionError::BadSequence {
                expected: self.expected_seq,
                got: seq,
            });
        }
        self.expected_seq += 1;
        Ok((payload, total))
    }

    /// The sequence number the receiver expects next.
    pub fn expected_seq(&self) -> u64 {
        self.expected_seq
    }
}

fn session_id(ct_bytes: &[u8]) -> [u8; SID_LEN] {
    let mut h = Sha256::new();
    h.update(DS_SID);
    h.update(ct_bytes);
    let digest = h.finalize();
    let mut sid = [0u8; SID_LEN];
    sid.copy_from_slice(&digest[..SID_LEN]);
    sid
}

/// `HMAC-SHA256(mac_i2r, "confirm" ‖ sid)`.
fn confirm_tag(/* ct: secret */ mac_i2r: &[u8; 32], sid: &[u8; SID_LEN]) -> [u8; CONFIRM_LEN] {
    let mut h = HmacSha256::new(mac_i2r);
    h.update(DS_CONFIRM);
    h.update(sid);
    h.finalize()
}

/// Which end of the handshake this session is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The side that encapsulated to the responder's public key.
    Initiator,
    /// The side that owns the secret key.
    Responder,
}

/// An established authenticated session: two independent directional
/// streams over one KEM-derived secret.
pub struct Session {
    sid: [u8; SID_LEN],
    role: Role,
    i2r: ChaCha20Poly1305,
    r2i: ChaCha20Poly1305,
}

impl Session {
    /// The session over shared secret `ss`, and the handshake's confirm
    /// tag.
    fn derive(ss: &[u8], ct_bytes: &[u8], role: Role) -> (Self, [u8; CONFIRM_LEN]) {
        let sid = session_id(ct_bytes);
        let (i2r, mut mac_i2r) = derive_direction(ss, DS_I2R, &sid);
        let (r2i, mut mac_r2i) = derive_direction(ss, DS_R2I, &sid);
        let confirm = confirm_tag(&mac_i2r, &sid);
        ct::zeroize(&mut mac_i2r);
        ct::zeroize(&mut mac_r2i);
        let session = Self {
            sid,
            role,
            i2r,
            r2i,
        };
        (session, confirm)
    }

    /// Initiates a session to `pk`: encapsulates, derives keys and
    /// returns the session plus the handshake message (`ct ‖ confirm`)
    /// to deliver to the responder.
    ///
    /// # Errors
    ///
    /// [`SessionError::Scheme`] on parameter mismatch or serialization
    /// failure.
    pub fn initiate<R: RngCore + ?Sized>(
        ctx: &RlweContext,
        pk: &PublicKey,
        rng: &mut R,
    ) -> Result<(Self, Vec<u8>), SessionError> {
        // The KEM hashed exactly these bytes; they open the hello as is.
        let (ct_bytes, ss) = with_thread_scratch(ctx.params().n(), |scratch| {
            ctx.encapsulate_wire(pk, rng, &mut ctx.empty_ciphertext(), scratch)
        })?;
        let (session, confirm) = Self::derive(ss.as_bytes(), &ct_bytes, Role::Initiator);
        let mut hello = ct_bytes;
        hello.extend_from_slice(&confirm);
        Ok((session, hello))
    }

    /// Accepts a handshake message produced by [`Session::initiate`].
    ///
    /// # Errors
    ///
    /// * [`SessionError::Truncated`] / [`SessionError::Scheme`] on a
    ///   malformed hello.
    /// * [`SessionError::HandshakeFailed`] when key confirmation fails —
    ///   the documented ~1% KEM decryption-failure case; the initiator
    ///   should retry with a fresh handshake.
    pub fn accept(ctx: &RlweContext, sk: &SecretKey, hello: &[u8]) -> Result<Self, SessionError> {
        if hello.len() <= CONFIRM_LEN {
            return Err(SessionError::Truncated);
        }
        let (ct_bytes, confirm) = hello.split_at(hello.len() - CONFIRM_LEN);
        let ss = with_thread_scratch(ctx.params().n(), |scratch| {
            ctx.decapsulate_wire_with_scratch(sk, ct_bytes, scratch)
        })?;
        let (session, expected) = Self::derive(ss.as_bytes(), ct_bytes, Role::Responder);
        // ct-allow(the comparison itself is ct_eq; its verdict is the public accept/reject)
        if !ct::ct_eq(&expected, confirm) {
            return Err(SessionError::HandshakeFailed);
        }
        Ok(session)
    }

    /// The 16-byte session identifier (public; derived from the
    /// handshake ciphertext).
    pub fn id(&self) -> &[u8; SID_LEN] {
        &self.sid
    }

    /// This end's role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// The sender for traffic flowing from this end to the peer.
    pub fn sender(&self) -> StreamSender {
        let aead = match self.role {
            Role::Initiator => self.i2r.clone(),
            Role::Responder => self.r2i.clone(),
        };
        StreamSender { aead, seq: 0 }
    }

    /// The receiver for traffic flowing from the peer to this end.
    pub fn receiver(&self) -> StreamReceiver {
        let aead = match self.role {
            Role::Initiator => self.r2i.clone(),
            Role::Responder => self.i2r.clone(),
        };
        StreamReceiver {
            aead,
            expected_seq: 0,
        }
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("sid", &self.sid)
            .field("role", &self.role)
            .field("keys", &"<redacted>")
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlwe_core::drbg::HashDrbg;
    use rlwe_core::ParamSet;

    fn establish() -> (Session, Session) {
        let ctx = RlweContext::new(ParamSet::P1).unwrap();
        let mut rng = HashDrbg::new([11u8; 32]);
        let (pk, sk) = ctx.generate_keypair(&mut rng).unwrap();
        // Retry on the documented ~1% KEM failure so the fixture is
        // deterministic-with-retries rather than flaky.
        for attempt in 0..8u64 {
            let mut hs_rng = HashDrbg::for_stream(&[13u8; 32], attempt);
            let (initiator, hello) = Session::initiate(&ctx, &pk, &mut hs_rng).unwrap();
            match Session::accept(&ctx, &sk, &hello) {
                Ok(responder) => return (initiator, responder),
                Err(SessionError::HandshakeFailed) => continue,
                Err(e) => panic!("unexpected handshake error: {e}"),
            }
        }
        panic!("eight consecutive KEM failures — astronomically unlikely");
    }

    #[test]
    fn frames_round_trip_in_both_directions() {
        let (alice, bob) = establish();
        assert_eq!(alice.id(), bob.id());

        let mut a_tx = alice.sender();
        let mut b_rx = bob.receiver();
        let mut b_tx = bob.sender();
        let mut a_rx = alice.receiver();

        for i in 0..10u32 {
            let msg = format!("frame number {i} with some payload");
            let frame = a_tx.seal(msg.as_bytes());
            let (got, consumed) = b_rx.open(&frame).unwrap();
            assert_eq!(got, msg.as_bytes());
            assert_eq!(consumed, frame.len());

            let reply = b_tx.seal(&got);
            let (echoed, _) = a_rx.open(&reply).unwrap();
            assert_eq!(echoed, msg.as_bytes());
        }
    }

    #[test]
    fn concatenated_frames_parse_sequentially() {
        let (alice, bob) = establish();
        let mut tx = alice.sender();
        let mut rx = bob.receiver();
        let payloads: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 10 + i as usize * 7]).collect();
        let mut wire = Vec::new();
        for p in &payloads {
            wire.extend_from_slice(&tx.seal(p));
        }
        let mut offset = 0;
        for p in &payloads {
            let (got, used) = rx.open(&wire[offset..]).unwrap();
            assert_eq!(&got, p);
            offset += used;
        }
        assert_eq!(offset, wire.len());
    }

    #[test]
    fn any_tampered_byte_is_rejected() {
        let (alice, bob) = establish();
        let mut tx = alice.sender();
        let mut rx = bob.receiver();
        let frame = tx.seal(b"untouchable payload");
        // Flip each byte in turn (header, body and tag regions alike).
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x01;
            let err = rx.open(&bad).unwrap_err();
            // Most flips fail the MAC; magic/length flips fail structural
            // checks first. All must reject, none may advance state.
            assert!(
                matches!(
                    err,
                    SessionError::BadTag
                        | SessionError::BadMagic(_)
                        | SessionError::Truncated
                        | SessionError::TooLarge(_)
                ),
                "byte {i}: unexpected error {err:?}"
            );
        }
        // The pristine frame still opens — state never advanced.
        assert!(rx.open(&frame).is_ok());
    }

    #[test]
    fn replay_and_reorder_are_rejected() {
        let (alice, bob) = establish();
        let mut tx = alice.sender();
        let mut rx = bob.receiver();
        let f0 = tx.seal(b"zero");
        let f1 = tx.seal(b"one");
        // Reorder: deliver f1 first.
        assert!(matches!(
            rx.open(&f1),
            Err(SessionError::BadSequence {
                expected: 0,
                got: 1
            })
        ));
        rx.open(&f0).unwrap();
        // Replay f0.
        assert!(matches!(
            rx.open(&f0),
            Err(SessionError::BadSequence {
                expected: 1,
                got: 0
            })
        ));
        rx.open(&f1).unwrap();
    }

    #[test]
    fn truncated_and_oversized_frames_are_rejected() {
        let (alice, bob) = establish();
        let mut tx = alice.sender();
        let mut rx = bob.receiver();
        let frame = tx.seal(b"whole");
        assert_eq!(
            rx.open(&frame[..HEADER_LEN - 1]),
            Err(SessionError::Truncated)
        );
        assert_eq!(
            rx.open(&frame[..frame.len() - 1]),
            Err(SessionError::Truncated)
        );
        // Forge an absurd length prefix (MAC is checked after bounds).
        let mut huge = frame.clone();
        huge[9..13].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(rx.open(&huge), Err(SessionError::TooLarge(_))));
    }

    #[test]
    fn empty_payload_frames_work() {
        let (alice, bob) = establish();
        let mut tx = alice.sender();
        let mut rx = bob.receiver();
        let frame = tx.seal(b"");
        let (got, used) = rx.open(&frame).unwrap();
        assert!(got.is_empty());
        assert_eq!(used, HEADER_LEN + TAG_LEN);
    }

    #[test]
    fn directions_use_independent_keys() {
        let (alice, bob) = establish();
        let mut a_tx = alice.sender();
        let mut b_rx_wrong_direction = bob.sender();
        // A frame sealed i2r must not verify under the r2i keys: feed it
        // to the initiator's receiver (which expects r2i traffic).
        let frame = a_tx.seal(b"directional");
        let mut a_rx = alice.receiver();
        assert_eq!(a_rx.open(&frame), Err(SessionError::BadTag));
        // Silence the unused sender warning meaningfully.
        assert_eq!(
            b_rx_wrong_direction.seal(b"x").len(),
            HEADER_LEN + 1 + TAG_LEN
        );
    }

    /// A sender over fixed keys: `ss`, `sid` and the next `seq` pinned.
    fn fixed_sender(seq: u64) -> StreamSender {
        let sid = [0x5Au8; SID_LEN];
        StreamSender {
            aead: derive_direction(&[0x11u8; 32], DS_I2R, &sid).0,
            seq,
        }
    }

    #[test]
    fn sealed_frame_matches_the_documented_construction() {
        let seq = 3;
        let payload: Vec<u8> = (0..100u8).collect();
        let frame = fixed_sender(seq).seal(&payload);

        // enc = KDF2(ss, "rlwe-engine/i2r" ‖ sid, 64)[..32]; the AEAD
        // itself is pinned against its scalar path and Python's
        // `cryptography` in rlwe-hash.
        let mut info = DS_I2R.to_vec();
        info.extend_from_slice(&[0x5Au8; SID_LEN]);
        let okm = kdf2(&[0x11u8; 32], &info, 64);
        let enc: [u8; 32] = okm[..32].try_into().unwrap();
        let mut want = vec![0xF6];
        want.extend_from_slice(&seq.to_be_bytes());
        want.extend_from_slice(&100u32.to_be_bytes());
        let mut body = payload.clone();
        let tag = ChaCha20Poly1305::new(&enc).seal_in_place(seq, &want, &mut body);
        want.extend_from_slice(&body);
        want.extend_from_slice(&tag);
        assert_eq!(frame.len(), payload.len() + FRAME_OVERHEAD);
        assert_eq!(frame, want);
    }

    #[test]
    fn known_answer_sealed_frame_digest() {
        // A change here changes every frame on the wire: peers on either
        // side of it no longer interoperate. Python `cryptography`'s
        // ChaCha20Poly1305 over the same KDF2 key, nonce and header gives
        // the same digests (rlwe-hash's `vectors/chacha20poly1305.py`).
        // The 100 B frame runs the scalar block functions; the 16 KiB
        // one runs the host's vector ChaCha20 and Poly1305 kernels.
        for (len, want) in [
            (
                100,
                "92678dfed9746ea4aee5c1ff9827fadb75aeb7a2000b2dbcc0b60624a053be48",
            ),
            (
                16 * 1024,
                "219cea5f5adf849eafff7006625c607acb24ad93277a90b8ea98e7fd6f5b9156",
            ),
        ] {
            let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let frame = fixed_sender(3).seal(&payload);
            let hex: String = Sha256::digest(&frame)
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect();
            assert_eq!(hex, want, "{len} B frame");
        }
    }

    #[test]
    fn open_exact_rejects_trailing_bytes_without_advancing() {
        let (alice, bob) = establish();
        let mut tx = alice.sender();
        let mut rx = bob.receiver();
        let frame = tx.seal(b"exactly one");
        let mut padded = frame.clone();
        padded.extend_from_slice(b"junk");
        assert_eq!(rx.open_exact(&padded), Err(SessionError::TrailingBytes(4)));
        assert_eq!(rx.expected_seq(), 0);
        // Two whole frames are not one frame either.
        let mut two = frame.clone();
        two.extend_from_slice(&tx.seal(b"second"));
        assert!(matches!(
            rx.open_exact(&two),
            Err(SessionError::TrailingBytes(_))
        ));
        assert_eq!(rx.open_exact(&frame).unwrap(), b"exactly one");
        assert_eq!(rx.expected_seq(), 1);
        assert_eq!(FRAME_OVERHEAD, 29);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_FRAME_PAYLOAD")]
    fn sealing_an_oversize_payload_panics() {
        fixed_sender(0).seal(&vec![0u8; MAX_FRAME_PAYLOAD + 1]);
    }

    #[test]
    fn an_oversize_seal_leaves_the_sequence_number_unused() {
        let (alice, bob) = establish();
        let mut tx = alice.sender();
        let big = vec![0u8; MAX_FRAME_PAYLOAD + 1];
        let sealed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| tx.seal(&big)));
        assert!(sealed.is_err());
        assert_eq!(tx.next_seq(), 0);
        let (got, _) = bob.receiver().open(&tx.seal(b"next")).unwrap();
        assert_eq!(got, b"next");
    }

    #[test]
    fn corrupt_hello_is_rejected_cleanly() {
        let ctx = RlweContext::new(ParamSet::P1).unwrap();
        let mut rng = HashDrbg::new([17u8; 32]);
        let (pk, sk) = ctx.generate_keypair(&mut rng).unwrap();
        let (_session, hello) = Session::initiate(&ctx, &pk, &mut rng).unwrap();
        // Truncation.
        assert!(matches!(
            Session::accept(&ctx, &sk, &hello[..10]),
            Err(SessionError::Truncated)
        ));
        // Confirm-tag corruption.
        let mut bad = hello.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert!(matches!(
            Session::accept(&ctx, &sk, &bad),
            Err(SessionError::HandshakeFailed)
        ));
        // Ciphertext corruption: either fails to parse or fails confirm.
        let mut bad_ct = hello.clone();
        bad_ct[2] ^= 1;
        assert!(Session::accept(&ctx, &sk, &bad_ct).is_err());
    }
}
