//! A deterministic hash- and coin-shape probe for leakage regression tests.
//!
//! Timing side channels in the layers above this crate usually surface as
//! *shape* differences: a code path that hashes a different number of
//! messages, or messages of different lengths, or draws more random coins,
//! depending on a secret. The probe records the byte length of every
//! [`Sha256`](crate::Sha256) finalization on the current thread, and one
//! [`KEYSTREAM_TAG`]-tagged entry per keystream refill of a DRBG that
//! reports through [`record_keystream`] (`rlwe_core::drbg::HashDrbg`
//! does), so a test can run an operation twice — once down each
//! secret-dependent path — and assert the two traces are identical.
//! Unlike a wall-clock measurement this is exact and deterministic, so it
//! belongs in CI.
//!
//! Recording is per-thread and off by default; in a process that never
//! probes, the cost per digest or refill is a single relaxed atomic load.
//!
//! # Example
//!
//! ```
//! use rlwe_hash::{probe, Sha256};
//!
//! probe::start();
//! Sha256::digest(b"abc");
//! Sha256::digest(&[0u8; 100]);
//! assert_eq!(probe::take(), vec![3, 100]);
//! assert!(probe::take().is_empty(), "take() also stops recording");
//! ```

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};

thread_local! {
    static TRACE: RefCell<Option<Vec<u64>>> = const { RefCell::new(None) };
}

/// Latches to `true` on the first [`start`] in the process. Processes
/// that never probe (all production use) keep [`record`] down to one
/// relaxed load — the thread-local is never touched.
static EVER_STARTED: AtomicBool = AtomicBool::new(false);

/// Starts (or restarts) recording hash-call shapes on this thread,
/// discarding any previous trace.
pub fn start() {
    EVER_STARTED.store(true, Ordering::Relaxed);
    TRACE.with(|t| *t.borrow_mut() = Some(Vec::new()));
}

/// Stops recording and returns the trace, in call order: one entry per
/// SHA-256 finalization on this thread since [`start`], holding the total
/// number of message bytes that digest consumed, and one per keystream
/// refill, holding `KEYSTREAM_TAG | bytes`. Returns an empty vector when
/// recording was never started.
pub fn take() -> Vec<u64> {
    TRACE.with(|t| t.borrow_mut().take().unwrap_or_default())
}

/// Marks a keystream-refill entry: no digest reaches 2⁶³ bytes, so the
/// tag bit keeps the two kinds of entry apart.
pub const KEYSTREAM_TAG: u64 = 1 << 63;

/// Called by a DRBG each time it generates `bytes` of keystream, so coin
/// draws show in the trace next to the hash calls.
#[inline]
pub fn record_keystream(bytes: u64) {
    record(KEYSTREAM_TAG | bytes);
}

/// Called by `Sha256::finalize` with the digested message length.
#[inline]
pub(crate) fn record(total_len: u64) {
    if !EVER_STARTED.load(Ordering::Relaxed) {
        return;
    }
    TRACE.with(|t| {
        if let Some(trace) = t.borrow_mut().as_mut() {
            trace.push(total_len);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HmacSha256, Sha256};

    #[test]
    fn disabled_probe_records_nothing() {
        Sha256::digest(b"untraced");
        assert!(take().is_empty());
    }

    #[test]
    fn hmac_shape_is_two_digests() {
        start();
        HmacSha256::mac(b"key", b"0123456789");
        let trace = take();
        // Inner digest: ipad block (64) + message; outer: opad block +
        // inner digest (32).
        assert_eq!(trace, vec![64 + 10, 64 + 32]);
    }

    #[test]
    fn keystream_refills_are_tagged_and_ordered_with_digests() {
        start();
        Sha256::digest(b"ab");
        record_keystream(1024);
        Sha256::digest(b"c");
        assert_eq!(take(), vec![2, KEYSTREAM_TAG | 1024, 1]);
    }

    #[test]
    fn restart_discards_the_previous_trace() {
        start();
        Sha256::digest(b"one");
        start();
        Sha256::digest(b"second");
        assert_eq!(take(), vec![6]);
    }
}
