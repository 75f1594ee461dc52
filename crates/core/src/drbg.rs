//! A deterministic random-bit generator expanded from a 32-byte seed with
//! SHA-256 in counter mode.
//!
//! Originally private to the FO transform ([`crate::fo`]), promoted to a
//! public module as a seed-deterministic coin source: a caller derives
//! one independent stream per request or handshake attempt from a
//! master seed (see [`HashDrbg::for_stream`]), so output is reproducible
//! and testable regardless of which thread runs it.

use rand::{CryptoRng, Error as RandError, RngCore};
use rlwe_hash::Sha256;

/// Domain-separation prefix for [`HashDrbg::for_stream`] derivation.
const DS_STREAM: &[u8] = b"rlwe-drbg/stream";

/// A deterministic RNG: `block_i = SHA-256(seed ‖ i)` for i = 0, 1, ….
///
/// # Example
///
/// ```
/// use rand::RngCore;
/// use rlwe_core::drbg::HashDrbg;
///
/// let mut a = HashDrbg::new([7u8; 32]);
/// let mut b = HashDrbg::new([7u8; 32]);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
pub struct HashDrbg {
    seed: [u8; 32],
    counter: u64,
    /// Two buffered counter blocks: `SHA-256(seed ‖ c) ‖ SHA-256(seed ‖ c+1)`.
    /// Refilling in pairs lets the hash layer interleave the two
    /// independent compressions (`Sha256::digest_one_block_pair`), which
    /// hides the SHA round-function latency on SHA-NI hosts. The output
    /// byte stream is unchanged — still block `i` after block `i-1`.
    buffer: [u8; 64],
    used: usize,
}

impl HashDrbg {
    /// A generator expanding `seed`.
    pub fn new(seed: [u8; 32]) -> Self {
        Self {
            seed,
            counter: 0,
            buffer: [0; 64],
            used: 64, // force a refill on first use
        }
    }

    /// The generator for logical stream `index` under `master`:
    /// `HashDrbg::new(SHA-256("rlwe-drbg/stream" ‖ master ‖ index))`.
    ///
    /// Distinct indices give computationally independent streams, so a
    /// caller can hand stream `i` to request `i` regardless of which
    /// thread processes it.
    pub fn for_stream(master: &[u8; 32], index: u64) -> Self {
        let mut h = Sha256::new();
        h.update(DS_STREAM);
        h.update(master);
        h.update(&index.to_le_bytes());
        Self::new(h.finalize())
    }

    fn refill(&mut self) {
        // `seed ‖ counter` is 40 bytes — one padded compression block —
        // and a refill runs once per 64 output bytes, so digest the two
        // counter blocks through the paired one-block fast path (bit-
        // and probe-identical to the streaming hasher; on SHA-NI hosts
        // the two hardware compressions interleave). Error sampling is
        // DRBG-bound, so this is the encrypt hot path in disguise: see
        // DESIGN.md §12.
        let mut msg_a = [0u8; 40];
        msg_a[..32].copy_from_slice(&self.seed); // panic-allow(constant split of [u8; 40])
        msg_a[32..].copy_from_slice(&self.counter.to_le_bytes()); // panic-allow(constant split of [u8; 40])
        let mut msg_b = msg_a;
        msg_b[32..].copy_from_slice(&(self.counter + 1).to_le_bytes()); // panic-allow(constant split of [u8; 40])
        let (a, b) = Sha256::digest_one_block_pair(&msg_a, &msg_b);
        // panic-allow(constant split of the [u8; 64] buffer)
        self.buffer[..32].copy_from_slice(&a);
        self.buffer[32..].copy_from_slice(&b); // panic-allow(constant split of the [u8; 64] buffer)
        rlwe_zq::ct::zeroize(&mut msg_a);
        rlwe_zq::ct::zeroize(&mut msg_b);
        self.counter += 2;
        self.used = 0;
    }
}

impl RngCore for HashDrbg {
    fn next_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.fill_bytes(&mut b);
        u32::from_le_bytes(b)
    }

    fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill_bytes(&mut b);
        u64::from_le_bytes(b)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        // Slice-copy per buffered block pair instead of byte-at-a-time:
        // the same byte stream (pinned by
        // `byte_granularity_matches_bulk_fill` below), one bounds check
        // per 64 buffered bytes. This is the scalar half of the
        // bulk-refill path — `fill_words` batches on top.
        let mut filled = 0;
        while filled < dest.len() {
            if self.used == 64 {
                self.refill();
            }
            let n = (dest.len() - filled).min(64 - self.used);
            // panic-allow(n = min(dest.len()-filled, 64-used) bounds both ranges)
            dest[filled..filled + n].copy_from_slice(&self.buffer[self.used..self.used + n]);
            self.used += n;
            filled += n;
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), RandError> {
        self.fill_bytes(dest);
        Ok(())
    }
}

// The DRBG is used with secret seeds (FO coins, server key seeds).
impl CryptoRng for HashDrbg {}

// Both the seed and the buffered output block are key material.
impl Drop for HashDrbg {
    fn drop(&mut self) {
        rlwe_zq::ct::zeroize(&mut self.seed);
        rlwe_zq::ct::zeroize(&mut self.buffer);
    }
}

impl std::fmt::Debug for HashDrbg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HashDrbg")
            .field("seed", &"<redacted>")
            .field("counter", &self.counter)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = HashDrbg::new([1u8; 32]);
        let mut b = HashDrbg::new([1u8; 32]);
        let mut x = [0u8; 100];
        let mut y = [0u8; 100];
        a.fill_bytes(&mut x);
        b.fill_bytes(&mut y);
        assert_eq!(x, y);
    }

    #[test]
    fn streams_are_independent() {
        let master = [42u8; 32];
        let mut s0 = HashDrbg::for_stream(&master, 0);
        let mut s1 = HashDrbg::for_stream(&master, 1);
        assert_ne!(s0.next_u64(), s1.next_u64());
        // Same (master, index) reproduces the stream.
        let mut s0b = HashDrbg::for_stream(&master, 0);
        let mut a = HashDrbg::for_stream(&master, 0);
        assert_eq!(s0b.next_u64(), a.next_u64());
    }

    #[test]
    fn byte_granularity_matches_bulk_fill() {
        let mut a = HashDrbg::new([9u8; 32]);
        let mut b = HashDrbg::new([9u8; 32]);
        let mut bulk = [0u8; 64];
        a.fill_bytes(&mut bulk);
        let singles: Vec<u8> = (0..64)
            .map(|_| {
                let mut one = [0u8];
                b.fill_bytes(&mut one);
                one[0]
            })
            .collect();
        assert_eq!(bulk.to_vec(), singles);
    }

    #[test]
    fn debug_redacts_the_seed() {
        let drbg = HashDrbg::new([3u8; 32]);
        assert!(format!("{drbg:?}").contains("redacted"));
    }
}
