//! A deterministic random-bit generator: the ChaCha20 keystream of a
//! 32-byte seed.
//!
//! Originally private to the FO transform ([`crate::fo`]), promoted to a
//! public module as a seed-deterministic coin source: a caller derives
//! one independent stream per request or handshake attempt from a
//! master seed (see [`HashDrbg::for_stream`]), so output is reproducible
//! and testable regardless of which thread runs it.
//!
//! The generator runs on the frame AEAD's ChaCha20 ([`chacha20_xor`]),
//! so error sampling, which is DRBG-bound, takes its coins from the
//! same AVX-512F/AVX2 kernels as the session frames (DESIGN.md §12).

use rand::{CryptoRng, Error as RandError, RngCore};
use rlwe_hash::{chacha20_xor, probe, Sha256};

/// Domain-separation prefix for [`HashDrbg::for_stream`] derivation.
const DS_STREAM: &[u8] = b"rlwe-drbg/stream";

/// First four nonce bytes of every DRBG keystream. The frame AEAD's
/// nonces start with four zero bytes, so the two uses of ChaCha20 never
/// share a nonce even under the same key.
const NONCE_TAG: [u8; 4] = *b"drbg";

/// Keystream bytes per refill: sixteen ChaCha20 blocks, one iteration
/// of the 16-lane AVX-512F kernel (two of the 8-lane AVX2 one).
const BUF_LEN: usize = 1024;

/// ChaCha20 blocks per refill. A power of two, so it divides 2³²: a
/// refill starts at a multiple of it and never crosses a multiple of
/// 2³², where the 32-bit block counter wraps and the nonce moves on.
const REFILL_BLOCKS: u64 = (BUF_LEN / 64) as u64;

/// A deterministic RNG: the ChaCha20 keystream under key `seed`, where
/// keystream block `i` (a 64-bit index) is ChaCha20 block `i mod 2³²`
/// under the nonce `"drbg" ‖ ⌊i / 2³²⌋` (the high half as a
/// little-endian `u64`). No two blocks share a (counter, nonce) pair,
/// so the stream never repeats.
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
    // ct: secret
    key: [u8; 32],
    /// Index of the next keystream block to generate.
    block: u64,
    /// Keystream blocks `block - REFILL_BLOCKS ..`, served from `used` on.
    // ct: secret
    keystream: [u8; BUF_LEN],
    used: usize,
}

impl HashDrbg {
    /// A generator expanding `seed`.
    pub fn new(seed: [u8; 32]) -> Self {
        Self {
            key: seed,
            block: 0,
            keystream: [0; BUF_LEN],
            used: BUF_LEN, // force a refill on first use
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

    /// Generates the next [`REFILL_BLOCKS`] keystream blocks. `block` is
    /// a multiple of [`REFILL_BLOCKS`], so its low half does not wrap
    /// inside the call. Each refill is one entry in the leakage probe's
    /// trace ([`probe::record_keystream`]), so a secret-dependent coin
    /// draw shows there as an extra refill.
    fn refill(&mut self) {
        let mut nonce = [0u8; 12];
        nonce[..4].copy_from_slice(&NONCE_TAG); // panic-allow(constant split of [u8; 12])
        nonce[4..].copy_from_slice(&(self.block >> 32).to_le_bytes()); // panic-allow(constant split of [u8; 12])
        self.keystream.fill(0);
        chacha20_xor(&self.key, &nonce, self.block as u32, &mut self.keystream);
        probe::record_keystream(BUF_LEN as u64);
        self.block += REFILL_BLOCKS;
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
        // One slice copy per buffered run: the byte stream does not
        // depend on how a caller splits its requests (pinned by
        // `byte_granularity_matches_bulk_fill` below).
        let mut filled = 0;
        // ct-allow(`filled` and `used` are byte positions set by the public request lengths)
        while filled < dest.len() {
            // ct-allow(`used` is a public position; only the keystream bytes are secret)
            if self.used == BUF_LEN {
                self.refill();
            }
            let n = (dest.len() - filled).min(BUF_LEN - self.used);
            let (src, dst) = (self.used..self.used + n, filled..filled + n);
            // ct-allow(`src` and `dst` are public positions; only the copied bytes are secret)
            dest[dst].copy_from_slice(&self.keystream[src]); // panic-allow(n fits both spans left)
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

// Both the key and the buffered keystream are key material.
impl Drop for HashDrbg {
    fn drop(&mut self) {
        rlwe_zq::ct::zeroize(&mut self.key);
        rlwe_zq::ct::zeroize(&mut self.keystream);
    }
}

impl std::fmt::Debug for HashDrbg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HashDrbg")
            .field("key", &"<redacted>")
            .field("block", &self.block)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

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
        // Well past one refill, so single-byte draws cross the buffer
        // boundary.
        let len = 2 * BUF_LEN + 100;
        let mut a = HashDrbg::new([9u8; 32]);
        let mut b = HashDrbg::new([9u8; 32]);
        let mut bulk = vec![0u8; len];
        a.fill_bytes(&mut bulk);
        let singles: Vec<u8> = (0..len)
            .map(|_| {
                let mut one = [0u8];
                b.fill_bytes(&mut one);
                one[0]
            })
            .collect();
        assert_eq!(bulk, singles);
    }

    // The three values below are printed by
    // `crates/hash/vectors/chacha20poly1305.py`, which computes the
    // keystream with Python's `cryptography` package.

    #[test]
    fn matches_the_python_keystream() {
        let mut drbg = HashDrbg::new([0x42; 32]);
        let mut out = vec![0u8; 2200];
        drbg.fill_bytes(&mut out);
        assert_eq!(
            hex(&Sha256::digest(&out)),
            "ef4aad90f19a4b7542e942d3c7b89ce79f1cdda32b4f5d15d92469c9d0bf5f9b"
        );
    }

    #[test]
    fn stream_derivation_matches_python() {
        let mut drbg = HashDrbg::for_stream(&[7; 32], 3);
        let mut out = [0u8; 64];
        drbg.fill_bytes(&mut out);
        assert_eq!(
            hex(&out),
            "0c5e8b7be55f34fa0903f9d7cbc461da20644cead5032851d57f4e18e288c336\
             f1f056fc126c2effd585b97f2674b63b1f9bead7411babf51c5988f04647c7c2"
        );
    }

    #[test]
    fn keystream_crosses_block_index_two_to_the_32() {
        // The last block of the refill below 2³² and the first above it:
        // the counter wraps to 0 and the nonce's high half becomes 1.
        let mut drbg = HashDrbg::new([0x42; 32]);
        drbg.block = (1 << 32) - REFILL_BLOCKS;
        let mut skip = [0u8; BUF_LEN - 64];
        drbg.fill_bytes(&mut skip);
        let mut out = [0u8; 128];
        drbg.fill_bytes(&mut out);
        assert_eq!(
            hex(&out),
            "e6880cb90f8fafe2b283f1127079c05de6cded4726521c28d34ff85998242cc2\
             ec2bb9fe4a0d396ea26fafb9ea75cccd035e5afc6557d15bd06b59c77ebcce48\
             803ad8849bbcb1c77baf134f151e7a1ca37a2652605fe7bb038eb9ab928d3127\
             d3fc4cce6e2f373e084cfef6fdea3598313f6ea64c8d5424942fe8b47ab566ae"
        );
    }

    #[test]
    fn debug_redacts_the_seed() {
        let drbg = HashDrbg::new([3u8; 32]);
        assert!(format!("{drbg:?}").contains("redacted"));
    }
}
