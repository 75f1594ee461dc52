//! Counter-mode keystream from a keyed SHA-256 midstate.
//!
//! Output block `i` of the keystream for sequence number `seq` is
//!
//! ```text
//! SHA-256(key ‖ prefix ‖ seq:u64be ‖ i:u32be)      i = 0, 1, …
//! ```
//!
//! The 32-byte secret key and the 32-byte public prefix fill the first
//! compression block exactly, so its chaining state (the *midstate*) is
//! computed once, when the keystream is built. Each 32 output bytes then
//! cost one compression of the public second block `seq ‖ i ‖ padding`.
//! A KDF2 call over the same inputs pays two, because it re-absorbs the
//! key with every output block. Blocks are produced two at a time
//! through the interleaved two-lane compression (`shani::compress2` on
//! SHA-NI hosts), with a single compression for an odd tail.
//!
//! Every output block is an ordinary SHA-256 digest of a fixed-length
//! 76-byte message whose first 32 bytes are the key, which is the
//! secret-prefix form KDF2 has. See DESIGN.md §14.

use crate::sha256::{compress, compress_pair, state_bytes, H0};

/// Bytes hashed per output block: key, prefix, sequence number, counter.
const MSG_LEN: u64 = 32 + 32 + 8 + 4;

/// The block counter is 32 bits wide, so one call covers at most 2³²
/// output blocks.
const MAX_LEN: u64 = 32 << 32;

/// A keyed SHA-256 counter-mode keystream: XORs
/// `SHA-256(key ‖ prefix ‖ seq ‖ i)` for `i = 0, 1, …` into a buffer.
///
/// The midstate stands in for the key, so it is erased on drop, and each
/// clone erases its own copy.
///
/// # Example
///
/// ```
/// use rlwe_hash::{Keystream, Sha256};
///
/// let ks = Keystream::new(&[7u8; 32], &[9u8; 32]);
/// let mut data = [0u8; 40];
/// ks.apply(5, &mut data);
///
/// let mut msg = vec![7u8; 32];
/// msg.extend_from_slice(&[9u8; 32]);
/// msg.extend_from_slice(&5u64.to_be_bytes());
/// msg.extend_from_slice(&0u32.to_be_bytes());
/// assert_eq!(data[..32], Sha256::digest(&msg));
///
/// ks.apply(5, &mut data); // XOR is its own inverse
/// assert_eq!(data, [0u8; 40]);
/// ```
#[derive(Clone)]
pub struct Keystream {
    // ct: secret
    midstate: [u32; 8],
}

impl Keystream {
    /// Absorbs `key ‖ prefix`, the first compression block of every
    /// output block's message.
    pub fn new(/* ct: secret */ key: &[u8; 32], prefix: &[u8; 32]) -> Self {
        let mut block = [0u8; 64];
        block[..32].copy_from_slice(key);
        block[32..].copy_from_slice(prefix);
        let mut midstate = H0;
        compress(&mut midstate, &block);
        rlwe_zq::ct::zeroize(&mut block);
        Self { midstate }
    }

    /// XORs the keystream for sequence number `seq` into `data` in place.
    /// Applying it twice restores the input.
    ///
    /// # Panics
    ///
    /// If `data` is longer than 2³² output blocks (128 GiB), where the
    /// block counter would wrap.
    pub fn apply(&self, seq: u64, data: &mut [u8]) {
        assert!(
            data.len() as u64 <= MAX_LEN,
            "keystream request of {} bytes would wrap the block counter",
            data.len()
        );
        let mut block_a = counter_block(seq);
        let mut block_b = block_a;
        let mut state_a = [0u32; 8];
        let mut state_b = [0u32; 8];
        let mut counter = 0u32;
        for chunk in data.chunks_mut(64) {
            block_a[8..12].copy_from_slice(&counter.to_be_bytes());
            state_a = self.midstate;
            if chunk.len() > 32 {
                block_b[8..12].copy_from_slice(&(counter + 1).to_be_bytes());
                state_b = self.midstate;
                compress_pair(&mut state_a, &block_a, &mut state_b, &block_b);
                let (lo, hi) = chunk.split_at_mut(32);
                xor_state(lo, &state_a);
                xor_state(hi, &state_b);
                crate::probe::record(MSG_LEN);
            } else {
                compress(&mut state_a, &block_a);
                xor_state(chunk, &state_a);
            }
            crate::probe::record(MSG_LEN);
            counter = counter.wrapping_add(2);
        }
        rlwe_zq::ct::zeroize_u32(&mut state_a);
        rlwe_zq::ct::zeroize_u32(&mut state_b);
    }
}

impl Drop for Keystream {
    fn drop(&mut self) {
        rlwe_zq::ct::zeroize_u32(&mut self.midstate);
    }
}

impl std::fmt::Debug for Keystream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Keystream")
            .field("midstate", &"<redacted>")
            .finish()
    }
}

/// The padded second block of every output block's message: `seq`, a
/// zero counter (overwritten per block), `0x80`, zeros and the 608-bit
/// message length.
fn counter_block(seq: u64) -> [u8; 64] {
    let mut block = [0u8; 64];
    block[..8].copy_from_slice(&seq.to_be_bytes());
    block[12] = 0x80;
    block[56..].copy_from_slice(&(MSG_LEN * 8).to_be_bytes());
    block
}

/// XORs the big-endian digest of `state` into `out` (at most 32 bytes).
fn xor_state(out: &mut [u8], state: &[u32; 8]) {
    for (b, k) in out.iter_mut().zip(state_bytes(state)) {
        *b ^= k;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::compress_scalar;
    use crate::Sha256;

    const LABEL: &[u8; 14] = b"rlwe-engine/ks";

    /// Tiny deterministic generator — no external RNG in this crate.
    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    fn random_bytes<const N: usize>(x: &mut u64) -> [u8; N] {
        core::array::from_fn(|_| xorshift(x) as u8)
    }

    /// `label ‖ sid ‖ 0x0000`, the prefix the session layer uses.
    fn session_prefix(sid: &[u8; 16]) -> [u8; 32] {
        let mut prefix = [0u8; 32];
        prefix[..14].copy_from_slice(LABEL);
        prefix[14..30].copy_from_slice(sid);
        prefix
    }

    /// The definition, one streaming digest per output block.
    fn oracle(key: &[u8; 32], prefix: &[u8; 32], seq: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        for i in 0u32.. {
            if out.len() >= len {
                break;
            }
            let mut h = Sha256::new();
            h.update(key);
            h.update(prefix);
            h.update(&seq.to_be_bytes());
            h.update(&i.to_be_bytes());
            let take = (len - out.len()).min(32);
            out.extend_from_slice(&h.finalize()[..take]);
        }
        out
    }

    /// One compression per output block through `step`, never paired.
    fn single_lane(ks: &Keystream, seq: u64, data: &mut [u8], step: fn(&mut [u32; 8], &[u8; 64])) {
        let mut block = counter_block(seq);
        for (i, chunk) in data.chunks_mut(32).enumerate() {
            block[8..12].copy_from_slice(&(i as u32).to_be_bytes());
            let mut state = ks.midstate;
            step(&mut state, &block);
            xor_state(chunk, &state);
        }
    }

    #[test]
    fn apply_xors_the_streaming_digest_of_each_counter_block() {
        let mut x = 0x0123_4567_89AB_CDEFu64;
        for len in (0..=200usize).chain([16 * 1024]) {
            let key = random_bytes::<32>(&mut x);
            let prefix = session_prefix(&random_bytes::<16>(&mut x));
            let seq = xorshift(&mut x);
            let data: Vec<u8> = (0..len).map(|_| xorshift(&mut x) as u8).collect();
            let mut got = data.clone();
            Keystream::new(&key, &prefix).apply(seq, &mut got);
            let want: Vec<u8> = data
                .iter()
                .zip(oracle(&key, &prefix, seq, len))
                .map(|(d, k)| d ^ k)
                .collect();
            assert_eq!(got, want, "len {len}");
        }
    }

    #[test]
    fn paired_and_single_lane_paths_agree_on_every_tail() {
        let mut x = 0xFEDC_BA98_7654_3210u64;
        let key = random_bytes::<32>(&mut x);
        let ks = Keystream::new(&key, &random_bytes::<32>(&mut x));
        let lens = [
            0usize,
            1,
            31,
            32,
            33,
            63,
            64,
            65,
            95,
            96,
            97,
            128,
            129,
            16 * 1024 + 17,
        ];
        for len in lens {
            let seq = xorshift(&mut x);
            let mut paired = vec![0u8; len];
            ks.apply(seq, &mut paired);
            let mut dispatched = vec![0u8; len];
            single_lane(&ks, seq, &mut dispatched, compress);
            let mut scalar = vec![0u8; len];
            single_lane(&ks, seq, &mut scalar, compress_scalar);
            assert_eq!(paired, dispatched, "len {len}");
            assert_eq!(paired, scalar, "len {len}");
        }
    }

    #[test]
    fn known_answer_digest_of_a_100_byte_keystream() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let ks = Keystream::new(&key, &session_prefix(&[0xA5; 16]));
        let mut data = [0u8; 100];
        ks.apply(7, &mut data);
        let hex: String = Sha256::digest(&data)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            "23a43e4ef0ea9e5857014a03af004a6742925c2011d692d89ca0b74a2eca1123"
        );
    }

    #[test]
    fn sequence_numbers_and_keys_separate_streams() {
        let a = Keystream::new(&[1u8; 32], &[0u8; 32]);
        let b = Keystream::new(&[2u8; 32], &[0u8; 32]);
        let run = |ks: &Keystream, seq| {
            let mut d = [0u8; 64];
            ks.apply(seq, &mut d);
            d
        };
        assert_ne!(run(&a, 0), run(&a, 1));
        assert_ne!(run(&a, 0), run(&b, 0));
        assert_eq!(run(&a, 3), run(&a.clone(), 3));
    }

    #[test]
    fn probe_records_one_76_byte_digest_per_output_block() {
        let ks = Keystream::new(&[3u8; 32], &[4u8; 32]);
        crate::probe::start();
        ks.apply(0, &mut [0u8; 97]);
        assert_eq!(crate::probe::take(), vec![76; 4]);
    }

    #[test]
    fn debug_output_redacts_the_midstate() {
        let ks = Keystream::new(&[0xEEu8; 32], &[0u8; 32]);
        let shown = format!("{ks:?}");
        assert!(shown.contains("<redacted>"));
        assert!(!shown.contains(&ks.midstate[0].to_string()));
    }
}
