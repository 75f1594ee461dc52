//! ChaCha20 (RFC 8439 §2.3–2.4): the stream cipher under the session
//! frames' AEAD.
//!
//! [`chacha20_block`] is the portable block function: ten double rounds
//! of quarter-rounds over the 4×4 word state `constants ‖ key ‖
//! counter ‖ nonce`, plus the input state. It is the fallback on every
//! host and the oracle the 8-lane kernel (`chacha_avx2`, in an AVX-512VL
//! and an AVX2 flavour) is tested against. [`apply_keystream`]
//! dispatches: whole 512-byte chunks go to the vector kernel when the
//! CPU has AVX-512VL or AVX2, the rest (and everything on other hosts)
//! to [`apply_keystream_scalar`]. [`chacha20_xor`] is the public
//! byte-key form of the dispatched path.
//!
//! # Constant-time argument
//!
//! ChaCha20 is ARX: 32-bit additions, XORs and rotations by fixed
//! amounts. There is no table, no data-dependent branch and no
//! data-dependent address; loop bounds depend only on the (public)
//! buffer length.

/// `"expand 32-byte k"` as little-endian words.
pub(crate) const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// Bytes per keystream block.
pub(crate) const BLOCK_LEN: usize = 64;

/// The 32-byte key as eight little-endian words.
pub(crate) fn key_words(/* ct: secret */ key: &[u8; 32]) -> [u32; 8] {
    let mut words = [0u32; 8];
    for i in 0..8 {
        words[i] = u32::from_le_bytes([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
    }
    words
}

/// The 12-byte nonce as three little-endian words.
pub(crate) fn nonce_words(nonce: &[u8; 12]) -> [u32; 3] {
    let word = |i: usize| u32::from_le_bytes([nonce[i], nonce[i + 1], nonce[i + 2], nonce[i + 3]]);
    [word(0), word(4), word(8)]
}

#[inline(always)]
fn quarter_round(x: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(16);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(12);
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(8);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(7);
}

/// One 64-byte keystream block for block number `counter`.
pub(crate) fn chacha20_block(
    /* ct: secret */ key: &[u32; 8],
    counter: u32,
    nonce: &[u32; 3],
) -> [u8; BLOCK_LEN] {
    let mut input = [0u32; 16];
    input[..4].copy_from_slice(&SIGMA);
    input[4..12].copy_from_slice(key);
    input[12] = counter;
    input[13..].copy_from_slice(nonce);
    let mut x = input;
    for _ in 0..10 {
        quarter_round(&mut x, 0, 4, 8, 12);
        quarter_round(&mut x, 1, 5, 9, 13);
        quarter_round(&mut x, 2, 6, 10, 14);
        quarter_round(&mut x, 3, 7, 11, 15);
        quarter_round(&mut x, 0, 5, 10, 15);
        quarter_round(&mut x, 1, 6, 11, 12);
        quarter_round(&mut x, 2, 7, 8, 13);
        quarter_round(&mut x, 3, 4, 9, 14);
    }
    let mut out = [0u8; BLOCK_LEN];
    for i in 0..16 {
        out[4 * i..4 * i + 4].copy_from_slice(&x[i].wrapping_add(input[i]).to_le_bytes());
    }
    out
}

/// XORs the keystream that starts at block `counter` into `data`
/// (encryption and decryption are the same operation): the 8-lane
/// kernel takes the whole 512-byte chunks where the CPU has AVX-512VL or
/// AVX2, the scalar block function the rest.
pub(crate) fn apply_keystream(
    /* ct: secret */ key: &[u32; 8],
    counter: u32,
    nonce: &[u32; 3],
    data: &mut [u8],
) {
    #[cfg(target_arch = "x86_64")]
    let done = crate::chacha_avx2::apply_wide(key, counter, nonce, data);
    #[cfg(not(target_arch = "x86_64"))]
    let done = 0;
    let next = counter.wrapping_add((done / BLOCK_LEN) as u32);
    apply_keystream_scalar(key, next, nonce, &mut data[done..]);
}

/// ChaCha20 encryption (RFC 8439 §2.4): XORs the keystream of `key` and
/// `nonce` from block `counter` on into `data`; decryption is the same
/// call. This is a bare stream cipher with no integrity; sessions use it
/// only inside [`ChaCha20Poly1305`](crate::ChaCha20Poly1305).
pub fn chacha20_xor(
    /* ct: secret */ key: &[u8; 32],
    nonce: &[u8; 12],
    counter: u32,
    data: &mut [u8],
) {
    let mut words = key_words(key);
    apply_keystream(&words, counter, &nonce_words(nonce), data);
    rlwe_zq::ct::zeroize_u32(&mut words);
}

/// [`apply_keystream`] one scalar block at a time — the portable path
/// and the test oracle for the vector kernel.
pub(crate) fn apply_keystream_scalar(
    /* ct: secret */ key: &[u32; 8],
    counter: u32,
    nonce: &[u32; 3],
    data: &mut [u8],
) {
    for (i, chunk) in data.chunks_mut(BLOCK_LEN).enumerate() {
        let block = chacha20_block(key, counter.wrapping_add(i as u32), nonce);
        for (d, k) in chunk.iter_mut().zip(&block) {
            *d ^= k;
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn unhex(s: &str) -> Vec<u8> {
        let s: String = s.split_whitespace().collect();
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
            .collect()
    }

    pub(crate) fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    pub(crate) fn random_bytes<const N: usize>(x: &mut u64) -> [u8; N] {
        std::array::from_fn(|_| xorshift(x) as u8)
    }

    fn rfc_key() -> [u32; 8] {
        let key: [u8; 32] = std::array::from_fn(|i| i as u8);
        key_words(&key)
    }

    #[test]
    fn rfc8439_block_function_vector() {
        // RFC 8439 §2.3.2.
        let nonce = nonce_words(&[0, 0, 0, 0x09, 0, 0, 0, 0x4a, 0, 0, 0, 0]);
        let block = chacha20_block(&rfc_key(), 1, &nonce);
        assert_eq!(
            block.to_vec(),
            unhex(
                "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e
                 d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
            )
        );
    }

    #[test]
    fn rfc8439_encryption_vector() {
        // RFC 8439 §2.4.2: the "sunscreen" plaintext from block 1.
        let mut data = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it."
            .to_vec();
        let nonce = nonce_words(&[0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0]);
        let want = unhex(
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8
             07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736
             5af90bbf74a35be6b40b8eedf2785e42874d",
        );
        apply_keystream_scalar(&rfc_key(), 1, &nonce, &mut data);
        assert_eq!(data, want);
        // The dispatched path inverts it.
        apply_keystream(&rfc_key(), 1, &nonce, &mut data);
        assert!(data.starts_with(b"Ladies and Gentlemen"));
    }

    #[test]
    fn dispatched_and_scalar_paths_agree_on_every_length() {
        let mut seed = 0x0123_4567_89ab_cdefu64;
        let lengths = (0..=1100).chain([16 * 1024 + 17]);
        for len in lengths {
            let key = key_words(&random_bytes::<32>(&mut seed));
            let nonce = nonce_words(&random_bytes::<12>(&mut seed));
            // Near-wrap counters too: the kernel's per-lane counters wrap
            // exactly as the scalar loop's do.
            let counter = match len % 3 {
                0 => xorshift(&mut seed) as u32,
                1 => u32::MAX - (len as u32 % 11),
                _ => 1,
            };
            let input: Vec<u8> = (0..len).map(|_| xorshift(&mut seed) as u8).collect();
            let mut fast = input.clone();
            let mut slow = input;
            apply_keystream(&key, counter, &nonce, &mut fast);
            apply_keystream_scalar(&key, counter, &nonce, &mut slow);
            assert_eq!(fast, slow, "length {len}, counter {counter}");
        }
    }

    #[test]
    fn keystream_blocks_are_the_block_function_in_counter_order() {
        let key = rfc_key();
        let nonce = [7, 8, 9];
        let mut stream = vec![0u8; 9 * BLOCK_LEN + 5];
        apply_keystream(&key, 41, &nonce, &mut stream);
        for (i, chunk) in stream.chunks(BLOCK_LEN).enumerate() {
            let block = chacha20_block(&key, 41 + i as u32, &nonce);
            assert_eq!(chunk, &block[..chunk.len()], "block {i}");
        }
    }
}
