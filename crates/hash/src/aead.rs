//! ChaCha20-Poly1305 (RFC 8439 §2.8), the session frames' AEAD.
//!
//! For one message under nonce `0x00000000 ‖ seq:u64be`:
//!
//! ```text
//! otk  = ChaCha20(key, counter 0, nonce)[..32]          Poly1305 key
//! ct   = data XOR ChaCha20(key, counter 1.., nonce)
//! tag  = Poly1305(otk, aad ‖ pad16 ‖ ct ‖ pad16 ‖ le64(|aad|) ‖ le64(|ct|))
//! ```
//!
//! A caller must never seal two messages under one key with the same
//! `seq`; the session layer guarantees it with per-direction keys and
//! strictly increasing sequence numbers. The 32-bit block counter
//! bounds one message to 2³² − 1 blocks (256 GiB), far beyond any frame.

use crate::chacha20::{apply_keystream, chacha20_block, key_words, nonce_words};
use crate::poly1305::Poly1305;

/// Tag length in bytes.
pub const TAG_LEN: usize = 16;

/// The tag did not verify: the ciphertext, the associated data, the
/// sequence number or the key differ from the sealing side's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BadTag;

impl std::fmt::Display for BadTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AEAD tag verification failed")
    }
}

impl std::error::Error for BadTag {}

/// A ChaCha20-Poly1305 key, held as the cipher's key words. Erased on
/// drop (each clone erases its own copy).
///
/// # Example
///
/// ```
/// use rlwe_hash::ChaCha20Poly1305;
///
/// let aead = ChaCha20Poly1305::new(&[7u8; 32]);
/// let mut data = *b"attack at dawn";
/// let tag = aead.seal_in_place(0, b"header", &mut data);
/// assert_ne!(&data, b"attack at dawn");
/// aead.open_in_place(0, b"header", &mut data, &tag).unwrap();
/// assert_eq!(&data, b"attack at dawn");
/// // Another sequence number is another nonce: the tag no longer fits.
/// let tag2 = aead.seal_in_place(1, b"header", &mut data);
/// assert!(aead.open_in_place(2, b"header", &mut data, &tag2).is_err());
/// ```
#[derive(Clone)]
pub struct ChaCha20Poly1305 {
    // ct: secret
    cipher_key: [u32; 8],
}

impl Drop for ChaCha20Poly1305 {
    fn drop(&mut self) {
        rlwe_zq::ct::zeroize_u32(&mut self.cipher_key);
    }
}

impl std::fmt::Debug for ChaCha20Poly1305 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaCha20Poly1305")
            .field("key", &"<redacted>")
            .finish()
    }
}

/// The RFC 8439 nonce for sequence number `seq`: `0x00000000 ‖ seq:u64be`.
fn nonce(seq: u64) -> [u32; 3] {
    let mut n = [0u8; 12];
    n[4..].copy_from_slice(&seq.to_be_bytes());
    nonce_words(&n)
}

impl ChaCha20Poly1305 {
    /// Keys the AEAD with a 32-byte key.
    pub fn new(/* ct: secret */ key: &[u8; 32]) -> Self {
        Self {
            cipher_key: key_words(key),
        }
    }

    /// Poly1305 over `aad ‖ pad16 ‖ ct ‖ pad16 ‖ lengths`, keyed from
    /// keystream block 0 of `nonce`.
    fn tag(&self, nonce: &[u32; 3], aad: &[u8], ct: &[u8]) -> [u8; TAG_LEN] {
        let mut block = chacha20_block(&self.cipher_key, 0, nonce);
        let mut otk = [0u8; 32];
        otk.copy_from_slice(&block[..32]);
        let mut mac = Poly1305::new(&otk);
        rlwe_zq::ct::zeroize(&mut block);
        rlwe_zq::ct::zeroize(&mut otk);
        mac.update_padded(aad);
        mac.update_padded(ct);
        let mut lengths = [0u8; 16];
        lengths[..8].copy_from_slice(&(aad.len() as u64).to_le_bytes());
        lengths[8..].copy_from_slice(&(ct.len() as u64).to_le_bytes());
        mac.update_padded(&lengths);
        mac.finalize()
    }

    /// Encrypts `data` in place under sequence number `seq` and returns
    /// the tag over `aad` and the ciphertext.
    pub fn seal_in_place(&self, seq: u64, aad: &[u8], data: &mut [u8]) -> [u8; TAG_LEN] {
        let nonce = nonce(seq);
        apply_keystream(&self.cipher_key, 1, &nonce, data);
        self.tag(&nonce, aad, data)
    }

    /// Verifies `tag` over `aad` and the ciphertext in `data`, then
    /// decrypts `data` in place. Nothing is decrypted unless the tag
    /// verifies; the comparison is constant-time.
    ///
    /// # Errors
    ///
    /// [`BadTag`] if the tag does not match (including a `tag` of the
    /// wrong length); `data` is then left as it was.
    pub fn open_in_place(
        &self,
        seq: u64,
        aad: &[u8],
        /* ct: secret */ data: &mut [u8],
        tag: &[u8],
    ) -> Result<(), BadTag> {
        let nonce = nonce(seq);
        let expected = self.tag(&nonce, aad, data);
        // ct-allow(the comparison itself is ct_eq; its verdict is the public accept/reject)
        if !rlwe_zq::ct::ct_eq(&expected, tag) {
            return Err(BadTag);
        }
        apply_keystream(&self.cipher_key, 1, &nonce, data);
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::chacha20::apply_keystream_scalar;
    use crate::chacha20::tests::{random_bytes, unhex, xorshift};

    /// The AEAD over the scalar keystream only: the oracle for the
    /// dispatched path.
    fn seal_scalar(key: &[u8; 32], seq: u64, aad: &[u8], data: &mut [u8]) -> [u8; TAG_LEN] {
        let aead = ChaCha20Poly1305::new(key);
        let nonce = nonce(seq);
        apply_keystream_scalar(&aead.cipher_key, 1, &nonce, data);
        aead.tag(&nonce, aad, data)
    }

    #[test]
    fn rfc8439_aead_vector() {
        // RFC 8439 §2.8.2. Its nonce `07000000 ‖ 4041424344454647` has a
        // non-zero first word, which the frame nonce `0 ‖ seq` cannot
        // express, so the test drives the keystream and the tag directly.
        let key: [u8; 32] =
            unhex("808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f")
                .try_into()
                .unwrap();
        let nonce = nonce_words(&unhex("070000004041424344454647").try_into().unwrap());
        let aad = unhex("50515253c0c1c2c3c4c5c6c7");
        let mut data = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it."
            .to_vec();
        let aead = ChaCha20Poly1305::new(&key);
        apply_keystream(&aead.cipher_key, 1, &nonce, &mut data);
        let tag = aead.tag(&nonce, &aad, &data);
        assert_eq!(
            data,
            unhex(
                "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6
                 3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36
                 92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc
                 3ff4def08e4b7a9de576d26586cec64b6116"
            )
        );
        assert_eq!(tag.to_vec(), unhex("1ae10b594f09e26a7e902ecbd0600691"));
    }

    /// `pattern(n, mul, add)[i] = i·mul + add (mod 256)`, as in the
    /// generator script `vectors/chacha20poly1305.py`.
    pub(crate) fn pattern(n: usize, mul: usize, add: usize) -> Vec<u8> {
        (0..n).map(|i| (i * mul + add) as u8).collect()
    }

    /// Python `cryptography` 48's `ChaCha20Poly1305` on the frame nonce
    /// layout, from `vectors/chacha20poly1305.py`: `(length,
    /// SHA-256 of the ciphertext, tag)`.
    const PYTHON_VECTORS: [(usize, &str, &str); 22] = [
        (
            0,
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "f8c9c0bacd69585c66aaca3667f398e9",
        ),
        (
            1,
            "74e1ade320c66075468e17cfab33f41e8e0eaca45edb6dd7b086c49a358d2a69",
            "9215936833a960d270b099050262b652",
        ),
        (
            15,
            "5a71c8795303cbc4f54080153199046f891bf557df6374ac3f59bc37a97a8791",
            "952080e0410dc61a6225b7588cdb1ce4",
        ),
        (
            16,
            "6238788f832c98c4fdef8c688ac785d92717dcde4d5347d5639b7218f64bad52",
            "1f4ae02995a866326fa86b4a05b24610",
        ),
        (
            17,
            "e92cd37b133c98f5acfdfaaefac9796c539d3a26cb129f123199bff777cfc4e0",
            "1106461dbd7683f26a5d7d1fcc09e19a",
        ),
        (
            63,
            "0d1a5eef74869d1abd12d2c52f0488f2e004804cddc621f51ac23d369048ceaf",
            "dcf4953516e33c283b15e71c5a4592b8",
        ),
        (
            64,
            "126bedb2d0241b67e49055fa0f42d8a2f737f8e9ec3b53ddd5ff8d471fbe58b4",
            "14a2b1b6287089fab47ecf04bb5f592e",
        ),
        (
            65,
            "1faaca8cdd5f65ac7c2a5eb01a84c5d8e363644d02afe4cc4520ae4f5b7fbc5e",
            "52f5bf76696e0d5368591e6c3941df39",
        ),
        (
            127,
            "9a60be6005f013b25a2b246a5104b7be4157b851a6f81d231248a665872396bc",
            "56bdd21a268a9515bd7292589ace04c7",
        ),
        (
            128,
            "43e25937c9de975769532723fa9ef6e3f9059ff859157752fce34ad05734c81f",
            "e9b01b5bacd70675858d1a71276b88d0",
        ),
        (
            129,
            "9cbbdbd443cff63c1e3069f84a7882e85599580e4f4a07be8ad34c148dbe0614",
            "e0a3a4e2c2dfed46294c6f2e5148c061",
        ),
        (
            511,
            "2c5244194b293feeb31f009b2ea8e2c25c2804d10b077573d0e0c2cd281dec3e",
            "39be3121559a1a65be09e023b29ab427",
        ),
        (
            512,
            "67167876fcf0fdfd96b0197ba60391d57ceb38a9e173bec69995f21064af14c1",
            "1a1bd3761d6e22b2bd266b8cda27785a",
        ),
        (
            513,
            "9812f3d9e1a0001a33a3150a71bb46b206bf70dd0a1c6c166a5cc3adf7468dbb",
            "261e7f5e02703fb6b6115bb3a00e456d",
        ),
        (
            1023,
            "6b36140b32eb439e8bf8180c40296ec3f8a0caa791daa3ca618bae5240eb9b9e",
            "77712280b6bc529d7315fee12fa58e9f",
        ),
        (
            1024,
            "63e9760da01f4121185f306d128867c6e65da959933d309638cdd6b5d57db5d9",
            "6a2066d872f5e459442e8a4831f8f65f",
        ),
        (
            1025,
            "d528dd709d6254e412cd9f8c080cf09386936fae624d88cd5cd6cbbf37f29f88",
            "597b635b2dc2c4aacde407485e3a74f9",
        ),
        (
            2047,
            "08751f3731430d6b6437c3e75b64b23e9c222edd330ee835b97754387e1b46b1",
            "83bc818d53b430b38775f86c7b9194fe",
        ),
        (
            2048,
            "e7a5036e08c4d9870a00c9a06be48c71718503cb36406055d8b62599bfa2660b",
            "f315d334c830ad2bd9333cd862ad159c",
        ),
        (
            2049,
            "cc6d571ca09b88eeaade56cb151f80204dfe97585899418401b07fd7ad656a95",
            "8d1bcad6ecf90043c0f01474a2f8308c",
        ),
        (
            16384,
            "8e8eb8928b7b0dac3cf5d6cf0f0519184110eb6396049f50d058b1b72d96456c",
            "d47bec672b66153ecd1ce6384f04eac9",
        ),
        (
            16401,
            "f90606ba75ea9010443361925d1a23c53af888cf9c99db90a720adf8d83e5db3",
            "9b786794f86d19e0509fd0861ac07be6",
        ),
    ];

    #[test]
    fn matches_python_cryptography_on_every_pinned_length() {
        let key: [u8; 32] = pattern(32, 7, 0x80).try_into().unwrap();
        let aad = pattern(13, 3, 0xF6);
        let seq = 0x0102_0304_0506_0708;
        let aead = ChaCha20Poly1305::new(&key);
        for (len, ct_digest, tag_hex) in PYTHON_VECTORS {
            let plain = pattern(len, 31, 7);
            let mut data = plain.clone();
            let tag = aead.seal_in_place(seq, &aad, &mut data);
            assert_eq!(
                crate::Sha256::digest(&data).to_vec(),
                unhex(ct_digest),
                "length {len}"
            );
            assert_eq!(tag.to_vec(), unhex(tag_hex), "length {len}");
            let mut scalar = plain.clone();
            assert_eq!(
                seal_scalar(&key, seq, &aad, &mut scalar),
                tag,
                "length {len}"
            );
            assert_eq!(scalar, data, "length {len}");
            aead.open_in_place(seq, &aad, &mut data, &tag).unwrap();
            assert_eq!(data, plain, "length {len}");
        }
    }

    #[test]
    fn dispatched_and_scalar_aead_agree() {
        let mut seed = 0x005E_ED0F_AEAD_u64;
        for len in (0..=1100).step_by(7).chain([512, 1024, 16 * 1024 + 17]) {
            let key = random_bytes::<32>(&mut seed);
            let seq = xorshift(&mut seed);
            let aad = random_bytes::<13>(&mut seed);
            let plain: Vec<u8> = (0..len).map(|_| xorshift(&mut seed) as u8).collect();
            let mut fast = plain.clone();
            let mut slow = plain.clone();
            let tag = ChaCha20Poly1305::new(&key).seal_in_place(seq, &aad, &mut fast);
            assert_eq!(tag, seal_scalar(&key, seq, &aad, &mut slow), "length {len}");
            assert_eq!(fast, slow, "length {len}");
            ChaCha20Poly1305::new(&key)
                .open_in_place(seq, &aad, &mut fast, &tag)
                .unwrap();
            assert_eq!(fast, plain);
        }
    }

    #[test]
    fn a_failed_open_leaves_the_ciphertext_untouched() {
        let aead = ChaCha20Poly1305::new(&[3u8; 32]);
        let mut data = vec![0x42u8; 700];
        let tag = aead.seal_in_place(5, b"aad", &mut data);
        let sealed = data.clone();
        for (seq, aad, tag) in [
            (6, &b"aad"[..], &tag[..]),
            (5, &b"aae"[..], &tag[..]),
            (5, &b"aad"[..], &tag[..15]),
        ] {
            assert_eq!(aead.open_in_place(seq, aad, &mut data, tag), Err(BadTag));
            assert_eq!(data, sealed);
        }
        let mut flipped = tag;
        flipped[15] ^= 0x80;
        assert_eq!(
            aead.open_in_place(5, b"aad", &mut data, &flipped),
            Err(BadTag)
        );
        assert_eq!(data, sealed);
    }

    #[test]
    fn sequence_numbers_and_keys_separate_streams() {
        let seal = |key: u8, seq: u64| {
            let mut data = [0u8; 100];
            let tag = ChaCha20Poly1305::new(&[key; 32]).seal_in_place(seq, b"", &mut data);
            (data, tag)
        };
        let base = seal(1, 9);
        assert_ne!(base, seal(1, 10));
        assert_ne!(base, seal(2, 9));
        assert_eq!(base, seal(1, 9));
    }

    #[test]
    fn debug_output_redacts_the_key() {
        let dbg = format!("{:?}", ChaCha20Poly1305::new(&[0xABu8; 32]));
        assert!(dbg.contains("redacted"));
        assert!(!dbg.contains("2880154539"), "{dbg}"); // 0xABABABAB
    }
}
