//! HMAC-SHA256 (RFC 2104 / FIPS 198-1).

use crate::sha256::Sha256;

/// HMAC keyed with SHA-256 — the MAC layer of the ECIES baseline.
///
/// # Example
///
/// ```
/// use rlwe_hash::HmacSha256;
///
/// let tag = HmacSha256::mac(b"key", b"The quick brown fox jumps over the lazy dog");
/// assert_eq!(
///     tag.iter().map(|b| format!("{b:02x}")).collect::<String>(),
///     "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8"
/// );
/// ```
#[derive(Debug, Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl HmacSha256 {
    const BLOCK: usize = 64;

    /// Creates a MAC context for `key` (any length; long keys are hashed
    /// first, per RFC 2104).
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; Self::BLOCK];
        if key.len() > Self::BLOCK {
            k[..32].copy_from_slice(&Sha256::digest(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        // The padded keys stay on the stack and are erased before they
        // leave scope — no heap copies of key material.
        let mut pad = [0u8; Self::BLOCK];
        let mut inner = Sha256::new();
        for (p, &b) in pad.iter_mut().zip(&k) {
            *p = b ^ 0x36;
        }
        inner.update(&pad);
        let mut outer = Sha256::new();
        for (p, &b) in pad.iter_mut().zip(&k) {
            *p = b ^ 0x5c;
        }
        outer.update(&pad);
        rlwe_zq::ct::zeroize(&mut k);
        rlwe_zq::ct::zeroize(&mut pad);
        Self { inner, outer }
    }

    /// Feeds message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Produces the 32-byte tag.
    pub fn finalize(mut self) -> [u8; 32] {
        let inner_digest = self.inner.finalize();
        self.outer.update(&inner_digest);
        self.outer.finalize()
    }

    /// One-shot MAC.
    pub fn mac(key: &[u8], message: &[u8]) -> [u8; 32] {
        let mut h = Self::new(key);
        h.update(message);
        h.finalize()
    }

    /// Constant-time tag comparison via the workspace-wide
    /// [`rlwe_zq::ct::ct_eq`]: every byte is inspected regardless of
    /// mismatches, and a length mismatch folds into the same masked
    /// verdict instead of short-circuiting.
    pub fn verify(key: &[u8], message: &[u8], tag: &[u8]) -> bool {
        let computed = Self::mac(key, message);
        rlwe_zq::ct::ct_eq(&computed, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let tag = HmacSha256::mac(&key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let tag = HmacSha256::mac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let msg = [0xddu8; 50];
        let tag = HmacSha256::mac(&key, &msg);
        assert_eq!(
            hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let tag = HmacSha256::mac(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn cloned_keyed_context_matches_fresh_keying() {
        let keyed = HmacSha256::new(b"Jefe");
        for msg in [&b""[..], b"what do ya want for nothing?", &[7u8; 200]] {
            let mut h = keyed.clone();
            h.update(msg);
            assert_eq!(h.finalize(), HmacSha256::mac(b"Jefe", msg));
        }
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let tag = HmacSha256::mac(b"k", b"m");
        assert!(HmacSha256::verify(b"k", b"m", &tag));
        let mut bad = tag;
        bad[0] ^= 1;
        assert!(!HmacSha256::verify(b"k", b"m", &bad));
        assert!(!HmacSha256::verify(b"k", b"m", &tag[..31]));
        assert!(!HmacSha256::verify(b"k2", b"m", &tag));
    }
}
