//! SHA-256 (FIPS 180-4).

/// Round constants: first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes. `pub(crate)` so the SHA-NI backend
/// ([`crate::shani`]) can load the same table four constants at a time.
pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
pub(crate) const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Streaming SHA-256 hasher.
///
/// # Example
///
/// ```
/// use rlwe_hash::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), Sha256::digest(b"hello world"));
/// ```
/// The hasher buffers at most one 64-byte block **on the stack**: callers
/// feed secret material through `update` (FO messages, secret-key
/// coefficients, MAC keys, DRBG seeds), so the unprocessed tail must not
/// transit — or be left behind in — heap allocations. `finalize` erases
/// the tail before returning.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// The current, partially filled input block.
    block: [u8; 64],
    /// Number of valid bytes at the front of `block` (always < 64).
    fill: usize,
    /// Total message length in bytes.
    length: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

// The buffered tail may be key material; show only the public length.
impl std::fmt::Debug for Sha256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sha256")
            .field("length", &self.length)
            .field("buffer", &"<redacted>")
            .finish()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self {
            state: H0,
            block: [0u8; 64],
            fill: 0,
            length: 0,
        }
    }

    /// One-shot digest of a byte slice.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// Feeds more input.
    pub fn update(&mut self, data: &[u8]) {
        self.length += data.len() as u64;
        let mut rest = data;
        if self.fill > 0 {
            let take = rest.len().min(64 - self.fill);
            self.block[self.fill..self.fill + take].copy_from_slice(&rest[..take]);
            self.fill += take;
            rest = &rest[take..];
            if self.fill < 64 {
                return; // data exhausted without completing the block
            }
            let block = self.block;
            self.compress(&block);
            self.fill = 0;
        }
        while rest.len() >= 64 {
            let block: [u8; 64] = rest[..64].try_into().expect("64 bytes");
            self.compress(&block);
            rest = &rest[64..];
        }
        self.block[..rest.len()].copy_from_slice(rest);
        self.fill = rest.len();
    }

    /// Consumes the hasher and returns the digest.
    pub fn finalize(mut self) -> [u8; 32] {
        crate::probe::record(self.length);
        let bit_len = self.length * 8;
        // Padding: 0x80, zeros, 64-bit big-endian length — one extra
        // block when the tail leaves no room for the 9 padding bytes.
        let mut pad = [0u8; 128];
        pad[..self.fill].copy_from_slice(&self.block[..self.fill]);
        pad[self.fill] = 0x80;
        let total = if self.fill < 56 { 64 } else { 128 };
        pad[total - 8..total].copy_from_slice(&bit_len.to_be_bytes());
        for i in 0..total / 64 {
            let block: [u8; 64] = pad[i * 64..(i + 1) * 64].try_into().expect("64 bytes");
            self.compress(&block);
        }
        // Both copies of the (possibly secret) input tail are ours to
        // erase before they leave scope.
        rlwe_zq::ct::zeroize(&mut self.block);
        rlwe_zq::ct::zeroize(&mut pad);
        state_bytes(&self.state)
    }

    fn compress(&mut self, block: &[u8; 64]) {
        compress(&mut self.state, block);
    }
}

/// Serializes the working state as the big-endian FIPS digest.
pub(crate) fn state_bytes(state: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (i, w) in state.iter().enumerate() {
        out[i * 4..(i + 1) * 4].copy_from_slice(&w.to_be_bytes());
    }
    out
}

/// Applies the SHA-256 compression function for one 64-byte block,
/// dispatching to the SHA-NI kernel where the host has it (detection is
/// cached by `std`, so the check is one relaxed load) and to the
/// portable [`compress_scalar`] otherwise. The two are the same
/// function computed by different instructions — FIPS vectors and the
/// cross-check test in [`crate::shani`] pin the identity.
pub(crate) fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if rlwe_zq::cpu::sha_ni() {
        crate::shani::compress(state, block);
        return;
    }
    compress_scalar(state, block);
}

/// Portable compression function: the FIPS 180-4 round schedule in
/// plain integer arithmetic.
pub(crate) fn compress_scalar(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("4 bytes"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    #[test]
    fn fips_vectors() {
        // FIPS 180-4 / NIST CAVP examples.
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        for _ in 0..1000 {
            h.update(&[b'a'; 1000]);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_equals_oneshot_across_split_points() {
        let data: Vec<u8> = (0..500u32).map(|i| (i * 7 + 3) as u8).collect();
        let want = Sha256::digest(&data);
        for split in [0usize, 1, 63, 64, 65, 127, 128, 250, 499, 500] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split at {split}");
        }
    }

    #[test]
    fn exact_block_boundary_lengths() {
        // 55, 56, 63, 64 bytes hit different padding paths.
        for len in [55usize, 56, 63, 64, 119, 120] {
            let data = vec![0xABu8; len];
            let once = Sha256::digest(&data);
            let mut h = Sha256::new();
            for b in &data {
                h.update(&[*b]);
            }
            assert_eq!(h.finalize(), once, "len {len}");
        }
    }
}
