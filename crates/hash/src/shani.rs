//! Runtime-detected SHA-NI backend for the SHA-256 compression function.
//!
//! The x86 SHA extensions compute four FIPS 180-4 rounds per
//! `sha256rnds2` issue and fold the message-schedule recurrence into
//! `sha256msg1`/`sha256msg2`, turning the ~64-round scalar loop into a
//! short chain of fixed-latency vector instructions. Every SHA-256
//! caller takes it: the FO transform's hashes, KDF2 and HMAC in the
//! session handshake, and the DRBG's stream derivation.
//!
//! [`compress`] is a straight port of the canonical Intel flow: state
//! kept as the `ABEF`/`CDGH` register pair `sha256rnds2` expects, the
//! sixteen fully unrolled 4-round groups driven from the same
//! [`K`](crate::sha256::K) table as the scalar loop, message vectors
//! rotated through a 4-entry window with `sha256msg1` + `palignr` +
//! `sha256msg2`. It is the same mathematical function as
//! [`compress_scalar`] computed by different instructions: the FIPS
//! vectors pin the dispatched path, and
//! [`tests::matches_scalar_on_random_blocks`] cross-checks the kernel
//! against the scalar reference directly on random states and blocks.
//!
//! # Constant-time argument
//!
//! The instruction trace is fixed: loads, byte-swap shuffles and
//! sixteen identical round groups, with no data-dependent branch or
//! address. Dispatch depends only on the public CPU feature flag —
//! exactly the discipline of the scalar compression it replaces.
//!
//! # Unsafe policy
//!
//! `rlwe-hash` carries a scoped exception to the workspace-wide
//! `unsafe_code = "forbid"` (crate-level `deny`, following the
//! `rlwe-ntt`/`rlwe-sampler` AVX2 precedent). The `kernel` module below
//! is the first of its four detection-gated `kernel` modules (the
//! crate root lists the others, the ChaCha20 and Poly1305 kernels): one
//! `#[target_feature(enable = "sha", ...)]` function plus unaligned
//! vector loads/stores on fixed-size stack arrays, reachable only
//! through safe wrappers gated on [`rlwe_zq::cpu::sha_ni`]. See
//! DESIGN.md §12.

use crate::sha256::compress_scalar;

/// SHA-NI compression for one 64-byte block.
///
/// Falls back to the portable kernel if called on a host without the
/// extensions (the dispatcher in `sha256.rs` checks first, so the
/// fallback arm is belt-and-braces rather than a reachable panic).
// Scoped unsafe exception: the only unsafe reachable from here is the
// detection-gated kernel call below (see the module-level policy note).
#[allow(unsafe_code)]
pub(crate) fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    if !rlwe_zq::cpu::sha_ni() {
        return compress_scalar(state, block);
    }
    // SAFETY: `sha_ni()` just confirmed SHA + SSSE3 + SSE4.1 on this
    // CPU; the kernel touches memory only through the two fixed-size
    // references it is handed.
    unsafe { kernel::compress(state, block) }
}

/// The `#[target_feature]` kernel — see the module-level unsafe policy
/// note.
#[allow(unsafe_code)]
mod kernel {
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    use crate::sha256::K;

    /// Four rounds: add the round constants at `$k` to the current
    /// schedule vector, then the two `sha256rnds2` half-steps.
    macro_rules! qrounds {
        ($abef:ident, $cdgh:ident, $m:ident, $k:expr) => {
            let wk = _mm_add_epi32($m, _mm_loadu_si128(K.as_ptr().add($k).cast::<__m128i>()));
            $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
            $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32(wk, 0x0E));
        };
    }

    /// Message-schedule recurrence producing the next four words into
    /// `$m0`: `m0 ← msg2(msg1(m0, m1) + (m3 ‖ m2 ≫ 4B), m3)`.
    macro_rules! sched {
        ($m0:ident, $m1:ident, $m2:ident, $m3:ident) => {
            $m0 = _mm_sha256msg2_epu32(
                _mm_add_epi32(_mm_sha256msg1_epu32($m0, $m1), _mm_alignr_epi8($m3, $m2, 4)),
                $m3,
            );
        };
    }

    /// One compression: `state` is the eight working variables in FIPS
    /// order (`a..h`), `block` the raw big-endian message block.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        // Repack `[a,b,c,d] / [e,f,g,h]` into the `ABEF`/`CDGH` register
        // layout `sha256rnds2` consumes.
        let tmp = _mm_shuffle_epi32(_mm_loadu_si128(state.as_ptr().cast::<__m128i>()), 0xB1);
        let efgh = _mm_shuffle_epi32(
            _mm_loadu_si128(state.as_ptr().add(4).cast::<__m128i>()),
            0x1B,
        );
        let mut abef = _mm_alignr_epi8(tmp, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, tmp, 0xF0);
        let (abef0, cdgh0) = (abef, cdgh);

        // The sixteen message words as four schedule vectors, byte-swapped
        // because each word arrives big-endian.
        let flip = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0bu64 as i64, 0x0405_0607_0001_0203);
        let msg = block.as_ptr().cast::<__m128i>();
        let mut m0 = _mm_shuffle_epi8(_mm_loadu_si128(msg), flip);
        let mut m1 = _mm_shuffle_epi8(_mm_loadu_si128(msg.add(1)), flip);
        let mut m2 = _mm_shuffle_epi8(_mm_loadu_si128(msg.add(2)), flip);
        let mut m3 = _mm_shuffle_epi8(_mm_loadu_si128(msg.add(3)), flip);

        qrounds!(abef, cdgh, m0, 0);
        sched!(m0, m1, m2, m3);
        qrounds!(abef, cdgh, m1, 4);
        sched!(m1, m2, m3, m0);
        qrounds!(abef, cdgh, m2, 8);
        sched!(m2, m3, m0, m1);
        qrounds!(abef, cdgh, m3, 12);
        sched!(m3, m0, m1, m2);
        qrounds!(abef, cdgh, m0, 16);
        sched!(m0, m1, m2, m3);
        qrounds!(abef, cdgh, m1, 20);
        sched!(m1, m2, m3, m0);
        qrounds!(abef, cdgh, m2, 24);
        sched!(m2, m3, m0, m1);
        qrounds!(abef, cdgh, m3, 28);
        sched!(m3, m0, m1, m2);
        qrounds!(abef, cdgh, m0, 32);
        sched!(m0, m1, m2, m3);
        qrounds!(abef, cdgh, m1, 36);
        sched!(m1, m2, m3, m0);
        qrounds!(abef, cdgh, m2, 40);
        sched!(m2, m3, m0, m1);
        qrounds!(abef, cdgh, m3, 44);
        sched!(m3, m0, m1, m2);
        qrounds!(abef, cdgh, m0, 48);
        qrounds!(abef, cdgh, m1, 52);
        qrounds!(abef, cdgh, m2, 56);
        qrounds!(abef, cdgh, m3, 60);

        // Feed-forward, then store the working variables in FIPS order.
        abef = _mm_add_epi32(abef, abef0);
        cdgh = _mm_add_epi32(cdgh, cdgh0);
        let tmp = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        _mm_storeu_si128(
            state.as_mut_ptr().cast::<__m128i>(),
            _mm_blend_epi16(tmp, dchg, 0xF0),
        );
        _mm_storeu_si128(
            state.as_mut_ptr().add(4).cast::<__m128i>(),
            _mm_alignr_epi8(dchg, tmp, 8),
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::sha256::compress_scalar;

    /// Tiny deterministic generator — no external RNG in this crate.
    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    #[test]
    fn matches_scalar_on_random_blocks() {
        if !rlwe_zq::cpu::sha_ni() {
            eprintln!("skipping: host lacks SHA-NI");
            return;
        }
        let mut x = 0x243F_6A88_85A3_08D3u64;
        for case in 0..200 {
            let mut state: [u32; 8] = core::array::from_fn(|_| xorshift(&mut x) as u32);
            let mut block = [0u8; 64];
            for b in block.iter_mut() {
                *b = xorshift(&mut x) as u8;
            }
            let mut scalar_state = state;
            super::compress(&mut state, &block);
            compress_scalar(&mut scalar_state, &block);
            assert_eq!(state, scalar_state, "diverged on case {case}");
        }
    }
}
