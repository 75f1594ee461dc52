//! Runtime-detected SHA-NI backend for the SHA-256 compression function.
//!
//! The x86 SHA extensions compute four FIPS 180-4 rounds per
//! `sha256rnds2` issue and fold the message-schedule recurrence into
//! `sha256msg1`/`sha256msg2`, turning the ~64-round scalar loop into a
//! short chain of fixed-latency vector instructions — a multi-×
//! single-block speed-up on this host. That matters here because the
//! counter-mode DRBG (`rlwe-core`'s `HashDrbg`) pays exactly one
//! compression per 32 output bytes, and error-polynomial sampling is
//! DRBG-bound: three sampled polynomials per encrypt each pull ~600
//! bytes of SHA-256 output (see DESIGN.md §12).
//!
//! Two kernels live here, both straight ports of the canonical Intel
//! flow — state kept as the `ABEF`/`CDGH` register pair `sha256rnds2`
//! expects, the sixteen fully unrolled 4-round groups driven from the
//! same [`K`](crate::sha256::K) table as the scalar loop, message
//! vectors rotated through a 4-entry window with `sha256msg1` +
//! `palignr` + `sha256msg2`:
//!
//! * [`compress`] — one block, used by every streaming digest.
//! * [`compress2`] — two **independent** blocks with interleaved
//!   instruction streams. A single block is a serial dependency chain
//!   (each `sha256rnds2` waits on the previous), so the SHA unit sits
//!   half idle; interleaving a second chain fills those latency slots
//!   and computes two blocks in well under twice the single-block
//!   time. The DRBG's counter blocks are exactly such independent
//!   pairs, so its refill path digests two at once.
//!
//! Both are the same mathematical function as [`compress_scalar`]
//! computed by different instructions — the FIPS vectors pin the
//! dispatched path, and [`tests::matches_scalar_on_random_blocks`]
//! cross-checks the kernels against the scalar reference directly on
//! random states and blocks.
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
//! crate root lists the others, the ChaCha20 and Poly1305 kernels): two
//! `#[target_feature(enable = "sha", ...)]` functions plus unaligned
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

/// Two independent SHA-NI compressions with interleaved instruction
/// streams (the DRBG refill fast path — see the module docs). Both
/// state/block pairs are compressed exactly as [`compress`] would.
// Scoped unsafe exception: see the module-level policy note.
#[allow(unsafe_code)]
pub(crate) fn compress2(
    state_a: &mut [u32; 8],
    block_a: &[u8; 64],
    state_b: &mut [u32; 8],
    block_b: &[u8; 64],
) {
    if !rlwe_zq::cpu::sha_ni() {
        compress_scalar(state_a, block_a);
        compress_scalar(state_b, block_b);
        return;
    }
    // SAFETY: `sha_ni()` just confirmed SHA + SSSE3 + SSE4.1 on this
    // CPU; the kernel touches memory only through the four fixed-size
    // references it is handed.
    unsafe { kernel::compress2(state_a, block_a, state_b, block_b) }
}

/// The `#[target_feature]` kernels — the crate's only `unsafe` code,
/// see the module-level unsafe policy note.
#[allow(unsafe_code)]
mod kernel {
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    use crate::sha256::K;

    /// Byte-swap shuffle control: each 32-bit message word arrives
    /// big-endian.
    macro_rules! flip_mask {
        () => {
            _mm_set_epi64x(0x0c0d_0e0f_0809_0a0bu64 as i64, 0x0405_0607_0001_0203)
        };
    }

    /// Four rounds for one chain: add the round constants at `$k` to the
    /// current schedule vector, then the two `sha256rnds2` half-steps.
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

    /// Repacks `[a,b,c,d] / [e,f,g,h]` into the `ABEF`/`CDGH` register
    /// layout `sha256rnds2` consumes.
    macro_rules! load_state {
        ($state:ident, $abef:ident, $cdgh:ident) => {
            let tmp = _mm_shuffle_epi32(_mm_loadu_si128($state.as_ptr().cast::<__m128i>()), 0xB1);
            let efgh = _mm_shuffle_epi32(
                _mm_loadu_si128($state.as_ptr().add(4).cast::<__m128i>()),
                0x1B,
            );
            let mut $abef = _mm_alignr_epi8(tmp, efgh, 8);
            let mut $cdgh = _mm_blend_epi16(efgh, tmp, 0xF0);
        };
    }

    /// Inverse of [`load_state!`]: adds the feed-forward and stores the
    /// eight working variables back in FIPS order.
    macro_rules! store_state {
        ($state:ident, $abef:ident, $cdgh:ident, $abef0:ident, $cdgh0:ident) => {
            $abef = _mm_add_epi32($abef, $abef0);
            $cdgh = _mm_add_epi32($cdgh, $cdgh0);
            let tmp = _mm_shuffle_epi32($abef, 0x1B);
            let dchg = _mm_shuffle_epi32($cdgh, 0xB1);
            _mm_storeu_si128(
                $state.as_mut_ptr().cast::<__m128i>(),
                _mm_blend_epi16(tmp, dchg, 0xF0),
            );
            _mm_storeu_si128(
                $state.as_mut_ptr().add(4).cast::<__m128i>(),
                _mm_alignr_epi8(dchg, tmp, 8),
            );
        };
    }

    /// Loads the sixteen message words of `$block` as four big-endian
    /// schedule vectors.
    macro_rules! load_msg {
        ($block:ident, $flip:ident, $m0:ident, $m1:ident, $m2:ident, $m3:ident) => {
            let mut $m0 =
                _mm_shuffle_epi8(_mm_loadu_si128($block.as_ptr().cast::<__m128i>()), $flip);
            let mut $m1 = _mm_shuffle_epi8(
                _mm_loadu_si128($block.as_ptr().add(16).cast::<__m128i>()),
                $flip,
            );
            let mut $m2 = _mm_shuffle_epi8(
                _mm_loadu_si128($block.as_ptr().add(32).cast::<__m128i>()),
                $flip,
            );
            let mut $m3 = _mm_shuffle_epi8(
                _mm_loadu_si128($block.as_ptr().add(48).cast::<__m128i>()),
                $flip,
            );
        };
    }

    /// One compression: `state` is the eight working variables in FIPS
    /// order (`a..h`), `block` the raw big-endian message block.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        let flip = flip_mask!();
        load_state!(state, abef, cdgh);
        let (abef0, cdgh0) = (abef, cdgh);
        load_msg!(block, flip, m0, m1, m2, m3);

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

        store_state!(state, abef, cdgh, abef0, cdgh0);
    }

    /// Four rounds for two interleaved chains: the shared round-constant
    /// vector is loaded once, then the `a`/`b` half-steps alternate so
    /// each chain's `sha256rnds2` latency hides the other's.
    macro_rules! qrounds2 {
        ($aa:ident, $ca:ident, $ma:ident, $ab:ident, $cb:ident, $mb:ident, $k:expr) => {
            let k = _mm_loadu_si128(K.as_ptr().add($k).cast::<__m128i>());
            let wka = _mm_add_epi32($ma, k);
            let wkb = _mm_add_epi32($mb, k);
            $ca = _mm_sha256rnds2_epu32($ca, $aa, wka);
            $cb = _mm_sha256rnds2_epu32($cb, $ab, wkb);
            $aa = _mm_sha256rnds2_epu32($aa, $ca, _mm_shuffle_epi32(wka, 0x0E));
            $ab = _mm_sha256rnds2_epu32($ab, $cb, _mm_shuffle_epi32(wkb, 0x0E));
        };
    }

    /// Schedule step for both chains.
    macro_rules! sched2 {
        ($a0:ident, $a1:ident, $a2:ident, $a3:ident,
         $b0:ident, $b1:ident, $b2:ident, $b3:ident) => {
            sched!($a0, $a1, $a2, $a3);
            sched!($b0, $b1, $b2, $b3);
        };
    }

    /// Two independent compressions, instruction streams interleaved
    /// (see the module docs for why this beats two [`compress`] calls).
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress2(
        state_a: &mut [u32; 8],
        block_a: &[u8; 64],
        state_b: &mut [u32; 8],
        block_b: &[u8; 64],
    ) {
        let flip = flip_mask!();
        load_state!(state_a, aa, ca);
        load_state!(state_b, ab, cb);
        let (aa0, ca0, ab0, cb0) = (aa, ca, ab, cb);
        load_msg!(block_a, flip, a0, a1, a2, a3);
        load_msg!(block_b, flip, b0, b1, b2, b3);

        qrounds2!(aa, ca, a0, ab, cb, b0, 0);
        sched2!(a0, a1, a2, a3, b0, b1, b2, b3);
        qrounds2!(aa, ca, a1, ab, cb, b1, 4);
        sched2!(a1, a2, a3, a0, b1, b2, b3, b0);
        qrounds2!(aa, ca, a2, ab, cb, b2, 8);
        sched2!(a2, a3, a0, a1, b2, b3, b0, b1);
        qrounds2!(aa, ca, a3, ab, cb, b3, 12);
        sched2!(a3, a0, a1, a2, b3, b0, b1, b2);
        qrounds2!(aa, ca, a0, ab, cb, b0, 16);
        sched2!(a0, a1, a2, a3, b0, b1, b2, b3);
        qrounds2!(aa, ca, a1, ab, cb, b1, 20);
        sched2!(a1, a2, a3, a0, b1, b2, b3, b0);
        qrounds2!(aa, ca, a2, ab, cb, b2, 24);
        sched2!(a2, a3, a0, a1, b2, b3, b0, b1);
        qrounds2!(aa, ca, a3, ab, cb, b3, 28);
        sched2!(a3, a0, a1, a2, b3, b0, b1, b2);
        qrounds2!(aa, ca, a0, ab, cb, b0, 32);
        sched2!(a0, a1, a2, a3, b0, b1, b2, b3);
        qrounds2!(aa, ca, a1, ab, cb, b1, 36);
        sched2!(a1, a2, a3, a0, b1, b2, b3, b0);
        qrounds2!(aa, ca, a2, ab, cb, b2, 40);
        sched2!(a2, a3, a0, a1, b2, b3, b0, b1);
        qrounds2!(aa, ca, a3, ab, cb, b3, 44);
        sched2!(a3, a0, a1, a2, b3, b0, b1, b2);
        qrounds2!(aa, ca, a0, ab, cb, b0, 48);
        qrounds2!(aa, ca, a1, ab, cb, b1, 52);
        qrounds2!(aa, ca, a2, ab, cb, b2, 56);
        qrounds2!(aa, ca, a3, ab, cb, b3, 60);

        store_state!(state_a, aa, ca, aa0, ca0);
        store_state!(state_b, ab, cb, ab0, cb0);
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

    #[test]
    fn interleaved_pair_matches_two_scalar_compressions() {
        if !rlwe_zq::cpu::sha_ni() {
            eprintln!("skipping: host lacks SHA-NI");
            return;
        }
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for case in 0..200 {
            let mut sa: [u32; 8] = core::array::from_fn(|_| xorshift(&mut x) as u32);
            let mut sb: [u32; 8] = core::array::from_fn(|_| xorshift(&mut x) as u32);
            let mut ba = [0u8; 64];
            let mut bb = [0u8; 64];
            for b in ba.iter_mut().chain(bb.iter_mut()) {
                *b = xorshift(&mut x) as u8;
            }
            let (mut ra, mut rb) = (sa, sb);
            super::compress2(&mut sa, &ba, &mut sb, &bb);
            compress_scalar(&mut ra, &ba);
            compress_scalar(&mut rb, &bb);
            assert_eq!((sa, sb), (ra, rb), "diverged on case {case}");
        }
    }
}
