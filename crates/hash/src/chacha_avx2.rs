//! Runtime-detected 8-lane AVX2 kernel for the ChaCha20 keystream.
//!
//! One iteration computes eight consecutive 64-byte blocks, 512 bytes,
//! with one block per 32-bit lane: state word `i` of all eight blocks
//! lives in one `__m256i`, so the sixteen state words are sixteen
//! vectors and a quarter-round is the scalar one issued on whole
//! vectors. Lane `j` of word 12 carries block counter `counter + j`.
//! The rotations by 16 and 8 are byte shuffles (`vpshufb`); the ones by
//! 12 and 7 are shift pairs. After the twenty rounds and the
//! feed-forward, two 8×8 transposes of 32-bit words (words 0–7 and
//! 8–15) turn "word `i` of every block" into "block `j`, one half",
//! which is XORed into the data and stored. The scalar block function
//! covers whatever is left after the whole 512-byte chunks.
//!
//! This is the same function as
//! [`apply_keystream_scalar`](crate::chacha20::apply_keystream_scalar)
//! computed by different instructions; the agreement test in
//! `chacha20.rs` checks every length from 0 to 1100 bytes and a
//! 16 KiB + 17 B buffer against it.
//!
//! # Constant-time argument
//!
//! The instruction trace depends only on the public buffer length:
//! vector adds, XORs, shifts and fixed shuffles, with no
//! data-dependent branch or address. Dispatch depends only on the
//! public CPU feature flag.
//!
//! # Unsafe policy
//!
//! This is the second scoped exception to `rlwe-hash`'s
//! `deny(unsafe_code)`, beside `shani::kernel`: the `kernel` module
//! below holds one `#[target_feature(enable = "avx2")]` function and
//! its unaligned loads and stores, all inside the 512-byte chunks of
//! the slice it is handed. It is reachable only through
//! [`apply_wide`], which checks [`rlwe_zq::cpu::avx2`] first. See
//! DESIGN.md §14.

/// Bytes per kernel iteration: eight 64-byte blocks.
const WIDE: usize = 8 * crate::chacha20::BLOCK_LEN;

/// XORs the keystream from block `counter` on into the longest prefix
/// of `data` that is a whole number of 512-byte chunks, and returns
/// that prefix's length. Returns 0 and leaves `data` untouched on a
/// CPU without AVX2 or when `data` is shorter than one chunk.
// Scoped unsafe exception: see the module-level policy note.
#[allow(unsafe_code)]
pub(crate) fn apply_wide(
    /* ct: secret */ key: &[u32; 8],
    counter: u32,
    nonce: &[u32; 3],
    data: &mut [u8],
) -> usize {
    let wide = data.len() / WIDE * WIDE;
    if wide == 0 || !rlwe_zq::cpu::avx2() {
        return 0;
    }
    // SAFETY: `avx2()` just confirmed AVX2 on this CPU; the kernel reads
    // and writes only inside `data[..wide]`, a whole number of 512-byte
    // chunks.
    unsafe { kernel::apply_wide(key, counter, nonce, &mut data[..wide]) };
    wide
}

/// The `#[target_feature]` kernel — see the module-level unsafe policy
/// note.
#[allow(unsafe_code)]
mod kernel {
    use core::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_loadu_si256, _mm256_or_si256, _mm256_permute2x128_si256,
        _mm256_set1_epi32, _mm256_setr_epi32, _mm256_setr_epi8, _mm256_shuffle_epi8,
        _mm256_slli_epi32, _mm256_srli_epi32, _mm256_storeu_si256, _mm256_unpackhi_epi32,
        _mm256_unpackhi_epi64, _mm256_unpacklo_epi32, _mm256_unpacklo_epi64, _mm256_xor_si256,
    };

    use super::WIDE;
    use crate::chacha20::SIGMA;

    /// `x <<< $n` on every lane, for the shift-pair rotations (12, 7).
    macro_rules! rotl {
        ($v:expr, $n:literal) => {
            _mm256_or_si256(
                _mm256_slli_epi32::<$n>($v),
                _mm256_srli_epi32::<{ 32 - $n }>($v),
            )
        };
    }

    /// One quarter-round on state vectors `a, b, c, d` of `$x`.
    macro_rules! quarter {
        ($x:ident, $r16:ident, $r8:ident, $a:literal, $b:literal, $c:literal, $d:literal) => {
            $x[$a] = _mm256_add_epi32($x[$a], $x[$b]);
            $x[$d] = _mm256_shuffle_epi8(_mm256_xor_si256($x[$d], $x[$a]), $r16);
            $x[$c] = _mm256_add_epi32($x[$c], $x[$d]);
            $x[$b] = rotl!(_mm256_xor_si256($x[$b], $x[$c]), 12);
            $x[$a] = _mm256_add_epi32($x[$a], $x[$b]);
            $x[$d] = _mm256_shuffle_epi8(_mm256_xor_si256($x[$d], $x[$a]), $r8);
            $x[$c] = _mm256_add_epi32($x[$c], $x[$d]);
            $x[$b] = rotl!(_mm256_xor_si256($x[$b], $x[$c]), 7);
        };
    }

    /// Transposes the 8×8 matrix of 32-bit words in `rows` (row `i` =
    /// word `i` of blocks 0..8) into columns (column `j` = that word
    /// range of block `j`).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn transpose(rows: [__m256i; 8]) -> [__m256i; 8] {
        let [a0, a1, a2, a3, a4, a5, a6, a7] = rows;
        let t0 = _mm256_unpacklo_epi32(a0, a1);
        let t1 = _mm256_unpackhi_epi32(a0, a1);
        let t2 = _mm256_unpacklo_epi32(a2, a3);
        let t3 = _mm256_unpackhi_epi32(a2, a3);
        let t4 = _mm256_unpacklo_epi32(a4, a5);
        let t5 = _mm256_unpackhi_epi32(a4, a5);
        let t6 = _mm256_unpacklo_epi32(a6, a7);
        let t7 = _mm256_unpackhi_epi32(a6, a7);
        // u_k holds column k of rows 0–3 (low half) and of column k + 4
        // (high half); v_k the same for rows 4–7.
        let u0 = _mm256_unpacklo_epi64(t0, t2);
        let u1 = _mm256_unpackhi_epi64(t0, t2);
        let u2 = _mm256_unpacklo_epi64(t1, t3);
        let u3 = _mm256_unpackhi_epi64(t1, t3);
        let v0 = _mm256_unpacklo_epi64(t4, t6);
        let v1 = _mm256_unpackhi_epi64(t4, t6);
        let v2 = _mm256_unpacklo_epi64(t5, t7);
        let v3 = _mm256_unpackhi_epi64(t5, t7);
        [
            _mm256_permute2x128_si256::<0x20>(u0, v0),
            _mm256_permute2x128_si256::<0x20>(u1, v1),
            _mm256_permute2x128_si256::<0x20>(u2, v2),
            _mm256_permute2x128_si256::<0x20>(u3, v3),
            _mm256_permute2x128_si256::<0x31>(u0, v0),
            _mm256_permute2x128_si256::<0x31>(u1, v1),
            _mm256_permute2x128_si256::<0x31>(u2, v2),
            _mm256_permute2x128_si256::<0x31>(u3, v3),
        ]
    }

    /// XORs eight blocks of keystream per iteration into `data`, whose
    /// length is a whole number of [`WIDE`] chunks (a shorter tail would
    /// be left untouched).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2. Any `data` length is memory-safe: the
    /// loads and stores stay inside `chunks_exact_mut(WIDE)` chunks.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn apply_wide(
        key: &[u32; 8],
        counter: u32,
        nonce: &[u32; 3],
        data: &mut [u8],
    ) {
        debug_assert_eq!(data.len() % WIDE, 0);
        let r16 = _mm256_setr_epi8(
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, //
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
        );
        let r8 = _mm256_setr_epi8(
            3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, //
            3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
        );
        macro_rules! splat {
            ($w:expr) => {
                _mm256_set1_epi32($w as i32)
            };
        }
        let mut input = [
            splat!(SIGMA[0]),
            splat!(SIGMA[1]),
            splat!(SIGMA[2]),
            splat!(SIGMA[3]),
            splat!(key[0]),
            splat!(key[1]),
            splat!(key[2]),
            splat!(key[3]),
            splat!(key[4]),
            splat!(key[5]),
            splat!(key[6]),
            splat!(key[7]),
            _mm256_add_epi32(splat!(counter), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7)),
            splat!(nonce[0]),
            splat!(nonce[1]),
            splat!(nonce[2]),
        ];
        let eight = splat!(8);

        for chunk in data.chunks_exact_mut(WIDE) {
            let mut x = input;
            for _ in 0..10 {
                quarter!(x, r16, r8, 0, 4, 8, 12);
                quarter!(x, r16, r8, 1, 5, 9, 13);
                quarter!(x, r16, r8, 2, 6, 10, 14);
                quarter!(x, r16, r8, 3, 7, 11, 15);
                quarter!(x, r16, r8, 0, 5, 10, 15);
                quarter!(x, r16, r8, 1, 6, 11, 12);
                quarter!(x, r16, r8, 2, 7, 8, 13);
                quarter!(x, r16, r8, 3, 4, 9, 14);
            }
            for (w, i) in x.iter_mut().zip(&input) {
                *w = _mm256_add_epi32(*w, *i);
            }
            let lo = transpose([x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]]);
            let hi = transpose([x[8], x[9], x[10], x[11], x[12], x[13], x[14], x[15]]);
            let p = chunk.as_mut_ptr();
            for j in 0..8 {
                // SAFETY: block `j` is bytes 64j..64j+64 of this
                // 512-byte chunk; both 32-byte halves are in bounds.
                unsafe {
                    let first = p.add(64 * j).cast::<__m256i>();
                    let second = p.add(64 * j + 32).cast::<__m256i>();
                    _mm256_storeu_si256(first, _mm256_xor_si256(_mm256_loadu_si256(first), lo[j]));
                    _mm256_storeu_si256(
                        second,
                        _mm256_xor_si256(_mm256_loadu_si256(second), hi[j]),
                    );
                }
            }
            input[12] = _mm256_add_epi32(input[12], eight);
        }
    }
}
