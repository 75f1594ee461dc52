//! Runtime-detected vector kernels for the ChaCha20 keystream: a
//! 16-lane AVX-512F flavour on zmm registers and an 8-lane AVX2 one on
//! ymm registers.
//!
//! Both put one block in each 32-bit lane: state word `i` of every block
//! lives in one vector, so the sixteen state words are sixteen vectors
//! and a quarter-round is the scalar one issued on whole vectors. Lane
//! `j` of word 12 carries block counter `counter + j`. After the twenty
//! rounds and the feed-forward, a transpose of 32-bit words turns "word
//! `i` of every block" into "block `j`", which is XORed into the data
//! and stored. The scalar block function covers whatever the kernels
//! leave.
//!
//! # Two flavours
//!
//! The `rounds!` macro in [`kernel`] is the one round structure; each
//! flavour hands it its vector type's add, XOR and rotations
//! (DESIGN.md §14):
//!
//! - `kernel::avx512f` (`avx2,avx512f`) runs sixteen blocks, 1 KiB, per
//!   iteration, one zmm register per state word. All four rotations are
//!   one `vprold` each, the sixteen state vectors and the sixteen
//!   input vectors fit zmm0–31, and a 16×16 transpose
//!   (`vpunpck{l,h}{dq,qdq}`, then two rounds of `vshufi32x4`) turns
//!   the state into sixteen blocks.
//! - `kernel::avx2` (`avx2`) runs eight blocks, 512 bytes, per
//!   iteration on ymm registers. It rotates by 16 and 8 with one
//!   `vpshufb` each and by 12 and 7 with a shift pair. Its two shuffle
//!   masks pass through `core::hint::black_box`: with the masks in
//!   sight, LLVM lowers the rotate-by-16 shuffle to a `vpshuflw` +
//!   `vpshufhw` pair and pushes the rotate-by-8 shuffle through the XOR
//!   that feeds it, 32 shuffles per double round where 16 suffice.
//!
//! [`apply_wide`] takes the AVX-512F flavour where the CPU has it: the
//! whole 1 KiB chunks on zmm, then a 512–1023 B remainder's 512-byte
//! chunk on the AVX2 flavour. Elsewhere it takes the AVX2 flavour. Both
//! are the same function as
//! [`apply_keystream_scalar`](crate::chacha20::apply_keystream_scalar)
//! computed by different instructions: the tests below run each flavour
//! the host supports against it on every length from 0 to 2200 bytes
//! and on a 16 KiB + 17 B buffer, and check both flavours' machine code.
//!
//! # Constant-time argument
//!
//! The instruction trace depends only on the public buffer length:
//! vector adds, XORs, shifts, rotates and fixed shuffles, with no
//! data-dependent branch or address. Dispatch depends only on the
//! public CPU feature flags.
//!
//! # Unsafe policy
//!
//! This is the second scoped exception to `rlwe-hash`'s
//! `deny(unsafe_code)`, beside `shani::kernel`: the `kernel` module
//! below holds the two `#[target_feature]` flavours and their unaligned
//! loads and stores (by-value reinterpretations of 64-byte blocks in
//! the AVX-512F flavour), all inside the whole chunks of the slice they
//! are handed. They are reachable only through [`apply_flavour`], which
//! checks the flavour's [`rlwe_zq::cpu`] flags first. See DESIGN.md §14.

use crate::chacha20::BLOCK_LEN;

/// Bytes per AVX2 iteration: eight 64-byte blocks.
const YMM_CHUNK: usize = 8 * BLOCK_LEN;

/// Bytes per AVX-512F iteration: sixteen 64-byte blocks.
const ZMM_CHUNK: usize = 16 * BLOCK_LEN;

/// One compilation of the kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Flavour {
    /// 8 lanes on ymm: `vpshufb` for the rotations by 16 and 8, shift
    /// pairs for 12 and 7.
    Avx2,
    /// 16 lanes on zmm: `vprold` for every rotation.
    Avx512F,
}

impl Flavour {
    /// Every flavour, in the order [`Flavour::detect`] prefers them.
    pub(crate) const ALL: [Flavour; 2] = [Flavour::Avx512F, Flavour::Avx2];

    /// Whether the running CPU can execute this flavour.
    pub(crate) fn supported(self) -> bool {
        match self {
            Flavour::Avx2 => rlwe_zq::cpu::avx2(),
            Flavour::Avx512F => rlwe_zq::cpu::avx512f(),
        }
    }

    /// The flavour [`apply_wide`] runs on this CPU: AVX-512F, else
    /// AVX2, else none (the scalar block function does everything).
    pub(crate) fn detect() -> Option<Flavour> {
        Flavour::ALL.into_iter().find(|f| f.supported())
    }

    /// Stable metric-label name of the flavour.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Flavour::Avx2 => "avx2",
            Flavour::Avx512F => "avx512f",
        }
    }
}

/// XORs the keystream from block `counter` on into the longest prefix
/// of `data` that is a whole number of 512-byte chunks, on the fastest
/// flavour the CPU supports, and returns that prefix's length. Returns
/// 0 and leaves `data` untouched on a CPU without AVX2 or when `data` is
/// shorter than one chunk.
pub(crate) fn apply_wide(
    /* ct: secret */ key: &[u32; 8],
    counter: u32,
    nonce: &[u32; 3],
    data: &mut [u8],
) -> usize {
    // Short frames skip the feature checks.
    if data.len() < YMM_CHUNK {
        return 0;
    }
    match Flavour::detect() {
        Some(flavour) => apply_flavour(flavour, key, counter, nonce, data),
        None => 0,
    }
}

/// [`apply_wide`] on the given flavour: the AVX-512F flavour takes the
/// whole 1 KiB chunks and hands a remaining 512-byte chunk to the AVX2
/// one. Returns 0 and leaves `data` untouched when the CPU cannot run
/// the flavour or `data` is shorter than 512 bytes.
// Scoped unsafe exception: see the module-level policy note.
#[allow(unsafe_code)]
pub(crate) fn apply_flavour(
    flavour: Flavour,
    /* ct: secret */ key: &[u32; 8],
    counter: u32,
    nonce: &[u32; 3],
    data: &mut [u8],
) -> usize {
    if !flavour.supported() {
        return 0;
    }
    match flavour {
        Flavour::Avx2 => {
            let wide = data.len() / YMM_CHUNK * YMM_CHUNK;
            // SAFETY: `supported()` just confirmed AVX2 on this CPU; the
            // kernel reads and writes only inside `data[..wide]`, whole
            // 512-byte chunks.
            unsafe { kernel::avx2(key, counter, nonce, &mut data[..wide]) };
            wide
        }
        Flavour::Avx512F => {
            let wide = data.len() / ZMM_CHUNK * ZMM_CHUNK;
            // SAFETY: `supported()` just confirmed AVX2 and AVX-512F on
            // this CPU; the kernel reads and writes only inside
            // `data[..wide]`, whole 1 KiB chunks.
            unsafe { kernel::avx512f(key, counter, nonce, &mut data[..wide]) };
            let next = counter.wrapping_add((wide / BLOCK_LEN) as u32);
            wide + apply_flavour(Flavour::Avx2, key, next, nonce, &mut data[wide..])
        }
    }
}

/// The `#[target_feature]` kernels — see the module-level unsafe policy
/// note.
#[allow(unsafe_code)]
mod kernel {
    use core::arch::x86_64::{
        __m256i, __m512i, _mm256_add_epi32, _mm256_loadu_si256, _mm256_or_si256,
        _mm256_permute2x128_si256, _mm256_set1_epi32, _mm256_setr_epi32, _mm256_setr_epi8,
        _mm256_shuffle_epi8, _mm256_slli_epi32, _mm256_srli_epi32, _mm256_storeu_si256,
        _mm256_unpackhi_epi32, _mm256_unpackhi_epi64, _mm256_unpacklo_epi32, _mm256_unpacklo_epi64,
        _mm256_xor_si256, _mm512_add_epi32, _mm512_rol_epi32, _mm512_set1_epi32, _mm512_setr_epi32,
        _mm512_shuffle_i32x4, _mm512_unpackhi_epi32, _mm512_unpackhi_epi64, _mm512_unpacklo_epi32,
        _mm512_unpacklo_epi64, _mm512_xor_si512,
    };
    use core::hint::black_box;

    use super::{YMM_CHUNK, ZMM_CHUNK};
    use crate::chacha20::SIGMA;

    /// `x <<< $n` on every lane as a shift pair (AVX2 has no rotate).
    macro_rules! shift_rotl {
        ($v:expr, $n:literal) => {
            _mm256_or_si256(
                _mm256_slli_epi32::<$n>($v),
                _mm256_srli_epi32::<{ 32 - $n }>($v),
            )
        };
    }

    /// The AVX2 flavour's rotations: one `vpshufb` for 16 and 8, a
    /// shift pair for 12 and 7.
    #[derive(Clone, Copy)]
    struct Shuffles {
        r16: __m256i,
        r8: __m256i,
    }

    impl Shuffles {
        #[inline]
        #[target_feature(enable = "avx2")]
        fn new() -> Self {
            // `black_box` keeps the masks opaque. With them visible,
            // LLVM lowers the rotate-by-16 `vpshufb` to `vpshuflw` +
            // `vpshufhw` and pushes the rotate-by-8 one through the
            // XOR that feeds it: two shuffles per rotation, not one.
            Self {
                r16: black_box(_mm256_setr_epi8(
                    2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, //
                    2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
                )),
                r8: black_box(_mm256_setr_epi8(
                    3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, //
                    3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
                )),
            }
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        fn rotl16(self, v: __m256i) -> __m256i {
            _mm256_shuffle_epi8(v, self.r16)
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        fn rotl12(self, v: __m256i) -> __m256i {
            shift_rotl!(v, 12)
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        fn rotl8(self, v: __m256i) -> __m256i {
            _mm256_shuffle_epi8(v, self.r8)
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        fn rotl7(self, v: __m256i) -> __m256i {
            shift_rotl!(v, 7)
        }
    }

    /// The AVX-512F flavour's rotations: `vprold` on zmm for all four.
    #[derive(Clone, Copy)]
    struct Vprold;

    impl Vprold {
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn rotl16(self, v: __m512i) -> __m512i {
            _mm512_rol_epi32::<16>(v)
        }

        #[inline]
        #[target_feature(enable = "avx512f")]
        fn rotl12(self, v: __m512i) -> __m512i {
            _mm512_rol_epi32::<12>(v)
        }

        #[inline]
        #[target_feature(enable = "avx512f")]
        fn rotl8(self, v: __m512i) -> __m512i {
            _mm512_rol_epi32::<8>(v)
        }

        #[inline]
        #[target_feature(enable = "avx512f")]
        fn rotl7(self, v: __m512i) -> __m512i {
            _mm512_rol_epi32::<7>(v)
        }
    }

    /// One quarter-round on state vectors `a, b, c, d` of `$x`, adding
    /// and XORing with `$add`/`$xor` and rotating with `$rot`'s methods.
    macro_rules! quarter {
        ($x:ident, $add:path, $xor:path, $rot:ident, $a:literal, $b:literal, $c:literal, $d:literal) => {
            $x[$a] = $add($x[$a], $x[$b]);
            $x[$d] = $rot.rotl16($xor($x[$d], $x[$a]));
            $x[$c] = $add($x[$c], $x[$d]);
            $x[$b] = $rot.rotl12($xor($x[$b], $x[$c]));
            $x[$a] = $add($x[$a], $x[$b]);
            $x[$d] = $rot.rotl8($xor($x[$d], $x[$a]));
            $x[$c] = $add($x[$c], $x[$d]);
            $x[$b] = $rot.rotl7($xor($x[$b], $x[$c]));
        };
    }

    /// ChaCha20's twenty rounds on the state vectors `$x`, one double
    /// round per loop iteration.
    macro_rules! rounds {
        ($x:ident, $add:path, $xor:path, $rot:ident) => {
            for _ in 0..10 {
                quarter!($x, $add, $xor, $rot, 0, 4, 8, 12);
                quarter!($x, $add, $xor, $rot, 1, 5, 9, 13);
                quarter!($x, $add, $xor, $rot, 2, 6, 10, 14);
                quarter!($x, $add, $xor, $rot, 3, 7, 11, 15);
                quarter!($x, $add, $xor, $rot, 0, 5, 10, 15);
                quarter!($x, $add, $xor, $rot, 1, 6, 11, 12);
                quarter!($x, $add, $xor, $rot, 2, 7, 8, 13);
                quarter!($x, $add, $xor, $rot, 3, 4, 9, 14);
            }
        };
    }

    /// The input state of the lanes' blocks, one state word per vector:
    /// `$splat` broadcasts a word to every lane and `$counters` is word
    /// 12, each lane's block counter.
    macro_rules! input_state {
        ($splat:ident, $key:ident, $counters:expr, $nonce:ident) => {
            [
                $splat(SIGMA[0]),
                $splat(SIGMA[1]),
                $splat(SIGMA[2]),
                $splat(SIGMA[3]),
                $splat($key[0]),
                $splat($key[1]),
                $splat($key[2]),
                $splat($key[3]),
                $splat($key[4]),
                $splat($key[5]),
                $splat($key[6]),
                $splat($key[7]),
                $counters,
                $splat($nonce[0]),
                $splat($nonce[1]),
                $splat($nonce[2]),
            ]
        };
    }

    /// Transposes the 8×8 matrix of 32-bit words in `rows` (row `i` =
    /// word `i` of blocks 0..8) into columns (column `j` = that word
    /// range of block `j`).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn transpose8(rows: [__m256i; 8]) -> [__m256i; 8] {
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

    /// The 4×4 transpose of 32-bit words within each 128-bit lane of
    /// rows `a0..a3`: output `m` lane `k` holds word `k·4 + m` of each
    /// row, in row order.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn transpose_words(a0: __m512i, a1: __m512i, a2: __m512i, a3: __m512i) -> [__m512i; 4] {
        let t0 = _mm512_unpacklo_epi32(a0, a1);
        let t1 = _mm512_unpackhi_epi32(a0, a1);
        let t2 = _mm512_unpacklo_epi32(a2, a3);
        let t3 = _mm512_unpackhi_epi32(a2, a3);
        [
            _mm512_unpacklo_epi64(t0, t2),
            _mm512_unpackhi_epi64(t0, t2),
            _mm512_unpacklo_epi64(t1, t3),
            _mm512_unpackhi_epi64(t1, t3),
        ]
    }

    /// The 4×4 transpose of 128-bit lanes: output `k` holds lane `k` of
    /// `q0..q3`, in that order.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn transpose_lanes(q0: __m512i, q1: __m512i, q2: __m512i, q3: __m512i) -> [__m512i; 4] {
        let lo01 = _mm512_shuffle_i32x4::<0x44>(q0, q1);
        let hi01 = _mm512_shuffle_i32x4::<0xEE>(q0, q1);
        let lo23 = _mm512_shuffle_i32x4::<0x44>(q2, q3);
        let hi23 = _mm512_shuffle_i32x4::<0xEE>(q2, q3);
        [
            _mm512_shuffle_i32x4::<0x88>(lo01, lo23),
            _mm512_shuffle_i32x4::<0xDD>(lo01, lo23),
            _mm512_shuffle_i32x4::<0x88>(hi01, hi23),
            _mm512_shuffle_i32x4::<0xDD>(hi01, hi23),
        ]
    }

    /// Transposes the 16×16 matrix of 32-bit words in `x` (row `i` =
    /// word `i` of blocks 0..16) into its columns (column `j` = block
    /// `j`, all sixteen words).
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn transpose16(x: [__m512i; 16]) -> [__m512i; 16] {
        // `w[g][m]` lane `k` = words 4g..4g+4 of block 4k + m.
        let w = [
            transpose_words(x[0], x[1], x[2], x[3]),
            transpose_words(x[4], x[5], x[6], x[7]),
            transpose_words(x[8], x[9], x[10], x[11]),
            transpose_words(x[12], x[13], x[14], x[15]),
        ];
        // Block 4k + m is lane `k` of `w[0..4][m]`.
        let b0 = transpose_lanes(w[0][0], w[1][0], w[2][0], w[3][0]);
        let b1 = transpose_lanes(w[0][1], w[1][1], w[2][1], w[3][1]);
        let b2 = transpose_lanes(w[0][2], w[1][2], w[2][2], w[3][2]);
        let b3 = transpose_lanes(w[0][3], w[1][3], w[2][3], w[3][3]);
        [
            b0[0], b1[0], b2[0], b3[0], b0[1], b1[1], b2[1], b3[1], //
            b0[2], b1[2], b2[2], b3[2], b0[3], b1[3], b2[3], b3[3],
        ]
    }

    /// The AVX2 flavour: eight blocks per 512-byte chunk of `data`,
    /// `vpshufb` rotations by 16 and 8 through opaque masks, shift-pair
    /// rotations by 12 and 7.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2. Any `data` length is memory-safe: the
    /// loads and stores stay inside whole 512-byte chunks, and a shorter
    /// tail is left untouched.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn avx2(
        /* ct: secret */ key: &[u32; 8],
        counter: u32,
        nonce: &[u32; 3],
        data: &mut [u8],
    ) {
        debug_assert_eq!(data.len() % YMM_CHUNK, 0);
        let rot = Shuffles::new();
        let splat = |w: u32| _mm256_set1_epi32(w as i32);
        let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let counters = _mm256_add_epi32(splat(counter), lanes);
        let mut input = input_state!(splat, key, counters, nonce);
        for chunk in data.as_chunks_mut::<YMM_CHUNK>().0 {
            let mut x = input;
            rounds!(x, _mm256_add_epi32, _mm256_xor_si256, rot);
            for (w, i) in x.iter_mut().zip(&input) {
                *w = _mm256_add_epi32(*w, *i);
            }
            let lo = transpose8([x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]]);
            let hi = transpose8([x[8], x[9], x[10], x[11], x[12], x[13], x[14], x[15]]);
            let p = chunk.as_mut_ptr();
            for j in 0..8 {
                // SAFETY: block `j` is bytes 64j..64j+64 of this
                // 512-byte chunk; both 32-byte halves are in bounds.
                unsafe {
                    let first = p.add(64 * j).cast::<__m256i>();
                    let second = p.add(64 * j + 32).cast::<__m256i>();
                    let first_out = _mm256_xor_si256(_mm256_loadu_si256(first), lo[j]);
                    let second_out = _mm256_xor_si256(_mm256_loadu_si256(second), hi[j]);
                    _mm256_storeu_si256(first, first_out);
                    _mm256_storeu_si256(second, second_out);
                }
            }
            input[12] = _mm256_add_epi32(input[12], splat(8));
        }
    }

    /// The AVX-512F flavour: sixteen blocks per 1 KiB chunk of `data`,
    /// one zmm register per state word, `vprold` for every rotation.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and AVX-512F. Any `data` length is
    /// memory-safe: the loads and stores stay inside whole 1 KiB chunks,
    /// and a shorter tail is left untouched.
    #[target_feature(enable = "avx2,avx512f")]
    pub(super) unsafe fn avx512f(
        /* ct: secret */ key: &[u32; 8],
        counter: u32,
        nonce: &[u32; 3],
        data: &mut [u8],
    ) {
        debug_assert_eq!(data.len() % ZMM_CHUNK, 0);
        let rot = Vprold;
        let splat = |w: u32| _mm512_set1_epi32(w as i32);
        let lanes = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        let counters = _mm512_add_epi32(splat(counter), lanes);
        let mut input = input_state!(splat, key, counters, nonce);
        for chunk in data.as_chunks_mut::<ZMM_CHUNK>().0 {
            let mut x = input;
            rounds!(x, _mm512_add_epi32, _mm512_xor_si512, rot);
            for (w, i) in x.iter_mut().zip(&input) {
                *w = _mm512_add_epi32(*w, *i);
            }
            let keystream = transpose16(x);
            for (block, ks) in chunk.as_chunks_mut::<64>().0.iter_mut().zip(keystream) {
                // SAFETY: any 64 bytes are a valid `__m512i` and back. By
                // value rather than `_mm512_{loadu,storeu}_si512`: with
                // debug assertions on (tier-1 tests), the intrinsics'
                // unaligned accesses bring an overlap check and a branch
                // per block.
                unsafe {
                    let text = core::mem::transmute::<[u8; 64], __m512i>(*block);
                    *block = core::mem::transmute::<__m512i, [u8; 64]>(_mm512_xor_si512(text, ks));
                }
            }
            input[12] = _mm512_add_epi32(input[12], splat(16));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chacha20::tests::{random_bytes, xorshift};
    use crate::chacha20::{apply_keystream_scalar, key_words, nonce_words};
    use crate::machine_code::{count, disassembly, innermost_loop};

    /// Every flavour this CPU runs, each seen to run (it took a whole
    /// chunk), and exactly the ones the [`rlwe_zq::cpu`] flags promise:
    /// a mis-wired `supported()` cannot drop a flavour out of the
    /// agreement test unnoticed.
    fn flavours_that_run() -> Vec<Flavour> {
        let ran: Vec<Flavour> = Flavour::ALL
            .into_iter()
            .filter(|&f| apply_flavour(f, &[0; 8], 0, &[0; 3], &mut [0u8; ZMM_CHUNK]) == ZMM_CHUNK)
            .collect();
        let promised: Vec<Flavour> = [
            (Flavour::Avx512F, rlwe_zq::cpu::avx512f()),
            (Flavour::Avx2, rlwe_zq::cpu::avx2()),
        ]
        .into_iter()
        .filter_map(|(f, present)| present.then_some(f))
        .collect();
        assert_eq!(ran, promised);
        assert_eq!(Flavour::detect(), ran.first().copied());
        eprintln!("ChaCha20 flavours run on this host: {ran:?}");
        ran
    }

    #[test]
    fn every_supported_flavour_matches_the_scalar_path_on_every_length() {
        // Two 1 KiB chunks plus every tail, and a 16 KiB frame body.
        for flavour in flavours_that_run() {
            let mut seed = 0x0123_4567_89ab_cdefu64;
            for len in (0..=2200).chain([16 * 1024 + 17]) {
                let key = key_words(&random_bytes::<32>(&mut seed));
                let nonce = nonce_words(&random_bytes::<12>(&mut seed));
                // Near-wrap counters too: the lanes' counters wrap
                // exactly as the scalar loop's do.
                let counter = match len % 3 {
                    0 => xorshift(&mut seed) as u32,
                    1 => u32::MAX - (len as u32 % 23),
                    _ => 1,
                };
                let input: Vec<u8> = (0..len).map(|_| xorshift(&mut seed) as u8).collect();
                let mut fast = input.clone();
                let mut slow = input;
                let done = apply_flavour(flavour, &key, counter, &nonce, &mut fast);
                assert_eq!(
                    done,
                    len / YMM_CHUNK * YMM_CHUNK,
                    "{flavour:?}, length {len}"
                );
                let next = counter.wrapping_add((done / BLOCK_LEN) as u32);
                apply_keystream_scalar(&key, next, &nonce, &mut fast[done..]);
                apply_keystream_scalar(&key, counter, &nonce, &mut slow);
                assert_eq!(fast, slow, "{flavour:?}, length {len}, counter {counter}");
            }
        }
    }

    #[test]
    fn each_flavour_rotates_with_one_instruction_at_its_own_width() {
        // A double round is eight quarter-rounds of four rotations; the
        // round loop runs one double round per iteration.
        let avx2 = disassembly("chacha_avx2::kernel::avx2");
        let zmm: Vec<_> = avx2.iter().filter(|(_, i)| i.contains("%zmm")).collect();
        assert!(zmm.is_empty(), "avx2 touches a zmm register: {zmm:?}");
        for mnemonic in ["vpshuflw", "vpshufhw"] {
            assert_eq!(
                count(&avx2, mnemonic),
                0,
                "avx2 lowers a vpshufb to {mnemonic}"
            );
        }
        let rounds = innermost_loop(&avx2, "vpshufb");
        assert_eq!(count(rounds, "vpshufb"), 16, "avx2 round loop: {rounds:#?}");
        assert_eq!(count(rounds, "call"), 0, "avx2 round loop calls out");

        let avx512f = disassembly("chacha_avx2::kernel::avx512f");
        let rounds = innermost_loop(&avx512f, "vprold");
        let on_zmm = rounds
            .iter()
            .filter(|(_, i)| i.starts_with("vprold") && i.contains("%zmm"))
            .count();
        assert_eq!(on_zmm, 32, "avx512f round loop: {rounds:#?}");
        assert_eq!(
            count(rounds, "vprold"),
            32,
            "avx512f round loop: {rounds:#?}"
        );
        assert_eq!(count(rounds, "vpshufb"), 0, "avx512f round loop shuffles");
        assert_eq!(count(rounds, "call"), 0, "avx512f round loop calls out");
        let stack: Vec<_> = rounds
            .iter()
            .filter(|(_, i)| i.contains("(%rsp") || i.contains("(%rbp"))
            .collect();
        assert!(
            stack.is_empty(),
            "avx512f round loop spills its state: {stack:?}"
        );
    }
}
