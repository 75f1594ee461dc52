//! Runtime-detected 4-lane AVX2 kernel for Poly1305's block function.
//!
//! The scheme is Goll and Gueron's ("Vectorization of Poly1305 Message
//! Authentication Code", ITNG 2015). Four accumulators run side by
//! side, one per 64-bit lane, each in five radix-2²⁶ limbs: limb `i` of
//! all four lanes lives in one `__m256i`, so a `vpmuludq` multiplies
//! one limb pair in every lane. Each lane runs its own Horner chain
//! over every fourth block: a 64-byte group puts its blocks 0, 2, 1, 3
//! in lanes 0–3 (the order `vpunpck{l,h}qdq` leaves them in) and
//! computes `hⱼ = (hⱼ + mⱼ)·r⁴`, 25 `vpmuludq`. The last group
//! multiplies lanes 0–3 by `r⁴, r², r³, r¹` instead (blocks 0, 2, 1, 3
//! of the group are 4, 2, 3 and 1 blocks from the end), so block `i` of
//! `n` ends up multiplied by `r^(n−i)` exactly as in the scalar chain,
//! and summing the lanes gives the scalar accumulator. The accumulator
//! the caller hands in enters lane 0 ahead of block 0.
//!
//! The main loop takes two groups `a`, `b` per 128-byte step as
//! `h = (h + a)·r⁸ + b·r⁴`, which equals two `r⁴` steps: the two
//! products are independent and share one carry, which halves the
//! loop's dependency chain (measured ~13% faster at 16 KiB than one
//! group per step). A lone group ahead of the pairs takes one `r⁴`
//! step.
//!
//! Limb bounds (`p = 2¹³⁰ − 5`, `2¹³⁰ ≡ 5`): the r-power limbs are
//! below 2²⁶, except limb 1 below 2²⁶ + 2⁸, and the folded `5·rᵢ` below
//! 2²⁹. Message limbs are below 2²⁶ (limb 4, with the pad bit, below
//! 2²⁵). After each step's lazy carry the accumulator limbs are below
//! 2²⁶, except limb 1 below 2²⁶ + 2¹⁰ and limb 4 below 2²⁶ + 2⁸; the
//! entering accumulator's limb 4 is below 5·2²⁴. So every multiplicand
//! fits the 32 bits `vpmuludq` reads, each product is below 2⁵⁶, and a
//! column of a 128-byte step (ten products) stays below 2⁵⁹.
//!
//! This is the same function as
//! [`poly1305_blocks`](crate::poly1305::poly1305_blocks) with the pad
//! bit set, computed by different instructions; the agreement tests in
//! `poly1305.rs` check every length from 0 to 1100 bytes, 16 KiB,
//! 16 KiB + 17 and 64 KiB against it.
//!
//! # Constant-time argument
//!
//! The instruction trace depends only on the public message length:
//! vector multiplies, adds, shifts, masks and fixed unpacks, with no
//! data-dependent branch or address. The scalar conversions around the
//! kernel are fixed-shape shifts, masks and adds. Dispatch depends only
//! on the message length and the CPU feature flag.
//!
//! # Unsafe policy
//!
//! This is the third scoped exception to `rlwe-hash`'s
//! `deny(unsafe_code)`, beside `shani::kernel` and
//! `chacha_avx2::kernel`: the `kernel` module below holds one
//! `#[target_feature(enable = "avx2")]` function, its helpers, and
//! unaligned loads inside the 64-byte groups of the slice it is handed.
//! It is reachable only through [`blocks_wide`], which checks
//! [`rlwe_zq::cpu::avx2`] first. See DESIGN.md §14.

use crate::poly1305::BLOCK;

/// Bytes per group: four 16-byte blocks, one per lane.
const WIDE: usize = 4 * BLOCK;

/// One radix-2²⁶ limb.
const MASK26: u64 = (1 << 26) - 1;

/// A radix-2⁶⁴ value `h0 + h1·2⁶⁴ + h2·2¹²⁸` (the scalar accumulator,
/// `h2 ≤ 4`) in five radix-2²⁶ limbs; limb 4 is below 5·2²⁴.
fn to_radix26(/* ct: secret */ h: &[u64; 3]) -> [u64; 5] {
    let [h0, h1, h2] = *h;
    [
        h0 & MASK26,
        (h0 >> 26) & MASK26,
        ((h0 >> 52) | (h1 << 12)) & MASK26,
        (h1 >> 14) & MASK26,
        (h1 >> 40) | (h2 << 24),
    ]
}

/// Carries limbs below 2⁶³ once around the ring: limbs 0, 2, 3 and 4
/// end below 2²⁶ and limb 1 a little above it (below 2²⁶ + 2⁸ for the
/// columns of [`mul_radix26`], at most 2²⁶ for the kernel's lane sums).
fn carry_radix26(/* ct: secret */ d: [u64; 5]) -> [u64; 5] {
    let [mut d0, mut d1, mut d2, mut d3, mut d4] = d;
    d1 += d0 >> 26;
    d0 &= MASK26;
    d2 += d1 >> 26;
    d1 &= MASK26;
    d3 += d2 >> 26;
    d2 &= MASK26;
    d4 += d3 >> 26;
    d3 &= MASK26;
    d0 += 5 * (d4 >> 26);
    d4 &= MASK26;
    d1 += d0 >> 26;
    d0 &= MASK26;
    [d0, d1, d2, d3, d4]
}

/// `a·b mod p` in radix 2²⁶, carried: the r powers.
fn mul_radix26(/* ct: secret */ a: &[u64; 5], /* ct: secret */ b: &[u64; 5]) -> [u64; 5] {
    let [a0, a1, a2, a3, a4] = *a;
    let [b0, b1, b2, b3, b4] = *b;
    let [s1, s2, s3, s4] = [5 * b1, 5 * b2, 5 * b3, 5 * b4];
    carry_radix26([
        a0 * b0 + a1 * s4 + a2 * s3 + a3 * s2 + a4 * s1,
        a0 * b1 + a1 * b0 + a2 * s4 + a3 * s3 + a4 * s2,
        a0 * b2 + a1 * b1 + a2 * b0 + a3 * s4 + a4 * s3,
        a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 + a4 * s4,
        a0 * b4 + a1 * b3 + a2 * b2 + a3 * b1 + a4 * b0,
    ])
}

/// Carried radix-2²⁶ limbs (limb 1 at most 2²⁶, the rest below 2²⁶)
/// back in radix 2⁶⁴, with the top limb at most 4: the invariant the
/// scalar block function and `finalize` rely on.
fn from_radix26(/* ct: secret */ l: [u64; 5]) -> [u64; 3] {
    let [l0, l1, l2, l3, l4] = l.map(u128::from);
    let low = l0 + (l1 << 26) + (l2 << 52) + (l3 << 78);
    let (h, carry) = low.overflowing_add((l4 & 0xff_ffff) << 104);
    [h as u64, (h >> 64) as u64, (l4 >> 24) as u64 + carry as u64]
}

/// Absorbs the longest prefix of `blocks` that is a whole number of
/// 64-byte groups into `acc`, every block with the 2¹²⁸ pad bit, and
/// returns that prefix's length. Returns 0 and leaves `acc` untouched
/// on a CPU without AVX2 or when `blocks` is shorter than one group.
///
/// The r powers and the radix-2²⁶ accumulator are erased before it
/// returns. Erasure is best effort, as for the locals of the scalar
/// block function: the copies the kernel keeps on its own stack (the
/// lane vectors and the multipliers `black_box` puts in memory) are
/// not erased.
// Scoped unsafe exception: see the module-level policy note.
#[allow(unsafe_code)]
pub(crate) fn blocks_wide(
    /* ct: secret */ acc: &mut [u64; 3],
    /* ct: secret */ r: &[u64; 2],
    blocks: &[u8],
) -> usize {
    let (groups, _) = blocks.as_chunks::<WIDE>();
    if groups.is_empty() || !rlwe_zq::cpu::avx2() {
        return 0;
    }
    // r¹, r², r³, r⁴, r⁸, built in place rather than in separate
    // locals that the erasure below would miss.
    let mut powers = [to_radix26(&[r[0], r[1], 0]), [0; 5], [0; 5], [0; 5], [0; 5]];
    powers[1] = mul_radix26(&powers[0], &powers[0]);
    powers[2] = mul_radix26(&powers[1], &powers[0]);
    powers[3] = mul_radix26(&powers[1], &powers[1]);
    powers[4] = mul_radix26(&powers[3], &powers[3]);
    let mut h = to_radix26(acc);
    // SAFETY: `avx2()` just confirmed AVX2 on this CPU.
    unsafe { kernel::blocks(&mut h, &powers, groups) };
    *acc = from_radix26(carry_radix26(h));
    for p in &mut powers {
        rlwe_zq::ct::zeroize_u64(p);
    }
    rlwe_zq::ct::zeroize_u64(&mut h);
    groups.len() * WIDE
}

/// The `#[target_feature]` kernel — see the module-level unsafe policy
/// note.
#[allow(unsafe_code)]
mod kernel {
    use core::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_and_si256, _mm256_castsi256_si128,
        _mm256_extracti128_si256, _mm256_loadu_si256, _mm256_mul_epu32, _mm256_or_si256,
        _mm256_set1_epi64x, _mm256_setr_epi64x, _mm256_slli_epi64, _mm256_srli_epi64,
        _mm256_unpackhi_epi64, _mm256_unpacklo_epi64, _mm_add_epi64, _mm_cvtsi128_si64,
        _mm_extract_epi64,
    };
    use core::hint::black_box;

    use super::{MASK26, WIDE};

    /// One multiplier in every lane: its five radix-2²⁶ limbs and the
    /// folded `5·rᵢ` of limbs 1–4.
    #[derive(Clone, Copy)]
    struct Multiplier {
        // ct: secret
        r_lanes: [__m256i; 5],
        // ct: secret
        r5_lanes: [__m256i; 4],
    }

    impl Multiplier {
        /// Lane `k` multiplies by `lanes[k]`.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn new(/* ct: secret */ lanes: [&[u64; 5]; 4]) -> Self {
            let limb = |i: usize, fold: u64| {
                let [a, b, c, d] = lanes.map(|l| (fold * l[i]) as i64);
                _mm256_setr_epi64x(a, b, c, d)
            };
            Self {
                r_lanes: [limb(0, 1), limb(1, 1), limb(2, 1), limb(3, 1), limb(4, 1)],
                r5_lanes: [limb(1, 5), limb(2, 5), limb(3, 5), limb(4, 5)],
            }
        }
    }

    /// `group` split into radix-2²⁶ limbs, with the 2¹²⁸ pad bit. Lane
    /// order is blocks 0, 2, 1, 3: `vpunpck{l,h}qdq` pair the 128-bit
    /// halves of the two loads.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn load(group: &[u8; WIDE], mask: __m256i) -> [__m256i; 5] {
        let p = group.as_ptr();
        // SAFETY: both unaligned 32-byte loads lie inside `group`'s 64
        // bytes.
        let (a, b) = unsafe {
            (
                _mm256_loadu_si256(p.cast()),
                _mm256_loadu_si256(p.add(32).cast()),
            )
        };
        let lo = _mm256_unpacklo_epi64(a, b);
        let hi = _mm256_unpackhi_epi64(a, b);
        [
            _mm256_and_si256(lo, mask),
            _mm256_and_si256(_mm256_srli_epi64::<26>(lo), mask),
            _mm256_and_si256(
                _mm256_or_si256(_mm256_srli_epi64::<52>(lo), _mm256_slli_epi64::<12>(hi)),
                mask,
            ),
            _mm256_and_si256(_mm256_srli_epi64::<14>(hi), mask),
            _mm256_or_si256(_mm256_srli_epi64::<40>(hi), _mm256_set1_epi64x(1 << 24)),
        ]
    }

    /// `a + b` limb by limb.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn add_limbs(a: [__m256i; 5], b: [__m256i; 5]) -> [__m256i; 5] {
        [0, 1, 2, 3, 4].map(|i| _mm256_add_epi64(a[i], b[i]))
    }

    /// `h·r` in every lane, uncarried: 25 `vpmuludq`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn product(
        /* ct: secret */ h: [__m256i; 5],
        /* ct: secret */ r: &Multiplier,
    ) -> [__m256i; 5] {
        let [h0, h1, h2, h3, h4] = h;
        let [r0, r1, r2, r3, r4] = r.r_lanes;
        let [s1, s2, s3, s4] = r.r5_lanes;
        let dot = |[(a, b), rest @ ..]: [(__m256i, __m256i); 5]| {
            rest.iter().fold(_mm256_mul_epu32(a, b), |sum, &(a, b)| {
                _mm256_add_epi64(sum, _mm256_mul_epu32(a, b))
            })
        };
        [
            dot([(h0, r0), (h1, s4), (h2, s3), (h3, s2), (h4, s1)]),
            dot([(h0, r1), (h1, r0), (h2, s4), (h3, s3), (h4, s2)]),
            dot([(h0, r2), (h1, r1), (h2, r0), (h3, s4), (h4, s3)]),
            dot([(h0, r3), (h1, r2), (h2, r1), (h3, r0), (h4, s4)]),
            dot([(h0, r4), (h1, r3), (h2, r2), (h3, r1), (h4, r0)]),
        ]
    }

    /// One 64-byte step: `(h + m)·r` in every lane, lazily carried.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn step(
        /* ct: secret */ h: [__m256i; 5],
        /* ct: secret */ m: [__m256i; 5],
        /* ct: secret */ r: &Multiplier,
        mask: __m256i,
    ) -> [__m256i; 5] {
        carry(product(add_limbs(h, m), r), mask)
    }

    /// One 128-byte step: `(h + a)·r⁸ + b·r⁴` in every lane, lazily
    /// carried once.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn step_pair(
        /* ct: secret */ h: [__m256i; 5],
        /* ct: secret */ [a, b]: [[__m256i; 5]; 2],
        /* ct: secret */ r8: &Multiplier,
        /* ct: secret */ r4: &Multiplier,
        mask: __m256i,
    ) -> [__m256i; 5] {
        carry(
            add_limbs(product(add_limbs(h, a), r8), product(b, r4)),
            mask,
        )
    }

    /// The lazy carry: two interleaved chains (3→4→0→1 and 0→1→2→3→4),
    /// seven carries in all, taking columns below 2⁵⁹ to limbs below
    /// 2²⁶, except limb 1 below 2²⁶ + 2¹⁰ and limb 4 below 2²⁶ + 2⁸.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn carry(/* ct: secret */ d: [__m256i; 5], mask: __m256i) -> [__m256i; 5] {
        let [mut d0, mut d1, mut d2, mut d3, mut d4] = d;
        let pass = |lo: &mut __m256i, hi: &mut __m256i| {
            *hi = _mm256_add_epi64(*hi, _mm256_srli_epi64::<26>(*lo));
            *lo = _mm256_and_si256(*lo, mask);
        };
        pass(&mut d3, &mut d4);
        pass(&mut d0, &mut d1);
        // 2¹³⁰ ≡ 5: the carry out of limb 4 re-enters limb 0 times five.
        let c = _mm256_srli_epi64::<26>(d4);
        d4 = _mm256_and_si256(d4, mask);
        d0 = _mm256_add_epi64(d0, _mm256_add_epi64(c, _mm256_slli_epi64::<2>(c)));
        pass(&mut d1, &mut d2);
        pass(&mut d2, &mut d3);
        pass(&mut d0, &mut d1);
        pass(&mut d3, &mut d4);
        [d0, d1, d2, d3, d4]
    }

    /// The sum of the four 64-bit lanes of `v`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn lane_sum(v: __m256i) -> u64 {
        let s = _mm_add_epi64(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
        (_mm_cvtsi128_si64(s) as u64) + (_mm_extract_epi64::<1>(s) as u64)
    }

    /// Absorbs `groups` into the radix-2²⁶ accumulator `acc`, given
    /// `r¹, r², r³, r⁴, r⁸` in radix 2²⁶, and leaves in `acc` the
    /// uncarried sum of the four lanes (each limb below 2²⁸ + 2¹²), a
    /// value congruent to the scalar result.
    #[target_feature(enable = "avx2")]
    pub(super) fn blocks(
        /* ct: secret */ acc: &mut [u64; 5],
        /* ct: secret */ r: &[[u64; 5]; 5],
        groups: &[[u8; WIDE]],
    ) {
        // Opaque to the optimizer: otherwise LLVM proves the operands'
        // high halves zero, drops the masks `vpmuludq` implies, loses
        // the fact across the loop and lowers each product to a full
        // 64-bit multiply (three `vpmuludq` plus shifts).
        let mask = black_box(_mm256_set1_epi64x(MASK26 as i64));
        let [r1, r2, r3, r4, r8] = r;
        // ct: secret
        let pair_r8 = black_box(Multiplier::new([r8, r8, r8, r8]));
        // ct: secret
        let every_r4 = black_box(Multiplier::new([r4, r4, r4, r4]));
        // Lanes hold blocks 0, 2, 1, 3 of the group (see `load`).
        // ct: secret
        let last = black_box(Multiplier::new([r4, r2, r3, r1]));
        // ct: secret
        let mut h = acc.map(|a| _mm256_setr_epi64x(a as i64, 0, 0, 0));
        let Some((final_group, body)) = groups.split_last() else {
            return;
        };
        let (lone, pairs) = body.split_at(body.len() % 2);
        for group in lone {
            h = step(h, load(group, mask), &every_r4, mask);
        }
        for [a, b] in pairs.as_chunks::<2>().0 {
            h = step_pair(h, [load(a, mask), load(b, mask)], &pair_r8, &every_r4, mask);
        }
        h = step(h, load(final_group, mask), &last, mask);
        *acc = h.map(|v| lane_sum(v));
    }
}
