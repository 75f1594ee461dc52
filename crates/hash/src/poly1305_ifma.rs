//! Runtime-detected 8-lane AVX-512 IFMA kernel for Poly1305's block
//! function.
//!
//! The scheme is the radix-2⁴⁴ form of Goll and Gueron's vectorised
//! Poly1305 ("Vectorization of Poly1305 Message Authentication Code",
//! ITNG 2015), the one OpenSSL's `poly1305_blocks_vpmadd52` uses. Eight
//! accumulators run side by side, one per 64-bit lane, each in three
//! limbs of 44, 44 and 42 bits: limb `i` of all eight lanes lives in one
//! `__m512i`. A limb product is one `vpmadd52luq` (its low 52 bits) and
//! one `vpmadd52huq` (bits 52–103), both adding into 64-bit column
//! sums. A 128-byte group puts its blocks 0, 4, 1, 5, 2, 6, 3, 7 in
//! lanes 0–7 (the order `vpunpck{l,h}qdq` leaves them in) and computes
//! `hⱼ = (hⱼ + mⱼ)·r⁸`, 18 multiply-adds. The last group multiplies
//! lanes 0–7 by `r⁸, r⁴, r⁷, r³, r⁶, r², r⁵, r¹` instead, so block `i`
//! of `n` ends up multiplied by `r^(n−i)` exactly as in the scalar chain,
//! and summing the lanes gives the scalar accumulator. The accumulator
//! the caller hands in enters lane 0 ahead of block 0.
//!
//! The main loop takes two groups `a`, `b` per 256-byte step as
//! `h = (h + a)·r¹⁶ + b·r⁸`, which equals two `r⁸` steps. `b·r⁸` does not
//! depend on `h`, so its column sums are the starting values the
//! `(h + a)·r¹⁶` multiply-adds accumulate onto, and the two products
//! share one carry. A lone group ahead of the pairs takes one `r⁸` step.
//!
//! Limb bounds (`p = 2¹³⁰ − 5`; a product at 2¹³² folds back times 20,
//! since `2¹³² = 4·2¹³⁰ ≡ 20`):
//!
//! - The r-power limbs are below 2⁴⁴, except limb 1 below 2⁴⁴ + 2⁸, and
//!   limb 2 below 2⁴²; the folded `20·r₁` and `20·r₂` are below 2⁴⁹ and
//!   2⁴⁷.
//! - Message limbs are below 2⁴⁴, 2⁴⁴ and 2⁴¹ (limb 2 holds the pad bit
//!   at 2⁴⁰). The entering accumulator's limb 2 is below 5·2⁴⁰.
//! - After each step's carry the accumulator limbs are below 2⁴⁴, except
//!   limb 1 below 2⁴⁴ + 2⁷, and limb 2 below 2⁴². So an accumulator limb
//!   plus a message limb is below 2⁴⁶, every multiplicand fits the 52
//!   bits the multiply-adds read, the low-half sums of a 256-byte
//!   step's column (six terms) stay below 2⁵⁵, and the high-half sums
//!   shifted into the next column stay below 2⁵⁰.
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
//! vector multiply-adds, adds, shifts, masks and fixed unpacks, with no
//! data-dependent branch or address. The scalar conversions and r-power
//! products around the kernel are fixed-shape multiplies, shifts, masks
//! and adds. Dispatch depends only on the message length and the CPU
//! feature flags.
//!
//! # Unsafe policy
//!
//! This is the fourth scoped exception to `rlwe-hash`'s
//! `deny(unsafe_code)`, beside `shani::kernel`, `chacha_avx2::kernel` and
//! `poly1305_avx2::kernel`: the `kernel` module below holds one
//! `#[target_feature(enable = "avx512f,avx512ifma")]` function, its
//! helpers, and the reinterpretation of each 128-byte group of the
//! slice it is handed as two vectors. It is reachable only through
//! [`blocks_wide`], which checks [`rlwe_zq::cpu::avx512ifma`] first.
//! See DESIGN.md §14.

use crate::poly1305::BLOCK;

/// Bytes per group: eight 16-byte blocks, one per lane.
const WIDE: usize = 8 * BLOCK;

/// One 44-bit limb (limbs 0 and 1).
const MASK44: u64 = (1 << 44) - 1;

/// The 42-bit top limb.
const MASK42: u64 = (1 << 42) - 1;

/// A radix-2⁶⁴ value `h0 + h1·2⁶⁴ + h2·2¹²⁸` (the scalar accumulator,
/// `h2 ≤ 4`) in three radix-2⁴⁴ limbs; limb 2 is below 5·2⁴⁰.
fn to_radix44(/* ct: secret */ h: &[u64; 3]) -> [u64; 3] {
    let [h0, h1, h2] = *h;
    [
        h0 & MASK44,
        ((h0 >> 44) | (h1 << 20)) & MASK44,
        (h1 >> 24) | (h2 << 40),
    ]
}

/// Carries limbs below 2⁶³ once around the ring: limbs 0 and 2 end
/// below 2⁴⁴ and 2⁴², limb 1 a little above 2⁴⁴ (below 2⁴⁴ + 2⁸ for the
/// columns of [`mul_radix44`], at most 2⁴⁴ for the kernel's lane sums).
fn carry_radix44(/* ct: secret */ d: [u128; 3]) -> [u64; 3] {
    let [mut d0, mut d1, mut d2] = d;
    d1 += d0 >> 44;
    d0 &= MASK44 as u128;
    d2 += d1 >> 44;
    d1 &= MASK44 as u128;
    // 2¹³⁰ ≡ 5: the carry out of limb 2 re-enters limb 0 times five.
    d0 += 5 * (d2 >> 42);
    d2 &= MASK42 as u128;
    d1 += d0 >> 44;
    d0 &= MASK44 as u128;
    [d0 as u64, d1 as u64, d2 as u64]
}

/// `a·b mod p` in radix 2⁴⁴, carried: the r powers.
fn mul_radix44(/* ct: secret */ a: &[u64; 3], /* ct: secret */ b: &[u64; 3]) -> [u64; 3] {
    let [a0, a1, a2] = a.map(u128::from);
    let [b0, b1, b2] = b.map(u128::from);
    let [s1, s2] = [20 * b1, 20 * b2];
    carry_radix44([
        a0 * b0 + a1 * s2 + a2 * s1,
        a0 * b1 + a1 * b0 + a2 * s2,
        a0 * b2 + a1 * b1 + a2 * b0,
    ])
}

/// Carried radix-2⁴⁴ limbs (limb 1 at most 2⁴⁴, the others below 2⁴⁴
/// and 2⁴²) back in radix 2⁶⁴, with the top limb at most 4: the
/// invariant the scalar block function and `finalize` rely on.
fn from_radix44(/* ct: secret */ l: [u64; 3]) -> [u64; 3] {
    let [l0, l1, l2] = l.map(u128::from);
    let (h, carry) = (l0 + (l1 << 44)).overflowing_add((l2 & 0xff_ffff_ffff) << 88);
    [h as u64, (h >> 64) as u64, (l2 >> 40) as u64 + carry as u64]
}

/// Absorbs the longest prefix of `blocks` that is a whole number of
/// 128-byte groups into `acc`, every block with the 2¹²⁸ pad bit, and
/// returns that prefix's length. Returns 0 and leaves `acc` untouched
/// on a CPU without AVX-512 IFMA or when `blocks` is shorter than one
/// group.
///
/// The r powers and the radix-2⁴⁴ accumulator are erased before it
/// returns. Erasure is best effort, as for the locals of the scalar
/// block function: the copies the kernel keeps on its own stack and in
/// its registers are not erased.
// Scoped unsafe exception: see the module-level policy note.
#[allow(unsafe_code)]
pub(crate) fn blocks_wide(
    /* ct: secret */ acc: &mut [u64; 3],
    /* ct: secret */ r: &[u64; 2],
    blocks: &[u8],
) -> usize {
    let (groups, _) = blocks.as_chunks::<WIDE>();
    if groups.is_empty() || !rlwe_zq::cpu::avx512ifma() {
        return 0;
    }
    // r¹ … r⁸ and r¹⁶, built in place rather than in separate locals
    // that the erasure below would miss.
    let mut powers = [[0u64; 3]; 9];
    powers[0] = to_radix44(&[r[0], r[1], 0]);
    powers[1] = mul_radix44(&powers[0], &powers[0]);
    powers[3] = mul_radix44(&powers[1], &powers[1]);
    powers[2] = mul_radix44(&powers[1], &powers[0]);
    powers[4] = mul_radix44(&powers[3], &powers[0]);
    powers[5] = mul_radix44(&powers[3], &powers[1]);
    powers[6] = mul_radix44(&powers[3], &powers[2]);
    powers[7] = mul_radix44(&powers[3], &powers[3]);
    powers[8] = mul_radix44(&powers[7], &powers[7]);
    let mut h = to_radix44(acc);
    // SAFETY: `avx512ifma()` just confirmed AVX-512F and AVX-512 IFMA on
    // this CPU.
    unsafe { kernel::blocks(&mut h, &powers, groups) };
    *acc = from_radix44(carry_radix44(h.map(u128::from)));
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
        __m512i, _mm512_add_epi64, _mm512_and_si512, _mm512_madd52hi_epu64, _mm512_madd52lo_epu64,
        _mm512_or_si512, _mm512_reduce_add_epi64, _mm512_set1_epi64, _mm512_setr_epi64,
        _mm512_setzero_si512, _mm512_slli_epi64, _mm512_srli_epi64, _mm512_unpackhi_epi64,
        _mm512_unpacklo_epi64,
    };

    use super::{MASK42, MASK44, WIDE};

    /// One multiplier in every lane: its three radix-2⁴⁴ limbs and the
    /// folded `20·r₁`, `20·r₂`.
    #[derive(Clone, Copy)]
    struct Multiplier {
        // ct: secret
        r_lanes: [__m512i; 3],
        // ct: secret
        r20_lanes: [__m512i; 2],
    }

    impl Multiplier {
        /// Lane `k` multiplies by `lanes[k]`.
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn new(/* ct: secret */ lanes: [&[u64; 3]; 8]) -> Self {
            let limb = |i: usize, fold: u64| {
                let [a, b, c, d, e, f, g, h] = lanes.map(|l| (fold * l[i]) as i64);
                _mm512_setr_epi64(a, b, c, d, e, f, g, h)
            };
            Self {
                r_lanes: [limb(0, 1), limb(1, 1), limb(2, 1)],
                r20_lanes: [limb(1, 20), limb(2, 20)],
            }
        }
    }

    /// The 64-bit column sums of a product: the low 52 bits of each limb
    /// product in `lo`, bits 52–103 in `hi`.
    #[derive(Clone, Copy)]
    struct Columns {
        lo: [__m512i; 3],
        hi: [__m512i; 3],
    }

    /// `group` split into radix-2⁴⁴ limbs, with the 2¹²⁸ pad bit. Lane
    /// order is blocks 0, 4, 1, 5, 2, 6, 3, 7: `vpunpck{l,h}qdq` pair
    /// the 128-bit lanes of the two loads.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load(group: &[u8; WIDE]) -> [__m512i; 3] {
        // SAFETY: any 128 bytes are two valid `__m512i`. A by-value
        // reinterpretation rather than `_mm512_loadu_si512`: with debug
        // assertions on (tier-1 tests), the intrinsic's unaligned read
        // brings an overlap check and a branch into the block loop.
        let [a, b] = unsafe { core::mem::transmute::<[u8; WIDE], [__m512i; 2]>(*group) };
        let lo = _mm512_unpacklo_epi64(a, b);
        let hi = _mm512_unpackhi_epi64(a, b);
        let mask = _mm512_set1_epi64(MASK44 as i64);
        [
            _mm512_and_si512(lo, mask),
            _mm512_and_si512(
                _mm512_or_si512(_mm512_srli_epi64::<44>(lo), _mm512_slli_epi64::<20>(hi)),
                mask,
            ),
            _mm512_or_si512(_mm512_srli_epi64::<24>(hi), _mm512_set1_epi64(1 << 40)),
        ]
    }

    /// `a + b` limb by limb.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn add_limbs(a: [__m512i; 3], b: [__m512i; 3]) -> [__m512i; 3] {
        [
            _mm512_add_epi64(a[0], b[0]),
            _mm512_add_epi64(a[1], b[1]),
            _mm512_add_epi64(a[2], b[2]),
        ]
    }

    /// One column: `lo` plus the low 52 bits and `hi` plus bits 52–103
    /// of each product `a·b` in `terms`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn column(
        mut lo: __m512i,
        mut hi: __m512i,
        /* ct: secret */ terms: [(__m512i, __m512i); 3],
    ) -> (__m512i, __m512i) {
        for (a, b) in terms {
            lo = _mm512_madd52lo_epu64(lo, a, b);
            hi = _mm512_madd52hi_epu64(hi, a, b);
        }
        (lo, hi)
    }

    /// `onto + h·r` in every lane, as uncarried column sums: nine limb
    /// products, 18 multiply-adds.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn product(
        /* ct: secret */ h: [__m512i; 3],
        /* ct: secret */ r: &Multiplier,
        onto: Columns,
    ) -> Columns {
        let [h0, h1, h2] = h;
        let [r0, r1, r2] = r.r_lanes;
        let [s1, s2] = r.r20_lanes;
        let Columns { lo, hi } = onto;
        let (lo0, hi0) = column(lo[0], hi[0], [(h0, r0), (h1, s2), (h2, s1)]);
        let (lo1, hi1) = column(lo[1], hi[1], [(h0, r1), (h1, r0), (h2, s2)]);
        let (lo2, hi2) = column(lo[2], hi[2], [(h0, r2), (h1, r1), (h2, r0)]);
        Columns {
            lo: [lo0, lo1, lo2],
            hi: [hi0, hi1, hi2],
        }
    }

    /// The carry: the high halves move up one column (times 2⁸, as
    /// 2⁵² = 2⁴⁴·2⁸; out of the top column times 5·2¹⁰, as 2⁸⁸·2⁵² =
    /// 2¹³⁰·2¹⁰), one chain 0→1→2→0→1 carries the low halves, and the
    /// limbs end below 2⁴⁴, 2⁴⁴ + 2⁷ and 2⁴².
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn carry(/* ct: secret */ d: Columns) -> [__m512i; 3] {
        let mask44 = _mm512_set1_epi64(MASK44 as i64);
        let mask42 = _mm512_set1_epi64(MASK42 as i64);
        let [lo0, lo1, lo2] = d.lo;
        let [hi0, hi1, hi2] = d.hi;
        let t1 = _mm512_add_epi64(
            _mm512_add_epi64(lo1, _mm512_slli_epi64::<8>(hi0)),
            _mm512_srli_epi64::<44>(lo0),
        );
        let t2 = _mm512_add_epi64(
            _mm512_add_epi64(lo2, _mm512_slli_epi64::<8>(hi1)),
            _mm512_srli_epi64::<44>(t1),
        );
        let c = _mm512_add_epi64(_mm512_srli_epi64::<42>(t2), _mm512_slli_epi64::<10>(hi2));
        let h0 = _mm512_add_epi64(
            _mm512_and_si512(lo0, mask44),
            _mm512_add_epi64(c, _mm512_slli_epi64::<2>(c)),
        );
        let h1 = _mm512_add_epi64(_mm512_and_si512(t1, mask44), _mm512_srli_epi64::<44>(h0));
        [
            _mm512_and_si512(h0, mask44),
            h1,
            _mm512_and_si512(t2, mask42),
        ]
    }

    /// Column sums of zero.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn zero() -> Columns {
        let z = _mm512_setzero_si512();
        Columns {
            lo: [z; 3],
            hi: [z; 3],
        }
    }

    /// Absorbs `groups` into the radix-2⁴⁴ accumulator `acc`, given
    /// `r¹ … r⁸, r¹⁶` in radix 2⁴⁴, and leaves in `acc` the uncarried
    /// sum of the eight lanes (limbs below 2⁴⁷, 2⁴⁷ + 2¹⁰ and 2⁴⁵), a
    /// value congruent to the scalar result.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn blocks(
        /* ct: secret */ acc: &mut [u64; 3],
        /* ct: secret */ r: &[[u64; 3]; 9],
        groups: &[[u8; WIDE]],
    ) {
        let [r1, r2, r3, r4, r5, r6, r7, r8, r16] = r;
        // ct: secret
        let pair_r16 = Multiplier::new([r16; 8]);
        // ct: secret
        let every_r8 = Multiplier::new([r8; 8]);
        // Lanes hold blocks 0, 4, 1, 5, 2, 6, 3, 7 of the group (see
        // `load`).
        // ct: secret
        let last = Multiplier::new([r8, r4, r7, r3, r6, r2, r5, r1]);
        // ct: secret
        let mut h = acc.map(|a| _mm512_setr_epi64(a as i64, 0, 0, 0, 0, 0, 0, 0));
        let Some((final_group, body)) = groups.split_last() else {
            return;
        };
        let (lone, pairs) = body.split_at(body.len() % 2);
        if let [group] = lone {
            h = carry(product(add_limbs(h, load(group)), &every_r8, zero()));
        }
        for [a, b] in pairs.as_chunks::<2>().0 {
            let later = product(load(b), &every_r8, zero());
            h = carry(product(add_limbs(h, load(a)), &pair_r16, later));
        }
        h = carry(product(add_limbs(h, load(final_group)), &last, zero()));
        *acc = h.map(|v| _mm512_reduce_add_epi64(v) as u64);
    }
}

#[cfg(test)]
mod tests {
    use crate::machine_code::{conditional_jumps, count, disassembly, innermost_loop};

    #[test]
    fn block_loop_multiplies_with_ifma_and_branches_only_back() {
        // A 256-byte step is two groups of nine limb products, each a
        // `vpmadd52luq` and a `vpmadd52huq`.
        let body = disassembly("poly1305_ifma::kernel::blocks");
        let step = innermost_loop(&body, "vpmadd52luq");
        assert_eq!(count(step, "vpmadd52luq"), 18, "block loop: {step:#?}");
        assert_eq!(count(step, "vpmadd52huq"), 18, "block loop: {step:#?}");
        for mnemonic in ["call", "div", "idiv"] {
            assert_eq!(count(step, mnemonic), 0, "block loop has a {mnemonic}");
        }
        let (back_edge, rest) = step.split_last().expect("a non-empty loop");
        assert_eq!(conditional_jumps(std::slice::from_ref(back_edge)).len(), 1);
        assert!(
            conditional_jumps(rest).is_empty(),
            "block loop branches: {:?}",
            conditional_jumps(rest)
        );
    }
}
