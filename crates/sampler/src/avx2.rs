//! Runtime-detected AVX2 backend for the constant-time CDT sampler's
//! full-table scan: eight 128-bit rank computations per pass.
//!
//! [`CtCdtSampler`](crate::ct::CtCdtSampler)'s scan is a branchless
//! compare-accumulate over every cumulative-table row — embarrassingly
//! lane-parallel. The kernel here runs eight independent samples at
//! once: each row's four 32-bit limbs are broadcast and compared against
//! the transposed lane limbs with a lexicographic `≥` built from
//! `cmpgt`/`cmpeq` (limb 0 most significant), accumulating one rank
//! increment per matching lane. The comparison operates on
//! **sign-biased** limbs (each XOR [`SIGN_BIAS`]) because AVX2 only has
//! signed 32-bit compares; biasing both sides turns signed compare into
//! the unsigned compare the scalar `ct_ge_u128` performs.
//!
//! The fallback ([`scan8_scalar`]) reconstructs each lane's `u128` and
//! runs the exact scalar kernel (`rlwe_zq::ct::ct_ge_u128` over the full
//! table) — **bit-identical by construction**, and still branch-free:
//! the dispatch decision depends only on the public CPU feature flag,
//! never on sampled data.
//!
//! # Constant-time argument
//!
//! Per scan the instruction trace is fixed: four vector loads, then per
//! table row four broadcasts, eight compares, seven boolean ops and one
//! subtract — no data-dependent branch, no data-dependent address
//! (the table is walked front to back in full, as in the scalar rung).
//!
//! # Unsafe policy
//!
//! `rlwe-sampler` carries a scoped exception to the workspace-wide
//! `unsafe_code = "forbid"` (crate-level `deny`, following the
//! `rlwe-ntt` AVX2 precedent): the only `unsafe` in the crate is the
//! `kernel` module below — one `#[target_feature(enable = "avx2")]`
//! function plus raw-pointer vector loads/stores — reachable only
//! through a safe wrapper that checked [`rlwe_zq::cpu::avx2`] and
//! operates on fixed-size stack
//! arrays. See DESIGN.md §12.

/// The signed-compare bias: XORing both comparands with this constant
/// maps unsigned 32-bit order onto signed order, which is the only
/// 32-bit compare AVX2 offers.
pub const SIGN_BIAS: u32 = 0x8000_0000;

/// Splits a 128-bit cumulative-table row into draw-order limbs (limb 0
/// holds the most significant 32 bits — the first `take_bits(32)` word a
/// sample draws) and applies the [`SIGN_BIAS`] so the kernel can compare
/// them directly.
pub fn bias_limbs(c: u128) -> [u32; 4] {
    [
        ((c >> 96) as u32) ^ SIGN_BIAS,
        ((c >> 64) as u32) ^ SIGN_BIAS,
        ((c >> 32) as u32) ^ SIGN_BIAS,
        (c as u32) ^ SIGN_BIAS,
    ]
}

/// Rank scan over eight lanes: for each lane `j`, counts the table rows
/// `c` with `u[j] ≥ c` (the CT-CDT magnitude before clamping).
///
/// `limbs` is the sign-biased table from [`bias_limbs`]; `u` holds each
/// lane's four **raw** uniform words in draw order (most significant
/// first). Dispatches to the AVX2 kernel when the host supports it,
/// otherwise to the bit-identical [`scan8_scalar`] reference.
// Scoped unsafe exception: the only unsafe reachable from here is the
// detection-gated kernel call below (see the module-level policy note).
#[allow(unsafe_code)]
pub fn scan8(limbs: &[[u32; 4]], u: &[[u32; 4]; 8]) -> [u32; 8] {
    #[cfg(target_arch = "x86_64")]
    if rlwe_zq::cpu::avx2() {
        // Transpose to limb-major and bias: t[l][j] = lane j, limb l.
        let mut t = [[0u32; 8]; 4];
        for (j, lane) in u.iter().enumerate() {
            for (l, &limb) in lane.iter().enumerate() {
                t[l][j] = limb ^ SIGN_BIAS;
            }
        }
        // SAFETY: `avx2()` just confirmed AVX2 on this CPU.
        return unsafe { kernel::scan8(limbs, &t) };
    }
    scan8_scalar(limbs, u)
}

/// Scalar reference for [`scan8`]: reconstructs each lane's `u128` and
/// counts with `rlwe_zq::ct::ct_ge_u128` — literally the scalar CT-CDT
/// kernel, so vector-vs-scalar identity tests compare against the real
/// ground truth. Branch-free like the rung it mirrors.
pub fn scan8_scalar(limbs: &[[u32; 4]], u: &[[u32; 4]; 8]) -> [u32; 8] {
    fn join(l: &[u32; 4]) -> u128 {
        ((l[0] as u128) << 96) | ((l[1] as u128) << 64) | ((l[2] as u128) << 32) | (l[3] as u128)
    }
    let us: [u128; 8] = std::array::from_fn(|j| join(&u[j]));
    let mut ks = [0u32; 8];
    for row in limbs {
        let c = join(&[
            row[0] ^ SIGN_BIAS,
            row[1] ^ SIGN_BIAS,
            row[2] ^ SIGN_BIAS,
            row[3] ^ SIGN_BIAS,
        ]);
        for (k, &uv) in ks.iter_mut().zip(&us) {
            *k += rlwe_zq::ct::ct_ge_u128(uv, c);
        }
    }
    ks
}

/// The `#[target_feature(enable = "avx2")]` kernel — the crate's only
/// `unsafe` code, see the module-level unsafe policy note.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod kernel {
    use core::arch::x86_64::{
        __m256i, _mm256_and_si256, _mm256_cmpeq_epi32, _mm256_cmpgt_epi32, _mm256_loadu_si256,
        _mm256_or_si256, _mm256_set1_epi32, _mm256_setzero_si256, _mm256_storeu_si256,
        _mm256_sub_epi32,
    };

    /// Eight-lane rank scan over sign-biased limbs; `t[l]` holds limb
    /// `l` (0 = most significant) of all eight lanes.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scan8(limbs: &[[u32; 4]], t: &[[u32; 8]; 4]) -> [u32; 8] {
        // SAFETY: each `t[l]` is a [u32; 8] — exactly one 256-bit lane
        // vector; unaligned loads are explicitly allowed by `loadu`.
        let u0 = _mm256_loadu_si256(t[0].as_ptr().cast::<__m256i>());
        let u1 = _mm256_loadu_si256(t[1].as_ptr().cast::<__m256i>());
        let u2 = _mm256_loadu_si256(t[2].as_ptr().cast::<__m256i>());
        let u3 = _mm256_loadu_si256(t[3].as_ptr().cast::<__m256i>());
        let mut acc = _mm256_setzero_si256();
        for row in limbs {
            let c0 = _mm256_set1_epi32(row[0] as i32);
            let c1 = _mm256_set1_epi32(row[1] as i32);
            let c2 = _mm256_set1_epi32(row[2] as i32);
            let c3 = _mm256_set1_epi32(row[3] as i32);
            // Lexicographic u ≥ c, limb 0 most significant: at each
            // level the lane is ≥ iff strictly greater here, or equal
            // here and ≥ on the less significant suffix.
            let ge3 = _mm256_or_si256(_mm256_cmpgt_epi32(u3, c3), _mm256_cmpeq_epi32(u3, c3));
            let ge2 = _mm256_or_si256(
                _mm256_cmpgt_epi32(u2, c2),
                _mm256_and_si256(_mm256_cmpeq_epi32(u2, c2), ge3),
            );
            let ge1 = _mm256_or_si256(
                _mm256_cmpgt_epi32(u1, c1),
                _mm256_and_si256(_mm256_cmpeq_epi32(u1, c1), ge2),
            );
            let ge = _mm256_or_si256(
                _mm256_cmpgt_epi32(u0, c0),
                _mm256_and_si256(_mm256_cmpeq_epi32(u0, c0), ge1),
            );
            // A true lane is all-ones (−1); subtracting adds 1 per row.
            acc = _mm256_sub_epi32(acc, ge);
        }
        let mut out = [0u32; 8];
        // SAFETY: `out` is a [u32; 8] — one full 256-bit store target.
        _mm256_storeu_si256(out.as_mut_ptr().cast::<__m256i>(), acc);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{SplitMix64, WordSource};

    fn table() -> Vec<[u32; 4]> {
        // A deliberately adversarial table: extremes, adjacent values,
        // and rows equal to crafted lane inputs below.
        [
            0u128,
            1,
            (1u128 << 32) - 1,
            1u128 << 32,
            (1u128 << 64) - 1,
            1u128 << 64,
            (1u128 << 96) - 1,
            1u128 << 96,
            u128::MAX - 1,
            u128::MAX,
            0x0123_4567_89AB_CDEF_0123_4567_89AB_CDEF,
            0x8000_0000_0000_0000_0000_0000_0000_0000,
        ]
        .iter()
        .map(|&c| bias_limbs(c))
        .collect()
    }

    fn split(v: u128) -> [u32; 4] {
        [
            (v >> 96) as u32,
            (v >> 64) as u32,
            (v >> 32) as u32,
            v as u32,
        ]
    }

    #[test]
    fn scalar_reference_counts_exactly() {
        let limbs = table();
        let u = [
            split(0),
            split(1),
            split(1u128 << 32),
            split((1u128 << 64) - 1),
            split(u128::MAX),
            split(0x0123_4567_89AB_CDEF_0123_4567_89AB_CDEF),
            split(0x0123_4567_89AB_CDEF_0123_4567_89AB_CDF0),
            split(0x8000_0000_0000_0000_0000_0000_0000_0000),
        ];
        let ks = scan8_scalar(&limbs, &u);
        // Cross-check every lane against a plain u128 comparison count.
        let raw: Vec<u128> = [
            0u128,
            1,
            (1u128 << 32) - 1,
            1u128 << 32,
            (1u128 << 64) - 1,
            1u128 << 64,
            (1u128 << 96) - 1,
            1u128 << 96,
            u128::MAX - 1,
            u128::MAX,
            0x0123_4567_89AB_CDEF_0123_4567_89AB_CDEF,
            0x8000_0000_0000_0000_0000_0000_0000_0000,
        ]
        .to_vec();
        let uv = [
            0u128,
            1,
            1u128 << 32,
            (1u128 << 64) - 1,
            u128::MAX,
            0x0123_4567_89AB_CDEF_0123_4567_89AB_CDEF,
            0x0123_4567_89AB_CDEF_0123_4567_89AB_CDF0,
            0x8000_0000_0000_0000_0000_0000_0000_0000,
        ];
        for j in 0..8 {
            let expect = raw.iter().filter(|&&c| uv[j] >= c).count() as u32;
            assert_eq!(ks[j], expect, "lane {j}");
        }
    }

    #[test]
    fn vector_matches_scalar_on_boundary_classes() {
        if !rlwe_zq::cpu::avx2() {
            eprintln!("note: AVX2 unavailable on this host; scan8 already IS scan8_scalar");
        }
        let limbs = table();
        // Exact equality, off-by-one on both sides, and the extremes —
        // the classes where a signed/unsigned or limb-order slip shows.
        let u = [
            split(0x0123_4567_89AB_CDEF_0123_4567_89AB_CDEF),
            split(0x0123_4567_89AB_CDEF_0123_4567_89AB_CDEE),
            split(0x0123_4567_89AB_CDEF_0123_4567_89AB_CDF0),
            split(0),
            split(u128::MAX),
            split(0x8000_0000_0000_0000_0000_0000_0000_0000),
            split(0x7FFF_FFFF_FFFF_FFFF_FFFF_FFFF_FFFF_FFFF),
            split(1u128 << 96),
        ];
        assert_eq!(scan8(&limbs, &u), scan8_scalar(&limbs, &u));
    }

    #[test]
    fn vector_matches_scalar_on_random_inputs() {
        if !rlwe_zq::cpu::avx2() {
            eprintln!("note: AVX2 unavailable on this host; scan8 already IS scan8_scalar");
        }
        let limbs = table();
        let mut rng = SplitMix64::new(0x5CA9);
        for round in 0..500 {
            let mut u = [[0u32; 4]; 8];
            for lane in u.iter_mut() {
                for limb in lane.iter_mut() {
                    *limb = rng.next_word();
                }
            }
            assert_eq!(scan8(&limbs, &u), scan8_scalar(&limbs, &u), "round {round}");
        }
    }
}
