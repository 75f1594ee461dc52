//! Packed-word NTT: two coefficients per 32-bit word, inner loop unrolled
//! by two — the paper's §III-D / Algorithm 4, on lazy butterflies.
//!
//! On the Cortex-M4F every memory access costs 2 cycles regardless of
//! width, so storing 13/14-bit coefficients as halfword *pairs* halves the
//! number of loads and stores in the butterfly loop, and unrolling the loop
//! two-fold halves pointer arithmetic and index bookkeeping. This module
//! reproduces that data layout faithfully so the M4F cost model can charge
//! it correctly; on a host CPU the win is smaller but still measurable
//! (see the `ntt` Criterion bench).
//!
//! Layout invariant: word `i` holds coefficients `a[2i]` (low halfword) and
//! `a[2i+1]` (high halfword) of the *current* ordering — natural before a
//! forward transform, bit-reversed after it.
//!
//! In this layout every butterfly stage with span `t ≥ 2` touches two
//! *whole* words per iteration (two butterflies sharing one twiddle), and
//! the final forward stage (span 1) becomes an *intra-word* butterfly —
//! exactly the structure of the epilogue of the paper's Algorithm 4
//! (the loop over pairs `(A[2k], A[2k+1])`).
//!
//! Lazy-domain bound: between stages each halfword lane carries a
//! `[0, 4q)` (forward) / `[0, 2q)` (inverse) coefficient, so the layout
//! requires `4q < 2¹⁶`, i.e. **`q < 2¹⁴`** — satisfied with room to spare
//! by both paper moduli (7681 and 12289). The transforms assert it.

use rlwe_zq::packed::{pack, unpack};
use rlwe_zq::{lazy, Reducer};

use crate::plan::NttPlan;

/// Largest modulus the packed lazy butterflies support: `4q` must fit a
/// halfword lane.
pub const MAX_PACKED_Q: u32 = 1 << 14;

/// Asserts the packed lazy-domain precondition `4q < 2¹⁶` — shared by
/// every halfword-lane transform (packed, fused parallel).
#[inline]
pub(crate) fn assert_packed_q(q: u32) {
    assert!(
        q < MAX_PACKED_Q,
        "packed lazy butterflies need 4q < 2^16 (q < 16384), got q = {q}"
    );
}

/// Packs a natural-order coefficient slice into the two-per-word layout.
///
/// # Panics
///
/// Panics if `a.len()` is odd or if a coefficient does not fit in 16 bits.
pub fn pack_coeffs(a: &[u32]) -> Vec<u32> {
    rlwe_zq::packed::pack_slice(a)
}

/// Expands a packed word slice back to flat coefficients.
pub fn unpack_coeffs(words: &[u32]) -> Vec<u32> {
    rlwe_zq::packed::unpack_slice(words)
}

/// In-place forward negacyclic NTT on packed words.
///
/// Functionally identical to [`NttPlan::forward`] — lazy `[0, 4q)`
/// stages, fully reduced output; the only difference is the memory
/// layout (n/2 words instead of n coefficient slots). Normalization is
/// folded into the final intra-word stage, so no extra sweep runs.
///
/// # Panics
///
/// Panics if `words.len() != n/2` or `q ≥ 2¹⁴`.
pub fn forward_packed<R: Reducer>(plan: &NttPlan<R>, words: &mut [u32]) {
    let n = plan.n();
    assert_eq!(words.len(), n / 2, "packed buffer must hold n/2 words");
    let q = plan.q();
    assert_packed_q(q);
    let two_q = plan.two_q();
    let r = *plan.reducer();
    let tw = plan.forward_twiddles();
    let mut t = n;
    let mut m = 1usize;
    // Word-level stages: span t >= 2 means both coefficients of a word sit
    // on the same side of every butterfly, so each iteration processes two
    // butterflies from two whole-word loads (the 2x unroll of Alg. 4).
    while m < n / 2 {
        t >>= 1;
        for i in 0..m {
            let j1 = 2 * i * t;
            let s = tw[m + i];
            let mut j = j1;
            while j < j1 + t {
                let (u0, u1) = unpack(words[j / 2]);
                let (v0, v1) = unpack(words[(j + t) / 2]);
                let u0 = r.reduce_once_2q(u0);
                let u1 = r.reduce_once_2q(u1);
                let x0 = s.mul_lazy(v0, q);
                let x1 = s.mul_lazy(v1, q);
                words[j / 2] = pack(lazy::add_lazy(u0, x0), lazy::add_lazy(u1, x1));
                words[(j + t) / 2] =
                    pack(lazy::sub_lazy(u0, x0, two_q), lazy::sub_lazy(u1, x1, two_q));
                j += 2;
            }
        }
        m <<= 1;
    }
    // Final stage (t = 1): intra-word butterflies, one twiddle per word —
    // the epilogue of the paper's Algorithm 4 — with the [0, q)
    // normalization folded into the store.
    debug_assert_eq!(m, n / 2);
    for (i, w) in words.iter_mut().enumerate() {
        let (u, v) = unpack(*w);
        let s = tw[m + i];
        let u = r.reduce_once_2q(u);
        let x = s.mul_lazy(v, q);
        *w = pack(
            r.normalize4(lazy::add_lazy(u, x)),
            r.normalize4(lazy::sub_lazy(u, x, two_q)),
        );
    }
}

/// In-place inverse negacyclic NTT on packed words, including the `n⁻¹`
/// post-scaling — folded into the final word stage's twiddles, exactly
/// as in [`NttPlan::inverse`].
///
/// # Panics
///
/// Panics if `words.len() != n/2` or `q ≥ 2¹⁴`.
pub fn inverse_packed<R: Reducer>(plan: &NttPlan<R>, words: &mut [u32]) {
    let n = plan.n();
    assert_eq!(words.len(), n / 2, "packed buffer must hold n/2 words");
    let q = plan.q();
    assert_packed_q(q);
    let two_q = plan.two_q();
    let r = *plan.reducer();
    let tw = plan.inverse_twiddles();
    // First stage (t = 1): intra-word butterflies into the [0, 2q) lazy
    // domain (both lanes stay under 2¹⁵).
    let h = n / 2;
    for (i, w) in words.iter_mut().enumerate() {
        let (u, v) = unpack(*w);
        let s = tw[h + i];
        *w = pack(
            r.reduce_once_2q(lazy::add_lazy(u, v)),
            s.mul_lazy(lazy::sub_lazy(u, v, two_q), q),
        );
    }
    // Word-level lazy stages down to (and excluding) the last.
    let mut t = 2usize;
    let mut m = n / 2;
    while m > 2 {
        let h = m >> 1;
        let mut j1 = 0usize;
        for i in 0..h {
            let s = tw[h + i];
            let mut j = j1;
            while j < j1 + t {
                let (u0, u1) = unpack(words[j / 2]);
                let (v0, v1) = unpack(words[(j + t) / 2]);
                words[j / 2] = pack(
                    r.reduce_once_2q(lazy::add_lazy(u0, v0)),
                    r.reduce_once_2q(lazy::add_lazy(u1, v1)),
                );
                words[(j + t) / 2] = pack(
                    s.mul_lazy(lazy::sub_lazy(u0, v0, two_q), q),
                    s.mul_lazy(lazy::sub_lazy(u1, v1, two_q), q),
                );
                j += 2;
            }
            j1 += 2 * t;
        }
        t <<= 1;
        m = h;
    }
    // Merged final stage: butterfly × n⁻¹ scaling in one pass, outputs
    // normalized to [0, q) — no separate scaling sweep over the words.
    debug_assert_eq!(t, n / 2);
    let n_inv = plan.n_inv_pair();
    let s_merged = plan.merged_inverse_twiddle();
    let mut j = 0usize;
    while j < t {
        let (u0, u1) = unpack(words[j / 2]);
        let (v0, v1) = unpack(words[(j + t) / 2]);
        words[j / 2] = pack(
            r.reduce_once(n_inv.mul_lazy(lazy::add_lazy(u0, v0), q)),
            r.reduce_once(n_inv.mul_lazy(lazy::add_lazy(u1, v1), q)),
        );
        words[(j + t) / 2] = pack(
            r.reduce_once(s_merged.mul_lazy(lazy::sub_lazy(u0, v0, two_q), q)),
            r.reduce_once(s_merged.mul_lazy(lazy::sub_lazy(u1, v1, two_q), q)),
        );
        j += 2;
    }
}

/// Full negacyclic multiplication in the packed layout.
///
/// # Panics
///
/// Panics if either input's length differs from `n/2` words.
pub fn negacyclic_mul_packed<R: Reducer>(plan: &NttPlan<R>, a: &[u32], b: &[u32]) -> Vec<u32> {
    let r = *plan.reducer();
    let mut fa = a.to_vec();
    let mut fb = b.to_vec();
    forward_packed(plan, &mut fa);
    forward_packed(plan, &mut fb);
    let mut c: Vec<u32> = fa
        .iter()
        .zip(&fb)
        .map(|(&wa, &wb)| {
            let (a0, a1) = unpack(wa);
            let (b0, b1) = unpack(wb);
            pack(r.mul(a0, b0), r.mul(a1, b1))
        })
        .collect();
    inverse_packed(plan, &mut c);
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_poly(n: usize, q: u32, seed: u32) -> Vec<u32> {
        (0..n as u32).map(|i| (i * seed + 13) % q).collect()
    }

    #[test]
    fn packed_forward_matches_scalar() {
        for &(n, q) in &[(256usize, 7681u32), (512, 12289), (16, 12289)] {
            let plan = NttPlan::new(n, q).unwrap();
            let a = demo_poly(n, q, 37);
            let scalar = plan.forward_copy(&a);
            let mut words = pack_coeffs(&a);
            forward_packed(&plan, &mut words);
            assert_eq!(unpack_coeffs(&words), scalar, "n={n} q={q}");
        }
    }

    #[test]
    fn packed_inverse_matches_scalar() {
        for &(n, q) in &[(256usize, 7681u32), (512, 12289), (4, 12289)] {
            let plan = NttPlan::new(n, q).unwrap();
            let a = demo_poly(n, q, 91);
            let scalar = plan.inverse_copy(&a);
            let mut words = pack_coeffs(&a);
            inverse_packed(&plan, &mut words);
            assert_eq!(unpack_coeffs(&words), scalar, "n={n} q={q}");
        }
    }

    #[test]
    fn packed_round_trip() {
        let plan = NttPlan::new(128, 7681).unwrap();
        let a = demo_poly(128, 7681, 55);
        let mut words = pack_coeffs(&a);
        forward_packed(&plan, &mut words);
        inverse_packed(&plan, &mut words);
        assert_eq!(unpack_coeffs(&words), a);
    }

    #[test]
    fn packed_outputs_are_fully_reduced_for_worst_case_inputs() {
        // All-(q-1) vectors drive the lazy domain to its widest; every
        // stored halfword must still come out canonical.
        for &(n, q) in &[(256usize, 7681u32), (512, 12289)] {
            let plan = NttPlan::new(n, q).unwrap();
            let mut words = pack_coeffs(&vec![q - 1; n]);
            forward_packed(&plan, &mut words);
            assert!(unpack_coeffs(&words).iter().all(|&c| c < q), "fwd n={n}");
            inverse_packed(&plan, &mut words);
            assert!(unpack_coeffs(&words).iter().all(|&c| c < q), "inv n={n}");
        }
    }

    #[test]
    fn packed_mul_matches_schoolbook() {
        let n = 64;
        let q = 7681;
        let plan = NttPlan::new(n, q).unwrap();
        let a = demo_poly(n, q, 3);
        let b = demo_poly(n, q, 19);
        let got = unpack_coeffs(&negacyclic_mul_packed(
            &plan,
            &pack_coeffs(&a),
            &pack_coeffs(&b),
        ));
        assert_eq!(got, crate::schoolbook::negacyclic_mul(&a, &b, q));
    }

    #[test]
    #[should_panic(expected = "n/2 words")]
    fn wrong_length_panics() {
        let plan = NttPlan::new(16, 12289).unwrap();
        let mut words = vec![0u32; 16]; // should be 8
        forward_packed(&plan, &mut words);
    }

    #[test]
    #[should_panic(expected = "4q < 2^16")]
    fn oversized_modulus_panics() {
        // 40961 = 1 + 2^13·5 is prime and NTT-friendly for n = 16, but
        // its lazy domain does not fit a halfword lane.
        let plan = NttPlan::new(16, 40961).unwrap();
        let mut words = vec![0u32; 8];
        forward_packed(&plan, &mut words);
    }
}
