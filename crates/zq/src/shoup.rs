//! Shoup modular multiplication for fixed multiplicands.
//!
//! When one operand of a modular product is a constant known in advance —
//! exactly the situation for NTT twiddle factors, which the paper stores in
//! a precomputed lookup table (§III-C) — Shoup's trick reduces the product
//! with one extra precomputed word and no wide division:
//!
//! ```text
//! w' = floor(w · 2³² / q)            (precomputed alongside w)
//! t  = floor(a · w' / 2³²)           (high half of a 32×32 multiply)
//! r  = a·w − t·q  (mod 2³²)          (low halves only)
//! ```
//!
//! The result lies in `[0, 2q)` and needs a single conditional subtraction.
//! On the Cortex-M4F this is two `umull`-class multiplies plus one subtract,
//! which is why our M4F cost model charges the twiddle multiply this way.

/// Precomputes the Shoup companion word `floor(w · 2³² / q)` for the fixed
/// multiplicand `w`.
///
/// # Panics
///
/// Panics if `w ≥ q` (the multiplicand must be reduced).
///
/// # Example
///
/// ```
/// use rlwe_zq::shoup::{shoup_precompute, mul_shoup};
///
/// let (q, w) = (7681u32, 1234u32);
/// let w_shoup = shoup_precompute(w, q);
/// assert_eq!(mul_shoup(5678, w, w_shoup, q), rlwe_zq::mul_mod(5678, w, q));
/// ```
#[inline]
pub fn shoup_precompute(w: u32, q: u32) -> u32 {
    assert!(w < q, "shoup multiplicand must be reduced");
    (((w as u64) << 32) / q as u64) as u32
}

/// Multiplies `a` by the fixed `w` modulo `q`, given `w`'s precomputed
/// companion word from [`shoup_precompute`].
///
/// Requires `q < 2³¹` and both operands reduced. The unreduced product
/// lands in `[0, 2q)` ([`crate::lazy::mul_shoup_lazy`]) and the single
/// final correction is masked — no branch on the coefficient value.
#[inline]
pub fn mul_shoup(a: u32, w: u32, w_shoup: u32, q: u32) -> u32 {
    debug_assert!(a < q && w < q);
    let r = crate::lazy::reduce_once(crate::lazy::mul_shoup_lazy(a, w, w_shoup, q), q);
    debug_assert_eq!(r as u64, a as u64 * w as u64 % q as u64);
    r
}

/// A twiddle factor stored together with its Shoup companion word.
///
/// NTT twiddle tables are arrays of these pairs so the butterfly can call
/// [`mul_shoup`] without recomputing the reciprocal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShoupPair {
    /// The reduced twiddle factor `w`.
    pub value: u32,
    /// `floor(w · 2³² / q)`.
    pub companion: u32,
}

impl ShoupPair {
    /// Precomputes the pair for `w` modulo `q`.
    ///
    /// # Panics
    ///
    /// Panics if `w ≥ q`.
    #[inline]
    pub fn new(w: u32, q: u32) -> Self {
        Self {
            value: w,
            companion: shoup_precompute(w, q),
        }
    }

    /// Multiplies `a` by this fixed twiddle modulo `q`.
    #[inline]
    pub fn mul(&self, a: u32, q: u32) -> u32 {
        mul_shoup(a, self.value, self.companion, q)
    }

    /// Lazy-domain twiddle multiply: accepts **any** `u32` first operand
    /// (in particular a `[0, 4q)` lazy coefficient) and returns a value
    /// in `[0, 2q)` congruent to `a·w mod q`, with no final correction —
    /// the inner-loop workhorse of the Harvey-style NTT butterflies.
    #[inline]
    pub fn mul_lazy(&self, a: u32, q: u32) -> u32 {
        crate::lazy::mul_shoup_lazy(a, self.value, self.companion, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mul_mod;

    #[test]
    fn matches_reference_for_paper_moduli() {
        for &q in &[7681u32, 12289] {
            for w in (0..q).step_by(53) {
                let ws = shoup_precompute(w, q);
                for a in (0..q).step_by(97) {
                    assert_eq!(
                        mul_shoup(a, w, ws, q),
                        mul_mod(a, w, q),
                        "a={a} w={w} q={q}"
                    );
                }
            }
        }
    }

    #[test]
    fn extreme_operands() {
        let q = 12289u32;
        for &w in &[0u32, 1, q - 1] {
            let ws = shoup_precompute(w, q);
            for &a in &[0u32, 1, q - 1] {
                assert_eq!(mul_shoup(a, w, ws, q), mul_mod(a, w, q));
            }
        }
    }

    #[test]
    fn large_31_bit_modulus() {
        let q = 2147483647u32; // 2^31 - 1
        for &w in &[1u32, 2, 12345678, q - 1] {
            let ws = shoup_precompute(w, q);
            for &a in &[1u32, 99999999, q - 1] {
                assert_eq!(mul_shoup(a, w, ws, q), mul_mod(a, w, q));
            }
        }
    }

    #[test]
    fn pair_wraps_the_free_functions() {
        let q = 7681;
        let p = ShoupPair::new(4321, q);
        assert_eq!(p.mul(1000, q), mul_mod(1000, 4321, q));
    }

    #[test]
    #[should_panic(expected = "reduced")]
    fn unreduced_multiplicand_panics() {
        shoup_precompute(7681, 7681);
    }
}
