//! Masked (branch-free) and lazy-reduction `Z_q` arithmetic — the
//! substrate of the Harvey-style NTT butterflies.
//!
//! Two ideas live here, and they compose:
//!
//! 1. **Masked correction.** Every "conditional subtraction" in this
//!    crate used to be an `if x >= q { x - q }`. Compilers usually lower
//!    that to a conditional move, but *usually* is not a guarantee a
//!    constant-time implementation can rest on. [`reduce_once`] performs
//!    the same correction with pure arithmetic: the borrow of
//!    `x.wrapping_sub(m)` is smeared into an all-ones/all-zeros mask that
//!    selects whether `m` is added back. No branch, no cmov required —
//!    just sub/shift/and/add, on every ISA.
//! 2. **Lazy (deferred) reduction.** Inside an NTT butterfly the result
//!    of every add/sub/twiddle-multiply does not need to be `< q` — it
//!    only needs to *fit the word* and be congruent mod `q`. Tracking
//!    coefficients in `[0, 2q)` / `[0, 4q)` (Harvey, *Faster arithmetic
//!    for number-theoretic transforms*) removes most corrections from
//!    the inner loop entirely; the few that remain are masked. The
//!    transform normalizes back to `[0, q)` exactly once, at the end.
//!
//! Domain conventions used by `rlwe-ntt`'s butterflies:
//!
//! * forward (Cooley–Tukey) coefficients are bounded by `4q` between
//!   stages — each butterfly reduces its add-leg input `[0,4q) → [0,2q)`
//!   with one masked correction, the twiddle product lands in `[0,2q)`
//!   ([`mul_shoup_lazy`]), and `u ± v (+2q)` re-enter `[0,4q)`;
//! * inverse (Gentleman–Sande) coefficients are bounded by `2q` between
//!   stages — the sum leg takes one masked correction, the difference
//!   leg is biased by `+2q` ([`sub_lazy`]) before the twiddle product
//!   re-reduces it to `[0,2q)`.
//!
//! All bounds require `q < 2³⁰` so `4q` fits a `u32` (debug builds
//! assert it); the packed halfword layout tightens this to
//! `q < 2¹⁴` so `4q` fits 16 bits — satisfied by both paper moduli.
//! Debug builds additionally assert every documented operand bound, so a
//! butterfly that drifts out of its lazy domain fails loudly in
//! `cargo test` instead of silently wrapping in release.

/// Largest modulus the `u32` lazy domain supports: `4q` must fit a word.
///
/// This is the **single authoritative bound** for every lazy-reduction
/// context: `rlwe_ntt::NttPlan::new` rejects `q ≥ MAX_LAZY_Q` with
/// `NttError::ModulusTooLarge`, and [`crate::Modulus::new`]'s wider
/// `q < 2³¹` acceptance documents that NTT use narrows to this constant.
pub const MAX_LAZY_Q: u32 = 1 << 30;

/// All-ones mask iff `x < m`, as pure arithmetic on the borrow bit.
///
/// Requires `x < m + 2³¹` so the wrapped difference's sign bit equals
/// the borrow — true for every call site in this crate (`m ≤ 2³¹`,
/// operands in `[0, 2m)`).
#[inline(always)]
fn lt_mask(x: u32, m: u32) -> u32 {
    (((x.wrapping_sub(m)) as i32) >> 31) as u32
}

/// One masked conditional subtraction: maps `[0, 2m)` to `[0, m)`.
///
/// Branch-free and cmov-independent: the correction is `sub` + arithmetic
/// shift + `and` + `add`, with no secret-dependent control flow for any
/// compiler to reintroduce.
///
/// # Example
///
/// ```
/// use rlwe_zq::lazy::reduce_once;
///
/// assert_eq!(reduce_once(7680, 7681), 7680);
/// assert_eq!(reduce_once(7681, 7681), 0);
/// assert_eq!(reduce_once(15361, 7681), 7680);
/// ```
#[inline(always)]
pub fn reduce_once(x: u32, m: u32) -> u32 {
    debug_assert!(
        (1..=1u32 << 31).contains(&m),
        "reduce_once modulus out of range"
    );
    debug_assert!((x as u64) < 2 * m as u64, "reduce_once input must be < 2m");
    let d = x.wrapping_sub(m);
    d.wrapping_add(m & lt_mask(x, m))
}

/// [`reduce_once`] for 64-bit operands (the Barrett correction tail).
#[inline(always)]
pub fn reduce_once_u64(x: u64, m: u64) -> u64 {
    debug_assert!((1..=1u64 << 63).contains(&m));
    debug_assert!(
        x < 2u64.saturating_mul(m),
        "reduce_once_u64 input must be < 2m"
    );
    let d = x.wrapping_sub(m);
    let mask = ((d as i64) >> 63) as u64;
    d.wrapping_add(m & mask)
}

/// Masked modular addition of reduced residues: `(a + b) mod q`.
///
/// The branch-free core `rlwe_zq::add_mod` delegates to.
#[inline(always)]
pub fn add_mod_masked(a: u32, b: u32, q: u32) -> u32 {
    debug_assert!(a < q && b < q);
    reduce_once(a + b, q)
}

/// Masked modular subtraction of reduced residues: `(a − b) mod q`.
///
/// The wrapped difference is corrected by `+q` exactly when it
/// underflowed, selected by the borrow mask rather than a comparison
/// branch.
#[inline(always)]
pub fn sub_mod_masked(a: u32, b: u32, q: u32) -> u32 {
    debug_assert!(a < q && b < q);
    let d = a.wrapping_sub(b);
    d.wrapping_add(q & (((d as i32) >> 31) as u32))
}

/// Masked modular negation: `0 ↦ 0`, otherwise `q − a`.
///
/// The `a == 0` special case is an all-ones/all-zeros mask derived from
/// `a | −a`'s sign bit, not a branch.
#[inline(always)]
pub fn neg_mod_masked(a: u32, q: u32) -> u32 {
    debug_assert!(a < q);
    let nonzero = ((a | a.wrapping_neg()) >> 31).wrapping_neg();
    (q - a) & nonzero
}

/// Lazy addition: no reduction at all; the caller tracks the bound.
///
/// Debug builds assert the sum fits the lazy domain (`< 2³²` trivially,
/// and more usefully `< 4q` when `max_bound` is supplied by the caller
/// via [`debug_assert_bound`]).
#[inline(always)]
pub fn add_lazy(a: u32, b: u32) -> u32 {
    debug_assert!(a.checked_add(b).is_some(), "lazy add overflowed the word");
    a.wrapping_add(b)
}

/// Lazy subtraction with a `+2q` bias: `a − b + 2q`, staying
/// non-negative for any `a` and any `b < 2q`.
///
/// With `a < 2q` the result lies in `(0, 4q)` — the forward butterfly's
/// difference leg.
#[inline(always)]
pub fn sub_lazy(a: u32, b: u32, two_q: u32) -> u32 {
    debug_assert!(b < two_q, "sub_lazy subtrahend must be < 2q");
    debug_assert!(
        a.checked_add(two_q).is_some(),
        "lazy sub overflowed the word"
    );
    a.wrapping_add(two_q).wrapping_sub(b)
}

/// Shoup multiplication without the final correction: returns
/// `a·w mod q + {0, q}`, i.e. a value in `[0, 2q)` congruent to the
/// product.
///
/// Unlike the fully-reduced [`crate::shoup::mul_shoup`], the first
/// operand may be **any** `u32` (in particular a lazy `[0, 4q)`
/// coefficient): the classic error analysis gives
/// `r = a·w − ⌊a·w′/2³²⌋·q < q·(1 + a/2³²) < 2q` for every `a < 2³²`.
#[inline(always)]
pub fn mul_shoup_lazy(a: u32, w: u32, w_shoup: u32, q: u32) -> u32 {
    debug_assert!(w < q, "shoup multiplicand must be reduced");
    let t = ((a as u64 * w_shoup as u64) >> 32) as u32;
    let r = a.wrapping_mul(w).wrapping_sub(t.wrapping_mul(q));
    debug_assert!(
        (r as u64) < 2 * q as u64,
        "shoup lazy result out of [0, 2q)"
    );
    debug_assert_eq!(r as u64 % q as u64, a as u64 * w as u64 % q as u64);
    r
}

/// Final normalization from the forward transform's `[0, 4q)` domain to
/// canonical `[0, q)`: two masked corrections.
#[inline(always)]
pub fn normalize4(x: u32, q: u32) -> u32 {
    debug_assert!((x as u64) < 4 * q as u64);
    reduce_once(reduce_once(x, q << 1), q)
}

/// Debug-only lazy-domain bound audit: asserts `x < bound` (and that the
/// bound itself fits the word). Compiles to nothing in release builds —
/// this is how the NTT kernels prove their `u32` arithmetic never
/// overflows for `q <` [`MAX_LAZY_Q`] without paying for it.
#[inline(always)]
pub fn debug_assert_bound(x: u32, bound: u64) {
    debug_assert!(
        (x as u64) < bound,
        "lazy coefficient {x} escaped its domain bound {bound}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    const QS: [u32; 4] = [7681, 12289, 8383489, (1 << 30) - 35]; // last: prime near MAX_LAZY_Q

    #[test]
    fn reduce_once_covers_both_halves() {
        for &q in &QS {
            for x in [0u32, 1, q - 1, q, q + 1, 2 * q - 1] {
                let want = if x >= q { x - q } else { x };
                assert_eq!(reduce_once(x, q), want, "q={q} x={x}");
            }
        }
        // The largest supported corrector: m = 2^31.
        assert_eq!(reduce_once(u32::MAX, 1 << 31), u32::MAX - (1 << 31));
        assert_eq!(reduce_once((1 << 31) - 1, 1 << 31), (1 << 31) - 1);
    }

    #[test]
    fn reduce_once_u64_matches_scalar() {
        let m = 0xFFFF_FFFF_FFFFu64;
        assert_eq!(reduce_once_u64(m - 1, m), m - 1);
        assert_eq!(reduce_once_u64(m, m), 0);
        assert_eq!(reduce_once_u64(2 * m - 1, m), m - 1);
    }

    #[test]
    fn masked_ops_match_reference() {
        for &q in &QS {
            let samples = [0u32, 1, 2, q / 2, q - 2, q - 1];
            for &a in &samples {
                assert_eq!(neg_mod_masked(a, q), if a == 0 { 0 } else { q - a });
                for &b in &samples {
                    assert_eq!(
                        add_mod_masked(a, b, q),
                        ((a as u64 + b as u64) % q as u64) as u32
                    );
                    assert_eq!(
                        sub_mod_masked(a, b, q),
                        ((a as u64 + q as u64 - b as u64) % q as u64) as u32
                    );
                }
            }
        }
    }

    #[test]
    fn shoup_lazy_is_congruent_and_bounded_for_lazy_operands() {
        for &q in &[7681u32, 12289] {
            for w in (0..q).step_by(211) {
                let ws = crate::shoup::shoup_precompute(w, q);
                // a sweeps the whole lazy domain [0, 4q), not just [0, q).
                for a in (0..4 * q).step_by(97) {
                    let r = mul_shoup_lazy(a, w, ws, q);
                    assert!((r as u64) < 2 * q as u64);
                    assert_eq!(r % q, ((a as u64 * w as u64) % q as u64) as u32);
                }
            }
        }
    }

    #[test]
    fn normalize4_lands_in_canonical_range() {
        for &q in &[7681u32, 12289] {
            for x in (0..4 * q).step_by(13) {
                assert_eq!(normalize4(x, q), x % q);
            }
            assert_eq!(normalize4(4 * q - 1, q), (4 * q - 1) % q);
        }
    }

    #[test]
    fn lazy_add_sub_track_congruence() {
        let q = 12289u32;
        let two_q = 2 * q;
        for a in (0..two_q).step_by(1009) {
            for b in (0..two_q).step_by(997) {
                let s = add_lazy(a, b);
                assert_eq!(s % q, (a + b) % q);
                let d = sub_lazy(a, b, two_q);
                assert!(d < 4 * q);
                assert_eq!(d % q, (a + two_q - b) % q);
            }
        }
    }
}
