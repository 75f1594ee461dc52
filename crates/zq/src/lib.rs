//! Modular arithmetic over NTT-friendly primes.
//!
//! This crate is the lowest-level substrate of the ring-LWE reproduction
//! suite. It provides arithmetic in `Z_q` for the moduli used by the DATE
//! 2015 paper — `q = 7681` (parameter set P1) and `q = 12289` (P2) — as well
//! as any other prime modulus below 2³¹.
//!
//! Three modular-multiplication strategies are provided, because the paper's
//! NTT inner loop (and our Cortex-M4F cost model built on top of it) depends
//! on which one is chosen:
//!
//! * [`Modulus::mul`] — Barrett reduction with a precomputed 64-bit
//!   reciprocal; the general-purpose workhorse.
//! * [`montgomery::MontgomeryCtx`] — Montgomery representation, useful when a
//!   long chain of multiplications stays in Montgomery form.
//! * [`shoup`] — Shoup multiplication for *fixed* multiplicands (NTT twiddle
//!   factors), the cheapest per-butterfly option and the one our packed NTT
//!   uses.
//!
//! The [`packed`] module implements the paper's §III-C observation that two
//! 13/14-bit coefficients fit into one 32-bit processor word, so memory
//! traffic is halved by loading/storing coefficient *pairs*.
//!
//! The [`cpu`] module is the workspace's single CPU-feature detection
//! point: every runtime-dispatched vector kernel asks it first.
//!
//! The [`ct`] module is the workspace's single home for constant-time
//! primitives (masked compare/select, branchless predicates, best-effort
//! zeroisation) — every secret-handling crate above routes through it.
//!
//! The [`lazy`] module supplies masked (branch-free, cmov-independent)
//! modular corrections plus the lazy-reduction domain ops
//! (`[0, 2q)`/`[0, 4q)` coefficients, deferred normalization) that the
//! NTT butterflies in `rlwe-ntt` are built from. The eager entry points
//! below ([`add_mod`], [`sub_mod`], [`neg_mod`], [`Modulus::reduce`],
//! [`shoup::mul_shoup`]) are all reimplemented on top of that masked
//! core, so every caller inherits branchlessness.
//!
//! The [`reduce`] module names the reduction *strategy* as a sealed
//! [`Reducer`] trait: [`reduce::Q7681`] and [`reduce::Q12289`] are
//! compile-time reducers for the paper's special-form primes
//! (`2¹³ − 2⁹ + 1` and `2¹⁴ − 2¹² + 1`), while [`Modulus`] itself is the
//! runtime-Barrett fallback ([`reduce::BarrettGeneric`]). Kernels
//! generic over `R: Reducer` — the NTT backends, the pointwise slice
//! ops, the sampler's coefficient reduction — monomorphize into code
//! with immediate constants for P1/P2.
//!
//! # Example
//!
//! ```
//! use rlwe_zq::Modulus;
//!
//! # fn main() -> Result<(), rlwe_zq::ZqError> {
//! let q = Modulus::new(7681)?;                   // the paper's P1 modulus
//! let psi = q.root_of_unity(512)?;               // 2n-th root for n = 256
//! assert_eq!(q.pow(psi, 512), 1);
//! assert_eq!(q.pow(psi, 256), q.value() - 1);    // psi^n = -1 (negacyclic)
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod modulus;
mod ops;
mod primality;

pub mod cpu;
pub mod ct;
pub mod lazy;
pub mod montgomery;
pub mod packed;
pub mod primitive;
pub mod reduce;
pub mod shoup;

pub use error::ZqError;
pub use modulus::Modulus;
pub use ops::SliceOps;
pub use primality::is_prime_u64;
pub use reduce::{Reducer, ReducerKind};

/// Adds two residues modulo `q` without any precomputation.
///
/// Inputs must already be reduced (`a, b < q`); the function then returns
/// `(a + b) mod q` with a single **masked** conditional subtraction
/// ([`lazy::reduce_once`]) — no branch, no reliance on the compiler
/// choosing a conditional move.
///
/// # Panics
///
/// Debug builds assert that both inputs are reduced.
///
/// # Example
///
/// ```
/// assert_eq!(rlwe_zq::add_mod(7680, 2, 7681), 1);
/// ```
#[inline]
pub fn add_mod(a: u32, b: u32, q: u32) -> u32 {
    debug_assert!(a < q && b < q, "add_mod inputs must be reduced");
    lazy::add_mod_masked(a, b, q)
}

/// Subtracts two residues modulo `q` without any precomputation.
///
/// Inputs must already be reduced (`a, b < q`); the borrow-mask
/// correction is branch-free ([`lazy::sub_mod_masked`]).
///
/// # Example
///
/// ```
/// assert_eq!(rlwe_zq::sub_mod(1, 2, 7681), 7680);
/// ```
#[inline]
pub fn sub_mod(a: u32, b: u32, q: u32) -> u32 {
    debug_assert!(a < q && b < q, "sub_mod inputs must be reduced");
    lazy::sub_mod_masked(a, b, q)
}

/// Negates a residue modulo `q` (`0` maps to `0`), branch-free.
///
/// # Example
///
/// ```
/// assert_eq!(rlwe_zq::neg_mod(1, 7681), 7680);
/// assert_eq!(rlwe_zq::neg_mod(0, 7681), 0);
/// ```
#[inline]
pub fn neg_mod(a: u32, q: u32) -> u32 {
    debug_assert!(a < q, "neg_mod input must be reduced");
    lazy::neg_mod_masked(a, q)
}

/// Multiplies two residues modulo `q` using a 64-bit intermediate.
///
/// This is the slow, obviously-correct reference used by tests; hot paths
/// should go through [`Modulus::mul`] (Barrett) or [`shoup::mul_shoup`].
///
/// # Example
///
/// ```
/// assert_eq!(rlwe_zq::mul_mod(7680, 7680, 7681), 1);
/// ```
#[inline]
pub fn mul_mod(a: u32, b: u32, q: u32) -> u32 {
    ((a as u64 * b as u64) % q as u64) as u32
}

/// Raises `base` to `exp` modulo `q` by square-and-multiply.
///
/// # Example
///
/// ```
/// assert_eq!(rlwe_zq::pow_mod(3, 7680, 7681), 1); // Fermat
/// ```
pub fn pow_mod(base: u32, mut exp: u64, q: u32) -> u32 {
    let mut acc: u64 = 1;
    let mut b: u64 = (base % q) as u64;
    let m = q as u64;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = acc * b % m;
        }
        b = b * b % m;
        exp >>= 1;
    }
    acc as u32
}

/// Computes the modular inverse of `a` modulo `q` via the extended Euclidean
/// algorithm.
///
/// Unlike Fermat inversion this does not require `q` to be prime, only
/// `gcd(a, q) = 1`. Returns `None` when no inverse exists.
///
/// # Example
///
/// ```
/// let inv = rlwe_zq::inv_mod(256, 7681).expect("gcd(256, 7681) = 1");
/// assert_eq!(rlwe_zq::mul_mod(inv, 256, 7681), 1);
/// assert_eq!(rlwe_zq::inv_mod(2, 4), None);
/// ```
pub fn inv_mod(a: u32, q: u32) -> Option<u32> {
    if q == 0 {
        return None;
    }
    let (mut old_r, mut r) = (a as i64 % q as i64, q as i64);
    let (mut old_s, mut s) = (1i64, 0i64);
    while r != 0 {
        let quot = old_r / r;
        (old_r, r) = (r, old_r - quot * r);
        (old_s, s) = (s, old_s - quot * s);
    }
    if old_r != 1 {
        return None; // gcd != 1
    }
    let mut inv = old_s % q as i64;
    if inv < 0 {
        inv += q as i64;
    }
    Some(inv as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_wraps_at_modulus() {
        assert_eq!(add_mod(4000, 4000, 7681), 319);
        assert_eq!(add_mod(0, 0, 7681), 0);
        assert_eq!(add_mod(7680, 1, 7681), 0);
    }

    #[test]
    fn sub_borrows_through_zero() {
        assert_eq!(sub_mod(0, 1, 12289), 12288);
        assert_eq!(sub_mod(5, 5, 12289), 0);
    }

    #[test]
    fn neg_is_additive_inverse() {
        for a in [0u32, 1, 77, 7680] {
            assert_eq!(add_mod(a, neg_mod(a, 7681), 7681), 0);
        }
    }

    #[test]
    fn pow_agrees_with_repeated_mul() {
        let q = 12289;
        let mut acc = 1u32;
        for e in 0..50u64 {
            assert_eq!(pow_mod(3, e, q), acc);
            acc = mul_mod(acc, 3, q);
        }
    }

    #[test]
    fn pow_handles_zero_base_and_exponent() {
        assert_eq!(pow_mod(0, 0, 7681), 1); // 0^0 = 1 by convention
        assert_eq!(pow_mod(0, 5, 7681), 0);
        assert_eq!(pow_mod(5, 0, 7681), 1);
    }

    #[test]
    fn inverse_of_units_round_trips() {
        let q = 7681;
        for a in 1..200u32 {
            let inv = inv_mod(a, q).expect("prime modulus: every unit invertible");
            assert_eq!(mul_mod(a, inv, q), 1);
        }
    }

    #[test]
    fn inverse_rejects_non_units() {
        assert_eq!(inv_mod(6, 12), None);
        assert_eq!(inv_mod(0, 7681), None);
    }

    #[test]
    fn fermat_inverse_matches_euclid() {
        let q = 12289;
        for a in 1..500u32 {
            assert_eq!(inv_mod(a, q), Some(pow_mod(a, q as u64 - 2, q)));
        }
    }
}
