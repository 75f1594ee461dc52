//! [`Poly`]: an NTT-domain ring element that knows its modulus and length.
//!
//! The paper's whole pipeline keeps keys and ciphertexts *permanently in
//! the NTT domain* (bit-reversed evaluation order): the scheme's error and
//! message polynomials are sampled into scratch `Vec<u32>` buffers (keygen's
//! `r₂` into the secret key's own buffer) and cross over exactly once,
//! inside the context's keygen/encrypt bodies, and only the decryption's
//! one inverse transform leaves the domain — into a scratch buffer again.
//! So every `Poly` a caller can see holds NTT-domain values;
//! the type carries the modulus with the coefficients and enforces the
//! invariant below.
//!
//! Invariant: every stored coefficient is reduced (`< q`). All constructors
//! validate or inherit reduction, and mutation goes through modular ops, so
//! downstream code (serialization, NTT kernels) can rely on it. The NTT
//! kernels themselves run on **lazy** `[0, 2q)`/`[0, 4q)` coefficients
//! internally (`rlwe_zq::lazy`), but every transform the scheme layer
//! drives ends in a masked normalization, so the unreduced domain never
//! escapes into a stored `Poly`.

use rlwe_ntt::pointwise;
use rlwe_zq::Modulus;

use crate::RlweError;

/// A polynomial over `Z_q[x]/(xⁿ + 1)` in the NTT domain.
///
/// # Example
///
/// ```
/// use rlwe_core::Poly;
/// use rlwe_zq::Modulus;
///
/// # fn main() -> Result<(), rlwe_core::RlweError> {
/// let q = Modulus::new(7681).unwrap();
/// let mut a = Poly::from_vec(vec![1, 7680, 3], q)?;
/// a.add_assign(&Poly::from_vec(vec![7680, 1, 4], q)?)?;
/// assert_eq!(a.as_slice(), &[0, 0, 7]);
/// // Unreduced coefficients are rejected at construction.
/// assert!(Poly::from_vec(vec![7681], q).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Poly {
    coeffs: Vec<u32>,
    modulus: Modulus,
}

impl Poly {
    /// Wraps a coefficient vector, validating that every value is reduced
    /// modulo the given modulus.
    ///
    /// # Errors
    ///
    /// [`RlweError::Malformed`] if any coefficient is `≥ q`.
    pub fn from_vec(coeffs: Vec<u32>, modulus: Modulus) -> Result<Self, RlweError> {
        let q = modulus.value();
        if let Some(idx) = coeffs.iter().position(|&c| c >= q) {
            return Err(RlweError::Malformed {
                reason: format!(
                    "coefficient {idx} = {} is not reduced modulo {q}",
                    coeffs[idx]
                ),
            });
        }
        Ok(Self::from_vec_unchecked(coeffs, modulus))
    }

    /// Wraps an already-validated coefficient vector (crate-internal: the
    /// serializer and the scheme's sampling paths guarantee reduction).
    pub(crate) fn from_vec_unchecked(coeffs: Vec<u32>, modulus: Modulus) -> Self {
        debug_assert!(coeffs.iter().all(|&c| c < modulus.value()));
        Self { coeffs, modulus }
    }

    /// The zero polynomial of length `n`.
    #[must_use]
    pub fn zeroed(n: usize, modulus: Modulus) -> Self {
        Self {
            coeffs: vec![0u32; n],
            modulus,
        }
    }

    /// Number of coefficients (the ring dimension n).
    #[must_use]
    pub fn len(&self) -> usize {
        self.coeffs.len()
    }

    /// Whether the polynomial has no coefficients.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// The modulus context.
    #[must_use]
    pub fn modulus(&self) -> &Modulus {
        &self.modulus
    }

    /// The raw modulus value q.
    #[must_use]
    pub fn q(&self) -> u32 {
        self.modulus.value()
    }

    /// The coefficients as a slice (reduced, bit-reversed NTT order).
    #[must_use]
    pub fn as_slice(&self) -> &[u32] {
        &self.coeffs
    }

    /// Mutable access for crate-internal kernels that preserve reduction.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [u32] {
        &mut self.coeffs
    }

    /// Re-sizes this polynomial in place for parameter `n`/`modulus`,
    /// reusing the existing heap buffer when its capacity allows — the
    /// warm-up step of the `_into` paths.
    pub(crate) fn reset(&mut self, n: usize, modulus: Modulus) {
        // Steady state (length already right) skips the zero-fill: every
        // caller overwrites the full buffer before reading it back.
        if self.coeffs.len() != n {
            self.coeffs.clear();
            self.coeffs.resize(n, 0);
        }
        self.modulus = modulus;
    }

    /// Verifies `rhs` is a compatible operand (same ring).
    fn check_compatible(&self, rhs: &Self) -> Result<(), RlweError> {
        if self.coeffs.len() != rhs.coeffs.len() || self.modulus != rhs.modulus {
            return Err(RlweError::ParamMismatch);
        }
        Ok(())
    }

    /// `self ← self + rhs` — the same sum in either domain, since the NTT
    /// is linear (what [`crate::RlweContext::add_ciphertexts`] relies on).
    ///
    /// # Errors
    ///
    /// [`RlweError::ParamMismatch`] if lengths or moduli differ.
    pub fn add_assign(&mut self, rhs: &Self) -> Result<(), RlweError> {
        self.check_compatible(rhs)?;
        pointwise::add_assign(&mut self.coeffs, &rhs.coeffs, &self.modulus)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlwe_ntt::NttPlan;

    fn q() -> Modulus {
        Modulus::new(7681).unwrap()
    }

    fn demo(seed: u32) -> Vec<u32> {
        (0..64u32).map(|i| (i * seed + 1) % 7681).collect()
    }

    #[test]
    fn from_vec_validates_reduction() {
        assert!(Poly::from_vec(vec![0, 7680], q()).is_ok());
        let err = Poly::from_vec(vec![0, 7681], q()).unwrap_err();
        assert!(matches!(err, RlweError::Malformed { .. }));
    }

    #[test]
    fn mismatched_operands_error() {
        let mut x = Poly::from_vec(demo(3), q()).unwrap();
        let short = Poly::from_vec(vec![1, 2, 3], q()).unwrap();
        let other_q = Poly::zeroed(64, Modulus::new(12289).unwrap());
        assert!(matches!(
            x.add_assign(&short),
            Err(RlweError::ParamMismatch)
        ));
        assert!(matches!(
            x.add_assign(&other_q),
            Err(RlweError::ParamMismatch)
        ));
        assert_eq!(
            x.as_slice(),
            &demo(3)[..],
            "a refused operand leaves self as it was"
        );
    }

    #[test]
    fn add_assign_agrees_across_domains() {
        // Linearity: NTT(a + b) == NTT(a) + NTT(b), which is why adding
        // two ciphertexts' NTT-domain components adds their plaintexts.
        let plan = NttPlan::new(64, 7681).unwrap();
        let sum: Vec<u32> = demo(3)
            .iter()
            .zip(demo(19))
            .map(|(a, b)| (a + b) % 7681)
            .collect();
        let want = Poly::from_vec(plan.forward_copy(&sum), q()).unwrap();
        let mut got = Poly::from_vec(plan.forward_copy(&demo(3)), q()).unwrap();
        got.add_assign(&Poly::from_vec(plan.forward_copy(&demo(19)), q()).unwrap())
            .unwrap();
        assert_eq!(got, want);
    }
}
