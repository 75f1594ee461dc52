//! Coefficient-wise (NTT-domain) arithmetic.
//!
//! In the NTT domain ring multiplication collapses to these O(n) loops —
//! the "coefficient-wise polynomial multiplications" of the paper's
//! encryption/decryption flow (§II-C).
//!
//! Every entry point validates operand lengths and returns
//! [`NttError::LengthMismatch`] instead of panicking; the unchecked loop
//! bodies live in [`rlwe_zq::SliceOps`] so the `Poly` layer above shares
//! them. The `_into` variants write into caller-provided buffers and are
//! the allocation-free path the scheme's `_into` entry points use.
//!
//! All entry points are generic over the reduction strategy
//! ([`rlwe_zq::Reducer`]): passing `&Modulus` gives the runtime-Barrett
//! kernels, passing `&rlwe_zq::reduce::Q7681`/`Q12289` (or any plan's
//! [`crate::NttPlan::reducer`]) monomorphizes the loops with the paper's
//! primes as compile-time constants.

use rlwe_zq::{Reducer, SliceOps};

use crate::NttError;

/// Validates that every slice in `rest` has the same length as `first`.
fn check_lengths(first: usize, rest: &[usize]) -> Result<(), NttError> {
    for &len in rest {
        if len != first {
            return Err(NttError::LengthMismatch {
                expected: first,
                got: len,
            });
        }
    }
    Ok(())
}

/// Pointwise product `c[i] = a[i] · b[i] mod q`.
///
/// # Errors
///
/// [`NttError::LengthMismatch`] if the inputs differ in length.
///
/// # Example
///
/// ```
/// use rlwe_zq::Modulus;
///
/// let q = Modulus::new(7681).unwrap();
/// let c = rlwe_ntt::pointwise::mul(&[2, 3], &[4, 5], &q).unwrap();
/// assert_eq!(c, vec![8, 15]);
/// assert!(rlwe_ntt::pointwise::mul(&[2, 3], &[4], &q).is_err());
/// ```
pub fn mul<R: Reducer>(a: &[u32], b: &[u32], q: &R) -> Result<Vec<u32>, NttError> {
    check_lengths(a.len(), &[b.len()])?;
    let mut out = vec![0u32; a.len()];
    q.mul_into_slice(&mut out, a, b);
    Ok(out)
}

/// Allocation-free pointwise product: `out[i] = a[i] · b[i] mod q`.
///
/// # Errors
///
/// [`NttError::LengthMismatch`] if `b` or `out` differ in length from `a`.
pub fn mul_into<R: Reducer>(out: &mut [u32], a: &[u32], b: &[u32], q: &R) -> Result<(), NttError> {
    check_lengths(a.len(), &[b.len(), out.len()])?;
    q.mul_into_slice(out, a, b);
    Ok(())
}

/// Pointwise product of **lazy-domain** operands: inputs in `[0, 4q)`
/// congruent to the intended residues (exactly what
/// [`crate::NttPlan::forward_lazy`] produces); the outputs are canonical
/// `[0, q)`. This is how negacyclic multiplication skips the forward
/// transforms' normalization sweeps — the reduction of the wide product
/// absorbs them for free ([`rlwe_zq::Reducer::reduce_mul`]; the
/// generic-Barrett reducer tolerates any `u32` operands).
///
/// # Errors
///
/// [`NttError::LengthMismatch`] if the inputs differ in length.
pub fn mul_lazy<R: Reducer>(a: &[u32], b: &[u32], q: &R) -> Result<Vec<u32>, NttError> {
    check_lengths(a.len(), &[b.len()])?;
    let mut out = vec![0u32; a.len()];
    q.mul_into_slice_lazy(&mut out, a, b);
    Ok(out)
}

/// In-place lazy-domain pointwise product `a[i] ← a[i] · b[i] mod q`
/// (see [`mul_lazy`] for the operand contract).
///
/// # Errors
///
/// [`NttError::LengthMismatch`] if the inputs differ in length.
pub fn mul_lazy_assign<R: Reducer>(a: &mut [u32], b: &[u32], q: &R) -> Result<(), NttError> {
    check_lengths(a.len(), &[b.len()])?;
    q.mul_assign_slice_lazy(a, b);
    Ok(())
}

/// Pointwise sum `c[i] = a[i] + b[i] mod q`.
///
/// # Errors
///
/// [`NttError::LengthMismatch`] if the inputs differ in length.
pub fn add<R: Reducer>(a: &[u32], b: &[u32], q: &R) -> Result<Vec<u32>, NttError> {
    check_lengths(a.len(), &[b.len()])?;
    let mut out = vec![0u32; a.len()];
    q.add_into_slice(&mut out, a, b);
    Ok(out)
}

/// In-place pointwise sum `a[i] ← a[i] + b[i] mod q`.
///
/// # Errors
///
/// [`NttError::LengthMismatch`] if the inputs differ in length.
pub fn add_assign<R: Reducer>(a: &mut [u32], b: &[u32], q: &R) -> Result<(), NttError> {
    check_lengths(a.len(), &[b.len()])?;
    q.add_assign_slice(a, b);
    Ok(())
}

/// Pointwise difference `c[i] = a[i] − b[i] mod q`.
///
/// # Errors
///
/// [`NttError::LengthMismatch`] if the inputs differ in length.
pub fn sub<R: Reducer>(a: &[u32], b: &[u32], q: &R) -> Result<Vec<u32>, NttError> {
    check_lengths(a.len(), &[b.len()])?;
    let mut out = vec![0u32; a.len()];
    q.sub_into_slice(&mut out, a, b);
    Ok(out)
}

/// Allocation-free pointwise difference: `out[i] = a[i] − b[i] mod q`.
///
/// # Errors
///
/// [`NttError::LengthMismatch`] if `b` or `out` differ in length from `a`.
pub fn sub_into<R: Reducer>(out: &mut [u32], a: &[u32], b: &[u32], q: &R) -> Result<(), NttError> {
    check_lengths(a.len(), &[b.len(), out.len()])?;
    q.sub_into_slice(out, a, b);
    Ok(())
}

/// Fused multiply-add `c[i] = a[i] · b[i] + d[i] mod q` — the shape of the
/// ciphertext computations `ã∗ẽ₁ + ẽ₂` and `p̃∗ẽ₁ + NTT(e₃ + m̄)`.
///
/// # Errors
///
/// [`NttError::LengthMismatch`] if the inputs differ in length.
pub fn mul_add<R: Reducer>(a: &[u32], b: &[u32], d: &[u32], q: &R) -> Result<Vec<u32>, NttError> {
    check_lengths(a.len(), &[b.len(), d.len()])?;
    let mut out = d.to_vec();
    q.mul_add_assign_slice(&mut out, a, b);
    Ok(out)
}

/// In-place fused multiply-add `acc[i] ← a[i] · b[i] + acc[i] mod q` — the
/// allocation-free sibling of [`mul_add`] used by the `_into` scheme paths.
///
/// # Errors
///
/// [`NttError::LengthMismatch`] if the inputs differ in length.
pub fn mul_add_assign<R: Reducer>(
    acc: &mut [u32],
    a: &[u32],
    b: &[u32],
    q: &R,
) -> Result<(), NttError> {
    check_lengths(acc.len(), &[a.len(), b.len()])?;
    q.mul_add_assign_slice(acc, a, b);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlwe_zq::Modulus;

    fn q() -> Modulus {
        Modulus::new(7681).unwrap()
    }

    #[test]
    fn mul_add_composes_mul_and_add() {
        let m = q();
        let a = vec![5u32, 7000, 0, 7680];
        let b = vec![3u32, 7000, 100, 7680];
        let d = vec![1u32, 2, 3, 4];
        let fused = mul_add(&a, &b, &d, &m).unwrap();
        let manual = add(&mul(&a, &b, &m).unwrap(), &d, &m).unwrap();
        assert_eq!(fused, manual);
    }

    #[test]
    fn assign_variants_match_pure() {
        let m = q();
        let a = vec![5u32, 7000, 1, 7680];
        let b = vec![3u32, 42, 100, 7680];
        let mut ma = a.clone();
        mul_lazy_assign(&mut ma, &b, &m).unwrap();
        assert_eq!(ma, mul(&a, &b, &m).unwrap());
        let mut sa = a.clone();
        add_assign(&mut sa, &b, &m).unwrap();
        assert_eq!(sa, add(&a, &b, &m).unwrap());
        let mut acc = vec![9u32, 9, 9, 9];
        mul_add_assign(&mut acc, &a, &b, &m).unwrap();
        assert_eq!(acc, mul_add(&a, &b, &[9, 9, 9, 9], &m).unwrap());
    }

    #[test]
    fn into_variants_match_pure() {
        let m = q();
        let a = vec![5u32, 7000, 1, 7680];
        let b = vec![3u32, 42, 100, 7680];
        let mut out = vec![0u32; 4];
        mul_into(&mut out, &a, &b, &m).unwrap();
        assert_eq!(out, mul(&a, &b, &m).unwrap());
        sub_into(&mut out, &a, &b, &m).unwrap();
        assert_eq!(out, sub(&a, &b, &m).unwrap());
    }

    #[test]
    fn sub_inverts_add() {
        let m = q();
        let a = vec![5u32, 7000, 1, 7680];
        let b = vec![3u32, 42, 100, 7680];
        assert_eq!(sub(&add(&a, &b, &m).unwrap(), &b, &m).unwrap(), a);
    }

    #[test]
    fn length_mismatch_is_an_error_not_a_panic() {
        let m = q();
        assert!(matches!(
            mul(&[1, 2], &[1], &m),
            Err(NttError::LengthMismatch {
                expected: 2,
                got: 1
            })
        ));
        assert!(add(&[1], &[1, 2], &m).is_err());
        assert!(sub(&[1, 2, 3], &[1, 2], &m).is_err());
        assert!(mul_add(&[1, 2], &[1, 2], &[1], &m).is_err());
        let mut a = [1u32, 2];
        assert!(mul_lazy_assign(&mut a, &[1], &m).is_err());
        assert!(add_assign(&mut a, &[1, 2, 3], &m).is_err());
        let mut out = [0u32; 3];
        assert!(mul_into(&mut out, &[1, 2], &[1, 2], &m).is_err());
    }
}
