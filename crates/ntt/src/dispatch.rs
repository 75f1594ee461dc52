//! [`AnyNttPlan`]: the one-shot dispatch point between the specialized
//! and generic NTT plans.
//!
//! The kernels in this crate are generic over [`Reducer`], so the paper's
//! P1/P2 moduli compile into fully monomorphized transforms with
//! immediate constants. Something still has to pick the instantiation at
//! runtime from a `(n, q)` pair — exactly once, at construction, never
//! inside a kernel. `AnyNttPlan` is that single dispatch point: an enum
//! over the three sealed reducer instantiations with the same call
//! surface as [`NttPlan`], selected by [`AnyNttPlan::new`]
//! (`q = 7681 → Q7681`, `q = 12289 → Q12289`, anything else → the
//! runtime-Barrett fallback).
//!
//! `rlwe-core`'s `RlweContext` stores one of these and forwards every
//! transform through it; the variant actually selected is observable via
//! [`AnyNttPlan::kind`], which CI pins for P1/P2.

use rlwe_zq::reduce::{BarrettGeneric, Q12289, Q7681};
#[cfg(doc)]
use rlwe_zq::Reducer;
use rlwe_zq::{Modulus, ReducerKind};

use crate::error::NttError;
use crate::plan::NttPlan;
use crate::trace::NttOpTrace;
use crate::PolyScratch;

/// An [`NttPlan`] over whichever [`Reducer`] matches its modulus —
/// specialized for the paper's primes, runtime Barrett otherwise.
///
/// # Example
///
/// ```
/// use rlwe_ntt::AnyNttPlan;
/// use rlwe_zq::ReducerKind;
///
/// # fn main() -> Result<(), rlwe_ntt::NttError> {
/// let p1 = AnyNttPlan::new(256, 7681)?;
/// assert_eq!(p1.kind(), ReducerKind::Q7681);
/// let other = AnyNttPlan::new(256, 8383489)?;
/// assert_eq!(other.kind(), ReducerKind::Barrett);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub enum AnyNttPlan {
    /// The monomorphized `q = 7681` plan (parameter set P1).
    Q7681(NttPlan<Q7681>),
    /// The monomorphized `q = 12289` plan (parameter set P2).
    Q12289(NttPlan<Q12289>),
    /// The runtime-Barrett plan for every other prime.
    Generic(NttPlan<BarrettGeneric>),
}

/// Runs `$body` with `$p` bound to the variant's typed plan — each arm
/// monomorphizes separately, so the expansion *is* the dispatch.
macro_rules! with_plan {
    ($self:expr, |$p:ident| $body:expr) => {
        match $self {
            AnyNttPlan::Q7681($p) => $body,
            AnyNttPlan::Q12289($p) => $body,
            AnyNttPlan::Generic($p) => $body,
        }
    };
}

impl AnyNttPlan {
    /// Builds the plan for `(n, q)`, selecting the specialized reducer
    /// when `q` is one of the paper's primes.
    ///
    /// # Errors
    ///
    /// Exactly those of [`NttPlan::new`] — selection never changes which
    /// `(n, q)` pairs are accepted.
    pub fn new(n: usize, q: u32) -> Result<Self, NttError> {
        Ok(Self::promote(NttPlan::new(n, q)?))
    }

    /// Wraps an already-built generic plan, upgrading it to the
    /// specialized instantiation when its modulus is one of the paper's
    /// primes. The twiddle tables are moved, not recomputed — callers
    /// that already hold a generic plan (e.g. `RlweContext`, which keeps
    /// one for its `plan()` accessor) pay no second construction.
    pub fn promote(plan: NttPlan) -> Self {
        match plan.q() {
            Q7681::Q => AnyNttPlan::Q7681(plan.retag(Q7681)),
            Q12289::Q => AnyNttPlan::Q12289(plan.retag(Q12289)),
            _ => AnyNttPlan::Generic(plan),
        }
    }

    /// [`AnyNttPlan::promote`], for callers that still pass an NTT-backend
    /// label. The label is ignored: `rlwe_build_info` alone names the NTT
    /// and reducer a serving context runs.
    pub fn promote_for_backend(plan: NttPlan, _backend: &str) -> Self {
        Self::promote(plan)
    }

    /// Which reducer instantiation this plan dispatches to.
    #[inline]
    pub fn kind(&self) -> ReducerKind {
        match self {
            AnyNttPlan::Q7681(_) => ReducerKind::Q7681,
            AnyNttPlan::Q12289(_) => ReducerKind::Q12289,
            AnyNttPlan::Generic(_) => ReducerKind::Barrett,
        }
    }

    /// The ring dimension n.
    #[inline]
    pub fn n(&self) -> usize {
        with_plan!(self, |p| p.n())
    }

    /// log₂(n).
    #[inline]
    pub fn log_n(&self) -> u32 {
        with_plan!(self, |p| p.log_n())
    }

    /// The raw modulus value q.
    #[inline]
    pub fn q(&self) -> u32 {
        with_plan!(self, |p| p.q())
    }

    /// The modulus context.
    #[inline]
    pub fn modulus(&self) -> &Modulus {
        with_plan!(self, |p| p.modulus())
    }

    /// The 2n-th primitive root ψ used by this plan.
    #[inline]
    pub fn psi(&self) -> u32 {
        with_plan!(self, |p| p.psi())
    }

    /// `n⁻¹ mod q`.
    #[inline]
    pub fn n_inv(&self) -> u32 {
        with_plan!(self, |p| p.n_inv())
    }

    /// `2q`, precomputed for the lazy butterflies.
    #[inline]
    pub fn two_q(&self) -> u32 {
        with_plan!(self, |p| p.two_q())
    }

    /// Forward twiddle table (identical across reducers).
    #[inline]
    pub fn forward_twiddles(&self) -> &[rlwe_zq::shoup::ShoupPair] {
        with_plan!(self, |p| p.forward_twiddles())
    }

    /// Inverse twiddle table (identical across reducers).
    #[inline]
    pub fn inverse_twiddles(&self) -> &[rlwe_zq::shoup::ShoupPair] {
        with_plan!(self, |p| p.inverse_twiddles())
    }

    /// In-place forward NTT through the selected instantiation.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn forward(&self, a: &mut [u32]) {
        with_plan!(self, |p| p.forward(a))
    }

    /// Forward NTT without the final normalization sweep (`[0, 4q)`
    /// outputs).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn forward_lazy(&self, a: &mut [u32]) {
        with_plan!(self, |p| p.forward_lazy(a))
    }

    /// In-place inverse NTT through the selected instantiation.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn inverse(&self, a: &mut [u32]) {
        with_plan!(self, |p| p.inverse(a))
    }

    /// Forward transform with exact operation counts (see
    /// [`NttPlan::forward_traced`]).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn forward_traced(&self, a: &mut [u32]) -> NttOpTrace {
        with_plan!(self, |p| p.forward_traced(a))
    }

    /// Inverse transform with exact operation counts (see
    /// [`NttPlan::inverse_traced`]).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn inverse_traced(&self, a: &mut [u32]) -> NttOpTrace {
        with_plan!(self, |p| p.inverse_traced(a))
    }

    /// Convenience: forward-transforms a copy of `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn forward_copy(&self, a: &[u32]) -> Vec<u32> {
        with_plan!(self, |p| p.forward_copy(a))
    }

    /// Convenience: inverse-transforms a copy of `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn inverse_copy(&self, a: &[u32]) -> Vec<u32> {
        with_plan!(self, |p| p.inverse_copy(a))
    }

    /// Negacyclic polynomial multiplication through the selected
    /// instantiation.
    ///
    /// # Panics
    ///
    /// Panics if either input's length differs from n.
    pub fn negacyclic_mul(&self, a: &[u32], b: &[u32]) -> Vec<u32> {
        with_plan!(self, |p| p.negacyclic_mul(a, b))
    }

    /// Allocation-free negacyclic multiplication (see
    /// [`NttPlan::negacyclic_mul_into`]).
    ///
    /// # Errors
    ///
    /// [`NttError::LengthMismatch`] if any operand length differs from
    /// `n`.
    pub fn negacyclic_mul_into(
        &self,
        a: &[u32],
        b: &[u32],
        out: &mut [u32],
        scratch: &mut PolyScratch,
    ) -> Result<(), NttError> {
        with_plan!(self, |p| p.negacyclic_mul_into(a, b, out, scratch))
    }

    /// Whether the selected plan carries AVX2 twiddle tables (host
    /// support detected at construction and `n ≥ 16`). See
    /// [`NttPlan::has_avx2`].
    #[inline]
    pub fn has_avx2(&self) -> bool {
        with_plan!(self, |p| p.has_avx2())
    }

    /// Forward NTT through the AVX2 kernel when available, the scalar
    /// reference otherwise — bit-identical either way (see
    /// [`NttPlan::forward_avx2`]).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn forward_avx2(&self, a: &mut [u32]) {
        with_plan!(self, |p| p.forward_avx2(a))
    }

    /// Inverse NTT through the AVX2 kernel when available (see
    /// [`NttPlan::inverse_avx2`]).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn inverse_avx2(&self, a: &mut [u32]) {
        with_plan!(self, |p| p.inverse_avx2(a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selects_the_specialized_variant_for_the_paper_primes() {
        assert_eq!(
            AnyNttPlan::new(256, 7681).unwrap().kind(),
            ReducerKind::Q7681
        );
        assert_eq!(
            AnyNttPlan::new(512, 12289).unwrap().kind(),
            ReducerKind::Q12289
        );
        // Same prime, non-paper dimension: specialization is by q alone.
        assert_eq!(
            AnyNttPlan::new(1024, 12289).unwrap().kind(),
            ReducerKind::Q12289
        );
        assert_eq!(
            AnyNttPlan::new(256, 8383489).unwrap().kind(),
            ReducerKind::Barrett
        );
    }

    #[test]
    fn avx2_entry_points_are_bit_identical_through_the_dispatcher() {
        let any = AnyNttPlan::new(512, 12289).unwrap();
        let generic = NttPlan::new(512, 12289).unwrap();
        let a: Vec<u32> = (0..512u32).map(|i| (i * 131 + 5) % 12289).collect();
        let mut via_avx2 = a.clone();
        any.forward_avx2(&mut via_avx2);
        assert_eq!(via_avx2, generic.forward_copy(&a));
        any.inverse_avx2(&mut via_avx2);
        assert_eq!(via_avx2, a);
    }

    #[test]
    fn selection_preserves_error_behaviour() {
        assert!(matches!(
            AnyNttPlan::new(3, 7681),
            Err(NttError::InvalidDimension { .. })
        ));
        assert!(matches!(
            AnyNttPlan::new(2048, 7681),
            Err(NttError::NotNttFriendly { .. })
        ));
        assert!(matches!(
            AnyNttPlan::new(256, 1 << 30),
            Err(NttError::ModulusTooLarge { .. })
        ));
    }

    #[test]
    fn dispatched_transforms_match_the_generic_plan() {
        for (n, q) in [(256usize, 7681u32), (512, 12289)] {
            let any = AnyNttPlan::new(n, q).unwrap();
            let generic = NttPlan::new(n, q).unwrap();
            assert_eq!(any.n(), n);
            assert_eq!(any.q(), q);
            assert_eq!(any.forward_twiddles(), generic.forward_twiddles());
            let a: Vec<u32> = (0..n as u32).map(|i| (i * 13 + 7) % q).collect();
            assert_eq!(any.forward_copy(&a), generic.forward_copy(&a));
            assert_eq!(any.inverse_copy(&a), generic.inverse_copy(&a));
            let b: Vec<u32> = (0..n as u32).map(|i| (i * 5 + 1) % q).collect();
            assert_eq!(any.negacyclic_mul(&a, &b), generic.negacyclic_mul(&a, &b));
            let mut out = vec![0u32; n];
            let mut scratch = PolyScratch::new(n);
            any.negacyclic_mul_into(&a, &b, &mut out, &mut scratch)
                .unwrap();
            assert_eq!(out, generic.negacyclic_mul(&a, &b));
        }
    }
}
