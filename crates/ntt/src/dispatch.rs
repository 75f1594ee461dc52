//! [`AnyNttPlan`]: the one-shot dispatch point between the specialized
//! and generic NTT plans.
//!
//! The kernels in this crate are generic over [`Reducer`], so the paper's
//! P1/P2 moduli compile into fully monomorphized transforms with
//! immediate constants. Something still has to pick the instantiation at
//! runtime from a `(n, q)` pair — exactly once, at construction, never
//! inside a kernel. `AnyNttPlan` is that single dispatch point: an enum
//! over the three sealed reducer instantiations, selected by
//! [`AnyNttPlan::new`] (`q = 7681 → Q7681`, `q = 12289 → Q12289`,
//! anything else → the runtime-Barrett fallback).
//!
//! `rlwe-core`'s `RlweContext` stores one of these and matches on its
//! variants to monomorphize each scheme operation; the variant actually
//! selected is observable via [`AnyNttPlan::kind`], which CI pins for
//! P1/P2. The methods here are the transforms that callers holding only
//! the enum run: the serving pair (`forward_avx2`/`inverse_avx2`), the
//! scalar reference (`forward`/`inverse`) and the traced kernels the
//! leakage gates count. Everything else lives on the typed [`NttPlan`].

use rlwe_zq::reduce::{BarrettGeneric, Q12289, Q7681};
#[cfg(doc)]
use rlwe_zq::Reducer;
use rlwe_zq::ReducerKind;

use crate::error::NttError;
use crate::plan::NttPlan;
use crate::trace::NttOpTrace;

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

    /// In-place forward NTT through the selected instantiation.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn forward(&self, a: &mut [u32]) {
        with_plan!(self, |p| p.forward(a))
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
        for (n, q) in [(256usize, 7681u32), (512, 12289), (256, 8383489)] {
            let any = AnyNttPlan::new(n, q).unwrap();
            let generic = NttPlan::new(n, q).unwrap();
            let a: Vec<u32> = (0..n as u32).map(|i| (i * 13 + 7) % q).collect();
            let want_fwd = generic.forward_copy(&a);
            let want_inv = generic.inverse_copy(&a);

            let mut x = a.clone();
            any.forward(&mut x);
            assert_eq!(x, want_fwd, "forward, q = {q}");
            any.inverse(&mut x);
            assert_eq!(x, a, "inverse, q = {q}");

            let mut x = a.clone();
            let fwd_trace = any.forward_traced(&mut x);
            assert_eq!(x, want_fwd, "forward_traced, q = {q}");
            assert_eq!(fwd_trace, NttOpTrace::expected_forward(n));
            let mut x = a.clone();
            let inv_trace = any.inverse_traced(&mut x);
            assert_eq!(x, want_inv, "inverse_traced, q = {q}");
            assert_eq!(inv_trace, NttOpTrace::expected_inverse(n));

            assert_eq!(any.has_avx2(), generic.has_avx2());
            let mut x = a.clone();
            any.forward_avx2(&mut x);
            assert_eq!(x, want_fwd, "forward_avx2, q = {q}");
            let mut x = a.clone();
            any.inverse_avx2(&mut x);
            assert_eq!(x, want_inv, "inverse_avx2, q = {q}");
        }
    }
}
