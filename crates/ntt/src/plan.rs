//! The [`NttPlan`]: precomputed twiddle tables plus the reference scalar
//! transforms.
//!
//! The butterflies are Harvey-style **lazy-reduction** kernels built on
//! `rlwe_zq::lazy`: forward coefficients travel in `[0, 4q)` across
//! stages (one masked correction + one lazy Shoup multiply per
//! butterfly, nothing else), inverse coefficients in `[0, 2q)`, and
//! canonical `[0, q)` is restored exactly once — the forward transform
//! in a final normalization sweep, the inverse inside its last stage,
//! where the `n⁻¹` post-scaling is folded into the butterfly (the
//! paper's merged-scaling trick, extended). Every residual conditional
//! subtraction is masked, so the transforms execute an input-independent
//! operation sequence; `forward_traced`/`inverse_traced` expose the
//! exact counts the leakage harness pins in CI.
//!
//! The plan is generic over its [`Reducer`]: `NttPlan` (the default,
//! `NttPlan<BarrettGeneric>`) carries the runtime modulus exactly as
//! before, while `NttPlan<Q7681>` / `NttPlan<Q12289>`
//! ([`NttPlan::with_reducer`]) monomorphize every butterfly with the
//! paper's primes as compile-time constants — same operation structure,
//! bit-identical outputs, immediate operands. [`crate::AnyNttPlan`]
//! performs the q-based selection once at the top.

use rlwe_zq::lazy;
use rlwe_zq::reduce::BarrettGeneric;
use rlwe_zq::shoup::ShoupPair;
use rlwe_zq::{Modulus, Reducer};

use crate::bitrev::bitrev;
use crate::error::NttError;
use crate::trace::{NoTrace, NttOpTrace, OpRecorder};

/// Precomputed context for n-point negacyclic NTTs modulo `q`.
///
/// Holds the merged-ψ twiddle tables (with Shoup companions, mirroring the
/// paper's precomputed twiddle LUT of §III-C) for both directions, plus the
/// scaling constant `n⁻¹` for the inverse.
///
/// The forward transform maps natural coefficient order to bit-reversed
/// "NTT domain" order; the inverse maps back. All NTT-domain values in this
/// suite (keys, ciphertexts) live in that bit-reversed order, so pointwise
/// products are consistent without any explicit permutation.
///
/// The type parameter selects the modular-reduction strategy (see
/// [`Reducer`]); it defaults to the runtime-Barrett [`BarrettGeneric`],
/// so plain `NttPlan` behaves exactly as it always has.
#[derive(Debug, Clone)]
pub struct NttPlan<R: Reducer = BarrettGeneric> {
    reducer: R,
    modulus: Modulus,
    n: usize,
    /// `psi_bitrev[i] = ψ^bitrev(i)` with Shoup companion — forward twiddles.
    psi_bitrev: Vec<ShoupPair>,
    /// `ipsi_bitrev[i] = ψ^(−bitrev(i))` with Shoup companion — inverse twiddles.
    ipsi_bitrev: Vec<ShoupPair>,
    /// `n⁻¹ mod q` as a Shoup pair for the inverse's merged final stage.
    n_inv: ShoupPair,
    /// `n⁻¹·ψ^(−bitrev(1))` — the last inverse stage's twiddle with the
    /// `n⁻¹` scaling folded in (the merged-scaling trick).
    ipsi1_n_inv: ShoupPair,
    /// `2q`, precomputed for the lazy butterflies.
    two_q: u32,
    /// Expanded per-lane twiddle tables for the AVX2 tail stages —
    /// `Some` only when the host reported AVX2 at construction and
    /// `n ≥ 16` (see [`crate::avx2`]).
    avx2: Option<crate::avx2::Avx2Tables>,
}

impl NttPlan {
    /// Builds a runtime-Barrett plan for dimension `n` (power of two,
    /// ≥ 4) and prime `q` with `q ≡ 1 (mod 2n)`.
    ///
    /// # Errors
    ///
    /// * [`NttError::InvalidDimension`] for a bad `n`.
    /// * [`NttError::NotNttFriendly`] when `2n ∤ q − 1`.
    /// * [`NttError::Modulus`] when `q` is not a usable prime.
    /// * [`NttError::ModulusTooLarge`] when `q ≥ 2³⁰`
    ///   ([`lazy::MAX_LAZY_Q`], the authoritative bound) — the
    ///   lazy-reduction butterflies track coefficients in `[0, 4q)`,
    ///   which must fit a 32-bit word.
    pub fn new(n: usize, q: u32) -> Result<Self, NttError> {
        if !n.is_power_of_two() || !(4..=1 << 20).contains(&n) {
            return Err(NttError::InvalidDimension { n });
        }
        if q >= lazy::MAX_LAZY_Q {
            return Err(NttError::ModulusTooLarge { q });
        }
        let modulus = Modulus::new(q)?;
        Self::with_reducer(n, modulus)
    }
}

impl<R: Reducer> NttPlan<R> {
    /// Builds a plan for dimension `n` over the given reducer — the
    /// monomorphizing constructor: `NttPlan::with_reducer(256,
    /// rlwe_zq::reduce::Q7681)` compiles the butterflies with `q = 7681`
    /// as an immediate constant.
    ///
    /// # Errors
    ///
    /// Same conditions as [`NttPlan::new`] (the reducer's prime already
    /// passed modulus validation, so only dimension, range and
    /// NTT-friendliness can fail here).
    pub fn with_reducer(n: usize, reducer: R) -> Result<Self, NttError> {
        if !n.is_power_of_two() || !(4..=1 << 20).contains(&n) {
            return Err(NttError::InvalidDimension { n });
        }
        let q = reducer.q();
        if q >= lazy::MAX_LAZY_Q {
            return Err(NttError::ModulusTooLarge { q });
        }
        let modulus = reducer.modulus();
        if !(q as u64 - 1).is_multiple_of(2 * n as u64) {
            return Err(NttError::NotNttFriendly { n, q });
        }
        let psi = modulus
            .root_of_unity(2 * n as u64)
            .map_err(NttError::Modulus)?;
        let psi_inv = modulus.inv(psi).expect("root of unity is a unit");
        let log_n = n.trailing_zeros();

        // psi^i and psi^-i for i in 0..n, then bit-reverse the indexing.
        let mut pw = vec![0u32; n];
        let mut ipw = vec![0u32; n];
        pw[0] = 1;
        ipw[0] = 1;
        for i in 1..n {
            pw[i] = modulus.mul(pw[i - 1], psi);
            ipw[i] = modulus.mul(ipw[i - 1], psi_inv);
        }
        let psi_bitrev: Vec<ShoupPair> = (0..n)
            .map(|i| ShoupPair::new(pw[bitrev(i, log_n)], q))
            .collect();
        let ipsi_bitrev: Vec<ShoupPair> = (0..n)
            .map(|i| ShoupPair::new(ipw[bitrev(i, log_n)], q))
            .collect();
        let n_inv_val = modulus.inv(n as u32).expect("n < q is a unit");
        let ipsi1_n_inv = ShoupPair::new(modulus.mul(ipsi_bitrev[1].value, n_inv_val), q);
        let avx2 = crate::avx2::Avx2Tables::build(n, &psi_bitrev, &ipsi_bitrev);
        Ok(Self {
            reducer,
            modulus,
            n,
            psi_bitrev,
            ipsi_bitrev,
            n_inv: ShoupPair::new(n_inv_val, q),
            ipsi1_n_inv,
            two_q: 2 * q,
            avx2,
        })
    }

    /// The ring dimension n.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The modulus context.
    #[inline]
    pub fn modulus(&self) -> &Modulus {
        &self.modulus
    }

    /// The reduction strategy this plan's kernels are monomorphized over.
    #[inline]
    pub fn reducer(&self) -> &R {
        &self.reducer
    }

    /// The raw modulus value q.
    #[inline]
    pub fn q(&self) -> u32 {
        self.reducer.q()
    }

    /// `n⁻¹ mod q`.
    #[inline]
    pub fn n_inv(&self) -> u32 {
        self.n_inv.value
    }

    /// `n⁻¹ mod q` as a Shoup pair — the merged final-stage sum-leg
    /// constant, exposed for the packed/parallel backends.
    #[inline]
    pub fn n_inv_pair(&self) -> ShoupPair {
        self.n_inv
    }

    /// `n⁻¹·ψ^(−bitrev(1))` as a Shoup pair — the merged final-stage
    /// difference-leg constant (inverse twiddle with the `n⁻¹` scaling
    /// folded in).
    #[inline]
    pub fn merged_inverse_twiddle(&self) -> ShoupPair {
        self.ipsi1_n_inv
    }

    /// `2q`, precomputed for the lazy butterflies.
    #[inline]
    pub fn two_q(&self) -> u32 {
        self.two_q
    }

    /// Forward twiddle table (`ψ^bitrev(i)` pairs) — exposed for the packed
    /// and parallel variants and for the M4F cost-model kernels.
    #[inline]
    pub fn forward_twiddles(&self) -> &[ShoupPair] {
        &self.psi_bitrev
    }

    /// Inverse twiddle table (`ψ^−bitrev(i)` pairs).
    #[inline]
    pub fn inverse_twiddles(&self) -> &[ShoupPair] {
        &self.ipsi_bitrev
    }

    /// The lazy forward stage ladder: all `log₂n` Cooley-Tukey stages with
    /// coefficients kept in `[0, 4q)` — no normalization.
    ///
    /// Each stage walks `m` blocks of `2t` coefficients through
    /// `chunks_exact_mut`/`split_at_mut`, so the inner loop carries no
    /// bounds checks; the twiddles come from the matching
    /// `psi_bitrev[m..2m]` window.
    #[inline(always)]
    fn forward_lazy_impl<Rec: OpRecorder>(&self, a: &mut [u32], rec: &mut Rec) {
        assert_eq!(a.len(), self.n, "polynomial length must equal n");
        let r = self.reducer;
        let q = r.q();
        let two_q = r.two_q();
        let mut t = self.n;
        let mut m = 1usize;
        while m < self.n {
            t >>= 1;
            let twiddles = &self.psi_bitrev[m..2 * m];
            for (block, s) in a.chunks_exact_mut(2 * t).zip(twiddles) {
                let (lo, hi) = block.split_at_mut(t);
                for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                    // Harvey butterfly: one masked correction brings the
                    // add leg back under 2q, the twiddle product lands in
                    // [0, 2q) with no correction at all, and both outputs
                    // re-enter the [0, 4q) stage invariant.
                    lazy::debug_assert_bound(*x, 4 * q as u64);
                    let u = r.reduce_once_2q(*x);
                    let v = s.mul_lazy(*y, q);
                    *x = lazy::add_lazy(u, v);
                    *y = lazy::sub_lazy(u, v, two_q);
                    rec.butterfly();
                    rec.masked_reduction();
                    rec.lazy_mul();
                }
            }
            m <<= 1;
        }
    }

    #[inline(always)]
    fn forward_impl<Rec: OpRecorder>(&self, a: &mut [u32], rec: &mut Rec) {
        self.forward_lazy_impl(a, rec);
        let r = self.reducer;
        for x in a.iter_mut() {
            *x = r.normalize4(*x);
            rec.normalization();
        }
    }

    /// In-place forward negacyclic NTT (Cooley-Tukey, decimation in time).
    ///
    /// Input: natural order, coefficients reduced mod q.
    /// Output: NTT domain in bit-reversed order, reduced mod q.
    ///
    /// The ψ powers are merged into the butterflies, so no separate
    /// pre-scaling pass is needed — this is the paper's `w = √w_m` trick
    /// (§II-C / Algorithm 3) in its standard in-place form. The stages run
    /// lazily (coefficients in `[0, 4q)`, see the module docs) and a final
    /// masked sweep restores `[0, q)`; use [`NttPlan::forward_lazy`] to
    /// skip that sweep when the consumer reduces anyway.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn forward(&self, a: &mut [u32]) {
        self.forward_impl(a, &mut NoTrace);
    }

    /// [`NttPlan::forward`] without the final normalization sweep: outputs
    /// lie in `[0, 4q)`, congruent mod q to the reduced transform.
    ///
    /// This is the right entry point when the next consumer reduces
    /// anyway — e.g. a pointwise product whose reduction accepts the
    /// lazy operand domain ([`crate::pointwise::mul_lazy_assign`]).
    /// Accepts lazy inputs in `[0, 4q)` as well, so lazy stages chain.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn forward_lazy(&self, a: &mut [u32]) {
        self.forward_lazy_impl(a, &mut NoTrace);
    }

    /// [`NttPlan::forward`] plus the exact operation counts — the hook the
    /// leakage harness's deterministic invariance tests assert on.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn forward_traced(&self, a: &mut [u32]) -> NttOpTrace {
        let mut trace = NttOpTrace::default();
        self.forward_impl(a, &mut trace);
        trace
    }

    #[inline(always)]
    fn inverse_impl<Rec: OpRecorder>(&self, a: &mut [u32], rec: &mut Rec) {
        assert_eq!(a.len(), self.n, "polynomial length must equal n");
        let r = self.reducer;
        let q = r.q();
        let two_q = r.two_q();
        let mut t = 1usize;
        let mut m = self.n;
        // Lazy Gentleman-Sande stages: coefficients stay in [0, 2q); the
        // sum leg takes one masked correction, the difference leg is
        // re-reduced to [0, 2q) by the lazy twiddle multiply itself.
        while m > 2 {
            let h = m >> 1;
            let twiddles = &self.ipsi_bitrev[h..2 * h];
            for (block, s) in a.chunks_exact_mut(2 * t).zip(twiddles) {
                let (lo, hi) = block.split_at_mut(t);
                for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                    lazy::debug_assert_bound(*x, 2 * q as u64);
                    lazy::debug_assert_bound(*y, 2 * q as u64);
                    let u = *x;
                    let v = *y;
                    *x = r.reduce_once_2q(lazy::add_lazy(u, v));
                    *y = s.mul_lazy(lazy::sub_lazy(u, v, two_q), q);
                    rec.butterfly();
                    rec.masked_reduction();
                    rec.lazy_mul();
                }
            }
            t <<= 1;
            m = h;
        }
        // Merged final stage: the n⁻¹ post-scaling is folded into the last
        // butterfly's twiddles (sum leg × n⁻¹, difference leg ×
        // n⁻¹·ψ^(−bitrev(1))) and the outputs are normalized to [0, q) on
        // the way out — no separate scaling pass.
        debug_assert_eq!(t, self.n / 2);
        let (lo, hi) = a.split_at_mut(t);
        for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
            let u = *x;
            let v = *y;
            *x = r.reduce_once(self.n_inv.mul_lazy(lazy::add_lazy(u, v), q));
            *y = r.reduce_once(self.ipsi1_n_inv.mul_lazy(lazy::sub_lazy(u, v, two_q), q));
            rec.butterfly();
            rec.lazy_mul();
            rec.lazy_mul();
            rec.normalization();
            rec.normalization();
        }
    }

    /// In-place inverse negacyclic NTT (Gentleman-Sande, decimation in
    /// frequency), including the `n⁻¹` post-scaling — folded into the
    /// final stage's twiddles rather than run as a separate pass.
    ///
    /// Input: NTT domain in bit-reversed order, reduced mod q.
    /// Output: natural order coefficients, reduced mod q.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn inverse(&self, a: &mut [u32]) {
        self.inverse_impl(a, &mut NoTrace);
    }

    /// [`NttPlan::inverse`] plus the exact operation counts — the hook the
    /// leakage harness's deterministic invariance tests assert on.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn inverse_traced(&self, a: &mut [u32]) -> NttOpTrace {
        let mut trace = NttOpTrace::default();
        self.inverse_impl(a, &mut trace);
        trace
    }

    /// Convenience: forward-transforms a copy of `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn forward_copy(&self, a: &[u32]) -> Vec<u32> {
        let mut out = a.to_vec();
        self.forward(&mut out);
        out
    }

    /// Convenience: inverse-transforms a copy of `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn inverse_copy(&self, a: &[u32]) -> Vec<u32> {
        let mut out = a.to_vec();
        self.inverse(&mut out);
        out
    }

    /// Re-tags an already-built plan with another reducer for the same
    /// modulus, moving the twiddle tables instead of recomputing them —
    /// how [`crate::AnyNttPlan`] upgrades a generic plan to a
    /// specialized instantiation without a second construction.
    pub(crate) fn retag<R2: Reducer>(self, reducer: R2) -> NttPlan<R2> {
        debug_assert_eq!(reducer.q(), self.q(), "retag must preserve the modulus");
        NttPlan {
            reducer,
            modulus: self.modulus,
            n: self.n,
            psi_bitrev: self.psi_bitrev,
            ipsi_bitrev: self.ipsi_bitrev,
            n_inv: self.n_inv,
            ipsi1_n_inv: self.ipsi1_n_inv,
            two_q: self.two_q,
            avx2: self.avx2,
        }
    }

    /// The AVX2 tail-stage tables, when this plan carries them.
    #[inline]
    pub(crate) fn avx2_tables(&self) -> Option<&crate::avx2::Avx2Tables> {
        self.avx2.as_ref()
    }

    /// Validates a polynomial length against the plan.
    #[inline]
    pub(crate) fn check_len(&self, len: usize) -> Result<(), NttError> {
        if len != self.n {
            return Err(NttError::LengthMismatch {
                expected: self.n,
                got: len,
            });
        }
        Ok(())
    }

    /// Full negacyclic polynomial multiplication via the NTT
    /// (2 forward transforms + pointwise product + 1 inverse — the
    /// "NTT multiplication" row of the paper's Table I).
    ///
    /// Both forward transforms run **lazily** (`[0, 4q)` outputs, no
    /// normalization sweep): the pointwise product's reduction accepts
    /// the unreduced operands directly, so the 2n per-transform
    /// normalizations are skipped entirely.
    ///
    /// # Panics
    ///
    /// Panics if either input's length differs from n.
    pub fn negacyclic_mul(&self, a: &[u32], b: &[u32]) -> Vec<u32> {
        let mut fa = a.to_vec();
        let mut fb = b.to_vec();
        self.forward_lazy(&mut fa);
        self.forward_lazy(&mut fb);
        let mut c = crate::pointwise::mul_lazy(&fa, &fb, &self.reducer)
            .expect("forward transforms preserve length");
        self.inverse(&mut c);
        c
    }

    /// Allocation-free negacyclic multiplication: `out ← a ⋆ b`, borrowing
    /// working space from `scratch`.
    ///
    /// Like [`NttPlan::negacyclic_mul`], the two forward transforms stay
    /// in the lazy domain and the pointwise reduction absorbs the
    /// normalization; the output is reduced (the inverse normalizes in
    /// its merged final stage).
    ///
    /// # Errors
    ///
    /// [`NttError::LengthMismatch`] if `a`, `b`, `out` or the scratch
    /// arena's length differ from `n`.
    pub fn negacyclic_mul_into(
        &self,
        a: &[u32],
        b: &[u32],
        out: &mut [u32],
        scratch: &mut crate::PolyScratch,
    ) -> Result<(), NttError> {
        self.check_len(a.len())?;
        self.check_len(b.len())?;
        self.check_len(out.len())?;
        self.check_len(scratch.n())?;
        let mut fa = scratch.take();
        // out doubles as the second transform buffer: b̂ lands in it, the
        // pointwise product overwrites it, the inverse finishes in place.
        fa.copy_from_slice(a);
        self.forward_lazy(&mut fa);
        out.copy_from_slice(b);
        self.forward_lazy(out);
        crate::pointwise::mul_lazy_assign(out, &fa, &self.reducer)?;
        self.inverse(out);
        scratch.put(fa);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlwe_zq::reduce::{Q12289, Q7681};

    #[test]
    fn rejects_bad_dimensions() {
        assert!(matches!(
            NttPlan::new(0, 7681),
            Err(NttError::InvalidDimension { .. })
        ));
        assert!(matches!(
            NttPlan::new(3, 7681),
            Err(NttError::InvalidDimension { .. })
        ));
        assert!(matches!(
            NttPlan::new(96, 7681),
            Err(NttError::InvalidDimension { .. })
        ));
        assert!(matches!(
            NttPlan::with_reducer(96, Q7681),
            Err(NttError::InvalidDimension { .. })
        ));
    }

    #[test]
    fn rejects_unfriendly_modulus() {
        // 7681 ≡ 1 mod 512 but not mod 4096 (7680 = 2^9 * 15).
        assert!(NttPlan::new(256, 7681).is_ok());
        assert!(matches!(
            NttPlan::new(2048, 7681),
            Err(NttError::NotNttFriendly { .. })
        ));
        assert!(matches!(
            NttPlan::with_reducer(2048, Q7681),
            Err(NttError::NotNttFriendly { .. })
        ));
        assert!(matches!(
            NttPlan::new(256, 7687), // prime, but 7686 = 2 * 3 * 3 * 7 * 61
            Err(NttError::NotNttFriendly { .. })
        ));
    }

    #[test]
    fn forward_inverse_round_trip_p1() {
        let plan = NttPlan::new(256, 7681).unwrap();
        let orig: Vec<u32> = (0..256u32).map(|i| (i * 31 + 5) % 7681).collect();
        let mut a = orig.clone();
        plan.forward(&mut a);
        assert_ne!(a, orig, "transform must not be the identity");
        plan.inverse(&mut a);
        assert_eq!(a, orig);
    }

    #[test]
    fn forward_inverse_round_trip_p2() {
        let plan = NttPlan::new(512, 12289).unwrap();
        let orig: Vec<u32> = (0..512u32).map(|i| (i * 97 + 3) % 12289).collect();
        let mut a = orig.clone();
        plan.forward(&mut a);
        plan.inverse(&mut a);
        assert_eq!(a, orig);
    }

    #[test]
    fn specialized_plans_are_bit_identical_to_generic() {
        // The reducer changes how x mod q is computed, never the value:
        // the specialized plans must agree with the runtime-Barrett plan
        // on every entry point, including the all-(q−1) worst case.
        let gp1 = NttPlan::new(256, 7681).unwrap();
        let sp1 = NttPlan::with_reducer(256, Q7681).unwrap();
        let gp2 = NttPlan::new(512, 12289).unwrap();
        let sp2 = NttPlan::with_reducer(512, Q12289).unwrap();

        let a1: Vec<u32> = (0..256u32).map(|i| (i * 31 + 5) % 7681).collect();
        let worst1 = vec![7680u32; 256];
        for v in [&a1, &worst1] {
            assert_eq!(sp1.forward_copy(v), gp1.forward_copy(v));
            assert_eq!(sp1.inverse_copy(v), gp1.inverse_copy(v));
            assert_eq!(
                sp1.negacyclic_mul(v, &a1),
                gp1.negacyclic_mul(v, &a1),
                "negacyclic"
            );
        }
        let a2: Vec<u32> = (0..512u32).map(|i| (i * 97 + 3) % 12289).collect();
        let worst2 = vec![12288u32; 512];
        for v in [&a2, &worst2] {
            assert_eq!(sp2.forward_copy(v), gp2.forward_copy(v));
            assert_eq!(sp2.inverse_copy(v), gp2.inverse_copy(v));
        }
    }

    #[test]
    fn transform_is_linear() {
        let plan = NttPlan::new(64, 7681).unwrap();
        let q = 7681;
        let a: Vec<u32> = (0..64u32).map(|i| (i * 11 + 2) % q).collect();
        let b: Vec<u32> = (0..64u32).map(|i| (i * 29 + 7) % q).collect();
        let sum: Vec<u32> = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| rlwe_zq::add_mod(x, y, q))
            .collect();
        let fa = plan.forward_copy(&a);
        let fb = plan.forward_copy(&b);
        let fsum = plan.forward_copy(&sum);
        let expect: Vec<u32> = fa
            .iter()
            .zip(&fb)
            .map(|(&x, &y)| rlwe_zq::add_mod(x, y, q))
            .collect();
        assert_eq!(fsum, expect);
    }

    #[test]
    fn constant_polynomial_transforms_to_constant_vector() {
        // NTT of c·x⁰: every evaluation point sees the constant c.
        let plan = NttPlan::new(16, 12289).unwrap();
        let mut a = vec![0u32; 16];
        a[0] = 42;
        plan.forward(&mut a);
        assert!(a.iter().all(|&v| v == 42));
    }

    #[test]
    fn multiplying_by_x_matches_negacyclic_shift() {
        // x^(n-1) * x = x^n = -1 in R_q.
        let n = 32;
        let q = 12289;
        let plan = NttPlan::new(n, q).unwrap();
        let mut a = vec![0u32; n];
        a[n - 1] = 1; // x^(n-1)
        let mut x = vec![0u32; n];
        x[1] = 1; // x
        let c = plan.negacyclic_mul(&a, &x);
        let mut want = vec![0u32; n];
        want[0] = q - 1; // -1
        assert_eq!(c, want);
    }

    #[test]
    fn works_for_many_dimensions() {
        // 12289 = 1 + 3 * 2^12: supports every n up to 2048.
        for n in [4usize, 8, 16, 64, 256, 1024, 2048] {
            let plan = NttPlan::new(n, 12289).unwrap();
            let spec = NttPlan::with_reducer(n, Q12289).unwrap();
            let orig: Vec<u32> = (0..n as u32).map(|i| (i * 7 + 1) % 12289).collect();
            let mut a = orig.clone();
            plan.forward(&mut a);
            assert_eq!(a, spec.forward_copy(&orig), "specialized diverged n={n}");
            plan.inverse(&mut a);
            assert_eq!(a, orig, "round trip failed at n={n}");
        }
    }
}
