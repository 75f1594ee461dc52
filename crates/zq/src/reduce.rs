//! The [`Reducer`] trait: the modular-reduction strategy as a
//! *monomorphizable* type parameter.
//!
//! The DATE 2015 paper never performs generic modular reduction: it
//! exploits the special forms of its two moduli,
//!
//! * `q = 7681  = 2¹³ − 2⁹  + 1` (parameter set P1), and
//! * `q = 12289 = 2¹⁴ − 2¹² + 1` (parameter set P2),
//!
//! to replace wide divisions with shift-add folds and word-sized constant
//! multiplies baked into the kernels. Our stack historically routed every
//! operation through the runtime [`Modulus`] (a 64→128-bit Barrett
//! reduction whose reciprocal is loaded from memory), so the hottest
//! multiplies paid a generic reduction tail. This module names the
//! reduction strategy as a sealed trait with three implementations:
//!
//! * [`Q7681`] and [`Q12289`] — compile-time-constant reducers for the
//!   paper's primes. Every constant (`q`, `2q`, the folded reciprocal)
//!   is an associated `const`, so kernels generic over `R: Reducer`
//!   monomorphize into straight-line code with immediate operands, and
//!   the special-form shift-add fold (`2^A ≡ 2^B − 1 (mod q)`) replaces
//!   one of the two masked corrections in the normalization tail.
//! * [`BarrettGeneric`] — the existing runtime [`Modulus`], unchanged:
//!   the fallback for arbitrary primes (the bench/bigfix/`q = 8383489`
//!   paths, and every experiment beyond P1/P2).
//!
//! All implementations compute the *same function* — bit-identical
//! outputs on the shared operand domains (property-tested in
//! `crates/zq/tests/reducers.rs`) — and preserve the masked,
//! branch-free discipline of [`crate::lazy`]: no operation in this
//! module branches on a coefficient value.
//!
//! # Why hard-coding these two primes is safe
//!
//! Specializing q=7681/q=12289 does not narrow the security of the
//! scheme relative to the runtime path: the hardness of the underlying
//! Ring-LWE instances depends on the ring and error distribution, not on
//! how `x mod q` is computed. The known structured-modulus attacks
//! (Elias–Lauter–Ozman–Stange, *Provably weak instances of Ring-LWE*,
//! and Stange, *Algebraic aspects of solving Ring-LWE* — see PAPERS.md)
//! target special *number fields and error shapes*, not special-form
//! moduli; the power-of-two cyclotomics with spherical Gaussian errors
//! used here are exactly the instances those papers classify as outside
//! their weak families. DESIGN.md §7 carries the full argument.

use crate::lazy;
use crate::Modulus;

/// Which [`Reducer`] implementation a kernel was monomorphized over —
/// the tag the dispatch layers (`rlwe_ntt::AnyNttPlan`,
/// `rlwe_core::RlweContext`) expose so tests can assert that the
/// specialized plans are actually selected for P1/P2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReducerKind {
    /// Runtime Barrett reduction over an arbitrary prime ([`Modulus`]).
    Barrett,
    /// The compile-time `q = 7681` reducer ([`Q7681`]).
    Q7681,
    /// The compile-time `q = 12289` reducer ([`Q12289`]).
    Q12289,
}

impl ReducerKind {
    /// Stable lowercase identifier for use as a metric label value (the
    /// `reducer` label of `rlwe_build_info`). Unlike the `Display`
    /// rendering this never contains spaces or `=`.
    pub fn label(self) -> &'static str {
        match self {
            ReducerKind::Barrett => "barrett",
            ReducerKind::Q7681 => "q7681",
            ReducerKind::Q12289 => "q12289",
        }
    }
}

impl std::fmt::Display for ReducerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReducerKind::Barrett => write!(f, "generic Barrett"),
            ReducerKind::Q7681 => write!(f, "specialized q=7681"),
            ReducerKind::Q12289 => write!(f, "specialized q=12289"),
        }
    }
}

mod private {
    /// Seals [`super::Reducer`]: the three implementations in this module
    /// are the complete set, so dispatch enums stay exhaustive.
    pub trait Sealed {}
}

/// A modular-reduction strategy for one fixed prime `q < 2³⁰`.
///
/// The trait mirrors the eager + lazy + masked surface of
/// [`crate::lazy`]: callers track the same `[0, q)` / `[0, 2q)` /
/// `[0, 4q)` coefficient domains, and every method executes an
/// input-independent operation sequence (no branches, no cmov reliance).
/// Kernels written against `R: Reducer` monomorphize per implementation,
/// so the specialized types compile to code with immediate constants.
///
/// # Bound invariants
///
/// | method | operand domain | result domain |
/// |---|---|---|
/// | [`reduce_u64`](Reducer::reduce_u64) | any `u64` | `[0, q)` |
/// | [`reduce_mul`](Reducer::reduce_mul) | lazy: both `< 4q` | `[0, q)` |
/// | [`mul`](Reducer::mul) | reduced: both `< q` | `[0, q)` |
/// | [`mul_add`](Reducer::mul_add) | reduced: all `< q` | `[0, q)` |
/// | [`add`](Reducer::add) / [`sub`](Reducer::sub) / [`neg`](Reducer::neg) | reduced | `[0, q)` |
/// | [`reduce_once`](Reducer::reduce_once) | `[0, 2q)` | `[0, q)` |
/// | [`reduce_once_2q`](Reducer::reduce_once_2q) | `[0, 4q)` | `[0, 2q)` |
/// | [`normalize4`](Reducer::normalize4) | `[0, 4q)` | `[0, q)` |
///
/// Debug builds assert every operand domain; release builds execute the
/// identical masked sequence with no checks (the [`crate::lazy`]
/// discipline). [`BarrettGeneric`] accepts any `u32` operands in
/// [`reduce_mul`](Reducer::reduce_mul) (a superset of the contract); the
/// specialized reducers require the documented `[0, 4q)` lazy domain so
/// the product fits 32 bits — which their `4q < 2¹⁶` moduli guarantee
/// for every value a lazy NTT can produce.
///
/// This trait is **sealed**: [`Q7681`], [`Q12289`] and
/// [`BarrettGeneric`] are the only implementations.
pub trait Reducer: private::Sealed + Copy + std::fmt::Debug + Send + Sync + 'static {
    /// The dispatch tag for this implementation.
    const KIND: ReducerKind;

    /// The prime modulus `q`.
    fn q(&self) -> u32;

    /// `2q`, the lazy-domain corrector.
    #[inline(always)]
    fn two_q(&self) -> u32 {
        2 * self.q()
    }

    /// The equivalent runtime [`Modulus`] context (for twiddle-table
    /// construction, root finding and other cold paths).
    fn modulus(&self) -> Modulus;

    /// Fully reduces an arbitrary 64-bit value to `[0, q)`.
    fn reduce_u64(&self, x: u64) -> u32;

    /// Reduces the product of two **lazy-domain** operands (`< 4q`;
    /// [`BarrettGeneric`] accepts any `u32`) to `[0, q)`.
    fn reduce_mul(&self, a: u32, b: u32) -> u32;

    /// Multiplies two reduced residues.
    fn mul(&self, a: u32, b: u32) -> u32;

    /// Fused multiply-add `(a·b + acc) mod q` of reduced residues — one
    /// reduction pass for the ciphertext kernels' `ã∘ẽ₁ + ẽ₂` shape.
    fn mul_add(&self, a: u32, b: u32, acc: u32) -> u32;

    /// Adds two reduced residues (masked correction).
    #[inline(always)]
    fn add(&self, a: u32, b: u32) -> u32 {
        lazy::add_mod_masked(a, b, self.q())
    }

    /// Subtracts two reduced residues (borrow-masked correction).
    #[inline(always)]
    fn sub(&self, a: u32, b: u32) -> u32 {
        lazy::sub_mod_masked(a, b, self.q())
    }

    /// Negates a reduced residue (`0 ↦ 0`), branch-free.
    #[inline(always)]
    fn neg(&self, a: u32) -> u32 {
        lazy::neg_mod_masked(a, self.q())
    }

    /// One masked conditional subtraction: `[0, 2q) → [0, q)`.
    #[inline(always)]
    fn reduce_once(&self, x: u32) -> u32 {
        lazy::reduce_once(x, self.q())
    }

    /// One masked conditional subtraction by `2q`: `[0, 4q) → [0, 2q)` —
    /// the forward butterfly's add-leg correction.
    #[inline(always)]
    fn reduce_once_2q(&self, x: u32) -> u32 {
        lazy::reduce_once(x, self.two_q())
    }

    /// Final normalization from the lazy `[0, 4q)` domain to canonical
    /// `[0, q)`.
    #[inline(always)]
    fn normalize4(&self, x: u32) -> u32 {
        lazy::normalize4(x, self.q())
    }

    /// Maps a signed Gaussian sample `(magnitude, sign)` with
    /// `magnitude < q` to its residue — `q − magnitude` when negative,
    /// `magnitude` otherwise — with a **masked** select instead of a
    /// branch on the (secret) sign bit. This is the sampler's
    /// coefficient-reduction hook.
    #[inline(always)]
    fn signed_residue(&self, magnitude: u32, negative: bool) -> u32 {
        debug_assert!(magnitude < self.q());
        let negated = self.neg(magnitude);
        let mask = (negative as u32).wrapping_neg();
        (magnitude & !mask) | (negated & mask)
    }
}

/// The runtime-modulus reducer: generic Barrett reduction over any prime
/// `q < 2³¹` (the lazy NTT domain further restricts to
/// [`lazy::MAX_LAZY_Q`]). This is [`Modulus`] itself — the fallback
/// every non-P1/P2 path (bench sweeps, `q = 8383489`, experiments)
/// keeps using unchanged.
pub type BarrettGeneric = Modulus;

impl private::Sealed for Modulus {}

impl Reducer for Modulus {
    const KIND: ReducerKind = ReducerKind::Barrett;

    #[inline(always)]
    fn q(&self) -> u32 {
        self.value()
    }

    #[inline(always)]
    fn modulus(&self) -> Modulus {
        *self
    }

    #[inline(always)]
    fn reduce_u64(&self, x: u64) -> u32 {
        self.reduce(x)
    }

    #[inline(always)]
    fn reduce_mul(&self, a: u32, b: u32) -> u32 {
        // The generic path accepts any u32 operands: the 64-bit product
        // goes through the full Barrett tail.
        self.reduce(a as u64 * b as u64)
    }

    #[inline(always)]
    fn mul(&self, a: u32, b: u32) -> u32 {
        Modulus::mul(self, a, b)
    }

    #[inline(always)]
    fn mul_add(&self, a: u32, b: u32, acc: u32) -> u32 {
        debug_assert!(a < self.value() && b < self.value() && acc < self.value());
        // a·b + acc < q² + q always fits u64 for q < 2³¹.
        self.reduce(a as u64 * b as u64 + acc as u64)
    }
}

macro_rules! special_reducer {
    (
        $(#[$meta:meta])*
        $name:ident, $q:literal, $a:literal, $b:literal, $kind:ident
    ) => {
        // Compile-time proof of the special form q = 2^A − 2^B + 1 the
        // shift-add fold relies on.
        const _: () = assert!($q == (1u32 << $a) - (1u32 << $b) + 1);

        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
        pub struct $name;

        impl $name {
            /// The hard-coded prime modulus.
            pub const Q: u32 = $q;
            /// `2q`, the lazy-domain corrector.
            pub const TWO_Q: u32 = 2 * $q;
            /// The special form's exponents: `Q = 2^A − 2^B + 1`, so
            /// `2^A ≡ 2^B − 1 (mod Q)` — the identity behind
            /// [`Self::fold`].
            pub const A: u32 = $a;
            /// See [`Self::A`].
            pub const B: u32 = $b;
            /// `⌊2⁴⁴ / Q⌋` — the word-sized reciprocal of the
            /// monomorphized product reduction ([`Self::reduce_prod`]).
            /// Shift 44 is chosen so that for any `x < 2³²` the quotient
            /// estimate `⌊x·MU44 / 2⁴⁴⌋` (a) fits one 64×64→64 multiply
            /// (`x·MU44 < 2³²·2^(44−13) < 2⁶⁴` since `Q > 2¹²`), and
            /// (b) undershoots `⌊x/Q⌋` by at most 1
            /// (`x/2⁴⁴ < 2⁻¹² < 1`), leaving a remainder in `[0, 2q)`
            /// fixed by **one** masked correction.
            const MU44: u64 = (1u64 << 44) / $q;
            /// `⌊(2⁶⁴ − 1) / Q⌋` — the full-domain reciprocal, same
            /// estimate bound as [`Modulus::reduce`].
            const MU64: u64 = u64::MAX / $q;

            /// One shift-add folding step of the paper's special-form
            /// reduction: since `2^A ≡ 2^B − 1 (mod q)`,
            ///
            /// ```text
            /// x = lo + 2^A·t  ≡  lo + (t << B) − t   (mod q)
            /// ```
            ///
            /// The fold is value-preserving mod `q`, never underflows
            /// (`t << B ≥ t`), and shrinks the operand by `A − B` bits
            /// per application. For `x < 4q` a single fold lands in
            /// `[0, 2q)` (worst case analysed in [`Self::normalize4`'s
            /// bound comment][Reducer::normalize4]), which is how the
            /// specialized normalization replaces one of the generic
            /// tail's two masked corrections with pure shift-add
            /// arithmetic.
            #[inline(always)]
            pub fn fold(x: u32) -> u32 {
                let t = x >> Self::A;
                (x & ((1 << Self::A) - 1)) + (t << Self::B) - t
            }

            /// Reduces `x < 2³²` to `[0, 2q)` with the compile-time
            /// reciprocal: two constant multiplies, one shift, one
            /// subtract — no 128-bit arithmetic, no memory-resident
            /// constants (see [`Self::MU44`] for the error bound).
            #[inline(always)]
            fn reduce_prod(x: u64) -> u32 {
                debug_assert!(x >> 32 == 0, "specialized product domain is 32-bit");
                let quot = (x * Self::MU44) >> 44;
                let r = (x - quot * Self::Q as u64) as u32;
                lazy::debug_assert_bound(r, 2 * Self::Q as u64);
                r
            }
        }

        impl private::Sealed for $name {}

        impl Reducer for $name {
            const KIND: ReducerKind = ReducerKind::$kind;

            #[inline(always)]
            fn q(&self) -> u32 {
                Self::Q
            }

            #[inline(always)]
            fn two_q(&self) -> u32 {
                Self::TWO_Q
            }

            #[inline]
            fn modulus(&self) -> Modulus {
                Modulus::new(Self::Q).expect("hard-coded prime is valid")
            }

            #[inline(always)]
            fn reduce_u64(&self, x: u64) -> u32 {
                // Same estimate/correction structure as Modulus::reduce,
                // but the reciprocal is an immediate constant.
                let quot = ((x as u128 * Self::MU64 as u128) >> 64) as u64;
                let r = x - quot * Self::Q as u64;
                debug_assert!(r < 3 * Self::Q as u64);
                let r = lazy::reduce_once_u64(r, 2 * Self::Q as u64);
                let r = lazy::reduce_once_u64(r, Self::Q as u64);
                debug_assert_eq!(r, x % Self::Q as u64);
                r as u32
            }

            #[inline(always)]
            fn reduce_mul(&self, a: u32, b: u32) -> u32 {
                lazy::debug_assert_bound(a, 4 * Self::Q as u64);
                lazy::debug_assert_bound(b, 4 * Self::Q as u64);
                // 4q < 2¹⁶ for this prime, so the product of two lazy
                // operands always fits 32 bits.
                lazy::reduce_once(Self::reduce_prod(a as u64 * b as u64), Self::Q)
            }

            #[inline(always)]
            fn mul(&self, a: u32, b: u32) -> u32 {
                debug_assert!(a < Self::Q && b < Self::Q);
                lazy::reduce_once(Self::reduce_prod(a as u64 * b as u64), Self::Q)
            }

            #[inline(always)]
            fn mul_add(&self, a: u32, b: u32, acc: u32) -> u32 {
                debug_assert!(a < Self::Q && b < Self::Q && acc < Self::Q);
                // a·b + acc < q² + q < 2³² stays inside the product domain.
                lazy::reduce_once(
                    Self::reduce_prod(a as u64 * b as u64 + acc as u64),
                    Self::Q,
                )
            }

            #[inline(always)]
            fn reduce_once(&self, x: u32) -> u32 {
                lazy::reduce_once(x, Self::Q)
            }

            #[inline(always)]
            fn reduce_once_2q(&self, x: u32) -> u32 {
                lazy::reduce_once(x, Self::TWO_Q)
            }

            #[inline(always)]
            fn normalize4(&self, x: u32) -> u32 {
                lazy::debug_assert_bound(x, 4 * Self::Q as u64);
                // One special-form fold lands in [0, 2q): writing
                // x = lo + 2^A·t with t = x >> A ≤ 3 (x < 4q < 2^(A+2)),
                // the folded value lo + (2^B − 1)·t is maximized at
                // t = 2, lo = 2^A − 1, giving
                //   2^A − 1 + 2^(B+1) − 2  <  2q
                // for both paper primes (9213 < 15362 for q = 7681,
                // 24573 < 24578 for q = 12289 — the t = 3 corner forces
                // lo ≤ 4q − 1 − 3·2^A, which is tiny). One masked
                // correction then restores [0, q): fold + single
                // correction where the generic tail pays two.
                lazy::reduce_once(Self::fold(x), Self::Q)
            }
        }
    };
}

special_reducer!(
    /// The compile-time reducer for the paper's P1 modulus
    /// `q = 7681 = 2¹³ − 2⁹ + 1`.
    ///
    /// Every reduction constant is an associated `const`, so kernels
    /// monomorphized over this type carry `q`, `2q` and the reciprocal
    /// as immediates; the special form's shift-add fold
    /// (`2¹³ ≡ 2⁹ − 1`) shortens the normalization tail. All
    /// corrections are masked — the operation sequence never depends on
    /// a coefficient value.
    Q7681, 7681, 13, 9, Q7681
);

special_reducer!(
    /// The compile-time reducer for the paper's P2 modulus
    /// `q = 12289 = 2¹⁴ − 2¹² + 1`.
    ///
    /// Same structure as [`Q7681`] with the fold identity
    /// `2¹⁴ ≡ 2¹² − 1 (mod q)`.
    Q12289, 12289, 14, 12, Q12289
);

#[cfg(test)]
mod tests {
    use super::*;

    fn generic(q: u32) -> Modulus {
        Modulus::new(q).unwrap()
    }

    #[test]
    fn kinds_and_constants() {
        assert_eq!(<Q7681 as Reducer>::KIND, ReducerKind::Q7681);
        assert_eq!(<Q12289 as Reducer>::KIND, ReducerKind::Q12289);
        assert_eq!(<Modulus as Reducer>::KIND, ReducerKind::Barrett);
        assert_eq!(Q7681.q(), 7681);
        assert_eq!(Q12289.q(), 12289);
        assert_eq!(Q7681.two_q(), 15362);
        assert_eq!(Q7681.modulus().value(), 7681);
        assert_eq!(Q12289.modulus().value(), 12289);
        assert!(ReducerKind::Q7681.to_string().contains("7681"));
    }

    #[test]
    fn fold_is_congruent_and_bounded_over_the_whole_lazy_domain() {
        // Exhaustive over [0, 4q): the fold must preserve the residue and
        // land in [0, 2q), so normalize4's single correction suffices.
        for x in 0..4 * Q7681::Q {
            let f = Q7681::fold(x);
            assert_eq!(f % 7681, x % 7681, "x={x}");
            assert!(f < Q7681::TWO_Q, "x={x} escaped [0, 2q)");
        }
        for x in 0..4 * Q12289::Q {
            let f = Q12289::fold(x);
            assert_eq!(f % 12289, x % 12289, "x={x}");
            assert!(f < Q12289::TWO_Q, "x={x} escaped [0, 2q)");
        }
    }

    #[test]
    fn normalize4_matches_generic_exhaustively() {
        let g1 = generic(7681);
        for x in 0..4 * 7681u32 {
            assert_eq!(Q7681.normalize4(x), Reducer::normalize4(&g1, x), "x={x}");
        }
        let g2 = generic(12289);
        for x in 0..4 * 12289u32 {
            assert_eq!(Q12289.normalize4(x), Reducer::normalize4(&g2, x), "x={x}");
        }
    }

    #[test]
    fn reduce_u64_extremes_match_naive() {
        for x in [
            0u64,
            1,
            7680,
            7681,
            7681 * 7681,
            u64::MAX,
            u64::MAX - 1,
            u64::MAX / 2,
        ] {
            assert_eq!(Q7681.reduce_u64(x), (x % 7681) as u32, "x={x}");
            assert_eq!(Q12289.reduce_u64(x), (x % 12289) as u32, "x={x}");
        }
    }

    #[test]
    fn signed_residue_matches_branchy_reference() {
        for (r, q) in [(Q7681.modulus(), 7681u32), (Q12289.modulus(), 12289)] {
            for mag in [0u32, 1, 5, q / 2, q - 1] {
                for negative in [false, true] {
                    let want = if negative && mag != 0 { q - mag } else { mag };
                    assert_eq!(r.signed_residue(mag, negative), want);
                }
            }
        }
        assert_eq!(Q7681.signed_residue(3, true), 7678);
        assert_eq!(Q12289.signed_residue(0, true), 0);
    }
}
