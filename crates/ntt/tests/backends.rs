//! Cross-backend equivalence: the reference scalar transform, the packed
//! two-per-word transform and the fused three-transform loop must agree
//! coefficient-for-coefficient on random polynomials.
//!
//! Rings covered: the paper's P1 (n=256, q=7681) and P2 (n=512, q=12289),
//! plus a larger "P3" ring (n=1024, q=12289 — 12288 = 3·2¹², so the same
//! prime supports n up to 2048) that exercises deeper butterfly ladders
//! than either paper set.

use proptest::prelude::*;
use rlwe_ntt::packed::{forward_packed, inverse_packed};
use rlwe_ntt::{NttPlan, PolyScratch};

/// (label, n, q) for the three rings under test.
const RINGS: [(&str, usize, u32); 3] = [("P1", 256, 7681), ("P2", 512, 12289), ("P3", 1024, 12289)];

fn poly_strategy(n: usize, q: u32) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..q, n)
}

/// Strategy producing one random polynomial per ring.
fn triple_strategy() -> impl Strategy<Value = [Vec<u32>; 3]> {
    (
        poly_strategy(RINGS[0].1, RINGS[0].2),
        poly_strategy(RINGS[1].1, RINGS[1].2),
        poly_strategy(RINGS[2].1, RINGS[2].2),
    )
        .prop_map(|(a, b, c)| [a, b, c])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn forward_agrees_across_all_backends(polys in triple_strategy()) {
        for ((label, n, q), a) in RINGS.iter().zip(&polys) {
            let plan = NttPlan::new(*n, *q).unwrap();
            let reference = plan.forward_copy(a);

            let mut packed_words = rlwe_ntt::packed::pack_coeffs(a);
            forward_packed(&plan, &mut packed_words);
            prop_assert_eq!(
                rlwe_ntt::packed::unpack_coeffs(&packed_words),
                reference,
                "packed forward diverged on {}", label
            );
        }
    }

    #[test]
    fn inverse_agrees_between_reference_and_packed(polys in triple_strategy()) {
        for ((label, n, q), a) in RINGS.iter().zip(&polys) {
            let plan = NttPlan::new(*n, *q).unwrap();
            let reference = plan.inverse_copy(a);
            let mut packed_words = rlwe_ntt::packed::pack_coeffs(a);
            inverse_packed(&plan, &mut packed_words);
            prop_assert_eq!(
                rlwe_ntt::packed::unpack_coeffs(&packed_words),
                reference,
                "packed inverse diverged on {}", label
            );
        }
    }

    #[test]
    fn every_backend_round_trips_through_the_reference_inverse(polys in triple_strategy()) {
        // forward (any backend) ∘ reference inverse == identity: the
        // backends must produce genuinely the same NTT-domain values, not
        // merely self-consistent ones.
        for ((label, n, q), a) in RINGS.iter().zip(&polys) {
            let plan = NttPlan::new(*n, *q).unwrap();

            let mut via_packed = rlwe_ntt::packed::pack_coeffs(a);
            forward_packed(&plan, &mut via_packed);
            let flat = rlwe_ntt::packed::unpack_coeffs(&via_packed);
            prop_assert_eq!(&plan.inverse_copy(&flat), a, "packed→reference on {}", label);
        }
    }

    #[test]
    fn forward_lazy_plus_normalization_equals_forward(polys in triple_strategy()) {
        // The lazy entry point defers the final sweep; normalizing its
        // [0, 4q) output by hand must give exactly the reduced transform.
        for ((label, n, q), a) in RINGS.iter().zip(&polys) {
            let plan = NttPlan::new(*n, *q).unwrap();
            let reference = plan.forward_copy(a);
            let mut lazy_out = a.clone();
            plan.forward_lazy(&mut lazy_out);
            for x in lazy_out.iter_mut() {
                prop_assert!((*x as u64) < 4 * *q as u64, "lazy bound escaped on {}", label);
                *x = rlwe_zq::lazy::normalize4(*x, *q);
            }
            prop_assert_eq!(lazy_out, reference, "lazy+normalize diverged on {}", label);
        }
    }

    #[test]
    fn negacyclic_mul_into_matches_allocating_mul(polys in triple_strategy(), seed in 1u32..1000) {
        for ((label, n, q), a) in RINGS.iter().zip(&polys) {
            let plan = NttPlan::new(*n, *q).unwrap();
            let b: Vec<u32> = (0..*n as u32).map(|i| (i * seed + 3) % q).collect();
            let want = plan.negacyclic_mul(a, &b);
            let mut out = vec![0u32; *n];
            let mut scratch = PolyScratch::new(*n);
            plan.negacyclic_mul_into(a, &b, &mut out, &mut scratch).unwrap();
            prop_assert_eq!(out, want, "negacyclic_mul_into diverged on {}", label);
        }
    }
}

/// One full pass over all three backends (reference, packed and the fused
/// parallel transform) on a specialized plan, asserting
/// bit-identity with the generic-Barrett plan's reference transform.
fn assert_specialized_backends_match<R: rlwe_zq::Reducer>(
    special: &NttPlan<R>,
    generic: &NttPlan,
    a: &[u32],
    label: &str,
) {
    let n = a.len();
    let reference = generic.forward_copy(a);

    assert_eq!(
        special.forward_copy(a),
        reference,
        "specialized reference forward diverged on {label}"
    );

    let mut packed_words = rlwe_ntt::packed::pack_coeffs(a);
    forward_packed(special, &mut packed_words);
    assert_eq!(
        rlwe_ntt::packed::unpack_coeffs(&packed_words),
        reference,
        "specialized packed forward diverged on {label}"
    );
    inverse_packed(special, &mut packed_words);
    assert_eq!(
        rlwe_ntt::packed::unpack_coeffs(&packed_words),
        a,
        "specialized packed inverse broke the round trip on {label}"
    );

    let mut x = a.to_vec();
    let mut y = a.to_vec();
    let mut z = a.to_vec();
    rlwe_ntt::parallel::forward3(special, [&mut x, &mut y, &mut z]);
    assert_eq!(x, reference, "specialized forward3 diverged on {label}");
    assert_eq!(y, z, "specialized forward3 lanes diverged on {label}");

    assert_eq!(
        special.inverse_copy(&reference),
        a,
        "specialized inverse diverged on {label}"
    );
    let b: Vec<u32> = (0..n as u32)
        .map(|i| (i * 131 + 17) % special.q())
        .collect();
    assert_eq!(
        special.negacyclic_mul(a, &b),
        generic.negacyclic_mul(a, &b),
        "specialized negacyclic_mul diverged on {label}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn specialized_plans_are_bit_identical_across_all_backends(polys in triple_strategy()) {
        // Acceptance gate for the monomorphized reduction core: for both
        // paper rings (plus the deeper P3 ring on the 12289 reducer),
        // every backend driven by a specialized plan must agree
        // bit-for-bit with the generic-Barrett plan — on random vectors
        // here and on the all-(q−1) worst case below.
        let p1 = NttPlan::with_reducer(256, rlwe_zq::reduce::Q7681).unwrap();
        let g1 = NttPlan::new(256, 7681).unwrap();
        assert_specialized_backends_match(&p1, &g1, &polys[0], "P1/q7681");

        let p2 = NttPlan::with_reducer(512, rlwe_zq::reduce::Q12289).unwrap();
        let g2 = NttPlan::new(512, 12289).unwrap();
        assert_specialized_backends_match(&p2, &g2, &polys[1], "P2/q12289");

        let p3 = NttPlan::with_reducer(1024, rlwe_zq::reduce::Q12289).unwrap();
        let g3 = NttPlan::new(1024, 12289).unwrap();
        assert_specialized_backends_match(&p3, &g3, &polys[2], "P3/q12289");
    }
}

#[test]
fn specialized_plans_survive_worst_case_vectors_on_every_backend() {
    let p1 = NttPlan::with_reducer(256, rlwe_zq::reduce::Q7681).unwrap();
    let g1 = NttPlan::new(256, 7681).unwrap();
    assert_specialized_backends_match(&p1, &g1, &vec![7680u32; 256], "P1 worst case");
    let p2 = NttPlan::with_reducer(512, rlwe_zq::reduce::Q12289).unwrap();
    let g2 = NttPlan::new(512, 12289).unwrap();
    assert_specialized_backends_match(&p2, &g2, &vec![12288u32; 512], "P2 worst case");
}

#[test]
fn all_backends_agree_on_worst_case_vectors() {
    // All-(q−1) coefficients drive every lazy bound to its edge in every
    // stage; the backends must still agree bit-for-bit and produce
    // canonical outputs, and the schoolbook oracle must confirm the
    // round-trip product.
    for (label, n, q) in RINGS {
        let plan = NttPlan::new(n, q).unwrap();
        let worst = vec![q - 1; n];
        let reference = plan.forward_copy(&worst);
        assert!(
            reference.iter().all(|&c| c < q),
            "unreduced forward output on {label}"
        );

        let mut packed_words = rlwe_ntt::packed::pack_coeffs(&worst);
        forward_packed(&plan, &mut packed_words);
        assert_eq!(
            rlwe_ntt::packed::unpack_coeffs(&packed_words),
            reference,
            "packed diverged on {label}"
        );

        let inv = plan.inverse_copy(&reference);
        assert_eq!(
            inv, worst,
            "round trip lost the worst-case vector on {label}"
        );
    }
    // And the worst-case product agrees with the schoolbook oracle.
    let (n, q) = (64usize, 7681u32);
    let plan = NttPlan::new(n, q).unwrap();
    let worst = vec![q - 1; n];
    assert_eq!(
        plan.negacyclic_mul(&worst, &worst),
        rlwe_ntt::schoolbook::negacyclic_mul(&worst, &worst, q)
    );
}

#[test]
fn oversized_moduli_are_rejected_at_plan_build() {
    // 3221225473 = 3·2³⁰ + 1 is the classic large NTT prime, but it sits
    // above the lazy-domain ceiling (4q must fit a u32) — the plan must
    // refuse it up front rather than overflow a butterfly.
    assert!(matches!(
        NttPlan::new(512, 3221225473u64 as u32),
        Err(rlwe_ntt::NttError::ModulusTooLarge { .. })
    ));
    // Boundary: 2³⁰ itself is out, anything below is gated by the other
    // checks only.
    assert!(matches!(
        NttPlan::new(512, 1 << 30),
        Err(rlwe_ntt::NttError::ModulusTooLarge { .. })
    ));
}

#[test]
fn length_mismatches_surface_as_errors() {
    let plan = NttPlan::new(256, 7681).unwrap();
    let a = vec![0u32; 256];
    let short = vec![0u32; 128];
    let mut out = vec![0u32; 256];
    let mut scratch = PolyScratch::new(256);
    assert!(plan
        .negacyclic_mul_into(&short, &a, &mut out, &mut scratch)
        .is_err());
    assert!(plan
        .negacyclic_mul_into(&a, &short, &mut out, &mut scratch)
        .is_err());
    let mut short_out = vec![0u32; 128];
    assert!(plan
        .negacyclic_mul_into(&a, &a, &mut short_out, &mut scratch)
        .is_err());
    let mut wrong_scratch = PolyScratch::new(512);
    assert!(plan
        .negacyclic_mul_into(&a, &a, &mut out, &mut wrong_scratch)
        .is_err());
}
