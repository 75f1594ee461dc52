//! AVX2 backend equivalence: the vectorized transforms must be
//! bit-identical to the scalar reference.
//!
//! On hosts without AVX2 the wrapper entry points fall back to the
//! scalar algorithm, so every assertion here still runs and must still
//! hold — the tests log a note instead of skipping silently, and CI
//! stays green on any architecture.

use proptest::prelude::*;
use rlwe_ntt::NttPlan;

/// (label, n, q) for the paper's two rings.
const RINGS: [(&str, usize, u32); 2] = [("P1", 256, 7681), ("P2", 512, 12289)];

fn poly_strategy(n: usize, q: u32) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..q, n)
}

/// Strategy producing one random polynomial per ring.
fn pair_strategy() -> impl Strategy<Value = [Vec<u32>; 2]> {
    (
        poly_strategy(RINGS[0].1, RINGS[0].2),
        poly_strategy(RINGS[1].1, RINGS[1].2),
    )
        .prop_map(|(a, b)| [a, b])
}

/// Logs (once per process would be nicer, but per-test is harmless)
/// whether the assertions below exercised the vector kernels or the
/// scalar fallback.
fn note_host_capability() {
    if !rlwe_zq::cpu::avx2() {
        eprintln!("note: host lacks AVX2 — exercising the scalar fallback paths only");
    }
}

/// Asserts the AVX2 entry points agree with the scalar reference on one
/// plan/input pair.
fn assert_avx2_matches_scalar<R: rlwe_zq::Reducer>(plan: &NttPlan<R>, a: &[u32], label: &str) {
    let reference = plan.forward_copy(a);

    let mut via_avx2 = a.to_vec();
    plan.forward_avx2(&mut via_avx2);
    assert_eq!(via_avx2, reference, "avx2 forward diverged on {label}");

    let mut back = reference.clone();
    plan.inverse_avx2(&mut back);
    assert_eq!(back, a, "avx2 inverse broke the round trip on {label}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn avx2_forward_and_inverse_agree_with_scalar_backends(polys in pair_strategy()) {
        note_host_capability();
        for ((label, n, q), a) in RINGS.iter().zip(&polys) {
            let generic = NttPlan::new(*n, *q).unwrap();
            assert_avx2_matches_scalar(&generic, a, label);
        }
        // The specialized-reducer plans drive the same vector kernels
        // through their own twiddle tables; they must agree too.
        let p1 = NttPlan::with_reducer(256, rlwe_zq::reduce::Q7681).unwrap();
        assert_avx2_matches_scalar(&p1, &polys[0], "P1/q7681");
        let p2 = NttPlan::with_reducer(512, rlwe_zq::reduce::Q12289).unwrap();
        assert_avx2_matches_scalar(&p2, &polys[1], "P2/q12289");
    }

}

#[test]
fn avx2_survives_worst_case_vectors() {
    // All-(q−1) inputs drive every lazy bound to its edge in every
    // stage; the vector kernels must stay bit-identical anyway.
    note_host_capability();
    for (label, n, q) in RINGS {
        let plan = NttPlan::new(n, q).unwrap();
        let worst = vec![q - 1; n];
        assert_avx2_matches_scalar(&plan, &worst, label);
    }
    let p1 = NttPlan::with_reducer(256, rlwe_zq::reduce::Q7681).unwrap();
    assert_avx2_matches_scalar(&p1, &vec![7680u32; 256], "P1/q7681 worst case");
    let p2 = NttPlan::with_reducer(512, rlwe_zq::reduce::Q12289).unwrap();
    assert_avx2_matches_scalar(&p2, &vec![12288u32; 512], "P2/q12289 worst case");
}
