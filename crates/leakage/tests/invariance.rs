//! Deterministic operation-count invariance tests — the CI-gating shadow
//! of the wall-clock t-test bench.
//!
//! Five exact properties, no statistics involved:
//!
//! 1. The constant-time CDT sampler draws exactly 129 bits and executes
//!    exactly one full-table scan per sample, for every sample and both
//!    parameter sets.
//! 2. `decapsulate_cca` on a CtCdt-rung context performs an *identical*
//!    sequence of hash calls (count and per-call message lengths) whether
//!    the ciphertext is accepted or implicitly rejected.
//! 3. That hash-call shape is also invariant across different accepted
//!    ciphertexts — it depends on the parameter set alone.
//! 4. The NTT kernels execute an *identical* reduction-operation trace
//!    (butterflies, masked corrections, lazy twiddle multiplies, final
//!    normalizations — `NttPlan::forward_traced`/`inverse_traced`)
//!    regardless of the coefficient values, matching the closed forms in
//!    `rlwe_ntt::NttOpTrace` exactly. This is the transform-layer gate
//!    the lazy-butterfly rewrite added: zero conditional reductions left
//!    for an input value to modulate.
//! 5. `decapsulate_cca` records every `rlwe_phase_ns` series the same
//!    number of times on the accept and the implicit-reject path.

use rlwe_core::drbg::HashDrbg;
use rlwe_core::kem::SharedSecret;
use rlwe_core::{
    phase_histogram, Ciphertext, ParamSet, RlweContext, SamplerKind, DECRYPT_PHASES, ENCRYPT_PHASES,
};
use rlwe_hash::probe;
use rlwe_ntt::{AnyNttPlan, NttOpTrace, NttPlan};
use rlwe_sampler::ct::CtCdtSampler;
use rlwe_sampler::random::{BitSource, BufferedBitSource, SplitMix64};
use rlwe_sampler::ProbabilityMatrix;
use rlwe_zq::ReducerKind;

#[test]
fn ct_sampler_operation_counts_are_exactly_invariant() {
    for (pmat, rows) in [
        (ProbabilityMatrix::paper_p1().unwrap(), 55),
        (ProbabilityMatrix::paper_p2().unwrap(), 59),
    ] {
        let ct = CtCdtSampler::new(&pmat);
        assert_eq!(ct.comparisons_per_sample(), rows);
        let mut bits = BufferedBitSource::new(SplitMix64::new(0xC0DE));
        for i in 0..10_000 {
            let before = bits.bits_drawn();
            let (_, trace) = ct.sample_traced(&mut bits);
            assert_eq!(
                trace.bits_drawn,
                CtCdtSampler::BITS_PER_SAMPLE,
                "sample {i}: bit draws varied"
            );
            assert_eq!(
                bits.bits_drawn() - before,
                CtCdtSampler::BITS_PER_SAMPLE,
                "sample {i}: source-side count disagrees"
            );
            assert_eq!(
                trace.comparisons, rows as u64,
                "sample {i}: comparison count varied"
            );
        }
    }
}

#[test]
fn context_ct_rung_exposes_the_instrumented_sampler() {
    let ctx = RlweContext::builder(ParamSet::P1)
        .sampler(SamplerKind::CtCdt)
        .build()
        .unwrap();
    let ct = ctx.ct_sampler().expect("CtCdt context carries the sampler");
    let mut bits = BufferedBitSource::new(SplitMix64::new(9));
    let (_, trace) = ct.sample_traced(&mut bits);
    assert_eq!(trace.bits_drawn, 129);
    assert_eq!(trace.comparisons, ct.comparisons_per_sample() as u64);
    // The default rung carries none — the CT table is not paid for
    // unless selected.
    let default_ctx = RlweContext::new(ParamSet::P1).unwrap();
    assert!(default_ctx.ct_sampler().is_none());
}

/// An accepting `(ct, key)` pair plus one rejecting maul of it.
fn accept_and_reject_pair(
    ctx: &RlweContext,
    seed: [u8; 32],
) -> (
    rlwe_core::PublicKey,
    rlwe_core::SecretKey,
    Ciphertext,
    SharedSecret,
    Ciphertext,
) {
    let mut rng = HashDrbg::new(seed);
    let (pk, sk) = ctx.generate_keypair(&mut rng).unwrap();
    // Retry over the ~1% decryption-failure probability so the "valid"
    // ciphertext provably takes the accept path.
    let (ct, key) = loop {
        let (ct, k1) = ctx.encapsulate_cca(&pk, &mut rng).unwrap();
        let k2 = ctx.decapsulate_cca(&sk, &pk, &ct).unwrap();
        if k1 == k2 {
            break (ct, k1);
        }
    };
    let mauled = rlwe_leakage::first_parsing_maul(&ct).expect("some single-bit maul parses");
    (pk, sk, ct, key, mauled)
}

/// The value classes an NTT trace must be blind to: zeros, the all-(q−1)
/// worst case that saturates every lazy bound, and assorted pseudo-random
/// vectors.
fn ntt_input_classes(n: usize, q: u32) -> Vec<Vec<u32>> {
    let mut classes = vec![vec![0u32; n], vec![q - 1; n]];
    let mut rng = SplitMix64::new(0x17AC_E5EED);
    use rlwe_sampler::random::WordSource;
    for _ in 0..4 {
        classes.push((0..n).map(|_| rng.next_word() % q).collect());
    }
    // A single spike, and an alternating 0 / q−1 comb.
    let mut spike = vec![0u32; n];
    spike[n / 2] = q - 1;
    classes.push(spike);
    classes.push((0..n).map(|i| if i % 2 == 0 { 0 } else { q - 1 }).collect());
    classes
}

#[test]
fn ntt_reduction_op_trace_is_value_independent_and_matches_closed_form() {
    // The transform-layer analogue of the sampler's exact bit-draw gate:
    // every input class must produce the *same* operation trace, equal to
    // the closed-form count — a conditional reduction anywhere in the
    // butterflies would break the equality for some class.
    for (set_label, n, q) in [("P1", 256usize, 7681u32), ("P2", 512, 12289)] {
        let plan = NttPlan::new(n, q).unwrap();
        let expected_fwd = NttOpTrace::expected_forward(n);
        let expected_inv = NttOpTrace::expected_inverse(n);
        for (class, input) in ntt_input_classes(n, q).into_iter().enumerate() {
            let mut a = input.clone();
            let fwd = plan.forward_traced(&mut a);
            assert_eq!(
                fwd, expected_fwd,
                "{set_label}: forward trace varied on input class {class}"
            );
            // The traced kernel is the real kernel: outputs must be
            // bit-identical to the untraced entry point.
            assert_eq!(a, plan.forward_copy(&input), "{set_label} class {class}");

            let inv = plan.inverse_traced(&mut a);
            assert_eq!(
                inv, expected_inv,
                "{set_label}: inverse trace varied on input class {class}"
            );
            assert_eq!(a, input, "{set_label}: round trip broke on class {class}");
        }
    }
}

#[test]
fn specialized_plans_keep_the_pinned_reduction_op_traces() {
    // The monomorphized special-prime plans must execute *exactly* the
    // same reduction-op structure as the generic plan — the same closed
    // forms, on every adversarial input class. Specialization changes
    // how one masked correction is computed (shift-add fold vs second
    // conditional subtraction inside a single `normalization` event),
    // never how many reduction events run or whether an input value can
    // modulate them.
    for (set_label, n, q) in [("P1", 256usize, 7681u32), ("P2", 512, 12289)] {
        let plan = AnyNttPlan::new(n, q).unwrap();
        // Guard the guard: these must actually be the specialized plans.
        assert_ne!(
            plan.kind(),
            ReducerKind::Barrett,
            "{set_label}: dispatch fell back to the generic reducer"
        );
        let generic = NttPlan::new(n, q).unwrap();
        let expected_fwd = NttOpTrace::expected_forward(n);
        let expected_inv = NttOpTrace::expected_inverse(n);
        for (class, input) in ntt_input_classes(n, q).into_iter().enumerate() {
            let mut a = input.clone();
            let fwd = plan.forward_traced(&mut a);
            assert_eq!(
                fwd, expected_fwd,
                "{set_label}: specialized forward trace varied on input class {class}"
            );
            // Same trace *and* same bits as the generic plan.
            assert_eq!(
                a,
                generic.forward_copy(&input),
                "{set_label}: specialized forward output diverged on class {class}"
            );
            let inv = plan.inverse_traced(&mut a);
            assert_eq!(
                inv, expected_inv,
                "{set_label}: specialized inverse trace varied on input class {class}"
            );
            assert_eq!(
                a, input,
                "{set_label}: specialized round trip broke on class {class}"
            );
        }
    }
}

#[test]
fn avx2_backend_is_bit_identical_to_the_traced_kernel_on_every_input_class() {
    // The vector backend has no op trace of its own — its leakage story
    // is *bit-identity by construction*: every AVX2 primitive mirrors a
    // branch-free scalar primitive (masked corrections, lazy Shoup
    // multiplies), so the gate is that on every adversarial input class
    // the vector outputs equal the traced scalar kernel's outputs, while
    // that kernel keeps its pinned closed-form trace. A data-dependent
    // shortcut anywhere in the vector path would break the equality for
    // some class.
    for (set_label, n, q) in [("P1", 256usize, 7681u32), ("P2", 512, 12289)] {
        let plan = AnyNttPlan::new(n, q).unwrap();
        let expected_fwd = NttOpTrace::expected_forward(n);
        for (class, input) in ntt_input_classes(n, q).into_iter().enumerate() {
            // Scalar traced kernel: the already-gated ground truth.
            let mut scalar = input.clone();
            let trace = plan.forward_traced(&mut scalar);
            assert_eq!(
                trace, expected_fwd,
                "{set_label}: scalar trace varied on class {class}"
            );
            // Single-polynomial vector path.
            let mut vec_out = input.clone();
            plan.forward_avx2(&mut vec_out);
            assert_eq!(
                vec_out, scalar,
                "{set_label}: avx2 forward diverged on class {class}"
            );
            plan.inverse_avx2(&mut vec_out);
            assert_eq!(
                vec_out, input,
                "{set_label}: avx2 round trip broke on class {class}"
            );
        }
    }
}

/// Word-source classes the vectorized CT-CDT scan must be blind to:
/// all-zero words (every comparison u < c), all-one words (u maximal),
/// patterned extremes straddling the AVX2 kernel's sign-bias boundary,
/// an alternating min/max comb, and assorted pseudo-random streams.
fn sampler_word_classes() -> Vec<(&'static str, WordClass)> {
    vec![
        ("zeros", WordClass::Const(0)),
        ("ones", WordClass::Const(u32::MAX)),
        ("sign_bias_edge", WordClass::Const(0x8000_0000)),
        ("below_bias", WordClass::Const(0x7FFF_FFFF)),
        ("comb", WordClass::Alternating(0, u32::MAX)),
        ("rand_a", WordClass::Split(SplitMix64::new(0xA11CE))),
        ("rand_b", WordClass::Split(SplitMix64::new(0xB0B))),
        ("rand_c", WordClass::Split(SplitMix64::new(0x5EED_CAFE))),
    ]
}

/// A cloneable word source for the adversarial classes above.
#[derive(Clone)]
enum WordClass {
    Const(u32),
    Alternating(u32, u32),
    Split(SplitMix64),
}

impl rlwe_sampler::random::WordSource for WordClass {
    fn next_word(&mut self) -> u32 {
        match self {
            WordClass::Const(w) => *w,
            WordClass::Alternating(a, b) => {
                let w = *a;
                std::mem::swap(a, b);
                w
            }
            WordClass::Split(rng) => rng.next_word(),
        }
    }
}

#[test]
fn vectorized_ct_cdt_is_bit_identical_to_the_traced_scalar_kernel() {
    // The sampler-layer analogue of the NTT gate above: the 8-lane table
    // scan (AVX2 where the host has it, the shared scalar kernel
    // otherwise) has no op trace of its own — its leakage story is
    // bit-identity with `sample_traced`, whose 129-bit /
    // full-table-scan trace the first test in this file pins exactly.
    // Any data-dependent shortcut in the vector path (an early-exit scan,
    // a lane-coupled compare, a bias error at the u128 limb boundary)
    // breaks the equality on one of the adversarial word classes.
    for (set_label, pmat, rows) in [
        ("P1", ProbabilityMatrix::paper_p1().unwrap(), 55u64),
        ("P2", ProbabilityMatrix::paper_p2().unwrap(), 59),
    ] {
        let ct = CtCdtSampler::new(&pmat);
        for (class_label, class) in sampler_word_classes() {
            // Block path: 251 samples (not a multiple of 8, so both the
            // 8-lane body and the per-sample tail run) against the traced
            // scalar kernel on an identical stream.
            let mut vec_bits = BufferedBitSource::buffered(class.clone());
            let mut ref_bits = BufferedBitSource::new(class.clone());
            let mut block = vec![rlwe_sampler::SignedSample::new(0, false); 251];
            ct.sample_block_into(&mut vec_bits, &mut block);
            for (i, &got) in block.iter().enumerate() {
                let (want, trace) = ct.sample_traced(&mut ref_bits);
                assert_eq!(
                    got, want,
                    "{set_label}/{class_label}: block sample {i} diverged"
                );
                assert_eq!(
                    trace.bits_drawn,
                    CtCdtSampler::BITS_PER_SAMPLE,
                    "{set_label}/{class_label}: traced bit draws varied at {i}"
                );
                assert_eq!(
                    trace.comparisons, rows,
                    "{set_label}/{class_label}: traced scan length varied at {i}"
                );
            }
            // Bit-budget identity: the vector path consumed exactly the
            // same number of bits as 251 traced samples.
            assert_eq!(
                vec_bits.bits_drawn(),
                ref_bits.bits_drawn(),
                "{set_label}/{class_label}: bit budgets diverged"
            );
        }
    }
}

#[test]
fn ntt_trace_depends_only_on_the_ring_dimension() {
    // Same n, different q: the trace is structural, so it must be
    // identical — coefficient width plays no role in the op counts.
    let mut traces = Vec::new();
    for q in [7681u32, 12289, 40961] {
        let plan = NttPlan::new(256, q).unwrap();
        let mut a: Vec<u32> = (0..256u32).map(|i| (i * 31 + 5) % q).collect();
        let f = plan.forward_traced(&mut a);
        let i = plan.inverse_traced(&mut a);
        traces.push((f, i));
    }
    assert!(traces.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn decapsulation_hash_shape_is_identical_on_accept_and_reject() {
    // The CtCdt rung makes the re-encryption's random-bit consumption
    // fixed, so the *entire* decapsulation trace — the FO hashes and
    // the re-encryption DRBG's keystream refills — must be
    // input-independent.
    let ctx = RlweContext::builder(ParamSet::P1)
        .sampler(SamplerKind::CtCdt)
        .build()
        .unwrap();
    let (pk, sk, ct, key, mauled) = accept_and_reject_pair(&ctx, [31u8; 32]);

    probe::start();
    let accept_key = ctx.decapsulate_cca(&sk, &pk, &ct).unwrap();
    let accept_trace = probe::take();

    probe::start();
    let reject_key = ctx.decapsulate_cca(&sk, &pk, &mauled).unwrap();
    let reject_trace = probe::take();

    // The two runs really did take opposite paths...
    assert_eq!(accept_key, key, "fixture ciphertext must accept");
    assert_ne!(reject_key, key, "mauled ciphertext must reject");
    // ...yet performed exactly the same hash calls and coin draws.
    assert!(!accept_trace.is_empty());
    assert!(
        accept_trace.iter().any(|&e| e & probe::KEYSTREAM_TAG != 0),
        "the re-encryption's coin draws must reach the trace"
    );
    assert_eq!(
        accept_trace, reject_trace,
        "hash-call shape differed between accept and reject"
    );
}

#[test]
fn decapsulation_hash_shape_depends_only_on_the_parameter_set() {
    let ctx = RlweContext::builder(ParamSet::P1)
        .sampler(SamplerKind::CtCdt)
        .build()
        .unwrap();
    let (pk1, sk1, ct1, _, _) = accept_and_reject_pair(&ctx, [41u8; 32]);
    let (pk2, sk2, ct2, _, _) = accept_and_reject_pair(&ctx, [42u8; 32]);

    probe::start();
    ctx.decapsulate_cca(&sk1, &pk1, &ct1).unwrap();
    let trace1 = probe::take();

    probe::start();
    ctx.decapsulate_cca(&sk2, &pk2, &ct2).unwrap();
    let trace2 = probe::take();

    assert_eq!(
        trace1, trace2,
        "hash-call shape varied across independent keypairs/ciphertexts"
    );
}

#[test]
fn decap_advances_every_phase_series_equally_on_accept_and_reject() {
    // The `rlwe-obs` gate: the phase histograms record on every call and
    // are keyed only by public data (wall-clock reads and relaxed atomic
    // adds), so CCA decapsulation must record the same phases the same
    // number of times whether it accepts or implicitly rejects. This is
    // the only test in this binary that runs P2 lattice operations, so
    // the `param_set="P2"` series are its own. (A custom ring would
    // isolate them too, but CCA hashes the ciphertext's wire bytes and
    // custom parameter sets have no serialized form.)
    let ctx = RlweContext::builder(ParamSet::P2)
        .sampler(SamplerKind::CtCdt)
        .build()
        .unwrap();
    let set = ctx.params().obs_label();
    let series: Vec<_> = ENCRYPT_PHASES
        .iter()
        .map(|phase| phase_histogram("encrypt", phase, &set))
        .chain(
            DECRYPT_PHASES
                .iter()
                .map(|phase| phase_histogram("decrypt", phase, &set)),
        )
        .collect();
    let counts = || -> Vec<u64> { series.iter().map(|h| h.snapshot().len()).collect() };
    let (pk, sk, ct, key, mauled) = accept_and_reject_pair(&ctx, [51u8; 32]);

    let start = counts();
    let accept_key = ctx.decapsulate_cca(&sk, &pk, &ct).unwrap();
    let mid = counts();
    let reject_key = ctx.decapsulate_cca(&sk, &pk, &mauled).unwrap();
    let end = counts();

    // The two runs really did take opposite paths...
    assert_eq!(accept_key, key, "fixture ciphertext must accept");
    assert_ne!(reject_key, key, "mauled ciphertext must reject");
    // ...yet advanced every phase series by the same count.
    let delta =
        |a: &[u64], b: &[u64]| -> Vec<u64> { b.iter().zip(a).map(|(b, a)| b - a).collect() };
    let accept = delta(&start, &mid);
    let reject = delta(&mid, &end);
    assert!(
        accept.iter().all(|&d| d > 0),
        "a phase went unrecorded: {accept:?}"
    );
    assert_eq!(
        accept, reject,
        "phase records differed between accept and reject"
    );
}
