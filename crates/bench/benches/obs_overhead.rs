//! Observability overhead gate: the cost of the always-on phase
//! histograms on the encryption hot path, asserted — not just reported.
//!
//! Every `encrypt_into` call reads the clock at its five phase
//! boundaries and records four `rlwe_phase_ns` histograms. The gate
//! times that chain on the real P2 handles and bounds it at 3% of one
//! P2 `encrypt_into`, both as min-of-rounds figures (the minimum is
//! the least noise-sensitive statistic on a shared runner). The check
//! runs in the function body, so the CI `cargo test --benches` smoke
//! step executes it even when criterion runs each closure exactly once.

use criterion::{criterion_group, criterion_main, Criterion};
use rlwe_core::drbg::HashDrbg;
use rlwe_core::{phase_histogram, ParamSet, RlweContext, ENCRYPT_PHASES};
use std::hint::black_box;
use std::time::Instant;

/// Maximum tolerated cost of the phase timer chain, as a share of one
/// P2 `encrypt_into`.
const MAX_CHAIN_SHARE: f64 = 0.03;

/// Min-of-rounds nanoseconds per call of `f`, amortized over `iters`.
fn min_ns_per_iter(rounds: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

fn bench_phase_chain(c: &mut Criterion) {
    // P2 on the context the engine's pool builds (`RlweContext::new`),
    // with HashDrbg coins.
    let ctx = RlweContext::new(ParamSet::P2).unwrap();
    let mut rng = HashDrbg::new([7u8; 32]);
    let (pk, _) = ctx.generate_keypair(&mut rng).unwrap();
    let msg = vec![0x5Au8; ctx.params().message_bytes()];
    let mut ct = ctx.empty_ciphertext();
    let mut scratch = ctx.new_scratch();
    let set = ctx.params().obs_label();
    let phases = ENCRYPT_PHASES.map(|phase| phase_histogram("encrypt", phase, &set));

    // The chain `encrypt_into` runs: five clock reads, four records.
    let chain = || {
        let marks: [Instant; 5] = std::array::from_fn(|_| Instant::now());
        for (h, w) in phases.iter().zip(marks.windows(2)) {
            h.record(w[1].saturating_duration_since(w[0]));
        }
        black_box(&marks);
    };
    let mut encrypt = || {
        ctx.encrypt_into(&pk, &msg, &mut rng, &mut ct, &mut scratch)
            .unwrap();
        black_box(&ct);
    };

    let chain_ns = min_ns_per_iter(16, 20_000, chain);
    let encrypt_ns = min_ns_per_iter(16, 64, &mut encrypt);
    let share = chain_ns / encrypt_ns;
    println!(
        "phase chain: {chain_ns:.1} ns against {encrypt_ns:.1} ns P2 encrypt_into — \
         {:.2}% (max {:.0}%)",
        share * 100.0,
        MAX_CHAIN_SHARE * 100.0
    );
    assert!(
        share <= MAX_CHAIN_SHARE,
        "the phase timer chain costs {:.2}% of P2 encrypt_into — over the {:.0}% budget",
        share * 100.0,
        MAX_CHAIN_SHARE * 100.0
    );

    let mut g = c.benchmark_group("obs/phase_chain_p2");
    g.bench_function("chain", |b| b.iter(chain));
    g.bench_function("encrypt_into", |b| b.iter(&mut encrypt));
    g.finish();
}

criterion_group!(benches, bench_phase_chain);
criterion_main!(benches);
