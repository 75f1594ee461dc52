//! Decryption-failure experiment (beyond the paper): the P1/P2 parameter
//! sets have a small but measurable per-message failure probability that
//! the paper never discusses — the noise term `e₁r₁ + e₂r₂ + e₃` has
//! per-coefficient std ≈ σ²√(2n), only ~4.2σ below the q/4 threshold.
//!
//! ```text
//! cargo run --release -p rlwe-bench --bin failure_rate [trials]
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use rlwe_core::{ParamSet, RlweContext};

fn main() {
    let trials: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2000);
    println!("DECRYPTION FAILURE RATE ({trials} encryptions per parameter set)\n");
    for set in [ParamSet::P1, ParamSet::P2] {
        let ctx = RlweContext::new(set).expect("paper parameter sets are valid");
        let mut rng = StdRng::seed_from_u64(0xFA11);
        let (pk, sk) = ctx.generate_keypair(&mut rng).expect("keygen");
        let msg = vec![0xA5u8; ctx.params().message_bytes()];
        let q = ctx.params().q();
        let mut failures = 0usize;
        let mut worst_noise = 0u32;
        let mut noise_sum = 0f64;
        for _ in 0..trials {
            let ct = ctx.encrypt(&pk, &msg, &mut rng).expect("encrypt");
            let d = ctx.diagnostics(&sk, &ct).expect("diagnostics");
            failures += usize::from(d.failed);
            worst_noise = worst_noise.max(d.max_noise);
            noise_sum += d.mean_noise;
        }
        let sigma = ctx.params().spec().sigma();
        let n = ctx.params().n() as f64;
        let predicted_std = sigma * sigma * (2.0 * n).sqrt();
        println!("{set}:");
        println!("  threshold q/4 = {}", q / 4);
        println!(
            "  noise: mean {:.0}, worst max {} (predicted per-coeff std {:.0})",
            noise_sum / trials as f64,
            worst_noise,
            predicted_std
        );
        println!(
            "  failures: {failures}/{trials} = {:.2}% of messages\n",
            failures as f64 / trials as f64 * 100.0
        );
    }
    println!("note: a failed message has >= 1 flipped bit; applications need");
    println!("an outer code or retry. Later schemes (NewHope, Kyber) chose");
    println!("parameters with cryptographically negligible failure rates.");
}
