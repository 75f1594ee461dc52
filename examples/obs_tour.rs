//! A tour of the `rlwe-obs` observability layer: private registries,
//! the global registry the whole stack reports into, the per-phase
//! breakdown of encrypt/decrypt it carries, and the two exporters.
//!
//! Run with `cargo run --release --example obs_tour`.

use rlwe_suite::obs;
use rlwe_suite::scheme::drbg::HashDrbg;
use rlwe_suite::scheme::{phase_histogram, ParamSet, RlweContext, DECRYPT_PHASES, ENCRYPT_PHASES};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Registries hand out cheap handles: resolve once, record with a
    //    single relaxed atomic op. Private registries work identically
    //    to the global one (handy for tests and scoped tools).
    let reg = obs::Registry::new();
    let hits = reg.counter("tour_hits_total", "Demo counter.", &[("tier", "demo")]);
    let lat = reg.histogram("tour_latency_ns", "Demo latency.", &[("tier", "demo")]);
    hits.add(3);
    for ns in [800, 950, 1200, 40_000] {
        lat.record_ns(ns);
    }
    let snap = lat.snapshot();
    println!(
        "private registry: {} hits, p50 ≈ {} ns over {} samples\n",
        hits.get(),
        snap.quantile_ns(0.5),
        snap.len()
    );

    // 2. The stack instruments itself into the GLOBAL registry: run a
    //    few KEM operations and the KEM and phase series fill in.
    let ctx = RlweContext::new(ParamSet::P1)?;
    let mut rng = HashDrbg::new([7u8; 32]);
    let (pk, sk) = ctx.generate_keypair(&mut rng)?;

    // 3. Every encrypt and decrypt records its pipeline phases into
    //    `rlwe_phase_ns{op, phase, param_set}`; read them back from the
    //    registry.
    for _ in 0..200 {
        let (ct, _ss) = ctx.encapsulate(&pk, &mut rng)?;
        let _ = ctx.decapsulate(&sk, &ct)?;
    }
    let set = ctx.params().obs_label();
    println!("pipeline phases (from rlwe_phase_ns, {set}):");
    let phases = ENCRYPT_PHASES
        .iter()
        .map(|phase| ("encrypt", phase))
        .chain(DECRYPT_PHASES.iter().map(|phase| ("decrypt", phase)));
    for (op, phase) in phases {
        let snap = phase_histogram(op, phase, &set).snapshot();
        println!(
            "  {:<20} {:>6} calls, p50 ≈ {:>7.0} ns, {:>9} ns total",
            format!("{op}.{phase}"),
            snap.len(),
            snap.quantile_ns(0.5),
            snap.sum_ns()
        );
    }

    // 4. The exporter is a pure function of a registry — a metrics
    //    endpoint serves its string verbatim.
    let text = obs::render();
    let interesting = text
        .lines()
        .filter(|l| l.contains("rlwe_kem_op_ns"))
        .take(12)
        .collect::<Vec<_>>()
        .join("\n");
    println!("\nselected exposition lines:\n{interesting}");
    println!("\nfull export: {} bytes of text", text.len());
    Ok(())
}
