//! Machine-readable performance snapshot of the suite's hot paths.
//!
//! Measures the NTT (forward/inverse), full negacyclic multiplication and
//! the scheme's encrypt/decrypt throughput on this host, and — with
//! `--json` — writes the numbers as a `BENCH_<PR>.json` snapshot so the
//! repository accumulates a benchmark trajectory across PRs.
//!
//! The scalar NTT arms come in two flavours: the default names
//! (`ntt_forward_p1_n256`, …) measure the **specialized**
//! `Q7681`/`Q12289` reducer plans the dispatch layer selects for the
//! paper's parameter sets, while the `_generic` siblings run the
//! runtime-Barrett plan on the same ring (the specialization ablation,
//! DESIGN.md §7); `_avx2` measures the vector kernel. The scheme arms
//! (`encrypt_p1`, …) measure the default context, which runs the AVX2
//! NTT wherever the host has it; next to encrypt/decrypt they time wire
//! serialization (`ct_to_bytes_p2`, …), CPA and CCA encap/decap and the
//! session handshake's two halves. The frame arms time one P1 session's
//! symmetric layer at 64 B and 16 KiB: the ChaCha20 keystream alone
//! (`frame_chacha20_*`), Poly1305 alone (`frame_poly1305_*`), and whole
//! `seal`/`open` calls (`session_seal_*`, `session_open_*`). The DRBG
//! arms time the coin source error sampling draws from: one P2 CT-CDT
//! encapsulation's worth of bytes from a fresh `HashDrbg`
//! (`drbg_fill_24k`), and a P2 encrypt on the CT-CDT rung
//! (`encrypt_ct_p2`), which draws them.
//!
//! ```text
//! cargo run --release -p rlwe-bench --bin perf_snapshot            # print only
//! cargo run --release -p rlwe-bench --bin perf_snapshot -- --json  # + BENCH_27.json
//! cargo run --release -p rlwe-bench --bin perf_snapshot -- --smoke # CI: few reps
//! ```
//!
//! `--json [PATH]` defaults to `BENCH_27.json` in the working directory;
//! `--smoke` cuts repetition counts ~100× so CI can exercise the binary in
//! seconds (the numbers are then smoke-quality — trend data comes from
//! full runs).

use std::hint::black_box;
use std::time::Instant;

use rlwe_bench::snapshot::{Snapshot, SnapshotEntry};

/// The PR this snapshot belongs to — bump once per PR; it names the
/// default `--json` output file and is recorded inside the document.
const PR: u32 = 27;
use rand::RngCore;
use rlwe_core::drbg::HashDrbg;
use rlwe_core::{Ciphertext, ParamSet, PublicKey, RlweContext, SamplerKind};
use rlwe_engine::Session;
use rlwe_hash::{chacha20_xor, poly1305};
use rlwe_ntt::NttPlan;
use rlwe_sampler::ct::CtCdtSampler;
use rlwe_sampler::random::{BitSource, BufferedBitSource, SplitMix64};
use rlwe_sampler::ProbabilityMatrix;
use rlwe_zq::reduce::{Q12289, Q7681};
use rlwe_zq::Reducer;

/// Times `f` over `reps` repetitions (after one warm-up call) and returns
/// nanoseconds per call.
fn time_ns<F: FnMut()>(mut f: F, reps: u32) -> f64 {
    f();
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_secs_f64() * 1e9 / reps as f64
}

fn demo(n: usize, q: u32, seed: u32) -> Vec<u32> {
    (0..n as u32)
        .map(|i| (i.wrapping_mul(seed) + 1) % q)
        .collect()
}

/// NTT-layer arms for one plan instantiation; callers pass the full
/// `label` — the bare ring name (`"p1_n256"`) for the dispatched
/// specialized plan, the `_generic`-suffixed form for the forced
/// runtime-Barrett ablation arm.
fn bench_ntt_plan<R: Reducer>(snap: &mut Snapshot, plan: &NttPlan<R>, label: &str, ntt_reps: u32) {
    let n = plan.n();
    let q = plan.q();
    let poly = demo(n, q, 31);
    let other = demo(n, q, 77);

    let mut buf = poly.clone();
    let fwd = time_ns(
        || {
            buf.copy_from_slice(&poly);
            plan.forward(std::hint::black_box(&mut buf));
        },
        ntt_reps,
    );
    snap.push(SnapshotEntry::ns(format!("ntt_forward_{label}"), fwd));

    let hat = plan.forward_copy(&poly);
    let inv = time_ns(
        || {
            buf.copy_from_slice(&hat);
            plan.inverse(std::hint::black_box(&mut buf));
        },
        ntt_reps,
    );
    snap.push(SnapshotEntry::ns(format!("ntt_inverse_{label}"), inv));

    let mut out = vec![0u32; n];
    let mut scratch = rlwe_ntt::PolyScratch::new(n);
    let mul = time_ns(
        || {
            plan.negacyclic_mul_into(
                std::hint::black_box(&poly),
                std::hint::black_box(&other),
                &mut out,
                &mut scratch,
            )
            .expect("lengths match");
        },
        ntt_reps / 2,
    );
    snap.push(SnapshotEntry::ns(format!("negacyclic_mul_{label}"), mul));
}

/// Vector-backend NTT arms for one plan: the single-polynomial AVX2
/// transform (`_avx2`). On hosts without AVX2 these measure the
/// bit-identical scalar fallback — the snapshot records whether the
/// vector unit was live in `avx2_host`.
fn bench_ntt_avx2<R: Reducer>(snap: &mut Snapshot, plan: &NttPlan<R>, label: &str, ntt_reps: u32) {
    let n = plan.n();
    let q = plan.q();
    let poly = demo(n, q, 31);

    let mut buf = poly.clone();
    let fwd = time_ns(
        || {
            buf.copy_from_slice(&poly);
            plan.forward_avx2(std::hint::black_box(&mut buf));
        },
        ntt_reps,
    );
    snap.push(SnapshotEntry::ns(format!("ntt_forward_{label}_avx2"), fwd));

    let hat = plan.forward_copy(&poly);
    let inv = time_ns(
        || {
            buf.copy_from_slice(&hat);
            plan.inverse_avx2(std::hint::black_box(&mut buf));
        },
        ntt_reps,
    );
    snap.push(SnapshotEntry::ns(format!("ntt_inverse_{label}_avx2"), inv));
}

/// Pre-PR-7 bit-source behavior for the sampler ablation: forwards only
/// `take_bit`, so `take_bits` falls back to the trait's per-bit loop,
/// and wraps an *unbuffered* source, so every register refill is a
/// single-word fetch. Together these reproduce the scalar baseline the
/// bulk-refill and word-at-a-time fast paths replaced.
struct BitAtATime<B>(B);

impl<B: BitSource> BitSource for BitAtATime<B> {
    fn take_bit(&mut self) -> u32 {
        self.0.take_bit()
    }
    fn bits_drawn(&self) -> u64 {
        self.0.bits_drawn()
    }
}

/// Sampler ablation arms (ns **per sample**, constant-time CDT rung,
/// one ring-sized fill per measurement): the pre-PR scalar baseline
/// (`_scalar`), the bulk-refill + word-wise bit extraction path on the
/// same per-sample kernel (`_bulk`), and the 8-lane table scan (`_avx2`
/// where the host has it — otherwise the bit-identical scalar kernel).
fn bench_sampler<R: Reducer>(
    snap: &mut Snapshot,
    pmat: &ProbabilityMatrix,
    r: R,
    n: usize,
    label: &str,
    reps: u32,
) {
    let ct = CtCdtSampler::new(pmat);
    let mut out = vec![0u32; n];

    let scalar = time_ns(
        || {
            let mut bits = BitAtATime(BufferedBitSource::new(SplitMix64::new(0x5EED)));
            for c in out.iter_mut() {
                *c = ct.sample(&mut bits).to_zq_with(&r);
            }
            std::hint::black_box(&out);
        },
        reps,
    );
    snap.push(SnapshotEntry::ns(
        format!("sample_ct_{label}_scalar"),
        scalar / n as f64,
    ));

    let bulk = time_ns(
        || {
            let mut bits = BufferedBitSource::buffered(SplitMix64::new(0x5EED));
            for c in out.iter_mut() {
                *c = ct.sample(&mut bits).to_zq_with(&r);
            }
            std::hint::black_box(&out);
        },
        reps,
    );
    snap.push(SnapshotEntry::ns(
        format!("sample_ct_{label}_bulk"),
        bulk / n as f64,
    ));

    let vector = time_ns(
        || {
            let mut bits = BufferedBitSource::buffered(SplitMix64::new(0x5EED));
            ct.sample_poly_into(&r, &mut bits, &mut out);
            std::hint::black_box(&out);
        },
        reps,
    );
    snap.push(SnapshotEntry::ns(
        format!("sample_ct_{label}_avx2"),
        vector / n as f64,
    ));
}

/// Scheme-layer arms (encrypt/decrypt) for one context; `label` as in
/// [`bench_ntt_plan`].
fn bench_scheme(snap: &mut Snapshot, ctx: &RlweContext, label: &str, scheme_reps: u32) {
    let mut rng = HashDrbg::new([7u8; 32]);
    let (pk, sk) = ctx.generate_keypair(&mut rng).expect("keygen");
    let msg = vec![0xA5u8; ctx.params().message_bytes()];
    let mut scratch = ctx.new_scratch();
    let mut ct = ctx.empty_ciphertext();
    ctx.encrypt_into(&pk, &msg, &mut rng, &mut ct, &mut scratch)
        .expect("encrypt");

    let enc = time_ns(
        || {
            ctx.encrypt_into(&pk, &msg, &mut rng, &mut ct, &mut scratch)
                .expect("encrypt");
        },
        scheme_reps,
    );
    snap.push(SnapshotEntry::ns(format!("encrypt_{label}"), enc));

    let mut pt = vec![0u8; ctx.params().message_bytes()];
    let dec = time_ns(
        || {
            ctx.decrypt_into(&sk, &ct, &mut pt, &mut scratch)
                .expect("decrypt");
        },
        scheme_reps,
    );
    snap.push(SnapshotEntry::ns(format!("decrypt_{label}"), dec));

    // Wire serialization, the KEM paths that hash it, and the session
    // handshake that carries it.
    macro_rules! arm {
        ($name:literal, $reps:expr, $op:expr) => {{
            let ns = time_ns(
                || {
                    black_box($op.is_ok());
                },
                $reps,
            );
            snap.push(SnapshotEntry::ns(format!("{}_{label}", $name), ns));
        }};
    }
    let ct_bytes = ct.to_bytes().expect("named set");
    let pk_bytes = pk.to_bytes().expect("named set");
    arm!("ct_to_bytes", scheme_reps * 10, ct.to_bytes());
    arm!(
        "ct_from_bytes",
        scheme_reps * 10,
        Ciphertext::from_bytes(&ct_bytes)
    );
    arm!("pk_to_bytes", scheme_reps * 10, pk.to_bytes());
    arm!(
        "pk_from_bytes",
        scheme_reps * 10,
        PublicKey::from_bytes(&pk_bytes)
    );
    let (cca_ct, _) = ctx.encapsulate_cca(&pk, &mut rng).expect("encap");
    let (_, hello) = Session::initiate(ctx, &pk, &mut rng).expect("initiate");
    arm!(
        "encap",
        scheme_reps,
        ctx.encapsulate_into(&pk, &mut rng, &mut ct, &mut scratch)
    );
    arm!(
        "decap",
        scheme_reps,
        ctx.decapsulate_with_scratch(&sk, &cca_ct, &mut scratch)
    );
    arm!(
        "encap_cca",
        scheme_reps,
        ctx.encapsulate_cca_with_scratch(&pk, &mut rng, &mut scratch)
    );
    arm!(
        "decap_cca",
        scheme_reps,
        ctx.decapsulate_cca_with_scratch(&sk, &pk, &cca_ct, &mut scratch)
    );
    arm!(
        "session_initiate",
        scheme_reps,
        Session::initiate(ctx, &pk, &mut rng)
    );
    arm!(
        "session_accept",
        scheme_reps,
        // ct-allow(benchmark loop over a fixed hello; the verdict is discarded)
        Session::accept(ctx, &sk, &hello)
    );
}

/// Frame-layer arms on one P1 session, per payload size: the ChaCha20
/// keystream XOR from block 1, as the AEAD runs it; Poly1305 over the
/// payload (the AEAD's MAC input adds the 13-byte header, padding and
/// one length block, about 48 bytes); and whole `seal`/`open` calls.
/// Each `open` runs on a fresh receiver, so it includes cloning the
/// direction's key.
fn bench_frames(snap: &mut Snapshot, small_reps: u32, bulk_reps: u32) {
    let ctx = RlweContext::new(ParamSet::P1).expect("named set");
    let (pk, sk) = ctx
        .generate_keypair(&mut HashDrbg::new([9u8; 32]))
        .expect("keygen");
    let (initiator, responder) = (0..8)
        .find_map(|attempt| {
            let mut rng = HashDrbg::for_stream(&[10u8; 32], attempt);
            let (initiator, hello) = Session::initiate(&ctx, &pk, &mut rng).expect("initiate");
            // ct-allow(benchmark fixture: retries the public ~1% handshake failure)
            let responder = Session::accept(&ctx, &sk, &hello).ok()?;
            Some((initiator, responder))
        })
        .expect("a P1 handshake within eight attempts");
    let (key, nonce, otk) = ([0x4Bu8; 32], [0x50u8; 12], [0x4Du8; 32]);

    for (label, len, reps) in [("64b", 64usize, small_reps), ("16k", 16 << 10, bulk_reps)] {
        let payload = vec![0xA5u8; len];
        let mut buf = payload.clone();
        let chacha = time_ns(|| chacha20_xor(&key, &nonce, 1, black_box(&mut buf)), reps);
        snap.push(SnapshotEntry::ns(format!("frame_chacha20_{label}"), chacha));

        let mac = time_ns(
            || {
                black_box(poly1305(&otk, black_box(&buf)));
            },
            reps,
        );
        snap.push(SnapshotEntry::ns(format!("frame_poly1305_{label}"), mac));

        let frame = initiator.sender().seal(&payload);

        let mut tx = initiator.sender();
        let seal = time_ns(|| drop(black_box(tx.seal(&payload))), reps);
        snap.push(SnapshotEntry::ns(format!("session_seal_{label}"), seal));

        let open = time_ns(
            || {
                black_box(responder.receiver().open(&frame).is_ok());
            },
            reps,
        );
        snap.push(SnapshotEntry::ns(format!("session_open_{label}"), open));
    }
}

/// Bytes one P2 encapsulation draws from its DRBG on the CT-CDT rung:
/// 3 × 512 samples of 129 bits, 31 bits per word, in 16-word blocks
/// (25,600 B), plus the 64-byte random message.
const CT_P2_DRBG_BYTES: usize = 25_664;

/// DRBG arms: `CT_P2_DRBG_BYTES` from a fresh `HashDrbg` (a new
/// generator per call, as each encapsulation makes), and a P2 encrypt on
/// the CT-CDT rung with `HashDrbg` coins.
fn bench_drbg(snap: &mut Snapshot, scheme_reps: u32) {
    let mut out = vec![0u8; CT_P2_DRBG_BYTES];
    let fill = time_ns(
        || HashDrbg::new(black_box([5u8; 32])).fill_bytes(black_box(&mut out)),
        scheme_reps * 4,
    );
    snap.push(SnapshotEntry::ns("drbg_fill_24k", fill));

    let ctx = RlweContext::builder(ParamSet::P2)
        .sampler(SamplerKind::CtCdt)
        .build()
        .expect("named set");
    let mut rng = HashDrbg::new([7u8; 32]);
    let (pk, _) = ctx.generate_keypair(&mut rng).expect("keygen");
    let msg = vec![0xA5u8; ctx.params().message_bytes()];
    let mut scratch = ctx.new_scratch();
    let mut ct = ctx.empty_ciphertext();
    let enc = time_ns(
        || {
            ctx.encrypt_into(&pk, &msg, &mut rng, &mut ct, &mut scratch)
                .expect("encrypt");
        },
        scheme_reps,
    );
    snap.push(SnapshotEntry::ns("encrypt_ct_p2", enc));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json_path = args.iter().position(|a| a == "--json").map(|i| {
        args.get(i + 1)
            .filter(|p| !p.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| format!("BENCH_{PR}.json"))
    });

    let (ntt_reps, scheme_reps): (u32, u32) = if smoke { (50, 5) } else { (20_000, 500) };
    let mut snap = Snapshot::new(PR, smoke);

    println!(
        "PERF SNAPSHOT ({} mode, ns/op and ops/s, this host)\n",
        if smoke { "smoke" } else { "full" }
    );
    println!("{:<34}{:>14}{:>16}", "benchmark", "ns/op", "ops/s");

    // --- NTT layer: specialized (the dispatched default) vs generic ------
    let p1 = NttPlan::with_reducer(256, Q7681).expect("paper ring");
    bench_ntt_plan(&mut snap, &p1, "p1_n256", ntt_reps);
    let p1_gen = NttPlan::new(256, 7681).expect("paper ring");
    bench_ntt_plan(&mut snap, &p1_gen, "p1_n256_generic", ntt_reps);

    let p2 = NttPlan::with_reducer(512, Q12289).expect("paper ring");
    bench_ntt_plan(&mut snap, &p2, "p2_n512", ntt_reps);
    let p2_gen = NttPlan::new(512, 12289).expect("paper ring");
    bench_ntt_plan(&mut snap, &p2_gen, "p2_n512_generic", ntt_reps);

    // --- Vector backend: AVX2 single-poly arms -----------------------------
    println!(
        "(avx2 host: {})",
        if rlwe_zq::cpu::avx2() {
            "yes"
        } else {
            "no — vector arms measure the scalar fallback"
        }
    );
    bench_ntt_avx2(&mut snap, &p1, "p1_n256", ntt_reps);
    bench_ntt_avx2(&mut snap, &p2, "p2_n512", ntt_reps);

    // --- Sampler layer: CT-CDT rung ablation (scalar / bulk / avx2), ns
    // per sample over one ring-sized fill --------------------------------
    println!(
        "(sampler avx2: {})",
        if rlwe_zq::cpu::avx2() {
            "yes"
        } else {
            "no — the _avx2 arms measure the scalar kernel"
        }
    );
    let pmat1 = ProbabilityMatrix::paper_p1().expect("paper table");
    bench_sampler(&mut snap, &pmat1, Q7681, 256, "p1", ntt_reps / 10);
    let pmat2 = ProbabilityMatrix::paper_p2().expect("paper table");
    bench_sampler(&mut snap, &pmat2, Q12289, 512, "p2", ntt_reps / 10);

    // --- Scheme layer: the default context --------------------------------
    for set in [ParamSet::P1, ParamSet::P2] {
        let label = match set {
            ParamSet::P1 => "p1",
            ParamSet::P2 => "p2",
        };
        let ctx = RlweContext::new(set).expect("named set");
        assert_ne!(
            ctx.reducer_kind(),
            rlwe_zq::ReducerKind::Barrett,
            "default context must dispatch to the specialized plan"
        );
        bench_scheme(&mut snap, &ctx, label, scheme_reps);
    }

    // --- Session framing: ChaCha20, Poly1305, seal and open on P1 ---------
    let kernels = rlwe_hash::backends();
    println!(
        "(frame kernels: chacha20 {}, poly1305 {})",
        kernels.chacha20, kernels.poly1305
    );
    bench_frames(&mut snap, ntt_reps, scheme_reps * 4);

    // --- DRBG: the coin source, alone and under a CT-CDT encrypt ---------
    bench_drbg(&mut snap, scheme_reps);

    for e in snap.entries() {
        println!("{:<34}{:>14.1}{:>16.0}", e.name, e.ns_per_op, e.ops_per_sec);
    }

    if let Some(path) = json_path {
        std::fs::write(&path, snap.to_json()).expect("write snapshot");
        println!("\nwrote {path}");
    }
}
