//! Layer replay: times each layer's public entry point in-process, on
//! the server's own key (re-derived from the workload seed), the hellos
//! the workload sent and its payload sizes.
//!
//! Each layer is called the way the serving context calls it: the
//! pooled default context, HashDrbg coins, the reducer-dispatched NTT
//! plan and the context's sampler rung.

use crate::stats::{derive_seed, median};
use rand::RngCore;
use rlwe_core::drbg::HashDrbg;
use rlwe_core::{
    decode_message_into, encode_message_add_assign, Ciphertext, NttBackend, ParamSet, PublicKey,
};
use rlwe_engine::{Session, SessionError};
use rlwe_hash::{kdf2, HmacSha256, Sha256};
use rlwe_ntt::{pointwise, AnyNttPlan};
use rlwe_sampler::random::{BufferedBitSource, WordSource};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Layer name → value (µs unless the name says otherwise).
pub type Layers = BTreeMap<&'static str, f64>;

/// Sealed-echo payload sizes the replay covers.
pub const PAYLOAD_SIZES: [usize; 2] = [64, 16 * 1024];

/// Per payload size: seal, open, frame keystream (KDF2) and frame tag
/// (HMAC) layer names.
const FRAME_LAYERS: [[&str; 4]; 2] = [
    [
        "engine.session.seal_64b_us",
        "engine.session.open_64b_us",
        "hash.keystream_64b_us",
        "hash.frame_tag_64b_us",
    ],
    [
        "engine.session.seal_16k_us",
        "engine.session.open_16k_us",
        "hash.keystream_16k_us",
        "hash.frame_tag_16k_us",
    ],
];

/// Timed blocks per measurement; the median block is reported.
const BLOCKS: usize = 41;
/// Minimum length of one timed block, so clock reads stay negligible.
const BLOCK_S: f64 = 50e-6;

/// Median time of one `f` call in µs. `f` receives a call counter that
/// increases across warm-up and timed calls (to cycle inputs).
fn time_us(mut f: impl FnMut(usize)) -> f64 {
    let mut k = 0;
    let mut call = |f: &mut dyn FnMut(usize)| {
        f(k);
        k += 1;
    };
    let t0 = Instant::now();
    for _ in 0..4 {
        call(&mut f);
    }
    let once = t0.elapsed().as_secs_f64() / 4.0;
    let batch = ((BLOCK_S / once.max(1e-9)).ceil() as usize).clamp(1, 100_000);
    let mut per_call: Vec<f64> = (0..BLOCKS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                call(&mut f);
            }
            t.elapsed().as_secs_f64() * 1e6 / batch as f64
        })
        .collect();
    median(&mut per_call)
}

/// The sampler's word source over a HashDrbg, refilled 64 bytes at a
/// time like the context's own adapter.
struct DrbgWords<'a>(&'a mut HashDrbg);

impl WordSource for DrbgWords<'_> {
    fn next_word(&mut self) -> u32 {
        self.0.next_u32()
    }

    fn fill_words(&mut self, out: &mut [u32]) {
        let mut buf = [0u8; 64];
        for chunk in out.chunks_mut(16) {
            let bytes = &mut buf[..4 * chunk.len()];
            self.0.fill_bytes(bytes);
            for (w, b) in chunk.iter_mut().zip(bytes.chunks_exact(4)) {
                *w = u32::from_le_bytes(b.try_into().expect("4-byte chunk"));
            }
        }
    }
}

/// Runs `$body` with `$p` bound to the typed plan, as the context does.
macro_rules! with_plan {
    ($plan:expr, |$p:ident| $body:expr) => {
        match $plan {
            AnyNttPlan::Q7681($p) => $body,
            AnyNttPlan::Q12289($p) => $body,
            AnyNttPlan::Generic($p) => $body,
        }
    };
}

/// A hello and whether the server accepted it.
pub type Hello = (Vec<u8>, bool);

/// What one parameter set's replay measured.
pub struct SetReplay {
    pub layers: Layers,
    /// Hellos whose replayed accept disagreed with the server's verdict.
    pub verdict_mismatches: usize,
}

/// Replays every layer of one parameter set. `recorded` are hellos the
/// workload sent to a server keyed from `seed`; when empty (the set the
/// workload does not serve), hellos are generated the same way.
pub fn replay_set(set: ParamSet, seed: u64, recorded: &[Hello]) -> Result<SetReplay, String> {
    let err = |e: &dyn std::fmt::Display| format!("replay {set:?}: {e}");
    let ctx = rlwe_engine::global_pool().get(set).map_err(|e| err(&e))?;
    let (pk, sk) = ctx
        .generate_keypair(&mut HashDrbg::new(derive_seed(seed, "server", 0, 0)))
        .map_err(|e| err(&e))?;
    let replay_master = derive_seed(seed, "replay", 0, 0);
    let hellos: Vec<Hello> = if recorded.is_empty() {
        (0..64)
            .map(|i| {
                let mut rng = HashDrbg::for_stream(&replay_master, i);
                let (_, hello) = Session::initiate(&ctx, &pk, &mut rng).map_err(|e| err(&e))?;
                let accepted = Session::accept(&ctx, &sk, &hello).is_ok();
                Ok((hello, accepted))
            })
            .collect::<Result<_, String>>()?
    } else {
        recorded.to_vec()
    };
    let verdict_mismatches = hellos
        .iter()
        .filter(
            |(hello, accepted)| match Session::accept(&ctx, &sk, hello) {
                Ok(_) => !accepted,
                Err(SessionError::HandshakeFailed) => *accepted,
                Err(_) => true,
            },
        )
        .count();
    let ct_bytes: Vec<&[u8]> = hellos.iter().map(|(h, _)| &h[..h.len() - 32]).collect();
    let cts: Vec<Ciphertext> = ct_bytes
        .iter()
        .map(|b| Ciphertext::from_bytes(b))
        .collect::<Result<_, _>>()
        .map_err(|e| err(&e))?;
    let pk_bytes = pk.to_bytes().map_err(|e| err(&e))?;
    let pick = |k: usize| k % cts.len();

    let mut l = Layers::new();
    let (n, q) = (ctx.params().n(), ctx.params().q());
    let mut scratch = ctx.new_scratch();
    let mut drbg = HashDrbg::new(derive_seed(seed, "replay-coins", set.id().into(), 0));
    let mut msg = vec![0u8; ctx.params().message_bytes()];
    drbg.fill_bytes(&mut msg);

    // engine.session
    l.insert(
        "engine.session.initiate_us",
        time_us(|k| {
            let mut rng = HashDrbg::for_stream(&replay_master, k as u64);
            black_box(Session::initiate(&ctx, &pk, &mut rng).is_ok());
        }),
    );
    l.insert(
        "engine.session.accept_us",
        time_us(|k| {
            black_box(Session::accept(&ctx, &sk, &hellos[pick(k)].0).is_ok());
        }),
    );

    // core.serialize
    l.insert(
        "core.serialize.ct_to_bytes_us",
        time_us(|k| {
            black_box(cts[pick(k)].to_bytes().map(|b| b.len()).unwrap_or(0));
        }),
    );
    l.insert(
        "core.serialize.ct_from_bytes_us",
        time_us(|k| {
            black_box(Ciphertext::from_bytes(ct_bytes[pick(k)]).is_ok());
        }),
    );
    l.insert(
        "core.serialize.pk_to_bytes_us",
        time_us(|_| {
            black_box(pk.to_bytes().map(|b| b.len()).unwrap_or(0));
        }),
    );
    l.insert(
        "core.serialize.pk_from_bytes_us",
        time_us(|_| {
            black_box(PublicKey::from_bytes(&pk_bytes).is_ok());
        }),
    );

    // core.kem and core.pke
    let mut ct = ctx.empty_ciphertext();
    l.insert(
        "core.kem.encap_us",
        time_us(|_| {
            black_box(
                ctx.encapsulate_into(&pk, &mut drbg, &mut ct, &mut scratch)
                    .is_ok(),
            );
        }),
    );
    l.insert(
        "core.kem.decap_us",
        time_us(|k| {
            black_box(
                ctx.decapsulate_with_scratch(&sk, &cts[pick(k)], &mut scratch)
                    .is_ok(),
            );
        }),
    );
    l.insert(
        "core.pke.encrypt_us",
        time_us(|_| {
            black_box(
                ctx.encrypt_into(&pk, &msg, &mut drbg, &mut ct, &mut scratch)
                    .is_ok(),
            );
        }),
    );
    let mut out = Vec::with_capacity(msg.len());
    l.insert(
        "core.pke.decrypt_us",
        time_us(|k| {
            black_box(
                ctx.decrypt_into(&sk, &cts[pick(k)], &mut out, &mut scratch)
                    .is_ok(),
            );
        }),
    );

    // core.encode
    let mut coeffs = vec![0u32; n];
    l.insert(
        "core.encode.encode_us",
        time_us(|_| encode_message_add_assign(black_box(&msg), &mut coeffs, q)),
    );
    l.insert(
        "core.encode.decode_us",
        time_us(|_| decode_message_into(black_box(&coeffs), q, &mut out)),
    );

    // sampler and ntt, on the context's reducer-dispatched plan
    let plan = AnyNttPlan::promote_for_backend(ctx.plan().clone(), ctx.backend_label());
    let avx2 = ctx.backend() == NttBackend::Avx2;
    let mut a = ct.c1_poly().as_slice().to_vec();
    let b = ct.c2_poly().as_slice().to_vec();
    with_plan!(&plan, |p| {
        l.insert(
            "sampler.sample_poly_us",
            time_us(|_| {
                let mut bits = BufferedBitSource::buffered(DrbgWords(&mut drbg));
                match ctx.ct_sampler() {
                    Some(cdt) => cdt.sample_poly_into(p.reducer(), &mut bits, &mut coeffs),
                    None => {
                        ctx.sampler()
                            .sample_poly_reduced_into(p.reducer(), &mut bits, &mut coeffs)
                    }
                }
                black_box(&coeffs);
            }),
        );
        l.insert(
            "ntt.forward_us",
            time_us(|_| {
                if avx2 {
                    plan.forward_avx2(&mut a);
                } else {
                    plan.forward(&mut a);
                }
                black_box(&a);
            }),
        );
        l.insert(
            "ntt.inverse_us",
            time_us(|_| {
                if avx2 {
                    plan.inverse_avx2(&mut a);
                } else {
                    plan.inverse(&mut a);
                }
                black_box(&a);
            }),
        );
        let mut acc = b.clone();
        l.insert(
            "ntt.pointwise_us",
            time_us(|_| {
                black_box(pointwise::mul_add_assign(&mut acc, &a, &b, p.reducer()).is_ok());
            }),
        );
    });

    l.insert(
        "hash.sha256_us",
        time_us(|k| {
            black_box(Sha256::digest(ct_bytes[pick(k)]));
        }),
    );
    Ok(SetReplay {
        layers: l,
        verdict_mismatches,
    })
}

/// Replays the layers that do not depend on the parameter set: the
/// DRBG, the bulk hash rates, and sealing and opening frames of both
/// payload sizes on a P1 session.
pub fn replay_symmetric(seed: u64, payloads: &[Vec<u8>; 2]) -> Result<Layers, String> {
    let err = |e: &dyn std::fmt::Display| format!("replay: {e}");
    let mut l = Layers::new();
    let mut drbg = HashDrbg::new(derive_seed(seed, "replay-coins", 0, 0));
    let mut buf = vec![0u8; 4096];
    l.insert(
        "core.drbg.fill_ns_per_byte",
        time_us(|_| drbg.fill_bytes(black_box(&mut buf))) * 1e3 / buf.len() as f64,
    );
    let key = derive_seed(seed, "replay-key", 0, 0);
    let big = &payloads[1];
    let mut ks_info = [0u8; 14 + 16 + 8];
    ks_info[..14].copy_from_slice(b"rlwe-engine/ks");
    l.insert(
        "hash.kdf2_ns_per_byte",
        time_us(|_| {
            black_box(kdf2(&key, &ks_info, big.len()));
        }) * 1e3
            / big.len() as f64,
    );
    l.insert(
        "hash.hmac_ns_per_byte",
        time_us(|_| {
            black_box(HmacSha256::mac(&key, black_box(big)));
        }) * 1e3
            / big.len() as f64,
    );

    let mut info = Vec::new();
    info.extend_from_slice(b"rlwe-engine/i2r");
    info.extend_from_slice(&[0u8; 16]);
    l.insert(
        "hash.kdf2_keys_us",
        time_us(|_| {
            black_box(kdf2(&key, &info, 64));
        }),
    );
    l.insert(
        "hash.hmac_confirm_us",
        time_us(|_| {
            let mut h = HmacSha256::new(&key);
            h.update(b"rlwe-engine/confirm");
            h.update(&info[15..]);
            black_box(h.finalize());
        }),
    );

    let ctx = rlwe_engine::global_pool()
        .get(ParamSet::P1)
        .map_err(|e| err(&e))?;
    let (pk, sk) = ctx
        .generate_keypair(&mut HashDrbg::new(key))
        .map_err(|e| err(&e))?;
    let (initiator, responder) = (0..8)
        .find_map(|attempt| {
            let mut rng = HashDrbg::for_stream(&key, attempt);
            let (initiator, hello) = Session::initiate(&ctx, &pk, &mut rng).ok()?;
            Some((initiator, Session::accept(&ctx, &sk, &hello).ok()?))
        })
        .ok_or("replay: no session in eight attempts")?;
    for (names, payload) in FRAME_LAYERS.iter().zip(payloads) {
        let mut tx = initiator.sender();
        let seal = time_us(|_| {
            black_box(tx.seal(payload));
        });
        let frame = initiator.sender().seal(payload);
        let open = time_us(|_| {
            black_box(responder.receiver().open(&frame).is_ok());
        });
        let keystream = time_us(|_| {
            black_box(kdf2(&key, &ks_info, payload.len()));
        });
        let tag = time_us(|_| {
            let mut h = HmacSha256::new(&key);
            h.update(&ks_info[14..30]);
            h.update(black_box(&frame[..frame.len() - 32]));
            black_box(h.finalize());
        });
        l.extend(names.iter().copied().zip([seal, open, keystream, tag]));
    }
    Ok(l)
}
