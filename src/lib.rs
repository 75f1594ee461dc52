//! # rlwe-suite
//!
//! Facade crate for the reproduction of *"Efficient Software Implementation
//! of Ring-LWE Encryption"* (De Clercq, Roy, Vercauteren, Verbauwhede —
//! DATE 2015).
//!
//! The workspace is organised bottom-up (see `DESIGN.md` for the full
//! inventory):
//!
//! * [`zq`] — modular arithmetic over NTT-friendly primes.
//! * [`bigfix`] — high-precision fixed point (Gaussian probabilities).
//! * [`ntt`] — negacyclic NTT engine (reference / AVX2, plus the paper's
//!   packed / parallel kernels),
//!   plus schoolbook and Karatsuba baselines.
//! * [`sampler`] — Knuth-Yao discrete Gaussian sampling with the paper's
//!   full optimisation ladder, CDT/rejection baselines, a constant-time
//!   variant, and FIPS 140-2 randomness tests.
//! * [`scheme`] — the ring-LWE public-key encryption scheme itself, plus
//!   KEM ([`scheme::kem`]), CCA ([`scheme::fo`]) extensions and the
//!   seed-deterministic DRBG ([`scheme::drbg`]).
//! * [`hash`] — SHA-256 / HMAC / KDF2 substrate for the ECC baseline, and
//!   the ChaCha20-Poly1305 AEAD of the engine's session framing.
//! * [`ecc`] — GF(2²³³)/K-233 ECIES baseline the paper compares against.
//! * [`m4sim`] — Cortex-M4F cost model that regenerates the paper's
//!   cycle-count tables.
//! * [`engine`] — the serving layer: context pooling and authenticated
//!   session streams (one KEM handshake, then symmetric frames). This
//!   is the serving-scale counterpart to the paper's single-operation
//!   focus; see `DESIGN.md` §2 for the pool and the frame format.
//! * [`leakage`] — the constant-time regression harness: a dudect-style
//!   Welch t-test over `decapsulate_cca` plus the deterministic
//!   operation-count checks that gate CI (see `DESIGN.md` §5).
//! * [`obs`] — unified observability: a metrics registry every layer
//!   reports into (pool, NTT dispatch, sessions, samplers, KEM
//!   latencies, per-phase encrypt/decrypt histograms), and
//!   Prometheus/JSON exporters — `rlwe_suite::obs::render()` is a
//!   ready-to-serve metrics endpoint body (see `DESIGN.md` §8).
//! * [`server`] — the TCP serving front-end: a std-only acceptor
//!   that hands each connection to a pooled worker thread of its own,
//!   typed `Busy` refusals at the `max_conns` ceiling, a length-prefixed protocol
//!   carrying the engine's authenticated sessions (ping, public key,
//!   session hello, session frame), env-driven
//!   [`server::ServerConfig`], graceful drain-and-join
//!   shutdown, and a same-port `GET /metrics` endpoint serving
//!   [`obs::render`] verbatim (see `DESIGN.md` §9 and
//!   `examples/serve.rs`).
//!
//! # Quickstart
//!
//! Contexts are configured through the builder: pick a parameter set and a
//! sampler variant, then encrypt. The NTT is not a knob: each context
//! runs the AVX2 transform when the host has it and the bit-identical
//! scalar reference otherwise. Keys and ciphertexts store NTT-domain
//! [`scheme::Poly`] values, which carry their modulus and are always
//! reduced.
//!
//! ```
//! use rlwe_suite::scheme::{NttBackend, ParamSet, RlweContext, SamplerKind};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ctx = RlweContext::builder(ParamSet::P1)
//!     .sampler(SamplerKind::Lut)
//!     .build()?;
//! // The host picked the NTT kernel; either one gives identical bytes.
//! assert!(matches!(ctx.backend(), NttBackend::Avx2 | NttBackend::Reference));
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let (pk, sk) = ctx.generate_keypair(&mut rng)?;
//! let msg = vec![0xA5u8; ctx.params().message_bytes()];
//! let ct = ctx.encrypt(&pk, &msg, &mut rng)?;
//! assert_eq!(ctx.decrypt(&sk, &ct)?, msg);
//! # Ok(())
//! # }
//! ```
//!
//! Hot loops should use the allocation-free `_into` siblings with a
//! caller-owned scratch arena (one per worker thread):
//!
//! ```
//! use rlwe_suite::scheme::{ParamSet, RlweContext};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ctx = RlweContext::new(ParamSet::P1)?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(11);
//! let (pk, sk) = ctx.generate_keypair(&mut rng)?;
//! let mut scratch = ctx.new_scratch();      // reusable working polynomials
//! let mut ct = ctx.empty_ciphertext();      // reusable output storage
//! let mut plain = Vec::new();
//! for round in 0u8..4 {
//!     let msg = vec![round; ctx.params().message_bytes()];
//!     // After the first round these calls allocate no polynomials at all.
//!     ctx.encrypt_into(&pk, &msg, &mut rng, &mut ct, &mut scratch)?;
//!     ctx.decrypt_into(&sk, &ct, &mut plain, &mut scratch)?;
//!     assert_eq!(plain, msg);
//! }
//! # Ok(())
//! # }
//! ```
//!
//! # Serving at scale
//!
//! ```
//! use rlwe_suite::engine::global_pool;
//! use rlwe_suite::scheme::drbg::HashDrbg;
//! use rlwe_suite::scheme::ParamSet;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Contexts are pooled: a second lookup for the same parameter set
//! // reuses the NTT plans and sampler tables instead of rebuilding them.
//! let ctx = global_pool().get(ParamSet::P1)?;
//! assert!(Arc::ptr_eq(&ctx, &global_pool().get(ParamSet::P1)?));
//! let (pk, _sk) = ctx.generate_keypair(&mut HashDrbg::new([7u8; 32]))?;
//! // One `&self` context serves every thread; each request draws its
//! // coins from its own DRBG stream.
//! std::thread::scope(|s| {
//!     for i in 0..4u64 {
//!         let (ctx, pk) = (&ctx, &pk);
//!         s.spawn(move || {
//!             let mut rng = HashDrbg::for_stream(&[42u8; 32], i);
//!             let msg = vec![i as u8; ctx.params().message_bytes()];
//!             ctx.encrypt(pk, &msg, &mut rng).unwrap()
//!         });
//!     }
//! });
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use rlwe_bigfix as bigfix;
pub use rlwe_core as scheme;
pub use rlwe_ecc as ecc;
pub use rlwe_engine as engine;
pub use rlwe_hash as hash;
pub use rlwe_leakage as leakage;
pub use rlwe_m4sim as m4sim;
pub use rlwe_ntt as ntt;
pub use rlwe_obs as obs;
pub use rlwe_sampler as sampler;
pub use rlwe_server as server;
pub use rlwe_zq as zq;
