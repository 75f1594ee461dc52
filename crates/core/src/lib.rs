//! The ring-LWE public-key encryption scheme of the DATE 2015 paper.
//!
//! This crate implements the Lyubashevsky–Peikert–Regev (LPR) encryption
//! scheme in the *NTT-domain* formulation of Roy et al. (CHES 2014) that
//! the paper adopts to minimise the number of NTT operations (§II-A):
//!
//! * **Key generation** — sample `r₁, r₂ ← X_σ`; publish
//!   `(ã, p̃ = r̃₁ − ã∘r̃₂)`, keep `r̃₂`. Keys live permanently in the NTT
//!   domain; `r₁` is never needed again.
//! * **Encryption** — sample `e₁, e₂, e₃ ← X_σ`, encode the message `m` to
//!   `m̄` (bit → {0, ⌊q/2⌋}), and output
//!   `(c̃₁, c̃₂) = (ã∘ẽ₁ + ẽ₂, p̃∘ẽ₁ + NTT(e₃ + m̄))`.
//!   Exactly **three forward NTTs** are needed — which is why the paper's
//!   *parallel NTT* (three transforms fused in one loop) exists.
//! * **Decryption** — `m' = INTT(c̃₁∘r̃₂ + c̃₂)`; a threshold decoder maps
//!   each coefficient back to a bit. One inverse NTT, no forward NTTs.
//!
//! Parameter sets match the paper: [`ParamSet::P1`] `(n=256, q=7681,
//! σ=11.31/√2π)` for medium-term security and [`ParamSet::P2`] `(512,
//! 12289, 12.18/√2π)` for long-term security.
//!
//! The scheme is CPA-secure (like the paper's; no CCA transform is applied)
//! and additionally exposes the additive homomorphism of LPR ciphertexts
//! ([`RlweContext::add_ciphertexts`]) as an extension.
//!
//! # Example
//!
//! ```
//! use rlwe_core::{ParamSet, RlweContext};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), rlwe_core::RlweError> {
//! let ctx = RlweContext::new(ParamSet::P1)?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let (pk, sk) = ctx.generate_keypair(&mut rng)?;
//! let msg = b"32-byte message for n=256 ring!!".to_vec();
//! let ct = ctx.encrypt(&pk, &msg, &mut rng)?;
//! assert_eq!(ctx.decrypt(&sk, &ct)?, msg);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod context;
mod encode;
mod error;
mod keys;
mod params;
mod poly;
mod serialize;

pub mod drbg;
pub mod fo;
pub mod kem;

pub use context::{
    phase_histogram, DecryptionDiagnostics, NttBackend, RlweContext, RlweContextBuilder,
    SamplerKind, DECRYPT_PHASES, ENCRYPT_PHASES,
};
pub use encode::{
    decode_coefficient, decode_message, decode_message_into, encode_message,
    encode_message_add_assign,
};
pub use error::RlweError;
pub use keys::{Ciphertext, KeyPair, PublicKey, SecretKey};
pub use params::{ParamSet, Params};
pub use poly::Poly;
pub use rlwe_ntt::PolyScratch;
pub use rlwe_zq::ReducerKind;
pub use serialize::{pack_coeffs, unpack_coeffs};
