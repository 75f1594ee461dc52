//! SHA-256, HMAC-SHA256, KDF2 and a SHA-256 counter-mode keystream —
//! implemented from scratch.
//!
//! The paper compares its ring-LWE encryption against ECIES (Table IV).
//! ECIES needs a key-derivation function and a MAC on top of the curve
//! arithmetic; since this reproduction builds every substrate itself, the
//! hash stack lives here. The implementations follow FIPS 180-4 (SHA-256),
//! RFC 2104 (HMAC) and ISO 18033-2 (KDF2) and are validated against the
//! published test vectors. [`Keystream`] is the session layer's frame
//! cipher: one compression per 32 output bytes from a keyed midstate.
//!
//! # Example
//!
//! ```
//! use rlwe_hash::Sha256;
//!
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(
//!     hex(&digest),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
//! );
//! # fn hex(b: &[u8]) -> String { b.iter().map(|x| format!("{x:02x}")).collect() }
//! ```

// `deny` rather than the workspace `forbid`: the SHA-NI compression
// backend (src/shani.rs) needs `#[target_feature]` intrinsics, and
// `forbid` cannot be overridden by a scoped allow. The only `unsafe`
// in the crate is the detection-gated `shani::kernel` module
// (mirroring the rlwe-ntt / rlwe-sampler AVX2 precedent).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod hmac;
mod kdf;
mod keystream;
mod sha256;
#[cfg(target_arch = "x86_64")]
mod shani;

pub mod probe;

pub use hmac::HmacSha256;
pub use kdf::kdf2;
pub use keystream::Keystream;
pub use sha256::Sha256;
