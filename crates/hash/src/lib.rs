//! SHA-256, HMAC-SHA256, KDF2 and ChaCha20-Poly1305 — implemented from
//! scratch.
//!
//! The paper compares its ring-LWE encryption against ECIES (Table IV).
//! ECIES needs a key-derivation function and a MAC on top of the curve
//! arithmetic; since this reproduction builds every substrate itself, the
//! hash stack lives here. The implementations follow FIPS 180-4 (SHA-256),
//! RFC 2104 (HMAC) and ISO 18033-2 (KDF2) and are validated against the
//! published test vectors. [`ChaCha20Poly1305`] (RFC 8439) is the
//! session layer's frame AEAD, and its ChaCha20 ([`chacha20_xor`]) is
//! also `rlwe-core`'s DRBG. Where the CPU has AVX-512F, its ChaCha20
//! runs sixteen blocks at a time on zmm registers, else eight at a time
//! on AVX2; its Poly1305 runs eight blocks at a time in radix-2⁴⁴ lanes
//! where the CPU has AVX-512 IFMA, else four at a time in radix-2²⁶
//! lanes on AVX2. The scalar block functions are the fallback, the tail
//! path and the test oracles. [`backends`] names the kernels a host
//! runs.
//! HMAC stays for the handshake's key-confirmation tag.
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
// backend (src/shani.rs), the AVX-512F/AVX2 ChaCha20 kernels
// (src/chacha_avx2.rs) and the AVX-512 IFMA and AVX2 Poly1305 kernels
// (src/poly1305_ifma.rs, src/poly1305_avx2.rs) need `#[target_feature]`
// intrinsics, and `forbid` cannot be overridden by a scoped allow. The
// only `unsafe` in the crate is the four detection-gated `kernel`
// modules, `shani::kernel`, `chacha_avx2::kernel`,
// `poly1305_ifma::kernel` and `poly1305_avx2::kernel` (mirroring the
// rlwe-ntt / rlwe-sampler AVX2 precedent).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod aead;
mod chacha20;
#[cfg(target_arch = "x86_64")]
mod chacha_avx2;
mod hmac;
mod kdf;
#[cfg(all(test, target_arch = "x86_64"))]
mod machine_code;
mod poly1305;
#[cfg(target_arch = "x86_64")]
mod poly1305_avx2;
#[cfg(target_arch = "x86_64")]
mod poly1305_ifma;
mod sha256;
#[cfg(target_arch = "x86_64")]
mod shani;

pub mod probe;

pub use aead::{BadTag, ChaCha20Poly1305, TAG_LEN};
pub use chacha20::chacha20_xor;
pub use hmac::HmacSha256;
pub use kdf::kdf2;
pub use poly1305::poly1305;
pub use sha256::Sha256;

/// The kernel each primitive runs on this host, as stable metric-label
/// values. Each answer reads the same [`rlwe_zq::cpu`] flags as the
/// primitive's own dispatch, so it names the code that actually runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Backends {
    /// ChaCha20's whole 512-byte chunks: `"avx512f"` (16 lanes on zmm,
    /// 1 KiB chunks), `"avx2"` or `"scalar"`.
    pub chacha20: &'static str,
    /// Poly1305's runs of at least 512 bytes: `"avx512ifma"` (8 lanes of
    /// radix 2⁴⁴), `"avx2"` or `"scalar"`.
    pub poly1305: &'static str,
    /// The SHA-256 compression function: `"sha_ni"` or `"scalar"`.
    pub sha256: &'static str,
}

/// The kernels this host runs; see [`Backends`].
pub fn backends() -> Backends {
    #[cfg(target_arch = "x86_64")]
    let chacha20 = chacha_avx2::Flavour::detect().map_or("scalar", chacha_avx2::Flavour::label);
    #[cfg(not(target_arch = "x86_64"))]
    let chacha20 = "scalar";
    let pick = |vector: bool, name| if vector { name } else { "scalar" };
    Backends {
        chacha20,
        poly1305: poly1305::Kernel::detect().map_or("scalar", poly1305::Kernel::label),
        sha256: pick(rlwe_zq::cpu::sha_ni(), "sha_ni"),
    }
}
