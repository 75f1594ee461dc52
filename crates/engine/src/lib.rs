//! # rlwe-engine
//!
//! The serving layer over `rlwe-core`: the DATE 2015 paper optimises one
//! operation's latency, and this crate makes that operation cheap to
//! reach from a long-running server.
//!
//! Two pieces (see `DESIGN.md` §2 for the full rationale):
//!
//! * [`ContextPool`] — caches one [`rlwe_core::RlweContext`] (NTT plans
//!   and Gaussian tables) per parameter set behind [`std::sync::Arc`]; a
//!   million requests pay table construction once. [`global_pool`] is
//!   the process-wide instance.
//! * [`session`] — one KEM handshake, then authenticated symmetric
//!   framing (RFC 8439 ChaCha20-Poly1305 under per-direction keys) for
//!   arbitrary-length payloads: the lattice math is per session, not
//!   per message.
//!
//! The crate records no session metrics of its own; a server counts
//! what it accepts, seals and opens (`rlwe-server`'s `ServerMetrics`).
//! [`BuildInfo`] names the kernels a context and the frame AEAD run on
//! this host, for the `rlwe_build_info` gauge a server exports.
//!
//! # Example
//!
//! ```
//! use rlwe_core::drbg::HashDrbg;
//! use rlwe_core::ParamSet;
//! use rlwe_engine::{global_pool, Session, SessionError};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ctx = global_pool().get(ParamSet::P1)?;
//! let (pk, sk) = ctx.generate_keypair(&mut HashDrbg::new([1u8; 32]))?;
//! // Retry over the documented ~1% KEM decryption-failure rate.
//! let (alice, bob) = (0..8u64)
//!     .find_map(|attempt| {
//!         let mut rng = HashDrbg::for_stream(&[2u8; 32], attempt);
//!         let (alice, hello) = Session::initiate(&ctx, &pk, &mut rng).ok()?;
//!         match Session::accept(&ctx, &sk, &hello) {
//!             Ok(bob) => Some((alice, bob)),
//!             Err(SessionError::HandshakeFailed) => None,
//!             Err(e) => panic!("{e}"),
//!         }
//!     })
//!     .expect("eight consecutive KEM failures");
//! let frame = alice.sender().seal(b"hello");
//! assert_eq!(bob.receiver().open_exact(&frame)?, b"hello");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod build_info;
pub mod pool;
pub mod session;

pub use build_info::BuildInfo;
pub use pool::{global as global_pool, ContextPool};
pub use session::{Role, Session, SessionError, StreamReceiver, StreamSender, FRAME_OVERHEAD};
