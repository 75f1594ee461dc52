//! Fujisaki-Okamoto transform: a CCA-secure KEM from the CPA scheme.
//!
//! The paper's scheme (like every 2015-era ring-LWE implementation) is
//! CPA-secure only. The FO transform — the construction later adopted by
//! NewHope-CCA and Kyber — upgrades it: encapsulation derives the
//! encryption randomness *deterministically* from the message
//! (`coins = SHA-256("coins" ‖ m)`), and decapsulation **re-encrypts** the
//! decrypted message and compares ciphertexts, rejecting implicitly (with
//! a secret-derived pseudorandom key) on mismatch. An attacker who mauls a
//! ciphertext cannot learn whether decryption "succeeded".
//!
//! This module is an extension beyond the paper (its §V future work points
//! toward protocol-level use); it reuses only primitives already in this
//! workspace (the scheme + SHA-256).

use rand::RngCore;
use rlwe_hash::Sha256;
use rlwe_ntt::PolyScratch;
use rlwe_zq::ct;

use crate::context::RlweContext;
use crate::drbg::HashDrbg;
use crate::kem::SharedSecret;
use crate::keys::{Ciphertext, PublicKey, SecretKey};
use crate::RlweError;

/// Domain-separation prefixes for the hash calls.
const DS_COINS: &[u8] = b"rlwe-fo/coins";
const DS_KEY: &[u8] = b"rlwe-fo/key";
const DS_REJECT: &[u8] = b"rlwe-fo/reject";

fn hash2(prefix: &[u8], data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(prefix);
    h.update(data);
    h.finalize()
}

fn hash3(prefix: &[u8], a: &[u8], b: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(prefix);
    h.update(a);
    h.update(b);
    h.finalize()
}

/// The implicit-rejection key `H(reject ‖ sk ‖ ct)`, streaming the secret
/// coefficients into the hash through a 64-byte stack window — no heap
/// copy of the secret key is ever materialized, and the per-call count
/// stays at one `update` per 16 coefficients.
fn hash_reject(sk_coeffs: &[u32], ct_bytes: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(DS_REJECT);
    let mut window = [0u8; 64];
    for chunk in sk_coeffs.chunks(16) {
        let mut len = 0;
        for &c in chunk {
            window[len..len + 4].copy_from_slice(&c.to_le_bytes());
            len += 4;
        }
        h.update(&window[..len]);
    }
    ct::zeroize(&mut window);
    h.update(ct_bytes);
    h.finalize()
}

impl RlweContext {
    /// Deterministic encryption with coins derived from `seed` — the
    /// building block of the FO transform. **Not semantically secure on
    /// its own**: identical `(msg, seed)` pairs produce identical
    /// ciphertexts by design.
    ///
    /// # Errors
    ///
    /// Same as [`RlweContext::encrypt`].
    pub fn encrypt_deterministic(
        &self,
        pk: &PublicKey,
        msg: &[u8],
        seed: &[u8; 32],
    ) -> Result<Ciphertext, RlweError> {
        let mut drbg = HashDrbg::new(*seed);
        self.encrypt(pk, msg, &mut drbg)
    }

    /// CCA-secure encapsulation (FO transform).
    ///
    /// # Errors
    ///
    /// Same as [`RlweContext::encapsulate`].
    pub fn encapsulate_cca<R: RngCore + ?Sized>(
        &self,
        pk: &PublicKey,
        rng: &mut R,
    ) -> Result<(Ciphertext, SharedSecret), RlweError> {
        let mut scratch = self.new_scratch();
        self.encapsulate_cca_with_scratch(pk, rng, &mut scratch)
    }

    /// CCA encapsulation borrowing its working polynomials from `scratch`
    /// — the allocation-free sibling of [`RlweContext::encapsulate_cca`]. Output is
    /// bit-identical to the allocating path for the same RNG state.
    ///
    /// # Errors
    ///
    /// See [`RlweContext::encapsulate_cca`]; additionally
    /// [`RlweError::Ntt`] for a wrong-dimension scratch arena.
    pub fn encapsulate_cca_with_scratch<R: RngCore + ?Sized>(
        &self,
        pk: &PublicKey,
        rng: &mut R,
        scratch: &mut PolyScratch,
    ) -> Result<(Ciphertext, SharedSecret), RlweError> {
        let t0 = std::time::Instant::now();
        let mut m = vec![0u8; self.params().message_bytes()];
        rng.fill_bytes(&mut m);
        let mut coins = hash2(DS_COINS, &m);
        let mut drbg = HashDrbg::new(coins);
        // The DRBG holds its own (Drop-scrubbed) copy; erase ours now so
        // no later return path can leak it.
        ct::zeroize(&mut coins);
        let mut ct = self.empty_ciphertext();
        let result = (|| {
            // ct-allow(encrypt_into errors are parameter/shape mismatches, not secret-dependent)
            self.encrypt_into(pk, &m, &mut drbg, &mut ct, scratch)?;
            // ct-allow(to_bytes fails only on parameter-shape mismatch, not message bits)
            Ok(SharedSecret::from_bytes(hash3(DS_KEY, &m, &ct.to_bytes()?)))
        })();
        // Unconditional cleanup — error paths must not retain the message
        // either, and the error polynomials derived from the secret coins
        // transited the arena.
        ct::zeroize(&mut m);
        scratch.scrub();
        self.obs.encap_cca_ns.record(t0.elapsed());
        // ct-allow(result's Ok/Err split reflects serialization validity, public either way)
        match result {
            Ok(ss) => Ok((ct, ss)),
            Err(e) => {
                // A partially written ciphertext is never returned; erase
                // its coefficient buffers before dropping them.
                ct::zeroize_u32(ct.c1_hat.as_mut_slice());
                ct::zeroize_u32(ct.c2_hat.as_mut_slice());
                Err(e)
            }
        }
    }

    /// CCA-secure decapsulation with implicit rejection: an invalid
    /// ciphertext yields a pseudorandom key derived from the secret key,
    /// never an error the attacker can observe.
    ///
    /// The public key is needed for the re-encryption check (the paper's
    /// scheme has no way to recompute `pk` from `sk` alone).
    ///
    /// Allocating convenience over
    /// [`RlweContext::decapsulate_cca_with_scratch`], which also documents
    /// the constant-time discipline of this path.
    ///
    /// # Errors
    ///
    /// Only structural errors ([`RlweError::ParamMismatch`]); decryption
    /// "failure" is absorbed into the implicit rejection by design.
    pub fn decapsulate_cca(
        &self,
        sk: &SecretKey,
        pk: &PublicKey,
        ct: &Ciphertext,
    ) -> Result<SharedSecret, RlweError> {
        let mut scratch = self.new_scratch();
        self.decapsulate_cca_with_scratch(sk, pk, ct, &mut scratch)
    }

    /// CCA decapsulation borrowing its working polynomials from `scratch`
    /// — the allocation-free sibling of [`RlweContext::decapsulate_cca`].
    ///
    /// This path is **branch-free on secrets**: both the accept key
    /// `H(key ‖ m ‖ ct)` and the implicit-rejection key
    /// `H(reject ‖ sk ‖ ct)` are derived unconditionally, the
    /// re-encryption comparison folds every coefficient difference *and*
    /// any length mismatch into one accumulator
    /// ([`rlwe_zq::ct::ct_eq_mask_u32`]), and the returned key is a masked
    /// select between the two candidates — no secret-dependent branch,
    /// no secret-dependent hash-call shape (the leakage harness's probe
    /// test asserts the accept and reject traces are identical). Combine
    /// with the [`SamplerKind::CtCdt`](crate::SamplerKind::CtCdt) rung so
    /// the re-encryption's error sampling is constant-time too.
    ///
    /// # Errors
    ///
    /// Structural errors only ([`RlweError::ParamMismatch`],
    /// [`RlweError::Ntt`] for a wrong-dimension scratch arena).
    pub fn decapsulate_cca_with_scratch(
        &self,
        sk: &SecretKey,
        pk: &PublicKey,
        ct: &Ciphertext,
        scratch: &mut PolyScratch,
    ) -> Result<SharedSecret, RlweError> {
        // Entry/exit clock reads only — recording a duration adds no
        // data-dependent branch to the branch-free core below, and the
        // obs-toggle leakage gate pins that the op trace is unchanged.
        let t0 = std::time::Instant::now();
        let mut m = Vec::with_capacity(self.params().message_bytes());
        let mut reencrypted = self.empty_ciphertext();
        let result = self.decapsulate_cca_core(sk, pk, ct, scratch, &mut m, &mut reencrypted);
        // Unconditional best-effort scrubbing — error paths included — of
        // the heap intermediates that determine key material: the
        // decrypted candidate message, the re-encryption's coefficient
        // buffers, and every working polynomial parked back in the
        // (possibly long-lived, per-thread) scratch arena.
        ct::zeroize(&mut m);
        ct::zeroize_u32(reencrypted.c1_hat.as_mut_slice());
        ct::zeroize_u32(reencrypted.c2_hat.as_mut_slice());
        scratch.scrub();
        self.obs.decap_cca_ns.record(t0.elapsed());
        result
    }

    /// Fallible body of [`RlweContext::decapsulate_cca_with_scratch`];
    /// the wrapper owns `m` and `reencrypted` so their erasure (and the
    /// arena scrub) runs on every path, error returns included.
    fn decapsulate_cca_core(
        &self,
        sk: &SecretKey,
        pk: &PublicKey,
        ct: &Ciphertext,
        scratch: &mut PolyScratch,
        m: &mut Vec<u8>,
        reencrypted: &mut Ciphertext,
    ) -> Result<SharedSecret, RlweError> {
        // ct-allow(decrypt_into fails only on malformed ciphertext structure, not secret bits)
        self.decrypt_into(sk, ct, m, scratch)?;
        let mut coins = hash2(DS_COINS, m);
        // The one serialization of this operation: both keys hash it.
        let ct_bytes = ct.to_bytes()?;
        let mut drbg = HashDrbg::new(coins);
        // The DRBG holds its own (Drop-scrubbed) copy; erase ours now so
        // the fallible calls below cannot return past a live copy.
        ct::zeroize(&mut coins);
        // ct-allow(serialization errors are structural, independent of the secret coins)
        self.encrypt_into(pk, m, &mut drbg, reencrypted, scratch)?;
        // One masked verdict over the coefficients, length mismatch
        // folded in. Reduced coefficients pack injectively, so this is
        // the wire-byte comparison without serializing the re-encryption.
        let mask = ct::ct_eq_mask_u32(reencrypted.c1_hat.as_slice(), ct.c1_hat.as_slice())
            & ct::ct_eq_mask_u32(reencrypted.c2_hat.as_slice(), ct.c2_hat.as_slice());
        // Both candidate keys are always derived, so the hash-call shape
        // does not depend on whether the re-encryption matched.
        let mut accept = hash3(DS_KEY, m, &ct_bytes);
        let mut reject = hash_reject(sk.r2_poly().as_slice(), &ct_bytes);
        let mut key = [0u8; 32];
        ct::ct_select_slice(mask, &accept, &reject, &mut key);
        ct::zeroize(&mut accept);
        ct::zeroize(&mut reject);
        Ok(SharedSecret::from_bytes(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx() -> RlweContext {
        RlweContext::new(ParamSet::P1).unwrap()
    }

    #[test]
    fn deterministic_encryption_is_deterministic() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(31);
        let (pk, _) = ctx.generate_keypair(&mut rng).unwrap();
        let msg = vec![7u8; 32];
        let seed = [9u8; 32];
        let a = ctx.encrypt_deterministic(&pk, &msg, &seed).unwrap();
        let b = ctx.encrypt_deterministic(&pk, &msg, &seed).unwrap();
        assert_eq!(a, b);
        let c = ctx.encrypt_deterministic(&pk, &msg, &[10u8; 32]).unwrap();
        assert_ne!(a, c, "different coins must give different ciphertexts");
    }

    #[test]
    fn cca_kem_round_trips_with_high_probability() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(32);
        let (pk, sk) = ctx.generate_keypair(&mut rng).unwrap();
        let trials = 50;
        let agreements = (0..trials)
            .filter(|_| {
                let (ct, k1) = ctx.encapsulate_cca(&pk, &mut rng).unwrap();
                let k2 = ctx.decapsulate_cca(&sk, &pk, &ct).unwrap();
                k1.as_bytes() == k2.as_bytes()
            })
            .count();
        assert!(agreements >= trials - 2, "{agreements}/{trials}");
    }

    #[test]
    fn tampering_triggers_implicit_rejection() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(33);
        let (pk, sk) = ctx.generate_keypair(&mut rng).unwrap();
        let (ct, k1) = ctx.encapsulate_cca(&pk, &mut rng).unwrap();
        let mut wire = ct.to_bytes().unwrap();
        wire[77] ^= 0x20;
        let mauled = Ciphertext::from_bytes(&wire).unwrap();
        // No error — the attacker sees a normal-looking key...
        let k2 = ctx.decapsulate_cca(&sk, &pk, &mauled).unwrap();
        // ...that is unrelated to the real one.
        assert_ne!(k1.as_bytes(), k2.as_bytes());
        // And rejection is deterministic (same mauled ct -> same key).
        let k3 = ctx.decapsulate_cca(&sk, &pk, &mauled).unwrap();
        assert_eq!(k2.as_bytes(), k3.as_bytes());
    }

    #[test]
    fn encapsulate_cca_with_scratch_is_bit_identical() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(37);
        let (pk, _) = ctx.generate_keypair(&mut rng).unwrap();
        let mut rng_a = StdRng::seed_from_u64(38);
        let mut rng_b = StdRng::seed_from_u64(38);
        let (ct_a, ss_a) = ctx.encapsulate_cca(&pk, &mut rng_a).unwrap();
        let mut scratch = ctx.new_scratch();
        let (ct_b, ss_b) = ctx
            .encapsulate_cca_with_scratch(&pk, &mut rng_b, &mut scratch)
            .unwrap();
        assert_eq!(ct_a, ct_b);
        assert_eq!(ss_a.as_bytes(), ss_b.as_bytes());
    }

    #[test]
    fn decapsulate_cca_with_scratch_matches_allocating_path() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(35);
        let (pk, sk) = ctx.generate_keypair(&mut rng).unwrap();
        let mut scratch = ctx.new_scratch();
        for round in 0..4u8 {
            let (ct, _) = ctx.encapsulate_cca(&pk, &mut rng).unwrap();
            // Exercise both the accept path and (via mauling) the
            // implicit-rejection path. Not every bit flip survives the
            // coefficient-range check on parse; take the first that does.
            let wire = ct.to_bytes().unwrap();
            let mauled = (10..wire.len())
                .find_map(|i| {
                    let mut w = wire.clone();
                    w[i] ^= 1 << (round % 8);
                    Ciphertext::from_bytes(&w).ok()
                })
                .expect("some single-bit maul parses");
            for candidate in [&ct, &mauled] {
                let a = ctx.decapsulate_cca(&sk, &pk, candidate).unwrap();
                let b = ctx
                    .decapsulate_cca_with_scratch(&sk, &pk, candidate, &mut scratch)
                    .unwrap();
                assert_eq!(a.as_bytes(), b.as_bytes(), "round {round}");
            }
        }
    }

    #[test]
    fn cca_paths_scrub_the_scratch_arena() {
        // The decrypted candidate message (and the FO error polynomials)
        // transit the arena; after a CCA operation every parked buffer
        // must be zero so a long-lived per-thread arena retains nothing.
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(39);
        let (pk, sk) = ctx.generate_keypair(&mut rng).unwrap();
        let mut scratch = ctx.new_scratch();
        let (ct, _) = ctx
            .encapsulate_cca_with_scratch(&pk, &mut rng, &mut scratch)
            .unwrap();
        ctx.decapsulate_cca_with_scratch(&sk, &pk, &ct, &mut scratch)
            .unwrap();
        let parked = scratch.parked();
        assert!(parked >= 1, "the working polynomials returned home");
        for _ in 0..parked {
            let buf = scratch.take();
            assert!(buf.iter().all(|&c| c == 0), "arena retained key material");
        }
    }

    #[test]
    fn cca_error_paths_still_scrub_the_arena() {
        // A wrong-set public key makes the re-encryption fail *after* the
        // candidate message has been decrypted into scratch buffers; the
        // error return must scrub just like the success path.
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(40);
        let (pk1, sk1) = ctx.generate_keypair(&mut rng).unwrap();
        let ctx2 = RlweContext::new(ParamSet::P2).unwrap();
        let (pk2, _) = ctx2.generate_keypair(&mut rng).unwrap();
        let (ct, _) = ctx.encapsulate_cca(&pk1, &mut rng).unwrap();
        let mut scratch = ctx.new_scratch();
        let err = ctx
            .decapsulate_cca_with_scratch(&sk1, &pk2, &ct, &mut scratch)
            .unwrap_err();
        assert!(matches!(err, RlweError::ParamMismatch));
        let parked = scratch.parked();
        assert!(parked >= 1, "decryption parked its working polynomial");
        for _ in 0..parked {
            let buf = scratch.take();
            assert!(
                buf.iter().all(|&c| c == 0),
                "error path retained key material in the arena"
            );
        }
    }

    #[test]
    fn cca_round_trips_on_the_constant_time_rung() {
        // The full hostile-input configuration: CT sampler rung + masked
        // decapsulation. Re-encryption inside decap must reproduce the
        // encapsulation exactly, rung included.
        let ctx = RlweContext::builder(ParamSet::P1)
            .sampler(crate::SamplerKind::CtCdt)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(36);
        let (pk, sk) = ctx.generate_keypair(&mut rng).unwrap();
        let trials = 30;
        let agreements = (0..trials)
            .filter(|_| {
                let (ct, k1) = ctx.encapsulate_cca(&pk, &mut rng).unwrap();
                let k2 = ctx.decapsulate_cca(&sk, &pk, &ct).unwrap();
                k1.as_bytes() == k2.as_bytes()
            })
            .count();
        assert!(agreements >= trials - 2, "{agreements}/{trials}");
        // Tampering still lands in implicit rejection.
        let (ct, k1) = ctx.encapsulate_cca(&pk, &mut rng).unwrap();
        let mut wire = ct.to_bytes().unwrap();
        wire[42] ^= 0x10;
        let mauled = Ciphertext::from_bytes(&wire).unwrap();
        let k2 = ctx.decapsulate_cca(&sk, &pk, &mauled).unwrap();
        assert_ne!(k1.as_bytes(), k2.as_bytes());
    }

    #[test]
    fn rejection_keys_differ_per_ciphertext() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(34);
        let (pk, sk) = ctx.generate_keypair(&mut rng).unwrap();
        let (ct, _) = ctx.encapsulate_cca(&pk, &mut rng).unwrap();
        let mut w1 = ct.to_bytes().unwrap();
        let mut w2 = w1.clone();
        w1[50] ^= 1;
        w2[60] ^= 1;
        let k1 = ctx
            .decapsulate_cca(&sk, &pk, &Ciphertext::from_bytes(&w1).unwrap())
            .unwrap();
        let k2 = ctx
            .decapsulate_cca(&sk, &pk, &Ciphertext::from_bytes(&w2).unwrap())
            .unwrap();
        assert_ne!(k1.as_bytes(), k2.as_bytes());
    }

    #[test]
    fn drbg_is_deterministic_and_spreads() {
        let mut a = HashDrbg::new([1; 32]);
        let mut b = HashDrbg::new([1; 32]);
        let mut c = HashDrbg::new([2; 32]);
        let va: Vec<u32> = (0..100).map(|_| a.next_u32()).collect();
        let vb: Vec<u32> = (0..100).map(|_| b.next_u32()).collect();
        let vc: Vec<u32> = (0..100).map(|_| c.next_u32()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
        // Rough balance check on the stream.
        let ones: u32 = va.iter().map(|w| w.count_ones()).sum();
        assert!((1400..1800).contains(&ones), "ones = {ones}");
    }
}
