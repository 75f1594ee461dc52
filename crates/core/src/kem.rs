//! Key encapsulation on top of the ring-LWE PKE — the bridge from the
//! paper's encryption scheme to the key-exchange use case its reference
//! \[9\] (Bos-Costello-Naehrig-Stebila) motivates.
//!
//! The construction is the standard PKE→KEM wrapper: encapsulation
//! encrypts a uniformly random message and hashes it together with the
//! ciphertext into the shared secret (`ss = SHA-256(m ‖ ct)`), so any
//! ciphertext tampering changes the derived key. Like the underlying
//! scheme this is CPA-secure (no re-encryption check — the
//! Fujisaki-Okamoto transform postdates the paper's design point), and it
//! inherits the scheme's small decryption-failure probability: with
//! probability ≈ 10⁻²–10⁻³ per encapsulation at the paper's parameters the
//! two sides derive different secrets, which any authenticated protocol on
//! top detects as a failed handshake.

use rand::RngCore;
use rlwe_hash::Sha256;

use crate::context::RlweContext;
use crate::keys::{Ciphertext, PublicKey, SecretKey};
use crate::RlweError;

/// Length of the derived shared secret in bytes.
pub const SHARED_SECRET_LEN: usize = 32;

/// A shared secret derived by encapsulation/decapsulation.
///
/// Equality is constant-time ([`rlwe_zq::ct::ct_eq`] — derived slice
/// equality would early-exit on the first differing byte of a secret),
/// and the bytes are best-effort erased on drop.
#[derive(Clone)]
pub struct SharedSecret([u8; SHARED_SECRET_LEN]);

impl SharedSecret {
    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8; SHARED_SECRET_LEN] {
        &self.0
    }

    /// Crate-internal constructor (used by the FO transform in
    /// [`crate::fo`]).
    pub(crate) fn from_bytes(b: [u8; SHARED_SECRET_LEN]) -> Self {
        Self(b)
    }
}

impl PartialEq for SharedSecret {
    fn eq(&self, other: &Self) -> bool {
        rlwe_zq::ct::ct_eq(&self.0, &other.0)
    }
}

impl Eq for SharedSecret {}

impl Drop for SharedSecret {
    fn drop(&mut self) {
        rlwe_zq::ct::zeroize(&mut self.0);
    }
}

impl std::fmt::Debug for SharedSecret {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SharedSecret(<redacted>)")
    }
}

/// Derives `SHA-256(m ‖ ct_bytes)` from the ciphertext's wire form.
fn derive(m: &[u8], ct_bytes: &[u8]) -> SharedSecret {
    let mut h = Sha256::new();
    h.update(m);
    h.update(ct_bytes);
    SharedSecret(h.finalize())
}

impl RlweContext {
    /// Encapsulates a fresh shared secret to `pk`.
    ///
    /// Returns the ciphertext to transmit and the locally derived secret.
    ///
    /// # Errors
    ///
    /// Propagates [`RlweError::ParamMismatch`] for keys from another
    /// parameter set and serialization errors for custom parameter sets.
    pub fn encapsulate<R: RngCore + ?Sized>(
        &self,
        pk: &PublicKey,
        rng: &mut R,
    ) -> Result<(Ciphertext, SharedSecret), RlweError> {
        let mut scratch = self.new_scratch();
        let mut ct = self.empty_ciphertext();
        self.encapsulate_into(pk, rng, &mut ct, &mut scratch)
            .map(|ss| (ct, ss))
    }

    /// Polynomial-allocation-free encapsulation: writes the ciphertext into
    /// existing storage and borrows working polynomials from `scratch`.
    /// (The secret derivation still serializes the ciphertext for hashing,
    /// which allocates the wire buffer — that binding is the KEM contract.)
    ///
    /// # Errors
    ///
    /// See [`RlweContext::encapsulate`]; additionally [`RlweError::Ntt`]
    /// for a wrong-dimension scratch arena.
    pub fn encapsulate_into<R: RngCore + ?Sized>(
        &self,
        pk: &PublicKey,
        rng: &mut R,
        ct: &mut Ciphertext,
        scratch: &mut rlwe_ntt::PolyScratch,
    ) -> Result<SharedSecret, RlweError> {
        self.encapsulate_wire(pk, rng, ct, scratch)
            .map(|(_, ss)| ss)
    }

    /// [`RlweContext::encapsulate_into`] that also returns the
    /// ciphertext's wire form ([`Ciphertext::to_bytes`]) — the bytes the
    /// secret was hashed from. A caller that transmits the ciphertext
    /// sends these rather than serializing it a second time.
    ///
    /// # Errors
    ///
    /// See [`RlweContext::encapsulate_into`].
    pub fn encapsulate_wire<R: RngCore + ?Sized>(
        &self,
        pk: &PublicKey,
        rng: &mut R,
        ct: &mut Ciphertext,
        scratch: &mut rlwe_ntt::PolyScratch,
    ) -> Result<(Vec<u8>, SharedSecret), RlweError> {
        let t0 = std::time::Instant::now();
        let mut m = vec![0u8; self.params().message_bytes()];
        rng.fill_bytes(&mut m);
        self.encrypt_into(pk, &m, rng, ct, scratch)?;
        let ct_bytes = ct.to_bytes()?;
        let ss = derive(&m, &ct_bytes);
        self.obs.encap_ns.record(t0.elapsed());
        Ok((ct_bytes, ss))
    }

    /// Decapsulates a received ciphertext into the shared secret.
    ///
    /// # Errors
    ///
    /// Propagates [`RlweError::ParamMismatch`] on mixed parameter sets and
    /// serialization errors for custom parameter sets.
    pub fn decapsulate(&self, sk: &SecretKey, ct: &Ciphertext) -> Result<SharedSecret, RlweError> {
        let mut scratch = self.new_scratch();
        self.decapsulate_with_scratch(sk, ct, &mut scratch)
    }

    /// Decapsulation borrowing its working polynomial from `scratch` —
    /// the session handshake's sibling of [`RlweContext::decapsulate`].
    ///
    /// # Errors
    ///
    /// See [`RlweContext::decapsulate`]; additionally [`RlweError::Ntt`]
    /// for a wrong-dimension scratch arena.
    pub fn decapsulate_with_scratch(
        &self,
        sk: &SecretKey,
        ct: &Ciphertext,
        scratch: &mut rlwe_ntt::PolyScratch,
    ) -> Result<SharedSecret, RlweError> {
        let t0 = std::time::Instant::now();
        let ct_bytes = ct.to_bytes()?;
        self.decapsulate_parts(t0, sk, ct, &ct_bytes, scratch)
    }

    /// Decapsulates a ciphertext received in wire form. It is parsed once
    /// and the received bytes themselves are hashed: the parser accepts
    /// only the canonical encoding, so they equal
    /// [`Ciphertext::to_bytes`] of the parsed ciphertext and the secret
    /// matches [`RlweContext::decapsulate_with_scratch`]'s.
    ///
    /// # Errors
    ///
    /// [`RlweError::Malformed`] if `ct_bytes` does not parse; otherwise
    /// as [`RlweContext::decapsulate_with_scratch`].
    pub fn decapsulate_wire_with_scratch(
        &self,
        sk: &SecretKey,
        ct_bytes: &[u8],
        scratch: &mut rlwe_ntt::PolyScratch,
    ) -> Result<SharedSecret, RlweError> {
        let t0 = std::time::Instant::now();
        let ct = Ciphertext::from_bytes(ct_bytes)?;
        self.decapsulate_parts(t0, sk, &ct, ct_bytes, scratch)
    }

    /// Decrypts `ct` and hashes its wire form `ct_bytes`, recording the
    /// operation's latency from `t0`.
    fn decapsulate_parts(
        &self,
        t0: std::time::Instant,
        sk: &SecretKey,
        ct: &Ciphertext,
        ct_bytes: &[u8],
        scratch: &mut rlwe_ntt::PolyScratch,
    ) -> Result<SharedSecret, RlweError> {
        // Wall-clock recording only: reading the clock at entry (in the
        // callers) and exit neither branches on secrets nor alters the
        // decryption path's operation counts (pinned by the leakage gates).
        let mut m = Vec::with_capacity(self.params().message_bytes());
        // ct-allow(decode errors depend on ciphertext structure, not the secret key)
        self.decrypt_into(sk, ct, &mut m, scratch)?;
        let ss = derive(&m, ct_bytes);
        self.obs.decap_ns.record(t0.elapsed());
        Ok(ss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn both_sides_derive_the_same_secret() {
        // The underlying PKE fails to decrypt with probability ~10^-2
        // per message at the paper's parameters (the per-coefficient
        // noise margin is ≈ 4.1σ, ≈ 2.4% per encryption for P2), and a
        // failed decryption derives a mismatched secret — that is the
        // documented contract, so the test requires overwhelming (not
        // perfect) agreement: ≥ 45/50 keeps the flake probability below
        // 10^-4 while still failing hard on any systematic corruption.
        for set in [ParamSet::P1, ParamSet::P2] {
            let ctx = RlweContext::new(set).unwrap();
            let mut rng = StdRng::seed_from_u64(21);
            let (pk, sk) = ctx.generate_keypair(&mut rng).unwrap();
            let trials = 50;
            let agreements = (0..trials)
                .filter(|_| {
                    let (ct, ss_enc) = ctx.encapsulate(&pk, &mut rng).unwrap();
                    let ss_dec = ctx.decapsulate(&sk, &ct).unwrap();
                    ss_enc == ss_dec
                })
                .count();
            assert!(
                agreements >= trials - 5,
                "{set:?}: only {agreements}/{trials} agreements"
            );
        }
    }

    #[test]
    fn wire_paths_match_the_typed_paths() {
        for set in [ParamSet::P1, ParamSet::P2] {
            let ctx = RlweContext::new(set).unwrap();
            let mut rng = StdRng::seed_from_u64(26);
            let (pk, sk) = ctx.generate_keypair(&mut rng).unwrap();
            let mut scratch = ctx.new_scratch();
            let (mut ct_a, mut ct_b) = (ctx.empty_ciphertext(), ctx.empty_ciphertext());
            let ss_a = ctx
                .encapsulate_into(&pk, &mut StdRng::seed_from_u64(27), &mut ct_a, &mut scratch)
                .unwrap();
            let (wire, ss_b) = ctx
                .encapsulate_wire(&pk, &mut StdRng::seed_from_u64(27), &mut ct_b, &mut scratch)
                .unwrap();
            assert_eq!(ct_a, ct_b);
            assert_eq!(wire, ct_b.to_bytes().unwrap());
            assert_eq!(ss_a, ss_b);

            let typed = ctx.decapsulate_with_scratch(&sk, &ct_b, &mut scratch);
            let from_wire = ctx.decapsulate_wire_with_scratch(&sk, &wire, &mut scratch);
            assert_eq!(typed.unwrap(), from_wire.unwrap(), "{set:?}");
            assert!(matches!(
                ctx.decapsulate_wire_with_scratch(&sk, &wire[1..], &mut scratch),
                Err(RlweError::Malformed { .. })
            ));
        }
    }

    #[test]
    fn secrets_are_fresh_per_encapsulation() {
        let ctx = RlweContext::new(ParamSet::P1).unwrap();
        let mut rng = StdRng::seed_from_u64(22);
        let (pk, _) = ctx.generate_keypair(&mut rng).unwrap();
        let (ct1, ss1) = ctx.encapsulate(&pk, &mut rng).unwrap();
        let (ct2, ss2) = ctx.encapsulate(&pk, &mut rng).unwrap();
        assert_ne!(ct1, ct2);
        assert_ne!(ss1.as_bytes(), ss2.as_bytes());
    }

    #[test]
    fn tampering_changes_the_derived_secret() {
        let ctx = RlweContext::new(ParamSet::P1).unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        let (pk, sk) = ctx.generate_keypair(&mut rng).unwrap();
        let (ct, ss) = ctx.encapsulate(&pk, &mut rng).unwrap();
        let mut wire = ct.to_bytes().unwrap();
        wire[50] ^= 0x04;
        let tampered = Ciphertext::from_bytes(&wire).unwrap();
        let ss2 = ctx.decapsulate(&sk, &tampered).unwrap();
        assert_ne!(ss.as_bytes(), ss2.as_bytes());
    }

    #[test]
    fn wrong_key_derives_a_different_secret() {
        let ctx = RlweContext::new(ParamSet::P1).unwrap();
        let mut rng = StdRng::seed_from_u64(24);
        let (pk, _sk) = ctx.generate_keypair(&mut rng).unwrap();
        let (_pk2, sk2) = ctx.generate_keypair(&mut rng).unwrap();
        let (ct, ss) = ctx.encapsulate(&pk, &mut rng).unwrap();
        let ss2 = ctx.decapsulate(&sk2, &ct).unwrap();
        assert_ne!(ss.as_bytes(), ss2.as_bytes());
    }

    #[test]
    fn debug_is_redacted() {
        let ctx = RlweContext::new(ParamSet::P1).unwrap();
        let mut rng = StdRng::seed_from_u64(25);
        let (pk, _) = ctx.generate_keypair(&mut rng).unwrap();
        let (_, ss) = ctx.encapsulate(&pk, &mut rng).unwrap();
        assert_eq!(format!("{ss:?}"), "SharedSecret(<redacted>)");
    }
}
