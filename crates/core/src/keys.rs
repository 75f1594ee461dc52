//! Key and ciphertext types (all NTT-domain, as in the paper).
//!
//! These containers store NTT-domain [`Poly`] values, which carry their
//! modulus and are always reduced. The serialized wire format is
//! `magic ‖ param-id ‖ packed coefficients`.

use rlwe_zq::Modulus;

use crate::params::{ParamSet, Params};
use crate::poly::Poly;
use crate::serialize::{pack_coeffs_into, unpack_coeffs};
use crate::RlweError;

/// Magic byte prefixes for the serialized formats.
const MAGIC_PK: u8 = 0xA1;
const MAGIC_SK: u8 = 0xA2;
const MAGIC_CT: u8 = 0xA3;

/// The modulus context for a named parameter set (whose primes are
/// known-good by construction).
fn modulus_for(params: &Params) -> Modulus {
    Modulus::new(params.q()).expect("parameter-set modulus is a valid prime")
}

/// Packed size of one polynomial under `params`.
fn poly_bytes(params: &Params) -> usize {
    (params.n() * params.coeff_bits() as usize).div_ceil(8)
}

/// Serializes `(magic, param_id, polys...)`, packing the fixed-width
/// coefficients straight into one exactly sized buffer.
///
/// Only named parameter sets (P1/P2) have stable wire identifiers.
fn to_bytes_generic(magic: u8, params: Params, polys: &[&[u32]]) -> Result<Vec<u8>, RlweError> {
    let set = params.set().ok_or_else(|| RlweError::Malformed {
        reason: "custom parameter sets have no serialized form".into(),
    })?;
    let mut out = Vec::with_capacity(2 + polys.len() * poly_bytes(&params));
    out.extend_from_slice(&[magic, set.id()]);
    for p in polys {
        pack_coeffs_into(p, params.coeff_bits(), &mut out);
    }
    Ok(out)
}

/// Parses the common header and returns the per-poly NTT-domain values.
fn from_bytes_generic(
    magic: u8,
    bytes: &[u8],
    n_polys: usize,
) -> Result<(Params, Vec<Poly>), RlweError> {
    if bytes.len() < 2 {
        return Err(RlweError::Malformed {
            reason: "truncated header".into(),
        });
    }
    if bytes[0] != magic {
        return Err(RlweError::Malformed {
            reason: format!("wrong magic byte 0x{:02X}", bytes[0]),
        });
    }
    let set = ParamSet::from_id(bytes[1]).ok_or_else(|| RlweError::Malformed {
        reason: format!("unknown parameter-set id {}", bytes[1]),
    })?;
    let params = set.params();
    let modulus = modulus_for(&params);
    let poly_bytes = poly_bytes(&params);
    let expect = 2 + n_polys * poly_bytes;
    if bytes.len() != expect {
        return Err(RlweError::Malformed {
            reason: format!("expected {expect} bytes, got {}", bytes.len()),
        });
    }
    let mut polys = Vec::with_capacity(n_polys);
    for chunk in bytes.split_at(2).1.chunks_exact(poly_bytes) {
        let coeffs = unpack_coeffs(chunk, params.coeff_bits(), params.n(), params.q())?;
        // unpack_coeffs has already rejected unreduced coefficients.
        polys.push(Poly::from_vec_unchecked(coeffs, modulus));
    }
    Ok((params, polys))
}

/// Public key `(ã, p̃)` — both polynomials in the NTT domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublicKey {
    pub(crate) params: Params,
    /// The uniform public polynomial ã (NTT domain).
    pub(crate) a_hat: Poly,
    /// `p̃ = r̃₁ − ã ∘ r̃₂` (NTT domain).
    pub(crate) p_hat: Poly,
}

impl PublicKey {
    /// Builds a public key from NTT-domain polynomials.
    ///
    /// # Errors
    ///
    /// [`RlweError::ParamMismatch`] if either polynomial's length or
    /// modulus disagrees with `params`.
    pub fn from_polys(params: Params, a_hat: Poly, p_hat: Poly) -> Result<Self, RlweError> {
        check_poly(&params, &a_hat)?;
        check_poly(&params, &p_hat)?;
        Ok(Self {
            params,
            a_hat,
            p_hat,
        })
    }

    /// The parameters this key belongs to.
    pub fn params(&self) -> Params {
        self.params
    }

    /// The NTT-domain `ã` polynomial.
    pub fn a_poly(&self) -> &Poly {
        &self.a_hat
    }

    /// The NTT-domain `p̃` polynomial.
    pub fn p_poly(&self) -> &Poly {
        &self.p_hat
    }

    /// Serializes as `magic ‖ param-id ‖ pack₁₃(ã) ‖ pack₁₃(p̃)`
    /// (13-bit packing for P1, 14-bit for P2).
    ///
    /// # Errors
    ///
    /// [`RlweError::Malformed`] for keys built from custom (unnamed)
    /// parameters, which have no stable wire identifier.
    pub fn to_bytes(&self) -> Result<Vec<u8>, RlweError> {
        to_bytes_generic(
            MAGIC_PK,
            self.params,
            &[self.a_hat.as_slice(), self.p_hat.as_slice()],
        )
    }

    /// Parses the [`PublicKey::to_bytes`] format.
    ///
    /// # Errors
    ///
    /// [`RlweError::Malformed`] on any structural problem (bad magic,
    /// unknown parameter id, wrong length, out-of-range coefficient).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, RlweError> {
        let (params, mut polys) = from_bytes_generic(MAGIC_PK, bytes, 2)?;
        let p_hat = polys.pop().expect("two polys parsed");
        let a_hat = polys.pop().expect("two polys parsed");
        Ok(Self {
            params,
            a_hat,
            p_hat,
        })
    }
}

/// Validates a polynomial against a parameter set.
fn check_poly(params: &Params, poly: &Poly) -> Result<(), RlweError> {
    if poly.len() != params.n() || poly.q() != params.q() {
        return Err(RlweError::ParamMismatch);
    }
    Ok(())
}

/// Secret key `r̃₂` (NTT domain).
#[derive(Clone, PartialEq, Eq)]
pub struct SecretKey {
    pub(crate) params: Params,
    pub(crate) r2_hat: Poly,
}

impl SecretKey {
    /// Builds a secret key from an NTT-domain polynomial.
    ///
    /// # Errors
    ///
    /// [`RlweError::ParamMismatch`] if the polynomial's length or modulus
    /// disagrees with `params`.
    pub fn from_poly(params: Params, r2_hat: Poly) -> Result<Self, RlweError> {
        check_poly(&params, &r2_hat)?;
        Ok(Self { params, r2_hat })
    }

    /// The parameters this key belongs to.
    pub fn params(&self) -> Params {
        self.params
    }

    /// The NTT-domain secret polynomial `r̃₂`.
    pub fn r2_poly(&self) -> &Poly {
        &self.r2_hat
    }

    /// Serializes as `magic ‖ param-id ‖ pack₁₃(r̃₂)`.
    ///
    /// # Errors
    ///
    /// [`RlweError::Malformed`] for keys from custom parameter sets.
    pub fn to_bytes(&self) -> Result<Vec<u8>, RlweError> {
        to_bytes_generic(MAGIC_SK, self.params, &[self.r2_hat.as_slice()])
    }

    /// Parses the [`SecretKey::to_bytes`] format.
    ///
    /// # Errors
    ///
    /// [`RlweError::Malformed`] on any structural problem.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, RlweError> {
        let (params, mut polys) = from_bytes_generic(MAGIC_SK, bytes, 1)?;
        Ok(Self {
            params,
            r2_hat: polys.pop().expect("one poly parsed"),
        })
    }
}

// Secret material: best-effort erasure of the secret polynomial when the
// key goes out of scope (zeroed coefficients are validly reduced, so the
// Poly invariant holds throughout).
impl Drop for SecretKey {
    fn drop(&mut self) {
        rlwe_zq::ct::zeroize_u32(self.r2_hat.as_mut_slice());
    }
}

// Secret material: keep the Debug representation non-empty but redacted.
impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecretKey")
            .field("params", &self.params)
            .field("r2_hat", &"<redacted>")
            .finish()
    }
}

/// A key pair, as produced by key generation.
#[derive(Debug, Clone)]
pub struct KeyPair {
    /// The public half.
    pub public: PublicKey,
    /// The secret half.
    pub secret: SecretKey,
}

/// Ciphertext `(c̃₁, c̃₂)` — both polynomials in the NTT domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ciphertext {
    pub(crate) params: Params,
    pub(crate) c1_hat: Poly,
    pub(crate) c2_hat: Poly,
}

impl Ciphertext {
    /// Builds a ciphertext from NTT-domain polynomials.
    ///
    /// # Errors
    ///
    /// [`RlweError::ParamMismatch`] if either polynomial's length or
    /// modulus disagrees with `params`.
    pub fn from_polys(params: Params, c1_hat: Poly, c2_hat: Poly) -> Result<Self, RlweError> {
        check_poly(&params, &c1_hat)?;
        check_poly(&params, &c2_hat)?;
        Ok(Self {
            params,
            c1_hat,
            c2_hat,
        })
    }

    /// The parameters this ciphertext belongs to.
    pub fn params(&self) -> Params {
        self.params
    }

    /// The NTT-domain `c̃₁` polynomial.
    pub fn c1_poly(&self) -> &Poly {
        &self.c1_hat
    }

    /// The NTT-domain `c̃₂` polynomial.
    pub fn c2_poly(&self) -> &Poly {
        &self.c2_hat
    }

    /// Serializes as `magic ‖ param-id ‖ pack₁₃(c̃₁) ‖ pack₁₃(c̃₂)` —
    /// 834 bytes for P1, 1 794 for P2.
    ///
    /// # Errors
    ///
    /// [`RlweError::Malformed`] for ciphertexts from custom parameter sets.
    pub fn to_bytes(&self) -> Result<Vec<u8>, RlweError> {
        to_bytes_generic(
            MAGIC_CT,
            self.params,
            &[self.c1_hat.as_slice(), self.c2_hat.as_slice()],
        )
    }

    /// Parses the [`Ciphertext::to_bytes`] format.
    ///
    /// # Errors
    ///
    /// [`RlweError::Malformed`] on any structural problem.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, RlweError> {
        let (params, mut polys) = from_bytes_generic(MAGIC_CT, bytes, 2)?;
        let c2_hat = polys.pop().expect("two polys parsed");
        let c1_hat = polys.pop().expect("two polys parsed");
        Ok(Self {
            params,
            c1_hat,
            c2_hat,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_poly(n: usize, q: u32, seed: u32) -> Poly {
        let modulus = Modulus::new(q).unwrap();
        Poly::from_vec(
            (0..n as u32)
                .map(|i| (i.wrapping_mul(seed) + 7) % q)
                .collect(),
            modulus,
        )
        .unwrap()
    }

    #[test]
    fn public_key_round_trips() {
        let pk = PublicKey {
            params: ParamSet::P1.params(),
            a_hat: demo_poly(256, 7681, 31),
            p_hat: demo_poly(256, 7681, 77),
        };
        assert_eq!(PublicKey::from_bytes(&pk.to_bytes().unwrap()).unwrap(), pk);
    }

    #[test]
    fn secret_key_round_trips_p2() {
        let sk = SecretKey {
            params: ParamSet::P2.params(),
            r2_hat: demo_poly(512, 12289, 13),
        };
        assert_eq!(SecretKey::from_bytes(&sk.to_bytes().unwrap()).unwrap(), sk);
    }

    #[test]
    fn ciphertext_round_trips_and_reports_size() {
        let ct = Ciphertext {
            params: ParamSet::P1.params(),
            c1_hat: demo_poly(256, 7681, 3),
            c2_hat: demo_poly(256, 7681, 5),
        };
        let bytes = ct.to_bytes().unwrap();
        assert_eq!(Ciphertext::from_bytes(&bytes).unwrap(), ct);
        // 2 polys * 256 coeffs * 13 bits = 832 bytes + 2 header bytes.
        assert_eq!(bytes.len(), 834);
    }

    #[test]
    fn from_polys_validates_parameters() {
        let params = ParamSet::P1.params();
        let good = demo_poly(256, 7681, 3);
        let wrong_n = demo_poly(128, 7681, 3);
        let wrong_q = demo_poly(256, 12289, 3);
        assert!(PublicKey::from_polys(params, good.clone(), good.clone()).is_ok());
        assert!(matches!(
            PublicKey::from_polys(params, good.clone(), wrong_n.clone()),
            Err(RlweError::ParamMismatch)
        ));
        assert!(matches!(
            SecretKey::from_poly(params, wrong_q.clone()),
            Err(RlweError::ParamMismatch)
        ));
        assert!(matches!(
            Ciphertext::from_polys(params, wrong_n, wrong_q),
            Err(RlweError::ParamMismatch)
        ));
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let pk = PublicKey {
            params: ParamSet::P1.params(),
            a_hat: demo_poly(256, 7681, 1),
            p_hat: demo_poly(256, 7681, 2),
        };
        let bytes = pk.to_bytes().unwrap();
        assert!(matches!(
            SecretKey::from_bytes(&bytes),
            Err(RlweError::Malformed { .. })
        ));
    }

    #[test]
    fn truncation_is_rejected() {
        let pk = PublicKey {
            params: ParamSet::P1.params(),
            a_hat: demo_poly(256, 7681, 1),
            p_hat: demo_poly(256, 7681, 2),
        };
        let mut bytes = pk.to_bytes().unwrap();
        bytes.pop();
        assert!(PublicKey::from_bytes(&bytes).is_err());
        assert!(PublicKey::from_bytes(&[]).is_err());
    }

    #[test]
    fn custom_params_cannot_serialize() {
        let params = Params::custom(128, 12289, rlwe_sampler::GaussianSpec::p1());
        let sk = SecretKey {
            params,
            r2_hat: demo_poly(128, 12289, 9),
        };
        assert!(sk.to_bytes().is_err());
    }

    #[test]
    fn secret_key_debug_is_redacted() {
        let sk = SecretKey {
            params: ParamSet::P1.params(),
            r2_hat: demo_poly(256, 7681, 9),
        };
        let dbg = format!("{sk:?}");
        assert!(dbg.contains("redacted"));
    }
}
