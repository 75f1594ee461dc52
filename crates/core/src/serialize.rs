//! Fixed-width coefficient packing.
//!
//! The paper stores 13-bit (q = 7681) or 14-bit (q = 12289) coefficients;
//! on the wire we pack them back-to-back LSB-first, which is also the
//! densest encoding a bare-metal implementation would use (no
//! serialization framework exists on a Cortex-M4F, so none is used here
//! either).
//!
//! Both directions move whole fields through a `u64` accumulator, 32
//! bits of wire at a time, instead of one bit at a time. The only
//! branches are on positions (how many bits the accumulator holds), which
//! depend on the public width and length alone. Range and padding checks
//! are folded into accumulators and tested once per call, so packing or
//! parsing a secret key does not branch on any of its bits.

use crate::RlweError;

/// Low `bits` bits set (`bits` in `1..=32`).
fn field_mask(bits: u32) -> u64 {
    (1u64 << bits) - 1
}

/// Packs reduced coefficients into bytes, `bits` bits per coefficient,
/// little-endian bit order.
///
/// # Panics
///
/// Panics if `bits` is 0 or exceeds 32, or if a coefficient needs more
/// than `bits` bits.
///
/// # Example
///
/// ```
/// use rlwe_core::{pack_coeffs, unpack_coeffs};
///
/// let coeffs = vec![7679, 0, 42, 7680];
/// let bytes = pack_coeffs(&coeffs, 13);
/// assert_eq!(bytes.len(), (4 * 13 + 7) / 8);
/// let back = unpack_coeffs(&bytes, 13, 4, 7681).unwrap();
/// assert_eq!(back, coeffs);
/// ```
pub fn pack_coeffs(coeffs: &[u32], bits: u32) -> Vec<u8> {
    let mut out = Vec::new();
    pack_coeffs_into(coeffs, bits, &mut out);
    out
}

/// Appends the [`pack_coeffs`] encoding of `coeffs` to `out`, so a
/// multi-polynomial wire form is built in one buffer.
///
/// # Panics
///
/// As [`pack_coeffs`]. The range check is one test of an OR-folded
/// overflow word after every coefficient has been packed, not a branch
/// per coefficient.
pub(crate) fn pack_coeffs_into(/* ct: secret */ coeffs: &[u32], bits: u32, out: &mut Vec<u8>) {
    assert!(
        (1..=32).contains(&bits),
        "bits per coefficient out of range"
    );
    out.reserve((coeffs.len() * bits as usize).div_ceil(8));
    let mut acc = 0u64;
    let mut filled = 0u32;
    let mut overflow = 0u64;
    for &c in coeffs {
        let c = u64::from(c);
        overflow |= c >> bits;
        acc |= c << filled;
        filled += bits;
        if filled >= 32 {
            out.extend_from_slice(&(acc as u32).to_le_bytes());
            acc >>= 32;
            filled -= 32;
        }
    }
    out.extend(
        acc.to_le_bytes()
            .into_iter()
            .take(filled.div_ceil(8) as usize),
    );
    assert!(
        std::hint::black_box(overflow) == 0,
        "a coefficient does not fit in {bits} bits"
    );
}

/// Unpacks `n` coefficients of `bits` bits each and validates every value
/// against the modulus `q`.
///
/// Never panics: every malformed input — including an out-of-range `bits`
/// width, which used to be an assertion — is reported as an error, so a
/// parser can feed this attacker-controlled bytes directly.
///
/// The range and padding checks are folded into two accumulators and
/// tested once at the end, so the work done does not depend on the
/// values parsed.
///
/// # Errors
///
/// [`RlweError::Malformed`] if `bits` is outside `1..=32`, the byte slice
/// has the wrong length, any decoded coefficient is `≥ q`, or padding bits
/// are non-zero.
pub fn unpack_coeffs(
    /* ct: secret */ bytes: &[u8],
    bits: u32,
    n: usize,
    q: u32,
) -> Result<Vec<u32>, RlweError> {
    if !(1..=32).contains(&bits) {
        return Err(RlweError::Malformed {
            reason: format!("bits per coefficient must be in 1..=32, got {bits}"),
        });
    }
    let need = (n * bits as usize).div_ceil(8);
    if bytes.len() != need {
        return Err(RlweError::Malformed {
            reason: format!("expected {need} packed bytes, got {}", bytes.len()),
        });
    }
    // Little-endian 32-bit words; the last one is zero-filled.
    let mut words = bytes.chunks(4).map(|w| {
        let mut word = [0u8; 4];
        for (d, s) in word.iter_mut().zip(w) {
            *d = *s;
        }
        u32::from_le_bytes(word)
    });
    let mask = field_mask(bits);
    let q = u64::from(q);
    let mut acc = 0u64;
    let mut held = 0u32;
    // `field − q` borrows into bit 63 exactly when `field < q`, so bit 63
    // survives the AND-fold iff every field is reduced.
    let mut all_reduced = u64::MAX;
    let mut out = vec![0u32; n];
    for c in out.iter_mut() {
        if held < bits {
            acc |= u64::from(words.next().unwrap_or(0)) << held;
            held += 32;
        }
        let field = acc & mask;
        all_reduced &= field.wrapping_sub(q);
        acc >>= bits;
        held -= bits;
        *c = field as u32;
    }
    // Every word has been consumed, so what is left are the pad bits of
    // the last byte plus the zero fill.
    let padding = std::hint::black_box(acc);
    // ct-allow(one verdict per call, after every field was parsed: whether the encoding is canonical)
    if std::hint::black_box(all_reduced) >> 63 == 0 {
        return Err(RlweError::Malformed {
            reason: format!("a coefficient is not reduced modulo {q}"),
        });
    }
    // ct-allow(pad bits are zero in every valid encoding; the verdict is whether it is canonical)
    if padding != 0 {
        return Err(RlweError::Malformed {
            reason: "non-zero padding bits".into(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bit-at-a-time packer this module replaced, kept as the
    /// oracle: one branch per coefficient bit.
    fn pack_bitwise(coeffs: &[u32], bits: u32) -> Vec<u8> {
        let mut out = vec![0u8; (coeffs.len() * bits as usize).div_ceil(8)];
        for (i, &c) in coeffs.iter().enumerate() {
            for b in 0..bits as usize {
                let pos = i * bits as usize + b;
                if (c >> b) & 1 == 1 {
                    out[pos / 8] |= 1 << (pos % 8);
                }
            }
        }
        out
    }

    /// The bit-at-a-time parser's verdict: `Some(coeffs)` when the
    /// encoding is canonical, `None` on a range or padding violation.
    fn unpack_bitwise(bytes: &[u8], bits: u32, n: usize, q: u32) -> Option<Vec<u32>> {
        let bit = |pos: usize| u32::from((bytes[pos / 8] >> (pos % 8)) & 1);
        let coeffs: Vec<u32> = (0..n)
            .map(|i| (0..bits as usize).fold(0, |c, b| c | bit(i * bits as usize + b) << b))
            .collect();
        let pad_ok = (n * bits as usize..bytes.len() * 8).all(|pos| bit(pos) == 0);
        (pad_ok && coeffs.iter().all(|&c| c < q)).then_some(coeffs)
    }

    fn width_max(bits: u32) -> u32 {
        field_mask(bits) as u32
    }

    #[test]
    fn round_trip_13_bits() {
        let coeffs: Vec<u32> = (0..256u32).map(|i| (i * 30 + 1) % 7681).collect();
        let bytes = pack_coeffs(&coeffs, 13);
        assert_eq!(bytes.len(), 256 * 13 / 8);
        assert_eq!(unpack_coeffs(&bytes, 13, 256, 7681).unwrap(), coeffs);
    }

    #[test]
    fn round_trip_14_bits() {
        let coeffs: Vec<u32> = (0..512u32).map(|i| (i * 24 + 5) % 12289).collect();
        let bytes = pack_coeffs(&coeffs, 14);
        assert_eq!(unpack_coeffs(&bytes, 14, 512, 12289).unwrap(), coeffs);
    }

    #[test]
    fn round_trip_awkward_widths() {
        for bits in [1u32, 3, 7, 9, 17, 31] {
            let q = if bits == 32 {
                u32::MAX
            } else {
                (1u32 << bits).wrapping_sub(1).max(2)
            };
            let coeffs: Vec<u32> = (0..21u32).map(|i| (i * 1237) % q).collect();
            let bytes = pack_coeffs(&coeffs, bits);
            assert_eq!(
                unpack_coeffs(&bytes, bits, 21, q).unwrap(),
                coeffs,
                "bits={bits}"
            );
        }
    }

    #[test]
    fn all_ones_fields_match_the_oracle_at_every_width() {
        for bits in 1..=32u32 {
            let coeffs = vec![width_max(bits); 13];
            let bytes = pack_coeffs(&coeffs, bits);
            assert_eq!(bytes, pack_bitwise(&coeffs, bits), "bits={bits}");
            for q in [width_max(bits), width_max(bits).saturating_add(1)] {
                assert_eq!(
                    unpack_coeffs(&bytes, bits, 13, q).ok(),
                    unpack_bitwise(&bytes, bits, 13, q),
                    "bits={bits} q={q}"
                );
            }
        }
    }

    #[test]
    fn pack_into_appends() {
        let mut out = vec![0xA3, 1];
        pack_coeffs_into(&[1, 2, 3], 13, &mut out);
        assert_eq!(out[..2], [0xA3, 1]);
        assert_eq!(out[2..], pack_coeffs(&[1, 2, 3], 13));
    }

    #[test]
    fn out_of_range_coefficient_rejected() {
        // 7681 fits in 13 bits but is not < q.
        let bytes = pack_coeffs(&[7681], 13);
        assert!(unpack_coeffs(&bytes, 13, 1, 7681).is_err());
    }

    #[test]
    fn wrong_length_rejected() {
        let bytes = pack_coeffs(&[1, 2, 3], 13);
        assert!(unpack_coeffs(&bytes, 13, 4, 7681).is_err());
        assert!(unpack_coeffs(&bytes[..bytes.len() - 1], 13, 3, 7681).is_err());
    }

    #[test]
    fn nonzero_padding_rejected() {
        let mut bytes = pack_coeffs(&[1], 13); // 13 bits -> 2 bytes, 3 pad bits
        bytes[1] |= 0x80;
        assert!(unpack_coeffs(&bytes, 13, 1, 7681).is_err());
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_coefficient_panics_on_pack() {
        pack_coeffs(&[1 << 13], 13);
    }

    #[test]
    fn out_of_range_bit_width_is_an_error_not_a_panic() {
        assert!(unpack_coeffs(&[0u8; 4], 0, 1, 7681).is_err());
        assert!(unpack_coeffs(&[0u8; 5], 33, 1, 7681).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn packing_matches_the_bitwise_oracle(
            bits in 1u32..=32,
            raw in prop::collection::vec(any::<u32>(), 0..80),
        ) {
            let coeffs: Vec<u32> = raw.iter().map(|&c| c & width_max(bits)).collect();
            let bytes = pack_coeffs(&coeffs, bits);
            prop_assert_eq!(&bytes, &pack_bitwise(&coeffs, bits));
            let n = coeffs.len();
            prop_assert_eq!(unpack_coeffs(&bytes, bits, n, u32::MAX).ok(),
                unpack_bitwise(&bytes, bits, n, u32::MAX));
        }

        #[test]
        fn parsing_matches_the_bitwise_oracle_on_arbitrary_bytes(
            bits in prop::sample::select(vec![1u32, 5, 8, 13, 14, 16, 23, 32]),
            n in 0usize..48,
            raw_q in any::<u32>(),
            full_q in any::<bool>(),
            clear_pad in any::<bool>(),
            seed in any::<u64>(),
        ) {
            // Random bytes of the right length exercise range and padding
            // rejection; verdicts and values must match the oracle. Half
            // the cases admit every field, half clear the pad bits, so
            // accepting parses are compared too.
            let mut s = seed | 1;
            let mut bytes: Vec<u8> = (0..(n * bits as usize).div_ceil(8))
                .map(|_| {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    s as u8
                })
                .collect();
            let used = (n * bits as usize) % 8;
            if clear_pad && used != 0 {
                if let Some(last) = bytes.last_mut() {
                    *last &= (1u8 << used) - 1;
                }
            }
            let top = width_max(bits).saturating_add(1);
            let q = if full_q { top } else { 1 + raw_q % top };
            prop_assert_eq!(unpack_coeffs(&bytes, bits, n, q).ok(),
                unpack_bitwise(&bytes, bits, n, q));
        }
    }
}
