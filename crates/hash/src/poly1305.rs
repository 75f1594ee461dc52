//! Poly1305 (RFC 8439 §2.5): the one-time authenticator under the
//! session frames' AEAD.
//!
//! Safe Rust in radix 2⁶⁴. The accumulator is `h0 + h1·2⁶⁴ + h2·2¹²⁸`
//! in three `u64` limbs (`h2` holds a few bits), the clamped key half
//! `r` is `r0 + r1·2⁶⁴`, and every product is a `u128`. Clamping clears
//! the low two bits of `r1`, so `r1·2¹²⁸ = (r1/4)·2¹³⁰ ≡ 5·r1/4
//! (mod 2¹³⁰ − 5)`: the partial products that land at or above 2¹²⁸
//! fold back through the precomputed `r1 + r1/4`. After each block the
//! bits at and above 2¹³⁰ are folded back once more (times 5), which
//! keeps `h2 ≤ 4` and `h < 2·(2¹³⁰ − 5)`, so one conditional
//! subtraction of the prime fully reduces it at the end.
//!
//! On an AVX2 host a run of at least [`MIN_WIDE`] bytes of whole blocks
//! goes to the 4-lane radix-2²⁶ kernel in `poly1305_avx2.rs` instead;
//! [`poly1305_blocks`] stays the oracle, the tail path and the path on
//! other hosts.
//!
//! # Constant-time argument
//!
//! Every block runs the same multiplies, adds and shifts; the final
//! subtraction is a masked select on the carry out of `h + 5`, not a
//! branch. Loop bounds depend only on the (public) message length.

/// Bytes per Poly1305 block.
pub(crate) const BLOCK: usize = 16;

/// The shortest run of whole blocks [`absorb`] hands to the AVX2
/// kernel: below it the r-power setup costs more than the kernel saves.
const MIN_WIDE: usize = 512;

/// The authenticator state for one message: the clamped `r`, the `s`
/// pad and the accumulator. Erased on drop.
pub(crate) struct Poly1305 {
    // ct: secret
    r_key: [u64; 2],
    // ct: secret
    s_key: [u64; 2],
    // ct: secret
    acc: [u64; 3],
}

impl Drop for Poly1305 {
    fn drop(&mut self) {
        rlwe_zq::ct::zeroize_u64(&mut self.r_key);
        rlwe_zq::ct::zeroize_u64(&mut self.s_key);
        rlwe_zq::ct::zeroize_u64(&mut self.acc);
    }
}

/// The full 128-bit product of two limbs.
#[inline(always)]
fn mul_wide(a: u64, b: u64) -> u128 {
    a as u128 * b as u128
}

fn le64(b: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&b[..8]);
    u64::from_le_bytes(w)
}

impl Poly1305 {
    /// Keys the authenticator with the one-time key `r ‖ s`, clamping
    /// `r` as RFC 8439 §2.5 prescribes.
    pub(crate) fn new(/* ct: secret */ key: &[u8; 32]) -> Self {
        Self {
            r_key: [
                le64(&key[0..8]) & 0x0fff_fffc_0fff_ffff,
                le64(&key[8..16]) & 0x0fff_fffc_0fff_fffc,
            ],
            s_key: [le64(&key[16..24]), le64(&key[24..32])],
            acc: [0; 3],
        }
    }

    /// Absorbs `data` zero-padded to a multiple of 16 bytes, every block
    /// carrying the 2¹²⁸ pad bit: the `‖ pad16(·)` layout of the RFC 8439
    /// AEAD, where a short final block is padded with zeros rather than
    /// terminated with `0x01`.
    pub(crate) fn update_padded(&mut self, data: &[u8]) {
        let whole = data.len() / BLOCK * BLOCK;
        absorb(&mut self.acc, &self.r_key, &data[..whole]);
        if whole < data.len() {
            let mut last = [0u8; BLOCK];
            last[..data.len() - whole].copy_from_slice(&data[whole..]);
            poly1305_blocks(&mut self.acc, &self.r_key, &last, 1);
        }
    }

    /// The 16-byte tag: `(h mod 2¹³⁰ − 5) + s mod 2¹²⁸`.
    pub(crate) fn finalize(self) -> [u8; 16] {
        let [h0, h1, h2] = self.acc;
        // g = h + 5; h ≥ p exactly when g reaches 2¹³⁰, and then h − p is
        // g's low 130 bits (of which the tag keeps 128).
        let t = h0 as u128 + 5;
        let g0 = t as u64;
        let t = h1 as u128 + (t >> 64);
        let g1 = t as u64;
        let g2 = h2 + (t >> 64) as u64;
        let take_g = ((g2 >> 2) & 1).wrapping_neg();
        let f0 = (h0 & !take_g) | (g0 & take_g);
        let f1 = (h1 & !take_g) | (g1 & take_g);
        let t = f0 as u128 + self.s_key[0] as u128;
        let lo = t as u64;
        let hi = (f1 as u128 + self.s_key[1] as u128 + (t >> 64)) as u64;
        let mut tag = [0u8; 16];
        tag[..8].copy_from_slice(&lo.to_le_bytes());
        tag[8..].copy_from_slice(&hi.to_le_bytes());
        tag
    }
}

/// Poly1305 (RFC 8439 §2.5) of `msg` under the one-time key `key =
/// r ‖ s`: whole blocks with the 2¹²⁸ pad bit, then a short final
/// block terminated with `0x01`. A key must authenticate one message
/// only; the AEAD derives a fresh one per nonce.
///
/// # Example
///
/// ```
/// // RFC 8439 §2.5.2.
/// let key: [u8; 32] = [
///     0x85, 0xd6, 0xbe, 0x78, 0x57, 0x55, 0x6d, 0x33, 0x7f, 0x44, 0x52, 0xfe, 0x42, 0xd5,
///     0x06, 0xa8, 0x01, 0x03, 0x80, 0x8a, 0xfb, 0x0d, 0xb2, 0xfd, 0x4a, 0xbf, 0xf6, 0xaf,
///     0x41, 0x49, 0xf5, 0x1b,
/// ];
/// let tag = rlwe_hash::poly1305(&key, b"Cryptographic Forum Research Group");
/// assert_eq!(tag[..4], [0xa8, 0x06, 0x1d, 0xc1]);
/// ```
pub fn poly1305(/* ct: secret */ key: &[u8; 32], msg: &[u8]) -> [u8; 16] {
    let mut p = Poly1305::new(key);
    let whole = msg.len() / BLOCK * BLOCK;
    absorb(&mut p.acc, &p.r_key, &msg[..whole]);
    if whole < msg.len() {
        let mut last = [0u8; BLOCK];
        let rest = msg.len() - whole;
        last[..rest].copy_from_slice(&msg[whole..]);
        last[rest] = 1;
        poly1305_blocks(&mut p.acc, &p.r_key, &last, 0);
    }
    p.finalize()
}

/// Absorbs the whole 16-byte blocks of `blocks` into `acc`, each with
/// the 2¹²⁸ pad bit: the whole 64-byte groups of a run of at least
/// [`MIN_WIDE`] bytes on the 4-lane AVX2 kernel where the CPU has one,
/// everything else on [`poly1305_blocks`]. The choice depends only on
/// the public length and the CPU.
fn absorb(
    /* ct: secret */ acc: &mut [u64; 3],
    /* ct: secret */ r: &[u64; 2],
    blocks: &[u8],
) {
    #[cfg(target_arch = "x86_64")]
    if blocks.len() >= MIN_WIDE {
        *acc = absorb_wide(*acc, *r, blocks);
        return;
    }
    poly1305_blocks(acc, r, blocks, 1);
}

/// [`absorb`]'s path for runs of at least [`MIN_WIDE`] bytes: the
/// kernel over the whole 64-byte groups, the scalar block function over
/// the rest. Out of line and by value, so the kernel's setup and stack
/// frame stay out of the short runs' path (inlined, they slowed a 64 B
/// [`poly1305`] call by ~15%).
#[cfg(target_arch = "x86_64")]
#[inline(never)]
fn absorb_wide(
    /* ct: secret */ mut acc: [u64; 3],
    /* ct: secret */ r: [u64; 2],
    blocks: &[u8],
) -> [u64; 3] {
    let done = crate::poly1305_avx2::blocks_wide(&mut acc, &r, blocks);
    // ct-allow(`done` is the public length of the whole 64-byte groups, or 0 without AVX2; it does not depend on acc or r)
    poly1305_blocks(&mut acc, &r, &blocks[done..], 1);
    acc
}

/// Absorbs the whole 16-byte blocks of `blocks` into `acc`, each with
/// `pad_bit · 2¹²⁸` added: 1 for a full block, 0 for a final short
/// block the caller has already terminated with `0x01`.
pub(crate) fn poly1305_blocks(
    /* ct: secret */ acc: &mut [u64; 3],
    /* ct: secret */ r: &[u64; 2],
    blocks: &[u8],
    pad_bit: u64,
) {
    let [r0, r1] = *r;
    let r1_fold = r1 + (r1 >> 2);
    let [mut h0, mut h1, mut h2] = *acc;
    for m in blocks.chunks_exact(BLOCK) {
        // h += m + pad_bit·2¹²⁸
        let t = h0 as u128 + le64(&m[..8]) as u128;
        h0 = t as u64;
        let t = h1 as u128 + le64(&m[8..]) as u128 + (t >> 64);
        h1 = t as u64;
        h2 += pad_bit + (t >> 64) as u64;
        // h *= r, folding the 2¹²⁸ and 2¹⁹² partial products back.
        let d0 = mul_wide(h0, r0) + mul_wide(h1, r1_fold);
        let d1 = mul_wide(h0, r1) + mul_wide(h1, r0) + mul_wide(h2, r1_fold) + (d0 >> 64);
        let d2 = h2 * r0 + (d1 >> 64) as u64;
        // Fold the bits at and above 2¹³⁰: d2·2¹²⁸ = c·2¹³⁰ + (d2 & 3)·2¹²⁸.
        let c = d2 >> 2;
        let t = d0 as u64 as u128 + 5 * c as u128;
        h0 = t as u64;
        let t = d1 as u64 as u128 + (t >> 64);
        h1 = t as u64;
        h2 = (d2 & 3) + (t >> 64) as u64;
    }
    *acc = [h0, h1, h2];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aead::tests::pattern;
    use crate::chacha20::tests::{random_bytes, unhex, xorshift};

    fn key(hex: &str) -> [u8; 32] {
        unhex(hex).try_into().expect("32-byte key")
    }

    /// Absorbs the whole 64-byte groups of `blocks` on the AVX2 kernel,
    /// whatever their number, and returns the bytes it took: all of
    /// them on an AVX2 host, none elsewhere.
    fn wide_prefix(acc: &mut [u64; 3], r: &[u64; 2], blocks: &[u8]) -> usize {
        #[cfg(target_arch = "x86_64")]
        {
            let done = crate::poly1305_avx2::blocks_wide(acc, r, blocks);
            let groups = blocks.len() / 64 * 64;
            assert_eq!(done, if rlwe_zq::cpu::avx2() { groups } else { 0 });
            done
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (acc, r, blocks);
            0
        }
    }

    /// `update_padded` with its whole blocks forced onto the kernel
    /// (`wide`) or onto the scalar block function.
    fn update_padded_with(p: &mut Poly1305, data: &[u8], wide: bool) {
        let whole = data.len() / BLOCK * BLOCK;
        let done = if wide {
            wide_prefix(&mut p.acc, &p.r_key, &data[..whole])
        } else {
            0
        };
        poly1305_blocks(&mut p.acc, &p.r_key, &data[done..whole], 1);
        if whole < data.len() {
            let mut last = [0u8; BLOCK];
            last[..data.len() - whole].copy_from_slice(&data[whole..]);
            poly1305_blocks(&mut p.acc, &p.r_key, &last, 1);
        }
    }

    /// [`poly1305`] with its whole blocks forced onto the kernel
    /// (`wide`) or onto the scalar block function.
    fn mac_with(key: &[u8; 32], msg: &[u8], wide: bool) -> [u8; 16] {
        let mut p = Poly1305::new(key);
        let whole = msg.len() / BLOCK * BLOCK;
        let done = if wide {
            wide_prefix(&mut p.acc, &p.r_key, &msg[..whole])
        } else {
            0
        };
        poly1305_blocks(&mut p.acc, &p.r_key, &msg[done..whole], 1);
        if whole < msg.len() {
            let mut last = [0u8; BLOCK];
            let rest = msg.len() - whole;
            last[..rest].copy_from_slice(&msg[whole..]);
            last[rest] = 1;
            poly1305_blocks(&mut p.acc, &p.r_key, &last, 0);
        }
        p.finalize()
    }

    /// The lengths the agreement tests cover: every length to 1100,
    /// 16 KiB, 16 KiB + 17 and 64 KiB.
    fn agreement_lengths() -> impl Iterator<Item = usize> {
        (0..=1100).chain([16384, 16401, 65536])
    }

    /// The value of the accumulator `acc` reduced below `p = 2¹³⁰ − 5`,
    /// as its low 128 bits and bits 128–129.
    fn reduced([h0, h1, h2]: [u64; 3]) -> (u128, u64) {
        let (mut lo, mut hi) = (u128::from(h0) | u128::from(h1) << 64, h2);
        for _ in 0..3 {
            // 2¹³⁰ ≡ 5
            let (sum, c) = lo.overflowing_add(5 * u128::from(hi >> 2));
            (lo, hi) = (sum, (hi & 3) + u64::from(c));
        }
        if hi == 3 && lo >= u128::MAX - 4 {
            (lo.wrapping_add(5), 0)
        } else {
            (lo, hi)
        }
    }

    #[test]
    fn wide_and_scalar_block_functions_agree_from_any_accumulator() {
        let mut x = 0x9e37_79b9_7f4a_7c15;
        let buf: Vec<u8> = (0..65536).map(|_| xorshift(&mut x) as u8).collect();
        for len in agreement_lengths() {
            let k: [u8; 32] = random_bytes(&mut x);
            let mut p = Poly1305::new(&k);
            // A non-zero starting accumulator: two scalar blocks of noise.
            let noise: [u8; 32] = random_bytes(&mut x);
            poly1305_blocks(&mut p.acc, &p.r_key, &noise, 1);
            let blocks = &buf[..len / BLOCK * BLOCK];
            let mut scalar = p.acc;
            poly1305_blocks(&mut scalar, &p.r_key, blocks, 1);
            let mut wide = p.acc;
            let done = wide_prefix(&mut wide, &p.r_key, blocks);
            poly1305_blocks(&mut wide, &p.r_key, &blocks[done..], 1);
            assert!(wide[2] <= 4, "length {len}: {wide:?}");
            assert_eq!(reduced(wide), reduced(scalar), "length {len}");
            assert_eq!(
                mac_with(&k, &buf[..len], true),
                mac_with(&k, &buf[..len], false),
                "length {len}"
            );
            assert_eq!(
                poly1305(&k, &buf[..len]),
                mac_with(&k, &buf[..len], false),
                "length {len}"
            );
        }
    }

    #[test]
    fn wide_path_holds_the_lazy_carry_bound_under_all_ones() {
        // The largest clamped r, s = 2¹²⁸ − 1, all-0xFF blocks and an
        // accumulator entering with every limb set and the top limb at
        // the scalar bound 4: every lane's limbs reach their bounds.
        let k = [0xFFu8; 32];
        let buf = vec![0xFFu8; 65536];
        for len in agreement_lengths() {
            let blocks = &buf[..len / BLOCK * BLOCK];
            for start in [[0; 3], [u64::MAX, u64::MAX, 4]] {
                let r = Poly1305::new(&k).r_key;
                let mut scalar = start;
                poly1305_blocks(&mut scalar, &r, blocks, 1);
                let mut wide = start;
                let done = wide_prefix(&mut wide, &r, blocks);
                poly1305_blocks(&mut wide, &r, &blocks[done..], 1);
                assert!(wide[2] <= 4, "length {len}: {wide:?}");
                assert_eq!(reduced(wide), reduced(scalar), "length {len}");
            }
            assert_eq!(
                mac_with(&k, &buf[..len], true),
                mac_with(&k, &buf[..len], false),
                "length {len}"
            );
        }
    }

    #[test]
    fn wide_result_past_2_pow_128_keeps_its_top_bits() {
        // r = 1: every power is 1 and the lanes only add. One group,
        // block 0 = 2¹²⁸ − 1, blocks 1–3 zero, sums to 2¹³⁰ + 2¹²⁸ − 1
        // with the pad bits, which folds to 2¹²⁸ + 4 with radix-2²⁶
        // limb 1 at exactly 2²⁶: the only case where the conversion
        // back to radix 2⁶⁴ carries out of 128 bits.
        let r = [1, 0];
        let mut group = [0u8; 64];
        group[..16].fill(0xFF);
        let mut scalar = [0; 3];
        poly1305_blocks(&mut scalar, &r, &group, 1);
        let mut wide = [0; 3];
        if wide_prefix(&mut wide, &r, &group) > 0 {
            assert_eq!(wide, [4, 0, 1]);
        }
        assert_eq!(reduced(scalar), (4, 1));
    }

    #[test]
    fn aead_shaped_updates_agree_after_every_aad_length() {
        // The frame layout: `update_padded` over the AAD, then a 16 KiB
        // body (which the kernel takes from the accumulator the AAD
        // left), then the lengths block.
        let mut x = 0x2545_f491_4f6c_dd1d;
        let aad: [u8; 64] = random_bytes(&mut x);
        let body: Vec<u8> = (0..16384).map(|_| xorshift(&mut x) as u8).collect();
        assert!(
            MIN_WIDE <= body.len(),
            "the 16 KiB body must reach the kernel"
        );
        for aad_len in 0..=64 {
            let k: [u8; 32] = random_bytes(&mut x);
            let mut lengths = [0u8; 16];
            lengths[..8].copy_from_slice(&(aad_len as u64).to_le_bytes());
            lengths[8..].copy_from_slice(&(body.len() as u64).to_le_bytes());
            let mut dispatched = Poly1305::new(&k);
            let mut wide = Poly1305::new(&k);
            let mut scalar = Poly1305::new(&k);
            for part in [&aad[..aad_len], &body, &lengths] {
                dispatched.update_padded(part);
                update_padded_with(&mut wide, part, true);
                update_padded_with(&mut scalar, part, false);
            }
            let want = scalar.finalize();
            assert_eq!(wide.finalize(), want, "aad length {aad_len}");
            assert_eq!(dispatched.finalize(), want, "aad length {aad_len}");
        }
    }

    #[test]
    fn rfc8439_mac_vector() {
        // RFC 8439 §2.5.2.
        let k = key("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
        assert_eq!(
            poly1305(&k, b"Cryptographic Forum Research Group").to_vec(),
            unhex("a8061dc1305136c6c22b8baf0c0127a9")
        );
    }

    /// Python `cryptography` 48's `Poly1305`, from
    /// `vectors/chacha20poly1305.py`: `(length, tag)` for key
    /// `pattern(32, 13, 0x21)` over `pattern(length, 31, 7)`.
    const PYTHON_VECTORS: [(usize, &str); 13] = [
        (0, "f1fe0b1825323f4c596673808d9aa7b4"),
        (1, "dd62d88c7936ad121e0c8328b2e158ae"),
        (15, "26e4abd3e4697c59a201d97eb490836a"),
        (16, "7efe9995479315bc133a515d34d8a62c"),
        (17, "8c4c81c9be8c46d9dcb25177d7f0e8e4"),
        (63, "0d17ca5fe38a89e4df9a6770ea39b2ad"),
        (64, "9352ca6f3a993864097cb93ee6edb23e"),
        (65, "0e484ea05019f060bd6cdb0e14136cf9"),
        (511, "9f696f1a9bc6c1649bcd17d2bf4d999b"),
        (512, "8f23026daca35368cfcd9c6016711d6e"),
        (513, "3b0f2943c7a3dc0e5f5e35f096d8bf5d"),
        (16384, "25cf551977d55f0f8c3ff29e574d3691"),
        (16401, "c364146ba5e03d6a757b267e3c6e548b"),
    ];

    #[test]
    fn matches_python_cryptography_on_every_pinned_length() {
        // The dispatched, scalar and wide paths; 512, 513, 16384 and
        // 16401 bytes reach the kernel through the dispatcher too.
        const { assert!(MIN_WIDE <= 512) };
        let k: [u8; 32] = pattern(32, 13, 0x21).try_into().unwrap();
        for (len, tag) in PYTHON_VECTORS {
            let msg = pattern(len, 31, 7);
            for got in [
                poly1305(&k, &msg),
                mac_with(&k, &msg, false),
                mac_with(&k, &msg, true),
            ] {
                assert_eq!(got.to_vec(), unhex(tag), "length {len}");
            }
        }
    }

    #[test]
    fn all_ones_blocks_under_the_largest_clamped_r() {
        // Key 0xFF…: r clamps to its largest value and s = 2¹²⁸ − 1, so
        // every limb product and carry is at its bound (tags from
        // `vectors/chacha20poly1305.py`).
        let k = [0xFFu8; 32];
        let p = Poly1305::new(&k);
        assert_eq!(p.r_key, [0x0fff_fffc_0fff_ffff, 0x0fff_fffc_0fff_fffc]);
        for (len, tag) in [
            (16, "fbffff17faffff17faffff17faffff17"),
            (64, "900fe32bc15fa8d7bca8efe4c7e37eb1"),
            (1031, "dc336d506a592d000ba7c6d1030ce50a"),
        ] {
            let msg = vec![0xFF; len];
            for got in [
                poly1305(&k, &msg),
                mac_with(&k, &msg, false),
                mac_with(&k, &msg, true),
            ] {
                assert_eq!(got.to_vec(), unhex(tag), "length {len}");
            }
        }
    }

    #[test]
    fn accumulator_in_the_last_five_values_below_2_pow_130_is_reduced() {
        // r = 1, s = 0: after two full blocks h = m1 + m2 + 2·2¹²⁸
        // without any multiplication folding it. m1 = 2¹²⁸ − 1 and
        // m2 = 2¹²⁸ − 1 − k put h at 2¹³⁰ − 2 − k, inside
        // [2¹³⁰ − 5, 2¹³⁰) for k ≤ 3 (k = 3 is exactly the prime), where
        // only the final subtraction of the prime brings it below p.
        let mut k = [0u8; 32];
        k[0] = 1;
        for under in 0u8..=3 {
            let mut msg = [0xFFu8; 32];
            msg[16] = 0xFF - under;
            let mut p = Poly1305::new(&k);
            poly1305_blocks(&mut p.acc, &p.r_key, &msg, 1);
            // 2¹³⁰ − 5 ≤ h < 2¹³⁰: h2 = 3, h1 all ones, h0 ≥ 2⁶⁴ − 5.
            let [h0, h1, h2] = p.acc;
            assert!(
                h2 == 3 && h1 == u64::MAX && h0 >= u64::MAX - 4,
                "{:?}",
                p.acc
            );
            // h − p = (2¹³⁰ − 2 − under) − (2¹³⁰ − 5) = 3 − under.
            let mut want = [0u8; 16];
            want[0] = 3 - under;
            assert_eq!(p.finalize(), want, "under = {under}");
        }
    }

    #[test]
    fn fold_carries_through_both_limbs() {
        // RFC 8439 Appendix A.3, test vector #8 (r = 1, s = 0). The third
        // block lifts the accumulator past 2¹³⁰, and folding the excess
        // (times 5) back into `h0 = 2⁶⁴ − 5` carries through both low
        // limbs, leaving h = 2¹²⁸ ≡ 5·2¹²⁸ − 5 (mod p): tag 0.
        let mut k = [0u8; 32];
        k[0] = 1;
        let mut msg = [0xFFu8; 48];
        msg[16] = 0xFB;
        msg[17..32].fill(0xFE);
        msg[32..].fill(0x01);
        let mut p = Poly1305::new(&k);
        poly1305_blocks(&mut p.acc, &p.r_key, &msg, 1);
        assert_eq!(p.acc, [0, 0, 1]);
        assert_eq!(p.finalize(), [0u8; 16]);
        assert_eq!(poly1305(&k, &msg), [0u8; 16]);
    }
}
