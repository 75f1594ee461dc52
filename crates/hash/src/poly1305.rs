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
//! A run of at least [`MIN_WIDE`] bytes of whole blocks goes to a vector
//! [`Kernel`] instead where the CPU has one: the 8-lane radix-2⁴⁴ AVX-512
//! IFMA kernel in `poly1305_ifma.rs`, else the 4-lane radix-2²⁶ AVX2
//! kernel in `poly1305_avx2.rs`. [`poly1305_blocks`] stays the oracle,
//! the tail path and the path on other hosts.
//!
//! # Constant-time argument
//!
//! Every block runs the same multiplies, adds and shifts; the final
//! subtraction is a masked select on the carry out of `h + 5`, not a
//! branch. Loop bounds depend only on the (public) message length.

/// Bytes per Poly1305 block.
pub(crate) const BLOCK: usize = 16;

/// The shortest run of whole blocks [`absorb`] hands to a vector
/// kernel: below it the r-power setup costs more than the kernel saves.
const MIN_WIDE: usize = 512;

/// A vector kernel for runs of whole blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kernel {
    /// 8 lanes of radix-2⁴⁴ limbs, `vpmadd52{l,h}uq` on zmm.
    Avx512Ifma,
    /// 4 lanes of radix-2²⁶ limbs, `vpmuludq` on ymm.
    Avx2,
}

impl Kernel {
    /// Every kernel, in the order [`Kernel::detect`] prefers them.
    pub(crate) const ALL: [Kernel; 2] = [Kernel::Avx512Ifma, Kernel::Avx2];

    /// Whether the running CPU can execute this kernel.
    pub(crate) fn supported(self) -> bool {
        match self {
            Kernel::Avx512Ifma => rlwe_zq::cpu::avx512ifma(),
            Kernel::Avx2 => rlwe_zq::cpu::avx2(),
        }
    }

    /// The kernel [`absorb`] runs on this CPU, if any.
    pub(crate) fn detect() -> Option<Kernel> {
        Kernel::ALL.into_iter().find(|k| k.supported())
    }

    /// Stable metric-label name of the kernel.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Kernel::Avx512Ifma => "avx512ifma",
            Kernel::Avx2 => "avx2",
        }
    }

    /// Absorbs the longest prefix of `blocks` that is a whole number of
    /// the kernel's groups (128 bytes for IFMA, 64 for AVX2) into `acc`,
    /// every block with the 2¹²⁸ pad bit, and returns its length: 0, with
    /// `acc` untouched, where the CPU cannot run the kernel.
    pub(crate) fn absorb_prefix(
        self,
        /* ct: secret */ acc: &mut [u64; 3],
        /* ct: secret */ r: &[u64; 2],
        blocks: &[u8],
    ) -> usize {
        #[cfg(target_arch = "x86_64")]
        match self {
            Kernel::Avx512Ifma => crate::poly1305_ifma::blocks_wide(acc, r, blocks),
            Kernel::Avx2 => crate::poly1305_avx2::blocks_wide(acc, r, blocks),
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (acc, r, blocks);
            0
        }
    }
}

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
    // Decided on the public length up front, so a short message's
    // accumulator stays in registers from the first block to the tag.
    if msg.len() >= MIN_WIDE {
        poly1305_wide(key, msg)
    } else {
        mac(key, msg, |acc, r, blocks| {
            poly1305_blocks(acc, r, blocks, 1)
        })
    }
}

/// [`poly1305`] of a message of at least [`MIN_WIDE`] bytes, its whole
/// blocks through [`absorb`]. Out of line, so the vector kernels' setup
/// and stack frame stay out of the short messages' path.
#[inline(never)]
fn poly1305_wide(/* ct: secret */ key: &[u8; 32], msg: &[u8]) -> [u8; 16] {
    mac(key, msg, absorb)
}

/// Poly1305 of `msg`, its whole blocks absorbed by `whole_blocks` and a
/// short final block terminated with `0x01`.
#[inline(always)]
fn mac(
    /* ct: secret */ key: &[u8; 32],
    msg: &[u8],
    whole_blocks: impl Fn(&mut [u64; 3], &[u64; 2], &[u8]),
) -> [u8; 16] {
    let mut p = Poly1305::new(key);
    let whole = msg.len() / BLOCK * BLOCK;
    whole_blocks(&mut p.acc, &p.r_key, &msg[..whole]);
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
/// the 2¹²⁸ pad bit: a run of at least [`MIN_WIDE`] bytes through
/// [`absorb_wide`], everything else on [`poly1305_blocks`]. The choice
/// depends only on the public length and the CPU.
fn absorb(
    /* ct: secret */ acc: &mut [u64; 3],
    /* ct: secret */ r: &[u64; 2],
    blocks: &[u8],
) {
    if blocks.len() >= MIN_WIDE {
        *acc = absorb_wide(*acc, *r, blocks);
        return;
    }
    poly1305_blocks(acc, r, blocks, 1);
}

/// [`absorb`]'s path for runs of at least [`MIN_WIDE`] bytes: the
/// detected [`Kernel`] over its whole groups, the scalar block function
/// over the rest. Out of line and by value, so the kernel's setup and
/// stack frame stay out of the short runs' path.
#[inline(never)]
fn absorb_wide(
    /* ct: secret */ mut acc: [u64; 3],
    /* ct: secret */ r: [u64; 2],
    blocks: &[u8],
) -> [u64; 3] {
    let done = match Kernel::detect() {
        Some(kernel) => kernel.absorb_prefix(&mut acc, &r, blocks),
        None => 0,
    };
    // ct-allow(`done` is the public length of the kernel's whole groups, or 0 without one; it does not depend on acc or r)
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

    /// Bytes per group of `kernel`: one block per lane.
    fn group(kernel: Kernel) -> usize {
        match kernel {
            Kernel::Avx512Ifma => 128,
            Kernel::Avx2 => 64,
        }
    }

    /// Every kernel this CPU runs, each seen to run (it took a whole
    /// group), and exactly the ones the [`rlwe_zq::cpu`] flags promise:
    /// a mis-wired `supported()` cannot drop a kernel out of the
    /// agreement tests unnoticed.
    fn kernels_that_run() -> Vec<Kernel> {
        let ran: Vec<Kernel> = Kernel::ALL
            .into_iter()
            .filter(|&k| k.absorb_prefix(&mut [0; 3], &[1, 0], &[0u8; 128]) == 128)
            .collect();
        let promised: Vec<Kernel> = [
            (Kernel::Avx512Ifma, rlwe_zq::cpu::avx512ifma()),
            (Kernel::Avx2, rlwe_zq::cpu::avx2()),
        ]
        .into_iter()
        .filter_map(|(k, present)| present.then_some(k))
        .collect();
        assert_eq!(ran, promised);
        assert_eq!(Kernel::detect(), ran.first().copied());
        eprintln!("Poly1305 kernels run on this host: {ran:?}");
        ran
    }

    /// Absorbs the whole groups of `blocks` on `kernel`, whatever their
    /// number, and returns the bytes it took.
    fn wide_prefix(kernel: Kernel, acc: &mut [u64; 3], r: &[u64; 2], blocks: &[u8]) -> usize {
        let done = kernel.absorb_prefix(acc, r, blocks);
        assert_eq!(done, blocks.len() / group(kernel) * group(kernel));
        done
    }

    /// `update_padded` with its whole blocks forced onto `kernel`, or
    /// onto the scalar block function.
    fn update_padded_with(p: &mut Poly1305, data: &[u8], kernel: Option<Kernel>) {
        let whole = data.len() / BLOCK * BLOCK;
        let done = kernel.map_or(0, |k| wide_prefix(k, &mut p.acc, &p.r_key, &data[..whole]));
        poly1305_blocks(&mut p.acc, &p.r_key, &data[done..whole], 1);
        if whole < data.len() {
            let mut last = [0u8; BLOCK];
            last[..data.len() - whole].copy_from_slice(&data[whole..]);
            poly1305_blocks(&mut p.acc, &p.r_key, &last, 1);
        }
    }

    /// [`poly1305`] with its whole blocks forced onto `kernel`, or onto
    /// the scalar block function.
    fn mac_with(key: &[u8; 32], msg: &[u8], kernel: Option<Kernel>) -> [u8; 16] {
        mac(key, msg, |acc, r, blocks| {
            let done = kernel.map_or(0, |k| wide_prefix(k, acc, r, blocks));
            poly1305_blocks(acc, r, &blocks[done..], 1);
        })
    }

    /// [`poly1305`] on the dispatched path, the scalar path and each of
    /// `kernels`.
    fn every_path(key: &[u8; 32], msg: &[u8], kernels: &[Kernel]) -> Vec<[u8; 16]> {
        let forced = std::iter::once(None).chain(kernels.iter().copied().map(Some));
        std::iter::once(poly1305(key, msg))
            .chain(forced.map(|k| mac_with(key, msg, k)))
            .collect()
    }

    /// The lengths the agreement tests cover: every length to 1100 (two
    /// 256-byte IFMA steps, a lone group and the final group, with every
    /// tail), 16 KiB, 16 KiB + 17 and 64 KiB.
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
        let kernels = kernels_that_run();
        for len in agreement_lengths() {
            let k: [u8; 32] = random_bytes(&mut x);
            let mut p = Poly1305::new(&k);
            // A non-zero starting accumulator: two scalar blocks of noise.
            let noise: [u8; 32] = random_bytes(&mut x);
            poly1305_blocks(&mut p.acc, &p.r_key, &noise, 1);
            let blocks = &buf[..len / BLOCK * BLOCK];
            let mut scalar = p.acc;
            poly1305_blocks(&mut scalar, &p.r_key, blocks, 1);
            for &kernel in &kernels {
                let mut wide = p.acc;
                let done = wide_prefix(kernel, &mut wide, &p.r_key, blocks);
                poly1305_blocks(&mut wide, &p.r_key, &blocks[done..], 1);
                assert!(wide[2] <= 4, "{kernel:?}, length {len}: {wide:?}");
                assert_eq!(reduced(wide), reduced(scalar), "{kernel:?}, length {len}");
            }
            let want = mac_with(&k, &buf[..len], None);
            for got in every_path(&k, &buf[..len], &kernels) {
                assert_eq!(got, want, "length {len}");
            }
        }
    }

    #[test]
    fn wide_path_holds_the_lazy_carry_bound_under_all_ones() {
        // The largest clamped r, s = 2¹²⁸ − 1, all-0xFF blocks and an
        // accumulator entering with every limb set and the top limb at
        // the scalar bound 4: every lane's limbs reach their bounds.
        let k = [0xFFu8; 32];
        let buf = vec![0xFFu8; 65536];
        let kernels = kernels_that_run();
        for len in agreement_lengths() {
            let blocks = &buf[..len / BLOCK * BLOCK];
            for start in [[0; 3], [u64::MAX, u64::MAX, 4]] {
                let r = Poly1305::new(&k).r_key;
                let mut scalar = start;
                poly1305_blocks(&mut scalar, &r, blocks, 1);
                for &kernel in &kernels {
                    let mut wide = start;
                    let done = wide_prefix(kernel, &mut wide, &r, blocks);
                    poly1305_blocks(&mut wide, &r, &blocks[done..], 1);
                    assert!(wide[2] <= 4, "{kernel:?}, length {len}: {wide:?}");
                    assert_eq!(reduced(wide), reduced(scalar), "{kernel:?}, length {len}");
                }
            }
            let want = mac_with(&k, &buf[..len], None);
            for got in every_path(&k, &buf[..len], &kernels) {
                assert_eq!(got, want, "length {len}");
            }
        }
    }

    #[test]
    fn wide_result_past_2_pow_128_keeps_its_top_bits() {
        // r = 1: every power is 1 and the lanes only add. One group of n
        // blocks, block 0 = 2¹²⁸ − 1 and the rest zero, sums to
        // (n + 1)·2¹²⁸ − 1 with the pad bits, which folds to
        // 2¹²⁸ + 5n/4 − 1: 2¹²⁸ + 4 for AVX2 (n = 4), 2¹²⁸ + 9 for IFMA
        // (n = 8). Its limb 1 is then exactly 2²⁶ (AVX2) or 2⁴⁴ (IFMA):
        // the only case where the conversion back to radix 2⁶⁴ carries
        // out of 128 bits.
        let r = [1, 0];
        for kernel in kernels_that_run() {
            let n = group(kernel) / BLOCK;
            let low = 5 * n as u64 / 4 - 1;
            let mut group = vec![0u8; n * BLOCK];
            group[..16].fill(0xFF);
            let mut scalar = [0; 3];
            poly1305_blocks(&mut scalar, &r, &group, 1);
            let mut wide = [0; 3];
            wide_prefix(kernel, &mut wide, &r, &group);
            assert_eq!(wide, [low, 0, 1], "{kernel:?}");
            assert_eq!(reduced(scalar), (low.into(), 1));
        }
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
        let kernels = kernels_that_run();
        for aad_len in 0..=64 {
            let k: [u8; 32] = random_bytes(&mut x);
            let mut lengths = [0u8; 16];
            lengths[..8].copy_from_slice(&(aad_len as u64).to_le_bytes());
            lengths[8..].copy_from_slice(&(body.len() as u64).to_le_bytes());
            let mut scalar = Poly1305::new(&k);
            let mut dispatched = Poly1305::new(&k);
            for part in [&aad[..aad_len], &body, &lengths] {
                update_padded_with(&mut scalar, part, None);
                dispatched.update_padded(part);
            }
            let want = scalar.finalize();
            assert_eq!(dispatched.finalize(), want, "aad length {aad_len}");
            for &kernel in &kernels {
                let mut wide = Poly1305::new(&k);
                for part in [&aad[..aad_len], &body, &lengths] {
                    update_padded_with(&mut wide, part, Some(kernel));
                }
                assert_eq!(wide.finalize(), want, "{kernel:?}, aad length {aad_len}");
            }
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
    const PYTHON_VECTORS: [(usize, &str); 22] = [
        (0, "f1fe0b1825323f4c596673808d9aa7b4"),
        (1, "dd62d88c7936ad121e0c8328b2e158ae"),
        (15, "26e4abd3e4697c59a201d97eb490836a"),
        (16, "7efe9995479315bc133a515d34d8a62c"),
        (17, "8c4c81c9be8c46d9dcb25177d7f0e8e4"),
        (63, "0d17ca5fe38a89e4df9a6770ea39b2ad"),
        (64, "9352ca6f3a993864097cb93ee6edb23e"),
        (65, "0e484ea05019f060bd6cdb0e14136cf9"),
        (127, "de1b0f3f0219e311000992e5aa6e975e"),
        (128, "fad87c0c9f58af0d1fcbb0f34bb314ae"),
        (129, "56fefec20bdc4f360a1745e7c6bdee9a"),
        (511, "9f696f1a9bc6c1649bcd17d2bf4d999b"),
        (512, "8f23026daca35368cfcd9c6016711d6e"),
        (513, "3b0f2943c7a3dc0e5f5e35f096d8bf5d"),
        (1023, "e67f55999577b5f82d78fb82825427b0"),
        (1024, "d639e8eba65447fc61788011d977ab82"),
        (1025, "9073df1d32ff8ce984ead39f9da57ad7"),
        (2047, "56016a3b5e3ef54680b9020c512ec099"),
        (2048, "4bbbfc8d6f1b874ab4b9879aa751446c"),
        (2049, "2e6db8573bc0cbdd17887ed47e27e135"),
        (16384, "25cf551977d55f0f8c3ff29e574d3691"),
        (16401, "c364146ba5e03d6a757b267e3c6e548b"),
    ];

    #[test]
    fn matches_python_cryptography_on_every_pinned_length() {
        // The dispatched, scalar and every kernel's path; the lengths
        // from 512 up reach a kernel through the dispatcher too.
        const { assert!(MIN_WIDE <= 512) };
        let k: [u8; 32] = pattern(32, 13, 0x21).try_into().unwrap();
        let kernels = kernels_that_run();
        for (len, tag) in PYTHON_VECTORS {
            let msg = pattern(len, 31, 7);
            for got in every_path(&k, &msg, &kernels) {
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
        let kernels = kernels_that_run();
        for (len, tag) in [
            (16, "fbffff17faffff17faffff17faffff17"),
            (64, "900fe32bc15fa8d7bca8efe4c7e37eb1"),
            (1031, "dc336d506a592d000ba7c6d1030ce50a"),
        ] {
            let msg = vec![0xFF; len];
            for got in every_path(&k, &msg, &kernels) {
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
