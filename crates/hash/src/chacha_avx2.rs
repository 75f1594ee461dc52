//! Runtime-detected 8-lane kernel for the ChaCha20 keystream, in an
//! AVX2 and an AVX-512VL flavour.
//!
//! One iteration computes eight consecutive 64-byte blocks, 512 bytes,
//! with one block per 32-bit lane: state word `i` of all eight blocks
//! lives in one `__m256i`, so the sixteen state words are sixteen
//! vectors and a quarter-round is the scalar one issued on whole
//! vectors. Lane `j` of word 12 carries block counter `counter + j`.
//! After the twenty rounds and the feed-forward, two 8×8 transposes of
//! 32-bit words (words 0–7 and 8–15) turn "word `i` of every block"
//! into "block `j`, one half", which is XORed into the data and stored.
//! The scalar block function covers whatever is left after the whole
//! 512-byte chunks.
//!
//! # Two flavours, one body
//!
//! The `body!` macro in [`kernel`] is the one kernel body; it is
//! compiled into two `#[target_feature]` functions that differ only in
//! how they rotate (DESIGN.md §14):
//!
//! - `kernel::avx2` (`avx2`) rotates by 16 and 8 with one `vpshufb`
//!   each and by 12 and 7 with a shift pair. Its two shuffle masks pass
//!   through `core::hint::black_box`: with the masks in sight, LLVM
//!   lowers the rotate-by-16 shuffle to a `vpshuflw` + `vpshufhw` pair
//!   and pushes the rotate-by-8 shuffle through the XOR that feeds it,
//!   32 shuffles per double round where 16 suffice.
//! - `kernel::avx512vl` (`avx2,avx512f,avx512vl`) does all four
//!   rotations with `vprold` on ymm registers, twelve vector operations
//!   per quarter-round instead of sixteen, and its EVEX encoding reaches
//!   ymm16–31, so the sixteen state vectors stay in registers. It uses
//!   no zmm register.
//!
//! [`apply_wide`] takes the AVX-512VL flavour where the CPU has it, else
//! the AVX2 one. Both are the same function as
//! [`apply_keystream_scalar`](crate::chacha20::apply_keystream_scalar)
//! computed by different instructions: the tests below run each flavour
//! the host supports against it on every length from 0 to 1100 bytes
//! and on a 16 KiB + 17 B buffer, and check both flavours' machine code.
//!
//! # Constant-time argument
//!
//! The instruction trace depends only on the public buffer length:
//! vector adds, XORs, shifts, rotates and fixed shuffles, with no
//! data-dependent branch or address. Dispatch depends only on the
//! public CPU feature flags.
//!
//! # Unsafe policy
//!
//! This is the second scoped exception to `rlwe-hash`'s
//! `deny(unsafe_code)`, beside `shani::kernel`: the `kernel` module
//! below holds the two `#[target_feature]` flavours and their unaligned
//! loads and stores, all inside the 512-byte chunks of the slice they
//! are handed. They are reachable only through [`apply_flavour`], which
//! checks the flavour's [`rlwe_zq::cpu`] flags first. See DESIGN.md §14.

/// Bytes per kernel iteration: eight 64-byte blocks.
const WIDE: usize = 8 * crate::chacha20::BLOCK_LEN;

/// One compilation of the 8-lane kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Flavour {
    /// `vpshufb` for the rotations by 16 and 8, shift pairs for 12 and 7.
    Avx2,
    /// `vprold` on ymm registers for every rotation.
    Avx512Vl,
}

impl Flavour {
    /// Every flavour, in the order [`Flavour::detect`] prefers them.
    pub(crate) const ALL: [Flavour; 2] = [Flavour::Avx512Vl, Flavour::Avx2];

    /// Whether the running CPU can execute this flavour.
    pub(crate) fn supported(self) -> bool {
        match self {
            Flavour::Avx2 => rlwe_zq::cpu::avx2(),
            Flavour::Avx512Vl => rlwe_zq::cpu::avx512vl(),
        }
    }

    /// The flavour [`apply_wide`] runs on this CPU: AVX-512VL, else
    /// AVX2, else none (the scalar block function does everything).
    pub(crate) fn detect() -> Option<Flavour> {
        Flavour::ALL.into_iter().find(|f| f.supported())
    }

    /// Stable metric-label name of the flavour.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Flavour::Avx2 => "avx2",
            Flavour::Avx512Vl => "avx512vl",
        }
    }
}

/// XORs the keystream from block `counter` on into the longest prefix
/// of `data` that is a whole number of 512-byte chunks, on the fastest
/// flavour the CPU supports, and returns that prefix's length. Returns
/// 0 and leaves `data` untouched on a CPU without AVX2 or when `data` is
/// shorter than one chunk.
pub(crate) fn apply_wide(
    /* ct: secret */ key: &[u32; 8],
    counter: u32,
    nonce: &[u32; 3],
    data: &mut [u8],
) -> usize {
    // Short frames skip the feature checks.
    if data.len() < WIDE {
        return 0;
    }
    match Flavour::detect() {
        Some(flavour) => apply_flavour(flavour, key, counter, nonce, data),
        None => 0,
    }
}

/// [`apply_wide`] on the given flavour: returns 0 and leaves `data`
/// untouched when the CPU cannot run it or `data` is shorter than one
/// chunk.
// Scoped unsafe exception: see the module-level policy note.
#[allow(unsafe_code)]
pub(crate) fn apply_flavour(
    flavour: Flavour,
    /* ct: secret */ key: &[u32; 8],
    counter: u32,
    nonce: &[u32; 3],
    data: &mut [u8],
) -> usize {
    let wide = data.len() / WIDE * WIDE;
    if wide == 0 || !flavour.supported() {
        return 0;
    }
    let data = &mut data[..wide];
    // SAFETY: `supported()` just confirmed every target feature of the
    // flavour on this CPU; the kernels read and write only inside
    // `data`, a whole number of 512-byte chunks.
    unsafe {
        match flavour {
            Flavour::Avx2 => kernel::avx2(key, counter, nonce, data),
            Flavour::Avx512Vl => kernel::avx512vl(key, counter, nonce, data),
        }
    }
    wide
}

/// The `#[target_feature]` kernels — see the module-level unsafe policy
/// note.
#[allow(unsafe_code)]
mod kernel {
    use core::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_loadu_si256, _mm256_or_si256, _mm256_permute2x128_si256,
        _mm256_rol_epi32, _mm256_set1_epi32, _mm256_setr_epi32, _mm256_setr_epi8,
        _mm256_shuffle_epi8, _mm256_slli_epi32, _mm256_srli_epi32, _mm256_storeu_si256,
        _mm256_unpackhi_epi32, _mm256_unpackhi_epi64, _mm256_unpacklo_epi32, _mm256_unpacklo_epi64,
        _mm256_xor_si256,
    };
    use core::hint::black_box;

    use super::WIDE;
    use crate::chacha20::SIGMA;

    /// `x <<< $n` on every lane as a shift pair (AVX2 has no rotate).
    macro_rules! shift_rotl {
        ($v:expr, $n:literal) => {
            _mm256_or_si256(
                _mm256_slli_epi32::<$n>($v),
                _mm256_srli_epi32::<{ 32 - $n }>($v),
            )
        };
    }

    /// The AVX2 flavour's rotations: one `vpshufb` for 16 and 8, a
    /// shift pair for 12 and 7.
    #[derive(Clone, Copy)]
    struct Shuffles {
        r16: __m256i,
        r8: __m256i,
    }

    impl Shuffles {
        #[inline]
        #[target_feature(enable = "avx2")]
        fn new() -> Self {
            // `black_box` keeps the masks opaque. With them visible,
            // LLVM lowers the rotate-by-16 `vpshufb` to `vpshuflw` +
            // `vpshufhw` and pushes the rotate-by-8 one through the
            // XOR that feeds it: two shuffles per rotation, not one.
            Self {
                r16: black_box(_mm256_setr_epi8(
                    2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, //
                    2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
                )),
                r8: black_box(_mm256_setr_epi8(
                    3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, //
                    3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
                )),
            }
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        fn rotl16(self, v: __m256i) -> __m256i {
            _mm256_shuffle_epi8(v, self.r16)
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        fn rotl12(self, v: __m256i) -> __m256i {
            shift_rotl!(v, 12)
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        fn rotl8(self, v: __m256i) -> __m256i {
            _mm256_shuffle_epi8(v, self.r8)
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        fn rotl7(self, v: __m256i) -> __m256i {
            shift_rotl!(v, 7)
        }
    }

    /// The AVX-512VL flavour's rotations: `vprold` on ymm for all four.
    #[derive(Clone, Copy)]
    struct Vprold;

    impl Vprold {
        #[inline]
        #[target_feature(enable = "avx2,avx512f,avx512vl")]
        fn rotl16(self, v: __m256i) -> __m256i {
            _mm256_rol_epi32::<16>(v)
        }

        #[inline]
        #[target_feature(enable = "avx2,avx512f,avx512vl")]
        fn rotl12(self, v: __m256i) -> __m256i {
            _mm256_rol_epi32::<12>(v)
        }

        #[inline]
        #[target_feature(enable = "avx2,avx512f,avx512vl")]
        fn rotl8(self, v: __m256i) -> __m256i {
            _mm256_rol_epi32::<8>(v)
        }

        #[inline]
        #[target_feature(enable = "avx2,avx512f,avx512vl")]
        fn rotl7(self, v: __m256i) -> __m256i {
            _mm256_rol_epi32::<7>(v)
        }
    }

    /// One quarter-round on state vectors `a, b, c, d` of `$x`, rotating
    /// with `$rot`'s methods.
    macro_rules! quarter {
        ($x:ident, $rot:ident, $a:literal, $b:literal, $c:literal, $d:literal) => {
            $x[$a] = _mm256_add_epi32($x[$a], $x[$b]);
            $x[$d] = $rot.rotl16(_mm256_xor_si256($x[$d], $x[$a]));
            $x[$c] = _mm256_add_epi32($x[$c], $x[$d]);
            $x[$b] = $rot.rotl12(_mm256_xor_si256($x[$b], $x[$c]));
            $x[$a] = _mm256_add_epi32($x[$a], $x[$b]);
            $x[$d] = $rot.rotl8(_mm256_xor_si256($x[$d], $x[$a]));
            $x[$c] = _mm256_add_epi32($x[$c], $x[$d]);
            $x[$b] = $rot.rotl7(_mm256_xor_si256($x[$b], $x[$c]));
        };
    }

    /// The input state of blocks `counter .. counter + 8`, one state
    /// word per vector.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn initial_state(
        /* ct: secret */ key: &[u32; 8],
        counter: u32,
        nonce: &[u32; 3],
    ) -> [__m256i; 16] {
        let splat = |w: u32| _mm256_set1_epi32(w as i32);
        [
            splat(SIGMA[0]),
            splat(SIGMA[1]),
            splat(SIGMA[2]),
            splat(SIGMA[3]),
            splat(key[0]),
            splat(key[1]),
            splat(key[2]),
            splat(key[3]),
            splat(key[4]),
            splat(key[5]),
            splat(key[6]),
            splat(key[7]),
            _mm256_add_epi32(splat(counter), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7)),
            splat(nonce[0]),
            splat(nonce[1]),
            splat(nonce[2]),
        ]
    }

    /// Transposes the 8×8 matrix of 32-bit words in `rows` (row `i` =
    /// word `i` of blocks 0..8) into columns (column `j` = that word
    /// range of block `j`).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn transpose(rows: [__m256i; 8]) -> [__m256i; 8] {
        let [a0, a1, a2, a3, a4, a5, a6, a7] = rows;
        let t0 = _mm256_unpacklo_epi32(a0, a1);
        let t1 = _mm256_unpackhi_epi32(a0, a1);
        let t2 = _mm256_unpacklo_epi32(a2, a3);
        let t3 = _mm256_unpackhi_epi32(a2, a3);
        let t4 = _mm256_unpacklo_epi32(a4, a5);
        let t5 = _mm256_unpackhi_epi32(a4, a5);
        let t6 = _mm256_unpacklo_epi32(a6, a7);
        let t7 = _mm256_unpackhi_epi32(a6, a7);
        // u_k holds column k of rows 0–3 (low half) and of column k + 4
        // (high half); v_k the same for rows 4–7.
        let u0 = _mm256_unpacklo_epi64(t0, t2);
        let u1 = _mm256_unpackhi_epi64(t0, t2);
        let u2 = _mm256_unpacklo_epi64(t1, t3);
        let u3 = _mm256_unpackhi_epi64(t1, t3);
        let v0 = _mm256_unpacklo_epi64(t4, t6);
        let v1 = _mm256_unpackhi_epi64(t4, t6);
        let v2 = _mm256_unpacklo_epi64(t5, t7);
        let v3 = _mm256_unpackhi_epi64(t5, t7);
        [
            _mm256_permute2x128_si256::<0x20>(u0, v0),
            _mm256_permute2x128_si256::<0x20>(u1, v1),
            _mm256_permute2x128_si256::<0x20>(u2, v2),
            _mm256_permute2x128_si256::<0x20>(u3, v3),
            _mm256_permute2x128_si256::<0x31>(u0, v0),
            _mm256_permute2x128_si256::<0x31>(u1, v1),
            _mm256_permute2x128_si256::<0x31>(u2, v2),
            _mm256_permute2x128_si256::<0x31>(u3, v3),
        ]
    }

    /// The kernel body both flavours compile: XORs eight blocks of
    /// keystream per iteration into `$data`, whose length is a whole
    /// number of [`WIDE`] chunks (a shorter tail would be left
    /// untouched), rotating with `$rot`'s methods.
    macro_rules! body {
        ($rot:expr, $key:ident, $counter:ident, $nonce:ident, $data:ident) => {{
            debug_assert_eq!($data.len() % WIDE, 0);
            let rot = $rot;
            let mut input = initial_state($key, $counter, $nonce);
            let eight = _mm256_set1_epi32(8);
            for chunk in $data.as_chunks_mut::<WIDE>().0 {
                let mut x = input;
                for _ in 0..10 {
                    quarter!(x, rot, 0, 4, 8, 12);
                    quarter!(x, rot, 1, 5, 9, 13);
                    quarter!(x, rot, 2, 6, 10, 14);
                    quarter!(x, rot, 3, 7, 11, 15);
                    quarter!(x, rot, 0, 5, 10, 15);
                    quarter!(x, rot, 1, 6, 11, 12);
                    quarter!(x, rot, 2, 7, 8, 13);
                    quarter!(x, rot, 3, 4, 9, 14);
                }
                for (w, i) in x.iter_mut().zip(&input) {
                    *w = _mm256_add_epi32(*w, *i);
                }
                let lo = transpose([x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]]);
                let hi = transpose([x[8], x[9], x[10], x[11], x[12], x[13], x[14], x[15]]);
                let p = chunk.as_mut_ptr();
                for j in 0..8 {
                    // SAFETY: block `j` is bytes 64j..64j+64 of this
                    // 512-byte chunk; both 32-byte halves are in bounds.
                    unsafe {
                        let first = p.add(64 * j).cast::<__m256i>();
                        let second = p.add(64 * j + 32).cast::<__m256i>();
                        let first_out = _mm256_xor_si256(_mm256_loadu_si256(first), lo[j]);
                        let second_out = _mm256_xor_si256(_mm256_loadu_si256(second), hi[j]);
                        _mm256_storeu_si256(first, first_out);
                        _mm256_storeu_si256(second, second_out);
                    }
                }
                input[12] = _mm256_add_epi32(input[12], eight);
            }
        }};
    }

    /// The AVX2 flavour: `vpshufb` rotations by 16 and 8 through opaque
    /// masks, shift-pair rotations by 12 and 7.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2. Any `data` length is memory-safe: the
    /// loads and stores stay inside whole [`WIDE`]-byte chunks.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn avx2(
        /* ct: secret */ key: &[u32; 8],
        counter: u32,
        nonce: &[u32; 3],
        data: &mut [u8],
    ) {
        body!(Shuffles::new(), key, counter, nonce, data)
    }

    /// The AVX-512VL flavour: `vprold` on ymm for every rotation, with
    /// ymm16–31 available to the register allocator.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, AVX-512F and AVX-512VL. Any `data`
    /// length is memory-safe, as for [`avx2`].
    #[target_feature(enable = "avx2,avx512f,avx512vl")]
    pub(super) unsafe fn avx512vl(
        /* ct: secret */ key: &[u32; 8],
        counter: u32,
        nonce: &[u32; 3],
        data: &mut [u8],
    ) {
        body!(Vprold, key, counter, nonce, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chacha20::tests::{random_bytes, xorshift};
    use crate::chacha20::{apply_keystream_scalar, key_words, nonce_words, BLOCK_LEN};

    /// Every flavour this CPU runs, each seen to run (it took a whole
    /// chunk), and exactly the ones the [`rlwe_zq::cpu`] flags promise:
    /// a mis-wired `supported()` cannot drop a flavour out of the
    /// agreement test unnoticed.
    fn flavours_that_run() -> Vec<Flavour> {
        let ran: Vec<Flavour> = Flavour::ALL
            .into_iter()
            .filter(|&f| apply_flavour(f, &[0; 8], 0, &[0; 3], &mut [0u8; WIDE]) == WIDE)
            .collect();
        let promised: Vec<Flavour> = [
            (Flavour::Avx512Vl, rlwe_zq::cpu::avx512vl()),
            (Flavour::Avx2, rlwe_zq::cpu::avx2()),
        ]
        .into_iter()
        .filter_map(|(f, present)| present.then_some(f))
        .collect();
        assert_eq!(ran, promised);
        assert_eq!(Flavour::detect(), ran.first().copied());
        eprintln!("ChaCha20 flavours run on this host: {ran:?}");
        ran
    }

    #[test]
    fn every_supported_flavour_matches_the_scalar_path_on_every_length() {
        for flavour in flavours_that_run() {
            let mut seed = 0x0123_4567_89ab_cdefu64;
            for len in (0..=1100).chain([16 * 1024 + 17]) {
                let key = key_words(&random_bytes::<32>(&mut seed));
                let nonce = nonce_words(&random_bytes::<12>(&mut seed));
                // Near-wrap counters too: the lanes' counters wrap
                // exactly as the scalar loop's do.
                let counter = match len % 3 {
                    0 => xorshift(&mut seed) as u32,
                    1 => u32::MAX - (len as u32 % 11),
                    _ => 1,
                };
                let input: Vec<u8> = (0..len).map(|_| xorshift(&mut seed) as u8).collect();
                let mut fast = input.clone();
                let mut slow = input;
                let done = apply_flavour(flavour, &key, counter, &nonce, &mut fast);
                assert_eq!(done, len / WIDE * WIDE, "{flavour:?}, length {len}");
                let next = counter.wrapping_add((done / BLOCK_LEN) as u32);
                apply_keystream_scalar(&key, next, &nonce, &mut fast[done..]);
                apply_keystream_scalar(&key, counter, &nonce, &mut slow);
                assert_eq!(fast, slow, "{flavour:?}, length {len}, counter {counter}");
            }
        }
    }

    /// The disassembly of `kernel::<name>` in this test executable, one
    /// `(address, instruction)` pair per line.
    fn disassembly(name: &str) -> Vec<(u64, String)> {
        let exe = std::env::current_exe().expect("path of the test executable");
        let out = std::process::Command::new("objdump")
            .args(["-d", "-C", "--no-show-raw-insn"])
            .arg(&exe)
            .output()
            .unwrap_or_else(|e| {
                panic!("the machine-code gate needs binutils' `objdump` on PATH: {e}")
            });
        assert!(out.status.success(), "objdump -d {} failed", exe.display());
        let text = String::from_utf8_lossy(&out.stdout);
        let header = format!("chacha_avx2::kernel::{name}>:");
        let body: Vec<(u64, String)> = text
            .lines()
            .skip_while(|line| !line.ends_with(&header))
            .skip(1)
            .take_while(|line| !line.trim().is_empty())
            .filter_map(|line| {
                let (addr, insn) = line.split_once(":\t")?;
                Some((
                    u64::from_str_radix(addr.trim(), 16).ok()?,
                    insn.trim().to_string(),
                ))
            })
            .collect();
        assert!(!body.is_empty(), "no `{header}` in {}", exe.display());
        body
    }

    /// The instructions of the innermost loop (the shortest span closed
    /// by a backward jump) that contains a `marker` instruction.
    fn innermost_loop<'a>(body: &'a [(u64, String)], marker: &str) -> &'a [(u64, String)] {
        body.iter()
            .enumerate()
            .filter(|(_, (_, insn))| insn.starts_with('j'))
            .filter_map(|(end, (addr, insn))| {
                let target = insn.split_whitespace().nth(1)?;
                let target = u64::from_str_radix(target, 16).ok()?;
                let start = body.iter().position(|(a, _)| *a == target)?;
                (target < *addr).then(|| &body[start..=end])
            })
            .filter(|span| span.iter().any(|(_, insn)| insn.starts_with(marker)))
            .min_by_key(|span| span.len())
            .unwrap_or_else(|| panic!("no loop around a `{marker}`"))
    }

    fn count(insns: &[(u64, String)], mnemonic: &str) -> usize {
        insns
            .iter()
            .filter(|(_, insn)| insn.split_whitespace().next() == Some(mnemonic))
            .count()
    }

    #[test]
    fn both_flavours_rotate_with_one_instruction_and_no_zmm_register() {
        // A double round is eight quarter-rounds of four rotations; the
        // round loop runs one double round per iteration.
        let avx2 = disassembly("avx2");
        let vl = disassembly("avx512vl");
        for (name, body) in [("avx2", &avx2), ("avx512vl", &vl)] {
            let zmm: Vec<_> = body.iter().filter(|(_, i)| i.contains("%zmm")).collect();
            assert!(zmm.is_empty(), "{name} touches a zmm register: {zmm:?}");
        }
        for mnemonic in ["vpshuflw", "vpshufhw"] {
            assert_eq!(
                count(&avx2, mnemonic),
                0,
                "avx2 lowers a vpshufb to {mnemonic}"
            );
        }
        let rounds = innermost_loop(&avx2, "vpshufb");
        assert_eq!(count(rounds, "vpshufb"), 16, "avx2 round loop: {rounds:#?}");
        assert_eq!(count(rounds, "call"), 0, "avx2 round loop calls out");
        let rounds = innermost_loop(&vl, "vprold");
        assert_eq!(
            count(rounds, "vprold"),
            32,
            "avx512vl round loop: {rounds:#?}"
        );
        assert_eq!(count(rounds, "vpshufb"), 0, "avx512vl round loop shuffles");
        assert_eq!(count(rounds, "call"), 0, "avx512vl round loop calls out");
    }
}
