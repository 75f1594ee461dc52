//! Runtime-detected AVX2 NTT backend: 8×32-bit lanes over the same lazy
//! Harvey butterflies as the scalar plan.
//!
//! The single-polynomial transforms ([`NttPlan::forward_avx2`] /
//! [`NttPlan::inverse_avx2`]) are **bit-identical** to the scalar
//! reference transforms by construction: every vector operation computes
//! exactly the scalar `wrapping_*` formula of `rlwe_zq::lazy` on eight
//! lanes at once — same lazy domains, same masked corrections, same
//! canonical outputs. Stages whose butterfly span is ≥ 8 coefficients
//! broadcast one twiddle per block and stream full vectors; the three
//! tail stages (span 4/2/1) keep full vectors by shuffling the
//! in-register halves (`permute2x128` for span 4, `shuffle_epi32` for
//! spans 2 and 1) against per-lane expanded twiddle tables
//! (`Avx2Tables`, built once at plan construction).
//!
//! On hosts without AVX2 (or non-x86_64 targets) both entry points fall
//! back to the scalar reference transforms, so outputs never depend on
//! the host CPU.
//!
//! # Unsafe policy
//!
//! `rlwe-ntt` carries a scoped exception to the workspace-wide
//! `unsafe_code = "forbid"` (crate level `deny`, mirroring
//! `rlwe-engine`'s counting-allocator precedent): the only `unsafe` in
//! the crate is the `kernel` module below — `#[target_feature(enable =
//! "avx2")]` functions plus raw-pointer vector loads/stores — and it is
//! reachable only through safe wrappers that verified
//! [`rlwe_zq::cpu::avx2`] at plan-construction time and the
//! slice lengths at the call site. See DESIGN.md §11.

use rlwe_zq::shoup::ShoupPair;
use rlwe_zq::Reducer;

use crate::plan::NttPlan;

/// One expanded per-lane twiddle table: `val[i]`/`comp[i]` hold the
/// Shoup pair the butterfly touching coefficient `i` needs, so an
/// in-register tail stage loads its eight twiddles with one vector load
/// instead of a gather.
#[derive(Debug, Clone)]
pub(crate) struct Lanes {
    val: Vec<u32>,
    comp: Vec<u32>,
}

impl Lanes {
    /// Expands the `blocks`-wide twiddle window starting at index
    /// `blocks` (the stage's `[m..2m)` slice), repeating each pair over
    /// its `rep = n / blocks` block coefficients.
    fn expand(pairs: &[ShoupPair], blocks: usize, rep: usize) -> Self {
        let mut val = Vec::with_capacity(blocks * rep);
        let mut comp = Vec::with_capacity(blocks * rep);
        for pair in pairs.iter().skip(blocks).take(blocks) {
            for _ in 0..rep {
                val.push(pair.value);
                comp.push(pair.companion);
            }
        }
        Self { val, comp }
    }
}

/// Per-plan expanded twiddle tables for the in-register tail stages of
/// the single-polynomial AVX2 transforms. Present on a plan only when
/// the host reported AVX2 at construction time and `n ≥ 16` (smaller
/// rings fall back to the scalar kernels; they are far below the vector
/// break-even point anyway).
#[derive(Debug, Clone)]
pub(crate) struct Avx2Tables {
    /// Forward tail stages: butterfly spans 4, 2 and 1.
    fwd_t4: Lanes,
    fwd_t2: Lanes,
    fwd_t1: Lanes,
    /// Inverse head stages: butterfly spans 1, 2 and 4.
    inv_t1: Lanes,
    inv_t2: Lanes,
    inv_t4: Lanes,
}

impl Avx2Tables {
    /// Builds the expanded tables, or `None` when the AVX2 kernels are
    /// unusable for this plan (host without AVX2, or `n < 16`).
    pub(crate) fn build(
        n: usize,
        psi_bitrev: &[ShoupPair],
        ipsi_bitrev: &[ShoupPair],
    ) -> Option<Self> {
        if n < 16 || !rlwe_zq::cpu::avx2() {
            return None;
        }
        Some(Self {
            fwd_t4: Lanes::expand(psi_bitrev, n / 8, 8),
            fwd_t2: Lanes::expand(psi_bitrev, n / 4, 4),
            fwd_t1: Lanes::expand(psi_bitrev, n / 2, 2),
            inv_t1: Lanes::expand(ipsi_bitrev, n / 2, 2),
            inv_t2: Lanes::expand(ipsi_bitrev, n / 4, 4),
            inv_t4: Lanes::expand(ipsi_bitrev, n / 8, 8),
        })
    }
}

/// The `#[target_feature(enable = "avx2")]` kernels — the crate's only
/// `unsafe` code, see the module-level unsafe policy note.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod kernel {
    use super::{Avx2Tables, Lanes};
    use core::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_and_si256, _mm256_blend_epi32, _mm256_loadu_si256,
        _mm256_mul_epu32, _mm256_mullo_epi32, _mm256_permute2x128_si256, _mm256_set1_epi32,
        _mm256_shuffle_epi32, _mm256_srai_epi32, _mm256_srli_epi64, _mm256_storeu_si256,
        _mm256_sub_epi32,
    };
    use rlwe_zq::shoup::ShoupPair;

    /// Unsigned high-half of the lane-wise 32×32 product — the vector
    /// form of `((a as u64 * b as u64) >> 32) as u32`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mulhi_u32(a: __m256i, b: __m256i) -> __m256i {
        let even = _mm256_srli_epi64::<32>(_mm256_mul_epu32(a, b));
        let odd = _mm256_mul_epu32(_mm256_srli_epi64::<32>(a), _mm256_srli_epi64::<32>(b));
        _mm256_blend_epi32::<0b1010_1010>(even, odd)
    }

    /// Lane-wise `rlwe_zq::lazy::mul_shoup_lazy`: any `u32` input, output
    /// in `[0, 2q)` — identical wrapping-arithmetic formula.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mul_lazy_vec(a: __m256i, w: __m256i, w_shoup: __m256i, q: __m256i) -> __m256i {
        let t = mulhi_u32(a, w_shoup);
        _mm256_sub_epi32(_mm256_mullo_epi32(a, w), _mm256_mullo_epi32(t, q))
    }

    /// Lane-wise `rlwe_zq::lazy::reduce_once`: the masked conditional
    /// subtraction, valid for any modulus below 2³¹.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn reduce_once_vec(x: __m256i, m: __m256i) -> __m256i {
        let d = _mm256_sub_epi32(x, m);
        _mm256_add_epi32(d, _mm256_and_si256(_mm256_srai_epi32::<31>(d), m))
    }

    /// Forward Cooley-Tukey stages with butterfly span ≥ 8 `u32`s: one
    /// broadcast twiddle per block, full-vector lo/hi streaming. Twiddles
    /// are consumed sequentially from `twiddles[1..]` — exactly the
    /// per-stage `[m..2m)` windows, which are contiguous across stages.
    ///
    /// # Safety
    ///
    /// AVX2 must be available. `a.len()` must be a power of two and
    /// `twiddles` must hold at least one pair per processed block.
    #[target_feature(enable = "avx2")]
    unsafe fn fwd_wide_stages(a: &mut [u32], twiddles: &[ShoupPair], qv: __m256i, two_qv: __m256i) {
        let mut tw = twiddles.iter().skip(1);
        let mut s = a.len() >> 1;
        while s >= 8 {
            for (block, w) in a.chunks_exact_mut(2 * s).zip(&mut tw) {
                let (lo, hi) = block.split_at_mut(s);
                let lp = lo.as_mut_ptr();
                let hp = hi.as_mut_ptr();
                let wv = _mm256_set1_epi32(w.value as i32);
                let wsv = _mm256_set1_epi32(w.companion as i32);
                let mut j = 0usize;
                while j + 8 <= s {
                    let x = _mm256_loadu_si256(lp.add(j).cast());
                    let y = _mm256_loadu_si256(hp.add(j).cast());
                    let u = reduce_once_vec(x, two_qv);
                    let v = mul_lazy_vec(y, wv, wsv, qv);
                    _mm256_storeu_si256(lp.add(j).cast(), _mm256_add_epi32(u, v));
                    _mm256_storeu_si256(
                        hp.add(j).cast(),
                        _mm256_sub_epi32(_mm256_add_epi32(u, two_qv), v),
                    );
                    j += 8;
                }
            }
            s >>= 1;
        }
    }

    /// Inverse Gentleman-Sande stages with butterfly span ≥ 8 `u32`s,
    /// from span `8` upward until only the merged final stage remains.
    ///
    /// # Safety
    ///
    /// AVX2 must be available. `a.len()` must be a power of two and
    /// `itwiddles` must cover each stage's `[blocks..2·blocks)` window.
    #[target_feature(enable = "avx2")]
    unsafe fn inv_wide_stages(
        a: &mut [u32],
        itwiddles: &[ShoupPair],
        qv: __m256i,
        two_qv: __m256i,
    ) {
        let mut s = 8usize;
        loop {
            let blocks = a.len() / (2 * s);
            if blocks < 2 {
                return;
            }
            let window = itwiddles.iter().skip(blocks).take(blocks);
            for (block, w) in a.chunks_exact_mut(2 * s).zip(window) {
                let (lo, hi) = block.split_at_mut(s);
                let lp = lo.as_mut_ptr();
                let hp = hi.as_mut_ptr();
                let wv = _mm256_set1_epi32(w.value as i32);
                let wsv = _mm256_set1_epi32(w.companion as i32);
                let mut j = 0usize;
                while j + 8 <= s {
                    let u = _mm256_loadu_si256(lp.add(j).cast());
                    let v = _mm256_loadu_si256(hp.add(j).cast());
                    _mm256_storeu_si256(
                        lp.add(j).cast(),
                        reduce_once_vec(_mm256_add_epi32(u, v), two_qv),
                    );
                    _mm256_storeu_si256(
                        hp.add(j).cast(),
                        mul_lazy_vec(
                            _mm256_sub_epi32(_mm256_add_epi32(u, two_qv), v),
                            wv,
                            wsv,
                            qv,
                        ),
                    );
                    j += 8;
                }
            }
            s <<= 1;
        }
    }

    /// The inverse transform's merged final stage (span `len/2`): the
    /// `n⁻¹` scaling folded into both butterfly legs, outputs canonical.
    ///
    /// # Safety
    ///
    /// AVX2 must be available; `a.len()` must be a multiple of 16.
    #[target_feature(enable = "avx2")]
    unsafe fn inv_merged_final(
        a: &mut [u32],
        n_inv: ShoupPair,
        merged: ShoupPair,
        qv: __m256i,
        two_qv: __m256i,
    ) {
        let half = a.len() / 2;
        let (lo, hi) = a.split_at_mut(half);
        let lp = lo.as_mut_ptr();
        let hp = hi.as_mut_ptr();
        let niv = _mm256_set1_epi32(n_inv.value as i32);
        let nic = _mm256_set1_epi32(n_inv.companion as i32);
        let mv = _mm256_set1_epi32(merged.value as i32);
        let mc = _mm256_set1_epi32(merged.companion as i32);
        let mut j = 0usize;
        while j + 8 <= half {
            let u = _mm256_loadu_si256(lp.add(j).cast());
            let v = _mm256_loadu_si256(hp.add(j).cast());
            let x = mul_lazy_vec(_mm256_add_epi32(u, v), niv, nic, qv);
            _mm256_storeu_si256(lp.add(j).cast(), reduce_once_vec(x, qv));
            let y = mul_lazy_vec(_mm256_sub_epi32(_mm256_add_epi32(u, two_qv), v), mv, mc, qv);
            _mm256_storeu_si256(hp.add(j).cast(), reduce_once_vec(y, qv));
            j += 8;
        }
    }

    /// Final masked normalization sweep: `[0, 4q) → [0, q)`, the vector
    /// form of `normalize4` (two chained masked corrections).
    ///
    /// # Safety
    ///
    /// AVX2 must be available; `a.len()` must be a multiple of 8.
    #[target_feature(enable = "avx2")]
    unsafe fn normalize_sweep(a: &mut [u32], qv: __m256i, two_qv: __m256i) {
        let p = a.as_mut_ptr();
        let len = a.len();
        let mut j = 0usize;
        while j + 8 <= len {
            let x = _mm256_loadu_si256(p.add(j).cast());
            let r = reduce_once_vec(reduce_once_vec(x, two_qv), qv);
            _mm256_storeu_si256(p.add(j).cast(), r);
            j += 8;
        }
    }

    /// Generates an in-register forward tail stage: the `$swap`
    /// half-exchange pairs each butterfly's legs inside one vector, the
    /// expanded per-lane tables supply the twiddles, and `$blend` picks
    /// the add leg for the low positions and the subtract leg for the
    /// high positions.
    macro_rules! fwd_inreg_stage {
        ($name:ident, $swap:expr, $blend:literal) => {
            /// # Safety
            ///
            /// AVX2 must be available; `a`, `lanes.val` and `lanes.comp`
            /// must all have the same length, a multiple of 8.
            #[target_feature(enable = "avx2")]
            unsafe fn $name(a: &mut [u32], lanes: &Lanes, qv: __m256i, two_qv: __m256i) {
                let p = a.as_mut_ptr();
                let vp = lanes.val.as_ptr();
                let cp = lanes.comp.as_ptr();
                let len = a.len();
                let mut j = 0usize;
                while j + 8 <= len {
                    let x = _mm256_loadu_si256(p.add(j).cast());
                    let wv = _mm256_loadu_si256(vp.add(j).cast());
                    let wsv = _mm256_loadu_si256(cp.add(j).cast());
                    let r = reduce_once_vec(x, two_qv);
                    let mlz = mul_lazy_vec(x, wv, wsv, qv);
                    let lo = _mm256_add_epi32(r, $swap(mlz));
                    let hi = _mm256_sub_epi32(_mm256_add_epi32($swap(r), two_qv), mlz);
                    _mm256_storeu_si256(p.add(j).cast(), _mm256_blend_epi32::<$blend>(lo, hi));
                    j += 8;
                }
            }
        };
    }

    /// Generates an in-register inverse head stage (same layout story as
    /// [`fwd_inreg_stage`], Gentleman-Sande butterfly).
    macro_rules! inv_inreg_stage {
        ($name:ident, $swap:expr, $blend:literal) => {
            /// # Safety
            ///
            /// AVX2 must be available; `a`, `lanes.val` and `lanes.comp`
            /// must all have the same length, a multiple of 8.
            #[target_feature(enable = "avx2")]
            unsafe fn $name(a: &mut [u32], lanes: &Lanes, qv: __m256i, two_qv: __m256i) {
                let p = a.as_mut_ptr();
                let vp = lanes.val.as_ptr();
                let cp = lanes.comp.as_ptr();
                let len = a.len();
                let mut j = 0usize;
                while j + 8 <= len {
                    let x = _mm256_loadu_si256(p.add(j).cast());
                    let wv = _mm256_loadu_si256(vp.add(j).cast());
                    let wsv = _mm256_loadu_si256(cp.add(j).cast());
                    let sw = $swap(x);
                    let sum = reduce_once_vec(_mm256_add_epi32(x, sw), two_qv);
                    let diff = mul_lazy_vec(
                        _mm256_sub_epi32(_mm256_add_epi32(sw, two_qv), x),
                        wv,
                        wsv,
                        qv,
                    );
                    _mm256_storeu_si256(p.add(j).cast(), _mm256_blend_epi32::<$blend>(sum, diff));
                    j += 8;
                }
            }
        };
    }

    /// Exchanges the two 128-bit halves (span-4 butterflies).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn swap4(v: __m256i) -> __m256i {
        _mm256_permute2x128_si256::<0x01>(v, v)
    }

    /// Exchanges adjacent lane pairs (span-2 butterflies).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn swap2(v: __m256i) -> __m256i {
        _mm256_shuffle_epi32::<0x4E>(v)
    }

    /// Exchanges adjacent lanes (span-1 butterflies).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn swap1(v: __m256i) -> __m256i {
        _mm256_shuffle_epi32::<0xB1>(v)
    }

    fwd_inreg_stage!(fwd_stage_t4, swap4, 0b1111_0000);
    fwd_inreg_stage!(fwd_stage_t2, swap2, 0b1100_1100);
    fwd_inreg_stage!(fwd_stage_t1, swap1, 0b1010_1010);
    inv_inreg_stage!(inv_stage_t1, swap1, 0b1010_1010);
    inv_inreg_stage!(inv_stage_t2, swap2, 0b1100_1100);
    inv_inreg_stage!(inv_stage_t4, swap4, 0b1111_0000);

    /// Full single-polynomial forward NTT (normalized output).
    ///
    /// # Safety
    ///
    /// AVX2 must be available (the caller checked detection when it built
    /// `tbl`); `a.len()` must equal the plan dimension `n ≥ 16` that
    /// `twiddles` and `tbl` were built for.
    #[target_feature(enable = "avx2")]
    pub unsafe fn forward(
        a: &mut [u32],
        twiddles: &[ShoupPair],
        tbl: &Avx2Tables,
        q: u32,
        two_q: u32,
    ) {
        let qv = _mm256_set1_epi32(q as i32);
        let two_qv = _mm256_set1_epi32(two_q as i32);
        fwd_wide_stages(a, twiddles, qv, two_qv);
        fwd_stage_t4(a, &tbl.fwd_t4, qv, two_qv);
        fwd_stage_t2(a, &tbl.fwd_t2, qv, two_qv);
        fwd_stage_t1(a, &tbl.fwd_t1, qv, two_qv);
        normalize_sweep(a, qv, two_qv);
    }

    /// Full single-polynomial inverse NTT (scaling folded, canonical
    /// output).
    ///
    /// # Safety
    ///
    /// Same contract as [`forward`], with `itwiddles` the inverse table.
    #[target_feature(enable = "avx2")]
    pub unsafe fn inverse(
        a: &mut [u32],
        itwiddles: &[ShoupPair],
        tbl: &Avx2Tables,
        n_inv: ShoupPair,
        merged: ShoupPair,
        q: u32,
        two_q: u32,
    ) {
        let qv = _mm256_set1_epi32(q as i32);
        let two_qv = _mm256_set1_epi32(two_q as i32);
        inv_stage_t1(a, &tbl.inv_t1, qv, two_qv);
        inv_stage_t2(a, &tbl.inv_t2, qv, two_qv);
        inv_stage_t4(a, &tbl.inv_t4, qv, two_qv);
        inv_wide_stages(a, itwiddles, qv, two_qv);
        inv_merged_final(a, n_inv, merged, qv, two_qv);
    }
}

impl<R: Reducer> NttPlan<R> {
    /// Whether this plan carries live AVX2 kernels: the host reported
    /// AVX2 at construction time and `n ≥ 16`. When `false`,
    /// [`NttPlan::forward_avx2`] / [`NttPlan::inverse_avx2`] silently
    /// run the scalar reference transforms (bit-identical outputs either
    /// way).
    #[inline]
    pub fn has_avx2(&self) -> bool {
        self.avx2_tables().is_some()
    }

    /// In-place forward NTT through the AVX2 kernels when available,
    /// the scalar reference transform otherwise — bit-identical outputs
    /// on every host.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    // Scoped unsafe exception: the single detection-gated kernel
    // call below (see the SAFETY comment at the call site).
    #[allow(unsafe_code)]
    pub fn forward_avx2(&self, a: &mut [u32]) {
        #[cfg(target_arch = "x86_64")]
        if let Some(tbl) = self.avx2_tables() {
            assert_eq!(a.len(), self.n(), "polynomial length must equal n");
            // SAFETY: `tbl` exists only when `rlwe_zq::cpu::avx2()`
            // confirmed AVX2 at plan construction on this host, and the
            // assert above pins `a.len()` to the `n` the tables were
            // built for.
            unsafe { kernel::forward(a, self.forward_twiddles(), tbl, self.q(), self.two_q()) }
            return;
        }
        self.forward(a);
    }

    /// In-place inverse NTT through the AVX2 kernels when available,
    /// the scalar reference transform otherwise — bit-identical outputs
    /// on every host.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    // Scoped unsafe exception: the single detection-gated kernel
    // call below (see the SAFETY comment at the call site).
    #[allow(unsafe_code)]
    pub fn inverse_avx2(&self, a: &mut [u32]) {
        #[cfg(target_arch = "x86_64")]
        if let Some(tbl) = self.avx2_tables() {
            assert_eq!(a.len(), self.n(), "polynomial length must equal n");
            // SAFETY: as in `forward_avx2` — detection-gated tables plus
            // the length assert satisfy the kernel's contract.
            unsafe {
                kernel::inverse(
                    a,
                    self.inverse_twiddles(),
                    tbl,
                    self.n_inv_pair(),
                    self.merged_inverse_twiddle(),
                    self.q(),
                    self.two_q(),
                )
            }
            return;
        }
        self.inverse(a);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlwe_zq::reduce::{Q12289, Q7681};

    fn rings() -> Vec<(usize, u32)> {
        vec![
            (16, 12289),
            (64, 7681),
            (256, 7681),
            (512, 12289),
            (1024, 12289),
        ]
    }

    fn sample_poly(n: usize, q: u32, seed: u32) -> Vec<u32> {
        (0..n as u32).map(|i| (i * seed + 3) % q).collect()
    }

    #[test]
    fn avx2_forward_and_inverse_match_the_scalar_reference() {
        if !rlwe_zq::cpu::avx2() {
            eprintln!("note: AVX2 unavailable on this host; fallback paths exercised instead");
        }
        for (n, q) in rings() {
            let plan = NttPlan::new(n, q).unwrap();
            for seed in [1u32, 31, 97] {
                let a = sample_poly(n, q, seed);
                let mut va = a.clone();
                plan.forward_avx2(&mut va);
                assert_eq!(va, plan.forward_copy(&a), "forward diverged n={n} q={q}");
                let mut ia = a.clone();
                plan.inverse_avx2(&mut ia);
                assert_eq!(ia, plan.inverse_copy(&a), "inverse diverged n={n} q={q}");
            }
            // All-(q−1): every lazy bound at its edge.
            let worst = vec![q - 1; n];
            let mut vw = worst.clone();
            plan.forward_avx2(&mut vw);
            assert_eq!(vw, plan.forward_copy(&worst), "worst-case forward n={n}");
            let mut iw = worst.clone();
            plan.inverse_avx2(&mut iw);
            assert_eq!(iw, plan.inverse_copy(&worst), "worst-case inverse n={n}");
        }
    }

    fn check_specialized_matches_generic<R: Reducer>(s: &NttPlan<R>, g: &NttPlan, a: &[u32]) {
        let mut x = a.to_vec();
        s.forward_avx2(&mut x);
        assert_eq!(x, g.forward_copy(a));
        let mut y = a.to_vec();
        s.inverse_avx2(&mut y);
        assert_eq!(y, g.inverse_copy(a));
    }

    #[test]
    fn specialized_reducer_plans_agree_with_generic_on_the_avx2_path() {
        let s1 = NttPlan::with_reducer(256, Q7681).unwrap();
        let g1 = NttPlan::new(256, 7681).unwrap();
        check_specialized_matches_generic(&s1, &g1, &sample_poly(256, 7681, 13));
        let s2 = NttPlan::with_reducer(512, Q12289).unwrap();
        let g2 = NttPlan::new(512, 12289).unwrap();
        check_specialized_matches_generic(&s2, &g2, &sample_poly(512, 12289, 13));
    }

    #[test]
    fn has_avx2_reflects_host_and_dimension_gates() {
        let small = NttPlan::new(8, 12289).unwrap();
        assert!(!small.has_avx2(), "n < 16 must not carry AVX2 tables");
        let big = NttPlan::new(256, 7681).unwrap();
        assert_eq!(big.has_avx2(), rlwe_zq::cpu::avx2());
    }
}
