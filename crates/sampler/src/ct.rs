//! Constant-time sampling — the paper's §V future work ("we further
//! intend to extend our scheme to allow for constant-time execution").
//!
//! The Knuth-Yao walk's running time depends on the sampled value (the DDG
//! path length), which leaks information through timing side channels.
//! This module provides [`CtCdtSampler`], a constant-*operation-count*
//! CDT sampler: it always draws exactly 129 bits, always scans the whole
//! cumulative table, and replaces every branch with arithmetic masking.
//! The cost is a full-table scan per sample (55 comparisons for P1) — the
//! classic speed/leakage trade-off the paper deferred.

use crate::pmat::ProbabilityMatrix;
use crate::random::BitSource;
use crate::SignedSample;

/// A constant-operation-count inversion sampler.
///
/// Every call performs exactly the same sequence of operations regardless
/// of the sampled value: 129 bit draws, one pass over the full cumulative
/// table with branchless accumulation, and a masked sign application.
///
/// # Example
///
/// ```
/// use rlwe_sampler::ct::CtCdtSampler;
/// use rlwe_sampler::ProbabilityMatrix;
/// use rlwe_sampler::random::{BufferedBitSource, SplitMix64};
///
/// # fn main() -> Result<(), rlwe_sampler::SamplerError> {
/// let ct = CtCdtSampler::new(&ProbabilityMatrix::paper_p1()?);
/// let mut bits = BufferedBitSource::new(SplitMix64::new(1));
/// let s = ct.sample(&mut bits);
/// assert!(s.magnitude() < 55);
/// assert_eq!(ct.comparisons_per_sample(), 55);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CtCdtSampler {
    /// Cumulative probabilities, 128 fraction bits each.
    cum: Vec<u128>,
    /// The same table as sign-biased draw-order limbs for the 8-lane
    /// scan kernel ([`crate::avx2::scan8`]).
    limbs: Vec<[u32; 4]>,
}

impl CtCdtSampler {
    /// Uniform bits drawn per sample (128 for the value + 1 sign).
    pub const BITS_PER_SAMPLE: u64 = 129;

    /// Builds the table from the matrix's full-precision probabilities.
    pub fn new(pmat: &ProbabilityMatrix) -> Self {
        let mut cum = Vec::with_capacity(pmat.rows());
        let mut acc = rlwe_bigfix::UFix::zero(crate::spec::FRAC_LIMBS);
        for row in 0..pmat.rows() {
            acc = acc.add(pmat.row_probability(row));
            let mut v: u128 = 0;
            for i in 1..=128 {
                v = (v << 1) | acc.frac_bit(i) as u128;
            }
            cum.push(v);
        }
        let limbs = cum.iter().map(|&c| crate::avx2::bias_limbs(c)).collect();
        Self { cum, limbs }
    }

    /// Number of table comparisons every sample performs (the full table).
    pub fn comparisons_per_sample(&self) -> usize {
        self.cum.len()
    }

    /// Draws one sample with a fixed operation count.
    ///
    /// The magnitude is `Σ_k [u ≥ cum[k]]` computed branchlessly: each
    /// comparison contributes its result bit via masked arithmetic, never
    /// via control flow.
    pub fn sample<B: BitSource>(&self, bits: &mut B) -> SignedSample {
        self.sample_traced(bits).0
    }

    /// [`CtCdtSampler::sample`] plus an exact operation count — the hook
    /// the leakage harness's deterministic invariance tests assert on.
    pub fn sample_traced<B: BitSource>(&self, bits: &mut B) -> (SignedSample, SampleTrace) {
        let bits_before = bits.bits_drawn();
        let mut u: u128 = 0;
        for _ in 0..4 {
            u = (u << 32) | bits.take_bits(32) as u128;
        }
        // Branchless rank computation: k = number of cum entries <= u.
        let mut k: u32 = 0;
        let mut comparisons: u64 = 0;
        for &c in &self.cum {
            // (c <= u) as a 0/1 without a data-dependent branch. The
            // comparison itself compiles to flag arithmetic; no early
            // exit, no table-index-dependent memory access pattern.
            k += rlwe_zq::ct::ct_ge_u128(u, c);
            comparisons += 1;
        }
        // Sign: masked so that magnitude 0 ignores it (q - 0 = q ≡ 0
        // anyway, but SignedSample normalises through the mask).
        let sign_bit = bits.take_bit();
        let sample = self.finish(k, sign_bit);
        let trace = SampleTrace {
            bits_drawn: bits.bits_drawn() - bits_before,
            comparisons,
        };
        (sample, trace)
    }

    /// Clamp + masked sign application shared by the scalar and 8-lane
    /// paths — the single place the raw rank becomes a [`SignedSample`].
    #[inline]
    fn finish(&self, k_raw: u32, sign_bit: u32) -> SignedSample {
        let k = k_raw.min(self.cum.len() as u32 - 1);
        let nonzero_mask = (k != 0) as u32;
        SignedSample::new(k as u16, (sign_bit & nonzero_mask) == 1)
    }

    /// Eight samples through the lane-parallel table scan. Draw order is
    /// the scalar order exactly — per sample: four 32-bit words (most
    /// significant first), then the sign bit — so the consumed bit
    /// stream is identical to eight sequential [`CtCdtSampler::sample`]
    /// calls, and (because the scan consumes no bits) so is the output.
    #[inline]
    fn sample8<B: BitSource>(&self, bits: &mut B) -> [SignedSample; 8] {
        let mut u = [[0u32; 4]; 8];
        let mut signs = [0u32; 8];
        for (lane, sign) in u.iter_mut().zip(signs.iter_mut()) {
            for limb in lane.iter_mut() {
                *limb = bits.take_bits(32);
            }
            *sign = bits.take_bit();
        }
        let ks = crate::avx2::scan8(&self.limbs, &u);
        std::array::from_fn(|j| self.finish(ks[j], signs[j]))
    }

    /// Bulk sampling: fills `out` in blocks of eight through the 8-lane
    /// scan (AVX2 when the host has it, the bit-identical scalar
    /// reference otherwise), with a per-sample tail for `len % 8`.
    /// Output and bit consumption are identical to `out.len()` sequential
    /// [`CtCdtSampler::sample`] calls on the same source.
    pub fn sample_block_into<B: BitSource>(&self, bits: &mut B, out: &mut [SignedSample]) {
        let mut chunks = out.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.sample8(bits));
        }
        for s in chunks.into_remainder() {
            *s = self.sample(bits);
        }
    }

    /// [`CtCdtSampler::sample_block_into`] mapped straight to residues
    /// through a [`rlwe_zq::Reducer`]'s masked sign application — the bulk
    /// error-polynomial fill the scheme's hot paths draw through.
    pub fn sample_poly_into<R: rlwe_zq::Reducer, B: BitSource>(
        &self,
        r: &R,
        bits: &mut B,
        out: &mut [u32],
    ) {
        let mut chunks = out.chunks_exact_mut(8);
        for chunk in &mut chunks {
            let s = self.sample8(bits);
            for (o, s) in chunk.iter_mut().zip(&s) {
                *o = s.to_zq_with(r);
            }
        }
        for o in chunks.into_remainder() {
            *o = self.sample(bits).to_zq_with(r);
        }
    }
}

/// Exact per-sample operation counts from [`CtCdtSampler::sample_traced`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleTrace {
    /// Uniform bits consumed (always [`CtCdtSampler::BITS_PER_SAMPLE`]).
    pub bits_drawn: u64,
    /// Table comparisons executed (always the full table length).
    pub comparisons: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{BitSource, BufferedBitSource, SplitMix64};
    use crate::{stats, GaussianSpec};

    fn sampler() -> (CtCdtSampler, ProbabilityMatrix) {
        let pmat = ProbabilityMatrix::paper_p1().unwrap();
        (CtCdtSampler::new(&pmat), pmat)
    }

    #[test]
    fn bit_consumption_is_exactly_constant() {
        let (ct, _) = sampler();
        let mut bits = BufferedBitSource::new(SplitMix64::new(1));
        for i in 0..10_000 {
            let before = bits.bits_drawn();
            ct.sample(&mut bits);
            assert_eq!(
                bits.bits_drawn() - before,
                CtCdtSampler::BITS_PER_SAMPLE,
                "sample {i} consumed a different number of bits"
            );
        }
    }

    #[test]
    fn distribution_matches_the_matrix() {
        let (ct, pmat) = sampler();
        let mut bits = BufferedBitSource::new(SplitMix64::new(0xC7));
        let n = 300_000;
        let samples: Vec<i32> = (0..n)
            .map(|_| ct.sample(&mut bits).signed_value())
            .collect();
        let observed = stats::observed_signed_histogram(&samples, 16);
        let (_, expected) = stats::expected_signed_histogram(&pmat, n as u64, 16);
        let chi2 = stats::chi_square(&observed, &expected);
        assert!(chi2 < 75.0, "chi2 = {chi2}");
    }

    #[test]
    fn moments_match() {
        let (ct, _) = sampler();
        let spec = GaussianSpec::p1();
        let mut bits = BufferedBitSource::new(SplitMix64::new(3));
        let n = 100_000;
        let (mut s, mut s2) = (0f64, 0f64);
        for _ in 0..n {
            let v = ct.sample(&mut bits).signed_value() as f64;
            s += v;
            s2 += v * v;
        }
        let mean = s / n as f64;
        let var = s2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.06);
        assert!((var / (spec.sigma() * spec.sigma()) - 1.0).abs() < 0.06);
    }

    #[test]
    fn traced_sample_reports_exact_counts() {
        let (ct, _) = sampler();
        let mut bits = BufferedBitSource::new(SplitMix64::new(77));
        for _ in 0..1000 {
            let (s, trace) = ct.sample_traced(&mut bits);
            assert!(s.magnitude() < 55);
            assert_eq!(trace.bits_drawn, CtCdtSampler::BITS_PER_SAMPLE);
            assert_eq!(trace.comparisons, ct.comparisons_per_sample() as u64);
        }
    }

    #[test]
    fn zero_never_negative() {
        let (ct, _) = sampler();
        let mut bits = BufferedBitSource::new(SplitMix64::new(5));
        for _ in 0..20_000 {
            let s = ct.sample(&mut bits);
            if s.magnitude() == 0 {
                assert!(!s.is_negative());
            }
        }
    }

    #[test]
    fn block_sampling_is_bit_identical_to_sequential() {
        // Same source state: the 8-lane block path must reproduce the
        // per-sample path exactly — values, signs, and bits consumed —
        // including the non-multiple-of-8 tail.
        let (ct, _) = sampler();
        for len in [1usize, 7, 8, 9, 64, 251] {
            let mut seq_bits = BufferedBitSource::new(SplitMix64::new(len as u64 + 11));
            let mut blk_bits = seq_bits.clone();
            let seq: Vec<SignedSample> = (0..len).map(|_| ct.sample(&mut seq_bits)).collect();
            let mut blk = vec![SignedSample::new(0, false); len];
            ct.sample_block_into(&mut blk_bits, &mut blk);
            assert_eq!(seq, blk, "len {len}");
            assert_eq!(seq_bits.bits_drawn(), blk_bits.bits_drawn(), "len {len}");
        }
    }

    #[test]
    fn poly_fill_matches_per_sample_residues() {
        let (ct, _) = sampler();
        let r = rlwe_zq::reduce::Q7681;
        let mut a = BufferedBitSource::new(SplitMix64::new(404));
        let mut b = a.clone();
        let mut bulk = vec![0u32; 100];
        ct.sample_poly_into(&r, &mut a, &mut bulk);
        let seq: Vec<u32> = (0..100).map(|_| ct.sample(&mut b).to_zq_with(&r)).collect();
        assert_eq!(bulk, seq);
    }

    #[test]
    fn agrees_with_variable_time_cdt() {
        // Same bit stream -> same output as the variable-time CDT sampler
        // (both invert the same cumulative table).
        let pmat = ProbabilityMatrix::paper_p1().unwrap();
        let ct = CtCdtSampler::new(&pmat);
        let vt = crate::cdt::CdtSampler::new(&pmat);
        let mut b1 = BufferedBitSource::new(SplitMix64::new(9));
        let mut b2 = b1.clone();
        for i in 0..20_000 {
            let a = ct.sample(&mut b1);
            let b = vt.sample(&mut b2);
            assert_eq!(a.magnitude(), b.magnitude(), "diverged at {i}");
        }
    }
}
