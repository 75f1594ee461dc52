//! Leakage-regression harness for the constant-time decapsulation path.
//!
//! The paper's §V defers constant-time execution to future work; this
//! crate is where the workspace *proves* it caught up, two ways:
//!
//! 1. **Deterministic operation-count invariance** (`tests/invariance.rs`,
//!    runs in CI): the constant-time CDT sampler must draw exactly 129
//!    bits and execute exactly one full-table scan per sample
//!    ([`rlwe_sampler::ct::CtCdtSampler::sample_traced`]), and
//!    `decapsulate_cca` must perform an identical sequence of hash calls
//!    whether the ciphertext is accepted or implicitly rejected
//!    ([`rlwe_hash::probe`]). These checks are exact — a regression fails
//!    the test suite, not a statistics dashboard.
//! 2. **A dudect-style Welch's t-test** (`benches/leakage.rs`, wall-clock,
//!    *not* a CI gate): decapsulation timings are collected for two
//!    randomly interleaved input classes and compared with [`TTest`]; |t|
//!    beyond [`T_THRESHOLD`] over a large sample means the classes are
//!    timing-distinguishable. Two [`Contrast`]s are measured: the classic
//!    fixed-vs-random design (sensitive to *any* input dependence,
//!    including cache effects of the public ciphertext — expect it to
//!    flag on commodity CPUs) and accept-vs-reject over fresh
//!    ciphertexts in both classes, which isolates the secret decision
//!    the branch-free rewrite removed.
//!
//! The split matters: wall-clock measurements are noisy and
//! machine-dependent, so they stay out of CI; the operation-count checks
//! are the deterministic shadow of the same property and gate every
//! change.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rlwe_core::drbg::HashDrbg;
use rlwe_core::{Ciphertext, ParamSet, PolyScratch, PublicKey, RlweContext, RlweError, SecretKey};
use rlwe_sampler::random::{SplitMix64, WordSource};
use std::time::Instant;

/// The dudect decision threshold: |t| above this over a large measurement
/// set indicates a timing distinguisher between the input classes.
pub const T_THRESHOLD: f64 = 4.5;

/// Welford-style online accumulator for one measurement class.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassStats {
    n: f64,
    mean: f64,
    m2: f64,
}

impl ClassStats {
    /// Adds one measurement.
    pub fn push(&mut self, x: f64) {
        self.n += 1.0;
        let delta = x - self.mean;
        self.mean += delta / self.n;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of measurements seen.
    pub fn count(&self) -> u64 {
        self.n as u64
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 until two measurements arrive).
    pub fn variance(&self) -> f64 {
        if self.n < 2.0 {
            0.0
        } else {
            self.m2 / (self.n - 1.0)
        }
    }
}

/// A two-class Welch's t-test over interleaved timing measurements.
///
/// # Example
///
/// ```
/// use rlwe_leakage::TTest;
///
/// let mut t = TTest::new();
/// for i in 0..1000 {
///     t.push(0, 100.0 + (i % 7) as f64);
///     t.push(1, 100.0 + ((i + 3) % 7) as f64);
/// }
/// assert!(t.t_statistic().abs() < 4.5, "same distribution, no leak");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct TTest {
    classes: [ClassStats; 2],
}

impl TTest {
    /// An empty test.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a measurement for `class` (0 or 1).
    ///
    /// # Panics
    ///
    /// Panics on a class index other than 0 or 1.
    pub fn push(&mut self, class: usize, x: f64) {
        self.classes[class].push(x);
    }

    /// Per-class statistics.
    pub fn class(&self, class: usize) -> &ClassStats {
        &self.classes[class]
    }

    /// Welch's t statistic between the two classes (0 until both classes
    /// have at least two measurements).
    ///
    /// Degenerate zero-variance classes (a quantized timer can produce
    /// them) are handled by the sign of the mean difference: identical
    /// constant classes give 0, *different* constant classes give a
    /// signed infinity — the strongest possible distinguisher, not a
    /// false "no leak".
    pub fn t_statistic(&self) -> f64 {
        let [a, b] = &self.classes;
        if a.n < 2.0 || b.n < 2.0 {
            return 0.0;
        }
        let diff = a.mean() - b.mean();
        let se2 = a.variance() / a.n + b.variance() / b.n;
        if se2 <= 0.0 {
            return if diff == 0.0 {
                0.0
            } else {
                f64::INFINITY.copysign(diff)
            };
        }
        diff / se2.sqrt()
    }

    /// Whether the statistic crosses the dudect threshold.
    pub fn leaks(&self) -> bool {
        self.t_statistic().abs() > T_THRESHOLD
    }
}

/// The outcome of one fixed-vs-random measurement run.
#[derive(Debug, Clone, Copy)]
pub struct TTestReport {
    /// Welch's t statistic (class-0 mean minus class-1 mean).
    pub t: f64,
    /// Measurements in class 0 (accepting ciphertexts).
    pub accept_count: u64,
    /// Measurements in class 1 (rejecting ciphertexts).
    pub reject_count: u64,
    /// Mean decapsulation time per class, in nanoseconds.
    pub means_ns: [f64; 2],
}

impl TTestReport {
    /// Whether |t| crosses [`T_THRESHOLD`].
    pub fn leaks(&self) -> bool {
        self.t.abs() > T_THRESHOLD
    }
}

impl std::fmt::Display for TTestReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "|t| = {:.2} ({} accept / {} reject, means {:.0} ns vs {:.0} ns) -> {}",
            self.t.abs(),
            self.accept_count,
            self.reject_count,
            self.means_ns[0],
            self.means_ns[1],
            if self.leaks() {
                "DISTINGUISHABLE"
            } else {
                "indistinguishable"
            }
        )
    }
}

/// The first single-bit maul of `ct` whose wire form still parses — the
/// canonical way the harness (and its tests) produce a ciphertext that
/// takes the implicit-rejection path. Flips one bit at a time from wire
/// offset 2 (past magic + param id, which structural checks would catch
/// before the interesting path) and returns the first candidate that
/// survives the coefficient-range check on parse; a maul can only
/// collide with a valid re-encryption with negligible probability.
///
/// Returns `None` only if no single-bit flip parses (cannot happen for
/// the named parameter sets' packed encodings).
pub fn first_parsing_maul(ct: &Ciphertext) -> Option<Ciphertext> {
    let wire = ct.to_bytes().ok()?;
    (2..wire.len()).find_map(|i| {
        let mut w = wire.clone();
        w[i] ^= 1;
        Ciphertext::from_bytes(&w).ok()
    })
}

/// Which two decapsulation input classes a run contrasts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Contrast {
    /// Classic dudect: one fixed accepting ciphertext vs. fresh rejecting
    /// ones. Maximally sensitive — it flags *any* input-data dependence,
    /// including cache and branch-predictor effects of the (public)
    /// ciphertext bytes themselves, which general-purpose CPUs exhibit
    /// even for code with a fixed operation count. Expect this to be
    /// DISTINGUISHABLE on commodity hardware for every rung.
    FixedVsRandom,
    /// Fresh accepting vs. fresh rejecting ciphertexts: both classes vary
    /// the public input identically, so the statistic isolates the one
    /// thing that differs — the *secret* accept/reject decision inside
    /// `decapsulate_cca`. This is the contrast the branch-free rewrite
    /// must keep indistinguishable.
    AcceptVsReject,
}

/// The dudect-style fixture: two classes of ciphertexts straddling the
/// secret decision inside `decapsulate_cca` (see [`Contrast`] for the two
/// class designs), decapsulated in random interleaving under a wall
/// clock.
pub struct DecapClasses {
    ctx: RlweContext,
    pk: PublicKey,
    sk: SecretKey,
    /// Class-0 ciphertexts: all verified *accepting* (length 1 for
    /// [`Contrast::FixedVsRandom`]).
    accept_pool: Vec<Ciphertext>,
    /// Class-1 ciphertexts: all mauled, implicitly *rejecting*.
    reject_pool: Vec<Ciphertext>,
    scratch: PolyScratch,
    selector: SplitMix64,
}

impl DecapClasses {
    /// How many pre-generated ciphertexts a varied class cycles through
    /// (generation stays outside the timed region).
    pub const RANDOM_POOL: usize = 64;

    /// Builds the fixture: deterministic keypair from `seed`, class-0
    /// ciphertexts verified to take the accept path, and a pool of mauled
    /// ciphertexts that take the implicit-rejection path.
    ///
    /// # Errors
    ///
    /// Propagates scheme errors (cannot happen for named parameter sets).
    pub fn new(ctx: RlweContext, seed: [u8; 32], contrast: Contrast) -> Result<Self, RlweError> {
        let mut rng = HashDrbg::new(seed);
        // ct-allow(harness setup; encap errors are structural, not secret-dependent)
        let (pk, sk) = ctx.generate_keypair(&mut rng)?;
        let accept_target = match contrast {
            Contrast::FixedVsRandom => 1,
            Contrast::AcceptVsReject => Self::RANDOM_POOL,
        };
        // The scheme fails to decrypt with ~1% probability; retry until
        // every class-0 ciphertext provably round-trips (accept path).
        let mut accept_pool = Vec::with_capacity(accept_target);
        while accept_pool.len() < accept_target {
            // ct-allow(leakage harness deliberately classifies decap outcomes to measure them)
            let (ct, k1) = ctx.encapsulate_cca(&pk, &mut rng)?;
            // ct-allow(leakage harness deliberately classifies decap outcomes to measure them)
            let k2 = ctx.decapsulate_cca(&sk, &pk, &ct)?;
            // ct-allow(leakage harness deliberately classifies decap outcomes to measure them)
            if k1 == k2 {
                accept_pool.push(ct);
            }
        }
        let mut reject_pool = Vec::with_capacity(Self::RANDOM_POOL);
        while reject_pool.len() < Self::RANDOM_POOL {
            // ct-allow(leakage harness deliberately classifies decap outcomes to measure them)
            let (ct, _) = ctx.encapsulate_cca(&pk, &mut rng)?;
            // ct-allow(leakage harness deliberately classifies decap outcomes to measure them)
            if let Some(mauled) = first_parsing_maul(&ct) {
                reject_pool.push(mauled);
            }
        }
        let scratch = ctx.new_scratch();
        Ok(Self {
            ctx,
            pk,
            sk,
            accept_pool,
            reject_pool,
            scratch,
            selector: SplitMix64::new(u64::from_le_bytes(
                seed[..8].try_into().expect("8 seed bytes"),
            )),
        })
    }

    /// Convenience constructor from a parameter set with the default
    /// (variable-time) sampler rung.
    ///
    /// # Errors
    ///
    /// See [`DecapClasses::new`].
    pub fn for_set(set: ParamSet, seed: [u8; 32], contrast: Contrast) -> Result<Self, RlweError> {
        Self::new(RlweContext::new(set)?, seed, contrast)
    }

    /// The context under test.
    pub fn context(&self) -> &RlweContext {
        &self.ctx
    }

    /// Runs `iterations` randomly interleaved decapsulations — plus an
    /// unmeasured warm-up of `iterations/16` passes, each decapsulating
    /// once per class (so `iterations/8` warm-up decapsulations total) —
    /// and reports the t statistic.
    pub fn measure(&mut self, iterations: usize) -> TTestReport {
        for _ in 0..(iterations / 16).max(8) {
            self.decap_once(0);
            self.decap_once(1);
        }
        let mut ttest = TTest::new();
        let mut pending = 0u32;
        let mut pending_bits = 0;
        for _ in 0..iterations {
            if pending_bits == 0 {
                pending = self.selector.next_word();
                pending_bits = 32;
            }
            let class = (pending & 1) as usize;
            pending >>= 1;
            pending_bits -= 1;
            let ns = self.decap_once(class);
            ttest.push(class, ns);
        }
        TTestReport {
            t: ttest.t_statistic(),
            accept_count: ttest.class(0).count(),
            reject_count: ttest.class(1).count(),
            means_ns: [ttest.class(0).mean(), ttest.class(1).mean()],
        }
    }

    /// One timed decapsulation for `class`; returns nanoseconds.
    fn decap_once(&mut self, class: usize) -> f64 {
        let pool = if class == 0 {
            &self.accept_pool
        } else {
            &self.reject_pool
        };
        let ct = &pool[(self.selector.next_word() as usize) % pool.len()];
        let start = Instant::now();
        let ss = self
            .ctx
            .decapsulate_cca_with_scratch(&self.sk, &self.pk, ct, &mut self.scratch)
            .expect("structural decap errors are impossible here");
        let elapsed = start.elapsed().as_nanos() as f64;
        std::hint::black_box(ss);
        elapsed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welch_t_is_zero_for_identical_streams() {
        let mut t = TTest::new();
        for i in 0..500 {
            let v = (i * 37 % 101) as f64;
            t.push(0, v);
            t.push(1, v);
        }
        assert_eq!(t.t_statistic(), 0.0);
        assert!(!t.leaks());
    }

    #[test]
    fn welch_t_flags_a_shifted_mean() {
        let mut t = TTest::new();
        for i in 0..2000 {
            let noise = (i * 37 % 101) as f64;
            t.push(0, 1000.0 + noise);
            t.push(1, 1100.0 + noise); // 10% systematic shift
        }
        assert!(t.leaks(), "t = {}", t.t_statistic());
        // Class 0 mean is below class 1, so t is negative.
        assert!(t.t_statistic() < -T_THRESHOLD);
    }

    #[test]
    fn welch_t_handles_degenerate_inputs() {
        let mut t = TTest::new();
        assert_eq!(t.t_statistic(), 0.0);
        t.push(0, 5.0);
        t.push(1, 9.0);
        assert_eq!(t.t_statistic(), 0.0, "one sample per class: undefined");
        // Zero-variance classes with equal means: still well-defined 0.
        let mut z = TTest::new();
        for _ in 0..10 {
            z.push(0, 7.0);
            z.push(1, 7.0);
        }
        assert_eq!(z.t_statistic(), 0.0);
        // Zero-variance classes with *different* means — e.g. a quantized
        // timer measuring a constant timing gap — are a perfect
        // distinguisher and must flag, not report 0.
        let mut c = TTest::new();
        for _ in 0..10 {
            c.push(0, 1000.0);
            c.push(1, 1100.0);
        }
        assert_eq!(c.t_statistic(), f64::NEG_INFINITY);
        assert!(c.leaks());
    }

    #[test]
    fn class_stats_match_direct_formulas() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = ClassStats::default();
        for &x in &xs {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Unbiased variance of the classic example set is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn fixture_classes_take_the_intended_paths() {
        let mut h =
            DecapClasses::for_set(ParamSet::P1, [5u8; 32], Contrast::FixedVsRandom).unwrap();
        assert_eq!(h.accept_pool.len(), 1, "fixed class holds one ciphertext");
        // The fixed ciphertext accepts: decapsulating twice is stable and
        // differs from every rejecting-pool result.
        let fixed_key = h
            .ctx
            .decapsulate_cca(&h.sk, &h.pk, &h.accept_pool[0])
            .unwrap();
        for ct in &h.reject_pool[..4] {
            let k = h.ctx.decapsulate_cca(&h.sk, &h.pk, ct).unwrap();
            assert_ne!(fixed_key.as_bytes(), k.as_bytes());
        }
        // A short measurement run completes and counts every iteration.
        let report = h.measure(64);
        assert_eq!(report.accept_count + report.reject_count, 64);
    }

    #[test]
    fn accept_vs_reject_fixture_fills_both_pools() {
        let h = DecapClasses::for_set(ParamSet::P1, [6u8; 32], Contrast::AcceptVsReject).unwrap();
        assert_eq!(h.accept_pool.len(), DecapClasses::RANDOM_POOL);
        assert_eq!(h.reject_pool.len(), DecapClasses::RANDOM_POOL);
        // Spot-check one ciphertext per class really takes its path.
        let k_accept = h
            .ctx
            .decapsulate_cca(&h.sk, &h.pk, &h.accept_pool[7])
            .unwrap();
        let k_again = h
            .ctx
            .decapsulate_cca(&h.sk, &h.pk, &h.accept_pool[7])
            .unwrap();
        assert_eq!(k_accept, k_again);
        let k_reject = h
            .ctx
            .decapsulate_cca(&h.sk, &h.pk, &h.reject_pool[7])
            .unwrap();
        assert_ne!(k_accept.as_bytes(), k_reject.as_bytes());
    }
}
