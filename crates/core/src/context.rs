//! The [`RlweContext`]: key generation, encryption, decryption.
//!
//! Two API generations coexist here:
//!
//! * The **allocating** entry points ([`RlweContext::encrypt`],
//!   [`RlweContext::decrypt`], [`RlweContext::generate_keypair`]) — the
//!   original per-call surface, convenient for one-off use.
//! * The **`_into` siblings** ([`RlweContext::encrypt_into`],
//!   [`RlweContext::decrypt_into`], [`RlweContext::generate_keypair_into`])
//!   — allocation-free after warm-up: every working polynomial comes from a
//!   caller-provided [`PolyScratch`] arena and the outputs reuse the
//!   storage already inside the destination objects.
//!
//! Construction goes through [`RlweContextBuilder`], whose one knob is the
//! sampler variant ([`SamplerKind`]). The NTT is not configurable: every
//! context transforms through the AVX2 kernels when the host has them and
//! through the bit-identical scalar reference otherwise ([`NttBackend`]
//! reports which one was picked).

use rand::RngCore;
use rlwe_ntt::{pointwise, AnyNttPlan, NttPlan, PolyScratch};
use rlwe_sampler::ct::CtCdtSampler;
use rlwe_sampler::random::{BitSource, BufferedBitSource, WordSource};
use rlwe_sampler::{KnuthYao, ProbabilityMatrix};
use rlwe_zq::{Reducer, ReducerKind};
use std::time::Instant;

use crate::encode::{decode_message_into, encode_message_add_assign};
use crate::keys::{Ciphertext, PublicKey, SecretKey};
use crate::params::{ParamSet, Params};
use crate::poly::Poly;
use crate::RlweError;

/// Adapter turning any [`rand::RngCore`] into the sampler's word source.
struct RngWords<'a, R: ?Sized>(&'a mut R);

impl<R: RngCore + ?Sized> WordSource for RngWords<'_, R> {
    fn next_word(&mut self) -> u32 {
        self.0.next_u32()
    }

    /// Bulk override feeding `BufferedBitSource::buffered`'s block
    /// refill: one `fill_bytes` per 16-word chunk, byte-stream identical
    /// to repeated `next_u32` calls. The staging bytes are coins, so
    /// they are erased before returning.
    fn fill_words(&mut self, out: &mut [u32]) {
        let mut buf = [0u8; 64];
        for chunk in out.chunks_mut(16) {
            let bytes = &mut buf[..4 * chunk.len()];
            self.0.fill_bytes(bytes);
            for (w, b) in chunk.iter_mut().zip(bytes.chunks_exact(4)) {
                *w = u32::from_le_bytes(b.try_into().expect("4-byte chunk"));
            }
        }
        rlwe_zq::ct::zeroize(&mut buf);
    }
}

/// Which NTT kernel a context's transforms run on — chosen at
/// construction from the host, never configured.
///
/// Both are bit-for-bit equivalent (see `crates/ntt/tests/avx2.rs`); they
/// differ only in speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum NttBackend {
    /// The scalar in-place reference transform ([`NttPlan::forward`]):
    /// hosts without AVX2, and rings with `n < 16`.
    Reference,
    /// Eight 32-bit lanes per AVX2 vector ([`rlwe_ntt::avx2`]), selected
    /// when the host reports AVX2 at plan construction.
    Avx2,
}

impl NttBackend {
    /// Stable lowercase identifier: the `ntt_backend` label of
    /// `rlwe_build_info`.
    pub fn label(self) -> &'static str {
        match self {
            NttBackend::Reference => "reference",
            NttBackend::Avx2 => "avx2",
        }
    }
}

/// Which sampler rung draws the error polynomials. Both rungs sample the
/// *same* distribution exactly; they trade speed against leakage (and
/// consume random bits differently, so ciphertexts differ across kinds
/// for the same seed).
///
/// [`SamplerKind::Lut`] is **variable-time**: the Knuth-Yao DDG walk
/// length — and therefore the number of random bits consumed — depends
/// on the sampled value. [`SamplerKind::CtCdt`] is the
/// constant-operation-count CDT sampler ([`CtCdtSampler`]): exactly 129
/// bit draws and one full-table scan per sample, regardless of the
/// value. Choose it for any context that processes attacker-supplied
/// inputs (CCA decapsulation servers); the variable-time rung stays
/// available for throughput work on trusted inputs (see DESIGN.md §5).
/// The slower Knuth-Yao variants (`sample_basic`, `sample_lut1`) live on
/// in `rlwe-sampler` for the cost model and the distribution tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum SamplerKind {
    /// Two-level lookup — the paper's fastest variant (`sample_lut`).
    #[default]
    Lut,
    /// Constant-operation-count CDT inversion ([`CtCdtSampler`]): fixed
    /// bit draws and comparison count per sample, branchless accumulation.
    CtCdt,
}

impl SamplerKind {
    /// Stable lowercase identifier: the part before the `/` of
    /// `rlwe_build_info`'s `sampler` label.
    pub fn label(self) -> &'static str {
        match self {
            SamplerKind::Lut => "lut",
            SamplerKind::CtCdt => "ct_cdt",
        }
    }
}

/// The encryption pipeline's phases, in order: each is one
/// `rlwe_phase_ns{op="encrypt", phase, param_set}` series.
pub const ENCRYPT_PHASES: [&str; 4] = ["sample", "encode", "ntt", "pointwise"];

/// The decryption pipeline's phases, in order: each is one
/// `rlwe_phase_ns{op="decrypt", phase, param_set}` series.
pub const DECRYPT_PHASES: [&str; 3] = ["pointwise", "ntt", "decode"];

/// The `rlwe_phase_ns{op, phase, param_set}` histogram in the global
/// registry: wall-clock nanoseconds of one pipeline phase (`op` is
/// `"encrypt"` or `"decrypt"`, `phase` one of [`ENCRYPT_PHASES`] /
/// [`DECRYPT_PHASES`], `param_set` a [`Params::obs_label`]). Contexts
/// resolve these once at construction; calling this again returns a
/// handle to the same cells.
pub fn phase_histogram(op: &str, phase: &str, param_set: &str) -> rlwe_obs::Histogram {
    rlwe_obs::global().histogram(
        "rlwe_phase_ns",
        "Encrypt/decrypt pipeline phase wall-clock latency.",
        &[("op", op), ("phase", phase), ("param_set", param_set)],
    )
}

/// Records `marks[i + 1] - marks[i]` into `phases[i]`: one histogram
/// record per phase of a timed chain of clock reads.
fn record_phases(phases: &[rlwe_obs::Histogram], marks: &[Instant]) {
    for (h, (start, end)) in phases.iter().zip(marks.iter().zip(marks.iter().skip(1))) {
        h.record(end.saturating_duration_since(*start));
    }
}

/// Observability handles a context resolves **once at construction**
/// and records through on the hot paths (relaxed atomic ops, no
/// registry lookups). Every label is public data — parameter set,
/// operation and phase name — never key or message material, and
/// recording never branches on secret values (see the
/// `crates/leakage` invariance gates). Which kernels the context runs
/// is exported once per server, by `rlwe_build_info`.
#[derive(Debug, Clone)]
pub(crate) struct ObsHooks {
    /// `rlwe_kem_op_ns{op="encap", param_set}`.
    pub encap_ns: rlwe_obs::Histogram,
    /// As above, `op="decap"`.
    pub decap_ns: rlwe_obs::Histogram,
    /// As above, `op="encap_cca"`.
    pub encap_cca_ns: rlwe_obs::Histogram,
    /// As above, `op="decap_cca"`.
    pub decap_cca_ns: rlwe_obs::Histogram,
    /// `rlwe_phase_ns{op="encrypt", phase, param_set}`, one per
    /// [`ENCRYPT_PHASES`] entry, in order.
    pub encrypt_phases: [rlwe_obs::Histogram; 4],
    /// As above, `op="decrypt"`, one per [`DECRYPT_PHASES`] entry.
    pub decrypt_phases: [rlwe_obs::Histogram; 3],
}

impl ObsHooks {
    fn resolve(params: &Params) -> Self {
        let set = params.obs_label();
        let kem = |op: &str| {
            rlwe_obs::global().histogram(
                "rlwe_kem_op_ns",
                "KEM operation wall-clock latency by operation kind.",
                &[("op", op), ("param_set", &set)],
            )
        };
        Self {
            encap_ns: kem("encap"),
            decap_ns: kem("decap"),
            encap_cca_ns: kem("encap_cca"),
            decap_cca_ns: kem("decap_cca"),
            encrypt_phases: ENCRYPT_PHASES.map(|phase| phase_histogram("encrypt", phase, &set)),
            decrypt_phases: DECRYPT_PHASES.map(|phase| phase_histogram("decrypt", phase, &set)),
        }
    }
}

/// Configures and builds an [`RlweContext`].
///
/// # Example
///
/// ```
/// use rlwe_core::{NttBackend, ParamSet, RlweContext, SamplerKind};
///
/// # fn main() -> Result<(), rlwe_core::RlweError> {
/// let ctx = RlweContext::builder(ParamSet::P1)
///     .sampler(SamplerKind::CtCdt)
///     .build()?;
/// assert_eq!(ctx.sampler_kind(), SamplerKind::CtCdt);
/// // The NTT kernel is picked from the host, not configured.
/// let avx2 = rlwe_zq::cpu::avx2();
/// assert_eq!(ctx.backend() == NttBackend::Avx2, avx2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RlweContextBuilder {
    params: Params,
    sampler: SamplerKind,
}

impl RlweContextBuilder {
    /// Starts from a named parameter set.
    pub fn new(set: ParamSet) -> Self {
        Self::with_params(set.params())
    }

    /// Starts from custom parameters.
    pub fn with_params(params: Params) -> Self {
        Self {
            params,
            sampler: SamplerKind::default(),
        }
    }

    /// Selects the Knuth-Yao sampler variant (default: [`SamplerKind::Lut`]).
    pub fn sampler(mut self, sampler: SamplerKind) -> Self {
        self.sampler = sampler;
        self
    }

    /// Builds the context.
    ///
    /// # Errors
    ///
    /// * [`RlweError::Ntt`] if `q` is not an NTT-friendly prime for `n`.
    /// * [`RlweError::Sampler`] if the Gaussian tables cannot meet the
    ///   2⁻⁹⁰ statistical-distance bound.
    pub fn build(self) -> Result<RlweContext, RlweError> {
        let plan = NttPlan::new(self.params.n(), self.params.q())?;
        // Dispatch the reducer instantiation exactly once, here: every
        // hot path below routes through `dispatch`, so the P1/P2 kernels
        // run fully monomorphized with compile-time constants. The
        // generic `plan` is kept alongside for the `plan()` accessor
        // (cost-model and bench consumers) — same twiddles, same
        // outputs, different reduction tail; `promote` moves a clone's
        // tables into the specialized type rather than rebuilding them.
        let dispatch = AnyNttPlan::promote(plan.clone());
        let spec = self.params.spec();
        let pmat = ProbabilityMatrix::build(spec, spec.paper_rows(), 109)?;
        // The CT sampler inverts the same probability table the Knuth-Yao
        // ladder walks, so the rungs are distribution-identical by
        // construction; it is only built when selected. The KY ladder is
        // built unconditionally even on the CtCdt rung: the public
        // `sampler()` accessor and the m4sim cost model read it, and the
        // one-time table cost is amortized by the engine's context pool.
        let ct = match self.sampler {
            SamplerKind::CtCdt => Some(CtCdtSampler::new(&pmat)),
            SamplerKind::Lut => None,
        };
        let ky = KnuthYao::new(pmat)?;
        // Observability handles resolve here, once: hot paths below
        // record through them without touching the registry again.
        let obs = ObsHooks::resolve(&self.params);
        Ok(RlweContext {
            params: self.params,
            plan,
            dispatch,
            ky,
            ct,
            obs,
        })
    }
}

/// Runs `$body` with `$p` bound to the context's dispatched, typed
/// [`NttPlan`] — the single point where the reducer instantiation is
/// selected; everything inside `$body` monomorphizes per reducer.
macro_rules! with_dispatch {
    ($self:expr, |$p:ident| $body:expr) => {
        match &$self.dispatch {
            AnyNttPlan::Q7681($p) => $body,
            AnyNttPlan::Q12289($p) => $body,
            AnyNttPlan::Generic($p) => $body,
        }
    };
}

/// Everything needed to run the scheme for one parameter set: the NTT plan
/// (twiddle tables) and the Knuth-Yao sampler (probability matrix + DDG
/// lookup tables).
///
/// Construction is comparatively expensive (it builds 192-bit-precision
/// Gaussian tables); clone or share one context per parameter set.
///
/// # Example
///
/// ```
/// use rlwe_core::{ParamSet, RlweContext};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), rlwe_core::RlweError> {
/// let ctx = RlweContext::new(ParamSet::P2)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(99);
/// let (pk, sk) = ctx.generate_keypair(&mut rng)?;
/// let msg = vec![0x42u8; ctx.params().message_bytes()];
/// let ct = ctx.encrypt(&pk, &msg, &mut rng)?;
/// assert_eq!(ctx.decrypt(&sk, &ct)?, msg);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RlweContext {
    params: Params,
    /// The runtime-Barrett view of the plan (twiddles identical to
    /// `dispatch`'s) — what [`RlweContext::plan`] exposes to the cost
    /// model and benches.
    plan: NttPlan,
    /// The reducer-dispatched plan every scheme operation routes
    /// through; for P1/P2 this holds the monomorphized special-prime
    /// kernels.
    dispatch: AnyNttPlan,
    ky: KnuthYao,
    /// Present exactly on the [`SamplerKind::CtCdt`] rung.
    ct: Option<CtCdtSampler>,
    /// Pre-resolved observability handles (see [`ObsHooks`]).
    pub(crate) obs: ObsHooks,
}

impl RlweContext {
    /// Builds a context for a named parameter set with the default
    /// sampler.
    ///
    /// # Errors
    ///
    /// Propagates NTT-plan or sampler construction failures (cannot happen
    /// for [`ParamSet::P1`]/[`ParamSet::P2`], which are known-good).
    pub fn new(set: ParamSet) -> Result<Self, RlweError> {
        RlweContextBuilder::new(set).build()
    }

    /// Builds a context for custom parameters with the default sampler.
    ///
    /// # Errors
    ///
    /// See [`RlweContextBuilder::build`].
    pub fn with_params(params: Params) -> Result<Self, RlweError> {
        RlweContextBuilder::with_params(params).build()
    }

    /// Starts configuring a context (parameter set + sampler).
    pub fn builder(set: ParamSet) -> RlweContextBuilder {
        RlweContextBuilder::new(set)
    }

    /// The parameters in use.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The NTT plan (exposed for benches and the M4F cost model).
    pub fn plan(&self) -> &NttPlan {
        &self.plan
    }

    /// The Knuth-Yao sampler (exposed for benches and the M4F cost model).
    pub fn sampler(&self) -> &KnuthYao {
        &self.ky
    }

    /// The constant-time CDT sampler — present exactly when the context
    /// was built with [`SamplerKind::CtCdt`] (exposed for the leakage
    /// harness's operation-count checks).
    pub fn ct_sampler(&self) -> Option<&CtCdtSampler> {
        self.ct.as_ref()
    }

    /// The NTT kernel this context's transforms run on:
    /// [`NttBackend::Avx2`] exactly when the dispatched plan carries AVX2
    /// tables (the host has AVX2 and `n ≥ 16`), [`NttBackend::Reference`]
    /// otherwise.
    pub fn backend(&self) -> NttBackend {
        if self.dispatch.has_avx2() {
            NttBackend::Avx2
        } else {
            NttBackend::Reference
        }
    }

    /// Stable label of the selected NTT backend — the `ntt_backend`
    /// value of `rlwe_build_info`.
    pub fn backend_label(&self) -> &'static str {
        self.backend().label()
    }

    /// Which reducer instantiation the scheme kernels dispatched to —
    /// [`ReducerKind::Q7681`]/[`ReducerKind::Q12289`] for the paper's
    /// parameter sets, [`ReducerKind::Barrett`] otherwise. CI pins this
    /// for P1/P2.
    pub fn reducer_kind(&self) -> ReducerKind {
        self.dispatch.kind()
    }

    /// The sampler variant drawing the error polynomials.
    pub fn sampler_kind(&self) -> SamplerKind {
        match self.ct {
            Some(_) => SamplerKind::CtCdt,
            None => SamplerKind::Lut,
        }
    }

    /// Stable label of the sampler kernel polynomial fills dispatch to —
    /// the part after the `/` of `rlwe_build_info`'s `sampler` value.
    /// `"avx2"` exactly when the rung is [`SamplerKind::CtCdt`] and the
    /// host has AVX2 (the 8-lane table scan in `rlwe_sampler::avx2`),
    /// `"scalar"` otherwise: the Knuth-Yao rung batches its LUT probes
    /// lane-wise but executes scalar code.
    pub fn sampler_backend(&self) -> &'static str {
        if self.ct.is_some() && rlwe_zq::cpu::avx2() {
            "avx2"
        } else {
            "scalar"
        }
    }

    /// A fresh scratch arena sized for this context's ring — hand one to
    /// each worker thread that calls the `_into` entry points. Creating an
    /// arena is free; its buffers are allocated lazily on first use.
    pub fn new_scratch(&self) -> PolyScratch {
        PolyScratch::new(self.params.n())
    }

    /// An all-zero ciphertext for this parameter set — the warm-up
    /// destination for [`RlweContext::encrypt_into`].
    pub fn empty_ciphertext(&self) -> Ciphertext {
        let m = *self.plan.modulus();
        let n = self.params.n();
        Ciphertext {
            params: self.params,
            c1_hat: Poly::zeroed(n, m),
            c2_hat: Poly::zeroed(n, m),
        }
    }

    /// An all-zero keypair for this parameter set — the warm-up
    /// destination for [`RlweContext::generate_keypair_into`].
    pub fn empty_keypair(&self) -> (PublicKey, SecretKey) {
        let m = *self.plan.modulus();
        let n = self.params.n();
        (
            PublicKey {
                params: self.params,
                a_hat: Poly::zeroed(n, m),
                p_hat: Poly::zeroed(n, m),
            },
            SecretKey {
                params: self.params,
                r2_hat: Poly::zeroed(n, m),
            },
        )
    }

    // ------------------------------------------------------------------
    // Sampler dispatch
    // ------------------------------------------------------------------

    /// Fills `out` with error-polynomial residues through the configured
    /// sampler rung (the default rung delegates to the sampler crate's
    /// own fill loop). Generic over the dispatched reducer, so the
    /// per-coefficient sign application ([`Reducer::signed_residue`])
    /// monomorphizes with compile-time `q` on the specialized plans.
    fn sample_error_into<R: Reducer, B: BitSource>(&self, r: &R, bits: &mut B, out: &mut [u32]) {
        match &self.ct {
            // Block fill: 8-at-a-time through the lane-parallel table
            // scan (AVX2 when the host has it, the bit-identical scalar
            // kernel otherwise), per-sample on the tail.
            Some(ct) => ct.sample_poly_into(r, bits, out),
            None => self.ky.sample_poly_reduced_into(r, bits, out),
        }
    }

    // ------------------------------------------------------------------
    // Sampling
    // ------------------------------------------------------------------

    /// Samples a uniform NTT-domain polynomial (the global `ã`).
    ///
    /// Coefficients are drawn by rejection from `coeff_bits`-bit strings,
    /// so the distribution is exactly uniform over `Z_q`.
    pub fn sample_uniform<R: RngCore + ?Sized>(&self, rng: &mut R) -> Poly {
        let mut poly = Poly::zeroed(self.params.n(), *self.plan.modulus());
        self.sample_uniform_into(rng, poly.as_mut_slice());
        poly
    }

    /// Rejection-samples uniform residues into `out`.
    fn sample_uniform_into<R: RngCore + ?Sized>(&self, rng: &mut R, out: &mut [u32]) {
        let mut bits = BufferedBitSource::buffered(RngWords(rng));
        let q = self.params.q();
        let w = self.params.coeff_bits();
        for c in out.iter_mut() {
            *c = loop {
                let cand = bits.take_bits(w);
                if cand < q {
                    break cand;
                }
            };
        }
    }

    // ------------------------------------------------------------------
    // Key generation
    // ------------------------------------------------------------------

    /// Key generation (§II-A.1) with a caller-supplied global `ã`
    /// (the paper's `KeyGeneration(ã)`; several keypairs may share `ã`).
    ///
    /// # Errors
    ///
    /// [`RlweError::ParamMismatch`] if `a_hat` does not match this
    /// context's ring.
    pub fn generate_keypair_with_a_poly<R: RngCore + ?Sized>(
        &self,
        a_hat: Poly,
        rng: &mut R,
    ) -> Result<(PublicKey, SecretKey), RlweError> {
        if a_hat.len() != self.params.n() || a_hat.q() != self.params.q() {
            return Err(RlweError::ParamMismatch);
        }
        let (mut pk, mut sk) = self.empty_keypair();
        pk.a_hat = a_hat;
        let mut scratch = self.new_scratch();
        self.keypair_body(rng, &mut pk, &mut sk, &mut scratch)
            .map(|()| (pk, sk))
    }

    /// Key generation with a fresh uniform `ã`.
    ///
    /// # Errors
    ///
    /// See [`RlweContext::generate_keypair_with_a_poly`].
    pub fn generate_keypair<R: RngCore + ?Sized>(
        &self,
        rng: &mut R,
    ) -> Result<(PublicKey, SecretKey), RlweError> {
        let a_hat = self.sample_uniform(rng);
        self.generate_keypair_with_a_poly(a_hat, rng)
    }

    /// Allocation-free key generation: samples a fresh `ã` and writes the
    /// keypair into existing storage (start from
    /// [`RlweContext::empty_keypair`]), borrowing working polynomials from
    /// `scratch`.
    ///
    /// # Errors
    ///
    /// [`RlweError::Ntt`] if the scratch arena was built for another ring
    /// dimension.
    pub fn generate_keypair_into<R: RngCore + ?Sized>(
        &self,
        rng: &mut R,
        pk: &mut PublicKey,
        sk: &mut SecretKey,
        scratch: &mut PolyScratch,
    ) -> Result<(), RlweError> {
        self.check_scratch(scratch)?;
        let n = self.params.n();
        let m = *self.plan.modulus();
        pk.params = self.params;
        sk.params = self.params;
        pk.a_hat.reset(n, m);
        pk.p_hat.reset(n, m);
        sk.r2_hat.reset(n, m);
        self.sample_uniform_into(rng, pk.a_hat.as_mut_slice());
        self.keypair_body(rng, pk, sk, scratch)
    }

    /// Shared tail of key generation: `pk.a_hat` is already populated;
    /// draws `r₁, r₂`, transforms them, and fills `p̃` and the secret key.
    /// Dispatches the reducer once and runs the monomorphized body.
    fn keypair_body<R: RngCore + ?Sized>(
        &self,
        rng: &mut R,
        pk: &mut PublicKey,
        sk: &mut SecretKey,
        scratch: &mut PolyScratch,
    ) -> Result<(), RlweError> {
        with_dispatch!(self, |p| self.keypair_body_with(p, rng, pk, sk, scratch))
    }

    fn keypair_body_with<RR: Reducer, R: RngCore + ?Sized>(
        &self,
        plan: &NttPlan<RR>,
        rng: &mut R,
        pk: &mut PublicKey,
        sk: &mut SecretKey,
        scratch: &mut PolyScratch,
    ) -> Result<(), RlweError> {
        let mut bits = BufferedBitSource::buffered(RngWords(rng));
        // r₁, r₂ ← X_σ (time domain), then into the NTT domain.
        let mut r1 = scratch.take();
        self.sample_error_into(plan.reducer(), &mut bits, &mut r1);
        self.sample_error_into(plan.reducer(), &mut bits, sk.r2_hat.as_mut_slice());
        plan.forward_avx2(&mut r1);
        plan.forward_avx2(sk.r2_hat.as_mut_slice());
        // p̃ = r̃₁ − ã ∘ r̃₂.
        let mut ar2 = scratch.take();
        pointwise::mul_into(
            &mut ar2,
            pk.a_hat.as_slice(),
            sk.r2_hat.as_slice(),
            plan.reducer(),
        )?; // ct-allow(keygen pointwise ops fail only on parameter-shape mismatch, not key bits)
            // ct-allow(keygen pointwise ops fail only on parameter-shape mismatch, not key bits)
        pointwise::sub_into(pk.p_hat.as_mut_slice(), &r1, &ar2, plan.reducer())?;
        scratch.put(r1);
        scratch.put(ar2);
        Ok(())
    }

    /// Validates that a scratch arena matches this context's ring.
    fn check_scratch(&self, scratch: &PolyScratch) -> Result<(), RlweError> {
        if scratch.n() != self.params.n() {
            return Err(RlweError::Ntt(rlwe_ntt::NttError::LengthMismatch {
                expected: self.params.n(),
                got: scratch.n(),
            }));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Encryption
    // ------------------------------------------------------------------

    /// Encryption (§II-A.2): three Gaussian error polynomials, three
    /// forward NTTs, two pointwise multiply-adds. (The paper fuses the
    /// three transforms into one loop nest on the Cortex-M4F; that
    /// reproduction lives in `rlwe_ntt::parallel`.)
    ///
    /// Allocating convenience over [`RlweContext::encrypt_into`].
    ///
    /// # Errors
    ///
    /// * [`RlweError::MessageLength`] unless `msg.len() == n/8`.
    /// * [`RlweError::ParamMismatch`] if the key belongs to another set.
    pub fn encrypt<R: RngCore + ?Sized>(
        &self,
        pk: &PublicKey,
        msg: &[u8],
        rng: &mut R,
    ) -> Result<Ciphertext, RlweError> {
        let mut scratch = self.new_scratch();
        self.encrypt_with_scratch(pk, msg, rng, &mut scratch)
    }

    /// Encryption reusing a caller's scratch arena; allocates only the two
    /// output polynomials.
    ///
    /// # Errors
    ///
    /// See [`RlweContext::encrypt_into`].
    pub fn encrypt_with_scratch<R: RngCore + ?Sized>(
        &self,
        pk: &PublicKey,
        msg: &[u8],
        rng: &mut R,
        scratch: &mut PolyScratch,
    ) -> Result<Ciphertext, RlweError> {
        let mut ct = self.empty_ciphertext();
        self.encrypt_into(pk, msg, rng, &mut ct, scratch)?;
        Ok(ct)
    }

    /// Allocation-free encryption: writes the ciphertext into existing
    /// storage (start from [`RlweContext::empty_ciphertext`]) and borrows
    /// every working polynomial from `scratch`. After the first call on a
    /// given scratch/ciphertext pair, the hot path performs **zero**
    /// polynomial allocations (the engine's counting-allocator test pins
    /// this down).
    ///
    /// Output is bit-identical to [`RlweContext::encrypt`] for the same
    /// RNG state.
    ///
    /// # Errors
    ///
    /// * [`RlweError::MessageLength`] unless `msg.len() == n/8`.
    /// * [`RlweError::ParamMismatch`] if the key belongs to another set.
    /// * [`RlweError::Ntt`] if the scratch arena has the wrong dimension.
    pub fn encrypt_into<R: RngCore + ?Sized>(
        &self,
        pk: &PublicKey,
        msg: &[u8],
        rng: &mut R,
        ct: &mut Ciphertext,
        scratch: &mut PolyScratch,
    ) -> Result<(), RlweError> {
        if pk.params != self.params {
            return Err(RlweError::ParamMismatch);
        }
        if msg.len() != self.params.message_bytes() {
            return Err(RlweError::MessageLength {
                got: msg.len(),
                expected: self.params.message_bytes(),
            });
        }
        self.check_scratch(scratch)?;
        with_dispatch!(self, |p| self.encrypt_body(p, pk, msg, rng, ct, scratch))
    }

    /// The monomorphized encryption body: sampling, the three forward
    /// NTTs and both multiply-adds all run on `plan`'s reducer.
    fn encrypt_body<RR: Reducer, R: RngCore + ?Sized>(
        &self,
        plan: &NttPlan<RR>,
        pk: &PublicKey,
        msg: &[u8],
        rng: &mut R,
        ct: &mut Ciphertext,
        scratch: &mut PolyScratch,
    ) -> Result<(), RlweError> {
        let n = self.params.n();
        let q = self.params.q();
        let modulus = self.plan.modulus();
        let mut bits = BufferedBitSource::buffered(RngWords(rng));
        let mut e1 = scratch.take();
        let mut e2 = scratch.take();
        let mut e3m = scratch.take();
        // One clock read per phase boundary; the records follow the last
        // read, so none of them lands inside a timed phase.
        let t0 = Instant::now();
        self.sample_error_into(plan.reducer(), &mut bits, &mut e1);
        self.sample_error_into(plan.reducer(), &mut bits, &mut e2);
        self.sample_error_into(plan.reducer(), &mut bits, &mut e3m);
        let t1 = Instant::now();
        // e₃ + m̄ (time domain) becomes the third forward-NTT operand.
        encode_message_add_assign(msg, &mut e3m, q);
        let t2 = Instant::now();
        for e in [&mut e1, &mut e2, &mut e3m] {
            plan.forward_avx2(e);
        }
        let t3 = Instant::now();
        // c̃₁ = ã∘ẽ₁ + ẽ₂ ; c̃₂ = p̃∘ẽ₁ + NTT(e₃ + m̄).
        ct.params = pk.params;
        ct.c1_hat.reset(n, *modulus);
        ct.c2_hat.reset(n, *modulus);
        ct.c1_hat.as_mut_slice().copy_from_slice(&e2);
        pointwise::mul_add_assign(
            ct.c1_hat.as_mut_slice(),
            pk.a_hat.as_slice(),
            &e1,
            plan.reducer(),
        )?;
        ct.c2_hat.as_mut_slice().copy_from_slice(&e3m);
        pointwise::mul_add_assign(
            ct.c2_hat.as_mut_slice(),
            pk.p_hat.as_slice(),
            &e1,
            plan.reducer(),
        )?;
        record_phases(&self.obs.encrypt_phases, &[t0, t1, t2, t3, Instant::now()]);
        scratch.put(e1);
        scratch.put(e2);
        scratch.put(e3m);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Decryption
    // ------------------------------------------------------------------

    /// Decryption (§II-A.3): one pointwise multiply, one addition, one
    /// inverse NTT, then the threshold decoder.
    ///
    /// Allocating convenience over [`RlweContext::decrypt_into`].
    ///
    /// # Errors
    ///
    /// [`RlweError::ParamMismatch`] if key and ciphertext come from
    /// different parameter sets.
    pub fn decrypt(&self, sk: &SecretKey, ct: &Ciphertext) -> Result<Vec<u8>, RlweError> {
        let mut out = Vec::with_capacity(self.params.message_bytes());
        let mut scratch = self.new_scratch();
        // ct-allow(decode errors depend on ciphertext structure, not the secret key)
        self.decrypt_into(sk, ct, &mut out, &mut scratch)?;
        Ok(out)
    }

    /// Allocation-free decryption: decodes into a caller-provided byte
    /// buffer (cleared and refilled, capacity reused) and borrows the
    /// working polynomial from `scratch`.
    ///
    /// # Errors
    ///
    /// [`RlweError::ParamMismatch`] on mixed parameter sets,
    /// [`RlweError::Ntt`] on a wrong-dimension scratch arena.
    pub fn decrypt_into(
        &self,
        sk: &SecretKey,
        ct: &Ciphertext,
        out: &mut Vec<u8>,
        scratch: &mut PolyScratch,
    ) -> Result<(), RlweError> {
        if sk.params != self.params || ct.params != sk.params {
            return Err(RlweError::ParamMismatch);
        }
        self.check_scratch(scratch)?;
        with_dispatch!(self, |p| {
            let mut m = scratch.take();
            let t0 = Instant::now();
            // m ← c̃₂ + c̃₁∘r̃₂, then out of the NTT domain.
            m.copy_from_slice(ct.c2_hat.as_slice());
            pointwise::mul_add_assign(
                &mut m,
                ct.c1_hat.as_slice(),
                sk.r2_hat.as_slice(),
                p.reducer(),
                // ct-allow(decode errors depend on ciphertext structure, not the message)
            )?;
            let t1 = Instant::now();
            p.inverse_avx2(&mut m);
            let t2 = Instant::now();
            decode_message_into(&m, self.params.q(), out);
            record_phases(&self.obs.decrypt_phases, &[t0, t1, t2, Instant::now()]);
            scratch.put(m);
            Ok(())
        })
    }

    /// The pre-decoder decryption output `m' = INTT(c̃₁∘r̃₂ + c̃₂)` —
    /// exposed so noise margins can be measured (EXPERIMENTS.md).
    ///
    /// # Errors
    ///
    /// [`RlweError::ParamMismatch`] on mixed parameter sets.
    pub fn decrypt_to_coefficients(
        &self,
        sk: &SecretKey,
        ct: &Ciphertext,
    ) -> Result<Vec<u32>, RlweError> {
        if sk.params != self.params || ct.params != sk.params {
            return Err(RlweError::ParamMismatch);
        }
        with_dispatch!(self, |p| {
            let mut m = pointwise::mul_add(
                ct.c1_hat.as_slice(),
                sk.r2_hat.as_slice(),
                ct.c2_hat.as_slice(),
                p.reducer(),
                // ct-allow(decode errors depend on ciphertext structure, not the message)
            )?;
            p.inverse_avx2(&mut m);
            Ok(m)
        })
    }

    /// Measures how much noise margin a ciphertext has left: decryption is
    /// correct while every coefficient's noise stays below `q/4`.
    ///
    /// # Errors
    ///
    /// [`RlweError::ParamMismatch`] on mixed parameter sets.
    pub fn diagnostics(
        &self,
        sk: &SecretKey,
        ct: &Ciphertext,
    ) -> Result<DecryptionDiagnostics, RlweError> {
        // ct-allow(diagnostics is an offline debugging aid, not a production decap path)
        let coeffs = self.decrypt_to_coefficients(sk, ct)?;
        let q = self.params.q() as i64;
        let half = q / 2;
        let mut max_noise = 0i64;
        let mut total = 0f64;
        for &c in &coeffs {
            // Distance to the nearest codeword (0 or q/2) in the centered
            // metric.
            let c = c as i64;
            let d0 = (c.min(q - c)).abs();
            let dh = (c - half).abs().min((c + half - q).abs());
            let noise = d0.min(dh);
            max_noise = max_noise.max(noise);
            total += noise as f64;
        }
        Ok(DecryptionDiagnostics {
            max_noise: max_noise as u32,
            mean_noise: total / coeffs.len() as f64,
            margin: (q / 4 - max_noise).max(0) as u32,
            failed: max_noise >= q / 4,
        })
    }

    /// Adds two ciphertexts coefficient-wise (the additive homomorphism of
    /// LPR: the result decrypts to the **XOR** of the two plaintexts as
    /// long as the combined noise stays under `q/4`). An extension beyond
    /// the paper — see DESIGN.md §6.
    ///
    /// # Errors
    ///
    /// [`RlweError::ParamMismatch`] on mixed parameter sets.
    pub fn add_ciphertexts(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, RlweError> {
        if a.params != self.params || b.params != a.params {
            return Err(RlweError::ParamMismatch);
        }
        let mut c1_hat = a.c1_hat.clone();
        c1_hat.add_assign(&b.c1_hat)?;
        let mut c2_hat = a.c2_hat.clone();
        c2_hat.add_assign(&b.c2_hat)?;
        Ok(Ciphertext {
            params: a.params,
            c1_hat,
            c2_hat,
        })
    }
}

/// Noise measurements from a decryption, for failure-rate experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecryptionDiagnostics {
    /// Largest per-coefficient noise (distance to the nearest codeword).
    pub max_noise: u32,
    /// Mean per-coefficient noise.
    pub mean_noise: f64,
    /// Remaining margin before a bit would flip (`q/4 − max_noise`).
    pub margin: u32,
    /// Whether at least one bit decoded incorrectly.
    pub failed: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx_p1() -> RlweContext {
        RlweContext::new(ParamSet::P1).unwrap()
    }

    #[test]
    fn round_trip_p1() {
        let ctx = ctx_p1();
        // P1 has a genuine per-encrypt decryption-failure probability on
        // the order of 1% (noise tail crossing q/4), so a fixed seed is
        // chosen whose 20 ciphertexts all keep a comfortable margin
        // (≥396 with this stream). Seeded streams are
        // arbitrary-but-deterministic per the rand shim's contract; this
        // seed was re-picked when the buffered bit-source refill changed
        // the word-stream layout.
        let mut rng = StdRng::seed_from_u64(2);
        let (pk, sk) = ctx.generate_keypair(&mut rng).unwrap();
        for i in 0..20u8 {
            let msg: Vec<u8> = (0..32).map(|j| j as u8 ^ i.wrapping_mul(29)).collect();
            let ct = ctx.encrypt(&pk, &msg, &mut rng).unwrap();
            assert_eq!(ctx.decrypt(&sk, &ct).unwrap(), msg, "iteration {i}");
        }
    }

    #[test]
    fn round_trip_p2() {
        let ctx = RlweContext::new(ParamSet::P2).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let (pk, sk) = ctx.generate_keypair(&mut rng).unwrap();
        let msg = vec![0b1010_1010u8; 64];
        let ct = ctx.encrypt(&pk, &msg, &mut rng).unwrap();
        assert_eq!(ctx.decrypt(&sk, &ct).unwrap(), msg);
    }

    #[test]
    fn encrypt_into_is_bit_identical_to_encrypt() {
        let ctx = ctx_p1();
        let mut rng = StdRng::seed_from_u64(40);
        let (pk, _) = ctx.generate_keypair(&mut rng).unwrap();
        let msg = vec![0x5Cu8; 32];
        let mut rng_a = StdRng::seed_from_u64(41);
        let mut rng_b = StdRng::seed_from_u64(41);
        let allocating = ctx.encrypt(&pk, &msg, &mut rng_a).unwrap();
        let mut ct = ctx.empty_ciphertext();
        let mut scratch = ctx.new_scratch();
        ctx.encrypt_into(&pk, &msg, &mut rng_b, &mut ct, &mut scratch)
            .unwrap();
        assert_eq!(ct, allocating);
        assert_eq!(
            ct.to_bytes().unwrap(),
            allocating.to_bytes().unwrap(),
            "wire bytes must be unchanged by the _into path"
        );
    }

    #[test]
    fn decrypt_into_matches_decrypt_and_reuses_buffers() {
        let ctx = ctx_p1();
        let mut rng = StdRng::seed_from_u64(42);
        let (pk, sk) = ctx.generate_keypair(&mut rng).unwrap();
        let msg = vec![0xE1u8; 32];
        let ct = ctx.encrypt(&pk, &msg, &mut rng).unwrap();
        let want = ctx.decrypt(&sk, &ct).unwrap();
        let mut out = Vec::new();
        let mut scratch = ctx.new_scratch();
        ctx.decrypt_into(&sk, &ct, &mut out, &mut scratch).unwrap();
        assert_eq!(out, want);
        // Second decryption reuses both the byte buffer and the arena.
        ctx.decrypt_into(&sk, &ct, &mut out, &mut scratch).unwrap();
        assert_eq!(out, want);
        assert!(scratch.parked() >= 1, "the working poly returned home");
    }

    #[test]
    fn generate_keypair_into_matches_allocating_keygen() {
        let ctx = ctx_p1();
        let mut rng_a = StdRng::seed_from_u64(43);
        let mut rng_b = StdRng::seed_from_u64(43);
        let (pk_a, sk_a) = ctx.generate_keypair(&mut rng_a).unwrap();
        let (mut pk_b, mut sk_b) = ctx.empty_keypair();
        let mut scratch = ctx.new_scratch();
        ctx.generate_keypair_into(&mut rng_b, &mut pk_b, &mut sk_b, &mut scratch)
            .unwrap();
        assert_eq!(pk_a, pk_b);
        assert_eq!(sk_a.to_bytes().unwrap(), sk_b.to_bytes().unwrap());
    }

    #[test]
    fn wrong_dimension_scratch_is_rejected() {
        let ctx = ctx_p1();
        let mut rng = StdRng::seed_from_u64(44);
        let (pk, _) = ctx.generate_keypair(&mut rng).unwrap();
        let mut ct = ctx.empty_ciphertext();
        let mut scratch = PolyScratch::new(512);
        let err = ctx
            .encrypt_into(&pk, &[0u8; 32], &mut rng, &mut ct, &mut scratch)
            .unwrap_err();
        assert!(matches!(err, RlweError::Ntt(_)));
    }

    #[test]
    fn paper_sets_dispatch_to_the_specialized_reducers() {
        let p1 = RlweContext::new(ParamSet::P1).unwrap();
        assert_eq!(p1.reducer_kind(), ReducerKind::Q7681);
        let p2 = RlweContext::new(ParamSet::P2).unwrap();
        assert_eq!(p2.reducer_kind(), ReducerKind::Q12289);
        // A non-paper prime falls back to runtime Barrett.
        let params = Params::custom(512, 8383489, rlwe_sampler::GaussianSpec::p1());
        let other = RlweContext::with_params(params).unwrap();
        assert_eq!(other.reducer_kind(), ReducerKind::Barrett);
    }

    /// SHA-256 of `pk ‖ sk ‖ ct` wire bytes for a fixed seed, recorded on
    /// the scalar reference NTT. Whichever kernel the context selects on
    /// this host must reproduce them byte for byte.
    #[test]
    fn known_answer_wire_digests() {
        const WANT: [(ParamSet, &str); 2] = [
            (
                ParamSet::P1,
                "44b538c52d002681e0b5b43bc5cd2ca5a920e655b4854dcd5af344c0193913b1",
            ),
            (
                ParamSet::P2,
                "5b173a92b1a67f8236af01063a21995c0b526b32a6376a3e6383a0a33e9314bd",
            ),
        ];
        for (set, want) in WANT {
            let ctx = RlweContext::new(set).unwrap();
            let mut rng = StdRng::seed_from_u64(45);
            let (pk, sk) = ctx.generate_keypair(&mut rng).unwrap();
            let msg = vec![0x77u8; ctx.params().message_bytes()];
            let ct = ctx.encrypt(&pk, &msg, &mut rng).unwrap();
            assert_eq!(ctx.decrypt(&sk, &ct).unwrap(), msg);
            let mut wire = pk.to_bytes().unwrap();
            wire.extend(sk.to_bytes().unwrap());
            wire.extend(ct.to_bytes().unwrap());
            let got = sha256_hex(&wire);
            assert_eq!(got, want, "{set} on the {:?} NTT", ctx.backend());
        }
    }

    /// SHA-256 of `pk ‖ ct ‖ ss` for keygen and encapsulation on fixed
    /// `HashDrbg` coins, the serving path's: they reach the samplers
    /// through `RngWords` and `BufferedBitSource::buffered`, which the
    /// `StdRng`-driven test above does not pin.
    #[test]
    fn known_answer_serving_path_digests() {
        const WANT: [&str; 4] = [
            "269c79ac34b2808550601666c70eee4181b11c492ec1d4bfb6cd1f695586f38e",
            "c6246d8151c8ec7bd2bfca2ef2d89283fc9ffb5e3cdccd1402a7fa81c9caea79",
            "0e0f34acffdf4c53e59772387c1cd5a0c7d47d68d44d78a4d47c4fe704bda980",
            "b802c71f99127fdb4f6f8f5d91efccf2c6afe4e4e332d28c6e56c82d42577871",
        ];
        let runs = [ParamSet::P1, ParamSet::P2]
            .into_iter()
            .flat_map(|set| [SamplerKind::Lut, SamplerKind::CtCdt].map(|kind| (set, kind)));
        for ((set, kind), want) in runs.zip(WANT) {
            let ctx = RlweContext::builder(set).sampler(kind).build().unwrap();
            let mut rng = crate::drbg::HashDrbg::new([0x5A; 32]);
            let (pk, _) = ctx.generate_keypair(&mut rng).unwrap();
            let (mut ct, mut scratch) = (ctx.empty_ciphertext(), ctx.new_scratch());
            let (ct_bytes, ss) = ctx
                .encapsulate_wire(&pk, &mut rng, &mut ct, &mut scratch)
                .unwrap();
            let wire = [pk.to_bytes().unwrap(), ct_bytes, ss.as_bytes().to_vec()].concat();
            assert_eq!(sha256_hex(&wire), want, "{set} {kind:?}");
        }
    }

    fn sha256_hex(bytes: &[u8]) -> String {
        rlwe_hash::Sha256::digest(bytes)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    }

    #[test]
    fn backend_is_selected_from_the_host() {
        for set in [ParamSet::P1, ParamSet::P2] {
            let ctx = RlweContext::new(set).unwrap();
            let want = if rlwe_zq::cpu::avx2() {
                NttBackend::Avx2
            } else {
                NttBackend::Reference
            };
            assert_eq!(ctx.backend(), want, "{set}");
            assert_eq!(ctx.backend_label(), want.label());
        }
        // Rings below the eight-lane kernels' minimum run the reference
        // transform on every host.
        let tiny = Params::custom(8, 12289, rlwe_sampler::GaussianSpec::p1());
        let ctx = RlweContext::with_params(tiny).unwrap();
        assert_eq!(ctx.backend(), NttBackend::Reference);
    }

    #[test]
    fn sampler_kinds_all_round_trip() {
        for kind in [SamplerKind::Lut, SamplerKind::CtCdt] {
            let ctx = RlweContext::builder(ParamSet::P1)
                .sampler(kind)
                .build()
                .unwrap();
            assert_eq!(ctx.sampler_kind(), kind);
            assert_eq!(ctx.ct_sampler().is_some(), kind == SamplerKind::CtCdt);
            let mut rng = StdRng::seed_from_u64(46);
            let (pk, sk) = ctx.generate_keypair(&mut rng).unwrap();
            let msg = vec![0x13u8; 32];
            let ct = ctx.encrypt(&pk, &msg, &mut rng).unwrap();
            assert_eq!(ctx.decrypt(&sk, &ct).unwrap(), msg, "{kind:?}");
        }
    }

    #[test]
    fn every_call_records_each_pipeline_phase_once() {
        // A ring no other test in this binary uses, so its series are
        // this test's own.
        let params = Params::custom(128, 7681, rlwe_sampler::GaussianSpec::p1());
        let ctx = RlweContext::with_params(params).unwrap();
        let set = params.obs_label();
        let series: Vec<_> = ENCRYPT_PHASES
            .iter()
            .map(|phase| phase_histogram("encrypt", phase, &set))
            .chain(
                DECRYPT_PHASES
                    .iter()
                    .map(|phase| phase_histogram("decrypt", phase, &set)),
            )
            .collect();
        let counts = || -> Vec<u64> { series.iter().map(|h| h.snapshot().len()).collect() };
        let mut rng = StdRng::seed_from_u64(47);
        let (pk, sk) = ctx.generate_keypair(&mut rng).unwrap();
        let before = counts();
        let ct = ctx.encrypt(&pk, &[0x2Eu8; 16], &mut rng).unwrap();
        ctx.decrypt(&sk, &ct).unwrap();
        let after = counts();
        let delta: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
        assert_eq!(delta, vec![1; 7], "one record per phase per call");
    }

    #[test]
    fn wrong_key_garbles_the_message() {
        let ctx = ctx_p1();
        let mut rng = StdRng::seed_from_u64(3);
        let (pk, _sk) = ctx.generate_keypair(&mut rng).unwrap();
        let (_pk2, sk2) = ctx.generate_keypair(&mut rng).unwrap();
        let msg = vec![0xFFu8; 32];
        let ct = ctx.encrypt(&pk, &msg, &mut rng).unwrap();
        assert_ne!(ctx.decrypt(&sk2, &ct).unwrap(), msg);
    }

    #[test]
    fn message_length_is_validated() {
        let ctx = ctx_p1();
        let mut rng = StdRng::seed_from_u64(4);
        let (pk, _) = ctx.generate_keypair(&mut rng).unwrap();
        let err = ctx.encrypt(&pk, &[0u8; 31], &mut rng).unwrap_err();
        assert!(matches!(
            err,
            RlweError::MessageLength {
                got: 31,
                expected: 32
            }
        ));
    }

    #[test]
    fn ciphertexts_are_randomized() {
        let ctx = ctx_p1();
        let mut rng = StdRng::seed_from_u64(5);
        let (pk, _) = ctx.generate_keypair(&mut rng).unwrap();
        let msg = vec![0u8; 32];
        let ct1 = ctx.encrypt(&pk, &msg, &mut rng).unwrap();
        let ct2 = ctx.encrypt(&pk, &msg, &mut rng).unwrap();
        assert_ne!(ct1, ct2, "semantic security demands fresh randomness");
    }

    #[test]
    fn shared_a_keypairs_work() {
        let ctx = ctx_p1();
        let mut rng = StdRng::seed_from_u64(6);
        let a_hat = ctx.sample_uniform(&mut rng);
        let (pk1, sk1) = ctx
            .generate_keypair_with_a_poly(a_hat.clone(), &mut rng)
            .unwrap();
        let (pk2, sk2) = ctx
            .generate_keypair_with_a_poly(a_hat.clone(), &mut rng)
            .unwrap();
        assert_eq!(pk1.a_poly(), pk2.a_poly());
        assert_ne!(pk1.p_poly(), pk2.p_poly());
        let msg = vec![0x77u8; 32];
        let ct1 = ctx.encrypt(&pk1, &msg, &mut rng).unwrap();
        let ct2 = ctx.encrypt(&pk2, &msg, &mut rng).unwrap();
        assert_eq!(ctx.decrypt(&sk1, &ct1).unwrap(), msg);
        assert_eq!(ctx.decrypt(&sk2, &ct2).unwrap(), msg);
    }

    #[test]
    fn noise_stays_within_the_decoding_bound() {
        // The noise term is e₁·r₁ + e₂·r₂ + e₃ with per-coefficient std
        // ≈ σ²√(2n) ≈ 461 for P1 against a q/4 = 1920 threshold (≈ 4.2σ):
        // individual encryptions fail with probability ≈ 1%, which is a
        // *property of the paper's parameters*, not a bug. With this fixed
        // seed all 50 encryptions decode; the margin is legitimately thin.
        let ctx = ctx_p1();
        let mut rng = StdRng::seed_from_u64(7);
        let (pk, sk) = ctx.generate_keypair(&mut rng).unwrap();
        let msg = vec![0x5Au8; 32];
        let mut worst_margin = u32::MAX;
        for _ in 0..50 {
            let ct = ctx.encrypt(&pk, &msg, &mut rng).unwrap();
            let d = ctx.diagnostics(&sk, &ct).unwrap();
            assert!(!d.failed);
            worst_margin = worst_margin.min(d.margin);
            assert!(d.mean_noise > 100.0 && d.mean_noise < 1000.0);
        }
        assert!(worst_margin > 0, "a decryption failed");
    }

    #[test]
    fn homomorphic_addition_mostly_xors_plaintexts() {
        // Adding ciphertexts doubles the noise variance, so at the paper's
        // parameters a few of the 256 bit positions may flip — the test
        // asserts the XOR structure dominates and quantifies the damage.
        let ctx = ctx_p1();
        let mut rng = StdRng::seed_from_u64(8);
        let (pk, sk) = ctx.generate_keypair(&mut rng).unwrap();
        let m1: Vec<u8> = (0..32).map(|i| i as u8).collect();
        let m2: Vec<u8> = (0..32).map(|i| (i as u8).wrapping_mul(93) ^ 0x0F).collect();
        let ct1 = ctx.encrypt(&pk, &m1, &mut rng).unwrap();
        let ct2 = ctx.encrypt(&pk, &m2, &mut rng).unwrap();
        let sum = ctx.add_ciphertexts(&ct1, &ct2).unwrap();
        let got = ctx.decrypt(&sk, &sum).unwrap();
        let want: Vec<u8> = m1.iter().zip(&m2).map(|(a, b)| a ^ b).collect();
        let bit_errors: u32 = got
            .iter()
            .zip(&want)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert!(
            bit_errors <= 8,
            "noise doubled past usability: {bit_errors}/256 bits flipped"
        );
    }

    #[test]
    fn single_encryption_failure_rate_is_about_one_percent() {
        // Quantify the known failure probability of the P1 parameters.
        let ctx = ctx_p1();
        let mut rng = StdRng::seed_from_u64(10);
        let (pk, sk) = ctx.generate_keypair(&mut rng).unwrap();
        let msg = vec![0xC3u8; 32];
        let trials = 1000;
        let failures = (0..trials)
            .filter(|_| {
                let ct = ctx.encrypt(&pk, &msg, &mut rng).unwrap();
                ctx.diagnostics(&sk, &ct).unwrap().failed
            })
            .count();
        // ≈ 0.8% expected; allow 0..=3%.
        assert!(failures <= 30, "failure rate {failures}/1000 is anomalous");
    }

    #[test]
    fn uniform_poly_is_reduced_and_nonconstant() {
        let ctx = ctx_p1();
        let mut rng = StdRng::seed_from_u64(9);
        let a = ctx.sample_uniform(&mut rng);
        assert_eq!(a.len(), 256);
        assert!(a.as_slice().iter().all(|&c| c < 7681));
        assert!(a.as_slice().windows(2).any(|w| w[0] != w[1]));
    }
}
