//! Which kernels a serving context and its session frames run on this
//! host, as the constant `rlwe_build_info` gauge.

use rlwe_core::RlweContext;
use std::fmt;

/// The kernels behind one context and the frame AEAD on this CPU,
/// exported as `rlwe_build_info{chacha_backend, poly1305_backend,
/// ntt_backend, reducer, sampler, sha_backend, cpu_features} 1`, the one
/// series that says which kernels are live. Every label is a public
/// property of the build, the parameter set and the CPU, read from
/// [`rlwe_zq::cpu`] through the same checks the kernels dispatch on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildInfo {
    /// ChaCha20's vector kernel: `avx512f` (16 lanes on zmm), `avx2`
    /// (8 lanes on ymm) or `scalar`.
    pub chacha_backend: &'static str,
    /// Poly1305's vector kernel: `avx512ifma` (8 lanes of radix 2⁴⁴),
    /// `avx2` (4 lanes of radix 2²⁶) or `scalar`.
    pub poly1305_backend: &'static str,
    /// The context's NTT: `avx2` or `reference`.
    pub ntt_backend: &'static str,
    /// The context's modular reducer: `q7681` or `q12289` for the
    /// paper's primes, `barrett` otherwise.
    pub reducer: &'static str,
    /// The context's sampler and its kernel, e.g. `ct_cdt/avx2`.
    pub sampler: String,
    /// The SHA-256 compression: `sha_ni` or `scalar`.
    pub sha_backend: &'static str,
    /// The detected CPU features, e.g. `avx2+avx512f+avx512ifma+sha_ni`,
    /// or `none`.
    pub cpu_features: String,
}

impl BuildInfo {
    /// What `ctx` and the frame and hash kernels run on this CPU.
    pub fn detect(ctx: &RlweContext) -> Self {
        let hash = rlwe_hash::backends();
        Self {
            chacha_backend: hash.chacha20,
            poly1305_backend: hash.poly1305,
            ntt_backend: ctx.backend_label(),
            reducer: ctx.reducer_kind().label(),
            sampler: format!("{}/{}", ctx.sampler_kind().label(), ctx.sampler_backend()),
            sha_backend: hash.sha256,
            cpu_features: rlwe_zq::cpu::features(),
        }
    }

    fn labels(&self) -> [(&'static str, &str); 7] {
        [
            ("chacha_backend", self.chacha_backend),
            ("poly1305_backend", self.poly1305_backend),
            ("ntt_backend", self.ntt_backend),
            ("reducer", self.reducer),
            ("sampler", &self.sampler),
            ("sha_backend", self.sha_backend),
            ("cpu_features", &self.cpu_features),
        ]
    }

    /// Sets the `rlwe_build_info` series for these labels to 1 in the
    /// global registry.
    pub fn export(&self) {
        rlwe_obs::global()
            .gauge(
                "rlwe_build_info",
                "Kernels this build runs on this host (constant 1).",
                &self.labels(),
            )
            .set(1);
    }
}

/// The series as `/metrics` renders it, for a start-up log line.
impl fmt::Display for BuildInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("rlwe_build_info{")?;
        for (i, (k, v)) in self.labels().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(f, "{sep}{k}=\"{v}\"")?;
        }
        f.write_str("} 1")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlwe_core::ParamSet;

    #[test]
    fn display_is_the_rendered_series() {
        let ctx = crate::global_pool().get(ParamSet::P1).unwrap();
        let info = BuildInfo::detect(&ctx);
        info.export();
        let line = info.to_string();
        assert!(
            rlwe_obs::render().lines().any(|l| l == line),
            "{line} is not on the rendered page"
        );
        assert_eq!(info.ntt_backend, ctx.backend_label());
        assert_eq!(info.reducer, "q7681");
        // Scrapers that split a label block on commas (perfbench's does)
        // must read every value whole.
        for (k, v) in info.labels() {
            assert!(
                !v.is_empty() && !v.contains([',', '"', '\\', ' ', '{', '}']),
                "{k}={v:?} is not a plain label value"
            );
        }
    }
}
