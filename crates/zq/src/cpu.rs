//! The workspace's one CPU-feature detection point.
//!
//! Every runtime-dispatched kernel — the AVX2 NTT and sampler, the
//! SHA-NI compression, the AVX-512VL and AVX2 ChaCha20 flavours and the
//! AVX2 Poly1305 kernel — asks here before it takes its vector path.
//! Each answer is cached by `std`, so hot paths can call these per
//! operation. All are `false` on targets other than x86_64.
//!
//! # Example
//!
//! ```
//! // A host either has AVX2 or runs the portable kernels; both are correct.
//! let _wide = rlwe_zq::cpu::avx2();
//! ```

/// Whether the running CPU supports the AVX2 instruction set.
#[inline]
pub fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the running CPU supports AVX2, AVX-512F and AVX-512VL: the
/// EVEX encodings of the 256-bit instructions (`vprold ymm`, registers
/// ymm16–31). The ChaCha20 kernel uses them on ymm registers only; no
/// kernel in the workspace touches a zmm register.
#[inline]
pub fn avx512vl() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        avx2()
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vl")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the running CPU has the SHA extensions, plus the SSSE3 and
/// SSE4.1 shuffles the SHA-NI compression leans on (in practice always
/// present alongside SHA-NI).
#[inline]
pub fn sha_ni() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The features above that the running CPU has, joined by `+` in a
/// fixed order (`"avx2+avx512vl+sha_ni"` on a host with all three), or
/// `"none"`: a stable, public metric-label value. It holds no comma, so
/// scrapers that split a label block on commas read it whole.
pub fn features() -> String {
    let names: Vec<&str> = [
        ("avx2", avx2()),
        ("avx512vl", avx512vl()),
        ("sha_ni", sha_ni()),
    ]
    .into_iter()
    .filter_map(|(name, present)| present.then_some(name))
    .collect();
    if names.is_empty() {
        "none".into()
    } else {
        names.join("+")
    }
}
