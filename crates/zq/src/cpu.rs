//! The workspace's one CPU-feature detection point.
//!
//! Every runtime-dispatched kernel — the AVX2 NTT and sampler, the
//! SHA-NI compression, the AVX2 ChaCha20 and Poly1305 kernels — asks
//! here before it takes its vector path. Each answer is cached by
//! `std`, so hot paths can call these per operation. Both are `false`
//! on targets other than x86_64.
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
