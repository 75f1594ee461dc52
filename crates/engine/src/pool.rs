//! Context pooling: pay `RlweContext` construction once per parameter set.
//!
//! Building a context is expensive (it derives 192-bit-precision Gaussian
//! probability tables and NTT twiddle factors), while using one is cheap
//! and `&self`-only. The pool caches one [`Arc<RlweContext>`] per
//! [`ParamSet`] so a million requests share two table builds, and clones
//! of the `Arc` can be handed to worker threads without copying tables.
//!
//! The pool has no configuration: every context it holds is
//! `RlweContext::new(set)`, with the NTT picked from the host. A server
//! that wants another sampler builds its one context with
//! `RlweContext::builder(set).sampler(..)` and holds it itself. Nor does
//! it record metrics: a server calls `get` once, at start-up.

use rlwe_core::{ParamSet, RlweContext, RlweError};
use std::sync::{Arc, Mutex, OnceLock};

/// A cache of ready-to-use contexts, one per parameter set.
///
/// Cheap to clone conceptually — hand out [`Arc`]s via
/// [`ContextPool::get`]. Thread-safe; the first caller per set builds
/// while holding that set's slot lock, so concurrent callers for the
/// *same* uncached set wait for that one build (~5 ms) instead of
/// duplicating it; callers for the other set are unaffected, and every
/// later call is a lock-protected pointer clone.
///
/// # Example
///
/// ```
/// use rlwe_engine::ContextPool;
/// use rlwe_core::ParamSet;
///
/// let pool = ContextPool::new();
/// let a = pool.get(ParamSet::P1).unwrap();
/// let b = pool.get(ParamSet::P1).unwrap();
/// assert!(std::sync::Arc::ptr_eq(&a, &b), "second get is a cache hit");
/// ```
#[derive(Debug, Default)]
pub struct ContextPool {
    // Two named sets exist, so a fixed two-slot table replaces a map.
    slots: [Mutex<Option<Arc<RlweContext>>>; 2],
}

fn slot_index(set: ParamSet) -> usize {
    match set {
        ParamSet::P1 => 0,
        ParamSet::P2 => 1,
    }
}

impl ContextPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared context for `set`, building it on first use.
    ///
    /// # Errors
    ///
    /// Propagates context construction failures (cannot happen for the
    /// named parameter sets, which are known-good).
    pub fn get(&self, set: ParamSet) -> Result<Arc<RlweContext>, RlweError> {
        let mut slot = self.slots[slot_index(set)]
            .lock()
            .expect("context pool lock poisoned");
        if let Some(ctx) = slot.as_ref() {
            return Ok(Arc::clone(ctx));
        }
        let ctx = Arc::new(RlweContext::new(set)?);
        *slot = Some(Arc::clone(&ctx));
        Ok(ctx)
    }
}

/// The process-wide pool a server draws its context from.
pub fn global() -> &'static ContextPool {
    static GLOBAL: OnceLock<ContextPool> = OnceLock::new();
    GLOBAL.get_or_init(ContextPool::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_caches_per_set() {
        let pool = ContextPool::new();
        let a = pool.get(ParamSet::P1).unwrap();
        let b = pool.get(ParamSet::P1).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.params().n(), 256);
        // P2 is a distinct slot.
        let c = pool.get(ParamSet::P2).unwrap();
        assert_eq!(c.params().n(), 512);
        // A second pool builds its own contexts.
        assert!(!Arc::ptr_eq(
            &a,
            &ContextPool::new().get(ParamSet::P1).unwrap()
        ));
    }

    #[test]
    fn specialized_plan_dispatch_is_selected_for_the_paper_sets() {
        // The CI-pinned dispatch gate: every P1/P2 context — pooled, and
        // built with the constant-time sampler a decapsulation server
        // wants — must run on the monomorphized special-prime reducer,
        // never the generic Barrett fallback, and on the AVX2 NTT
        // whenever the host has it. Neither regression fails a
        // correctness test. The AVX2 NTT takes q and 2q at run time and
        // uses no `Reducer`, so on an AVX2 host the reducer reaches only
        // the pointwise products, the sampler residues and the
        // scalar-NTT fallback; without AVX2 it reaches every transform.
        use rlwe_core::{NttBackend, ReducerKind, SamplerKind};
        let pool = ContextPool::new();
        assert_eq!(
            pool.get(ParamSet::P1).unwrap().reducer_kind(),
            ReducerKind::Q7681
        );
        assert_eq!(
            pool.get(ParamSet::P2).unwrap().reducer_kind(),
            ReducerKind::Q12289
        );
        let avx2 = rlwe_zq::cpu::avx2();
        for set in [ParamSet::P1, ParamSet::P2] {
            let ct = Arc::new(
                RlweContext::builder(set)
                    .sampler(SamplerKind::CtCdt)
                    .build()
                    .unwrap(),
            );
            assert_eq!(ct.sampler_kind(), SamplerKind::CtCdt);
            assert_ne!(
                ct.reducer_kind(),
                ReducerKind::Barrett,
                "{set}: constant-time context lost the specialized plan"
            );
            for ctx in [pool.get(set).unwrap(), ct] {
                assert_eq!(
                    ctx.backend() == NttBackend::Avx2,
                    avx2,
                    "{set}: NTT backend does not follow host AVX2 support"
                );
            }
        }
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = global().get(ParamSet::P1).unwrap();
        let b = global().get(ParamSet::P1).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn pool_is_shareable_across_threads() {
        let pool = ContextPool::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| pool.get(ParamSet::P1).unwrap()))
                .collect();
            let ctxs: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            for pair in ctxs.windows(2) {
                assert!(Arc::ptr_eq(&pair[0], &pair[1]));
            }
        });
    }
}
