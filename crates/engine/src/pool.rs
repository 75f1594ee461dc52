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
//! `RlweContext::builder(set).sampler(..)` and holds it itself.

use rlwe_core::{ParamSet, RlweContext, RlweError};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Global-registry handles for one parameter set's pool traffic.
struct PoolObs {
    hits: rlwe_obs::Counter,
    misses: rlwe_obs::Counter,
    build_ns: rlwe_obs::Histogram,
}

/// The per-set pool series, registered once per process. Every
/// [`ContextPool`] (global or private) reports into the same series —
/// the pool dimension that matters operationally is the parameter set,
/// not the pool instance.
fn pool_obs(set: ParamSet) -> &'static PoolObs {
    static OBS: OnceLock<[PoolObs; 2]> = OnceLock::new();
    let all = OBS.get_or_init(|| {
        let reg = rlwe_obs::global();
        let one = |label: &str| PoolObs {
            hits: reg.counter(
                "rlwe_pool_hits_total",
                "Context pool lookups served from cache.",
                &[("param_set", label)],
            ),
            misses: reg.counter(
                "rlwe_pool_misses_total",
                "Context pool lookups that had to build a context.",
                &[("param_set", label)],
            ),
            build_ns: reg.histogram(
                "rlwe_pool_build_ns",
                "Wall-clock cost of each context build (tables + plans).",
                &[("param_set", label)],
            ),
        };
        [one("P1"), one("P2")]
    });
    &all[slot_index(set)]
}

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
        let obs = pool_obs(set);
        let mut slot = self.slots[slot_index(set)]
            .lock()
            .expect("context pool lock poisoned");
        if let Some(ctx) = slot.as_ref() {
            obs.hits.inc();
            return Ok(Arc::clone(ctx));
        }
        obs.misses.inc();
        let t0 = Instant::now();
        let ctx = Arc::new(RlweContext::new(set)?);
        obs.build_ns.record(t0.elapsed());
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
        // whenever the host has it. A regression here silently costs
        // the whole serving layer the specialized kernels.
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
