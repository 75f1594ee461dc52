//! Context pooling: pay `RlweContext` construction once per parameter set.
//!
//! Building a context is expensive (it derives 192-bit-precision Gaussian
//! probability tables and NTT twiddle factors), while using one is cheap
//! and `&self`-only. The pool caches one [`Arc<RlweContext>`] per
//! [`ParamSet`] so a million requests share two table builds, and clones
//! of the `Arc` can be handed to worker threads without copying tables.

use rlwe_core::{ParamSet, RlweContext, RlweError, SamplerKind};
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

/// The one context knob a pooled context can be built with: the sampler
/// rung (notably [`SamplerKind::CtCdt`], the constant-time rung a
/// decapsulation server wants). The NTT kernel is not a knob — every
/// context picks it from the host.
///
/// The default config is what [`ContextPool::get`] serves; every distinct
/// config gets its own cached context per parameter set, so a process can
/// run a constant-time decapsulation pool next to a fastest-rung
/// encryption pool without rebuilding tables per request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ContextConfig {
    /// Sampler rung drawing the error polynomials (see [`SamplerKind`]).
    pub sampler: SamplerKind,
}

impl ContextConfig {
    /// The configuration every context defaults to.
    pub fn standard() -> Self {
        Self::default()
    }

    /// The constant-time serving configuration: [`SamplerKind::CtCdt`].
    pub fn constant_time() -> Self {
        Self {
            sampler: SamplerKind::CtCdt,
        }
    }
}

/// One cached non-default-config context, keyed by `(set, config)`.
type CustomEntry = ((ParamSet, ContextConfig), Arc<RlweContext>);

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
    // Two named sets exist; a fixed two-slot table beats a HashMap for
    // the default config, which is almost every lookup.
    slots: [Mutex<Option<Arc<RlweContext>>>; 2],
    // Non-default configs are rare (one or two per process); a scanned
    // vector under one lock is simpler than a map and just as fast.
    custom: Mutex<Vec<CustomEntry>>,
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

    /// The shared default-config context for `set`, building it on first
    /// use.
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

    /// The shared context for `(set, config)`, building it on first use —
    /// how an engine selects the constant-time sampler rung while still
    /// sharing tables process-wide.
    ///
    /// # Errors
    ///
    /// Propagates context construction failures (cannot happen for the
    /// named parameter sets, which are known-good).
    pub fn get_with(
        &self,
        set: ParamSet,
        config: ContextConfig,
    ) -> Result<Arc<RlweContext>, RlweError> {
        if config == ContextConfig::default() {
            return self.get(set);
        }
        let obs = pool_obs(set);
        let key = (set, config);
        {
            let custom = self.custom.lock().expect("context pool lock poisoned");
            if let Some((_, ctx)) = custom.iter().find(|(k, _)| *k == key) {
                obs.hits.inc();
                return Ok(Arc::clone(ctx));
            }
        }
        obs.misses.inc();
        // Build outside the lock: the ~5 ms table construction must not
        // serialize unrelated configs or block cache hits. Two racers for
        // the *same* key may both build; the first insert wins and the
        // loser's context is dropped — a rarer and cheaper cost than a
        // process-wide stall.
        let t0 = Instant::now();
        let built = Arc::new(RlweContext::builder(set).sampler(config.sampler).build()?);
        obs.build_ns.record(t0.elapsed());
        let mut custom = self.custom.lock().expect("context pool lock poisoned");
        if let Some((_, ctx)) = custom.iter().find(|(k, _)| *k == key) {
            return Ok(Arc::clone(ctx));
        }
        custom.push((key, Arc::clone(&built)));
        Ok(built)
    }

    /// Whether any context for `set` has already been built (default
    /// config or custom); mirrors the scope of [`ContextPool::evict`].
    pub fn is_cached(&self, set: ParamSet) -> bool {
        self.slots[slot_index(set)]
            .lock()
            .expect("context pool lock poisoned")
            .is_some()
            || self
                .custom
                .lock()
                .expect("context pool lock poisoned")
                .iter()
                .any(|((s, _), _)| *s == set)
    }

    /// Drops every cached context for `set` — the default slot and any
    /// custom-config entries (subsequent gets rebuild). Outstanding
    /// `Arc`s stay valid.
    pub fn evict(&self, set: ParamSet) {
        self.slots[slot_index(set)]
            .lock()
            .expect("context pool lock poisoned")
            .take();
        self.custom
            .lock()
            .expect("context pool lock poisoned")
            .retain(|((s, _), _)| *s != set);
    }
}

/// The process-wide pool used by [`crate::Engine`] unless a private one is
/// supplied.
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
        assert!(!pool.is_cached(ParamSet::P1));
        let a = pool.get(ParamSet::P1).unwrap();
        assert!(pool.is_cached(ParamSet::P1));
        let b = pool.get(ParamSet::P1).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        // P2 is a distinct slot.
        assert!(!pool.is_cached(ParamSet::P2));
        let c = pool.get(ParamSet::P2).unwrap();
        assert_eq!(c.params().n(), 512);
    }

    #[test]
    fn evict_forces_rebuild_without_invalidating_loans() {
        let pool = ContextPool::new();
        let a = pool.get(ParamSet::P1).unwrap();
        pool.evict(ParamSet::P1);
        assert!(!pool.is_cached(ParamSet::P1));
        let b = pool.get(ParamSet::P1).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        // The evicted loan still works.
        assert_eq!(a.params().n(), 256);
    }

    #[test]
    fn custom_configs_get_their_own_cached_context() {
        let pool = ContextPool::new();
        let default = pool.get(ParamSet::P1).unwrap();
        // The default config routes to the same slot as get().
        let same = pool
            .get_with(ParamSet::P1, ContextConfig::standard())
            .unwrap();
        assert!(Arc::ptr_eq(&default, &same));
        // A constant-time config builds once and is cached thereafter.
        assert!(!pool.is_cached(ParamSet::P2));
        let ct2_ctx = pool
            .get_with(ParamSet::P2, ContextConfig::constant_time())
            .unwrap();
        assert!(
            pool.is_cached(ParamSet::P2),
            "custom entries count as cached"
        );
        assert_eq!(ct2_ctx.params().n(), 512);
        let ct1 = pool
            .get_with(ParamSet::P1, ContextConfig::constant_time())
            .unwrap();
        let ct2 = pool
            .get_with(ParamSet::P1, ContextConfig::constant_time())
            .unwrap();
        assert!(Arc::ptr_eq(&ct1, &ct2));
        assert!(!Arc::ptr_eq(&default, &ct1));
        assert_eq!(ct1.sampler_kind(), SamplerKind::CtCdt);
        // Eviction clears custom entries too.
        pool.evict(ParamSet::P1);
        let ct3 = pool
            .get_with(ParamSet::P1, ContextConfig::constant_time())
            .unwrap();
        assert!(!Arc::ptr_eq(&ct1, &ct3));
    }

    #[test]
    fn specialized_plan_dispatch_is_selected_for_the_paper_sets() {
        // The CI-pinned dispatch gate: every pooled P1/P2 context —
        // default and custom config alike — must run on the
        // monomorphized special-prime reducer, never the generic
        // Barrett fallback, and on the AVX2 NTT whenever the host has
        // it. A regression here silently costs the whole serving layer
        // the specialized kernels.
        use rlwe_core::{NttBackend, ReducerKind};
        let pool = ContextPool::new();
        assert_eq!(
            pool.get(ParamSet::P1).unwrap().reducer_kind(),
            ReducerKind::Q7681
        );
        assert_eq!(
            pool.get(ParamSet::P2).unwrap().reducer_kind(),
            ReducerKind::Q12289
        );
        let avx2 = rlwe_ntt::avx2::available();
        for set in [ParamSet::P1, ParamSet::P2] {
            let ct = pool.get_with(set, ContextConfig::constant_time()).unwrap();
            assert_ne!(
                ct.reducer_kind(),
                ReducerKind::Barrett,
                "{set}: constant-time config lost the specialized plan"
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
