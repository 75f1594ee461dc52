//! Sharded lock-free nanosecond histograms with consistent snapshots.
//!
//! Power-of-two nanosecond buckets with within-bucket interpolated
//! quantiles. All statistics are derived from one [`HistogramSnapshot`],
//! a single pass over the cells, so a concurrent reader always sees the
//! count, sum and quantiles of one set of completed records. This is the
//! workspace's only histogram type.
//!
//! Recording is a shard pick (thread-local, assigned round-robin on
//! first use) plus four `fetch_add`s — no locks, no CAS loops. Two of
//! them bracket the cell updates (`started` / `finished`), so a snapshot
//! can tell whether a writer was mid-update while it read a shard and
//! re-read that shard if so: count and sum always come from the same
//! set of completed records.

use std::fmt;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Number of power-of-two buckets: bucket `i` holds values in
/// `[2^i, 2^(i+1))` nanoseconds (bucket 0 also includes 0). 40 buckets
/// reach `2^40` ns ≈ 18 minutes, far beyond any latency recorded here.
pub const BUCKETS: usize = 40;

/// Number of independent shards. Each recording thread sticks to one
/// shard, so concurrent writers on different cores rarely contend on a
/// cache line; snapshots sum across shards.
const SHARDS: usize = 8;

struct Shard {
    /// Records that have begun updating the cells below.
    started: AtomicU64,
    counts: [AtomicU64; BUCKETS],
    sum_ns: AtomicU64,
    /// Records whose cell updates are complete.
    finished: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Self {
            started: AtomicU64::new(0),
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
            finished: AtomicU64::new(0),
        }
    }

    /// One record: `started`, then the cells, then `finished`. The
    /// Release fence orders `started` before the cell updates and pairs
    /// with the Acquire fence in [`Shard::read_into`]; the Release add on
    /// `finished` pairs with that function's Acquire load of it.
    fn record(&self, bucket: usize, ns: u64) {
        self.started.fetch_add(1, Ordering::Relaxed);
        fence(Ordering::Release);
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.finished.fetch_add(1, Ordering::Release);
    }

    /// Adds this shard's cells into `counts` and returns its sum. The
    /// read is retried until no record was in flight during it — the
    /// same protocol as a sequence lock, with `finished` read before the
    /// cells and `started` after them.
    fn read_into(&self, counts: &mut [u64; BUCKETS]) -> u64 {
        let mut spins = 0u32;
        loop {
            let done = self.finished.load(Ordering::Acquire);
            let mut local = [0u64; BUCKETS];
            for (acc, cell) in local.iter_mut().zip(self.counts.iter()) {
                *acc = cell.load(Ordering::Relaxed);
            }
            let sum = self.sum_ns.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            if self.started.load(Ordering::Relaxed) == done {
                for (acc, c) in counts.iter_mut().zip(local) {
                    *acc += c;
                }
                return sum;
            }
            spins += 1;
            if spins.is_multiple_of(64) {
                // A writer was preempted mid-record; let it finish.
                std::thread::yield_now();
            }
        }
    }
}

/// The shard a thread records into: assigned round-robin the first time
/// the thread touches any histogram, then cached thread-locally.
fn shard_index() -> usize {
    use std::cell::Cell;
    thread_local! {
        static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    SHARD.with(|s| {
        let mut i = s.get();
        if i == usize::MAX {
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            i = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
            s.set(i);
        }
        i
    })
}

/// A sharded lock-free nanosecond histogram handle.
///
/// Cheap to clone — clones share the underlying cells, which is how
/// registry handles work: resolve once, record everywhere.
#[derive(Clone)]
pub struct Histogram {
    shards: Arc<[Shard; SHARDS]>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.snapshot();
        write!(
            f,
            "Histogram {{ count: {}, sum_ns: {} }}",
            s.len(),
            s.sum_ns()
        )
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            shards: Arc::new(std::array::from_fn(|_| Shard::new())),
        }
    }

    /// The bucket index holding `ns`.
    #[inline]
    fn bucket(ns: u64) -> usize {
        ((63 - ns.max(1).leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// Lower and upper bound (ns) of bucket `i`, as used by the
    /// interpolated quantile: `[lo, hi)` with `lo = 0` for bucket 0.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        let lo = if i == 0 { 0 } else { 1u64 << i };
        (lo, 1u64 << (i + 1))
    }

    /// Records one value in nanoseconds: four atomic adds on one shard.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.shards[shard_index()].record(Self::bucket(ns), ns);
    }

    /// Records one duration (saturating at `u64::MAX` ns ≈ 584 years).
    #[inline]
    pub fn record(&self, d: Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64)
    }

    /// One consistent copy: a single sweep over all shards, each shard
    /// read while no record was in flight on it. Every statistic
    /// ([`HistogramSnapshot::len`], [`HistogramSnapshot::mean_ns`],
    /// [`HistogramSnapshot::quantile_ns`]) is derived from this copy,
    /// never from a re-scan of the live cells.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; BUCKETS];
        let mut sum_ns = 0u64;
        for shard in self.shards.iter() {
            sum_ns = sum_ns.wrapping_add(shard.read_into(&mut counts));
        }
        let count = counts.iter().sum();
        HistogramSnapshot {
            counts,
            count,
            sum_ns,
        }
    }
}

/// A frozen copy of a [`Histogram`]'s cells; all statistics derive from
/// the same instant, so `len`, `mean_ns` and every quantile agree.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    counts: [u64; BUCKETS],
    count: u64,
    sum_ns: u64,
}

impl HistogramSnapshot {
    /// Number of recorded samples.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all recorded values (ns).
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Per-bucket counts (bucket `i` covers [`Histogram::bucket_bounds`]).
    pub fn counts(&self) -> &[u64; BUCKETS] {
        &self.counts
    }

    /// Mean recorded value in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum_ns as f64 / self.count as f64
    }

    /// The `q`-quantile in nanoseconds, `q` in `[0, 1]`, with linear
    /// interpolation inside the containing bucket: samples in a bucket
    /// are assumed uniformly spread over `[lo, hi)`, so the estimate is
    /// `lo + (hi - lo) · rank_within_bucket / bucket_count` instead of
    /// the bucket's upper bound. Returns 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (seen + c) as f64 >= rank {
                let (lo, hi) = Histogram::bucket_bounds(i);
                let frac = (rank - seen as f64) / c as f64;
                return lo as f64 + (hi - lo) as f64 * frac;
            }
            seen += c;
        }
        // Unreachable while count == sum(counts); keep a sane fallback.
        Histogram::bucket_bounds(BUCKETS - 1).1 as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2_nanoseconds() {
        assert_eq!(Histogram::bucket(0), 0);
        assert_eq!(Histogram::bucket(1), 0);
        assert_eq!(Histogram::bucket(2), 1);
        assert_eq!(Histogram::bucket(3), 1);
        assert_eq!(Histogram::bucket(4), 2);
        assert_eq!(Histogram::bucket(1024), 10);
        assert_eq!(Histogram::bucket(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_tile_the_axis() {
        assert_eq!(Histogram::bucket_bounds(0), (0, 2));
        for i in 1..BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert_eq!(lo, Histogram::bucket_bounds(i - 1).1);
            assert_eq!(hi, 2 * lo);
        }
    }

    #[test]
    fn snapshot_is_internally_consistent() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record_ns(100);
        }
        for _ in 0..10 {
            h.record_ns(5000);
        }
        let s = h.snapshot();
        assert_eq!(s.len(), 100);
        assert_eq!(s.sum_ns(), 90 * 100 + 10 * 5000);
        assert_eq!(s.counts().iter().sum::<u64>(), s.len());
        assert!((s.mean_ns() - 590.0).abs() < 1e-9);
        // p50 lands in bucket [64, 128); p99 in [4096, 8192).
        let p50 = s.quantile_ns(0.5);
        assert!((64.0..128.0).contains(&p50), "p50 = {p50}");
        let p99 = s.quantile_ns(0.99);
        assert!((4096.0..8192.0).contains(&p99), "p99 = {p99}");
    }

    #[test]
    fn interpolation_moves_within_the_bucket() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record_ns(70); // all in bucket [64, 128)
        }
        let s = h.snapshot();
        // Low quantiles sit near the bucket's low edge, high near the top.
        assert!(s.quantile_ns(0.01) < s.quantile_ns(0.99));
        assert!(s.quantile_ns(1.0) <= 128.0);
        assert!(s.quantile_ns(0.0) > 64.0 - 1e-9);
    }

    #[test]
    fn empty_histogram_is_well_behaved() {
        let s = Histogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.quantile_ns(0.5), 0.0);
        assert_eq!(s.mean_ns(), 0.0);
    }

    #[test]
    fn duration_recording_saturates_not_wraps() {
        let h = Histogram::new();
        h.record(Duration::from_micros(3));
        let s = h.snapshot();
        assert_eq!(s.len(), 1);
        assert_eq!(s.sum_ns(), 3000);
    }

    #[test]
    fn clones_share_cells() {
        let h = Histogram::new();
        let h2 = h.clone();
        h.record_ns(10);
        h2.record_ns(20);
        assert_eq!(h.snapshot().len(), 2);
    }
}
