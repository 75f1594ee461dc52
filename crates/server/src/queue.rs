//! The bounded MPMC submission queue, with explicit backpressure.
//!
//! The acceptor pushes accepted connections; workers pop them. The
//! queue is one `Mutex<VecDeque>` + `Condvar` pair with a hard capacity
//! that every worker waits on, so any push wakes an idle worker.
//! [`BoundedQueue::push`] never blocks and never grows the queue past
//! its bound — when it is full the item comes straight back to the
//! caller, which is the server's cue to answer `Busy` and close. That
//! is the whole load-shedding contract: *memory stays bounded because
//! excess work is refused at the front door, not queued.*
//!
//! [`BoundedQueue::close`] wakes everyone; pops then drain whatever is
//! still queued and return `None` only when the queue is both closed
//! and empty — the graceful-shutdown drain rides on exactly that
//! property.

use rlwe_obs::Gauge;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// See the [module docs](self).
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    capacity: usize,
    depth: Gauge,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items. `depth` mirrors the
    /// live depth into the metrics registry; pass an unregistered gauge
    /// in tests.
    ///
    /// # Panics
    ///
    /// If `capacity == 0`.
    pub fn new(capacity: usize, depth: Gauge) -> Self {
        assert!(capacity >= 1);
        Self {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity,
            depth,
        }
    }

    /// Tries to enqueue `item`. Returns `Err(item)` when the queue is
    /// at capacity (the caller sheds) or closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = lock_recover(&self.state);
        if state.closed || state.items.len() >= self.capacity {
            return Err(item);
        }
        state.items.push_back(item);
        self.depth.set(state.items.len() as i64);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Pops one item, blocking up to `patience` while the queue is
    /// empty and open. Returns `None` on timeout with nothing queued,
    /// or when the queue is closed **and** drained.
    pub fn pop(&self, patience: Duration) -> Option<T> {
        let state = lock_recover(&self.state);
        let (mut state, _timeout) = self
            .ready
            .wait_timeout_while(state, patience, |s| s.items.is_empty() && !s.closed)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let item = state.items.pop_front();
        if item.is_some() {
            self.depth.set(state.items.len() as i64);
        }
        item
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        lock_recover(&self.state).items.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Refuses further pushes and wakes every blocked popper. Already-
    /// queued items remain poppable (drain semantics).
    pub fn close(&self) {
        lock_recover(&self.state).closed = true;
        self.ready.notify_all();
    }

    /// Whether [`BoundedQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        lock_recover(&self.state).closed
    }
}

/// Locks `m`, recovering from poisoning instead of panicking.
///
/// Queue state cannot be left torn by a peer that panicked inside a
/// critical section: every section performs a single `VecDeque`
/// push/pop or flag store (plus a gauge store), each of which completes
/// or does not happen. Recovering keeps the accept/drain path alive
/// even if a worker thread dies, instead of cascading the panic through
/// every thread that touches the queue.
fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn push_sheds_at_capacity() {
        let q = BoundedQueue::new(2, Gauge::new());
        assert_eq!(q.push('a'), Ok(()));
        assert_eq!(q.push('b'), Ok(()));
        // Full: the item comes back — the shed path.
        assert_eq!(q.push('c'), Err('c'));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(Duration::from_millis(1)), Some('a'));
        assert_eq!(q.push('c'), Ok(()));
    }

    #[test]
    fn a_push_wakes_a_blocked_popper() {
        let q = Arc::new(BoundedQueue::new(4, Gauge::new()));
        let popper = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let t0 = std::time::Instant::now();
                (q.pop(Duration::from_secs(30)), t0.elapsed())
            })
        };
        // Let the popper block before the push arrives.
        std::thread::sleep(Duration::from_millis(20));
        q.push(7u32).unwrap();
        let (item, waited) = popper.join().unwrap();
        assert_eq!(item, Some(7));
        assert!(
            waited < Duration::from_secs(10),
            "the push did not wake the popper: {waited:?}"
        );
    }

    #[test]
    fn close_drains_then_returns_none() {
        let q = BoundedQueue::new(4, Gauge::new());
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert_eq!(q.push(3), Err(3), "closed queue must refuse pushes");
        assert_eq!(q.pop(Duration::from_millis(1)), Some(1));
        assert_eq!(q.pop(Duration::from_millis(1)), Some(2));
        assert_eq!(q.pop(Duration::from_millis(1)), None);
    }

    #[test]
    fn depth_gauges_track_push_and_pop() {
        let g = Gauge::new();
        let q = BoundedQueue::new(4, g.clone());
        q.push('x').unwrap();
        assert_eq!(g.get(), 1);
        q.pop(Duration::from_millis(1)).unwrap();
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn concurrent_producers_and_consumers_conserve_items() {
        let q = Arc::new(BoundedQueue::new(16, Gauge::new()));
        let produced = 4 * 50;
        let consumed = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for t in 0..4usize {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..50usize {
                        let mut item = t * 1000 + i;
                        // Bounded queue: spin until accepted.
                        while let Err(back) = q.push(item) {
                            item = back;
                            std::thread::yield_now();
                        }
                    }
                });
            }
            for _ in 0..3 {
                let q = Arc::clone(&q);
                let consumed = Arc::clone(&consumed);
                s.spawn(move || loop {
                    match q.pop(Duration::from_millis(20)) {
                        Some(_) => {
                            consumed.fetch_add(1, Ordering::Relaxed);
                        }
                        None if q.is_closed() => break,
                        None => {}
                    }
                });
            }
            // Give producers time to finish, then close to release
            // the consumers.
            while consumed.load(Ordering::Relaxed) < produced {
                std::thread::yield_now();
            }
            q.close();
        });
        assert_eq!(consumed.load(Ordering::Relaxed), produced);
        assert!(q.is_empty());
    }
}
