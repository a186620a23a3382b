//! A bounded multi-producer queue with blocking backpressure.
//!
//! Each shard owns one ingress queue. Producers (publishers, the control plane's
//! invalidation broadcasts) push from any thread; the shard's worker thread drains in
//! batches to amortise lock traffic. When the queue is full, [`BoundedQueue::push`]
//! blocks the producer — backpressure instead of unbounded memory.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Condvar;

use parking_lot::Mutex;

/// How many times a consumer yields the CPU re-checking an empty queue before parking
/// on the condvar. Spinning (with `yield_now`, so producers get the core) avoids a
/// park/wake syscall pair per batch when producers are active — the dominant cost of
/// fine-grained sharding on few cores.
const EMPTY_SPINS: usize = 32;

/// A bounded FIFO queue: blocking pushes, batch pops.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    inner: Mutex<VecDeque<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    /// Consumers currently parked on `not_empty`; producers skip the notify syscall
    /// when nobody is waiting. Only written under the lock.
    waiting_consumers: AtomicUsize,
    /// Times a consumer exhausted its spin budget and parked on the condvar
    /// (telemetry; incremented on the park slow path only).
    consumer_parks: AtomicU64,
    /// Times a producer found the queue full and had to wait (telemetry; incremented
    /// on the full slow path only).
    producer_waits: AtomicU64,
    capacity: usize,
}

/// Contention counters of a [`BoundedQueue`]: how often its slow paths ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueContention {
    /// Consumer parks: `pop_batch` exhausted its spin budget on an empty queue and
    /// parked on the condvar (a park/wake syscall pair per count).
    pub consumer_parks: u64,
    /// Producer waits: `push` found the queue full and blocked until a batch drained
    /// (ingress backpressure events).
    pub producer_waits: u64,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        BoundedQueue {
            inner: Mutex::new(VecDeque::with_capacity(capacity)),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            waiting_consumers: AtomicUsize::new(0),
            consumer_parks: AtomicU64::new(0),
            producer_waits: AtomicU64::new(0),
            capacity,
        }
    }

    /// The maximum number of queued items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of items currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// How often this queue's slow paths ran (consumer parks, producer waits).
    pub fn contention(&self) -> QueueContention {
        QueueContention {
            consumer_parks: self.consumer_parks.load(Ordering::Relaxed),
            producer_waits: self.producer_waits.load(Ordering::Relaxed),
        }
    }

    /// Pushes an item, blocking while the queue is full (backpressure). Returns the
    /// queue length right after the push, letting producers feed a depth
    /// high-water-mark gauge without an extra lock acquisition.
    pub fn push(&self, item: T) -> usize {
        let mut queue = self.inner.lock();
        if queue.len() >= self.capacity {
            self.producer_waits.fetch_add(1, Ordering::Relaxed);
            while queue.len() >= self.capacity {
                queue =
                    self.not_full.wait(queue).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
        queue.push_back(item);
        let depth = queue.len();
        // Checked under the lock: a consumer either already parked (gets the notify)
        // or has not yet incremented the count and will re-check the queue before
        // parking. Skipping the notify when nobody waits removes a syscall per push.
        let wake = self.waiting_consumers.load(Ordering::Relaxed) > 0;
        drop(queue);
        if wake {
            self.not_empty.notify_one();
        }
        depth
    }

    /// Blocks until at least one item is available, then moves up to `max` items into
    /// `out` (which is cleared first). Returns how many items were popped.
    ///
    /// An empty queue is first retried a bounded number of times with `yield_now`
    /// (letting producers run) before parking on the condvar.
    pub fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        out.clear();
        let mut spins = 0;
        let mut queue = loop {
            let queue = self.inner.lock();
            if !queue.is_empty() {
                break queue;
            }
            if spins < EMPTY_SPINS {
                spins += 1;
                drop(queue);
                std::thread::yield_now();
                continue;
            }
            // Park: the count is raised under the lock, so a producer that pushes
            // after we release it (inside `wait`) is guaranteed to see it and notify.
            self.consumer_parks.fetch_add(1, Ordering::Relaxed);
            self.waiting_consumers.fetch_add(1, Ordering::Relaxed);
            let mut queue = queue;
            while queue.is_empty() {
                queue =
                    self.not_empty.wait(queue).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            self.waiting_consumers.fetch_sub(1, Ordering::Relaxed);
            break queue;
        };
        let was_full = queue.len() >= self.capacity;
        let take = queue.len().min(max.max(1));
        out.extend(queue.drain(..take));
        drop(queue);
        // Producers only park when the queue is full; a batch frees `take` slots at
        // once, so wake them all.
        if was_full {
            self.not_full.notify_all();
        }
        take
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn fifo_order_and_batch_pop() {
        let q = BoundedQueue::new(8);
        for n in 0..5 {
            q.push(n);
        }
        assert_eq!(q.len(), 5);
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(&mut out, 3), 3);
        assert_eq!(out, vec![0, 1, 2]);
        assert_eq!(q.pop_batch(&mut out, 10), 2);
        assert_eq!(out, vec![3, 4]);
        assert!(q.is_empty());
    }

    #[test]
    fn blocking_push_resumes_after_drain() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(0u32);
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.push(1)) // blocks until the consumer drains
        };
        let mut out = Vec::new();
        // Drain until both items have come through.
        let mut seen = Vec::new();
        while seen.len() < 2 {
            q.pop_batch(&mut out, 4);
            seen.extend(out.iter().copied());
        }
        producer.join().unwrap();
        assert_eq!(seen, vec![0, 1]);
    }

    #[test]
    fn contention_counters_track_slow_paths() {
        let q = Arc::new(BoundedQueue::new(1));
        assert_eq!(q.contention(), QueueContention::default());
        assert_eq!(q.push(0u32), 1);
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.push(1)) // full: counted as a producer wait
        };
        // Wait until the producer has registered its wait, then drain.
        while q.contention().producer_waits == 0 {
            thread::yield_now();
        }
        let mut out = Vec::new();
        let mut seen = 0;
        while seen < 2 {
            seen += q.pop_batch(&mut out, 4);
        }
        producer.join().unwrap();
        assert_eq!(q.contention().producer_waits, 1);

        // Empty queue: a delayed push forces the consumer past its spin budget.
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut out = Vec::new();
                q.pop_batch(&mut out, 4)
            })
        };
        thread::sleep(std::time::Duration::from_millis(30));
        q.push(2);
        assert_eq!(consumer.join().unwrap(), 1);
        assert!(q.contention().consumer_parks >= 1);
    }

    #[test]
    fn pop_blocks_until_an_item_arrives() {
        let q = Arc::new(BoundedQueue::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut out = Vec::new();
                q.pop_batch(&mut out, 4);
                out
            })
        };
        thread::sleep(std::time::Duration::from_millis(20));
        q.push(7u32);
        assert_eq!(consumer.join().unwrap(), vec![7]);
    }
}
