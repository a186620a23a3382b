//! The dataplane's one bounded hand-off, used twice on every delivery's way from
//! `publish_message` to `recv`.
//!
//! * **Shard ingress.** Publishers push deliveries from any thread — never a
//!   control-plane call; the shard's worker drains in batches to amortise lock
//!   traffic. A full queue blocks the producer — backpressure instead of unbounded
//!   memory. The engine stops a worker by closing its queue, not by pushing into it:
//!   the worker pops the backlog, and its first empty pop of the closed queue ends it.
//! * **Subscriber mailbox.** The shard pushes enforced deliveries — blocking on a full
//!   mailbox, or shedding its oldest item, per the
//!   [`OverflowPolicy`](crate::OverflowPolicy) — and the consumer pops them one at a
//!   time or drains them through its [`Subscriber`](crate::Subscriber). A mailbox is
//!   closed when its handle goes, its endpoint deregisters or the engine stops.
//!
//! Both end their stream the same way, by `close`: pushes then discard, and pops hand
//! out the backlog before reporting the queue closed.
//!
//! Every push is a group push (`BoundedQueue::push_group`): the items go in, in
//! order, under one lock, and a parked consumer is woken once for the group — a shard
//! hands each batch's deliveries for one mailbox over this way, a publisher its
//! fan-out's run of tasks for one shard, and a single item is a group of one.
//!
//! One wake protocol serves every wait. A thread raises its side's waiter count under
//! the lock before its wait releases it, so whoever changes the queue under the lock
//! afterwards sees the count and notifies; at zero the notify — a futex wake with
//! nobody to wake — is skipped. A group push wakes one parked consumer when it is done,
//! and also *before* it parks on a full queue mid-group: the consumer it waits for
//! must first hear of the items already pushed, or each would wait for the other. A
//! single pop wakes one parked producer, a batch pop or a drain every parked producer,
//! and a close everybody. The queue reserves nothing up front: a fleet opens thousands
//! of mailboxes, most of them never deep.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, MutexGuard, PoisonError};
use std::time::Instant;

use legaliot_obs::LatencyHistogram;
use parking_lot::Mutex;

/// How many times a consumer yields the CPU re-checking an empty queue before parking
/// on the condvar. Spinning (with `yield_now`, so producers get the core) avoids a
/// park/wake syscall pair per batch when producers are active — the dominant cost of
/// fine-grained sharding on few cores.
const EMPTY_SPINS: usize = 32;

/// A bounded FIFO queue: blocking or shedding pushes, batch or single pops.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    /// Stored under the lock, so a close linearizes against every push and pop;
    /// mirrored in an atomic so a shard skips a closed mailbox without locking it.
    closed: AtomicBool,
    /// Times a consumer exhausted its spin budget and parked on the condvar
    /// (telemetry; incremented on the park slow path only).
    consumer_parks: AtomicU64,
    /// Times a producer found the queue full and had to wait (telemetry; incremented
    /// on the full slow path only).
    producer_waits: AtomicU64,
    capacity: usize,
}

#[derive(Debug)]
struct Inner<T> {
    items: VecDeque<T>,
    /// Items shed by [`WhenFull::ShedOldest`] pushes since the queue opened.
    shed: u64,
    /// Threads parked on `not_empty` / `not_full`; see the module docs.
    waiting_consumers: usize,
    waiting_producers: usize,
}

type Guard<'a, T> = MutexGuard<'a, Inner<T>>;

/// Why a single pop came back without an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PopError {
    /// Nothing is queued (or nothing arrived before the deadline); the queue is open.
    Empty,
    /// The queue is closed and everything queued before the close has been popped.
    Closed,
}

/// What a group push does on finding the queue full.
pub(crate) enum WhenFull<'a, T> {
    /// Park until the consumer makes room (backpressure). Each wait is recorded in the
    /// histogram, when one is given — one sample per wait, so a push that never waits
    /// takes no timestamps.
    Block(Option<&'a LatencyHistogram>),
    /// Never wait: shed the oldest queued item, one per overflowing item, into the
    /// vector — oldest first, so the caller can evidence each.
    ShedOldest(&'a mut Vec<T>),
}

/// What a group push did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Pushed {
    /// Items the queue took: the whole group, or — if the queue is or becomes closed —
    /// the ones pushed before the close (the rest were discarded).
    pub taken: usize,
    /// The queue's length right after the last item taken (0 when none was), so a
    /// producer can feed a depth high-water mark without locking again.
    pub depth: usize,
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
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                shed: 0,
                waiting_consumers: 0,
                waiting_producers: 0,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            closed: AtomicBool::new(false),
            consumer_parks: AtomicU64::new(0),
            producer_waits: AtomicU64::new(0),
            capacity: capacity.max(1),
        }
    }

    /// The maximum number of queued items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of items currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().items.is_empty()
    }

    /// How often this queue's slow paths ran (consumer parks, producer waits).
    pub fn contention(&self) -> QueueContention {
        QueueContention {
            consumer_parks: self.consumer_parks.load(Ordering::Relaxed),
            producer_waits: self.producer_waits.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Items shed by [`WhenFull::ShedOldest`] pushes since the queue opened.
    pub(crate) fn shed(&self) -> u64 {
        self.inner.lock().shed
    }

    /// Closes the queue and wakes every waiter: pushes discard from now on, and pops
    /// report [`PopError::Closed`] once the backlog is gone. Idempotent.
    pub(crate) fn close(&self) {
        let inner = self.inner.lock();
        self.closed.store(true, Ordering::Release);
        let (consumers, producers) = (inner.waiting_consumers > 0, inner.waiting_producers > 0);
        drop(inner);
        if consumers {
            self.not_empty.notify_all();
        }
        if producers {
            self.not_full.notify_all();
        }
    }

    /// Pushes an item, blocking while the queue is full (backpressure). Returns the
    /// queue length right after the push, letting producers feed a depth
    /// high-water-mark gauge without an extra lock acquisition (0 when a closed queue
    /// discarded the item).
    pub fn push(&self, item: T) -> usize {
        self.push_group([item], WhenFull::Block(None)).depth
    }

    /// Pushes `items` in order under one lock, waking a parked consumer once for the
    /// group rather than once per item. A full queue is handled per `when_full`; a
    /// blocking push wakes the consumer before it parks (see the module docs). A queue
    /// that is — or, while this push waits, becomes — closed takes nothing more: the
    /// rest of the group is discarded, and [`Pushed::taken`] says how much went in.
    pub(crate) fn push_group(
        &self,
        items: impl IntoIterator<Item = T>,
        mut when_full: WhenFull<'_, T>,
    ) -> Pushed {
        let full = |inner: &mut Inner<T>| inner.items.len() >= self.capacity && !self.is_closed();
        let mut inner = self.inner.lock();
        // The flag only changes under the lock: it is read again only after a wait.
        if self.is_closed() {
            return Pushed { taken: 0, depth: 0 };
        }
        let mut taken = 0;
        for item in items {
            if inner.items.len() >= self.capacity {
                match &mut when_full {
                    WhenFull::ShedOldest(shed) => {
                        inner.shed += 1;
                        shed.extend(inner.items.pop_front());
                    }
                    WhenFull::Block(stall) => {
                        if inner.waiting_consumers > 0 {
                            self.not_empty.notify_one();
                        }
                        self.producer_waits.fetch_add(1, Ordering::Relaxed);
                        let stalled_since = stall.map(|_| Instant::now());
                        inner.waiting_producers += 1;
                        inner = self
                            .not_full
                            .wait_while(inner, full)
                            .unwrap_or_else(PoisonError::into_inner);
                        inner.waiting_producers -= 1;
                        if let (Some(histogram), Some(since)) = (stall, stalled_since) {
                            histogram.record(since.elapsed().as_nanos() as u64);
                        }
                        if self.is_closed() {
                            break;
                        }
                    }
                }
            }
            inner.items.push_back(item);
            taken += 1;
        }
        if taken == 0 {
            return Pushed { taken, depth: 0 };
        }
        let depth = inner.items.len();
        self.wake_consumer(inner);
        Pushed { taken, depth }
    }

    /// Blocks until at least one item is available, then moves up to `max` items into
    /// `out` (which is cleared first). Returns how many items were popped: 0 only once
    /// the queue is closed and empty.
    ///
    /// An empty queue is first retried a bounded number of times with `yield_now`
    /// (letting producers run) before parking on the condvar.
    pub fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        out.clear();
        let mut spins = 0;
        let mut inner = loop {
            let inner = self.inner.lock();
            if !inner.items.is_empty() || self.is_closed() {
                break inner;
            }
            if spins < EMPTY_SPINS {
                spins += 1;
                drop(inner);
                std::thread::yield_now();
                continue;
            }
            self.consumer_parks.fetch_add(1, Ordering::Relaxed);
            break self.await_item(inner, None);
        };
        let take = inner.items.len().min(max.max(1));
        out.extend(inner.items.drain(..take));
        self.wake_producers(inner, true);
        take
    }

    /// Pops the oldest item without blocking.
    pub(crate) fn try_pop(&self) -> Result<T, PopError> {
        self.take_one(self.inner.lock())
    }

    /// Pops the oldest item, waiting for one until `deadline` (`None`: for as long as
    /// the queue stays open).
    pub(crate) fn pop(&self, deadline: Option<Instant>) -> Result<T, PopError> {
        let inner = self.await_item(self.inner.lock(), deadline);
        self.take_one(inner)
    }

    /// Takes everything queued, without blocking (possibly nothing).
    pub(crate) fn drain(&self) -> Vec<T> {
        let mut inner = self.inner.lock();
        let items = inner.items.drain(..).collect();
        self.wake_producers(inner, true);
        items
    }

    /// Parks a consumer until the queue holds an item, closes, or `deadline` passes.
    fn await_item<'a>(
        &'a self,
        mut inner: Guard<'a, T>,
        deadline: Option<Instant>,
    ) -> Guard<'a, T> {
        let empty = |inner: &mut Inner<T>| inner.items.is_empty() && !self.is_closed();
        // Raised under the lock even when there is nothing to wait for: it is lowered
        // again before the lock is released, so nobody sees it.
        inner.waiting_consumers += 1;
        inner = match deadline {
            None => self.not_empty.wait_while(inner, empty).unwrap_or_else(PoisonError::into_inner),
            Some(deadline) => {
                let timeout = deadline.saturating_duration_since(Instant::now());
                let waited = self.not_empty.wait_timeout_while(inner, timeout, empty);
                waited.unwrap_or_else(PoisonError::into_inner).0
            }
        };
        inner.waiting_consumers -= 1;
        inner
    }

    fn take_one(&self, mut inner: Guard<'_, T>) -> Result<T, PopError> {
        match inner.items.pop_front() {
            Some(item) => {
                self.wake_producers(inner, false);
                Ok(item)
            }
            None if self.is_closed() => Err(PopError::Closed),
            None => Err(PopError::Empty),
        }
    }

    /// Releases the lock after a push, waking one parked consumer if any.
    fn wake_consumer(&self, inner: Guard<'_, T>) {
        let wake = inner.waiting_consumers > 0;
        drop(inner);
        if wake {
            self.not_empty.notify_one();
        }
    }

    /// Releases the lock after a pop, waking parked producers if any: one for the one
    /// slot a single pop frees, all of them when a batch freed several at once.
    fn wake_producers(&self, inner: Guard<'_, T>, all: bool) {
        let wake = inner.waiting_producers > 0;
        drop(inner);
        match (wake, all) {
            (false, _) => {}
            (true, false) => self.not_full.notify_one(),
            (true, true) => self.not_full.notify_all(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

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
        thread::sleep(Duration::from_millis(30));
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
        thread::sleep(Duration::from_millis(20));
        q.push(7u32);
        assert_eq!(consumer.join().unwrap(), vec![7]);
    }

    /// Capacity 1 makes every item a hand-off in both directions: the producer parks
    /// on the full queue, the consumer on the empty one, and each relies on the other's
    /// conditional notify. The consumer cycles through every pop — single (blocking
    /// and with a deadline), drain, and the spin-then-park batch pop the shards use. A
    /// skipped wake-up that was owed hangs this test (or trips the deadline arm), not
    /// production.
    #[test]
    fn capacity_one_ping_pong_never_loses_a_wake_up() {
        const ITEMS: u64 = 100_000;
        let queue = Arc::new(BoundedQueue::new(1));
        let producer = {
            let queue = Arc::clone(&queue);
            thread::spawn(move || {
                for item in 1..=ITEMS {
                    assert_eq!(queue.push(item), 1);
                }
            })
        };
        let (mut next, mut turn, mut out) = (1, 0u64, Vec::new());
        while next <= ITEMS {
            turn += 1;
            let batch = match turn % 4 {
                0 => vec![queue.pop(None).expect("open")],
                1 => vec![queue
                    .pop(Some(Instant::now() + Duration::from_secs(60)))
                    .expect("a wake-up owed to a parked consumer was skipped")],
                2 => queue.drain(),
                _ => {
                    queue.pop_batch(&mut out, 4);
                    std::mem::take(&mut out)
                }
            };
            for received in batch {
                assert_eq!(received, next, "in order, exactly once");
                next += 1;
            }
        }
        producer.join().unwrap();
        assert_eq!(queue.try_pop(), Err(PopError::Empty));
        let inner = queue.inner.lock();
        assert_eq!((inner.waiting_consumers, inner.waiting_producers), (0, 0));
    }

    /// Waits until `parked` holds. "Parked" is observed, not slept for: a waiter count
    /// is raised under the lock the wait then releases, so seeing it under that lock
    /// means the thread is inside the wait.
    fn wait_until(queue: &BoundedQueue<u64>, parked: fn(&Inner<u64>) -> bool) {
        while !parked(&queue.inner.lock()) {
            thread::yield_now();
        }
    }

    /// Closing wakes a parked producer and every kind of parked consumer.
    #[test]
    fn close_wakes_waiters_parked_on_either_side() {
        let full = Arc::new(BoundedQueue::new(1));
        full.push(1);
        let producer = {
            let full = Arc::clone(&full);
            thread::spawn(move || full.push(2))
        };
        wait_until(&full, |inner| inner.waiting_producers == 1);
        full.close();
        assert_eq!(producer.join().unwrap(), 0, "the close discarded the parked push");
        let mut shed = Vec::new();
        let pushed = full.push_group([3], WhenFull::ShedOldest(&mut shed));
        assert_eq!((pushed.taken, shed), (0, vec![]), "a closed queue takes nothing");

        let empty = Arc::new(BoundedQueue::<u64>::new(1));
        let consumers: Vec<_> = (0..3)
            .map(|index| {
                let empty = Arc::clone(&empty);
                thread::spawn(move || match index {
                    0 => empty.pop(None),
                    1 => empty.pop(Some(Instant::now() + Duration::from_secs(60))),
                    _ => match empty.pop_batch(&mut Vec::new(), 4) {
                        0 => Err(PopError::Closed),
                        _ => Ok(0),
                    },
                })
            })
            .collect();
        wait_until(&empty, |inner| inner.waiting_consumers == 3);
        empty.close();
        for consumer in consumers {
            assert_eq!(consumer.join().unwrap(), Err(PopError::Closed));
        }
        let inner = empty.inner.lock();
        assert_eq!((inner.waiting_consumers, inner.waiting_producers), (0, 0));
    }

    /// A group larger than the queue, pushed while the consumer is parked on the empty
    /// queue: the producer fills the queue mid-group and must wake the consumer before
    /// it parks itself, or each waits for the other. Capacities 1 and 2, and a consumer
    /// cycling through every pop; a skipped wake hangs this test (or trips the deadline
    /// arm), not production.
    #[test]
    fn a_group_larger_than_the_queue_wakes_the_consumer_before_parking() {
        const GROUPS: u64 = 5_000;
        const GROUP: u64 = 5;
        for capacity in [1, 2] {
            let queue = Arc::new(BoundedQueue::new(capacity));
            let producer = {
                let queue = Arc::clone(&queue);
                thread::spawn(move || {
                    for group in 0..GROUPS {
                        let items = (1..=GROUP).map(|offset| group * GROUP + offset);
                        let pushed = queue.push_group(items, WhenFull::Block(None));
                        assert_eq!(pushed.taken, GROUP as usize);
                    }
                })
            };
            let (mut next, mut turn, mut out) = (1, 0u64, Vec::new());
            while next <= GROUPS * GROUP {
                turn += 1;
                let batch = match turn % 3 {
                    0 => vec![queue.pop(None).expect("open")],
                    1 => vec![queue
                        .pop(Some(Instant::now() + Duration::from_secs(60)))
                        .expect("a wake-up owed to a parked consumer was skipped")],
                    _ => {
                        queue.pop_batch(&mut out, 4);
                        std::mem::take(&mut out)
                    }
                };
                for received in batch {
                    assert_eq!(received, next, "in order, exactly once");
                    next += 1;
                }
            }
            producer.join().unwrap();
            assert!(queue.contention().producer_waits > 0, "capacity {capacity} filled mid-group");
            let inner = queue.inner.lock();
            assert_eq!((inner.waiting_consumers, inner.waiting_producers), (0, 0));
        }
    }

    /// A close while a group push is parked on the full queue discards the rest of the
    /// group; the push reports what it took, and the consumer still gets that backlog.
    #[test]
    fn a_close_mid_group_discards_the_rest_and_counts_what_it_took() {
        let queue = Arc::new(BoundedQueue::new(2));
        let producer = {
            let queue = Arc::clone(&queue);
            thread::spawn(move || queue.push_group(1..=5, WhenFull::Block(None)))
        };
        wait_until(&queue, |inner| inner.waiting_producers == 1);
        queue.close();
        assert_eq!(producer.join().unwrap(), Pushed { taken: 2, depth: 2 });
        assert_eq!(queue.drain(), vec![1, 2]);
        assert_eq!(queue.try_pop(), Err(PopError::Closed));
    }

    /// DropOldest within one group: every overflowing item sheds the oldest queued one,
    /// and the shed items come back oldest first, counted.
    #[test]
    fn drop_oldest_within_a_group_returns_the_shed_items_oldest_first() {
        let queue = BoundedQueue::new(2);
        queue.push(1u64);
        let mut shed = Vec::new();
        let pushed = queue.push_group(2..=5, WhenFull::ShedOldest(&mut shed));
        assert_eq!(pushed, Pushed { taken: 4, depth: 2 });
        assert_eq!(shed, vec![1, 2, 3]);
        assert_eq!(queue.shed(), 3);
        assert_eq!(queue.drain(), vec![4, 5]);
        assert_eq!(queue.contention().producer_waits, 0, "shedding never waits");
    }
}
