//! Consumer-facing streaming receivers: bounded per-subscriber mailboxes and the
//! [`Subscriber`] handle that drains them.
//!
//! The paper's guarantee is about what a subscriber *ultimately observes* — messages
//! admitted, IFC-checked and quenched per its context. The dataplane's shards enforce
//! per delivery; a bounded per-endpoint mailbox is the hand-off point where an
//! enforced (post-quench) body becomes visible to application code. The hand-off is a
//! [`FrozenMessage`] by value — a body handle and a presence mask, two words, never a
//! payload copy and no allocation on the shard; the `Arc` the public
//! [`ReceivedMessage::Frozen`] wraps it in is made by the receive call, on the
//! consumer's thread and outside the mailbox lock, which is also where it is freed.
//!
//! Mailboxes are bounded. What happens on overflow is the subscriber's
//! [`OverflowPolicy`]:
//!
//! * [`OverflowPolicy::Block`] — the delivering shard waits for mailbox space. The
//!   shard's ingress queue then fills behind it, which blocks publishers: end-to-end
//!   backpressure from a slow consumer to its producers, no message ever shed.
//! * [`OverflowPolicy::DropOldest`] — the oldest queued message is shed to admit the
//!   new one, the drop is counted ([`Subscriber::dropped`], `DataplaneStats`), and the
//!   shed delivery is evidenced as a
//!   [`legaliot_audit::AuditEvent::DeliveryDropped`] record, so the audit trail still
//!   accounts for every admitted-but-unobserved message.
//!
//! Closing is cooperative and never blocks the hot path: dropping (or
//! [`Subscriber::close`]-ing) the handle marks the mailbox closed, and shards simply
//! stop enqueueing to it — a flag check under the mailbox's own lock, no directory
//! write. A closed mailbox still hands out what it already holds; `recv` reports
//! [`RecvError::Disconnected`] only once the backlog is drained.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use legaliot_middleware::{AttributeValue, FrozenMessage, Message, MessageType};
use legaliot_obs::LatencyHistogram;

/// What a shard does when a delivery lands on a full mailbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Wait for the consumer to make space. The delivering shard stalls, its ingress
    /// queue fills, and publishers block in turn — lossless end-to-end backpressure.
    #[default]
    Block,
    /// Shed the oldest queued message to admit the new one. Every shed delivery is
    /// counted and evidenced as a `DeliveryDropped` audit record.
    DropOldest,
}

/// A message as a subscriber observes it: the post-quench body. A one-variant enum
/// kept for source compatibility with `benchmark/`; collapsing it belongs to the next
/// `benchmark`-archetype PR.
#[derive(Debug, Clone)]
pub enum ReceivedMessage {
    /// Zero-copy delivery: shares the publisher-frozen payload buffer and name table
    /// (quenching only cleared presence bits). Cloning this is refcount bumps.
    Frozen(Arc<FrozenMessage>),
}

impl ReceivedMessage {
    /// Wraps a delivery taken out of the mailbox. Allocates, so receives call it with
    /// the mailbox lock released.
    fn wrap(delivery: FrozenMessage) -> Self {
        ReceivedMessage::Frozen(Arc::new(delivery))
    }

    fn body(&self) -> &Arc<FrozenMessage> {
        let ReceivedMessage::Frozen(message) = self;
        message
    }

    /// The message's type.
    pub fn message_type(&self) -> &MessageType {
        self.body().message_type()
    }

    /// The publishing endpoint's name.
    pub fn sender(&self) -> &str {
        self.body().sender()
    }

    /// Simulated publish time (ms).
    pub fn sent_at_millis(&self) -> u64 {
        self.body().sent_at_millis()
    }

    /// A present attribute's value, decoded on the fly. Quenched attributes are absent.
    pub fn get(&self, name: &str) -> Option<AttributeValue> {
        self.body().get(name)
    }

    /// Number of attributes the subscriber can observe (post-quench).
    pub fn attribute_count(&self) -> usize {
        self.body().attribute_count()
    }

    /// The shared frozen form.
    pub fn frozen(&self) -> Option<&Arc<FrozenMessage>> {
        Some(self.body())
    }

    /// The mutable [`Message`] form (decodes the frozen representation).
    pub fn thaw(self) -> Message {
        self.body().thaw()
    }
}

/// Why [`Subscriber::recv`] returned no message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// The mailbox is closed (handle closed, endpoint deregistered, or the dataplane
    /// shut down) and its backlog is fully drained: no message will ever arrive.
    Disconnected,
}

/// Why [`Subscriber::try_recv`] returned no message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// No message is queued right now (more may still arrive).
    Empty,
    /// As [`RecvError::Disconnected`]: closed and drained.
    Disconnected,
}

/// Why [`Subscriber::recv_timeout`] returned no message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The timeout elapsed with the mailbox still empty but open.
    Timeout,
    /// As [`RecvError::Disconnected`]: closed and drained.
    Disconnected,
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiving on a closed and drained mailbox")
    }
}

impl fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryRecvError::Empty => f.write_str("mailbox is empty"),
            TryRecvError::Disconnected => f.write_str("receiving on a closed and drained mailbox"),
        }
    }
}

impl fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvTimeoutError::Timeout => f.write_str("timed out waiting for a message"),
            RecvTimeoutError::Disconnected => {
                f.write_str("receiving on a closed and drained mailbox")
            }
        }
    }
}

impl std::error::Error for RecvError {}
impl std::error::Error for TryRecvError {}
impl std::error::Error for RecvTimeoutError {}

/// Outcome of a shard's attempt to enqueue a delivery (engine-internal).
#[derive(Debug)]
pub(crate) enum MailboxPush {
    /// The delivery is queued for the consumer.
    Enqueued,
    /// The delivery is queued; the returned oldest queued message was shed to make
    /// room (the caller audits it against its own source and message type).
    DroppedOldest(FrozenMessage),
    /// The mailbox is closed; the delivery was discarded without queueing.
    Closed,
}

#[derive(Debug, Default)]
struct MailboxInner {
    queue: VecDeque<FrozenMessage>,
    /// Deliveries shed by drop-oldest overflow since the mailbox opened.
    dropped: u64,
    /// Consumers parked on `not_empty` / producers parked on `not_full`. Raised
    /// under the lock before the wait releases it, so whoever changes the queue
    /// under the lock afterwards sees the count and notifies; at zero the notify —
    /// a futex wake with nobody to wake — is skipped.
    waiting_consumers: usize,
    waiting_producers: usize,
}

impl MailboxInner {
    /// Takes the oldest delivery and says whether a parked producer is owed a wake.
    fn pop(&mut self) -> Option<(FrozenMessage, bool)> {
        self.queue.pop_front().map(|item| (item, self.waiting_producers > 0))
    }
}

/// The bounded hand-off queue between a subscriber's shard and its consumer.
///
/// Shards push after releasing the engine's directory lock (a Block-policy push may
/// park); consumers pop through a [`Subscriber`] without touching the directory at
/// all, so neither side can deadlock against the control plane. What is queued is the
/// delivery by value; see the module docs. The `closed` flag is additionally
/// mirrored in an atomic so the shard's common case (open mailbox) and the
/// engine's teardown broadcast stay cheap.
#[derive(Debug)]
pub(crate) struct Mailbox {
    inner: Mutex<MailboxInner>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    policy: OverflowPolicy,
    closed: AtomicBool,
}

impl Mailbox {
    pub(crate) fn new(capacity: usize, policy: OverflowPolicy) -> Self {
        Mailbox {
            inner: Mutex::new(MailboxInner::default()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
            policy,
            closed: AtomicBool::new(false),
        }
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Marks the mailbox closed and wakes every waiter (consumers observe
    /// `Disconnected` once drained; a shard blocked on `push` discards and moves on).
    pub(crate) fn close(&self) {
        // The store happens under the lock so close linearizes against `push`: a
        // push holding the lock either completes before the close (a delivery that
        // legitimately arrived first) or re-checks the flag under the lock and
        // discards. Waiters either see `closed` before parking or are woken by the
        // notifies below.
        let guard = self.inner.lock();
        self.closed.store(true, Ordering::Release);
        drop(guard);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Enqueues a delivery per the overflow policy. Never blocks under
    /// [`OverflowPolicy::DropOldest`]; under [`OverflowPolicy::Block`] waits until the
    /// consumer makes space or the mailbox closes.
    ///
    /// When `stall` is provided (telemetry enabled), the time a Block-policy push
    /// spends parked on the full mailbox is recorded there — one sample per push that
    /// actually stalled, so the fast path takes no timestamps.
    pub(crate) fn push(
        &self,
        item: FrozenMessage,
        stall: Option<&LatencyHistogram>,
    ) -> MailboxPush {
        // Cheap lock-free fast path for long-closed mailboxes; the authoritative
        // check is re-done under the lock, where it linearizes against `close`.
        if self.is_closed() {
            return MailboxPush::Closed;
        }
        let mut inner = self.inner.lock();
        if self.is_closed() {
            return MailboxPush::Closed;
        }
        let mut stalled_since: Option<Instant> = None;
        let record_stall = |since: Option<Instant>| {
            if let (Some(histogram), Some(since)) = (stall, since) {
                histogram.record(since.elapsed().as_nanos() as u64);
            }
        };
        while inner.queue.len() >= self.capacity {
            match self.policy {
                OverflowPolicy::DropOldest => {
                    let shed = inner.queue.pop_front().expect("full implies non-empty");
                    inner.dropped += 1;
                    inner.queue.push_back(item);
                    let wake = inner.waiting_consumers > 0;
                    drop(inner);
                    if wake {
                        self.not_empty.notify_one();
                    }
                    return MailboxPush::DroppedOldest(shed);
                }
                OverflowPolicy::Block => {
                    if stall.is_some() && stalled_since.is_none() {
                        stalled_since = Some(Instant::now());
                    }
                    inner.waiting_producers += 1;
                    inner = self.not_full.wait(inner).unwrap_or_else(PoisonError::into_inner);
                    inner.waiting_producers -= 1;
                    if self.is_closed() {
                        drop(inner);
                        record_stall(stalled_since);
                        return MailboxPush::Closed;
                    }
                }
            }
        }
        inner.queue.push_back(item);
        let wake = inner.waiting_consumers > 0;
        drop(inner);
        record_stall(stalled_since);
        if wake {
            self.not_empty.notify_one();
        }
        MailboxPush::Enqueued
    }

    fn recv(&self) -> Result<FrozenMessage, RecvError> {
        let mut inner = self.inner.lock();
        loop {
            if let Some((item, wake)) = inner.pop() {
                drop(inner);
                if wake {
                    self.not_full.notify_one();
                }
                return Ok(item);
            }
            if self.is_closed() {
                return Err(RecvError::Disconnected);
            }
            inner.waiting_consumers += 1;
            inner = self.not_empty.wait(inner).unwrap_or_else(PoisonError::into_inner);
            inner.waiting_consumers -= 1;
        }
    }

    fn try_recv(&self) -> Result<FrozenMessage, TryRecvError> {
        let mut inner = self.inner.lock();
        match inner.pop() {
            Some((item, wake)) => {
                drop(inner);
                if wake {
                    self.not_full.notify_one();
                }
                Ok(item)
            }
            None if self.is_closed() => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<FrozenMessage, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock();
        loop {
            if let Some((item, wake)) = inner.pop() {
                drop(inner);
                if wake {
                    self.not_full.notify_one();
                }
                return Ok(item);
            }
            if self.is_closed() {
                return Err(RecvTimeoutError::Disconnected);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(RecvTimeoutError::Timeout);
            }
            inner.waiting_consumers += 1;
            let (guard, _timed_out) = self
                .not_empty
                .wait_timeout(inner, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            inner = guard;
            inner.waiting_consumers -= 1;
        }
    }

    fn drain(&self) -> Vec<FrozenMessage> {
        let mut inner = self.inner.lock();
        let items: Vec<FrozenMessage> = inner.queue.drain(..).collect();
        let wake = inner.waiting_producers > 0;
        drop(inner);
        if wake && !items.is_empty() {
            self.not_full.notify_all();
        }
        items
    }

    fn len(&self) -> usize {
        self.inner.lock().queue.len()
    }

    fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }
}

/// A consumer's handle on one endpoint's mailbox, opened with
/// [`crate::Dataplane::open_subscriber`] (or
/// [`crate::Dataplane::subscribe_receiver`]).
///
/// The handle is the mailbox's lifetime: dropping it (or calling
/// [`Subscriber::close`]) closes the mailbox, after which shards stop enqueueing and —
/// once the backlog is drained — every receive reports `Disconnected`. The handle
/// stays usable after the dataplane itself shuts down: whatever was enqueued before
/// shutdown is still received, then `Disconnected`.
#[derive(Debug)]
pub struct Subscriber {
    name: Arc<str>,
    mailbox: Arc<Mailbox>,
}

impl Subscriber {
    pub(crate) fn new(name: Arc<str>, mailbox: Arc<Mailbox>) -> Self {
        Subscriber { name, mailbox }
    }

    /// The endpoint this handle receives for.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Blocks until the next enforced delivery arrives.
    ///
    /// # Errors
    ///
    /// [`RecvError::Disconnected`] once the mailbox is closed *and* drained.
    pub fn recv(&self) -> Result<ReceivedMessage, RecvError> {
        self.mailbox.recv().map(ReceivedMessage::wrap)
    }

    /// Returns the next delivery without blocking.
    ///
    /// # Errors
    ///
    /// [`TryRecvError::Empty`] when nothing is queued;
    /// [`TryRecvError::Disconnected`] once closed and drained.
    pub fn try_recv(&self) -> Result<ReceivedMessage, TryRecvError> {
        self.mailbox.try_recv().map(ReceivedMessage::wrap)
    }

    /// Blocks for at most `timeout` for the next delivery.
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] when the timeout elapses;
    /// [`RecvTimeoutError::Disconnected`] once closed and drained.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<ReceivedMessage, RecvTimeoutError> {
        self.mailbox.recv_timeout(timeout).map(ReceivedMessage::wrap)
    }

    /// Takes everything currently queued in one batch, without blocking (possibly
    /// empty). Frees the whole mailbox capacity at once, so a periodic drain loop is
    /// the cheapest way to consume under [`OverflowPolicy::Block`].
    pub fn drain(&self) -> Vec<ReceivedMessage> {
        self.mailbox.drain().into_iter().map(ReceivedMessage::wrap).collect()
    }

    /// Number of deliveries currently queued.
    pub fn len(&self) -> usize {
        self.mailbox.len()
    }

    /// Whether the mailbox is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deliveries shed by [`OverflowPolicy::DropOldest`] since this handle opened
    /// (each also counted in `DataplaneStats::receiver_dropped` and evidenced as a
    /// `DeliveryDropped` audit record).
    pub fn dropped(&self) -> u64 {
        self.mailbox.dropped()
    }

    /// Whether the mailbox is closed (shards no longer enqueue; queued backlog, if
    /// any, is still receivable).
    pub fn is_closed(&self) -> bool {
        self.mailbox.is_closed()
    }

    /// Closes the mailbox: shards stop enqueueing immediately; receives keep
    /// returning the backlog, then `Disconnected`. Idempotent; also run by `Drop`.
    pub fn close(&self) {
        self.mailbox.close();
    }
}

impl Drop for Subscriber {
    fn drop(&mut self) {
        self.mailbox.close();
        // This handle was the mailbox's only consumer: nothing can ever receive the
        // backlog, so release it now instead of pinning up to `capacity` payload
        // buffers in the endpoint directory until deregistration. (An explicit
        // `close()` keeps the backlog readable through the still-live handle; only
        // the handle's death discards it.)
        self.mailbox.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn item(tag: u64) -> FrozenMessage {
        use legaliot_ifc::SecurityContext;
        use legaliot_middleware::{FrozenSchema, MessageSchema};
        let schema = Arc::new(FrozenSchema::new(&MessageSchema::new("t")).unwrap());
        let message = Message::new("t", SecurityContext::public());
        FrozenMessage::freeze_stamped(&message, schema, Arc::from(""), tag).unwrap()
    }

    #[test]
    fn drop_oldest_sheds_and_counts() {
        let mailbox = Mailbox::new(2, OverflowPolicy::DropOldest);
        assert!(matches!(mailbox.push(item(1), None), MailboxPush::Enqueued));
        assert!(matches!(mailbox.push(item(2), None), MailboxPush::Enqueued));
        // The shed message is returned so the caller can audit it.
        match mailbox.push(item(3), None) {
            MailboxPush::DroppedOldest(shed) => assert_eq!(shed.sent_at_millis(), 1),
            other => panic!("expected DroppedOldest, got {other:?}"),
        }
        assert_eq!(mailbox.dropped(), 1);
        let received: Vec<u64> = mailbox.drain().into_iter().map(|m| m.sent_at_millis()).collect();
        assert_eq!(received, vec![2, 3]);
    }

    #[test]
    fn block_policy_waits_for_the_consumer() {
        let mailbox = Arc::new(Mailbox::new(1, OverflowPolicy::Block));
        assert!(matches!(mailbox.push(item(1), None), MailboxPush::Enqueued));
        let producer = {
            let mailbox = Arc::clone(&mailbox);
            thread::spawn(move || mailbox.push(item(2), None))
        };
        // The producer is parked on the full mailbox until this recv frees a slot.
        let first = mailbox.recv().unwrap();
        assert_eq!(first.sent_at_millis(), 1);
        assert!(matches!(producer.join().unwrap(), MailboxPush::Enqueued));
        assert_eq!(mailbox.recv().unwrap().sent_at_millis(), 2);
        assert_eq!(mailbox.dropped(), 0);
    }

    #[test]
    fn close_unblocks_producers_and_consumers() {
        let mailbox = Arc::new(Mailbox::new(1, OverflowPolicy::Block));
        mailbox.push(item(1), None);
        let blocked_producer = {
            let mailbox = Arc::clone(&mailbox);
            thread::spawn(move || mailbox.push(item(2), None))
        };
        let blocked_consumer = {
            let mailbox = Arc::new(Mailbox::new(1, OverflowPolicy::Block));
            let handle = Arc::clone(&mailbox);
            let consumer = thread::spawn(move || handle.recv());
            thread::sleep(Duration::from_millis(20));
            mailbox.close();
            consumer
        };
        thread::sleep(Duration::from_millis(20));
        mailbox.close();
        assert!(matches!(blocked_producer.join().unwrap(), MailboxPush::Closed));
        assert!(matches!(blocked_consumer.join().unwrap(), Err(RecvError::Disconnected)));
        // The backlog enqueued before the close is still received, then Disconnected.
        assert_eq!(mailbox.recv().unwrap().sent_at_millis(), 1);
        assert_eq!(mailbox.recv().unwrap_err(), RecvError::Disconnected);
        assert_eq!(mailbox.try_recv().unwrap_err(), TryRecvError::Disconnected);
        assert!(matches!(mailbox.push(item(9), None), MailboxPush::Closed));
    }

    /// Capacity 1 under `Block` makes every message a hand-off in both directions:
    /// the producer parks on the full mailbox, the consumer on the empty one, and
    /// each relies on the other's conditional notify. A skipped wake-up that was owed
    /// hangs this test (or trips the `recv_timeout` arm), not production.
    #[test]
    fn capacity_one_ping_pong_never_loses_a_wake_up() {
        use legaliot_ifc::SecurityContext;
        use legaliot_middleware::{FrozenSchema, MessageSchema};
        const MESSAGES: u64 = 100_000;
        let mailbox = Arc::new(Mailbox::new(1, OverflowPolicy::Block));
        let producer = {
            let mailbox = Arc::clone(&mailbox);
            thread::spawn(move || {
                let schema = Arc::new(FrozenSchema::new(&MessageSchema::new("t")).unwrap());
                let message = Message::new("t", SecurityContext::public());
                for tag in 1..=MESSAGES {
                    let (schema, sender) = (Arc::clone(&schema), Arc::from(""));
                    let item = FrozenMessage::freeze_stamped(&message, schema, sender, tag);
                    assert!(matches!(mailbox.push(item.unwrap(), None), MailboxPush::Enqueued));
                }
            })
        };
        let mut next = 1;
        let mut turn = 0u64;
        while next <= MESSAGES {
            turn += 1;
            let batch = match turn % 3 {
                0 => vec![mailbox.recv().expect("open")],
                1 => vec![mailbox
                    .recv_timeout(Duration::from_secs(60))
                    .expect("a wake-up owed to a parked consumer was skipped")],
                _ => mailbox.drain(),
            };
            for received in batch {
                assert_eq!(received.sent_at_millis(), next, "in order, exactly once");
                next += 1;
            }
        }
        producer.join().unwrap();
        assert_eq!(mailbox.try_recv().unwrap_err(), TryRecvError::Empty);
        let inner = mailbox.inner.lock();
        assert_eq!((inner.waiting_consumers, inner.waiting_producers), (0, 0));
    }

    /// Closing wakes a parked producer and a parked consumer. "Parked" is observed,
    /// not slept for: the waiter count is raised under the lock the wait then
    /// releases, so seeing it under that lock means the thread is inside the wait.
    #[test]
    fn close_wakes_waiters_parked_on_either_side() {
        let wait_until = |mailbox: &Mailbox, parked: fn(&MailboxInner) -> bool| {
            while !parked(&mailbox.inner.lock()) {
                thread::yield_now();
            }
        };
        let full = Arc::new(Mailbox::new(1, OverflowPolicy::Block));
        full.push(item(1), None);
        let producer = {
            let full = Arc::clone(&full);
            thread::spawn(move || full.push(item(2), None))
        };
        wait_until(&full, |inner| inner.waiting_producers == 1);
        full.close();
        assert!(matches!(producer.join().unwrap(), MailboxPush::Closed));

        let empty = Arc::new(Mailbox::new(1, OverflowPolicy::Block));
        let consumers: Vec<_> = (0..2)
            .map(|index| {
                let empty = Arc::clone(&empty);
                thread::spawn(move || match index {
                    0 => empty.recv().map_err(|_| ()),
                    _ => empty.recv_timeout(Duration::from_secs(60)).map_err(|error| {
                        assert_eq!(error, RecvTimeoutError::Disconnected);
                    }),
                })
            })
            .collect();
        wait_until(&empty, |inner| inner.waiting_consumers == 2);
        empty.close();
        for consumer in consumers {
            assert!(consumer.join().unwrap().is_err());
        }
        let inner = empty.inner.lock();
        assert_eq!((inner.waiting_consumers, inner.waiting_producers), (0, 0));
    }

    #[test]
    fn try_recv_and_timeout_report_empty_vs_disconnected() {
        let mailbox = Mailbox::new(4, OverflowPolicy::Block);
        assert_eq!(mailbox.try_recv().unwrap_err(), TryRecvError::Empty);
        assert_eq!(
            mailbox.recv_timeout(Duration::from_millis(10)).unwrap_err(),
            RecvTimeoutError::Timeout
        );
        mailbox.push(item(5), None);
        assert_eq!(mailbox.recv_timeout(Duration::from_millis(10)).unwrap().sent_at_millis(), 5);
        mailbox.close();
        assert_eq!(
            mailbox.recv_timeout(Duration::from_millis(10)).unwrap_err(),
            RecvTimeoutError::Disconnected
        );
    }

    #[test]
    fn error_display() {
        assert!(RecvError::Disconnected.to_string().contains("closed"));
        assert!(TryRecvError::Empty.to_string().contains("empty"));
        assert!(TryRecvError::Disconnected.to_string().contains("closed"));
        assert!(RecvTimeoutError::Timeout.to_string().contains("timed out"));
        assert!(RecvTimeoutError::Disconnected.to_string().contains("closed"));
    }
}
