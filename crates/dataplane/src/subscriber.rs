//! Consumer-facing streaming receivers: the [`Subscriber`] handle on an endpoint's
//! mailbox.
//!
//! The paper's guarantee is about what a subscriber *ultimately observes* — messages
//! admitted, IFC-checked and quenched per its context. The dataplane's shards enforce
//! per delivery; a bounded per-endpoint mailbox is the hand-off point where an
//! enforced (post-quench) body becomes visible to application code. A mailbox is the
//! same [`BoundedQueue`] a shard's ingress is, holding [`FrozenMessage`]s by value — a
//! body handle and a presence mask, two words, never a payload copy and no allocation
//! on the shard; the `Arc` the public [`ReceivedMessage::Frozen`] wraps it in is made
//! by the receive call, on the consumer's thread and outside the queue lock, which is
//! also where it is freed. This module only maps the queue's pops onto the receive
//! calls and their errors.
//!
//! What happens when a delivery lands on a full mailbox is the dataplane's
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
//! [`Subscriber::close`]-ing) the handle closes the queue, and shards simply stop
//! enqueueing to it — a flag check, no directory write. A closed mailbox still hands
//! out what it already holds; `recv` reports [`RecvError::Disconnected`] only once the
//! backlog is drained.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use legaliot_context::Name;
use legaliot_middleware::{AttributeValue, FrozenMessage, Message, MessageType};

use crate::queue::{BoundedQueue, PopError};

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
    name: Name,
    mailbox: Arc<BoundedQueue<FrozenMessage>>,
}

impl Subscriber {
    pub(crate) fn new(name: Name, mailbox: Arc<BoundedQueue<FrozenMessage>>) -> Self {
        Subscriber { name, mailbox }
    }

    /// The endpoint this handle receives for.
    pub fn name(&self) -> &str {
        self.name.as_str()
    }

    /// Blocks until the next enforced delivery arrives.
    ///
    /// # Errors
    ///
    /// [`RecvError::Disconnected`] once the mailbox is closed *and* drained.
    pub fn recv(&self) -> Result<ReceivedMessage, RecvError> {
        let delivery = self.mailbox.pop(None).map_err(|_| RecvError::Disconnected)?;
        Ok(ReceivedMessage::wrap(delivery))
    }

    /// Returns the next delivery without blocking.
    ///
    /// # Errors
    ///
    /// [`TryRecvError::Empty`] when nothing is queued;
    /// [`TryRecvError::Disconnected`] once closed and drained.
    pub fn try_recv(&self) -> Result<ReceivedMessage, TryRecvError> {
        let delivery = self.mailbox.try_pop().map_err(|error| match error {
            PopError::Empty => TryRecvError::Empty,
            PopError::Closed => TryRecvError::Disconnected,
        })?;
        Ok(ReceivedMessage::wrap(delivery))
    }

    /// Blocks for at most `timeout` for the next delivery. A timeout too long for the
    /// clock to represent (`Duration::MAX`) waits like [`Self::recv`].
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] when the timeout elapses;
    /// [`RecvTimeoutError::Disconnected`] once closed and drained.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<ReceivedMessage, RecvTimeoutError> {
        let deadline = Instant::now().checked_add(timeout);
        let delivery = self.mailbox.pop(deadline).map_err(|error| match error {
            PopError::Empty => RecvTimeoutError::Timeout,
            PopError::Closed => RecvTimeoutError::Disconnected,
        })?;
        Ok(ReceivedMessage::wrap(delivery))
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
        self.mailbox.shed()
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
    use crate::queue::WhenFull;
    use std::thread;

    fn item(tag: u64) -> FrozenMessage {
        use legaliot_ifc::SecurityContext;
        use legaliot_middleware::{FrozenSchema, MessageSchema};
        let schema = Arc::new(FrozenSchema::new(&MessageSchema::new("t")).unwrap());
        let message = Message::new("t", SecurityContext::public());
        FrozenMessage::freeze_stamped(&message, schema, "", tag).unwrap()
    }

    /// A mailbox of `capacity` and the handle on it, as `open_subscriber` makes them.
    fn open(capacity: usize) -> (Arc<BoundedQueue<FrozenMessage>>, Subscriber) {
        let mailbox = Arc::new(BoundedQueue::new(capacity));
        (Arc::clone(&mailbox), Subscriber::new(Name::intern("s"), mailbox))
    }

    #[test]
    fn drop_oldest_sheds_and_counts() {
        let (mailbox, subscriber) = open(2);
        let mut shed = Vec::new();
        for tag in 1..=3 {
            assert_eq!(mailbox.push_group([item(tag)], WhenFull::ShedOldest(&mut shed)).taken, 1);
        }
        // The shed message is returned so the caller can audit it.
        let shed: Vec<u64> = shed.iter().map(FrozenMessage::sent_at_millis).collect();
        assert_eq!(shed, vec![1], "the oldest delivery is shed");
        assert_eq!(subscriber.dropped(), 1);
        let received: Vec<u64> =
            subscriber.drain().iter().map(ReceivedMessage::sent_at_millis).collect();
        assert_eq!(received, vec![2, 3]);
    }

    #[test]
    fn block_policy_waits_for_the_consumer() {
        let (mailbox, subscriber) = open(1);
        assert_eq!(mailbox.push(item(1)), 1);
        let producer = {
            let mailbox = Arc::clone(&mailbox);
            thread::spawn(move || mailbox.push(item(2)) > 0)
        };
        // The producer is parked on the full mailbox until this recv frees a slot.
        assert_eq!(subscriber.recv().unwrap().sent_at_millis(), 1);
        assert!(producer.join().unwrap());
        assert_eq!(subscriber.recv().unwrap().sent_at_millis(), 2);
        assert_eq!(subscriber.dropped(), 0);
    }

    #[test]
    fn close_unblocks_producers_and_consumers() {
        let (mailbox, subscriber) = open(1);
        mailbox.push(item(1));
        let blocked_producer = {
            let mailbox = Arc::clone(&mailbox);
            thread::spawn(move || mailbox.push(item(2)) == 0)
        };
        let blocked_consumer = {
            let (idle, handle) = open(1);
            let consumer = thread::spawn(move || handle.recv());
            thread::sleep(Duration::from_millis(20));
            idle.close();
            consumer
        };
        thread::sleep(Duration::from_millis(20));
        subscriber.close();
        assert!(blocked_producer.join().unwrap(), "the close discarded the blocked push");
        assert!(matches!(blocked_consumer.join().unwrap(), Err(RecvError::Disconnected)));
        // The backlog enqueued before the close is still received, then Disconnected.
        assert_eq!(subscriber.recv().unwrap().sent_at_millis(), 1);
        assert_eq!(subscriber.recv().unwrap_err(), RecvError::Disconnected);
        assert_eq!(subscriber.try_recv().unwrap_err(), TryRecvError::Disconnected);
        assert_eq!(mailbox.push(item(9)), 0);
        let mut shed = Vec::new();
        assert_eq!(mailbox.push_group([item(9)], WhenFull::ShedOldest(&mut shed)).taken, 0);
    }

    #[test]
    fn try_recv_and_timeout_report_empty_vs_disconnected() {
        let (mailbox, subscriber) = open(4);
        assert_eq!(subscriber.try_recv().unwrap_err(), TryRecvError::Empty);
        assert_eq!(
            subscriber.recv_timeout(Duration::from_millis(10)).unwrap_err(),
            RecvTimeoutError::Timeout
        );
        mailbox.push(item(5));
        assert_eq!(subscriber.recv_timeout(Duration::from_millis(10)).unwrap().sent_at_millis(), 5);
        subscriber.close();
        assert_eq!(
            subscriber.recv_timeout(Duration::from_millis(10)).unwrap_err(),
            RecvTimeoutError::Disconnected
        );
    }

    /// Regression: `Instant::now() + Duration::MAX` overflows, and `recv_timeout` used
    /// to panic on it. A deadline the clock cannot represent waits like `recv`.
    #[test]
    fn recv_timeout_max_waits_like_recv() {
        let (mailbox, subscriber) = open(1);
        let producer = thread::spawn({
            let mailbox = Arc::clone(&mailbox);
            move || {
                thread::sleep(Duration::from_millis(20));
                mailbox.push(item(7));
            }
        });
        assert_eq!(subscriber.recv_timeout(Duration::MAX).unwrap().sent_at_millis(), 7);
        producer.join().unwrap();
        let closer = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            mailbox.close();
        });
        assert_eq!(
            subscriber.recv_timeout(Duration::MAX).unwrap_err(),
            RecvTimeoutError::Disconnected
        );
        closer.join().unwrap();
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
