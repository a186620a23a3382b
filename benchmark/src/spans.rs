//! Spans recorded from the benchmark's own files, around the calls into each layer.
//!
//! A traced run keeps a 1-in-64 sample of messages and every control-plane call. Each
//! recording thread owns one preallocated [`SpanBuffer`] (no locks, no allocation while
//! measuring); the buffers are merged and written out as JSON lines when the run ends.

use std::fmt::Write as _;

/// Messages whose sequence number is a multiple of this are traced.
pub const SAMPLE_EVERY: u64 = 64;

/// One span: a named interval, the span that caused it, and the identifier shared by
/// all spans of one message (its sequence number) or control call (its event index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span was taken at (`publish`, `deliver`, `control.join` …).
    pub name: &'static str,
    /// Name of the causing span (`""` for a root).
    pub parent: &'static str,
    /// Message sequence number or control-event index.
    pub id: u64,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
}

/// A fixed-capacity span store; records past capacity are counted, not kept.
#[derive(Debug)]
pub struct SpanBuffer {
    spans: Vec<Span>,
    capacity: usize,
    overflowed: u64,
}

impl SpanBuffer {
    /// A buffer for up to `capacity` spans; `0` disables recording (untraced runs).
    pub fn with_capacity(capacity: usize) -> Self {
        SpanBuffer { spans: Vec::with_capacity(capacity), capacity, overflowed: 0 }
    }

    /// Whether message `seq` belongs to the traced sample.
    pub fn samples(&self, seq: u64) -> bool {
        self.capacity > 0 && seq % SAMPLE_EVERY == 0
    }

    /// Records one span.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: &'static str,
        id: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        if self.spans.len() < self.capacity {
            self.spans.push(Span { name, parent, id, start_ns, end_ns });
        } else if self.capacity > 0 {
            self.overflowed += 1;
        }
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans that did not fit.
    pub fn overflowed(&self) -> u64 {
        self.overflowed
    }

    /// Moves another thread's spans into this buffer (after the run; may allocate).
    pub fn absorb(&mut self, other: SpanBuffer) {
        self.capacity += other.capacity;
        self.overflowed += other.overflowed;
        self.spans.extend(other.spans);
    }

    /// The spans as JSON lines, ordered by start time.
    pub fn to_jsonl(&self) -> String {
        let mut ordered: Vec<&Span> = self.spans.iter().collect();
        ordered.sort_by_key(|span| (span.start_ns, span.end_ns));
        let mut out = String::with_capacity(ordered.len() * 96);
        for span in ordered {
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"parent\":\"{}\",\"id\":{},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.parent, span.id, span.start_ns, span.end_ns
            );
        }
        out
    }
}
