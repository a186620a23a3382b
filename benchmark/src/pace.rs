//! The open-loop schedule: messages are due on fixed 250 µs ticks, and a message's due
//! time is a pure function of its sequence number — the consumer recomputes it from the
//! number carried in the message's timestamp, so generator and consumer share no state
//! per message.

use std::time::{Duration, Instant};

/// Length of one schedule tick.
pub const TICK_NS: u64 = 250_000;
/// Ticks per second.
pub const TICKS_PER_SEC: u64 = 1_000_000_000 / TICK_NS;

/// A fixed-rate schedule of `rate` messages per second in whole ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    rate: u64,
}

impl Schedule {
    /// A schedule of `rate` messages per second (at least one).
    pub fn new(rate: u64) -> Self {
        Schedule { rate: rate.max(1) }
    }

    /// The tick on which message `index` (0-based within the phase) is due. Rates that
    /// are not a multiple of the tick rate spread evenly: at 25 000 msgs/s ticks carry
    /// 6 or 7 messages, never a drifting remainder.
    pub fn tick_of(self, index: u64) -> u64 {
        index * TICKS_PER_SEC / self.rate
    }

    /// Nanoseconds after the phase start at which message `index` is due.
    pub fn due_ns(self, index: u64) -> u64 {
        self.tick_of(index) * TICK_NS
    }

    /// The first message index that is *not* due by the end of `tick`: the messages due
    /// on a tick are `first_after(tick - 1)..first_after(tick)`.
    pub fn first_after(self, tick: u64) -> u64 {
        ((tick + 1) * self.rate).div_ceil(TICKS_PER_SEC)
    }

    /// Messages due in `seconds` seconds of this schedule.
    pub fn messages_in(self, seconds: f64) -> u64 {
        (self.rate as f64 * seconds).round() as u64
    }
}

/// Nanoseconds from `epoch` to now; every clock read of a run goes through one epoch so
/// times from different threads compare.
pub fn now_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Asks the kernel to deliver the main thread's timer wake-ups when they are due: by
/// default it may round each up to 50 µs late to batch them, which every paced latency
/// (measured from the due time) would include. Best effort, and without `unsafe` only
/// the process's main thread can be reached — the generator runs on it. Returns the
/// slack now in force in nanoseconds, `None` where `/proc` does not say.
pub fn tighten_timer_slack() -> Option<u64> {
    const SLACK: &str = "/proc/self/timerslack_ns";
    let _ = std::fs::write(SLACK, "1");
    std::fs::read_to_string(SLACK).ok()?.trim().parse().ok()
}

/// Sleeps until `due_ns` after `epoch` and returns how late the wake-up was, in
/// nanoseconds. It never spins: on a two-core box a spinning generator competes with
/// the shard and consumer threads it is trying to measure (a sleep-then-spin variant
/// made the paced latencies several times noisier). The price is the timer's overshoot
/// (≈30 µs here with [`tighten_timer_slack`], ≈90 µs without), which the latency,
/// measured from the due time, includes — as it includes every other stall of the
/// generator — and which is reported.
pub fn wait_until(epoch: Instant, due_ns: u64) -> u64 {
    loop {
        let now = now_ns(epoch);
        if now >= due_ns {
            return now - due_ns;
        }
        std::thread::sleep(Duration::from_nanos(due_ns - now));
    }
}
