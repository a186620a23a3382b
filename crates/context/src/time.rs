//! Simulated time: logical clocks, timestamps and time windows.
//!
//! The reproduction runs entirely on simulated time so that scenarios, tests and
//! benchmarks are deterministic. A [`LogicalClock`] is advanced explicitly by the
//! deployment (or by the network simulator); [`TimeWindow`]s express conditions such as
//! "during the nurse's 08:00–16:00 shift" or "release after the embargo ends".

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A point in simulated time, in milliseconds since the start of the scenario.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The scenario start.
    pub const ZERO: Timestamp = Timestamp(0);

    /// Builds a timestamp from whole seconds of simulated time.
    pub fn from_secs(secs: u64) -> Self {
        Timestamp(secs * 1000)
    }

    /// Milliseconds since scenario start.
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// Adds a duration in milliseconds, saturating on overflow.
    pub fn plus_millis(self, millis: u64) -> Self {
        Timestamp(self.0.saturating_add(millis))
    }

    /// The absolute difference between two timestamps, in milliseconds.
    pub fn abs_diff(self, other: Timestamp) -> u64 {
        self.0.abs_diff(other.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ms", self.0)
    }
}

/// A monotonically non-decreasing simulated clock shared by a deployment.
///
/// The clock is thread-safe; `advance_to` never moves time backwards.
#[derive(Debug, Default)]
pub struct LogicalClock {
    now_millis: AtomicU64,
}

impl LogicalClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current simulated time.
    pub fn now(&self) -> Timestamp {
        Timestamp(self.now_millis.load(Ordering::SeqCst))
    }

    /// Advances the clock by `millis`, returning the new time.
    pub fn advance(&self, millis: u64) -> Timestamp {
        let new = self.now_millis.fetch_add(millis, Ordering::SeqCst).saturating_add(millis);
        Timestamp(new)
    }

    /// Moves the clock forward to `target` if `target` is later than now; never moves
    /// time backwards. Returns the clock's time after the call.
    pub fn advance_to(&self, target: Timestamp) -> Timestamp {
        self.now_millis.fetch_max(target.0, Ordering::SeqCst);
        self.now()
    }
}

/// A half-open window of simulated time `[start, end)`.
///
/// Used for shift-based and embargo-style policy conditions (§3 Concern 6: a nurse may
/// access patient data only during their shift; §9.2 Concern 6: secret data becomes
/// public after a period).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimeWindow {
    /// Inclusive start of the window.
    pub start: Timestamp,
    /// Exclusive end of the window.
    pub end: Timestamp,
}

impl TimeWindow {
    /// Creates a window; `start` must not be after `end`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    pub fn new(start: Timestamp, end: Timestamp) -> Self {
        assert!(start <= end, "time window start must not be after end");
        TimeWindow { start, end }
    }

    /// A window covering all of time.
    pub fn always() -> Self {
        TimeWindow { start: Timestamp::ZERO, end: Timestamp(u64::MAX) }
    }

    /// Whether the window contains `t`.
    pub fn contains(&self, t: Timestamp) -> bool {
        t >= self.start && t < self.end
    }

    /// Whether this window overlaps another.
    pub fn overlaps(&self, other: &TimeWindow) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// The duration of the window in milliseconds.
    pub fn duration_millis(&self) -> u64 {
        self.end.0 - self.start.0
    }
}

impl fmt::Display for TimeWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp::from_secs(2);
        assert_eq!(t.as_millis(), 2000);
        assert_eq!(t.plus_millis(500), Timestamp(2500));
        assert_eq!(t.abs_diff(Timestamp(1500)), 500);
        assert_eq!(Timestamp(u64::MAX).plus_millis(10), Timestamp(u64::MAX));
    }

    #[test]
    fn clock_is_monotonic() {
        let clock = LogicalClock::new();
        assert_eq!(clock.now(), Timestamp::ZERO);
        assert_eq!(clock.advance(100), Timestamp(100));
        assert_eq!(clock.advance_to(Timestamp(50)), Timestamp(100));
        assert_eq!(clock.advance_to(Timestamp(500)), Timestamp(500));
        assert_eq!(clock.now(), Timestamp(500));
    }

    #[test]
    fn window_contains_and_overlaps() {
        let shift = TimeWindow::new(Timestamp(100), Timestamp(200));
        assert!(shift.contains(Timestamp(100)));
        assert!(shift.contains(Timestamp(199)));
        assert!(!shift.contains(Timestamp(200)));
        assert!(!shift.contains(Timestamp(99)));
        assert_eq!(shift.duration_millis(), 100);

        let other = TimeWindow::new(Timestamp(150), Timestamp(250));
        let disjoint = TimeWindow::new(Timestamp(200), Timestamp(300));
        assert!(shift.overlaps(&other));
        assert!(!shift.overlaps(&disjoint));
        assert!(TimeWindow::always().contains(Timestamp(u64::MAX - 1)));
    }

    #[test]
    #[should_panic(expected = "time window start must not be after end")]
    fn inverted_window_panics() {
        let _ = TimeWindow::new(Timestamp(10), Timestamp(5));
    }

    #[test]
    fn window_display() {
        let w = TimeWindow::new(Timestamp(1), Timestamp(2));
        assert_eq!(w.to_string(), "[1ms, 2ms)");
    }

    proptest! {
        /// Overlap is symmetric and consistent with containment of some point.
        #[test]
        fn prop_overlap_symmetric(a in 0u64..1000, b in 1u64..1000, c in 0u64..1000, d in 1u64..1000) {
            let w1 = TimeWindow::new(Timestamp(a.min(a + b)), Timestamp(a + b));
            let w2 = TimeWindow::new(Timestamp(c.min(c + d)), Timestamp(c + d));
            prop_assert_eq!(w1.overlaps(&w2), w2.overlaps(&w1));
        }

        /// advance never decreases the clock.
        #[test]
        fn prop_clock_monotone(steps in proptest::collection::vec(0u64..1000, 1..20)) {
            let clock = LogicalClock::new();
            let mut last = clock.now();
            for s in steps {
                let now = clock.advance(s);
                prop_assert!(now >= last);
                last = now;
            }
        }
    }
}
