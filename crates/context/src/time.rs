//! Simulated time: logical clocks and timestamps.
//!
//! The reproduction runs entirely on simulated time so that scenarios, tests and
//! benchmarks are deterministic. A [`LogicalClock`] is advanced explicitly by the
//! deployment (or by the network simulator).

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
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ms", self.0)
    }
}

/// A monotonically non-decreasing simulated clock shared by a deployment.
///
/// The clock is thread-safe and never moves backwards.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp::from_secs(2);
        assert_eq!(t.as_millis(), 2000);
    }

    #[test]
    fn clock_is_monotonic() {
        let clock = LogicalClock::new();
        assert_eq!(clock.now(), Timestamp::ZERO);
        assert_eq!(clock.advance(100), Timestamp(100));
        assert_eq!(clock.advance(400), Timestamp(500));
        assert_eq!(clock.now(), Timestamp(500));
    }

    proptest! {
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
