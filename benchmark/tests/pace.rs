//! Tick and due-time arithmetic of the open-loop schedule.

use legaliot_benchmark::pace::{Schedule, TICKS_PER_SEC, TICK_NS};

#[test]
fn ticks_are_250_microseconds() {
    assert_eq!(TICK_NS, 250_000);
    assert_eq!(TICKS_PER_SEC, 4_000);
}

#[test]
fn whole_multiples_of_the_tick_rate_fill_every_tick_equally() {
    let schedule = Schedule::new(200_000);
    assert_eq!(schedule.tick_of(0), 0);
    assert_eq!(schedule.tick_of(49), 0);
    assert_eq!(schedule.tick_of(50), 1);
    assert_eq!(schedule.due_ns(50), TICK_NS);
    assert_eq!(schedule.first_after(0), 50);
    assert_eq!(schedule.first_after(3), 200);
    assert_eq!(schedule.messages_in(7.2), 1_440_000);
}

#[test]
fn other_rates_spread_evenly_without_drift() {
    // 25 000 msgs/s is 6.25 per tick: ticks carry 6 or 7, and four ticks carry 25.
    let schedule = Schedule::new(25_000);
    let per_tick: Vec<u64> = (0..8)
        .map(|tick| {
            schedule.first_after(tick) - if tick == 0 { 0 } else { schedule.first_after(tick - 1) }
        })
        .collect();
    assert_eq!(per_tick, vec![7, 6, 6, 6, 7, 6, 6, 6]);
    assert_eq!(schedule.first_after(TICKS_PER_SEC - 1), 25_000);
}

#[test]
fn due_time_is_a_pure_function_of_the_sequence_number() {
    for rate in [1, 999, 25_000, 100_000, 200_000] {
        let schedule = Schedule::new(rate);
        let mut previous = 0;
        for index in 0..5_000u64 {
            let tick = schedule.tick_of(index);
            // Monotone, and consistent with the per-tick boundaries the generator uses.
            assert!(tick >= previous);
            assert!(index < schedule.first_after(tick), "rate {rate} index {index}");
            assert!(
                tick == 0 || index >= schedule.first_after(tick - 1),
                "rate {rate} index {index}"
            );
            assert_eq!(schedule.due_ns(index), tick * TICK_NS);
            previous = tick;
        }
        // One second of messages is due within one second of ticks.
        assert!(schedule.tick_of(rate - 1) < TICKS_PER_SEC);
    }
}
