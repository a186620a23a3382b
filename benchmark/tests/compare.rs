//! The verdicts of `--compare`.

use legaliot_benchmark::catalogue::Better;
use legaliot_benchmark::compare::{judge, Reading, Verdict};

fn tight(value: f64) -> Reading {
    Reading { value, edge: Some((value * 0.99, value * 1.01)) }
}

#[test]
fn a_change_beyond_the_bound_is_better_or_worse_by_direction() {
    assert_eq!(judge(Better::Lower, 0.10, tight(100.0), tight(105.0)), Verdict::Same);
    assert_eq!(judge(Better::Lower, 0.10, tight(100.0), tight(111.0)), Verdict::Worse);
    assert_eq!(judge(Better::Lower, 0.10, tight(100.0), tight(89.0)), Verdict::Better);
    assert_eq!(judge(Better::Higher, 0.10, tight(100.0), tight(111.0)), Verdict::Better);
    assert_eq!(judge(Better::Higher, 0.10, tight(100.0), tight(89.0)), Verdict::Worse);
    // A value without windows behind it (peak memory) is judged on the value alone.
    let bare = |value| Reading { value, edge: None };
    assert_eq!(judge(Better::Lower, 0.10, bare(100.0), bare(120.0)), Verdict::Worse);
}

#[test]
fn a_spread_wider_than_the_bound_is_unresolved_unless_the_ranges_clear() {
    let noisy = |value: f64| Reading { value, edge: Some((value * 0.8, value * 1.2)) };
    // Overlapping fast edges: neither "same" nor "worse" can be claimed.
    assert_eq!(judge(Better::Lower, 0.10, noisy(100.0), noisy(115.0)), Verdict::Unresolved);
    assert_eq!(judge(Better::Lower, 0.10, noisy(100.0), noisy(100.0)), Verdict::Unresolved);
    // The whole edge of B beyond the whole edge of A: resolved despite the noise.
    assert_eq!(judge(Better::Lower, 0.10, noisy(100.0), noisy(200.0)), Verdict::Worse);
    assert_eq!(judge(Better::Higher, 0.10, noisy(100.0), noisy(200.0)), Verdict::Better);
}
