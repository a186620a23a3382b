//! Order statistics: nearest-rank percentiles and the "at least ten samples beyond"
//! rule.

use legaliot_benchmark::stats::{
    fast_decile, fast_decile_by_part, median, nearest_rank, quartiles, supported_percentile,
    window_p50_p90_us,
};

#[test]
fn nearest_rank_picks_the_smallest_sample_covering_the_share() {
    let sorted: Vec<u32> = (1..=10).collect();
    assert_eq!(nearest_rank(&sorted, 0.5), Some(5));
    assert_eq!(nearest_rank(&sorted, 0.9), Some(9));
    assert_eq!(nearest_rank(&sorted, 0.91), Some(10));
    assert_eq!(nearest_rank(&sorted, 1.0), Some(10));
    // Never below the first sample, never interpolated.
    assert_eq!(nearest_rank(&sorted, 0.0001), Some(1));
    assert_eq!(nearest_rank(&[7u32], 0.5), Some(7));
    assert_eq!(nearest_rank::<u32>(&[], 0.5), None);
}

#[test]
fn a_percentile_is_quoted_only_with_ten_samples_beyond_it() {
    let samples = |count: u32| (1..=count).collect::<Vec<u32>>();
    // The median needs twenty samples, p90 a hundred, p99 a thousand.
    assert_eq!(supported_percentile(&samples(19), 0.5), None);
    assert_eq!(supported_percentile(&samples(20), 0.5), Some(10));
    assert_eq!(supported_percentile(&samples(99), 0.9), None);
    assert_eq!(supported_percentile(&samples(100), 0.9), Some(90));
    assert_eq!(supported_percentile(&samples(999), 0.99), None);
    assert_eq!(supported_percentile(&samples(1_000), 0.99), Some(990));
    assert_eq!(supported_percentile(&samples(1_000), 0.999), None);
    assert_eq!(supported_percentile(&samples(10_000), 0.999), Some(9_990));
    assert_eq!(supported_percentile::<u32>(&[], 0.5), None);
}

#[test]
fn the_fast_decile_is_a_tenth_in_from_the_fast_end() {
    let values: Vec<f64> = (1..=240).map(f64::from).collect();
    // Times: the 24th smallest. Rates: the 24th largest.
    assert_eq!(fast_decile(&values, false), 24.0);
    assert_eq!(fast_decile(&values, true), 217.0);
    // Six passes: the best one. Nothing: zero.
    assert_eq!(fast_decile(&[5.0, 3.0, 9.0, 4.0, 8.0, 7.0], false), 3.0);
    assert_eq!(fast_decile(&[5.0, 3.0, 9.0, 4.0, 8.0, 7.0], true), 9.0);
    assert_eq!(fast_decile(&[], true), 0.0);
}

#[test]
fn parts_of_a_repeated_script_take_their_fast_decile_over_the_passes() {
    // Three passes of a two-part script; the second pass was disturbed during part 0,
    // the third during part 1.
    let passes = vec![vec![2.0, 7.0], vec![9.0, 5.0], vec![3.0, 8.0]];
    assert_eq!(fast_decile_by_part(&passes, false), vec![2.0, 5.0]);
    assert_eq!(fast_decile_by_part(&passes, true), vec![9.0, 8.0]);
    // A pass cut short limits the parts; no passes, no parts.
    assert_eq!(fast_decile_by_part(&[vec![2.0, 7.0], vec![1.0]], false), vec![1.0]);
    assert!(fast_decile_by_part(&[], false).is_empty());
}

#[test]
fn a_window_reports_its_median_and_p90_in_microseconds() {
    let mut window: Vec<u32> = (1..=10).rev().map(|n| n * 1_000).collect();
    assert_eq!(window_p50_p90_us(&mut window), (5.0, 9.0));
}

#[test]
fn quartiles_match_pythons_exclusive_method() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let values: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&values), Some((2.75, 8.25)));
    assert_eq!(median(&values), 5.5);
    // Order does not matter; too few samples have no quartiles.
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
    assert_eq!(quartiles(&[1.0]), None);
    assert_eq!(median(&[]), 0.0);
}
