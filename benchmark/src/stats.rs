//! Order statistics over the benchmark's samples: nearest-rank percentiles, the
//! "at least ten samples beyond it" rule for quoting a tail percentile, the fast-side
//! decile every end-to-end figure is, and the quartiles the comparison uses.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest sample such that
/// at least `p` (in `(0, 1]`) of the samples are less than or equal to it. `None` when
/// the slice is empty.
pub fn nearest_rank<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank_of(sorted.len(), p) - 1])
}

/// The 1-based nearest rank of percentile `p` among `count` (non-zero) samples:
/// `⌈p · count⌉`, taken just below the product so that `0.9 · 100` — which is
/// `90.00000000000001` in floating point — is rank 90, not 91.
fn rank_of(count: usize, p: f64) -> usize {
    ((p * count as f64 - 1e-9).ceil() as usize).clamp(1, count)
}

/// [`nearest_rank`], but only when at least ten samples lie beyond the percentile —
/// quoting anything higher reports a handful of outliers, not a distribution.
pub fn supported_percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if !sorted.is_empty() && sorted.len() - rank_of(sorted.len(), p) >= 10 {
        nearest_rank(sorted, p)
    } else {
        None
    }
}

/// Median of unsorted values (mean of the middle two for even counts); `0.0` when
/// empty, which every caller treats as "no samples".
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method (`statistics.quantiles(values,
/// n=4)` in Python, which the acceptance rule is stated in): position `(n + 1) · q`
/// with linear interpolation, clamped to the extremes. `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let position = (sorted.len() + 1) as f64 * q;
        let below = (position.floor() as usize).clamp(1, sorted.len());
        let above = (below + 1).min(sorted.len());
        let fraction = (position - below as f64).clamp(0.0, 1.0);
        sorted[below - 1] + (sorted[above - 1] - sorted[below - 1]) * fraction
    };
    Some((at(0.25), at(0.75)))
}

/// Sorts one window's latency samples (ns) in place and returns its nearest-rank median
/// and 90th percentile in µs.
pub fn window_p50_p90_us(window: &mut [u32]) -> (f64, f64) {
    window.sort_unstable();
    let at = |p| nearest_rank(window, p).map_or(0.0, f64::from) / 1e3;
    (at(0.5), at(0.9))
}

/// The fast-side decile of `values` by nearest rank: the value one tenth of the way in
/// from the fast end — the largest tenth for rates, the smallest for times. With six
/// values it is the best one, with 240 the 24th best. `0.0` when empty.
///
/// Every end-to-end figure is this statistic over many windows of equal work. The host
/// (a shared two-vCPU microVM) moves between speed levels for seconds to minutes at a
/// time — single-thread work was measured at 165 k and at 265 k sends/s in different
/// minutes — so a median lands on whichever level filled most of the run. Only the
/// fast level is a property of the code; the decile reaches it in nearly every run and
/// is not moved by a few lucky windows the way the best window is.
pub fn fast_decile(values: &[f64], rate: bool) -> f64 {
    fast_quantile(values, 0.1, rate)
}

/// The value `share` of the way in from the fast end of `values`, by nearest rank.
pub fn fast_quantile(values: &[f64], share: f64, rate: bool) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if rate {
        sorted.reverse();
    }
    nearest_rank(&sorted, share).unwrap_or(0.0)
}

/// [`fast_decile`] part by part: `passes[p][r]` is what pass `p` measured for part `r`
/// of a script that does the same work in every pass; the result has one value per
/// part. A disturbance shorter than a pass then costs the parts it covered one of their
/// passes, not the whole pass its figure.
pub fn fast_decile_by_part(passes: &[Vec<f64>], rate: bool) -> Vec<f64> {
    let parts = passes.iter().map(Vec::len).min().unwrap_or(0);
    (0..parts)
        .map(|part| {
            let across: Vec<f64> = passes.iter().map(|pass| pass[part]).collect();
            fast_decile(&across, rate)
        })
        .collect()
}
