//! Percentiles, medians of windows and the run-to-run spread.

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
/// Returns 0 for an empty slice.
pub fn percentile(sorted: &[u32], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The second-best of the windows' values: second-highest when `higher`
/// is better, second-lowest otherwise (the only value, for one window; 0
/// for none).
///
/// Why not the median: on a shared host a run loses time to neighbours in
/// bursts that last seconds, which only ever makes a window worse. Over two
/// sets of ten runs an hour apart the median window moved by up to 28% and
/// spread by up to 23%; the second-best window moved by at most 8%. It is
/// the min-of-N the ROADMAP asks for, less one window so that a single
/// lucky or mis-timed window cannot set the result.
pub fn second_best(values: &[f64], higher: bool) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if higher {
        v.reverse();
    }
    v.get(1).or(v.first()).copied().unwrap_or(0.0)
}

/// Committed operations per window → thousands of operations per second.
pub fn window_kops(window_ops: &[u64], window_secs: f64) -> Vec<f64> {
    window_ops
        .iter()
        .map(|&n| n as f64 / window_secs / 1e3)
        .collect()
}

/// Each window's `p`-th percentile, for the windows that hold at least ten
/// samples beyond it (a thinner window cannot say where its tail is).
/// `groups` holds one unsorted sample vector per window.
pub fn window_percentiles(groups: &mut [Vec<u32>], p: f64) -> Vec<f64> {
    let need = if p <= 50.0 {
        20
    } else {
        (10.0 / (1.0 - p / 100.0)).ceil() as usize
    };
    groups
        .iter_mut()
        .filter(|g| g.len() >= need)
        .map(|g| {
            g.sort_unstable();
            percentile(g, p)
        })
        .collect()
}

/// The `p`-th percentile of all samples pooled: what a run too short for
/// per-window percentiles falls back to.
pub fn pooled_percentile(groups: &[Vec<u32>], p: f64) -> f64 {
    let mut pooled: Vec<u32> = groups.iter().flatten().copied().collect();
    pooled.sort_unstable();
    percentile(&pooled, p)
}

/// The quartiles Python's `statistics.quantiles(values, n=4)` returns
/// (exclusive method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the median:
/// the spread the benchmark's bounds are judged against.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn second_best_ignores_bad_windows_and_one_lucky_one() {
        // Two steady windows, one that lost half its throughput to a
        // neighbour, and one implausibly good one.
        let kops = window_kops(&[500, 250, 900, 490], 0.5);
        assert_eq!(kops, vec![1.0, 0.5, 1.8, 0.98]);
        assert_eq!(second_best(&kops, true), 1.0);
        // Latencies: lower is better.
        assert_eq!(second_best(&[7.0, 5.0, 40.0, 6.0], false), 6.0);
        assert_eq!(second_best(&[3.0], true), 3.0);
        assert_eq!(second_best(&[], false), 0.0);
    }

    #[test]
    fn window_percentiles_skip_thin_windows() {
        // Window p99s are 990, 1980 and 2970; the fourth window holds too
        // few samples to have a p99.
        let mut groups: Vec<Vec<u32>> = (1..=3u32)
            .map(|k| (1..=1000).rev().map(|i| i * k).collect())
            .collect();
        groups.push(vec![1_000_000; 999]);
        assert_eq!(
            window_percentiles(&mut groups, 99.0),
            [990.0, 1980.0, 2970.0]
        );
        // A median needs only twenty samples.
        assert_eq!(window_percentiles(&mut groups, 50.0).len(), 4);
        let mut thin = vec![vec![5, 1], vec![9], vec![3, 7]];
        assert!(window_percentiles(&mut thin, 50.0).is_empty());
        assert_eq!(pooled_percentile(&thin, 50.0), 5.0);
        assert_eq!(pooled_percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        assert_eq!(quartile_spread(&v), 1.0);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), [7.5, 15.0, 22.5]);
    }
}
