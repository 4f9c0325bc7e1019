//! Sample statistics for the benchmark's reported figures.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (its
//! default "exclusive" method), so the spreads this benchmark prints are
//! the ones a Python reader recomputes from the same samples.

/// Sorted copy of a sample. NaNs sort last (they never occur in a healthy
/// run; a NaN timing would show up as an absurd tail, not a panic).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count).
///
/// # Panics
/// On an empty sample: every caller measures at least one value.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let v = sorted(xs);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// First, second and third quartile, as `statistics.quantiles(xs, n=4)`
/// computes them. A single value is its own quartiles (Python refuses
/// one-element input; a one-sample run still has to report something).
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    let v = sorted(xs);
    let ld = v.len();
    if ld == 1 {
        return [v[0]; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Tail percentiles this benchmark may report, highest first, in
/// per-mille.
const TAIL_PER_MILLE: [usize; 4] = [990, 950, 900, 750];

/// The highest tail percentile with at least ten samples beyond it
/// (nearest-rank), as `(percentile, value)`. `None` below forty samples:
/// fewer than ten samples above even the 75th percentile would make the
/// "tail" a handful of outliers.
pub fn tail_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    TAIL_PER_MILLE.iter().find_map(|&pm| {
        // Nearest rank: the ceil(p·n)-th smallest sample.
        let rank = (pm * n).div_ceil(1000);
        (rank >= 1 && n - rank >= 10).then(|| (pm as f64 / 10.0, v[rank - 1]))
    })
}

/// Throughput of a timed loop as the median of its windows' rates. The
/// completions (`ticks`, seconds from the loop's start) are cut into
/// windows of `per_window` in time order; a window's rate is its count
/// over the time from the previous window's last completion (or the
/// loop's start) to its own last one. A stall that slows a few windows
/// leaves the median where it was, where it would pull the loop's mean
/// rate down. With fewer than two full windows the loop's plain rate,
/// completions over the last completion's time, is returned instead.
///
/// # Panics
/// On no completion, or a zero window.
pub fn windowed_rate(ticks: &[f64], per_window: usize) -> f64 {
    assert!(!ticks.is_empty() && per_window > 0, "no completion to rate");
    let v = sorted(ticks);
    if v.len() < 2 * per_window {
        return v.len() as f64 / v[v.len() - 1];
    }
    let rates: Vec<f64> = v
        .chunks_exact(per_window)
        .scan(0.0, |start, w| {
            let end = w[per_window - 1];
            let rate = per_window as f64 / (end - *start);
            *start = end;
            Some(rate)
        })
        .collect();
    median(&rates)
}

/// Summary of one timed sample for the run's context record.
pub fn summary_json(xs: &[f64]) -> String {
    let [q1, q2, q3] = quartiles(xs);
    let tail = match tail_percentile(xs) {
        Some((p, v)) => format!(r#", "tail_pct": {p}, "tail": {v}"#),
        None => String::new(),
    };
    format!(
        r#"{{"n": {}, "median": {}, "q1": {q1}, "q3": {q3}, "iqr_over_median": {}{tail}}}"#,
        xs.len(),
        q2,
        if q2 != 0.0 { (q3 - q1) / q2 } else { 0.0 },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from Python 3.11 `statistics.quantiles(v, n=4)`.
        let cases: [(&[f64], [f64; 3]); 4] = [
            (
                &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
                [2.75, 5.5, 8.25],
            ),
            (&[3.5, 1.25, 9.0, 2.0, 7.75], [1.625, 3.5, 8.375]),
            (&[5.0, 1.0], [0.0, 3.0, 6.0]),
            (
                &[2.0, 4.0, 4.0, 5.0, 7.0, 9.0, 10.0, 12.0, 13.0, 20.0, 21.0],
                [4.0, 9.0, 13.0],
            ),
        ];
        for (xs, want) in cases {
            let got = quartiles(xs);
            for (g, w) in got.iter().zip(want) {
                assert!((g - w).abs() < 1e-12, "{xs:?}: {got:?} != {want:?}");
            }
        }
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), None, "39 samples: median only");

        // 40 samples: p75 is the 30th value, with exactly 10 above it.
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((75.0, 30.0)));

        // 100 samples: p90 (90th value) has 10 beyond; p95 would have 5.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((90.0, 90.0)));

        // 1000 samples: p99 has 10 beyond.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((99.0, 990.0)));

        assert_eq!(tail_percentile(&[]), None);
    }

    #[test]
    fn windowed_rate_is_the_median_window_rate() {
        // One completion every 0.5 s: 2 per second in every window.
        let even: Vec<f64> = (1..=12).map(|k| f64::from(k) * 0.5).collect();
        assert!((windowed_rate(&even, 4) - 2.0).abs() < 1e-12);
        // A 3-s stall before the 5th completion slows one window of three;
        // the mean rate drops to 12 / 9 s, the median stays at 2.
        let stalled: Vec<f64> = (1..=12)
            .map(|k| f64::from(k) * 0.5 + if k >= 5 { 3.0 } else { 0.0 })
            .collect();
        assert!((windowed_rate(&stalled, 4) - 2.0).abs() < 1e-12);
        // Order does not matter; a partial last window is left out.
        let mut shuffled = even[..11].to_vec();
        shuffled.reverse();
        assert!((windowed_rate(&shuffled, 4) - 2.0).abs() < 1e-12);
        // Under two windows: completions over the last one's time.
        assert!((windowed_rate(&[0.5, 1.0, 3.0], 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn summary_reports_tail_only_when_earned() {
        let few = summary_json(&[1.0, 2.0, 3.0]);
        assert!(few.contains(r#""n": 3"#) && !few.contains("tail"), "{few}");
        let many: Vec<f64> = (1..=40).map(f64::from).collect();
        assert!(summary_json(&many).contains(r#""tail_pct": 75"#));
    }
}
