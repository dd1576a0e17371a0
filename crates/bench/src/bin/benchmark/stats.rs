//! Statistics over raw samples.
//!
//! Percentiles are read from every recorded value, sorted, by nearest
//! rank — never from `telemetry::Histogram` buckets. Those buckets are up
//! to 25% wide, so a 1 µs shift in the data can read as an 8 µs jump in
//! the reported quantile (pinned by the tests below).

/// Fewest samples that must lie beyond a tail percentile before it is
/// reported.
pub const MIN_BEYOND: usize = 10;

/// One run's samples, sorted once.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Sorts `values` (any order, no NaN).
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(f64::total_cmp);
        Samples(values)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Arithmetic mean, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }

    /// The 1-based nearest rank of percentile `p`: the smallest rank with
    /// at least `p`% of the samples at or below it.
    fn rank(&self, p: f64) -> usize {
        let n = self.0.len();
        ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
    }

    /// The nearest-rank median; `None` when empty.
    pub fn median(&self) -> Option<f64> {
        (!self.0.is_empty()).then(|| self.0[self.rank(50.0) - 1])
    }

    /// The nearest-rank value at percentile `p`, or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie above it.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.0.is_empty() {
            return None;
        }
        let rank = self.rank(p);
        (self.0.len() - rank >= MIN_BEYOND).then(|| self.0[rank - 1])
    }
}

/// Units of work completed per second over a window, read so that a burst
/// of interference from outside the process moves it no more than it moves
/// a median: the completion times (seconds from the window's start, in any
/// order) are cut into consecutive slices of about one second's worth of
/// completions (a window shorter than a second is one slice), and the
/// median of the slices' rates is returned. `None` when nothing completed.
pub fn median_rate(mut done_at: Vec<f64>, window_s: f64) -> Option<f64> {
    done_at.sort_by(f64::total_cmp);
    let n = done_at.len();
    let per_slice = ((n as f64 / window_s).ceil() as usize).min(n).max(1);
    let mut start = 0.0;
    let rates = done_at
        .chunks_exact(per_slice)
        .map(|slice| {
            let end = slice[per_slice - 1];
            let rate = per_slice as f64 / (end - start);
            start = end;
            rate
        })
        .filter(|r| r.is_finite())
        .collect();
    Samples::new(rates).median()
}

/// `(q1, median, q3)` of per-run values by the exclusive method, exactly
/// as Python's `statistics.quantiles(values, n=4)` computes them; a
/// single value is its own quartiles. `None` when empty.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    match ld {
        0 => return None,
        1 => return Some((data[0], data[0], data[0])),
        _ => {}
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hps_runtime::telemetry::Histogram;

    #[test]
    fn nearest_rank_percentiles() {
        let s = Samples::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.median(), Some(50.0));
        assert_eq!(s.percentile(50.0), Some(50.0));
        assert_eq!(s.percentile(90.0), Some(90.0));
        assert_eq!(s.percentile(90.5), None, "only 9 samples above rank 91");
        assert_eq!(s.percentile(99.0), None);
        assert_eq!(s.mean(), 50.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let s = Samples::new((0..1000).map(f64::from).collect());
        assert_eq!(s.percentile(99.0), Some(989.0), "rank 990 of 1000");
        let s = Samples::new((0..999).map(f64::from).collect());
        assert_eq!(s.percentile(99.0), None, "rank 990 of 999 has 9 above");
        assert_eq!(Samples::new(vec![3.0]).median(), Some(3.0));
        assert_eq!(Samples::default().median(), None);
    }

    #[test]
    fn median_rate_reads_through_a_burst() {
        // 100 completions a second for 10 s, except seconds 3 and 4, when
        // interference halves the rate: 900 done, 90 a second on average.
        let mut done_at = Vec::new();
        let mut t = 0.0;
        while done_at.len() < 900 {
            t += if (3.0..5.0).contains(&t) { 0.02 } else { 0.01 };
            done_at.push(t);
        }
        done_at.reverse();
        let rate = median_rate(done_at, 10.0).unwrap();
        assert!((rate - 100.0).abs() < 1e-6, "{rate}");
        assert_eq!(median_rate(vec![0.5], 10.0), Some(2.0));
        assert_eq!(median_rate(vec![0.1, 0.2, 0.25], 0.3), Some(12.0));
        assert_eq!(median_rate(Vec::new(), 10.0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([4, 1], n=4) == [0.25, 2.5, 4.75]
        assert_eq!(quartiles(&[4.0, 1.0]), Some((0.25, 2.5, 4.75)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn raw_samples_keep_what_histogram_buckets_merge() {
        // Round trips of 40 µs and 46 µs share the [40, 47] bucket, so a
        // histogram reports 47 for both; 39 µs sits one bucket lower, so
        // a 1 µs shift from 39 to 40 reads as a jump from 39 to 47. Half
        // the samples are slow, as in a real tail, so the histogram cannot
        // clamp its answer to the largest sample.
        let median_of = |us: u64| {
            let values: Vec<u64> = [us; 30].into_iter().chain([100; 30]).collect();
            let mut h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            let raw = Samples::new(values.iter().map(|&v| v as f64).collect());
            (h.quantile(0.5), raw.median())
        };
        assert_eq!(median_of(39), (Some(39), Some(39.0)));
        assert_eq!(median_of(40), (Some(47), Some(40.0)));
        assert_eq!(median_of(46), (Some(47), Some(46.0)));
        assert_eq!(median_of(47), (Some(47), Some(47.0)));
    }
}
