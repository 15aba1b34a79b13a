//! Order statistics for small sample sets.

/// Median and quartiles of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarizes `samples`; `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles(&s);
        Some(Self {
            n: s.len(),
            min: s[0],
            q1,
            median,
            q3,
            max: s[s.len() - 1],
        })
    }

    /// Interquartile range as a share of the median — the spread the
    /// acceptance rule compares with a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

/// The `p`-th percentile (nearest rank) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Quartiles of sorted data by the exclusive method — the one Python's
/// `statistics.quantiles(values, n=4)` uses, so the spread printed here is
/// the spread the acceptance check computes.
fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let m = sorted.len();
    if m == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_even_and_five_sample_inputs() {
        // Expected values are statistics.quantiles(data, n=4) in Python.
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 3.75));
        let s = Summary::of(&[10.0, 50.0, 20.0, 40.0, 30.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (15.0, 30.0, 45.0));
        assert_eq!((s.n, s.min, s.max), (5, 10.0, 50.0));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
    }

    #[test]
    fn degenerate_inputs() {
        assert!(Summary::of(&[]).is_none());
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.spread()), (7.0, 7.0, 7.0, 0.0));
        let s = Summary::of(&[1.0, 3.0]).unwrap();
        assert_eq!(s.median, 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let data: Vec<f64> = (1..=120).map(f64::from).collect();
        assert_eq!(percentile(&data, 50.0), 60.0);
        // 12 of 120 samples lie beyond the 90th percentile.
        assert_eq!(percentile(&data, 90.0), 108.0);
        assert_eq!(percentile(&[5.0], 90.0), 5.0);
    }
}
