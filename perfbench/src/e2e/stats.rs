//! Order statistics for the printed summaries.

/// Percentiles a timing may be reported at, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a percentile must have beyond it before it is reported.
const MIN_BEYOND: usize = 10;

/// Median plus quartiles of a sample, and its highest reportable
/// percentile (see [`reportable_percentile`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
    /// `(p, value)` of the highest percentile with at least ten samples
    /// beyond it, if the sample is that large.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarize `values`; `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles(&sorted);
        let tail = reportable_percentile(sorted.len()).map(|p| (p, nearest_rank(&sorted, p)));
        Some(Summary {
            median,
            q1,
            q3,
            n: sorted.len(),
            tail,
        })
    }

    /// `median … (q1 …, q3 …, n …, pXX …)` for the human-readable lines.
    pub fn describe(&self) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!(", p{p} {v:.6}"),
            None => String::new(),
        };
        format!(
            "(median {:.6}, q1 {:.6}, q3 {:.6}, n {}{tail})",
            self.median, self.q1, self.q3, self.n
        )
    }
}

/// Quartiles of an ascending sample, by the same arithmetic as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method,
/// which extrapolates past the ends of small samples), so the printed
/// spread matches the one the runs are judged by. A single value is its
/// own quartiles.
pub fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The highest percentile of [`LADDER`] that has at least ten of `n`
/// samples beyond it, so a tail is never read off a handful of points.
pub fn reportable_percentile(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&p| {
        let at_or_below = (p * n as f64 / 100.0).ceil() as usize;
        n.saturating_sub(at_or_below) >= MIN_BEYOND
    })
}

/// Nearest-rank percentile of an ascending, non-empty sample.
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let rank = (p * sorted.len() as f64 / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0]), (1.25, 3.0, 7.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 2.0, 3.5));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(reportable_percentile(0), None);
        assert_eq!(reportable_percentile(19), None);
        assert_eq!(reportable_percentile(20), Some(50.0));
        assert_eq!(reportable_percentile(40), Some(75.0));
        assert_eq!(reportable_percentile(100), Some(90.0));
        assert_eq!(reportable_percentile(199), Some(90.0));
        assert_eq!(reportable_percentile(200), Some(95.0));
        assert_eq!(reportable_percentile(1000), Some(99.0));
        assert_eq!(reportable_percentile(10_000), Some(99.9));
    }

    #[test]
    fn summary_reports_tail_and_count() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&v).expect("non-empty");
        assert_eq!(s.n, 100);
        assert_eq!(s.median, 50.5);
        assert_eq!(s.tail, Some((90.0, 90.0)));
        let small = Summary::of(&[3.0, 1.0, 2.0]).expect("non-empty");
        assert_eq!((small.median, small.tail), (2.0, None));
        assert!(Summary::of(&[]).is_none());
    }
}
