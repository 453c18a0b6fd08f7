//! Medians and quartiles, computed exactly as Python's `statistics`
//! module does (`median`, and `quantiles(values, n=4)` with its default
//! exclusive method), so numbers printed here match any outside check
//! made with that module.

/// Median, q1, q3 and sample count of one metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarise `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        if v.is_empty() {
            return None;
        }
        v.sort_by(f64::total_cmp);
        let (q1, q3) = quartiles(&v);
        Some(Summary { median: median_sorted(&v), q1, q3, n: v.len() })
    }

    /// Quartile distance as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    median_sorted(&v)
}

fn median_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `statistics.quantiles(v, n=4)` on sorted `v` (one value repeats for a
/// single sample, as Python 3.13 does).
fn quartiles(v: &[f64]) -> (f64, f64) {
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0]);
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn matches_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert!(close(s.q1, 2.75) && close(s.median, 5.5) && close(s.q3, 8.25), "{s:?}");
        assert_eq!(s.n, 10);
        // [3, 1, 2] -> quantiles [1.0, 2.0, 3.0], median 2
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert!(close(s.q1, 1.0) && close(s.median, 2.0) && close(s.q3, 3.0), "{s:?}");
        // [1, 2] -> quantiles [0.75, 1.5, 2.25]: the exclusive method
        // extrapolates past the data.
        let s = Summary::of(&[2.0, 1.0]).unwrap();
        assert!(close(s.q1, 0.75) && close(s.median, 1.5) && close(s.q3, 2.25), "{s:?}");
        // [1, 2, 3, 4] -> [1.25, 2.5, 3.75]
        let s = Summary::of(&[4.0, 3.0, 2.0, 1.0]).unwrap();
        assert!(close(s.q1, 1.25) && close(s.q3, 3.75), "{s:?}");
        assert!(close(s.spread(), 1.0));
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(Summary::of(&[]), None);
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (7.0, 7.0, 7.0, 1));
        assert_eq!(s.spread(), 0.0);
        assert_eq!(median(&[5.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
