//! Measurement utilities shared by the instrumentation and the benchmark
//! harness: counters, samplers with exact quantiles, log-bucketed
//! histograms, and an ordinary-least-squares line fit (used for the paper's
//! `RTT(n) = 0.1112·n + 61.02 µs` regression).

/// Monotone event counter.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    n: u64,
}

impl Counter {
    /// Add one.
    pub fn inc(&mut self) {
        self.n += 1;
    }

    /// Add `k`.
    pub fn add(&mut self, k: u64) {
        self.n += k;
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.n
    }
}

/// Sample collector with exact quantiles (stores every observation).
///
/// Used where the paper reports distributions — e.g. the "strongly bimodal"
/// client round-trip latencies of §6.4.1.
#[derive(Clone, Debug, Default)]
pub struct Sampler {
    xs: Vec<f64>,
    sorted: bool,
}

impl Sampler {
    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.xs.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.xs.len()
    }

    /// The raw observations, in insertion order unless a quantile call
    /// has sorted them (merge per-component samplers into one
    /// distribution with `absorb`).
    pub fn samples(&self) -> &[f64] {
        &self.xs
    }

    /// Fold another sampler's observations into this one.
    pub fn absorb(&mut self, other: &Sampler) {
        self.xs.extend_from_slice(&other.xs);
        self.sorted = false;
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.xs.is_empty() {
            0.0
        } else {
            self.xs.iter().sum::<f64>() / self.xs.len() as f64
        }
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.xs.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.sorted = true;
        }
    }

    /// Exact q-quantile by nearest-rank (0 when empty), `q` in `[0,1]`.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.xs.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let idx = ((self.xs.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
        self.xs[idx]
    }

    /// Median.
    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    /// Detect bimodality with a crude valley test: splits the sorted samples
    /// at the largest gap and reports `(low_mode_mean, high_mode_mean,
    /// low_fraction)` when the gap exceeds `gap_factor` × median spacing.
    pub fn bimodal_split(&mut self, gap_factor: f64) -> Option<(f64, f64, f64)> {
        if self.xs.len() < 8 {
            return None;
        }
        self.ensure_sorted();
        let mut gaps: Vec<f64> =
            self.xs.windows(2).map(|w| w[1] - w[0]).collect();
        let (mut best_i, mut best_gap) = (0, 0.0);
        for (i, &g) in gaps.iter().enumerate() {
            if g > best_gap {
                best_gap = g;
                best_i = i;
            }
        }
        gaps.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median_gap = gaps[gaps.len() / 2].max(f64::MIN_POSITIVE);
        if best_gap < gap_factor * median_gap {
            return None;
        }
        let low = &self.xs[..=best_i];
        let high = &self.xs[best_i + 1..];
        let lm = low.iter().sum::<f64>() / low.len() as f64;
        let hm = high.iter().sum::<f64>() / high.len() as f64;
        Some((lm, hm, low.len() as f64 / self.xs.len() as f64))
    }
}

/// Log₂-bucketed histogram for nonnegative integer magnitudes (latencies in
/// ns, queue depths). Constant memory regardless of sample count.
#[derive(Clone, Debug)]
pub struct LogHistogram {
    buckets: [u64; 64],
    count: u64,
    sum: u128,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram { buckets: [0; 64], count: 0, sum: 0 }
    }
}

impl LogHistogram {
    /// Record one value.
    pub fn record(&mut self, v: u64) {
        let b = 64 - v.leading_zeros() as usize; // 0 -> bucket 0
        self.buckets[b.min(63)] += 1;
        self.count += 1;
        self.sum += v as u128;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Fold another histogram into this one. Bucket counts and sums are
    /// plain additions, so absorption is commutative and associative —
    /// merging per-shard histograms yields the same bytes in any order,
    /// which the parallel differential tests rely on.
    pub fn absorb(&mut self, other: &LogHistogram) {
        for (b, &c) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += c;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Raw bucket counts (bucket `i` holds values in `[2^(i-1), 2^i)`,
    /// bucket 0 holds zero).
    pub fn buckets(&self) -> &[u64; 64] {
        &self.buckets
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean of recorded values.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the q-quantile (approximate,
    /// within 2× of the true value).
    pub fn quantile_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (self.count as f64 * q.clamp(0.0, 1.0)).ceil() as u64;
        let mut acc = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target {
                return if i == 0 { 0 } else { 1u64 << i } - if i == 0 { 0 } else { 1 };
            }
        }
        u64::MAX
    }
}

/// Ordinary least-squares fit `y = slope·x + intercept`.
///
/// Returns `(slope, intercept, r_squared)`. Panics if fewer than two points
/// or zero x-variance.
pub fn linear_fit(points: &[(f64, f64)]) -> (f64, f64, f64) {
    assert!(points.len() >= 2, "need at least two points");
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let mx = sx / n;
    let my = sy / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    assert!(sxx > 0.0, "x values are degenerate");
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let ss_tot: f64 = points.iter().map(|p| (p.1 - my) * (p.1 - my)).sum();
    let ss_res: f64 = points
        .iter()
        .map(|p| {
            let e = p.1 - (slope * p.0 + intercept);
            e * e
        })
        .sum();
    let r2 = if ss_tot == 0.0 { 1.0 } else { 1.0 - ss_res / ss_tot };
    (slope, intercept, r2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let mut c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn empty_stats_are_zero() {
        let mut s = Sampler::default();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.quantile(0.5), 0.0);
    }

    #[test]
    fn sampler_quantiles_exact() {
        let mut s = Sampler::default();
        for x in (1..=100).rev() {
            s.record(x as f64);
        }
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert!((s.median() - 50.0).abs() <= 1.0);
        assert!((s.quantile(0.9) - 90.0).abs() <= 1.0);
    }

    #[test]
    fn sampler_detects_bimodal() {
        let mut s = Sampler::default();
        for i in 0..50 {
            s.record(10.0 + (i % 5) as f64 * 0.1); // fast mode ~10us
        }
        for i in 0..25 {
            s.record(3000.0 + (i % 5) as f64 * 10.0); // remap mode ~3ms
        }
        let (lo, hi, frac) = s.bimodal_split(10.0).expect("should detect modes");
        assert!(lo < 15.0 && hi > 2900.0);
        assert!((frac - 2.0 / 3.0).abs() < 0.05);
    }

    #[test]
    fn sampler_unimodal_no_split() {
        let mut s = Sampler::default();
        for i in 0..100 {
            s.record(10.0 + i as f64 * 0.05);
        }
        assert!(s.bimodal_split(10.0).is_none());
    }

    #[test]
    fn log_histogram_quantiles() {
        let mut h = LogHistogram::default();
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(100_000);
        }
        assert_eq!(h.count(), 100);
        assert!((h.mean() - 10_090.0).abs() < 1.0);
        assert!(h.quantile_bound(0.5) < 256);
        assert!(h.quantile_bound(0.99) > 65_000);
    }

    #[test]
    fn log_histogram_absorb_is_order_independent() {
        let mut a = LogHistogram::default();
        let mut b = LogHistogram::default();
        for v in [1u64, 5, 90, 4096, 70_000] {
            a.record(v);
        }
        for v in [2u64, 300, 8_000_000] {
            b.record(v);
        }
        let mut ab = a.clone();
        ab.absorb(&b);
        let mut ba = b.clone();
        ba.absorb(&a);
        assert_eq!(ab.buckets(), ba.buckets());
        assert_eq!(ab.count(), 8);
        assert_eq!(ab.sum(), ba.sum());
        assert_eq!(ab.quantile_bound(0.5), ba.quantile_bound(0.5));
    }

    #[test]
    fn linear_fit_recovers_line() {
        // y = 0.1112 x + 61.02 with no noise, like the paper's RTT fit.
        let pts: Vec<(f64, f64)> =
            (1..=64).map(|i| (i as f64 * 128.0, 0.1112 * i as f64 * 128.0 + 61.02)).collect();
        let (m, b, r2) = linear_fit(&pts);
        assert!((m - 0.1112).abs() < 1e-9);
        assert!((b - 61.02).abs() < 1e-6);
        assert!(r2 > 0.999999);
    }
}
