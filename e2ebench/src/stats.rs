//! Order statistics for latency samples.

/// The percentiles a tail may be reported at, ascending. A fixed ladder
/// keeps the reported percentile the same from run to run as long as the
/// sample count stays inside one band.
pub const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples a tail percentile must have beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Linear-interpolated quantile (`q` in `[0, 1]`) of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Ascending copy of `v`.
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of `v` (NaN when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v), 0.5)
}

/// Samples strictly beyond percentile `pct` among `n`: those ranked above
/// `⌈n·pct/100⌉`.
pub fn beyond(n: usize, pct: f64) -> usize {
    n - ((n as f64 * pct / 100.0).ceil() as usize).min(n)
}

/// A tail latency: the percentile it was taken at, its value, and how
/// many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile, e.g. `75.0`.
    pub pct: f64,
    /// Value at that percentile.
    pub value: f64,
    /// Samples beyond it.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// The highest ladder percentile, at most `cap`, with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it. A workload caps the percentile
/// at the one its sample count reaches on the reference machine, so runs
/// that fit a few more ops still report the same percentile. With fewer
/// than 20 samples no percentile qualifies and the median is returned,
/// its `beyond` showing the shortfall.
pub fn tail(v: &[f64], cap: f64) -> Tail {
    let s = sorted(v);
    let n = s.len();
    let pct = TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| p <= cap && beyond(n, p) >= TAIL_MIN_BEYOND)
        .unwrap_or(TAIL_LADDER[0]);
    Tail {
        pct,
        value: quantile(&s, pct / 100.0),
        beyond: beyond(n, pct),
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        for n in [20usize, 39, 40, 99, 100, 199, 200, 999, 1000, 5000, 20_000] {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let t = tail(&v, 100.0);
            assert!(t.beyond >= TAIL_MIN_BEYOND, "n={n}: {t:?}");
            // The next ladder step would leave fewer than ten beyond it.
            if let Some(&next) = TAIL_LADDER.iter().find(|&&p| p > t.pct) {
                assert!(
                    beyond(n, next) < TAIL_MIN_BEYOND,
                    "n={n}: {next} also qualifies"
                );
            }
        }
        assert_eq!(tail(&[0.0; 40], 100.0).pct, 75.0);
        assert_eq!(tail(&[0.0; 39], 100.0).pct, 50.0);
        assert_eq!(tail(&[0.0; 100], 100.0).pct, 90.0);
        assert_eq!(tail(&[0.0; 1000], 100.0).pct, 99.0);
        // A cap holds the percentile still as the sample count grows.
        assert_eq!(tail(&[0.0; 1000], 90.0).pct, 90.0);
        assert_eq!(tail(&[0.0; 60], 90.0).pct, 75.0);
    }

    #[test]
    fn tail_value_sits_at_its_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v, 100.0);
        assert_eq!(t.pct, 90.0);
        assert!((t.value - 90.1).abs() < 1e-9);
        // Ten samples (91..=100) exceed it.
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
    }
}
