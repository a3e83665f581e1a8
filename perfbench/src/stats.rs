//! Order statistics over timing samples.
//!
//! Every timing the benchmark reports is a median or a *tail* percentile:
//! the highest percentile (capped at p99) that still has at least
//! [`TAIL_SAMPLES`] samples beyond it, so a tail figure always rests on
//! enough observations to mean something, and its sample count is printed
//! next to it.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The highest percentile the benchmark reports.
pub const MAX_TAIL: f64 = 0.99;

/// A sorted copy of the samples.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The `q` quantile (0..=1) of the samples by linear interpolation between
/// closest ranks; `None` when there are no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let v = sorted(samples);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    if frac == 0.0 {
        // exact rank: also keeps infinite samples from turning into NaN
        return Some(v[lo]);
    }
    Some(v[lo] + (v[lo + 1] - v[lo]) * frac)
}

/// The median of the samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The highest percentile, at most [`MAX_TAIL`], with at least
/// [`TAIL_SAMPLES`] of `n` samples strictly beyond its rank; `None` when
/// `n` is too small for any percentile to have that many samples beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n <= TAIL_SAMPLES {
        return None;
    }
    // rank r (0-based) of the sorted samples leaves n - 1 - r samples
    // beyond it; the highest admissible rank is n - 1 - TAIL_SAMPLES
    let rank = n - 1 - TAIL_SAMPLES;
    Some((rank as f64 / (n - 1) as f64).min(MAX_TAIL))
}

/// The tail value of the samples at [`tail_percentile`], with the
/// percentile it was taken at.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let p = tail_percentile(samples.len())?;
    Some((p, quantile(samples, p)?))
}

/// The arithmetic mean of the samples (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(10), None);
        for n in [11usize, 12, 50, 100, 999, 1001, 1011, 5000] {
            let p = tail_percentile(n).unwrap();
            let rank = p * (n - 1) as f64;
            // strictly more than TAIL_SAMPLES - 1 samples sit above the
            // interpolated rank: its ceiling leaves at least TAIL_SAMPLES
            let beyond = n - 1 - rank.ceil() as usize;
            assert!(beyond >= TAIL_SAMPLES, "n={n}: p={p} leaves {beyond}");
            assert!(p <= MAX_TAIL);
        }
        // enough samples for p99 proper
        assert_eq!(tail_percentile(100_000), Some(MAX_TAIL));
        // just short of p99: the cap does not bind and ten samples remain
        let p = tail_percentile(1000).unwrap();
        assert!(p < MAX_TAIL && p > 0.98, "{p}");
    }

    #[test]
    fn tail_percentile_is_monotone_in_the_sample_count() {
        let mut prev = 0.0;
        for n in 11..3000 {
            let p = tail_percentile(n).unwrap();
            assert!(p >= prev, "n={n}");
            prev = p;
        }
    }

    #[test]
    fn tail_picks_the_eleventh_largest_sample_on_small_sets() {
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        let (p, v) = tail(&samples).unwrap();
        assert_eq!(v, 10.0, "ten samples (11..=20) lie beyond it");
        assert!((p - 9.0 / 19.0).abs() < 1e-12);
        assert!(tail(&samples[..10]).is_none());
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let samples = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&samples), Some(2.5));
        assert_eq!(quantile(&samples, 0.0), Some(1.0));
        assert_eq!(quantile(&samples, 1.0), Some(4.0));
        assert_eq!(median(&[]), None);
        let with_inf = [1.0, 2.0, f64::INFINITY];
        assert_eq!(quantile(&with_inf, 0.5), Some(2.0));
        assert_eq!(quantile(&with_inf, 0.75), Some(f64::INFINITY));
        assert_eq!(mean(&samples), 2.5);
    }
}
