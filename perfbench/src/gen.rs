//! Seeded input generation: the random source, the Zipf key stream and the
//! open-loop intended-send schedule.
//!
//! Everything here is a pure function of the workload seed, so the same
//! `--seed` replays the same inputs; the program under test only ever sees
//! the generated requests.

use std::time::Duration;

/// SplitMix64: a small, fast, well-mixed 64-bit generator.  The benchmark
/// keeps its own so its inputs never shift with the workspace's `rand`
/// shim.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// A generator for one named stream of a workload seed, independent of
    /// the workload's other streams.
    pub fn stream(seed: u64, name: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        SplitMix64(seed ^ h)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A Fisher-Yates shuffle of `items`.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A Zipf distribution over ranks `0..n`: rank `k` is drawn with
/// probability proportional to `1 / (k + 1)^exponent`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n > 0` ranks.
    pub fn new(n: usize, exponent: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(exponent);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// `count` Zipf ranks from the named stream of `seed`.
pub fn zipf_stream(seed: u64, zipf: &Zipf, count: usize) -> Vec<usize> {
    let mut rng = SplitMix64::stream(seed, "zipf");
    (0..count).map(|_| zipf.sample(&mut rng)).collect()
}

/// The intended send offsets (from the start of a phase) of an open-loop
/// Poisson arrival stream at `rate` requests per second, covering `span`.
/// Arrivals are independent of completions: the schedule never waits for
/// the system under test.
pub fn poisson_schedule(seed: u64, rate: f64, span: Duration) -> Vec<Duration> {
    let mut rng = SplitMix64::stream(seed, "arrivals");
    let mut t = 0.0;
    let end = span.as_secs_f64();
    let mut out = Vec::new();
    loop {
        // inverse-CDF exponential gap; 1 - u keeps the log finite
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= end {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_stream_is_a_function_of_the_seed() {
        let zipf = Zipf::new(1 << 12, 1.1);
        let a = zipf_stream(7, &zipf, 5000);
        assert_eq!(a, zipf_stream(7, &zipf, 5000));
        assert_ne!(a, zipf_stream(8, &zipf, 5000));
        // a prefix of a longer stream is the shorter stream
        assert_eq!(&zipf_stream(7, &zipf, 9000)[..5000], &a[..]);
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let zipf = Zipf::new(1000, 1.0);
        let draws = zipf_stream(3, &zipf, 20_000);
        let head = draws.iter().filter(|&&r| r == 0).count();
        let mid = draws.iter().filter(|&&r| r == 99).count();
        assert!(head > 20 * mid.max(1), "head {head} vs rank 99 {mid}");
        assert!(draws.iter().all(|&r| r < 1000));
    }

    #[test]
    fn intended_schedule_is_deterministic_and_open_loop() {
        let span = Duration::from_secs(2);
        let a = poisson_schedule(11, 400.0, span);
        assert_eq!(a, poisson_schedule(11, 400.0, span));
        assert_ne!(a, poisson_schedule(12, 400.0, span));
        // sorted, inside the span, and close to rate * span arrivals
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| t < span));
        assert!((700..900).contains(&a.len()), "{}", a.len());
    }

    #[test]
    fn named_streams_are_independent() {
        let mut a = SplitMix64::stream(5, "zipf");
        let mut b = SplitMix64::stream(5, "arrivals");
        assert_ne!(a.next_u64(), b.next_u64());
        let mut v: Vec<u32> = (0..50).collect();
        SplitMix64::new(1).shuffle(&mut v);
        let mut w = v.clone();
        w.sort();
        assert_eq!(w, (0..50).collect::<Vec<_>>());
    }
}
