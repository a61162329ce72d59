//! Order statistics, the tail-percentile rule, and the seeded input
//! generators every workload draws from.

/// A splitmix64 stream: the benchmark's only source of randomness, so a
/// workload's inputs are a pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Arrival times, in seconds from the start of an open-loop phase, of
/// `count` Poisson arrivals at `rate` per second. A pure function of
/// `(seed, rate, count)`.
pub fn poisson_schedule(seed: u64, rate: f64, count: usize) -> Vec<f64> {
    let mut rng = Rng::new(seed);
    let mut t = 0.0;
    (0..count)
        .map(|_| {
            t += -(1.0 - rng.unit()).ln() / rate;
            t
        })
        .collect()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median, averaging the middle pair of an even count (as Python's
/// `statistics.median`). `NaN` for no values.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" one), so
/// spreads computed here match what the benchmark's consumers compute.
/// A single value is its own quartiles; no values give `NaN`s.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// The percentiles a tail is reported at, highest first. The ladder
/// stops at p99: with hundreds of thousands of samples a p99.9 would
/// qualify, but on a shared host it moves with scheduler hiccups rather
/// than with the program.
const TAIL_LADDER: [f64; 5] = [0.99, 0.95, 0.9, 0.75, 0.5];

/// The highest percentile of [`TAIL_LADDER`] with at least ten of `n`
/// samples beyond it; the median when no percentile has.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|p| (1.0 - p) * n as f64 >= 10.0 - 1e-9)
        .unwrap_or(0.5)
}

/// The nearest-rank `p` percentile (`0 < p <= 1`). Failed operations
/// enter as `f64::INFINITY`, so a tail they reach reads infinite.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median and tail (at [`tail_percentile`]) of a latency sample.
pub fn latency_summary(values: &[f64]) -> (f64, f64) {
    (
        percentile(values, 0.5),
        percentile(values, tail_percentile(values.len())),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(1_000_000), 0.99);
        assert_eq!(tail_percentile(1_000), 0.99);
        assert_eq!(tail_percentile(999), 0.95);
        assert_eq!(tail_percentile(200), 0.95);
        assert_eq!(tail_percentile(100), 0.9);
        assert_eq!(tail_percentile(40), 0.75);
        assert_eq!(tail_percentile(20), 0.5);
        assert_eq!(tail_percentile(3), 0.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        let (p50, tail) = latency_summary(&v);
        assert_eq!((p50, tail), (50.0, 90.0));
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
        let (q1, _, q3) = quartiles(&v);
        assert_eq!(q3 - q1, 5.5, "IQR");
    }

    #[test]
    fn poisson_schedule_is_a_pure_function_of_seed_and_rate() {
        let a = poisson_schedule(7, 400.0, 4_000);
        assert_eq!(a, poisson_schedule(7, 400.0, 4_000));
        assert_ne!(a, poisson_schedule(8, 400.0, 4_000));
        assert_ne!(a, poisson_schedule(7, 200.0, 4_000));
        assert!(a.windows(2).all(|w| w[0] < w[1]), "arrivals are increasing");
        // 4 000 arrivals at 400/s span about ten seconds.
        let span = a[a.len() - 1];
        assert!((9.0..11.0).contains(&span), "span {span}");
    }

    #[test]
    fn refusals_count_as_infinite_latency() {
        let mut v: Vec<f64> = vec![1.0; 990];
        v.extend([f64::INFINITY; 10]);
        // Ten refusals among 1 000 sit exactly beyond the p99.
        assert_eq!(latency_summary(&v), (1.0, 1.0));
        v.push(f64::INFINITY);
        let (p50, tail) = latency_summary(&v);
        assert_eq!(p50, 1.0);
        assert!(tail.is_infinite(), "an eleventh refusal reaches the p99");
    }
}
