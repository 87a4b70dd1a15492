//! Sample statistics shared by every workload: medians, the tail
//! percentile rule, and the seeded generator that draws inputs.

/// The tail rule: the highest percentile, capped at p99, that leaves at
/// least [`TAIL_BEYOND`] samples beyond it. A p99 therefore needs at least
/// 1000 samples; with fewer, the reported tail is a lower percentile, and
/// [`Tail::percentile`] says which. The tail never drops below the
/// median: with fewer than `2 × TAIL_BEYOND + 2` samples it is the median.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency together with what it means: the percentile it is and
/// how many samples it was taken from.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tail {
    /// The sample value at the percentile.
    pub value: f64,
    /// The percentile, in `(0, 99]`.
    pub percentile: f64,
    /// Number of samples.
    pub samples: usize,
}

/// The tail of `sorted` (ascending) under the [`TAIL_BEYOND`] rule.
/// When the rule would land at or below the median, the median stands in
/// (reported as p50). `None` when empty.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    if n < 2 * TAIL_BEYOND + 2 {
        return Some(Tail { value: median(sorted)?, percentile: 50.0, samples: n });
    }
    // Index i leaves n - 1 - i samples beyond it; p99 sits at
    // ceil(0.99 n) - 1. Take whichever is lower.
    let by_count = n - 1 - TAIL_BEYOND;
    let p99 = (n * 99).div_ceil(100) - 1;
    let index = by_count.min(p99);
    Some(Tail {
        value: sorted[index],
        percentile: 100.0 * (index + 1) as f64 / n as f64,
        samples: n,
    })
}

/// The median of an ascending slice (mean of the middle pair for even
/// lengths). `None` when empty.
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// The median of unsorted values (0 when empty — callers report counts
/// alongside, so an empty layer reads as "not exercised").
pub fn median_of(values: &[f64]) -> f64 {
    median(&sorted(values)).unwrap_or(0.0)
}

/// The tail value of unsorted values under the [`TAIL_BEYOND`] rule (0
/// when empty).
pub fn tail_of(values: &[f64]) -> f64 {
    tail(&sorted(values)).map_or(0.0, |t| t.value)
}

/// `part / whole`, or 0 when nothing was counted.
pub fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// SplitMix64: a tiny, stable generator. Inputs depend only on the seed,
/// never on the library's or the toolchain's random-number internals.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so each kind of
    /// input draws its own sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Cumulative (steal, total) CPU ticks of the machine, from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|t| t.parse().ok()).collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Measures the share of CPU time the hypervisor took from this machine
/// (`steal`) over a phase: start it before, call `finish` after. A high
/// share explains a slow run; nothing is corrected for it.
pub struct StealMeter(Option<(u64, u64)>);

impl StealMeter {
    pub fn start() -> Self {
        StealMeter(cpu_ticks())
    }

    pub fn finish(&self) -> f64 {
        match (self.0, cpu_ticks()) {
            (Some((s0, t0)), Some((s1, t1))) => share(s1.saturating_sub(s0), t1.saturating_sub(t0)),
            _ => 0.0,
        }
    }
}

/// Peak resident memory of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn tail_is_p99_once_a_thousand_samples_exist() {
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!(t.value, 990.0);
        assert_eq!(t.percentile, 99.0);
        // Exactly ten samples lie beyond it.
        assert_eq!(ramp(1000).iter().filter(|v| **v > t.value).count(), 10);
        let t = tail(&ramp(5000)).unwrap();
        assert_eq!(t.value, 4950.0);
        assert_eq!(t.percentile, 99.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_when_samples_are_few() {
        for n in [22, 30, 500, 999] {
            let values = ramp(n);
            let t = tail(&values).unwrap();
            let beyond = values.iter().filter(|v| **v > t.value).count();
            assert_eq!(beyond, TAIL_BEYOND, "n = {n}");
            assert!(t.percentile < 99.0, "n = {n}");
            assert_eq!(t.samples, n);
        }
        // 30 samples: the 20th value, the 66.7th percentile.
        let t = tail(&ramp(30)).unwrap();
        assert_eq!(t.value, 20.0);
        assert!((t.percentile - 200.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn tail_falls_back_to_the_median_when_samples_are_too_few() {
        let t = tail(&ramp(10)).unwrap();
        assert_eq!(t.value, 5.5);
        assert_eq!(t.percentile, 50.0);
        // 21 samples: the rule's index (10) is the median itself.
        let t = tail(&ramp(21)).unwrap();
        assert_eq!((t.value, t.percentile), (11.0, 50.0));
        assert_eq!(tail(&[]), None);
        assert_eq!(tail_of(&[]), 0.0);
    }

    #[test]
    fn medians_of_odd_and_even_lengths() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), Some(3.0));
        assert_eq!(median_of(&[9.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn rng_is_a_pure_function_of_seed_and_stream() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut x = Rng::new(7, 1);
        let mut y = Rng::new(7, 2);
        assert_ne!(x.next_u64(), y.next_u64());
    }
}
