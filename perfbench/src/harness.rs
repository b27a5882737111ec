//! Load-generation primitives: the run clock, seeded input generators,
//! nearest-rank percentiles, preallocated sample buffers and the host
//! diagnostics every run prints.

use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the process-wide run epoch. Every timestamp in a run
/// (due times, span bounds, completions) is on this one clock.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Busy-waits until `due_ns` on the run clock and returns the time it
/// observed. A sleeping generator would wake tens of microseconds late,
/// which is larger than the latencies it schedules.
pub fn spin_until(due_ns: u64) -> u64 {
    loop {
        let now = now_ns();
        if now >= due_ns {
            return now;
        }
        std::hint::spin_loop();
    }
}

/// SplitMix64: the benchmark's own input generator, so inputs depend on
/// the seed argument only.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for one input stream of `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Due times (run-clock ns) of `n` fixed-interval arrivals at `rate` per
/// second, the first one at `start_ns`.
pub fn fixed_schedule(start_ns: u64, rate: f64, n: usize) -> Vec<u64> {
    let interval = 1e9 / rate;
    (0..n)
        .map(|i| start_ns + (i as f64 * interval).round() as u64)
        .collect()
}

/// `len` principals drawn from zipf(`s`) over `0..n` (principal `k` has
/// weight `1/(k+1)^s`), by inverse CDF on a seeded stream.
pub fn zipf_sequence(seed: u64, stream: u64, n: u64, s: f64, len: usize) -> Vec<u32> {
    let mut acc = 0.0;
    let cdf: Vec<f64> = (1..=n)
        .map(|k| {
            acc += 1.0 / (k as f64).powf(s);
            acc
        })
        .collect();
    let mut rng = SplitMix::new(seed, stream);
    (0..len)
        .map(|_| {
            let u = rng.next_f64() * acc;
            let k = cdf.partition_point(|&c| c <= u).min(cdf.len() - 1);
            u32::try_from(k).expect("principal index fits in u32")
        })
        .collect()
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p`% of the samples at or below it. 0 when empty.
pub fn percentile<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A sample buffer allocated and paged in before timing starts, so
/// recording a sample never allocates or faults during a measured phase.
/// Samples beyond the capacity are counted, not stored.
#[derive(Debug)]
pub struct Samples {
    buf: Vec<u32>,
    len: usize,
    dropped: u64,
}

impl Samples {
    /// A buffer of `capacity` samples, every page already touched.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut buf = vec![0u32; capacity];
        for i in (0..capacity).step_by(1024) {
            buf[i] = 1;
        }
        Samples {
            buf,
            len: 0,
            dropped: 0,
        }
    }

    /// Records one sample (ns, or a count), saturating at `u32::MAX`.
    pub fn push(&mut self, v: u64) {
        if self.len < self.buf.len() {
            self.buf[self.len] = u32::try_from(v).unwrap_or(u32::MAX);
            self.len += 1;
        } else {
            self.dropped += 1;
        }
    }

    /// Samples that did not fit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The recorded samples, ascending.
    pub fn into_sorted(mut self) -> Vec<u32> {
        self.buf.truncate(self.len);
        self.buf.sort_unstable();
        self.buf
    }
}

/// Time of a fixed integer loop, in ms: the same work on every run, so a
/// drift in it between runs is the host's, not the program's.
pub fn host_ref_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x1234_5678_9ABC_DEF0u64;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

/// `(steal, total)` jiffies summed over all CPUs, from `/proc/stat`;
/// `None` where the file is unavailable.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    (fields.len() == 8).then(|| (fields[7], fields.iter().sum()))
}

/// The host's steal share between two [`cpu_jiffies`] readings; `None`
/// when either is missing or no time passed.
pub fn steal_frac(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| (s1.saturating_sub(s0)) as f64 / (t1 - t0) as f64)
}

/// FNV-1a over the little-endian bytes of each answer value: the order-
/// sensitive answer digest the replay check compares.
pub fn digest(h: u64, values: &[i64]) -> u64 {
    values
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3))
}

/// The digest of no answers.
pub const DIGEST_INIT: u64 = 0xCBF2_9CE4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 90.0), 90);
        assert_eq!(percentile(&v, 99.9), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        let w = [10u32, 20, 30, 40, 50];
        assert_eq!(percentile(&w, 50.0), 30);
        assert_eq!(percentile(&w, 30.0), 20);
        assert_eq!(percentile::<u32>(&[], 50.0), 0);
    }

    #[test]
    fn schedule_is_absolute_and_fixed_interval() {
        let a = fixed_schedule(1_000, 50_000.0, 5);
        assert_eq!(a, vec![1_000, 21_000, 41_000, 61_000, 81_000]);
        let b = fixed_schedule(0, 4_000.0, 3);
        assert_eq!(b, vec![0, 250_000, 500_000]);
    }

    #[test]
    fn zipf_is_deterministic_per_seed_and_skewed() {
        let a = zipf_sequence(7, 1, 10_000, 1.0, 20_000);
        let b = zipf_sequence(7, 1, 10_000, 1.0, 20_000);
        let c = zipf_sequence(8, 1, 10_000, 1.0, 20_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|&p| p < 10_000));
        // Principal 0 carries 1/H(10⁴) ≈ 10.2% of the mass.
        let top = a.iter().filter(|&&p| p == 0).count() as f64 / a.len() as f64;
        assert!((0.09..0.115).contains(&top), "top share {top}");
    }

    #[test]
    fn samples_saturate_and_count_overflow() {
        let mut s = Samples::with_capacity(2);
        s.push(5);
        s.push(u64::MAX);
        s.push(1);
        assert_eq!(s.dropped(), 1);
        assert_eq!(s.into_sorted(), vec![5, u32::MAX]);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let ab = digest(digest(DIGEST_INIT, &[1]), &[2]);
        let ba = digest(digest(DIGEST_INIT, &[2]), &[1]);
        assert_ne!(ab, ba);
        assert_eq!(ab, digest(DIGEST_INIT, &[1, 2]));
    }
}
