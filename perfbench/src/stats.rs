//! Order statistics, process memory, and the host-reference loop.

use std::hint::black_box;
use std::time::Instant;

/// The `q`-quantile (0..=1) of `values`, interpolating linearly
/// between the closest ranks. `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// [`quantile`] of integer samples, sorting them in place (for the
/// millions of per-cycle step times, where a float copy would double
/// the memory).
pub fn quantile_u32(values: &mut [u32], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_unstable();
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let (lo, hi) = (values[pos.floor() as usize], values[pos.ceil() as usize]);
    f64::from(lo) + (f64::from(hi) - f64::from(lo)) * pos.fract()
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Quartile spread: (Q3 − Q1) / median, with the quartiles taken as
/// Python's `statistics.quantiles(values, n=4)` takes them (the
/// "exclusive" method), so the figure printed here is the one a
/// steadiness check over several runs computes. `NaN` below 2 values.
pub fn spread(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |j: usize| {
        let m = (n + 1) * j;
        let idx = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (idx * 4) as f64;
        (v[idx - 1] * (4.0 - delta) + v[idx] * delta) / 4.0
    };
    (at(3) - at(1)) / median(values)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `NaN`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return f64::NAN;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A fixed CPU and memory reference: a dependent pointer chase over a
/// 512 KiB random cycle. Its time depends only on the host, so timing
/// it between jobs separates host noise from the program's own
/// variation.
pub struct HostRef {
    next: Vec<u32>,
}

impl HostRef {
    const ENTRIES: usize = 512 * 1024 / 4;
    const STEPS: usize = 1 << 20;

    /// Builds the cycle (Sattolo's shuffle with a fixed generator).
    pub fn new() -> Self {
        let mut next: Vec<u32> = (0..Self::ENTRIES as u32).collect();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in (1..Self::ENTRIES).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = (x % i as u64) as usize;
            next.swap(i, j);
        }
        HostRef { next }
    }

    /// Runs the chase once and returns its wall time in milliseconds.
    pub fn time_ms(&self) -> f64 {
        let start = Instant::now();
        let mut at = 0u32;
        for _ in 0..Self::STEPS {
            at = self.next[at as usize];
        }
        black_box(at);
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// Host nanoseconds one `Instant::now()` read adds to a timed call,
/// measured here so per-call timings can subtract it.
pub fn clock_overhead_ns() -> f64 {
    const N: u32 = 20_000;
    let start = Instant::now();
    let mut last = start;
    for _ in 0..N {
        last = black_box(Instant::now());
    }
    (last - start).as_nanos() as f64 / f64::from(N)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn spread_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
