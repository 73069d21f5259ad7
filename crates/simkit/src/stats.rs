//! Measurement helpers: streaming summaries, log-scale histograms and
//! throughput meters, all in terms of virtual time.

use crate::time::{Dur, Time};

/// Streaming mean/variance/min/max via Welford's algorithm.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    pub fn add_dur(&mut self, d: Dur) {
        self.add(d.as_nanos() as f64);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        self.mean
    }

    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    pub fn total(&self) -> f64 {
        self.mean * self.n as f64
    }

    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let d = other.mean - self.mean;
        let mean = self.mean + d * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + d * d * self.n as f64 * other.n as f64 / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Power-of-two bucketed histogram for latency-style values (nanoseconds).
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: Vec<u64>, // bucket i counts values in [2^i, 2^(i+1))
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; 64],
            count: 0,
            sum: 0,
        }
    }

    pub fn add(&mut self, v: u64) {
        let idx = 63 - v.max(1).leading_zeros() as usize;
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += v;
    }

    pub fn add_dur(&mut self, d: Dur) {
        self.add(d.as_nanos());
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values (exact, unlike the bucketed quantiles).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile (bucket upper bound containing the q-quantile).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return 1u64 << (i + 1).min(63);
            }
        }
        u64::MAX
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// Counts discrete events (samples read, bytes moved) over a virtual-time
/// window and reports rates.
#[derive(Clone, Debug)]
pub struct Meter {
    start: Time,
    end: Time,
    events: u64,
    bytes: u64,
}

impl Meter {
    pub fn start_at(t: Time) -> Self {
        Meter {
            start: t,
            end: t,
            events: 0,
            bytes: 0,
        }
    }

    pub fn record(&mut self, now: Time, events: u64, bytes: u64) {
        self.events += events;
        self.bytes += bytes;
        if now > self.end {
            self.end = now;
        }
    }

    pub fn events(&self) -> u64 {
        self.events
    }

    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    pub fn elapsed(&self) -> Dur {
        self.end - self.start
    }

    /// Events per second of virtual time.
    pub fn event_rate(&self) -> f64 {
        let s = self.elapsed().as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            self.events as f64 / s
        }
    }

    /// Bytes per second of virtual time.
    pub fn byte_rate(&self) -> f64 {
        let s = self.elapsed().as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            self.bytes as f64 / s
        }
    }
}

/// Pretty-print a rate in human units (e.g. "1.23 M/s").
pub fn fmt_rate(per_sec: f64) -> String {
    if per_sec >= 1e9 {
        format!("{:.2} G/s", per_sec / 1e9)
    } else if per_sec >= 1e6 {
        format!("{:.2} M/s", per_sec / 1e6)
    } else if per_sec >= 1e3 {
        format!("{:.2} K/s", per_sec / 1e3)
    } else {
        format!("{:.2} /s", per_sec)
    }
}

/// Pretty-print a byte rate (e.g. "2.20 GB/s").
pub fn fmt_bytes_rate(bytes_per_sec: f64) -> String {
    if bytes_per_sec >= 1e9 {
        format!("{:.2} GB/s", bytes_per_sec / 1e9)
    } else if bytes_per_sec >= 1e6 {
        format!("{:.2} MB/s", bytes_per_sec / 1e6)
    } else if bytes_per_sec >= 1e3 {
        format!("{:.2} KB/s", bytes_per_sec / 1e3)
    } else {
        format!("{:.2} B/s", bytes_per_sec)
    }
}

/// Pretty-print a byte count (e.g. "147.0 KB").
pub fn fmt_bytes(bytes: u64) -> String {
    let b = bytes as f64;
    if b >= 1e9 {
        format!("{:.1} GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.1} MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.1} KB", b / 1e3)
    } else {
        format!("{} B", bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic() {
        let mut s = Summary::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            s.add(x);
        }
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert!((s.variance() - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
        assert!((s.total() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn summary_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Summary::new();
        for &x in &xs {
            whole.add(x);
        }
        let mut a = Summary::new();
        let mut b = Summary::new();
        for &x in &xs[..37] {
            a.add(x);
        }
        for &x in &xs[37..] {
            b.add(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.add(v);
        }
        assert_eq!(h.count(), 1000);
        // Median of 1..=1000 is ~500, bucket upper bound 512.
        assert_eq!(h.quantile(0.5), 512);
        assert!(h.quantile(1.0) >= 1000);
        assert!((h.mean() - 500.5).abs() < 1.0);
    }

    #[test]
    fn meter_rates() {
        let mut m = Meter::start_at(Time::ZERO);
        m.record(Time::ZERO + Dur::secs(2), 100, 2_000_000_000);
        assert_eq!(m.events(), 100);
        assert!((m.event_rate() - 50.0).abs() < 1e-9);
        assert!((m.byte_rate() - 1e9).abs() < 1.0);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_rate(1.5e6), "1.50 M/s");
        assert_eq!(fmt_bytes_rate(2.2e9), "2.20 GB/s");
        assert_eq!(fmt_bytes(147_000), "147.0 KB");
    }
}
