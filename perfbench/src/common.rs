//! Shared pieces of the workloads: the per-window result, percentile and
//! registry helpers, the replay fingerprint and the byte checker.

use std::collections::BTreeMap;

use dlio::SizeDist;
use simkit::rng::SplitMix64;
use simkit::telemetry::{HistoSummary, Snapshot, Value};

use crate::trace::Tracer;

/// Run size: the real workload, or a tiny one for the smoke check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    /// `full` for a measured run, `tiny` for the smoke check.
    pub fn pick<T>(self, full: T, tiny: T) -> T {
        match self {
            Size::Full => full,
            Size::Tiny => tiny,
        }
    }
}

/// Everything one simulated window of a workload produced.
pub struct Window {
    /// Virtual-time end-to-end metrics (`vt_*`): exact for a seed.
    pub vt: Vec<(&'static str, f64)>,
    /// Host seconds to generate inputs, stage devices and mount.
    pub setup_s: f64,
    /// Host seconds of the timed region, minus the benchmark's own
    /// output checking.
    pub region_host_s: f64,
    /// Samples (or locate+fetch operations) delivered in the region.
    pub ops: u64,
    /// Requests the latency percentiles are taken over.
    pub requests: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Delivered bytes and every `vt_*` metric folded together.
    pub fingerprint: u64,
    /// Per-layer metrics; `None` when a counter it needs is absent.
    pub layers: BTreeMap<&'static str, Option<f64>>,
    /// Errors seen (typed program errors and check failures), capped.
    pub errors: Vec<String>,
    pub tracer: Tracer,
}

/// `n` sample sizes shaped like `dist`: evenly spaced order statistics of
/// one large fixed draw, dealt to sample ids in a seed-dependent order.
/// Every seed sees the same multiset of sizes, so aggregate metrics do
/// not swing with the luck of a small draw; which sample gets which size
/// (and so placement, chunk packing and the request mix) follows the seed.
pub fn sizes(dist: &SizeDist, n: usize, seed: u64) -> Vec<u64> {
    const OVERSAMPLE: usize = 16;
    let mut pool = dist.sizes(0x5_12E5, n * OVERSAMPLE);
    pool.sort_unstable();
    let mut out: Vec<u64> = (0..n)
        .map(|i| pool[i * OVERSAMPLE + OVERSAMPLE / 2])
        .collect();
    SplitMix64::derive(seed, 0x5123).shuffle(&mut out);
    out
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn pct(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64 * p).div_ceil(100).max(1) as usize;
    sorted[rank - 1]
}

pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn mean_us(ns: &[u64]) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    ns.iter().sum::<u64>() as f64 / ns.len() as f64 / 1e3
}

/// A counter by exact name; `None` when the registry has no such counter
/// (never a silent 0).
pub fn counter(s: &Snapshot, name: &str) -> Option<u64> {
    s.iter().find_map(|(k, v)| match v {
        Value::Counter(c) if k == name => Some(*c),
        _ => None,
    })
}

pub fn histo(s: &Snapshot, name: &str) -> Option<HistoSummary> {
    s.iter().find_map(|(k, v)| match v {
        Value::Histo(h) if k == name => Some(*h),
        _ => None,
    })
}

/// Sum of the counters named `<prefix><anything><suffix>`; `None` when
/// none exists.
pub fn sum_counters(s: &Snapshot, prefix: &str, suffix: &str) -> Option<u64> {
    let mut found = None;
    for (k, v) in s.iter() {
        if let Value::Counter(c) = v {
            if k.starts_with(prefix) && k.ends_with(suffix) {
                *found.get_or_insert(0) += *c;
            }
        }
    }
    found
}

/// Largest p99 among the histograms named `<prefix><anything><suffix>`
/// that recorded anything; `None` when none exists.
pub fn max_p99(s: &Snapshot, prefix: &str, suffix: &str) -> Option<u64> {
    let mut found = None;
    for (k, v) in s.iter() {
        if let Value::Histo(h) = v {
            if k.starts_with(prefix) && k.ends_with(suffix) {
                let m = found.get_or_insert(0);
                *m = (*m).max(h.p99);
            }
        }
    }
    found
}

pub fn ratio(num: Option<u64>, den: u64) -> Option<f64> {
    num.map(|n| n as f64 / den.max(1) as f64)
}

/// Order-sensitive 64-bit fold, word at a time (the replay fingerprint;
/// not a checksum the program uses).
#[derive(Clone, Copy, Debug)]
pub struct Fold(pub u64);

impl Default for Fold {
    fn default() -> Self {
        Fold(0x9E37_79B9_7F4A_7C15)
    }
}

impl Fold {
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w)
            .wrapping_mul(0x0000_0100_0000_01B3)
            .rotate_left(29);
    }

    pub fn bytes(&mut self, b: &[u8]) {
        let mut it = b.chunks_exact(8);
        for c in &mut it {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..it.remainder().len()].copy_from_slice(it.remainder());
        self.word(u64::from_le_bytes(tail) ^ (b.len() as u64) << 56);
    }

    pub fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }
}

/// Compares delivered samples with the bytes their source generates and
/// keeps the error tally; its own host time is excluded from the timed
/// region.
pub struct Checker {
    pub fold: Fold,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub host: std::time::Duration,
    scratch: Vec<u8>,
}

impl Checker {
    pub fn new() -> Checker {
        Checker {
            fold: Fold::default(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            host: std::time::Duration::ZERO,
            scratch: Vec::new(),
        }
    }

    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// Check one delivered sample given as segments; `fill` writes the
    /// expected bytes of `id` into a buffer of the right length.
    pub fn sample(
        &mut self,
        id: u32,
        expected_len: u64,
        fill: impl FnOnce(&mut [u8]),
        for_each_segment: impl FnOnce(&mut dyn FnMut(&[u8])),
    ) {
        let t = std::time::Instant::now();
        self.scratch.resize(expected_len as usize, 0);
        fill(&mut self.scratch);
        let (mut at, mut ok) = (0usize, true);
        let fold = &mut self.fold;
        fold.word(id as u64);
        let scratch = &self.scratch;
        for_each_segment(&mut |seg: &[u8]| {
            fold.bytes(seg);
            let end = at + seg.len();
            ok &= end <= scratch.len() && &scratch[at..end] == seg;
            at = end;
        });
        ok &= at == self.scratch.len();
        if !ok {
            self.fail(format!(
                "sample {id}: delivered bytes differ from the source"
            ));
        }
        self.host += t.elapsed();
    }
}

/// Peak resident set of this process in MB (`VmHWM`), when the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
