//! Randomized property tests for simkit: timeline resources, RNG,
//! statistics, the content checksum. Cases are generated from seeded [`SplitMix64`] streams so
//! failures replay exactly.

use simkit::prelude::*;
use simkit::rng::{content_sum, SplitMix64};
use simkit::time::Time;

const CASES: u64 = 64;

/// The earliest-fit oracle: a naive full scan of every booked interval
/// (sorted by start) for the first `t >= now` where `[t, t + d)` fits.
fn naive_earliest_fit(booked: &[(u64, u64)], now: u64, d: u64) -> u64 {
    let mut t = now;
    for &(s, e) in booked {
        if s >= t.saturating_add(d) {
            break;
        }
        if e > t {
            t = e;
        }
    }
    t
}

/// Book `[start, start + d)` into a sorted oracle list (zero-length
/// requests occupy nothing).
fn book(booked: &mut Vec<(u64, u64)>, start: u64, d: u64) {
    if d > 0 {
        let at = booked.partition_point(|&(s, _)| s < start);
        booked.insert(at, (start, start + d));
    }
}

/// Draw a request time: uniform over the window, or exactly at the start
/// or end of an existing booking, or strictly inside one.
fn draw_now(g: &mut SplitMix64, booked: &[(u64, u64)], window: u64) -> u64 {
    if booked.is_empty() {
        return g.below(window);
    }
    let (s, e) = booked[g.below(booked.len() as u64) as usize];
    match g.below(4) {
        0 => s,
        1 => e,
        2 if e - s > 1 => s + 1 + g.below(e - s - 1),
        _ => g.below(window),
    }
}

/// Draw a duration, zero one time in eight.
fn draw_len(g: &mut SplitMix64, max: u64) -> u64 {
    if g.below(8) == 0 {
        0
    } else {
        g.range(1, max)
    }
}

#[test]
fn link_reservations_never_overlap() {
    // Whatever order reservations arrive in (possibly out of time order),
    // the wire must never carry two payloads at once, no reservation may
    // start before its requested time, and each one starts exactly where a
    // naive scan of everything booked so far says the earliest fit is.
    for case in 0..CASES {
        let mut g = SplitMix64::derive(0x11AC, case);
        let n = g.range(1, 80) as usize;
        Runtime::simulate(0, |rt| {
            let _ = rt;
            let bw = 1e9; // 1 byte per ns
            let link = Link::new(bw, Dur::ZERO);
            let mut booked: Vec<(u64, u64)> = Vec::new();
            for _ in 0..n {
                let now = draw_now(&mut g, &booked, 1_000_000);
                let bytes = draw_len(&mut g, 100_000);
                let d = Dur::for_bytes(bytes, bw).as_nanos();
                let end = link.reserve(Time(now), bytes).nanos();
                let start = end - d;
                assert!(start >= now, "started {start} before requested {now}");
                let want = naive_earliest_fit(&booked, now, d);
                assert_eq!(start, want, "{d} ns at {now}: not the earliest fit");
                if d > 0 {
                    for &(s, e) in &booked {
                        assert!(
                            end <= s || e <= start,
                            "overlap: [{start},{end}) vs [{s},{e})"
                        );
                    }
                }
                book(&mut booked, start, d);
            }
        });
    }
}

#[test]
fn servers_capacity_respected() {
    // At any instant at most k requests are in service, and each request
    // takes the channel a naive scan picks: the earliest fit over all
    // channels, lowest channel index on ties.
    for case in 0..CASES {
        let mut g = SplitMix64::derive(0x5EB5, case);
        let k = g.range(1, 5) as usize;
        let n = g.range(1, 60) as usize;
        Runtime::simulate(0, |rt| {
            let _ = rt;
            let srv = Servers::new(k);
            let mut channels: Vec<Vec<(u64, u64)>> = vec![Vec::new(); k];
            let mut intervals: Vec<(u64, u64)> = Vec::new();
            for _ in 0..n {
                let pick = &channels[g.below(k as u64) as usize];
                let now = draw_now(&mut g, pick, 500_000);
                let cost = draw_len(&mut g, 50_000);
                let end = srv.reserve(Time(now), Dur::nanos(cost)).nanos();
                let start = end - cost;
                assert!(start >= now);
                let (want, ch) = channels
                    .iter()
                    .enumerate()
                    .map(|(i, b)| (naive_earliest_fit(b, now, cost), i))
                    .min()
                    .unwrap();
                assert_eq!(start, want, "{cost} ns at {now}: not the earliest fit");
                book(&mut channels[ch], start, cost);
                if cost > 0 {
                    intervals.push((start, end));
                }
            }
            // Sweep: count overlaps at every interval start.
            for &(s, _) in &intervals {
                let live = intervals.iter().filter(|&&(a, b)| a <= s && s < b).count();
                assert!(live <= k, "{live} concurrent on {k} channels");
            }
        });
    }
}

#[test]
fn rng_shuffle_is_permutation() {
    for case in 0..CASES {
        let mut g = SplitMix64::derive(0x50F1, case);
        let n = g.range(1, 500) as usize;
        let seed = g.below(10_000);
        let mut rng = SplitMix64::new(seed);
        let p = rng.permutation(n);
        let mut seen = vec![false; n];
        for &x in &p {
            assert!(!seen[x as usize]);
            seen[x as usize] = true;
        }
    }
}

#[test]
fn summary_mean_between_min_max() {
    for case in 0..CASES {
        let mut g = SplitMix64::derive(0x5A11, case);
        let n = g.range(1, 200) as usize;
        let xs: Vec<f64> = (0..n).map(|_| (g.f64() - 0.5) * 2e6).collect();
        let mut s = Summary::new();
        for &x in &xs {
            s.add(x);
        }
        assert!(s.mean() >= s.min() - 1e-9);
        assert!(s.mean() <= s.max() + 1e-9);
        assert!(s.variance() >= 0.0);
        assert_eq!(s.count(), xs.len() as u64);
    }
}

#[test]
fn histogram_quantiles_monotone() {
    for case in 0..CASES {
        let mut g = SplitMix64::derive(0x4157, case);
        let n = g.range(1, 300) as usize;
        let vals: Vec<u64> = (0..n).map(|_| g.range(1, 1_000_000)).collect();
        let mut h = Histogram::new();
        for &v in &vals {
            h.add(v);
        }
        let q25 = h.quantile(0.25);
        let q50 = h.quantile(0.5);
        let q99 = h.quantile(0.99);
        assert!(q25 <= q50 && q50 <= q99);
        assert_eq!(h.count(), vals.len() as u64);
    }
}

#[test]
fn virtual_sleep_sums_exactly() {
    for case in 0..CASES {
        let mut g = SplitMix64::derive(0x51EE, case);
        let n = g.range(1, 50) as usize;
        let durs: Vec<u64> = (0..n).map(|_| g.below(100_000)).collect();
        let total: u64 = durs.iter().sum();
        let ((), end) = Runtime::simulate(0, |rt| {
            for &d in &durs {
                rt.sleep(Dur::nanos(d));
            }
        });
        assert_eq!(end.nanos(), total);
    }
}

/// A random 512 B block (the device block the integrity tables cover).
fn random_block(g: &mut SplitMix64) -> Vec<u8> {
    let mut b = vec![0u8; 512];
    g.fill_bytes(&mut b);
    b
}

#[test]
fn content_sum_detects_every_single_bit_flip() {
    for case in 0..8 {
        let mut g = SplitMix64::derive(0xC5B1, case);
        let mut blk = random_block(&mut g);
        let sum = content_sum(&blk);
        for bit in 0..blk.len() * 8 {
            blk[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(
                content_sum(&blk),
                sum,
                "case {case}: flip of bit {bit} undetected"
            );
            blk[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(content_sum(&blk), sum);
    }
}

#[test]
fn content_sum_detects_every_single_byte_change() {
    for case in 0..4 {
        let mut g = SplitMix64::derive(0xC5B2, case);
        let mut blk = random_block(&mut g);
        let sum = content_sum(&blk);
        for at in 0..blk.len() {
            let orig = blk[at];
            for v in (0..=255u8).filter(|&v| v != orig) {
                blk[at] = v;
                assert_ne!(
                    content_sum(&blk),
                    sum,
                    "case {case}: byte {at} := {v} undetected"
                );
            }
            blk[at] = orig;
        }
    }
}

#[test]
fn content_sum_detects_every_word_swap() {
    for case in 0..CASES {
        let mut g = SplitMix64::derive(0xC5B3, case);
        let mut blk = random_block(&mut g);
        if case % 2 == 1 {
            // Low-entropy blocks too: only a few distinct words.
            for w in blk.chunks_exact_mut(8) {
                let v = g.below(4);
                w.copy_from_slice(&v.to_le_bytes());
            }
        }
        let sum = content_sum(&blk);
        let words = blk.len() / 8;
        for i in 0..words {
            for j in i + 1..words {
                let (a, b) = (i * 8, j * 8);
                if blk[a..a + 8] == blk[b..b + 8] {
                    continue;
                }
                let mut swapped = blk.clone();
                swapped[a..a + 8].copy_from_slice(&blk[b..b + 8]);
                swapped[b..b + 8].copy_from_slice(&blk[a..a + 8]);
                assert_ne!(
                    content_sum(&swapped),
                    sum,
                    "case {case}: swap of words {i}, {j}"
                );
            }
        }
    }
}

#[test]
fn content_sum_separates_lengths_and_zero_tails() {
    // Zero padding of the tail word must not alias inputs that differ
    // only in trailing zeros; the folded length tells them apart.
    let zeros = [0u8; 100];
    let sums: Vec<u64> = (0..=zeros.len())
        .map(|n| content_sum(&zeros[..n]))
        .collect();
    for (i, a) in sums.iter().enumerate() {
        for b in &sums[i + 1..] {
            assert_ne!(a, b);
        }
    }
}
