//! Calibration check: time the real kernels behind the charged
//! virtual-time constants and fail when the model undercharges them.
//!
//! Two [`dlfs::DlfsCosts`] constants stand for code that really runs in
//! this process, so they are *measured* constants:
//! - `verify_block` — one `simkit::rng::content_sum` over a 512 B block;
//! - `decode_bytes_per_sec` — the LZ frame decoder, reported per KB of
//!   raw output.
//!
//! (The other constants model SPDK submit/poll, the NIC and the device,
//! none of which runs here.) Each kernel is timed on a deterministic
//! compressible corpus (2 MiB of per-sample 64 B motifs, cut into
//! 64 KiB frames like the training workload's chunks) as the minimum
//! over 7 repetitions: scheduler noise only ever adds time, so the
//! minimum is the kernel's own cost. The check exits non-zero when a
//! kernel costs more than 4x its charged constant. It takes no
//! arguments and never edits a constant: a failure means the kernel has
//! to get faster.
//!
//! Usage (timings are only meaningful from a release build):
//!   cargo run --release -p dlfs-bench --bin calibrate

use std::hint::black_box;
use std::time::{Duration, Instant};

use dlfs::{CodecKind, CompressibleSource, DlfsCosts, SampleSource};
use dlfs_bench::{Table, DEFAULT_SEED};
use simkit::rng::content_sum;

const BLOCK: usize = 512;
const FRAME: usize = 64 << 10;
/// Corpus size in bytes.
const CORPUS: usize = 2 << 20;
/// Repetitions per kernel; the minimum is reported.
const RUNS: usize = 7;
/// A kernel fails the check above this multiple of its charged constant.
const FACTOR: f64 = 4.0;
/// Each repetition loops its kernel for at least this long, so timer
/// resolution never dominates.
const MIN_REP: Duration = Duration::from_millis(20);

/// Minimum over [`RUNS`] repetitions of host ns per unit of `work`
/// (which returns the units it processed).
fn min_ns_per_unit(mut work: impl FnMut() -> u64) -> f64 {
    (0..RUNS)
        .map(|_| {
            let t = Instant::now();
            let mut units = 0u64;
            while t.elapsed() < MIN_REP {
                units += work();
            }
            t.elapsed().as_nanos() as f64 / units as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!("calibrate: timings from a debug build are meaningless; use --release");
        std::process::exit(2);
    }
    let sample = 16 << 10;
    let source = CompressibleSource::fixed(DEFAULT_SEED, CORPUS / sample, sample as u64, 64);
    let mut corpus = Vec::with_capacity(CORPUS);
    for id in 0..source.count() as u32 {
        corpus.extend_from_slice(&source.expected(id));
    }

    let verify_ns = min_ns_per_unit(|| {
        for block in corpus.chunks_exact(BLOCK) {
            black_box(content_sum(black_box(block)));
        }
        (corpus.len() / BLOCK) as u64
    });

    let codec = CodecKind::Lz.codec();
    let frames: Vec<(Vec<u8>, usize)> = corpus
        .chunks(FRAME)
        .map(|raw| (codec.encode(raw), raw.len()))
        .collect();
    for (enc, raw_len) in &frames {
        assert!(enc.len() < *raw_len, "calibration corpus must compress");
    }
    let decode_ns_per_kb = min_ns_per_unit(|| {
        for (enc, raw_len) in &frames {
            black_box(
                codec
                    .decode(black_box(enc), *raw_len)
                    .expect("own frames decode"),
            );
        }
        (corpus.len() / 1024) as u64
    });

    let costs = DlfsCosts::default();
    let charged_verify = costs.verify_block.as_nanos() as f64;
    let charged_decode = 1024.0 * 1e9 / costs.decode_bytes_per_sec;
    let rows = [
        (
            "verify_block",
            "content_sum per 512 B block",
            verify_ns,
            charged_verify,
            "ns/block",
        ),
        (
            "decode_bytes_per_sec",
            "LZ decode per KB",
            decode_ns_per_kb,
            charged_decode,
            "ns/KB",
        ),
    ];

    println!(
        "calibration: min of {RUNS} runs on {} MiB of motif-64 corpus, bound {FACTOR}x charged",
        CORPUS >> 20
    );
    let mut t = Table::new(&[
        "constant", "tag", "kernel", "measured", "charged", "unit", "ratio", "verdict",
    ]);
    let mut failed = Vec::new();
    for (name, kernel, measured, charged, unit) in rows {
        let ratio = measured / charged;
        let ok = ratio <= FACTOR;
        if !ok {
            failed.push(name);
        }
        t.row(&[
            name.to_string(),
            "measured".to_string(),
            kernel.to_string(),
            format!("{measured:.1}"),
            format!("{charged:.1}"),
            unit.to_string(),
            format!("{ratio:.2}x"),
            if ok { "ok" } else { "FAIL" }.to_string(),
        ]);
    }
    t.print();
    if !failed.is_empty() {
        eprintln!(
            "calibrate: {} cost(s) more than {FACTOR}x the charged constant: {}",
            failed.len(),
            failed.join(", ")
        );
        std::process::exit(1);
    }
}
