//! Kernel replay: the real host cost of the kernels behind two charged
//! virtual-time constants, timed on a workload's own bytes, plus one
//! simkit channel handoff. Reported for information beside
//! `DlfsCosts::verify_block` and `DlfsCosts::decode_bytes_per_sec`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use dlfs::CodecKind;
use simkit::runtime::Runtime;

use crate::common::{median, Size};

/// Bytes per checksummed device block.
const BLOCK: usize = 512;
/// Frame size the LZ decode is timed on (the train workload's chunk).
const FRAME: usize = 64 << 10;
const REPS: usize = 5;

pub struct Kernels {
    pub handoff_host_ns: f64,
    pub fnv1a_ns_per_block: f64,
    pub lz_decode_ns_per_kb: f64,
}

/// Median over `REPS` of the host ns per unit of `work`, each repetition
/// looping until it has run for at least `min`.
fn time_per_unit(min: Duration, mut work: impl FnMut() -> u64) -> f64 {
    let reps = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            let mut units = 0u64;
            while t.elapsed() < min {
                units += work();
            }
            t.elapsed().as_nanos() as f64 / units as f64
        })
        .collect();
    median(reps)
}

/// One round trip between two simulated tasks over bounded channels is
/// two scheduler handoffs.
fn handoff_ns(seed: u64, rounds: u64) -> f64 {
    Runtime::simulate(seed, |rt| {
        let (to_echo, echo_rx) = rt.channel::<u64>(Some(1));
        let (echo_tx, from_echo) = rt.channel::<u64>(Some(1));
        let echo = rt.spawn("echo", move |_| {
            while let Ok(v) = echo_rx.recv() {
                if echo_tx.send(v).is_err() {
                    break;
                }
            }
        });
        let t = Instant::now();
        for i in 0..rounds {
            to_echo.send(i).expect("echo task alive");
            black_box(from_echo.recv().expect("echo task alive"));
        }
        let ns = t.elapsed().as_nanos() as f64 / (2 * rounds) as f64;
        drop(to_echo);
        echo.join();
        ns
    })
    .0
}

pub fn replay(seed: u64, size: Size, corpus: &[u8]) -> Kernels {
    let min = size.pick(Duration::from_millis(60), Duration::from_millis(2));
    let handoff_host_ns = median(
        (0..REPS)
            .map(|r| handoff_ns(seed ^ r as u64, size.pick(4_000, 200)))
            .collect(),
    );
    let fnv1a_ns_per_block = time_per_unit(min, || {
        let mut n = 0;
        for block in corpus.chunks_exact(BLOCK) {
            black_box(simkit::rng::fnv1a(black_box(block)));
            n += 1;
        }
        n
    });
    let codec = CodecKind::Lz.codec();
    let frames: Vec<(Vec<u8>, usize)> = corpus
        .chunks(FRAME)
        .map(|raw| (codec.encode(raw), raw.len()))
        .collect();
    let kb = corpus.len() as f64 / 1024.0;
    let lz_decode_ns_per_kb = time_per_unit(min, || {
        for (enc, raw_len) in &frames {
            black_box(codec.decode(black_box(enc), *raw_len));
        }
        1
    }) / kb;
    Kernels {
        handoff_host_ns,
        fnv1a_ns_per_block,
        lz_decode_ns_per_kb,
    }
}

/// The first samples of `source`, concatenated up to `budget` bytes.
pub fn corpus(source: &dyn dlfs::SampleSource, budget: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(budget);
    for id in 0..source.count() as u32 {
        if out.len() >= budget {
            break;
        }
        let at = out.len();
        out.resize(at + source.size(id) as usize, 0);
        source.fill(id, &mut out[at..]);
    }
    out.truncate(budget);
    out
}
