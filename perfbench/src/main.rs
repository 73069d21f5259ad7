//! perfbench — two-clock benchmark of the DLFS workspace.
//!
//! Runs one closed-loop workload, built only from the public API of the
//! library crates, for a host-time budget, and prints on its last stdout
//! line one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny] [--out <dir>]
//! perfbench --describe
//! ```
//!
//! The workload is simulated again and again ("windows") with the same
//! seed until the budget is spent. Every window must reproduce the same
//! virtual-time metrics and the same replay fingerprint. With `--trace 0`
//! the metrics are the end-to-end ones: virtual-time metrics from the
//! simulation, and host metrics as medians over the windows. With
//! `--trace 1` the windows alternate between untraced and traced, and
//! the metrics are the per-layer ones from the traced windows, the
//! kernel replay and the host cost of tracing; the spans of the last
//! traced window are written to `<out>/<workload>-seed<n>.trace.json`.
//! `--tiny` shrinks every workload to a smoke-test size. `--describe`
//! prints the metric catalogue as JSON.

#![forbid(unsafe_code)]

mod common;
mod disagg;
mod kernels;
mod layers;
mod meta;
mod trace;
mod train;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use common::{median, peak_rss_mb, Fold, Size, Window};
use dlfs::DlfsCosts;
use layers::{DISAGG, META, PER_LAYER, TRAIN};
use trace::Tracer;

/// End-to-end metrics: `(name, unit)`.
const END_TO_END: &[(&str, &str)] = &[
    ("vt_sps", "1/s"),
    ("vt_p50_us", "us"),
    ("vt_p99_us", "us"),
    ("vt_mount_ms", "ms"),
    ("host_sps", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// One simulated window of a workload: `(seed, size, tracer)`.
type RunFn = fn(u64, Size, Tracer) -> Window;
/// The first bytes of a workload's samples: `(seed, size, budget)`.
type CorpusFn = fn(u64, Size, usize) -> Vec<u8>;

/// Fewest untraced windows a `--trace 0` run takes its medians over.
const MIN_WINDOWS: usize = 3;
/// Bytes of each workload's samples the kernel replay runs on.
const CORPUS_BYTES: usize = 4 << 20;

const USAGE: &str = "usage: perfbench --workload <train-small-local|disagg-large-verified|\
meta-fanout-1k> --seed <n> --seconds <s> --trace <0|1> [--tiny] [--out <dir>]\n       \
perfbench --describe";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
    size: Size,
    out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut size, mut out) = (Size::Full, PathBuf::from(".perfbench_out"));
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            size = Size::Tiny;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *layers::ALL
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
        out,
    })
}

/// The metric catalogue, for the smoke check against `BENCHMARK.json`.
fn describe() -> String {
    let mut s = String::from("{\"workloads\":[");
    for (i, w) in layers::ALL.iter().enumerate() {
        let _ = write!(s, "{}\"{w}\"", if i == 0 { "" } else { "," });
    }
    s.push_str("],\"end_to_end\":[");
    for (i, (n, u)) in END_TO_END.iter().enumerate() {
        let _ = write!(
            s,
            "{}{{\"name\":\"{n}\",\"unit\":\"{u}\"}}",
            if i == 0 { "" } else { "," }
        );
    }
    s.push_str("],\"per_layer\":[");
    for (i, (n, u, ws)) in PER_LAYER.iter().enumerate() {
        let ws: Vec<String> = ws.iter().map(|w| format!("\"{w}\"")).collect();
        let _ = write!(
            s,
            "{}{{\"name\":\"{n}\",\"unit\":\"{u}\",\"workloads\":[{}]}}",
            if i == 0 { "" } else { "," },
            ws.join(",")
        );
    }
    s.push_str("]}");
    s
}

/// The window's replay fingerprint: delivered bytes folded with every
/// virtual-time metric.
fn fingerprint(w: &Window) -> u64 {
    let mut f = Fold(w.fingerprint);
    for (_, v) in &w.vt {
        f.f64(*v);
    }
    f.0
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--describe"] {
        println!("{}", describe());
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let (run, corpus): (RunFn, CorpusFn) = match args.workload {
        TRAIN => (train::run, train::corpus),
        DISAGG => (disagg::run, disagg::corpus),
        META => (meta::run, meta::corpus),
        _ => unreachable!("parse_args accepts listed workloads only"),
    };

    // Windows until the budget is spent; traced runs alternate untraced
    // and traced windows and end on a pair.
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let (mut plain, mut traced): (Vec<Window>, Vec<Window>) = (Vec::new(), Vec::new());
    let mut peak_rss = None;
    loop {
        let trace_turn = args.trace && traced.len() < plain.len();
        let tr = if trace_turn {
            Tracer::on()
        } else {
            Tracer::off()
        };
        let w = run(args.seed, args.size, tr);
        eprintln!(
            "perfbench: {} window: set-up {:.3} s, region {:.3} s, {:.0} ops/s host",
            if trace_turn { "traced" } else { "untraced" },
            w.setup_s,
            w.region_host_s,
            w.ops as f64 / w.region_host_s
        );
        if trace_turn {
            traced.push(w);
        } else {
            plain.push(w);
        }
        // Later windows reuse memory the allocator kept from earlier ones,
        // so the peak is taken over one window in a fresh process.
        peak_rss = peak_rss.or_else(peak_rss_mb);
        let enough = if args.trace {
            !traced.is_empty() && traced.len() == plain.len()
        } else {
            plain.len() >= MIN_WINDOWS || args.size == Size::Tiny
        };
        if enough && (args.size == Size::Tiny || start.elapsed() >= budget) {
            break;
        }
    }

    // Output checks: bytes, determinism, and the trace invariants.
    let mut problems = Vec::new();
    let all: Vec<&Window> = plain.iter().chain(&traced).collect();
    let first = all[0];
    let fp = fingerprint(first);
    let bits = |w: &Window| {
        w.vt.iter()
            .map(|(k, v)| (*k, v.to_bits()))
            .collect::<Vec<_>>()
    };
    for (i, w) in all.iter().enumerate().skip(1) {
        let kind = if i >= plain.len() {
            "traced"
        } else {
            "untraced"
        };
        if bits(w) != bits(first) {
            problems.push(format!(
                "{kind} window {i}: virtual-time metrics differ from window 0: {:?} vs {:?}",
                w.vt, first.vt
            ));
        }
        if fingerprint(w) != fp {
            problems.push(format!(
                "{kind} window {i}: replay fingerprint differs from window 0"
            ));
        }
    }
    for w in &traced {
        problems.extend(w.tracer.coverage_errors());
    }
    let attempted: u64 = all.iter().map(|w| w.attempted).sum();
    let failed: u64 = all.iter().map(|w| w.failed).sum();
    for w in &all {
        for e in &w.errors {
            eprintln!("perfbench: error: {e}");
        }
    }
    for p in &problems {
        eprintln!("perfbench: check failed: {p}");
    }
    eprintln!(
        "perfbench: {} seed {}: {} untraced + {} traced windows, {} ops each, \
         {attempted} attempted, {failed} failed, replay fingerprint {fp:016x}",
        args.workload,
        args.seed,
        plain.len(),
        traced.len(),
        first.ops
    );

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        per_layer(&args, corpus, &plain, &traced, fp, &mut metrics);
    } else {
        for (name, v) in &first.vt {
            metrics.push((name, *v, unit_of(name)));
        }
        let host_sps = median(
            plain
                .iter()
                .map(|w| w.ops as f64 / w.region_host_s)
                .collect(),
        );
        metrics.push(("host_sps", host_sps, "1/s"));
        metrics.push((
            "setup_s",
            median(plain.iter().map(|w| w.setup_s).collect()),
            "s",
        ));
        if let Some(mb) = peak_rss {
            metrics.push(("peak_rss_mb", mb, "MB"));
        }
        eprintln!(
            "perfbench: vt_p50_us/vt_p99_us over {} requests per window; host_sps and \
             setup_s are medians of {} windows",
            first.requests,
            plain.len()
        );
    }

    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        problems.is_empty() && failed == 0,
        attempted.max(1),
        failed
    );
    let mut sep = "";
    for (name, v, unit) in metrics {
        if !v.is_finite() {
            eprintln!("perfbench: {name} is not a finite number; left out");
            continue;
        }
        eprintln!("perfbench: {name} = {v} {unit}");
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
        sep = ", ";
    }
    line.push_str("}}");
    println!("{line}");
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// Per-layer metrics of a traced run, plus the kernel replay, the
/// self-time table and the trace file.
fn per_layer(
    args: &Args,
    corpus: CorpusFn,
    plain: &[Window],
    traced: &[Window],
    fp: u64,
    metrics: &mut Vec<(&'static str, f64, &'static str)>,
) {
    let bytes = corpus(
        args.seed,
        args.size,
        args.size.pick(CORPUS_BYTES, 256 << 10),
    );
    let k = kernels::replay(args.seed, args.size, &bytes);
    let region = |ws: &[Window]| median(ws.iter().map(|w| w.region_host_s).collect());
    let overhead = region(traced) / region(plain) - 1.0;
    for &(name, unit, workloads) in PER_LAYER {
        let v = match name {
            "simkit.handoff_host_ns" => Some(k.handoff_host_ns),
            "dlfs.integrity.fnv1a_host_ns_per_block" => Some(k.fnv1a_ns_per_block),
            "dlfs.codec.decode_host_ns_per_kb" => Some(k.lz_decode_ns_per_kb),
            "trace.host_overhead_frac" => Some(overhead),
            _ => traced
                .iter()
                .map(|w| w.layers.get(name).copied().flatten())
                .collect::<Option<Vec<f64>>>()
                .map(median),
        };
        match v {
            Some(v) => metrics.push((name, v, unit)),
            // The layer does no work in this workload.
            None if !workloads.contains(&args.workload) => metrics.push((name, 0.0, unit)),
            None => eprintln!("perfbench: {name}: a counter it needs is absent; not reported"),
        }
    }

    let costs = DlfsCosts::default();
    let charged_block = costs.verify_block.as_nanos() as f64;
    let charged_kb = 1024.0 / costs.decode_bytes_per_sec * 1e9;
    let notes = vec![
        ("fingerprint", format!("{fp:016x}")),
        (
            "fnv1a_per_block",
            format!(
                "{:.1} ns measured vs {charged_block} ns charged (DlfsCosts::verify_block)",
                k.fnv1a_ns_per_block
            ),
        ),
        (
            "lz_decode_per_kb",
            format!(
                "{:.1} ns measured vs {charged_kb:.1} ns charged (DlfsCosts::decode_bytes_per_sec)",
                k.lz_decode_ns_per_kb
            ),
        ),
        (
            "handoff",
            format!("{:.0} ns per simkit channel handoff", k.handoff_host_ns),
        ),
        (
            "trace_overhead",
            format!("{:.2}% host time of the traced region", overhead * 100.0),
        ),
    ];
    for (k, v) in &notes {
        eprintln!("perfbench: kernel replay / trace: {k}: {v}");
    }
    let last = traced.last().expect("a traced run ends on a traced window");
    eprintln!("perfbench: self time per layer (spans, virtual ms, host ms):");
    for (layer, (n, vt, host)) in last.tracer.self_times() {
        eprintln!(
            "perfbench:   {layer:<22} {n:>8} {:>12.3} {:>10.3}",
            vt as f64 / 1e6,
            host as f64 / 1e6
        );
    }
    if std::fs::create_dir_all(&args.out).is_ok() {
        let path = args
            .out
            .join(format!("{}-seed{}.trace.json", args.workload, args.seed));
        last.tracer.write_chrome(&path, &notes);
        eprintln!("perfbench: trace written to {}", path.display());
    }
}
