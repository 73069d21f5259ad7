//! The per-layer metrics: their names, units, the workloads on which the
//! layer does work, and how each is read from outside the program —
//! span timings around public calls and counters in `metrics()` /
//! `Cluster::registry()` snapshots, read by name.

use std::collections::BTreeMap;

use simkit::telemetry::Snapshot;

use crate::common::{counter, histo, max_p99, ratio, sum_counters};
use crate::trace::Tracer;

pub const TRAIN: &str = "train-small-local";
pub const DISAGG: &str = "disagg-large-verified";
pub const META: &str = "meta-fanout-1k";
pub const ALL: &[&str] = &[TRAIN, DISAGG, META];

/// `(name, unit, workloads where the layer does work)`. On any other
/// workload the layer is not exercised and the metric reads 0. On a
/// listed workload, a counter missing from the registry makes the metric
/// absent from the output rather than 0.
pub const PER_LAYER: &[(&str, &str, &[&str])] = &[
    ("simkit.handoff_host_ns", "ns", ALL),
    ("dlio.next_wait_vt_us", "us", &[TRAIN]),
    ("dlio.next_host_us", "us", &[TRAIN]),
    ("dnn.train_step_host_us", "us", &[TRAIN]),
    ("dlfs.io.submit_vt_us", "us", &[TRAIN, DISAGG]),
    ("dlfs.io.submit_host_us", "us", &[TRAIN, DISAGG]),
    ("dlfs.io.sync_read_vt_us", "us", &[TRAIN]),
    ("dlfs.io.sync_read_host_us", "us", &[TRAIN]),
    ("dlfs.io.sync_read_p99_vt_us", "us", &[TRAIN]),
    ("dlfs.io.stage.prep_ns_per_sample", "ns", &[TRAIN, DISAGG]),
    ("dlfs.io.stage.post_ns_per_sample", "ns", &[TRAIN, DISAGG]),
    ("dlfs.io.stage.poll_ns_per_sample", "ns", &[TRAIN, DISAGG]),
    ("dlfs.io.stage.copy_ns_per_sample", "ns", &[TRAIN, DISAGG]),
    (
        "dlfs.io.requests_posted_per_sample",
        "ratio",
        &[TRAIN, DISAGG],
    ),
    ("dlfs.io.retries", "count", &[TRAIN, DISAGG]),
    ("dlfs.io.timeouts", "count", &[TRAIN, DISAGG]),
    ("blocksim.commands_per_sample", "ratio", &[TRAIN, DISAGG]),
    ("blocksim.read_amp", "ratio", &[TRAIN, DISAGG]),
    ("blocksim.cmd_latency_p99_us", "us", &[TRAIN, DISAGG]),
    ("dlfs.cache.hit_ratio", "ratio", &[TRAIN]),
    ("dlfs.cache.evictions", "count", &[TRAIN]),
    ("dlfs.codec.decode_amp", "ratio", &[TRAIN]),
    ("dlfs.codec.decode_host_ns_per_kb", "ns/KB", ALL),
    (
        "dlfs.integrity.verified_blocks_per_sample",
        "ratio",
        &[DISAGG],
    ),
    ("dlfs.integrity.fnv1a_host_ns_per_block", "ns/block", ALL),
    ("dlfs.integrity.mismatches", "count", &[DISAGG]),
    ("dlfs.ckpt.append_vt_us", "us", &[TRAIN]),
    ("dlfs.ckpt.append_host_us", "us", &[TRAIN]),
    ("dlfs.ckpt.append_p90_vt_us", "us", &[TRAIN]),
    ("fabric.transfers_per_sample", "ratio", &[DISAGG, META]),
    ("fabric.transfer_p99_us", "us", &[DISAGG, META]),
    ("fabric.rpc.latency_p99_us", "us", &[META]),
    ("dlfs.metashard.lookup_vt_us", "us", &[META]),
    ("dlfs.metashard.lookup_host_us", "us", &[META]),
    ("dlfs.metashard.piggyback_frac", "ratio", &[META]),
    ("dlfs.metashard.map_refreshes", "count", &[META]),
    ("dlfs.mount.vt_ms", "ms", ALL),
    ("dlfs.mount.host_s", "s", ALL),
    ("trace.host_overhead_frac", "ratio", ALL),
];

/// Mean host microseconds per call of each traced public function.
/// Empty when tracing is off.
pub fn spans(tr: &Tracer) -> BTreeMap<&'static str, Option<f64>> {
    let mut out = BTreeMap::new();
    if !tr.is_on() {
        return out;
    }
    let all = tr.spans();
    for (metric, span) in [
        ("dlio.next_host_us", "dlio.next"),
        ("dnn.train_step_host_us", "dnn.train_step"),
        ("dlfs.io.submit_host_us", "dlfs.io.submit"),
        ("dlfs.io.sync_read_host_us", "dlfs.io.sync_read"),
        ("dlfs.ckpt.append_host_us", "dlfs.ckpt.append"),
    ] {
        let ns: Vec<u64> = all
            .iter()
            .filter(|s| s.name == span)
            .map(|s| s.host_ns())
            .collect();
        if !ns.is_empty() {
            out.insert(metric, Some(crate::common::mean_us(&ns)));
        }
    }
    out
}

/// The `dlfs.io.*`, `blocksim.*` and `dlfs.integrity.*` counters of a DLFS
/// reader registry, normalised per delivered sample or byte.
pub fn io_counters(
    snap: &Snapshot,
    samples: u64,
    bytes: u64,
    put: &mut impl FnMut(&'static str, Option<f64>),
) {
    for (metric, hist) in [
        ("dlfs.io.stage.prep_ns_per_sample", "dlfs.io.stage.prep_ns"),
        ("dlfs.io.stage.post_ns_per_sample", "dlfs.io.stage.post_ns"),
        ("dlfs.io.stage.poll_ns_per_sample", "dlfs.io.stage.poll_ns"),
        ("dlfs.io.stage.copy_ns_per_sample", "dlfs.io.stage.copy_ns"),
    ] {
        put(metric, ratio(histo(snap, hist).map(|h| h.sum), samples));
    }
    put(
        "dlfs.io.requests_posted_per_sample",
        ratio(counter(snap, "dlfs.io.requests_posted"), samples),
    );
    put(
        "dlfs.io.retries",
        counter(snap, "dlfs.io.retries").map(|v| v as f64),
    );
    put(
        "dlfs.io.timeouts",
        counter(snap, "dlfs.io.timeouts").map(|v| v as f64),
    );
    put(
        "blocksim.commands_per_sample",
        ratio(sum_counters(snap, "blocksim.dev", ".commands"), samples),
    );
    put(
        "blocksim.read_amp",
        ratio(sum_counters(snap, "blocksim.dev", ".bytes"), bytes),
    );
    put(
        "blocksim.cmd_latency_p99_us",
        max_p99(snap, "blocksim.dev", ".cmd_latency_ns").map(|ns| ns as f64 / 1e3),
    );
    put(
        "dlfs.integrity.verified_blocks_per_sample",
        ratio(counter(snap, "dlfs.integrity.verified"), samples),
    );
    put(
        "dlfs.integrity.mismatches",
        counter(snap, "dlfs.integrity.mismatches").map(|v| v as f64),
    );
}

/// Fabric transfer counters of a cluster registry.
pub fn fabric_counters(snap: &Snapshot, ops: u64, put: &mut impl FnMut(&'static str, Option<f64>)) {
    put(
        "fabric.transfers_per_sample",
        ratio(counter(snap, "fabric.transfers"), ops),
    );
    put(
        "fabric.transfer_p99_us",
        histo(snap, "fabric.transfer_ns").map(|h| h.p99 as f64 / 1e3),
    );
}
