//! Performance-trajectory gate: a pinned-seed suite whose metrics are
//! exact (virtual time, deterministic schedules), emitted as
//! `BENCH_<rev>.json` and compared against a committed baseline.
//!
//! Metrics:
//! - `epoch_throughput_sps` — batched copied delivery, one full epoch,
//!   samples per virtual second (higher is better);
//! - `verified_epoch_throughput_sps` — the same epoch with per-block
//!   checksum verification (`verify_reads`) on; the gate asserts inline
//!   that the verification tax stays within 10% of the unverified run;
//! - `p99_read_latency_ns` — synchronous single-sample reads, 99th
//!   percentile virtual latency (lower is better);
//! - `warm_remount_ns` — persistent-layout warm remount time (lower is
//!   better);
//! - `reactor_wakeups_per_epoch` — event-loop wakeups taken to drain one
//!   epoch (lower is better: fewer wakeups = better completion
//!   coalescing);
//! - `degraded_p99_read_latency_ns` — synchronous single-sample reads
//!   with one storage node declared Dead, replicas serving its homes
//!   (lower is better: the cost of routing around a lost target);
//! - `rebuild_time_ns` — virtual time from `begin_rebuild` to full
//!   redundancy restored onto a fresh replacement, rebuilding
//!   cooperatively while a foreground epoch drains (lower is better);
//! - `offload_epoch_throughput_sps` — one epoch of storage-side offloaded
//!   batches (`ReadRequest::offload`) over LZ-compressed chunks against
//!   four remote NVMe-oF targets on a fabric-bound 1 GB/s NIC, samples
//!   per virtual second (higher is better); the gate asserts inline that
//!   the offloaded epoch beats the raw client path on the same wiring;
//! - `sharded_lookup_p99_ns` — 99th-percentile end-to-end locate+fetch
//!   latency through the locality-sharded metadata service, 256 clients
//!   on 8 storage nodes (lower is better);
//! - `multitenant_fair_share_err` — max absolute deviation of a
//!   1:2:4-weighted tenant mix from its weight shares under WFQ slot
//!   contention (lower is better); the gate asserts inline that it stays
//!   within the 5% fairness budget;
//! - `sched_switches_per_sample` — scheduler switches (OS-thread
//!   handoffs between simulated participants, `Runtime::switches`) per
//!   sample of the unverified batched epoch (lower is better: handoffs
//!   are the simulator's main host cost). The copy lanes are services
//!   run inline, so this epoch takes none and the baseline is zero: any
//!   handoff that creeps back in fails the gate.
//!
//! Usage:
//!   perf_gate rev=<id> [out=<dir>] [baseline=<file>] [tolerance=0.10]
//!
//! With `baseline=`, exits non-zero when any metric regresses beyond the
//! tolerance fraction in its bad direction (from a zero baseline, any
//! move in the bad direction regresses). Because every metric is
//! deterministic, a clean run reproduces the baseline bit-for-bit; the
//! tolerance only absorbs *intentional* small shifts, not noise.

use std::sync::Arc;

use blocksim::{DeviceConfig, NvmeDevice, NvmeTarget};
use dlfs::{
    CodecKind, CompressibleSource, Deployment, DlfsConfig, MountOptions, ReadRequest,
    SyntheticSource,
};
use dlfs_bench::{arg, setup, DEFAULT_SEED};
use fabric::{Cluster, FabricConfig, NvmeOfTarget, TargetConfig};
use simkit::prelude::*;

struct Metrics {
    epoch_throughput_sps: f64,
    verified_epoch_throughput_sps: f64,
    p99_read_latency_ns: u64,
    warm_remount_ns: u64,
    reactor_wakeups_per_epoch: u64,
    degraded_p99_read_latency_ns: u64,
    rebuild_time_ns: u64,
    offload_epoch_throughput_sps: f64,
    sharded_lookup_p99_ns: u64,
    multitenant_fair_share_err: f64,
    sched_switches_per_sample: f64,
}

/// One batched epoch: (samples per virtual second, reactor wakeups,
/// scheduler switches per sample).
fn batched_epoch(seed: u64, verify: bool) -> (f64, u64, f64) {
    Runtime::simulate(seed, |rt| {
        let source = SyntheticSource::fixed(seed, 4000, 2048);
        let cfg = DlfsConfig {
            reactor_stats: true,
            verify_reads: verify,
            ..DlfsConfig::default()
        };
        let fs = dlfs::MountBuilder::new(cfg)
            .local(setup::optane_for(&source))
            .mount(rt, &source)
            .unwrap();
        let mut io = fs.io(0);
        let total = io.sequence(rt, 7, 0);
        let t0 = rt.now();
        let switches0 = rt.switches();
        let mut got = 0usize;
        while got < total {
            got += io.submit(rt, &ReadRequest::batch(48)).unwrap().len();
        }
        let secs = (rt.now() - t0).as_secs_f64();
        let switches = (rt.switches() - switches0) as f64 / got as f64;
        let wakeups = io.metrics().counter("dlfs.reactor.wakeups");
        (got as f64 / secs, wakeups, switches)
    })
    .0
}

fn p99_read_latency(seed: u64) -> u64 {
    Runtime::simulate(seed, |rt| {
        let source = SyntheticSource::fixed(seed, 2000, 4096);
        let fs = dlfs::MountBuilder::new(DlfsConfig::default())
            .local(setup::optane_for(&source))
            .mount(rt, &source)
            .unwrap();
        let mut io = fs.io(0);
        let mut lat: Vec<u64> = Vec::new();
        for id in 0..512u32 {
            let t0 = rt.now();
            io.read_by_id(rt, id).unwrap();
            lat.push((rt.now() - t0).as_nanos());
        }
        lat.sort_unstable();
        lat[(lat.len() * 99) / 100]
    })
    .0
}

fn warm_remount(seed: u64) -> u64 {
    Runtime::simulate(seed, |rt| {
        let source = SyntheticSource::fixed(seed, 1000, 8192);
        let dev = setup::optane_for(&source);
        let cold = dlfs::MountBuilder::new(DlfsConfig::default())
            .local(dev.clone())
            .persistent()
            .mount(rt, &source)
            .unwrap();
        drop(cold);
        let t0 = rt.now();
        let warm = dlfs::MountBuilder::new(DlfsConfig::default())
            .local(dev)
            .warm()
            .remount(rt)
            .unwrap();
        let dt = (rt.now() - t0).as_nanos();
        drop(warm);
        dt
    })
    .0
}

/// Kill one of three replicated storage nodes mid-epoch, let the
/// membership view escalate it to Dead, then measure (a) the synchronous
/// read tail while replicas serve the dead node's homes and (b) how long
/// restoring full redundancy onto a factory-fresh replacement takes while
/// a foreground epoch drains (cooperative `rebuild_step` quanta between
/// batches). Fully deterministic; runs in its own simulation so the
/// legacy metrics above stay bit-identical.
fn degraded_and_rebuild(seed: u64) -> (u64, u64) {
    const DEV_BYTES: u64 = 64 << 20;
    Runtime::simulate(seed, |rt| {
        let source = SyntheticSource::fixed(seed ^ 0x8E, 1000, 2048);
        let cfg = DlfsConfig {
            chunk_size: 8 * 1024,
            replicas: 2,
            verify_reads: true,
            fail_dead_after: Some(Dur::micros(300)),
            rebuild_gap_blocks: 128,
            ..DlfsConfig::default()
        };
        let devices: Vec<Arc<NvmeDevice>> = (0..3)
            .map(|_| NvmeDevice::new(DeviceConfig::emulated_ramdisk(DEV_BYTES, Dur::micros(10))))
            .collect();
        let fs = dlfs::MountBuilder::new(cfg)
            .deployment(Deployment {
                targets: vec![devices
                    .iter()
                    .map(|d| d.clone() as Arc<dyn NvmeTarget>)
                    .collect()],
                cluster: None,
            })
            .options(MountOptions::default())
            .persistent()
            .mount(rt, &source)
            .unwrap();
        let red = fs.redundancy().expect("redundancy built").clone();
        let mut io = fs.io(0);

        // Epoch 0: node 1 dies permanently a quarter of the way in.
        let total = io.sequence(rt, seed ^ 0x51, 0);
        let mut got = 0usize;
        while got < total {
            got += io.submit(rt, &ReadRequest::batch(32)).unwrap().len();
            if got >= total / 4 {
                devices[1].kill();
            }
        }
        assert!(red.is_dead(1), "sustained outage must escalate to Dead");

        // Degraded tail: synchronous reads, replicas covering node 1.
        let mut lat: Vec<u64> = Vec::new();
        for id in 0..512u32 {
            let t0 = rt.now();
            io.read_by_id(rt, id).unwrap();
            lat.push((rt.now() - t0).as_nanos());
        }
        lat.sort_unstable();
        let degraded_p99 = lat[(lat.len() * 99) / 100];

        // Fresh replacement under the same index; rebuild rides along a
        // foreground epoch, `rebuild_gap_blocks` after every batch.
        devices[1].revive();
        devices[1].dma_write(0, &vec![0u8; DEV_BYTES as usize]);
        let t_begin = rt.now();
        let planned = io.begin_rebuild(1).unwrap();
        assert!(planned > 0, "a dead node's slots are never empty here");
        let total = io.sequence(rt, seed ^ 0x51, 1);
        let mut got = 0usize;
        let mut t_done = None;
        while got < total {
            got += io.submit(rt, &ReadRequest::batch(32)).unwrap().len();
            if io.rebuild_active() {
                io.rebuild_step(128);
                if !io.rebuild_active() {
                    t_done = Some(rt.now());
                }
            }
        }
        io.drive_rebuild();
        let rebuild_ns = (t_done.unwrap_or_else(|| rt.now()) - t_begin).as_nanos();
        assert!(!red.is_dead(1), "rebuilt node must rejoin");
        (degraded_p99, rebuild_ns)
    })
    .0
}

/// One epoch of offloaded, LZ-compressed batches over a fabric-bound
/// NVMe-oF pool (reader on its own node, four remote targets, 1 GB/s
/// NICs), compared inline against the raw client path on the same
/// wiring. Its own simulation, so the legacy metrics stay bit-identical.
fn offload_epoch_throughput(seed: u64) -> f64 {
    const NODES: usize = 4;
    fn epoch(seed: u64, codec: CodecKind, offload: bool) -> f64 {
        Runtime::simulate(seed, |rt| {
            let source = CompressibleSource::fixed(seed ^ 0x0C, 2000, 2600, 48);
            let cluster = Arc::new(Cluster::new(
                NODES + 1,
                FabricConfig {
                    nic_bytes_per_sec: 1.0e9,
                    ..FabricConfig::default()
                },
            ));
            let devices: Vec<Arc<NvmeDevice>> =
                (0..NODES).map(|_| setup::emulated_for(8 << 20)).collect();
            let targets: Vec<Vec<Arc<dyn NvmeTarget>>> = vec![devices
                .iter()
                .enumerate()
                .map(|(node, d)| {
                    fabric::connect(
                        cluster.clone(),
                        NODES,
                        NvmeOfTarget::new(node, d.clone(), TargetConfig::default()),
                    ) as Arc<dyn NvmeTarget>
                })
                .collect()];
            let fs = dlfs::MountBuilder::new(DlfsConfig {
                chunk_size: 8 * 1024,
                codec,
                offload: true,
                ..DlfsConfig::default()
            })
            .deployment(Deployment {
                targets,
                cluster: Some(cluster),
            })
            .options(MountOptions::default())
            .mount(rt, &source)
            .unwrap();
            let mut io = fs.io(0);
            let total = io.sequence(rt, seed ^ 0x0F, 0);
            let req = if offload {
                ReadRequest::batch(32).offload()
            } else {
                ReadRequest::batch(32)
            };
            let t0 = rt.now();
            let mut got = 0usize;
            while got < total {
                got += io.submit(rt, &req).unwrap().len();
            }
            got as f64 / (rt.now() - t0).as_secs_f64()
        })
        .0
    }
    let offloaded = epoch(seed, CodecKind::Lz, true);
    let raw = epoch(seed, CodecKind::Identity, false);
    // Below the Fig. 11 crossover the fabric bounds the epoch; offload's
    // dense per-node responses must beat the raw per-command path there.
    assert!(
        offloaded > raw,
        "offloaded epoch ({offloaded:.0} sps) must beat the raw client path ({raw:.0} sps) \
         on a fabric-bound NIC"
    );
    offloaded
}

fn render_json(rev: &str, m: &Metrics) -> String {
    format!(
        "{{\n  \"rev\": \"{}\",\n  \"epoch_throughput_sps\": {:.3},\n  \
         \"verified_epoch_throughput_sps\": {:.3},\n  \
         \"p99_read_latency_ns\": {},\n  \"warm_remount_ns\": {},\n  \
         \"reactor_wakeups_per_epoch\": {},\n  \
         \"degraded_p99_read_latency_ns\": {},\n  \"rebuild_time_ns\": {},\n  \
         \"offload_epoch_throughput_sps\": {:.3},\n  \
         \"sharded_lookup_p99_ns\": {},\n  \
         \"multitenant_fair_share_err\": {:.6},\n  \
         \"sched_switches_per_sample\": {:.6}\n}}\n",
        rev,
        m.epoch_throughput_sps,
        m.verified_epoch_throughput_sps,
        m.p99_read_latency_ns,
        m.warm_remount_ns,
        m.reactor_wakeups_per_epoch,
        m.degraded_p99_read_latency_ns,
        m.rebuild_time_ns,
        m.offload_epoch_throughput_sps,
        m.sharded_lookup_p99_ns,
        m.multitenant_fair_share_err,
        m.sched_switches_per_sample
    )
}

/// Pull `"key": value` out of the flat JSON the gate itself writes.
fn json_num(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Relative change from `was` to `now`. From a zero baseline any change is
/// infinitely large, so a metric ratcheted down to zero still regresses on
/// its first step back up.
fn drift(was: f64, now: f64) -> f64 {
    if was == 0.0 {
        if now == 0.0 {
            0.0
        } else {
            f64::INFINITY.copysign(now)
        }
    } else {
        (now - was) / was
    }
}

fn main() {
    let seed: u64 = arg("seed", DEFAULT_SEED);
    let rev: String = arg("rev", "worktree".to_string());
    let out: String = arg("out", ".".to_string());
    let baseline: String = arg("baseline", String::new());
    let tolerance: f64 = arg("tolerance", 0.10);

    let (epoch_throughput_sps, reactor_wakeups_per_epoch, sched_switches_per_sample) =
        batched_epoch(seed, false);
    let (verified_epoch_throughput_sps, _, _) = batched_epoch(seed, true);
    // The verification tax is bounded by construction (one FNV-1a pass per
    // delivered block, `costs.verify_block` each): gate it inline so a
    // hot-path regression in the verify plumbing cannot hide behind a
    // stale baseline.
    let overhead = 1.0 - verified_epoch_throughput_sps / epoch_throughput_sps;
    assert!(
        overhead <= 0.10,
        "checksum verification costs {:.1}% of epoch throughput (gate: 10%)",
        overhead * 100.0
    );
    let (degraded_p99_read_latency_ns, rebuild_time_ns) = degraded_and_rebuild(seed);
    // Sharded metadata tail: 256 clients locate+fetch through the
    // locality-placed shards (its own simulation; legacy metrics are
    // untouched).
    let sharded_lookup_p99_ns =
        dlfs_bench::meta_scale_run(seed, dlfs_bench::MetaDesign::Sharded, 8, 256, 32, 4, 20_000)
            .p99_ns;
    // WFQ fairness: 1:2:4 weights, four workers per tenant over two qpair
    // slots. The 5% budget is a hard product guarantee — gate it inline
    // like the verification tax, so a scheduling regression cannot hide
    // behind a stale baseline.
    let fair = dlfs_bench::weighted_fair_run(seed, &[1, 2, 4], 2, 4, Dur::micros(20_000));
    assert!(
        fair.err <= 0.05,
        "WFQ fairness error {:.4} exceeds the 5% budget ({:?})",
        fair.err,
        fair.shares
    );
    let m = Metrics {
        epoch_throughput_sps,
        verified_epoch_throughput_sps,
        p99_read_latency_ns: p99_read_latency(seed),
        warm_remount_ns: warm_remount(seed),
        reactor_wakeups_per_epoch,
        degraded_p99_read_latency_ns,
        rebuild_time_ns,
        offload_epoch_throughput_sps: offload_epoch_throughput(seed),
        sharded_lookup_p99_ns,
        multitenant_fair_share_err: fair.err,
        sched_switches_per_sample,
    };

    let json = render_json(&rev, &m);
    let path = format!("{out}/BENCH_{rev}.json");
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    print!("{json}");
    eprintln!("wrote {path}");

    if baseline.is_empty() {
        return;
    }
    let base = std::fs::read_to_string(&baseline)
        .unwrap_or_else(|e| panic!("read baseline {baseline}: {e}"));
    // (key, current value, higher-is-better)
    let checks: [(&str, f64, bool); 11] = [
        ("epoch_throughput_sps", m.epoch_throughput_sps, true),
        (
            "verified_epoch_throughput_sps",
            m.verified_epoch_throughput_sps,
            true,
        ),
        ("p99_read_latency_ns", m.p99_read_latency_ns as f64, false),
        ("warm_remount_ns", m.warm_remount_ns as f64, false),
        (
            "reactor_wakeups_per_epoch",
            m.reactor_wakeups_per_epoch as f64,
            false,
        ),
        (
            "degraded_p99_read_latency_ns",
            m.degraded_p99_read_latency_ns as f64,
            false,
        ),
        ("rebuild_time_ns", m.rebuild_time_ns as f64, false),
        (
            "offload_epoch_throughput_sps",
            m.offload_epoch_throughput_sps,
            true,
        ),
        (
            "sharded_lookup_p99_ns",
            m.sharded_lookup_p99_ns as f64,
            false,
        ),
        (
            "multitenant_fair_share_err",
            m.multitenant_fair_share_err,
            false,
        ),
        (
            "sched_switches_per_sample",
            m.sched_switches_per_sample,
            false,
        ),
    ];
    let mut failed = false;
    for (key, now, higher_better) in checks {
        let Some(was) = json_num(&base, key) else {
            eprintln!("baseline missing {key}; skipping");
            continue;
        };
        let drift = drift(was, now);
        let bad = if higher_better { -drift } else { drift };
        let verdict = if bad > tolerance { "REGRESSED" } else { "ok" };
        eprintln!(
            "{key}: baseline {was:.3} -> {now:.3} ({:+.2}% {verdict})",
            drift * 100.0
        );
        if bad > tolerance {
            failed = true;
        }
    }
    if failed {
        eprintln!("perf gate FAILED (tolerance {:.0}%)", tolerance * 100.0);
        std::process::exit(1);
    }
    eprintln!("perf gate OK");
}

#[cfg(test)]
mod tests {
    use super::drift;

    #[test]
    fn drift_is_relative_to_a_nonzero_baseline() {
        assert!((drift(2.0, 2.2) - 0.1).abs() < 1e-12);
        assert_eq!(drift(2.0, 1.0), -0.5);
        assert_eq!(drift(2.0, 2.0), 0.0);
    }

    #[test]
    fn any_increase_over_a_zero_baseline_regresses() {
        let tolerance = 0.10;
        assert_eq!(drift(0.0, 0.0), 0.0);
        // Lower-is-better metric (switches per sample) creeping up from 0.
        assert!(drift(0.0, 1e-6) > tolerance);
        // Higher-is-better metric falling to or below a zero baseline.
        assert!(-drift(0.0, -1e-6) > tolerance);
        assert!(-drift(0.0, 1e-6) <= tolerance);
    }
}
