//! Reactor-equivalence suite: the event-driven submission/completion
//! reactor must be observably identical to the pre-reactor engine under
//! the default configuration — same delivery order, same payloads, same
//! virtual-time stamps, same telemetry renders, byte for byte.
//!
//! The golden fixtures under `tests/golden/` were generated from the
//! pre-reactor four-stage engine, and the `sync_*`/`offload_*` ones from
//! the engine whose synchronous reads still ran their own fetch loop
//! (`DLFS_UPDATE_GOLDEN=1 cargo test -p dlfs --test reactor` regenerates
//! them). Every scenario folds its delivery trace into a text report and
//! appends the full telemetry snapshot render; the test asserts byte
//! equality against the fixture.

use std::sync::Arc;

use blocksim::{DeviceConfig, FaultInjector, NvmeDevice, NvmeTarget};
use dlfs::{
    CacheMode, CodecKind, CompressibleSource, Deployment, DlfsConfig, DlfsError, DlfsInstance,
    MountBuilder, ReadRequest, SyntheticSource,
};
use fabric::{Cluster, FabricConfig, FabricFaultInjector, NvmeOfTarget, TargetConfig};
use simkit::prelude::*;
use simkit::rng::fnv1a;

fn local_device() -> Arc<NvmeDevice> {
    NvmeDevice::new(DeviceConfig::optane(256 << 20))
}

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compare `text` against the named fixture; with `DLFS_UPDATE_GOLDEN=1`
/// (re)write it instead.
fn check_golden(name: &str, text: &str) {
    let path = golden_path(name);
    if std::env::var("DLFS_UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, text).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("fixture {name} missing; run with DLFS_UPDATE_GOLDEN=1"));
    assert_eq!(
        text, want,
        "reactor output diverged from the pre-reactor golden {name}"
    );
}

/// Hash of the delivered ids in delivery order.
fn ids_hash(ids: &[u32]) -> u64 {
    let mut h = 0u64;
    for &id in ids {
        h = h.wrapping_mul(0x100000001b3).wrapping_add(id as u64 + 1);
    }
    h
}

/// Drain the current epoch with copied delivery, folding every batch into
/// a report line: virtual timestamp, batch size, id hash, payload hash.
fn drain_copied_report(
    rt: &Runtime,
    io: &mut dlfs::DlfsIo,
    source: &SyntheticSource,
    batch: usize,
    report: &mut String,
) {
    let mut i = 0usize;
    loop {
        match io.submit(rt, &ReadRequest::batch(batch)) {
            Ok(got) => {
                let got = got.into_copied();
                let ids: Vec<u32> = got.iter().map(|(id, _)| *id).collect();
                let mut payload = 0u64;
                for (id, data) in &got {
                    assert_eq!(data, &source.expected(*id), "payload mismatch {id}");
                    payload = payload
                        .wrapping_mul(0x100000001b3)
                        .wrapping_add(fnv1a(data));
                }
                report.push_str(&format!(
                    "batch {i} t={} n={} ids={:016x} payload={:016x}\n",
                    rt.now().nanos(),
                    ids.len(),
                    ids_hash(&ids),
                    payload,
                ));
                i += 1;
            }
            Err(DlfsError::EpochExhausted) => break,
            Err(e) => panic!("epoch failed: {e}"),
        }
    }
}

/// Disaggregated deployment (full mesh over `n` nodes) for the fault
/// scenario; returns the cluster and raw devices so faults can be armed
/// after the mount.
fn disaggregated(
    rt: &Runtime,
    n: usize,
    source: &SyntheticSource,
    cfg: DlfsConfig,
) -> (DlfsInstance, Arc<Cluster>, Vec<Arc<NvmeDevice>>) {
    let cluster = Arc::new(Cluster::new(n, FabricConfig::default()));
    let devices: Vec<Arc<NvmeDevice>> = (0..n)
        .map(|_| NvmeDevice::new(DeviceConfig::emulated_ramdisk(128 << 20, Dur::micros(10))))
        .collect();
    let exported: Vec<Arc<NvmeOfTarget>> = devices
        .iter()
        .enumerate()
        .map(|(node, d)| NvmeOfTarget::new(node, d.clone(), TargetConfig::default()))
        .collect();
    let mut targets: Vec<Vec<Arc<dyn NvmeTarget>>> = Vec::new();
    for r in 0..n {
        let mut row: Vec<Arc<dyn NvmeTarget>> = Vec::new();
        for t in 0..n {
            if r == t {
                row.push(devices[t].clone());
            } else {
                row.push(fabric::connect(cluster.clone(), r, exported[t].clone()));
            }
        }
        targets.push(row);
    }
    let fs = MountBuilder::new(cfg)
        .deployment(Deployment {
            targets,
            cluster: Some(cluster.clone()),
        })
        .mount(rt, source)
        .unwrap();
    (fs, cluster, devices)
}

/// Default-config copied delivery: epoch report and telemetry snapshot
/// must be byte-identical to the pre-reactor engine.
#[test]
fn copied_default_matches_golden() {
    let (report, end) = Runtime::simulate(1, |rt| {
        let source = SyntheticSource::fixed(9, 1200, 2048);
        let fs = MountBuilder::new(DlfsConfig::default())
            .local(local_device())
            .mount(rt, &source)
            .unwrap();
        let mut io = fs.io(0);
        let mut report = String::new();
        for epoch in 0..2u64 {
            let total = io.sequence(rt, 77, epoch);
            report.push_str(&format!("epoch {epoch} total={total}\n"));
            drain_copied_report(rt, &mut io, &source, 48, &mut report);
        }
        report.push_str("--- telemetry ---\n");
        report.push_str(&io.metrics().render());
        report
    });
    let text = format!("{report}end t={}\n", end.nanos());
    check_golden("reactor_copied.txt", &text);
}

/// Default-config zero-copy delivery: same equivalence, plus payloads
/// verified through the pinned-chunk segments.
#[test]
fn zero_copy_default_matches_golden() {
    let (report, end) = Runtime::simulate(2, |rt| {
        let source = SyntheticSource::fixed(5, 900, 3000);
        let fs = MountBuilder::new(DlfsConfig::default())
            .local(local_device())
            .mount(rt, &source)
            .unwrap();
        let mut io = fs.io(0);
        let total = io.sequence(rt, 13, 0);
        let mut report = format!("epoch 0 total={total}\n");
        let mut i = 0usize;
        loop {
            match io.submit(rt, &ReadRequest::batch(40).zero_copy()) {
                Ok(got) => {
                    let samples = got.into_zero_copy();
                    let ids: Vec<u32> = samples.iter().map(|s| s.id).collect();
                    let mut payload = 0u64;
                    for s in &samples {
                        assert_eq!(s.fnv1a(), fnv1a(&source.expected(s.id)));
                        payload = payload.wrapping_mul(0x100000001b3).wrapping_add(s.fnv1a());
                    }
                    report.push_str(&format!(
                        "batch {i} t={} n={} ids={:016x} payload={:016x}\n",
                        rt.now().nanos(),
                        ids.len(),
                        ids_hash(&ids),
                        payload,
                    ));
                    i += 1;
                }
                Err(DlfsError::EpochExhausted) => break,
                Err(e) => panic!("epoch failed: {e}"),
            }
        }
        report.push_str("--- telemetry ---\n");
        report.push_str(&io.metrics().render());
        report
    });
    let text = format!("{report}end t={}\n", end.nanos());
    check_golden("reactor_zero_copy.txt", &text);
}

/// Cross-epoch cache + plan-aware prefetch (the PR 3 paths): warm epochs
/// must hit the cache identically through the reactor.
#[test]
fn cross_epoch_warm_matches_golden() {
    let (report, end) = Runtime::simulate(3, |rt| {
        let source = SyntheticSource::fixed(7, 600, 2048);
        let cfg = DlfsConfig {
            cache_mode: CacheMode::CrossEpoch,
            prefetch_window: 4,
            ..DlfsConfig::default()
        };
        let fs = MountBuilder::new(cfg)
            .local(local_device())
            .mount(rt, &source)
            .unwrap();
        let mut io = fs.io(0);
        let mut report = String::new();
        for epoch in 0..3u64 {
            let total = io.sequence(rt, 21, epoch);
            report.push_str(&format!("epoch {epoch} total={total}\n"));
            drain_copied_report(rt, &mut io, &source, 48, &mut report);
            report.push_str(&format!("epoch {epoch} done t={}\n", rt.now().nanos()));
        }
        report.push_str("--- telemetry ---\n");
        report.push_str(&io.metrics().render());
        report
    });
    let text = format!("{report}end t={}\n", end.nanos());
    check_golden("reactor_cross_epoch.txt", &text);
}

/// Chaos replay under the event loop: media errors and fabric drops force
/// retries and timeouts through the reactor's completion path; the trace
/// must stay byte-identical to the pre-reactor engine (and every payload
/// byte-correct).
#[test]
fn faulted_retry_matches_golden() {
    let (report, end) = Runtime::simulate(4, |rt| {
        let source = SyntheticSource::fixed(4, 800, 2048);
        let cfg = DlfsConfig {
            chunk_size: 8 * 1024,
            ..DlfsConfig::default()
        };
        let (fs, cluster, devices) = disaggregated(rt, 2, &source, cfg);
        devices[0].set_faults(FaultInjector::new(5).with_read_failures(100_000));
        cluster.set_faults(
            FabricFaultInjector::new(9)
                .with_drops(60_000)
                .with_io_timeout(Dur::micros(40)),
        );
        let mut io = fs.io(0);
        let total = io.sequence(rt, 11, 0);
        let mut report = format!("epoch 0 total={total}\n");
        drain_copied_report(rt, &mut io, &source, 32, &mut report);
        let m = io.metrics();
        assert!(m.counter("dlfs.io.retries") > 0, "no retries exercised");
        assert!(m.counter("dlfs.io.timeouts") > 0, "no timeouts exercised");
        report.push_str("--- telemetry ---\n");
        report.push_str(&m.render());
        report
    });
    let text = format!("{report}end t={}\n", end.nanos());
    check_golden("reactor_faulted.txt", &text);
}

/// Same-seed chaos runs through the reactor must be bit-identical to each
/// other (determinism is what makes the goldens meaningful at all).
#[test]
fn faulted_replay_is_deterministic() {
    let run = || {
        Runtime::simulate(4, |rt| {
            let source = SyntheticSource::fixed(4, 800, 2048);
            let cfg = DlfsConfig {
                chunk_size: 8 * 1024,
                ..DlfsConfig::default()
            };
            let (fs, cluster, devices) = disaggregated(rt, 2, &source, cfg);
            devices[0].set_faults(FaultInjector::new(5).with_read_failures(100_000));
            cluster.set_faults(
                FabricFaultInjector::new(9)
                    .with_drops(60_000)
                    .with_io_timeout(Dur::micros(40)),
            );
            let mut io = fs.io(0);
            let total = io.sequence(rt, 11, 0);
            let mut report = format!("epoch 0 total={total}\n");
            drain_copied_report(rt, &mut io, &source, 32, &mut report);
            report
        })
    };
    let (a, ta) = run();
    let (b, tb) = run();
    assert_eq!(a, b, "chaos replay diverged");
    assert_eq!(ta, tb);
}

// ------------------------------------------------------- steady-state --

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts heap allocations per thread so a test can assert a region is
/// allocation-free. Lives in this test binary only (the library itself
/// forbids unsafe code).
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(p, l, n) }
    }
}

#[global_allocator]
static COUNTING_ALLOC: CountingAlloc = CountingAlloc;

fn my_allocs() -> u64 {
    ALLOCS.with(|c| c.get())
}

/// The steady-state warm read path is zero-copy end to end: once a chunk
/// is resident, `read_zero_copy` performs no memcpy (the cache's `copy_ops`
/// is flat) and no heap allocation on the reading thread — the segment
/// list stays inline and the cache pin is embedded in the sample.
#[test]
fn warm_zero_copy_reads_are_copy_and_alloc_free() {
    Runtime::simulate(6, |rt| {
        let source = SyntheticSource::fixed(3, 400, 2048);
        let cfg = DlfsConfig {
            cache_mode: CacheMode::CrossEpoch,
            ..DlfsConfig::default()
        };
        let fs = MountBuilder::new(cfg)
            .local(local_device())
            .mount(rt, &source)
            .unwrap();
        let mut io = fs.io(0);

        // Cold read faults the covering chunk in (this one may copy for
        // the device DMA and allocate for the fetch).
        let ids: Vec<u32> = (0..32).collect();
        let expect: Vec<u64> = ids.iter().map(|&id| fnv1a(&source.expected(id))).collect();
        let cold = io.read_zero_copy(rt, ids[0]).unwrap();
        assert_eq!(cold.fnv1a(), expect[0]);
        drop(cold);

        // Warm-up laps: let every lazily-grown structure (scheduler heap,
        // qpair maps, TLS) reach steady state.
        for lap in 0..4 {
            for (i, &id) in ids.iter().enumerate() {
                let s = io.read_zero_copy(rt, id).unwrap();
                assert_eq!(s.fnv1a(), expect[i], "lap {lap} sample {id}");
            }
        }

        // Measured laps: flat memcpy counter, zero allocations.
        let hits0 = io.metrics().counter("dlfs.io.cache.hits");
        let copies0 = io.shared().cache.copy_ops();
        let allocs0 = my_allocs();
        let mut sum = 0u64;
        for &id in &ids {
            let s = io.read_zero_copy(rt, id).unwrap();
            sum = sum.wrapping_add(s.fnv1a());
        }
        let copied = io.shared().cache.copy_ops() - copies0;
        let allocated = my_allocs() - allocs0;
        let hits = io.metrics().counter("dlfs.io.cache.hits") - hits0;
        assert_eq!(hits, ids.len() as u64, "every measured read must be warm");
        assert_eq!(copied, 0, "warm zero-copy reads must not memcpy");
        assert_eq!(allocated, 0, "warm zero-copy reads must not allocate");
        let want: u64 = expect.iter().fold(0u64, |a, &h| a.wrapping_add(h));
        assert_eq!(sum, want, "payloads stay byte-correct");
    });
}

/// Reactor activity counters surface in the registry when (and only when)
/// `reactor_stats` is set: wakeups and doorbell flushes per epoch become
/// observable without disturbing default telemetry renders.
#[test]
fn reactor_stats_expose_wakeups_and_doorbells() {
    // Default config: the reactor counters must stay out of the render so
    // existing reports remain byte-stable.
    let (render, _) = Runtime::simulate(7, |rt| {
        let source = SyntheticSource::fixed(2, 300, 2048);
        let fs = MountBuilder::new(DlfsConfig::default())
            .local(local_device())
            .mount(rt, &source)
            .unwrap();
        let mut io = fs.io(0);
        io.sequence(rt, 5, 0);
        while io.submit(rt, &ReadRequest::batch(32)).is_ok() {}
        io.metrics().render()
    });
    assert!(
        !render.contains("dlfs.reactor."),
        "reactor counters must be hidden by default:\n{render}"
    );

    // Opt-in: wakeups, doorbells and parked time are published.
    let (wakeups, doorbells) = Runtime::simulate(7, |rt| {
        let source = SyntheticSource::fixed(2, 300, 2048);
        let cfg = DlfsConfig {
            reactor_stats: true,
            ..DlfsConfig::default()
        };
        let fs = MountBuilder::new(cfg)
            .local(local_device())
            .mount(rt, &source)
            .unwrap();
        let mut io = fs.io(0);
        io.sequence(rt, 5, 0);
        while io.submit(rt, &ReadRequest::batch(32)).is_ok() {}
        let m = io.metrics();
        (
            m.counter("dlfs.reactor.wakeups"),
            m.counter("dlfs.reactor.doorbells"),
        )
    })
    .0;
    assert!(wakeups > 0, "an epoch must record reactor wakeups");
    assert!(doorbells > 0, "an epoch must record doorbell flushes");
}

// ------------------------------------------------------ sync + offload --

/// Fold one synchronous read into the report: its start instant, the
/// virtual time it took, and a hash of the delivered bytes.
fn sync_line(report: &mut String, tag: &str, id: u32, t0: Time, t1: Time, payload: u64) {
    report.push_str(&format!(
        "{tag} id={id} t={} dt={} payload={payload:016x}\n",
        t0.nanos(),
        (t1 - t0).as_nanos(),
    ));
}

/// Copied `read_by_id` over `ids`, each payload checked against `expected`.
fn sync_copied_report(
    rt: &Runtime,
    io: &mut dlfs::DlfsIo,
    ids: &[u32],
    expected: &dyn Fn(u32) -> Vec<u8>,
    tag: &str,
    report: &mut String,
) {
    for &id in ids {
        let t0 = rt.now();
        let data = io.read_by_id(rt, id).unwrap();
        assert_eq!(data, expected(id), "payload mismatch {id}");
        sync_line(report, tag, id, t0, rt.now(), fnv1a(&data));
    }
}

/// A scrambled walk over `0..count` (coprime stride), `n` reads long.
fn scrambled(count: u32, n: u32) -> Vec<u32> {
    (0..n).map(|i| (i * 37 + 11) % count).collect()
}

/// Synchronous copied reads under the default epoch-scoped cache: the
/// DLFS-Base path of Fig. 6, single-part and multi-part (samples larger
/// than a chunk) ranges.
#[test]
fn sync_epoch_scoped_matches_golden() {
    let (report, end) = Runtime::simulate(8, |rt| {
        let mut report = String::new();
        let source = SyntheticSource::fixed(12, 600, 3000);
        let fs = MountBuilder::new(DlfsConfig::default())
            .local(local_device())
            .mount(rt, &source)
            .unwrap();
        let mut io = fs.io(0);
        sync_copied_report(
            rt,
            &mut io,
            &scrambled(600, 160),
            &|id| source.expected(id),
            "read",
            &mut report,
        );
        report.push_str("--- telemetry ---\n");
        report.push_str(&io.metrics().render());
        // Samples spanning three 8 KB chunks: one read, several parts.
        let big = SyntheticSource::fixed(13, 40, 20_000);
        let cfg = DlfsConfig {
            chunk_size: 8 * 1024,
            ..DlfsConfig::default()
        };
        let fs = MountBuilder::new(cfg)
            .local(local_device())
            .mount(rt, &big)
            .unwrap();
        let mut io = fs.io(0);
        sync_copied_report(
            rt,
            &mut io,
            &scrambled(40, 40),
            &|id| big.expected(id),
            "multipart",
            &mut report,
        );
        report.push_str("--- telemetry ---\n");
        report.push_str(&io.metrics().render());
        report
    });
    let text = format!("{report}end t={}\n", end.nanos());
    check_golden("sync_epoch_scoped.txt", &text);
}

/// Synchronous copied reads under the cross-epoch cache with LZ-coded
/// frames: cold misses fetch and decode whole frames, later reads of the
/// same frame hit the parked range.
#[test]
fn sync_cross_epoch_lz_matches_golden() {
    let (report, end) = Runtime::simulate(9, |rt| {
        let mut report = String::new();
        let source = CompressibleSource::fixed(31, 400, 2600, 48);
        let cfg = DlfsConfig {
            chunk_size: 8 * 1024,
            cache_mode: CacheMode::CrossEpoch,
            codec: CodecKind::Lz,
            ..DlfsConfig::default()
        };
        let fs = MountBuilder::new(cfg)
            .local(local_device())
            .mount(rt, &source)
            .unwrap();
        let mut io = fs.io(0);
        for pass in 0..2 {
            sync_copied_report(
                rt,
                &mut io,
                &scrambled(400, 120),
                &|id| source.expected(id),
                &format!("pass{pass}"),
                &mut report,
            );
        }
        report.push_str("--- telemetry ---\n");
        report.push_str(&io.metrics().render());
        report
    });
    let text = format!("{report}end t={}\n", end.nanos());
    check_golden("sync_cross_epoch_lz.txt", &text);
}

/// Synchronous zero-copy reads: cold misses (epoch-scoped and
/// cross-epoch), then a warm pass that pins parked ranges. Samples tile
/// the chunks exactly, so none straddles a chunk boundary.
#[test]
fn sync_zero_copy_matches_golden() {
    let (report, end) = Runtime::simulate(10, |rt| {
        let mut report = String::new();
        let source = SyntheticSource::fixed(14, 500, 4096);
        for mode in [CacheMode::EpochScoped, CacheMode::CrossEpoch] {
            let cfg = DlfsConfig {
                cache_mode: mode,
                ..DlfsConfig::default()
            };
            let fs = MountBuilder::new(cfg)
                .local(local_device())
                .mount(rt, &source)
                .unwrap();
            let mut io = fs.io(0);
            for pass in ["cold", "warm"] {
                for id in scrambled(500, 100) {
                    let t0 = rt.now();
                    let s = io.read_zero_copy(rt, id).unwrap();
                    assert_eq!(s.fnv1a(), fnv1a(&source.expected(id)), "payload {id}");
                    sync_line(&mut report, pass, id, t0, rt.now(), s.fnv1a());
                }
            }
            report.push_str(&format!("--- telemetry {mode:?} ---\n"));
            report.push_str(&io.metrics().render());
        }
        report
    });
    let text = format!("{report}end t={}\n", end.nanos());
    check_golden("sync_zero_copy.txt", &text);
}

/// Two replicas with verified reads, silent bit flips on the home
/// device: synchronous reads fail over to the replica, read-repair the
/// home extent, and still deliver the source bytes.
#[test]
fn sync_replicated_bit_flips_matches_golden() {
    let (report, end) = Runtime::simulate(11, |rt| {
        let mut report = String::new();
        let source = SyntheticSource::fixed(15, 600, 2048);
        let devices: Vec<Arc<NvmeDevice>> = (0..2)
            .map(|_| NvmeDevice::new(DeviceConfig::emulated_ramdisk(64 << 20, Dur::micros(10))))
            .collect();
        let cfg = DlfsConfig {
            chunk_size: 8 * 1024,
            replicas: 2,
            verify_reads: true,
            ..DlfsConfig::default()
        };
        let fs = MountBuilder::new(cfg)
            .deployment(Deployment {
                targets: vec![devices
                    .iter()
                    .map(|d| d.clone() as Arc<dyn NvmeTarget>)
                    .collect()],
                cluster: None,
            })
            .mount(rt, &source)
            .unwrap();
        devices[0].set_faults(FaultInjector::new(9).with_bit_flips(0, 96));
        let mut io = fs.io(0);
        for pass in 0..2 {
            sync_copied_report(
                rt,
                &mut io,
                &scrambled(600, 150),
                &|id| source.expected(id),
                &format!("pass{pass}"),
                &mut report,
            );
        }
        let m = io.metrics();
        assert!(m.counter("dlfs.integrity.failovers") > 0, "no failover");
        assert!(m.counter("dlfs.integrity.repairs") > 0, "no read-repair");
        report.push_str("--- telemetry ---\n");
        report.push_str(&m.render());
        report
    });
    let text = format!("{report}end t={}\n", end.nanos());
    check_golden("sync_replicated_flips.txt", &text);
}

/// Storage-side offload batches over LZ frames with two verified
/// replicas and bit flips on the home device: per-batch virtual time,
/// ids and payloads.
#[test]
fn offload_batch_matches_golden() {
    let (report, end) = Runtime::simulate(12, |rt| {
        let source = CompressibleSource::fixed(33, 400, 2048, 40);
        let devices: Vec<Arc<NvmeDevice>> = (0..2)
            .map(|_| NvmeDevice::new(DeviceConfig::emulated_ramdisk(64 << 20, Dur::micros(10))))
            .collect();
        let cfg = DlfsConfig {
            chunk_size: 8 * 1024,
            codec: CodecKind::Lz,
            offload: true,
            replicas: 2,
            verify_reads: true,
            ..DlfsConfig::default()
        };
        let fs = MountBuilder::new(cfg)
            .deployment(Deployment {
                targets: vec![devices
                    .iter()
                    .map(|d| d.clone() as Arc<dyn NvmeTarget>)
                    .collect()],
                cluster: None,
            })
            .mount(rt, &source)
            .unwrap();
        devices[0].set_faults(FaultInjector::new(23).with_bit_flips(0, 64));
        let mut io = fs.io(0);
        let total = io.sequence(rt, 7, 0);
        let mut report = format!("epoch 0 total={total}\n");
        let mut i = 0usize;
        loop {
            match io.submit(rt, &ReadRequest::batch(32).offload()) {
                Ok(got) => {
                    let got = got.into_copied();
                    let ids: Vec<u32> = got.iter().map(|(id, _)| *id).collect();
                    let mut payload = 0u64;
                    for (id, data) in &got {
                        assert_eq!(data, &source.expected(*id), "payload mismatch {id}");
                        payload = payload
                            .wrapping_mul(0x100000001b3)
                            .wrapping_add(fnv1a(data));
                    }
                    report.push_str(&format!(
                        "batch {i} t={} n={} ids={:016x} payload={:016x}\n",
                        rt.now().nanos(),
                        ids.len(),
                        ids_hash(&ids),
                        payload,
                    ));
                    i += 1;
                }
                Err(DlfsError::EpochExhausted) => break,
                Err(e) => panic!("epoch failed: {e}"),
            }
        }
        let m = io.metrics();
        assert!(m.counter("dlfs.integrity.repairs") > 0, "no read-repair");
        report.push_str("--- telemetry ---\n");
        report.push_str(&m.render());
        report
    });
    let text = format!("{report}end t={}\n", end.nanos());
    check_golden("offload_batch.txt", &text);
}
