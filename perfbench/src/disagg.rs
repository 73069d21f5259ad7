//! `disagg-large-verified`: one reader node and four remote NVMe-oF
//! targets over the fabric (the Fig. 11 pool), ImageNet-like samples,
//! every block checksum-verified, two replicas, batched zero-copy
//! delivery and automatic batching (which resolves to sample-level for
//! these sizes). The dataset is far larger than the epoch-scoped cache,
//! so nothing is reused across batches. Set-up imports the dataset onto
//! the pool and then mounts it warm across the fabric.

use std::sync::Arc;
use std::time::Instant;

use blocksim::{DeviceConfig, NvmeDevice, NvmeTarget};
use dlfs::{
    BatchMode, Deployment, DlfsConfig, DlfsError, MountBuilder, MountOptions, ReadRequest,
    SampleSource, SyntheticSource,
};
use dlio::SizeDist;
use fabric::{Cluster, FabricConfig, NvmeOfTarget, TargetConfig};
use simkit::runtime::Runtime;
use simkit::telemetry::Registry;
use simkit::time::Dur;

use crate::common::{mean_us, pct, sizes, Checker, Size, Window};
use crate::trace::{At, Tracer};

const TARGETS: usize = 4;
const READER_NODE: usize = TARGETS;
/// Chunk size under which `BatchMode::Auto` picks sample-level batching
/// for ImageNet-like sizes (mean about 115 KB is more than half a chunk).
const CHUNK: u64 = 128 << 10;
const LANE: u32 = 0;

fn source(seed: u64, size: Size) -> SyntheticSource {
    let n = size.pick(640, 96);
    SyntheticSource::new(seed, sizes(&SizeDist::imagenet(), n, seed)).with_prefix("imagenet/img")
}

pub fn run(seed: u64, size: Size, tr: Tracer) -> Window {
    let epochs = size.pick(14u64, 2);
    let batch = 4usize;
    Runtime::simulate(seed, |rt| {
        let t_setup = Instant::now();
        let source = source(seed, size);
        let n = source.count();
        let total: u64 = (0..n as u32).map(|i| source.size(i)).sum();
        // Two replicas: each node holds its home share plus a replica slot.
        let per_node = (total / TARGETS as u64) * 2 + (64 << 20);
        let devices: Vec<Arc<NvmeDevice>> = (0..TARGETS)
            .map(|_| {
                NvmeDevice::new(DeviceConfig::emulated_ramdisk(
                    (per_node + per_node / 4).next_multiple_of(1 << 20),
                    Dur::micros(10),
                ))
            })
            .collect();
        let cfg = DlfsConfig {
            chunk_size: CHUNK,
            verify_reads: true,
            replicas: 2,
            ..DlfsConfig::default()
        };
        let reg = Registry::new();
        let options = MountOptions {
            telemetry: Some(reg.clone()),
            ..MountOptions::default()
        };
        // The dataset is imported onto the pool once, then the job mounts
        // it warm across the fabric, so the cluster's transfer histogram
        // holds the job's traffic only.
        let vt_mount0 = rt.now();
        let host_mount0 = Instant::now();
        let local: Vec<Arc<dyn NvmeTarget>> = devices
            .iter()
            .map(|d| d.clone() as Arc<dyn NvmeTarget>)
            .collect();
        tr.span(rt, "dlfs.mount.import", 0, At::Free, |_| {
            MountBuilder::new(cfg.clone())
                .deployment(Deployment {
                    targets: vec![local],
                    cluster: None,
                })
                .options(options.clone())
                .persistent()
                .mount(rt, &source)
                .expect("import onto devices sized for the dataset")
        });
        let cluster = Arc::new(Cluster::new(TARGETS + 1, FabricConfig::default()));
        let row: Vec<Arc<dyn NvmeTarget>> = devices
            .iter()
            .enumerate()
            .map(|(node, d)| {
                fabric::connect(
                    cluster.clone(),
                    READER_NODE,
                    NvmeOfTarget::new(node, d.clone(), TargetConfig::default()),
                ) as Arc<dyn NvmeTarget>
            })
            .collect();
        let fs = tr.span(rt, "dlfs.mount.remount", 0, At::Free, |_| {
            MountBuilder::new(cfg.clone())
                .deployment(Deployment {
                    targets: vec![row],
                    cluster: Some(cluster.clone()),
                })
                .options(options)
                .warm()
                .remount(rt)
                .expect("warm remount of the imported pool")
        });
        let vt_mount = (rt.now() - vt_mount0).as_nanos();
        let mount_host_s = host_mount0.elapsed().as_secs_f64();
        let setup_s = t_setup.elapsed().as_secs_f64();
        assert_eq!(
            cfg.effective_mode(fs.dir.avg_sample_bytes()),
            BatchMode::SampleLevel,
            "automatic batching must resolve to sample-level for this dataset"
        );

        // ---- timed region: one reader's closed loop of batch submits ----
        let mut chk = Checker::new();
        let mut io = fs.io_with_registry(0, &reg);
        let (mut lat, mut delivered, mut bytes) = (Vec::new(), 0u64, 0u64);
        let req = ReadRequest::batch(batch).zero_copy();
        let host0 = Instant::now();
        let vt0 = rt.now();
        let mut req_no = 0u64;
        for epoch in 0..epochs {
            let total = tr.span(rt, "dlfs.io.sequence", epoch, At::Lane(LANE), |_| {
                io.sequence(rt, seed, epoch)
            });
            let mut seen = vec![false; n];
            chk.attempted += total as u64;
            let mut got = 0usize;
            while got < total {
                req_no += 1;
                let t = rt.now();
                let out = tr.span(rt, "dlfs.io.submit", req_no, At::Lane(LANE), |_| {
                    io.submit(rt, &req)
                });
                let samples = match out {
                    Ok(c) if !c.is_empty() => c.into_zero_copy(),
                    Ok(_) | Err(DlfsError::EpochExhausted) => break,
                    Err(e) => {
                        chk.fail(format!("submit: {e}"));
                        break;
                    }
                };
                lat.push((rt.now() - t).as_nanos());
                got += samples.len();
                for s in samples {
                    let fresh =
                        (s.id as usize) < n && !std::mem::replace(&mut seen[s.id as usize], true);
                    if !fresh {
                        chk.fail(format!("sample {} delivered twice in epoch {epoch}", s.id));
                        continue;
                    }
                    chk.sample(
                        s.id,
                        source.size(s.id),
                        |buf| source.fill(s.id, buf),
                        |f| s.for_each_segment(f),
                    );
                    delivered += 1;
                    bytes += s.len() as u64;
                }
            }
            let missing = seen.iter().filter(|s| !**s).count() as u64;
            if missing > 0 {
                chk.failed += missing;
                chk.errors
                    .push(format!("epoch {epoch}: {missing} samples never delivered"));
            }
        }
        let vt1 = rt.now();
        let region_host_s = (host0.elapsed() - chk.host).as_secs_f64();
        tr.lane_region(LANE, vt0.0, vt1.0);
        let snap = reg.snapshot();
        let fabric = cluster.registry().snapshot();

        let mut sorted = lat.clone();
        sorted.sort_unstable();
        let vt = vec![
            ("vt_sps", delivered as f64 / (vt1 - vt0).as_secs_f64()),
            ("vt_p50_us", pct(&sorted, 50) as f64 / 1e3),
            ("vt_p99_us", pct(&sorted, 99) as f64 / 1e3),
            ("vt_mount_ms", vt_mount as f64 / 1e6),
        ];
        let mut layers = crate::layers::spans(&tr);
        let mut put = |k: &'static str, v: Option<f64>| {
            layers.insert(k, v);
        };
        put("dlfs.io.submit_vt_us", Some(mean_us(&lat)));
        put("dlfs.mount.vt_ms", Some(vt_mount as f64 / 1e6));
        put("dlfs.mount.host_s", Some(mount_host_s));
        crate::layers::io_counters(&snap, delivered, bytes, &mut put);
        crate::layers::fabric_counters(&fabric, delivered, &mut put);
        Window {
            vt,
            setup_s,
            region_host_s,
            ops: delivered,
            requests: sorted.len(),
            attempted: chk.attempted,
            failed: chk.failed,
            fingerprint: chk.fold.0,
            layers,
            errors: chk.errors,
            tracer: tr,
        }
    })
    .0
}

/// The workload's own sample bytes, for the kernel replay.
pub fn corpus(seed: u64, size: Size, budget: usize) -> Vec<u8> {
    crate::kernels::corpus(&source(seed, size), budget)
}
