//! `meta-fanout-1k`: 1,024 `MetaClient` handles, each with its own
//! shard-map cache, locate and fetch samples through the sharded
//! `MetaService` on 8 storage nodes. 32 closed-loop driver tasks, one per
//! client node, serve 32 clients each round-robin over fabric RPC (the
//! Fig. 10 / fig09 1,024-client shape), over IMDB-like small samples.
//!
//! A lookup whose owner also stores the sample returns the payload in the
//! same reply; otherwise the driver fetches it from the storage node
//! named in the entry. The program models payloads as byte counts on this
//! path, so the check compares every returned entry with the directory
//! the mount built and every payload length with the sample's size.

use std::sync::Arc;
use std::time::Instant;

use blocksim::{DeviceConfig, NvmeDevice, NvmeTarget};
use dlfs::{
    Deployment, DlfsConfig, DlfsCosts, MetaService, MetaShardConfig, MountBuilder, MountOptions,
    SampleSource, SyntheticSource,
};
use fabric::rpc::{serve, WireSize};
use fabric::{Cluster, FabricConfig};
use simkit::rng::SplitMix64;
use simkit::runtime::Runtime;
use simkit::telemetry::Registry;
use simkit::time::Dur;

use dlio::SizeDist;

use crate::common::{counter, max_p99, mean_us, pct, sizes, Checker, Size, Window};
use crate::trace::{At, Tracer};

const NODES: usize = 8;
const DRIVERS: usize = 32;
/// Storage-side cost of serving one payload fetch (seek + post).
const FETCH_WORK: Dur = Dur::micros(8);

/// Payload fetch: the request carries the byte count to read back.
struct DataReq(u64);
struct DataResp(u64);

impl WireSize for DataReq {
    fn wire_bytes(&self) -> u64 {
        16
    }
}

impl WireSize for DataResp {
    fn wire_bytes(&self) -> u64 {
        16 + self.0
    }
}

struct DriverOut {
    lat: Vec<u64>,
    lookup_lat: Vec<u64>,
    piggy: u64,
    chk: Checker,
}

/// IMDB-like sample sizes; names depend on the seed, so hash placement
/// and shard layout do.
fn source(seed: u64, size: Size) -> SyntheticSource {
    let count = size.pick(16_384usize, 2_048);
    SyntheticSource::new(seed, sizes(&SizeDist::imdb(), count, seed))
        .with_prefix(&format!("train/s{:04x}/sample", seed & 0xffff))
}

pub fn run(seed: u64, size: Size, tr: Tracer) -> Window {
    let clients = 1_024usize;
    let rounds = size.pick(24usize, 1);
    Runtime::simulate(seed, |rt| {
        let t_setup = Instant::now();
        let source = source(seed, size);
        let count = source.count();
        let total: u64 = (0..count as u32).map(|i| source.size(i)).sum();
        let share = total / NODES as u64;
        let devices: Vec<Arc<dyn NvmeTarget>> = (0..NODES)
            .map(|_| {
                NvmeDevice::new(DeviceConfig::emulated_ramdisk(
                    (share * 2 + (64 << 20)).next_multiple_of(1 << 20),
                    Dur::micros(10),
                )) as Arc<dyn NvmeTarget>
            })
            .collect();
        let vt_mount0 = rt.now();
        let host_mount0 = Instant::now();
        let fs = tr.span(rt, "dlfs.mount.mount", 0, At::Free, |_| {
            MountBuilder::new(DlfsConfig::default())
                .deployment(Deployment {
                    targets: vec![devices],
                    cluster: None,
                })
                .options(MountOptions::default())
                .mount(rt, &source)
                .expect("mount onto devices sized for the dataset")
        });
        let cluster = Arc::new(Cluster::new(NODES + DRIVERS, FabricConfig::default()));
        let svc = tr.span(rt, "dlfs.metashard.deploy", 0, At::Free, |_| {
            MetaService::deploy(
                rt,
                cluster.clone(),
                fs.dir.clone(),
                DlfsCosts::default(),
                MetaShardConfig {
                    shards: NODES,
                    ..MetaShardConfig::default()
                },
            )
            .expect("shard the mounted directory")
        });
        let vt_mount = (rt.now() - vt_mount0).as_nanos();
        let mount_host_s = host_mount0.elapsed().as_secs_f64();
        let data: Vec<_> = (0..NODES)
            .map(|n| {
                serve(
                    rt,
                    cluster.clone(),
                    n,
                    &format!("data{n}"),
                    |rt: &Runtime, _from, req: DataReq| {
                        rt.work(FETCH_WORK);
                        DataResp(req.0)
                    },
                )
            })
            .collect();
        let reg = Registry::new();
        let router_scope = reg.scoped("dlfs.metashard");
        let mut handles: Vec<Vec<(usize, dlfs::MetaClient)>> = vec![Vec::new(); DRIVERS];
        for c in 0..clients {
            let client = svc.client();
            client.router().attach_telemetry(&router_scope);
            handles[c % DRIVERS].push((c, client));
        }
        let names: Arc<Vec<String>> = Arc::new((0..count as u32).map(|i| source.name(i)).collect());
        let sizes: Arc<Vec<u64>> = Arc::new((0..count as u32).map(|i| source.size(i)).collect());
        let setup_s = t_setup.elapsed().as_secs_f64();

        // ---- timed region: 32 closed-loop drivers ----
        let host0 = Instant::now();
        let vt0 = rt.now();
        let mut joins = Vec::with_capacity(DRIVERS);
        for (d, mine) in handles.into_iter().enumerate() {
            let (tr, data, dir) = (tr.clone(), data.clone(), fs.dir.clone());
            let (names, sizes) = (names.clone(), sizes.clone());
            let from = NODES + d;
            let lane = d as u32;
            joins.push(rt.spawn_with(&format!("drv{d}"), move |rt| {
                let mut out = DriverOut {
                    lat: Vec::new(),
                    lookup_lat: Vec::new(),
                    piggy: 0,
                    chk: Checker::new(),
                };
                let mut rngs: Vec<SplitMix64> = mine
                    .iter()
                    .map(|(c, _)| SplitMix64::derive(seed ^ 0x3A17, *c as u64))
                    .collect();
                let start = rt.now();
                for round in 0..rounds {
                    for ((c, client), rng) in mine.iter().zip(rngs.iter_mut()) {
                        let id = rng.below(count as u64) as u32;
                        let req = (*c as u64) << 32 | round as u64;
                        let chk = &mut out.chk;
                        chk.attempted += 1;
                        let t = rt.now();
                        let hit = tr.span(rt, "dlfs.metashard.lookup", req, At::Lane(lane), |_| {
                            client.lookup(rt, from, &names[id as usize], true)
                        });
                        out.lookup_lat.push((rt.now() - t).as_nanos());
                        let hit = match hit {
                            Ok(Some(h)) => h,
                            Ok(None) => {
                                chk.fail(format!("lookup of sample {id} missed"));
                                continue;
                            }
                            Err(e) => {
                                chk.fail(format!("lookup of sample {id}: {e}"));
                                continue;
                            }
                        };
                        let want = dir.entry(id);
                        chk.fold.word(id as u64);
                        chk.fold.word(hit.entry.raw().0);
                        chk.fold.word(hit.entry.raw().1);
                        chk.fold.word(hit.piggyback);
                        if hit.id != id || hit.entry.raw() != want.raw() {
                            chk.fail(format!("lookup of sample {id} returned id {}", hit.id));
                            continue;
                        }
                        let len = if hit.piggyback == 0 {
                            let nid = hit.entry.nid() as usize;
                            tr.span(rt, "fabric.rpc.fetch", req, At::Lane(lane), |_| {
                                data[nid].call(rt, from, DataReq(hit.entry.len())).0
                            })
                        } else {
                            out.piggy += 1;
                            hit.piggyback
                        };
                        if len != sizes[id as usize] {
                            chk.fail(format!(
                                "sample {id}: {len} payload bytes, want {}",
                                sizes[id as usize]
                            ));
                            continue;
                        }
                        out.lat.push((rt.now() - t).as_nanos());
                    }
                }
                tr.lane_region(lane, start.0, rt.now().0);
                out
            }));
        }
        let mut outs: Vec<DriverOut> = joins.into_iter().map(|j| j.join()).collect();
        let vt1 = rt.now();
        let region_host_s = host0.elapsed().as_secs_f64();

        let mut chk = Checker::new();
        let (mut lat, mut lookup_lat, mut piggy) = (Vec::new(), Vec::new(), 0u64);
        for o in &mut outs {
            chk.attempted += o.chk.attempted;
            chk.failed += o.chk.failed;
            chk.errors.append(&mut o.chk.errors);
            chk.fold.word(o.chk.fold.0);
            lat.append(&mut o.lat);
            lookup_lat.append(&mut o.lookup_lat);
            piggy += o.piggy;
        }
        let ops = lat.len() as u64;
        let mut sorted = lat.clone();
        sorted.sort_unstable();
        let vt = vec![
            ("vt_sps", ops as f64 / (vt1 - vt0).as_secs_f64()),
            ("vt_p50_us", pct(&sorted, 50) as f64 / 1e3),
            ("vt_p99_us", pct(&sorted, 99) as f64 / 1e3),
            ("vt_mount_ms", vt_mount as f64 / 1e6),
        ];
        let snap = reg.snapshot();
        let fabric = cluster.registry().snapshot();
        let mut layers = crate::layers::spans(&tr);
        let mut put = |k: &'static str, v: Option<f64>| {
            layers.insert(k, v);
        };
        put("dlfs.metashard.lookup_vt_us", Some(mean_us(&lookup_lat)));
        if tr.is_on() {
            let (n, ns) = tr.shared_host_ns("dlfs.metashard.lookup");
            put(
                "dlfs.metashard.lookup_host_us",
                Some(ns as f64 / n.max(1) as f64 / 1e3),
            );
        }
        put(
            "dlfs.metashard.piggyback_frac",
            Some(piggy as f64 / ops.max(1) as f64),
        );
        put(
            "dlfs.metashard.map_refreshes",
            counter(&snap, "dlfs.metashard.map_refreshes").map(|v| v as f64),
        );
        put(
            "fabric.rpc.latency_p99_us",
            max_p99(&fabric, "fabric.rpc.", ".latency_ns").map(|ns| ns as f64 / 1e3),
        );
        crate::layers::fabric_counters(&fabric, ops, &mut put);
        put("dlfs.mount.vt_ms", Some(vt_mount as f64 / 1e6));
        put("dlfs.mount.host_s", Some(mount_host_s));
        Window {
            vt,
            setup_s,
            region_host_s,
            ops,
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
