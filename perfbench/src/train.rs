//! `train-small-local`: one training job reading IMDB-like, compressible
//! samples from a local Optane-class device.
//!
//! The dataset is imported persistently with the LZ codec. Each of two
//! epochs streams through a `dlio::InputPipeline` (batch 32) into one
//! `dnn::Mlp::train_step` per batch; a model checkpoint is appended every
//! few batches, and every epoch ends with a validation pass of
//! synchronous `read_by_id` reads over a fixed held-out set. The
//! cross-epoch cache pool holds about half of the training set; the
//! validation set fits in it.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use blocksim::{DeviceConfig, NvmeDevice};
use dlfs::{
    CacheMode, CodecKind, DlfsConfig, DlfsError, DlfsIo, MountBuilder, MountOptions, ReadRequest,
    SampleSource,
};
use dlio::{InputPipeline, PipelineCosts, ReaderBackend, Sample, SizeDist};
use dnn::{Matrix, Mlp};
use simkit::rng::fill_deterministic;
use simkit::runtime::Runtime;
use simkit::telemetry::Registry;

use crate::common::{counter, mean_us, pct, ratio, sizes, Checker, Size, Window};
use crate::trace::{At, Tracer};

const EPOCHS: u64 = 2;
const BATCH: usize = 32;
const PREFETCH: usize = 4;
const CKPT_EVERY: u64 = 16;
const CHUNK: u64 = 64 << 10;
const FEATURES: usize = 32;
const CLASSES: usize = 8;
/// Motif length of the compressible payloads.
const MOTIF: usize = 64;
/// The trainer's closed loop.
const LANE: u32 = 0;

/// IMDB-like samples (`SizeDist::imdb`, p75 = 1.6 KB) whose payloads
/// repeat a short per-sample motif, so the LZ codec finds matches.
pub struct ImdbText {
    sizes: Vec<u64>,
    seed: u64,
}

impl ImdbText {
    pub fn new(seed: u64, count: usize) -> ImdbText {
        ImdbText {
            sizes: sizes(&SizeDist::imdb(), count, seed),
            seed,
        }
    }
}

impl SampleSource for ImdbText {
    fn count(&self) -> usize {
        self.sizes.len()
    }

    fn name(&self, id: u32) -> String {
        format!("imdb/review_{id:08}")
    }

    fn size(&self, id: u32) -> u64 {
        self.sizes[id as usize]
    }

    fn fill(&self, id: u32, buf: &mut [u8]) {
        let mut motif = [0u8; MOTIF];
        fill_deterministic(&mut motif, self.seed ^ 0x1DB, id as u64);
        for (i, b) in buf.iter_mut().enumerate() {
            *b = motif[i % MOTIF];
        }
    }
}

#[derive(Default)]
struct FetchLog {
    /// Virtual time each delivered batch's fetch began, in delivery order.
    started: Vec<u64>,
    lat_ns: Vec<u64>,
    errors: Vec<String>,
    next_req: u64,
}

/// The pipeline's reader: DLFS batch reads, timed and traced, with typed
/// errors recorded instead of panicking.
struct Backend {
    io: DlfsIo,
    tr: Tracer,
    log: Arc<Mutex<FetchLog>>,
}

impl ReaderBackend for Backend {
    fn begin_epoch(&mut self, rt: &Runtime, seed: u64, epoch: u64) -> usize {
        let io = &mut self.io;
        self.tr.span(rt, "dlfs.io.sequence", epoch, At::Free, |_| {
            io.sequence(rt, seed, epoch)
        })
    }

    fn next_batch(&mut self, rt: &Runtime, n: usize) -> Option<Vec<Sample>> {
        let req = {
            let mut log = self.log.lock().expect("fetch log");
            log.next_req += 1;
            log.next_req
        };
        let t0 = rt.now();
        let io = &mut self.io;
        let out = self.tr.span(rt, "dlfs.io.submit", req, At::Free, |_| {
            io.submit(rt, &ReadRequest::batch(n))
        });
        let dt = (rt.now() - t0).as_nanos();
        let mut log = self.log.lock().expect("fetch log");
        match out {
            Ok(c) if !c.is_empty() => {
                log.started.push(t0.0);
                log.lat_ns.push(dt);
                Some(
                    c.into_copied()
                        .into_iter()
                        .map(|(id, bytes)| Sample { id, bytes })
                        .collect(),
                )
            }
            Ok(_) | Err(DlfsError::EpochExhausted) => None,
            Err(e) => {
                log.errors.push(format!("submit: {e}"));
                None
            }
        }
    }

    fn label(&self) -> &'static str {
        "DLFS"
    }
}

fn features(batch: &[Sample]) -> (Matrix, Vec<u8>) {
    let mut x = Vec::with_capacity(batch.len() * FEATURES);
    for s in batch {
        x.extend((0..FEATURES).map(|j| s.bytes[j % s.bytes.len()] as f32 / 255.0 - 0.5));
    }
    let y = batch
        .iter()
        .map(|s| (s.id % CLASSES as u32) as u8)
        .collect();
    (Matrix::from_vec(batch.len(), FEATURES, x), y)
}

fn samples(size: Size) -> usize {
    size.pick(40_000, 2_000)
}

pub fn run(seed: u64, size: Size, tr: Tracer) -> Window {
    let n = samples(size);
    let val = size.pick(1_024u32, 128);
    Runtime::simulate(seed, |rt| {
        let t_setup = Instant::now();
        let source = ImdbText::new(seed, n);
        let total: u64 = (0..n as u32).map(|i| source.size(i)).sum();
        let chunks = total.div_ceil(CHUNK) as usize;
        let cfg = DlfsConfig {
            chunk_size: CHUNK,
            codec: CodecKind::Lz,
            cache_mode: CacheMode::CrossEpoch,
            pool_chunks: (chunks / 2).max(16),
            ckpt_region_bytes: 16 << 20,
            ..DlfsConfig::default()
        };
        let cap = (total + total / 4 + (64 << 20)).next_multiple_of(1 << 20);
        let dev = NvmeDevice::new(DeviceConfig::optane(cap));
        let reg = Registry::new();
        let vt_mount0 = rt.now();
        let host_mount0 = Instant::now();
        let fs = tr.span(rt, "dlfs.mount.import", 0, At::Free, |_| {
            MountBuilder::new(cfg)
                .local(dev)
                .options(MountOptions {
                    telemetry: Some(reg.clone()),
                    ..MountOptions::default()
                })
                .persistent()
                .mount(rt, &source)
                .expect("import onto a device sized for the dataset")
        });
        let vt_mount = (rt.now() - vt_mount0).as_nanos();
        let mount_host_s = host_mount0.elapsed().as_secs_f64();
        let setup_s = t_setup.elapsed().as_secs_f64();

        // ---- timed region: the trainer's closed loop ----
        let mut chk = Checker::new();
        let log = Arc::new(Mutex::new(FetchLog::default()));
        let (mut waits, mut ckpt_lat, mut val_lat) = (Vec::new(), Vec::new(), Vec::new());
        // Virtual time the trainer received each batch, in order.
        let mut received = Vec::new();
        let (mut delivered, mut bytes) = (0u64, 0u64);
        let mut net = Mlp::new(&[FEATURES, 64, CLASSES], seed);
        let mut last_state = Vec::new();
        let host0 = Instant::now();
        let vt0 = rt.now();
        let mut ckpt = tr
            .span(rt, "dlfs.ckpt.open", 0, At::Lane(LANE), |_| {
                fs.checkpoint_writer(rt, 0, 0, Some(&reg))
            })
            .expect("persistent import has a checkpoint region");
        let mut val_io = fs.io_with_registry(0, &reg);
        let mut batch_no = 0u64;
        for epoch in 0..EPOCHS {
            let backend = Backend {
                io: fs.io_with_registry(0, &reg),
                tr: tr.clone(),
                log: log.clone(),
            };
            let pipe = tr.span(rt, "dlio.launch", epoch, At::Lane(LANE), |_| {
                InputPipeline::launch(
                    rt,
                    Box::new(backend),
                    seed,
                    epoch,
                    BATCH,
                    PREFETCH,
                    PipelineCosts::default(),
                )
            });
            let mut seen = vec![false; n];
            chk.attempted += n as u64;
            loop {
                let span = tr.begin(rt, "trainer.batch", batch_no + 1, At::Lane(LANE));
                let t = rt.now();
                let next = tr.span(rt, "dlio.next", batch_no + 1, At::Child(span), |_| {
                    pipe.next()
                });
                let Some(batch) = next else {
                    tr.end(rt, span);
                    break;
                };
                batch_no += 1;
                waits.push((rt.now() - t).as_nanos());
                received.push(rt.now().0);
                for s in &batch {
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
                        |f| f(&s.bytes),
                    );
                    delivered += 1;
                    bytes += s.bytes.len() as u64;
                }
                tr.span(rt, "dnn.train_step", batch_no, At::Child(span), |_| {
                    let (x, y) = features(&batch);
                    std::hint::black_box(net.train_step(&x, &y, 0.05, 0.9));
                });
                if batch_no.is_multiple_of(CKPT_EVERY) {
                    let state = net.state_bytes();
                    chk.attempted += 1;
                    let t = rt.now();
                    match tr.span(rt, "dlfs.ckpt.append", batch_no, At::Child(span), |_| {
                        ckpt.append(rt, &state)
                    }) {
                        Ok(_) => {
                            ckpt_lat.push((rt.now() - t).as_nanos());
                            last_state = state;
                        }
                        Err(e) => chk.fail(format!("checkpoint append: {e}")),
                    }
                }
                tr.end(rt, span);
            }
            let missing = seen.iter().filter(|s| !**s).count() as u64;
            if missing > 0 {
                chk.failed += missing;
                chk.errors
                    .push(format!("epoch {epoch}: {missing} samples never delivered"));
            }
            // Validation pass: synchronous reads over the held-out set.
            let span = tr.begin(rt, "trainer.validate", epoch, At::Lane(LANE));
            for id in 0..val.min(n as u32) {
                chk.attempted += 1;
                let t = rt.now();
                let got = tr.span(rt, "dlfs.io.sync_read", id as u64, At::Child(span), |_| {
                    val_io.read_by_id(rt, id)
                });
                match got {
                    Ok(data) => {
                        val_lat.push((rt.now() - t).as_nanos());
                        chk.sample(id, source.size(id), |b| source.fill(id, b), |f| f(&data));
                        delivered += 1;
                        bytes += data.len() as u64;
                    }
                    Err(e) => chk.fail(format!("read_by_id({id}): {e}")),
                }
            }
            tr.end(rt, span);
        }
        let vt1 = rt.now();
        let region_host_s = (host0.elapsed() - chk.host).as_secs_f64();
        tr.lane_region(LANE, vt0.0, vt1.0);
        let snap = reg.snapshot();

        // Outside the region: the last checkpoint must read back intact.
        if !last_state.is_empty() {
            chk.attempted += 1;
            match ckpt.reader(Some(&reg)).last(rt) {
                Ok(Some(rec)) if rec == last_state => {}
                Ok(_) => chk.fail("last checkpoint record differs from the model state".into()),
                Err(e) => chk.fail(format!("checkpoint read-back: {e}")),
            }
        }
        let log = std::mem::take(&mut *log.lock().expect("fetch log"));
        for e in log.errors {
            chk.fail(e);
        }

        // A request is one pipeline batch fetch, from the moment the
        // pipeline starts fetching the batch to the moment the trainer
        // holds it (DLFS submit, framework ingest and queueing).
        let mut fetch: Vec<u64> = received
            .iter()
            .zip(&log.started)
            .map(|(got, began)| got - began)
            .collect();
        fetch.sort_unstable();
        let mut val_sorted = val_lat.clone();
        val_sorted.sort_unstable();
        let mut ckpt_sorted = ckpt_lat.clone();
        ckpt_sorted.sort_unstable();
        let region_s = (vt1 - vt0).as_secs_f64();
        let vt = vec![
            ("vt_sps", delivered as f64 / region_s),
            ("vt_p50_us", pct(&fetch, 50) as f64 / 1e3),
            ("vt_p99_us", pct(&fetch, 99) as f64 / 1e3),
            ("vt_mount_ms", vt_mount as f64 / 1e6),
        ];
        let mut layers = crate::layers::spans(&tr);
        let mut put = |k: &'static str, v: Option<f64>| {
            layers.insert(k, v);
        };
        put("dlio.next_wait_vt_us", Some(mean_us(&waits)));
        put("dlfs.io.submit_vt_us", Some(mean_us(&log.lat_ns)));
        put("dlfs.io.sync_read_vt_us", Some(mean_us(&val_lat)));
        put(
            "dlfs.io.sync_read_p99_vt_us",
            Some(pct(&val_sorted, 99) as f64 / 1e3),
        );
        put("dlfs.ckpt.append_vt_us", Some(mean_us(&ckpt_lat)));
        put(
            "dlfs.ckpt.append_p90_vt_us",
            Some(pct(&ckpt_sorted, 90) as f64 / 1e3),
        );
        put("dlfs.mount.vt_ms", Some(vt_mount as f64 / 1e6));
        put("dlfs.mount.host_s", Some(mount_host_s));
        crate::layers::io_counters(&snap, delivered, bytes, &mut put);
        let hits = counter(&snap, "dlfs.cache.hits");
        let misses = counter(&snap, "dlfs.cache.misses");
        put(
            "dlfs.cache.hit_ratio",
            hits.zip(misses)
                .map(|(h, m)| h as f64 / (h + m).max(1) as f64),
        );
        put(
            "dlfs.cache.evictions",
            counter(&snap, "dlfs.cache.evictions").map(|v| v as f64),
        );
        put(
            "dlfs.codec.decode_amp",
            ratio(counter(&snap, "dlfs.codec.bytes_out"), bytes),
        );
        Window {
            vt,
            setup_s,
            region_host_s,
            ops: delivered,
            requests: fetch.len(),
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
    crate::kernels::corpus(&ImdbText::new(seed, samples(size)), budget)
}
