//! End-to-end codec tests: transparent per-frame compression through
//! import → remount → verified reads, checksum coverage of the *stored*
//! (encoded) bytes, and wire/device byte savings. The default
//! configuration (`CodecKind::Identity`) builds none of it — those paths
//! are covered by the byte-identity suites elsewhere.

use std::sync::Arc;

use blocksim::{DeviceConfig, FaultInjector, NvmeDevice, NvmeTarget, BLOCK_SIZE};
use dlfs::source::SampleSource;
use dlfs::{
    CacheMode, CodecError, CodecKind, Completions, CompressibleSource, CorruptCause, Deployment,
    DlfsConfig, DlfsError, DlfsInstance, MountOptions, ReadRequest, SyntheticSource,
};
use simkit::prelude::*;

fn test_seed(base: u64) -> u64 {
    base + std::env::var("DLFS_TEST_SEED_OFFSET")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0)
}

fn ramdisk(bytes: u64) -> Arc<NvmeDevice> {
    NvmeDevice::new(DeviceConfig::emulated_ramdisk(bytes, Dur::micros(10)))
}

fn local_deployment(devices: &[Arc<NvmeDevice>]) -> Deployment {
    Deployment {
        targets: vec![devices
            .iter()
            .map(|d| d.clone() as Arc<dyn NvmeTarget>)
            .collect()],
        cluster: None,
    }
}

fn lz_cfg() -> DlfsConfig {
    DlfsConfig {
        chunk_size: 8 * 1024,
        codec: CodecKind::Lz,
        ..DlfsConfig::default()
    }
}

/// Drain one full epoch, verifying every payload byte-for-byte against
/// `expected` and exactly-once delivery.
fn drain_verified(
    rt: &Runtime,
    fs: &DlfsInstance,
    seed: u64,
    count: usize,
    expected: &dyn Fn(u32) -> Vec<u8>,
) {
    let mut seen = vec![false; count];
    let mut delivered = 0usize;
    for r in 0..fs.readers() {
        let mut io = fs.io(r);
        io.sequence(rt, seed, 0);
        loop {
            match io
                .submit(rt, &ReadRequest::batch(32))
                .map(Completions::into_copied)
            {
                Ok(batch) => {
                    for (id, data) in batch {
                        assert_eq!(data, expected(id), "sample {id} corrupted");
                        assert!(!seen[id as usize], "sample {id} delivered twice");
                        seen[id as usize] = true;
                        delivered += 1;
                    }
                }
                Err(DlfsError::EpochExhausted) => break,
                Err(e) => panic!("epoch failed: {e}"),
            }
        }
    }
    assert_eq!(delivered, count, "epoch must cover the dataset");
}

/// The core roundtrip: a compressed import serves byte-correct epochs,
/// survives a warm remount (codec + frame table read back from the
/// devices), and every synchronous path — copied, zero-copy, by-name —
/// decodes to the original payloads. Both compressible and incompressible
/// (verbatim-fallback) samples, sizes straddling block boundaries.
#[test]
fn lz_roundtrips_import_remount_and_all_read_paths() {
    Runtime::simulate(test_seed(90), |rt| {
        let comp = CompressibleSource::fixed(21, 300, 3000, 48);
        let devices = vec![ramdisk(64 << 20), ramdisk(64 << 20)];
        let fs = dlfs::MountBuilder::new(lz_cfg())
            .deployment(local_deployment(&devices))
            .options(MountOptions::default())
            .persistent()
            .mount(rt, &comp)
            .unwrap();
        drain_verified(rt, &fs, 3, comp.count(), &|id| comp.expected(id));
        drop(fs);

        // Warm remount: codec kind and per-frame lengths come back from
        // the superblock + codec table region, read-only. Cross-epoch
        // mode so the synchronous zero-copy miss below can publish.
        let before: Vec<_> = devices.iter().map(|d| d.stats()).collect();
        let warm = dlfs::MountBuilder::new(DlfsConfig {
            cache_mode: CacheMode::CrossEpoch,
            ..lz_cfg()
        })
        .deployment(local_deployment(&devices))
        .options(MountOptions::default())
        .warm()
        .remount(rt)
        .unwrap();
        for (d, b) in devices.iter().zip(&before) {
            assert_eq!(d.stats().3, b.3, "remount wrote bytes to a device");
        }
        drain_verified(rt, &warm, 4, comp.count(), &|id| comp.expected(id));
        // Synchronous single reads decode too (copied + zero-copy + name).
        let mut io = warm.io(0);
        for id in [0u32, 7, 123, 299] {
            assert_eq!(io.read_by_id(rt, id).unwrap(), comp.expected(id));
        }
        let s = io.read_zero_copy(rt, 5).unwrap();
        assert_eq!(s.to_vec(), comp.expected(5));
        assert_eq!(io.read(rt, &comp.name(9)).unwrap(), comp.expected(9));
        let m = io.metrics();
        let enc = m.counter("dlfs.codec.bytes_in");
        let raw = m.counter("dlfs.codec.bytes_out");
        assert!(enc > 0, "codec counters never recorded");
        assert!(
            enc * 2 < raw,
            "motif frames should decode to >2x their stored size ({enc} -> {raw})"
        );
    });
}

/// Remounting a coded dataset with a mismatched config codec is a typed
/// layout error, not silent garbage.
#[test]
fn remount_with_wrong_codec_is_typed_error() {
    Runtime::simulate(test_seed(91), |rt| {
        let comp = CompressibleSource::fixed(22, 64, 2048, 32);
        let devices = vec![ramdisk(64 << 20)];
        let fs = dlfs::MountBuilder::new(lz_cfg())
            .deployment(local_deployment(&devices))
            .options(MountOptions::default())
            .persistent()
            .mount(rt, &comp)
            .unwrap();
        drop(fs);
        let err = dlfs::MountBuilder::new(DlfsConfig {
            codec: CodecKind::Identity,
            ..lz_cfg()
        })
        .deployment(local_deployment(&devices))
        .options(MountOptions::default())
        .warm()
        .remount(rt)
        .unwrap_err();
        match err {
            DlfsError::Layout(_) => {}
            other => panic!("expected a typed layout error, got {other}"),
        }
    });
}

/// Incompressible (white-noise) samples fall back to verbatim frames and
/// still roundtrip through every path, cross-epoch cache included.
#[test]
fn verbatim_fallback_roundtrips_with_cross_epoch_cache() {
    Runtime::simulate(test_seed(92), |rt| {
        // Exactly four 2048-byte noise samples per 8 KiB frame: no zero
        // padding, so frames hold pure white noise and stay verbatim.
        let noise = SyntheticSource::fixed(23, 150, 2048);
        let cfg = DlfsConfig {
            cache_mode: CacheMode::CrossEpoch,
            prefetch_window: 4,
            ..lz_cfg()
        };
        let devices = vec![ramdisk(64 << 20), ramdisk(64 << 20)];
        let fs = dlfs::MountBuilder::new(cfg)
            .deployment(local_deployment(&devices))
            .mount(rt, &noise)
            .unwrap();
        let mut io = fs.io(0);
        for epoch in 0..3 {
            let total = io.sequence(rt, 6, epoch);
            let mut got = 0;
            loop {
                match io
                    .submit(rt, &ReadRequest::batch(16))
                    .map(Completions::into_copied)
                {
                    Ok(batch) => {
                        for (id, data) in batch {
                            assert_eq!(data, noise.expected(id), "sample {id} corrupted");
                            got += 1;
                        }
                    }
                    Err(DlfsError::EpochExhausted) => break,
                    Err(e) => panic!("{e}"),
                }
            }
            assert_eq!(got, total);
        }
        let m = io.metrics();
        // White noise: stored verbatim, so bytes_in == bytes_out.
        assert_eq!(
            m.counter("dlfs.codec.bytes_in"),
            m.counter("dlfs.codec.bytes_out"),
            "noise frames must store verbatim"
        );
        assert!(m.counter("dlfs.cache.hits") > 0, "warm epochs never hit");
    });
}

/// Checksums cover the *stored* (encoded) bytes: a silent flip inside a
/// compressed frame is caught by block verification *before* the decoder
/// ever runs, failed over to the replica, and read-repaired — every
/// delivered payload stays byte-correct.
#[test]
fn corrupt_encoded_frames_verify_before_decode_and_repair() {
    Runtime::simulate(test_seed(93), |rt| {
        let comp = CompressibleSource::fixed(24, 400, 2048, 40);
        let cfg = DlfsConfig {
            replicas: 2,
            verify_reads: true,
            ..lz_cfg()
        };
        let devices = vec![ramdisk(64 << 20), ramdisk(64 << 20)];
        let fs = dlfs::MountBuilder::new(cfg)
            .deployment(local_deployment(&devices))
            .options(MountOptions::default())
            .persistent()
            .mount(rt, &comp)
            .unwrap();
        let sb0 = fs.shared(0).layouts.as_ref().unwrap()[0].clone();
        // Flip bits across the front of node 0's stored (encoded) data
        // region — compressed streams, where an unverified flip would
        // derail the decoder, not just corrupt one byte.
        let data_blk = sb0.data_base / BLOCK_SIZE;
        devices[0].set_faults(FaultInjector::new(17).with_bit_flips(data_blk, 64));
        // One handle bound to a shared registry so the integrity counters
        // from the whole epoch survive (`fs.io()` registries are
        // per-handle).
        let reg = simkit::telemetry::Registry::new();
        let mut io = fs.io_with_registry(0, &reg);
        let total = io.sequence(rt, 8, 0);
        let mut got = 0;
        loop {
            match io
                .submit(rt, &ReadRequest::batch(32))
                .map(Completions::into_copied)
            {
                Ok(batch) => {
                    for (id, data) in batch {
                        assert_eq!(data, comp.expected(id), "sample {id} corrupted");
                        got += 1;
                    }
                }
                Err(DlfsError::EpochExhausted) => break,
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(got, total);
        let m = reg.snapshot();
        assert!(
            m.counter("dlfs.integrity.mismatches") > 0,
            "flips in stored frames must fail block verification"
        );
        assert!(
            m.counter("dlfs.integrity.repairs") > 0,
            "verified failover must read-repair the home replica"
        );
        // A second epoch over the repaired home copies is mismatch-free.
        let reg2 = simkit::telemetry::Registry::new();
        let mut io2 = fs.io_with_registry(0, &reg2);
        let total = io2.sequence(rt, 9, 0);
        let mut got = 0;
        loop {
            match io2
                .submit(rt, &ReadRequest::batch(32))
                .map(Completions::into_copied)
            {
                Ok(batch) => {
                    for (id, data) in batch {
                        assert_eq!(data, comp.expected(id));
                        got += 1;
                    }
                }
                Err(DlfsError::EpochExhausted) => break,
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(got, total);
        assert_eq!(
            reg2.snapshot().counter("dlfs.integrity.mismatches"),
            0,
            "read-repair should have healed every frame the epoch touches"
        );
    });
}

/// With no replica, a persistently corrupt encoded frame surfaces a typed
/// `Corrupt` error — never a decoder panic, never silent bytes.
#[test]
fn unrepairable_encoded_corruption_is_typed_corrupt() {
    Runtime::simulate(test_seed(94), |rt| {
        let comp = CompressibleSource::fixed(25, 200, 2048, 40);
        let cfg = DlfsConfig {
            verify_reads: true,
            ..lz_cfg()
        };
        let dev = ramdisk(64 << 20);
        let devices = vec![dev.clone()];
        let fs = dlfs::MountBuilder::new(cfg)
            .deployment(local_deployment(&devices))
            .options(MountOptions::default())
            .persistent()
            .mount(rt, &comp)
            .unwrap();
        let sb0 = fs.shared(0).layouts.as_ref().unwrap()[0].clone();
        dev.set_faults(FaultInjector::new(19).with_bit_flips(sb0.data_base / BLOCK_SIZE, 32));
        let mut io = fs.io(0);
        io.sequence(rt, 10, 0);
        let mut outcome = None;
        loop {
            match io.submit(rt, &ReadRequest::batch(16)) {
                Ok(_) => continue,
                Err(DlfsError::EpochExhausted) => break,
                Err(e) => {
                    outcome = Some(e);
                    break;
                }
            }
        }
        match outcome {
            Some(DlfsError::Corrupt { tried, .. }) => assert!(tried > 0),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    });
}

/// Make frame 0 of node 0 malformed: its first token becomes a
/// back-reference with distance 0. Returns the frame's home-node byte
/// offset (the start of the data region).
fn damage_frame0(fs: &DlfsInstance, dev: &NvmeDevice) -> u64 {
    let data_base = fs.shared(0).layouts.as_ref().unwrap()[0].data_base;
    let mut blk = vec![0u8; BLOCK_SIZE as usize];
    dev.dma_read(data_base / BLOCK_SIZE, &mut blk);
    blk[..3].copy_from_slice(&[0x80, 0, 0]);
    dev.dma_write(data_base / BLOCK_SIZE, &blk);
    data_base
}

fn is_codec_corrupt(e: &DlfsError) -> bool {
    matches!(
        e,
        DlfsError::Corrupt {
            cause: CorruptCause::Codec(CodecError::ZeroDistance { at: 0 }),
            ..
        }
    )
}

/// Submit `req` until the epoch fails, dropping whatever is delivered
/// (zero-copy pins included); the epoch must fail, not run out.
fn submit_until_error(rt: &Runtime, io: &mut dlfs::DlfsIo, req: &ReadRequest) -> DlfsError {
    loop {
        match io.submit(rt, req) {
            Ok(_) => continue,
            Err(DlfsError::EpochExhausted) => panic!("epoch drained past the damaged frame"),
            Err(e) => break e,
        }
    }
}

/// Without `verify_reads` nothing checks the stored bytes before the
/// decoder runs, so a malformed frame reaches it. Every read path — the
/// batched engine (copied and zero-copy delivery), storage-side offload,
/// and the synchronous copied and zero-copy reads — surfaces a typed
/// `Corrupt` with a codec cause (never an index panic), samples in other
/// frames still read back intact, and every chunk the failed reads
/// fetched goes back to the pool.
#[test]
fn malformed_unverified_frame_is_typed_codec_corrupt() {
    Runtime::simulate(test_seed(95), |rt| {
        let comp = CompressibleSource::fixed(26, 200, 2048, 40);
        let dev = ramdisk(64 << 20);
        let devices = vec![dev.clone()];
        let fs = dlfs::MountBuilder::new(DlfsConfig {
            offload: true,
            ..lz_cfg()
        })
        .deployment(local_deployment(&devices))
        .options(MountOptions::default())
        .persistent()
        .mount(rt, &comp)
        .unwrap();
        damage_frame0(&fs, &dev);
        let cache = fs.shared(0).cache.clone();
        let mut io = fs.io(0);

        for (epoch, req) in [
            ReadRequest::batch(16),
            ReadRequest::batch(16).zero_copy(),
            ReadRequest::batch(16).offload(),
        ]
        .iter()
        .enumerate()
        {
            io.sequence(rt, 11, epoch as u64);
            let e = submit_until_error(rt, &mut io, req);
            assert!(is_codec_corrupt(&e), "batch {req:?}: {e:?}");
        }

        let mut bad = 0;
        for id in 0..comp.count() as u32 {
            match (io.read_by_id(rt, id), io.read_zero_copy(rt, id)) {
                (Ok(data), Ok(zc)) => {
                    assert_eq!(data, comp.expected(id), "sample {id}");
                    assert_eq!(zc.to_vec(), data, "zero-copy sample {id}");
                }
                (Err(e), Err(zc)) => {
                    assert!(is_codec_corrupt(&e), "sample {id}: {e:?}");
                    assert!(is_codec_corrupt(&zc), "zero-copy sample {id}: {zc:?}");
                    bad += 1;
                }
                (a, b) => panic!("sample {id}: copied {a:?} vs zero-copy {b:?}"),
            }
        }
        assert!(bad > 0 && bad < comp.count(), "{bad} samples in frame 0");

        // Tear the failed epoch down: nothing leaked, nothing freed twice.
        io.sequence(rt, 12, 0);
        assert_eq!(cache.zombie_count(), 0);
        assert_eq!(cache.free_chunks(), cache.total_chunks());
    });
}

/// A prefetched frame that does not decode is dropped rather than
/// published: the next epoch's demand read of it surfaces the typed codec
/// error, every sample it delivers first is byte-correct, and the pool
/// still accounts for every chunk. Two readers split each epoch, so the
/// seed is picked from the public plan such that reader 0 never reads
/// frame 0 in epoch 0 but its prefetch window for epoch 1 covers it.
#[test]
fn malformed_prefetched_frame_is_dropped_not_published() {
    Runtime::simulate(test_seed(97), |rt| {
        let comp = CompressibleSource::fixed(27, 200, 2048, 40);
        let window = 8;
        let cfg = DlfsConfig {
            cache_mode: CacheMode::CrossEpoch,
            prefetch_window: window,
            ..lz_cfg()
        };
        let dev = ramdisk(64 << 20);
        let targets = vec![vec![dev.clone() as Arc<dyn NvmeTarget>]; 2];
        let fs = dlfs::MountBuilder::new(cfg)
            .deployment(Deployment {
                targets,
                cluster: None,
            })
            .options(MountOptions::default())
            .persistent()
            .mount(rt, &comp)
            .unwrap();
        let frame0 = damage_frame0(&fs, &dev);
        let shared = fs.shared(0);
        let chunk = shared.cfg.chunk_size;
        let mode = shared.cfg.effective_mode(shared.dir.avg_sample_bytes());
        let in_frame0 =
            |&(nid, off, _): &(u16, u64, u64)| nid == 0 && off / chunk == frame0 / chunk;
        let ranges = |seed, epoch| {
            dlfs::plan::reader_item_ranges(&shared.dir, chunk, 2, mode, seed, epoch, 0)
        };
        let seed = (0..1000u64)
            .find(|&s| {
                !ranges(s, 0).iter().any(in_frame0)
                    && ranges(s, 1).iter().take(window).any(in_frame0)
            })
            .expect("some seed defers frame 0 to epoch 1's prefetch window");

        let reg = simkit::telemetry::Registry::new();
        let mut io = fs.io_with_registry(0, &reg);
        io.sequence(rt, seed, 0);
        loop {
            match io
                .submit(rt, &ReadRequest::batch(16))
                .map(Completions::into_copied)
            {
                Ok(batch) => {
                    for (id, data) in batch {
                        assert_eq!(data, comp.expected(id), "epoch 0 sample {id}");
                    }
                }
                Err(DlfsError::EpochExhausted) => break,
                Err(e) => panic!("epoch 0 never touches frame 0: {e}"),
            }
        }
        assert!(reg.snapshot().counter("dlfs.cache.prefetch_issued") > 0);

        io.sequence(rt, seed, 1);
        let err = loop {
            match io
                .submit(rt, &ReadRequest::batch(16))
                .map(Completions::into_copied)
            {
                Ok(batch) => {
                    for (id, data) in batch {
                        assert_eq!(data, comp.expected(id), "epoch 1 sample {id}");
                    }
                }
                Err(e) => break e,
            }
        };
        assert!(is_codec_corrupt(&err), "epoch 1: {err:?}");

        io.sequence(rt, seed, 2);
        let cache = &shared.cache;
        assert_eq!(cache.zombie_count(), 0);
        let resident = reg.snapshot().gauge("dlfs.cache.resident_chunks") as usize;
        assert_eq!(cache.free_chunks() + resident, cache.total_chunks());
    });
}

/// Compression saves real device traffic: the same compressible dataset
/// read under `Lz` fetches strictly fewer bytes off the devices than
/// under `Identity`, and both deliver identical payload bytes.
#[test]
fn lz_fetches_strictly_fewer_device_bytes() {
    let run = |codec: CodecKind| {
        Runtime::simulate(test_seed(95), |rt| {
            let comp = CompressibleSource::fixed(26, 500, 4096, 64);
            let devices = vec![ramdisk(64 << 20), ramdisk(64 << 20)];
            let fs = dlfs::MountBuilder::new(DlfsConfig { codec, ..lz_cfg() })
                .deployment(local_deployment(&devices))
                .mount(rt, &comp)
                .unwrap();
            let base: u64 = devices.iter().map(|d| d.stats().2).sum();
            drain_verified(rt, &fs, 12, comp.count(), &|id| comp.expected(id));
            devices.iter().map(|d| d.stats().2).sum::<u64>() - base
        })
    };
    // (Wall-clock is *not* asserted here: on a fast local ramdisk the
    // client-side decode charge can outweigh the device-byte saving — the
    // time win appears once a constrained fabric link is the bottleneck,
    // which the `ext_offload` bench sweeps.)
    let (identity_bytes, _) = run(CodecKind::Identity);
    let (lz_bytes, _) = run(CodecKind::Lz);
    assert!(
        lz_bytes * 2 < identity_bytes,
        "lz epoch should read <half the device bytes ({lz_bytes} vs {identity_bytes})"
    );
}
