//! The DLFS I/O engine: the four-stage read pipeline (paper §III-C, Fig. 4)
//! driven by the calling I/O thread, with completions fanned out to the
//! copy-thread pool through the shared completion queue.
//!
//! * **prep** — turn the next fetch items of the epoch plan into SPDK
//!   requests with sample-cache chunks attached;
//! * **post** — submit to the per-device I/O qpair (bounded queue depth);
//! * **poll** — busy-poll the shared completion queue across all qpairs;
//! * **copy** — hand completed samples to the copy threads, which move
//!   bytes from the sample cache into the application buffer.
//!
//! Delivery follows the paper's relaxed randomization (§III-D2): "the copy
//! threads then select samples randomly from the sample cache" — each next
//! sample is drawn from a uniformly random *resident* fetch item, so a
//! slow device never head-of-line-blocks samples that already arrived from
//! other devices. The draw is seeded, so simulations stay deterministic.
//!
//! One `DlfsIo` per I/O thread (qpairs are not thread-safe, as in SPDK);
//! all `DlfsIo` handles of a node share the directory, sample cache and
//! copy pool through [`DlfsShared`].

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

use blocksim::{
    covering_blocks, CmdStatus, DmaBuf, IoQPair, NvmeTarget, OffloadExtent, BLOCK_SIZE,
};
use fabric::{CAPSULE_BYTES, DESCRIPTOR_BYTES, RESPONSE_BYTES};
use simkit::rng::{content_sum, fnv1a, SplitMix64};
use simkit::runtime::Runtime;
use simkit::telemetry::{Counter, Gauge, Histo, Registry, Snapshot};
use simkit::time::{Dur, Time};

use crate::cache::RangeKey;
use crate::codec::CodecError;
use crate::config::{CacheMode, DlfsConfig};
use crate::copy::{CopyDone, CopyJob, SegList, Segment};
use crate::directory::SampleDirectory;
use crate::entry::SampleEntry;
use crate::error::{CorruptCause, DlfsError, IoFailure};
use crate::integrity::Redundancy;
use crate::layout::{encode_codec_table, encode_integrity, encode_meta, MetaRecord};
use crate::plan::{build_epoch_plan, reader_item_ranges, ReaderPlan};
use crate::reactor::{CompletionClock, ReactorStats};
use crate::rebuild::RebuildPlan;
use crate::request::{Completions, Delivery, ReadRequest};
use crate::zerocopy::{Pin, PinGuard, ZeroCopySample};
use crate::{cache::SampleCache, copy::CopyPool};

/// Blocks the background scrubber walks per idle reactor gap.
const SCRUB_GAP_BLOCKS: u64 = 64;

/// State shared by every I/O thread of one compute node.
#[derive(Clone)]
pub struct DlfsShared {
    pub cfg: DlfsConfig,
    pub dir: Arc<SampleDirectory>,
    pub cache: Arc<SampleCache>,
    pub copy: CopyPool,
    /// Targets indexed by storage node id (local device or NVMe-oF remote).
    pub targets: Vec<Arc<dyn NvmeTarget>>,
    /// This compute node's reader id.
    pub reader_id: usize,
    /// Total readers participating in `dlfs_sequence`.
    pub readers: usize,
    /// Per-storage-node on-device layouts when this instance is persistent
    /// (created by `import`/`remount`); `None` for ephemeral mounts.
    pub layouts: Option<Arc<Vec<crate::layout::Superblock>>>,
    /// Replica routing, per-block integrity tables and target health;
    /// `None` on the default (`replicas == 1`, no `verify_reads`) path —
    /// every read then takes its historical branch unchanged.
    pub redundancy: Option<Arc<Redundancy>>,
    /// Per-chunk codec + per-node encoded-frame tables when the dataset
    /// was staged with `cfg.codec != Identity`; `None` keeps every read
    /// on its historical raw-bytes branch.
    pub codec: Option<Arc<crate::codec::CodecTables>>,
    /// Tenant this handle's reads belong to: folded into every cache key
    /// and charged at the QoS admission gate. 0 is the implicit single
    /// tenant of non-QoS mounts.
    pub tenant: crate::tenant::TenantId,
    /// The instance's shared admission gate; `None` — the default — skips
    /// admission entirely (no QoS config on the mount).
    pub qos: Option<Arc<crate::tenant::TenantQos>>,
}

impl std::fmt::Debug for DlfsShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DlfsShared")
            .field("reader", &self.reader_id)
            .field("readers", &self.readers)
            .field("targets", &self.targets.len())
            .field("tenant", &self.tenant)
            .finish()
    }
}

impl DlfsShared {
    /// Tenant-qualified cache key for a range on `nid` starting at
    /// `start` (see [`crate::cache::range_key`]).
    #[inline]
    pub fn rkey(&self, nid: u16, start: u64) -> crate::cache::RangeKey {
        crate::cache::range_key(self.tenant, nid, start)
    }

    /// A handle over the same devices, cache pool and copy threads that
    /// reads as `tenant` instead. Cheap: every heavy member is shared.
    pub fn with_tenant(self: &Arc<Self>, tenant: crate::tenant::TenantId) -> Arc<DlfsShared> {
        if tenant == self.tenant {
            return self.clone();
        }
        Arc::new(DlfsShared {
            tenant,
            ..(**self).clone()
        })
    }
}

/// Telemetry handles for one I/O thread, living under `dlfs.io.*` in the
/// engine's registry (see DESIGN.md, "Telemetry").
struct IoTelemetry {
    samples_delivered: Counter,
    bytes_delivered: Counter,
    requests_posted: Counter,
    completions: Counter,
    poll_spins: Counter,
    /// Commands resubmitted after a device media error or fabric timeout.
    retries: Counter,
    /// Commands the initiator gave up on after its I/O timeout (the fabric
    /// dropped the capsule or the target was down).
    timeouts: Counter,
    batches: Counter,
    deadline_misses: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    cache_pins: Counter,
    /// Cross-epoch cache counters under `dlfs.cache.*`. Registered only
    /// with [`CacheMode::CrossEpoch`] — under the zero-knob default they
    /// are bound to a detached registry so metric renders stay
    /// byte-identical to the pre-cache engine.
    ce_hits: Counter,
    ce_misses: Counter,
    prefetch_issued: Counter,
    prefetch_hits: Counter,
    /// Shared-completion-queue drain stats.
    scq_drains: Counter,
    scq_empty_polls: Counter,
    scq_drain_batch: Histo,
    /// Per-stage latency of the four-stage pipeline.
    prep_ns: Histo,
    post_ns: Histo,
    poll_ns: Histo,
    copy_ns: Histo,
    /// Integrity/replication counters under `dlfs.integrity.*`. Registered
    /// only when the instance carries a [`Redundancy`] — under the
    /// zero-knob default they bind to a detached registry so metric
    /// renders stay byte-identical.
    iv_verified: Counter,
    iv_mismatches: Counter,
    iv_repairs: Counter,
    iv_scrubbed: Counter,
    iv_failovers: Counter,
    iv_hedges: Counter,
    iv_hedge_wins: Counter,
    /// Rebuild counters under `dlfs.rebuild.*`. Registered only when the
    /// instance carries a cluster [`fabric::Membership`] view
    /// ([`crate::DlfsConfig::fail_dead_after`]) — otherwise they bind to a
    /// detached registry, keeping metric renders of every pre-membership
    /// configuration byte-identical.
    rb_blocks: Counter,
    /// Blocks a catch-up resync found already verified on the replacement
    /// device (a restarted node that kept its media skips them).
    rb_clean: Counter,
    /// Blocks no surviving replica could serve cleanly.
    rb_failed: Counter,
    rb_completed: Counter,
    /// Chunks with less than full redundancy right now (drops toward zero
    /// as the rebuild progresses).
    rb_at_risk: Gauge,
    /// Codec counters under `dlfs.codec.*`: encoded bytes fetched off the
    /// devices vs raw bytes they decoded to. Registered only when the
    /// instance carries [`crate::codec::CodecTables`] — under the
    /// zero-knob default they bind to a detached registry so metric
    /// renders stay byte-identical.
    codec_bytes_in: Counter,
    codec_bytes_out: Counter,
    /// Offload counters under `dlfs.offload.*`. Registered only with
    /// [`crate::DlfsConfig::offload`]; detached otherwise.
    of_requests: Counter,
    of_samples: Counter,
    /// Bytes carried over the fabric by dense offload responses.
    of_wire_bytes: Counter,
}

impl IoTelemetry {
    fn new(
        reg: &Registry,
        cross_epoch: bool,
        integrity: bool,
        membership: bool,
        codec: bool,
        offload: bool,
    ) -> IoTelemetry {
        let io = reg.scoped("dlfs.io");
        // Optional subsystems bind to a detached registry when off, so
        // metric renders of configurations without them stay unchanged.
        let scope = |on: bool, name: &str| {
            if on {
                reg.scoped(name)
            } else {
                Registry::new().scoped(name)
            }
        };
        let cache = scope(cross_epoch, "dlfs.cache");
        let iv = scope(integrity, "dlfs.integrity");
        let rb = scope(membership, "dlfs.rebuild");
        let cd = scope(codec, "dlfs.codec");
        let of = scope(offload, "dlfs.offload");
        IoTelemetry {
            codec_bytes_in: cd.counter("bytes_in"),
            codec_bytes_out: cd.counter("bytes_out"),
            of_requests: of.counter("requests"),
            of_samples: of.counter("samples"),
            of_wire_bytes: of.counter("wire_bytes"),
            rb_blocks: rb.counter("blocks_rebuilt"),
            rb_clean: rb.counter("blocks_clean"),
            rb_failed: rb.counter("blocks_failed"),
            rb_completed: rb.counter("completed"),
            rb_at_risk: rb.gauge("chunks_at_risk"),
            iv_verified: iv.counter("verified"),
            iv_mismatches: iv.counter("mismatches"),
            iv_repairs: iv.counter("repairs"),
            iv_scrubbed: iv.counter("scrubbed"),
            iv_failovers: iv.counter("failovers"),
            iv_hedges: iv.counter("hedges"),
            iv_hedge_wins: iv.counter("hedge_wins"),
            ce_hits: cache.counter("hits"),
            ce_misses: cache.counter("misses"),
            prefetch_issued: cache.counter("prefetch_issued"),
            prefetch_hits: cache.counter("prefetch_hits"),
            samples_delivered: io.counter("samples_delivered"),
            bytes_delivered: io.counter("bytes_delivered"),
            requests_posted: io.counter("requests_posted"),
            completions: io.counter("completions"),
            poll_spins: io.counter("poll_spins"),
            retries: io.counter("retries"),
            timeouts: io.counter("timeouts"),
            batches: io.counter("batches"),
            deadline_misses: io.counter("deadline_misses"),
            cache_hits: io.counter("cache.hits"),
            cache_misses: io.counter("cache.misses"),
            cache_pins: io.counter("cache.pins"),
            scq_drains: io.counter("scq.drains"),
            scq_empty_polls: io.counter("scq.empty_polls"),
            scq_drain_batch: io.histogram("scq.drain_batch"),
            prep_ns: io.histogram("stage.prep_ns"),
            post_ns: io.histogram("stage.post_ns"),
            poll_ns: io.histogram("stage.poll_ns"),
            copy_ns: io.histogram("stage.copy_ns"),
        }
    }
}

#[derive(Debug)]
struct ItemRt {
    parts_left: u32,
    samples_total: u32,
    /// Samples handed out so far (cursor into the item's shuffled sample
    /// list).
    dispatched: u32,
    copies_done: u32,
    /// Block-aligned base offset of the fetched range.
    base: u64,
}

/// Who a device read part belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Owner {
    /// Fetch item `idx` of the current epoch plan.
    Item(u32),
    /// The synchronous read in progress.
    Sync,
}

/// One chunk-sized device read of an owner's range, queued or in flight.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Part {
    owner: Owner,
    /// Part number within the owner's range.
    part: u32,
    /// Failed attempts so far.
    attempt: u32,
    /// Preferred replica while queued; the serving replica in flight.
    replica: u32,
}

/// A retry parked until its backoff elapses: readiness instant, insertion
/// sequence (keeps same-instant pops deterministic), the part.
type DelayedPart = Reverse<(Time, u64, Part)>;

/// One epoch installed by `sequence`: the reader's plan and its delivery
/// state.
struct Epoch {
    /// The collective seed and epoch number `sequence` was called with
    /// (the prefetcher derives the *next* epoch's item deal from them).
    seed: u64,
    epoch: u64,
    plan: ReaderPlan,
    items: Vec<ItemRt>,
    /// Items resident with undelivered samples (the sample-cache draw set).
    resident_ready: Vec<u32>,
    /// Samples handed out this epoch.
    total_dispatched: usize,
    total: usize,
    /// Next item to start fetching.
    next_fetch: usize,
    /// Buffers per item while open.
    bufs: HashMap<u32, Vec<DmaBuf>>,
    /// Items fetched or fetching and not yet retired.
    open_items: usize,
    /// Seeded draw for the random selection among resident items.
    rng: SplitMix64,
    /// Fatal failure: a part exhausted its retry budget or a frame did not
    /// decode. Sticky until `sequence` replaces the epoch: the plan can no
    /// longer be completed.
    failed: Option<DlfsError>,
}

impl Epoch {
    /// Draw the next sample from a uniformly random resident item (the
    /// relaxed randomization of §III-D2) and advance that item's cursor.
    /// Returns `(item idx, sample id)`.
    fn draw(&mut self) -> Option<(u32, u32)> {
        if self.resident_ready.is_empty() {
            return None;
        }
        let pick = self.rng.below(self.resident_ready.len() as u64) as usize;
        let idx = self.resident_ready[pick];
        let item = &mut self.items[idx as usize];
        let sample = self.plan.items[idx as usize].samples[item.dispatched as usize];
        item.dispatched += 1;
        if item.dispatched == item.samples_total {
            self.resident_ready.swap_remove(pick);
        }
        self.total_dispatched += 1;
        Some((idx, sample))
    }

    /// Is `key` being fetched by the demand path (allocated, not yet
    /// published)? The prefetcher must not double-fetch it.
    fn fetching(&self, shared: &DlfsShared, key: RangeKey) -> bool {
        self.bufs.keys().any(|&idx| {
            let it = &self.plan.items[idx as usize];
            shared.rkey(it.nid, it.offset) == key && self.items[idx as usize].parts_left > 0
        })
    }
}

/// The range a synchronous read fetches through the part engine.
struct SyncFetch {
    nid: u16,
    offset: u64,
    len: u64,
    bufs: Vec<DmaBuf>,
    parts_left: u32,
    /// Retry exhaustion: handed back to the caller, never sticky.
    failed: Option<DlfsError>,
}

/// A sample pinned in the cache by a synchronous read, ready for
/// delivery.
struct PinnedSample {
    id: u32,
    key: RangeKey,
    /// The sample's bytes within the pinned range.
    segments: SegList,
    /// Pin generation, for the unpin.
    gen: u64,
    /// The range was resident already (a cache hit), not faulted in.
    hit: bool,
}

/// Plan-aware prefetcher state: once the current epoch's fetch list is
/// exhausted, the engine warms the *next* epoch's items (this reader's
/// share of the `(seed, epoch+1)` deal) into the cross-epoch cache.
#[derive(Default)]
struct PrefetchState {
    /// `(seed, epoch)` the queue was built for; rebuilt when it goes
    /// stale.
    built_for: Option<(u64, u64)>,
    /// Upcoming ranges to warm, in the next epoch's first-use order.
    queue: VecDeque<(u16, u64, u64)>,
    /// In-flight prefetches: device command → (range key, chunk,
    /// published length).
    inflight: HashMap<u64, (RangeKey, DmaBuf, u64)>,
}

/// In-flight re-replication of one dead node, executed in slices through
/// idle reactor gaps (see [`DlfsIo::begin_rebuild`]).
struct RebuildState {
    plan: RebuildPlan,
    /// Current extent index into `plan.extents`.
    ext: usize,
    /// Next block within the current extent.
    blk: u64,
    /// Blocks walked so far (copied, found clean, or failed).
    walked: u64,
    /// Blocks no surviving replica could serve.
    failed: u64,
}

/// A per-thread DLFS I/O handle.
pub struct DlfsIo {
    shared: Arc<DlfsShared>,
    qpairs: Vec<IoQPair>,
    epoch: Option<Epoch>,
    /// The part table: device command → the part it reads.
    inflight: HashMap<u64, Part>,
    /// Parts awaiting qpair submission.
    pending: VecDeque<Part>,
    /// Failed parts waiting out their retry backoff.
    delayed: BinaryHeap<DelayedPart>,
    delay_seq: u64,
    /// The synchronous read whose parts are in the part table, if any.
    sync: Option<SyncFetch>,
    next_cmd: u64,
    /// Parts whose delivered bytes failed checksum verification at least
    /// once: a verified success from a replica then read-repairs the home
    /// extent, and retry exhaustion surfaces `Corrupt` instead of a plain
    /// I/O error.
    mismatched: HashSet<(Owner, u32)>,
    /// Hedge pairing: cmd → (partner cmd, partner's qpair, whether *this*
    /// cmd is the late-issued duplicate). The first verified completion of
    /// a pair delivers; its partner is cancelled (or silently dropped).
    hedges: HashMap<u64, (u64, usize, bool)>,
    /// Primaries due for a hedged duplicate: (due instant, cmd).
    hedge_due: BinaryHeap<Reverse<(Time, u64)>>,
    /// Background scrub position: (storage node, block within its data
    /// region).
    scrub_cursor: (usize, u64),
    /// In-flight node rebuild, throttled through idle reactor gaps
    /// (`rebuild_gap_blocks` per gap) so foreground reads keep their
    /// latency; `None` when full redundancy holds.
    rebuild: Option<RebuildState>,
    /// Deadline of the in-progress `submit` call; retry backoffs are
    /// clamped so a resubmission is never pointlessly scheduled past it.
    current_deadline: Option<Time>,
    registry: Registry,
    tel: IoTelemetry,
    /// Dispatch instant per copy slot of the in-progress `submit` call
    /// (slot indices restart at zero each call).
    copy_dispatch_at: Vec<Time>,
    /// Plan-aware prefetcher (active only with `CacheMode::CrossEpoch`
    /// and `prefetch_window > 0`).
    prefetch: PrefetchState,
    /// Completion-event feed: every qpair submit reports its completion
    /// instant here, so the engine advances straight to the next event
    /// instead of spinning poll iterations toward it.
    clock: Arc<CompletionClock>,
    /// Reactor activity counters (`dlfs.reactor.*`; detached from the
    /// registry unless [`DlfsConfig::reactor_stats`] is set).
    rstats: ReactorStats,
}

impl std::fmt::Debug for DlfsIo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DlfsIo")
            .field("reader", &self.shared.reader_id)
            .finish()
    }
}

impl DlfsIo {
    pub fn new(shared: Arc<DlfsShared>) -> DlfsIo {
        DlfsIo::with_registry(shared, &Registry::new())
    }

    /// Build an I/O handle recording its telemetry into `reg`: engine
    /// metrics under `dlfs.io.*`, per-device qpair metrics under
    /// `blocksim.dev{n}.*`.
    pub fn with_registry(shared: Arc<DlfsShared>, reg: &Registry) -> DlfsIo {
        let qd = shared.cfg.queue_depth;
        let clock = CompletionClock::new();
        let qpairs = shared
            .targets
            .iter()
            .enumerate()
            .map(|(nid, t)| {
                let mut qp = IoQPair::new(t.clone(), qd);
                qp.attach_telemetry(&reg.scoped(&format!("blocksim.dev{nid}")));
                qp.attach_completion_hook(clock.clone(), nid);
                qp
            })
            .collect();
        let cross_epoch = shared.cfg.cache_mode == CacheMode::CrossEpoch;
        if cross_epoch {
            shared.cache.attach_telemetry(&reg.scoped("dlfs.cache"));
        }
        let membership = shared
            .redundancy
            .as_deref()
            .and_then(|r| r.membership.as_ref());
        if let Some(m) = membership {
            m.attach_telemetry(&reg.scoped("dlfs.membership"));
        }
        let membership = membership.is_some();
        DlfsIo {
            tel: IoTelemetry::new(
                reg,
                cross_epoch,
                shared.redundancy.is_some(),
                membership,
                shared.codec.is_some(),
                shared.cfg.offload,
            ),
            rstats: ReactorStats::new(reg, shared.cfg.reactor_stats),
            registry: reg.clone(),
            shared,
            qpairs,
            epoch: None,
            inflight: HashMap::new(),
            pending: VecDeque::new(),
            delayed: BinaryHeap::new(),
            delay_seq: 0,
            sync: None,
            next_cmd: 1,
            mismatched: HashSet::new(),
            hedges: HashMap::new(),
            hedge_due: BinaryHeap::new(),
            scrub_cursor: (0, 0),
            rebuild: None,
            current_deadline: None,
            copy_dispatch_at: Vec::new(),
            prefetch: PrefetchState::default(),
            clock,
        }
    }

    /// Snapshot of this handle's metrics: `dlfs.io.*` engine counters,
    /// per-stage latency histograms and `blocksim.dev*` qpair stats.
    pub fn metrics(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// The registry this handle records into (shared when constructed via
    /// [`DlfsIo::with_registry`]).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    pub fn shared(&self) -> &Arc<DlfsShared> {
        &self.shared
    }

    /// Abandon the current epoch: wait out in-flight device commands (SPDK
    /// cannot cancel a submitted command) and release every sample-cache
    /// range the plan still holds. Called by `sequence` when an epoch is
    /// replaced before being fully consumed.
    fn abort_epoch(&mut self, rt: &Runtime) {
        let ep = self.epoch.take();
        // Queued and parked parts of the old plan are never posted.
        self.pending.clear();
        self.delayed.clear();
        self.hedge_due.clear();
        // Drain outstanding commands, in-flight prefetches included (their
        // chunks would leak if merely forgotten). The teardown harvest
        // charges nothing and drops the old plan's parts unresolved.
        while !self.inflight.is_empty() || !self.prefetch.inflight.is_empty() {
            if self.harvest(rt, None, true) == 0 {
                self.await_event(rt);
            }
        }
        self.hedges.clear();
        self.mismatched.clear();
        let Some(ep) = ep else {
            return; // only prefetches were outstanding
        };
        for (idx, bufs) in ep.bufs {
            let it = &ep.plan.items[idx as usize];
            let key = self.shared.rkey(it.nid, it.offset);
            if self.shared.cache.contains(key) {
                // Published: the cache owns the chunks. EpochScoped:
                // release retires them (deferred if zero-copy samples
                // still pin the range). CrossEpoch: the range survives on
                // the evictable LRU tail for the replacing epoch. An
                // eviction racing the teardown already reclaimed the
                // chunks; nothing left to do for that key.
                let _ = self.shared.cache.release(key);
            } else {
                // Never became resident: return our chunks directly.
                for b in bufs {
                    self.shared.cache.free_raw(b);
                }
            }
            for &sample in &it.samples {
                self.shared.dir.set_valid(sample, false);
            }
        }
    }

    /// `dlfs_sequence`: derive this reader's epoch plan from the collective
    /// seed. Every reader calling with the same (seed, epoch) computes the
    /// same global plan with no network traffic (paper §III-D1). Any
    /// partially-consumed previous epoch is aborted first.
    pub fn sequence(&mut self, rt: &Runtime, seed: u64, epoch: u64) -> usize {
        self.abort_epoch(rt);
        let cfg = &self.shared.cfg;
        let mode = cfg.effective_mode(self.shared.dir.avg_sample_bytes());
        let plan = build_epoch_plan(
            &self.shared.dir,
            cfg.chunk_size,
            self.shared.readers,
            mode,
            cfg.window_chunks,
            seed,
            epoch,
        );
        let mine = plan.readers[self.shared.reader_id].clone();
        let items = mine
            .items
            .iter()
            .map(|it| ItemRt {
                parts_left: 0,
                samples_total: it.samples.len() as u32,
                dispatched: 0,
                copies_done: 0,
                base: 0,
            })
            .collect();
        let n = mine.samples();
        // A queue built during the previous epoch targeted *this* one;
        // whatever it already warmed is found by the demand probes, the
        // rest is stale.
        self.prefetch.queue.clear();
        self.prefetch.built_for = None;
        self.epoch = Some(Epoch {
            seed,
            epoch,
            plan: mine,
            items,
            resident_ready: Vec::new(),
            total_dispatched: 0,
            total: n,
            next_fetch: 0,
            bufs: HashMap::new(),
            open_items: 0,
            rng: SplitMix64::derive(seed ^ 0xD15B, epoch * 7919 + self.shared.reader_id as u64),
            failed: None,
        });
        n
    }

    /// Samples remaining in the current epoch plan.
    pub fn remaining(&self) -> usize {
        self.epoch
            .as_ref()
            .map(|e| e.total - e.total_dispatched)
            .unwrap_or(0)
    }

    /// The planned delivery order of the current epoch (statistically
    /// equivalent to the engine's resident-random draw; used by the
    /// Fig. 13 order extraction).
    pub fn planned_order(&self) -> Option<&[u32]> {
        self.epoch.as_ref().map(|e| &e.plan.order[..])
    }

    /// Device-read geometry of the fetch range `(nid, offset, len)`:
    /// `(slba, read blocks, alloc bytes)`. The historical path reads
    /// exactly the covering blocks. Under a codec the range is the stored
    /// frame covering `offset`: only its encoded prefix is read off the
    /// device (which can exceed the covering blocks of a short fetch range
    /// when a padded frame stored verbatim), but the allocation covers the
    /// frame's full raw extent so it can be decoded in place after
    /// verification.
    fn read_geometry(&self, nid: u16, offset: u64, len: u64) -> (u64, u32, u64) {
        let Some(tables) = self.shared.codec.as_deref() else {
            let (slba, nblocks, _) = covering_blocks(offset, len);
            return (slba, nblocks, nblocks as u64 * BLOCK_SIZE);
        };
        let chunk = self.shared.cfg.chunk_size;
        let frames = &tables.per_node[nid as usize];
        let f = frames.frame_of(chunk, offset);
        let start = frames.base + f as u64 * chunk;
        debug_assert_eq!(start % BLOCK_SIZE, 0, "frames are block-aligned");
        let raw = frames.raw_len(chunk, f) as u64;
        (
            start / BLOCK_SIZE,
            tables.enc_blocks(nid as usize, f),
            raw.div_ceil(BLOCK_SIZE) * BLOCK_SIZE,
        )
    }

    /// Decode the stored frames of a fetched range in place (stored
    /// encoded prefix → raw frame bytes) before they become visible to any
    /// consumer — the sample cache only ever holds decoded bytes, so every
    /// warm path and zero-copy pin serves raw data. Runs strictly *after*
    /// block verification and read-repair, which cover the stored bytes.
    /// Charges `rt` the configured decoder throughput (`None`: a target
    /// decoded for an offload batch and was charged already) and records
    /// the `dlfs.codec.*` counters. No-op without a codec. A frame that
    /// does not decode is a typed [`DlfsError::Corrupt`] with a
    /// [`CorruptCause::Codec`] cause.
    fn decode(
        &self,
        rt: Option<&Runtime>,
        nid: u16,
        offset: u64,
        bufs: &[DmaBuf],
    ) -> Result<(), DlfsError> {
        let Some(tables) = self.shared.codec.as_deref() else {
            return Ok(());
        };
        let chunk = self.shared.cfg.chunk_size;
        let frames = &tables.per_node[nid as usize];
        let f = frames.frame_of(chunk, offset);
        let enc_len = frames.lens[f] as usize;
        let raw_len = frames.raw_len(chunk, f);
        if let Some(rt) = rt {
            rt.work(self.shared.cfg.costs.decode(raw_len as u64));
        }
        self.tel.codec_bytes_in.add(enc_len as u64);
        self.tel.codec_bytes_out.add(raw_len as u64);
        if enc_len == raw_len {
            return Ok(()); // stored verbatim: the buffer already holds raw bytes
        }
        debug_assert_eq!(bufs.len(), 1, "a coded frame fits one cache chunk");
        let codec = tables.kind.codec();
        let frame = frames.base + f as u64 * chunk;
        bufs[0].with_mut(|d| {
            let raw = codec
                .decode(&d[..enc_len], raw_len)
                .map_err(|e| undecodable(frame, e))?;
            d[..raw_len].copy_from_slice(&raw);
            Ok(())
        })
    }

    /// Check the stored bytes of `nblocks` home blocks at `slba` of `nid`
    /// (the prefix of `buf`) against the integrity tables; true when they
    /// verify or the instance does not verify reads. Charges `rt` the
    /// per-block verify cost (`None`: a target verified them for an
    /// offload batch and was charged already).
    fn verify(
        &self,
        rt: Option<&Runtime>,
        nid: u16,
        slba: u64,
        nblocks: u32,
        buf: &DmaBuf,
    ) -> bool {
        let Some(red) = self.shared.redundancy.as_deref().filter(|r| r.verify()) else {
            return true;
        };
        if let Some(rt) = rt {
            rt.work(self.shared.cfg.costs.verify_block * nblocks as u64);
        }
        self.tel.iv_verified.add(nblocks as u64);
        let span = nblocks as usize * BLOCK_SIZE as usize;
        let ok = buf.with(|d| red.verify_blocks(nid, slba, &d[..span]));
        if !ok {
            self.tel.iv_mismatches.inc();
        }
        ok
    }

    /// Read-repair: the home copy of these blocks failed its checksum
    /// earlier; rewrite it from verified replica bytes (clears sticky
    /// media faults too).
    fn read_repair(&self, nid: u16, slba: u64, nblocks: u32, buf: &DmaBuf) {
        let home = &self.shared.targets[nid as usize];
        buf.with(|d| home.dma_write(slba, &d[..nblocks as usize * BLOCK_SIZE as usize]));
        self.tel.iv_repairs.inc();
    }

    /// Device and device block serving replica `r` of home block `slba` on
    /// `nid` (replica 0 is the home copy).
    fn route(&self, nid: u16, r: u32, slba: u64) -> (u16, u64) {
        match self.shared.redundancy.as_deref() {
            Some(red) if red.replicas > 1 => red.route(nid, r, slba),
            _ => (nid, slba),
        }
    }

    /// Allocate cache chunks for `bytes`, waiting out momentary pool
    /// pressure (another thread's release, a dropped zero-copy sample)
    /// under the shared retry policy — bounded exponential backoff in
    /// virtual CPU time, never past `deadline` — then
    /// [`DlfsError::CacheExhausted`].
    fn alloc_backoff(
        &self,
        rt: &Runtime,
        bytes: u64,
        deadline: Option<Time>,
    ) -> Result<Vec<DmaBuf>, DlfsError> {
        let mut failures = 0u32;
        loop {
            if let Some(bufs) = self.shared.cache.alloc_for(bytes) {
                return Ok(bufs);
            }
            failures += 1;
            let retry = &self.shared.cfg.retry;
            let Some(backoff) = retry.next_delay_before(failures, rt.now(), deadline) else {
                return Err(DlfsError::CacheExhausted);
            };
            rt.work(backoff);
        }
    }

    /// Start fetching the epoch's next item: probe the cross-epoch cache
    /// first, else allocate cache chunks and queue the item's parts. A
    /// caller that cannot progress otherwise (`wait`) waits out cache
    /// pressure via [`DlfsIo::alloc_backoff`]. False when the item cannot
    /// open yet: a prefetch of exactly this range is in flight (its
    /// completion publishes the range; don't double-fetch), or cache
    /// backpressure (retry after a release frees or unpins something).
    fn start_fetch(&mut self, rt: &Runtime, ep: &mut Epoch, wait: bool) -> Result<bool, DlfsError> {
        let idx = ep.next_fetch as u32;
        let it = &ep.plan.items[idx as usize];
        let (slba, _, alloc_bytes) = self.read_geometry(it.nid, it.offset, it.len);
        let key = self.shared.rkey(it.nid, it.offset);
        ep.items[idx as usize].base = slba * BLOCK_SIZE;
        if self.shared.cfg.cache_mode == CacheMode::CrossEpoch {
            // Residency probe: a previous epoch (or the prefetcher) may
            // already hold this exact range — warm items skip the device
            // entirely.
            if let Some((bufs, len, was_prefetched)) = self.shared.cache.acquire(key) {
                // Under a codec a synchronous read may have parked the
                // whole (longer) raw frame under this key.
                debug_assert!(
                    if self.shared.codec.is_some() {
                        len >= it.len
                    } else {
                        len == it.len
                    },
                    "cached range geometry drifted"
                );
                self.tel.ce_hits.inc();
                if was_prefetched {
                    self.tel.prefetch_hits.inc();
                }
                for &s in &it.samples {
                    self.shared.dir.set_valid(s, true);
                }
                ep.items[idx as usize].parts_left = 0;
                ep.bufs.insert(idx, bufs);
                ep.open_items += 1;
                ep.resident_ready.push(idx);
                return Ok(true);
            }
            if self.prefetch.inflight.values().any(|p| p.0 == key) {
                // The range is already on the wire as a prefetch; fetching
                // it again would double-publish. Its completion will
                // publish it, and the next probe will hit.
                return Ok(false);
            }
            self.tel.ce_misses.inc();
        }
        let bufs = if wait {
            self.alloc_backoff(rt, alloc_bytes, self.current_deadline)?
        } else {
            match self.shared.cache.alloc_for(alloc_bytes) {
                Some(bufs) => bufs,
                None => return Ok(false),
            }
        };
        ep.items[idx as usize].parts_left = self.queue_parts(Owner::Item(idx), &bufs);
        ep.bufs.insert(idx, bufs);
        ep.open_items += 1;
        Ok(true)
    }

    /// Queue every part of `owner`'s freshly allocated range (one per
    /// buffer) for posting; returns the part count.
    fn queue_parts(&mut self, owner: Owner, bufs: &[DmaBuf]) -> u32 {
        let parts = bufs.len() as u32;
        self.pending.extend((0..parts).map(|part| Part {
            owner,
            part,
            attempt: 0,
            replica: 0,
        }));
        parts
    }

    /// Pump stage: keep the fetch window full, post what is due (see
    /// [`DlfsIo::flush`]) and, with the plan's own fetch list exhausted,
    /// warm the next epoch.
    fn pump(&mut self, rt: &Runtime, ep: &mut Epoch) -> Result<usize, DlfsError> {
        let window = self.shared.cfg.window_chunks;
        let mut progressed = 0;
        while ep.next_fetch < ep.plan.items.len() {
            // The pipeline must never starve: with nothing open at all, a
            // fetch is mandatory regardless of the window budget, and
            // waits out cache pressure (a sibling handle on the same pool
            // may hold every chunk) rather than give up at once.
            let starving = ep.open_items == 0;
            if ep.open_items >= 2 * window && !starving {
                break;
            }
            if !self.start_fetch(rt, ep, starving)? {
                break; // progress comes from polling or releases
            }
            ep.next_fetch += 1;
            progressed += 1;
        }
        progressed += self.flush(rt, Some(ep));
        progressed += self.pump_prefetch(rt, ep);
        Ok(progressed)
    }

    /// Post stage, shared by every owner: move retries whose backoff has
    /// elapsed into the submit queue, post every queued part the qpairs
    /// have room for in one doorbell flush, then fire due hedges.
    fn flush(&mut self, rt: &Runtime, ep: Option<&Epoch>) -> usize {
        let mut progressed = 0;
        let now = rt.now();
        while let Some(&Reverse((ready_at, _, part))) = self.delayed.peek() {
            if ready_at > now {
                break;
            }
            self.delayed.pop();
            self.pending.push_back(part);
            progressed += 1;
        }
        let mut flushed = false;
        while let Some(&part) = self.pending.front() {
            if !self.post_part(rt, ep, part, true) {
                self.charge_rejected_post(rt);
                break; // queue full; poll first
            }
            self.pending.pop_front();
            progressed += 1;
            flushed = true;
        }
        if flushed {
            self.rstats.doorbells.inc();
        }
        if self.hedging() {
            progressed += self.fire_hedges(rt, ep);
        }
        progressed
    }

    /// A flush that stops at a full qpair still pays one prep + post,
    /// unrecorded in the stage histograms: the legacy engine discovered
    /// the full queue by paying for the rejected submit, and the virtual
    /// clock stays identical to it.
    fn charge_rejected_post(&self, rt: &Runtime) {
        rt.work(self.shared.cfg.costs.prep_request);
        rt.work(self.shared.cfg.costs.post_request);
    }

    /// Are demand reads hedged (config `hedge_reads`, replicas >= 2)?
    fn hedging(&self) -> bool {
        self.shared.cfg.hedge_reads
            && self
                .shared
                .redundancy
                .as_deref()
                .is_some_and(|r| r.replicas > 1)
    }

    /// Submit one device read on qpair `dev` — prep + post, both recorded
    /// per stage. `None`, with nothing posted or charged, when the qpair
    /// is full.
    fn post(
        &mut self,
        rt: &Runtime,
        dev: usize,
        slba: u64,
        nblocks: u32,
        buf: DmaBuf,
    ) -> Option<u64> {
        if self.qpairs[dev].outstanding() >= self.shared.cfg.queue_depth {
            return None;
        }
        let costs = &self.shared.cfg.costs;
        let cmd = self.next_cmd;
        let t0 = rt.now();
        rt.work(costs.prep_request);
        let t1 = rt.now();
        rt.work(costs.post_request);
        self.qpairs[dev]
            .submit_read(rt, cmd, slba, nblocks, buf, 0)
            .expect("capacity checked before staging");
        self.tel.prep_ns.record_dur(t1 - t0);
        self.tel.post_ns.record_dur(rt.now() - t1);
        self.next_cmd += 1;
        self.tel.requests_posted.inc();
        Some(cmd)
    }

    /// Submit one part, whoever owns it: split its geometry out of the
    /// owner's range, route it (`pick`: the health-aware choice starting
    /// at its preferred replica; otherwise exactly that replica, as for a
    /// hedge twin), post it, enter it in the part table and — for a picked
    /// primary — arm its hedge. False, posting nothing, when the target
    /// qpair is full.
    fn post_part(&mut self, rt: &Runtime, ep: Option<&Epoch>, part: Part, pick: bool) -> bool {
        let (nid, slba, nblocks, buf) = self.part_span(ep, part);
        let replica = match self.shared.redundancy.as_deref() {
            Some(red) if red.replicas > 1 && pick => red.pick_replica(nid, part.replica, rt.now()),
            Some(red) if red.replicas > 1 => part.replica,
            _ => 0,
        };
        let (dev, dev_slba) = self.route(nid, replica, slba);
        let Some(cmd) = self.post(rt, dev as usize, dev_slba, nblocks, buf) else {
            return false;
        };
        self.inflight.insert(cmd, Part { replica, ..part });
        if pick && self.hedging() {
            self.hedge_due
                .push(Reverse((rt.now() + self.hedge_delay(rt.now()), cmd)));
        }
        true
    }

    /// Home geometry of one part: `(home node, home slba, blocks, buffer)`.
    fn part_span(&self, ep: Option<&Epoch>, part: Part) -> (u16, u64, u32, DmaBuf) {
        let (nid, offset, len, bufs) = match part.owner {
            Owner::Item(idx) => {
                let ep = ep.expect("item parts live only with their epoch");
                let it = &ep.plan.items[idx as usize];
                (it.nid, it.offset, it.len, &ep.bufs[&idx])
            }
            Owner::Sync => {
                let s = self.sync.as_ref().expect("sync part without a sync read");
                (s.nid, s.offset, s.len, &s.bufs)
            }
        };
        let (slba, total, _) = self.read_geometry(nid, offset, len);
        let per_chunk = (self.shared.cfg.chunk_size / BLOCK_SIZE) as u32;
        let start = part.part * per_chunk;
        (
            nid,
            slba + start as u64,
            (total - start).min(per_chunk),
            bufs[part.part as usize].clone(),
        )
    }

    /// Delay before a demand read is hedged with a duplicate on the next
    /// replica: a quarter of the remaining deadline budget, floored so
    /// near-deadline batches don't hedge instantly.
    fn hedge_delay(&self, now: Time) -> Dur {
        match self.current_deadline {
            Some(dl) if dl > now => {
                let quarter = Dur::nanos((dl - now).as_nanos() / 4);
                quarter.max(Dur::micros(5))
            }
            _ => Dur::micros(50),
        }
    }

    /// Issue hedged duplicates for primaries that have been in flight past
    /// their hedge delay. The duplicate reads the *next* replica into the
    /// same buffer; whichever command completes (and verifies) first
    /// delivers the part, and its partner is cancelled on the device.
    fn fire_hedges(&mut self, rt: &Runtime, ep: Option<&Epoch>) -> usize {
        let Some(red) = self.shared.redundancy.clone() else {
            return 0;
        };
        let mut fired = 0;
        while let Some(&Reverse((due, cmd))) = self.hedge_due.peek() {
            if due > rt.now() {
                break;
            }
            self.hedge_due.pop();
            // Already completed, or already hedged: nothing to do.
            let Some(&part) = self.inflight.get(&cmd) else {
                continue;
            };
            if self.hedges.contains_key(&cmd) {
                continue;
            }
            let (nid, slba, _, _) = self.part_span(ep, part);
            let r2 = (part.replica + 1) % red.replicas;
            let (dev1, _) = red.route(nid, part.replica, slba);
            let (dev2, _) = red.route(nid, r2, slba);
            if r2 == part.replica || dev2 == dev1 {
                continue; // no distinct copy to hedge onto
            }
            if !self.post_part(
                rt,
                ep,
                Part {
                    replica: r2,
                    ..part
                },
                false,
            ) {
                continue; // no room; the primary keeps sole ownership
            }
            let cmd2 = self.next_cmd - 1;
            self.tel.iv_hedges.inc();
            self.hedges.insert(cmd, (cmd2, dev2 as usize, false));
            self.hedges.insert(cmd2, (cmd, dev1 as usize, true));
            fired += 1;
        }
        fired
    }

    /// Plan-aware prefetch (paper-adjacent: the epoch access sequence is
    /// known at `dlfs_sequence` time, so the *next* epoch's is too). Once
    /// the current epoch has no more items to open, post single-chunk
    /// fetches for the ranges epoch+1 will deal to this reader — newest
    /// data lands in the cross-epoch cache as released (evictable)
    /// ranges, warming the next epoch's head during this one's tail.
    /// Clamped by the prefetch window, pool headroom (demand fetches keep
    /// `window_chunks` of reserve) and qpair depth. Prefetches post like
    /// any part but stay outside the part table: best effort, no retries.
    fn pump_prefetch(&mut self, rt: &Runtime, ep: &Epoch) -> usize {
        let cfg = &self.shared.cfg;
        let pf_window = cfg.prefetch_window;
        if pf_window == 0 || cfg.cache_mode != CacheMode::CrossEpoch {
            return 0;
        }
        if ep.next_fetch < ep.plan.items.len() {
            return 0; // demand fetches still pending; they have priority
        }
        let next = (ep.seed, ep.epoch + 1);
        if self.prefetch.built_for != Some(next) {
            let mode = cfg.effective_mode(self.shared.dir.avg_sample_bytes());
            self.prefetch.queue = reader_item_ranges(
                &self.shared.dir,
                cfg.chunk_size,
                self.shared.readers,
                mode,
                next.0,
                next.1,
                self.shared.reader_id,
            )
            .into();
            self.prefetch.built_for = Some(next);
        }
        let chunk = cfg.chunk_size;
        let reserve = cfg.window_chunks;
        let mut progressed = 0;
        while self.prefetch.inflight.len() < pf_window {
            let Some(&(nid, offset, len)) = self.prefetch.queue.front() else {
                break;
            };
            let key = self.shared.rkey(nid, offset);
            let (slba, nblocks, bytes) = self.read_geometry(nid, offset, len);
            if bytes > chunk
                || self.shared.cache.contains(key)
                || self.prefetch.inflight.values().any(|p| p.0 == key)
                || ep.fetching(&self.shared, key)
            {
                // Multi-chunk edge items aren't worth speculative slots;
                // already-resident or in-flight ranges need no warming.
                self.prefetch.queue.pop_front();
                continue;
            }
            let Some(mut bufs) = self.shared.cache.alloc_prefetch(bytes, reserve) else {
                break; // no speculative headroom; retry when pressure drops
            };
            debug_assert_eq!(bufs.len(), 1);
            let buf = bufs.pop().expect("single chunk");
            let Some(cmd) = self.post(rt, nid as usize, slba, nblocks, buf.clone()) else {
                self.charge_rejected_post(rt);
                self.shared.cache.free_raw(buf);
                break; // qpair full; demand completions first
            };
            self.tel.prefetch_issued.inc();
            self.prefetch.queue.pop_front();
            self.prefetch.inflight.insert(cmd, (key, buf, len));
            progressed += 1;
        }
        if progressed > 0 {
            self.rstats.doorbells.inc();
        }
        progressed
    }

    /// Route the completion of a prefetch command: publish the warmed
    /// range (born released/evictable), or — on failure, or if the range
    /// became resident meanwhile — return the chunk. Prefetches are
    /// best-effort: no retries; a miss simply falls back to a demand
    /// fetch next epoch.
    fn prefetch_complete(&mut self, rt: &Runtime, cmd: u64, status: CmdStatus) {
        let (key, buf, len) = self
            .prefetch
            .inflight
            .remove(&cmd)
            .expect("completion for unknown command");
        let nid = crate::cache::key_node(key);
        // Prefetched bytes are published into the cache, so they must pass
        // checksum verification like any demand read; a corrupt prefetch is
        // simply dropped (demand reads repair via replicas). A frame that
        // does not decode is dropped too; the demand read of it surfaces
        // the typed error.
        let bufs = std::slice::from_ref(&buf);
        let (slba, nblocks, _) = self.read_geometry(nid, key.1, len);
        if status.is_ok()
            && self.verify(Some(rt), nid, slba, nblocks, &buf)
            && !self.shared.cache.contains(key)
            && self.decode(Some(rt), nid, key.1, bufs).is_ok()
        {
            self.shared.cache.publish_prefetched(key, vec![buf], len);
        } else {
            if status == CmdStatus::TransportError {
                self.tel.timeouts.inc();
            }
            self.shared.cache.free_raw(buf);
        }
    }

    /// Resolve one harvested part: every read path's one completion
    /// policy. With a [`Redundancy`] attached this is where integrity is
    /// enforced: delivered bytes are checksum-verified *before* the part
    /// can land, mismatches and device errors fail straight over to the
    /// next replica, a verified replica copy read-repairs a home extent
    /// that mismatched, and hedge pairs are resolved first-wins. Without
    /// replicas a failed part waits out its retry backoff (clamped to the
    /// batch deadline). An exhausted retry budget fails the owner with
    /// the typed error of [`part_error`]: sticky on the epoch for an item,
    /// handed back to the caller for a synchronous read.
    fn complete_part(
        &mut self,
        rt: &Runtime,
        ep: Option<&mut Epoch>,
        cmd: u64,
        part: Part,
        status: CmdStatus,
    ) {
        // Resolve hedge pairing up front: at most one of the pair lands.
        let hedge = self.hedges.remove(&cmd);
        if let Some((pcmd, _, _)) = hedge {
            self.hedges.remove(&pcmd);
        }
        let (nid, slba, nblocks, buf) = self.part_span(ep.as_deref(), part);
        let (serving, _) = self.route(nid, part.replica, slba);
        let key = (part.owner, part.part);
        // Verify the delivered bytes before anything can land.
        let landed = status.is_ok() && self.verify(Some(rt), nid, slba, nblocks, &buf);
        if landed {
            if self.mismatched.remove(&key) && part.replica > 0 {
                self.read_repair(nid, slba, nblocks, &buf);
            }
        } else if status.is_ok() {
            self.mismatched.insert(key);
        }
        let red = self.shared.redundancy.clone();
        let replicated = red.as_deref().filter(|r| r.replicas > 1);
        if landed {
            if let Some(red) = replicated {
                red.record_ok(serving as usize);
            }
            if let Some((pcmd, pdev, secondary)) = hedge {
                // First verified completion wins: cancel the partner on its
                // device (it never DMAs) and drop its in-flight entry.
                if self.inflight.remove(&pcmd).is_some() {
                    self.qpairs[pdev].cancel(pcmd);
                }
                if secondary {
                    self.tel.iv_hedge_wins.inc();
                }
            }
            self.part_landed(rt, ep, part.owner);
            return;
        }
        // Failed command: device media error, fabric timeout, or delivered
        // bytes that failed their checksum.
        if status == CmdStatus::TransportError {
            self.tel.timeouts.inc();
        }
        if let Some(red) = replicated {
            red.record_failure(serving as usize, rt.now());
        }
        if let Some((pcmd, _, _)) = hedge {
            if self.inflight.contains_key(&pcmd) {
                // The hedged twin is still racing and becomes the part's
                // sole owner: this loss consumes no retry budget.
                return;
            }
        }
        if part.owner == Owner::Sync && self.sync.as_ref().is_some_and(|s| s.failed.is_some()) {
            // The read already failed: its in-flight parts only drain, and
            // none may be parked for a retry that outlives it.
            return;
        }
        let tried = part.attempt + 1;
        let Some(backoff) = self.shared.cfg.retry.next_delay(tried) else {
            let e = part_error(nid, slba, tried, status, self.mismatched.contains(&key));
            match part.owner {
                Owner::Item(_) => {
                    let ep = ep.expect("item parts live only with their epoch");
                    ep.failed.get_or_insert(e);
                }
                Owner::Sync => {
                    // Nothing more of the read is posted; its in-flight
                    // parts drain before the caller sees the error.
                    let s = self.sync.as_mut().expect("sync part without a sync read");
                    s.failed.get_or_insert(e);
                    self.pending.retain(|p| p.owner != Owner::Sync);
                    self.delayed
                        .retain(|Reverse((_, _, p))| p.owner != Owner::Sync);
                }
            }
            return;
        };
        self.tel.retries.inc();
        let retry = Part {
            attempt: tried,
            ..part
        };
        if replicated.is_some() {
            // Fail straight over to the next replica in rotation — another
            // copy can serve *now*, so no backoff.
            self.tel.iv_failovers.inc();
            self.pending.push_back(Part {
                replica: part.replica + 1,
                ..retry
            });
        } else {
            let mut ready_at = rt.now() + backoff;
            if let Some(dl) = self.current_deadline {
                // Never park a retry past the batch deadline: the caller is
                // about to give up waiting anyway.
                ready_at = ready_at.min(dl.max(rt.now()));
            }
            self.delay_seq += 1;
            self.delayed
                .push(Reverse((ready_at, self.delay_seq, retry)));
        }
    }

    /// A part landed intact. A synchronous read counts it down; an item's
    /// last part decodes its frame (codec datasets; verification covered
    /// the stored bytes), publishes the range in the sample cache, flips
    /// the V field of its samples and offers it to the delivery draw.
    fn part_landed(&mut self, rt: &Runtime, ep: Option<&mut Epoch>, owner: Owner) {
        let Owner::Item(idx) = owner else {
            self.sync
                .as_mut()
                .expect("sync part without a sync read")
                .parts_left -= 1;
            return;
        };
        let ep = ep.expect("item parts live only with their epoch");
        let item = &mut ep.items[idx as usize];
        item.parts_left -= 1;
        if item.parts_left > 0 {
            return;
        }
        let it = &ep.plan.items[idx as usize];
        let bufs = &ep.bufs[&idx];
        if let Err(e) = self.decode(Some(rt), it.nid, it.offset, bufs) {
            // An undecodable frame can never be delivered: the plan cannot
            // complete. Its chunks stay with the epoch and return to the
            // pool at teardown.
            ep.failed.get_or_insert(e);
            return;
        }
        self.shared
            .cache
            .publish(self.shared.rkey(it.nid, it.offset), bufs.clone(), it.len);
        for &s in &it.samples {
            self.shared.dir.set_valid(s, true);
        }
        ep.resident_ready.push(idx);
    }

    /// Harvest every due completion across the qpairs and resolve it:
    /// parts through [`DlfsIo::complete_part`], prefetches through
    /// [`DlfsIo::prefetch_complete`]. The sweep is event-driven — only
    /// queues whose earliest completion is due get a pass — and the check
    /// is live (per-completion work advances the clock mid-sweep, so a
    /// later queue may become due during this pass) and in index order;
    /// both are load-bearing for determinism. A `teardown` harvest (epoch
    /// abort) charges nothing and drops parts unresolved.
    fn harvest(&mut self, rt: &Runtime, mut ep: Option<&mut Epoch>, teardown: bool) -> usize {
        let per_completion = self.shared.cfg.costs.per_completion;
        let mut harvested = 0;
        for q in 0..self.qpairs.len() {
            match self.qpairs[q].next_completion_at() {
                Some(t) if t <= rt.now() => {}
                _ => continue,
            }
            for comp in self.qpairs[q].process_completions(rt, usize::MAX) {
                harvested += 1;
                if !teardown {
                    rt.work(per_completion);
                    self.tel.completions.inc();
                }
                match self.inflight.remove(&comp.id) {
                    Some(_) if teardown => {}
                    Some(part) => {
                        self.complete_part(rt, ep.as_deref_mut(), comp.id, part, comp.status)
                    }
                    None => self.prefetch_complete(rt, comp.id, comp.status),
                }
            }
        }
        harvested
    }

    /// Poll stage: one charged sweep of the completion queues (the shared
    /// completion queue consolidates the per-spin cost into one pass).
    fn poll(&mut self, rt: &Runtime, ep: Option<&mut Epoch>) -> usize {
        let costs = &self.shared.cfg.costs;
        self.tel.poll_spins.inc();
        if self.shared.cfg.shared_completion_queue {
            rt.work(costs.poll_iteration);
        } else {
            rt.work(costs.poll_iteration * self.qpairs.len() as u64);
        }
        let harvested = self.harvest(rt, ep, false);
        if harvested == 0 {
            self.tel.scq_empty_polls.inc();
        } else {
            self.tel.scq_drains.inc();
            self.tel.scq_drain_batch.record(harvested as u64);
        }
        harvested
    }

    /// Account one delivered sample of `idx`; release its item when fully
    /// drained. `EpochScoped`: chunks go back to the pool (or, if
    /// zero-copy samples still pin them, when the last pin drops).
    /// `CrossEpoch`: the range joins the evictable LRU tail and may serve
    /// the next epoch without device I/O.
    fn account_delivery(&mut self, ep: &mut Epoch, idx: u32) {
        let item = &mut ep.items[idx as usize];
        item.copies_done += 1;
        if item.copies_done == item.samples_total {
            ep.bufs.remove(&idx);
            let it = &ep.plan.items[idx as usize];
            // The engine still holds this range (never released), so it
            // cannot have been evicted; a miss means an eviction or
            // teardown won a race and already reclaimed the chunks.
            let _ = self
                .shared
                .cache
                .release(self.shared.rkey(it.nid, it.offset));
            ep.open_items -= 1;
            for &s in &it.samples {
                self.shared.dir.set_valid(s, false);
            }
        }
    }

    /// Account a finished copy; retire its item when fully drained.
    fn finish_copy(&mut self, rt: &Runtime, ep: &mut Epoch, done: &CopyDone) -> usize {
        let idx = (done.tag >> 32) as u32;
        let slot = (done.tag & 0xFFFF_FFFF) as usize;
        self.account_delivery(ep, idx);
        self.tel.samples_delivered.inc();
        self.tel.bytes_delivered.add(done.data.len() as u64);
        self.tel
            .copy_ns
            .record_dur(rt.now() - self.copy_dispatch_at[slot]);
        slot
    }

    /// Execute a [`ReadRequest`] against the current epoch plan: the one
    /// batched-read entry point, for both delivery modes and offload.
    ///
    /// Returns `EpochExhausted` once the plan is drained and `NoSequence`
    /// before the first [`DlfsIo::sequence`]. With a deadline, the batch
    /// may come back shorter than `req.n` (but never torn: samples already
    /// handed to the copy threads always drain).
    pub fn submit(&mut self, rt: &Runtime, req: &ReadRequest) -> Result<Completions, DlfsError> {
        let Some(mut ep) = self.epoch.take() else {
            return Err(DlfsError::NoSequence);
        };
        let out = self.submit_epoch(rt, &mut ep, req);
        self.epoch = Some(ep);
        out
    }

    fn submit_epoch(
        &mut self,
        rt: &Runtime,
        ep: &mut Epoch,
        req: &ReadRequest,
    ) -> Result<Completions, DlfsError> {
        if let Some(e) = &ep.failed {
            // A part of this epoch is permanently lost; the plan cannot
            // complete until `sequence` installs a fresh one.
            return Err(e.clone());
        }
        self.current_deadline = req.deadline;
        let want = req.n.min(ep.total - ep.total_dispatched);
        if want == 0 {
            return Err(DlfsError::EpochExhausted);
        }
        self.tel.batches.inc();
        // QoS admission (multi-tenant mounts only): token-bucket throttle
        // then a WFQ device-slot grant, charged to the request's tenant —
        // the handle's unless the request overrides it. The slot is held
        // for the whole batch and released below even on error.
        let qos = self.shared.qos.clone();
        let grant = match &qos {
            Some(q) => {
                let tenant = req.tenant.unwrap_or(self.shared.tenant);
                Some(q.admit(rt, tenant, q.batch_cost(want))?)
            }
            None => None,
        };
        let outcome = if req.offload {
            self.run_offload(rt, ep, want, req).map(Completions::copied)
        } else {
            self.run(rt, ep, want, req)
        };
        if let Some(q) = &qos {
            let delivered = outcome.as_ref().map(|b| b.len()).unwrap_or(0);
            q.complete(
                grant.expect("granted above"),
                delivered as u64,
                q.batch_cost(delivered),
            );
        }
        let batch = outcome?;
        if batch.len() < want {
            self.tel.deadline_misses.inc();
        }
        Ok(batch)
    }

    /// The engine loop (prep → post → poll → deliver), for both delivery
    /// modes: they differ only in what happens to a drawn sample. Copied
    /// delivery hands it to the copy pool; zero-copy delivery pins its
    /// item (one pin per item per call, shared by that item's samples
    /// through an `Arc`) and hands out a reference at once.
    fn run(
        &mut self,
        rt: &Runtime,
        ep: &mut Epoch,
        want: usize,
        req: &ReadRequest,
    ) -> Result<Completions, DlfsError> {
        let zero_copy = req.delivery == Delivery::ZeroCopy;
        let costs = self.shared.cfg.costs.clone();
        let chunk = self.shared.cfg.chunk_size as usize;
        let (done_tx, done_rx) = rt.channel::<CopyDone>(None);
        let mut copied: Vec<Option<(u32, Vec<u8>)>> = vec![None; if zero_copy { 0 } else { want }];
        let mut pinned: Vec<ZeroCopySample> = Vec::with_capacity(if zero_copy { want } else { 0 });
        let mut item_pins: HashMap<u32, Arc<PinGuard>> = HashMap::new();
        let mut dispatched = 0usize;
        let mut received = 0usize;
        self.copy_dispatch_at.clear();

        while received < want {
            if let Some(e) = ep.failed.clone() {
                // Fatal I/O failure: drain the copies already dispatched
                // (never tear a sample), then surface the error.
                while received < dispatched {
                    let done = done_rx.recv().map_err(|_| DlfsError::CacheExhausted)?;
                    self.finish_copy(rt, ep, &done);
                    received += 1;
                }
                return Err(e);
            }
            let expired = req.deadline.is_some_and(|dl| rt.now() >= dl);
            if expired && received == dispatched {
                // Past the deadline with nothing outstanding: return short.
                break;
            }
            let mut progress = self.pump(rt, ep)?;
            let t_poll = rt.now();
            progress += self.poll(rt, Some(ep));
            self.tel.poll_ns.record_dur(rt.now() - t_poll);
            while !expired && dispatched < want {
                let Some((idx, sample)) = ep.draw() else {
                    break;
                };
                let entry = self.shared.dir.entry(sample);
                let it = &ep.plan.items[idx as usize];
                let within = (entry.offset() - ep.items[idx as usize].base) as usize;
                let segments = segments_at(&ep.bufs[&idx], chunk, within, entry.len() as usize);
                if zero_copy {
                    // Pin the range for the samples' lifetime; no memcpy.
                    let guard = match item_pins.get(&idx) {
                        Some(guard) => guard.clone(),
                        None => {
                            let key = self.shared.rkey(it.nid, it.offset);
                            let (gen, _, _) = self
                                .shared
                                .cache
                                .pin_key(key)
                                .expect("resident range pinnable");
                            let guard = PinGuard::new(self.shared.cache.clone(), key, gen);
                            item_pins.insert(idx, guard.clone());
                            guard
                        }
                    };
                    rt.work(costs.frontend_per_sample);
                    self.tel.cache_pins.inc();
                    self.tel.samples_delivered.inc();
                    self.tel.bytes_delivered.add(entry.len());
                    pinned.push(ZeroCopySample::new(sample, segments, Pin::Shared(guard)));
                    self.account_delivery(ep, idx);
                    received += 1;
                } else {
                    rt.work(costs.frontend_per_sample + costs.copy_dispatch);
                    debug_assert_eq!(self.copy_dispatch_at.len(), dispatched);
                    self.copy_dispatch_at.push(rt.now());
                    self.shared.copy.submit(CopyJob {
                        tag: (idx as u64) << 32 | dispatched as u64,
                        sample,
                        segments,
                        done: done_tx.clone(),
                    });
                }
                dispatched += 1;
                progress += 1;
            }
            // Collect finished copies without blocking.
            while let Ok(done) = done_rx.try_recv() {
                let slot = self.finish_copy(rt, ep, &done);
                copied[slot] = Some((done.sample, done.data));
                received += 1;
                progress += 1;
            }
            if received >= want {
                break;
            }
            if progress == 0 {
                if dispatched > received {
                    // Copies outstanding: block on the copy pool.
                    let done = done_rx.recv().map_err(|_| DlfsError::CacheExhausted)?;
                    let slot = self.finish_copy(rt, ep, &done);
                    copied[slot] = Some((done.sample, done.data));
                    received += 1;
                    continue;
                }
                if expired {
                    break;
                }
                // Waiting on device completions: this is the busy-poll loop
                // the Fig. 7b experiment adds application computation to —
                // the compute overlaps with the in-flight SPDK requests.
                if !req.inject_compute.is_zero() {
                    rt.work(req.inject_compute);
                    continue;
                }
                // Waiting on the devices: spin the poll loop forward to the
                // next event — a completion, or a delayed part's retry
                // instant (busy polling, so it's CPU time).
                self.await_event(rt);
            }
        }
        Ok(if zero_copy {
            Completions::zero_copy(pinned)
        } else {
            Completions::copied(copied.into_iter().flatten().collect())
        })
    }

    /// The storage-side offload path (`ReadRequest::offload`): consume the
    /// next `want` samples of the plan in item order, group them by home
    /// storage node, and issue ONE offload exchange per node — the target
    /// reads the stored frames, verifies and decodes them locally (both
    /// charged to the target's compute pool, not this reader), and ships a
    /// single dense response carrying exactly the requested sample bytes.
    /// Bypasses the qpairs and the sample cache entirely; the per-item
    /// dispatch cursors it shares with the engine keep delivery
    /// exactly-once even if the engine path served part of this epoch.
    /// Deadlines are not honored: the batch is a single remote exchange
    /// with nothing to cut short client-side.
    fn run_offload(
        &mut self,
        rt: &Runtime,
        ep: &mut Epoch,
        want: usize,
        req: &ReadRequest,
    ) -> Result<Vec<(u32, Vec<u8>)>, DlfsError> {
        if req.delivery != Delivery::Copied {
            return Err(DlfsError::Config(
                "offload batches are assembled storage-side; only copied \
                 delivery can cross the fabric"
                    .into(),
            ));
        }
        if !self.shared.cfg.offload {
            return Err(DlfsError::Config(
                "ReadRequest::offload requires DlfsConfig { offload: true, .. }".into(),
            ));
        }
        // 1. Claim the next `want` samples, walking items in plan order.
        let mut taken: Vec<(u16, u64, u64, Vec<u32>)> = Vec::new();
        let mut left = want;
        let mut idx = 0usize;
        while left > 0 && idx < ep.items.len() {
            let done = ep.items[idx].dispatched;
            let take = (ep.items[idx].samples_total - done).min(left as u32);
            if take == 0 {
                idx += 1;
                continue;
            }
            let it = &ep.plan.items[idx];
            let ids = it.samples[done as usize..(done + take) as usize].to_vec();
            ep.items[idx].dispatched += take;
            ep.total_dispatched += take as usize;
            left -= take as usize;
            taken.push((it.nid, it.offset, it.len, ids));
        }
        // 2. One dense request per storage node touched by the batch. The
        //    target is charged what the client no longer pays: block
        //    verification and frame decode, per extent, on its compute
        //    pool.
        let costs = self.shared.cfg.costs.clone();
        let verify = self
            .shared
            .redundancy
            .as_deref()
            .is_some_and(|r| r.verify());
        let mut per_node: BTreeMap<u16, (Vec<OffloadExtent>, u64)> = BTreeMap::new();
        for (nid, offset, len, ids) in &taken {
            let (slba, nblocks, _) = self.read_geometry(*nid, *offset, *len);
            let mut compute = Dur::ZERO;
            if verify {
                compute += costs.verify_block * nblocks as u64;
            }
            if let Some(t) = self.shared.codec.as_deref() {
                let chunk = self.shared.cfg.chunk_size;
                let frames = &t.per_node[*nid as usize];
                compute +=
                    costs.decode(frames.raw_len(chunk, frames.frame_of(chunk, *offset)) as u64);
            }
            let slot = per_node.entry(*nid).or_default();
            slot.0.push(OffloadExtent {
                slba,
                nblocks,
                compute,
            });
            slot.1 += ids
                .iter()
                .map(|&id| self.shared.dir.entry(id).len())
                .sum::<u64>();
        }
        // 3. Timing: one request/process/respond exchange per node, all
        //    concurrent; this reader parks until the last dense response
        //    lands.
        let mut done_at = rt.now();
        for (nid, (extents, payload)) in &per_node {
            let t = self.shared.targets[*nid as usize].reserve_offload(rt.now(), extents, *payload);
            done_at = done_at.max(t);
            self.tel.of_requests.inc();
            self.tel.of_wire_bytes.add(
                CAPSULE_BYTES + extents.len() as u64 * DESCRIPTOR_BYTES + payload + RESPONSE_BYTES,
            );
        }
        // 4. Functional bytes: read + verify (failover / read-repair) +
        //    decode each stored frame, then slice out the samples.
        let mut out = Vec::with_capacity(want);
        for (nid, offset, len, ids) in &taken {
            let (buf, base) = match self.offload_item_bytes(*nid, *offset, *len) {
                Ok(v) => v,
                Err(e) => {
                    // A frame no replica can serve: the plan can no longer
                    // complete (same sticky semantics as the engine path).
                    ep.failed = Some(e.clone());
                    return Err(e);
                }
            };
            for &id in ids {
                let entry = self.shared.dir.entry(id);
                let at = (entry.offset() - base) as usize;
                out.push((id, buf.with(|d| d[at..at + entry.len() as usize].to_vec())));
                self.tel.samples_delivered.inc();
                self.tel.bytes_delivered.add(entry.len());
                self.tel.of_samples.inc();
            }
        }
        self.advance_to(rt, done_at);
        Ok(out)
    }

    /// Read one plan item's stored range for the offload path through the
    /// engine's own verify, failover, read-repair and decode steps — all
    /// before decode cover the stored encoded bytes. Returns the decoded
    /// range and the node byte offset it starts at. Purely functional:
    /// the time was already charged by `reserve_offload` (extent reads +
    /// target-side verify/decode). Replicas are tried in rotation order,
    /// not by health, as the target-side reader would.
    fn offload_item_bytes(
        &mut self,
        nid: u16,
        offset: u64,
        len: u64,
    ) -> Result<(DmaBuf, u64), DlfsError> {
        let (slba, nblocks, alloc) = self.read_geometry(nid, offset, len);
        let replicas = self
            .shared
            .redundancy
            .as_deref()
            .map(|r| r.replicas)
            .unwrap_or(1);
        let buf = DmaBuf::standalone(alloc as usize);
        let span = nblocks as usize * BLOCK_SIZE as usize;
        let mut attempt = 0u32;
        loop {
            let (dev, dev_slba) = self.route(nid, attempt, slba);
            buf.with_mut(|d| self.shared.targets[dev as usize].dma_read(dev_slba, &mut d[..span]));
            if self.verify(None, nid, slba, nblocks, &buf) {
                if attempt > 0 {
                    self.read_repair(nid, slba, nblocks, &buf);
                }
                break;
            }
            attempt += 1;
            if attempt >= replicas {
                return Err(part_error(nid, slba, attempt, CmdStatus::Ok, true));
            }
            self.tel.iv_failovers.inc();
        }
        self.decode(None, nid, offset, std::slice::from_ref(&buf))?;
        Ok((buf, slba * BLOCK_SIZE))
    }

    /// Earliest instant at which the engine can make progress again: a
    /// device completion, a delayed retry or a hedge becoming due.
    fn next_engine_event(&self) -> Option<Time> {
        // The completion clock already holds the earliest instant across
        // every qpair (validated lazily against the authoritative per-qpair
        // state), so this is one heap peek instead of a scan.
        let next_dev = self
            .clock
            .next_due(|tag| self.qpairs[tag].next_completion_at());
        let next_retry = self.delayed.peek().map(|Reverse((t, ..))| *t);
        // A pending hedge is an engine event too: the reactor must wake at
        // its due instant, not sleep through to the (slow) primary. Only a
        // hedging engine arms them.
        let next_hedge = self.hedge_due.peek().map(|Reverse((t, _))| *t);
        [next_dev, next_retry, next_hedge]
            .into_iter()
            .flatten()
            .min()
    }

    /// Nothing can progress before the next engine event: advance to it.
    /// With no event ahead the read could never finish.
    fn await_event(&mut self, rt: &Runtime) {
        let Some(t) = self.next_engine_event() else {
            panic!(
                "dlfs read stalled: nothing in flight (reader {})",
                self.shared.reader_id
            );
        };
        self.advance_to(rt, t);
    }

    /// Advance the calling thread to `t`, the next engine event. Counted
    /// as a reactor wakeup. While any qpair has commands in flight this is
    /// hot-polling (busy CPU, exactly as before); with *nothing* in flight
    /// anywhere — a pure retry-backoff wait — the reactor parks the thread
    /// instead (idle). Virtual time advances identically either way; only
    /// the busy/idle ledger differs, and a parked wait can never coincide
    /// with in-flight commands by construction.
    fn advance_to(&mut self, rt: &Runtime, t: Time) {
        let now = rt.now();
        if t <= now {
            return;
        }
        self.rstats.wakeups.inc();
        if self.qpairs.iter().all(|q| q.outstanding() == 0) {
            // Nothing in flight: the reactor parks. Spend the idle gap on a
            // slice of background scrubbing first (untimed bookkeeping — it
            // models a housekeeping thread, not reactor CPU).
            if self.shared.cfg.scrub {
                self.scrub_blocks(SCRUB_GAP_BLOCKS);
            }
            if self.rebuild.is_some() {
                let gap = self.shared.cfg.rebuild_gap_blocks;
                self.rebuild_step(gap);
            }
            self.rstats.park(t - now);
            rt.sleep_until(t);
        } else {
            rt.work_until(t);
        }
    }

    /// Walk `budget` data blocks of the scrub cursor, verifying each block
    /// against the integrity tables (and probing for latent media faults),
    /// repairing bad blocks from the first healthy replica. Returns the
    /// number of blocks scrubbed. No-op without checksums.
    fn scrub_blocks(&mut self, budget: u64) -> u64 {
        let Some(red) = self.shared.redundancy.clone() else {
            return 0;
        };
        if !red.verify() {
            return 0;
        }
        let nodes = self.shared.targets.len();
        let mut scrubbed = 0u64;
        let mut hops = 0usize;
        let mut left = budget;
        while left > 0 && hops <= nodes {
            let (n, blk) = self.scrub_cursor;
            let total = red.data_blocks(n as u16);
            if blk >= total {
                self.scrub_cursor = ((n + 1) % nodes, 0);
                hops += 1;
                continue;
            }
            let run = left.min(total - blk);
            let base_blk = red.slots[n].0 / BLOCK_SIZE + blk;
            let mut data = vec![0u8; (run * BLOCK_SIZE) as usize];
            self.shared.targets[n].dma_read(base_blk, &mut data);
            for i in 0..run {
                let slba = base_blk + i;
                let span = &data[(i * BLOCK_SIZE) as usize..][..BLOCK_SIZE as usize];
                let good = red.verify_blocks(n as u16, slba, span)
                    && !self.shared.targets[n].probe_extent(slba, 1);
                if !good {
                    self.scrub_repair(&red, n, slba);
                }
            }
            scrubbed += run;
            left -= run;
            self.scrub_cursor = (n, blk + run);
        }
        self.tel.iv_scrubbed.add(scrubbed);
        scrubbed
    }

    /// Rewrite one bad home block from the first replica whose copy
    /// verifies. Unrepairable blocks (no healthy copy) are left for the
    /// read path to surface as [`DlfsError::Corrupt`].
    fn scrub_repair(&mut self, red: &Redundancy, n: usize, slba: u64) {
        for r in 1..red.replicas {
            let (peer, pslba) = red.route(n as u16, r, slba);
            if let Some(blk) = self.verified_block(red, peer, pslba, n as u16, slba) {
                self.shared.targets[n].dma_write(slba, &blk);
                self.tel.iv_repairs.inc();
                return;
            }
        }
    }

    /// Block `dslba` of device `dev`, a copy of home block `slba` on
    /// `home`, when the device reports no latent fault there and the bytes
    /// verify (scrub repair and rebuild sources and targets).
    fn verified_block(
        &self,
        red: &Redundancy,
        dev: u16,
        dslba: u64,
        home: u16,
        slba: u64,
    ) -> Option<Vec<u8>> {
        let src = &self.shared.targets[dev as usize];
        if src.probe_extent(dslba, 1) {
            return None;
        }
        let mut blk = vec![0u8; BLOCK_SIZE as usize];
        src.dma_read(dslba, &mut blk);
        red.verify_blocks(home, slba, &blk).then_some(blk)
    }

    /// One full background-scrub sweep over every node's data region:
    /// verify every covered block and repair what a healthy replica can
    /// provide. Returns the number of blocks scrubbed. Exposed for tests
    /// and the fsck/CI tooling; the engine otherwise scrubs incrementally
    /// during idle reactor gaps (config `scrub`).
    pub fn scrub_pass(&mut self) -> u64 {
        let Some(red) = self.shared.redundancy.as_deref() else {
            return 0;
        };
        let total: u64 = (0..self.shared.targets.len())
            .map(|n| red.data_blocks(n as u16))
            .sum();
        if total == 0 {
            return 0;
        }
        self.scrub_cursor = (0, 0);
        self.scrub_blocks(total)
    }

    /// Start automated re-replication of storage node `node` after a
    /// permanent loss: enumerate every replica slot the node hosted
    /// ([`RebuildPlan::for_dead_node`]) and copy each block back from a
    /// surviving verified replica, `rebuild_gap_blocks` per idle reactor
    /// gap (call [`DlfsIo::drive_rebuild`] to finish synchronously). The
    /// replacement device — the revived node, or a fresh one mounted under
    /// the same index — must be attached and serving writes first. Returns
    /// the total blocks to rebuild. A rebuild needs surviving copies to
    /// read from (`replicas >= 2`) and a membership view to rejoin the
    /// node into afterwards — asking for one on an instance missing either
    /// is a typed configuration error, not a silent no-op.
    pub fn begin_rebuild(&mut self, node: u16) -> Result<u64, DlfsError> {
        let Some(red) = self.shared.redundancy.as_deref() else {
            return Err(DlfsError::Config(
                "rebuild requires redundancy: configure replicas >= 2 and a \
                 membership policy (fail_dead_after)"
                    .into(),
            ));
        };
        if red.replicas < 2 {
            return Err(DlfsError::Config(format!(
                "rebuild of storage node {node} requires replicas >= 2 (have \
                 {}): a lone copy has no surviving source to rebuild from",
                red.replicas
            )));
        }
        if red.membership.is_none() {
            return Err(DlfsError::Config(format!(
                "rebuild of storage node {node} requires a membership policy: \
                 set fail_dead_after so the rebuilt node can be declared Dead \
                 and rejoined"
            )));
        }
        let blocks_of: Vec<u64> = (0..self.shared.targets.len())
            .map(|h| match self.shared.layouts.as_deref() {
                Some(l) => l[h].data_bytes.div_ceil(BLOCK_SIZE),
                None => red.data_blocks(h as u16),
            })
            .collect();
        let plan = RebuildPlan::for_dead_node(red, node, &blocks_of);
        let total = plan.total_blocks;
        self.tel.rb_at_risk.set(self.chunks_at_risk(total) as i64);
        self.rebuild = Some(RebuildState {
            plan,
            ext: 0,
            blk: 0,
            walked: 0,
            failed: 0,
        });
        Ok(total)
    }

    /// Is a node rebuild still in flight?
    pub fn rebuild_active(&self) -> bool {
        self.rebuild.is_some()
    }

    /// Blocks the in-flight rebuild has not walked yet (0 when idle).
    pub fn rebuild_remaining(&self) -> u64 {
        self.rebuild
            .as_ref()
            .map(|r| r.plan.total_blocks - r.walked)
            .unwrap_or(0)
    }

    /// Run the in-flight rebuild to completion in one call (tests, the
    /// `ext_rebuild` bench, and operators who want redundancy back *now*
    /// rather than trickled through idle gaps). Returns blocks walked.
    pub fn drive_rebuild(&mut self) -> u64 {
        let mut done = 0;
        while self.rebuild.is_some() {
            done += self.rebuild_step(u64::MAX);
        }
        done
    }

    /// Chunks not yet at full redundancy when `blocks` blocks are missing.
    fn chunks_at_risk(&self, blocks: u64) -> u64 {
        let per_chunk = (self.shared.cfg.chunk_size / BLOCK_SIZE).max(1);
        blocks.div_ceil(per_chunk)
    }

    /// Walk up to `budget` blocks of the in-flight rebuild: verify what
    /// the replacement device already holds (a restarted node keeps its
    /// media — catch-up resync skips clean blocks), copy the rest from the
    /// first surviving replica whose bytes verify, and finish with the
    /// on-device layout restore + membership rejoin once the plan is
    /// exhausted. Untimed bookkeeping, same as the scrubber: it models a
    /// housekeeping thread running in reactor idle gaps, not reactor CPU.
    /// The engine takes one slice per idle reactor gap; tests and the
    /// `ext_rebuild` bench call it to interleave rebuild progress with
    /// foreground work (or mid-rebuild faults) at a controlled pace.
    pub fn rebuild_step(&mut self, budget: u64) -> u64 {
        let Some(red) = self.shared.redundancy.clone() else {
            self.rebuild = None;
            return 0;
        };
        let Some(mut rb) = self.rebuild.take() else {
            return 0;
        };
        let mut left = budget;
        let mut walked = 0u64;
        while left > 0 {
            let Some(ext) = rb.plan.extents.get(rb.ext).copied() else {
                break;
            };
            if rb.blk >= ext.blocks {
                rb.ext += 1;
                rb.blk = 0;
                continue;
            }
            let run = left.min(ext.blocks - rb.blk).min(128);
            let home_base_blk = red.slots[ext.home as usize].0 / BLOCK_SIZE;
            for i in 0..run {
                let home_blk = home_base_blk + rb.blk + i;
                let (dt, dslba) = red.route(ext.home, ext.slot_r, home_blk);
                debug_assert_eq!(dt, rb.plan.node);
                if red.verify()
                    && self
                        .verified_block(&red, dt, dslba, ext.home, home_blk)
                        .is_some()
                {
                    self.tel.rb_clean.inc();
                    continue;
                }
                let copy = rb.plan.sources(&ext, &red).into_iter().find_map(|s| {
                    let (st, sslba) = red.route(ext.home, s, home_blk);
                    if st == rb.plan.node || red.is_dead(st as usize) {
                        return None;
                    }
                    self.verified_block(&red, st, sslba, ext.home, home_blk)
                });
                if let Some(blk) = copy {
                    self.shared.targets[dt as usize].dma_write(dslba, &blk);
                    self.tel.rb_blocks.inc();
                } else {
                    rb.failed += 1;
                    self.tel.rb_failed.inc();
                }
            }
            rb.blk += run;
            rb.walked += run;
            walked += run;
            left -= run;
        }
        while rb
            .plan
            .extents
            .get(rb.ext)
            .is_some_and(|e| rb.blk >= e.blocks)
        {
            rb.ext += 1;
            rb.blk = 0;
        }
        let remaining = rb.plan.total_blocks - rb.walked;
        self.tel
            .rb_at_risk
            .set(self.chunks_at_risk(remaining + rb.failed) as i64);
        if rb.ext >= rb.plan.extents.len() {
            self.rebuild_finish(&red, rb.plan.node, rb.failed);
        } else {
            self.rebuild = Some(rb);
        }
        walked
    }

    /// Final pass of a completed rebuild: on persistent instances, restore
    /// the replacement device's metadata region (reconstructed from the
    /// sample directory, payload checksums re-hashed from the rebuilt
    /// bytes), integrity table, and committed superblock — a fresh device
    /// comes out `fsck`-clean, indistinguishable from the import, except
    /// for the checkpoint region, whose stream died with the old node (the
    /// fsck checkpoint walk treats the zeroed region as an empty stream).
    /// Only a fully successful rebuild rejoins the node into the
    /// membership view; failed blocks leave it Dead for another attempt.
    fn rebuild_finish(&mut self, red: &Redundancy, node: u16, failed: u64) {
        if let Some(layouts) = self.shared.layouts.clone() {
            let dest = self.shared.targets[node as usize].clone();
            let mut sb = layouts[node as usize].clone();
            let mut records = Vec::with_capacity(sb.node_samples as usize);
            for &id in self.shared.dir.samples_on(node) {
                let e = self.shared.dir.entry(id);
                let (unit1, unit2) = e.raw();
                records.push(MetaRecord {
                    id,
                    unit1,
                    unit2,
                    payload_checksum: content_sum(&self.read_back(&dest, e.offset(), e.len())),
                });
            }
            let meta = encode_meta(&records);
            debug_assert_eq!(meta.len() as u64, sb.meta_bytes);
            if !meta.is_empty() {
                dest.dma_write(sb.meta_base / BLOCK_SIZE, &meta);
            }
            if sb.integrity_bytes > 0 {
                let enc = encode_integrity(&red.sums[node as usize]);
                debug_assert_eq!(enc.len() as u64, sb.integrity_bytes);
                dest.dma_write(sb.integrity_base / BLOCK_SIZE, &enc);
            }
            if sb.codec_table_bytes > 0 {
                if let Some(tables) = self.shared.codec.as_deref() {
                    // Restore the per-frame encoded-length table; the data
                    // blocks were copied back verbatim (stored/encoded
                    // bytes), so the table written at import still
                    // describes them exactly.
                    let table = encode_codec_table(&tables.per_node[node as usize].lens);
                    debug_assert_eq!(table.len() as u64, sb.codec_table_bytes);
                    dest.dma_write(sb.codec_base() / BLOCK_SIZE, &table);
                }
            }
            sb.meta_checksum = fnv1a(&meta);
            sb.committed = true;
            dest.dma_write(0, &sb.encode());
        }
        if failed == 0 {
            // `begin_rebuild` refuses to start without a membership policy,
            // so the rejoin cannot fail here.
            let r = red.rejoin(node as usize);
            debug_assert!(r.is_ok(), "rebuild ran without membership");
        }
        self.tel.rb_completed.inc();
        self.tel.rb_at_risk.set(self.chunks_at_risk(failed) as i64);
    }

    /// Read `len` bytes at absolute device byte offset `off` (block math
    /// for the payload re-hash of [`DlfsIo::rebuild_finish`]).
    fn read_back(&self, dev: &Arc<dyn NvmeTarget>, off: u64, len: u64) -> Vec<u8> {
        let first = off / BLOCK_SIZE;
        let end = (off + len).div_ceil(BLOCK_SIZE);
        let mut buf = vec![0u8; ((end - first) * BLOCK_SIZE) as usize];
        dev.dma_read(first, &mut buf);
        let at = (off - first * BLOCK_SIZE) as usize;
        buf[at..at + len as usize].to_vec()
    }

    /// `dlfs_read` by name: synchronous single-sample read (the DLFS-Base
    /// configuration of Fig. 6).
    pub fn read(&mut self, rt: &Runtime, name: &str) -> Result<Vec<u8>, DlfsError> {
        let id = self.open(rt, name)?;
        self.read_by_id(rt, id)
    }

    /// `dlfs_read` by sample id (no name lookup): a pinned read plus one
    /// copy-pool job.
    pub fn read_by_id(&mut self, rt: &Runtime, id: u32) -> Result<Vec<u8>, DlfsError> {
        let pinned = self.pin_sample(rt, id, None)?;
        Ok(self.copy_out(rt, pinned))
    }

    /// [`DlfsIo::read_by_id`] with a deadline: cache-pressure backoff
    /// never waits past it (the read surfaces
    /// [`DlfsError::CacheExhausted`] instead).
    pub fn read_by_id_before(
        &mut self,
        rt: &Runtime,
        id: u32,
        deadline: Time,
    ) -> Result<Vec<u8>, DlfsError> {
        let pinned = self.pin_sample(rt, id, Some(deadline))?;
        Ok(self.copy_out(rt, pinned))
    }

    /// `dlfs_read` by sample id, zero-copy: the returned sample references
    /// pinned sample-cache chunks directly. On a warm cache this path does
    /// no memcpy and no heap allocation — the segment list stays inline
    /// and the pin is embedded in the sample. The chunks return to the
    /// pool (or the cross-epoch LRU tail) when the sample drops.
    pub fn read_zero_copy(&mut self, rt: &Runtime, id: u32) -> Result<ZeroCopySample, DlfsError> {
        let pinned = self.pin_sample(rt, id, None)?;
        rt.work(self.shared.cfg.costs.frontend_per_sample);
        self.tel.cache_pins.inc();
        self.tel.samples_delivered.inc();
        self.tel
            .bytes_delivered
            .add(pinned.segments.total_bytes() as u64);
        let pin = Pin::Own {
            cache: self.shared.cache.clone(),
            key: pinned.key,
            gen: pinned.gen,
        };
        Ok(ZeroCopySample::new(id, pinned.segments, pin))
    }

    /// Copy a pinned sample out through the copy pool, then drop the pin.
    fn copy_out(&mut self, rt: &Runtime, pinned: PinnedSample) -> Vec<u8> {
        if pinned.hit {
            self.tel.cache_pins.inc();
        }
        let (done_tx, done_rx) = rt.channel::<CopyDone>(None);
        let t_copy = rt.now();
        rt.work(self.shared.cfg.costs.copy_dispatch);
        self.shared.copy.submit(CopyJob {
            tag: 0,
            sample: pinned.id,
            segments: pinned.segments,
            done: done_tx,
        });
        let done = done_rx.recv().expect("copy pool alive");
        let _ = self.shared.cache.unpin(pinned.key, pinned.gen);
        self.tel.samples_delivered.inc();
        self.tel.bytes_delivered.add(done.data.len() as u64);
        self.tel.copy_ns.record_dur(rt.now() - t_copy);
        done.data
    }

    /// The synchronous read core, shared by both delivery modes: pin a
    /// resident range covering sample `id`, faulting the range in through
    /// the part engine on a miss.
    fn pin_sample(
        &mut self,
        rt: &Runtime,
        id: u32,
        deadline: Option<Time>,
    ) -> Result<PinnedSample, DlfsError> {
        if id as usize >= self.shared.dir.len() {
            return Err(DlfsError::BadSampleId(id));
        }
        let entry = self.shared.dir.entry(id);
        // No batch deadline applies to engine retries harvested while this
        // read drives the shared qpairs.
        self.current_deadline = None;
        let cross = self.shared.cfg.cache_mode == CacheMode::CrossEpoch;
        let mut ep = self.epoch.take();
        let out = loop {
            // Fast path (paper §III-C1): the sample's data is resident.
            if let Some((key, segments, gen)) = self.pin_covering(entry) {
                if cross {
                    self.tel.ce_hits.inc();
                }
                break Ok(PinnedSample {
                    id,
                    key,
                    segments,
                    gen,
                    hit: true,
                });
            }
            self.tel.cache_misses.inc();
            if cross {
                self.tel.ce_misses.inc();
            }
            let (nid, offset, len) = self.sync_range(entry);
            let key = self.shared.rkey(nid, offset);
            let bufs = match self.fetch_sync(rt, ep.as_mut(), nid, offset, len, deadline) {
                Ok(bufs) => bufs,
                Err(e) => break Err(e),
            };
            if self.shared.cache.contains(key) {
                // Published concurrently (batched engine or another
                // reader) while we polled: drop our fetch and pin the
                // resident copy on the next pass.
                bufs.into_iter().for_each(|b| self.shared.cache.free_raw(b));
                continue;
            }
            if let Err(e) = self.decode(Some(rt), nid, offset, &bufs) {
                bufs.into_iter().for_each(|b| self.shared.cache.free_raw(b));
                break Err(e);
            }
            // publish + pin + release run back to back with no virtual-time
            // advance between them, so no other participant can interleave:
            // the live-double-publish panic in `publish` cannot fire, and
            // the range cannot be evicted before we hold the pin. The
            // segments are taken before the release: in epoch-scoped mode
            // the release retires the range (a zombie kept alive by our
            // pin), after which it is no longer resident. Cross-epoch mode
            // parks it on the LRU tail for later reads.
            let (slba, _, alloc) = self.read_geometry(nid, offset, len);
            self.shared.cache.publish(key, bufs, alloc);
            let (gen, _, _) = self.shared.cache.pin_key(key).expect("just published");
            let segments = self.pinned_segments(key, slba * BLOCK_SIZE, entry);
            if let Err(e) = self.shared.cache.release(key) {
                let _ = self.shared.cache.unpin(key, gen);
                break Err(e);
            }
            break Ok(PinnedSample {
                id,
                key,
                segments,
                gen,
                hit: false,
            });
        };
        self.epoch = ep;
        out
    }

    /// Pin a resident range covering `entry` — its chunk's, or (edge and
    /// sample-level ranges) its own — and take the sample's segments out
    /// of it. Allocation-free: the candidate keys live in a fixed array.
    fn pin_covering(&mut self, entry: SampleEntry) -> Option<(RangeKey, SegList, u64)> {
        let chunk = self.shared.cfg.chunk_size;
        let chunk_base = entry.offset() / chunk * chunk;
        let own_base = covering_blocks(entry.offset(), entry.len()).0 * BLOCK_SIZE;
        let candidates = [(chunk_base, chunk_base), (entry.offset(), own_base)];
        let n = if entry.offset() == chunk_base { 1 } else { 2 };
        for &(at, base) in &candidates[..n] {
            let key = self.shared.rkey(entry.nid(), at);
            let Some((gen, len, prefetched)) = self.shared.cache.pin_key(key) else {
                continue;
            };
            // The pinned range must actually cover the sample (an edge
            // sample's chunk-base key can name a different, shorter
            // range).
            if entry.offset() + entry.len() > at + len {
                let _ = self.shared.cache.unpin(key, gen);
                continue;
            }
            self.tel.cache_hits.inc();
            if prefetched {
                self.tel.prefetch_hits.inc();
            }
            return Some((key, self.pinned_segments(key, base, entry), gen));
        }
        None
    }

    /// The segments of `entry` within the pinned range `key`, whose
    /// buffers start at node byte `base`.
    fn pinned_segments(&self, key: RangeKey, base: u64, entry: SampleEntry) -> SegList {
        let chunk = self.shared.cfg.chunk_size as usize;
        let within = (entry.offset() - base) as usize;
        self.shared
            .cache
            .with_resident(key, |bufs, _| {
                segments_at(bufs, chunk, within, entry.len() as usize)
            })
            .expect("pinned range is resident")
    }

    /// The range a synchronous miss on `entry` fetches, as `(node, byte
    /// offset, length)`; its cache key is the offset. Coded datasets read
    /// the sample's whole stored frame, decoded in place. Cross-epoch mode
    /// reads the whole covering chunk, so later reads of this sample — or
    /// its chunk neighbors — skip the device; when a shorter range already
    /// holds the chunk's key (the sample straddles its end), just the
    /// sample's own blocks, under its own key. Epoch-scoped mode reads
    /// exactly the sample's covering blocks.
    fn sync_range(&self, entry: SampleEntry) -> (u16, u64, u64) {
        let nid = entry.nid();
        if self.shared.codec.is_some() {
            let (slba, _, _) = self.read_geometry(nid, entry.offset(), entry.len());
            return (nid, slba * BLOCK_SIZE, entry.len());
        }
        let chunk = self.shared.cfg.chunk_size;
        let chunk_base = entry.offset() / chunk * chunk;
        if self.shared.cfg.cache_mode == CacheMode::CrossEpoch
            && !self
                .shared
                .cache
                .contains(self.shared.rkey(nid, chunk_base))
        {
            let dev_end = self.shared.targets[nid as usize].blocks() * BLOCK_SIZE;
            let end = (chunk_base + chunk)
                .min(dev_end)
                .max(entry.offset() + entry.len());
            return (nid, chunk_base, end - chunk_base);
        }
        (nid, entry.offset(), entry.len())
    }

    /// Fetch `(nid, offset, len)` for a synchronous read through the part
    /// engine: the range becomes the one-owner entry [`Owner::Sync`] of the
    /// part table, driven by the same post/poll/advance loop as batched
    /// reads until its parts land. Completions of other owners (the
    /// batched engine, the prefetcher) harvested meanwhile resolve as
    /// usual. A failure goes back to the caller, with the buffers returned
    /// to the pool; the epoch never sees it.
    fn fetch_sync(
        &mut self,
        rt: &Runtime,
        mut ep: Option<&mut Epoch>,
        nid: u16,
        offset: u64,
        len: u64,
        deadline: Option<Time>,
    ) -> Result<Vec<DmaBuf>, DlfsError> {
        let (_, _, bytes) = self.read_geometry(nid, offset, len);
        let bufs = self.alloc_backoff(rt, bytes, deadline)?;
        let parts_left = self.queue_parts(Owner::Sync, &bufs);
        self.sync = Some(SyncFetch {
            nid,
            offset,
            len,
            parts_left,
            bufs,
            failed: None,
        });
        self.flush(rt, ep.as_deref());
        let t_poll = rt.now();
        // On failure, keep polling until the read's in-flight commands
        // drain (SPDK cannot cancel a submitted command).
        while self
            .sync
            .as_ref()
            .is_some_and(|s| s.parts_left > 0 && s.failed.is_none())
            || self.inflight.values().any(|p| p.owner == Owner::Sync)
        {
            self.flush(rt, ep.as_deref());
            if self.poll(rt, ep.as_deref_mut()) == 0 {
                self.await_event(rt);
            }
        }
        self.tel.poll_ns.record_dur(rt.now() - t_poll);
        self.mismatched.retain(|&(owner, _)| owner != Owner::Sync);
        let s = self.sync.take().expect("installed above");
        match s.failed {
            Some(e) => {
                s.bufs
                    .into_iter()
                    .for_each(|b| self.shared.cache.free_raw(b));
                Err(e)
            }
            None => Ok(s.bufs),
        }
    }

    /// `dlfs_open`: name lookup through the sample directory (returns the
    /// sample id as the handle — DLFS handles are directory references).
    pub fn open(&mut self, rt: &Runtime, name: &str) -> Result<u32, DlfsError> {
        let costs = self.shared.cfg.costs.clone();
        self.shared
            .dir
            .lookup(rt, &costs, name)
            .map(|(id, _)| id)
            .ok_or_else(|| DlfsError::NotFound(name.to_string()))
    }

    /// `dlfs_close`: drop the handle (directory entries are immutable, so
    /// this is bookkeeping only).
    pub fn close(&mut self, _rt: &Runtime, _handle: u32) {}
}

/// Slice `len` payload bytes starting at `pos` (relative to the buffers'
/// base) into chunk-bounded segments. Nearly always one segment (two when
/// the sample straddles a chunk boundary), so the returned [`SegList`]
/// stays inline and allocation-free.
fn segments_at(bufs: &[DmaBuf], chunk: usize, mut pos: usize, mut remaining: usize) -> SegList {
    let mut segs = SegList::new();
    while remaining > 0 {
        let b = pos / chunk;
        let off = pos % chunk;
        let take = (chunk - off).min(remaining);
        segs.push(Segment {
            buf: bufs[b].clone(),
            offset: off,
            len: take,
        });
        pos += take;
        remaining -= take;
    }
    segs
}

/// The typed error for a stored frame (at home-node byte offset `frame`)
/// that passed the read path's checks but does not decode.
fn undecodable(frame: u64, e: CodecError) -> DlfsError {
    DlfsError::Corrupt {
        chunk: frame,
        tried: 1,
        cause: CorruptCause::Codec(e),
    }
}

/// The typed error of a part that exhausted its retry budget after
/// `tried` attempts, the last ending in `status`: `Corrupt` once any
/// attempt delivered bytes that failed their checksum, else `Io` naming
/// the home node. Every read path builds its part errors here.
fn part_error(nid: u16, slba: u64, tried: u32, status: CmdStatus, mismatched: bool) -> DlfsError {
    let io = match status {
        CmdStatus::TransportError => IoFailure::Timeout,
        _ => IoFailure::Media,
    };
    if mismatched {
        DlfsError::Corrupt {
            chunk: slba * BLOCK_SIZE,
            tried,
            cause: if status.is_ok() {
                CorruptCause::Checksum
            } else {
                CorruptCause::Io(io)
            },
        }
    } else {
        DlfsError::Io {
            target: nid.into(),
            attempts: tried,
            cause: io,
        }
    }
}
