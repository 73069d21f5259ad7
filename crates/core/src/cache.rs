//! The sample cache: huge-page DMA chunks holding data fetched from
//! local/remote NVMe devices (paper §III-C1).
//!
//! "We allocate the sample cache on huge pages to store the data read from
//! local/remote NVMe devices. ... the cache is divided into many fixed-size
//! chunks (256 KB by default but configurable)."
//!
//! The cache also maintains the residency index behind the sample entries'
//! V field: `(storage node, range start)` → resident chunk buffers. A
//! range can be *pinned* by a concurrent `dlfs_read` while the bread engine
//! retires it; the free is deferred until the last pin drops.
//!
//! # Cross-epoch residency (`CacheMode::CrossEpoch`)
//!
//! With [`CacheMode::EpochScoped`] (the default) a drained range is
//! *retired*: its chunks go straight back to the pool and every epoch
//! refetches everything. With [`CacheMode::CrossEpoch`] a drained range is
//! *released* instead: it stays resident on an evictable LRU tail, and
//! [`SampleCache::alloc_for`] evicts least-recently-used released ranges
//! under pool pressure. The engine and the synchronous read path probe
//! residency ([`SampleCache::acquire`] / [`SampleCache::pin`]) before
//! posting device fetches, so a working set that fits in the pool is read
//! from the device exactly once across epochs.
//!
//! # Generations and zombies
//!
//! Retiring a pinned range cannot free its chunks: the free is deferred
//! until the last pin drops (a *zombie*). Because `contains` reports a
//! zombie absent, the engine may legitimately refetch and republish the
//! same key while old pins are still live — so each publication gets a
//! fresh *generation*, pins name the generation they took, and a zombie
//! generation drains independently of the live one. (Publishing over a
//! *live* generation is still a bug and still panics.)

use std::collections::HashMap;

use blocksim::{DmaBuf, DmaPool};
use simkit::plock::Mutex;
use simkit::telemetry::{Counter, Gauge, Registry};

use crate::config::CacheMode;
use crate::error::DlfsError;

/// Typed error for a bookkeeping call on a range the cache no longer
/// holds (see [`DlfsError::Cache`]).
fn missing(op: &'static str, key: RangeKey) -> DlfsError {
    DlfsError::Cache {
        op,
        node: (key.0 & 0xFFFF) as u16,
        offset: key.1,
    }
}

/// Key of a resident range: (tenant-qualified storage node id, range
/// start byte). The first component packs `tenant << 16 | node` (see
/// [`range_key`]); with the implicit single tenant 0 it is numerically
/// the bare node id, so single-tenant keys are unchanged.
pub type RangeKey = (u32, u64);

/// Build a [`RangeKey`]: tenants share the pool and eviction clock but
/// never collide on keys, so one tenant's resident ranges are invisible
/// to another's lookups.
#[inline]
pub fn range_key(tenant: crate::tenant::TenantId, node: u16, start: u64) -> RangeKey {
    (((tenant as u32) << 16) | node as u32, start)
}

/// Storage node id a [`RangeKey`] addresses (drops the tenant bits).
#[inline]
pub fn key_node(key: RangeKey) -> u16 {
    (key.0 & 0xFFFF) as u16
}

/// A pinned view of a resident range, returned by [`SampleCache::pin`].
/// `gen` names the publication generation the pin was taken on; pass it
/// back to [`SampleCache::unpin`].
#[derive(Debug)]
pub struct Pinned {
    pub bufs: Vec<DmaBuf>,
    pub len: u64,
    pub gen: u64,
    /// The range was brought in by the prefetcher and this is its first
    /// use (a prefetch hit).
    pub prefetched: bool,
}

#[derive(Debug)]
struct Resident {
    gen: u64,
    bufs: Vec<DmaBuf>,
    len: u64,
    /// Readers currently copying out of the buffers.
    pinned: u32,
    /// Fully drained by its epoch: parked on the evictable LRU tail
    /// (`CrossEpoch` only; `EpochScoped` frees on release instead).
    released: bool,
    /// Monotonic recency stamp — larger is more recent; unique, so LRU
    /// eviction order is deterministic.
    stamp: u64,
    /// Published by the prefetcher and not yet used.
    prefetched: bool,
}

/// A generation that was retired (or whose key was republished) while
/// still pinned: its chunks free when the last pin drops.
#[derive(Debug)]
struct Zombie {
    bufs: Vec<DmaBuf>,
    pinned: u32,
}

#[derive(Debug, Default)]
struct CacheTel {
    evictions: Option<Counter>,
    resident_chunks: Option<Gauge>,
}

#[derive(Debug)]
struct Inner {
    resident: HashMap<RangeKey, Resident>,
    zombies: HashMap<(RangeKey, u64), Zombie>,
    next_gen: u64,
    clock: u64,
    /// Chunks currently owned by published (non-zombie) ranges.
    resident_chunks: usize,
    evictions: u64,
    tel: CacheTel,
}

impl Inner {
    fn touch(&mut self, key: RangeKey) {
        self.clock += 1;
        let stamp = self.clock;
        if let Some(r) = self.resident.get_mut(&key) {
            r.stamp = stamp;
        }
    }

    fn sync_gauge(&self) {
        if let Some(g) = &self.tel.resident_chunks {
            g.set(self.resident_chunks as i64);
        }
    }
}

/// Fixed-chunk sample cache over a huge-page DMA pool.
pub struct SampleCache {
    pool: DmaPool,
    mode: CacheMode,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for SampleCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SampleCache")
            .field("mode", &self.mode)
            .field("total_chunks", &self.pool.total_chunks())
            .field("free_chunks", &self.pool.available())
            .finish()
    }
}

impl SampleCache {
    pub fn new(chunk_size: usize, chunks: usize) -> SampleCache {
        SampleCache::with_mode(chunk_size, chunks, CacheMode::EpochScoped)
    }

    pub fn with_mode(chunk_size: usize, chunks: usize, mode: CacheMode) -> SampleCache {
        SampleCache {
            pool: DmaPool::new(chunk_size, chunks),
            mode,
            inner: Mutex::new(Inner {
                resident: HashMap::new(),
                zombies: HashMap::new(),
                next_gen: 1,
                clock: 0,
                resident_chunks: 0,
                evictions: 0,
                tel: CacheTel::default(),
            }),
        }
    }

    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// CPU memcpys through the cache's DMA chunks ([`DmaPool::copy_ops`]).
    pub fn copy_ops(&self) -> u64 {
        self.pool.copy_ops()
    }

    /// Record cache telemetry into `reg` (pass a registry scoped to
    /// `dlfs.cache`): an `evictions` counter and a `resident_chunks`
    /// gauge. Attaching twice with the same registry is idempotent
    /// (metrics are get-or-create by name).
    pub fn attach_telemetry(&self, reg: &Registry) {
        let mut g = self.inner.lock();
        g.tel = CacheTel {
            evictions: Some(reg.counter("evictions")),
            resident_chunks: Some(reg.gauge("resident_chunks")),
        };
        g.sync_gauge();
    }

    pub fn chunk_size(&self) -> usize {
        self.pool.chunk_size()
    }

    pub fn free_chunks(&self) -> usize {
        self.pool.available()
    }

    pub fn total_chunks(&self) -> usize {
        self.pool.total_chunks()
    }

    /// Ranges evicted so far (diagnostics / benches).
    pub fn evictions(&self) -> u64 {
        self.inner.lock().evictions
    }

    fn chunks_for(&self, len: u64) -> usize {
        (len as usize).div_ceil(self.pool.chunk_size()).max(1)
    }

    /// Grab `need` chunks from the pool, all or nothing.
    fn grab(&self, need: usize) -> Option<Vec<DmaBuf>> {
        if self.pool.available() < need {
            return None;
        }
        let mut bufs = Vec::with_capacity(need);
        for _ in 0..need {
            match self.pool.alloc() {
                Some(b) => bufs.push(b),
                None => {
                    for b in bufs {
                        self.pool.free(b);
                    }
                    return None;
                }
            }
        }
        Some(bufs)
    }

    /// Evict the least-recently-used released, unpinned range; false when
    /// nothing is evictable.
    fn evict_one(&self) -> bool {
        let freed = {
            let mut g = self.inner.lock();
            let victim = g
                .resident
                .iter()
                .filter(|(_, r)| r.released && r.pinned == 0)
                .min_by_key(|(_, r)| r.stamp)
                .map(|(&k, _)| k);
            let Some(key) = victim else {
                return false;
            };
            let r = g.resident.remove(&key).expect("victim present");
            g.resident_chunks -= r.bufs.len();
            g.evictions += 1;
            if let Some(c) = &g.tel.evictions {
                c.inc();
            }
            g.sync_gauge();
            r.bufs
        };
        for b in freed {
            self.pool.free(b);
        }
        true
    }

    /// Allocate the DMA chunks needed to receive `len` bytes, evicting
    /// released ranges (LRU-first) under pool pressure; `None` if the pool
    /// can't satisfy the request even after eviction (backpressure —
    /// everything left is pinned, in flight, or still undelivered).
    pub fn alloc_for(&self, len: u64) -> Option<Vec<DmaBuf>> {
        let need = self.chunks_for(len);
        loop {
            if let Some(bufs) = self.grab(need) {
                return Some(bufs);
            }
            if !self.evict_one() {
                return None;
            }
        }
    }

    /// Allocate chunks for a *prefetch*: never evicts, and refuses unless
    /// at least `reserve` chunks would remain free afterwards — demand
    /// fetches keep priority over speculative ones.
    pub fn alloc_prefetch(&self, len: u64, reserve: usize) -> Option<Vec<DmaBuf>> {
        let need = self.chunks_for(len);
        if self.pool.available() < need + reserve {
            return None;
        }
        self.grab(need)
    }

    /// Return chunks that were never published (transient fetches).
    pub fn free_raw(&self, buf: DmaBuf) {
        self.pool.free(buf);
    }

    fn publish_inner(&self, key: RangeKey, bufs: Vec<DmaBuf>, len: u64, prefetched: bool) {
        let mut g = self.inner.lock();
        g.next_gen += 1;
        let gen = g.next_gen;
        g.clock += 1;
        let stamp = g.clock;
        g.resident_chunks += bufs.len();
        let prev = g.resident.insert(
            key,
            Resident {
                gen,
                bufs,
                len,
                pinned: 0,
                released: prefetched,
                stamp,
                prefetched,
            },
        );
        assert!(prev.is_none(), "range {key:?} published twice");
        g.sync_gauge();
    }

    /// Publish a fetched range as resident. The cache takes ownership of
    /// the buffers and frees them on retire (or eviction). Publishing a
    /// key whose previous generation is draining as a zombie starts a
    /// fresh generation; publishing over a *live* range panics.
    pub fn publish(&self, key: RangeKey, bufs: Vec<DmaBuf>, len: u64) {
        self.publish_inner(key, bufs, len, false);
    }

    /// Publish a prefetched range: born released (evictable until a
    /// demand acquire claims it) and flagged so the first use counts as a
    /// prefetch hit.
    pub fn publish_prefetched(&self, key: RangeKey, bufs: Vec<DmaBuf>, len: u64) {
        self.publish_inner(key, bufs, len, true);
    }

    /// Is the range resident (and not a draining zombie)?
    pub fn contains(&self, key: RangeKey) -> bool {
        self.inner.lock().resident.contains_key(&key)
    }

    /// Claim a resident range for a new epoch's fetch item: un-releases
    /// it (it is in use again and must not be evicted) and touches its
    /// recency. Returns the buffers, the published length, and whether
    /// this was the first use of a prefetched range.
    pub fn acquire(&self, key: RangeKey) -> Option<(Vec<DmaBuf>, u64, bool)> {
        let mut g = self.inner.lock();
        let r = g.resident.get_mut(&key)?;
        r.released = false;
        let was_prefetched = std::mem::take(&mut r.prefetched);
        let out = (r.bufs.clone(), r.len);
        g.touch(key);
        Some((out.0, out.1, was_prefetched))
    }

    /// Pin a resident range for copying; returns clones of its buffers
    /// plus the generation to pass back to [`SampleCache::unpin`].
    pub fn pin(&self, key: RangeKey) -> Option<Pinned> {
        let mut g = self.inner.lock();
        let r = g.resident.get_mut(&key)?;
        r.pinned += 1;
        let out = Pinned {
            bufs: r.bufs.clone(),
            len: r.len,
            gen: r.gen,
            prefetched: std::mem::take(&mut r.prefetched),
        };
        g.touch(key);
        Some(out)
    }

    /// Pin a resident range *without cloning its buffer list*: the
    /// allocation-free twin of [`SampleCache::pin`] for the zero-copy
    /// steady state. Returns `(generation, published length, first use of
    /// a prefetched range)`; reach the buffers through
    /// [`SampleCache::with_resident`] and drop the pin with
    /// [`SampleCache::unpin`].
    pub fn pin_key(&self, key: RangeKey) -> Option<(u64, u64, bool)> {
        let mut g = self.inner.lock();
        let r = g.resident.get_mut(&key)?;
        r.pinned += 1;
        let out = (r.gen, r.len, std::mem::take(&mut r.prefetched));
        g.touch(key);
        Some(out)
    }

    /// Run `f` over the buffers and published length of a resident range
    /// without cloning anything (hold a pin across the call if the range
    /// could be retired concurrently). `None` when the range is not
    /// resident.
    pub fn with_resident<R>(
        &self,
        key: RangeKey,
        f: impl FnOnce(&[DmaBuf], u64) -> R,
    ) -> Option<R> {
        let g = self.inner.lock();
        let r = g.resident.get(&key)?;
        Some(f(&r.bufs, r.len))
    }

    /// Release one pin taken on generation `gen`; frees the generation if
    /// it was retired meanwhile and this was its last pin. A pin on a
    /// range the cache no longer tracks (an eviction or teardown won a
    /// race) surfaces as a typed [`DlfsError::Cache`] instead of
    /// aborting.
    pub fn unpin(&self, key: RangeKey, gen: u64) -> Result<(), DlfsError> {
        let freed = {
            let mut g = self.inner.lock();
            if let Some(r) = g.resident.get_mut(&key) {
                if r.gen == gen {
                    assert!(r.pinned > 0, "unpin without pin");
                    r.pinned -= 1;
                    None
                } else {
                    // The key was republished under a newer generation;
                    // our pin belongs to the zombie of `gen`.
                    Some(g.unpin_zombie(key, gen)?)
                }
            } else {
                Some(g.unpin_zombie(key, gen)?)
            }
        };
        if let Some(Some(bufs)) = freed {
            for b in bufs {
                self.pool.free(b);
            }
        }
        Ok(())
    }

    /// Retire a range: frees its chunks now, or — if pins are live — when
    /// the last pin drops (the generation becomes a zombie). Retiring a
    /// range that is no longer resident (evicted, or retired by a
    /// concurrent teardown) is a typed [`DlfsError::Cache`].
    pub fn retire(&self, key: RangeKey) -> Result<(), DlfsError> {
        let freed = {
            let mut g = self.inner.lock();
            let Some(r) = g.resident.remove(&key) else {
                return Err(missing("retire", key));
            };
            g.resident_chunks -= r.bufs.len();
            g.sync_gauge();
            if r.pinned > 0 {
                let prev = g.zombies.insert(
                    (key, r.gen),
                    Zombie {
                        bufs: r.bufs,
                        pinned: r.pinned,
                    },
                );
                assert!(prev.is_none(), "zombie generation collision");
                None
            } else {
                Some(r.bufs)
            }
        };
        if let Some(bufs) = freed {
            for b in bufs {
                self.pool.free(b);
            }
        }
        Ok(())
    }

    /// An epoch is done with this range. [`CacheMode::EpochScoped`]:
    /// identical to [`SampleCache::retire`]. [`CacheMode::CrossEpoch`]:
    /// the range stays resident and joins the evictable LRU tail (pins,
    /// if any, keep protecting it until they drop). Releasing a range the
    /// cache no longer holds is a typed [`DlfsError::Cache`].
    pub fn release(&self, key: RangeKey) -> Result<(), DlfsError> {
        match self.mode {
            CacheMode::EpochScoped => self.retire(key),
            CacheMode::CrossEpoch => {
                let mut g = self.inner.lock();
                let Some(r) = g.resident.get_mut(&key) else {
                    return Err(missing("release", key));
                };
                r.released = true;
                g.touch(key);
                Ok(())
            }
        }
    }

    /// Resident ranges (diagnostics).
    pub fn resident_count(&self) -> usize {
        self.inner.lock().resident.len()
    }

    /// Draining zombie generations (diagnostics).
    pub fn zombie_count(&self) -> usize {
        self.inner.lock().zombies.len()
    }
}

impl Inner {
    /// Drop one pin of zombie generation `gen`; returns the buffers once
    /// the last pin is gone. `Err` when neither a live nor a zombie
    /// generation matches — the pin outlived everything the cache knows
    /// about the key.
    fn unpin_zombie(&mut self, key: RangeKey, gen: u64) -> Result<Option<Vec<DmaBuf>>, DlfsError> {
        use std::collections::hash_map::Entry;
        let Entry::Occupied(mut e) = self.zombies.entry((key, gen)) else {
            return Err(missing("unpin", key));
        };
        let z = e.get_mut();
        assert!(z.pinned > 0, "unpin without pin");
        z.pinned -= 1;
        if z.pinned == 0 {
            Ok(Some(e.remove().bufs))
        } else {
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_publish_pin_retire_cycle() {
        let c = SampleCache::new(4096, 4);
        let bufs = c.alloc_for(6000).unwrap();
        assert_eq!(bufs.len(), 2);
        assert_eq!(c.free_chunks(), 2);
        c.publish((0, 0), bufs, 6000);
        assert!(c.contains((0, 0)));
        let p = c.pin((0, 0)).unwrap();
        assert_eq!(p.bufs.len(), 2);
        assert_eq!(p.len, 6000);
        c.unpin((0, 0), p.gen).unwrap();
        c.retire((0, 0)).unwrap();
        assert_eq!(c.free_chunks(), 4);
        assert!(!c.contains((0, 0)));
    }

    #[test]
    fn alloc_backpressure() {
        let c = SampleCache::new(4096, 2);
        let a = c.alloc_for(8000).unwrap();
        assert!(c.alloc_for(1).is_none());
        c.publish((0, 0), a, 8000);
        c.retire((0, 0)).unwrap();
        assert!(c.alloc_for(1).is_some());
    }

    #[test]
    fn retire_while_pinned_defers_free() {
        let c = SampleCache::new(4096, 2);
        let b = c.alloc_for(100).unwrap();
        c.publish((1, 0), b, 100);
        let p = c.pin((1, 0)).unwrap();
        c.retire((1, 0)).unwrap();
        // Chunks not yet back in the pool; range no longer pinnable.
        assert_eq!(c.free_chunks(), 1);
        assert!(c.pin((1, 0)).is_none());
        assert!(!c.contains((1, 0)));
        c.unpin((1, 0), p.gen).unwrap();
        assert_eq!(c.free_chunks(), 2);
        assert_eq!(c.resident_count(), 0);
        assert_eq!(c.zombie_count(), 0);
    }

    #[test]
    fn free_raw_returns_to_pool() {
        let c = SampleCache::new(4096, 2);
        let mut bufs = c.alloc_for(8000).unwrap();
        assert_eq!(c.free_chunks(), 0);
        c.free_raw(bufs.pop().unwrap());
        c.free_raw(bufs.pop().unwrap());
        assert_eq!(c.free_chunks(), 2);
    }

    #[test]
    #[should_panic(expected = "published twice")]
    fn live_double_publish_panics() {
        let c = SampleCache::new(4096, 4);
        let a = c.alloc_for(10).unwrap();
        let b = c.alloc_for(10).unwrap();
        c.publish((1, 5), a, 10);
        c.publish((1, 5), b, 10);
    }

    /// Regression (pre-fix: `publish` panicked "published twice"): a range
    /// retired while pinned is invisible to `contains`, so the engine
    /// legitimately refetches and republishes the key while the old pin is
    /// still live. The old generation must drain independently.
    #[test]
    fn republish_over_zombie_generation() {
        let c = SampleCache::new(4096, 4);
        let key = (3, 8192);
        let a = c.alloc_for(10).unwrap();
        c.publish(key, a, 10);
        let old = c.pin(key).unwrap();
        c.retire(key).unwrap(); // zombie: old pin still live
        assert!(!c.contains(key));
        // Engine refetches the same range and republishes it.
        let b = c.alloc_for(10).unwrap();
        c.publish(key, b, 10); // pre-fix: panic here
        assert!(c.contains(key));
        // New generation is independently pinnable…
        let new = c.pin(key).unwrap();
        assert_ne!(new.gen, old.gen);
        // …and dropping the old pin frees only the zombie's chunk.
        assert_eq!(c.free_chunks(), 2);
        c.unpin(key, old.gen).unwrap();
        assert_eq!(c.free_chunks(), 3);
        assert_eq!(c.zombie_count(), 0);
        c.unpin(key, new.gen).unwrap();
        c.retire(key).unwrap();
        assert_eq!(c.free_chunks(), 4);
    }

    #[test]
    fn pin_missing_is_none() {
        let c = SampleCache::new(4096, 1);
        assert!(c.pin((9, 9)).is_none());
    }

    #[test]
    fn epoch_scoped_release_frees_immediately() {
        let c = SampleCache::new(4096, 2);
        let b = c.alloc_for(100).unwrap();
        c.publish((0, 0), b, 100);
        c.release((0, 0)).unwrap();
        assert_eq!(c.free_chunks(), 2);
        assert!(!c.contains((0, 0)));
    }

    #[test]
    fn cross_epoch_release_keeps_resident_and_evicts_lru() {
        let c = SampleCache::with_mode(4096, 2, CacheMode::CrossEpoch);
        let a = c.alloc_for(100).unwrap();
        c.publish((0, 0), a, 100);
        let b = c.alloc_for(100).unwrap();
        c.publish((0, 4096), b, 100);
        c.release((0, 0)).unwrap();
        c.release((0, 4096)).unwrap();
        // Both stay resident; the pool is full but both are evictable.
        assert_eq!(c.free_chunks(), 0);
        assert!(c.contains((0, 0)));
        // Touch (0,0) so (0,4096) becomes the LRU victim.
        let (_bufs, len, _) = c.acquire((0, 0)).unwrap();
        assert_eq!(len, 100);
        c.release((0, 0)).unwrap();
        let _c3 = c.alloc_for(100).unwrap();
        assert!(c.contains((0, 0)), "recently-used range evicted");
        assert!(!c.contains((0, 4096)), "LRU range not evicted");
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn eviction_never_touches_pinned_or_active_ranges() {
        let c = SampleCache::with_mode(4096, 2, CacheMode::CrossEpoch);
        let a = c.alloc_for(100).unwrap();
        c.publish((0, 0), a, 100);
        let b = c.alloc_for(100).unwrap();
        c.publish((0, 4096), b, 100);
        // (0,0) released but pinned; (0,4096) active (not released).
        c.release((0, 0)).unwrap();
        let p = c.pin((0, 0)).unwrap();
        assert!(c.alloc_for(1).is_none(), "evicted a pinned/active range");
        c.unpin((0, 0), p.gen).unwrap();
        assert!(c.alloc_for(1).is_some(), "released+unpinned must evict");
    }

    #[test]
    fn prefetched_ranges_are_evictable_and_flag_first_use() {
        let c = SampleCache::with_mode(4096, 2, CacheMode::CrossEpoch);
        let a = c.alloc_prefetch(100, 0).unwrap();
        c.publish_prefetched((1, 0), a, 100);
        // Prefetched ⇒ born released ⇒ evictable under pressure.
        let (_b1, _b2) = (c.alloc_for(100).unwrap(), c.alloc_for(100).unwrap());
        assert!(!c.contains((1, 0)));
        assert_eq!(c.evictions(), 1);
        // First use of a surviving prefetched range reports the hit once.
        let d = c.alloc_prefetch(100, 0);
        assert!(d.is_none(), "pool exhausted, prefetch must not evict");
    }

    #[test]
    fn acquire_reports_prefetch_hit_once() {
        let c = SampleCache::with_mode(4096, 4, CacheMode::CrossEpoch);
        let a = c.alloc_prefetch(100, 1).unwrap();
        c.publish_prefetched((1, 0), a, 100);
        let (_, _, first) = c.acquire((1, 0)).unwrap();
        assert!(first);
        c.release((1, 0)).unwrap();
        let (_, _, second) = c.acquire((1, 0)).unwrap();
        assert!(!second);
    }

    #[test]
    fn alloc_prefetch_honors_reserve() {
        let c = SampleCache::new(4096, 3);
        let _held = c.alloc_for(4096).unwrap();
        // 2 free; need 1 + reserve 2 ⇒ refuse.
        assert!(c.alloc_prefetch(100, 2).is_none());
        assert!(c.alloc_prefetch(100, 1).is_some());
    }

    #[test]
    fn telemetry_tracks_evictions_and_residency() {
        let reg = Registry::new();
        let c = SampleCache::with_mode(4096, 2, CacheMode::CrossEpoch);
        c.attach_telemetry(&reg.scoped("dlfs.cache"));
        let a = c.alloc_for(100).unwrap();
        c.publish((0, 0), a, 100);
        assert_eq!(reg.snapshot().gauge("dlfs.cache.resident_chunks"), 1);
        c.release((0, 0)).unwrap();
        let b = c.alloc_for(8000).unwrap(); // needs both chunks ⇒ evicts
        assert_eq!(reg.snapshot().counter("dlfs.cache.evictions"), 1);
        assert_eq!(reg.snapshot().gauge("dlfs.cache.resident_chunks"), 0);
        c.publish((0, 4096), b, 8000);
        assert_eq!(reg.snapshot().gauge("dlfs.cache.resident_chunks"), 2);
    }

    /// Regression (pre-fix: `expect("retire of non-resident range")`
    /// aborted the process): under CrossEpoch an epoch's teardown can
    /// retire a range that an eviction already reclaimed. The
    /// interleaving — publish → release (parked on the LRU tail) → evict
    /// under pool pressure → retire from the teardown — must surface a
    /// typed [`DlfsError::Cache`], and so must release/unpin of the
    /// vanished range.
    #[test]
    fn retire_after_evict_is_a_typed_error() {
        let c = SampleCache::with_mode(4096, 1, CacheMode::CrossEpoch);
        let a = c.alloc_for(100).unwrap();
        c.publish((2, 8192), a, 100);
        c.release((2, 8192)).unwrap(); // drained: parked, evictable
        let b = c.alloc_for(100).unwrap(); // pool pressure: evicts (2, 8192)
        assert!(!c.contains((2, 8192)));
        assert!(matches!(
            c.retire((2, 8192)),
            Err(DlfsError::Cache {
                op: "retire",
                node: 2,
                offset: 8192
            })
        ));
        assert!(matches!(
            c.release((2, 8192)),
            Err(DlfsError::Cache { op: "release", .. })
        ));
        assert!(matches!(
            c.unpin((2, 8192), 1),
            Err(DlfsError::Cache { op: "unpin", .. })
        ));
        for buf in b {
            c.free_raw(buf);
        }
    }
}
