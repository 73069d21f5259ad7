//! DMA-able buffer pool emulating SPDK's huge-page memory requirement.
//!
//! SPDK mandates that all I/O buffers live in pinned huge-page memory
//! registered with the NVMe driver (paper §III-C1). We model this with a
//! [`DmaPool`]: a contiguous arena carved from simulated 2 MiB huge pages
//! into fixed-size chunks with a free list. Buffers not allocated from a
//! pool (plain application memory) cannot be handed to a qpair — mirroring
//! the real constraint that forces DLFS to copy from its sample cache to
//! application buffers with copy threads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use simkit::plock::Mutex;

/// Simulated huge-page size (2 MiB).
pub const HUGE_PAGE: u64 = 2 << 20;

/// A DMA-registered buffer: a fixed-size chunk from a [`DmaPool`].
///
/// Cheap to clone (shared interior). Interior mutability is required because
/// the "device DMA engine" fills the buffer at completion time while the
/// logical owner holds it.
#[derive(Clone, Debug)]
pub struct DmaBuf {
    data: Arc<Mutex<Box<[u8]>>>,
    pool: Option<Arc<PoolInner>>,
    index: usize,
}

impl DmaBuf {
    /// An unpooled DMA buffer (for tests and one-off transfers).
    pub fn standalone(len: usize) -> DmaBuf {
        DmaBuf {
            data: Arc::new(Mutex::new(vec![0u8; len].into_boxed_slice())),
            pool: None,
            index: usize::MAX,
        }
    }

    pub fn len(&self) -> usize {
        self.data.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy bytes out of the buffer (a host-CPU memcpy; counted in
    /// [`DmaPool::copy_ops`]).
    pub fn copy_to(&self, offset: usize, dst: &mut [u8]) {
        self.count_copy();
        let g = self.data.lock();
        dst.copy_from_slice(&g[offset..offset + dst.len()]);
    }

    /// Copy bytes into the buffer (a host-CPU memcpy; counted in
    /// [`DmaPool::copy_ops`]).
    pub fn copy_from(&self, offset: usize, src: &[u8]) {
        self.count_copy();
        let mut g = self.data.lock();
        g[offset..offset + src.len()].copy_from_slice(src);
    }

    fn count_copy(&self) {
        if let Some(pool) = &self.pool {
            pool.copies.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Run `f` with a read view of the buffer contents.
    pub fn with<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        f(&self.data.lock())
    }

    /// Run `f` with a write view of the buffer contents.
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut [u8]) -> R) -> R {
        f(&mut self.data.lock())
    }

    /// Pool chunk index (used by caches keyed on chunks).
    pub fn index(&self) -> usize {
        self.index
    }
}

#[derive(Debug)]
struct PoolInner {
    chunk_size: usize,
    free: Mutex<Vec<usize>>,
    total: usize,
    hugepages: u64,
    /// CPU memcpys through this pool's buffers (see [`DmaPool::copy_ops`]).
    copies: AtomicU64,
}

/// One chunk's backing buffer.
type ChunkBuf = Arc<Mutex<Box<[u8]>>>;

/// Fixed-chunk allocator over simulated huge pages.
#[derive(Clone, Debug)]
pub struct DmaPool {
    inner: Arc<PoolInner>,
    chunks: Arc<Vec<ChunkBuf>>,
}

impl DmaPool {
    /// Create a pool of `chunks` buffers of `chunk_size` bytes each.
    pub fn new(chunk_size: usize, chunks: usize) -> DmaPool {
        assert!(chunk_size > 0 && chunks > 0);
        let bytes = chunk_size as u64 * chunks as u64;
        let hugepages = bytes.div_ceil(HUGE_PAGE);
        let inner = Arc::new(PoolInner {
            chunk_size,
            free: Mutex::new((0..chunks).rev().collect()),
            total: chunks,
            hugepages,
            copies: AtomicU64::new(0),
        });
        let buffers = (0..chunks)
            .map(|_| Arc::new(Mutex::new(vec![0u8; chunk_size].into_boxed_slice())))
            .collect();
        DmaPool {
            inner,
            chunks: Arc::new(buffers),
        }
    }

    /// Allocate a chunk; `None` when the pool is exhausted.
    pub fn alloc(&self) -> Option<DmaBuf> {
        let idx = self.inner.free.lock().pop()?;
        Some(DmaBuf {
            data: self.chunks[idx].clone(),
            pool: Some(self.inner.clone()),
            index: idx,
        })
    }

    /// Return a chunk to the pool. (Explicit rather than on-Drop so that the
    /// many clones held by in-flight commands don't have to coordinate.)
    pub fn free(&self, buf: DmaBuf) {
        let pool = buf
            .pool
            .as_ref()
            .expect("cannot free a standalone DmaBuf into a pool");
        assert!(
            Arc::ptr_eq(pool, &self.inner),
            "DmaBuf returned to the wrong pool"
        );
        let mut free = self.inner.free.lock();
        debug_assert!(!free.contains(&buf.index), "double free of DMA chunk");
        free.push(buf.index);
    }

    pub fn chunk_size(&self) -> usize {
        self.inner.chunk_size
    }

    pub fn total_chunks(&self) -> usize {
        self.inner.total
    }

    pub fn available(&self) -> usize {
        self.inner.free.lock().len()
    }

    /// Simulated huge pages pinned for this pool.
    pub fn hugepages(&self) -> u64 {
        self.inner.hugepages
    }

    /// CPU memcpys through this pool's buffers ([`DmaBuf::copy_to`] /
    /// [`DmaBuf::copy_from`]) since the pool was made. Device-side DMA
    /// (`with`/`with_mut`) is *not* counted — that transfer is done by
    /// the device engine, not the host CPU — and neither are standalone
    /// buffers. Scoped to the pool, so simulations running side by side
    /// never see each other's copies; zero-copy tests snapshot it before
    /// and after a read to prove the steady-state path never memcpys.
    pub fn copy_ops(&self) -> u64 {
        self.inner.copies.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle() {
        let pool = DmaPool::new(4096, 4);
        assert_eq!(pool.available(), 4);
        let a = pool.alloc().unwrap();
        let b = pool.alloc().unwrap();
        assert_eq!(pool.available(), 2);
        assert_ne!(a.index(), b.index());
        pool.free(a);
        pool.free(b);
        assert_eq!(pool.available(), 4);
    }

    #[test]
    fn exhaustion_returns_none() {
        let pool = DmaPool::new(64, 2);
        let a = pool.alloc().unwrap();
        let _b = pool.alloc().unwrap();
        assert!(pool.alloc().is_none());
        pool.free(a);
        assert!(pool.alloc().is_some());
    }

    #[test]
    fn buffer_contents_roundtrip() {
        let pool = DmaPool::new(128, 1);
        let buf = pool.alloc().unwrap();
        buf.copy_from(10, b"hello");
        let mut out = [0u8; 5];
        buf.copy_to(10, &mut out);
        assert_eq!(&out, b"hello");
        assert_eq!(pool.copy_ops(), 2);
        buf.with(|d| assert_eq!(&d[10..15], b"hello"));
        buf.with_mut(|d| d[10] = b'H');
        buf.with(|d| assert_eq!(&d[10..15], b"Hello"));
    }

    #[test]
    fn hugepage_accounting() {
        // 16 chunks of 256 KB = 4 MiB = 2 huge pages.
        let pool = DmaPool::new(256 << 10, 16);
        assert_eq!(pool.hugepages(), 2);
        assert_eq!(pool.chunk_size(), 256 << 10);
        assert_eq!(pool.total_chunks(), 16);
    }

    #[test]
    #[should_panic(expected = "standalone")]
    fn freeing_standalone_panics() {
        let pool = DmaPool::new(64, 1);
        pool.free(DmaBuf::standalone(64));
    }
}
