//! The page store: fixed-size page frames behind an LRU buffer, over a
//! pluggable [`PageBackend`] — with **no decoded mirror**.
//!
//! # Residency and the pin/unpin contract
//!
//! Historically the store kept a decoded in-memory image of *every* page,
//! which made "cold" reads never actually cold and bounded datasets by RAM.
//! That mirror is gone. Decoded payloads now live in a **resident map**
//! that holds exactly two kinds of pages:
//!
//! * **buffer members** — pages currently admitted to the [`LruBuffer`];
//!   their decoded payload is the in-memory image a buffer hit serves, and
//!   it is dropped when the page is evicted (after a write-back if dirty);
//! * **pinned pages** — pages with outstanding [`PageRef`] guards from
//!   [`PageStore::peek`]. A peek pins the page (refcounted on the
//!   [`LruBuffer`], which exempts it from eviction) **without touching
//!   recency, membership or any counter**, so snapshot reads leave the
//!   measured buffer state byte-identical. A peek of a non-resident page
//!   decodes it through the backend as an [`IoClass::Unmetered`] transfer
//!   and holds it in the resident map — *not* admitted to the buffer —
//!   until the last guard drops.
//!
//! Everything else decodes on miss through the backend and is dropped on
//! eviction, so peak decoded residency is bounded by `buffer capacity +
//! pinned pages` (tracked by [`PageStore::peak_resident_pages`] /
//! [`PageStore::peak_pinned_pages`] and asserted by the `out_of_core` bench
//! experiment) instead of by the dataset size.
//!
//! A [`PageRef`] holds its payload through an `Arc`, so a guard stays valid
//! even if the page is concurrently overwritten (writes *replace* the
//! resident payload — a guard taken before the write keeps observing the
//! snapshot it pinned; trees are read-only during joins, so this only
//! matters for exotic interleavings) or freed.
//!
//! # Read/write path and the backend parity guarantee
//!
//! * Logical reads go through the LRU buffer: a **hit** is served from the
//!   resident payload, a **miss** transfers the frame from the backend
//!   ([`IoClass::Metered`]) and decodes it.
//! * Writes are **write-back**: allocate/write dirty the buffered page; the
//!   frame is encoded and written to the backend when the page is evicted
//!   or on [`PageStore::flush`] (both metered); [`PageStore::drop_buffer`]
//!   writes dirty frames back as [`IoClass::Unmetered`] traffic — see the
//!   counting contract in the [backend module docs](crate::backend).
//!
//! All accounting ([`IoStats`], buffer state, eviction decisions) happens
//! *above* the backend, so swapping [`StorageBackend::Heap`] for
//! [`StorageBackend::File`] or [`StorageBackend::Mmap`] changes no counter
//! and no result — only whether the frames actually hit storage, measured
//! by [`PageStore::backend_io`].
//!
//! The store is internally synchronized (a mutex around the residency
//! state), which is what lets `&self` peeks pin pages while `&mut self`
//! metered operations stay exclusive. Guards never hold the lock; they
//! re-acquire it briefly on drop to unpin.

use std::collections::{BTreeSet, HashMap};
use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::backend::{BackendIo, IoClass, PageBackend, StorageBackend};
use crate::error::{IoOp, PageIoError};
use crate::fault::{FaultBackend, FaultSpec, FaultStats};
use crate::frame::{seal_frame, verify_frame, PagePayload, FRAME_TRAILER_BYTES};
use crate::lru::{Admission, LruBuffer};
use crate::stats::IoStats;
use crate::DEFAULT_PAGE_SIZE;

/// Virtual time source the store's retry backoff "sleeps" against.
///
/// The backoff never blocks a thread or consults a wall clock — it *records*
/// ticks on this trait, keeping retry behavior fully deterministic (and the
/// workspace `CIJ-D101` clock lint clean). The default [`VirtualClock`]
/// simply accumulates; a test clock can observe the exact backoff schedule.
pub trait RetryClock: std::fmt::Debug + Send {
    /// Charges `ticks` of backoff delay.
    fn advance(&mut self, ticks: u64);
    /// Total ticks charged so far.
    fn ticks(&self) -> u64;
}

/// The default [`RetryClock`]: a plain accumulator of virtual ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VirtualClock {
    ticks: u64,
}

impl RetryClock for VirtualClock {
    fn advance(&mut self, ticks: u64) {
        self.ticks += ticks;
    }

    fn ticks(&self) -> u64 {
        self.ticks
    }
}

/// Bounded retry-with-backoff policy for transient backend faults.
///
/// Attempt `k` (1-based) that fails with a transient error charges
/// `backoff_base_ticks << (k - 1)` virtual ticks and retries, up to
/// `max_attempts` total attempts; persistent and corrupt errors are never
/// retried. The default budget of 4 attempts is generous: the injected
/// fault schedule never fires twice in a row, and real `EINTR`-class
/// transients are already absorbed inside `FileBackend`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation (first try included). Minimum 1.
    pub max_attempts: u32,
    /// Virtual ticks charged by the first backoff; doubles per retry.
    pub backoff_base_ticks: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            backoff_base_ticks: 1,
        }
    }
}

/// Identifier of a page on the (simulated or real) disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

impl PageId {
    fn as_key(self) -> u64 {
        u64::from(self.0)
    }
}

/// Configuration of a [`PageStore`].
#[derive(Debug, Clone, Copy)]
pub struct PageStoreConfig {
    /// Size of a disk page in bytes. Doubles as the frame size of the
    /// backend and as the byte budget clients use to derive node fanout.
    pub page_size: usize,
    /// Number of pages the LRU buffer can hold.
    pub buffer_pages: usize,
    /// Which storage backend holds the page frames.
    pub backend: StorageBackend,
    /// Optional fault-injection schedule: when set, the created backend is
    /// wrapped in a [`FaultBackend`]. Both default
    /// constructors consult [`FaultSpec::from_env`], so
    /// `CIJ_FAULT_PROFILE=transient` puts every store in the process under
    /// injected faults (the CI robustness pass).
    pub fault: Option<FaultSpec>,
}

impl Default for PageStoreConfig {
    /// A generic default: 4 KB pages (a typical OS page size), no buffer,
    /// heap frames. The paper's experimental setting is deliberately *not*
    /// the default — use [`PageStoreConfig::paper_default`] for that.
    fn default() -> Self {
        PageStoreConfig {
            page_size: 4096,
            buffer_pages: 0,
            backend: StorageBackend::Heap,
            fault: FaultSpec::from_env(),
        }
    }
}

impl PageStoreConfig {
    /// The paper's experimental setting: **1 KB pages**
    /// ([`DEFAULT_PAGE_SIZE`]), explicitly distinct from the generic
    /// [`Default`] (4 KB).
    ///
    /// The paper sizes the LRU buffer *relative to the data*: "2 % of the
    /// data size" ([`crate::DEFAULT_BUFFER_FRACTION`]). Since the data size
    /// is unknown until pages are allocated, `buffer_pages` starts at 0 here
    /// and the buffer is sized after loading via
    /// [`PageStore::set_buffer_fraction`] (or
    /// [`PageStore::set_default_buffer`]) — that call is part of the
    /// convention, not optional.
    pub fn paper_default() -> Self {
        PageStoreConfig {
            page_size: DEFAULT_PAGE_SIZE,
            buffer_pages: 0,
            backend: StorageBackend::Heap,
            fault: FaultSpec::from_env(),
        }
    }

    /// Sets the buffer capacity in pages.
    pub fn with_buffer_pages(mut self, pages: usize) -> Self {
        self.buffer_pages = pages;
        self
    }

    /// Sets the page size in bytes.
    pub fn with_page_size(mut self, bytes: usize) -> Self {
        self.page_size = bytes;
        self
    }

    /// Sets the storage backend.
    pub fn with_backend(mut self, backend: StorageBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets an explicit fault-injection schedule (overriding whatever the
    /// environment requested).
    pub fn with_fault(mut self, spec: FaultSpec) -> Self {
        self.fault = Some(spec);
        self
    }

    /// Disables fault injection even when the environment requests it —
    /// for oracles and parity baselines that must run clean.
    pub fn without_faults(mut self) -> Self {
        self.fault = None;
        self
    }
}

/// The mutex-guarded residency state of a [`PageStore`].
#[derive(Debug)]
struct StoreInner<T: PagePayload> {
    /// Decoded payloads of exactly the buffer members and the pinned pages
    /// — the replacement for the historical full mirror.
    resident: HashMap<u64, Arc<T>>,
    /// Which page ids are currently allocated (index = page id).
    allocated: Vec<bool>,
    backend: Box<dyn PageBackend>,
    buffer: LruBuffer,
    stats: IoStats,
    /// Scratch frame (always `page_size` bytes) for encode/decode transfers.
    frame: Vec<u8>,
    /// High-water mark of `resident.len()`, sampled at operation
    /// boundaries (steady states, not mid-operation transients).
    peak_resident: usize,
    /// Bounded retry-with-backoff policy for transient backend faults.
    retry: RetryPolicy,
    /// Virtual time the backoff charges its delays against.
    clock: Box<dyn RetryClock>,
    /// Frames that failed checksum verification: reads of these fail fast
    /// with a `Corrupt` error instead of re-transferring known-bad bytes.
    /// Ordered set so diagnostics enumerate deterministically.
    quarantined: BTreeSet<u32>,
    /// Read attempts repeated after a transient error.
    fault_retries: u64,
    /// Reads that succeeded after at least one retry.
    fault_recoveries: u64,
    /// Write attempts repeated after a transient error.
    fault_write_retries: u64,
}

/// A disk of fixed-size pages with an LRU buffer in front of it.
///
/// Payloads of type `T` (R-tree nodes, in practice) are serialized through
/// the [`PagePayload`] codec into `page_size`-byte frames held by the
/// configured [`PageBackend`]; a payload whose encoding exceeds the page
/// size is rejected at allocate/write time, so fanout budgets cannot be
/// silently violated. [`PageStore::read`] returns owned payloads so that
/// callers never hold borrows across further store operations (pages can be
/// evicted under you, exactly like a real buffer pool); [`PageStore::peek`]
/// returns a pinned [`PageRef`] guard instead. See the [module docs](self)
/// for the residency and pin/unpin contract.
#[derive(Debug)]
pub struct PageStore<T: PagePayload> {
    inner: Arc<Mutex<StoreInner<T>>>,
    /// Shared counter handle, cached outside the lock.
    stats: IoStats,
    kind: StorageBackend,
    page_size: usize,
}

impl<T: PagePayload> Clone for PageStore<T> {
    /// A deep, independent copy: fresh backend with identical frames, the
    /// same buffer membership/recency, shared [`IoStats`] counters (like
    /// every other handle copy) — and **no pins**: the clone has no
    /// outstanding [`PageRef`] guards, so only buffer members carry over
    /// into its resident map.
    fn clone(&self) -> Self {
        let inner = self.lock();
        let mut buffer = inner.buffer.clone();
        buffer.reset_pins();
        let resident: HashMap<u64, Arc<T>> = inner
            .resident
            .iter()
            .filter(|(k, _)| buffer.contains(**k))
            .map(|(k, v)| (*k, Arc::clone(v)))
            .collect();
        let peak_resident = resident.len();
        PageStore {
            inner: Arc::new(Mutex::new(StoreInner {
                resident,
                allocated: inner.allocated.clone(),
                backend: inner.backend.clone_backend(),
                buffer,
                stats: inner.stats.clone(),
                frame: vec![0u8; inner.frame.len()],
                peak_resident,
                retry: inner.retry,
                // The clone starts its own virtual timeline (clock state is
                // diagnostic, not part of the data).
                clock: Box::new(VirtualClock::default()),
                quarantined: inner.quarantined.clone(),
                fault_retries: inner.fault_retries,
                fault_recoveries: inner.fault_recoveries,
                fault_write_retries: inner.fault_write_retries,
            })),
            stats: self.stats.clone(),
            kind: self.kind,
            page_size: self.page_size,
        }
    }
}

impl<T: PagePayload> PageStore<T> {
    /// Creates an empty store with the given configuration and fresh
    /// statistics counters.
    pub fn new(config: PageStoreConfig) -> Self {
        Self::with_stats(config, IoStats::new())
    }

    /// Creates a store that shares statistics counters with `stats`.
    ///
    /// The CIJ join algorithms operate on two (or more) trees at once but the
    /// paper reports a single page-access figure, so the trees' stores share
    /// one counter set.
    pub fn with_stats(config: PageStoreConfig, stats: IoStats) -> Self {
        assert!(config.page_size > 0, "page size must be positive");
        let mut backend = config.backend.create(config.page_size);
        if let Some(spec) = config.fault {
            backend = Box::new(FaultBackend::new(backend, spec));
        }
        PageStore {
            inner: Arc::new(Mutex::new(StoreInner {
                resident: HashMap::new(),
                allocated: Vec::new(),
                backend,
                buffer: LruBuffer::new(config.buffer_pages),
                stats: stats.clone(),
                frame: vec![0u8; config.page_size],
                peak_resident: 0,
                retry: RetryPolicy::default(),
                clock: Box::new(VirtualClock::default()),
                quarantined: BTreeSet::new(),
                fault_retries: 0,
                fault_recoveries: 0,
                fault_write_retries: 0,
            })),
            stats,
            kind: config.backend,
            page_size: config.page_size,
        }
    }

    fn lock(&self) -> MutexGuard<'_, StoreInner<T>> {
        // Poisoning is ignored deliberately: a panic mid-operation in some
        // other thread must not cascade into every guard drop.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The configured page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Which storage backend holds this store's frames.
    pub fn backend_kind(&self) -> StorageBackend {
        self.kind
    }

    /// Bytes actually transferred to/from the backend so far — the physical
    /// counterpart of the [`IoStats`] page-access counts (metered and
    /// unmetered buckets, see [`BackendIo`]).
    pub fn backend_io(&self) -> BackendIo {
        self.lock().backend.io()
    }

    /// Number of allocated pages (the data size on disk, in pages).
    pub fn num_pages(&self) -> usize {
        self.lock().allocated.iter().filter(|&&a| a).count()
    }

    /// A handle to the shared statistics counters.
    pub fn stats(&self) -> IoStats {
        self.stats.clone()
    }

    /// Number of pages currently holding a decoded payload (buffer members
    /// plus pinned pages).
    pub fn resident_pages(&self) -> usize {
        self.lock().resident.len()
    }

    /// High-water mark of [`PageStore::resident_pages`] — with the mirror
    /// gone this is bounded by `buffer capacity + peak pinned`, not by the
    /// dataset.
    pub fn peak_resident_pages(&self) -> usize {
        self.lock().peak_resident
    }

    /// Number of distinct pages currently pinned by [`PageRef`] guards.
    pub fn pinned_pages(&self) -> usize {
        self.lock().buffer.pinned_pages()
    }

    /// High-water mark of [`PageStore::pinned_pages`].
    pub fn peak_pinned_pages(&self) -> usize {
        self.lock().buffer.peak_pinned()
    }

    /// Restarts the residency high-water marks from the current state, so a
    /// measurement phase tracks its own peaks rather than construction's.
    pub fn reset_residency_peaks(&mut self) {
        let mut inner = self.lock();
        inner.peak_resident = inner.resident.len();
        inner.buffer.reset_peak_pinned();
    }

    /// Allocates a new page containing `payload` and returns its id.
    ///
    /// Allocation counts as a logical write; the physical write happens when
    /// the page is evicted from the buffer (write-back) or on
    /// [`PageStore::flush`].
    ///
    /// # Panics
    ///
    /// Panics with a [`FrameOverflow`](crate::FrameOverflow) message if the
    /// payload's encoding does not fit one page.
    pub fn allocate(&mut self, payload: T) -> PageId {
        let inner = &mut *self.lock();
        inner.check_fits(&payload);
        let index = inner.backend.allocate();
        debug_assert_eq!(
            index as usize,
            inner.allocated.len(),
            "backend frame index drifted from the page table"
        );
        inner.allocated.push(true);
        let id = PageId(index);
        inner.stats.record_logical_write();
        let key = id.as_key();
        inner.resident.insert(key, Arc::new(payload));
        inner.admit_dirty(key);
        inner.release_if_unreferenced(key);
        inner.note_peak();
        id
    }

    /// Reads the payload of a page, going through the buffer. A miss
    /// transfers the frame from the backend ([`IoClass::Metered`]) and
    /// decodes it; a hit is served from the resident payload.
    ///
    /// # Panics
    ///
    /// Panics if the page does not exist — that is a logic error in the
    /// caller (dangling `PageId`), not a runtime condition to handle — and
    /// on storage failure (see [`PageStore::try_read`] for the fallible
    /// variant; this infallible wrapper serves build/oracle paths where a
    /// storage error is service-fatal by the crate's failure model).
    pub fn read(&mut self, id: PageId) -> T {
        self.try_read(id).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`PageStore::read`]: transient backend faults
    /// are retried under the store's [`RetryPolicy`]; exhausted transients,
    /// persistent failures and checksum mismatches come back as a
    /// structured [`PageIoError`]. Corrupt frames are quarantined — later
    /// reads fail fast without re-transferring known-bad bytes.
    pub fn try_read(&mut self, id: PageId) -> Result<T, PageIoError> {
        let arc = self.lock().try_read_arc(id)?;
        Ok(Arc::try_unwrap(arc).unwrap_or_else(|arc| (*arc).clone()))
    }

    /// Reads a page by reference, going through the buffer with accounting
    /// identical to [`PageStore::read`] — but serving the visitor without
    /// cloning the payload.
    ///
    /// On a miss the frame is physically transferred from the backend and
    /// decoded (so [`PageStore::backend_io`] byte counters match `read`
    /// exactly). This is the zero-copy decode path behind arena-based node
    /// visits in `cij-rtree`: pages land straight in the caller's flat
    /// buffers with no intermediate payload allocation. The callback runs
    /// *outside* the store's internal lock (the payload is kept alive by an
    /// `Arc`), so it may call back into this or any other store.
    ///
    /// # Panics
    ///
    /// Panics if the page does not exist, like [`PageStore::read`].
    pub fn read_with<R>(&mut self, id: PageId, f: impl FnOnce(&T) -> R) -> R {
        self.try_read_with(id, f).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`PageStore::read_with`] — error contract of
    /// [`PageStore::try_read`].
    pub fn try_read_with<R>(
        &mut self,
        id: PageId,
        f: impl FnOnce(&T) -> R,
    ) -> Result<R, PageIoError> {
        let arc = self.lock().try_read_arc(id)?;
        Ok(f(&arc))
    }

    /// Overwrites the payload of an existing page, going through the buffer.
    ///
    /// The resident payload is **replaced**, not mutated: outstanding
    /// [`PageRef`] guards keep observing the payload they pinned.
    ///
    /// # Panics
    ///
    /// Panics on unallocated pages and on payloads that exceed the page size
    /// (see [`PageStore::allocate`]).
    pub fn write(&mut self, id: PageId, payload: T) {
        let inner = &mut *self.lock();
        assert!(inner.is_allocated(id), "write to unallocated page");
        inner.check_fits(&payload);
        inner.stats.record_logical_write();
        let key = id.as_key();
        inner.resident.insert(key, Arc::new(payload));
        inner.admit_dirty(key);
        inner.release_if_unreferenced(key);
        inner.note_peak();
    }

    /// Accounts for a logical read of `id` **without** returning the
    /// payload: the buffer is touched and the hit or miss recorded exactly
    /// as [`PageStore::read`] would — including the physical frame transfer
    /// on a miss, so backend byte counters replay identically too.
    ///
    /// This is the deferred-accounting hook of the parallel NM-CIJ path:
    /// workers read from pinned snapshots ([`PageStore::peek`]) and record
    /// page ids; the coordinator replays each trace here in sequential leaf
    /// order (through `RTree::replay_read` in `cij-rtree`, a thin wrapper
    /// over this method — this doc is the authoritative one).
    ///
    /// In debug builds, when the replayed page still holds a pinned resident
    /// payload, the transferred frame is compared against its re-encoding —
    /// catching trace/snapshot drift at the first diverging page.
    ///
    /// # Panics
    ///
    /// Panics if the replayed page id does not exist (trace drift), like
    /// [`PageStore::read`].
    pub fn note_read(&mut self, id: PageId) {
        self.try_note_read(id).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`PageStore::note_read`] — error contract of
    /// [`PageStore::try_read`].
    pub fn try_note_read(&mut self, id: PageId) -> Result<(), PageIoError> {
        let _ = self.lock().try_read_arc(id)?;
        Ok(())
    }

    /// Reads a page **without** touching the buffer recency, the metered
    /// counters or the [`IoStats`] — returning a [`PageRef`] guard that
    /// pins the page for its lifetime.
    ///
    /// A resident page (buffer member or already pinned) is served from its
    /// decoded payload with zero I/O. A cold page is decoded through the
    /// backend as an [`IoClass::Unmetered`] transfer and held in the
    /// resident map — not admitted to the buffer — until the last guard
    /// drops. Either way the measured buffer state is left byte-identical,
    /// which is what the snapshot readers of the parallel and fast
    /// execution paths rely on.
    ///
    /// # Panics
    ///
    /// Panics if the page does not exist, and on storage failure (see
    /// [`PageStore::try_peek`]).
    pub fn peek(&self, id: PageId) -> PageRef<T> {
        self.try_peek(id).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`PageStore::peek`] — error contract of
    /// [`PageStore::try_read`], with the transfer accounted as
    /// [`IoClass::Unmetered`] like every peek.
    pub fn try_peek(&self, id: PageId) -> Result<PageRef<T>, PageIoError> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        assert!(inner.is_allocated(id), "peek of unallocated page");
        let key = id.as_key();
        let payload = match inner.resident.get(&key) {
            Some(arc) => Arc::clone(arc),
            None => {
                inner.read_frame_retrying(id.0, IoClass::Unmetered)?;
                inner.verify_or_quarantine(id.0)?;
                let arc = Arc::new(T::decode(&inner.frame));
                inner.resident.insert(key, Arc::clone(&arc));
                arc
            }
        };
        inner.buffer.pin(key);
        inner.note_peak();
        drop(guard);
        Ok(PageRef {
            store: Arc::clone(&self.inner),
            key,
            payload,
        })
    }

    /// Frees a page: it no longer counts towards [`PageStore::num_pages`],
    /// is dropped from the buffer without write-back accounting, and its
    /// backend frame is released.
    ///
    /// Used by the R-tree bulk loader to discard the placeholder root of an
    /// initially-empty tree once the packed root replaces it. Freed page ids
    /// are not recycled. Outstanding [`PageRef`] guards stay valid (they
    /// own their payload).
    pub fn free(&mut self, id: PageId) {
        let inner = &mut *self.lock();
        if inner.is_allocated(id) {
            inner.allocated[id.0 as usize] = false;
            inner.buffer.remove(id.as_key());
            inner.resident.remove(&id.as_key());
            inner.backend.free(id.0);
        }
    }

    /// Writes back every dirty buffered page (metered, like eviction
    /// write-backs — the counting contract in the
    /// [backend docs](crate::backend)), empties the buffer and flushes the
    /// backend.
    pub fn flush(&mut self) {
        let inner = &mut *self.lock();
        for (key, dirty) in inner.buffer.clear() {
            if dirty {
                inner.write_back(key, IoClass::Metered);
                inner.stats.record_physical_write();
            }
            inner.release_if_unreferenced(key);
        }
        // A failed durability flush is service-fatal by the failure model:
        // nothing above the store can make the medium sync.
        if let Err(e) = inner.backend.flush() {
            panic!("{e}");
        }
    }

    /// Empties the buffer *without* metering write-backs. Useful to make
    /// separate measurements start cold without attributing the previous
    /// phase's dirty pages to the next one.
    ///
    /// The dirty frames are still physically written (data must survive on a
    /// real backend — a later cold read serves them from storage), but as
    /// [`IoClass::Unmetered`] traffic: the [`IoStats`] and the metered byte
    /// counters stay put, by design of the measurement convention.
    pub fn drop_buffer(&mut self) {
        let inner = &mut *self.lock();
        for (key, dirty) in inner.buffer.clear() {
            if dirty {
                inner.write_back(key, IoClass::Unmetered);
            }
            inner.release_if_unreferenced(key);
        }
    }

    /// Resizes the buffer to `pages` pages, accounting for the write-back of
    /// any dirty pages that get evicted by a shrink. (Growing keeps all
    /// resident pages; [`LruBuffer::resize`] handles both directions.)
    pub fn set_buffer_pages(&mut self, pages: usize) {
        let inner = &mut *self.lock();
        for (key, dirty) in inner.buffer.resize(pages) {
            if dirty {
                inner.write_back(key, IoClass::Metered);
                inner.stats.record_physical_write();
            }
            inner.release_if_unreferenced(key);
        }
    }

    /// Sets the buffer capacity to `fraction` of the current data size on
    /// disk (in pages), the way the paper expresses buffer sizes ("2 % of the
    /// data size"). At least one page is kept whenever `fraction > 0` — even
    /// when the store is so small that the fraction rounds to zero pages.
    pub fn set_buffer_fraction(&mut self, fraction: f64) {
        let pages = if fraction <= 0.0 {
            0
        } else {
            ((self.num_pages() as f64 * fraction).ceil() as usize).max(1)
        };
        self.set_buffer_pages(pages);
    }

    /// The paper's default buffer: 2 % of the data size.
    pub fn set_default_buffer(&mut self) {
        self.set_buffer_fraction(crate::DEFAULT_BUFFER_FRACTION);
    }

    /// Current buffer capacity in pages.
    pub fn buffer_pages(&self) -> usize {
        self.lock().buffer.capacity()
    }

    /// Fault and recovery counters: the backend's injection tallies (zero
    /// for real backends) combined with the store's retry, recovery and
    /// quarantine counts.
    pub fn fault_stats(&self) -> FaultStats {
        let inner = self.lock();
        let mut stats = inner.backend.fault_stats();
        stats.retries = inner.fault_retries;
        stats.recoveries = inner.fault_recoveries;
        stats.write_retries = inner.fault_write_retries;
        stats.quarantined_frames = inner.quarantined.len() as u64;
        stats
    }

    /// Wraps the current backend in a [`FaultBackend`] running `spec` —
    /// the hook the `fault_storm` experiment uses to corrupt frames of an
    /// already-built tree. Existing frames and byte counters carry over.
    pub fn inject_fault(&mut self, spec: FaultSpec) {
        let inner = &mut *self.lock();
        let placeholder: Box<dyn PageBackend> = Box::new(crate::HeapBackend::new(1));
        let current = std::mem::replace(&mut inner.backend, placeholder);
        inner.backend = Box::new(FaultBackend::new(current, spec));
    }

    /// Replaces the retry policy (default: 4 attempts, exponential backoff
    /// from 1 virtual tick).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.lock().retry = RetryPolicy {
            max_attempts: policy.max_attempts.max(1),
            ..policy
        };
    }

    /// Replaces the virtual clock the retry backoff charges against.
    pub fn set_retry_clock(&mut self, clock: Box<dyn RetryClock>) {
        self.lock().clock = clock;
    }

    /// Total virtual backoff ticks charged so far.
    pub fn retry_clock_ticks(&self) -> u64 {
        self.lock().clock.ticks()
    }

    /// Frame indices currently quarantined after checksum failures, in
    /// ascending order.
    pub fn quarantined_frames(&self) -> Vec<u32> {
        self.lock().quarantined.iter().copied().collect()
    }

    #[cfg(test)]
    pub(crate) fn buffer_keys_mru_to_lru(&self) -> Vec<u64> {
        self.lock().buffer.keys_mru_to_lru()
    }
}

impl<T: PagePayload> StoreInner<T> {
    fn is_allocated(&self, id: PageId) -> bool {
        self.allocated.get(id.0 as usize).copied().unwrap_or(false)
    }

    fn check_fits(&self, payload: &T) {
        // The payload budget excludes the integrity trailer sealed into the
        // tail of every frame.
        let budget = self.frame.len().saturating_sub(FRAME_TRAILER_BYTES);
        if let Err(overflow) = payload.check_frame(budget) {
            panic!("{overflow}");
        }
    }

    fn note_peak(&mut self) {
        self.peak_resident = self.peak_resident.max(self.resident.len());
    }

    /// Transfers frame `index` into the scratch buffer, retrying transient
    /// faults under the bounded [`RetryPolicy`] with exponential backoff on
    /// the virtual clock. Quarantined frames fail fast with a `Corrupt`
    /// error before touching the backend.
    ///
    /// This is the one sanctioned read-side `IoClass` funnel (allowlisted
    /// `CIJ-I301` in `lint.toml`, like `write_back` on the write side).
    fn read_frame_retrying(&mut self, index: u32, class: IoClass) -> Result<(), PageIoError> {
        if self.quarantined.contains(&index) {
            return Err(PageIoError::corrupt(
                IoOp::Read,
                Some(index),
                "frame quarantined after an earlier checksum failure",
            ));
        }
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match self.backend.read(index, &mut self.frame, class) {
                Ok(()) => {
                    if attempt > 1 {
                        self.fault_recoveries += 1;
                    }
                    return Ok(());
                }
                Err(e) if e.is_transient() && attempt < self.retry.max_attempts => {
                    self.fault_retries += 1;
                    self.clock
                        .advance(self.retry.backoff_base_ticks << (attempt - 1).min(16));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Checks the integrity trailer of the scratch frame just transferred
    /// for `index`; on mismatch the frame is quarantined and a `Corrupt`
    /// error returned.
    fn verify_or_quarantine(&mut self, index: u32) -> Result<(), PageIoError> {
        match verify_frame(&self.frame) {
            Ok(_payload_len) => Ok(()),
            Err(detail) => {
                self.quarantined.insert(index);
                Err(PageIoError::corrupt(IoOp::Read, Some(index), detail))
            }
        }
    }

    /// The shared counted-read path of `read`, `read_with` and `note_read`:
    /// touch the buffer, record hit/miss, transfer + verify + decode on
    /// miss, keep the residency invariant (resident = members ∪ pinned).
    ///
    /// A failed transfer still counts its miss (the attempt is real I/O
    /// pressure), but the page is backed out of the buffer so a later retry
    /// starts from a consistent state.
    fn try_read_arc(&mut self, id: PageId) -> Result<Arc<T>, PageIoError> {
        assert!(self.is_allocated(id), "read of unallocated page");
        let key = id.as_key();
        match self.buffer.touch(key, false) {
            Admission::Hit => {
                self.stats.record_hit();
                Ok(Arc::clone(
                    self.resident
                        .get(&key)
                        .expect("buffer member without a decoded payload"),
                ))
            }
            Admission::Miss { evicted } => {
                self.stats.record_miss();
                self.handle_eviction(evicted);
                let outcome = match self.read_frame_retrying(id.0, IoClass::Metered) {
                    Ok(()) => self.verify_or_quarantine(id.0),
                    Err(e) => Err(e),
                };
                if let Err(e) = outcome {
                    // Back the admission out: a buffer member must always
                    // carry a decoded payload.
                    self.buffer.remove(key);
                    self.release_if_unreferenced(key);
                    return Err(e);
                }
                #[cfg(debug_assertions)]
                if let Some(pinned) = self.resident.get(&key) {
                    // The page still holds a pinned snapshot payload: the
                    // transferred frame must re-encode it exactly, or the
                    // trace/replay machinery has drifted.
                    let expected = pinned.encode();
                    assert_eq!(
                        &self.frame[..expected.len()],
                        &expected[..],
                        "transferred frame of page {id:?} drifted from the pinned snapshot"
                    );
                }
                let payload = Arc::new(T::decode(&self.frame));
                if self.buffer.contains(key) {
                    self.resident.insert(key, Arc::clone(&payload));
                }
                self.note_peak();
                Ok(payload)
            }
        }
    }

    /// Admits `key` as dirty, handling whatever the admission evicted
    /// (including `key` itself in the capacity-0 self-eviction case).
    fn admit_dirty(&mut self, key: u64) {
        match self.buffer.touch(key, true) {
            Admission::Hit => {}
            Admission::Miss { evicted } => self.handle_eviction(evicted),
        }
    }

    /// Write-back (metered) + residency release of an evicted page.
    fn handle_eviction(&mut self, evicted: Option<(u64, bool)>) {
        if let Some((key, dirty)) = evicted {
            if dirty {
                self.write_back(key, IoClass::Metered);
                self.stats.record_physical_write();
            }
            self.release_if_unreferenced(key);
        }
    }

    /// Drops the resident payload of `key` unless the buffer or a pin still
    /// references it — the single place the residency invariant
    /// (resident = members ∪ pinned) is enforced on the release side.
    fn release_if_unreferenced(&mut self, key: u64) {
        if !self.buffer.contains(key) && self.buffer.pin_count(key) == 0 {
            self.resident.remove(&key);
        }
    }

    /// Encodes the resident payload of a page into a zero-padded frame,
    /// seals the integrity trailer, and writes it to the backend under
    /// `class` — retrying transient faults under the [`RetryPolicy`].
    /// Reuses the scratch frame across calls — no allocation on the
    /// eviction path.
    ///
    /// Exhausted or persistent write failures panic: write-backs happen
    /// during build, eviction and flush, where losing a frame is
    /// service-fatal by the crate's failure model (queries only read).
    ///
    /// This is the one sanctioned write-side `IoClass`-forwarding funnel
    /// (allowlisted `CIJ-I301` in `lint.toml`): every *caller* must pass a
    /// literal class, which the lint enforces at those call sites.
    fn write_back(&mut self, key: u64, class: IoClass) {
        let page_size = self.frame.len();
        let mut frame = std::mem::take(&mut self.frame);
        frame.clear();
        self.resident
            .get(&key)
            .expect("write-back of a page with no decoded payload")
            .encode_into(&mut frame);
        let payload_len = frame.len();
        frame.resize(page_size, 0); // zero padding up to the page size
        seal_frame(&mut frame, payload_len);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match self.backend.write(key as u32, &frame, class) {
                Ok(()) => break,
                Err(e) if e.is_transient() && attempt < self.retry.max_attempts => {
                    self.fault_write_retries += 1;
                    self.clock
                        .advance(self.retry.backoff_base_ticks << (attempt - 1).min(16));
                }
                Err(e) => panic!("write-back of frame {key} failed: {e}"),
            }
        }
        self.frame = frame;
    }
}

/// A pinned reference to a page's decoded payload, returned by
/// [`PageStore::peek`].
///
/// Dereferences to the payload. While any guard for a page is alive the
/// page is pinned: the LRU buffer will not evict it and the store keeps its
/// decoded payload resident. Dropping the last guard unpins the page and —
/// if it is not also a buffer member — releases the payload.
#[derive(Debug)]
pub struct PageRef<T: PagePayload> {
    store: Arc<Mutex<StoreInner<T>>>,
    key: u64,
    payload: Arc<T>,
}

impl<T: PagePayload> Deref for PageRef<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.payload
    }
}

impl<T: PagePayload> Drop for PageRef<T> {
    fn drop(&mut self) {
        let mut inner = self.store.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.buffer.unpin(self.key) {
            inner.release_if_unreferenced(self.key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(buffer_pages: usize) -> PageStore<u32> {
        store_on(buffer_pages, StorageBackend::Heap)
    }

    fn store_on(buffer_pages: usize, backend: StorageBackend) -> PageStore<u32> {
        PageStore::new(
            PageStoreConfig::default()
                .with_buffer_pages(buffer_pages)
                .with_backend(backend),
        )
    }

    #[test]
    fn allocate_and_read_roundtrip() {
        for backend in StorageBackend::ALL {
            let mut s = store_on(4, backend);
            let a = s.allocate(10);
            let b = s.allocate(20);
            assert_eq!(s.read(a), 10);
            assert_eq!(s.read(b), 20);
            assert_eq!(s.num_pages(), 2);
            assert_eq!(s.backend_kind(), backend);
        }
    }

    #[test]
    fn buffered_reads_hit_after_first_access() {
        for backend in StorageBackend::ALL {
            let mut s = store_on(4, backend);
            let a = s.allocate(1);
            s.drop_buffer();
            s.stats().reset();
            s.read(a);
            s.read(a);
            s.read(a);
            let snap = s.stats().snapshot();
            assert_eq!(snap.physical_reads, 1);
            assert_eq!(snap.buffer_hits, 2);
        }
    }

    #[test]
    fn unbuffered_store_counts_every_read() {
        for backend in StorageBackend::ALL {
            let mut s = store_on(0, backend);
            let a = s.allocate(1);
            s.stats().reset();
            for _ in 0..5 {
                assert_eq!(s.read(a), 1);
            }
            assert_eq!(s.stats().snapshot().physical_reads, 5);
        }
    }

    #[test]
    fn write_back_counts_on_eviction() {
        for backend in StorageBackend::ALL {
            let mut s = store_on(1, backend);
            let a = s.allocate(1); // dirty in buffer
            let _b = s.allocate(2); // evicts a (dirty) -> physical write
            let snap = s.stats().snapshot();
            assert_eq!(snap.physical_writes, 1);
            assert_eq!(snap.logical_writes, 2);
            // Reading a again is a miss served from the backend frame.
            s.stats().reset();
            assert_eq!(s.read(a), 1);
            assert_eq!(s.stats().snapshot().physical_reads, 1);
        }
    }

    #[test]
    fn flush_writes_dirty_pages_once() {
        for backend in StorageBackend::ALL {
            let mut s = store_on(10, backend);
            for i in 0..5 {
                s.allocate(i);
            }
            s.flush();
            let snap = s.stats().snapshot();
            assert_eq!(snap.physical_writes, 5);
            // A second flush has nothing left to write.
            s.flush();
            assert_eq!(s.stats().snapshot().physical_writes, 5);
        }
    }

    #[test]
    fn write_updates_payload() {
        for backend in StorageBackend::ALL {
            let mut s = store_on(2, backend);
            let a = s.allocate(1);
            s.write(a, 42);
            assert_eq!(s.read(a), 42);
            assert_eq!(*s.peek(a), 42);
            // The overwrite survives eviction and a cold backend read.
            s.drop_buffer();
            assert_eq!(s.read(a), 42);
        }
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn reading_unallocated_page_panics() {
        let mut s = store(2);
        let a = s.allocate(1);
        let _ = s.read(PageId(a.0 + 7));
    }

    #[test]
    fn note_read_replays_exactly_like_read() {
        // Two stores with identical contents: replaying a page-id trace via
        // note_read must leave counters, buffer state and backend byte
        // counters identical to performing the reads directly.
        for backend in StorageBackend::ALL {
            let mut live = store_on(2, backend);
            let mut replay = store_on(2, backend);
            let ids: Vec<PageId> = (0..4).map(|i| live.allocate(i)).collect();
            for i in 0..4 {
                replay.allocate(i);
            }
            live.stats().reset();
            replay.stats().reset();
            let trace = [ids[0], ids[1], ids[0], ids[2], ids[3], ids[1], ids[0]];
            for &id in &trace {
                let _ = live.read(id);
            }
            for &id in &trace {
                replay.note_read(id);
            }
            assert_eq!(live.stats().snapshot(), replay.stats().snapshot());
            assert_eq!(
                live.buffer_keys_mru_to_lru(),
                replay.buffer_keys_mru_to_lru()
            );
            assert_eq!(live.backend_io(), replay.backend_io());
        }
    }

    #[test]
    fn read_with_accounts_exactly_like_read() {
        // Same trace through read on one store and read_with on another:
        // payloads, counters, buffer state and backend bytes must match.
        for backend in StorageBackend::ALL {
            let mut by_value = store_on(2, backend);
            let mut by_ref = store_on(2, backend);
            let ids: Vec<PageId> = (0..4).map(|i| by_value.allocate(i * 3)).collect();
            for i in 0..4 {
                by_ref.allocate(i * 3);
            }
            by_value.stats().reset();
            by_ref.stats().reset();
            let trace = [ids[0], ids[1], ids[0], ids[2], ids[3], ids[1], ids[0]];
            for &id in &trace {
                let expected = by_value.read(id);
                let got = by_ref.read_with(id, |v| *v);
                assert_eq!(got, expected);
            }
            assert_eq!(by_value.stats().snapshot(), by_ref.stats().snapshot());
            assert_eq!(
                by_value.buffer_keys_mru_to_lru(),
                by_ref.buffer_keys_mru_to_lru()
            );
            assert_eq!(by_value.backend_io(), by_ref.backend_io());
        }
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn note_read_of_unallocated_page_panics() {
        let mut s = store(2);
        let a = s.allocate(1);
        s.note_read(PageId(a.0 + 9));
    }

    #[test]
    fn free_removes_page_from_count_and_buffer() {
        for backend in StorageBackend::ALL {
            let mut s = store_on(4, backend);
            let a = s.allocate(1);
            let b = s.allocate(2);
            assert_eq!(s.num_pages(), 2);
            s.free(a);
            assert_eq!(s.num_pages(), 1);
            // The freed (dirty) page is not written back on flush.
            s.flush();
            assert_eq!(s.stats().snapshot().physical_writes, 1);
            assert_eq!(s.read(b), 2);
        }
    }

    #[test]
    fn buffer_fraction_sizing() {
        let mut s = store(0);
        for i in 0..100 {
            s.allocate(i);
        }
        s.set_buffer_fraction(0.02);
        assert_eq!(s.buffer_pages(), 2);
        s.set_buffer_fraction(0.005);
        assert_eq!(s.buffer_pages(), 1);
        s.set_buffer_fraction(0.0);
        assert_eq!(s.buffer_pages(), 0);
    }

    #[test]
    fn zero_fraction_disables_the_buffer_entirely() {
        let mut s = store(8);
        let a = s.allocate(7);
        s.set_buffer_fraction(0.0);
        assert_eq!(s.buffer_pages(), 0);
        s.stats().reset();
        s.read(a);
        s.read(a);
        // Every read is a miss once the buffer is gone.
        assert_eq!(s.stats().snapshot().physical_reads, 2);
        assert_eq!(s.stats().snapshot().buffer_hits, 0);
    }

    #[test]
    fn tiny_store_fractions_round_up_to_one_page() {
        // On stores so small that fraction * pages rounds to zero, a
        // positive fraction must still keep one buffer page.
        let mut s = store(0);
        s.allocate(1);
        s.set_buffer_fraction(0.001);
        assert_eq!(s.buffer_pages(), 1);
        // Even an empty store gets the one-page floor for fraction > 0 —
        // the buffer exists before data does.
        let mut empty = store(0);
        empty.set_buffer_fraction(0.5);
        assert_eq!(empty.buffer_pages(), 1);
    }

    #[test]
    fn refraction_after_growth_tracks_the_new_data_size() {
        for backend in StorageBackend::ALL {
            let mut s = store_on(0, backend);
            for i in 0..50 {
                s.allocate(i);
            }
            s.set_buffer_fraction(0.1);
            assert_eq!(s.buffer_pages(), 5);
            // Re-apply the fraction after the store grew: capacity follows
            // the new num_pages.
            for i in 50..150 {
                s.allocate(i);
            }
            s.set_buffer_fraction(0.1);
            assert_eq!(s.buffer_pages(), 15);
            // Fill the buffer with dirty pages, then shrink: the evicted
            // dirty pages must be written back and accounted.
            for i in 0..15u32 {
                s.write(PageId(i), i * 3);
            }
            s.stats().reset();
            s.set_buffer_fraction(0.02); // 150 * 0.02 = 3 pages, shrink by 12
            assert_eq!(s.buffer_pages(), 3);
            assert_eq!(
                s.stats().snapshot().physical_writes,
                12,
                "shrink must write back exactly the evicted dirty pages"
            );
            // Data survives the churn.
            assert_eq!(s.read(PageId(0)), 0);
            assert_eq!(s.read(PageId(149)), 149);
        }
    }

    #[test]
    fn shared_stats_between_stores() {
        let stats = IoStats::new();
        let mut p: PageStore<u32> =
            PageStore::with_stats(PageStoreConfig::default(), stats.clone());
        let mut q: PageStore<u32> =
            PageStore::with_stats(PageStoreConfig::default(), stats.clone());
        let a = p.allocate(1);
        let b = q.allocate(2);
        p.read(a);
        q.read(b);
        assert_eq!(stats.snapshot().physical_reads, 2);
    }

    #[test]
    fn grow_buffer_preserves_cached_pages() {
        let mut s = store(2);
        let a = s.allocate(1);
        let b = s.allocate(2);
        s.set_buffer_pages(8);
        s.stats().reset();
        s.read(a);
        s.read(b);
        // Both pages were resident before the grow and must still hit.
        assert_eq!(s.stats().snapshot().buffer_hits, 2);
    }

    #[test]
    fn paper_default_differs_from_generic_default() {
        let paper = PageStoreConfig::paper_default();
        let generic = PageStoreConfig::default();
        assert_eq!(paper.page_size, DEFAULT_PAGE_SIZE);
        assert_eq!(paper.page_size, 1024);
        assert_ne!(
            paper.page_size, generic.page_size,
            "paper_default must not silently alias Default"
        );
        // Both defer buffer sizing to the fraction convention.
        assert_eq!(paper.buffer_pages, 0);
        assert_eq!(paper.backend, StorageBackend::Heap);
    }

    #[test]
    #[should_panic(expected = "page frame overflow")]
    fn oversized_payload_is_rejected_at_allocate() {
        // A u32 needs 4 bytes; a 3-byte page cannot hold it.
        let mut s: PageStore<u32> = PageStore::new(PageStoreConfig::default().with_page_size(3));
        s.allocate(1);
    }

    #[test]
    fn heap_and_file_stores_behave_identically() {
        // One interleaved workload, both backends: every counter, the buffer
        // state and every payload must match — the parity guarantee at the
        // store level.
        let mut heap = store_on(3, StorageBackend::Heap);
        let mut file = store_on(3, StorageBackend::File);
        for s in [&mut heap, &mut file] {
            let ids: Vec<PageId> = (0..8u32).map(|i| s.allocate(i * 11)).collect();
            s.write(ids[2], 999);
            for &id in &[ids[0], ids[5], ids[2], ids[7], ids[0], ids[2]] {
                let _ = s.read(id);
            }
            s.free(ids[3]);
            s.set_buffer_pages(2);
            for &id in &[ids[6], ids[1], ids[6]] {
                let _ = s.read(id);
            }
            s.flush();
        }
        assert_eq!(heap.stats().snapshot(), file.stats().snapshot());
        assert_eq!(heap.buffer_keys_mru_to_lru(), file.buffer_keys_mru_to_lru());
        assert_eq!(heap.num_pages(), file.num_pages());
        assert_eq!(heap.backend_io(), file.backend_io());
        for i in 0..8u32 {
            if i == 3 {
                continue;
            }
            assert_eq!(heap.read(PageId(i)), file.read(PageId(i)), "page {i}");
        }
    }

    #[test]
    fn file_store_serves_data_from_disk_after_cold_restart_of_the_buffer() {
        let mut s = store_on(4, StorageBackend::File);
        let ids: Vec<PageId> = (0..20u32).map(|i| s.allocate(i * 7 + 1)).collect();
        s.flush();
        let io_flushed = s.backend_io();
        assert_eq!(io_flushed.bytes_written as usize, 20 * s.page_size());
        s.drop_buffer();
        s.stats().reset();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(s.read(id), i as u32 * 7 + 1);
        }
        let snap = s.stats().snapshot();
        let io = s.backend_io().since(&io_flushed);
        assert_eq!(
            io.bytes_read,
            snap.physical_reads * s.page_size() as u64,
            "bytes actually read must equal counted physical reads × page size"
        );
    }

    #[test]
    fn metered_byte_contract_holds_for_every_backend() {
        // Both halves of the counting contract, all three backends: after a
        // mixed workload with evictions, flushes and drop_buffer resets,
        // bytes_read == physical_reads × page_size and bytes_written ==
        // physical_writes × page_size.
        for backend in StorageBackend::ALL {
            let mut s = store_on(3, backend);
            let ids: Vec<PageId> = (0..12u32).map(|i| s.allocate(i)).collect();
            s.flush();
            s.drop_buffer(); // unmetered write-backs (nothing dirty here)
            s.stats().reset();
            let before = s.backend_io();
            for &id in &[ids[0], ids[4], ids[0], ids[9], ids[2], ids[4]] {
                let _ = s.read(id);
            }
            s.write(ids[4], 777);
            s.set_buffer_pages(1); // shrink: evicts, one dirty write-back
            s.flush();
            let snap = s.stats().snapshot();
            let io = s.backend_io().since(&before);
            let ps = s.page_size() as u64;
            assert_eq!(io.bytes_read, snap.physical_reads * ps, "{backend}: reads");
            assert_eq!(
                io.bytes_written,
                snap.physical_writes * ps,
                "{backend}: writes"
            );
        }
    }

    #[test]
    fn drop_buffer_write_backs_are_unmetered_but_real() {
        for backend in StorageBackend::ALL {
            let mut s = store_on(4, backend);
            let a = s.allocate(31); // dirty, never flushed
            let before = s.backend_io();
            s.stats().reset();
            s.drop_buffer();
            let io = s.backend_io().since(&before);
            // The frame moved — as unmetered traffic.
            assert_eq!(io.bytes_written, 0, "{backend}: metered bucket untouched");
            assert_eq!(
                io.unmetered_bytes_written,
                s.page_size() as u64,
                "{backend}: the dirty frame was really written"
            );
            assert_eq!(s.stats().snapshot().physical_writes, 0);
            // And the data survives the cold restart.
            assert_eq!(s.read(a), 31);
        }
    }

    #[test]
    fn peek_pins_and_survives_eviction_pressure() {
        for backend in StorageBackend::ALL {
            let mut s = store_on(2, backend);
            let ids: Vec<PageId> = (0..6u32).map(|i| s.allocate(i * 5)).collect();
            s.flush();
            let guard = s.peek(ids[0]);
            assert_eq!(*guard, 0);
            assert_eq!(s.pinned_pages(), 1);
            // Thrash the buffer: the pinned page must keep its payload and
            // stay exempt from eviction throughout.
            for round in 0..3 {
                for &id in &ids[1..] {
                    let _ = s.read(id);
                }
                assert_eq!(*guard, 0, "round {round}");
            }
            drop(guard);
            assert_eq!(s.pinned_pages(), 0);
            // With the last guard gone and the page not a member, its
            // payload is released.
            assert!(s.resident_pages() <= s.buffer_pages());
        }
    }

    #[test]
    fn peek_does_not_touch_metered_state() {
        for backend in StorageBackend::ALL {
            let mut s = store_on(2, backend);
            let ids: Vec<PageId> = (0..5u32).map(|i| s.allocate(i + 100)).collect();
            s.flush();
            s.drop_buffer();
            s.stats().reset();
            let _ = s.read(ids[0]);
            let _ = s.read(ids[1]);
            let counters = s.stats().snapshot();
            let buffer = s.buffer_keys_mru_to_lru();
            let metered = (s.backend_io().bytes_read, s.backend_io().bytes_written);
            // Peek resident and cold pages alike: nothing measured moves.
            {
                let g0 = s.peek(ids[0]); // buffer member
                let g4 = s.peek(ids[4]); // cold page -> unmetered decode
                assert_eq!((*g0, *g4), (100, 104));
            }
            assert_eq!(s.stats().snapshot(), counters);
            assert_eq!(s.buffer_keys_mru_to_lru(), buffer);
            assert_eq!(
                (s.backend_io().bytes_read, s.backend_io().bytes_written),
                metered
            );
            // The cold peek transferred real (unmetered) bytes.
            assert_eq!(s.backend_io().unmetered_bytes_read, s.page_size() as u64);
        }
    }

    #[test]
    fn residency_is_bounded_by_buffer_plus_pins_not_by_the_dataset() {
        for backend in StorageBackend::ALL {
            let mut s = store_on(4, backend);
            let ids: Vec<PageId> = (0..64u32).map(|i| s.allocate(i)).collect();
            s.flush();
            // Hold a few pins while scanning everything repeatedly.
            let guards: Vec<PageRef<u32>> = ids[..3].iter().map(|&id| s.peek(id)).collect();
            for _ in 0..2 {
                for &id in &ids {
                    let _ = s.read(id);
                }
            }
            assert!(
                s.peak_resident_pages() <= s.buffer_pages() + s.peak_pinned_pages(),
                "{backend}: peak resident {} > buffer {} + peak pinned {}",
                s.peak_resident_pages(),
                s.buffer_pages(),
                s.peak_pinned_pages()
            );
            assert!(s.peak_resident_pages() < ids.len(), "{backend}: no mirror");
            drop(guards);
            s.drop_buffer();
            assert_eq!(s.resident_pages(), 0, "{backend}: nothing left resident");
        }
    }

    #[test]
    fn nested_peeks_share_one_pin_slot_per_page() {
        let mut s = store(2);
        let a = s.allocate(9);
        s.flush();
        s.drop_buffer();
        let g1 = s.peek(a);
        let g2 = s.peek(a);
        assert_eq!((*g1, *g2), (9, 9));
        assert_eq!(s.pinned_pages(), 1, "refcounted, not duplicated");
        assert_eq!(s.resident_pages(), 1);
        drop(g1);
        assert_eq!(s.pinned_pages(), 1, "second guard still holds the pin");
        drop(g2);
        assert_eq!(s.pinned_pages(), 0);
        assert_eq!(s.resident_pages(), 0);
    }

    #[test]
    fn cloned_store_diverges_independently() {
        for backend in StorageBackend::ALL {
            let mut s = store_on(2, backend);
            let a = s.allocate(5);
            s.flush();
            let mut copy = s.clone();
            copy.write(a, 6);
            copy.flush();
            s.drop_buffer();
            copy.drop_buffer();
            assert_eq!(s.read(a), 5, "{backend}: original saw the clone's write");
            assert_eq!(copy.read(a), 6, "{backend}: clone lost its write");
        }
    }

    #[test]
    fn transient_faults_recover_invisibly_on_every_backend() {
        // The tentpole parity property at store level: a seeded transient
        // fault schedule changes no payload, no counter and no metered
        // byte — retries are invisible to results.
        use crate::fault::FaultSpec;
        for backend in StorageBackend::ALL {
            // The baseline is explicitly clean even when the environment
            // requests a profile (the CI transient pass).
            let mut clean: PageStore<u32> = PageStore::new(
                PageStoreConfig::default()
                    .with_buffer_pages(2)
                    .with_backend(backend)
                    .without_faults(),
            );
            let mut faulty: PageStore<u32> = PageStore::new(
                PageStoreConfig::default()
                    .with_buffer_pages(2)
                    .with_backend(backend)
                    .with_fault(FaultSpec::transient(0xFA17)),
            );
            for s in [&mut clean, &mut faulty] {
                let ids: Vec<PageId> = (0..16u32).map(|i| s.allocate(i * 13 + 1)).collect();
                s.flush();
                s.drop_buffer();
                s.stats().reset();
                for round in 0..4 {
                    for &id in &ids {
                        assert_eq!(s.read(id), id.0 * 13 + 1, "round {round}");
                    }
                }
                s.write(ids[3], 999);
                s.flush();
            }
            assert_eq!(
                clean.stats().snapshot(),
                faulty.stats().snapshot(),
                "{backend}"
            );
            assert_eq!(clean.backend_io(), faulty.backend_io(), "{backend}");
            let stats = faulty.fault_stats();
            assert!(
                stats.injected_read_faults > 0,
                "{backend}: schedule never fired: {stats:?}"
            );
            assert_eq!(
                stats.retries, stats.injected_read_faults,
                "{backend}: every injected read fault costs exactly one retry"
            );
            assert_eq!(
                stats.recoveries, stats.injected_read_faults,
                "{backend}: every retry recovers"
            );
            assert!(faulty.retry_clock_ticks() > 0, "{backend}: backoff charged");
            assert_eq!(clean.fault_stats(), crate::FaultStats::default());
        }
    }

    #[test]
    fn corrupt_frame_quarantines_and_fails_fast() {
        use crate::error::FaultKind;
        use crate::fault::FaultSpec;
        let mut s = store(0);
        let ids: Vec<PageId> = (0..4u32).map(|i| s.allocate(i + 50)).collect();
        s.flush();
        s.drop_buffer();
        s.inject_fault(FaultSpec::corrupt_frame(ids[1].0));
        // The affected page surfaces as a structured Corrupt error...
        let err = s.try_read(ids[1]).unwrap_err();
        assert_eq!(err.kind, FaultKind::Corrupt);
        assert_eq!(err.page, Some(ids[1].0));
        assert_eq!(s.quarantined_frames(), vec![ids[1].0]);
        // ...fails fast on the second attempt (no second transfer of the
        // known-bad frame)...
        let bit_flips = s.fault_stats().injected_bit_flips;
        let err2 = s.try_read(ids[1]).unwrap_err();
        assert_eq!(err2.kind, FaultKind::Corrupt);
        assert!(err2.detail.contains("quarantined"), "{err2}");
        assert_eq!(s.fault_stats().injected_bit_flips, bit_flips);
        // ...and peek sees the same contract.
        assert_eq!(s.try_peek(ids[1]).unwrap_err().kind, FaultKind::Corrupt);
        // Clean pages keep serving.
        for &id in &[ids[0], ids[2], ids[3]] {
            assert_eq!(s.try_read(id).unwrap(), id.0 + 50);
        }
        assert_eq!(s.fault_stats().quarantined_frames, 1);
    }

    #[test]
    fn exhausted_retry_budget_surfaces_a_transient_error() {
        use crate::fault::FaultSpec;
        let mut s: PageStore<u32> = PageStore::new(
            PageStoreConfig::default().with_fault(FaultSpec::transient(0x0BAD_5EED)),
        );
        s.set_retry_policy(RetryPolicy {
            max_attempts: 1,
            backoff_base_ticks: 1,
        });
        let id = s.allocate(7);
        s.flush();
        s.drop_buffer();
        // With no retries allowed, some unbuffered read eventually hits an
        // injected fault and must surface it as a transient error.
        let mut saw_error = false;
        for _ in 0..200 {
            match s.try_read(id) {
                Ok(v) => assert_eq!(v, 7),
                Err(e) => {
                    assert!(e.is_transient(), "{e}");
                    saw_error = true;
                    break;
                }
            }
        }
        assert!(saw_error, "schedule never fired in 200 unbuffered reads");
        // The store stays fully usable afterwards.
        assert_eq!(s.read(id), 7);
    }

    #[test]
    fn clone_carries_no_pins() {
        let mut s = store(2);
        let a = s.allocate(1);
        s.flush();
        s.drop_buffer();
        let guard = s.peek(a);
        let copy = s.clone();
        assert_eq!(s.pinned_pages(), 1);
        assert_eq!(copy.pinned_pages(), 0, "clone has no outstanding guards");
        assert_eq!(copy.resident_pages(), 0, "pinned-only pages do not carry");
        drop(guard);
    }
}
