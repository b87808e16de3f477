//! The buffer pool: a bounded set of page frames with clock replacement.
//!
//! This is the Minibase buffer manager role: every algorithm receives a
//! budget of `b` frames and *all* page access goes through [`BufferPool`],
//! so the I/O counters in [`crate::stats::IoStats`] faithfully reflect what
//! a disk-resident execution would do. Guards ([`PageRef`], [`PageMut`])
//! pin pages RAII-style; a pinned page is never evicted.
//!
//! # Concurrency
//!
//! The pool is `Send + Sync` so concurrent queries (the query service's
//! connection handlers) can share one frame budget. Page guards hold std
//! lock guards and stay on the thread that created them (`!Send`).
//!
//! * One mutex guards the page table (pid → frame). It is held for table
//!   lookups and edits only, never across disk I/O.
//! * The frames form one arena: `b` frames, and a pin occupies one, so the
//!   budget bounds the total pinned frames across all callers. Operators
//!   such as the external-sort merge pin up to `b - 1` arbitrary pages at
//!   once, so no caller gets a fixed quota.
//! * Each frame has a small mutex for its metadata (pid, pin count, dirty,
//!   referenced, claimed) and a [`RwLock`] latch for its bytes. A guard
//!   holds the latch for its lifetime and releases it *before* it unpins,
//!   so a pin-0 frame's latch is free unless a flush holds it. A writer's
//!   unpin marks its frame dirty, so a flush that ran before the write
//!   cannot leave it clean.
//! * A miss *claims* a victim off the clock: the claim sets `claimed` and
//!   takes the frame's write latch with `try_write`, skipping a frame whose
//!   latch is busy. A claimed frame is invisible to hits (they park until
//!   the load is published) and to the clock, and all of its I/O —
//!   write-back, load, read-ahead — goes through the claim's own latch.
//! * Hit/miss counters are atomics, incremented **exactly once per
//!   request**: a hit at the moment of pinning a resident frame, a miss at
//!   the moment a freshly loaded frame is published. A caller that loses a
//!   load race (two callers miss on the same page; one wins the table slot)
//!   counts nothing and retries, then counts a single hit.
//! * Lock order: `page table → frame meta`; `frame latch → page table,
//!   frame meta, WAL gate, disk`; `clock hand → frame meta → frame latch`,
//!   the last edge by `try_write` only, so it never waits. Only
//!   [`BufferPool::flush_all`] blocks on more than one frame latch: it
//!   takes them, then their metas, in ascending frame index. Claims never
//!   wait on a latch, so misses and read-ahead cannot join a cycle with a
//!   flush.
//! * A miss that finds every frame pinned or claimed waits for one to free
//!   up, holding no lock: it sleeps on a condition variable an unpin
//!   signals (or yields while a claim is in flight), and reports
//!   [`PoolError::NoFreeFrames`] only after a fixed deadline, so a
//!   descheduled pin holder on a busy machine is not taken for a budget
//!   overrun.
//!
//! A single caller — every join runs its tasks on one thread — sees
//! exactly the classic sequential pool: the clock sweep, second-chance
//! semantics and hit/miss accounting are unchanged, so runs remain
//! deterministic.
//!
//! # Read-ahead and write coalescing
//!
//! Callers that know their access pattern declare it through
//! [`crate::access::ScanOptions`]. A miss on a
//! [`Sequential`](crate::access::AccessPattern::Sequential) fetch
//! ([`BufferPool::read_page_with`]) triggers best-effort read-ahead: the
//! following pages are staged into claimed frames and loaded with one
//! vectored [`Disk::read_pages`] — one head movement for the whole batch.
//! Prefetch never blocks (it claims only frames that are free *right now*),
//! never evicts pinned pages, stops at the first already-resident page, and
//! swallows device faults: a speculative read that fails leaves the page to
//! the on-demand path, which surfaces the fault if it persists. Prefetched
//! pages are published unpinned with their reference bit set; a later
//! request for one counts a pool *hit* (the [`PoolStats`] identity
//! `hits + misses == requests` is unaffected; [`BufferPool::prefetched`]
//! counts the speculative loads separately). Dirty victims evicted by a
//! prefetch batch and by [`BufferPool::flush_all`] are themselves grouped
//! into contiguous runs and written with vectored [`Disk::write_pages`].
//!
//! A heap scan of a file with more pages than the pool has frames (the
//! pool's capacity, not the caller's budget) adds two rules, through the
//! [`ScanRing`] it passes to [`BufferPool::read_page_with`]:
//!
//! * **It recycles its own frames.** Its misses and read-ahead take their
//!   victims from a ring of the frames it loaded last, oldest first; the
//!   ring holds read-ahead depth + 1 frames. While the ring fills, or when
//!   its oldest frame is pinned, claimed or re-mapped, the victim is a
//!   clean frame off the clock; failing that, read-ahead stops, and only a
//!   miss goes on to the whole clock. So the scan
//!   does not sweep the pool and write back other callers' dirty pages;
//!   under the clock such a file gets no rescan hits anyway, and a file
//!   that fits keeps its frames for the next scan.
//! * **It cleans the dirty pages it passes.** When the scan pins a
//!   resident dirty page it writes the page back on the spot, after the
//!   WAL gate for the page's LSN. The scan has just read the page before
//!   it, so the write costs no seek. Like read-ahead this is best effort:
//!   a gate or device fault leaves the frame dirty and the scan goes on.

use std::collections::HashMap;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{
    Arc, Condvar, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError,
};
use std::time::{Duration, Instant};

use crate::access::{AccessPattern, ScanOptions};
use crate::disk::{BatchError, Disk, IoError};
use crate::page::{FileId, PageBuf, PageId, PAGE_SIZE};
use crate::stats::{AtomicIoStats, IoStats};
use crate::zone::FileZones;

/// Longest contiguous run [`BufferPool::flush_all`] coalesces into one
/// vectored write. A flush holds the run's shared latches through the
/// write, so this bounds how long a writer guard (or a miss that wants one
/// of those frames) can wait behind it.
const FLUSH_RUN_MAX: usize = 64;

/// How long a miss that finds every frame pinned or claimed waits for one
/// to free up before it reports [`PoolError::NoFreeFrames`]. Other
/// callers' pins are transient, so the wait only runs out when the pins
/// are the caller's own (a budget overrun) or their holders stall.
const CLAIM_PATIENCE: Duration = Duration::from_millis(200);

/// Errors surfaced by the buffer pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// Every frame stayed pinned (or claimed by other misses) for as long
    /// as a miss waits; the requesting operator exceeded its memory
    /// budget. Algorithms are designed to pin at most their partition
    /// fan-out plus a constant, so hitting this is a logic error upstream.
    NoFreeFrames {
        /// The pool capacity in frames.
        capacity: usize,
    },
    /// A page transfer failed at the device (after the disk layer's
    /// transient-retry budget was exhausted, if the fault was transient).
    /// Carries the failing [`PageId`] via [`IoError::pid`].
    Io(IoError),
    /// A page transferred fine but its contents fail a structural check
    /// (record count beyond page capacity, a record rejected by
    /// [`crate::record::FixedRecord::validate`]). The device is healthy;
    /// the *data* is not.
    Corrupt {
        /// The page whose contents failed validation.
        pid: PageId,
        /// What the check found.
        reason: &'static str,
    },
}

impl PoolError {
    /// The page a device fault or corruption was detected on, if any.
    pub fn failing_page(&self) -> Option<PageId> {
        match self {
            PoolError::Io(e) => Some(e.pid),
            PoolError::Corrupt { pid, .. } => Some(*pid),
            PoolError::NoFreeFrames { .. } => None,
        }
    }
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::NoFreeFrames { capacity } => {
                write!(f, "all {capacity} buffer frames are pinned")
            }
            PoolError::Io(e) => write!(f, "page I/O failed: {e}"),
            PoolError::Corrupt { pid, reason } => {
                write!(f, "corrupt page {pid}: {reason}")
            }
        }
    }
}

impl std::error::Error for PoolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PoolError::Io(e) => Some(e),
            PoolError::NoFreeFrames { .. } | PoolError::Corrupt { .. } => None,
        }
    }
}

impl From<IoError> for PoolError {
    fn from(e: IoError) -> Self {
        PoolError::Io(e)
    }
}

/// Hit/miss counters of the pool itself (page transfers are counted by
/// [`Disk`]), plus the zone-map pruning counters. A skipped page is never
/// requested, so it appears in neither `hits` nor `misses` and the
/// `hits + misses == requests` identity is untouched by pruning; the two
/// pruning counters are monotone globals like the rest, so phase tiling
/// (field-wise snapshot diffs summing exactly to the run total) extends to
/// them unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests satisfied from a resident frame.
    pub hits: u64,
    /// Requests that had to read from disk (or claim a fresh frame).
    pub misses: u64,
    /// Pages a filtered scan skipped via its zone map — never fetched,
    /// charged zero I/O.
    pub pages_skipped: u64,
    /// Records a filtered scan dropped after page decode (admitted by the
    /// page zone, rejected by the record-level filter).
    pub records_filtered: u64,
    /// Pages heap writers sealed in the packed layout ([`crate::codec`]).
    pub pages_packed: u64,
    /// Bytes the packed pages' records would have occupied raw
    /// (`records × R::SIZE`) — the numerator of the compression ratio.
    pub packed_pre_bytes: u64,
    /// Bytes the packed pages actually used (header + payload).
    pub packed_post_bytes: u64,
    /// Packed-page decode passes (one per page per consuming scan, for
    /// both the record-at-a-time cache fill and the streaming batch path).
    pub packed_decodes: u64,
}

impl PoolStats {
    /// Pages requested through the pool (hits + misses). Skipped pages are
    /// not requests.
    #[inline]
    pub fn requests(&self) -> u64 {
        self.hits + self.misses
    }

    /// Counter-wise difference `self - earlier`; panics on underflow, which
    /// would indicate mismatched snapshots.
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            pages_skipped: self.pages_skipped - earlier.pages_skipped,
            records_filtered: self.records_filtered - earlier.records_filtered,
            pages_packed: self.pages_packed - earlier.pages_packed,
            packed_pre_bytes: self.packed_pre_bytes - earlier.packed_pre_bytes,
            packed_post_bytes: self.packed_post_bytes - earlier.packed_post_bytes,
            packed_decodes: self.packed_decodes - earlier.packed_decodes,
        }
    }

    /// Adds `other` counter-wise into `self` — the accumulation phase
    /// tiling and coverage sums use, so new counters extend the trace
    /// invariants without touching every summation site.
    pub fn absorb(&mut self, other: &PoolStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.pages_skipped += other.pages_skipped;
        self.records_filtered += other.records_filtered;
        self.pages_packed += other.pages_packed;
        self.packed_pre_bytes += other.packed_pre_bytes;
        self.packed_post_bytes += other.packed_post_bytes;
        self.packed_decodes += other.packed_decodes;
    }
}

/// One instant's view of both counter families the pool exposes — disk
/// transfers ([`IoStats`]) and pool hits/misses ([`PoolStats`]) — taken
/// together so phase instrumentation can diff a single value instead of
/// pairing up two snapshots by hand.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Disk transfer counters at the snapshot instant.
    pub io: IoStats,
    /// Pool hit/miss counters at the snapshot instant.
    pub pool: PoolStats,
}

impl StatsSnapshot {
    /// Counter-wise difference `self - earlier`; panics on underflow.
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            io: self.io.since(&earlier.io),
            pool: self.pool.since(&earlier.pool),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct FrameMeta {
    pid: Option<PageId>,
    pin: u32,
    dirty: bool,
    referenced: bool,
    /// Set while a missing thread owns this frame for eviction + reload.
    /// A claimed frame is invisible to hits and skipped by the clock.
    claimed: bool,
    /// Highest WAL LSN whose log record covers this frame's dirty bytes.
    /// Zero means "no WAL dependency" (bulk and non-logged writes). The
    /// pool may not write a frame with `lsn > 0` back to disk before the
    /// registered [`LsnGate`] confirms the log is durable through it —
    /// the WAL-before-page invariant.
    lsn: u64,
}

impl FrameMeta {
    const EMPTY: FrameMeta = FrameMeta {
        pid: None,
        pin: 0,
        dirty: false,
        referenced: false,
        claimed: false,
        lsn: 0,
    };

    /// A freshly loaded, clean resident of `pid` holding `pin` pins.
    fn loaded(pid: PageId, pin: u32) -> FrameMeta {
        FrameMeta {
            pid: Some(pid),
            pin,
            referenced: true,
            ..FrameMeta::EMPTY
        }
    }
}

/// A frame claimed off the clock or a scan's ring. The claim holds the
/// frame's write latch until it is published or released, so its I/O never
/// waits.
struct ClaimedVictim<'a> {
    frame: usize,
    buf: RwLockWriteGuard<'a, Box<PageBuf>>,
    /// The evicted resident's `(pid, dirty, lsn)`, if the frame held one.
    old: Option<(PageId, bool, u64)>,
    /// The ring slot the loaded page fills, when a ring scan claimed it.
    slot: Option<usize>,
}

/// The frames a sequential scan larger than the pool recycles: one slot
/// per frame it loaded last, oldest first. A ring scan's miss and
/// read-ahead reuse the oldest slot's frame while it still holds the page
/// the scan put there, unpinned and unclaimed. Otherwise (an empty slot
/// included, so the first loads fill the ring) they take a clean frame off
/// the clock; failing that, read-ahead stops and only a miss takes any
/// frame. The frames stay in the page table, so other callers hit them as
/// usual. Built by [`crate::heap::HeapScan`] only.
#[derive(Debug)]
pub struct ScanRing {
    /// `(frame, page)` the scan last loaded into each slot.
    slots: Vec<Option<(usize, PageId)>>,
    /// The oldest slot: where the next victim comes from.
    next: usize,
}

impl ScanRing {
    /// The ring of a `pages`-page scan under `opts`: read-ahead depth + 1
    /// slots (at most the pool's frames) for a sequential scan of a file
    /// the pool cannot hold, `None` (the plain clock) otherwise. Under the
    /// clock such a file gets no rescan hits anyway, while a file that fits
    /// keeps its frames for the next scan.
    pub(crate) fn for_scan(pool: &BufferPool, pages: u32, opts: ScanOptions) -> Option<ScanRing> {
        match opts.pattern {
            AccessPattern::Sequential { readahead } if pages as usize > pool.capacity() => {
                Some(ScanRing {
                    slots: vec![None; (readahead + 1).min(pool.capacity())],
                    next: 0,
                })
            }
            _ => None,
        }
    }

    /// Moves past the oldest slot, emptying it: returns its index and what
    /// it held.
    fn advance(&mut self) -> (usize, Option<(usize, PageId)>) {
        let slot = self.next;
        self.next = (slot + 1) % self.slots.len();
        (slot, self.slots[slot].take())
    }

    /// Records that `frame` now holds `pid` for `slot`'s claim.
    fn fill(ring: Option<&mut ScanRing>, slot: Option<usize>, frame: usize, pid: PageId) {
        if let (Some(ring), Some(slot)) = (ring, slot) {
            ring.slots[slot] = Some((frame, pid));
        }
    }
}

/// The write-ahead log's side of the WAL-before-page protocol. The pool
/// calls [`LsnGate::flush_up_to`] before any dirty frame stamped with an
/// LSN ([`PageMut::stamp_lsn`]) reaches disk — on clock eviction, on
/// prefetch victim write-back, and on explicit flushes. The gate receives
/// the pool so it can write log pages through [`BufferPool::write_page_through`];
/// it must never fetch frames (that could recurse into eviction).
pub trait LsnGate: Send + Sync {
    /// Makes every log record with `lsn' <= lsn` durable, or fails with
    /// the I/O error that prevented it (the page write-back is then
    /// abandoned and the frame stays dirty).
    fn flush_up_to(&self, pool: &BufferPool, lsn: u64) -> Result<(), PoolError>;
}

/// A clock-replacement buffer pool over a [`Disk`]. `Send + Sync`; see the
/// module docs for the locking protocol.
pub struct BufferPool {
    disk: Mutex<Disk>,
    /// Live I/O counters, shared with the disk; readable without the disk
    /// lock so `io_stats()` never serializes against concurrent transfers.
    io: Arc<AtomicIoStats>,
    /// Page table: pid → frame index.
    table: Mutex<HashMap<PageId, usize>>,
    /// Per-frame metadata. Sized at construction, never resized.
    meta: Vec<Mutex<FrameMeta>>,
    /// Per-frame page images behind their latches, same indexing as `meta`.
    data: Vec<RwLock<Box<PageBuf>>>,
    /// Clock hand. Held for a whole sweep, serializing victim selection.
    hand: Mutex<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Pages loaded speculatively by read-ahead. Not part of [`PoolStats`]:
    /// prefetches are not requests, so they must not disturb the
    /// `hits + misses == requests` identity phase tiling relies on.
    prefetched: AtomicU64,
    /// Pages filtered scans skipped via zone maps (zero I/O charged).
    skipped: AtomicU64,
    /// Records filtered scans dropped at record granularity.
    filtered: AtomicU64,
    /// Pages heap writers sealed packed, plus their raw-equivalent and
    /// actual byte footprints, and decode passes by scans.
    packed_pages: AtomicU64,
    packed_pre: AtomicU64,
    packed_post: AtomicU64,
    packed_decodes: AtomicU64,
    /// Zone maps registered per heap file (see [`crate::zone`]); shared
    /// with every concurrent scan through the `Arc`, dropped with the file.
    zones: Mutex<HashMap<FileId, Arc<FileZones>>>,
    /// The registered WAL gate, if a write-ahead log is attached. Consulted
    /// before every write-back of a dirty frame whose `lsn` is non-zero.
    gate: Mutex<Option<Arc<dyn LsnGate>>>,
    /// Wakes misses waiting for a frame when a pin is released.
    unpinned: Unpinned,
}

/// The signal an unpin sends to misses that found every frame pinned:
/// [`Pin`]'s drop bumps `epoch` and notifies, but only while a miss waits
/// (`waiting > 0`), so the unpin path costs one atomic load otherwise.
/// A miss registers before it sweeps and reads `epoch` before the sweep,
/// so an unpin the sweep missed has bumped it by the time the miss waits.
#[derive(Default)]
struct Unpinned {
    waiting: AtomicUsize,
    epoch: Mutex<u64>,
    cv: Condvar,
}

impl Unpinned {
    #[inline]
    fn notify(&self) {
        if self.waiting.load(Ordering::SeqCst) > 0 {
            self.wake();
        }
    }

    /// Kept out of line: the unpin path inlines only the load above.
    #[cold]
    #[inline(never)]
    fn wake(&self) {
        *self.epoch.lock().unwrap() += 1;
        self.cv.notify_all();
    }
}

impl BufferPool {
    /// Creates a pool of `capacity` frames (the paper's `b`,
    /// `NumBufferPages`) over `disk`.
    pub fn new(disk: Disk, capacity: usize) -> Self {
        assert!(capacity >= 1, "a buffer pool needs at least one frame");
        let io = disk.stats_handle();
        BufferPool {
            disk: Mutex::new(disk),
            io,
            table: Mutex::new(HashMap::with_capacity(capacity)),
            meta: (0..capacity)
                .map(|_| Mutex::new(FrameMeta::EMPTY))
                .collect(),
            data: (0..capacity)
                .map(|_| RwLock::new(Box::new([0u8; PAGE_SIZE])))
                .collect(),
            hand: Mutex::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            prefetched: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
            filtered: AtomicU64::new(0),
            packed_pages: AtomicU64::new(0),
            packed_pre: AtomicU64::new(0),
            packed_post: AtomicU64::new(0),
            packed_decodes: AtomicU64::new(0),
            zones: Mutex::new(HashMap::new()),
            gate: Mutex::new(None),
            unpinned: Unpinned::default(),
        }
    }

    /// Attaches (or detaches) the write-ahead log's [`LsnGate`]. With a
    /// gate registered, no dirty frame stamped via [`PageMut::stamp_lsn`]
    /// reaches disk before the log is durable through its LSN.
    pub fn set_lsn_gate(&self, gate: Option<Arc<dyn LsnGate>>) {
        *self.gate.lock().unwrap() = gate;
    }

    /// Enforces WAL-before-page for a frame about to be written back: a
    /// no-op for unstamped frames (`lsn == 0`) or when no gate is
    /// registered. Must be called *before* taking the disk lock — the gate
    /// writes log pages through it.
    fn gate_lsn(&self, lsn: u64) -> Result<(), PoolError> {
        if lsn == 0 {
            return Ok(());
        }
        let gate = self.gate.lock().unwrap().clone();
        match gate {
            Some(g) => g.flush_up_to(self, lsn),
            None => Ok(()),
        }
    }

    /// Frame `f`'s shared latch. A guard holder that panicked leaves only
    /// page bytes behind, so poisoning is ignored.
    fn latch(&self, f: usize) -> RwLockReadGuard<'_, Box<PageBuf>> {
        self.data[f].read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Frame `f`'s exclusive latch; see [`BufferPool::latch`].
    fn latch_mut(&self, f: usize) -> RwLockWriteGuard<'_, Box<PageBuf>> {
        self.data[f].write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of frames.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.data.len()
    }

    /// The underlying disk's cost model — what sibling disks (e.g. one
    /// simulated spindle per region-range shard) are constructed with so
    /// every shard charges transfers identically.
    pub fn cost_model(&self) -> crate::stats::CostModel {
        self.disk.lock().unwrap().cost_model()
    }

    /// Pool hit/miss counters plus the zone-map pruning counters.
    pub fn pool_stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            pages_skipped: self.skipped.load(Ordering::Relaxed),
            records_filtered: self.filtered.load(Ordering::Relaxed),
            pages_packed: self.packed_pages.load(Ordering::Relaxed),
            packed_pre_bytes: self.packed_pre.load(Ordering::Relaxed),
            packed_post_bytes: self.packed_post.load(Ordering::Relaxed),
            packed_decodes: self.packed_decodes.load(Ordering::Relaxed),
        }
    }

    /// Credits one heap page sealed in the packed layout: `pre` bytes of
    /// raw-equivalent records compressed into `post` bytes on the page.
    #[inline]
    pub(crate) fn note_page_packed(&self, pre: u64, post: u64) {
        self.packed_pages.fetch_add(1, Ordering::Relaxed);
        self.packed_pre.fetch_add(pre, Ordering::Relaxed);
        self.packed_post.fetch_add(post, Ordering::Relaxed);
    }

    /// Credits one packed-page decode pass by a scan.
    #[inline]
    pub(crate) fn note_packed_decode(&self) {
        self.packed_decodes.fetch_add(1, Ordering::Relaxed);
    }

    /// Credits `n` pages skipped by a filtered scan. Skipped pages are
    /// never fetched, so they cost zero I/O and zero pool requests; this
    /// counter is the only trace they leave.
    #[inline]
    pub(crate) fn note_pages_skipped(&self, n: u64) {
        self.skipped.fetch_add(n, Ordering::Relaxed);
    }

    /// Credits `n` records dropped by a record-level scan filter.
    #[inline]
    pub(crate) fn note_records_filtered(&self, n: u64) {
        self.filtered.fetch_add(n, Ordering::Relaxed);
    }

    /// Registers the zone map of a freshly written heap file. Called by
    /// [`crate::heap::HeapWriter::finish`]; replaces any previous map for
    /// the id (file ids are never reused while registered).
    pub fn register_zones(&self, file: FileId, zones: FileZones) {
        self.zones.lock().unwrap().insert(file, Arc::new(zones));
    }

    /// The zone map registered for `file`, if any. Cheap to clone (an
    /// `Arc`), safe to hold across scans on any thread.
    pub fn file_zones(&self, file: FileId) -> Option<Arc<FileZones>> {
        self.zones.lock().unwrap().get(&file).cloned()
    }

    /// Edits `file`'s registered zone map in place, under the registry
    /// lock — the logged heap path's per-mutation upkeep, O(1) unless a
    /// scan still holds the previous snapshot (which then keeps it: the
    /// map is copied on write). A file without a map gets an empty one
    /// first when `create` is set and is left alone otherwise.
    pub fn edit_zones(&self, file: FileId, create: bool, edit: impl FnOnce(&mut FileZones)) {
        let mut registry = self.zones.lock().unwrap();
        if create {
            registry.entry(file).or_default();
        }
        if let Some(zones) = registry.get_mut(&file) {
            edit(Arc::make_mut(zones));
        }
    }

    /// Disk transfer counters (the headline experiment metric). Lock-free:
    /// safe to call while other threads use the pool.
    pub fn io_stats(&self) -> IoStats {
        self.io.snapshot()
    }

    /// Pages loaded speculatively by read-ahead so far (whether or not they
    /// were subsequently requested). Separate from [`PoolStats`] — see the
    /// module docs.
    pub fn prefetched(&self) -> u64 {
        self.prefetched.load(Ordering::Relaxed)
    }

    /// Both counter families in one call, for span instrumentation that
    /// diffs before/after a phase. Lock-free like its two halves.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            io: self.io_stats(),
            pool: self.pool_stats(),
        }
    }

    /// Creates a new file on the underlying disk.
    pub fn create_file(&self) -> FileId {
        self.disk.lock().unwrap().create_file()
    }

    /// Number of pages in `file`.
    pub fn num_pages(&self, file: FileId) -> u32 {
        self.disk.lock().unwrap().num_pages(file)
    }

    /// Drops a file: resident frames are discarded *without* write-back
    /// (their contents are dead), then the disk space is released. The
    /// caller must own the file — no other thread may be using its pages.
    ///
    /// # Panics
    /// Panics if any page of the file is still pinned.
    pub fn delete_file(&self, file: FileId) {
        self.zones.lock().unwrap().remove(&file);
        self.table.lock().unwrap().retain(|pid, &mut f| {
            if pid.file != file {
                return true;
            }
            let mut m = self.meta[f].lock().unwrap();
            // A claimed frame is mid-eviction by another thread; it no
            // longer belongs to this file (the evictor's write-back is
            // dropped by the deleted-file guard in `fetch`).
            if !m.claimed {
                assert_eq!(m.pin, 0, "deleting file with pinned page {pid}");
                *m = FrameMeta::EMPTY;
            }
            false
        });
        self.disk.lock().unwrap().delete_file(file);
    }

    /// Fetches an existing page for reading.
    pub fn read_page(&self, pid: PageId) -> Result<PageRef<'_>, PoolError> {
        let (frame, _missed) = self.fetch(pid, false, None)?;
        Ok(PageRef::new(self, frame))
    }

    /// Fetches an existing page for reading, declaring the surrounding
    /// access pattern. Behaves exactly like [`BufferPool::read_page`] for
    /// the requested page; on a miss under
    /// [`AccessPattern::Sequential`]`{ readahead > 1 }` it additionally
    /// prefetches up to `readahead - 1` following pages with one vectored
    /// read (best-effort; see the module docs).
    ///
    /// `ring` is the caller's [`ScanRing`], if its scan is larger than the
    /// pool: the miss and its read-ahead then recycle the ring's frames,
    /// and a dirty page the request hits is written back on the spot.
    /// `None` is the plain clock.
    pub fn read_page_with(
        &self,
        pid: PageId,
        opts: ScanOptions,
        mut ring: Option<&mut ScanRing>,
    ) -> Result<PageRef<'_>, PoolError> {
        let (frame, missed) = self.fetch(pid, false, ring.as_deref_mut())?;
        let guard = PageRef::new(self, frame);
        if !missed {
            if ring.is_some() {
                self.write_behind(frame, &guard);
            }
        } else if let AccessPattern::Sequential { readahead } = opts.pattern {
            if readahead > 1 {
                // The guard pins `pid`, so the prefetch sweep cannot
                // evict the page it is reading ahead of.
                self.prefetch(pid, readahead - 1, ring);
            }
        }
        Ok(guard)
    }

    /// Write-behind: writes back the dirty page a ring scan just pinned,
    /// while the disk head is beside it, after the WAL gate for its LSN.
    /// Best effort: a gate or device fault leaves the frame dirty for a
    /// later eviction or flush. The caller's pin and shared latch keep the
    /// bytes still and the frame unclaimed; a writer that dirtied them
    /// before the latch re-marks the frame at worst, which costs one more
    /// write and loses nothing.
    fn write_behind(&self, frame: usize, buf: &PageBuf) {
        let m = *self.meta[frame].lock().unwrap();
        let (true, Some(pid)) = (m.dirty, m.pid) else {
            return;
        };
        let written =
            self.gate_lsn(m.lsn).is_ok() && self.disk.lock().unwrap().write_page(pid, buf).is_ok();
        if written {
            let mut m = self.meta[frame].lock().unwrap();
            m.dirty = false;
            m.lsn = 0;
        }
    }

    /// Fetches an existing page for modification; the frame is marked dirty
    /// when the guard drops.
    pub fn write_page(&self, pid: PageId) -> Result<PageMut<'_>, PoolError> {
        let (frame, _missed) = self.fetch(pid, false, None)?;
        Ok(PageMut::new(self, frame))
    }

    /// Appends a full page image to `file`, writing through to disk
    /// without occupying a frame.
    ///
    /// Bulk writers (heap writers, sort runs, index bulk loads) use this:
    /// their output is written exactly once and read later, so caching it
    /// would only pollute the pool — and deferring the write until clock
    /// eviction would turn a sequential output stream into random
    /// write-back, which is exactly the pathology real engines avoid by
    /// bypassing the buffer pool for bulk output.
    pub fn append_page_through(&self, file: FileId, buf: &PageBuf) -> Result<u32, PoolError> {
        self.append_pages_through(file, &[buf])
    }

    /// Appends several full page images to `file` with one vectored
    /// write-through — the batched [`BufferPool::append_page_through`]: one
    /// head movement for the whole batch. Returns the page number of the
    /// first appended page. On a device fault the transferred prefix is on
    /// disk (and charged); the failing and later pages hold zeros (or a
    /// torn image) in already-allocated slots — callers treat the batch as
    /// failed and unwind, exactly as for the single-page variant.
    pub fn append_pages_through(&self, file: FileId, bufs: &[&PageBuf]) -> Result<u32, PoolError> {
        assert!(!bufs.is_empty(), "empty append batch");
        let mut disk = self.disk.lock().unwrap();
        let start = disk.allocate_page(file)?;
        for _ in 1..bufs.len() {
            disk.allocate_page(file)?;
        }
        disk.write_pages(file, start, bufs)
            .map_err(|e| PoolError::Io(e.error))?;
        Ok(start)
    }

    /// Allocates a fresh zeroed page at the end of `file` without fetching
    /// it into a frame. Used by the logged write path: the page's first
    /// contents arrive through [`BufferPool::write_page`] under a WAL
    /// record, and recovery re-allocates it the same way when replaying.
    pub fn allocate_page(&self, file: FileId) -> Result<u32, PoolError> {
        Ok(self.disk.lock().unwrap().allocate_page(file)?)
    }

    /// Writes a full page image straight to disk, bypassing the frames.
    /// For pages the pool never caches — the write-ahead log's own file,
    /// whose pages would otherwise need a gate to escape their own gate.
    /// Writing a *cached* page this way would desynchronize the resident
    /// frame; callers own their file exclusively.
    pub fn write_page_through(&self, pid: PageId, buf: &PageBuf) -> Result<(), PoolError> {
        Ok(self.disk.lock().unwrap().write_page(pid, buf)?)
    }

    /// Reads a full page image straight from disk, bypassing (and not
    /// populating) the frames. The read-side counterpart of
    /// [`BufferPool::write_page_through`], used by WAL recovery so log
    /// pages never occupy frames the replayed data pages need.
    pub fn read_page_through(&self, pid: PageId, buf: &mut PageBuf) -> Result<(), PoolError> {
        Ok(self.disk.lock().unwrap().read_page(pid, buf)?)
    }

    /// Allocates a fresh page in `file` and returns it pinned for writing.
    /// No read is charged: the page starts zeroed.
    pub fn new_page(&self, file: FileId) -> Result<(u32, PageMut<'_>), PoolError> {
        let page = self.disk.lock().unwrap().allocate_page(file)?;
        let pid = PageId::new(file, page);
        let (frame, _missed) = self.fetch(pid, true, None)?;
        Ok((page, PageMut::new(self, frame)))
    }

    /// Flushes and then discards every unpinned frame — a cold-cache reset
    /// used between experiment runs so each algorithm starts from disk.
    /// On an I/O error the pool is untouched (all frames stay resident;
    /// flushed ones are clean, the failing and unflushed ones still dirty).
    ///
    /// # Panics
    /// Panics if any frame is still pinned (experiments must not hold
    /// guards across runs).
    pub fn evict_all(&self) -> Result<(), PoolError> {
        self.flush_all()?;
        for m in &self.meta {
            let mut m = m.lock().unwrap();
            assert_eq!(m.pin, 0, "evict_all with a pinned frame");
            assert!(!m.claimed, "evict_all while a fetch is in flight");
            *m = FrameMeta::EMPTY;
        }
        self.table.lock().unwrap().clear();
        *self.hand.lock().unwrap() = 0;
        Ok(())
    }

    /// Writes back every dirty frame (leaving pages resident and clean),
    /// coalescing page-contiguous runs into vectored writes — one head
    /// movement per run instead of per page. Stops at the first I/O error;
    /// already-flushed frames are clean, the failing frame and the rest
    /// stay dirty, so a recovered caller can simply flush again. The flush
    /// waits on page latches, so its caller must not hold a page guard.
    pub fn flush_all(&self) -> Result<(), PoolError> {
        // Collect dirty residents, then flush in page order for sequential
        // write-back, as a real pool would.
        let mut dirty: Vec<(PageId, usize)> = Vec::new();
        for (i, m) in self.meta.iter().enumerate() {
            let m = m.lock().unwrap();
            if let (true, false, Some(pid)) = (m.dirty, m.claimed, m.pid) {
                dirty.push((pid, i));
            }
        }
        dirty.sort_unstable();
        for run in dirty
            .chunk_by(adjacent)
            .flat_map(|r| r.chunks(FLUSH_RUN_MAX))
        {
            self.flush_run(run)?;
        }
        Ok(())
    }

    /// Flushes one candidate run of page-contiguous dirty frames. Every
    /// frame is latched shared, then meta-locked, in ascending frame index
    /// (the module's latch order), then re-verified: frames evicted,
    /// cleaned or re-claimed since collection split the run into shorter
    /// verified sub-runs, each still contiguous and written with one
    /// vectored transfer.
    fn flush_run(&self, run: &[(PageId, usize)]) -> Result<(), PoolError> {
        // Waits out any writer guard or claim holding a frame's latch.
        let latches = in_frame_order(run, |f| self.latch(f));
        let mut metas = in_frame_order(run, |f| self.meta[f].lock().unwrap());
        let ok: Vec<bool> = run
            .iter()
            .zip(&metas)
            .map(|(&(pid, _), m)| m.dirty && !m.claimed && m.pid == Some(pid))
            .collect();
        // WAL-before-page for the whole run: make the log durable through
        // the highest stamped LSN before any frame reaches disk. Holding
        // the metas here is safe — the gate only touches WAL state and the
        // disk, never frame metadata.
        let max_lsn = metas
            .iter()
            .zip(&ok)
            .filter(|&(_, ok)| *ok)
            .map(|(m, _)| m.lsn)
            .max()
            .unwrap_or(0);
        let mut result = self.gate_lsn(max_lsn);
        let mut k = 0;
        while result.is_ok() && k < run.len() {
            if !ok[k] {
                k += 1;
                continue;
            }
            let mut j = k + 1;
            while j < run.len() && ok[j] {
                j += 1;
            }
            let bufs: Vec<&PageBuf> = latches[k..j].iter().map(|g| &***g).collect();
            let res = self
                .disk
                .lock()
                .unwrap()
                .write_pages(run[k].0.file, run[k].0.page, &bufs);
            let done = match res {
                Ok(()) => j - k,
                Err(BatchError { done, error }) => {
                    result = Err(error.into());
                    done
                }
            };
            for m in &mut metas[k..k + done] {
                m.dirty = false;
                m.lsn = 0;
            }
            k = j;
        }
        result
    }

    /// Number of currently pinned frames. Used by tests to assert that an
    /// error unwind released every pin; a steady-state pool returns 0.
    pub fn pinned_frames(&self) -> usize {
        self.meta
            .iter()
            .filter(|m| m.lock().unwrap().pin > 0)
            .count()
    }

    /// Files currently live on the underlying disk (created, not deleted).
    pub fn live_files(&self) -> Vec<FileId> {
        self.disk.lock().unwrap().live_files()
    }

    /// Core fetch: returns the (pinned) frame index holding `pid` and
    /// whether the request missed (read from disk / claimed a fresh frame).
    /// `fresh` skips the disk read for newly allocated pages; a miss under a
    /// `ring` takes its victim there first. The caller latches the frame
    /// through its guard (a writer's unpin marks it dirty).
    fn fetch(
        &self,
        pid: PageId,
        fresh: bool,
        mut ring: Option<&mut ScanRing>,
    ) -> Result<(usize, bool), PoolError> {
        loop {
            // Hit path: resident and not mid-eviction.
            {
                let table = self.table.lock().unwrap();
                if let Some(&f) = table.get(&pid) {
                    let mut m = self.meta[f].lock().unwrap();
                    if m.claimed {
                        // Another thread is still loading this page; let it
                        // finish and retry.
                        drop(m);
                        drop(table);
                        std::thread::yield_now();
                        continue;
                    }
                    debug_assert_eq!(m.pid, Some(pid));
                    m.pin += 1;
                    m.referenced = true;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok((f, false));
                }
            }

            // Miss path: claim a victim frame, evict its old resident, then
            // race for the table slot.
            let ClaimedVictim {
                frame,
                mut buf,
                old,
                slot,
            } = self.claim_victim(ring.as_deref_mut())?;
            if let Some((old_pid, true, old_lsn)) = old {
                // Write back BEFORE removing the table mapping: as long as
                // the entry exists, a concurrent miss on the old page parks
                // on the claimed frame instead of reading the (still stale)
                // disk copy. Removing first would let that miss read data
                // from before this write-back — a lost update.
                //
                // WAL-before-page: the log must be durable through the
                // victim's LSN before its image may reach disk. On a
                // log-flush fault, release the claim exactly like a failed
                // write-back: nothing was lost, retry later.
                if let Err(e) = self.gate_lsn(old_lsn) {
                    self.meta[frame].lock().unwrap().claimed = false;
                    return Err(e);
                }
                let mut disk = self.disk.lock().unwrap();
                // Skip write-back if the file was deleted concurrently
                // (its contents are dead anyway).
                if disk.num_pages(old_pid.file) > old_pid.page {
                    if let Err(e) = disk.write_page(old_pid, &buf) {
                        // Release the claim: the old page stays resident
                        // and dirty (its table entry was never removed),
                        // so nothing is lost and a retry can evict it
                        // again once the device recovers.
                        drop(disk);
                        self.meta[frame].lock().unwrap().claimed = false;
                        return Err(e.into());
                    }
                }
            }

            {
                let mut table = self.table.lock().unwrap();
                if let Some((old_pid, _, _)) = old {
                    unmap(&mut table, old_pid, frame);
                }
                if table.contains_key(&pid) {
                    // Lost the load race: another thread published this page
                    // while we were evicting. Return the claimed frame and
                    // retry; the retry pins the winner's frame and counts a
                    // single hit — this request is never double-counted.
                    drop(table);
                    *self.meta[frame].lock().unwrap() = FrameMeta::EMPTY;
                    continue;
                }
                table.insert(pid, frame);
            }

            // Load while claimed (invisible to hits, skipped by the clock).
            if fresh {
                buf.fill(0);
            } else if let Err(e) = self.disk.lock().unwrap().read_page(pid, &mut buf) {
                // Undo the publication: remove the mapping (callers parked
                // on the claimed frame will fall through to their own disk
                // read and surface the same fault) and free the frame.
                unmap(&mut self.table.lock().unwrap(), pid, frame);
                *self.meta[frame].lock().unwrap() = FrameMeta::EMPTY;
                return Err(e.into());
            }

            *self.meta[frame].lock().unwrap() = FrameMeta::loaded(pid, 1);
            ScanRing::fill(ring, slot, frame, pid);
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Ok((frame, true));
        }
    }

    /// Best-effort read-ahead: loads up to `count` pages of `after.file`
    /// following `after` into unpinned frames with one vectored read. Never
    /// blocks, never evicts pinned pages, stops at the first page already
    /// resident (the stream is cached ahead) and swallows faults — a failed
    /// speculative read leaves its pages to the on-demand path. Under a
    /// `ring` only [`BufferPool::ring_victim`] supplies victims: read-ahead
    /// shrinks rather than write back another caller's page.
    fn prefetch(&self, after: PageId, count: usize, mut ring: Option<&mut ScanRing>) {
        let file = after.file;
        let Some(start) = after.page.checked_add(1) else {
            return;
        };
        let avail = self
            .disk
            .lock()
            .unwrap()
            .num_pages(file)
            .saturating_sub(start) as usize;
        let want = count.min(avail);

        // Stage: one claimed victim frame per page, one sweep each. Prefetch
        // does not retry, so a loaded pool simply prefetches less — and it
        // already holds claims itself, so waiting on claimed frames could
        // self-deadlock.
        let mut staged: Vec<ClaimedVictim<'_>> = Vec::with_capacity(want);
        for i in 0..want {
            let pid = PageId::new(file, start + i as u32);
            if self.table.lock().unwrap().contains_key(&pid) {
                break;
            }
            let claim = match self.ring_victim(ring.as_deref_mut()) {
                (Some(_), claim) => claim,
                (None, _) => self.sweep(false).0,
            };
            match claim {
                Some(claim) => staged.push(claim),
                None => break,
            }
        }
        if staged.is_empty() {
            return;
        }

        // Write back the victims' dirty residents, coalescing contiguous
        // runs into vectored writes. A write fault aborts the whole
        // prefetch: every claim is released, leaving each old page exactly
        // as the fault left it (written-back frames clean, the rest dirty),
        // and the table mappings — never removed yet — still valid.
        let dirty_old = |c: &ClaimedVictim<'_>| c.old.filter(|&(_, dirty, _)| dirty);
        let mut dirty: Vec<(PageId, usize)> = staged
            .iter()
            .enumerate()
            .filter_map(|(i, c)| dirty_old(c).map(|(p, _, _)| (p, i)))
            .collect();
        dirty.sort_unstable();
        let mut written = vec![false; staged.len()];
        // WAL-before-page for the staged dirty victims: one gate call for
        // the batch's highest LSN. A log-flush fault aborts the prefetch
        // (claims released, nothing written) — read-ahead is best-effort.
        let max_lsn = staged
            .iter()
            .filter_map(|c| dirty_old(c).map(|(_, _, l)| l))
            .max();
        let mut failed = self.gate_lsn(max_lsn.unwrap_or(0)).is_err();
        for run in dirty.chunk_by(adjacent) {
            if failed {
                break;
            }
            let bufs: Vec<&PageBuf> = run.iter().map(|&(_, i)| &**staged[i].buf).collect();
            let mut disk = self.disk.lock().unwrap();
            // Victims of a concurrently deleted file (num_pages dropped to
            // zero) need no write-back; their contents are dead.
            if disk.num_pages(run[0].0.file) > 0 {
                let done = match disk.write_pages(run[0].0.file, run[0].0.page, &bufs) {
                    Ok(()) => run.len(),
                    Err(BatchError { done, .. }) => {
                        failed = true;
                        done
                    }
                };
                run[..done].iter().for_each(|&(_, i)| written[i] = true);
            }
        }
        if failed {
            for (c, written) in staged.iter().zip(written) {
                let mut m = self.meta[c.frame].lock().unwrap();
                if written {
                    m.dirty = false;
                }
                m.claimed = false;
            }
            return;
        }

        // Remove the old residents' mappings (write-back is done, so a miss
        // on an old page may now read the fresh disk copy) and publish the
        // new ones, truncating at the first page another thread published
        // while we were staging (frames past it return to the free pool).
        let mut n = staged.len();
        {
            let mut table = self.table.lock().unwrap();
            for c in &staged {
                if let Some((old_pid, _, _)) = c.old {
                    unmap(&mut table, old_pid, c.frame);
                }
            }
            for (i, c) in staged.iter().enumerate() {
                let pid = PageId::new(file, start + i as u32);
                if table.contains_key(&pid) {
                    n = i;
                    break;
                }
                table.insert(pid, c.frame);
            }
        }
        for c in staged.drain(n..) {
            *self.meta[c.frame].lock().unwrap() = FrameMeta::EMPTY;
        }
        if staged.is_empty() {
            return;
        }

        // One vectored read for the whole batch. On a fault, publish the
        // transferred prefix and free the rest — the fault itself is
        // swallowed (the on-demand path will surface it if it persists).
        let res = {
            let mut bufs: Vec<&mut PageBuf> = staged.iter_mut().map(|c| &mut **c.buf).collect();
            self.disk.lock().unwrap().read_pages(file, start, &mut bufs)
        };
        let done = match res {
            Ok(()) => staged.len(),
            Err(BatchError { done, .. }) => done,
        };
        for (i, c) in staged.iter().enumerate() {
            let pid = PageId::new(file, start + i as u32);
            let meta = if i < done {
                ScanRing::fill(ring.as_deref_mut(), c.slot, c.frame, pid);
                FrameMeta::loaded(pid, 0)
            } else {
                unmap(&mut self.table.lock().unwrap(), pid, c.frame);
                FrameMeta::EMPTY
            };
            *self.meta[c.frame].lock().unwrap() = meta;
        }
        self.prefetched.fetch_add(done as u64, Ordering::Relaxed);
    }

    /// One second-chance clock sweep of up to `2n` steps: claims the first
    /// unpinned, unreferenced frame (and, if `clean`, not dirty), clearing
    /// reference bits on the way, and takes its write latch. Frames held
    /// transiently by other callers — claimed, or latched by a flush — are
    /// skipped, and the flag reports whether the sweep passed one. The hand
    /// mutex is held for the whole sweep, so selection is serialized (and
    /// deterministic when single-threaded).
    fn sweep(&self, clean: bool) -> (Option<ClaimedVictim<'_>>, bool) {
        let n = self.meta.len();
        let mut hand = self.hand.lock().unwrap();
        let mut saw_claimed = false;
        for _ in 0..2 * n {
            let i = *hand;
            *hand = (*hand + 1) % n;
            let mut m = self.meta[i].lock().unwrap();
            if m.claimed {
                saw_claimed = true;
                continue;
            }
            if m.pin > 0 || (clean && m.dirty) {
                continue;
            }
            if m.referenced {
                m.referenced = false;
                continue;
            }
            match self.try_claim(i, &mut m) {
                Some(claim) => return (Some(claim), saw_claimed),
                None => saw_claimed = true,
            }
        }
        (None, saw_claimed)
    }

    /// Claims frame `i`, whose meta the caller holds, if its latch is free
    /// right now.
    fn try_claim(&self, i: usize, m: &mut FrameMeta) -> Option<ClaimedVictim<'_>> {
        let buf = match self.data[i].try_write() {
            Ok(buf) => buf,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        m.claimed = true;
        let old = m.pid.map(|p| (p, m.dirty, m.lsn));
        Some(ClaimedVictim {
            frame: i,
            buf,
            old,
            slot: None,
        })
    }

    /// A ring scan's victim, without waiting and without writing back
    /// another caller's page: moves past the ring's oldest slot and claims
    /// its frame if that still holds the scan's page, unpinned and
    /// unclaimed; else a clean frame off the clock (how the ring fills).
    /// Returns the slot the load refills (`None` without a ring) and the
    /// claim, if either choice had one. A miss then falls back to the
    /// whole clock; read-ahead stops.
    fn ring_victim(
        &self,
        ring: Option<&mut ScanRing>,
    ) -> (Option<usize>, Option<ClaimedVictim<'_>>) {
        let Some(ring) = ring else {
            return (None, None);
        };
        let (slot, held) = ring.advance();
        let oldest = held.and_then(|(frame, pid)| {
            let mut m = self.meta[frame].lock().unwrap();
            let free = m.pid == Some(pid) && m.pin == 0 && !m.claimed;
            free.then(|| self.try_claim(frame, &mut m)).flatten()
        });
        let claim = oldest.or_else(|| self.sweep(true).0);
        let slot = Some(slot);
        (slot, claim.map(|c| ClaimedVictim { slot, ..c }))
    }

    /// A miss's victim: [`BufferPool::ring_victim`]'s under a ring, else
    /// (and without a ring) the clock's. When every frame is pinned or
    /// claimed, the miss waits for one to free up ([`Self::await_victim`])
    /// before the pool is declared exhausted.
    fn claim_victim(&self, ring: Option<&mut ScanRing>) -> Result<ClaimedVictim<'_>, PoolError> {
        let (slot, claim) = self.ring_victim(ring);
        if let Some(claim) = claim {
            return Ok(claim);
        }
        let claim = match self.sweep(false) {
            (Some(claim), _) => Some(claim),
            (None, _) => {
                self.unpinned.waiting.fetch_add(1, Ordering::SeqCst);
                let claim = self.await_victim();
                self.unpinned.waiting.fetch_sub(1, Ordering::SeqCst);
                claim
            }
        };
        claim
            .map(|claim| ClaimedVictim { slot, ..claim })
            .ok_or(PoolError::NoFreeFrames {
                capacity: self.meta.len(),
            })
    }

    /// Sweeps until a victim is claimed, for up to [`CLAIM_PATIENCE`]: a
    /// claimed frame settles without an unpin (its load publishes it, or a
    /// failure releases it), so the miss yields and sweeps again; when
    /// every frame is pinned it sleeps until an unpin (see [`Unpinned`]).
    /// The caller has registered as waiting.
    fn await_victim(&self) -> Option<ClaimedVictim<'_>> {
        let deadline = Instant::now() + CLAIM_PATIENCE;
        loop {
            let seen = *self.unpinned.epoch.lock().unwrap();
            let saw_claimed = match self.sweep(false) {
                (Some(claim), _) => return Some(claim),
                (None, saw_claimed) => saw_claimed,
            };
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            if saw_claimed {
                std::thread::yield_now();
                continue;
            }
            let unpinned = &self.unpinned;
            let epoch = unpinned.epoch.lock().unwrap();
            if *epoch == seen {
                let _woken = unpinned.cv.wait_timeout(epoch, deadline - now).unwrap();
            }
        }
    }
}

/// Whether `b` is the page after `a` in the same file: one vectored
/// transfer covers both.
fn adjacent(a: &(PageId, usize), b: &(PageId, usize)) -> bool {
    a.0.file == b.0.file && a.0.page + 1 == b.0.page
}

/// Removes `pid`'s page-table entry if it still maps to `frame`.
fn unmap(table: &mut HashMap<PageId, usize>, pid: PageId, frame: usize) {
    if table.get(&pid) == Some(&frame) {
        table.remove(&pid);
    }
}

/// Takes `lock(frame)` for every frame of `run` in ascending frame index —
/// the module's one order for holding several frames — and returns the
/// guards in run order.
fn in_frame_order<G>(run: &[(PageId, usize)], mut lock: impl FnMut(usize) -> G) -> Vec<G> {
    let mut order: Vec<usize> = (0..run.len()).collect();
    order.sort_unstable_by_key(|&x| run[x].1);
    let mut held: Vec<(usize, G)> = order.into_iter().map(|x| (x, lock(run[x].1))).collect();
    held.sort_unstable_by_key(|&(x, _)| x);
    held.into_iter().map(|(_, g)| g).collect()
}

/// A pool file deleted when the guard drops — the ownership rule for every
/// operator-private file (partitions, sort runs and outputs, on-the-fly
/// indexes, query intermediates): whoever holds the guard owns the file,
/// and any exit, `?` included, frees its frames and disk space. Derefs to
/// the handle `T` it wraps; [`keep`](TempFile::keep) hands the handle out
/// and cancels the deletion.
pub struct TempFile<'a, T> {
    pool: &'a BufferPool,
    id: FileId,
    /// `Some` until `keep` takes it.
    inner: Option<T>,
}

impl<'a, T> TempFile<'a, T> {
    /// Guards file `id` of `pool`, addressed through `inner`.
    pub fn new(pool: &'a BufferPool, id: FileId, inner: T) -> Self {
        TempFile {
            pool,
            id,
            inner: Some(inner),
        }
    }

    /// Releases the file to the caller undeleted.
    pub fn keep(mut self) -> T {
        self.inner.take().expect("handle present until keep")
    }
}

impl<T> std::ops::Deref for TempFile<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("handle present until keep")
    }
}

impl<T> Drop for TempFile<'_, T> {
    fn drop(&mut self) {
        if self.inner.is_some() {
            self.pool.delete_file(self.id);
        }
    }
}

/// One pin on a frame, released on drop. A guard declares it after its
/// latch, and fields drop in declaration order, so the latch is released
/// first: an evictor never finds a pin-0 frame still latched by a guard.
///
/// A writer's pin (`WRITE`) marks the frame dirty as it unpins. Only then:
/// a flush that latched the frame between the pin and the writer's latch
/// has written the old image and cleaned the frame, and a dirty bit set
/// any earlier would be lost with it.
struct Pin<'a, const WRITE: bool> {
    pool: &'a BufferPool,
    frame: usize,
}

impl<const WRITE: bool> Drop for Pin<'_, WRITE> {
    #[inline]
    fn drop(&mut self) {
        let mut m = self.pool.meta[self.frame].lock().unwrap();
        debug_assert!(m.pin > 0, "unpin of unpinned frame");
        m.pin -= 1;
        m.dirty |= WRITE;
        drop(m);
        self.pool.unpinned.notify();
    }
}

/// A pinned, read-only page. Unpins on drop.
pub struct PageRef<'a> {
    buf: RwLockReadGuard<'a, Box<PageBuf>>,
    _pin: Pin<'a, false>,
}

impl<'a> PageRef<'a> {
    /// Latches `frame`, which the caller has pinned for this guard.
    #[inline]
    fn new(pool: &'a BufferPool, frame: usize) -> Self {
        let pin = Pin { pool, frame };
        PageRef {
            buf: pool.latch(frame),
            _pin: pin,
        }
    }
}

impl Deref for PageRef<'_> {
    type Target = PageBuf;

    #[inline]
    fn deref(&self) -> &PageBuf {
        &self.buf
    }
}

/// A pinned, writable page. Unpins on drop, marking the frame dirty; the
/// actual disk write happens on eviction or [`BufferPool::flush_all`].
pub struct PageMut<'a> {
    buf: RwLockWriteGuard<'a, Box<PageBuf>>,
    pin: Pin<'a, true>,
}

impl<'a> PageMut<'a> {
    /// Latches `frame`, which the caller has pinned for this guard.
    #[inline]
    fn new(pool: &'a BufferPool, frame: usize) -> Self {
        let pin = Pin { pool, frame };
        PageMut {
            buf: pool.latch_mut(frame),
            pin,
        }
    }

    /// Stamps the frame with the WAL LSN whose log record covers the bytes
    /// this guard wrote. The pool will not write the frame back to disk
    /// before the registered [`LsnGate`] confirms the log is durable
    /// through the highest stamped LSN. Monotonic: a lower stamp never
    /// overwrites a higher one.
    pub fn stamp_lsn(&self, lsn: u64) {
        let mut m = self.pin.pool.meta[self.pin.frame].lock().unwrap();
        m.lsn = m.lsn.max(lsn);
    }
}

impl Deref for PageMut<'_> {
    type Target = PageBuf;

    #[inline]
    fn deref(&self) -> &PageBuf {
        &self.buf
    }
}

impl DerefMut for PageMut<'_> {
    #[inline]
    fn deref_mut(&mut self) -> &mut PageBuf {
        &mut self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(frames: usize) -> BufferPool {
        BufferPool::new(Disk::in_memory_free(), frames)
    }

    #[test]
    fn pool_and_guards_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BufferPool>();
    }

    #[test]
    fn write_then_read_through_pool() {
        let p = pool(4);
        let f = p.create_file();
        let (n0, mut g) = p.new_page(f).unwrap();
        assert_eq!(n0, 0);
        g[0] = 42;
        g[100] = 7;
        drop(g);
        let r = p.read_page(PageId::new(f, 0)).unwrap();
        assert_eq!(r[0], 42);
        assert_eq!(r[100], 7);
        // Still resident: zero disk reads so far, zero writes (not evicted).
        let io = p.io_stats();
        assert_eq!(io.reads(), 0);
        assert_eq!(io.writes(), 0);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let p = pool(2);
        let f = p.create_file();
        for i in 0..4u8 {
            let (_, mut g) = p.new_page(f).unwrap();
            g[0] = i;
        }
        // Pages 0 and 1 were evicted (written); 2 and 3 are resident dirty.
        assert_eq!(p.io_stats().writes(), 2);
        let r = p.read_page(PageId::new(f, 0)).unwrap();
        assert_eq!(r[0], 0);
        drop(r);
        let r = p.read_page(PageId::new(f, 3)).unwrap();
        assert_eq!(r[0], 3);
    }

    #[test]
    fn flush_all_persists_and_keeps_resident() {
        let p = pool(4);
        let f = p.create_file();
        for i in 0..3u8 {
            let (_, mut g) = p.new_page(f).unwrap();
            g[0] = i + 10;
        }
        p.flush_all().unwrap();
        assert_eq!(p.io_stats().writes(), 3);
        // Re-read hits the pool, no disk read.
        let before = p.io_stats().reads();
        let r = p.read_page(PageId::new(f, 1)).unwrap();
        assert_eq!(r[0], 11);
        assert_eq!(p.io_stats().reads(), before);
        // Clean frames are not rewritten on a second flush.
        drop(r);
        p.flush_all().unwrap();
        assert_eq!(p.io_stats().writes(), 3);
    }

    #[test]
    fn pinned_pages_survive_pressure() {
        let p = pool(2);
        let f = p.create_file();
        let (_, g0) = p.new_page(f).unwrap(); // pin page 0
        for _ in 0..5 {
            let (_, _g) = p.new_page(f).unwrap(); // cycles through frame 2
        }
        // Page 0 must still be resident and intact.
        drop(g0);
        let r = p.read_page(PageId::new(f, 0)).unwrap();
        assert_eq!(r[0], 0);
        assert_eq!(p.pool_stats().hits, 1);
    }

    #[test]
    fn no_free_frames_is_reported() {
        let p = pool(2);
        let f = p.create_file();
        let (_, _g0) = p.new_page(f).unwrap();
        let (_, _g1) = p.new_page(f).unwrap();
        let err = p.new_page(f).map(|_| ()).unwrap_err();
        assert_eq!(err, PoolError::NoFreeFrames { capacity: 2 });
    }

    #[test]
    fn hit_and_miss_accounting() {
        let p = pool(2);
        let f = p.create_file();
        let (_, g) = p.new_page(f).unwrap();
        drop(g);
        drop(p.read_page(PageId::new(f, 0)).unwrap()); // hit
        drop(p.read_page(PageId::new(f, 0)).unwrap()); // hit
        let s = p.pool_stats();
        assert_eq!(s.misses, 1); // the new_page claim
        assert_eq!(s.hits, 2);
    }

    #[test]
    fn delete_file_discards_dirty_frames() {
        let p = pool(4);
        let f = p.create_file();
        let (_, mut g) = p.new_page(f).unwrap();
        g[0] = 9;
        drop(g);
        p.delete_file(f);
        // Dirty frame was discarded: no write-back happened.
        assert_eq!(p.io_stats().writes(), 0);
        assert_eq!(p.num_pages(f), 0);
        // The frame is reusable.
        let f2 = p.create_file();
        let (_, _g) = p.new_page(f2).unwrap();
    }

    #[test]
    fn clock_gives_second_chance() {
        let p = pool(3);
        let f = p.create_file();
        for _ in 0..3 {
            let (_, _g) = p.new_page(f).unwrap();
        }
        // Fault in page 3: the sweep clears every reference bit and evicts
        // page 0, leaving pages 1 and 2 resident but unreferenced.
        let (_, g) = p.new_page(f).unwrap();
        drop(g);
        // Re-touch page 2: its reference bit protects it from the next sweep.
        drop(p.read_page(PageId::new(f, 2)).unwrap());
        // Fault in page 4: the victim must be the unreferenced page 1,
        // not the just-touched page 2.
        let (_, g) = p.new_page(f).unwrap();
        drop(g);
        let before = p.io_stats().reads();
        drop(p.read_page(PageId::new(f, 2)).unwrap());
        assert_eq!(p.io_stats().reads(), before, "page 2 was evicted");
        drop(p.read_page(PageId::new(f, 1)).unwrap());
        assert_eq!(p.io_stats().reads(), before + 1, "page 1 should be gone");
    }

    #[test]
    fn many_pages_roundtrip_under_small_pool() {
        let p = pool(3);
        let f = p.create_file();
        for i in 0..50u32 {
            let (_, mut g) = p.new_page(f).unwrap();
            g[..4].copy_from_slice(&i.to_le_bytes());
        }
        for i in (0..50u32).rev() {
            let r = p.read_page(PageId::new(f, i)).unwrap();
            assert_eq!(u32::from_le_bytes(r[..4].try_into().unwrap()), i);
        }
    }

    #[test]
    fn concurrent_reads_of_one_page_share_the_frame() {
        let p = pool(4);
        let f = p.create_file();
        let (_, mut g) = p.new_page(f).unwrap();
        g[0] = 77;
        drop(g);
        let r1 = p.read_page(PageId::new(f, 0)).unwrap();
        let r2 = p.read_page(PageId::new(f, 0)).unwrap();
        assert_eq!(r1[0], 77);
        assert_eq!(r2[0], 77);
        assert_eq!(p.pool_stats().hits, 2);
    }

    #[test]
    fn read_ahead_prefetches_following_pages() {
        let p = pool(8);
        let f = p.create_file();
        for i in 0..6u8 {
            let (_, mut g) = p.new_page(f).unwrap();
            g[0] = i;
        }
        p.evict_all().unwrap();
        let base = p.io_stats();
        let opts = ScanOptions::sequential(4);
        let r = p.read_page_with(PageId::new(f, 0), opts, None).unwrap();
        assert_eq!(r[0], 0);
        drop(r);
        // One demand read plus three prefetched pages, fetched as one
        // sequential run behind the demand page.
        let d = p.io_stats().since(&base);
        assert_eq!(d.reads(), 4);
        assert_eq!(d.seq_reads, 3);
        assert_eq!(p.prefetched(), 3);
        // Pages 1..4 are resident: pure pool hits, no further disk reads.
        let before = p.pool_stats();
        for i in 1..4u32 {
            let r = p.read_page_with(PageId::new(f, i), opts, None).unwrap();
            assert_eq!(r[0], i as u8);
        }
        let ps = p.pool_stats().since(&before);
        assert_eq!((ps.hits, ps.misses), (3, 0));
        assert_eq!(p.io_stats().since(&base).reads(), 4);
    }

    #[test]
    fn read_ahead_clips_to_file_end() {
        let p = pool(8);
        let f = p.create_file();
        for _ in 0..2 {
            let (_, _g) = p.new_page(f).unwrap();
        }
        p.evict_all().unwrap();
        let r = p
            .read_page_with(PageId::new(f, 0), ScanOptions::sequential(8), None)
            .unwrap();
        drop(r);
        // Only one page exists past page 0; no read beyond the file end.
        assert_eq!(p.prefetched(), 1);
        assert_eq!(p.io_stats().reads(), 2);
    }

    #[test]
    fn read_ahead_never_evicts_pinned_pages() {
        let p = pool(2);
        let f = p.create_file();
        for _ in 0..4 {
            let (_, _g) = p.new_page(f).unwrap();
        }
        p.evict_all().unwrap();
        // Page 0 stays pinned; read-ahead wants 3 more pages but only one
        // frame is free — it takes what it can get, without erroring.
        let g0 = p
            .read_page_with(PageId::new(f, 0), ScanOptions::sequential(4), None)
            .unwrap();
        assert_eq!(p.prefetched(), 1);
        let r = p.read_page(PageId::new(f, 1)).unwrap(); // prefetched: a hit
        assert_eq!(p.pool_stats().since(&PoolStats::default()).hits, 1);
        drop(r);
        drop(g0);
    }

    #[test]
    fn prefetch_writes_back_dirty_victims() {
        let p = pool(4);
        let f = p.create_file();
        for i in 0..8u8 {
            let (_, mut g) = p.new_page(f).unwrap();
            g[0] = i;
        }
        // Frames hold dirty pages 4..8. The demand miss evicts one; the
        // prefetch staging evicts the other three (a contiguous dirty run,
        // written back with one vectored transfer). Nothing may be lost.
        let r = p
            .read_page_with(PageId::new(f, 0), ScanOptions::sequential(4), None)
            .unwrap();
        assert_eq!(r[0], 0);
        drop(r);
        assert_eq!(p.prefetched(), 3);
        for i in 0..8u32 {
            let r = p.read_page(PageId::new(f, i)).unwrap();
            assert_eq!(r[0], i as u8);
        }
    }

    #[test]
    fn flush_coalesces_contiguous_runs() {
        let p = pool(8);
        let f = p.create_file();
        for _ in 0..4 {
            let (_, _g) = p.new_page(f).unwrap();
        }
        let base = p.io_stats();
        p.flush_all().unwrap();
        // Four contiguous dirty pages: one vectored write — one seek, three
        // sequential transfers.
        let d = p.io_stats().since(&base);
        assert_eq!(d.writes(), 4);
        assert_eq!((d.rand_writes, d.seq_writes), (1, 3));
    }

    /// Ring scans race writers and flushes: the scans recycle their
    /// frames and write back the dirty pages they pin while other threads
    /// re-dirty pages and flush. No write may be lost, every request counts
    /// once, and no pin outlives its guard.
    #[test]
    fn ring_scans_race_writers_and_flushes_without_losing_writes() {
        const PAGES: u32 = 24;
        const SCANS: u64 = 100;
        let p = pool(8);
        let f = p.create_file();
        for _ in 0..PAGES {
            drop(p.new_page(f).unwrap());
        }
        p.evict_all().unwrap();
        let counter = |g: &PageBuf| u64::from_le_bytes(g[..8].try_into().unwrap());
        let applied: Vec<AtomicU64> = (0..PAGES).map(|_| AtomicU64::new(0)).collect();
        let stop = std::sync::atomic::AtomicBool::new(false);
        let base = p.pool_stats();
        std::thread::scope(|s| {
            let (p, applied, stop) = (&p, &applied, &stop);
            s.spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    p.flush_all().unwrap();
                }
            });
            let workers: Vec<_> = (0..4u64)
                .map(|t| {
                    s.spawn(move || {
                        let opts = ScanOptions::sequential(3);
                        let mut x = 0x9E37_79B9 ^ (t + 1);
                        for _ in 0..SCANS {
                            let mut ring = ScanRing::for_scan(p, PAGES, opts);
                            assert!(ring.is_some());
                            for pg in 0..PAGES {
                                if t % 2 == 0 {
                                    let g =
                                        p.read_page_with(PageId::new(f, pg), opts, ring.as_mut());
                                    std::hint::black_box(counter(&g.unwrap()));
                                } else {
                                    x ^= x << 13;
                                    x ^= x >> 7;
                                    x ^= x << 17;
                                    let page = (x % u64::from(PAGES)) as u32;
                                    let mut g = p.write_page(PageId::new(f, page)).unwrap();
                                    let v = counter(&g) + 1;
                                    g[..8].copy_from_slice(&v.to_le_bytes());
                                    drop(g);
                                    applied[page as usize].fetch_add(1, Ordering::SeqCst);
                                }
                            }
                        }
                    })
                })
                .collect();
            // Stop the flusher before a worker's panic resurfaces, or the
            // scope would wait on it forever.
            let joined: Vec<_> = workers.into_iter().map(|w| w.join()).collect();
            stop.store(true, Ordering::SeqCst);
            joined.into_iter().for_each(|w| w.unwrap());
        });
        assert_eq!(
            p.pool_stats().since(&base).requests(),
            4 * SCANS * u64::from(PAGES)
        );
        assert_eq!(p.pinned_frames(), 0);
        p.evict_all().unwrap();
        for (pg, n) in applied.iter().enumerate() {
            let g = p.read_page(PageId::new(f, pg as u32)).unwrap();
            assert_eq!(
                counter(&g),
                n.load(Ordering::SeqCst),
                "page {pg} lost writes"
            );
        }
    }

    #[test]
    fn batched_append_through_charges_one_seek() {
        let p = pool(4);
        let f = p.create_file();
        let a = Box::new([1u8; PAGE_SIZE]);
        let b = Box::new([2u8; PAGE_SIZE]);
        let c = Box::new([3u8; PAGE_SIZE]);
        let start = p.append_pages_through(f, &[&a, &b, &c]).unwrap();
        assert_eq!(start, 0);
        let d = p.io_stats();
        assert_eq!((d.rand_writes, d.seq_writes), (1, 2));
        let r = p.read_page(PageId::new(f, 2)).unwrap();
        assert_eq!(r[0], 3);
    }
}
