//! Heap files: unordered files of fixed-width records, bulk-written by
//! [`HeapWriter`] and afterwards mutable one record at a time through the
//! write-ahead log ([`HeapFile::insert_logged`] /
//! [`HeapFile::delete_logged`]).
//!
//! A page is raw (a record count and fixed-width slots) or packed; both
//! layouts are defined once, in [`crate::codec`], and every reader and
//! writer here goes through that definition. `‖R‖` — the page count the
//! paper's cost formulas are written in — is exactly [`HeapFile::pages`].
//!
//! Writers additionally maintain **region zone maps** (see [`crate::zone`]):
//! one `(min start, max end, min/max height)` summary per sealed page,
//! registered with the pool at [`HeapWriter::finish`] and kept exact or
//! wider by every logged mutation. A scan given a
//! [`crate::zone::ScanFilter`] consults the map before each page fetch and skips pages
//! that provably hold no qualifying record — at zero I/O cost, counted in
//! [`crate::buffer::PoolStats::pages_skipped`]. No page is ever pinned
//! across a skipped range: the scan releases its current page before the
//! zone check runs. The same map is the logged delete's locator: only pages
//! whose entry covers the record are read.

use std::marker::PhantomData;
use std::sync::Arc;

use crate::access::ScanOptions;
use crate::buffer::{BufferPool, PageRef, PoolError, ScanRing, TempFile};
use crate::codec::{
    corrupt, raw_count, raw_slot, records_per_page, Layout, PackedPageBuilder, COUNT,
};
use crate::page::{FileId, PageBuf, PageId, PAGE_SIZE};
use crate::record::FixedRecord;
use crate::wal::{Wal, WalOp};
use crate::zone::{FileZones, ScanFilter, ZoneEntry};

/// Catalog statistics of a file: its record count and the folded
/// [`FixedRecord::bounds_hint`] / [`FixedRecord::height_hint`] of its
/// records — free statistics, kept by one fold for the writer, the
/// reopened handle and logged inserts alike.
#[derive(Debug, Clone, Copy, Default)]
struct Catalog {
    records: u64,
    bounds: Option<(u64, u64)>,
    heights: Option<(u32, u32)>,
}

impl Catalog {
    /// Counts `r` and folds its hints.
    fn fold<R: FixedRecord>(&mut self, r: &R) {
        self.records += 1;
        if let Some((lo, hi)) = r.bounds_hint() {
            let (l, h) = self.bounds.unwrap_or((lo, hi));
            self.bounds = Some((l.min(lo), h.max(hi)));
        }
        if let Some(ht) = r.height_hint() {
            let (l, h) = self.heights.unwrap_or((ht, ht));
            self.heights = Some((l.min(ht), h.max(ht)));
        }
    }

    /// Widens the bounds and heights to cover page zone `z`.
    fn fold_zone(&mut self, z: &ZoneEntry) {
        let (lo, hi) = self.bounds.unwrap_or((z.lo, z.hi));
        self.bounds = Some((lo.min(z.lo), hi.max(z.hi)));
        let (l, h) = self.heights.unwrap_or((z.min_h, z.max_h));
        self.heights = Some((l.min(z.min_h), h.max(z.max_h)));
    }

    /// Whether dropping `r` from a page whose surviving records fold to
    /// `page` may narrow the folded bounds or heights: `r` sat on one of
    /// their edges, and the page no longer reaches it.
    fn may_narrow<R: FixedRecord>(&self, r: &R, page: Option<ZoneEntry>) -> bool {
        let (plo, phi, pmin, pmax) = page.map_or((None, None, None, None), |z| {
            (Some(z.lo), Some(z.hi), Some(z.min_h), Some(z.max_h))
        });
        let bounds = (r.bounds_hint().zip(self.bounds)).is_some_and(|((lo, hi), (l, h))| {
            (lo == l && plo != Some(l)) || (hi == h && phi != Some(h))
        });
        let heights = (r.height_hint().zip(self.heights)).is_some_and(|(ht, (l, h))| {
            (ht == l && pmin != Some(l)) || (ht == h && pmax != Some(h))
        });
        bounds || heights
    }
}

/// One page's zone, folded record by record. A record without hints makes
/// the page a gap for good: a page with a gap must never be skipped.
#[derive(Clone, Copy, Default)]
enum PageZone {
    #[default]
    Empty,
    Exact(ZoneEntry),
    Gap,
}

impl PageZone {
    fn fold<R: FixedRecord>(&mut self, r: &R) {
        *self = match (*self, r.bounds_hint().zip(r.height_hint())) {
            (PageZone::Gap, _) | (_, None) => PageZone::Gap,
            (PageZone::Empty, Some(((lo, hi), h))) => PageZone::Exact(ZoneEntry::of(lo, hi, h)),
            (PageZone::Exact(mut z), Some(((lo, hi), h))) => {
                z.fold(lo, hi, h);
                PageZone::Exact(z)
            }
        };
    }

    /// The page's zone map entry: `None` for an empty page or a gap.
    fn entry(self) -> Option<ZoneEntry> {
        match self {
            PageZone::Exact(z) => Some(z),
            _ => None,
        }
    }
}

/// The exact zone of a page holding `recs`.
fn exact_zone<R: FixedRecord>(recs: &[R]) -> Option<ZoneEntry> {
    let mut zone = PageZone::Empty;
    recs.iter().for_each(|r| zone.fold(r));
    zone.entry()
}

/// A handle to a heap file of `R` records.
///
/// The handle carries the file's vital statistics (page and record counts)
/// in memory; it is produced by [`HeapWriter::finish`] and consumed by
/// scans, sorts and joins.
#[derive(Debug)]
pub struct HeapFile<R: FixedRecord> {
    file: FileId,
    pages: u32,
    /// Record count and folded hints; the height range is the file half of
    /// the zone map (per-page entries live in the pool registry).
    stats: Catalog,
    /// The page incremental inserts are currently filling (a recycled
    /// free-list page keeps receiving records until it is full). `None`
    /// falls back to the file's last page.
    active: Option<u32>,
    _marker: PhantomData<R>,
}

// Manual impls: `R` need not be `Clone` for the handle to be copyable.
impl<R: FixedRecord> Clone for HeapFile<R> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<R: FixedRecord> Copy for HeapFile<R> {}

impl<R: FixedRecord> HeapFile<R> {
    /// Creates an empty heap file on `pool`'s disk.
    pub fn create(pool: &BufferPool) -> Self {
        HeapFile {
            file: pool.create_file(),
            pages: 0,
            stats: Catalog::default(),
            active: None,
            _marker: PhantomData,
        }
    }

    /// Builds a heap file from an iterator of records.
    pub fn from_iter<I: IntoIterator<Item = R>>(
        pool: &BufferPool,
        items: I,
    ) -> Result<Self, PoolError> {
        Self::from_iter_with(pool, ScanOptions::default(), items)
    }

    /// [`from_iter`](HeapFile::from_iter) under explicit [`ScanOptions`] —
    /// the way to build a file honoring a caller's write depth and
    /// compression setting.
    pub fn from_iter_with<I: IntoIterator<Item = R>>(
        pool: &BufferPool,
        opts: ScanOptions,
        items: I,
    ) -> Result<Self, PoolError> {
        let mut w = HeapWriter::create_with(pool, opts)?;
        for r in items {
            w.push(r)?;
        }
        w.finish()
    }

    /// The underlying file id.
    #[inline]
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// Number of pages, the paper's `‖R‖`.
    #[inline]
    pub fn pages(&self) -> u32 {
        self.pages
    }

    /// Number of records, the paper's `|R|`.
    #[inline]
    pub fn records(&self) -> u64 {
        self.stats.records
    }

    /// Whether the file holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.stats.records == 0
    }

    /// The folded `(lo, hi)` keyspace bounds of the records, if the record
    /// type reports them (see [`FixedRecord::bounds_hint`]).
    #[inline]
    pub fn bounds(&self) -> Option<(u64, u64)> {
        self.stats.bounds
    }

    /// The file-level zone (bounds plus height range together), when both
    /// statistics exist — the summary other operators derive pruning
    /// filters from.
    pub fn zone(&self) -> Option<ZoneEntry> {
        match (self.stats.bounds, self.stats.heights) {
            (Some((lo, hi)), Some((min_h, max_h))) => Some(ZoneEntry {
                lo,
                hi,
                min_h,
                max_h,
            }),
            _ => None,
        }
    }

    /// The one height every record occupies, by the catalog's folded
    /// heights: `None` for an empty file, for records at several heights,
    /// or for a record type without [`FixedRecord::height_hint`].
    pub fn single_height(&self) -> Option<u32> {
        self.stats.heights.and_then(|(l, h)| (l == h).then_some(l))
    }

    /// Sequentially scans all records. The scan pins one page at a time and
    /// declares sequential access at the default read-ahead depth
    /// ([`crate::access::DEFAULT_IO_DEPTH`]); use
    /// [`scan_with`](HeapFile::scan_with) to tune or disable read-ahead.
    pub fn scan<'a>(&self, pool: &'a BufferPool) -> HeapScan<'a, R> {
        self.scan_with(pool, ScanOptions::default())
    }

    /// [`scan`](HeapFile::scan) with explicit [`ScanOptions`] — operators
    /// sharing a frame budget across several streams pass a clamped or
    /// shared depth here.
    pub fn scan_with<'a>(&self, pool: &'a BufferPool, opts: ScanOptions) -> HeapScan<'a, R> {
        self.scan_at_with(pool, ScanPos::START, opts)
    }

    /// Starts a scan at a previously captured [`ScanPos`] — the rescan
    /// primitive — under explicit [`ScanOptions`].
    pub fn scan_at_with<'a>(
        &self,
        pool: &'a BufferPool,
        pos: ScanPos,
        opts: ScanOptions,
    ) -> HeapScan<'a, R> {
        // The zone map is only consulted by filtered scans; unfiltered
        // scans skip the registry lookup entirely.
        let zones = if opts.filter.is_all() {
            None
        } else {
            pool.file_zones(self.file)
        };
        HeapScan {
            pool,
            file: self.file,
            pages: self.pages,
            next_page: pos.page,
            cur: None,
            idx: pos.idx,
            skip_on_load: pos.idx,
            ring: ScanRing::for_scan(pool, self.pages, opts),
            opts,
            zones,
            pending_filtered: 0,
            layout: Layout::Raw { n: 0 },
            cache: Vec::new(),
            cached: None,
            _marker: PhantomData,
        }
    }

    /// Reads the whole file into a `Vec` (test/verification helper; real
    /// operators stream via [`scan`](HeapFile::scan)).
    pub fn read_all(&self, pool: &BufferPool) -> Result<Vec<R>, PoolError> {
        self.read_all_with(pool, ScanOptions::default())
    }

    /// [`read_all`](HeapFile::read_all) under explicit [`ScanOptions`], for
    /// callers that must honor a declared access pattern (operators pass
    /// their context's read options so a prefetch-off run stays
    /// prefetch-free even through whole-file loads).
    pub fn read_all_with(&self, pool: &BufferPool, opts: ScanOptions) -> Result<Vec<R>, PoolError> {
        let mut out = Vec::with_capacity(self.stats.records as usize);
        let mut scan = self.scan_with(pool, opts);
        while let Some(r) = scan.next_record()? {
            out.push(r);
        }
        Ok(out)
    }

    /// Deletes the file's disk space. The handle must not be used after.
    pub fn drop_file(self, pool: &BufferPool) {
        pool.delete_file(self.file);
    }

    /// Rebuilds a handle (and the file's zone map) for an existing heap
    /// file by scanning it — the post-crash path: [`crate::wal::recover`]
    /// restores the pages, `open` restores the in-memory catalog state
    /// a never-crashed writer would hold.
    pub fn open(pool: &BufferPool, file: FileId) -> Result<Self, PoolError> {
        Self::open_each(pool, file, |_| ())
    }

    /// [`open`](HeapFile::open) that also hands every page's decoded
    /// records to `visit`, in page order — a caller that rebuilds its own
    /// state from the contents shares the one scan instead of making a
    /// second.
    pub fn open_each(
        pool: &BufferPool,
        file: FileId,
        mut visit: impl FnMut(&[R]),
    ) -> Result<Self, PoolError> {
        let pages = pool.num_pages(file);
        let mut hf = HeapFile {
            file,
            pages,
            stats: Catalog::default(),
            active: pages.checked_sub(1),
            _marker: PhantomData,
        };
        let mut zones = FileZones::default();
        for pg in 0..pages {
            let (recs, _) = read_page_records::<R>(pool, PageId::new(file, pg))?;
            recs.iter().for_each(|r| hf.stats.fold(r));
            zones.push(exact_zone(&recs));
            visit(&recs);
        }
        if zones.any() {
            pool.register_zones(file, zones);
        }
        Ok(hf)
    }

    /// Inserts one record through the write-ahead log: the byte writes
    /// (slot + page header, plus an `alloc` frame when the insert grows
    /// the file or recycles a free page) commit as one atomic [`WalOp`],
    /// and the page's zone map entry widens to keep covering its records.
    ///
    /// Incremental inserts always produce raw-layout slots; a packed
    /// (bulk-loaded, compressed) tail page is left sealed and the insert
    /// opens a new page instead. Recycled pages come from `wal`'s free
    /// list, lowest page first, and keep receiving inserts until full.
    /// A fill page whose header is corrupt is [`PoolError::Corrupt`].
    pub fn insert_logged(&mut self, pool: &BufferPool, wal: &Wal, r: R) -> Result<(), PoolError> {
        let mut op = WalOp::new();
        // Find the slot: the active fill page if it still has raw space,
        // else a recycled free page, else a fresh page at the file's end.
        let mut target = None;
        if let Some(cand) = self.active.or_else(|| self.pages.checked_sub(1)) {
            let pid = PageId::new(self.file, cand);
            let page = pool.read_page(pid)?;
            // A zero count means the page was emptied and released: it
            // belongs to the free list now and must be re-acquired through
            // it (with a logged `alloc`), never written to behind the
            // list's back.
            target = match Layout::parse::<R>(&page[..], pid)? {
                Layout::Raw { n } if n > 0 && n < records_per_page::<R>() => Some((cand, n)),
                _ => None,
            };
        }
        let fresh = target.is_none();
        let (pageno, idx) = match target {
            Some(t) => t,
            None => {
                let pg = match wal.acquire_free_page(self.file) {
                    Some(pg) => pg,
                    None => pool.allocate_page(self.file)?,
                };
                op.alloc(PageId::new(self.file, pg));
                (pg, 0)
            }
        };
        let pid = PageId::new(self.file, pageno);
        log_raw_edit(&mut op, pid, Some((idx, &r)), idx + 1);
        wal.commit(pool, op)?;

        // In-memory catalog state follows only after the commit succeeded.
        self.pages = self.pages.max(pageno + 1);
        self.active = Some(pageno);
        self.stats.fold(&r);
        let hints = r.bounds_hint().zip(r.height_hint());
        pool.edit_zones(self.file, fresh && hints.is_some(), |zones| {
            match (hints, fresh) {
                // A fresh or recycled page holds exactly this record, so its
                // zone is set outright — widening would wrongly inherit the
                // `None` an emptied page leaves behind.
                (Some(((lo, hi), h)), true) => {
                    zones.set_page(pageno, Some(ZoneEntry::of(lo, hi, h)))
                }
                (Some(((lo, hi), h)), false) => zones.widen(pageno, lo, hi, h),
                (None, _) => zones.set_page(pageno, None),
            }
        });
        Ok(())
    }

    /// Deletes the first record equal to `r`, through the write-ahead
    /// log. Raw pages compact by moving their own last slot into the
    /// hole; packed pages decode, drop the record, and re-seal (removal
    /// always shrinks the encoding, so the re-sealed page fits; the log
    /// holds an image of its sealed prefix). A page emptied by the delete
    /// is released to `wal`'s free list — it stays in the file with a zero
    /// record count until an insert recycles it. The page's zone map entry
    /// is recomputed exactly from the surviving records, and a record on
    /// the edge of the file's bounds or heights refolds them from the page
    /// zones. Returns whether a record was found.
    ///
    /// The file's zone map locates the record: a page whose entry does not
    /// cover `r`'s hints cannot hold it and is not read. Pages without an
    /// entry, and records without hints, fall back to being read; the walk
    /// is in ascending page order either way, so "first" means the same
    /// with and without a map.
    pub fn delete_logged(&mut self, pool: &BufferPool, wal: &Wal, r: &R) -> Result<bool, PoolError>
    where
        R: PartialEq,
    {
        let hints = r.bounds_hint().zip(r.height_hint());
        let zones = hints.and_then(|_| pool.file_zones(self.file));
        for pg in 0..self.pages {
            if let (Some(((lo, hi), h)), Some(z)) = (hints, zones.as_ref().and_then(|z| z.page(pg)))
            {
                if !z.covers(lo, hi, h) {
                    continue;
                }
            }
            let pid = PageId::new(self.file, pg);
            let (mut recs, layout) = read_page_records::<R>(pool, pid)?;
            let Some(idx) = recs.iter().position(|x| x == r) else {
                continue;
            };
            let mut op = WalOp::new();
            let n = recs.len();
            if n == 1 {
                // The page empties: a zero raw count (which also clears the
                // packed flag) and a `free` frame.
                log_raw_edit::<R>(&mut op, pid, None, 0);
                op.free(pid);
                recs.clear();
            } else if let Layout::Packed(_) = layout {
                // Record order carries the delta encoding: removing record
                // `i` merges two deltas into their sum, whose zigzag varint
                // never outgrows the two it replaces (and the record's tag
                // and height bytes are freed besides) — so the re-sealed
                // page always fits. `swap_remove` would break that bound.
                recs.remove(idx);
                let mut img: Box<PageBuf> = Box::new([0u8; PAGE_SIZE]);
                let mut b = PackedPageBuilder::default();
                for rec in &recs {
                    let parts = rec.to_parts().ok_or_else(|| {
                        corrupt(pid, "record decoded from a packed page has no packed form")
                    })?;
                    debug_assert!(b.fits(&parts), "removal never grows a packed page");
                    b.push(parts);
                }
                let (_, used) = b.seal_into(&mut img[..]);
                op.page_image(pid, &img[..used]);
            } else {
                // The page's last slot fills the hole, unless it was the hole.
                recs.swap_remove(idx);
                log_raw_edit(&mut op, pid, recs.get(idx).map(|last| (idx, last)), n - 1);
            }
            wal.commit(pool, op)?;
            self.stats.records -= 1;
            let exact = exact_zone(&recs);
            // Let go of the snapshot first, or the in-place edit would have
            // to copy the map it is shared with.
            drop(zones);
            pool.edit_zones(self.file, exact.is_some(), |zones| {
                zones.set_page(pg, exact)
            });
            if self.stats.may_narrow(r, exact) {
                self.refold_catalog(pool, wal);
            }
            return Ok(true);
        }
        Ok(false)
    }

    /// Refolds the catalog's bounds and heights from the page zones, in
    /// memory, so that a delete narrows them as [`open`](HeapFile::open)
    /// would. Exact when every page holding records has a zone, as in a
    /// file whose records all carry both hints; a page of records without
    /// them has none, their hints are unknown here, and the catalog keeps
    /// its wider fold.
    fn refold_catalog(&mut self, pool: &BufferPool, wal: &Wal) {
        let Some(zones) = pool.file_zones(self.file) else {
            return;
        };
        let mut free = None;
        let mut fold = Catalog {
            records: self.stats.records,
            ..Catalog::default()
        };
        for pg in 0..self.pages {
            match zones.page(pg) {
                Some(z) => fold.fold_zone(z),
                // An emptied page is on the free list and holds nothing.
                None => {
                    let free = free.get_or_insert_with(|| wal.free_pages_of(self.file));
                    if free.binary_search(&pg).is_err() {
                        return;
                    }
                }
            }
        }
        self.stats = fold;
    }
}

/// Logs a raw-page edit into `op`: `slot`'s record into its slot, when
/// given, then the page's new record count `n` — the one spelling of the
/// logged insert's and delete's raw writes.
fn log_raw_edit<R: FixedRecord>(op: &mut WalOp, pid: PageId, slot: Option<(usize, &R)>, n: usize) {
    if let Some((i, r)) = slot {
        let mut bytes = vec![0u8; R::SIZE];
        r.write(&mut bytes);
        op.page_write(pid, raw_slot::<R>(i).start, &bytes);
    }
    op.page_write(pid, 0, &raw_count(n));
}

/// Reads and fully decodes one heap page, with its layout — the shared
/// primitive of [`HeapFile::open_each`] and [`HeapFile::delete_logged`].
fn read_page_records<R: FixedRecord>(
    pool: &BufferPool,
    pid: PageId,
) -> Result<(Vec<R>, Layout), PoolError> {
    let page = pool.read_page(pid)?;
    let layout = Layout::parse::<R>(&page[..], pid)?;
    let mut recs = Vec::with_capacity(layout.len());
    layout.decode(&page[..], pid, 0, |r| recs.push(r))?;
    Ok((recs, layout))
}

/// Append writer for a heap file. Buffers page images in its own memory
/// (no pool frames consumed) and appends them with vectored write-through,
/// coalescing up to the declared [`AccessPattern::WriteOnce`] batch depth
/// per disk-arm movement — or, [`in_pool`], places each sealed page in a
/// pool frame instead. A writer dropped before [`finish`] deletes its
/// half-written file.
///
/// [`AccessPattern::WriteOnce`]: crate::access::AccessPattern::WriteOnce
/// [`finish`]: HeapWriter::finish
/// [`in_pool`]: HeapWriter::in_pool
pub struct HeapWriter<'a, R: FixedRecord> {
    pool: &'a BufferPool,
    file: FileId,
    /// Owns `file` until `finish` hands it to the caller.
    guard: TempFile<'a, ()>,
    pages: u32,
    stats: Catalog,
    /// The current page image, reused (never cleared) from page to page —
    /// the source of the raw layout's stale tail.
    buf: Vec<u8>,
    in_buf: usize,
    /// Sealed page images awaiting one vectored append.
    pending: Vec<Box<PageBuf>>,
    /// Where sealed pages go: pool frames (`true`) or write-through.
    in_pool: bool,
    /// Pages coalesced per append batch (the write-once depth).
    batch: usize,
    /// Zone of the page being filled.
    page_zone: PageZone,
    /// Per-page zones of the sealed pages, registered at `finish`.
    zones: FileZones,
    /// Packed-page encoder, engaged when the record type is packable and
    /// the writer's options enable compression. `None` writes the raw
    /// layout. Cleared for the rest of the file the first time a record
    /// yields no parts (mixed layouts within one file are fine — the page
    /// header selects the decode path).
    packer: Option<PackedPageBuilder>,
    _marker: PhantomData<R>,
}

impl<'a, R: FixedRecord> HeapWriter<'a, R> {
    /// Starts writing a brand-new heap file with explicit [`ScanOptions`]
    /// (the write-once counterpart of the declared depth is used, so
    /// passing an operator's read options directly does the right thing).
    pub fn create_with(pool: &'a BufferPool, opts: ScanOptions) -> Result<Self, PoolError> {
        let file = pool.create_file();
        Ok(HeapWriter {
            pool,
            file,
            guard: TempFile::new(pool, file, ()),
            pages: 0,
            stats: Catalog::default(),
            buf: vec![0u8; PAGE_SIZE],
            in_buf: 0,
            pending: Vec::new(),
            in_pool: false,
            batch: opts.as_write().depth(),
            page_zone: PageZone::Empty,
            zones: FileZones::default(),
            packer: (R::PACKABLE && opts.compress).then(PackedPageBuilder::default),
            _marker: PhantomData,
        })
    }

    /// Chooses where sealed pages go. `true` places each one in a pool
    /// frame as a dirty page ([`BufferPool::new_page`]) instead of
    /// appending it through: for a file that is read back at once and
    /// then deleted, such as a query's intermediate that fits one memory
    /// load, the reads are hits and the delete discards the frames
    /// unwritten. A page the clock evicts first is written back then, and
    /// counted. The bytes, zones and catalog are the same either way.
    pub fn in_pool(mut self, in_pool: bool) -> Self {
        self.in_pool = in_pool;
        self
    }

    /// Appends one record.
    pub fn push(&mut self, r: R) -> Result<(), PoolError> {
        match self.packer.as_ref().and(r.to_parts()) {
            Some(parts) => {
                if !self.packer.as_ref().expect("packer matched").fits(&parts) {
                    self.spill()?;
                }
                self.packer
                    .as_mut()
                    .expect("packer survives spills")
                    .push(parts);
            }
            None => {
                if self.packer.is_some() {
                    // A record the codec cannot represent: seal what is
                    // buffered and write raw from here on.
                    self.spill()?;
                    self.packer = None;
                }
                if self.in_buf == records_per_page::<R>() {
                    self.spill()?;
                }
                r.write(&mut self.buf[raw_slot::<R>(self.in_buf)]);
            }
        }
        self.in_buf += 1;
        self.stats.fold(&r);
        self.page_zone.fold(&r);
        Ok(())
    }

    /// Number of records pushed so far.
    #[inline]
    pub fn records(&self) -> u64 {
        self.stats.records
    }

    fn spill(&mut self) -> Result<(), PoolError> {
        if self.in_buf == 0 {
            return Ok(());
        }
        match &mut self.packer {
            Some(packer) => {
                debug_assert_eq!(packer.len(), self.in_buf);
                let (n, used) = packer.seal_into(&mut self.buf);
                self.pool
                    .note_page_packed((n * R::SIZE) as u64, used as u64);
            }
            None => self.buf[..COUNT].copy_from_slice(&raw_count(self.in_buf)),
        }
        if self.in_pool {
            let (_, mut frame) = self.pool.new_page(self.file)?;
            frame.copy_from_slice(&self.buf);
        } else {
            // Seal the page image; the actual write-through happens in
            // batches (bulk output bypasses the pool, see
            // `BufferPool::append_pages_through`).
            let mut img: Box<PageBuf> = Box::new([0u8; PAGE_SIZE]);
            img.copy_from_slice(&self.buf);
            self.pending.push(img);
        }
        self.pages += 1;
        self.in_buf = 0;
        self.zones.push(std::mem::take(&mut self.page_zone).entry());
        if self.pending.len() >= self.batch {
            self.flush_pending()?;
        }
        Ok(())
    }

    fn flush_pending(&mut self) -> Result<(), PoolError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let bufs: Vec<&PageBuf> = self.pending.iter().map(|b| &**b).collect();
        self.pool.append_pages_through(self.file, &bufs)?;
        self.pending.clear();
        Ok(())
    }

    /// Flushes the tail page, registers the file's zone map with the pool
    /// (when any page produced one) and returns the finished file handle.
    pub fn finish(mut self) -> Result<HeapFile<R>, PoolError> {
        self.spill()?;
        self.flush_pending()?;
        if self.zones.any() {
            self.pool
                .register_zones(self.file, std::mem::take(&mut self.zones));
        }
        self.guard.keep();
        Ok(HeapFile {
            file: self.file,
            pages: self.pages,
            stats: self.stats,
            active: None,
            _marker: PhantomData,
        })
    }
}

/// A resumable position inside a heap file, captured with
/// [`HeapScan::position`] *before* reading the record it should resume at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanPos {
    page: u32,
    idx: usize,
}

impl ScanPos {
    /// The beginning of the file.
    pub const START: ScanPos = ScanPos { page: 0, idx: 0 };

    /// An explicit position: record `idx` of page `page`. Batched readers
    /// ([`HeapScan::next_batch`] consumers) that track page-aligned batches
    /// use this to mark records inside a batch for later rescans.
    pub fn at(page: u32, idx: usize) -> ScanPos {
        ScanPos { page, idx }
    }

    /// The page this position points into.
    #[inline]
    pub fn page(&self) -> u32 {
        self.page
    }

    /// The record index within the page.
    #[inline]
    pub fn idx(&self) -> usize {
        self.idx
    }
}

/// Sequential scanner over a heap file. See [`HeapFile::scan`]. A
/// sequential scan of a file with more pages than the pool has frames
/// recycles a small ring of its own frames and writes back the dirty
/// pages it passes ([`crate::buffer`]'s module docs).
///
/// When its [`ScanOptions`] carry a [`crate::zone::ScanFilter`], the scan prunes at two
/// granularities: whole pages whose zone map entry cannot satisfy the
/// filter are skipped *before* they are fetched (zero I/O, counted as
/// `pages_skipped`), and admitted pages drop individual non-qualifying
/// records after decode (counted as `records_filtered`). Filters are
/// necessary conditions, so a filtered scan returns exactly the records a
/// full scan would that satisfy the predicate.
pub struct HeapScan<'a, R: FixedRecord> {
    pool: &'a BufferPool,
    file: FileId,
    pages: u32,
    next_page: u32,
    cur: Option<PageRef<'a>>,
    idx: usize,
    /// Intra-page offset to apply when the first page loads (scan_at_with).
    skip_on_load: usize,
    /// Declared access pattern, forwarded to the pool on every page fetch.
    opts: ScanOptions,
    /// The frames the scan recycles when its file is larger than the pool.
    ring: Option<ScanRing>,
    /// Zone map of the file, when the scan is filtered and one exists.
    zones: Option<Arc<FileZones>>,
    /// Records dropped by the record-level filter since the last flush to
    /// the pool counter (flushed per page, at EOF, and on drop).
    pending_filtered: u64,
    /// Parsed header of the current page.
    layout: Layout,
    /// Per-page decode cache for record-at-a-time access: `next_record`
    /// decodes the current page once into this buffer and serves from it,
    /// so `idx`/[`ScanPos`] index decoded records the same way on either
    /// layout. Batched access streams the decode instead, and reads this
    /// cache only when `next_record` already filled it for the page.
    cache: Vec<R>,
    /// How the cache's decode ended; `None` until `next_record` fills the
    /// cache for the current page. A decode stops at the first corrupt
    /// record: the records before it are served, then its error.
    cached: Option<Result<(), PoolError>>,
    _marker: PhantomData<R>,
}

/// A scan's record-level filter check: whether `filter` admits `r`,
/// counting a rejection into `pending`.
#[inline]
fn admit<R: FixedRecord>(filter: &ScanFilter, pending: &mut u64, r: &R) -> bool {
    let ok = filter.is_all() || filter.admits_record(r.bounds_hint(), r.height_hint());
    if !ok {
        *pending += 1;
    }
    ok
}

impl<'a, R: FixedRecord> HeapScan<'a, R> {
    /// The position of the *next* record this scan would return; feed it
    /// to [`HeapFile::scan_at_with`] to resume here later.
    pub fn position(&self) -> ScanPos {
        match &self.cur {
            Some(_) => ScanPos {
                page: self.next_page - 1,
                idx: self.idx,
            },
            None => ScanPos {
                page: self.next_page,
                idx: self.skip_on_load,
            },
        }
    }

    /// Consumes the scan into an iterator of `Result` items, for feeding
    /// streaming consumers (e.g. index bulk loads) that must propagate
    /// I/O faults instead of panicking like the plain [`Iterator`] impl.
    pub fn results(mut self) -> impl Iterator<Item = Result<R, PoolError>> + 'a
    where
        R: 'a,
    {
        std::iter::from_fn(move || self.next_record().transpose())
    }

    /// Returns the next record, or `None` at end of file.
    ///
    /// Page contents are validated as they stream by — a header record
    /// count beyond page capacity, malformed packed bytes, or a record
    /// [`FixedRecord::validate`] rejects surface as [`PoolError::Corrupt`]
    /// naming the page, instead of a slice panic or silently decoded
    /// garbage. Each page decodes once into a per-page cache and is served
    /// from it (the page stays pinned meanwhile), so positions and resume
    /// offsets index decoded records on either layout.
    pub fn next_record(&mut self) -> Result<Option<R>, PoolError> {
        loop {
            if let Some(page) = &self.cur {
                if self.cached.is_none() {
                    let pid = PageId::new(self.file, self.next_page - 1);
                    self.cache.clear();
                    let cache = &mut self.cache;
                    let end = self.layout.decode(&page[..], pid, 0, |r| cache.push(r));
                    if end.is_ok() && matches!(self.layout, Layout::Packed(_)) {
                        self.pool.note_packed_decode();
                    }
                    self.cached = Some(end);
                }
                while let Some(&r) = self.cache.get(self.idx) {
                    self.idx += 1;
                    if admit(&self.opts.filter, &mut self.pending_filtered, &r) {
                        return Ok(Some(r));
                    }
                }
                if let Some(Err(e)) = &self.cached {
                    return Err(e.clone());
                }
                // Release the pin *before* looking at the next page's zone:
                // skipped ranges are crossed with no page held.
                self.cur = None;
                self.flush_filtered();
            }
            if !self.load_next_page()? {
                return Ok(None);
            }
        }
    }

    /// Decodes the remainder of the current page (loading and zone-skipping
    /// pages as needed) into `out` in one pass, returning the number of
    /// records appended — `0` only at end of file. The page is unpinned
    /// before this returns, so batch consumers never hold pins between
    /// calls. Respects the scan's filter like [`next_record`].
    ///
    /// The batch is page-aligned: together with [`HeapScan::position`]
    /// (which after a batch points at the first record of the *next* page)
    /// and [`ScanPos::at`], callers can mark any record inside the batch
    /// for a later rescan.
    ///
    /// [`next_record`]: HeapScan::next_record
    pub fn next_batch(&mut self, out: &mut Vec<R>) -> Result<usize, PoolError> {
        self.next_batch_each(|r| out.push(r))
    }

    /// Visitor form of [`next_batch`](HeapScan::next_batch): streams the
    /// remainder of the current page through `f` and returns how many
    /// records it saw (`0` only at end of file). Packed pages decode
    /// **directly into the visitor** — columnar consumers split each record
    /// into their own SoA columns with no intermediate record vector.
    pub fn next_batch_each(&mut self, mut f: impl FnMut(R)) -> Result<usize, PoolError> {
        loop {
            if self.cur.is_none() && !self.load_next_page()? {
                return Ok(0);
            }
            let page = self.cur.as_ref().expect("page loaded");
            let pid = PageId::new(self.file, self.next_page - 1);
            let (filter, pending) = (&self.opts.filter, &mut self.pending_filtered);
            let mut emitted = 0usize;
            let mut emit = |r: R| {
                if admit(filter, pending, &r) {
                    f(r);
                    emitted += 1;
                }
            };
            match &self.cached {
                // `next_record` already decoded this page: serve the cache
                // rather than decoding twice.
                Some(end) => {
                    let rest = self.cache.get(self.idx..).unwrap_or_default();
                    rest.iter().for_each(|&r| emit(r));
                    end.clone()?;
                }
                None => {
                    self.layout.decode(&page[..], pid, self.idx, &mut emit)?;
                    if let Layout::Packed(_) = self.layout {
                        self.pool.note_packed_decode();
                    }
                }
            }
            self.idx = self.layout.len();
            self.cur = None;
            self.flush_filtered();
            if emitted > 0 {
                return Ok(emitted);
            }
            // Every record of the page was filtered out: move on.
        }
    }

    /// Loads the next page the filter's zone check admits; returns `false`
    /// at end of file. `self.cur` must be `None` on entry (no pin is held
    /// while pages are being skipped).
    fn load_next_page(&mut self) -> Result<bool, PoolError> {
        debug_assert!(self.cur.is_none(), "pin held across page loads");
        if let Some(zones) = &self.zones {
            let mut skipped = 0u64;
            while self.next_page < self.pages {
                match zones.page(self.next_page) {
                    Some(z) if !self.opts.filter.admits_zone(z) => {
                        self.next_page += 1;
                        // A resume offset only applies to the exact page it
                        // was captured on; skipping that page consumes it.
                        self.skip_on_load = 0;
                        skipped += 1;
                    }
                    _ => break,
                }
            }
            if skipped > 0 {
                self.pool.note_pages_skipped(skipped);
            }
        }
        if self.next_page == self.pages {
            self.flush_filtered();
            return Ok(false);
        }
        let pid = PageId::new(self.file, self.next_page);
        let page = self
            .pool
            .read_page_with(pid, self.opts, self.ring.as_mut())?;
        self.next_page += 1;
        self.layout = Layout::parse::<R>(&page[..], pid)?;
        self.cached = None;
        self.idx = self.skip_on_load;
        self.skip_on_load = 0;
        self.cur = Some(page);
        Ok(true)
    }

    /// Credits locally accumulated filtered-record counts to the pool.
    /// Batched per page so the hot loop performs no atomic traffic.
    fn flush_filtered(&mut self) {
        if self.pending_filtered > 0 {
            self.pool.note_records_filtered(self.pending_filtered);
            self.pending_filtered = 0;
        }
    }
}

impl<R: FixedRecord> Drop for HeapScan<'_, R> {
    /// A short-circuited scan still reports the records it filtered.
    fn drop(&mut self) {
        self.flush_filtered();
    }
}

impl<R: FixedRecord> Iterator for HeapScan<'_, R> {
    type Item = R;

    /// Iterator convenience that panics on any pool error — frame
    /// exhaustion or a device fault. Code that must survive injected I/O
    /// faults (everything the fault-sweep harness exercises) uses the
    /// fallible [`HeapScan::next_record`] instead.
    fn next(&mut self) -> Option<R> {
        self.next_record()
            .unwrap_or_else(|e| panic!("heap scan failed: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::Disk;
    use crate::util::rng::Rng;
    use crate::zone::ScanFilter;

    fn pool(frames: usize) -> BufferPool {
        BufferPool::new(Disk::in_memory_free(), frames)
    }

    #[test]
    fn write_scan_round_trip() {
        let p = pool(4);
        let data: Vec<u64> = (0..10_000).map(|i| i * 3 + 1).collect();
        let hf = HeapFile::from_iter(&p, data.iter().copied()).unwrap();
        assert_eq!(hf.records(), 10_000);
        let expect_pages = 10_000usize.div_ceil(records_per_page::<u64>());
        assert_eq!(hf.pages() as usize, expect_pages);
        let back: Vec<u64> = hf.scan(&p).collect();
        assert_eq!(back, data);
    }

    #[test]
    fn empty_file() {
        let p = pool(2);
        let hf = HeapFile::<u64>::from_iter(&p, std::iter::empty()).unwrap();
        assert!(hf.is_empty());
        assert_eq!(hf.pages(), 0);
        assert_eq!(hf.scan(&p).count(), 0);
    }

    #[test]
    fn pair_records() {
        let p = pool(4);
        let data: Vec<(u64, u64)> = (0..1000).map(|i| (i, i * i)).collect();
        let hf = HeapFile::from_iter(&p, data.iter().copied()).unwrap();
        let back: Vec<(u64, u64)> = hf.scan(&p).collect();
        assert_eq!(back, data);
    }

    #[test]
    fn scan_io_equals_page_count() {
        let p = pool(2); // smaller than the file: every page is a real read
        let data: Vec<u64> = (0..5000).collect();
        let hf = HeapFile::from_iter(&p, data.iter().copied()).unwrap();
        p.flush_all().unwrap();
        // Evict everything by scanning a second file of the same size.
        let other = HeapFile::from_iter(&p, data.iter().copied()).unwrap();
        p.flush_all().unwrap();
        let _ = other.read_all(&p).unwrap();
        let before = p.io_stats();
        let n = hf.scan(&p).count();
        assert_eq!(n, 5000);
        let delta = p.io_stats().since(&before);
        assert_eq!(delta.reads(), hf.pages() as u64);
        // A pure scan is perfectly sequential except the first page.
        assert_eq!(delta.rand_reads, 1);
    }

    #[test]
    fn writer_batches_appends() {
        let p = pool(2);
        let n = records_per_page::<u64>() * 3 + 1; // 4 pages
        let hf = HeapFile::from_iter(&p, 0..n as u64).unwrap();
        assert_eq!(hf.pages(), 4);
        // All four pages went out in one vectored append: one seek, three
        // sequential transfers.
        let d = p.io_stats();
        assert_eq!(d.writes(), 4);
        assert_eq!((d.rand_writes, d.seq_writes), (1, 3));
        let back: Vec<u64> = hf.scan(&p).collect();
        assert_eq!(back.len(), n);
    }

    #[test]
    fn random_scan_disables_read_ahead() {
        let p = pool(8);
        let hf = HeapFile::from_iter(&p, 0..5000u64).unwrap();
        p.evict_all().unwrap();
        let mut s = hf.scan_with(&p, ScanOptions::random());
        s.next_record().unwrap().unwrap();
        assert_eq!(p.io_stats().reads(), 1);
        assert_eq!(p.prefetched(), 0);
    }

    #[test]
    fn partial_last_page_preserved() {
        let p = pool(2);
        let n = records_per_page::<u64>() + 3; // one full page + 3
        let hf = HeapFile::from_iter(&p, 0..n as u64).unwrap();
        assert_eq!(hf.pages(), 2);
        assert_eq!(hf.scan(&p).count(), n);
    }

    #[test]
    fn drop_file_releases_pages() {
        let p = pool(2);
        let hf = HeapFile::from_iter(&p, 0..1000u64).unwrap();
        let fid = hf.file_id();
        hf.drop_file(&p);
        assert_eq!(p.num_pages(fid), 0);
    }

    #[test]
    fn scan_position_round_trip() {
        let p = pool(4);
        let data: Vec<u64> = (0..2000).collect();
        let hf = HeapFile::from_iter(&p, data.iter().copied()).unwrap();
        let mut s = hf.scan(&p);
        // Consume 700 records, capture, consume the rest.
        for _ in 0..700 {
            s.next_record().unwrap().unwrap();
        }
        let pos = s.position();
        let rest: Vec<u64> = std::iter::from_fn(|| s.next_record().unwrap()).collect();
        assert_eq!(rest, data[700..]);
        // Resume from the captured position.
        let mut s2 = hf.scan_at_with(&p, pos, ScanOptions::default());
        let resumed: Vec<u64> = std::iter::from_fn(|| s2.next_record().unwrap()).collect();
        assert_eq!(resumed, data[700..]);
        // Position at page boundaries round-trips too.
        let mut s3 = hf.scan(&p);
        let per_page = records_per_page::<u64>();
        for _ in 0..per_page {
            s3.next_record().unwrap().unwrap();
        }
        let pos = s3.position();
        let mut s4 = hf.scan_at_with(&p, pos, ScanOptions::default());
        assert_eq!(s4.next_record().unwrap(), Some(per_page as u64));
        // START equals a plain scan.
        let mut s5 = hf.scan_at_with(&p, ScanPos::START, ScanOptions::default());
        assert_eq!(s5.next_record().unwrap(), Some(0));
    }

    /// A record type that rejects a zero payload, exercising
    /// [`FixedRecord::validate`].
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct NonZero(u64);

    impl FixedRecord for NonZero {
        const SIZE: usize = 8;
        fn write(&self, out: &mut [u8]) {
            self.0.write(out);
        }
        fn read(buf: &[u8]) -> Self {
            NonZero(u64::read(buf))
        }
        fn validate(buf: &[u8]) -> Result<(), &'static str> {
            if u64::read(buf) == 0 {
                Err("zero payload")
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn corrupt_record_surfaces_as_error() {
        let p = pool(4);
        let hf = HeapFile::from_iter(&p, (1..=1000u64).map(NonZero)).unwrap();
        let pid = PageId::new(hf.file_id(), 0);
        {
            let mut page = p.write_page(pid).unwrap();
            // Zero one record in the middle of page 0.
            page[raw_slot::<NonZero>(5)].fill(0);
        }
        let mut s = hf.scan(&p);
        for _ in 0..5 {
            s.next_record().unwrap().unwrap();
        }
        let err = s.next_record().unwrap_err();
        assert_eq!(
            err,
            PoolError::Corrupt {
                pid,
                reason: "zero payload"
            }
        );
    }

    #[test]
    fn writer_uses_bounded_frames() {
        // A writer holds no pinned page between pushes: with a 1-frame pool
        // a full write-out still succeeds.
        let p = pool(1);
        let hf = HeapFile::from_iter(&p, 0..50_000u64).unwrap();
        assert_eq!(hf.records(), 50_000);
    }

    /// A record spanning an interval at a height — the minimal zone-mapped
    /// record type.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Span {
        lo: u64,
        hi: u64,
        h: u32,
    }

    impl FixedRecord for Span {
        const SIZE: usize = 20;
        fn write(&self, out: &mut [u8]) {
            out[..8].copy_from_slice(&self.lo.to_le_bytes());
            out[8..16].copy_from_slice(&self.hi.to_le_bytes());
            out[16..20].copy_from_slice(&self.h.to_le_bytes());
        }
        fn read(buf: &[u8]) -> Self {
            Span {
                lo: u64::from_le_bytes(buf[..8].try_into().unwrap()),
                hi: u64::from_le_bytes(buf[8..16].try_into().unwrap()),
                h: u32::from_le_bytes(buf[16..20].try_into().unwrap()),
            }
        }
        fn bounds_hint(&self) -> Option<(u64, u64)> {
            Some((self.lo, self.hi))
        }
        fn height_hint(&self) -> Option<u32> {
            Some(self.h)
        }
    }

    /// `n` spans laid out in key order: record `i` covers `[10i, 10i+5]`
    /// at height `i % 4`, so consecutive pages hold disjoint key windows —
    /// the best case for zone pruning.
    fn spans(n: u64) -> Vec<Span> {
        (0..n)
            .map(|i| Span {
                lo: 10 * i,
                hi: 10 * i + 5,
                h: (i % 4) as u32,
            })
            .collect()
    }

    #[test]
    fn writer_registers_zone_map() {
        let p = pool(4);
        let data = spans(2000);
        let hf = HeapFile::from_iter(&p, data.iter().copied()).unwrap();
        assert_eq!(hf.bounds(), Some((0, 10 * 1999 + 5)));
        let z = hf.zone().unwrap();
        assert_eq!((z.lo, z.hi, z.min_h, z.max_h), (0, 19_995, 0, 3));
        let zones = p.file_zones(hf.file_id()).unwrap();
        assert_eq!(zones.len(), hf.pages() as usize);
        // Every page's entry covers exactly its records.
        let per = records_per_page::<Span>() as u64;
        let z0 = zones.page(0).unwrap();
        assert_eq!((z0.lo, z0.hi), (0, 10 * (per - 1) + 5));
        assert_eq!((z0.min_h, z0.max_h), (0, 3));
        // The writer's handle and a reopened one read the same one height.
        let flat = HeapFile::from_iter(&p, data.iter().map(|&s| Span { h: 2, ..s })).unwrap();
        for f in [hf, flat] {
            let reopened = HeapFile::<Span>::open(&p, f.file_id()).unwrap();
            assert_eq!(f.single_height(), reopened.single_height());
        }
        assert_eq!((hf.single_height(), flat.single_height()), (None, Some(2)));
    }

    #[test]
    fn hintless_records_register_no_zones() {
        let p = pool(4);
        let hf = HeapFile::from_iter(&p, 0..5000u64).unwrap();
        assert!(p.file_zones(hf.file_id()).is_none());
        assert_eq!(hf.zone(), None);
        assert_eq!(hf.single_height(), None);
    }

    #[test]
    fn filtered_scan_skips_pages_at_zero_io() {
        let p = pool(4);
        let data = spans(5000);
        let hf = HeapFile::from_iter(&p, data.iter().copied()).unwrap();
        p.evict_all().unwrap();
        let io0 = p.io_stats();
        let s0 = p.pool_stats();
        // A window covering records 1000..=1200 only.
        let filter = ScanFilter::RegionOverlap {
            start: 10_000,
            end: 12_005,
        };
        // Read-ahead off, so the read/skip tiling below is exact (prefetch
        // would fetch past the admitted window).
        let mut scan = hf.scan_with(&p, ScanOptions::sequential(1).with_filter(filter));
        let mut got = Vec::new();
        while let Some(r) = scan.next_record().unwrap() {
            got.push(r);
        }
        drop(scan);
        let expect: Vec<Span> = data
            .iter()
            .copied()
            .filter(|r| r.lo <= 12_005 && r.hi >= 10_000)
            .collect();
        assert_eq!(got, expect);
        let ds = p.pool_stats().since(&s0);
        let dio = p.io_stats().since(&io0);
        assert!(ds.pages_skipped > 0, "zone map pruned nothing");
        // Skipped pages cost zero I/O: reads + skips tile the file exactly.
        assert_eq!(dio.reads() + ds.pages_skipped, hf.pages() as u64);
        assert!(dio.reads() < hf.pages() as u64);
        // Loaded pages at the window edges hold non-qualifying records,
        // which the record-level filter dropped and counted.
        let loaded = hf.pages() as u64 - ds.pages_skipped;
        let decoded = loaded * records_per_page::<Span>() as u64;
        assert_eq!(ds.records_filtered, decoded.min(5000) - got.len() as u64);
        // The request identity is untouched by skips.
        assert_eq!(ds.hits + ds.misses, ds.requests());
    }

    #[test]
    fn filtered_scan_equals_unfiltered_postfilter() {
        let p = pool(4);
        let data = spans(3000);
        let hf = HeapFile::from_iter(&p, data.iter().copied()).unwrap();
        for filter in [
            ScanFilter::HeightRange { min: 2, max: 3 },
            ScanFilter::RegionOverlap { start: 0, end: 40 },
            ScanFilter::RegionAndHeight {
                start: 5_000,
                end: 9_999,
                min: 1,
                max: 2,
            },
            // An empty window admits nothing anywhere.
            ScanFilter::RegionOverlap {
                start: 1_000_000,
                end: 2_000_000,
            },
        ] {
            let got = hf
                .read_all_with(&p, ScanOptions::default().with_filter(filter))
                .unwrap();
            let expect: Vec<Span> = data
                .iter()
                .copied()
                .filter(|r| filter.admits_record(r.bounds_hint(), r.height_hint()))
                .collect();
            assert_eq!(got, expect, "filter {filter:?}");
        }
    }

    /// A span whose hints can be switched off, for poisoning pages.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct MaybeSpan(Span, bool);

    impl FixedRecord for MaybeSpan {
        const SIZE: usize = 21;
        fn write(&self, out: &mut [u8]) {
            self.0.write(&mut out[..20]);
            out[20] = self.1 as u8;
        }
        fn read(buf: &[u8]) -> Self {
            MaybeSpan(Span::read(&buf[..20]), buf[20] != 0)
        }
        fn bounds_hint(&self) -> Option<(u64, u64)> {
            self.1.then_some((self.0.lo, self.0.hi))
        }
        fn height_hint(&self) -> Option<u32> {
            self.1.then_some(self.0.h)
        }
    }

    #[test]
    fn hintless_record_poisons_its_page_only() {
        let p = pool(4);
        let per = records_per_page::<MaybeSpan>() as u64;
        // Three pages; one hint-less record lands on page 1.
        let data: Vec<MaybeSpan> = spans(3 * per)
            .into_iter()
            .enumerate()
            .map(|(i, s)| MaybeSpan(s, i as u64 != per + 3))
            .collect();
        let hf = HeapFile::from_iter(&p, data.iter().copied()).unwrap();
        let zones = p.file_zones(hf.file_id()).unwrap();
        assert!(zones.page(0).is_some());
        assert!(zones.page(1).is_none(), "poisoned page kept a zone");
        assert!(zones.page(2).is_some());
        // A filter matching nothing still reads the poisoned page — and a
        // hint-less record is admitted by every filter.
        let s0 = p.pool_stats();
        let got = hf
            .read_all_with(
                &p,
                ScanOptions::default().with_filter(ScanFilter::RegionOverlap {
                    start: u64::MAX - 1,
                    end: u64::MAX,
                }),
            )
            .unwrap();
        assert_eq!(got, vec![data[per as usize + 3]]);
        assert_eq!(p.pool_stats().since(&s0).pages_skipped, 2);
    }

    #[test]
    fn filtered_scan_holds_no_pin_across_skips() {
        // Satellite audit: the scan must release its page before crossing a
        // skipped range, so a 1-frame pool can serve a pruning scan while
        // the zone check runs — and no pin outlives the scan.
        let p = pool(1);
        let data = spans(5000);
        let hf = HeapFile::from_iter(&p, data.iter().copied()).unwrap();
        let filter = ScanFilter::HeightRange { min: 5, max: 9 }; // matches nothing
        let mut scan = hf.scan_with(&p, ScanOptions::default().with_filter(filter));
        assert_eq!(scan.next_record().unwrap(), None);
        assert_eq!(p.pinned_frames(), 0, "pin held at EOF");
        drop(scan);
        assert_eq!(p.pinned_frames(), 0);
        // Early termination mid-page: pin released once the scan is dropped,
        // and the records it filtered are still credited to the pool.
        let s0 = p.pool_stats();
        let mut scan = hf.scan_with(
            &p,
            ScanOptions::default().with_filter(ScanFilter::RegionOverlap {
                start: 0,
                end: u64::MAX,
            }),
        );
        scan.next_record().unwrap().unwrap();
        drop(scan);
        assert_eq!(p.pinned_frames(), 0, "pin survived scan drop");
        assert_eq!(p.pool_stats().since(&s0).records_filtered, 0);
    }

    #[test]
    fn batch_resumes_from_position() {
        let p = pool(4);
        let data = spans(2000);
        let hf = HeapFile::from_iter(&p, data.iter().copied()).unwrap();
        let mut s = hf.scan(&p);
        let mut first = Vec::new();
        s.next_batch(&mut first).unwrap();
        // After a batch the position is the start of the next page.
        let pos = s.position();
        assert_eq!(pos, ScanPos::at(1, 0));
        assert_eq!(pos.page(), 1);
        assert_eq!(pos.idx(), 0);
        let rest = {
            let mut s2 = hf.scan_at_with(&p, pos, ScanOptions::default());
            let mut out = Vec::new();
            while s2.next_batch(&mut out).unwrap() > 0 {}
            out
        };
        assert_eq!(first.len() + rest.len(), data.len());
        assert_eq!(rest[..], data[first.len()..]);
    }

    /// A packable span: `(start, height, tag)` parts plus zone hints — the
    /// storage-level stand-in for a PBiTree element.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct PSpan {
        start: u64,
        h: u32,
        tag: u32,
    }

    impl FixedRecord for PSpan {
        const SIZE: usize = 16;
        const PACKABLE: bool = true;
        fn write(&self, out: &mut [u8]) {
            out[..8].copy_from_slice(&self.start.to_le_bytes());
            out[8..12].copy_from_slice(&self.h.to_le_bytes());
            out[12..16].copy_from_slice(&self.tag.to_le_bytes());
        }
        fn read(buf: &[u8]) -> Self {
            PSpan {
                start: u64::from_le_bytes(buf[..8].try_into().unwrap()),
                h: u32::from_le_bytes(buf[8..12].try_into().unwrap()),
                tag: u32::from_le_bytes(buf[12..16].try_into().unwrap()),
            }
        }
        fn bounds_hint(&self) -> Option<(u64, u64)> {
            Some((self.start, self.start + u64::from(self.h)))
        }
        fn height_hint(&self) -> Option<u32> {
            Some(self.h)
        }
        fn to_parts(&self) -> Option<crate::record::RecordParts> {
            (self.h <= 63).then_some(crate::record::RecordParts {
                start: self.start,
                height: self.h,
                tag: self.tag,
            })
        }
        fn from_parts(p: crate::record::RecordParts) -> Result<Self, &'static str> {
            if p.height > 63 {
                return Err("span height out of packed range");
            }
            Ok(PSpan {
                start: p.start,
                h: p.height,
                tag: p.tag,
            })
        }
    }

    fn pspans(n: u64) -> Vec<PSpan> {
        (0..n)
            .map(|i| PSpan {
                start: 10 * i,
                h: (i % 4) as u32,
                tag: (i % 7) as u32,
            })
            .collect()
    }

    fn compressed() -> ScanOptions {
        ScanOptions::default().with_compress(true)
    }

    #[test]
    fn packed_round_trip_shrinks_file() {
        let p = pool(4);
        let data = pspans(10_000);
        let raw = HeapFile::from_iter_with(
            &p,
            ScanOptions::default().with_compress(false),
            data.iter().copied(),
        )
        .unwrap();
        let s0 = p.pool_stats();
        let packed = HeapFile::from_iter_with(&p, compressed(), data.iter().copied()).unwrap();
        let ds = p.pool_stats().since(&s0);
        assert!(
            packed.pages() < raw.pages() / 2,
            "packing saved too little: {} vs {} pages",
            packed.pages(),
            raw.pages()
        );
        assert_eq!(ds.pages_packed, packed.pages() as u64);
        assert_eq!(ds.packed_pre_bytes, data.len() as u64 * PSpan::SIZE as u64);
        assert!(ds.packed_post_bytes < ds.packed_pre_bytes / 2);
        // Identical records back, on both layouts and read paths.
        assert_eq!(packed.read_all(&p).unwrap(), data);
        assert_eq!(raw.read_all(&p).unwrap(), data);
        let ds = p.pool_stats();
        assert!(ds.packed_decodes >= packed.pages() as u64);
    }

    #[test]
    fn compression_off_writes_raw_pages() {
        let p = pool(4);
        let s0 = p.pool_stats();
        let hf = HeapFile::from_iter_with(
            &p,
            ScanOptions::default().with_compress(false),
            pspans(1000),
        )
        .unwrap();
        assert_eq!(p.pool_stats().since(&s0).pages_packed, 0);
        assert_eq!(
            hf.pages() as usize,
            1000usize.div_ceil(records_per_page::<PSpan>())
        );
    }

    #[test]
    fn packed_resume_beyond_raw_capacity() {
        // Satellite audit: a packed page holds more records than
        // `PAGE_SIZE / R::SIZE`, so `ScanPos` offsets past the raw capacity
        // must stay valid on every resume path.
        let p = pool(4);
        let data = pspans(12_000);
        let hf = HeapFile::from_iter_with(&p, compressed(), data.iter().copied()).unwrap();
        let per_raw = records_per_page::<PSpan>();
        let mut s = hf.scan(&p);
        // Walk well past the raw per-page capacity while staying on page 0.
        let consumed = per_raw + per_raw / 2;
        for _ in 0..consumed {
            s.next_record().unwrap().unwrap();
        }
        let pos = s.position();
        assert_eq!(pos.page(), 0, "page 0 should outlast raw capacity");
        assert!(pos.idx() > per_raw);
        let mut resumed = hf.scan_at_with(&p, pos, ScanOptions::default());
        let rest: Vec<PSpan> = std::iter::from_fn(|| resumed.next_record().unwrap()).collect();
        assert_eq!(rest, data[consumed..]);
        // read_all_with under explicit options agrees with the scan.
        assert_eq!(
            hf.read_all_with(&p, ScanOptions::sequential(1)).unwrap(),
            data
        );
    }

    #[test]
    fn packed_pages_keep_zone_tiling() {
        let p = pool(4);
        let data = pspans(20_000);
        let hf = HeapFile::from_iter_with(&p, compressed(), data.iter().copied()).unwrap();
        p.evict_all().unwrap();
        let io0 = p.io_stats();
        let s0 = p.pool_stats();
        let filter = ScanFilter::RegionOverlap {
            start: 100_000,
            end: 120_000,
        };
        let got = hf
            .read_all_with(&p, ScanOptions::sequential(1).with_filter(filter))
            .unwrap();
        let expect: Vec<PSpan> = data
            .iter()
            .copied()
            .filter(|r| filter.admits_record(r.bounds_hint(), r.height_hint()))
            .collect();
        assert_eq!(got, expect);
        let ds = p.pool_stats().since(&s0);
        let dio = p.io_stats().since(&io0);
        assert!(
            ds.pages_skipped > 0,
            "zone map pruned nothing on packed pages"
        );
        assert_eq!(dio.reads() + ds.pages_skipped, hf.pages() as u64);
    }

    #[test]
    fn unpackable_record_falls_back_to_raw_mid_file() {
        let p = pool(4);
        // Heights above 63 have no packed representation; the writer must
        // seal the packed prefix and continue raw, and the scan must read
        // both layouts back seamlessly.
        let mut data = pspans(2_000);
        data[1_000].h = 64;
        data[1_500].h = 200;
        let s0 = p.pool_stats();
        let hf = HeapFile::from_iter_with(&p, compressed(), data.iter().copied()).unwrap();
        let ds = p.pool_stats().since(&s0);
        assert!(ds.pages_packed >= 1, "prefix should have packed");
        assert!(
            (ds.pages_packed as u32) < hf.pages(),
            "fallback pages should be raw"
        );
        assert_eq!(hf.read_all(&p).unwrap(), data);
    }

    #[test]
    fn every_reader_returns_the_same_records_on_every_layout() {
        let p = pool(4);
        // Raw, packed, and packed with a raw tail (heights above 63 have no
        // packed form).
        let mut mixed = pspans(2_000);
        mixed[1_000].h = 64;
        mixed[1_500].h = 200;
        let raw = ScanOptions::default().with_compress(false);
        for (opts, data) in [
            (raw, pspans(3_000)),
            (compressed(), pspans(8_000)),
            (compressed(), mixed),
        ] {
            let hf = HeapFile::from_iter_with(&p, opts, data.iter().copied()).unwrap();
            let mut opened = Vec::new();
            HeapFile::<PSpan>::open_each(&p, hf.file_id(), |r| opened.extend_from_slice(r))
                .unwrap();
            assert_eq!(opened, data);
            for filter in [
                ScanFilter::All,
                ScanFilter::RegionOverlap {
                    start: 7_000,
                    end: 21_000,
                },
                ScanFilter::HeightRange { min: 2, max: 3 },
            ] {
                let opts = ScanOptions::default().with_filter(filter);
                let expect: Vec<PSpan> = data
                    .iter()
                    .copied()
                    .filter(|r| filter.admits_record(r.bounds_hint(), r.height_hint()))
                    .collect();
                assert_eq!(hf.read_all_with(&p, opts).unwrap(), expect, "{filter:?}");
                let decodes = || p.pool_stats().packed_decodes;
                let d0 = decodes();
                let mut scan = hf.scan_with(&p, opts);
                let mut got = Vec::new();
                while scan.next_batch(&mut got).unwrap() > 0 {
                    assert_eq!(p.pinned_frames(), 0, "a batch left its page pinned");
                }
                assert_eq!(got, expect, "{filter:?}");
                let per_scan = decodes() - d0;
                // Record at a time into a page, then the visitor form
                // finishes that page from `next_record`'s cache: no page
                // decodes twice.
                let mut scan = hf.scan_with(&p, opts);
                let mut got: Vec<PSpan> =
                    (0..50).map_while(|_| scan.next_record().unwrap()).collect();
                let pos = scan.position();
                while scan.next_batch_each(|r| got.push(r)).unwrap() > 0 {}
                assert_eq!(got, expect, "{filter:?}");
                assert_eq!(decodes() - d0, 2 * per_scan, "{filter:?}");
                // A batched resume inside that page skips to the same rest.
                let (mut resumed, mut rest) = (hf.scan_at_with(&p, pos, opts), Vec::new());
                while resumed.next_batch(&mut rest).unwrap() > 0 {}
                assert_eq!(rest, expect[expect.len().min(50)..], "{filter:?}");
            }
        }
    }

    #[test]
    fn corrupt_page_surfaces_as_error_on_every_path() {
        for compress in [false, true] {
            let p = pool(8);
            let data = pspans(5_000);
            let opts = ScanOptions::default().with_compress(compress);
            let mut hf = HeapFile::from_iter_with(&p, opts, data.iter().copied()).unwrap();
            let pid = PageId::new(hf.file_id(), hf.pages() - 1);
            {
                let mut page = p.write_page(pid).unwrap();
                if compress {
                    page[crate::codec::PACKED_HEADER] ^= 0x40; // checksum mismatch
                } else {
                    // A count past capacity would index past the page.
                    page[..COUNT].copy_from_slice(&raw_count(records_per_page::<PSpan>() + 1));
                }
            }
            let is_corrupt =
                |e: PoolError| matches!(e, PoolError::Corrupt { pid: q, .. } if q == pid);
            let mut s = hf.scan(&p);
            let err = std::iter::from_fn(|| s.next_record().transpose()).find_map(Result::err);
            assert!(err.is_some_and(is_corrupt), "next_record");
            let (mut s, mut sink) = (hf.scan(&p), Vec::new());
            let err = std::iter::from_fn(|| Some(s.next_batch(&mut sink)).filter(|r| r != &Ok(0)))
                .find_map(Result::err);
            assert!(err.is_some_and(is_corrupt), "next_batch");
            assert!(is_corrupt(
                HeapFile::<PSpan>::open(&p, hf.file_id()).unwrap_err()
            ));
            let wal = Wal::create(&p);
            assert!(is_corrupt(
                hf.delete_logged(&p, &wal, &data[4_999]).unwrap_err()
            ));
            // The insert's fill page is the corrupt last page: no silent
            // skip to a fresh one.
            assert!(is_corrupt(hf.insert_logged(&p, &wal, data[0]).unwrap_err()));
        }
    }

    #[test]
    fn packed_page_in_unpackable_file_is_corrupt() {
        // A packed header appearing in a file of records that cannot decode
        // parts (e.g. plain u64) is corruption, never garbage records.
        let p = pool(4);
        let hf = HeapFile::from_iter(&p, 0..2000u64).unwrap();
        let pid = PageId::new(hf.file_id(), 0);
        {
            // Graft a structurally valid packed page of one record onto the
            // u64 file.
            let mut b = crate::codec::PackedPageBuilder::default();
            b.push(crate::record::RecordParts {
                start: 42,
                height: 3,
                tag: 9,
            });
            let mut img = [0u8; PAGE_SIZE];
            b.seal_into(&mut img);
            let mut page = p.write_page(pid).unwrap();
            page.copy_from_slice(&img);
        }
        let err = hf.scan(&p).next_record().unwrap_err();
        assert_eq!(
            err,
            PoolError::Corrupt {
                pid,
                reason: "packed page in a file of non-packable records"
            }
        );
    }

    #[test]
    fn logged_insert_delete_round_trip_with_page_recycling() {
        use crate::wal::Wal;
        let p = pool(8);
        let wal = Wal::create(&p);
        let mut hf = HeapFile::<Span>::create(&p);
        let data = spans(3 * records_per_page::<Span>() as u64 + 5);
        for r in &data {
            hf.insert_logged(&p, &wal, *r).unwrap();
        }
        assert_eq!(hf.records(), data.len() as u64);
        assert_eq!(hf.pages(), 4);
        let mut back = hf.read_all(&p).unwrap();
        back.sort_by_key(|s| s.lo);
        assert_eq!(back, data);
        // Empty out page 1 record by record: it reaches the free list.
        let per = records_per_page::<Span>();
        for r in &data[per..2 * per] {
            assert!(hf.delete_logged(&p, &wal, r).unwrap());
        }
        assert_eq!(wal.free_pages_of(hf.file_id()), vec![1]);
        assert!(
            !hf.delete_logged(&p, &wal, &data[per]).unwrap(),
            "already gone"
        );
        // Top up the partially filled tail page: inserts keep filling the
        // active page before consulting the free list.
        for i in 0..(per - 5) as u64 {
            hf.insert_logged(
                &p,
                &wal,
                Span {
                    lo: 50_000 + i,
                    hi: 50_001 + i,
                    h: 2,
                },
            )
            .unwrap();
        }
        assert_eq!(hf.pages(), 4, "top-up fits the tail page");
        assert_eq!(wal.freelist_len(), 1, "free page untouched so far");
        // The next insert needs a page: it recycles page 1 (lowest free
        // page) and keeps filling it, rather than growing the file.
        let extra = Span { lo: 1, hi: 2, h: 0 };
        hf.insert_logged(&p, &wal, extra).unwrap();
        assert_eq!(hf.pages(), 4, "no growth while free pages exist");
        assert_eq!(wal.freelist_len(), 0);
        hf.insert_logged(&p, &wal, extra).unwrap();
        assert_eq!(hf.pages(), 4);
        let all = hf.read_all(&p).unwrap();
        assert_eq!(all.len(), data.len() + 2 - 5);
        // Zone of the recycled page covers exactly the new records.
        let zones = p.file_zones(hf.file_id()).unwrap();
        let z = zones.page(1).unwrap();
        assert_eq!((z.lo, z.hi, z.min_h, z.max_h), (1, 2, 0, 0));
    }

    #[test]
    fn logged_delete_on_packed_page_reseals() {
        use crate::wal::Wal;
        let p = pool(8);
        let data = pspans(2_000);
        let mut hf = HeapFile::from_iter_with(&p, compressed(), data.iter().copied()).unwrap();
        let wal = Wal::create(&p);
        assert!(hf.delete_logged(&p, &wal, &data[3]).unwrap());
        assert!(hf.delete_logged(&p, &wal, &data[1500]).unwrap());
        let mut back = hf.read_all(&p).unwrap();
        back.sort_by_key(|s| s.start);
        let mut expect = data.clone();
        expect.remove(1500);
        expect.remove(3);
        assert_eq!(back, expect);
        // The packed tail page survives an insert untouched: the insert
        // opens a fresh raw page instead of unsealing it.
        let pages_before = hf.pages();
        hf.insert_logged(
            &p,
            &wal,
            PSpan {
                start: 9,
                h: 1,
                tag: 7,
            },
        )
        .unwrap();
        assert_eq!(hf.pages(), pages_before + 1);
        assert_eq!(hf.records(), expect.len() as u64 + 1);
    }

    #[test]
    fn logged_packed_delete_logs_its_sealed_prefix_and_redoes_the_same_page() {
        use crate::disk::{Disk, MemBackend, SharedBackend};
        use crate::stats::CostModel;
        use crate::wal::{recover, Wal};
        let backend = SharedBackend::new(MemBackend::new());
        let cold = || BufferPool::new(Disk::new(Box::new(backend.clone()), CostModel::free()), 8);
        let p = cold();
        let data = pspans(2_000);
        let mut hf = HeapFile::from_iter_with(&p, compressed(), data.iter().copied()).unwrap();
        p.flush_all().unwrap();
        let wal = Wal::create(&p);
        let wal_file = wal.file();
        let pid = PageId::new(hf.file_id(), 0);
        let sealed = |bytes: &[u8]| bytes.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
        // Thin page 0 out until its sealed prefix is a fraction of the page.
        let mut victims = data[1..].iter();
        while sealed(&p.read_page(pid).unwrap()[..]) >= 256 {
            let r = victims.next().unwrap();
            assert!(hf.delete_logged(&p, &wal, r).unwrap());
        }
        let before = wal.stats().bytes;
        assert!(hf.delete_logged(&p, &wal, &data[0]).unwrap());
        let forward = p.read_page(pid).unwrap().to_vec();
        let logged = wal.stats().bytes - before;
        assert!(
            logged < sealed(&forward) as u64 + 64,
            "{logged} log bytes for a {}-byte sealed page",
            sealed(&forward)
        );
        // The crash: the log is durable, no data page is; the base page on
        // disk is the bulk-loaded one.
        wal.flush(&p).unwrap();
        drop((wal, p));
        let p = cold();
        recover(&p, wal_file).unwrap();
        assert_eq!(p.read_page(pid).unwrap().to_vec(), forward);
    }

    #[test]
    fn deleting_the_only_record_at_an_edge_narrows_the_catalog_as_open_does() {
        use crate::wal::Wal;
        let p = pool(8);
        let wal = Wal::create(&p);
        let mut hf = HeapFile::<Span>::create(&p);
        let data = spans(2 * records_per_page::<Span>() as u64 + 9);
        for r in &data {
            hf.insert_logged(&p, &wal, *r).unwrap();
        }
        let tall = Span { lo: 7, hi: 8, h: 9 };
        hf.insert_logged(&p, &wal, tall).unwrap();
        let zone = |f: &HeapFile<Span>| f.zone().unwrap();
        assert_eq!(zone(&hf).max_h, 9);
        assert!(hf.delete_logged(&p, &wal, &tall).unwrap());
        assert_eq!(zone(&hf).max_h, 3, "the only record at max_h is gone");
        let reopened = |hf: &HeapFile<Span>| HeapFile::<Span>::open(&p, hf.file_id()).unwrap();
        assert_eq!(zone(&hf), zone(&reopened(&hf)));
        // The bounds' edges narrow too, and a page emptied on the way (on
        // the free list, without a zone) takes no part.
        let per = records_per_page::<Span>();
        for r in &data[..per] {
            assert!(hf.delete_logged(&p, &wal, r).unwrap());
        }
        assert_eq!(wal.free_pages_of(hf.file_id()), vec![0]);
        assert_eq!(zone(&hf).lo, data[per].lo);
        assert_eq!(zone(&hf), zone(&reopened(&hf)));
        assert_eq!(hf.bounds(), reopened(&hf).bounds());
        // A file with one record off its one height reads as one height
        // once that record is deleted, as its reopened handle does.
        let mut flat = HeapFile::<Span>::create(&p);
        for r in &data {
            flat.insert_logged(&p, &wal, Span { h: 1, ..*r }).unwrap();
        }
        flat.insert_logged(&p, &wal, tall).unwrap();
        assert_eq!(flat.single_height(), None);
        assert!(flat.delete_logged(&p, &wal, &tall).unwrap());
        assert_eq!(flat.single_height(), Some(1));
        assert_eq!(reopened(&flat).single_height(), Some(1));
    }

    #[test]
    fn open_rebuilds_handle_and_zone_map() {
        use crate::wal::Wal;
        let p = pool(8);
        let wal = Wal::create(&p);
        let mut hf = HeapFile::<Span>::create(&p);
        let data = spans(2 * records_per_page::<Span>() as u64 + 9);
        for r in &data {
            hf.insert_logged(&p, &wal, *r).unwrap();
        }
        assert!(hf.delete_logged(&p, &wal, &data[0]).unwrap());
        let reopened = HeapFile::<Span>::open(&p, hf.file_id()).unwrap();
        assert_eq!(reopened.pages(), hf.pages());
        assert_eq!(reopened.records(), hf.records());
        let heights = |f: &HeapFile<Span>| f.zone().map(|z| (z.min_h, z.max_h));
        assert_eq!(heights(&reopened), heights(&hf));
        let mut a = hf.read_all(&p).unwrap();
        let mut b = reopened.read_all(&p).unwrap();
        a.sort_by_key(|s| s.lo);
        b.sort_by_key(|s| s.lo);
        assert_eq!(a, b);
        // The rebuilt zone map admits exactly what a filtered scan needs.
        let zones = p.file_zones(hf.file_id()).unwrap();
        assert_eq!(zones.len(), hf.pages() as usize);
        assert!(zones.page(0).is_some());
    }

    /// The file's records page by page, in slot order — the physical
    /// layout the logged-mutation model test compares across one op.
    fn layout<R: FixedRecord>(p: &BufferPool, hf: &HeapFile<R>) -> Vec<Vec<R>> {
        let mut pages = vec![Vec::new(); hf.pages() as usize];
        let mut scan = hf.scan(p);
        // Once a record is out, the scan's position is on that record's page.
        while let Some(r) = scan.next_record().unwrap() {
            pages[scan.position().page() as usize].push(r);
        }
        pages
    }

    /// Every registered page zone covers every record on its page (exact
    /// or wider, never narrower) and no zoned page holds a hint-less
    /// record. With `always_hinted`, non-empty pages must also *have* a
    /// zone, so the delete locator cannot pass by never engaging.
    fn assert_zones_cover<R: FixedRecord>(
        p: &BufferPool,
        hf: &HeapFile<R>,
        pages: &[Vec<R>],
        always_hinted: bool,
    ) {
        let zones = p.file_zones(hf.file_id());
        for (pg, recs) in pages.iter().enumerate() {
            let zone = zones.as_ref().and_then(|z| z.page(pg as u32));
            assert!(
                zone.is_some() || recs.is_empty() || !always_hinted,
                "page {pg} lost its zone entry"
            );
            let Some(z) = zone else { continue };
            for r in recs {
                let ((lo, hi), h) = r
                    .bounds_hint()
                    .zip(r.height_hint())
                    .unwrap_or_else(|| panic!("zoned page {pg} holds a hint-less record"));
                assert!(z.covers(lo, hi, h), "zone of page {pg} excludes a record");
            }
        }
    }

    /// Sorted copy, for multiset comparison of records without `Ord`.
    fn sorted<R: FixedRecord>(recs: &[R]) -> Vec<Vec<u8>> {
        let mut v: Vec<Vec<u8>> = recs
            .iter()
            .map(|r| {
                let mut b = vec![0u8; R::SIZE];
                r.write(&mut b);
                b
            })
            .collect();
        v.sort();
        v
    }

    /// One logged delete checked against the physical layout around it:
    /// the page that changed is the *first* page holding an equal record,
    /// it lost exactly one such record, and no other page moved.
    fn checked_delete<R: FixedRecord + PartialEq + std::fmt::Debug>(
        p: &BufferPool,
        wal: &Wal,
        hf: &mut HeapFile<R>,
        model: &mut Vec<R>,
        victim: &R,
        always_hinted: bool,
    ) {
        let before = layout(p, hf);
        let found = hf.delete_logged(p, wal, victim).unwrap();
        let after = layout(p, hf);
        match before.iter().position(|recs| recs.contains(victim)) {
            None => {
                assert!(!found, "deleted a record the file did not hold");
                assert_eq!(before, after);
            }
            Some(first) => {
                assert!(found, "missed {victim:?} on page {first}");
                for (pg, (b, a)) in before.iter().zip(&after).enumerate() {
                    if pg != first {
                        assert_eq!(b, a, "delete of {victim:?} touched page {pg}, not {first}");
                    }
                }
                let mut expect = before[first].clone();
                expect.remove(expect.iter().position(|x| x == victim).unwrap());
                assert_eq!(sorted(&after[first]), sorted(&expect));
                model.remove(model.iter().position(|x| x == victim).unwrap());
            }
        }
        assert_eq!(hf.records(), model.len() as u64);
        assert_zones_cover(p, hf, &after, always_hinted);
    }

    /// Seeded interleaving of logged inserts and deletes over a bulk-loaded
    /// `base`, against a `Vec` model: exact duplicates and near-duplicates
    /// (from `fresh`, which may return a stored record), one page emptied
    /// to the free list and recycled, every delete checked by
    /// [`checked_delete`].
    fn logged_model_run<R: FixedRecord + PartialEq + std::fmt::Debug>(
        opts: ScanOptions,
        base: Vec<R>,
        mut fresh: impl FnMut(&mut Rng, &[R]) -> R,
        always_hinted: bool,
    ) {
        let p = pool(8);
        let mut hf = HeapFile::from_iter_with(&p, opts, base.iter().copied()).unwrap();
        assert!(hf.pages() >= 3, "base must span pages");
        let wal = Wal::create(&p);
        let mut model = base;
        let mut rng = Rng::seed_from_u64(0xDE1E7E);
        let insert = |hf: &mut HeapFile<R>, model: &mut Vec<R>, r: R| {
            hf.insert_logged(&p, &wal, r).unwrap();
            model.push(r);
            assert_zones_cover(&p, hf, &layout(&p, hf), always_hinted);
        };
        for round in 0..240 {
            if round == 80 {
                // Empty page 1 outright: it reaches the free list, and the
                // inserts that follow recycle it before growing the file.
                for victim in layout(&p, &hf)[1].clone() {
                    checked_delete(&p, &wal, &mut hf, &mut model, &victim, always_hinted);
                }
                assert_eq!(wal.free_pages_of(hf.file_id()), vec![1]);
                let pages = hf.pages();
                while wal.freelist_len() > 0 {
                    let r = fresh(&mut rng, &model);
                    insert(&mut hf, &mut model, r);
                }
                assert_eq!(hf.pages(), pages, "recycling must not grow the file");
                assert!(!layout(&p, &hf)[1].is_empty());
            }
            if rng.gen_bool(0.45) {
                let r = fresh(&mut rng, &model);
                insert(&mut hf, &mut model, r);
            } else if rng.gen_bool(0.1) {
                // A record that was never stored: nothing may change.
                let ghost = fresh(&mut rng, &[]);
                if !model.contains(&ghost) {
                    checked_delete(&p, &wal, &mut hf, &mut model, &ghost, always_hinted);
                }
            } else {
                let victim = model[rng.gen_range(0..model.len())];
                checked_delete(&p, &wal, &mut hf, &mut model, &victim, always_hinted);
            }
        }
        assert_eq!(sorted(&hf.read_all(&p).unwrap()), sorted(&model));
    }

    #[test]
    fn logged_mutations_match_model_and_delete_first_equal_record() {
        // Inserts re-use stored records (exact duplicates), stored codes
        // under a new tag (must not match on delete), or new spans.
        let fresh = |rng: &mut Rng, stored: &[PSpan]| match (stored.len(), rng.gen_range(0..3u32)) {
            (n, 0) if n > 0 => stored[rng.gen_range(0..n)],
            (n, 1) if n > 0 => PSpan {
                tag: 1000 + rng.gen_range(0..9u32),
                ..stored[rng.gen_range(0..n)]
            },
            _ => PSpan {
                start: rng.gen_range(0..40_000u64),
                h: rng.gen_range(0..4u32),
                tag: rng.gen_range(0..7u32),
            },
        };
        // Raw base pages, then packed ones (the decode/re-seal delete).
        logged_model_run(
            ScanOptions::default().with_compress(false),
            pspans(1_000),
            fresh,
            true,
        );
        logged_model_run(compressed(), pspans(4_000), fresh, true);
    }

    #[test]
    fn logged_delete_without_hints_falls_back_to_the_scan() {
        // `u64` reports no hints: no zone map exists and every delete walks
        // the pages, still removing the first equal record.
        let fresh = |rng: &mut Rng, stored: &[u64]| match stored.len() {
            n if n > 0 && rng.gen_bool(0.5) => stored[rng.gen_range(0..n)],
            _ => rng.gen_range(0..5_000u64),
        };
        logged_model_run(ScanOptions::default(), (0..1_600).collect(), fresh, false);
        // Optional hints: pages a hint-less record poisons lose their zone
        // and are read by every delete; the rest stay zone-guided.
        let all = spans(3_000);
        let fresh = |rng: &mut Rng, stored: &[MaybeSpan]| match stored.len() {
            n if n > 0 && rng.gen_bool(0.4) => stored[rng.gen_range(0..n)],
            _ => MaybeSpan(all[rng.gen_range(0..all.len())], rng.gen_bool(0.8)),
        };
        let base = all[..700]
            .iter()
            .enumerate()
            .map(|(i, &s)| MaybeSpan(s, i % 97 != 5))
            .collect();
        logged_model_run(ScanOptions::default(), base, fresh, false);
    }

    #[test]
    fn hinted_insert_never_narrows_an_unmapped_page() {
        // Every bulk page holds a hint-less record, so the file registers
        // no map. A hinted insert onto the half-full tail page must not
        // invent a zone covering only itself: the records already there
        // would vanish from pruning scans and zone-guided deletes.
        let p = pool(4);
        let per = records_per_page::<MaybeSpan>() as u64;
        let data: Vec<MaybeSpan> = spans(per + 10)
            .into_iter()
            .enumerate()
            .map(|(i, s)| MaybeSpan(s, !(i as u64).is_multiple_of(per)))
            .collect();
        let mut hf = HeapFile::from_iter(&p, data.iter().copied()).unwrap();
        assert!(p.file_zones(hf.file_id()).is_none());
        let wal = Wal::create(&p);
        let far = MaybeSpan(
            Span {
                lo: 900_000,
                hi: 900_001,
                h: 9,
            },
            true,
        );
        hf.insert_logged(&p, &wal, far).unwrap();
        assert_eq!(hf.pages(), 2, "the insert lands on the tail page");
        let window = ScanFilter::RegionOverlap {
            start: 900_000,
            end: 900_001,
        };
        let got = hf
            .read_all_with(&p, ScanOptions::default().with_filter(window))
            .unwrap();
        assert!(
            got.contains(&data[per as usize]),
            "hint-less neighbour pruned"
        );
        assert!(hf.delete_logged(&p, &wal, &data[per as usize + 3]).unwrap());
    }

    #[test]
    fn zone_guided_delete_reads_the_records_page_not_the_file() {
        for (opts, n) in [
            (ScanOptions::default().with_compress(false), 50 * 255u64),
            (compressed(), 80_000),
        ] {
            let p = pool(8);
            let data = pspans(n);
            let mut hf = HeapFile::from_iter_with(&p, opts, data.iter().copied()).unwrap();
            assert!(hf.pages() >= 50, "{} pages", hf.pages());
            let wal = Wal::create(&p);
            let mut rng = Rng::seed_from_u64(7);
            for _ in 0..200 {
                let victim = data[rng.gen_range(0..data.len())];
                let before = p.pool_stats().requests();
                let found = hf.delete_logged(&p, &wal, &victim).unwrap();
                let requests = p.pool_stats().requests() - before;
                // The located page, then the logged writes applied to it.
                assert!(requests <= 4, "{requests} pool requests for one delete");
                assert!(found || !hf.read_all(&p).unwrap().contains(&victim));
            }
            // Already-deleted victims: the map rules out every other page.
            let before = p.pool_stats().requests();
            assert!(!hf
                .delete_logged(&p, &wal, &PSpan { tag: 99, ..data[0] })
                .unwrap());
            assert!(p.pool_stats().requests() - before <= 1);
        }
    }

    #[test]
    fn resume_position_on_skipped_page_is_consumed() {
        // Resuming at a mid-page offset under a filter that skips that very
        // page must not carry the offset into the next admitted page.
        let p = pool(4);
        let per = records_per_page::<Span>() as u64;
        let data = spans(4 * per);
        let hf = HeapFile::from_iter(&p, data.iter().copied()).unwrap();
        // Page 2's key window.
        let lo = 10 * (2 * per);
        let filter = ScanFilter::RegionOverlap {
            start: lo,
            end: lo + 1,
        };
        // Resume at page 0, record 7 — pages 0 and 1 are skipped.
        let mut s = hf.scan_at_with(
            &p,
            ScanPos::at(0, 7),
            ScanOptions::default().with_filter(filter),
        );
        assert_eq!(s.next_record().unwrap(), Some(data[(2 * per) as usize]));
    }

    /// A heap file of `pages` full pages of `u64`s, written through (no
    /// frame holds it), and its records.
    fn heap_of_pages(p: &BufferPool, pages: usize) -> (HeapFile<u64>, Vec<u64>) {
        let data: Vec<u64> = (0..(pages * records_per_page::<u64>()) as u64).collect();
        let hf = HeapFile::from_iter(p, data.iter().copied()).unwrap();
        assert_eq!(hf.pages() as usize, pages);
        (hf, data)
    }

    /// Marks `pages` of `file` dirty, bytes untouched, stamping page `pg`
    /// with WAL LSN `pg + 1`.
    fn dirty(p: &BufferPool, file: FileId, pages: &[u32]) {
        for &pg in pages {
            p.write_page(PageId::new(file, pg))
                .unwrap()
                .stamp_lsn(u64::from(pg) + 1);
        }
    }

    /// An [`crate::buffer::LsnGate`] that logs each call with the page
    /// writes made before it.
    #[derive(Default)]
    struct GateLog(std::sync::Mutex<Vec<(u64, u64)>>);

    impl crate::buffer::LsnGate for GateLog {
        fn flush_up_to(&self, pool: &BufferPool, lsn: u64) -> Result<(), PoolError> {
            let writes = pool.io_stats().writes();
            self.0.lock().unwrap().push((lsn, writes));
            Ok(())
        }
    }

    #[test]
    fn scan_larger_than_the_pool_spares_other_files_dirty_pages() {
        let p = pool(16);
        // A full pool: another file's 4 dirty pages first on the clock,
        // then 12 clean pages of a third.
        let other = p.create_file();
        for _ in 0..4 {
            drop(p.new_page(other).unwrap());
        }
        let (clean, _) = heap_of_pages(&p, 12);
        assert_eq!(clean.scan(&p).count(), clean.records() as usize);
        let (hf, data) = heap_of_pages(&p, 64);
        let before = p.io_stats();
        let back: Vec<u64> = hf.scan_with(&p, ScanOptions::sequential(4)).collect();
        assert_eq!(back, data);
        let d = p.io_stats().since(&before);
        assert_eq!(
            (d.reads(), d.writes()),
            (64, 0),
            "one read a page, no write-back"
        );
        // The other file's pages are still resident, and still dirty.
        for pg in 0..4 {
            drop(p.read_page(PageId::new(other, pg)).unwrap());
        }
        assert_eq!(p.io_stats().since(&before).reads(), 64);
        p.flush_all().unwrap();
        assert_eq!(p.io_stats().since(&before).writes(), 4);
    }

    #[test]
    fn scan_larger_than_the_pool_writes_back_at_most_one_page_of_a_dirty_pool() {
        // Every frame holds another file's dirty page: only the scan's
        // first load has nothing clean or of its own to take.
        let p = pool(16);
        let other = p.create_file();
        for _ in 0..16 {
            drop(p.new_page(other).unwrap());
        }
        let (hf, data) = heap_of_pages(&p, 64);
        let before = p.io_stats();
        let back: Vec<u64> = hf.scan_with(&p, ScanOptions::sequential(4)).collect();
        assert_eq!(back, data);
        let d = p.io_stats().since(&before);
        assert_eq!((d.reads(), d.writes()), (64, 1));
        assert_eq!(d.rand_reads, 1, "one seek for the whole file");
    }

    #[test]
    fn scan_larger_than_the_pool_writes_its_dirty_pages_once_behind_the_gate() {
        let p = pool(16);
        let (hf, data) = heap_of_pages(&p, 64);
        let gate = Arc::new(GateLog::default());
        p.set_lsn_gate(Some(gate.clone()));
        let dirtied = [10, 11, 30, 50];
        dirty(&p, hf.file_id(), &dirtied);
        let before = p.io_stats();
        let back: Vec<u64> = hf.scan_with(&p, ScanOptions::sequential(4)).collect();
        assert_eq!(back, data);
        // Each dirty page is written once, where the scan meets it: right
        // behind the page before it, so with no seek.
        let d = p.io_stats().since(&before);
        assert_eq!((d.writes(), d.seq_writes), (4, 4));
        // The gate was asked for each page's LSN before that page's write.
        let w0 = before.writes();
        let calls: Vec<(u64, u64)> = (0..4)
            .map(|k| (dirtied[k] as u64 + 1, w0 + k as u64))
            .collect();
        assert_eq!(*gate.0.lock().unwrap(), calls);
        p.flush_all().unwrap();
        assert_eq!(p.io_stats().since(&before).writes(), 4, "left dirty");
    }

    #[test]
    fn scan_larger_than_the_pool_counts_each_request_once() {
        let p = pool(16);
        let (hf, _) = heap_of_pages(&p, 64);
        // Two resident pages: the scan hits them and misses the rest.
        dirty(&p, hf.file_id(), &[20, 40]);
        let before = p.pool_stats();
        assert_eq!(
            hf.scan_with(&p, ScanOptions::sequential(4)).count(),
            hf.records() as usize
        );
        let s = p.pool_stats().since(&before);
        assert_eq!(s.hits + s.misses, 64);
        assert_eq!(s.misses + p.prefetched(), 62);
        assert_eq!(p.pinned_frames(), 0);
    }

    #[test]
    fn rescan_of_a_file_that_fits_keeps_its_hits() {
        // As many pages as frames: the clock keeps them all.
        let p = pool(16);
        let (hf, _) = heap_of_pages(&p, 16);
        let opts = ScanOptions::sequential(4);
        assert_eq!(hf.scan_with(&p, opts).count(), hf.records() as usize);
        let before = (p.pool_stats(), p.io_stats());
        assert_eq!(hf.scan_with(&p, opts).count(), hf.records() as usize);
        let s = p.pool_stats().since(&before.0);
        assert_eq!((s.hits, s.misses), (16, 0));
        assert_eq!(p.io_stats().since(&before.1).reads(), 0);
    }

    #[test]
    fn write_behind_fault_leaves_the_page_dirty() {
        let backend = crate::fault::FaultBackend::new(
            crate::disk::MemBackend::new(),
            crate::fault::FaultConfig::none(),
        );
        let faults = backend.handle();
        let p = BufferPool::new(
            Disk::new(Box::new(backend), crate::stats::CostModel::free()),
            16,
        );
        let (hf, data) = heap_of_pages(&p, 64);
        dirty(&p, hf.file_id(), &[10, 11]);
        // The scan's first write — page 10's write-behind — fails.
        faults.reset();
        faults.set_config(crate::fault::FaultConfig::write_at(0));
        let before = p.io_stats();
        let back: Vec<u64> = hf.scan_with(&p, ScanOptions::sequential(4)).collect();
        assert_eq!(back, data);
        assert_eq!(faults.write_faults(), 1);
        assert_eq!(p.io_stats().since(&before).writes(), 1, "page 11 only");
        // Page 10 is still dirty: the next flush writes it.
        p.flush_all().unwrap();
        assert_eq!(p.io_stats().since(&before).writes(), 2);
        assert_eq!(faults.writes(), 3);
    }

    /// `data` written under `opts`, in pool frames or through.
    fn written<R: FixedRecord>(
        p: &BufferPool,
        opts: ScanOptions,
        data: &[R],
        in_pool: bool,
    ) -> Result<HeapFile<R>, PoolError> {
        let mut w = HeapWriter::create_with(p, opts)?.in_pool(in_pool);
        for r in data {
            w.push(*r)?;
        }
        w.finish()
    }

    #[test]
    fn pool_placed_file_reads_back_from_its_frames_and_drops_unwritten() {
        let p = pool(32);
        for (opts, data) in [
            (ScanOptions::default(), pspans(2_000)),
            (compressed(), pspans(8_000)),
        ] {
            let through = written(&p, opts, &data, false).unwrap();
            let placed = written(&p, opts, &data, true).unwrap();
            // The same bytes, zones and catalog either way.
            let catalog =
                |f: &HeapFile<PSpan>| (f.pages(), f.records(), f.zone(), f.single_height());
            assert_eq!(catalog(&placed), catalog(&through));
            assert!(placed.pages() > 1 && placed.pages() < 16);
            let (zt, zp) = (
                p.file_zones(through.file_id()).unwrap(),
                p.file_zones(placed.file_id()).unwrap(),
            );
            for pg in 0..placed.pages() {
                assert_eq!(zp.page(pg), zt.page(pg), "zone of page {pg}");
                let t = *p.read_page(PageId::new(through.file_id(), pg)).unwrap();
                let b = *p.read_page(PageId::new(placed.file_id(), pg)).unwrap();
                assert!(t == b, "page {pg} differs");
            }
            through.drop_file(&p);
            placed.drop_file(&p);
            p.evict_all().unwrap();
            let files = p.live_files();

            let before = (p.io_stats(), p.pool_stats());
            let placed = written(&p, opts, &data, true).unwrap();
            assert_eq!(placed.read_all(&p).unwrap(), data);
            let io = p.io_stats().since(&before.0);
            assert_eq!(
                (io.reads(), io.writes()),
                (0, 0),
                "placed, read from frames"
            );
            let hits = p.pool_stats().since(&before.1).hits;
            assert_eq!(hits, u64::from(placed.pages()));
            // Deleting the file discards its dirty frames unwritten.
            placed.drop_file(&p);
            p.flush_all().unwrap();
            assert_eq!(p.io_stats().since(&before.0).writes(), 0);
            assert_eq!(p.live_files(), files);
            assert_eq!(p.pinned_frames(), 0);
        }
    }

    #[test]
    fn placement_fault_on_a_dirty_victim_leaves_no_file_and_no_pin() {
        let backend = crate::fault::FaultBackend::new(
            crate::disk::MemBackend::new(),
            crate::fault::FaultConfig::none(),
        );
        let faults = backend.handle();
        let p = BufferPool::new(
            Disk::new(Box::new(backend), crate::stats::CostModel::free()),
            4,
        );
        // Every frame holds a dirty page, so `new_page`'s victim must be
        // written back first: the one failure point placement adds.
        let (hf, data) = heap_of_pages(&p, 4);
        dirty(&p, hf.file_id(), &[0, 1, 2, 3]);
        let files = p.live_files();
        faults.reset();
        faults.set_config(crate::fault::FaultConfig::write_at(0));
        let placed = written(&p, ScanOptions::default(), &data[..600], true);
        assert!(matches!(placed, Err(PoolError::Io(_))), "{placed:?}");
        assert_eq!(faults.write_faults(), 1);
        assert_eq!(p.live_files(), files);
        assert_eq!(p.pinned_frames(), 0);
        // The victim stayed dirty: the next flush writes all four pages.
        faults.set_config(crate::fault::FaultConfig::none());
        let before = p.io_stats();
        p.evict_all().unwrap();
        assert_eq!(p.io_stats().since(&before).writes(), 4);
        assert_eq!(hf.read_all(&p).unwrap(), data);
    }
}
