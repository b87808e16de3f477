//! Write-ahead log: append-only frames that make the mutable write path
//! (heap insert/delete, B+-tree leaf updates) crash-recoverable.
//!
//! # Protocol
//!
//! Every logical operation is a [`WalOp`]: an ordered list of page
//! allocations, page frees, and page edits (byte-range writes, page
//! images, in-page moves). [`Wal::commit`] first appends the operation's
//! records to the in-memory log tail, in one frame (or a few, where the
//! operation crosses a log page) whose last frame is flagged COMMIT,
//! *then* applies the edits to buffer-pool frames, stamping each frame
//! with the commit LSN ([`crate::buffer::PageMut::stamp_lsn`]). The pool's
//! [`crate::buffer::LsnGate`] guarantees the log reaches disk before any
//! stamped page does — WAL-before-page — so the disk can only ever hold:
//!
//! * pages whose covering log records are durable (redo rebuilds them),
//!   and
//! * no page effects of operations the log does not fully record
//!   (nothing to undo — recovery is redo-only).
//!
//! [`Wal::flush`] is the durability point: after it returns, every
//! committed operation survives a crash.
//!
//! # Frame format
//!
//! Frames are packed into 4 KiB log pages and never span pages; a zero
//! length dword marks end-of-page padding. A frame carries a run of one
//! operation's records:
//!
//! ```text
//! [0..4)    u32 LE  total frame length (header + records + checksum)
//! [4..12)   u64 LE  LSN — strictly consecutive from 1
//! [12]      u8      flags: 1 COMMIT (the operation's last frame), else 0
//! [13..L-4)         one or more records (below)
//! [L-4..L)  u32 LE  FNV-1a checksum over bytes [0..L-4) (`util::fnv1a32`)
//! ```
//!
//! A record is a kind byte, the page's file u32 and page u32, then the
//! kind's fields, all little-endian. Kind bit `0x80` (same page) marks a
//! record on the page of the record before it in the same frame, and
//! leaves the page id out; the first record of a frame always carries it.
//!
//! * `1 write` = off u16, len u16, bytes: the bytes replace the page's
//!   from `off`;
//! * `2 image` = len u16, bytes: the page becomes the bytes followed by
//!   zeros;
//! * `3 move` = from u16, to u16, len u16: the page's `len` bytes at
//!   `from` are copied to `to` (`copy_within`);
//! * `4 alloc` / `5 free`: no fields.
//!
//! An operation that does not fit the rest of the tail page continues in
//! a frame on the next page; the COMMIT frame's LSN is the operation's
//! commit LSN. A write or image longer than [`MAX_CHUNK`] splits into
//! consecutive records of the same operation (an image's first chunk,
//! then writes), so any one record fits an empty log page.
//! `Edit::apply` is the one definition of what a page record does; the
//! forward path and the redo both go through it, so they land
//! byte-identical pages.
//!
//! # Torn-tail detection
//!
//! The log tail page is rewritten in place as frames accumulate, so a
//! crash can leave it half-new, half-stale. [`recover`] scans frames in
//! order and stops at the first frame whose checksum fails, whose length
//! or records are structurally impossible (a same-page record opening a
//! frame among them: it has no page to be on), or whose LSN is not
//! exactly the predecessor's plus one — the strict LSN chain means a
//! stale remnant of an earlier tail rewrite can never alias as fresh
//! data. Complete frames of an operation whose COMMIT frame did not
//! survive are discarded (the operation never happened) and cut from the
//! log with the torn tail, so a resumed log never appends to them; the
//! free list is rebuilt from the surviving alloc/free records.
//!
//! # Page-ordered redo
//!
//! Recovery runs in two phases. The *analysis scan* reads the log once,
//! applies allocations and the free list in log order, and collects every
//! committed page edit into a redo list held outside the pool (a byte
//! arena plus a `(page, commit LSN, edit)` index, like the log tail). The
//! *redo* then sorts that index stably by page and replays each page's
//! records in LSN order under one [`BufferPool::write_page`], stamping the
//! page with its last commit LSN. Every logged page is read once and
//! written once, and a [`BufferPool::flush_all`] after every
//! `capacity − 2` pages sends the dirty ones to disk in page-contiguous
//! vectored runs instead of as single-page evictions.
//!
//! **The redo rule.** A page's redo starts at its last image and skips the
//! records before it: the image sets every byte, so nothing earlier can
//! show. A page with no image (a heap page over the checkpointed base) is
//! redone from its first record, over the disk's copy. A write or an image
//! sets bytes outright, whatever the page held; a move does not — it
//! copies bytes that are only right if the page is in the state the
//! forward path saw. The rule makes it so: redo rebuilds each imaged page
//! from its image, so the page's disk copy (stale, half redone by a crashed
//! recovery, or torn) never matters, and recovery stays idempotent. A move
//! on a page with no earlier image in the committed log has nothing to
//! start from, and recovery fails with [`PoolError::Corrupt`].
//!
//! A log that is ever truncated must keep this true: it may drop a page's
//! records only up to that page's last image, or after the page itself is
//! flushed.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::{Arc, Mutex};

use crate::buffer::{BufferPool, LsnGate, PageMut, PoolError};
use crate::freelist::FreeList;
use crate::page::{FileId, PageBuf, PageId, PAGE_SIZE};
use crate::stats::WalStats;
use crate::util::fnv1a32;

const FRAME_HEADER: usize = 4 + 8 + 1;
const FRAME_TRAILER: usize = 4;
const PID_FIXED: usize = 4 + 4;

/// Frame flag of an operation's last frame.
const FLAG_COMMIT: u8 = 1;

const KIND_WRITE: u8 = 1;
const KIND_IMAGE: u8 = 2;
const KIND_MOVE: u8 = 3;
const KIND_ALLOC: u8 = 4;
const KIND_FREE: u8 = 5;
/// Kind bit of a record on the page of the record before it in its frame;
/// the record leaves the page id out.
const SAME_PAGE: u8 = 0x80;

/// Largest byte range one `write` or `image` record can carry; longer
/// ranges (up to a full page image) are split across consecutive records
/// of the same operation, which replays atomically anyway.
pub const MAX_CHUNK: usize = PAGE_SIZE - FRAME_HEADER - FRAME_TRAILER - (1 + PID_FIXED + 2 + 2);

/// What one page record does to its page. `B` holds the record's bytes:
/// owned in a [`WalOp`], borrowed from a log page or the redo arena.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Edit<B> {
    /// `bytes` replace the page's bytes from `off`.
    Write { off: u16, bytes: B },
    /// The page becomes `bytes` followed by zeros.
    Image(B),
    /// The page's `len` bytes at `from` are copied to `to`.
    Move { from: u16, to: u16, len: u16 },
}

impl<B> Edit<B> {
    fn map<C>(&self, f: impl FnOnce(&B) -> C) -> Edit<C> {
        match self {
            Edit::Write { off, bytes } => Edit::Write {
                off: *off,
                bytes: f(bytes),
            },
            Edit::Image(bytes) => Edit::Image(f(bytes)),
            &Edit::Move { from, to, len } => Edit::Move { from, to, len },
        }
    }

    fn is_image(&self) -> bool {
        matches!(self, Edit::Image(_))
    }

    fn is_move(&self) -> bool {
        matches!(self, Edit::Move { .. })
    }
}

impl<B: AsRef<[u8]>> Edit<B> {
    /// Whether every byte the edit reads or writes lies on the page.
    fn fits(&self) -> bool {
        match self {
            Edit::Write { off, bytes } => *off as usize + bytes.as_ref().len() <= PAGE_SIZE,
            Edit::Image(bytes) => bytes.as_ref().len() <= PAGE_SIZE,
            Edit::Move { from, to, len } => {
                usize::from(*from.max(to)) + usize::from(*len) <= PAGE_SIZE
            }
        }
    }

    /// Applies the edit to `page` — the forward path and the redo alike.
    fn apply(&self, page: &mut [u8]) {
        match self {
            Edit::Write { off, bytes } => {
                let (off, bytes) = (*off as usize, bytes.as_ref());
                page[off..off + bytes.len()].copy_from_slice(bytes);
            }
            Edit::Image(bytes) => {
                let bytes = bytes.as_ref();
                page[..bytes.len()].copy_from_slice(bytes);
                page[bytes.len()..].fill(0);
            }
            Edit::Move { from, to, len } => {
                let from = *from as usize;
                page.copy_within(from..from + *len as usize, *to as usize);
            }
        }
    }
}

/// One logged record of a [`WalOp`].
#[derive(Debug, Clone, PartialEq, Eq)]
enum WalRec {
    /// An edit of `pid`'s bytes.
    Page(PageId, Edit<Vec<u8>>),
    /// The operation brings `pid` into use: a fresh page at the file's
    /// end, or a reclaimed free-list page.
    Alloc(PageId),
    /// The operation releases `pid` to the free list.
    Free(PageId),
}

impl WalRec {
    fn pid(&self) -> PageId {
        let (WalRec::Page(pid, _) | WalRec::Alloc(pid) | WalRec::Free(pid)) = self;
        *pid
    }

    /// Appends the record's log bytes to `out`: its kind, its page id
    /// unless `same_page`, then its fields and bytes (module docs).
    fn encode(&self, same_page: bool, out: &mut Vec<u8>) {
        let kind = match self {
            WalRec::Page(_, Edit::Write { .. }) => KIND_WRITE,
            WalRec::Page(_, Edit::Image(_)) => KIND_IMAGE,
            WalRec::Page(_, Edit::Move { .. }) => KIND_MOVE,
            WalRec::Alloc(_) => KIND_ALLOC,
            WalRec::Free(_) => KIND_FREE,
        };
        if same_page {
            out.push(kind | SAME_PAGE);
        } else {
            let pid = self.pid();
            out.push(kind);
            out.extend_from_slice(&pid.file.0.to_le_bytes());
            out.extend_from_slice(&pid.page.to_le_bytes());
        }
        let mut put = |fields: &[u16], bytes: &[u8]| {
            fields
                .iter()
                .for_each(|x| out.extend_from_slice(&x.to_le_bytes()));
            out.extend_from_slice(bytes);
        };
        match self {
            WalRec::Page(_, Edit::Write { off, bytes }) => put(&[*off, bytes.len() as u16], bytes),
            WalRec::Page(_, Edit::Image(bytes)) => put(&[bytes.len() as u16], bytes),
            &WalRec::Page(_, Edit::Move { from, to, len }) => put(&[from, to, len], &[]),
            WalRec::Alloc(_) | WalRec::Free(_) => {}
        }
    }
}

/// Builder for one atomic logical operation: records are logged and
/// replayed in insertion order, so allocations must precede writes to the
/// pages they introduce.
#[derive(Debug, Default)]
pub struct WalOp {
    recs: Vec<WalRec>,
}

impl WalOp {
    /// An empty operation.
    pub fn new() -> Self {
        WalOp::default()
    }

    /// Whether no records were added.
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// Logs `bytes` replacing `pid`'s contents at byte offset `off`.
    /// Ranges longer than [`MAX_CHUNK`] split into consecutive records.
    pub fn page_write(&mut self, pid: PageId, off: usize, bytes: &[u8]) {
        assert!(
            off + bytes.len() <= PAGE_SIZE,
            "page write beyond page bounds"
        );
        let mut at = 0;
        while at < bytes.len() {
            let n = (bytes.len() - at).min(MAX_CHUNK);
            let edit = Edit::Write {
                off: (off + at) as u16,
                bytes: bytes[at..at + n].to_vec(),
            };
            self.recs.push(WalRec::Page(pid, edit));
            at += n;
        }
    }

    /// Logs a page image for `pid`: the page becomes `prefix` followed by
    /// zeros, whatever it held before. Redo starts a page at its last
    /// image (see the module docs), and only a page with an image may
    /// take a [`page_move`](Self::page_move).
    pub fn page_image(&mut self, pid: PageId, prefix: &[u8]) {
        assert!(prefix.len() <= PAGE_SIZE, "page image beyond page bounds");
        let head = prefix.len().min(MAX_CHUNK);
        self.recs
            .push(WalRec::Page(pid, Edit::Image(prefix[..head].to_vec())));
        self.page_write(pid, head, &prefix[head..]);
    }

    /// Logs a copy of `pid`'s `len` bytes at `from` to `to` (the ranges may
    /// overlap), for an edit that shifts bytes already on the page. The
    /// log must hold an image of `pid` before it (recovery rejects the
    /// move otherwise). Moving nothing logs nothing.
    pub fn page_move(&mut self, pid: PageId, from: usize, to: usize, len: usize) {
        assert!(
            from.max(to) + len <= PAGE_SIZE,
            "page move beyond page bounds"
        );
        if len > 0 {
            let (from, to, len) = (from as u16, to as u16, len as u16);
            self.recs
                .push(WalRec::Page(pid, Edit::Move { from, to, len }));
        }
    }

    /// Logs that the operation brings `pid` into use.
    pub fn alloc(&mut self, pid: PageId) {
        self.recs.push(WalRec::Alloc(pid));
    }

    /// Logs that the operation releases `pid` to the free list.
    pub fn free(&mut self, pid: PageId) {
        self.recs.push(WalRec::Free(pid));
    }
}

struct WalState {
    file: FileId,
    /// The in-memory tail page image (zeroed beyond `used`).
    tail: Box<PageBuf>,
    used: usize,
    /// Full pages sealed but not yet flushed; page numbers run
    /// `tail_page - queue.len() .. tail_page`.
    queue: VecDeque<Box<PageBuf>>,
    /// Page number the current tail buffer occupies when flushed.
    tail_page: u32,
    /// Pages currently allocated to the log file on disk.
    disk_pages: u32,
    /// LSN the next frame receives (strictly consecutive from 1).
    next_lsn: u64,
    /// Highest LSN durable on disk.
    durable_lsn: u64,
    freelist: FreeList,
    stats: WalStats,
}

impl WalState {
    fn fresh(file: FileId) -> Self {
        WalState {
            file,
            tail: Box::new([0u8; PAGE_SIZE]),
            used: 0,
            queue: VecDeque::new(),
            tail_page: 0,
            disk_pages: 0,
            next_lsn: 1,
            durable_lsn: 0,
            freelist: FreeList::new(),
            stats: WalStats::default(),
        }
    }

    /// Bytes of records a frame opened at the tail's end can carry.
    fn room(&self) -> usize {
        PAGE_SIZE.saturating_sub(self.used + FRAME_HEADER + FRAME_TRAILER)
    }

    /// Queues the tail page for flushing and starts an empty one. Bytes
    /// beyond `used` are already zero: end-of-page padding for the reader.
    fn seal_tail(&mut self) {
        let full = std::mem::replace(&mut self.tail, Box::new([0u8; PAGE_SIZE]));
        self.queue.push_back(full);
        self.tail_page += 1;
        self.used = 0;
    }

    /// Appends one frame of `records` to the buffered tail, which has room
    /// for it. Returns the frame's LSN.
    fn append_frame(&mut self, flags: u8, records: &[u8]) -> u64 {
        let need = FRAME_HEADER + records.len() + FRAME_TRAILER;
        debug_assert!(self.used + need <= PAGE_SIZE, "WAL frame past its log page");
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        let at = self.used;
        let buf = &mut self.tail[at..at + need];
        buf[0..4].copy_from_slice(&(need as u32).to_le_bytes());
        buf[4..12].copy_from_slice(&lsn.to_le_bytes());
        buf[12] = flags;
        buf[FRAME_HEADER..FRAME_HEADER + records.len()].copy_from_slice(records);
        let sum = fnv1a32(&[&buf[..need - FRAME_TRAILER]]);
        buf[need - FRAME_TRAILER..].copy_from_slice(&sum.to_le_bytes());
        self.used += need;
        self.stats.frames += 1;
        self.stats.bytes += need as u64;
        lsn
    }

    /// Appends one operation's records: as many as fit the rest of the
    /// tail page go into a frame, the rest continue in frames on the next
    /// pages, and the last frame carries the COMMIT flag. A record on the
    /// page of the record before it in its frame leaves its page id out.
    /// Returns the commit LSN.
    fn append_op(&mut self, recs: &[WalRec]) -> u64 {
        let mut frame = Vec::with_capacity(256);
        let mut prev = None;
        for rec in recs {
            let pid = rec.pid();
            let mark = frame.len();
            rec.encode(mark > 0 && prev == Some(pid), &mut frame);
            if frame.len() > self.room() && mark > 0 {
                // The frame so far goes out; the record opens the next one,
                // page id and all.
                frame.truncate(mark);
                self.append_frame(0, &frame);
                frame.clear();
                rec.encode(false, &mut frame);
            }
            if frame.len() > self.room() {
                // Not even the record alone fits the rest of the page.
                self.seal_tail();
            }
            prev = Some(pid);
        }
        self.append_frame(FLAG_COMMIT, &frame)
    }

    /// Writes every buffered log page to disk, in order. On an I/O error
    /// the transferred prefix stays accounted (a retry resumes there) and
    /// `durable_lsn` is left conservative.
    fn flush_buffered(&mut self, pool: &BufferPool) -> Result<(), PoolError> {
        while let Some(img) = self.queue.pop_front() {
            let pageno = self.tail_page - (self.queue.len() + 1) as u32;
            if let Err(e) = self.write_log_page(pool, pageno, &img) {
                self.queue.push_front(img);
                return Err(e);
            }
            self.stats.page_writes += 1;
        }
        if self.used > 0 {
            let img = std::mem::replace(&mut self.tail, Box::new([0u8; PAGE_SIZE]));
            let res = self.write_log_page(pool, self.tail_page, &img);
            self.tail = img;
            res?;
            self.stats.page_writes += 1;
        }
        self.durable_lsn = self.next_lsn - 1;
        Ok(())
    }

    fn write_log_page(
        &mut self,
        pool: &BufferPool,
        pageno: u32,
        img: &PageBuf,
    ) -> Result<(), PoolError> {
        if pageno >= self.disk_pages {
            debug_assert_eq!(pageno, self.disk_pages, "log pages flush in order");
            let res = pool.append_page_through(self.file, img);
            // An append whose write faulted has still allocated its page:
            // count it, so the retry rewrites that page in place instead of
            // appending past it.
            self.disk_pages = pool.num_pages(self.file);
            let got = res?;
            debug_assert_eq!(got, pageno, "log file written by someone else");
        } else {
            pool.write_page_through(PageId::new(self.file, pageno), img)?;
        }
        Ok(())
    }
}

struct WalShared {
    state: Mutex<WalState>,
}

impl LsnGate for WalShared {
    fn flush_up_to(&self, pool: &BufferPool, lsn: u64) -> Result<(), PoolError> {
        let mut st = self.state.lock().unwrap();
        if st.durable_lsn >= lsn {
            return Ok(());
        }
        st.stats.gate_flushes += 1;
        st.flush_buffered(pool)
    }
}

/// The write-ahead log of one buffer pool. Cheap to clone conceptually
/// (internally `Arc`-shared with the pool's registered gate), but handed
/// around by reference: one `Wal` per pool.
pub struct Wal {
    shared: Arc<WalShared>,
}

impl Wal {
    /// Creates a fresh log in a new file of `pool`'s disk and registers
    /// its [`LsnGate`] with the pool.
    pub fn create(pool: &BufferPool) -> Self {
        let file = pool.create_file();
        let wal = Wal {
            shared: Arc::new(WalShared {
                state: Mutex::new(WalState::fresh(file)),
            }),
        };
        pool.set_lsn_gate(Some(wal.gate()));
        wal
    }

    /// The gate object to register with a pool (done by [`Wal::create`]
    /// and [`recover`] already).
    pub fn gate(&self) -> Arc<dyn LsnGate> {
        Arc::clone(&self.shared) as Arc<dyn LsnGate>
    }

    /// The log's file id — what [`recover`] needs after a restart.
    pub fn file(&self) -> FileId {
        self.shared.state.lock().unwrap().file
    }

    /// Highest LSN durable on disk.
    pub fn durable_lsn(&self) -> u64 {
        self.shared.state.lock().unwrap().durable_lsn
    }

    /// Highest LSN assigned so far (0 when the log is empty).
    pub fn last_lsn(&self) -> u64 {
        self.shared.state.lock().unwrap().next_lsn - 1
    }

    /// Activity counters.
    pub fn stats(&self) -> WalStats {
        self.shared.state.lock().unwrap().stats
    }

    /// Takes the lowest free page of `file` off the free list, if any.
    /// The caller must log the reuse with [`WalOp::alloc`] in the same
    /// operation that writes the page.
    pub fn acquire_free_page(&self, file: FileId) -> Option<u32> {
        self.shared
            .state
            .lock()
            .unwrap()
            .freelist
            .acquire(file)
            .inspect(|&p| debug_assert!(p < u32::MAX))
    }

    /// Free pages currently tracked for `file`, ascending.
    pub fn free_pages_of(&self, file: FileId) -> Vec<u32> {
        self.shared.state.lock().unwrap().freelist.pages_of(file)
    }

    /// Total free pages tracked across all files.
    pub fn freelist_len(&self) -> usize {
        self.shared.state.lock().unwrap().freelist.len()
    }

    /// Commits one logical operation: logs its records in a frame flagged
    /// COMMIT, or a few frames ending in one (buffered — durability comes
    /// from [`Wal::flush`] or the pool's gate), updates the free list,
    /// then applies the page writes to pool frames stamped with the commit
    /// LSN. Returns that LSN.
    ///
    /// On an I/O error (allocation or page fetch) the operation is fully
    /// logged but possibly partially applied in memory; the caller must
    /// treat the store as failed and [`recover`] before further use —
    /// exactly what the crash harness does.
    pub fn commit(&self, pool: &BufferPool, op: WalOp) -> Result<u64, PoolError> {
        assert!(!op.is_empty(), "committing an empty WAL operation");
        let commit_lsn = {
            let mut st = self.shared.state.lock().unwrap();
            let lsn = st.append_op(&op.recs);
            for rec in &op.recs {
                match rec {
                    WalRec::Free(pid) => {
                        st.freelist.release(*pid);
                    }
                    WalRec::Alloc(pid) => {
                        // Reclaims the page if the caller took it off the
                        // free list out-of-band (then this is a no-op) or
                        // if a replayed history freed it earlier.
                        st.freelist.reclaim(*pid);
                    }
                    WalRec::Page(..) => {}
                }
            }
            st.stats.commits += 1;
            lsn
        };
        // Apply outside the log lock: fetching frames may evict, and
        // eviction's gate takes the log lock.
        apply_records(pool, &op.recs, commit_lsn)?;
        Ok(commit_lsn)
    }

    /// Makes every committed operation durable (the harness's per-op
    /// durability point; group commit amounts to calling this less often).
    pub fn flush(&self, pool: &BufferPool) -> Result<(), PoolError> {
        self.shared.state.lock().unwrap().flush_buffered(pool)
    }
}

/// Ensures `pid` exists on disk, appending zeroed pages as needed.
fn ensure_allocated(pool: &BufferPool, pid: PageId) -> Result<(), PoolError> {
    while pool.num_pages(pid.file) <= pid.page {
        pool.allocate_page(pid.file)?;
    }
    Ok(())
}

/// Applies an operation's records to pool frames: allocations first reach
/// the disk's page accounting, page edits land in frames stamped with
/// `lsn`. The forward path ([`Wal::commit`]); recovery redoes through a
/// [`RedoList`] instead, with the same [`Edit::apply`].
fn apply_records(pool: &BufferPool, recs: &[WalRec], lsn: u64) -> Result<(), PoolError> {
    for rec in recs {
        match rec {
            WalRec::Alloc(pid) => ensure_allocated(pool, *pid)?,
            WalRec::Free(_) => {}
            WalRec::Page(pid, edit) => {
                let mut g: PageMut<'_> = pool.write_page(*pid)?;
                edit.apply(&mut g[..]);
                g.stamp_lsn(lsn);
            }
        }
    }
    Ok(())
}

/// What [`recover`] found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Operations replayed (COMMIT frame present and intact).
    pub ops_applied: u64,
    /// Ordinal of the last committed operation in the log, counting from
    /// 1 (0 when none survived).
    pub last_op: u64,
    /// Valid frames scanned, committed or not.
    pub frames_scanned: u64,
    /// Whether the scan stopped at a torn frame (checksum / structure /
    /// LSN-chain violation) rather than the clean end of the log.
    pub torn_tail: bool,
    /// Whether complete frames of an uncommitted trailing operation were
    /// discarded.
    pub discarded_tail: bool,
    /// Free pages tracked after the free-list rebuild.
    pub free_pages: usize,
    /// Committed page edits the redo skipped: those before a later image
    /// of their page (the redo rule in the module docs).
    pub edits_skipped: u64,
}

/// Committed page edits awaiting redo, held outside the pool: their bytes
/// back to back in one arena, and one index entry per record.
#[derive(Default)]
struct RedoList {
    arena: Vec<u8>,
    index: Vec<Redo>,
    /// Entries before this one belong to committed operations...
    committed: usize,
    /// ...and so do the arena bytes before this one.
    committed_bytes: usize,
}

/// One page record of the redo list; a write's or an image's bytes are
/// the arena's range.
struct Redo {
    pid: PageId,
    lsn: u64,
    edit: Edit<Range<usize>>,
}

impl RedoList {
    /// Adds a record of the operation being scanned (its commit LSN is
    /// not known yet).
    fn push(&mut self, pid: PageId, edit: Edit<&[u8]>) {
        let edit = edit.map(|bytes| {
            let at = self.arena.len();
            self.arena.extend_from_slice(bytes);
            at..self.arena.len()
        });
        self.index.push(Redo { pid, lsn: 0, edit });
    }

    /// The operation's COMMIT frame survived: its records redo under `lsn`.
    fn commit(&mut self, lsn: u64) {
        for r in &mut self.index[self.committed..] {
            r.lsn = lsn;
        }
        self.committed = self.index.len();
        self.committed_bytes = self.arena.len();
    }

    /// Drops the records of a trailing operation whose COMMIT frame did
    /// not survive; returns whether there were any.
    fn discard_uncommitted(&mut self) -> bool {
        let had = self.index.len() > self.committed;
        self.arena.truncate(self.committed_bytes);
        self.index.truncate(self.committed);
        had
    }

    /// Replays the list page by page: a stable sort by page keeps each
    /// page's records in LSN order, and each page is rebuilt from its last
    /// image ([`redo_from_last_image`]), so the last logged edit of every
    /// byte wins, as in log-order replay. Dirty pages leave in
    /// page-contiguous flushes of `capacity − 2` pages, before clock
    /// eviction would write them back one at a time. Returns how many
    /// records the rule skipped.
    fn apply(mut self, pool: &BufferPool) -> Result<u64, PoolError> {
        self.index.sort_by_key(|r| r.pid);
        let per_flush = pool.capacity().saturating_sub(2).max(1);
        let mut skipped = 0;
        for (i, page) in self.index.chunk_by(|x, y| x.pid == y.pid).enumerate() {
            let redo = redo_from_last_image(page)?;
            skipped += (page.len() - redo.len()) as u64;
            if i > 0 && i % per_flush == 0 {
                pool.flush_all()?;
            }
            let mut g: PageMut<'_> = pool.write_page(page[0].pid)?;
            for r in redo {
                let edit = r.edit.map(|range| &self.arena[range.clone()]);
                edit.apply(&mut g[..]);
            }
            g.stamp_lsn(page[page.len() - 1].lsn);
        }
        Ok(skipped)
    }
}

/// The redo rule (module docs): of one page's records, in LSN order, the
/// ones from its last image on, or all of them when it has none. A move
/// before the page's first image has no image to start from: the log is
/// [`PoolError::Corrupt`].
fn redo_from_last_image(page: &[Redo]) -> Result<&[Redo], PoolError> {
    let first = page
        .iter()
        .position(|r| r.edit.is_image())
        .unwrap_or(page.len());
    if page[..first].iter().any(|r| r.edit.is_move()) {
        return Err(PoolError::Corrupt {
            pid: page[0].pid,
            reason: "WAL move on a page with no earlier image",
        });
    }
    let last = page.iter().rposition(|r| r.edit.is_image()).unwrap_or(0);
    Ok(&page[last..])
}

/// Replays the log in `wal_file` against `pool`: an analysis scan
/// rebuilds the free list and redoes allocations in log order and
/// collects the committed page writes; the redo applies those per page,
/// in LSN order (idempotent redo, each page read and written once; see
/// the module docs). The log is cut (zero-filled) after its last COMMIT
/// frame, every replayed page is flushed, and a ready-to-append [`Wal`]
/// positioned there is returned with its gate registered.
pub fn recover(pool: &BufferPool, wal_file: FileId) -> Result<(Wal, RecoveryReport), PoolError> {
    let npages = pool.num_pages(wal_file);
    let mut st = WalState::fresh(wal_file);
    st.disk_pages = npages;

    let mut report = RecoveryReport {
        ops_applied: 0,
        last_op: 0,
        frames_scanned: 0,
        torn_tail: false,
        discarded_tail: false,
        free_pages: 0,
        edits_skipped: 0,
    };
    // The scanned operation's alloc/free records; its page edits go
    // straight to the redo list.
    let mut pending: Vec<WalRec> = Vec::new();
    let mut redo = RedoList::default();
    let mut last_lsn = 0u64;
    // Just past the last COMMIT frame: page number, offset, LSN, and that
    // page's prefix up to the offset.
    let (mut end_page, mut end_used, mut end_lsn) = (0u32, 0usize, 0u64);
    let mut tail_img = Box::new([0u8; PAGE_SIZE]);

    let mut buf = Box::new([0u8; PAGE_SIZE]);
    for p in 0..npages {
        pool.read_page_through(PageId::new(wal_file, p), &mut buf)?;
        let mut off = 0usize;
        // Scans the page's frames; `true` when one is torn.
        let torn = loop {
            if off + FRAME_HEADER + FRAME_TRAILER > PAGE_SIZE {
                break false; // page exhausted; frames continue on the next page
            }
            let len = u32::from_le_bytes(buf[off..off + 4].try_into().unwrap()) as usize;
            if len == 0 {
                break false; // end-of-page padding
            }
            if len < FRAME_HEADER + FRAME_TRAILER || off + len > PAGE_SIZE {
                break true;
            }
            let stored = u32::from_le_bytes(
                buf[off + len - FRAME_TRAILER..off + len]
                    .try_into()
                    .unwrap(),
            );
            if stored != fnv1a32(&[&buf[off..off + len - FRAME_TRAILER]]) {
                break true;
            }
            let lsn = u64::from_le_bytes(buf[off + 4..off + 12].try_into().unwrap());
            if lsn != last_lsn + 1 {
                // A stale remnant of an earlier tail rewrite: its checksum
                // holds but its LSN breaks the strict chain.
                break true;
            }
            let flags = buf[off + 12];
            let records = &buf[off + FRAME_HEADER..off + len - FRAME_TRAILER];
            if flags & !FLAG_COMMIT != 0 || decode_frame(records, &mut redo, &mut pending).is_none()
            {
                break true;
            }
            last_lsn = lsn;
            report.frames_scanned += 1;
            off += len;
            if flags & FLAG_COMMIT != 0 {
                // The operation is fully logged: its free-list and
                // allocation effects apply now, in record order; its page
                // edits wait for the page-ordered redo.
                for rec in pending.drain(..) {
                    match rec {
                        WalRec::Free(pid) => {
                            st.freelist.release(pid);
                        }
                        WalRec::Alloc(pid) => {
                            st.freelist.reclaim(pid);
                            ensure_allocated(pool, pid)?;
                        }
                        WalRec::Page(..) => unreachable!("page edits go to the redo list"),
                    }
                }
                redo.commit(lsn);
                report.ops_applied += 1;
                (end_page, end_used, end_lsn) = (p, off, lsn);
            }
        };
        // The scan leaves this page: keep its committed prefix, if it has
        // one.
        if end_page == p && end_used > 0 {
            tail_img[..end_used].copy_from_slice(&buf[..end_used]);
            tail_img[end_used..].fill(0);
        }
        if torn {
            report.torn_tail = true;
            break;
        }
    }

    let discarded = redo.discard_uncommitted();
    report.discarded_tail = discarded || !pending.is_empty();
    report.last_op = report.ops_applied;
    report.edits_skipped = redo.apply(pool)?;

    // Cut the log: rewrite the page of the last COMMIT frame as exactly its
    // prefix up to that frame and zero-fill everything after it, so a
    // future recovery (and the resumed log) never meets the torn bytes or
    // the uncommitted frames again.
    if npages > 0 {
        pool.write_page_through(PageId::new(wal_file, end_page), &tail_img)?;
        let zero = [0u8; PAGE_SIZE];
        for p in end_page + 1..npages {
            pool.write_page_through(PageId::new(wal_file, p), &zero)?;
        }
    }

    // Push every replayed page to disk: recovery ends with a clean,
    // fully durable state (the twin-comparison baseline).
    pool.flush_all()?;

    st.tail = tail_img;
    st.used = end_used;
    st.tail_page = end_page;
    st.next_lsn = end_lsn + 1;
    st.durable_lsn = end_lsn;
    report.free_pages = st.freelist.len();

    let wal = Wal {
        shared: Arc::new(WalShared {
            state: Mutex::new(st),
        }),
    };
    pool.set_lsn_gate(Some(wal.gate()));
    Ok((wal, report))
}

/// Takes the next `n` bytes off `cur`.
fn take<'a>(cur: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    let (head, rest) = cur.split_at_checked(n)?;
    *cur = rest;
    Some(head)
}

fn take_u16(cur: &mut &[u8]) -> Option<u16> {
    let (head, rest) = cur.split_first_chunk()?;
    *cur = rest;
    Some(u16::from_le_bytes(*head))
}

fn take_u32(cur: &mut &[u8]) -> Option<u32> {
    let (head, rest) = cur.split_first_chunk()?;
    *cur = rest;
    Some(u32::from_le_bytes(*head))
}

/// Decodes one frame's records: page edits into the redo list, allocs and
/// frees into `pending`. `None` when they do not parse — a frame with no
/// record, an unknown kind, a short field, an edit off its page, or a
/// same-page record that opens the frame and so has no page to be on.
fn decode_frame(mut cur: &[u8], redo: &mut RedoList, pending: &mut Vec<WalRec>) -> Option<()> {
    if cur.is_empty() {
        return None;
    }
    let mut prev: Option<PageId> = None;
    while let Some((&kind, rest)) = cur.split_first() {
        cur = rest;
        let pid = if kind & SAME_PAGE != 0 {
            prev?
        } else {
            let file = FileId(take_u32(&mut cur)?);
            PageId::new(file, take_u32(&mut cur)?)
        };
        prev = Some(pid);
        let edit = match kind & !SAME_PAGE {
            KIND_ALLOC => {
                pending.push(WalRec::Alloc(pid));
                continue;
            }
            KIND_FREE => {
                pending.push(WalRec::Free(pid));
                continue;
            }
            KIND_WRITE => {
                let off = take_u16(&mut cur)?;
                let n = take_u16(&mut cur)?;
                Edit::Write {
                    off,
                    bytes: take(&mut cur, usize::from(n))?,
                }
            }
            KIND_IMAGE => {
                let n = take_u16(&mut cur)?;
                Edit::Image(take(&mut cur, usize::from(n))?)
            }
            KIND_MOVE => Edit::Move {
                from: take_u16(&mut cur)?,
                to: take_u16(&mut cur)?,
                len: take_u16(&mut cur)?,
            },
            _ => return None,
        };
        if !edit.fits() {
            return None;
        }
        redo.push(pid, edit);
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{Disk, DiskBackend, MemBackend, SharedBackend};
    use crate::stats::CostModel;

    fn pool(frames: usize) -> BufferPool {
        let disk = Disk::new(Box::new(MemBackend::new()), CostModel::free());
        BufferPool::new(disk, frames)
    }

    fn op_writing(pid: PageId, off: usize, bytes: &[u8], alloc: bool) -> WalOp {
        let mut op = WalOp::new();
        if alloc {
            op.alloc(pid);
        }
        op.page_write(pid, off, bytes);
        op
    }

    #[test]
    fn commit_apply_flush_recover_round_trip() {
        let p = pool(8);
        let wal = Wal::create(&p);
        let data = p.create_file();
        let pid = PageId::new(data, 0);
        wal.commit(&p, op_writing(pid, 10, b"hello wal", true))
            .unwrap();
        wal.flush(&p).unwrap();
        assert_eq!(wal.durable_lsn(), wal.last_lsn());
        // The page is applied in the pool...
        assert_eq!(&p.read_page(pid).unwrap()[10..19], b"hello wal");
        // ...and replays identically into a cold pool sharing the disk.
        p.flush_all().unwrap();
        let stats = wal.stats();
        assert_eq!(stats.commits, 1);
        assert_eq!(
            stats.frames, 1,
            "the alloc and the write share a COMMIT frame"
        );
        // Frame header and checksum, the alloc, then the write on the same
        // page without its page id.
        assert_eq!(stats.bytes, 17 + 9 + (1 + 4 + 9));
    }

    #[test]
    fn gate_makes_log_durable_before_page_writeback() {
        // One frame of budget: applying a logged write and then touching a
        // second page forces eviction of the first — the gate must flush
        // the log before that write-back.
        let p = pool(1);
        let wal = Wal::create(&p);
        let data = p.create_file();
        let pid = PageId::new(data, 0);
        wal.commit(&p, op_writing(pid, 0, &[7u8; 16], true))
            .unwrap();
        assert_eq!(wal.durable_lsn(), 0, "commit alone is not durable");
        let other = PageId::new(data, 1);
        let mut op = WalOp::new();
        op.alloc(other);
        op.page_write(other, 0, &[9u8; 4]);
        wal.commit(&p, op).unwrap();
        // The second commit's apply evicted page 0; the gate flushed the
        // log through the second op's frame.
        assert_eq!(wal.durable_lsn(), 2, "gate flushed the log");
        assert!(wal.stats().gate_flushes >= 1);
        let mut img = [0u8; PAGE_SIZE];
        p.read_page_through(pid, &mut img).unwrap();
        assert_eq!(&img[..16], &[7u8; 16]);
    }

    #[test]
    fn recover_replays_committed_ops_and_truncates_garbage() {
        let p = pool(8);
        let wal = Wal::create(&p);
        let wal_file = wal.file();
        let data = p.create_file();
        for i in 0..5u8 {
            let pid = PageId::new(data, u32::from(i));
            wal.commit(&p, op_writing(pid, 0, &[i + 1; 64], true))
                .unwrap();
        }
        wal.flush(&p).unwrap();
        let committed_lsn = wal.durable_lsn();
        drop(wal);
        // Simulate a crash: the log reached disk, the data pages did not
        // (8 frames of budget — no eviction pressure, so no write-back).
        p.set_lsn_gate(None);
        let mut img = [0u8; PAGE_SIZE];
        p.read_page_through(PageId::new(data, 0), &mut img).unwrap();
        assert_eq!(img[0], 0, "data page not yet written back");
        // A true restart (cold pool over the surviving disk) is exercised
        // end-to-end by tests/crash_recovery.rs; here recovery replays
        // into the same pool, which must converge to the same bytes.
        let (wal2, report) = recover(&p, wal_file).unwrap();
        assert_eq!(report.ops_applied, 5);
        assert_eq!(report.last_op, 5);
        assert!(!report.torn_tail);
        assert!(!report.discarded_tail);
        assert_eq!(wal2.durable_lsn(), committed_lsn);
        p.read_page_through(PageId::new(data, 4), &mut img).unwrap();
        assert_eq!(img[0], 5, "replayed and flushed");
        // The recovered log accepts new commits and numbers them after
        // the replayed history: one COMMIT frame.
        let pid = PageId::new(data, 0);
        let lsn = wal2
            .commit(&p, op_writing(pid, 0, &[0xAB; 8], false))
            .unwrap();
        assert_eq!(lsn, committed_lsn + 1);
    }

    #[test]
    fn failed_log_append_is_retried_in_place() {
        let backend = crate::fault::FaultBackend::new(MemBackend::new(), Default::default());
        let faults = backend.handle();
        let p = BufferPool::new(Disk::new(Box::new(backend), CostModel::free()), 8);
        let wal = Wal::create(&p);
        let wal_file = wal.file();
        let pid = PageId::new(p.create_file(), 0);
        wal.commit(&p, op_writing(pid, 0, &[3u8; 32], true))
            .unwrap();
        // The first append of the log's first page faults, after the disk
        // allocated the page; the retry must write that page, not a second.
        faults.reset();
        faults.set_config(crate::fault::FaultConfig::write_at(0));
        assert!(wal.flush(&p).is_err());
        wal.flush(&p).unwrap();
        assert_eq!(p.num_pages(wal_file), 1);
        drop(wal);
        p.set_lsn_gate(None);
        let (_, report) = recover(&p, wal_file).unwrap();
        assert_eq!(report.ops_applied, 1);
    }

    #[test]
    fn torn_tail_is_detected_and_discarded() {
        let p = pool(8);
        let wal = Wal::create(&p);
        let wal_file = wal.file();
        let data = p.create_file();
        let pid = PageId::new(data, 0);
        wal.commit(&p, op_writing(pid, 0, &[1u8; 32], true))
            .unwrap();
        wal.flush(&p).unwrap();
        wal.commit(&p, op_writing(pid, 32, &[2u8; 32], false))
            .unwrap();
        wal.flush(&p).unwrap();
        // Tear the log tail page: keep the first committed op's bytes,
        // corrupt a byte inside the second op's frames.
        let mut img = [0u8; PAGE_SIZE];
        let tail = PageId::new(wal_file, 0);
        p.read_page_through(tail, &mut img).unwrap();
        // The second op's frame follows op 1's one frame.
        let off = u32::from_le_bytes(img[..4].try_into().unwrap()) as usize;
        img[off + FRAME_HEADER + 2] ^= 0xFF;
        p.write_page_through(tail, &img).unwrap();
        let (wal2, report) = recover(&p, wal_file).unwrap();
        assert_eq!(report.ops_applied, 1, "only the intact op survives");
        assert!(report.torn_tail);
        // The torn bytes were zeroed: recovering again is clean.
        drop(wal2);
        let (_, again) = recover(&p, wal_file).unwrap();
        assert_eq!(again.ops_applied, 1);
        assert!(!again.torn_tail, "truncation removed the torn tail");
    }

    #[test]
    fn free_list_rebuild_follows_alloc_free_frames() {
        let p = pool(8);
        let wal = Wal::create(&p);
        let wal_file = wal.file();
        let data = p.create_file();
        for page in 0..3 {
            wal.commit(&p, op_writing(PageId::new(data, page), 0, &[1u8; 8], true))
                .unwrap();
        }
        // Free page 1, then reuse it.
        let mut op = WalOp::new();
        op.free(PageId::new(data, 1));
        op.page_write(PageId::new(data, 1), 0, &0u32.to_le_bytes());
        wal.commit(&p, op).unwrap();
        assert_eq!(wal.free_pages_of(data), vec![1]);
        let got = wal.acquire_free_page(data);
        assert_eq!(got, Some(1));
        let mut op = WalOp::new();
        op.alloc(PageId::new(data, 1));
        op.page_write(PageId::new(data, 1), 0, &[3u8; 8]);
        wal.commit(&p, op).unwrap();
        assert_eq!(wal.freelist_len(), 0);
        wal.flush(&p).unwrap();
        let (wal2, report) = recover(&p, wal_file).unwrap();
        assert_eq!(report.free_pages, 0, "freed then reused: not free");
        assert_eq!(wal2.freelist_len(), 0);
        // A free without reuse survives recovery as free.
        let mut op = WalOp::new();
        op.free(PageId::new(data, 2));
        op.page_write(PageId::new(data, 2), 0, &0u32.to_le_bytes());
        wal2.commit(&p, op).unwrap();
        wal2.flush(&p).unwrap();
        let (wal3, report) = recover(&p, wal_file).unwrap();
        assert_eq!(report.free_pages, 1);
        assert_eq!(wal3.free_pages_of(data), vec![2]);
    }

    /// A log whose operations write five times more pages than an 8-frame
    /// pool holds, in strided order, and overwrite one byte range of a hot
    /// page with different bytes again and again. Returns the log, its
    /// data file and how many pages it writes.
    fn strided_workload(p: &BufferPool) -> (Wal, FileId, u32) {
        const PAGES: u32 = 40;
        let wal = Wal::create(p);
        let data = p.create_file();
        for page in 0..PAGES {
            let pid = PageId::new(data, page);
            wal.commit(p, op_writing(pid, 0, &[page as u8 + 1; 8], true))
                .unwrap();
        }
        for i in 0..240u32 {
            let mut op = WalOp::new();
            let page = (i * 7) % PAGES;
            op.page_write(
                PageId::new(data, page),
                8 + (i as usize % 64) * 16,
                &[i as u8; 16],
            );
            if i % 3 == 0 {
                op.page_write(PageId::new(data, 5), 2048, &i.to_le_bytes().repeat(8));
            }
            wal.commit(p, op).unwrap();
        }
        wal.flush(p).unwrap();
        (wal, data, PAGES)
    }

    fn image(backend: &SharedBackend<MemBackend>) -> Vec<Vec<u8>> {
        backend.with_inner(|b| {
            let mut pages = Vec::new();
            for f in b.live_files() {
                for page in 0..b.num_pages(f) {
                    let mut buf = [0u8; PAGE_SIZE];
                    b.read_page(PageId::new(f, page), &mut buf).unwrap();
                    pages.push(buf.to_vec());
                }
            }
            pages
        })
    }

    #[test]
    fn recovery_reads_and_writes_each_logged_page_once() {
        const FRAMES: usize = 8;
        let costed = |backend: &SharedBackend<MemBackend>| {
            let disk = Disk::new(Box::new(backend.clone()), CostModel::default());
            BufferPool::new(disk, FRAMES)
        };
        // The never-crashed twin, flushed.
        let twin = SharedBackend::new(MemBackend::new());
        let p = costed(&twin);
        drop(strided_workload(&p));
        p.flush_all().unwrap();
        drop(p);
        // The crash: the log is durable, every dirty frame vanishes.
        let crashed = SharedBackend::new(MemBackend::new());
        let p = costed(&crashed);
        let (wal, data, pages) = strided_workload(&p);
        let wal_file = wal.file();
        drop((wal, p));
        let p = costed(&crashed);
        let log_pages = p.num_pages(wal_file);
        let (_wal, report) = recover(&p, wal_file).unwrap();
        let io = p.io_stats();
        assert_eq!(report.ops_applied, 280);
        assert!(!report.torn_tail);
        assert_eq!(image(&crashed), image(&twin), "recovered image differs");
        assert_eq!(p.num_pages(data), pages);
        // Each redone page is read once, beside the log's own pages, and
        // written once, beside the rewritten tail page; the flushes send
        // the redone pages out with one head movement each.
        assert!(log_pages > 1, "log fits one page");
        assert_eq!(io.reads(), u64::from(log_pages + pages), "{io:?}");
        assert!(io.writes() <= u64::from(pages + 1), "{io:?}");
        let flushes = (pages as usize).div_ceil(FRAMES - 2) as u64;
        assert!(io.rand_writes <= flushes + 1, "{io:?}");
    }

    fn cold(backend: &SharedBackend<MemBackend>) -> BufferPool {
        BufferPool::new(Disk::new(Box::new(backend.clone()), CostModel::free()), 8)
    }

    /// Crashes `p` (the log is durable, no dirty frame reaches the disk),
    /// overwrites `garbage` on the disk with 0xEE bytes, and recovers into
    /// a cold pool.
    fn crash_over_garbage(
        backend: &SharedBackend<MemBackend>,
        wal: Wal,
        p: BufferPool,
        garbage: &[PageId],
    ) -> Result<(BufferPool, RecoveryReport), PoolError> {
        wal.flush(&p).unwrap();
        let wal_file = wal.file();
        drop((wal, p));
        let p = cold(backend);
        for &pid in garbage {
            p.write_page_through(pid, &[0xEE; PAGE_SIZE]).unwrap();
        }
        let p = cold(backend);
        let (_, report) = recover(&p, wal_file)?;
        Ok((p, report))
    }

    fn page_bytes(p: &BufferPool, pid: PageId) -> Vec<u8> {
        p.read_page(pid).unwrap().to_vec()
    }

    #[test]
    fn move_without_an_earlier_image_is_corrupt() {
        let backend = SharedBackend::new(MemBackend::new());
        let p = cold(&backend);
        let wal = Wal::create(&p);
        let pid = PageId::new(p.create_file(), 0);
        let mut op = op_writing(pid, 0, &[1u8; 64], true);
        op.page_move(pid, 0, 64, 32);
        wal.commit(&p, op).unwrap();
        // An image after the move does not vouch for it.
        let mut op = WalOp::new();
        op.page_image(pid, &[2u8; 16]);
        wal.commit(&p, op).unwrap();
        let err = crash_over_garbage(&backend, wal, p, &[])
            .map(|_| ())
            .unwrap_err();
        assert!(
            matches!(err, PoolError::Corrupt { pid: at, .. } if at == pid),
            "{err:?}"
        );
    }

    #[test]
    fn records_before_a_pages_last_image_are_ignored_even_over_garbage() {
        let backend = SharedBackend::new(MemBackend::new());
        let p = cold(&backend);
        let wal = Wal::create(&p);
        let pid = PageId::new(p.create_file(), 0);
        // Four edits before the last image: a write, an image, a move and
        // a write.
        let mut op = op_writing(pid, 0, &[1u8; 64], true);
        op.page_image(pid, &[2u8; 100]);
        wal.commit(&p, op).unwrap();
        let mut op = WalOp::new();
        op.page_move(pid, 0, 200, 50);
        op.page_write(pid, 300, &[3u8; 10]);
        wal.commit(&p, op).unwrap();
        // The last image, and what follows it.
        let mut op = WalOp::new();
        op.page_image(pid, &[4u8; 40]);
        op.page_move(pid, 0, 40, 40);
        wal.commit(&p, op).unwrap();
        wal.commit(&p, op_writing(pid, 1000, &[5u8; 8], false))
            .unwrap();
        let forward = page_bytes(&p, pid);
        let mut want = vec![0u8; PAGE_SIZE];
        want[..80].fill(4);
        want[1000..1008].fill(5);
        assert_eq!(forward, want);
        let (p, report) = crash_over_garbage(&backend, wal, p, &[pid]).unwrap();
        assert_eq!(report.ops_applied, 4);
        assert_eq!(report.edits_skipped, 4, "the edits before the last image");
        assert_eq!(page_bytes(&p, pid), forward);
    }

    #[test]
    fn an_image_zero_fills_and_both_paths_land_the_same_bytes() {
        let backend = SharedBackend::new(MemBackend::new());
        let p = cold(&backend);
        let wal = Wal::create(&p);
        let data = p.create_file();
        let (short, full) = (PageId::new(data, 0), PageId::new(data, 1));
        // A page full of 0xFF takes a short image: the rest turns to zeros.
        let mut op = op_writing(short, 0, &[0xFF; PAGE_SIZE], true);
        op.page_image(short, &[7u8; 100]);
        // A full-page image is an image frame plus a write frame.
        let mut img = [0u8; PAGE_SIZE];
        img.iter_mut()
            .enumerate()
            .for_each(|(i, b)| *b = i as u8 | 1);
        op.alloc(full);
        op.page_image(full, &img);
        op.page_move(full, 0, PAGE_SIZE - 16, 16);
        assert_eq!(
            op.recs.len(),
            8,
            "alloc, 2 writes, image; alloc, image + write, move"
        );
        wal.commit(&p, op).unwrap();
        let forward = [page_bytes(&p, short), page_bytes(&p, full)];
        assert!(forward[0][..100].iter().all(|&b| b == 7));
        assert!(
            forward[0][100..].iter().all(|&b| b == 0),
            "the image zero-fills"
        );
        img.copy_within(0..16, PAGE_SIZE - 16);
        assert_eq!(forward[1], img);
        let (p, report) = crash_over_garbage(&backend, wal, p, &[short, full]).unwrap();
        assert_eq!(report.edits_skipped, 2);
        assert_eq!([page_bytes(&p, short), page_bytes(&p, full)], forward);
    }

    #[test]
    fn frames_span_many_pages_and_large_images_split() {
        let p = pool(8);
        let wal = Wal::create(&p);
        let wal_file = wal.file();
        let data = p.create_file();
        // Full page images force chunked frames; enough of them roll the
        // log over several pages.
        for page in 0..6u32 {
            let img = [page as u8 + 1; PAGE_SIZE];
            let mut op = WalOp::new();
            op.alloc(PageId::new(data, page));
            op.page_image(PageId::new(data, page), &img);
            wal.commit(&p, op).unwrap();
        }
        wal.flush(&p).unwrap();
        assert!(p.num_pages(wal_file) > 1, "log rolled over pages");
        let (_, report) = recover(&p, wal_file).unwrap();
        assert_eq!(report.ops_applied, 6);
        assert!(!report.torn_tail);
        let mut img = [0u8; PAGE_SIZE];
        p.read_page_through(PageId::new(data, 5), &mut img).unwrap();
        assert!(img.iter().all(|&b| b == 6));
    }

    /// Every frame of a log file, in order: its log page, offset and
    /// length.
    fn frames_of(p: &BufferPool, wal_file: FileId) -> Vec<(u32, usize, usize)> {
        let mut out = Vec::new();
        let mut img = [0u8; PAGE_SIZE];
        for page in 0..p.num_pages(wal_file) {
            p.read_page_through(PageId::new(wal_file, page), &mut img)
                .unwrap();
            let mut off = 0;
            while off + FRAME_HEADER + FRAME_TRAILER <= PAGE_SIZE {
                let len = u32::from_le_bytes(img[off..off + 4].try_into().unwrap()) as usize;
                if len == 0 {
                    break;
                }
                out.push((page, off, len));
                off += len;
            }
        }
        out
    }

    /// Small ops on data page 0 fill most of the first log page, then one
    /// op writes 1,000 bytes to each of pages 1-3, in frames that cross to
    /// the second log page. Returns the pool, the log, the data file, how
    /// many ops precede the crossing op and how many frames it takes.
    fn log_with_an_op_across_pages(
        backend: &SharedBackend<MemBackend>,
    ) -> (BufferPool, Wal, FileId, u64, usize) {
        const SMALL: u64 = 70;
        let p = cold(backend);
        let wal = Wal::create(&p);
        let data = p.create_file();
        for i in 0..SMALL {
            let pid = PageId::new(data, 0);
            wal.commit(
                &p,
                op_writing(pid, i as usize * 8, &[i as u8 + 1; 8], i == 0),
            )
            .unwrap();
        }
        wal.flush(&p).unwrap();
        let before = wal.stats().frames;
        let mut op = WalOp::new();
        for page in 1..4 {
            op.alloc(PageId::new(data, page));
            op.page_write(PageId::new(data, page), 0, &[0xA0 | page as u8; 1000]);
        }
        wal.commit(&p, op).unwrap();
        wal.flush(&p).unwrap();
        let frames = (wal.stats().frames - before) as usize;
        (p, wal, data, SMALL, frames)
    }

    #[test]
    fn an_op_across_log_pages_torn_at_any_frame_is_discarded_whole() {
        let backend = SharedBackend::new(MemBackend::new());
        let (p, wal, data, small, frames) = log_with_an_op_across_pages(&backend);
        let wal_file = wal.file();
        let all = frames_of(&p, wal_file);
        let op_frames = &all[all.len() - frames..];
        assert!(frames >= 2, "the op takes {frames} frame(s)");
        assert_ne!(
            op_frames[0].0,
            op_frames[frames - 1].0,
            "the op crosses pages"
        );
        let page0 = page_bytes(&p, PageId::new(data, 0));
        drop((wal, p));
        for (tear, &(page, off, _)) in op_frames.iter().enumerate() {
            let backend = SharedBackend::new(MemBackend::new());
            let (p, wal, data, ..) = log_with_an_op_across_pages(&backend);
            drop(wal);
            // The crash: the log is durable, no data page is; one byte of
            // one of the op's frames is torn.
            let mut img = [0u8; PAGE_SIZE];
            let at = PageId::new(wal_file, page);
            p.read_page_through(at, &mut img).unwrap();
            img[off + FRAME_HEADER + 3] ^= 0xFF;
            p.write_page_through(at, &img).unwrap();
            drop(p);
            let p = cold(&backend);
            let (wal, report) = recover(&p, wal_file).unwrap();
            assert_eq!(report.ops_applied, small, "tear at frame {tear}");
            assert_eq!(report.last_op, small);
            assert!(report.torn_tail);
            assert_eq!(report.discarded_tail, tear > 0, "tear at frame {tear}");
            let untouched = |p: &BufferPool| {
                (1..4).all(|page| {
                    let pid = PageId::new(data, page);
                    pid.page >= p.num_pages(data) || page_bytes(p, pid).iter().all(|&b| b == 0)
                })
            };
            assert_eq!(page_bytes(&p, PageId::new(data, 0)), page0);
            assert!(
                untouched(&p),
                "tear at frame {tear}: the op's writes survived"
            );
            // The resumed log starts after the last COMMIT frame: the next
            // op's COMMIT must not adopt the torn op's complete frames.
            wal.commit(&p, op_writing(PageId::new(data, 0), 0, &[0xAB; 8], false))
                .unwrap();
            wal.flush(&p).unwrap();
            drop((wal, p));
            let p = cold(&backend);
            let (_, report) = recover(&p, wal_file).unwrap();
            assert_eq!(report.ops_applied, small + 1, "tear at frame {tear}");
            assert!(!report.torn_tail && !report.discarded_tail);
            assert_eq!(&page_bytes(&p, PageId::new(data, 0))[..8], &[0xAB; 8]);
            assert!(
                untouched(&p),
                "tear at frame {tear}: a later commit adopted the op"
            );
        }
        // Untorn, the op redoes whole.
        let p = cold(&backend);
        let (_, report) = recover(&p, wal_file).unwrap();
        assert_eq!(report.ops_applied, small + 1);
        for page in 1..4u32 {
            let bytes = page_bytes(&p, PageId::new(data, page));
            assert!(bytes[..1000].iter().all(|&b| b == 0xA0 | page as u8));
        }
    }

    #[test]
    fn a_same_page_record_opening_a_frame_is_torn_not_applied() {
        for same_page in [true, false] {
            let backend = SharedBackend::new(MemBackend::new());
            let p = cold(&backend);
            let wal = Wal::create(&p);
            let wal_file = wal.file();
            let pid = PageId::new(p.create_file(), 0);
            wal.commit(&p, op_writing(pid, 0, &[1u8; 8], true)).unwrap();
            wal.flush(&p).unwrap();
            drop((wal, p));
            // Hand-build the second frame: a write of four 0xCC bytes at
            // offset 100, its page id left out behind the same-page bit (or,
            // as the control, spelled out).
            let mut frame = vec![0u8; FRAME_HEADER];
            if same_page {
                frame.push(KIND_WRITE | SAME_PAGE);
            } else {
                frame.push(KIND_WRITE);
                frame.extend_from_slice(&pid.file.0.to_le_bytes());
                frame.extend_from_slice(&pid.page.to_le_bytes());
            }
            frame.extend_from_slice(&100u16.to_le_bytes());
            frame.extend_from_slice(&4u16.to_le_bytes());
            frame.extend_from_slice(&[0xCC; 4]);
            let len = frame.len() + FRAME_TRAILER;
            frame[..4].copy_from_slice(&(len as u32).to_le_bytes());
            frame[4..12].copy_from_slice(&2u64.to_le_bytes());
            frame[12] = FLAG_COMMIT;
            let sum = fnv1a32(&[&frame]);
            // The frame checksum is part of the log format.
            assert_eq!(
                sum,
                if same_page {
                    2_634_524_949
                } else {
                    4_249_498_895
                }
            );
            frame.extend_from_slice(&sum.to_le_bytes());
            let p = cold(&backend);
            let at = PageId::new(wal_file, 0);
            let mut img = [0u8; PAGE_SIZE];
            p.read_page_through(at, &mut img).unwrap();
            let off = u32::from_le_bytes(img[..4].try_into().unwrap()) as usize;
            img[off..off + len].copy_from_slice(&frame);
            p.write_page_through(at, &img).unwrap();
            drop(p);
            let p = cold(&backend);
            let (_, report) = recover(&p, wal_file).unwrap();
            let landed = &page_bytes(&p, pid)[100..104];
            if same_page {
                assert_eq!(report.ops_applied, 1, "the same-page frame committed");
                assert!(report.torn_tail);
                assert_eq!(landed, &[0; 4], "applied to a guessed page");
            } else {
                assert_eq!(report.ops_applied, 2, "the control frame is well formed");
                assert!(!report.torn_tail);
                assert_eq!(landed, &[0xCC; 4]);
            }
        }
    }
}
